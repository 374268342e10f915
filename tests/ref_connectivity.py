"""The two pivot loops of Even's reduction as first written, used only as a test oracle.

``ref_is_k_strong`` tests strong connectivity with a BFS pair first, then
scans k pivots and stops at the first pair below k.  ``ref_kappa`` makes
the same BFS test, then scans pivots while their number does not exceed the
running minimum.  ``klinkage.connectivity`` runs both through one pivot
scan with no BFS pre-pass; the tests require the same answers, the same
kernel calls on strong inputs for ``is_k_strong`` and no more for ``kappa``.
"""

from __future__ import annotations

from klinkage import _kernel
from klinkage.connectivity import _pivot_pairs


def ref_is_k_strong(d, k: int) -> bool:
    if d.order < k + 1:
        return False
    if k <= 0:
        return True
    if not d.is_strong():
        return False
    for v in list(d.vertices())[:k]:
        for a, b in _pivot_pairs(d, v):
            if _kernel.local_connectivity(d, a, b, k) < k:
                return False
    return True


def ref_kappa(d) -> int:
    if not d.is_strong():
        return 0
    best = d.order - 1
    for i, v in enumerate(d.vertices()):
        if i > best:
            break
        for a, b in _pivot_pairs(d, v):
            best = min(best, _kernel.local_connectivity(d, a, b, best))
    return best

"""Per-arc digraph loader, used only as a test oracle.

``ref_digraph_from_obj`` checks every arc with ``isinstance`` and ``len``
and builds the masks with ``ref_from_arcs``, which range-checks, rejects
self-loops and looks for a duplicate at each arc in turn.
``jsonio.digraph_from_obj`` and ``Digraph.from_arcs`` instead build the
out-rows in one loop that also checks each id's type and range, with bulk
repeat and self-loop checks after it, and fall back to per-arc loops (the
type check, then the range, self-loop and repeat checks with witness
vertices on their errors) only when a bulk check fails; the tests require
the identical digraph, or the identical exception class and message, from
both.
"""

from __future__ import annotations

from typing import Any

from klinkage.digraph import Digraph
from klinkage.errors import FormatError, InputError
from klinkage.jsonio import _field, _id_lists, _is_id


def ref_from_arcs(n: int, arcs) -> Digraph:
    if n < 0:
        raise InputError(f"negative vertex count {n}")
    out = [0] * n
    inc = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"arc ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise InputError(f"self-loop at {u}")
        bit = 1 << v
        if out[u] & bit:
            raise InputError(f"arc ({u},{v}) listed twice")
        out[u] |= bit
        inc[v] |= 1 << u
    return Digraph(n, (1 << n) - 1, out, inc)


def ref_digraph_from_obj(obj: Any, source: str = "<input>") -> tuple[Digraph, list | None]:
    if not isinstance(obj, dict):
        raise FormatError(f"{source}: expected a JSON object")
    n = _field(obj, "n", source)
    arcs = _field(obj, "arcs", source)
    if not _is_id(n) or n < 0:
        raise FormatError(f"{source}: field 'n' must be a non-negative integer")
    if not isinstance(arcs, list):
        raise FormatError(f"{source}: field 'arcs' must be a list")
    for i, arc in enumerate(arcs):
        if not (isinstance(arc, list) and len(arc) == 2 and all(map(_is_id, arc))):
            raise FormatError(f"{source}: field 'arcs[{i}]' must be a pair of integers")
    try:
        d = ref_from_arcs(n, arcs)
    except Exception as exc:
        raise FormatError(f"{source}: {exc}") from exc
    parts = obj.get("parts")
    if parts is not None:
        if not _id_lists(parts):
            raise FormatError(f"{source}: field 'parts' must be a list of id lists")
        if not all(0 <= v < n for p in parts for v in p):
            raise FormatError(f"{source}: field 'parts' must hold vertex ids 0..{n - 1}")
        parts = [list(p) for p in parts]
    return d, parts

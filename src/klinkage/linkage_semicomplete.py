"""Linkage solver for semicomplete digraphs.

Pipeline: build a nearly in-dominating set U outside the terminals, split
the sources into matched ones (with enough strong out-dominators of U) and
the rest, route a minimum-total-vertex disjoint path system from U onto the
targets, then stitch short connectors from the sources to the initial
vertices of that system.  The connector step (``_connect``, which
``anchor_connectors`` wraps with the check on U) is the workhorse: it links
a set A to chosen initial vertices by paths of length at most 3, and the
minimality of the U-to-Y system guarantees the connectors stay clear of
it; that guarantee is checked, not trusted.
"""

from __future__ import annotations

from .connectivity import is_k_strong, min_vertex_menger
from .digraph import Digraph, _union, is_semicomplete, iter_bits, mask_of
from .dominators import _first_c_good, nearly_in_dominating_set, verify_nearly_in_dominating_set
from .errors import ConstructionFailedError, PreconditionViolatedError, witness_of
from .paths import Infeasible, LinkageInstance, PathSystem
from .reports import SolveReport

__all__ = ["anchor_connectors", "audit_hypotheses", "partition_terminals", "solve_semicomplete"]


def _layer_masks(q: PathSystem) -> tuple[int, int]:
    """Masks of the 2nd and 3rd vertices over all paths of the system."""
    y2 = mask_of(p[1] for p in q.paths if len(p) > 1)
    y3 = mask_of(p[2] for p in q.paths if len(p) > 2)
    return y2, y3


def anchor_connectors(d: Digraph, xs, ys, ws, us, q: PathSystem, anchors, targets) -> PathSystem:
    """Short connectors from ``anchors`` onto ``targets`` in Ini(q).

    Builds one (a_i, s_i)-path of length at most 3 per anchor, of the form
    a->a+->s or a->a+->a++->s, inside the digraph with the q-system, W and
    X removed (targets and anchors added back).  Preconditions are audited
    up front and a violation names the failing clause; a greedy exhaustion
    after a clean audit is a bug and raises ConstructionFailedError.
    """
    xs, ys, ws, us = list(xs), list(ys), list(ws), list(us)
    _check_sets(xs, ys, ws, us)
    if not verify_nearly_in_dominating_set(d, xs, ys, us, d.order):
        raise PreconditionViolatedError("U is not a nearly in-dominating set outside X, Y")
    return _connect(d, xs, ys, ws, us, q, anchors, targets)


def _check_sets(xs, ys, ws, us) -> tuple[int, int, int, int]:
    """The size and disjointness clauses on X, Y, W and U; returns their masks."""
    k = len(xs)
    x_mask, y_mask, w_mask, u_mask = map(mask_of, (xs, ys, ws, us))
    if x_mask & y_mask or x_mask & w_mask or y_mask & w_mask:
        raise PreconditionViolatedError("X, Y, W must be pairwise disjoint")
    if len(ys) != k:
        raise PreconditionViolatedError("|X| and |Y| must agree")
    if len(us) != 3 * k:
        raise PreconditionViolatedError(f"U must have 3k={3 * k} vertices, has {len(us)}")
    return x_mask, y_mask, w_mask, u_mask


def _connect(d: Digraph, xs, ys, ws, us, q: PathSystem, anchors, targets) -> PathSystem:
    """``anchor_connectors`` without the check that U is nearly in-dominating.

    The pipeline calls it for both connector stages: its U is the output of
    ``nearly_in_dominating_set`` for the same d, X and Y, which is nearly
    in-dominating by construction.  Every other clause is checked here, in
    the same order.  c-goodness and the middles live in d minus the
    terminals, and both are read from d's masks ANDed with that
    subdigraph's alive mask; the first hop is ``_first_c_good``'s pick.
    """
    xs, ys, ws, us = list(xs), list(ys), list(ws), list(us)
    anchors, targets = list(anchors), list(targets)
    k = len(xs)
    x_mask, y_mask, w_mask, u_mask = _check_sets(xs, ys, ws, us)

    ini_q = q.initials()
    ini_mask = mask_of(ini_q)
    q_mask = mask_of(q.vertices())
    if len(q.paths) != k or not q.terminals() <= set(ys):
        raise PreconditionViolatedError("q-system must hold k disjoint paths onto Y")
    if not ini_q <= set(us):
        raise PreconditionViolatedError("q-system must start inside U")
    if q_mask & u_mask != ini_mask:
        raise PreconditionViolatedError(
            "q-system touches U off its initial vertices (not minimum)"
        )
    if len(anchors) > k:
        raise PreconditionViolatedError(f"at most k={k} anchors allowed")
    if len(targets) != len(anchors):
        raise PreconditionViolatedError("one target per anchor required")
    a_mask = mask_of(anchors)
    if a_mask & (w_mask | ini_mask):
        raise PreconditionViolatedError("anchors must avoid W and Ini(q)")
    t_mask = mask_of(targets)
    if len(targets) != t_mask.bit_count():
        raise PreconditionViolatedError(f"targets must be distinct (witness: {targets})",
                                        clause="targets must be distinct", vertices=targets)
    if t_mask & ~ini_mask or t_mask & w_mask:
        raise PreconditionViolatedError(f"targets must lie in Ini(q) minus W (witness: {targets})",
                                        clause="targets must lie in Ini(q) minus W", vertices=targets)

    y2_mask, y3_mask = _layer_masks(q)
    outside = d.alive_mask & ~(x_mask | y_mask | u_mask)
    helper_pool = _union(d._out, u_mask & ~ini_mask)  # an in-neighbour in U minus Ini(q)
    need = 7 * k + 3 * len(ws) + 7 * len(anchors)
    for a in anchors:
        have = (d.out_mask(a) & outside & helper_pool).bit_count()
        if have < need:
            raise PreconditionViolatedError(
                f"anchor needs {need} dominator-backed out-neighbours, has {have} (witness: {a})",
                clause="anchor needs dominator-backed out-neighbours", vertices=(a,),
                counts={"need": need, "have": have},
            )

    if not anchors:
        return PathSystem((), (), "anchor")

    alive = d.alive_mask & ~d._check_vertices(set(xs) | set(ys))
    out, inc = d._out, d._in
    c = 3 * k + len(ws) + 3 * len(anchors)

    hops: list[int] = []
    taken = 0
    for a, s in zip(anchors, targets):
        cand = out[a] & outside & helper_pool & ~y2_mask & ~w_mask & ~taken
        pick = _first_c_good(d, cand, s, alive, c)
        if pick is None:
            raise ConstructionFailedError(f"no first hop for anchor {a}", vertices=(a,))
        hops.append(pick)
        taken |= 1 << pick
    hop_mask = taken

    paths: list[tuple[int, ...]] = []
    mid_taken = 0
    for a, hop, s in zip(anchors, hops, targets):
        if d.has_arc(hop, s):
            paths.append((a, hop, s))
            continue
        # hop is c-good for s without the arc hop->s, so out[hop] & in[s] & alive
        # has c = 3k+|W|+3|A| bits; the mask drops at most c-1 of them: A, Ini(q),
        # the 2nd and 3rd layers of q (k each), W, the hops and earlier middles
        middles = out[hop] & inc[s] & alive & ~(
            a_mask | ini_mask | y2_mask | y3_mask | w_mask | hop_mask | mid_taken)
        if not middles:
            raise AssertionError(f"c-good hop {hop} has no middle towards {s}")
        mid = next(iter_bits(middles))
        mid_taken |= 1 << mid
        paths.append((a, hop, mid, s))

    forbidden = (q_mask & ~t_mask) | w_mask | ((x_mask | y_mask) & ~a_mask)
    for p in paths:
        overlap = mask_of(p) & forbidden
        if overlap:
            raise ConstructionFailedError(
                f"connector touched the protected region at {list(iter_bits(overlap))}",
                vertices=iter_bits(overlap),
            )
    return PathSystem(tuple(paths), tuple(zip(anchors, targets)), "anchor")


def partition_terminals(d: Digraph, xs, ys, us, k: int):
    """Split sources by whether they see k distinct strong out-dominators of U.

    Returns (matched sources, source -> helper matching, leftover sources).
    Helpers are 2k-out-dominators of U outside the terminals and U, matched
    greedily (smallest id first); the members with at least k candidates
    always match.  The helpers are counted at once: ``planes[i]`` holds bit
    i of each outside vertex's number of out-neighbours in U, summed over
    U's in-masks with a ripple carry that adds a plane rather than wrap;
    the helpers are the counts of at least 2k, compared from the top plane.
    """
    xs, ys, us = list(xs), list(ys), list(us)
    u_mask = mask_of(us)
    outside = d.alive_mask & ~(mask_of(xs) | mask_of(ys) | u_mask)
    need = max(2 * k, 0)
    planes = [0] * need.bit_length()
    for u in iter_bits(u_mask):
        carry = d.in_mask(u) & outside
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    above, equal = 0, outside  # counts above / equal to need on the planes so far
    for i, plane in reversed(list(enumerate(planes))):
        if need >> i & 1:
            equal &= plane
        else:
            above |= equal & plane
            equal &= ~plane
    dominator_mask = above | equal
    matched: list[int] = []
    matching: dict[int, int] = {}
    leftover: list[int] = []
    used = 0
    for x in xs:
        cands = d.out_mask(x) & dominator_mask
        if cands.bit_count() >= k:
            pick = next(iter_bits(cands & ~used))
            matched.append(x)
            matching[x] = pick
            used |= 1 << pick
        else:
            leftover.append(x)
    return matched, matching, leftover


def audit_hypotheses(audit: dict, d: Digraph, before, after,
                     skipped: list[str] | None) -> SolveReport | None:
    """The hypothesis audit of all three solvers.

    ``before`` and ``after`` are the solver's ``(hypothesis, holds)``
    clauses around the bound ``audit["kappa_threshold"]``, checked in order.
    With ``skipped`` (the checks a skip-audit solve leaves out) only
    ``before`` is checked, and the audit records that kappa was not
    measured.  Returns the report naming the first violated hypothesis, or
    None.
    """
    for hypothesis, holds in before:
        if not holds:
            return SolveReport.of_hypothesis(hypothesis, audit)
    if skipped is not None:
        audit["kappa_at_least"] = None
        audit["skipped"] = skipped
        return None
    b = audit["kappa_threshold"]
    audit["kappa_at_least"] = is_k_strong(d, b)
    for hypothesis, holds in [(f"kappa < {b}", audit["kappa_at_least"]), *after]:
        if not holds:
            return SolveReport.of_hypothesis(hypothesis, audit)
    return None


def solve_semicomplete(instance: LinkageInstance, skip_audit: bool = False) -> SolveReport:
    """Linkage pipeline for semicomplete digraphs.

    Hypotheses (semicompleteness, 3k-strong, min out-degree 22k) are
    audited up front unless ``skip_audit``; the pipeline frequently succeeds
    below the guaranteed bounds, and either way the outcome is certified by
    ``verify_linkage`` before being reported as linked.
    """
    d = instance.digraph
    k = instance.k
    xs, ys = instance.sources(), instance.targets()
    audit: dict = {"class": "semicomplete", "k": k, "semicomplete": is_semicomplete(d),
                   "min_out_degree": d.min_out_degree(), "kappa_threshold": 3 * k,
                   "out_degree_threshold": 22 * k}
    violation = audit_hypotheses(
        audit, d, [("not semicomplete", audit["semicomplete"])],
        [(f"min out-degree < {22 * k}", audit["min_out_degree"] >= 22 * k)],
        ["kappa", "min_out_degree"] if skip_audit else None)
    if violation:
        return violation

    if all(d.has_arc(x, y) for x, y in instance.pairs):
        system = PathSystem(tuple(instance.pairs), tuple(instance.pairs), "direct-arcs")
        return SolveReport.certified(d, instance.pairs, system, audit)

    try:
        us = nearly_in_dominating_set(d, xs, ys, 3 * k)
    except PreconditionViolatedError as exc:
        return SolveReport.of_stage("dominating-set", exc.witness(), audit)

    matched, matching, leftover = partition_terminals(d, xs, ys, us, k)
    helpers = [matching[x] for x in matched]

    result = min_vertex_menger(d, us, ys, avoid=list(set(xs) | set(helpers)))
    if isinstance(result, Infeasible):
        return SolveReport.of_stage("menger", witness_of(
            "a separator meets every U-to-Y path", result.separator, {"need": k}), audit)
    q = result
    start_of = {p[-1]: p[0] for p in q.paths}
    q_for = {x: start_of[y] for x, y in instance.pairs}

    # matched sources ride their helper into U off the q-system starts; a
    # helper has at least 2k out-neighbours in U, and Ini(q) and the earlier
    # landings take at most k + (k-1) of them
    ini_mask = mask_of(q.initials())
    u_mask = mask_of(us)
    p1: dict[int, tuple[int, ...]] = {}
    used_lands = 0
    for x in matched:
        helper = matching[x]
        lands = d.out_mask(helper) & u_mask & ~ini_mask & ~used_lands
        if not lands:
            raise AssertionError(f"helper {helper} of source {x} has no landing vertex")
        land = next(iter_bits(lands))
        used_lands |= 1 << land
        p1[x] = (x, helper, land)

    # leftover sources connect straight to their q-start; the helper layer
    # (interiors plus landing vertices) is the protected region
    w_p2 = sorted(set(helpers) | {p1[x][2] for x in matched})
    try:
        p2 = _connect(d, xs, ys, w_p2, us, q, leftover, [q_for[x] for x in leftover])
    except (PreconditionViolatedError, ConstructionFailedError) as exc:
        return SolveReport.of_stage("anchor-direct", exc.witness(), audit)

    # landed sources walk from their landing vertex to their q-start
    w_r = sorted(set(helpers) | {v for p in p2.paths for v in p[1:-1]})
    try:
        r = _connect(
            d, xs, ys, w_r, us, q, [p1[x][2] for x in matched], [q_for[x] for x in matched]
        )
    except (PreconditionViolatedError, ConstructionFailedError) as exc:
        return SolveReport.of_stage("anchor-landed", exc.witness(), audit)

    q_path = {p[0]: p for p in q.paths}
    p2_path = {p[0]: p for p in p2.paths}
    r_path = {p[0]: p for p in r.paths}
    final = []
    for x, y in instance.pairs:
        tail = q_path[q_for[x]]
        if x in p1:
            head = p1[x]
            mid = r_path[head[-1]]
            full = head + mid[1:] + tail[1:]
        else:
            full = p2_path[x] + tail[1:]
        final.append(full)
    system = PathSystem(tuple(final), tuple(instance.pairs), "semicomplete-pipeline")
    return SolveReport.certified(d, instance.pairs, system, audit)

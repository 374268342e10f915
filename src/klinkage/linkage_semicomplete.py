"""Linkage solver for semicomplete digraphs.

Pipeline: build a nearly in-dominating set U outside the terminals, split
the sources into matched ones (with enough strong out-dominators of U) and
the rest, route a minimum-total-vertex disjoint path system from U onto the
targets, then stitch short connectors from the sources to the initial
vertices of that system.  The connector step (``_connect``, which
``anchor_connectors`` wraps with every check on its caller's arguments) is
the workhorse: it links a set A to chosen initial vertices by paths of
length at most 3, and the minimality of the U-to-Y system guarantees the
connectors stay clear of it; that guarantee is checked, not trusted.
"""

from __future__ import annotations

from .connectivity import is_k_strong, min_vertex_menger
from .digraph import Digraph, _union, is_semicomplete, iter_bits, mask_of
from .dominators import _first_c_good, nearly_in_dominating_set, verify_nearly_in_dominating_set
from .errors import ConstructionFailedError, PreconditionViolatedError, StageFailed
from .paths import Infeasible, LinkageInstance, PathSystem
from .reports import SolveReport, stage

__all__ = ["anchor_connectors", "audit_hypotheses", "partition_terminals", "solve_semicomplete"]


def anchor_connectors(d: Digraph, xs, ys, ws, us, q: PathSystem, anchors, targets) -> PathSystem:
    """Short connectors from ``anchors`` onto ``targets`` in Ini(q).

    Builds one (a_i, s_i)-path of length at most 3 per anchor, of the form
    a->a+->s or a->a+->a++->s, inside the digraph with the q-system, W and
    X removed (targets and anchors added back).  Preconditions are audited
    up front, here and only here, and a violation names the failing
    clause: the ids, the sets X, Y, W, U and the anchors A (each a set: a
    repeated id is an ``InputError`` that names it), U nearly
    in-dominating, the q-system, the anchors and the targets.  A greedy
    exhaustion after a clean audit is a bug and raises
    ConstructionFailedError.
    """
    xs, ys, ws, us = list(xs), list(ys), list(ws), list(us)
    anchors, targets = list(anchors), list(targets)
    x_mask, y_mask, w_mask, u_mask, a_mask = (
        d._check_vertices(vs, repeat=name + " repeats vertex {}")
        for name, vs in (("X", xs), ("Y", ys), ("W", ws), ("U", us), ("A", anchors)))
    t_mask = d._check_vertices(targets)
    k = len(xs)
    if x_mask & y_mask or x_mask & w_mask or y_mask & w_mask:
        raise PreconditionViolatedError("X, Y, W must be pairwise disjoint")
    if len(ys) != k:
        raise PreconditionViolatedError("|X| and |Y| must agree")
    if len(us) != 3 * k:
        raise PreconditionViolatedError(f"U must have 3k={3 * k} vertices, has {len(us)}")
    if not verify_nearly_in_dominating_set(d, xs, ys, us, d.order):
        raise PreconditionViolatedError("U is not a nearly in-dominating set outside X, Y")

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
    if a_mask & (w_mask | ini_mask):
        raise PreconditionViolatedError("anchors must avoid W and Ini(q)")
    if len(targets) != t_mask.bit_count():
        raise PreconditionViolatedError(f"targets must be distinct (witness: {targets})",
                                        clause="targets must be distinct", vertices=targets)
    if t_mask & ~ini_mask or t_mask & w_mask:
        raise PreconditionViolatedError(f"targets must lie in Ini(q) minus W (witness: {targets})",
                                        clause="targets must lie in Ini(q) minus W", vertices=targets)
    return _connect(d, x_mask | y_mask, w_mask, u_mask, q, anchors, targets)


def _connect(d: Digraph, xy_mask: int, w_mask: int, u_mask: int, q: PathSystem,
             anchors, targets) -> PathSystem:
    """``anchor_connectors`` on the masks of X and Y together, W and U.

    The pipeline calls it for both connector stages with values it built
    to meet every clause ``anchor_connectors`` checks, so none is checked
    again; k is the number of q-paths.  It checks only what those values
    can still fail, the anchors' degree, and, on its output, that no
    connector enters the protected region.  c-goodness and the middles
    live in d minus the terminals, and both are read from d's masks ANDed
    with that subdigraph's alive mask; the first hop is
    ``_first_c_good``'s pick.
    """
    k = len(q.paths)
    w_count = w_mask.bit_count()
    ini_mask = mask_of(q.initials())
    outside = d.alive_mask & ~(xy_mask | u_mask)
    helper_pool = _union(d._out, u_mask & ~ini_mask)  # an in-neighbour in U minus Ini(q)
    need = 7 * k + 3 * w_count + 7 * len(anchors)
    for a in anchors:
        have = (d.out_mask(a) & outside & helper_pool).bit_count()
        if have < need:
            raise PreconditionViolatedError(
                f"anchor needs {need} dominator-backed out-neighbours, has {have} (witness: {a})",
                clause="anchor needs dominator-backed out-neighbours", vertices=(a,),
                counts={"need": need, "have": have},
            )

    if not anchors:
        return PathSystem(())

    # the 2nd and 3rd vertices over all q-paths
    y2_mask = mask_of(p[1] for p in q.paths if len(p) > 1)
    y3_mask = mask_of(p[2] for p in q.paths if len(p) > 2)
    alive = d.alive_mask & ~xy_mask
    out, inc = d._out, d._in
    c = 3 * k + w_count + 3 * len(anchors)

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

    a_mask = mask_of(anchors)
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

    forbidden = (mask_of(q.vertices()) & ~mask_of(targets)) | w_mask | (xy_mask & ~a_mask)
    for p in paths:
        overlap = mask_of(p) & forbidden
        if overlap:
            raise ConstructionFailedError(
                f"connector touched the protected region at {list(iter_bits(overlap))}",
                vertices=iter_bits(overlap),
            )
    return PathSystem(tuple(paths))


def partition_terminals(d: Digraph, xs, ys, us, k: int) -> dict[int, int]:
    """Split sources by whether they see k distinct strong out-dominators of U.

    Returns the source -> helper matching, in source order; the sources it
    leaves out are the leftovers.  Helpers are 2k-out-dominators of U
    outside the terminals and U, matched greedily (smallest id first); the
    members with at least k candidates always match.  The helpers are
    counted at once: ``planes[i]`` holds bit i of each outside vertex's
    number of out-neighbours in U, summed over U's in-masks with a ripple
    carry that adds a plane rather than wrap; the helpers are the counts of
    at least 2k, compared from the top plane.
    """
    xs = list(xs)
    terminals = d._check_vertices([*xs, *ys])
    u_mask = d._check_vertices(us)
    outside = d.alive_mask & ~(terminals | u_mask)
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
    matching: dict[int, int] = {}
    used = 0
    for x in xs:
        cands = d.out_mask(x) & dominator_mask
        if cands.bit_count() >= k:
            matching[x] = pick = next(iter_bits(cands & ~used))
            used |= 1 << pick
    return matching


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
    audited up front unless ``skip_audit``.  Below the guaranteed bounds a
    failed stage proves nothing about linkability (``klinkage oracle``
    decides that on small digraphs); either way a linked outcome is
    certified by ``verify_linkage`` before it is reported.
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
        system = PathSystem(instance.pairs)
        return SolveReport.certified(d, instance.pairs, system, audit)

    try:
        with stage("dominating-set"):
            us = nearly_in_dominating_set(d, xs, ys, 3 * k)
        matching = partition_terminals(d, xs, ys, us, k)  # matched source -> helper
        leftover = [x for x in xs if x not in matching]

        with stage("menger"):
            q = min_vertex_menger(d, us, ys, avoid=list(set(xs) | set(matching.values())))
            if isinstance(q, Infeasible):
                raise ConstructionFailedError("a separator meets every U-to-Y path",
                                              vertices=q.separator, counts={"need": k})
        q_of = {p[-1]: p for p in q.paths}  # each target's q-path
        q_for = {x: q_of[y][0] for x, y in instance.pairs}

        # matched sources ride their helper into U off the q-system starts; a
        # helper has at least 2k out-neighbours in U, and Ini(q) and the earlier
        # landings take at most k + (k-1) of them
        ini_mask = mask_of(q.initials())
        u_mask = mask_of(us)
        p1: dict[int, tuple[int, ...]] = {}
        used_lands = 0
        for x, helper in matching.items():
            lands = d.out_mask(helper) & u_mask & ~ini_mask & ~used_lands
            if not lands:
                raise AssertionError(f"helper {helper} of source {x} has no landing vertex")
            land = next(iter_bits(lands))
            used_lands |= 1 << land
            p1[x] = (x, helper, land)

        # leftover sources connect straight to their q-start; the helper layer
        # (interiors plus landing vertices) is the protected region
        xy_mask, helper_mask = mask_of([*xs, *ys]), mask_of(matching.values())
        with stage("anchor-direct"):
            p2 = _connect(d, xy_mask, helper_mask | used_lands, u_mask, q, leftover,
                          [q_for[x] for x in leftover])

        # landed sources walk from their landing vertex to their q-start
        w_r = helper_mask | mask_of(v for p in p2.paths for v in p[1:-1])
        with stage("anchor-landed"):
            r = _connect(d, xy_mask, w_r, u_mask, q, [p1[x][2] for x in matching],
                         [q_for[x] for x in matching])
    except StageFailed as exc:
        return SolveReport.of_stage(*exc.args, audit)

    head = dict(zip(leftover, p2.paths))
    head.update((x, p1[x] + p[1:]) for x, p in zip(matching, r.paths))
    system = PathSystem(tuple(head[x] + q_of[y][1:] for x, y in instance.pairs))
    return SolveReport.certified(d, instance.pairs, system, audit)

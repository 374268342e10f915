"""Linkage solver for semicomplete digraphs.

Pipeline: build a nearly in-dominating set U outside the terminals, split
the sources into matched ones (with enough strong out-dominators of U) and
the rest, route a minimum-total-vertex disjoint path system from U onto the
targets, then stitch short connectors from the sources to the initial
vertices of that system.  The connector step (``anchor_connectors``) is the
workhorse: it links a set A to chosen initial vertices by paths of length
at most 3, and the minimality of the U-to-Y system guarantees the
connectors stay clear of it; that guarantee is asserted, not trusted.
"""

from __future__ import annotations

from .connectivity import is_k_strong, min_vertex_menger
from .digraph import Digraph, is_semicomplete, iter_bits, mask_of
from .dominators import is_c_good, verify_nearly_in_dominating_set, nearly_in_dominating_set
from .errors import (
    ConstructionFailedError,
    KLinkageError,
    PreconditionViolatedError,
)
from .paths import Infeasible, LinkageInstance, PathSystem
from .reports import SolveReport
from .verify import verify_linkage

__all__ = ["anchor_connectors", "partition_terminals", "solve_semicomplete"]


def _layer_masks(q: PathSystem) -> tuple[int, int]:
    """Masks of the 2nd and 3rd vertices over all paths of the system."""
    y2 = mask_of(p[1] for p in q.paths if len(p) > 1)
    y3 = mask_of(p[2] for p in q.paths if len(p) > 2)
    return y2, y3


def _one_in_dominator_mask(d: Digraph, of: int) -> int:
    """Vertices with at least one in-neighbour inside ``of`` (a mask)."""
    m = 0
    for u in iter_bits(of):
        m |= d.out_mask(u)
    return m


def anchor_connectors(d: Digraph, xs, ys, ws, us, q: PathSystem, anchors, targets) -> PathSystem:
    """Short connectors from ``anchors`` onto ``targets`` in Ini(q).

    Builds one (a_i, s_i)-path of length at most 3 per anchor, of the form
    a->a+->s or a->a+->a++->s, inside the digraph with the q-system, W and
    X removed (targets and anchors added back).  Preconditions are audited
    up front and a violation names the failing clause; a greedy exhaustion
    after a clean audit is a bug and raises ConstructionFailedError.
    """
    xs, ys, ws, us = list(xs), list(ys), list(ws), list(us)
    anchors, targets = list(anchors), list(targets)
    k = len(xs)
    x_mask, y_mask, w_mask, u_mask = map(mask_of, (xs, ys, ws, us))
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
    a_mask = mask_of(anchors)
    if a_mask & (w_mask | ini_mask):
        raise PreconditionViolatedError("anchors must avoid W and Ini(q)")
    t_mask = mask_of(targets)
    if len(targets) != t_mask.bit_count():
        raise PreconditionViolatedError("targets must be distinct", targets)
    if t_mask & ~ini_mask or t_mask & w_mask:
        raise PreconditionViolatedError("targets must lie in Ini(q) minus W", targets)

    y2_mask, y3_mask = _layer_masks(q)
    outside = d.alive_mask & ~(x_mask | y_mask | u_mask)
    helper_pool = _one_in_dominator_mask(d, u_mask & ~ini_mask)
    need = 7 * k + 3 * len(ws) + 7 * len(anchors)
    for a in anchors:
        have = (d.out_mask(a) & outside & helper_pool).bit_count()
        if have < need:
            raise PreconditionViolatedError(
                f"anchor needs {need} dominator-backed out-neighbours, has {have}", a
            )

    if not anchors:
        return PathSystem((), (), "anchor")

    sub = d.delete(set(xs) | set(ys))  # c-goodness lives in d minus the terminals
    c = 3 * k + len(ws) + 3 * len(anchors)

    hops: list[int] = []
    taken = 0
    for a in anchors:
        cand = d.out_mask(a) & outside & helper_pool & ~y2_mask & ~w_mask & ~taken
        pick = None
        for w in iter_bits(cand):
            if is_c_good(sub, w, targets[len(hops)], c):
                pick = w
                break
        if pick is None:
            raise ConstructionFailedError(f"no first hop for anchor {a}")
        hops.append(pick)
        taken |= 1 << pick
    hop_mask = taken

    paths: list[tuple[int, ...]] = []
    mid_taken = 0
    for a, hop, s in zip(anchors, hops, targets):
        if d.has_arc(hop, s):
            paths.append((a, hop, s))
            continue
        middles = (
            sub.out_mask(hop)
            & sub.in_mask(s)
            & ~a_mask
            & ~ini_mask
            & ~y2_mask
            & ~y3_mask
            & ~w_mask
            & ~hop_mask
            & ~mid_taken
            & ~(1 << hop)
            & ~(1 << s)
        )
        if not middles:
            raise ConstructionFailedError(f"no second hop between {hop} and {s}")
        mid = next(iter_bits(middles))
        mid_taken |= 1 << mid
        paths.append((a, hop, mid, s))

    forbidden = (q_mask & ~t_mask) | w_mask | ((x_mask | y_mask) & ~a_mask)
    for p in paths:
        overlap = mask_of(p) & forbidden
        if overlap:
            raise ConstructionFailedError(
                f"connector touched the protected region at {list(iter_bits(overlap))}"
            )
    return PathSystem(tuple(paths), tuple(zip(anchors, targets)), "anchor")


def partition_terminals(d: Digraph, xs, ys, us, k: int):
    """Split sources by whether they see k distinct strong out-dominators of U.

    Returns (matched sources, source -> helper matching, leftover sources).
    Helpers are 2k-out-dominators of U outside the terminals and U, matched
    greedily (smallest id first); the members with at least k candidates
    always match.
    """
    xs, ys, us = list(xs), list(ys), list(us)
    u_mask = mask_of(us)
    outside = d.alive_mask & ~(mask_of(xs) | mask_of(ys) | u_mask)
    dominator_mask = 0
    for v in iter_bits(outside):
        if (d.out_mask(v) & u_mask).bit_count() >= 2 * k:
            dominator_mask |= 1 << v
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


def _audit(d: Digraph, k: int, skip: bool) -> tuple[dict, str | None]:
    audit: dict = {"class": "semicomplete", "k": k}
    audit["semicomplete"] = is_semicomplete(d)
    audit["min_out_degree"] = d.min_out_degree() if d.order else 0
    audit["kappa_threshold"] = 3 * k
    audit["out_degree_threshold"] = 22 * k
    if not audit["semicomplete"]:
        return audit, "not semicomplete"
    if skip:
        audit["kappa_at_least"] = None
        audit["skipped"] = ["kappa", "min_out_degree"]
        return audit, None
    audit["kappa_at_least"] = is_k_strong(d, 3 * k)
    if not audit["kappa_at_least"]:
        return audit, f"kappa < {3 * k}"
    if audit["min_out_degree"] < 22 * k:
        return audit, f"min out-degree < {22 * k}"
    return audit, None


def _certified(d: Digraph, pairs, system: PathSystem, audit: dict) -> SolveReport:
    """The linked report for ``system`` if ``verify_linkage`` accepts it,
    else the failed ``verify`` stage naming the clause."""
    report = verify_linkage(d, pairs, system)
    if not report:
        return SolveReport.of_stage("verify", f"{report.clause}: {report.detail}", audit)
    return SolveReport.of_linkage(system, audit)


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
    audit, violated = _audit(d, k, skip_audit)
    if violated:
        return SolveReport.of_hypothesis(violated, audit)
    if audit["min_out_degree"] >= 22 * k:
        # degree slack consumed by the connector stages
        assert audit["min_out_degree"] - 5 * k - (k - 1) >= 16 * k

    if all(d.has_arc(x, y) for x, y in instance.pairs):
        system = PathSystem(tuple(instance.pairs), tuple(instance.pairs), "direct-arcs")
        return _certified(d, instance.pairs, system, audit)

    try:
        us = nearly_in_dominating_set(d, xs, ys, 3 * k)
    except KLinkageError as exc:
        return SolveReport.of_stage("dominating-set", str(exc), audit)

    matched, matching, leftover = partition_terminals(d, xs, ys, us, k)
    helpers = [matching[x] for x in matched]

    result = min_vertex_menger(d, us, ys, avoid=list(set(xs) | set(helpers)))
    if isinstance(result, Infeasible):
        return SolveReport.of_stage("menger", result.separator, audit)
    q = result
    start_of = {p[-1]: p[0] for p in q.paths}
    q_for = {x: start_of[y] for x, y in instance.pairs}

    # matched sources ride their helper into U off the q-system starts
    ini_mask = mask_of(q.initials())
    u_mask = mask_of(us)
    p1: dict[int, tuple[int, ...]] = {}
    used_lands = 0
    for x in matched:
        helper = matching[x]
        lands = d.out_mask(helper) & u_mask & ~ini_mask & ~used_lands
        if not lands:
            return SolveReport.of_stage("two-paths", f"no landing vertex for source {x}", audit)
        land = next(iter_bits(lands))
        used_lands |= 1 << land
        p1[x] = (x, helper, land)

    # leftover sources connect straight to their q-start; the helper layer
    # (interiors plus landing vertices) is the protected region
    w_p2 = sorted(set(helpers) | {p1[x][2] for x in matched})
    try:
        p2 = anchor_connectors(d, xs, ys, w_p2, us, q, leftover, [q_for[x] for x in leftover])
    except KLinkageError as exc:
        return SolveReport.of_stage("anchor-direct", str(exc), audit)

    # landed sources walk from their landing vertex to their q-start
    w_r = sorted(set(helpers) | {v for p in p2.paths for v in p[1:-1]})
    try:
        r = anchor_connectors(
            d, xs, ys, w_r, us, q, [p1[x][2] for x in matched], [q_for[x] for x in matched]
        )
    except KLinkageError as exc:
        return SolveReport.of_stage("anchor-landed", str(exc), audit)

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
    return _certified(d, instance.pairs, system, audit)

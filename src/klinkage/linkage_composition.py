"""Linkage solver for semicomplete compositions.

Reduction: peel off pairs joined by a direct arc, handle the two-part case
by routing one length-2 path through the opposite part, and otherwise
replace every part's interior with a synthetic semicomplete filling whose
arcs a minimal path can never keep.  The filled digraph is semicomplete, so
the semicomplete pipeline solves it; minimalising the returned paths and
checking that no intra-part step survived maps them back to the original
digraph.
"""

from __future__ import annotations

from .digraph import (
    CompositionSpec,
    Digraph,
    _union,
    is_semicomplete,
    iter_bits,
    mask_of,
    partition_masks,
)
from .errors import ConstructionFailedError, InputError, StageFailed, witness_of
from .jsonio import report_to_obj
from .linkage_semicomplete import audit_hypotheses, solve_semicomplete
from .paths import LinkageInstance, PathSystem
from .reports import SolveReport, stage

__all__ = [
    "strip_intra_part_arcs",
    "fill_parts",
    "minimalize_path",
    "solve_composition",
]


def strip_intra_part_arcs(d: Digraph, parts) -> Digraph:
    """Keep exactly the arcs running between different parts."""
    out = [0] * d.n
    inc = [0] * d.n
    for m in partition_masks(d, parts):
        for v in iter_bits(m):
            out[v] = d.out_mask(v) & ~m
            inc[v] = d.in_mask(v) & ~m
    return Digraph(d.n, d.alive_mask, out, inc)


def fill_parts(d0: Digraph, parts, ys) -> Digraph:
    """Fill each part of ``strip_intra_part_arcs``' output with a synthetic
    semicomplete interior.

    Checks that ``parts`` partition d0 and that no arc runs inside a part,
    then makes the one fill pass, ``_fill_interiors``.  The solver calls
    that pass on the unstripped digraph directly: it overwrites each part's
    interior, so no stripped copy is built.
    """
    masks = partition_masks(d0, parts)
    for m in masks:
        if _union(d0._out, m) & m:
            raise InputError("digraph still has intra-part arcs")
    return _fill_interiors(d0, masks, mask_of(ys))


def _fill_interiors(d: Digraph, masks, y_mask: int) -> Digraph:
    """d with the arcs inside each part of ``masks`` replaced by a synthetic
    semicomplete interior, in one pass over the part vertices.

    Inside part S with target subset Y' = Y intersect S: Y' and S minus Y'
    each become complete digraphs, and every Y' vertex dominates every
    other part vertex (never the reverse).  A target therefore keeps full
    out-degree while non-targets lose at most |Y| out-arcs relative to the
    unstripped digraph.  On masks, with R = S minus Y', a vertex v of Y'
    gets out-mask S - v and in-mask Y' - v inside S, and a vertex v of R
    gets out-mask R - v and in-mask S - v; its arcs leaving S stay.  The
    masks must be disjoint and within d's alive set (not checked).
    """
    out, inc = list(d._out), list(d._in)
    for m in masks:
        inner_y = m & y_mask
        rest = m & ~y_mask
        for v in iter_bits(inner_y):
            out[v] = out[v] & ~m | m & ~(1 << v)
            inc[v] = inc[v] & ~m | inner_y & ~(1 << v)
        for v in iter_bits(rest):
            out[v] = out[v] & ~m | rest & ~(1 << v)
            inc[v] = inc[v] & ~m | m & ~(1 << v)
    return Digraph(d.n, d.alive_mask, out, inc)


def minimalize_path(d: Digraph, path) -> list[int]:
    """Shrink a path to a minimal one with the same endpoints inside V(path).

    Returns the shortest same-endpoint path in the subdigraph induced by the
    path's own vertices: no path on a proper subset of its vertices exists,
    as that path would be shorter.
    """
    path = list(path)
    if not path:
        raise InputError("path must hold at least one vertex")
    keep = d._check_vertices(path)
    shorter = d.shortest_path(path[0], path[-1], forbidden=d.alive_mask & ~keep)
    if shorter is None:
        raise AssertionError("path vertices no longer connect their endpoints")
    return shorter


def _two_part_route(d: Digraph, masks, pairs):
    """Routing when only two parts remain: one pair crosses the
    opposite part through a free vertex.  Returns (pair index, path)."""
    terminal_mask = mask_of(t for p in pairs for t in p)
    for i, (x, y) in enumerate(pairs):
        side = next(j for j, m in enumerate(masks) if m >> x & 1)
        if not masks[side] >> y & 1:
            continue  # cross-part pair left unpeeled: no arc leaves x's part toward y's
        mids = masks[1 - side] & ~terminal_mask & d._out[x] & d._in[y]
        if mids:
            return i, [x, (mids & -mids).bit_length() - 1, y]
    return None


def solve_composition(spec: CompositionSpec, pairs, skip_audit: bool = False) -> SolveReport:
    """Linkage pipeline for semicomplete compositions.

    Hypotheses: semicomplete outer digraph, 3k-strong, min out-degree 23k,
    and at least 2k-3 vertices outside every part.  Past the audit, each
    round settles one open pair and deletes its path from the running
    digraph: the first open pair joined by an arc takes that arc, a last
    open pair takes a shortest path, and with exactly two live parts one
    pair is routed through the opposite part (``_two_part_route``); with
    fewer than two live parts the solve fails.  With three or more live
    parts the rounds stop and one semicomplete solve on the filled digraph
    settles every open pair at once.  No round re-checks the co-size
    bound: it holds after every round once it holds at the top, as a peel
    or a two-part route deletes at most 2 vertices outside any part and one
    pair, which lowers the threshold by 2.  Linked outcomes are certified
    against the spec's realized digraph, never the filled one.
    """
    d, part_masks = spec.digraph, spec.part_masks
    instance = LinkageInstance(d, pairs)  # validates terminals
    pairs, k = instance.pairs, instance.k

    audit: dict = {"class": "composition", "k": k,
                   "outer_semicomplete": is_semicomplete(spec.outer),
                   "min_out_degree": d.min_out_degree(), "kappa_threshold": 3 * k,
                   "out_degree_threshold": 23 * k,
                   "min_co_size": min((d.alive_mask & ~m).bit_count() for m in part_masks)}
    violation = audit_hypotheses(
        audit, d,
        [("outer digraph not semicomplete", audit["outer_semicomplete"])],
        [(f"min out-degree < {23 * k}", audit["min_out_degree"] >= 23 * k),
         (f"a part leaves fewer than {2 * k - 3} vertices", audit["min_co_size"] >= 2 * k - 3)],
        ["kappa", "min_out_degree", "co_size"] if skip_audit else None)
    if violation:
        return violation

    rest, open_ids, paths = d, list(range(k)), [None] * k
    try:
        while open_ids:
            live = [m & rest.alive_mask for m in part_masks if m & rest.alive_mask]
            i = next((i for i in open_ids if rest.has_arc(*pairs[i])), None)
            terminals = [t for j in open_ids for t in pairs[j]]
            if i is not None:
                path = list(pairs[i])
            elif len(open_ids) == 1:
                i, = open_ids
                with stage("path"):
                    path = rest.shortest_path(*pairs[i])
                    if path is None:
                        raise ConstructionFailedError("target unreachable from its source",
                                                      vertices=pairs[i])
            elif len(live) < 2:
                raise StageFailed("degenerate", witness_of(
                    "all remaining vertices share one part", terminals, {"pairs": len(open_ids)}))
            elif len(live) > 2:
                break
            else:
                with stage("two-part"):
                    routed = _two_part_route(rest, live, [pairs[j] for j in open_ids])
                    if routed is None:
                        raise ConstructionFailedError(
                            "no free vertex of the opposite part is a middle",
                            vertices=terminals, counts={"pairs": len(open_ids)})
                j, path = routed
                i = open_ids[j]
            paths[i] = path
            open_ids.remove(i)
            rest = rest.delete(set(path))

        if open_ids:
            filled = _fill_interiors(rest, live, mask_of(pairs[i][1] for i in open_ids))
            # the filled digraph inherits the composition's strongness and degree
            # slack, so the inner audit would only repeat the outer one
            inner = solve_semicomplete(LinkageInstance(filled, tuple(pairs[i] for i in open_ids)),
                                       skip_audit=True)
            if not inner.linked:
                raise StageFailed("filled-subsolve", report_to_obj(inner))
            part_of = {v: j for j, m in enumerate(live) for v in iter_bits(m)}
            depth = k - len(open_ids)
            for i, path in zip(open_ids, inner.system.paths):
                minimal = minimalize_path(filled, path)
                for u, v in zip(minimal, minimal[1:]):
                    if part_of[u] == part_of[v]:
                        raise ConstructionFailedError(
                            f"minimal path kept intra-part step ({u},{v}) at depth {depth}",
                            vertices=(u, v), counts={"depth": depth},
                        )
                paths[i] = minimal
    except StageFailed as exc:
        return SolveReport.of_stage(*exc.args, audit)
    return SolveReport.certified(d, pairs, PathSystem(tuple(map(tuple, paths))), audit)

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
    compose,
    is_semicomplete,
    iter_bits,
    mask_of,
    partition_masks,
)
from .errors import ConstructionFailedError, InputError, witness_of
from .jsonio import report_to_obj
from .linkage_semicomplete import audit_hypotheses, solve_semicomplete
from .paths import LinkageInstance, PathSystem
from .reports import SolveReport

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
    shorter = d.shortest_path(path[0], path[-1], forbidden=d.alive_mask & ~mask_of(path))
    if shorter is None:
        raise AssertionError("path vertices no longer connect their endpoints")
    return shorter


def _peel_direct(d: Digraph, pairs):
    for i, (x, y) in enumerate(pairs):
        if d.has_arc(x, y):
            return i
    return None


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


def _solve_reduced(d: Digraph, part_masks: list[int], pairs, depth):
    """The paths for ``pairs``, or the failed (stage, witness).

    No step re-checks the co-size bound: at depth 0 the audit did, and each
    peel or two-part route deletes at most 2 vertices outside any part while
    the bound 2k-3 drops by 2.
    """
    k = len(pairs)
    if k == 0:
        return []
    live_masks = [m & d.alive_mask for m in part_masks if m & d.alive_mask]

    direct = _peel_direct(d, pairs)
    if direct is not None:
        x, y = pairs[direct]
        rest = _solve_reduced(d.delete({x, y}), part_masks, pairs[:direct] + pairs[direct + 1:],
                              depth + 1)
        if isinstance(rest, list):
            rest.insert(direct, [x, y])
        return rest

    if k == 1:
        (x, y), = pairs
        path = d.shortest_path(x, y)
        if path is None:
            return "path", witness_of("target unreachable from its source", (x, y))
        return [path]

    terminals = [t for p in pairs for t in p]
    if len(live_masks) < 2:
        return "degenerate", witness_of("all remaining vertices share one part", terminals,
                                        {"pairs": k})

    if len(live_masks) == 2:
        routed = _two_part_route(d, live_masks, pairs)
        if routed is None:
            return "two-part", witness_of("no free vertex of the opposite part is a middle",
                                          terminals, {"pairs": k})
        i, path = routed
        rest = _solve_reduced(d.delete(set(path)), part_masks, pairs[:i] + pairs[i + 1:],
                              depth + 1)
        if isinstance(rest, list):
            rest.insert(i, path)
        return rest

    filled = _fill_interiors(d, live_masks, mask_of(y for _, y in pairs))
    # the filled digraph inherits the composition's strongness and degree
    # slack, so the inner audit would only repeat the outer one
    inner = solve_semicomplete(LinkageInstance(filled, tuple(pairs)), skip_audit=True)
    if not inner.linked:
        return "filled-subsolve", report_to_obj(inner)

    part_of = {}
    for j, m in enumerate(live_masks):
        for v in iter_bits(m):
            part_of[v] = j
    out_paths = []
    for path in inner.system.paths:
        minimal = minimalize_path(filled, path)
        for u, v in zip(minimal, minimal[1:]):
            if part_of[u] == part_of[v]:
                raise ConstructionFailedError(
                    f"minimal path kept intra-part step ({u},{v}) at depth {depth}",
                    vertices=(u, v), counts={"depth": depth},
                )
        out_paths.append(minimal)
    return out_paths


def solve_composition(spec: CompositionSpec, pairs, skip_audit: bool = False) -> SolveReport:
    """Linkage pipeline for semicomplete compositions.

    Hypotheses: semicomplete outer digraph, 3k-strong, min out-degree 23k,
    and at least 2k-3 vertices outside every part.  The co-size threshold
    holds at every peeling depth once it holds at the top: a peel or a
    two-part route deletes at most 2 vertices outside any part and one pair,
    which lowers the threshold by 2.  Linked outcomes are certified against
    the original digraph, never the filled one: the spec's kept digraph
    when it was recovered by ``composition_from_digraph``, else
    ``compose(spec)``.
    """
    d = spec.digraph if spec.digraph is not None else compose(spec)
    pairs = tuple(tuple(p) for p in pairs)
    instance = LinkageInstance(d, pairs)  # validates terminals
    k = instance.k
    part_masks = [p.alive_mask for p in spec.parts]

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

    paths = _solve_reduced(d, part_masks, list(pairs), 0)
    if isinstance(paths, tuple):
        return SolveReport.of_stage(*paths, audit)
    system = PathSystem(tuple(tuple(p) for p in paths), pairs, "composition-pipeline")
    return SolveReport.certified(d, pairs, system, audit)

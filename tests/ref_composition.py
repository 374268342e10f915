"""Arc-walking composition builders, used only as test oracles.

``ref_compose`` embeds each locally-numbered part at its offset arc by
arc, then walks each outer arc and adds the full bundle between its two
parts vertex by vertex.  ``ref_fill_parts`` lists every synthetic arc of
the filling and adds them with ``Digraph.add_arcs``.  These are the
versions ``CompositionSpec.from_local_parts`` and ``fill_parts`` replaced
with per-part masks; the tests require the identical spec and masks, or
the identical exception, from both, and from the solver's one fill pass
over the unstripped digraph, ``_fill_interiors``.
``ref_composition_from_digraph`` counts the cross arcs of every ordered
pair of parts vertex by vertex; the tests require the same spec, or the
same ``InputError``, from ``composition_from_digraph``, which tests each
bundle with one OR and one AND of a part's out-rows.  ``ref_minimalize_path``
repeats the shortest-path call inside V(path) until it returns its input;
``minimalize_path`` makes the call once, and the tests require the same path.
``ref_two_part_route`` scans the free vertices of the opposite part one by
one for a middle; ``_two_part_route`` takes the lowest bit of one mask, and
the tests require the same pair and path.  ``ref_solve_composition`` is the
recursive reduction ``solve_composition`` folded into one loop:
``_solve_reduced`` peels (``_peel_direct``), routes or fills, recurses on
the rest and re-inserts each settled path at its index on the way back up,
returning the paths or the failed (stage, witness); the tests require the
same canonical report bytes, or the same exception, from both.
"""

from __future__ import annotations

from klinkage.digraph import (
    CompositionSpec,
    Digraph,
    is_semicomplete,
    iter_bits,
    mask_of,
    partition_masks,
)
from klinkage.errors import ConstructionFailedError, InputError, witness_of
from klinkage.jsonio import report_to_obj
from klinkage.linkage_composition import _fill_interiors, _two_part_route, minimalize_path
from klinkage.linkage_semicomplete import audit_hypotheses, solve_semicomplete
from klinkage.paths import LinkageInstance, PathSystem
from klinkage.reports import SolveReport


def ref_compose(outer: Digraph, local_parts) -> CompositionSpec:
    """Realize the composition of locally-numbered parts, embedded
    consecutively: part arcs at their offsets plus full bundles along outer
    arcs."""
    h = outer.order
    if h < 2:
        raise InputError("outer digraph needs at least 2 vertices")
    if h != len(local_parts):
        raise InputError(f"outer has {h} vertices but {len(local_parts)} parts given")
    capacity = sum(p.n for p in local_parts)
    arcs = []
    members = {}
    offset = 0
    for hid, p in zip(outer.vertices(), local_parts):
        members[hid] = [v + offset for v in p.vertices()]
        arcs += [(u + offset, v + offset) for u, v in p.arcs()]
        offset += p.n
    for hi, hj in outer.arcs():
        arcs += [(u, v) for u in members[hi] for v in members[hj]]
    d = Digraph.from_arcs(capacity, arcs).induced(v for vs in members.values() for v in vs)
    return CompositionSpec(outer, d, tuple(mask_of(vs) for vs in members.values()))


def ref_fill_parts(d0: Digraph, parts, ys) -> Digraph:
    """Fill each part with a synthetic semicomplete interior, arc by arc."""
    masks = partition_masks(d0, parts)
    y_mask = mask_of(ys)
    new_arcs = []
    for m in masks:
        if any(d0.out_mask(u) & m for u in iter_bits(m)):
            raise InputError("digraph still has intra-part arcs")
        inner_y = m & y_mask
        rest = m & ~y_mask
        for u in iter_bits(inner_y):
            for v in iter_bits(m & ~(1 << u)):
                new_arcs.append((u, v))
        for u in iter_bits(rest):
            for v in iter_bits(rest & ~(1 << u)):
                new_arcs.append((u, v))
    return d0.add_arcs(new_arcs)


def ref_composition_from_digraph(d: Digraph, part_ids) -> CompositionSpec:
    """Recover a spec by counting each pair of parts' cross arcs vertex by
    vertex: all of them is an outer arc, none is no arc, anything else an
    error.  Fewer than two parts fail as ``from_local_parts`` fails on such
    a spec."""
    masks = partition_masks(d, part_ids)
    h = len(masks)
    if h < 2:
        raise InputError("outer digraph needs at least 2 vertices")
    outer_arcs = []
    for i in range(h):
        for j in range(h):
            if i == j:
                continue
            cross = sum((d.out_mask(v) & masks[j]).bit_count() for v in iter_bits(masks[i]))
            full = masks[i].bit_count() * masks[j].bit_count()
            if cross == full:
                outer_arcs.append((i, j))
            elif cross != 0:
                raise InputError(
                    f"parts {i}->{j}: {cross} of {full} cross arcs present"
                )
    return CompositionSpec(Digraph.from_arcs(h, outer_arcs), d, tuple(masks))


def ref_minimalize_path(d: Digraph, path) -> list[int]:
    """Shortest same-endpoint path inside V(path), repeated to a fixed point."""
    path = list(path)
    while True:
        allowed = mask_of(path)
        shorter = d.shortest_path(path[0], path[-1], forbidden=d.alive_mask & ~allowed)
        if shorter is None:
            raise AssertionError("path vertices no longer connect their endpoints")
        if shorter == path:
            return path
        path = shorter


def ref_two_part_route(d: Digraph, masks, pairs):
    """The first pair with a free middle in the opposite part, and the
    lowest such middle, found vertex by vertex."""
    terminal_mask = mask_of(t for p in pairs for t in p)
    for i, (x, y) in enumerate(pairs):
        side = next(j for j, m in enumerate(masks) if m >> x & 1)
        if not masks[side] >> y & 1:
            continue
        other = masks[1 - side] & ~terminal_mask
        for v in iter_bits(other):
            if d.has_arc(x, v) and d.has_arc(v, y):
                return i, [x, v, y]
    return None


def _peel_direct(d: Digraph, pairs):
    for i, (x, y) in enumerate(pairs):
        if d.has_arc(x, y):
            return i
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


def ref_solve_composition(spec: CompositionSpec, pairs, skip_audit: bool = False) -> SolveReport:
    """``solve_composition``'s audit, then the recursive reduction."""
    d, part_masks = spec.digraph, spec.part_masks
    pairs = tuple(tuple(p) for p in pairs)
    k = LinkageInstance(d, pairs).k  # validates terminals

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
    system = PathSystem(tuple(tuple(p) for p in paths))
    return SolveReport.certified(d, pairs, system, audit)

"""Arc-walking composition builders, used only as test oracles.

``ref_compose`` ORs every part's masks in, then walks each outer arc and
adds the full bundle between its two parts vertex by vertex.
``ref_fill_parts`` lists every synthetic arc of the filling and adds them
with ``Digraph.add_arcs``.  These are the versions ``compose`` and
``fill_parts`` replaced with per-part masks; the tests require identical
masks, or the identical exception, from both.  ``ref_minimalize_path``
repeats the shortest-path call inside V(path) until it returns its input;
``minimalize_path`` makes the call once, and the tests require the same path.
"""

from __future__ import annotations

from klinkage.digraph import Digraph, iter_bits, mask_of, partition_masks
from klinkage.errors import InputError


def ref_compose(spec) -> Digraph:
    """Realize the composition: part arcs plus full bundles along outer arcs."""
    h = spec.outer.order
    if h < 2:
        raise InputError("outer digraph needs at least 2 vertices")
    if h != len(spec.parts):
        raise InputError(f"outer has {h} vertices but {len(spec.parts)} parts given")
    capacities = {p.n for p in spec.parts}
    if len(capacities) != 1:
        raise InputError("parts must share one id space")
    capacity = capacities.pop()

    alive = 0
    for p in spec.parts:
        if alive & p.alive_mask:
            raise InputError("part vertex sets overlap")
        alive |= p.alive_mask

    outer_ids = list(spec.outer.vertices())
    part_index = {hid: i for i, hid in enumerate(outer_ids)}
    out = [0] * capacity
    inc = [0] * capacity
    for p in spec.parts:
        for v in p.vertices():
            out[v] |= p.out_mask(v)
            inc[v] |= p.in_mask(v)
    for hi in outer_ids:
        for hj in iter_bits(spec.outer.out_mask(hi)):
            src_mask = spec.parts[part_index[hi]].alive_mask
            dst_mask = spec.parts[part_index[hj]].alive_mask
            for v in iter_bits(src_mask):
                out[v] |= dst_mask
            for w in iter_bits(dst_mask):
                inc[w] |= src_mask
    return Digraph(capacity, alive, out, inc)


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

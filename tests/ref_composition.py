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
the tests require the same pair and path.
"""

from __future__ import annotations

from klinkage.digraph import CompositionSpec, Digraph, iter_bits, mask_of, partition_masks
from klinkage.errors import InputError


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

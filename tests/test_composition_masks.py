"""``compose`` and ``fill_parts`` against the arc-walking builders they
replaced (``tests/ref_composition.py``): identical ``n``, alive mask, out-
and in-masks, or the identical exception class and message.  The two-part
route against the vertex-by-vertex scan it replaced: the same pair and
the same (lowest) middle."""

from __future__ import annotations

from conftest import assert_in_masks_transpose
from ref_composition import ref_compose, ref_fill_parts, ref_two_part_route

from klinkage import CompositionSpec, compose, fill_parts, strip_intra_part_arcs
from klinkage.digraph import composition_from_digraph, iter_bits, mask_of
from klinkage.generators import SplitMix64, random_composition, random_digraph
from klinkage.linkage_composition import _two_part_route


def _outcome(build, *args):
    """The built digraph's masks, or the exception's class and message."""
    try:
        d = build(*args)
    except Exception as exc:  # the two builders must fail alike
        return ("error", type(exc), str(exc)), None
    return ("built", d.n, d._alive, list(d._out), list(d._in)), d


def _check_pair(build, ref_build, *args):
    got, d = _outcome(build, *args)
    want, _ = _outcome(ref_build, *args)
    assert got == want, args
    if d is not None:
        assert_in_masks_transpose(d)
    return d


def _random_spec(rng: SplitMix64, trial: int):
    """A spec from random outer and part digraphs; about one in six is
    malformed on purpose (wrong arity, capacities, overlap)."""
    h = 2 + rng.randrange(6)
    outer = random_digraph(h, 300_000 + trial, 1 + rng.randrange(9))
    if rng.randrange(10) < 3:
        outer = outer.delete([rng.randrange(h)])
    count = outer.order
    flaw = rng.randrange(24)
    if flaw == 0:
        count += 1
    elif flaw == 1 and count > 2:
        count -= 1
    local = [random_digraph(1 + rng.randrange(4), 310_000 + 8 * trial + i, rng.randrange(11))
             for i in range(count)]
    spec = CompositionSpec.from_local_parts(outer, local)
    parts = list(spec.parts)
    if flaw == 2:
        parts[-1] = parts[-1].shifted(0, parts[-1].n + 1)
    elif flaw == 3 and len(parts) >= 2:
        parts[1] = parts[0]
    return CompositionSpec(outer, tuple(parts))


def _check_fill(rng: SplitMix64, spec: CompositionSpec, d):
    parts = spec.part_vertex_ids()
    d0 = strip_intra_part_arcs(d, parts)
    assert_in_masks_transpose(d0)
    alive = list(d.vertices())
    ys = [v for v in alive if rng.randrange(3) == 0]
    filled = _check_pair(fill_parts, ref_fill_parts, d0, parts, ys)
    assert filled is not None
    # the unstripped digraph too: rejected alike when a part has arcs
    _check_pair(fill_parts, ref_fill_parts, d, parts, ys)


def test_random_specs_match_arc_walk():
    rng = SplitMix64(4_242)
    seen = {"built": 0, "error": 0, "two-cycle": 0, "deleted": 0}
    for trial in range(3_200):
        spec = _random_spec(rng, trial)
        d = _check_pair(compose, ref_compose, spec)
        seen["built" if d is not None else "error"] += 1
        seen["two-cycle"] += any(spec.outer.has_arc(v, u) for u, v in spec.outer.arcs())
        seen["deleted"] += spec.outer.order < spec.outer.n
        if d is not None:
            _check_fill(rng, spec, d)
    assert seen["error"] >= 100, seen
    assert seen["two-cycle"] >= 1_000, seen
    assert seen["deleted"] >= 600, seen


def test_pool_shape_specs_match_arc_walk():
    """20 parts of 3 with part arcs, as in the ``composition`` benchmark pool,
    also rebuilt from the realized digraph as the CLI loads it."""
    rng = SplitMix64(4_243)
    for seed in range(7_000, 7_024):
        spec = random_composition(20, [3] * 20, 0.9, seed, part_arcs=True)
        d = _check_pair(compose, ref_compose, spec)
        _check_fill(rng, spec, d)
        loaded = composition_from_digraph(d, [list(iter_bits(p.alive_mask)) for p in spec.parts])
        assert _check_pair(compose, ref_compose, loaded) == d


def test_two_part_route_matches_vertex_scan():
    """Two-part compositions, some with a vertex deleted as a peel leaves
    them, and up to 4 random disjoint pairs; at least 100 winning pairs have
    several middles, so a route that broke ties other than by the lowest
    id would differ."""
    rng = SplitMix64(4_244)
    routed = tied = 0
    for seed in range(8_000, 8_600):
        spec = random_composition(2, [2 + rng.randrange(6), 2 + rng.randrange(6)], 0.7, seed,
                                  part_arcs=rng.randrange(2) == 1)
        d = compose(spec)
        if rng.randrange(3) == 0:
            d = d.delete([rng.randrange(d.n)])
        masks = [p.alive_mask & d.alive_mask for p in spec.parts]
        ids = rng.sample(list(d.vertices()), 2 * min(2 + rng.randrange(3), d.order // 2))
        pairs = list(zip(ids[::2], ids[1::2]))
        got = _two_part_route(d, masks, pairs)
        assert got == ref_two_part_route(d, masks, pairs), (seed, pairs)
        if got is not None:
            routed += 1
            (x, y), others = pairs[got[0]], mask_of(ids)
            side = 0 if masks[0] >> x & 1 else 1
            tied += (masks[1 - side] & ~others & d.out_mask(x) & d.in_mask(y)).bit_count() >= 2
    assert tied >= 100, (routed, tied)

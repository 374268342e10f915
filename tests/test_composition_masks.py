"""``CompositionSpec.from_local_parts`` and ``fill_parts`` against the
arc-walking builders they replaced (``tests/ref_composition.py``): the
identical outer digraph, part masks and realized ``n``, alive mask, out-
and in-masks, or the identical exception class and message; the solver's
one fill pass, ``_fill_interiors`` on the unstripped digraph, against both.
``composition_from_digraph`` against the cross-arc count it replaced: the
same spec, holding the digraph it was given, or the same ``InputError``.
The two-part route against the vertex-by-vertex scan it replaced: the same
pair and the same (lowest) middle."""

from __future__ import annotations

from conftest import assert_in_masks_transpose
from ref_composition import (
    ref_compose,
    ref_composition_from_digraph,
    ref_fill_parts,
    ref_two_part_route,
)

from klinkage import CompositionSpec, Digraph, fill_parts, strip_intra_part_arcs
from klinkage.digraph import composition_from_digraph, mask_of, partition_masks
from klinkage.generators import SplitMix64, random_composition, random_digraph
from klinkage.linkage_composition import _fill_interiors, _two_part_route


def _masks(d):
    if isinstance(d, CompositionSpec):
        return ("built", _masks(d.outer), _masks(d.digraph), d.part_masks)
    return ("built", d.n, d._alive, list(d._out), list(d._in))


def _outcome(build, *args):
    """The built digraph's or spec's masks, or the exception's class and message."""
    try:
        d = build(*args)
    except Exception as exc:  # the two builders must fail alike
        return ("error", type(exc), str(exc)), None
    return _masks(d), d


def _check_pair(build, ref_build, *args):
    got, d = _outcome(build, *args)
    want, _ = _outcome(ref_build, *args)
    assert got == want, args
    if d is not None:
        assert_in_masks_transpose(d.digraph if isinstance(d, CompositionSpec) else d)
    return d


def _random_parts(rng: SplitMix64, trial: int):
    """A random outer digraph and as many random local parts as it has
    vertices; about one in twelve has one part too many or too few."""
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
    return outer, local


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
    _check_single_pass(d, parts, ys)
    if ys:  # a peel deletes terminals: the pass sees dead ids and emptier parts
        _check_single_pass(d.delete([ys[0]]), parts, ys[1:])


def _check_single_pass(d, parts, ys):
    """The solver's fill pass over the live part masks of the unstripped
    digraph builds what stripping and then filling builds, arc walk included."""
    live = [[v for v in p if d.has_vertex(v)] for p in parts]
    masks = [m for m in partition_masks(d, live) if m]
    got, passed = _outcome(_fill_interiors, d, masks, mask_of(ys))
    d0 = strip_intra_part_arcs(d, live)
    assert got == _outcome(fill_parts, d0, live, ys)[0] == _outcome(ref_fill_parts, d0, live, ys)[0]
    assert_in_masks_transpose(passed)


def test_random_specs_match_arc_walk():
    rng = SplitMix64(4_242)
    seen = {"built": 0, "error": 0, "two-cycle": 0, "deleted": 0}
    for trial in range(3_200):
        outer, local = _random_parts(rng, trial)
        spec = _check_pair(CompositionSpec.from_local_parts, ref_compose, outer, local)
        seen["built" if spec is not None else "error"] += 1
        seen["two-cycle"] += any(outer.has_arc(v, u) for u, v in outer.arcs())
        seen["deleted"] += outer.order < outer.n
        if spec is not None:
            _check_fill(rng, spec, spec.digraph)
    assert seen["error"] >= 100, seen
    assert seen["two-cycle"] >= 1_000, seen
    assert seen["deleted"] >= 600, seen


def _local_parts(spec: CompositionSpec):
    """The parts of a realized spec renumbered from 0, read arc by arc."""
    local = []
    for ids in spec.part_vertex_ids():
        index = {v: i for i, v in enumerate(ids)}
        local.append(Digraph.from_arcs(len(ids), [(index[u], index[v]) for u, v in spec.digraph.arcs()
                                                  if u in index and v in index]))
    return local


def test_pool_shape_specs_match_arc_walk():
    """20 parts of 3 with part arcs, as in the ``composition`` benchmark pool:
    the arc walk over the parts read back from the realized digraph builds
    the same spec, and so does recovering it as the CLI loads it."""
    rng = SplitMix64(4_243)
    for seed in range(7_000, 7_024):
        spec = random_composition(20, [3] * 20, 0.9, seed, part_arcs=True)
        assert _masks(ref_compose(spec.outer, _local_parts(spec))) == _masks(spec)
        assert_in_masks_transpose(spec.digraph)
        _check_fill(rng, spec, spec.digraph)
        loaded = composition_from_digraph(spec.digraph, spec.part_vertex_ids())
        assert loaded == spec and _masks(loaded) == _masks(spec)
        assert loaded.digraph is spec.digraph


def _recovery(recover, d, part_ids):
    """The recovered spec's masks plus the spec, or the error."""
    try:
        spec = recover(d, part_ids)
    except Exception as exc:  # the two recoveries must fail alike
        return ("error", type(exc), str(exc)), None
    assert_in_masks_transpose(spec.outer)
    return _masks(spec), spec


def _perturbed_composition(rng: SplitMix64, trial: int):
    """A realized composition and its part lists: outer digraphs with
    2-cycles, empty parts and single parts; one in three with a cross arc
    removed or added, and some with an intra-part arc toggled, which no
    bundle reads."""
    h = rng.randrange(9)
    outer = random_digraph(h, 320_000 + trial, 1 + rng.randrange(9))
    local = [random_digraph(0 if rng.randrange(8) == 0 else 1 + rng.randrange(3),
                            330_000 + 9 * trial + i, rng.randrange(11)) for i in range(h)]
    if h >= 2:
        spec = CompositionSpec.from_local_parts(outer, local)
        d, parts = spec.digraph, spec.part_vertex_ids()
    else:  # no outer digraph to compose on: the parts side by side, no arc between
        d = Digraph.from_arcs(sum(p.n for p in local), [])
        parts = [list(range(sum(p.n for p in local[:i]), sum(p.n for p in local[:i + 1])))
                 for i in range(h)]
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    arcs = set(d.arcs())
    pairs = [(u, v) for u in range(d.n) for v in range(d.n) if u != v]
    fault = rng.randrange(6)
    cross = [(u, v) for u, v in pairs if part_of[u] != part_of[v]
             and ((u, v) in arcs) == (fault == 0)]
    inner = [(u, v) for u, v in pairs if part_of[u] == part_of[v]]
    if fault <= 1 and cross:
        arcs ^= {cross[rng.randrange(len(cross))]}
    elif fault == 2 and inner:
        arcs ^= {inner[rng.randrange(len(inner))]}
    return Digraph.from_arcs(d.n, sorted(arcs)), parts


def test_recovery_matches_cross_arc_count():
    """1,500 realized compositions, about a third with a cross arc removed or
    added: the same outer arcs and part masks as the vertex-by-vertex count,
    or the same error, and the input as the spec's digraph."""
    rng = SplitMix64(4_245)
    seen = {"built": 0, "bundle": 0, "under-two-parts": 0, "empty-part": 0, "two-cycle": 0}
    for trial in range(1_500):
        d, parts = _perturbed_composition(rng, trial)
        got, spec = _recovery(composition_from_digraph, d, parts)
        want, _ = _recovery(ref_composition_from_digraph, d, parts)
        assert got == want, (trial, parts)
        if spec is None:
            seen["bundle" if "cross arcs" in got[2] else "under-two-parts"] += 1
            continue
        seen["built"] += 1
        seen["empty-part"] += any(not p for p in parts)
        seen["two-cycle"] += any(spec.outer.has_arc(v, u) for u, v in spec.outer.arcs())
        assert spec.digraph is d, trial
    assert min(seen.values()) >= 100, seen


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
        d = spec.digraph
        if rng.randrange(3) == 0:
            d = d.delete([rng.randrange(d.n)])
        masks = [m & d.alive_mask for m in spec.part_masks]
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

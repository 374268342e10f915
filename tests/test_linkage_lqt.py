import time
from itertools import combinations

import pytest

from klinkage import (
    SplitMix64,
    CompositionSpec,
    Digraph,
    build_auxiliary,
    pool_threshold,
    find_short_anchor_pair,
    independent_short_paths,
    is_l_quasi_transitive,
    is_semicomplete,
    solve_lqt,
    verify_linkage,
    verify_short_anchor,
)
from klinkage.acceptance import _lqt_instances
from klinkage.errors import (
    BudgetExceededError,
    ConstructionFailedError,
    InputError,
    KLinkageError,
    PreconditionViolatedError,
)
from klinkage.generators import (
    random_composition,
    random_digraph,
    random_extended_tournament,
    random_semicomplete,
    random_tournament,
)

from klinkage import linkage_lqt
from klinkage.jsonio import dumps_canonical, report_to_obj

from conftest import is_adjacent
from ref_lqt import (
    ref_check_pool,
    ref_independent_short_paths,
    ref_levelled_short_paths,
    ref_solve_lqt,
)
from test_golden_reports import CASES
from test_pool_reports import _reports


def complete(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(n) if i != j])


class TestThresholdFormula:
    def test_frozen_values(self):
        assert pool_threshold(1, 2) == 30
        assert pool_threshold(2, 2) == 300
        assert pool_threshold(1, 3) == 35

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            pool_threshold(0, 2)
        with pytest.raises(ValueError):
            pool_threshold(1, 1)


class TestIndependentShortPaths:
    def test_complete_counts(self):
        d = complete(8)
        pool = independent_short_paths(d, 0, 1, 2, 6)
        assert len(pool.forward) == 6  # direct arc + five distinct middles

    def test_directed_path_single(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        pool = independent_short_paths(d, 0, 2, 2, 5)
        assert pool.forward == ((0, 1, 2),)
        assert pool.backward == ()

    def test_lonely_arc(self):
        d = Digraph.from_arcs(4, [(0, 1)])
        pool = independent_short_paths(d, 0, 1, 2, 5)
        assert pool.forward == ((0, 1),)

    def test_pools_are_independent(self):
        d = random_semicomplete(12, 0.5, 3)
        pool = independent_short_paths(d, 0, 5, 2, 8)
        seen = set()
        for p in pool.forward + pool.backward:
            inner = set(p[1:-1])
            assert not inner & seen
            seen |= inner

    @pytest.mark.parametrize("u, v", [(0, 9), (0, -1), (9, 0), (-1, 0), (0, 2), (2, 1)])
    def test_ids_not_in_the_digraph(self, u, v):
        # 9 and -1 are out of range, 2 is deleted
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).delete([2])
        with pytest.raises(InputError, match="not in digraph"):
            independent_short_paths(d, u, v, 2, 3)
        with pytest.raises(InputError, match="not in digraph"):
            independent_short_paths(d, u, v, 2, 0)

    def test_no_path_longer_than_l_plus_one(self):
        # l = 0 admits only the direct arcs, l = -1 no path at all
        paths = {}
        for l in (-1, 0):
            for d in [Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])] + [
                random_semicomplete(8, 0.5, seed) for seed in range(20)
            ]:
                pool = independent_short_paths(d, 0, 3, l, 3)
                paths[l] = paths.get(l, 0) + len(pool.forward + pool.backward)
                assert all(len(p) - 1 <= max(l + 1, 0) for p in pool.forward + pool.backward)
        assert paths[-1] == 0 and paths[0] >= 20

    def test_against_two_search_extraction(self):
        """The very pools of ref_lqt's two-searches-per-pick loop and of its
        one-call-per-length extraction: both directions, in order, and the
        stall flag and distances."""
        rng = SplitMix64(9_001)
        seen = {"strong stalls": 0, "backward picks": 0, "paths of 4+ arcs": 0,
                "deleted": 0, "two-cycles": 0}
        for case in range(9_000):
            l = (-1, 0, 1, 2, 3, 4, 6)[case % 7]
            limit = (0, 1, 2, 3, 5, 8)[case // 7 % 6]
            kind = (0, 0, 1, 2)[case // 42 % 4]
            if kind == 0:
                if case % 2:  # sparse, where shortest paths run long
                    n, tenths = 11 + rng.randrange(4), 2
                else:
                    n, tenths = 2 + rng.randrange(13), 1 + rng.randrange(9)
                d = random_digraph(n, 90_000 + case, tenths)
                d = d.delete([v for v in range(n) if rng.randrange(5) == 0][: n - 2])
                seen["deleted"] += d.order < n
            elif kind == 1:
                d = random_semicomplete(2 + rng.randrange(13), rng.randrange(10) / 10, 91_000 + case)
            else:
                h = 2 + rng.randrange(6)
                spec = random_extended_tournament(h, [1 + rng.randrange(3) for _ in range(h)],
                                                  92_000 + case)
                d = spec.digraph
            u, v = rng.sample(list(d.vertices()), 2)
            got = independent_short_paths(d, u, v, l, limit)
            assert got == ref_levelled_short_paths(d, u, v, l, limit), (case, u, v, l, limit)
            assert got == ref_independent_short_paths(d, u, v, l, limit), (case, u, v, l, limit)
            seen["strong stalls"] += got.stalled_strong
            seen["backward picks"] += len(got.backward)
            seen["paths of 4+ arcs"] += sum(len(p) >= 5 for p in got.forward + got.backward)
            seen["two-cycles"] += any(d.has_arc(y, x) for x, y in d.arcs())
        assert seen["strong stalls"] >= 300, seen
        assert seen["backward picks"] >= 300, seen
        assert seen["paths of 4+ arcs"] >= 100, seen
        assert min(seen["deleted"], seen["two-cycles"]) >= 1_000, seen

    def test_huge_l_stops_at_the_order(self):
        # lengths stop at order - 1, and a direction at its first unreachable
        # length, so l = 10**6 costs what l = 9 does
        cycle = Digraph.from_arcs(10, [(0, 2)] + [(i, i + 1) for i in range(2, 9)] + [(9, 1), (1, 0)])
        for d in [cycle] + [random_digraph(10, 93_000 + s, 2 + s % 5) for s in range(10)]:
            start = time.perf_counter()
            got = independent_short_paths(d, 0, 1, 10**6, 5)
            assert time.perf_counter() - start < 1.0
            assert got == ref_independent_short_paths(d, 0, 1, 10**6, 5)
        pool = independent_short_paths(cycle, 0, 1, 10**6, 5)
        assert pool.forward == ((0, 2, 3, 4, 5, 6, 7, 8, 9, 1),)
        assert pool.backward == ((1, 0),)
        assert pool.stall_distances == (None, 1) and not pool.stalled_strong


def _triangle_gadget():
    """One non-adjacent pair backed by exactly three independent 3-paths."""
    outer = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    return CompositionSpec.from_local_parts(
        outer, [Digraph.from_arcs(2, []), complete(3), complete(3)]
    )


class TestBuildAuxiliary:
    def test_semicomplete_adds_nothing(self):
        d = random_semicomplete(15, 0.4, 2)
        assert not build_auxiliary(d, [0], [1], 2, 5)

    def test_triangle_gadget_pool(self):
        spec = _triangle_gadget()
        d = spec.digraph
        assert is_l_quasi_transitive(d, 2)
        available = build_auxiliary(d, [], [], 2, 3)
        assert len(available) == 1
        ((arc, pool),) = available.items()
        assert arc == (0, 1)
        assert len(pool) == 3
        assert all(len(p) == 4 for p in pool)
        interiors = [set(p[1:-1]) for p in pool]
        assert not any(a & b for i, a in enumerate(interiors) for b in interiors[i + 1:])

    def test_not_strong_rejected(self):
        with pytest.raises(PreconditionViolatedError, match="needs a strong digraph"):
            build_auxiliary(Digraph.from_arcs(3, [(0, 1), (1, 2)]), [], [], 2, 3)

    def test_threshold_checked_first(self):
        # the range check comes before the strong check: this digraph is not strong
        with pytest.raises(InputError, match="^threshold must be positive$"):
            build_auxiliary(Digraph.from_arcs(3, [(0, 1), (1, 2)]), [], [], 2, 0)

    @pytest.mark.parametrize("x", [99, -1])
    def test_terminal_ids_not_in_the_digraph(self, x):
        # -1 raised ValueError (negative shift count); 99 failed only after the strong check
        with pytest.raises(InputError, match=f"^vertex {x} not in digraph$"):
            build_auxiliary(random_tournament(30, 1), [x], [1], 2, 1)

    def test_backward_direction_backs_the_arc(self):
        # 1 and 3 are non-adjacent; 3 reaches 1 through 4, 1 has no short path to 3
        d = Digraph.from_arcs(5, [(1, 2), (2, 0), (0, 3), (3, 2), (4, 1), (2, 4), (0, 4), (3, 4)])
        available = build_auxiliary(d, [], [], 2, 1)
        assert available[(3, 1)] == ((3, 4, 1),)
        assert (1, 3) not in available

    def test_no_short_return_path(self):
        # the circulant i -> i+1, i+2 on 20 vertices, terminals 1 and 11 off:
        # 0 and 7 are non-adjacent, 4 arcs apart one way and 7 the other,
        # both past l + 1 = 3
        c = Digraph.from_arcs(20, [(i, (i + j) % 20) for i in range(20) for j in (1, 2)])
        with pytest.raises(PreconditionViolatedError) as err:
            build_auxiliary(c, [1], [11], 2, 1)
        exc = err.value
        assert exc.clause == "no short return path"
        assert exc.vertices == (0, 7)
        assert exc.counts == {"forward": 4, "backward": 7}
        assert str(exc) == "pair (0, 7) has no short return path (d(0, 7)=4, reverse=7)"

    def test_threshold_unreachable_on_small_digraph(self):
        spec = random_extended_tournament(10, [3] * 10, 4)
        d = spec.digraph
        assert d.is_strong()
        with pytest.raises(ConstructionFailedError) as err:
            build_auxiliary(d, [], [], 2, pool_threshold(2, 2))
        exc = err.value
        forward, backward = exc.counts["forward"], exc.counts["backward"]
        assert max(forward, backward) < exc.counts["threshold"] == pool_threshold(2, 2)
        assert str(exc) == f"pair {exc.vertices}: best per-direction counts {(forward, backward)}"

    def test_one_backed_arc_per_non_adjacent_pair_off_the_terminals(self):
        spec = random_extended_tournament(12, [3] * 12, 6)
        d = spec.digraph
        x, y = 0, 5
        available = build_auxiliary(d, [x], [y], 2, 3)
        sub = d.delete([x, y])
        gaps = {frozenset(p) for p in combinations(sub.vertices(), 2) if not is_adjacent(sub, *p)}
        assert gaps
        # one key per gap: a pair backed in both directions would give two
        assert len(available) == len(gaps)
        assert {frozenset(arc) for arc in available} == gaps


def _recorded_auxiliaries(monkeypatch):
    """A ``build_auxiliary`` wrapper that keeps each call's arguments and
    backed arcs, set in place of the one ``solve_lqt`` calls, and the list
    it keeps them in."""
    built = []

    def record(d, xs, ys, l, threshold):
        available = build_auxiliary(d, xs, ys, l, threshold)
        built.append((d, xs, ys, l, threshold, available))
        return available

    monkeypatch.setattr(linkage_lqt, "build_auxiliary", record)
    return record, built


def test_built_pools_pass_the_record_time_check(monkeypatch):
    """The backed arcs that the golden, benchmark-pool and acceptance l-QT
    solves build make d minus the terminals semicomplete, and each of their
    pools passes ``ref_check_pool`` in the terminal-free subdigraph: the
    checks that ``build_auxiliary`` leaves to construction."""
    record, built = _recorded_auxiliaries(monkeypatch)
    for name, case in CASES.items():
        if name.startswith("lqt-"):
            case()
    counts = [len(built)]
    _reports("lqt")
    counts.append(len(built) - sum(counts))
    for spec, d in _lqt_instances(10, 20, 61_000):
        parts = spec.part_vertex_ids()
        solve_lqt(d, ((parts[0][0], parts[10][0]),), 2, threshold=5, skip_audit=True)
    counts.append(len(built) - sum(counts))
    # in an extended tournament the non-adjacent pairs share a part, so at
    # l = 2 every pool path has 3 arcs; the 2-cycles between the parts of
    # these compositions add 2-arc paths, and their pools mix both lengths
    for seed in range(41_000, 41_020):
        d = random_composition(10, [3] * 10, 0.3, seed).digraph
        try:
            record(d, [0], [3], 2, 5)
        except (ConstructionFailedError, PreconditionViolatedError):
            pass
    counts.append(len(built) - sum(counts))
    arcs = mixed = 0
    for d, xs, ys, l, _threshold, available in built:
        assert is_semicomplete(d.add_arcs(available).delete(xs + ys))
        sub = d.delete(xs + ys)
        for arc, pool in available.items():
            ref_check_pool(sub, arc, pool, l)
            mixed += len({len(p) for p in pool}) > 1
        arcs += len(available)
    # every golden case that gets past the audit and the construction, the 24
    # pinned instances, the 10 acceptance solves and the compositions
    assert counts == [11, 24, 10, 19], counts
    assert arcs >= 2_000 and mixed >= 40, (arcs, mixed)


def test_benchmark_pools_match_the_two_search_extraction(monkeypatch):
    """On the benchmark's shape, the 24 pinned ``lqt`` instances (20 parts
    of 3, l = 2, threshold 5), every pair ``build_auxiliary`` extracts gets
    the pool of ref_lqt's two-searches-per-pick loop, and its backed arc
    carries that pool's full direction."""
    _record, built = _recorded_auxiliaries(monkeypatch)
    _reports("lqt")
    pools = 0
    for d, xs, ys, l, threshold, available in built:
        sub = d.delete(xs + ys)
        for u, v in combinations(sub.vertices(), 2):
            if is_adjacent(sub, u, v):
                continue
            got = independent_short_paths(sub, u, v, l, threshold)
            assert got == ref_independent_short_paths(sub, u, v, l, threshold), (u, v)
            if len(got.forward) >= threshold:
                assert available[(u, v)] == got.forward
            else:
                assert available[(v, u)] == got.backward
            pools += 1
    assert sum(len(available) for *_, available in built) == pools
    assert (len(built), pools) == (24, 1_344), (len(built), pools)


class TestRefCheckPool:
    """``ref_check_pool`` refuses each fault it checks for."""

    def test_accepts_a_backing_pool(self):
        ref_check_pool(complete(5), (0, 1), ((0, 1), (0, 2, 1), (0, 3, 4, 1)), 2)

    @pytest.mark.parametrize("pool, fault", [
        (((0, 2, 3, 4, 1),), "does not run 0->1 within 3 arcs"),
        (((0, 2),), "does not run 0->1 within 3 arcs"),
        (((0, 2, 1), (0, 3, 2, 1)), "share only their endpoints"),
        (((0, 4, 1),), "leaves the terminal-free subdigraph"),
    ])
    def test_refuses(self, pool, fault):
        with pytest.raises(AssertionError, match=fault):
            ref_check_pool(complete(5).delete([4]), (0, 1), pool, 2)


class TestShortAnchors:
    def test_single_arc_anchors(self):
        t = Digraph.from_arcs(2, [(0, 1)])
        assert verify_short_anchor(t, [0], [1])

    def test_distance_four_fails(self):
        t = random_tournament(10, 0)
        path = t.shortest_path(5, 3)
        assert len(path) - 1 == 4
        assert not verify_short_anchor(t, [5], [3])

    def test_pair_found_and_reverified(self):
        t = random_tournament(12, 5)
        got = find_short_anchor_pair(t, 2)
        assert got is not None
        assert verify_short_anchor(t, *got)

    def test_strong_tournament_k1_always_found(self):
        for n in (3, 5, 8):
            t = random_tournament(n, 100 + n)
            got = find_short_anchor_pair(t, 1)
            assert got is not None

    def test_circulant_eleven_pair_reverified(self):
        from klinkage.generators import circulant_tournament

        t = circulant_tournament(11)
        got = find_short_anchor_pair(t, 2)
        assert got is not None
        assert verify_short_anchor(t, *got)

    def test_exhaustive_search_after_the_heuristic_fails(self):
        t = random_tournament(5, 3)
        by_out = sorted(t.vertices(), key=lambda v: (-t.out_degree(v), v))
        by_in = sorted(t.vertices(), key=lambda v: (-t.in_degree(v), v))
        heuristic = by_out[:2], [v for v in by_in if v not in by_out[:2]][:2]
        assert not verify_short_anchor(t, *heuristic)
        assert find_short_anchor_pair(t, 2) == ([0, 4], [2, 3])

    def test_exhaustive_search_finds_nothing(self):
        assert find_short_anchor_pair(random_tournament(4, 0), 2) is None

    def test_anchor_id_past_the_digraph(self):
        with pytest.raises(InputError, match="anchor vertex 9 not in digraph") as info:
            verify_short_anchor(random_tournament(6, 0), [9], [0])
        assert info.value.vertices == (9,)

    def test_negative_anchor_id(self):
        with pytest.raises(InputError, match="anchor vertex -1 not in digraph"):
            verify_short_anchor(random_tournament(6, 0), [0], [-1])

    def test_non_integer_anchor_id(self):
        # a float reached a shift and raised TypeError
        with pytest.raises(InputError, match=r"^anchor vertex 1\.5 not in digraph$") as info:
            verify_short_anchor(random_tournament(8, 1), [0], [1.5])
        assert info.value.vertices == (1.5,)

    def test_deleted_anchor_id(self):
        t = random_tournament(6, 0).delete([3])
        with pytest.raises(InputError, match="anchor vertex 3 not in digraph"):
            verify_short_anchor(t, [3], [0])

    def test_repeated_anchor_id(self):
        t = random_tournament(6, 0)
        for u1, u2 in (([0, 0], [1, 2]), ([0, 1], [1, 2])):
            with pytest.raises(InputError, match="anchor sets must be disjoint, without repeats"):
                verify_short_anchor(t, u1, u2)

    def test_zero_k(self):
        with pytest.raises(InputError, match="k must be positive, got 0") as info:
            find_short_anchor_pair(random_tournament(6, 0), 0)
        assert info.value.counts == {"k": 0}

    def test_negative_k(self):
        with pytest.raises(InputError, match="k must be positive, got -1"):
            find_short_anchor_pair(random_tournament(6, 0), -1)


class TestAnchorBudget:
    """The anchor search spends one unit per candidate-path list."""

    @pytest.mark.parametrize("n, k", [(16, 6), (18, 7)])
    def test_undersized_search_stops_at_the_default_budget(self, n, k):
        with pytest.raises(BudgetExceededError) as info:
            find_short_anchor_pair(random_tournament(n, 1), k)
        assert (info.value.budget, info.value.expanded) == (20_000, 20_001)

    @pytest.mark.parametrize("n, k", [(16, 6), (18, 7)])
    def test_lowered_budget(self, n, k):
        with pytest.raises(BudgetExceededError) as info:
            find_short_anchor_pair(random_tournament(n, 1), k, budget=50)
        assert (info.value.budget, info.value.expanded) == (50, 51)

    def test_solve_reports_the_spent_budget(self):
        spec, d = _lqt_instances(5, 20, 61_000)[0]
        parts = spec.part_vertex_ids()
        rep = solve_lqt(d, ((parts[0][0], parts[10][0]),), 2, threshold=5, anchor_budget=0,
                        skip_audit=True)
        assert (rep.outcome, rep.stage) == ("stage_failed", "anchor-pair")
        assert rep.witness == {"clause": "search passed its expansion budget", "vertices": [],
                               "counts": {"expanded": 1, "budget": 0}}
        with pytest.raises(InputError, match="budget must be at least 0, got -1"):
            solve_lqt(d, ((parts[0][0], parts[10][0]),), 2, threshold=5, anchor_budget=-1,
                      skip_audit=True)


class TestSolveLqt:
    def test_semicomplete_degenerates(self):
        d = random_semicomplete(50, 0.4, 9)
        rep = solve_lqt(d, ((0, 30),), 2, threshold=5, skip_audit=True)
        assert rep.linked
        assert rep.audit["new_arcs"] == 0

    def test_not_strong(self):
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
        rep = solve_lqt(d, ((0, 3),), 2)
        assert rep.outcome == "hypothesis_violated"
        assert rep.failure == "not strong"

    def test_threshold_checked_before_the_audit(self):
        transitive_8 = Digraph.from_arcs(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        assert not transitive_8.is_strong()  # the audit would report "not strong"
        with pytest.raises(InputError, match="^threshold must be positive$"):
            solve_lqt(transitive_8, ((0, 7),), 2, threshold=0)

    def test_connectivity_bound_audited_by_default(self):
        spec = random_extended_tournament(20, [3] * 20, 0)
        d = spec.digraph
        rep = solve_lqt(d, ((0, 30),), 2, threshold=5)
        assert rep.outcome == "hypothesis_violated"
        assert "kappa" in rep.failure

    def test_synthetic_instances_link_inside_original_arcs(self):
        solved = 0
        for seed in range(6):
            spec = random_extended_tournament(20, [3] * 20, seed)
            d = spec.digraph
            if not d.is_strong():
                continue
            parts = spec.part_vertex_ids()
            pairs = ((parts[0][0], parts[10][0]),)
            rep = solve_lqt(d, pairs, 2, threshold=5, skip_audit=True)
            assert rep.linked, (rep.stage, rep.witness)
            assert verify_linkage(d, pairs, rep.system).ok
            solved += 1
        assert solved >= 5

    def test_two_pairs_on_larger_instances(self):
        for seed in range(2):
            spec = random_extended_tournament(30, [3] * 30, 74_000 + seed)
            d = spec.digraph
            assert d.is_strong()
            parts = spec.part_vertex_ids()
            pairs = ((parts[0][0], parts[10][0]), (parts[5][0], parts[20][0]))
            rep = solve_lqt(d, pairs, 2, threshold=5, skip_audit=True)
            assert rep.linked, (rep.stage, rep.witness)
            assert verify_linkage(d, pairs, rep.system).ok

    def test_degraded_runs_never_crash(self):
        from klinkage import SplitMix64

        linked = 0
        for seed in range(40):
            h = 8 + seed % 10
            spec = random_extended_tournament(h, [1 + seed % 3] * h, 84_000 + seed)
            d = spec.digraph
            if not d.is_strong():
                continue
            rng = SplitMix64(85_000 + seed)
            terms = rng.sample(list(d.vertices()), 2)
            pairs = ((terms[0], terms[1]),)
            rep = solve_lqt(d, pairs, 2, threshold=2 + seed % 4, skip_audit=True)
            assert rep.outcome in ("linked", "stage_failed")
            if rep.linked:
                assert verify_linkage(d, pairs, rep.system).ok
                linked += 1
        assert linked > 10

    def test_same_part_terminals(self):
        spec = random_extended_tournament(20, [3] * 20, 2)
        d = spec.digraph
        parts = spec.part_vertex_ids()
        pairs = ((parts[0][0], parts[0][1]),)  # non-adjacent terminal pair
        rep = solve_lqt(d, pairs, 2, threshold=5, skip_audit=True)
        assert rep.linked
        assert verify_linkage(d, pairs, rep.system).ok


def _ledger_instance(i):
    """Seeded ``solve_lqt`` arguments: 6-23 parts of 1-4 vertices, k of 1-3,
    threshold 1-6, anchor budget 200 or 20,000, audit skipped."""
    rng = SplitMix64(70_000 + i)
    h = 6 + rng.randrange(18)
    sizes = [1 + rng.randrange(4) for _ in range(h)]
    k = 1 + rng.randrange(3)
    kwargs = {"threshold": 1 + rng.randrange(6), "anchor_budget": (200, 20_000)[rng.bit()],
              "skip_audit": True}
    d = random_extended_tournament(h, sizes, 70_000 + i).digraph
    terms = SplitMix64(71_000 + i).sample(list(d.vertices()), 2 * k)
    return d, tuple((terms[2 * j], terms[2 * j + 1]) for j in range(k)), kwargs


def _outcome(solve, d, pairs, kwargs):
    """The canonical report bytes and the stage, hypothesis or outcome, or
    the error raised."""
    try:
        report = solve(d, pairs, 2, **kwargs)
    except KLinkageError as exc:
        return (type(exc).__name__, str(exc), exc.witness()), "raised"
    return dumps_canonical(report_to_obj(report)), report.stage or report.failure or report.outcome


# per outcome, half the count the 600 instances gave when the test was written
_LEDGER_FLOORS = {"linked": 155, "auxiliary": 54, "source-helper": 34, "not strong": 18,
                  "dominating-set": 13, "source-replacement": 12, "targets": 6,
                  "anchor-link": 6}


def test_claimed_mask_matches_the_ledger_solver():
    """``solve_lqt`` keeps one claimed mask where ``ref_solve_lqt`` keeps a
    ledger, a helper mask and the reserved interiors: the same report
    bytes on every instance, over every stage the solve after the
    auxiliary digraph can fail at."""
    seen = {}
    for i in range(600):
        d, pairs, kwargs = _ledger_instance(i)
        got, kind = _outcome(solve_lqt, d, pairs, kwargs)
        want, _ = _outcome(ref_solve_lqt, d, pairs, kwargs)
        assert got == want, (i, pairs, kwargs)
        seen[kind] = seen.get(kind, 0) + 1
    assert all(seen.get(kind, 0) >= floor for kind, floor in _LEDGER_FLOORS.items()), seen

import pytest
from hypothesis import given, settings

from klinkage import (
    CompositionSpec,
    Digraph,
    composition_from_digraph,
    is_l_quasi_transitive,
    is_semicomplete,
    is_tournament,
    nearly_in_dominating_vertex,
    spanning_tournament,
    strip_intra_part_arcs,
)
import klinkage.digraph
from klinkage.digraph import iter_bits
from klinkage.errors import BudgetExceededError, InputError, PreconditionViolatedError
from klinkage.generators import (
    SplitMix64,
    random_composition,
    random_digraph,
    random_extended_tournament,
    random_semicomplete,
)

from conftest import digraphs, semicomplete_digraphs
from ref_bfs import ref_shortest_path
from ref_lqt import ref_is_l_quasi_transitive


def cycle3():
    return Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def complete(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(n) if i != j])


class TestBuild:
    def test_three_cycle(self):
        d = cycle3()
        assert all(d.out_degree(v) == 1 for v in d.vertices())
        assert d.num_arcs == 3

    def test_two_cycle_is_semicomplete(self):
        d = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        assert is_semicomplete(d)

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="^self-loop at 0$"):
            Digraph.from_arcs(2, [(0, 0)])

    def test_duplicate_arc_rejected(self):
        with pytest.raises(InputError, match="listed twice"):
            Digraph.from_arcs(2, [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError, match=r"outside 0\.\.1"):
            Digraph.from_arcs(2, [(0, 2)])

    def test_has_arc_needs_two_vertices(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]).delete([2])
        assert d.has_arc(0, 1)
        for u, v in ((0, -1), (-1, 0), (0, 3), (3, 0), (1, 2), (2, 0)):
            assert not d.has_arc(u, v), (u, v)

    def test_degree_sum_is_arc_count(self):
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (3, 1)])
        assert sum(d.out_degree(v) for v in d.vertices()) == d.num_arcs
        assert sum(d.in_degree(v) for v in d.vertices()) == d.num_arcs


class TestPredicates:
    def test_cycle_semicomplete(self):
        assert is_semicomplete(cycle3())

    def test_path_not_semicomplete(self):
        assert not is_semicomplete(Digraph.from_arcs(3, [(0, 1), (1, 2)]))

    def test_complete_semicomplete(self):
        assert is_semicomplete(complete(4))

    def test_tournament_rejects_two_cycles(self):
        assert is_tournament(cycle3())
        assert not is_tournament(complete(3))

    def test_path_not_quasi_transitive(self):
        assert not is_l_quasi_transitive(Digraph.from_arcs(3, [(0, 1), (1, 2)]), 2)

    def test_length_below_one_rejected(self):
        with pytest.raises(InputError, match="^path length must be at least 1$"):
            is_l_quasi_transitive(cycle3(), 0)

    def test_four_cycle_exact_lengths(self):
        c4 = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_l_quasi_transitive(c4, 3)
        assert not is_l_quasi_transitive(c4, 2)

    @given(semicomplete_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_semicomplete_is_l_qt_for_every_l(self, d):
        # endpoints of any path are adjacent when every pair is adjacent
        for l in (1, 2, 3):
            assert is_l_quasi_transitive(d, l)

    @given(digraphs(min_n=2, max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_length_one_matches_semicompleteness(self, d):
        assert is_l_quasi_transitive(d, 1) == is_semicomplete(d)

    def test_length_one_matches_semicompleteness_at_scale(self):
        for i in range(500):
            d = random_digraph(2 + i % 11, 123_000 + i, (3, 5, 8, 10)[i % 4])
            assert is_l_quasi_transitive(d, 1) == is_semicomplete(d)


def near_complete(n):
    """Every arc on n vertices except the two between 0 and 1."""
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(n)
                             if i != j and {i, j} != {0, 1}])


class TestLQuasiTransitive:
    def test_against_exhaustive_endpoints(self):
        """Same answers as the enumerator of ref_lqt, vacuous lengths included."""
        seen = {True: 0, False: 0}
        for i in range(3_000):
            n = 2 + i % 9
            vacuous = i // 9 % 6 >= 4
            # at l >= order the oracle enumerates every simple path: millions
            # on dense digraphs of 9 or 10 vertices, so those stay sparser
            tenths = (3, 5, 7, 9)[i // 54 % 4]
            d = random_digraph(n, 70_000 + i, min(tenths, 5) if vacuous else tenths)
            if i // 216 % 2:
                d = d.delete([i % n])
            l = (1, 2, 3, 4, d.order, d.order + 3)[i // 9 % 6]
            got = is_l_quasi_transitive(d, l)
            assert got == ref_is_l_quasi_transitive(d, l), (i, n, l)
            seen[got] += 1
        assert min(seen.values()) >= 1_000, seen

    def test_extended_tournaments_at_length_two(self, monkeypatch):
        # the benchmark's lqt shape: at l = 2 nothing is pushed
        monkeypatch.setattr(klinkage.digraph, "LQT_EXPANSION_BUDGET", 0)
        for s in range(24):
            d = random_extended_tournament(20, [3] * 20, s).digraph
            assert is_l_quasi_transitive(d, 2) is ref_is_l_quasi_transitive(d, 2) is True

    def test_against_exhaustive_endpoints_above_ten(self):
        """Seeded extended tournaments, one in three as is, one with an arc
        removed and one with an arc reversed: 20 parts of 3 at l = 2 and
        8 parts of 2 at l = 3, answers of both kinds."""
        seen = {True: 0, False: 0}
        for s in range(60):
            for parts, size, l in ((20, 3, 2), (8, 2, 3)):
                d = random_extended_tournament(parts, [size] * parts, s).digraph
                arcs = d.arcs()
                a, b = arcs[s * 7_919 % len(arcs)]
                rest = [arc for arc in arcs if arc != (a, b)]
                d = (d, Digraph.from_arcs(d.n, rest), Digraph.from_arcs(d.n, [*rest, (b, a)]))[s % 3]
                got = is_l_quasi_transitive(d, l)
                assert got == ref_is_l_quasi_transitive(d, l), (s, l)
                seen[got] += 1
        assert min(seen.values()) >= 15, seen

    @pytest.mark.parametrize("l, limit", [(2, 0), (3, 8), (4, 16)])
    def test_budget_boundary(self, monkeypatch, l, limit):
        # the root pushes its 8 out-neighbours at l = 3, and one of them its
        # 8 unused ones at l = 4; l = 2 pushes nothing
        monkeypatch.setattr(klinkage.digraph, "LQT_EXPANSION_BUDGET", limit)
        assert not is_l_quasi_transitive(near_complete(10), l)
        monkeypatch.setattr(klinkage.digraph, "LQT_EXPANSION_BUDGET", limit - 1)
        with pytest.raises(BudgetExceededError if limit else InputError):  # no budget below 0
            is_l_quasi_transitive(near_complete(10), l)

    def test_length_two_unions_one_row_per_non_adjacent_pair(self, monkeypatch):
        # a work count, not a timer: at l = 2 each vertex makes at most one
        # _union call, over the in-rows of its non-neighbours
        union = klinkage.digraph._union
        rows = []  # one entry per call: the rows it unions

        def counted(table, mask):
            rows.append(mask.bit_count())
            return union(table, mask)

        monkeypatch.setattr(klinkage.digraph, "_union", counted)
        for s in range(24):
            d = random_extended_tournament(20, [3] * 20, s).digraph
            rows.clear()
            assert is_l_quasi_transitive(d, 2)
            apart = sum(1 for u in d.vertices() for w in d.vertices()
                        if u != w and not d.has_arc(u, w) and not d.has_arc(w, u))
            assert len(rows) <= d.order
            assert sum(rows) == apart == 2 * d.order, s

    def test_vacuous_lengths_need_no_search(self, monkeypatch):
        monkeypatch.setattr(klinkage.digraph, "LQT_EXPANSION_BUDGET", 0)
        d = near_complete(10)
        for l in (10, 11, 40):
            assert is_l_quasi_transitive(d, l)
        assert is_l_quasi_transitive(d.delete([9]), 9)
        with pytest.raises(BudgetExceededError):
            is_l_quasi_transitive(d, 9)

    def test_budget_overrun_raises(self, monkeypatch):
        assert not is_l_quasi_transitive(near_complete(10), 9)
        monkeypatch.setattr(klinkage.digraph, "LQT_EXPANSION_BUDGET", 10)
        with pytest.raises(BudgetExceededError) as info:
            is_l_quasi_transitive(near_complete(10), 9)
        assert info.value.budget == 10
        assert info.value.expanded > 10


def _arc_list_spanning_tournament(d):
    """Reference: keep arc (u, v) unless v -> u exists too and u > v."""
    arcs = [(u, v) for u in d.vertices() for v in iter_bits(d.out_mask(u))
            if u < v or not d.has_arc(v, u)]
    out = [0] * d.n
    inc = [0] * d.n
    for u, v in arcs:
        out[u] |= 1 << v
        inc[v] |= 1 << u
    return Digraph(d.n, d.alive_mask, out, inc)


class TestSpanningTournament:
    def test_tournament_unchanged(self):
        d = cycle3()
        assert spanning_tournament(d) == d

    def test_complete_gives_transitive(self):
        t = spanning_tournament(complete(3))
        assert sorted(t.arcs()) == [(0, 1), (0, 2), (1, 2)]

    def test_rejects_non_semicomplete(self):
        with pytest.raises(PreconditionViolatedError, match="spanning tournament needs"):
            spanning_tournament(Digraph.from_arcs(3, [(0, 1), (1, 2)]))

    def test_matches_arc_list_reference(self):
        # the per-vertex mask formulas against the arc-by-arc construction,
        # on semicomplete digraphs with vertices deleted
        rng = SplitMix64(3_031)
        for trial in range(300):
            n = 2 + trial % 40 if trial < 280 else 100 + 20 * (trial - 280)
            d = random_semicomplete(n, (trial % 10) / 10, 31_000 + trial)
            d = d.delete([v for v in range(n) if rng.randrange(4) == 0][: n - 1])
            want = _arc_list_spanning_tournament(d)
            got = spanning_tournament(d)
            assert got._out == want._out and got._in == want._in, trial
            assert got.alive_mask == want.alive_mask
            assert nearly_in_dominating_vertex(d) == max(
                want.vertices(), key=lambda v: (want.in_degree(v), -v))

    @given(semicomplete_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_half_of_all_pairs_and_subset(self, d):
        t = spanning_tournament(d)
        n = d.order
        assert t.num_arcs == n * (n - 1) // 2
        assert set(t.arcs()) <= set(d.arcs())


class TestSubdigraphs:
    def test_induced(self):
        got = cycle3().induced({0, 1})
        assert got.arcs() == [(0, 1)]
        assert got.order == 2

    def test_delete_nothing_is_identity(self):
        d = cycle3()
        assert d.delete(set()) == d

    def test_delete_keeps_ids(self):
        got = cycle3().delete({2})
        assert got.arcs() == [(0, 1)]
        assert got.has_vertex(0) and got.has_vertex(1) and not got.has_vertex(2)

    def test_delete_out_of_range(self):
        with pytest.raises(InputError, match="vertex 5 not in digraph"):
            cycle3().delete({5})

    @pytest.mark.parametrize("bad", [2.0, 1.5, "1", None])
    def test_non_integer_ids_are_not_vertices(self, bad):
        # a float reached a shift and raised TypeError
        with pytest.raises(InputError, match=f"^vertex {bad} not in digraph$") as info:
            cycle3().delete([bad])
        assert info.value.vertices == (bad,)

    def test_bool_ids_stay_accepted(self):
        assert cycle3().delete([True]) == cycle3().delete([1])


class TestComposition:
    def test_two_cycle_of_singletons(self):
        two = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        spec = CompositionSpec.from_local_parts(two, [Digraph.from_arcs(1, []), Digraph.from_arcs(1, [])])
        assert spec.digraph.arcs() == [(0, 1), (1, 0)]

    def test_arc_count_formula(self):
        # arcless parts of sizes 2 and 3 under a 2-cycle: 2*3 + 3*2 arcs
        two = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        spec = CompositionSpec.from_local_parts(two, [Digraph.from_arcs(2, []), Digraph.from_arcs(3, [])])
        assert spec.digraph.num_arcs == 12

    def test_transitive_triangle_of_singletons(self):
        tri = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
        spec = CompositionSpec.from_local_parts(tri, [Digraph.from_arcs(1, [])] * 3)
        assert spec.digraph == tri

    def test_arity_mismatch(self):
        two = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        with pytest.raises(InputError, match="parts given"):
            CompositionSpec.from_local_parts(two, [Digraph.from_arcs(1, [])])

    def test_strip_and_readd_reproduces_arcs(self):
        spec = CompositionSpec.from_local_parts(
            random_semicomplete(3, 0.5, 4),
            [Digraph.from_arcs(2, [(0, 1)]), Digraph.from_arcs(2, [(1, 0)]), Digraph.from_arcs(1, [])],
        )
        d = spec.digraph
        parts = spec.part_vertex_ids()
        stripped = strip_intra_part_arcs(d, parts)
        intra = [a for ids in parts for a in d.induced(ids).arcs()]
        assert intra == [(0, 1), (3, 2)]
        assert set(stripped.add_arcs(intra).arcs()) == set(d.arcs())

    def test_recover_spec_roundtrip(self):
        spec = CompositionSpec.from_local_parts(
            random_semicomplete(4, 0.3, 9),
            [Digraph.from_arcs(2, [(0, 1)]), Digraph.from_arcs(1, []), Digraph.from_arcs(3, []), Digraph.from_arcs(1, [])],
        )
        d = spec.digraph
        back = composition_from_digraph(d, spec.part_vertex_ids())
        assert back.digraph == d

    @pytest.mark.parametrize("last, message", [
        ([5, 6, 6], "part repeats vertex 6"),
        ([5, 6, -1], "part vertex -1 not in digraph"),
        ([5, 6, 7], "part vertex 7 not in digraph"),
        ([5, 6, 6, 99], "part repeats vertex 6"),  # ids are checked in order
        ([5], "parts do not cover the digraph"),
    ], ids=["repeat", "negative", "out-of-range", "repeat-first", "uncovered"])
    def test_part_lists_hold_vertices_once(self, last, message):
        # a repeat used to fold into its part's mask and the list passed; a
        # negative id raised ValueError, one past the end "do not cover"
        spec = random_composition(3, [2, 3, 2], 0.5, 3)
        parts = [[0, 1], [2, 3, 4], last]
        for check in (composition_from_digraph, strip_intra_part_arcs):
            with pytest.raises(InputError, match=f"^{message}$"):
                check(spec.digraph, parts)

    @pytest.mark.parametrize("parts", [[[0, 1, 2, 3]], []], ids=["one-part", "no-part"])
    def test_recover_needs_two_parts(self, parts):
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) if parts else Digraph.from_arcs(0, [])
        with pytest.raises(InputError, match="^outer digraph needs at least 2 vertices$"):
            composition_from_digraph(d, parts)

    def test_recover_rejects_partial_bundle(self):
        d = Digraph.from_arcs(3, [(0, 2), (1, 2), (2, 0)])  # {0,1} -> {2} full, {2} -> {0,1} partial
        with pytest.raises(InputError, match="cross arcs present"):
            composition_from_digraph(d, [[0, 1], [2]])


class TestShortestPath:
    def test_lowest_path_among_shortest(self):
        # 0->1->3 and 0->2->3 tie; the lower second vertex wins
        d = Digraph.from_arcs(5, [(0, 2), (0, 1), (2, 3), (1, 3), (3, 4), (0, 4)])
        assert d.shortest_path(0, 3) == [0, 1, 3]
        assert d.shortest_path(0, 3, forbidden=0b10) == [0, 2, 3]
        assert d.shortest_path(0, 4) == [0, 4]
        assert d.shortest_path(4, 0) is None
        assert d.shortest_path(2, 2) == [2]

    def test_against_list_bfs(self):
        """Identical paths, not just lengths, to the list BFS of ref_bfs."""
        rng = SplitMix64(2_031)
        seen = {"found": 0, "unreachable": 0, "forbidden": 0, "deleted": 0, "two-cycles": 0}
        for trial in range(8_400):
            n = 2 + rng.randrange(15)
            d = random_digraph(n, 70_000 + trial, 1 + rng.randrange(9))
            d = d.delete([v for v in range(n) if rng.randrange(6) == 0][: n - 2])
            src, dst = rng.sample(list(d.vertices()), 2)
            forbidden = sum(1 << v for v in range(n) if rng.randrange(4) == 0)
            got = d.shortest_path(src, dst, forbidden)
            assert got == ref_shortest_path(d, src, dst, forbidden), (trial, src, dst, forbidden)
            seen["found" if got else "unreachable"] += 1
            seen["forbidden"] += got != ref_shortest_path(d, src, dst, 0)
            seen["deleted"] += d.order < n
            seen["two-cycles"] += any(d.has_arc(v, u) for u, v in d.arcs())
        assert min(seen.values()) >= 400, seen


def test_iter_bits_ascending():
    assert list(iter_bits(0b101001)) == [0, 3, 5]

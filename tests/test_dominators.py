import pytest
from hypothesis import given, settings

from klinkage import (
    build_digraph,
    goodness_profile,
    is_c_good,
    is_gamma_dominator,
    is_in_king,
    nearly_in_dominating_set,
    nearly_in_dominating_vertex,
    spanning_tournament,
    two_path_width,
    verify_nearly_in_dominating,
    verify_nearly_in_dominating_set,
)
from klinkage.errors import (
    InputError,
    NotSemicompleteError,
    NotTournamentError,
    SameVertexError,
    TooFewVerticesError,
    VertexInSetError,
    VertexOutOfRangeError,
)
from klinkage.generators import SplitMix64, random_semicomplete, random_tournament

import ref_dominators
from conftest import digraphs, semicomplete_digraphs


def complete(n):
    return build_digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def transitive(n):
    return build_digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestWidth:
    def test_cycle(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert two_path_width(d, 0, 2) == 1

    def test_complete(self):
        d = complete(7)
        assert all(
            two_path_width(d, v, u) == 5 for v in range(7) for u in range(7) if u != v
        )

    def test_same_vertex_rejected(self):
        with pytest.raises(SameVertexError):
            two_path_width(complete(3), 2, 2)

    @given(digraphs(min_n=2, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_equals_middle_enumeration(self, d):
        vs = list(d.vertices())
        v, u = vs[0], vs[-1]
        if v == u:
            return
        middles = sum(
            1
            for w in vs
            if w not in (u, v) and d.has_arc(v, w) and d.has_arc(w, u)
        )
        assert two_path_width(d, v, u) == middles


class TestCGood:
    def test_domination_branch(self):
        d = build_digraph(2, [(0, 1)])
        assert is_c_good(d, 0, 1, 10**6)

    def test_cycle_width_one(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert is_c_good(d, 0, 2, 1)
        assert not is_c_good(d, 0, 2, 2)

    def test_complete_high_width(self):
        d = complete(10)
        assert all(is_c_good(d, v, u, 8) for v in range(10) for u in range(10) if u != v)

    @given(semicomplete_digraphs(min_n=3, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_c(self, d):
        vs = list(d.vertices())
        v, u = vs[0], vs[1]
        for c in range(1, 6):
            if is_c_good(d, v, u, c + 1):
                assert is_c_good(d, v, u, c)

    def test_survives_in_supergraph(self):
        # widths only grow when vertices come back
        for seed in range(20):
            d = random_semicomplete(9, 0.4, 400 + seed)
            sub = d.delete({7, 8})
            for v in sub.vertices():
                for u in sub.vertices():
                    if v != u and is_c_good(sub, v, u, 2):
                        assert is_c_good(d, v, u, 2)


class TestNearlyInDominatingVertex:
    def test_transitive_sink(self):
        d = transitive(6)
        u = nearly_in_dominating_vertex(d)
        assert u == 5  # the sink: everyone dominates it
        rep = verify_nearly_in_dominating(d, u, 6)
        assert rep.ok

    def test_cycle_tie_break(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert nearly_in_dominating_vertex(d) == 0
        assert verify_nearly_in_dominating(d, 0, 3).ok

    def test_source_of_transitive_fails(self):
        rep = verify_nearly_in_dominating(transitive(6), 0, 2)
        assert not rep.ok
        assert rep.worst_c is not None

    def test_rejects_non_semicomplete(self):
        with pytest.raises(NotSemicompleteError):
            nearly_in_dominating_vertex(build_digraph(3, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize("c_max", [0, -1])
    def test_empty_sweep_rejected(self, c_max):
        # range(1, c_max + 1) is empty, which would pass any vertex
        with pytest.raises(InputError):
            verify_nearly_in_dominating(transitive(6), 0, c_max)

    def test_random_tournaments_all_pass(self):
        for seed in range(40):
            t = random_tournament(40, 500 + seed)
            u = nearly_in_dominating_vertex(t)
            assert verify_nearly_in_dominating(t, u, 40).ok

    def test_selected_vertex_is_in_king(self):
        for seed in range(30):
            t = random_tournament(25, 700 + seed)
            assert is_in_king(spanning_tournament(t), nearly_in_dominating_vertex(t))


class TestNearlyInDominatingSet:
    def test_empty(self):
        assert nearly_in_dominating_set(complete(5), [0], [1], 0) == []

    def test_transitive_order(self):
        got = nearly_in_dominating_set(transitive(8), [], [], 3)
        assert got == [7, 6, 5]  # decreasing in-degree

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVerticesError):
            nearly_in_dominating_set(complete(5), [0, 1], [2, 3], 2)

    def test_set_level_definition_holds(self):
        for seed in range(10):
            t = random_tournament(50, 800 + seed)
            xs, ys = [0, 1], [2, 3]
            us = nearly_in_dominating_set(t, xs, ys, 6)
            assert verify_nearly_in_dominating_set(t, xs, ys, us, 50)


def _biased_semicomplete(n, seed, tenths, doubles):
    """i -> j for i < j with probability tenths/10, the reverse arc added
    with probability doubles/10: low ids have few in-arcs, so they make
    dominating sets that fail the set check."""
    rng = SplitMix64(seed)
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            fwd = rng.randrange(10) < tenths
            arcs.append((i, j) if fwd else (j, i))
            if rng.randrange(10) < doubles:
                arcs.append((j, i) if fwd else (i, j))
    return build_digraph(n, arcs)


class TestAgainstReference:
    """The mask-native selection and set check against ref_dominators."""

    def test_random_semicomplete_20_to_300(self):
        rng = SplitMix64(4_041)
        outcomes = {True: 0, False: 0}
        for trial in range(60):
            n = 20 + rng.randrange(281)
            seed = 9_000 + trial
            if trial % 3 == 0:
                d = random_tournament(n, seed)
            elif trial % 3 == 1:
                d = random_semicomplete(n, 0.3, seed)
            else:
                d = _biased_semicomplete(n, seed, 7 + rng.randrange(3), rng.randrange(4))
            d = d.delete([v for v in range(n) if rng.randrange(6) == 0])
            assert nearly_in_dominating_vertex(d) == ref_dominators.nearly_in_dominating_vertex(d)
            vs = list(d.vertices())
            k = 1 + rng.randrange(3)
            terminals = rng.sample(vs, 2 * k)
            xs, ys = terminals[:k], terminals[k:]
            us = nearly_in_dominating_set(d, xs, ys, 3 * k)
            assert us == ref_dominators.nearly_in_dominating_set(d, xs, ys, 3 * k), trial
            rest = [v for v in vs if v not in terminals]
            lowest = sorted(rest, key=d.in_degree)[:3 * k]
            for cand in (us, rng.sample(rest, 3 * k), lowest):
                for c_max in (d.order, 1 + rng.randrange(n // 4)):
                    got = verify_nearly_in_dominating_set(d, xs, ys, cand, c_max)
                    want = ref_dominators.verify_nearly_in_dominating_set(d, xs, ys, cand, c_max)
                    assert got == want, (trial, cand, c_max)
                    outcomes[got] += 1
        # measured 286 True, 74 False
        assert outcomes[True] >= 150 and outcomes[False] >= 40, outcomes

    def test_set_check_rejects_u_among_terminals(self):
        with pytest.raises(VertexOutOfRangeError):
            verify_nearly_in_dominating_set(complete(6), [0], [1], [1, 2, 3], 6)


class TestGammaDominator:
    def test_full_out_neighborhood(self):
        d = build_digraph(4, [(0, 1), (0, 2), (0, 3)])
        assert is_gamma_dominator(d, 0, [1, 2, 3], 3, "out")

    def test_gamma_zero_always(self):
        d = build_digraph(3, [(0, 1)])
        assert is_gamma_dominator(d, 2, [0, 1], 0, "out")
        assert is_gamma_dominator(d, 2, [0, 1], 0, "in")

    def test_vertex_in_set_rejected(self):
        with pytest.raises(VertexInSetError):
            is_gamma_dominator(complete(3), 1, [0, 1], 1, "out")

    def test_semicomplete_dichotomy(self):
        # with |U| = 3k, not a 2k-out-dominator forces (k+1)-in-dominator
        k = 2
        for seed in range(20):
            d = random_semicomplete(12, 0.3, 900 + seed)
            us = list(range(3 * k))
            for v in range(3 * k, 12):
                if not is_gamma_dominator(d, v, us, 2 * k, "out"):
                    assert is_gamma_dominator(d, v, us, k + 1, "in")


class TestInKing:
    def test_cycle_everyone(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert all(is_in_king(d, v) for v in range(3))

    def test_transitive_source_not(self):
        assert not is_in_king(transitive(5), 0)

    def test_rejects_non_tournament(self):
        with pytest.raises(NotTournamentError):
            is_in_king(complete(3), 0)

    def test_max_in_degree_always_king(self):
        for seed in range(200):
            t = random_tournament(4 + seed % 20, 1_000 + seed)
            best = max(t.vertices(), key=lambda v: (t.in_degree(v), -v))
            assert is_in_king(t, best)


def test_goodness_profile_fields():
    d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    prof = goodness_profile(d, 2)
    assert prof.target == 2
    assert prof.dominators == {1}
    assert prof.widths == {0: 1, 1: 0}
    assert prof.bad_count(1) == 0  # vertex 1 dominates, vertex 0 has width 1
    assert prof.bad_count(2) == 1  # vertex 0 falls short at width 2

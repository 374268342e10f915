import pytest

from klinkage import (
    brute_force_disjoint_paths,
    brute_force_k_linked,
    is_semicomplete,
    is_tournament,
    kappa,
)
from klinkage.digraph import Digraph
from klinkage.errors import InputError, PreconditionViolatedError
from klinkage.generators import (
    SplitMix64,
    circulant_tournament,
    non_linked_family,
    random_composition,
    random_extended_tournament,
    random_semicomplete,
    random_tournament,
)
from klinkage.paths import Infeasible


class TestSplitMix64:
    def test_reference_values(self):
        # splitmix64 of seed 0: published first outputs
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_randrange_uniform_bounds(self):
        rng = SplitMix64(42)
        draws = [rng.randrange(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_sample_distinct(self):
        rng = SplitMix64(3)
        got = rng.sample(list(range(10)), 4)
        assert len(set(got)) == 4


class TestRandomTournament:
    def test_single_vertex(self):
        assert random_tournament(1, 5).num_arcs == 0

    def test_three_vertices_three_arcs(self):
        assert random_tournament(3, 9).num_arcs == 3

    def test_same_seed_same_digraph(self):
        assert random_tournament(10, 7) == random_tournament(10, 7)

    def test_is_tournament(self):
        assert is_tournament(random_tournament(12, 0))


class TestCirculant:
    def test_three_is_cycle(self):
        assert sorted(circulant_tournament(3).arcs()) == [(0, 1), (1, 2), (2, 0)]

    def test_five_connectivity(self):
        assert kappa(circulant_tournament(5)) == 2

    def test_even_order_rejected(self):
        with pytest.raises(InputError, match="needs odd order"):
            circulant_tournament(4)

    def test_degrees_balanced(self):
        d = circulant_tournament(9)
        assert all(d.out_degree(v) == 4 and d.in_degree(v) == 4 for v in d.vertices())


class TestRandomSemicomplete:
    def test_no_doubles_is_tournament(self):
        assert is_tournament(random_semicomplete(8, 0.0, 3))

    def test_all_doubles_is_complete(self):
        d = random_semicomplete(5, 1.0, 3)
        assert d.num_arcs == 20
        assert kappa(d) == 4

    def test_always_semicomplete(self):
        assert is_semicomplete(random_semicomplete(20, 0.3, 11))


class TestRandomComposition:
    @pytest.mark.parametrize("p_double", [1.5, -0.5, float("nan")])
    def test_p_double_checked(self, p_double):
        with pytest.raises(InputError, match=r"p_double must lie in \[0, 1\]"):
            random_composition(2, [2, 2], p_double, 0)

    def test_single_vertex_parts_equal_outer(self):
        spec = random_composition(4, [1, 1, 1, 1], 0.4, 2)
        assert spec.digraph == spec.outer

    def test_arc_count_formula(self):
        spec = random_composition(3, [2, 2, 2], 0.5, 6)
        d = spec.digraph
        sizes = {hv: m.bit_count() for hv, m in zip(spec.outer.vertices(), spec.part_masks)}
        expect = sum(sizes[u] * sizes[v] for u, v in spec.outer.arcs())
        assert d.num_arcs == expect

    def test_extended_tournament_not_semicomplete_but_quasi_transitive(self):
        from klinkage import is_l_quasi_transitive

        spec = random_extended_tournament(8, [2, 2, 2, 2, 2, 2, 2, 2], 1)
        d = spec.digraph
        assert not is_semicomplete(d)
        assert is_l_quasi_transitive(d, 2)

    def test_deterministic(self):
        a = random_composition(3, [2, 2, 2], 0.5, 6, part_arcs=True).digraph
        b = random_composition(3, [2, 2, 2], 0.5, 6, part_arcs=True).digraph
        assert a == b

    def test_strong_components_respect_outer(self):
        # cross-part vertices share a strong component exactly when their
        # outer vertices do; same-part vertices need a non-trivial outer
        # component around their own outer vertex
        for seed in range(15):
            spec = random_composition(5, [2, 1, 3, 2, 1], 0.3, 300 + seed)
            d = spec.digraph
            parts = spec.part_vertex_ids()
            outer_ids = list(spec.outer.vertices())
            part_of = {v: outer_ids[i] for i, ids in enumerate(parts) for v in ids}

            def same_scc(g, a, b):
                return bool(g.reach_mask(a) >> b & 1) and bool(g.reach_mask(b) >> a & 1)

            vs = list(d.vertices())
            for i, u in enumerate(vs):
                for v in vs[i + 1:]:
                    hu, hv = part_of[u], part_of[v]
                    if hu != hv:
                        assert same_scc(d, u, v) == same_scc(spec.outer, hu, hv)
                    else:
                        # arcless parts: together iff the outer vertex sits on a cycle
                        on_cycle = bool(
                            spec.outer.reach_mask(hu) & spec.outer.in_mask(hu)
                        )
                        assert same_scc(d, u, v) == on_cycle


class TestProp2Family:
    def test_k_too_small(self):
        with pytest.raises(InputError, match="fewer than 3 vertices"):
            non_linked_family(2)

    def test_core_must_be_strong(self):
        with pytest.raises(PreconditionViolatedError, match="not strong"):
            non_linked_family(3, core=Digraph.from_arcs(3, [(0, 1), (1, 2)]))

    def test_default_family_k3(self):
        spec, bad = non_linked_family(3)
        d = spec.digraph
        assert d.order == 6
        assert kappa(d) >= 1
        assert isinstance(brute_force_disjoint_paths(d, bad), Infeasible)
        witness = brute_force_k_linked(d, 3)
        assert witness is not True

    def test_family_is_valid_composition(self):
        spec, _ = non_linked_family(4)
        d = spec.digraph
        # outer digraph is semicomplete, so this is a semicomplete composition
        assert is_semicomplete(spec.outer)
        assert d.order == 2 * 4 - 3 - 1 + 4  # r-1 singles plus the 4-cycle core

    def test_one_big_part_dominates(self):
        spec, _ = non_linked_family(3)
        d = spec.digraph
        assert (d.alive_mask & ~spec.part_masks[-1]).bit_count() <= 2 * 3 - 4

import re

import pytest

from klinkage import (
    Digraph,
    Infeasible,
    PathSystem,
    brute_force_disjoint_paths,
    brute_force_k_linked,
    kappa,
    verify_linkage,
)
from klinkage.errors import BudgetExceededError, InputError
from klinkage.generators import random_digraph

from conftest import out_neighbors


def complete(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(n) if i != j])


class TestVerifyLinkage:
    def test_direct_arcs_pass(self):
        d = complete(6)
        pairs = [(0, 1), (2, 3), (4, 5)]
        ps = PathSystem(tuple((x, y) for x, y in pairs))
        assert verify_linkage(d, pairs, ps).ok

    def test_shared_interior_fails(self):
        d = complete(6)
        pairs = [(0, 1), (2, 3)]
        ps = PathSystem(((0, 5, 1), (2, 5, 3)))
        rep = verify_linkage(d, pairs, ps)
        assert not rep.ok
        assert rep.clause == "Disjointness"
        assert "5" in rep.detail

    def test_missing_arc_fails(self):
        d = Digraph.from_arcs(3, [(0, 1)])
        ps = PathSystem(((0, 2),))
        rep = verify_linkage(d, [(0, 2)], ps)
        assert rep.clause == "ArcMembership"

    def test_wrong_endpoints(self):
        d = complete(4)
        ps = PathSystem(((0, 2),))
        rep = verify_linkage(d, [(0, 1)], ps)
        assert rep.clause == "Pairing"

    def test_repeated_vertex(self):
        d = complete(4)
        ps = PathSystem(((0, 2, 0, 1),))
        rep = verify_linkage(d, [(0, 1)], ps)
        assert rep.clause == "Simple"
        assert rep.detail == "path 0 repeats vertex 0"

    def test_repeated_interior_vertex_named(self):
        ps = PathSystem(((0, 1), (2, 4, 5, 4, 3)))
        rep = verify_linkage(complete(6), [(0, 1), (2, 3)], ps)
        assert (rep.clause, rep.detail) == ("Simple", "path 1 repeats vertex 4")

    def test_count_mismatch(self):
        d = complete(4)
        ps = PathSystem(((0, 1),))
        rep = verify_linkage(d, [(0, 1), (2, 3)], ps)
        assert rep.clause == "Count"

    def test_pair_of_three_ids_rejected(self):
        # was a ValueError from unpacking
        ps = PathSystem(((0, 1),))
        with pytest.raises(InputError, match=r"^terminal pair \(0, 1, 2\) must hold two ids$"):
            verify_linkage(complete(4), [(0, 1, 2)], ps)


class TestBruteForceDisjointPaths:
    def test_four_cycle_crossing_pairs_infeasible(self):
        # the only (0,2)-path is 0-1-2 and the only (1,3)-path is 1-2-3
        d = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        res = brute_force_disjoint_paths(d, [(0, 2), (1, 3)])
        assert isinstance(res, Infeasible)

    def test_complete_direct(self):
        res = brute_force_disjoint_paths(complete(4), [(0, 1), (2, 3)])
        assert isinstance(res, PathSystem)
        assert verify_linkage(complete(4), [(0, 1), (2, 3)], res).ok

    def test_shared_terminal_rejected(self):
        with pytest.raises(ValueError):
            brute_force_disjoint_paths(complete(4), [(0, 1), (1, 2)])

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 99)], "terminal 99 not in digraph"),
        ([(0, 1), (1, 99)], "terminal pairs share a vertex"),  # the share check comes first
        ([(0, 1, 2)], "terminal pair (0, 1, 2) must hold two ids"),  # was a TypeError
        ([(0, 1), (2, 1.5)], "terminal 1.5 not in digraph"),  # was a TypeError
    ])
    def test_terminal_faults(self, pairs, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            brute_force_disjoint_paths(random_digraph(8, 1, 4), pairs)

    def test_budget_exhaustion(self):
        d = complete(8)
        with pytest.raises(BudgetExceededError) as info:
            brute_force_disjoint_paths(d, [(0, 1), (2, 3), (4, 5)], budget=2)
        assert (info.value.expanded, info.value.budget) == (3, 2)

    def test_result_order_matches_input(self):
        d = complete(6)
        pairs = [(4, 5), (0, 1)]
        res = brute_force_disjoint_paths(d, pairs)
        assert res.paths[0][0] == 4 and res.paths[1][0] == 0


class TestBruteForceKLinked:
    def test_complete_minimum_order(self):
        assert brute_force_k_linked(complete(4), 2) is True

    def test_zero_pairs_always_linked(self):
        # the one empty assignment links, on any digraph, the empty one included
        assert brute_force_k_linked(Digraph.from_arcs(3, [(0, 1)]), 0) is True
        assert brute_force_k_linked(Digraph.from_arcs(0, []), 0) is True

    def test_transitive_not_one_linked(self):
        d = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
        res = brute_force_k_linked(d, 1)
        assert res is not True
        # the witness is a genuine failure
        assert isinstance(brute_force_disjoint_paths(d, res), Infeasible)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            brute_force_k_linked(complete(3), 2)

    def test_matches_unordered_reference_search(self):
        # independent reference: no ordering, no memo, no terminal pruning
        def reference_feasible(d, pairs):
            def rec(idx, used):
                if idx == len(pairs):
                    return True
                x, y = pairs[idx]
                if x in used or y in used:
                    return False
                paths = []
                stack = [(x, frozenset([x]))]
                while stack:
                    v, vis = stack.pop()
                    if v == y:
                        paths.append(vis)
                        continue
                    for w in out_neighbors(d, v):
                        if w not in vis and w not in used:
                            stack.append((w, vis | {w}))
                return any(rec(idx + 1, used | vis) for vis in paths)

            return rec(0, frozenset())

        from klinkage.generators import SplitMix64

        for seed in range(120):
            d = random_digraph(5 + seed % 4, 50_000 + seed, 5)
            rng = SplitMix64(seed)
            terms = rng.sample(list(d.vertices()), 4)
            pairs = [(terms[0], terms[1]), (terms[2], terms[3])]
            got = brute_force_disjoint_paths(d, pairs)
            assert isinstance(got, (PathSystem, Infeasible))
            assert isinstance(got, PathSystem) == reference_feasible(d, pairs)

    def test_linked_implies_strong(self):
        # spot check on a random corpus
        checked = 0
        for trial in range(120):
            d = random_digraph(5 + trial % 4, 40_000 + trial, 7)
            res = brute_force_k_linked(d, 1, budget=400_000)
            if res is True:
                checked += 1
                assert kappa(d) >= 1
        assert checked > 10

    def test_two_linked_implies_two_strong(self):
        checked = 0
        for trial in range(60):
            d = random_digraph(5, 41_000 + trial, 8)
            res = brute_force_k_linked(d, 2, budget=400_000)
            if res is True:
                checked += 1
                assert kappa(d) >= 2
        assert checked > 3


# Smallest budgets that succeed, measured when the oracle reported a spent
# budget as a value; one node pop per unit keeps them.
@pytest.mark.parametrize("search, smallest", [
    (lambda budget: brute_force_k_linked(random_digraph(6, 41_001, 8), 2, budget), 999),
    (lambda budget: brute_force_disjoint_paths(complete(8), [(0, 1), (2, 3), (4, 5)], budget), 8),
], ids=["k-linked-sweep", "pairs"])
def test_smallest_sufficient_budget_is_pinned(search, smallest):
    assert search(smallest) == search(10 ** 6)
    with pytest.raises(BudgetExceededError) as info:
        search(smallest - 1)
    assert (info.value.expanded, info.value.budget) == (smallest, smallest - 1)

import pytest
from hypothesis import given, settings

from klinkage import (
    Infeasible,
    PathSystem,
    build_digraph,
    is_k_strong,
    kappa,
    local_connectivity,
    menger_set_paths,
    min_vertex_menger,
)
from klinkage.acceptance import brute_kappa, brute_local_connectivity, brute_min_total_vertices
from klinkage.connectivity import _pivot_pairs
from klinkage.errors import SameVertexError, SetOverlapError, SizeMismatchError
from klinkage.generators import (
    SplitMix64,
    circulant_tournament,
    random_semicomplete,
    random_tournament,
)

import ref_flow
import ref_menger
from conftest import digraphs, seeded_digraph


def complete(n):
    return build_digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


class TestLocalConnectivity:
    def test_complete_four(self):
        d = complete(4)
        # direct arc + two middles, for every ordered pair
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert local_connectivity(d, x, y) == 3

    def test_cycle(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert local_connectivity(d, 0, 1) == 1

    def test_unreachable(self):
        d = build_digraph(3, [(0, 1), (1, 2)])
        assert local_connectivity(d, 2, 0) == 0

    def test_same_vertex_rejected(self):
        with pytest.raises(SameVertexError):
            local_connectivity(complete(3), 1, 1)

    def test_second_path_backs_through_a_used_vertex(self):
        # the first augmenting path 2-11-1-6-0 blocks both disjoint paths;
        # the second cancels 1->6 and 11->1, stepping back across vertex 1
        d = build_digraph(12, [(1, 6), (2, 3), (2, 11), (3, 5), (4, 8), (5, 6), (6, 0),
                               (8, 0), (11, 1), (11, 4)])
        assert local_connectivity(d, 2, 0) == 2

    def test_limit_caps_early(self):
        d = complete(6)
        assert local_connectivity(d, 0, 1, limit=2) == 2

    @given(digraphs(min_n=2, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_path_family_packing(self, d):
        vs = list(d.vertices())
        x, y = vs[0], vs[-1]
        if x == y:
            return
        assert local_connectivity(d, x, y) == brute_local_connectivity(d, x, y)


class TestKappa:
    def test_transitive_tournament_is_zero(self):
        d = build_digraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert kappa(d) == 0

    def test_complete_five(self):
        assert kappa(complete(5)) == 4

    def test_circulant_seven(self):
        assert kappa(circulant_tournament(7)) == 3

    def test_is_k_strong_consistent(self):
        d = circulant_tournament(7)
        assert is_k_strong(d, 3)
        assert not is_k_strong(d, 4)

    def test_too_few_vertices_for_k(self):
        assert not is_k_strong(complete(3), 3)  # needs k+1 = 4 vertices

    @given(digraphs(min_n=2, max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_cut_enumeration(self, d):
        assert kappa(d) == brute_kappa(d)

    def test_matches_cut_enumeration_n9(self):
        for trial in range(25):
            d = seeded_digraph(9, 14_000 + trial, (3, 5, 7, 9)[trial % 4])
            assert kappa(d) == brute_kappa(d)

    def test_pivot_pairs_match_has_arc_scan(self):
        # the mask-driven pair order is the order of the plain scan, so the
        # audit makes the same kernel calls in the same order
        for trial in range(20):
            d = seeded_digraph(12, 30_000 + trial, 2 + trial % 8).delete([trial % 12])
            for v in d.vertices():
                want = []
                for u in d.vertices():
                    if u != v and not d.has_arc(v, u):
                        want.append((v, u))
                    if u != v and not d.has_arc(u, v):
                        want.append((u, v))
                assert list(_pivot_pairs(d, v)) == want

    def test_relabeling_invariance(self):
        rng = SplitMix64(77)
        for trial in range(25):
            d = seeded_digraph(7, 900 + trial, 5)
            perm = rng.sample(list(range(7)), 7)
            relabeled = build_digraph(7, [(perm[u], perm[v]) for u, v in d.arcs()])
            assert kappa(d) == kappa(relabeled)
            x, y = rng.sample(list(range(7)), 2)
            assert local_connectivity(d, x, y) == local_connectivity(
                relabeled, perm[x], perm[y]
            )


def _dense(i: int):
    """The i-th of 100 tournaments and semicomplete digraphs, n = 20..200, more small than large."""
    n = 20 + 180 * i * i // (99 * 99)
    if i % 2:
        return random_tournament(n, 500 + i)
    return random_semicomplete(n, (i % 10) / 10, 500 + i)


def _pair(d, rng, adjacent: bool):
    """A random ordered pair joined by an arc, or missing one (when d has such a pair)."""
    vs = list(d.vertices())
    for _ in range(50):
        s, t = rng.sample(vs, 2)
        if d.has_arc(s, t) == adjacent:
            return s, t
    return rng.sample(vs, 2)


class TestKernelAgainstReference:
    """The bitset kernel against the edge-list reference flow in ref_flow."""

    def test_random_digraphs_with_deletions(self):
        rng = SplitMix64(2_025)
        checks = 0
        for trial in range(3_000):
            n = 2 + rng.randrange(13)
            d = seeded_digraph(n, 20_000 + trial, 1 + rng.randrange(9))
            drop = [v for v in range(n) if rng.randrange(4) == 0][: n - 2]
            d = d.delete(drop)
            s, t = rng.sample(list(d.vertices()), 2)
            prep = ref_flow.prepare(d)
            for limit in (0, 1, 2, 3):
                want = ref_flow.local_connectivity(prep, s, t, limit)
                assert local_connectivity(d, s, t, limit or None) == want, (trial, s, t, limit)
                checks += 1
        assert checks == 12_000

    def test_tournaments_and_semicomplete_up_to_200(self):
        rng = SplitMix64(2_026)
        for i in range(100):
            d = _dense(i)
            s, t = _pair(d, rng, adjacent=i % 4 < 2)
            want = ref_flow.local_connectivity(ref_flow.prepare(d), s, t, 0)
            assert local_connectivity(d, s, t) == want, (i, s, t)
            limit = 1 + rng.randrange(8)
            assert local_connectivity(d, s, t, limit) == min(want, limit)


def _menger_sets(vs, rng):
    """Disjoint X, Y and avoid sets over ``vs`` plus extra U vertices, |X| = |Y| >= 1."""
    vs = rng.sample(vs, len(vs))
    k = 1 + rng.randrange(len(vs) // 2)
    xs, ys, rest = vs[:k], vs[k:2 * k], vs[2 * k:]
    extra = rng.randrange(len(rest) + 1)
    avoid = rest[extra:extra + 1 + rng.randrange(len(rest) + 1)]
    return xs, ys, rest[:extra], avoid


class TestMengerAgainstReference:
    """The mask-driven Menger flow against the explicit network in ref_menger."""

    @staticmethod
    def _check(d, xs, ys, us, avoid):
        got = menger_set_paths(d, xs, ys, avoid)
        assert got == ref_menger.solve(d, xs, ys, avoid, "menger"), (xs, ys, avoid)
        got_min = min_vertex_menger(d, xs + us, ys, avoid)
        assert got_min == ref_menger.solve(d, xs + us, ys, avoid, "min-vertex-menger"), (
            xs, ys, us, avoid)
        return got, got_min

    def test_random_digraphs_with_deletions(self):
        rng = SplitMix64(2_028)
        seen = {"avoid": 0, "infeasible": 0, "feasible": 0, "two-cycles": 0}
        for trial in range(2_400):
            n = 2 + rng.randrange(15)
            d = seeded_digraph(n, 50_000 + trial, 1 + rng.randrange(9))
            d = d.delete([v for v in range(n) if rng.randrange(5) == 0][: n - 2])
            xs, ys, us, avoid = _menger_sets(list(d.vertices()), rng)
            for got in self._check(d, xs, ys, us, avoid):
                seen["infeasible" if isinstance(got, Infeasible) else "feasible"] += 1
            seen["avoid"] += bool(avoid)
            seen["two-cycles"] += any(d.has_arc(v, u) for u, v in d.arcs())
        assert min(seen.values()) >= 500, seen

    def test_sparse_30_to_60(self):
        # sparse digraphs spread the potentials over many classes and the
        # reduced distances over many buckets
        rng = SplitMix64(2_030)
        deep = 0
        for trial in range(400):
            n = 30 + rng.randrange(31)
            d = seeded_digraph(n, 60_000 + trial, 1 + rng.randrange(3))
            d = d.delete([v for v in range(n) if rng.randrange(8) == 0])
            k = 1 + rng.randrange(6)
            vs = rng.sample(list(d.vertices()), 2 * k + 10)
            xs, ys = vs[:k], vs[k:2 * k]
            extra = rng.randrange(8)
            us, avoid = vs[2 * k:2 * k + extra], vs[2 * k + extra:2 * k + extra + rng.randrange(3)]
            for got in self._check(d, xs, ys, us, avoid):
                if isinstance(got, PathSystem):
                    flow = len(got.paths)
                else:
                    flow = sum(1 for v in got.separator if v not in avoid)
                deep += flow >= 3
        # measured 529 of 800 runs with a flow of at least 3 augmentations
        assert deep >= 400, deep

    def test_semicomplete_100_to_500(self):
        rng = SplitMix64(2_029)
        for i, n in enumerate(range(100, 501, 40)):
            d = random_tournament(n, 700 + i) if i % 2 else random_semicomplete(n, 0.3, 700 + i)
            k = 1 + i % 3
            vs = rng.sample(list(d.vertices()), 5 * k)
            # the semicomplete pipeline's shape: 3k starts, k sinks, the k sources avoided
            xs, us, ys, avoid = vs[:k], vs[k:3 * k], vs[3 * k:4 * k], vs[4 * k:]
            got, got_min = self._check(d, xs, ys, us, avoid)
            assert isinstance(got, PathSystem) and isinstance(got_min, PathSystem)


@pytest.fixture()
def nx():
    return pytest.importorskip("networkx")


def _nx_digraph(nx, d):
    g = nx.DiGraph()
    g.add_nodes_from(d.vertices())
    g.add_edges_from(d.arcs())
    return g


class TestAgainstNetworkx:
    """Differential checks against networkx, skipped when it is not installed."""

    def test_local_connectivity_up_to_200(self, nx):
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        rng = SplitMix64(2_027)
        for n in (30, 60, 90, 120, 160, 200):
            for d in (random_tournament(n, n), random_semicomplete(n, 0.3, n)):
                g = _nx_digraph(nx, d)
                for adjacent in (True, False):
                    s, t = _pair(d, rng, adjacent)
                    assert local_connectivity(d, s, t) == local_node_connectivity(g, s, t), (n, s, t)

    def test_kappa_up_to_30(self, nx):
        # networkx's node_connectivity tests only the pairs around one pivot
        # and can overestimate on digraphs: it gives 9 on the n=20
        # semicomplete digraph below, whose pair (1, 4) networkx itself
        # routes only 7 ways.  So digraphs up to n=20 are checked against
        # the minimum of networkx's local connectivity over all non-adjacent
        # ordered pairs, and node_connectivity is used on tournaments only.
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        for i in range(12):
            n = 8 + 2 * i
            tournament = i % 2 == 1
            d = random_tournament(n, 900 + i) if tournament else random_semicomplete(n, 0.2, 900 + i)
            g = _nx_digraph(nx, d)
            if n <= 20:
                exact = min((local_node_connectivity(g, a, b) for a in g for b in g
                             if a != b and not g.has_edge(a, b)), default=n - 1)
                assert kappa(d) == exact, (n, i)
            if tournament:
                assert kappa(d) == nx.node_connectivity(g), (n, i)
        d = circulant_tournament(29)
        assert kappa(d) == nx.node_connectivity(_nx_digraph(nx, d)) == 14

    def test_set_to_set_counts_up_to_200(self, nx):
        # X onto Y is routable iff a super-source into X and a super-sink out
        # of Y are |X|-connected once ``avoid`` is deleted; otherwise the
        # separator's part outside ``avoid`` is a minimum cut
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        rng = SplitMix64(2_030)
        outcomes = {PathSystem: 0, Infeasible: 0}
        for i, n in enumerate((30, 50, 75, 100, 140, 200)):
            sparse = build_digraph(n, {(u, v) for u in range(n)
                                       for v in rng.sample(list(range(n)), 3) if u != v})
            # two queries on a sparse digraph, one on a semicomplete one
            for d in (sparse, sparse, random_semicomplete(n, 0.2, 800 + i)):
                vs = rng.sample(list(range(n)), n)
                k = 2 + rng.randrange(7)
                xs, ys = vs[:k], vs[k:2 * k]
                avoid = vs[2 * k:2 * k + rng.randrange(n // 2)]
                g = _nx_digraph(nx, d.delete(avoid))
                g.add_edges_from((-1, x) for x in xs)
                g.add_edges_from((y, -2) for y in ys)
                flow = local_node_connectivity(g, -1, -2)
                got = menger_set_paths(d, xs, ys, avoid)
                assert isinstance(got, PathSystem) == (flow >= k), (n, k)
                if isinstance(got, Infeasible):
                    assert len(set(got.separator) - set(avoid)) == flow, (n, k)
                outcomes[type(got)] += 1
        assert outcomes[PathSystem] >= 4 and outcomes[Infeasible] >= 4, outcomes


class TestMengerSetPaths:
    def test_complete_two_pairs(self):
        got = menger_set_paths(complete(5), [0, 1], [2, 3])
        assert isinstance(got, PathSystem)
        assert sorted(got.paths) == [(0, 2), (1, 3)]

    def test_avoid_blocks_and_names_cut(self):
        d = build_digraph(3, [(0, 1), (1, 2)])
        got = menger_set_paths(d, [0], [2], avoid=[1])
        assert isinstance(got, Infeasible)
        assert got.separator == (1,)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            menger_set_paths(complete(4), [0], [1, 2])

    def test_overlap_rejected(self):
        with pytest.raises(SetOverlapError):
            menger_set_paths(complete(4), [0, 1], [1, 2])

    def test_system_size_matches_exhaustive_feasibility(self):
        for trial in range(30):
            d = seeded_digraph(8, 5_000 + trial, 4)
            rng = SplitMix64(6_000 + trial)
            picks = rng.sample(list(range(8)), 4)
            xs, ys = picks[:2], picks[2:]
            got = menger_set_paths(d, xs, ys)
            feasible = brute_min_total_vertices(d, xs, ys) is not None
            # set-to-set with |X|=|Y| and distinct starts: compare against
            # exhaustive system enumeration restricted to X-starts
            exhaustive = _exhaustive_x_onto_y(d, xs, ys)
            assert isinstance(got, PathSystem) == exhaustive
            if not exhaustive:
                assert isinstance(got, Infeasible)
                assert len(got.separator) < len(xs)

    def test_empty_sets(self):
        got = menger_set_paths(complete(3), [], [])
        assert isinstance(got, PathSystem) and len(got) == 0

    def test_succeeds_up_to_connectivity_degree(self):
        # |X| = |Y| = m <= kappa always routes in a strong-enough digraph
        exercised = 0
        for trial in range(30):
            d = seeded_digraph(9, 12_000 + trial, 6)
            k = kappa(d)
            if k < 2:
                continue
            rng = SplitMix64(13_000 + trial)
            picks = rng.sample(list(d.vertices()), 4)
            got = menger_set_paths(d, picks[:2], picks[2:])
            assert isinstance(got, PathSystem)
            exercised += 1
        assert exercised > 5


def _exhaustive_x_onto_y(d, xs, ys) -> bool:
    """Does a fully disjoint X-onto-Y system exist (any permutation)?"""
    from itertools import permutations

    from klinkage import brute_force_disjoint_paths

    for perm in permutations(ys):
        res = brute_force_disjoint_paths(d, list(zip(xs, perm)))
        if isinstance(res, PathSystem):
            return True
    return False


class TestMinVertexMenger:
    def test_direct_arcs_total(self):
        got = min_vertex_menger(complete(6), [0, 1, 2], [3, 4])
        assert got.total_vertices() == 4

    def test_forced_intermediate_total(self):
        d = build_digraph(5, [(0, 2), (1, 4), (4, 3)])
        got = min_vertex_menger(d, [0, 1], [2, 3])
        assert got.total_vertices() == 5

    def test_start_set_only_at_initials(self):
        hits = 0
        for trial in range(50):
            d = seeded_digraph(10, 7_000 + trial, 4)
            rng = SplitMix64(8_000 + trial)
            picks = rng.sample(list(range(10)), 6)
            us, ys = picks[:4], picks[4:]
            got = min_vertex_menger(d, us, ys)
            if isinstance(got, PathSystem):
                hits += 1
                uset = set(us)
                for p in got.paths:
                    assert not uset.intersection(p[1:])
        assert hits > 5  # the property must actually have been exercised

    def test_total_matches_exhaustive_minimum(self):
        for trial in range(40):
            d = seeded_digraph(8, 9_000 + trial, 5)
            rng = SplitMix64(10_000 + trial)
            picks = rng.sample(list(range(8)), 5)
            us, ys = picks[:3], picks[3:]
            got = min_vertex_menger(d, us, ys)
            want = brute_min_total_vertices(d, us, ys)
            if want is None:
                assert isinstance(got, Infeasible)
            else:
                assert got.total_vertices() == want

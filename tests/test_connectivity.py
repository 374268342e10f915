import re

import pytest
from hypothesis import given, settings

from klinkage import (
    Digraph,
    Infeasible,
    PathSystem,
    is_k_strong,
    kappa,
    local_connectivity,
    menger_set_paths,
    min_vertex_menger,
)
from klinkage.acceptance import brute_kappa, brute_local_connectivity, brute_min_total_vertices
from klinkage import connectivity
from klinkage.connectivity import _pivot_pairs
from klinkage.digraph import iter_bits, mask_of
from klinkage.errors import InputError
from klinkage.generators import (
    SplitMix64,
    circulant_tournament,
    random_digraph,
    random_semicomplete,
    random_tournament,
)

import ref_connectivity
import ref_flow
import ref_menger
import ref_split_flow
from conftest import digraphs


def complete(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(n) if i != j])


class TestLocalConnectivity:
    def test_complete_four(self):
        d = complete(4)
        # direct arc + two middles, for every ordered pair
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert local_connectivity(d, x, y) == 3

    def test_cycle(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert local_connectivity(d, 0, 1) == 1

    def test_unreachable(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert local_connectivity(d, 2, 0) == 0

    def test_same_vertex_rejected(self):
        with pytest.raises(InputError, match="two distinct vertices"):
            local_connectivity(complete(3), 1, 1)

    def test_second_path_backs_through_a_used_vertex(self):
        # the first augmenting path 2-11-1-6-0 blocks both disjoint paths;
        # the second cancels 1->6 and 11->1, stepping back across vertex 1
        d = Digraph.from_arcs(12, [(1, 6), (2, 3), (2, 11), (3, 5), (4, 8), (5, 6), (6, 0),
                               (8, 0), (11, 1), (11, 4)])
        assert local_connectivity(d, 2, 0) == 2

    def test_limit_caps_early(self):
        d = complete(6)
        assert local_connectivity(d, 0, 1, limit=2) == 2

    def test_none_and_zero_limit_mean_no_cap(self):
        d = complete(6)
        assert local_connectivity(d, 0, 1, limit=None) == 5
        assert local_connectivity(d, 0, 1, limit=0) == 5

    @pytest.mark.parametrize("limit", [-1, -5])
    def test_negative_limit_rejected(self, limit):
        with pytest.raises(InputError):
            local_connectivity(complete(6), 0, 1, limit=limit)

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
        d = Digraph.from_arcs(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
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
            d = random_digraph(9, 14_000 + trial, (3, 5, 7, 9)[trial % 4])
            assert kappa(d) == brute_kappa(d)

    @staticmethod
    def _kernel_calls(monkeypatch, fn, *args):
        """fn's result and the (a, b, limit) of every kernel call it makes."""
        calls = []
        kernel = connectivity._kernel.local_connectivity

        def record(d, a, b, limit):
            calls.append((a, b, limit))
            return kernel(d, a, b, limit)

        with monkeypatch.context() as m:
            m.setattr(connectivity._kernel, "local_connectivity", record)
            return fn(*args), calls

    def _strong_inputs(self):
        for trial in range(30):
            n = 6 + trial % 9
            if trial % 3 == 0:
                d = random_tournament(n, 40_000 + trial)
            elif trial % 3 == 1:
                d = random_semicomplete(n, 0.4, 40_000 + trial)
            else:
                d = random_digraph(n, 40_000 + trial, n - 1 + trial % 4)
            if trial % 5 == 4:
                d = d.delete([trial % n])
            if d.is_strong():
                yield d

    def test_is_k_strong_makes_the_oracles_kernel_calls(self, monkeypatch):
        # on k-strong inputs the one pivot scan queries the same pairs, in the
        # same order and with the same limit, as the loop it replaced; below
        # k it goes on past the oracle's early return, to min(kappa, k)
        passed = failed = 0
        for d in self._strong_inputs():
            for k in range(0, 6):
                got, calls = self._kernel_calls(monkeypatch, is_k_strong, d, k)
                want, ref_calls = self._kernel_calls(
                    monkeypatch, ref_connectivity.ref_is_k_strong, d, k)
                assert got == want, (d, k)
                if got:
                    assert calls == ref_calls, (d, k)
                    passed += bool(calls)
                else:
                    assert calls[:len(ref_calls)] == ref_calls, (d, k)
                    failed += 1
        assert passed >= 20 and failed >= 20

    def test_kappa_matches_oracle_with_no_more_kernel_calls(self, monkeypatch):
        strong = 0
        for trial in range(80):
            n = 2 + trial % 11
            d = random_digraph(n, 50_000 + trial, 1 + trial % (2 * n))
            if trial % 7 == 6:
                d = d.delete([trial % n])
            if d.order < 2:
                continue
            got, calls = self._kernel_calls(monkeypatch, kappa, d)
            want, ref_calls = self._kernel_calls(monkeypatch, ref_connectivity.ref_kappa, d)
            assert got == want == brute_kappa(d), (trial, d)
            if d.is_strong():
                strong += 1
                assert len(calls) <= len(ref_calls), (trial, d)
            else:
                # the oracle's BFS pair made no kernel call; the scan stops at
                # the first empty cut, which the first pivot's pairs contain
                v0 = next(d.vertices())
                assert got == 0
                assert [(a, b) for a, b, _ in calls] == list(_pivot_pairs(d, v0))[:len(calls)]
        assert 10 <= strong <= 70

    def test_kappa_scans_one_pivot_fewer(self, monkeypatch):
        # kappa(C_7 circulant) = 3: the scan stops after 3 pivots, the oracle after 4
        d = circulant_tournament(7)
        got, calls = self._kernel_calls(monkeypatch, kappa, d)
        want, ref_calls = self._kernel_calls(monkeypatch, ref_connectivity.ref_kappa, d)
        assert got == want == 3
        assert {min(a, b) for a, b, _ in calls} < {min(a, b) for a, b, _ in ref_calls}

    def test_pivot_pairs_match_has_arc_scan(self):
        # the mask-driven pair order is the order of the plain scan, so the
        # audit makes the same kernel calls in the same order
        for trial in range(20):
            d = random_digraph(12, 30_000 + trial, 2 + trial % 8).delete([trial % 12])
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
            d = random_digraph(7, 900 + trial, 5)
            perm = rng.sample(list(range(7)), 7)
            relabeled = Digraph.from_arcs(7, [(perm[u], perm[v]) for u, v in d.arcs()])
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

    def test_augmenting_path_through_a_reversed_split_edge(self):
        # after the first path 0-2-3-4-1, the second one runs 0-7-5 into
        # I(4), back along the arcs 3->4 and 2->3 and, between them, back
        # along 3's used split edge, then 2-6-8-1: the kernel's walk back
        # takes its ``splits |= 1 << w`` branch at w = 3 and frees 3.
        # Random sparse digraphs of 5 to 10 vertices were not seen to.
        d = Digraph.from_arcs(9, [(0, 2), (2, 3), (3, 4), (4, 1), (0, 7), (7, 5), (5, 4),
                                  (2, 6), (6, 8), (8, 1)])
        assert ref_flow.local_connectivity(ref_flow.prepare(d), 0, 1, 0) == 2
        assert local_connectivity(d, 0, 1) == 2

    def test_random_digraphs_with_deletions(self):
        rng = SplitMix64(2_025)
        checks = 0
        for trial in range(3_000):
            n = 2 + rng.randrange(13)
            d = random_digraph(n, 20_000 + trial, 1 + rng.randrange(9))
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

    def test_two_path_seed_regimes(self):
        # the kernel starts from the two-paths s->w->t; count the queries the
        # seed alone caps, the ones whose answer is the seed plus a direct
        # arc, and the ones augmenting paths must extend past the seed
        rng = SplitMix64(2_027)
        regimes = {"capped": 0, "seed": 0, "augmented": 0}
        for trial in range(600):
            n = 2 + rng.randrange(59)
            seed = 30_000 + trial
            if trial % 3 == 0:
                d = random_digraph(n, seed, 1 + rng.randrange(3))
            elif trial % 3 == 1:
                d = random_digraph(n, seed, 1 + rng.randrange(9))
            else:
                d = random_semicomplete(n, rng.randrange(10) / 10, seed)
            d = d.delete([v for v in range(n) if rng.randrange(6) == 0][: n - 2])
            prep = ref_flow.prepare(d)
            for adjacent in (True, False):
                s, t = _pair(d, rng, adjacent)
                want = ref_flow.local_connectivity(prep, s, t, 0)
                mids = sum(d.has_arc(s, w) and d.has_arc(w, t) for w in d.vertices())
                seeded = mids + d.has_arc(s, t)
                assert want >= seeded
                for limit in (None, 1, 2, 3, 5, n):
                    cap = limit or n
                    got = local_connectivity(d, s, t, limit)
                    assert got == min(want, cap), (trial, s, t, limit)
                    if mids >= cap:
                        regimes["capped"] += 1
                    elif got == seeded:
                        regimes["seed"] += 1
                    else:
                        regimes["augmented"] += 1
        assert min(regimes.values()) >= 300, regimes


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
        assert got == ref_menger.solve(d, xs, ys, avoid), (xs, ys, avoid)
        got_min = min_vertex_menger(d, xs + us, ys, avoid)
        assert got_min == ref_menger.solve(d, xs + us, ys, avoid), (xs, ys, us, avoid)
        return got, got_min

    def test_random_digraphs_with_deletions(self):
        rng = SplitMix64(2_028)
        seen = {"avoid": 0, "infeasible": 0, "feasible": 0, "two-cycles": 0}
        for trial in range(2_400):
            n = 2 + rng.randrange(15)
            d = random_digraph(n, 50_000 + trial, 1 + rng.randrange(9))
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
            d = random_digraph(n, 60_000 + trial, 1 + rng.randrange(3))
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


def _expand_pot(pot, size):
    """The potentials as one list: the oracle's list, or the class masks spread out."""
    if isinstance(pot, list):
        return pot
    out = [None] * size
    for p, m in pot.items():
        for v in iter_bits(m):
            assert out[v] is None, f"node {v} in two potential classes"
            out[v] = p
    assert None not in out, "the classes do not cover the nodes"
    return out


def _run_by_search(cls, d, sources, sinks, avoid_mask):
    """Run one split-flow network of ``cls``; return its result and, search by
    search, the reached masks and the potentials left after each augmentation."""
    net = cls(d, sources, sinks, avoid_mask)
    steps = []
    augment = net._augment

    def record(log):
        augment(log)
        steps.append((net.seen_in, net.seen_out, list(_expand_pot(net.pot, 2 * d.n + 2))))

    net._augment = record
    flow = net.run(len(sinks))
    steps.append((net.seen_in, net.seen_out))
    return flow, steps, (net.separator() if flow < len(sinks) else net.paths()), net


class _SearchProbe:
    """Watches ``_SplitFlow`` searches through ``_shortest`` and ``_relax_exit``.

    ``singles`` holds the number of exits each search handled one at a time.
    ``mixed`` counts the searches in which an idle batch settled while an exit
    that carries flow or ends at an open sink was still queued in the bucket.
    An exit is queued exactly once, so a batch shows at the next single pop
    as exits of the bucket that were settled but not popped; only batches
    between two pops of one bucket are counted, with an exit queued at the
    first pop and not settled before the second.
    """

    def __init__(self, monkeypatch):
        self.singles, self.mixed = [], 0
        flow_cls = connectivity._SplitFlow
        shortest, relax_exit = flow_cls._shortest, flow_cls._relax_exit
        probe = self

        def traced_shortest(net):
            probe.singles.append(0)
            probe.popped = probe.batched = probe.before = 0
            probe.cur, probe.mixed_here = None, False
            result = shortest(net)
            probe.mixed += probe.mixed_here
            return result

        def traced_relax_exit(net, x, cur, settled, buckets, pot, log):
            n = net.n
            probe.singles[-1] += 1
            probe.popped |= 1 << x
            queued = buckets[cur] >> n & (1 << n) - 1
            batch = queued & settled >> n & ~probe.popped & ~probe.batched
            probe.batched |= batch
            still = (queued & ~(settled >> n) | 1 << x) & probe.before if probe.cur == cur else 0
            special = net.used | net.sink_mask & ~net.sink_used
            probe.mixed_here |= bool(batch and still & special)
            probe.cur, probe.before = cur, queued & ~(settled >> n)
            return relax_exit(net, x, cur, settled, buckets, pot, log)

        monkeypatch.setattr(flow_cls, "_shortest", traced_shortest)
        monkeypatch.setattr(flow_cls, "_relax_exit", traced_relax_exit)


def _sc_large_shape(seed):
    """random_semicomplete(500, 0.2) with the sc-large pipeline's Menger call:
    |U| = 9, |Y| = 3 and the 6 terminals of the other pairs avoided."""
    d = random_semicomplete(500, 0.2, seed)
    vs = SplitMix64(seed).sample(list(d.vertices()), 18)
    return d, sorted(vs[:9]), sorted(vs[9:12]), mask_of(vs[12:])


class TestSplitFlowAgainstPerNodeSearch:
    """The mask-settling search against the per-node Dial search in
    ref_split_flow, search by search: reached masks, potentials, result."""

    @staticmethod
    def _check(d, sources, sinks, avoid_mask):
        got = _run_by_search(connectivity._SplitFlow, d, sources, sinks, avoid_mask)
        want = _run_by_search(ref_split_flow._SplitFlow, d, sources, sinks, avoid_mask)
        assert got[:3] == want[:3], (sources, sinks, avoid_mask)
        return got

    def test_random_digraphs_with_deletions(self, monkeypatch):
        probe = _SearchProbe(monkeypatch)
        rng = SplitMix64(2_031)
        infeasible = 0
        for trial in range(1_200):
            n = 2 + rng.randrange(15)
            d = random_digraph(n, 80_000 + trial, 1 + rng.randrange(9))
            d = d.delete([v for v in range(n) if rng.randrange(5) == 0][: n - 2])
            xs, ys, us, avoid = _menger_sets(list(d.vertices()), rng)
            for sources in (sorted(xs), sorted(xs + us)):
                flow, *_ = self._check(d, sources, sorted(ys), mask_of(avoid))
                infeasible += flow < len(ys)
        # measured 893 infeasible runs and 824 mixed searches of 4,967
        assert infeasible >= 700 and probe.mixed >= 600, (infeasible, probe.mixed)

    def test_sparse_with_many_potential_classes(self):
        rng = SplitMix64(2_032)
        many = 0
        for trial in range(300):
            n = 30 + rng.randrange(31)
            d = random_digraph(n, 90_000 + trial, 1 + rng.randrange(3))
            d = d.delete([v for v in range(n) if rng.randrange(8) == 0])
            k = 1 + rng.randrange(6)
            vs = rng.sample(list(d.vertices()), 2 * k + 10)
            sources = sorted(vs[:k] + vs[2 * k:2 * k + rng.randrange(8)])
            avoid = vs[2 * k + 8:2 * k + 8 + rng.randrange(3)]
            net = self._check(d, sources, sorted(vs[k:2 * k]), mask_of(avoid))[3]
            many += len(net.pot) >= 3
        # measured: all 300 runs end with 3 to 8 potential classes
        assert many >= 250, many

    def test_sc_large_shape(self, monkeypatch):
        probe = _SearchProbe(monkeypatch)
        for seed in range(31, 35):
            self._check(*_sc_large_shape(seed))
        # measured 8 mixed searches of 12
        assert probe.mixed >= 6, probe.mixed


def test_sc_large_search_settles_most_exits_in_batches(monkeypatch):
    # measured 13, 19 and 16; the per-node search pops all 494 reached exits
    probe = _SearchProbe(monkeypatch)
    d, us, ys, avoid_mask = _sc_large_shape(29)
    assert isinstance(min_vertex_menger(d, us, ys, iter_bits(avoid_mask)), PathSystem)
    assert len(probe.singles) == 3 and max(probe.singles) < 60, probe.singles


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
            sparse = Digraph.from_arcs(n, {(u, v) for u in range(n)
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
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        got = menger_set_paths(d, [0], [2], avoid=[1])
        assert isinstance(got, Infeasible)
        assert got.separator == (1,)

    def test_size_mismatch(self):
        with pytest.raises(InputError, match=r"\|X\|=1 but \|Y\|=2"):
            menger_set_paths(complete(4), [0], [1, 2])

    def test_overlap_rejected(self):
        with pytest.raises(InputError, match="share vertex 1"):
            menger_set_paths(complete(4), [0, 1], [1, 2])

    @pytest.mark.parametrize("xs, ys, message", [
        ([1, 1], [2, 3], "X repeats vertex 1"),  # was Infeasible(separator=(1,))
        ([1, 2], [3, 3], "Y repeats vertex 3"),  # was Infeasible(separator=(3,))
        ([9], [2], "X vertex 9 not in digraph"),
        # each group is checked id by id: the first fault met is the one named
        ([1, 1, 99], [2, 3, 4], "X repeats vertex 1"),
        ([99, 1, 1], [2, 3, 4], "X vertex 99 not in digraph"),
    ])
    def test_repeated_vertex_rejected(self, xs, ys, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            menger_set_paths(random_tournament(8, 1), xs, ys)

    def test_repeated_avoid_vertex_allowed(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
        assert menger_set_paths(d, [0], [2], avoid=[1, 1]) == Infeasible(separator=(1,))

    def test_system_size_matches_exhaustive_feasibility(self):
        for trial in range(30):
            d = random_digraph(8, 5_000 + trial, 4)
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
            d = random_digraph(9, 12_000 + trial, 6)
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

    @pytest.mark.parametrize("us, ys, message", [
        ([0, 1, 0], [3, 4], "U repeats vertex 0"),  # was three paths for two sinks
        ([0, 1, 2], [4, 4], "Y repeats vertex 4"),  # was Infeasible(separator=(4,))
        ([0], [2, 3], "need |U| >= |Y|, got 1 < 2"),
    ])
    def test_repeated_vertex_rejected(self, us, ys, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            min_vertex_menger(random_tournament(8, 1), us, ys)

    def test_repeated_avoid_vertex_allowed(self):
        got = min_vertex_menger(complete(6), [0, 1], [2], avoid=[3, 3])
        assert got == min_vertex_menger(complete(6), [0, 1], [2], avoid=[3])

    def test_forced_intermediate_total(self):
        d = Digraph.from_arcs(5, [(0, 2), (1, 4), (4, 3)])
        got = min_vertex_menger(d, [0, 1], [2, 3])
        assert got.total_vertices() == 5

    def test_start_set_only_at_initials(self):
        hits = 0
        for trial in range(50):
            d = random_digraph(10, 7_000 + trial, 4)
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
            d = random_digraph(8, 9_000 + trial, 5)
            rng = SplitMix64(10_000 + trial)
            picks = rng.sample(list(range(8)), 5)
            us, ys = picks[:3], picks[3:]
            got = min_vertex_menger(d, us, ys)
            want = brute_min_total_vertices(d, us, ys)
            if want is None:
                assert isinstance(got, Infeasible)
            else:
                assert got.total_vertices() == want

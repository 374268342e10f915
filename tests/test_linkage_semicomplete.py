import pytest

from klinkage import (
    LinkageInstance,
    PathSystem,
    brute_force_disjoint_paths,
    build_digraph,
    anchor_connectors,
    min_vertex_menger,
    nearly_in_dominating_set,
    partition_terminals,
    solve_semicomplete,
    verify_linkage,
)
from klinkage import linkage_semicomplete
from klinkage.errors import PreconditionViolatedError
from klinkage.generators import random_semicomplete, random_tournament
from klinkage.paths import Infeasible
from klinkage.verify import LinkageReport


def complete(n):
    return build_digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def _pipeline_context(n=120, seed=3, k=2):
    """A dominating set and a routed system, as the solver would build them."""
    d = random_tournament(n, seed)
    xs, ys = [0, 1], [2, 3]
    us = nearly_in_dominating_set(d, xs, ys, 3 * k)
    q = min_vertex_menger(d, us, ys, avoid=xs)
    assert isinstance(q, PathSystem)
    return d, xs, ys, us, q


class TestAnchor:
    def test_empty_anchor_set(self):
        d, xs, ys, us, q = _pipeline_context()
        got = anchor_connectors(d, xs, ys, [], us, q, [], [])
        assert len(got) == 0

    def test_connectors_have_short_shape(self):
        d, xs, ys, us, q = _pipeline_context()
        starts = sorted(q.initials())
        free = [v for v in d.vertices() if v not in set(xs) | set(ys) | set(us) | q.vertices()]
        anchors = free[:2]
        got = anchor_connectors(d, xs, ys, [], us, q, anchors, starts[:2])
        assert all(2 <= len(p) <= 4 for p in got.paths)
        assert [p[0] for p in got.paths] == anchors
        assert [p[-1] for p in got.paths] == starts[:2]
        # connectors stay clear of the routed system except at their targets
        q_protected = q.vertices() - set(starts[:2])
        for p in got.paths:
            assert not q_protected.intersection(p)

    def test_dominating_hops_give_three_vertex_connectors(self):
        # in a complete digraph every chosen hop dominates its target
        d = complete(60)
        xs, ys = [0, 1], [2, 3]
        us = nearly_in_dominating_set(d, xs, ys, 6)
        q = min_vertex_menger(d, us, ys, avoid=xs)
        starts = sorted(q.initials())
        free = [v for v in d.vertices() if v not in set(xs) | set(ys) | set(us) | q.vertices()]
        got = anchor_connectors(d, xs, ys, [], us, q, free[:2], starts[:2])
        assert all(len(p) == 3 for p in got.paths)
        for a, hop, s in got.paths:
            assert d.has_arc(a, hop) and d.has_arc(hop, s)

    def test_degree_precondition_enforced(self):
        d, xs, ys, us, q = _pipeline_context()
        starts = sorted(q.initials())
        free = [v for v in d.vertices() if v not in set(xs) | set(ys) | set(us) | q.vertices()]
        # an enormous protected set drives the degree requirement past n
        big_w = free[10:90]
        with pytest.raises(PreconditionViolatedError) as err:
            anchor_connectors(d, xs, ys, big_w, us, q, [free[0]], [starts[0]])
        assert "out-neighbours" in str(err.value)

    def test_target_outside_routed_starts_rejected(self):
        d, xs, ys, us, q = _pipeline_context()
        free = [v for v in d.vertices() if v not in set(xs) | set(ys) | set(us) | q.vertices()]
        with pytest.raises(PreconditionViolatedError):
            anchor_connectors(d, xs, ys, [], us, q, [free[0]], [free[1]])


class TestPartitionTerminals:
    def test_complete_all_matched(self):
        k = 2
        d = complete(6 * k + 4)
        xs, ys = [0, 1], [2, 3]
        us = list(range(4, 4 + 3 * k))
        matched, matching, leftover = partition_terminals(d, xs, ys, us, k)
        assert matched == xs and leftover == []
        assert len(set(matching.values())) == len(xs)

    def test_no_dominators_all_leftover(self):
        # sources see the dominating set only through too few arcs
        k = 2
        arcs = []
        n = 12
        us = [4, 5, 6, 7, 8, 9]
        for x in (0, 1):
            arcs.append((x, 10))  # out-neighbourhood misses the dominator pool
        for u in us:
            arcs.append((u, 0))
        d = build_digraph(n, arcs)
        matched, matching, leftover = partition_terminals(d, [0, 1], [2, 3], us, k)
        assert matched == [] and leftover == [0, 1]

    def test_matching_vertices_distinct_and_outside(self):
        k = 2
        d = random_tournament(200, 17)
        xs, ys = [0, 1], [2, 3]
        us = nearly_in_dominating_set(d, xs, ys, 3 * k)
        matched, matching, _ = partition_terminals(d, xs, ys, us, k)
        helpers = list(matching.values())
        assert len(set(helpers)) == len(helpers)
        assert not set(helpers) & (set(xs) | set(ys) | set(us))


class TestSolveSemicomplete:
    def test_complete_direct_arcs(self):
        d = complete(10)
        rep = solve_semicomplete(LinkageInstance(d, ((0, 1), (2, 3))), skip_audit=True)
        assert rep.linked
        assert rep.system.paths == ((0, 1), (2, 3))

    def test_complete_full_audit(self):
        d = complete(45)  # min out-degree exactly 22k for k=2
        rep = solve_semicomplete(LinkageInstance(d, ((0, 1), (2, 3))))
        assert rep.linked
        assert rep.audit["kappa_at_least"] is True

    def test_transitive_reports_connectivity(self):
        d = build_digraph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        rep = solve_semicomplete(LinkageInstance(d, ((0, 1), (2, 3))))
        assert rep.outcome == "hypothesis_violated"
        assert rep.failure == "kappa < 6"

    def test_not_semicomplete_reported_first(self):
        d = build_digraph(8, [(0, 1), (1, 2)])
        rep = solve_semicomplete(LinkageInstance(d, ((0, 1), (2, 3))))
        assert rep.failure == "not semicomplete"

    def test_audit_block_recorded_when_skipped(self):
        d = complete(10)
        rep = solve_semicomplete(LinkageInstance(d, ((0, 1), (2, 3))), skip_audit=True)
        assert rep.audit["kappa_at_least"] is None
        assert "kappa" in rep.audit["skipped"]

    @pytest.mark.parametrize("d, pairs", [
        (complete(10), ((0, 1), (2, 3))),
        (random_tournament(200, 11), ((0, 100), (50, 150))),
    ], ids=["direct-arcs", "pipeline"])
    def test_rejected_system_is_not_linked(self, monkeypatch, d, pairs):
        # both exits certify by calling verify_linkage, also under python -O
        monkeypatch.setattr(linkage_semicomplete, "verify_linkage",
                            lambda d, pairs, ps: LinkageReport(False, "Count", "rejected"))
        rep = solve_semicomplete(LinkageInstance(d, pairs), skip_audit=True)
        assert not rep.linked
        assert rep.stage == "verify" and rep.witness == "Count: rejected"

    def test_random_tournament_end_to_end(self):
        d = random_tournament(200, 11)
        assert d.min_out_degree() >= 44
        pairs = ((0, 100), (50, 150))
        rep = solve_semicomplete(LinkageInstance(d, pairs), skip_audit=True)
        assert rep.linked
        assert verify_linkage(d, pairs, rep.system).ok

    def test_pipeline_paths_not_direct(self):
        # force the staged pipeline: pick pairs without direct arcs
        d = random_tournament(200, 23)
        pairs = []
        for x in d.vertices():
            for y in d.vertices():
                if x != y and not d.has_arc(x, y):
                    if all(t not in (x, y) for p in pairs for t in p):
                        pairs.append((x, y))
                if len(pairs) == 2:
                    break
            if len(pairs) == 2:
                break
        rep = solve_semicomplete(LinkageInstance(d, tuple(pairs)), skip_audit=True)
        assert rep.linked
        assert verify_linkage(d, pairs, rep.system).ok
        assert any(len(p) > 2 for p in rep.system.paths)

    def test_semicomplete_with_two_cycles(self):
        d = random_semicomplete(160, 0.35, 29)
        pairs = ((4, 80), (40, 120))
        rep = solve_semicomplete(LinkageInstance(d, pairs), skip_audit=True)
        assert rep.linked
        assert verify_linkage(d, pairs, rep.system).ok

    def test_single_pair(self):
        d = random_tournament(120, 31)
        pairs = ((0, 60),) if not d.has_arc(0, 60) else ((60, 0),)
        rep = solve_semicomplete(LinkageInstance(d, pairs), skip_audit=True)
        assert rep.linked
        assert verify_linkage(d, pairs, rep.system).ok

    def test_three_pairs_at_scale(self):
        for seed in range(3):
            t = random_tournament(200, 70_000 + seed)
            from klinkage import SplitMix64

            rng = SplitMix64(71_000 + seed)
            terms = rng.sample(list(t.vertices()), 6)
            pairs = tuple((terms[2 * i], terms[2 * i + 1]) for i in range(3))
            rep = solve_semicomplete(LinkageInstance(t, pairs), skip_audit=True)
            assert rep.linked
            assert verify_linkage(t, pairs, rep.system).ok

    def test_too_small_for_dominating_set(self):
        d = build_digraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        rep = solve_semicomplete(LinkageInstance(d, ((4, 0), (3, 1))), skip_audit=True)
        # k=2 needs a 6-vertex dominating set outside the four terminals
        assert rep.outcome == "stage_failed"
        assert rep.stage == "dominating-set"

    def test_degraded_runs_never_crash(self):
        # below every hypothesis the solver must still answer cleanly
        from klinkage import SplitMix64

        linked = 0
        for seed in range(80):
            n = 8 + seed % 23
            d = random_semicomplete(n, (seed % 5) * 0.22, 81_000 + seed)
            rng = SplitMix64(80_000 + seed)
            k = 1 + seed % 2
            terms = rng.sample(list(d.vertices()), 2 * k)
            pairs = tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k))
            rep = solve_semicomplete(LinkageInstance(d, pairs), skip_audit=True)
            assert rep.outcome in ("linked", "stage_failed")
            if rep.linked:
                assert verify_linkage(d, pairs, rep.system).ok
                linked += 1
        assert linked > 20

    def test_oracle_agreement_small(self):
        # wherever the pipeline links a small instance, exhaustive search must too
        agree = 0
        for seed in range(60):
            d = random_tournament(10, 3_000 + seed)
            pairs = ((0, 5), (3, 8))
            rep = solve_semicomplete(LinkageInstance(d, pairs), skip_audit=True)
            if rep.linked:
                assert verify_linkage(d, pairs, rep.system).ok
                assert not isinstance(brute_force_disjoint_paths(d, pairs), Infeasible)
                agree += 1
        assert agree > 0

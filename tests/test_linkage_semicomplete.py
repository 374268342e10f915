import re

import pytest

from klinkage import (
    Digraph,
    LinkageInstance,
    PathSystem,
    brute_force_disjoint_paths,
    anchor_connectors,
    min_vertex_menger,
    nearly_in_dominating_set,
    partition_terminals,
    solve_semicomplete,
    verify_linkage,
)
from klinkage import linkage_semicomplete, reports
from klinkage.errors import (BudgetExceededError, ConstructionFailedError, InputError,
                             PreconditionViolatedError)
from klinkage.generators import random_semicomplete, random_tournament
from klinkage.paths import Infeasible
from klinkage.verify import LinkageReport


def complete(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def _pipeline_context(n=120, seed=3, k=2):
    """A dominating set and a routed system, as the solver would build them."""
    d = random_tournament(n, seed)
    xs, ys = [0, 1], [2, 3]
    us = nearly_in_dominating_set(d, xs, ys, 3 * k)
    q = min_vertex_menger(d, us, ys, avoid=xs)
    assert isinstance(q, PathSystem)
    return d, xs, ys, us, q


class _ConnectorCase:
    """``anchor_connectors``' arguments on ``_pipeline_context()``: the free
    vertices (off X, Y, U and q) anchored onto the q-starts, plus the least
    in-degree free vertex and a vertex of U off Ini(q)."""

    def __init__(self):
        self.d, self.xs, self.ys, self.us, self.q = _pipeline_context()
        self.starts = sorted(self.q.initials())
        self.free = [v for v in self.d.vertices()
                     if v not in {*self.xs, *self.ys, *self.us, *self.q.vertices()}]
        self.low = min(self.free, key=self.d.in_degree)
        self.spare_u = next(u for u in self.us if u not in self.q.initials())
        self.args = {"xs": self.xs, "ys": self.ys, "ws": [], "us": self.us, "q": self.q,
                     "anchors": self.free[:2], "targets": self.starts}


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
        exc = err.value
        need, have = exc.counts["need"], exc.counts["have"]
        assert have < need and exc.vertices == (free[0],)
        assert str(exc) == (f"anchor needs {need} dominator-backed out-neighbours, has {have} "
                            f"(witness: {free[0]})")

    @pytest.mark.parametrize("slot, bad", [
        ("anchors", 120), ("anchors", -2), ("targets", 120), ("ws", -2), ("xs", -1),
    ])
    def test_ids_not_in_the_digraph(self, slot, bad):
        # anchors and targets raised IndexError or ValueError (negative
        # shift count), as did a negative id in W or X
        d, xs, ys, us, q = _pipeline_context()
        starts = sorted(q.initials())
        args = {"xs": xs, "ys": ys, "ws": [], "us": us, "q": q,
                "anchors": [starts[0]], "targets": [starts[1]]}
        args[slot] = args[slot][:-1] + [bad]  # the last id of that argument goes bad
        with pytest.raises(InputError, match=f"^vertex {bad} not in digraph$"):
            anchor_connectors(d, **args)

    @pytest.mark.parametrize("changes, error, message", [
        # the set clauses: X, Y, W, U and A are sets, X, Y and W are
        # disjoint, |Y| = |X| = k, |U| = 3k; a repeated X, Y or U id passed
        # the count clauses, and a repeated anchor got two connectors
        (lambda c: {"xs": [c.xs[0], c.xs[0]]}, InputError,
         lambda c: f"X repeats vertex {c.xs[0]}"),
        (lambda c: {"ys": [c.ys[1], c.ys[1]]}, InputError,
         lambda c: f"Y repeats vertex {c.ys[1]}"),
        (lambda c: {"ws": [c.free[4], c.free[5], c.free[4]]}, InputError,
         lambda c: f"W repeats vertex {c.free[4]}"),
        (lambda c: {"us": [*c.us[:-1], c.us[0]]}, InputError,
         lambda c: f"U repeats vertex {c.us[0]}"),
        (lambda c: {"anchors": [c.free[0], c.free[0]]}, InputError,
         lambda c: f"A repeats vertex {c.free[0]}"),
        (lambda c: {"ws": [c.xs[0]]}, PreconditionViolatedError,
         lambda c: "X, Y, W must be pairwise disjoint"),
        (lambda c: {"ys": c.ys[:1]}, PreconditionViolatedError,
         lambda c: "|X| and |Y| must agree"),
        (lambda c: {"us": c.us[:-1]}, PreconditionViolatedError,
         lambda c: "U must have 3k=6 vertices, has 5"),
        # U nearly in-dominating: the least in-degree vertex outside is not
        (lambda c: {"us": [c.low, *c.us[1:]]}, PreconditionViolatedError,
         lambda c: "U is not a nearly in-dominating set outside X, Y"),
        # the q-system: k paths onto Y, starting in U, meeting U only there
        (lambda c: {"q": PathSystem(c.q.paths[:1])}, PreconditionViolatedError,
         lambda c: "q-system must hold k disjoint paths onto Y"),
        (lambda c: {"q": PathSystem((c.q.paths[0], c.q.paths[1][:-1] + (c.free[4],)))},
         PreconditionViolatedError, lambda c: "q-system must hold k disjoint paths onto Y"),
        (lambda c: {"q": PathSystem(((c.free[4], *c.q.paths[0]), c.q.paths[1]))},
         PreconditionViolatedError, lambda c: "q-system must start inside U"),
        (lambda c: {"q": PathSystem(((c.spare_u, *c.q.paths[0]), c.q.paths[1]))},
         PreconditionViolatedError,
         lambda c: "q-system touches U off its initial vertices (not minimum)"),
        # the anchors: at most k, one target each, off W and Ini(q)
        (lambda c: {"anchors": c.free[:3], "targets": [*c.starts, c.free[3]]},
         PreconditionViolatedError, lambda c: "at most k=2 anchors allowed"),
        (lambda c: {"targets": c.starts[:1]}, PreconditionViolatedError,
         lambda c: "one target per anchor required"),
        (lambda c: {"anchors": [c.starts[0], c.free[1]]}, PreconditionViolatedError,
         lambda c: "anchors must avoid W and Ini(q)"),
        (lambda c: {"ws": [c.free[1]]}, PreconditionViolatedError,
         lambda c: "anchors must avoid W and Ini(q)"),
        # the targets: distinct, in Ini(q), off W
        (lambda c: {"targets": [c.starts[0], c.starts[0]]}, PreconditionViolatedError,
         lambda c: f"targets must be distinct (witness: {[c.starts[0]] * 2})"),
        (lambda c: {"targets": [c.starts[0], c.free[3]]}, PreconditionViolatedError,
         lambda c: f"targets must lie in Ini(q) minus W (witness: {[c.starts[0], c.free[3]]})"),
        (lambda c: {"ws": [c.starts[1]]}, PreconditionViolatedError,
         lambda c: f"targets must lie in Ini(q) minus W (witness: {c.starts})"),
    ], ids=["x-repeat", "y-repeat", "w-repeat", "u-repeat", "a-repeat", "disjoint", "y-size", "u-size", "nearly-in-dominating", "q-count",
            "q-onto-y", "q-start", "q-touches-u", "anchor-count", "target-count",
            "anchor-in-ini", "anchor-in-w", "targets-repeat", "target-off-ini", "target-in-w"])
    def test_clauses(self, changes, error, message):
        # every clause on the caller's arguments lives in anchor_connectors only
        c = _ConnectorCase()
        args = {**c.args, **changes(c)}
        with pytest.raises(error, match=f"^{re.escape(message(c))}$"):
            anchor_connectors(c.d, **args)

    def test_nearly_in_dominating_checked_before_the_q_system(self):
        c = _ConnectorCase()
        us = [c.low if u == c.starts[0] else u for u in c.us]
        # the q-system now starts outside U too, a clause checked later
        assert not c.q.initials() <= set(us)
        with pytest.raises(PreconditionViolatedError,
                           match="^U is not a nearly in-dominating set outside X, Y$"):
            anchor_connectors(c.d, **{**c.args, "us": us})

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
        matching = partition_terminals(d, xs, ys, us, k)
        assert list(matching) == xs
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
        d = Digraph.from_arcs(n, arcs)
        assert partition_terminals(d, [0, 1], [2, 3], us, k) == {}

    @pytest.mark.parametrize("xs, us, bad", [([0], [2, 3, 99], 99), ([-1], [2, 3, 4], -1)])
    def test_ids_not_in_the_digraph(self, xs, us, bad):
        # were IndexError and ValueError (negative shift count)
        with pytest.raises(InputError, match=f"^vertex {bad} not in digraph$"):
            partition_terminals(random_tournament(30, 1), xs, [1], us, 1)

    def test_matching_vertices_distinct_and_outside(self):
        k = 2
        d = random_tournament(200, 17)
        xs, ys = [0, 1], [2, 3]
        us = nearly_in_dominating_set(d, xs, ys, 3 * k)
        helpers = list(partition_terminals(d, xs, ys, us, k).values())
        assert len(set(helpers)) == len(helpers)
        assert not set(helpers) & (set(xs) | set(ys) | set(us))


class TestLinkageInstance:
    @pytest.mark.parametrize("pairs, message, vertices", [
        ((), "at least one terminal pair required", ()),
        # terminals are checked one at a time in pair order
        (((0, 99), (0, 1)), "terminal 99 not in digraph", (99,)),
        (((0, 1), (0, 99)), "terminal 0 used twice", (0,)),
        # a pair of other than two ids was a ValueError from unpacking
        (((0, 1, 2),), "terminal pair (0, 1, 2) must hold two ids", (0, 1, 2)),
        (((0, 1), (2,)), "terminal pair (2,) must hold two ids", (2,)),
    ])
    def test_terminal_faults(self, pairs, message, vertices):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$") as info:
            LinkageInstance(random_tournament(30, 1), pairs)
        assert info.value.vertices == vertices


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
        d = Digraph.from_arcs(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        rep = solve_semicomplete(LinkageInstance(d, ((0, 1), (2, 3))))
        assert rep.outcome == "hypothesis_violated"
        assert rep.failure == "kappa < 6"

    def test_not_semicomplete_reported_first(self):
        d = Digraph.from_arcs(8, [(0, 1), (1, 2)])
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
        # both exits certify through SolveReport.certified, also under python -O
        monkeypatch.setattr(reports, "verify_linkage",
                            lambda d, pairs, ps: LinkageReport(False, "Count", "rejected"))
        rep = solve_semicomplete(LinkageInstance(d, pairs), skip_audit=True)
        assert not rep.linked
        assert rep.stage == "verify"
        assert rep.witness == {"clause": "Count: rejected", "vertices": [], "counts": {}}

    @pytest.mark.parametrize("error", [
        PreconditionViolatedError("need 6, have 1", clause="too few", vertices=(4, 2),
                                  counts={"need": 6, "have": 1}),
        ConstructionFailedError("no pick for 7", clause="no pick", vertices=(7,)),
        BudgetExceededError(12, 10),
    ], ids=lambda error: type(error).__name__)
    def test_stage_error_is_the_stage_report(self, monkeypatch, error):
        def fail(*args):
            raise error

        monkeypatch.setattr(linkage_semicomplete, "nearly_in_dominating_set", fail)
        rep = solve_semicomplete(LinkageInstance(random_tournament(200, 11), ((0, 100), (50, 150))),
                                 skip_audit=True)
        assert (rep.outcome, rep.stage, rep.witness) == (
            "stage_failed", "dominating-set", error.witness())

    @pytest.mark.parametrize("error", [InputError("vertex 9 not in digraph"), AssertionError("bug")],
                             ids=lambda error: type(error).__name__)
    def test_other_error_in_a_stage_propagates(self, monkeypatch, error):
        def fail(*args):
            raise error

        monkeypatch.setattr(linkage_semicomplete, "nearly_in_dominating_set", fail)
        with pytest.raises(type(error)) as info:
            solve_semicomplete(LinkageInstance(random_tournament(200, 11), ((0, 100), (50, 150))),
                               skip_audit=True)
        assert info.value is error

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
        d = Digraph.from_arcs(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
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

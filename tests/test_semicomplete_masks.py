"""The semicomplete audit, the helper count and the connectors against the
code they replaced (``tests/ref_semicomplete.py``): ``is_semicomplete`` and
``Digraph.min_out_degree`` decide in one pass over the alive rows, the
spanning tournament and the dominator selection decide semicompleteness
from the tournament in-masks they build (``solve_semicomplete`` builds them
once, for its audit and its dominating set), ``partition_terminals`` counts
the out-neighbours in U of every outside vertex at once with a bit-sliced
counter, and the connector clauses are checked once, in
``anchor_connectors``, while the pipeline hands ``_connect`` its masks."""

from __future__ import annotations

from collections import Counter

import pytest
import ref_dominators
import ref_semicomplete
from test_audited_solves import semicomplete_instances
from test_golden_reports import CASES
from test_pool_reports import _reports

from klinkage import (Digraph, PathSystem, anchor_connectors, is_semicomplete, is_tournament,
                      linkage_semicomplete, min_vertex_menger, nearly_in_dominating_set,
                      nearly_in_dominating_vertex, partition_terminals, solve_semicomplete,
                      spanning_tournament)
from klinkage.digraph import _spanning_in_masks, iter_bits, mask_of
from klinkage.dominators import _dominating_picks
from klinkage.errors import KLinkageError, PreconditionViolatedError
from klinkage.generators import (SplitMix64, circulant_tournament, random_digraph,
                                 random_semicomplete, random_tournament)


def _result(fn, *args):
    """fn's value, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the two versions must fail alike
        return exc


def _key(result):
    """A value as it is; an exception as its class, message and witness."""
    if isinstance(result, KLinkageError):
        return (type(result), str(result), result.witness())
    if isinstance(result, Exception):
        return (type(result), str(result))
    return result


def _random_case(rng: SplitMix64, trial: int):
    """A random digraph or semicomplete digraph on 0-40 ids, some deleted."""
    n = rng.randrange(41)
    if trial % 2:
        d = random_digraph(n, 20_000 + trial, 6 + rng.randrange(5))
    else:
        d = random_semicomplete(n, rng.randrange(5) / 10, 20_000 + trial)
    if n and rng.randrange(3):
        d = d.delete([v for v in range(n) if rng.randrange(5) == 0])
    return d


def _rejects(fn, *args) -> bool:
    """fn raises PreconditionViolatedError; any other exception escapes."""
    try:
        fn(*args)
    except PreconditionViolatedError:
        return True
    return False


def _check_tournament_masks(d) -> bool:
    """The in-mask decisions and ``is_tournament`` against the reference;
    returns whether d is a tournament."""
    semicomplete = ref_semicomplete.is_semicomplete(d)
    assert _rejects(spanning_tournament, d) == (not semicomplete)
    if d.order:  # the empty digraph has no vertex to select
        assert _rejects(nearly_in_dominating_vertex, d) == (not semicomplete)
    two_cycle = any(d.out_mask(v) & d.in_mask(v) for v in d.vertices())
    tournament = semicomplete and not two_cycle
    assert is_tournament(d) == tournament
    return tournament


def _without_pair(d, u, v):
    """d with both arcs between u and v removed."""
    return Digraph.from_arcs(d.n, [a for a in d.arcs() if {*a} != {u, v}])


class TestAuditAgainstReference:
    def test_random_digraphs_0_to_40(self):
        rng = SplitMix64(71_001)
        verdicts = {True: 0, False: 0}
        tournaments = empty = 0
        for trial in range(1_200):
            d = _random_case(rng, trial)
            got = is_semicomplete(d)
            assert got == ref_semicomplete.is_semicomplete(d), trial
            verdicts[got] += 1
            if d.order:
                assert d.min_out_degree() == ref_semicomplete.min_out_degree(d), trial
            else:  # the reference fails here with min()'s own ValueError
                with pytest.raises(PreconditionViolatedError, match="^empty digraph$"):
                    d.min_out_degree()
                empty += 1
            tournaments += _check_tournament_masks(d)
        # measured 803 True, 397 False, 186 tournaments
        assert verdicts[True] >= 600 and verdicts[False] >= 300, verdicts
        assert tournaments >= 120, tournaments
        assert empty >= 1, empty

    def test_one_missing_pair(self):
        rng = SplitMix64(71_002)
        for trial in range(200):
            n = 2 + rng.randrange(39)
            d = random_semicomplete(n, rng.randrange(5) / 10, 21_000 + trial)
            # every third case drops a pair at the highest id
            u = n - 1 if trial % 3 == 0 else rng.randrange(n)
            v = (u + 1 + rng.randrange(n - 1)) % n
            broken = _without_pair(d, u, v)
            assert not is_semicomplete(broken) and not ref_semicomplete.is_semicomplete(broken)
            _check_tournament_masks(broken)
            # the in-masks fall short by exactly the missing pair's bit
            assert _rejects(nearly_in_dominating_set, broken, [], [], 0)
            assert not _rejects(nearly_in_dominating_set, broken, [u], [v], 0)
            for drop in (u, v):
                healed = broken.delete([drop])
                assert is_semicomplete(healed) and ref_semicomplete.is_semicomplete(healed)
                assert healed.min_out_degree() == ref_semicomplete.min_out_degree(healed)
                _check_tournament_masks(healed)
            assert broken.min_out_degree() == ref_semicomplete.min_out_degree(broken)


class TestPartitionAgainstReference:
    def test_u_sizes_0_to_15_and_k_1_to_5(self):
        rng = SplitMix64(71_003)
        wrapped = 0  # cases with a count a 2k-sized counter would wrap below 2k
        for trial in range(600):
            n = 30 + rng.randrange(31)
            d = random_semicomplete(n, rng.randrange(6) / 10, 22_000 + trial)
            if trial % 4 == 0:
                d = d.delete(rng.sample(list(range(n)), 1 + rng.randrange(4)))
            k = 1 + rng.randrange(5)
            vs = rng.sample(list(d.vertices()), 2 * k + rng.randrange(16))
            xs, ys, us = vs[:k], vs[k:2 * k], vs[2 * k:]
            _, matching, _ = ref_semicomplete.partition_terminals(d, xs, ys, us, k)
            got = partition_terminals(d, xs, ys, us, k)
            assert list(got.items()) == list(matching.items()), trial
            width = 1 << (2 * k).bit_length()
            counts = [(d.out_mask(v) & sum(1 << u for u in us)).bit_count()
                      for v in d.vertices() if v not in vs]
            wrapped += any(c >= 2 * k and c % width < 2 * k for c in counts)
        assert wrapped >= 150, wrapped  # measured 190 of 600


def _shared_pass_case(rng: SplitMix64, trial: int):
    """A tournament, a semicomplete digraph at ``p_double`` 0, 0.2 or 0.9, a
    transitive or circulant tournament, or a semicomplete digraph with one
    pair made non-adjacent, on 1-24 ids, some deleted."""
    n = 1 + rng.randrange(24)
    seed = 23_000 + trial
    kind = trial % 6
    if kind == 0:
        d = random_tournament(n, seed)
    elif kind <= 3:
        d = random_semicomplete(n, (0.0, 0.2, 0.9)[kind - 1], seed)
    elif kind == 4:
        d = (Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
             if trial % 12 == 4 else circulant_tournament(max(3, n | 1)))
    else:
        d = random_semicomplete(n + 1, rng.randrange(10) / 10, seed)
        u, v = rng.sample(list(range(n + 1)), 2)
        d = _without_pair(d, u, v)
    if rng.randrange(3) == 0:
        d = d.delete([v for v in range(d.n) if rng.randrange(5) == 0][:d.order - 1])
    return d


def _tied_picks(d, removed, picks) -> int:
    """How many of ``picks`` tie on in-degree with another vertex of the
    spanning tournament they were picked from: d minus ``removed`` and the
    earlier picks."""
    ties = 0
    for i, u in enumerate(picks):
        t = spanning_tournament(d.delete({*removed, *picks[:i]}))
        best = t.in_degree(u)
        ties += sum(t.in_degree(v) == best for v in t.vertices()) > 1
    return ties


class TestSharedSpanningPass:
    """``solve_semicomplete`` builds the spanning in-masks of all of d once:
    they decide the audit's semicompleteness, and ``_dominating_picks``
    takes U from them with the terminals already taken.  Both must agree
    with the references on d minus the terminals."""

    def test_masks_decide_semicompleteness(self):
        rng = SplitMix64(71_005)
        verdicts = Counter()
        for trial in range(600):
            d = _shared_pass_case(rng, trial)
            removed = [v for v in d.vertices() if rng.randrange(4) == 0] if rng.randrange(2) else []
            sub = d.delete(removed)
            rows = _spanning_in_masks(d, sub.alive_mask)
            semicomplete = ref_semicomplete.is_semicomplete(sub)
            assert (rows is None) == (not semicomplete), trial
            verdicts[semicomplete, bool(removed)] += 1
            if rows is not None:
                ids, tins, degrees = rows
                assert ids == list(sub.vertices())
                assert degrees == [tin.bit_count() for tin in tins]
                assert tins == [spanning_tournament(sub).in_mask(v) for v in ids]
        # measured 281 and 253 semicomplete, 49 and 17 not (without and with removed vertices)
        assert verdicts[True, False] >= 200 and verdicts[True, True] >= 200, verdicts
        assert verdicts[False, False] >= 35 and verdicts[False, True] >= 10, verdicts

    def test_picks_with_terminals_taken(self):
        rng = SplitMix64(71_006)
        ties = picks = too_few = 0
        for trial in range(600):
            d = _shared_pass_case(rng, trial)
            rows = _spanning_in_masks(d, d.alive_mask)
            if rows is None:
                continue
            terminals = rng.sample(list(d.vertices()), rng.randrange(min(d.order, 6) + 1))
            xs, ys = terminals[::2], terminals[1::2]
            t_mask = mask_of(terminals)
            room = d.order - len(terminals)
            want = ref_dominators.nearly_in_dominating_set(d, xs, ys, room)
            for m in range(room + 1):
                # the reference picks one vertex per step, so its first m
                # picks are its picks for m
                assert _dominating_picks(rows, t_mask, m) == want[:m], trial
            ties += _tied_picks(d, terminals, want)
            picks += room
            for m in (room + 1, room + 1 + rng.randrange(4)):
                got = _result(_dominating_picks, rows, t_mask, m)
                assert isinstance(got, PreconditionViolatedError), trial
                assert got.clause == "too few vertices outside the terminals"
                assert _key(got) == _key(_result(nearly_in_dominating_set, d, xs, ys, m)), trial
                too_few += 1
        # measured 4,532 picks, 1,854 of them among tied best degrees, 1,032 too few
        assert picks >= 3_500 and ties >= 1_200 and too_few >= 800, (picks, ties, too_few)

    def test_sc_large_shape(self):
        # n = 500, 2-cycles at rate 0.2, k = 3: the sc-large workload's digraphs
        rng = SplitMix64(71_007)
        for seed in range(2):
            d = random_semicomplete(500, 0.2, 24_000 + seed)
            rows = _spanning_in_masks(d, d.alive_mask)
            assert rows is not None
            terminals = rng.sample(list(d.vertices()), 6)
            xs, ys = terminals[:3], terminals[3:]
            got = _dominating_picks(rows, mask_of(terminals), 9)
            assert got == ref_dominators.nearly_in_dominating_set(d, xs, ys, 9)


@pytest.fixture
def connector_stages(monkeypatch):
    """Runs each pipeline ``_connect`` call and ``ref_connect`` on the same
    input and requires the same outcome; counts (stage, outcome) pairs.

    ``partition_terminals`` records the solve's X, Y and U just before its
    two connector stages, for the reference's lists."""
    tally: Counter = Counter()
    solve: dict = {}
    partition, connect = linkage_semicomplete.partition_terminals, linkage_semicomplete._connect

    def recording_partition(d, xs, ys, us, k):
        solve.update(d=d, xs=list(xs), ys=list(ys), us=list(us), stage=0)
        return partition(d, xs, ys, us, k)

    def both(d, xy_mask, w_mask, u_mask, q, anchors, targets):
        xs, ys, us = solve["xs"], solve["ys"], solve["us"]
        assert d is solve["d"] and xy_mask == mask_of(xs + ys) and u_mask == mask_of(us)
        got = _result(connect, d, xy_mask, w_mask, u_mask, q, anchors, targets)
        want = _result(ref_semicomplete.ref_connect, d, xs, ys, list(iter_bits(w_mask)), us, q,
                       anchors, targets)
        assert _key(got) == _key(want)
        stage = ("anchor-direct", "anchor-landed")[solve["stage"]]
        solve["stage"] += 1
        tally[stage, "raised" if isinstance(got, Exception) else "built"] += 1
        if isinstance(got, Exception):
            raise got
        return got

    monkeypatch.setattr(linkage_semicomplete, "partition_terminals", recording_partition)
    monkeypatch.setattr(linkage_semicomplete, "_connect", both)
    return tally


class TestConnectAgainstReference:
    def test_golden_pool_and_audited_solves(self, connector_stages):
        for case in CASES.values():
            case()
        for name in ("sc-audited", "sc-large", "composition"):
            _reports(name)
        for instance in semicomplete_instances():
            solve_semicomplete(instance)
        tally = connector_stages
        # both stages build, and both fail on the golden anchor-direct and
        # anchor-landed cases
        assert {stage for stage, outcome in tally} == {"anchor-direct", "anchor-landed"}
        assert tally["anchor-direct", "raised"] >= 1 and tally["anchor-landed", "raised"] >= 1
        # measured 86 and 84 built, 1 and 2 raised
        assert tally["anchor-direct", "built"] >= 80 and tally["anchor-landed", "built"] >= 80

    def test_perturbed_anchor_connectors(self):
        rng = SplitMix64(71_004)
        outcomes: Counter = Counter()
        for n, seed, k in ((120, 3, 2), (90, 5, 1), (150, 7, 3)):
            d = random_tournament(n, seed)
            xs, ys = list(range(k)), list(range(k, 2 * k))
            us = nearly_in_dominating_set(d, xs, ys, 3 * k)
            q = min_vertex_menger(d, us, ys, avoid=xs)
            assert isinstance(q, PathSystem)
            starts = sorted(q.initials())
            free = [v for v in d.vertices() if v not in {*xs, *ys, *us, *q.vertices()}]
            for _ in range(150):
                w_size = rng.randrange(3) if rng.randrange(6) else 20
                args = {"xs": xs, "ys": ys, "ws": free[k:k + w_size], "us": us,
                        "q": q, "anchors": free[:k], "targets": starts[:k]}
                for _ in range(1 + rng.randrange(2)):
                    _perturb(args, rng, n, q, us)
                if any(len(set(args[slot])) < len(args[slot])
                       for slot in ("xs", "ys", "ws", "us", "anchors")):
                    continue  # a repeated X, Y, W, U or anchor id is an InputError only here
                got = _result(anchor_connectors, d, *args.values())
                want = _result(ref_semicomplete.ref_anchor_connectors, d, *args.values())
                assert _key(got) == _key(want), args
                outcomes[got.clause if isinstance(got, KLinkageError) else "built"] += 1
        # every fixed-worded clause is met, and many inputs pass all of them
        assert outcomes["built"] >= 40, outcomes
        assert {
            "X, Y, W must be pairwise disjoint", "|X| and |Y| must agree",
            "U is not a nearly in-dominating set outside X, Y",
            "q-system must hold k disjoint paths onto Y", "q-system must start inside U",
            "q-system touches U off its initial vertices (not minimum)",
            "one target per anchor required", "anchors must avoid W and Ini(q)",
            "targets must be distinct", "targets must lie in Ini(q) minus W",
            "anchor needs dominator-backed out-neighbours",
        } <= set(outcomes), outcomes


def _pick(rng, seq):
    return seq[rng.randrange(len(seq))]


def _perturb(args, rng, n, q, us):
    """One random change to a list argument, or a q-system off its rules."""
    slot = _pick(rng, ["xs", "ys", "ws", "us", "anchors", "anchors", "targets", "targets", "q"])
    if slot == "q":
        paths = list(q.paths)
        i = rng.randrange(len(paths))
        choice = rng.randrange(3)
        if choice == 0:  # one path fewer
            del paths[i]
        elif choice == 1:  # a new start, off U or inside it
            paths[i] = (_pick(rng, [rng.randrange(n), *us]),) + paths[i]
        else:  # a path that ends off Y
            paths[i] = paths[i][:-1]
        args["q"] = PathSystem(tuple(paths))
        return
    vs = list(args[slot])
    choice = rng.randrange(6)
    v = rng.randrange(n) if rng.randrange(8) else _pick(rng, [-1, n])
    if rng.randrange(2):  # an id another argument already holds
        v = _pick(rng, [*args["xs"], *args["ys"], *us, *sorted(q.initials())])
    if choice == 0 and vs:
        del vs[rng.randrange(len(vs))]
    elif choice == 1 or not vs:
        vs.append(v)
    else:
        vs[rng.randrange(len(vs))] = v
    args[slot] = vs

"""The semicomplete audit and the helper count against the per-vertex loops
they replaced (``tests/ref_semicomplete.py``): ``is_semicomplete`` and
``Digraph.min_out_degree`` decide in one pass over the alive rows, the
spanning tournament and the dominator selection decide semicompleteness
from the tournament in-masks they build, and ``partition_terminals``
counts the out-neighbours in U of every outside vertex at once with a
bit-sliced counter."""

from __future__ import annotations

import ref_semicomplete

from klinkage import (Digraph, is_semicomplete, is_tournament, nearly_in_dominating_set,
                      nearly_in_dominating_vertex, partition_terminals, spanning_tournament)
from klinkage.errors import PreconditionViolatedError
from klinkage.generators import SplitMix64, random_digraph, random_semicomplete


def _outcome(fn, *args):
    """The value, or the exception's class and message."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the two versions must fail alike
        return ("error", type(exc), str(exc))


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
        tournaments = 0
        for trial in range(1_200):
            d = _random_case(rng, trial)
            got = is_semicomplete(d)
            assert got == ref_semicomplete.is_semicomplete(d), trial
            verdicts[got] += 1
            assert _outcome(d.min_out_degree) == _outcome(ref_semicomplete.min_out_degree, d), trial
            tournaments += _check_tournament_masks(d)
        # measured 803 True, 397 False, 186 tournaments
        assert verdicts[True] >= 600 and verdicts[False] >= 300, verdicts
        assert tournaments >= 120, tournaments

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
            got = partition_terminals(d, xs, ys, us, k)
            assert got == ref_semicomplete.partition_terminals(d, xs, ys, us, k), trial
            width = 1 << (2 * k).bit_length()
            counts = [(d.out_mask(v) & sum(1 << u for u in us)).bit_count()
                      for v in d.vertices() if v not in vs]
            wrapped += any(c >= 2 * k and c % width < 2 * k for c in counts)
        assert wrapped >= 150, wrapped  # measured 190 of 600

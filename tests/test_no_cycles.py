"""A solve leaves no reference cycle behind.

Everything a solve builds (auxiliary digraphs, pools, reports it discards)
must be freed by reference counting when the solve returns, not kept alive
until the cyclic garbage collector happens to run.  Each case builds its
inputs first, then solves them with the collector disabled and requires
that a full collection afterwards finds nothing to free.
"""

from __future__ import annotations

import gc

import pytest

from klinkage import LinkageInstance, solve_composition, solve_lqt, solve_semicomplete
from klinkage.generators import (
    SplitMix64,
    random_composition,
    random_extended_tournament,
    random_semicomplete,
    random_tournament,
)

from test_golden_reports import _lqt_small_instance


def _pairs(d, k, seed):
    terms = SplitMix64(seed).sample(list(d.vertices()), 2 * k)
    return tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k))


def _semicomplete_solves():
    solves = []
    for i in range(4):
        d = random_tournament(40, 97_000 + i) if i % 2 else random_semicomplete(40, 0.3, 97_000 + i)
        instance = LinkageInstance(d, _pairs(d, 1 + i % 2, 98_000 + i))
        solves.append(lambda instance=instance, audit=i == 0: solve_semicomplete(
            instance, skip_audit=not audit))
    return solves


def _composition_solves():
    solves = []
    for i in (0, 1, 5):  # hypothesis violated, linked, failed filled subsolve
        spec = random_composition(6, [2] * 6, 0.5, 95_000 + i, part_arcs=True)
        pairs = _pairs(spec.digraph, 2, 96_000 + i)
        solves.append(lambda spec=spec, pairs=pairs, audit=i == 0: solve_composition(
            spec, pairs, skip_audit=not audit))
    return solves


def _lqt_solves():
    solves = []
    seed = 0
    while len(solves) < 4:
        spec = random_extended_tournament(20, [3] * 20, seed)
        seed += 1
        d = spec.digraph
        if not d.is_strong():
            continue
        parts = spec.part_vertex_ids()
        pairs = ((parts[0][0], parts[10][0]),)
        if len(solves) % 2:
            pairs += ((parts[5][0], parts[15][0]),)
        solves.append(lambda d=d, pairs=pairs: solve_lqt(d, pairs, 2, threshold=5, skip_audit=True))
    for i in (19, 12):  # the golden grid's source-replacement and anchor-link failures
        d, pairs, kwargs = _lqt_small_instance(i)
        solves.append(lambda d=d, pairs=pairs, kwargs=kwargs: solve_lqt(d, pairs, 2, **kwargs))
    return solves


@pytest.mark.parametrize("make", [_semicomplete_solves, _composition_solves, _lqt_solves],
                         ids=["semicomplete", "composition", "lqt"])
def test_solves_leave_no_garbage(make):
    solves = make()
    gc.collect()
    gc.disable()
    try:
        outcomes = [solve().outcome for solve in solves]
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert "linked" in outcomes, outcomes
    assert unreachable == 0, (outcomes, unreachable)

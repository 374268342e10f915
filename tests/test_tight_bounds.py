"""Menger routing where the theorem's connectivity bound is tight.

The family has three blocks and every arc A -> B, B -> S and S -> A, with
|S| = 3k: A a random tournament on 40k + (seed mod 7) vertices, B a regular
circulant tournament on 38k + 1 + 2 (seed mod 4) vertices and S a random
tournament on 3k vertices, under a seeded shuffle of the ids.  S is a cut,
so kappa is exactly 3k, the least the semicomplete pipeline admits, and
every path from B to A passes through S.  When seed = 0 (mod 4), every B
vertex has out-degree 19k + 3k = 22k, the least the pipeline admits, so
both hypotheses are tight: audited solves there must link, and one arc
reversed or one S vertex deleted must fail the audit on that bound.
"""

from __future__ import annotations

import pytest

from klinkage import (Digraph, Infeasible, LinkageInstance, PathSystem, connectivity, kappa,
                      min_vertex_menger, solve_semicomplete)
from klinkage.digraph import mask_of
from klinkage.generators import SplitMix64, circulant_tournament, random_tournament

import ref_menger
import ref_split_flow
from test_connectivity import _run_by_search


def tight_cut(k: int, seed: int):
    """The family's digraph and its blocks A, B and S as id lists."""
    blocks = [random_tournament(40 * k + seed % 7, seed),
              circulant_tournament(38 * k + 1 + 2 * (seed % 4)),
              random_tournament(3 * k, seed + 1)]
    n = sum(b.n for b in blocks)
    ids = SplitMix64(seed).sample(range(n), n)
    parts, at = [], 0
    for b in blocks:
        parts.append(ids[at:at + b.n])
        at += b.n
    arcs = [(part[u], part[v]) for b, part in zip(blocks, parts) for u, v in b.arcs()]
    for i, tails in enumerate(parts):  # A -> B, B -> S, S -> A
        heads = parts[(i + 1) % 3]
        arcs += [(u, v) for u in tails for v in heads]
    return Digraph.from_arcs(n, arcs), parts


def _check(d, us, ys, avoid):
    """min_vertex_menger against ref_menger and, search by search, ref_split_flow."""
    got = min_vertex_menger(d, us, ys, avoid)
    assert got == ref_menger.solve(d, us, ys, avoid), (us, ys, avoid)
    args = (d, sorted(us), sorted(ys), mask_of(avoid))
    want = _run_by_search(ref_split_flow._SplitFlow, *args)
    assert _run_by_search(connectivity._SplitFlow, *args)[:3] == want[:3], (us, ys, avoid)
    return got


@pytest.mark.parametrize("k, seed", [(1, 5), (2, 6)])
def test_the_cut_is_tight(k, seed):
    d, (_a, _b, s) = tight_cut(k, seed)
    assert kappa(d) == 3 * k
    assert kappa(d.delete(s[:1])) == 3 * k - 1


def test_routing_through_the_cut():
    # every U-to-Y path has a vertex of S, so a minimum system of |Y| <= 3k
    # paths is |Y| paths u -> s -> y: the arcs B -> S and S -> A are complete
    rng = SplitMix64(3_801)
    for seed in range(8):
        k = 1 + seed % 2
        d, (a, b, s) = tight_cut(k, seed)
        for _ in range(4):
            want = 1 + rng.randrange(3 * k)
            us = rng.sample(b, want + rng.randrange(4))
            ys = rng.sample(a, want)
            free = [v for v in a + b if v not in us and v not in ys]
            avoid = rng.sample(free, rng.randrange(4))
            got = _check(d, us, ys, avoid)
            assert isinstance(got, PathSystem), (k, seed, us, ys, avoid)
            assert sorted(p[-1] for p in got.paths) == sorted(ys)
            assert all(len(p) == 3 and p[0] in us and p[1] in s for p in got.paths), got.paths


def test_avoiding_a_cut_vertex_leaves_3k_minus_1():
    rng = SplitMix64(3_802)
    for seed in range(8, 16):
        k = 1 + seed % 2
        d, (a, b, s) = tight_cut(k, seed)
        us = rng.sample(b, 3 * k + rng.randrange(4))
        ys = rng.sample(a, 3 * k)
        free = [v for v in a + b if v not in us and v not in ys]
        avoid = [s[rng.randrange(len(s))]] + rng.sample(free, rng.randrange(3))
        got = _check(d, us, ys, avoid)
        assert isinstance(got, Infeasible), (k, seed, us, ys, avoid)
        assert set(got.separator) <= set(s) | set(avoid), (got.separator, s, avoid)
        assert sum(v not in avoid for v in got.separator) == 3 * k - 1, got.separator


def _audited_solve(d, rng, k):
    """An audited solve of k random pairs of distinct alive vertices."""
    vs = rng.sample(list(d.vertices()), 2 * k)
    return solve_semicomplete(LinkageInstance(d, tuple(zip(vs[:k], vs[k:]))))


@pytest.mark.parametrize("k", [1, 2])
def test_solves_at_both_bounds(k):
    rng = SplitMix64(3_803)
    for seed in (4, 8, 5):
        d, (_a, b, s) = tight_cut(k, seed)
        degree = 22 * k + seed % 4  # B's: 19k + seed % 4 inside B, 3k into S
        assert d.min_out_degree() == degree
        for _ in range(6):
            rep = _audited_solve(d, rng, k)
            assert rep.linked, (k, seed, rep.outcome, rep.failure, rep.stage, rep.witness)
            assert rep.audit["kappa_at_least"] and rep.audit["min_out_degree"] == degree
        if degree == 22 * k:
            # one B-internal out-arc of a vertex at 22k reversed: 22k - 1
            u = next(v for v in b if d.out_degree(v) == 22 * k)
            w = next(v for v in b if d.has_arc(u, v))
            flipped = Digraph.from_arcs(d.n, [(w, u) if a == (u, w) else a for a in d.arcs()])
            rep = _audited_solve(flipped, rng, k)
            assert rep.failure == f"min out-degree < {22 * k}", (k, seed, rep.failure)
            assert rep.audit["min_out_degree"] == 22 * k - 1
        rep = _audited_solve(d.delete(s[:1]), rng, k)
        assert rep.failure == f"kappa < {3 * k}", (k, seed, rep.failure)

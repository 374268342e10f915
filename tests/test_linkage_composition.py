from collections import Counter

import pytest

from klinkage import (
    CompositionSpec,
    Digraph,
    fill_parts,
    is_semicomplete,
    kappa,
    minimalize_path,
    solve_composition,
    strip_intra_part_arcs,
    verify_linkage,
)
from conftest import assert_in_masks_transpose, out_neighbors
import ref_composition
from ref_composition import ref_minimalize_path, ref_solve_composition
from klinkage.acceptance import brute_kappa
from klinkage.digraph import composition_from_digraph
from klinkage.errors import InputError
from klinkage.jsonio import dumps_canonical, report_to_obj
from klinkage.generators import (
    SplitMix64,
    random_composition,
    random_digraph,
    random_semicomplete,
    random_tournament,
)


def complete(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(n) if i != j])


class TestStrip:
    def test_single_vertex_parts_identity(self):
        d = complete(4)
        d0 = strip_intra_part_arcs(d, [[0], [1], [2], [3]])
        assert d0 == d
        assert_in_masks_transpose(d0)

    def test_two_cycle_of_two_cycles(self):
        two = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        spec = CompositionSpec.from_local_parts(two, [two, two])
        d = spec.digraph
        d0 = strip_intra_part_arcs(d, spec.part_vertex_ids())
        assert_in_masks_transpose(d0)
        # bidirected complete bipartite digraph between {0,1} and {2,3}
        want = {(u, v) for u in (0, 1) for v in (2, 3)}
        want |= {(v, u) for u, v in want}
        assert set(d0.arcs()) == want

    def test_rejects_non_partition(self):
        with pytest.raises(InputError, match="overlap"):
            strip_intra_part_arcs(complete(4), [[0, 1], [1, 2, 3]])

    def test_keeps_connectivity_with_non_strong_parts(self):
        done = 0
        i = 0
        while done < 40:
            rng = SplitMix64(70_000 + i)
            h = 3 + i % 4
            sizes = [1 + rng.randrange(3) for _ in range(h)]
            spec = random_composition(h, sizes, 0.4, 71_000 + i, part_arcs=True)
            i += 1
            d = spec.digraph
            if any(m.bit_count() >= 2 and d._restrict(m).is_strong() for m in spec.part_masks):
                continue
            done += 1
            d0 = strip_intra_part_arcs(d, spec.part_vertex_ids())
            assert_in_masks_transpose(d0)
            assert kappa(d) == kappa(d0)

    def test_strong_part_breaks_equality(self):
        # a strongly connected part survives alone only before stripping
        outer = complete(3)
        cycle = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        spec = CompositionSpec.from_local_parts(
            outer, [Digraph.from_arcs(1, []), Digraph.from_arcs(1, []), cycle]
        )
        d = spec.digraph
        d0 = strip_intra_part_arcs(d, spec.part_vertex_ids())
        assert_in_masks_transpose(d0)
        assert kappa(d) == brute_kappa(d) == 3
        assert kappa(d0) == brute_kappa(d0) == 2


class TestFillParts:
    def test_part_without_targets_becomes_complete(self):
        two = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        spec = CompositionSpec.from_local_parts(two, [Digraph.from_arcs(3, []), Digraph.from_arcs(1, [])])
        d0 = spec.digraph
        dp = fill_parts(d0, spec.part_vertex_ids(), ys=[])
        assert_in_masks_transpose(dp)
        assert all(dp.has_arc(u, v) for u in (0, 1, 2) for v in (0, 1, 2) if u != v)

    def test_target_dominates_part(self):
        two = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        spec = CompositionSpec.from_local_parts(two, [Digraph.from_arcs(2, []), Digraph.from_arcs(1, [])])
        d0 = spec.digraph
        dp = fill_parts(d0, spec.part_vertex_ids(), ys=[0])
        assert_in_masks_transpose(dp)
        assert dp.has_arc(0, 1) and not dp.has_arc(1, 0)

    def test_result_semicomplete_when_outer_is(self):
        for seed in range(25):
            spec = random_composition(4, [2, 3, 1, 2], 0.5, 80_000 + seed, part_arcs=True)
            d = spec.digraph
            parts = spec.part_vertex_ids()
            d0 = strip_intra_part_arcs(d, parts)
            dp = fill_parts(d0, parts, ys=[0, 3])
            assert_in_masks_transpose(d0)
            assert_in_masks_transpose(dp)
            assert is_semicomplete(dp)

    def test_rejects_unstripped_input(self):
        two = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        spec = CompositionSpec.from_local_parts(two, [Digraph.from_arcs(2, [(0, 1)]), Digraph.from_arcs(1, [])])
        with pytest.raises(InputError, match="intra-part arcs"):
            fill_parts(spec.digraph, spec.part_vertex_ids(), ys=[])


class TestMinimalize:
    def test_single_arc_fixed(self):
        d = complete(4)
        assert minimalize_path(d, [0, 1]) == [0, 1]

    def test_shortcut_taken(self):
        d = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        assert minimalize_path(d, [0, 1, 2]) == [0, 2]

    @pytest.mark.parametrize("path, bad", [([0, 99], 99), ([0, -1, 2], -1)])
    def test_ids_not_in_the_digraph(self, path, bad):
        # were AssertionError ("path vertices no longer connect their
        # endpoints") and ValueError (negative shift count)
        with pytest.raises(InputError, match=f"^vertex {bad} not in digraph$") as info:
            minimalize_path(random_tournament(30, 1), path)
        assert info.value.vertices == (bad,)

    def test_empty_path_rejected(self):
        # was IndexError on path[0]
        with pytest.raises(InputError, match="^path must hold at least one vertex$"):
            minimalize_path(random_tournament(30, 1), [])

    def test_never_longer_and_endpoints_kept(self):
        for seed in range(40):
            d = random_digraph(10, 90_000 + seed, 4)
            rng = SplitMix64(91_000 + seed)
            x, y = rng.sample(list(range(10)), 2)
            p = d.shortest_path(x, y)
            if p is None:
                continue
            # lengthen the path artificially when possible, then re-minimalize
            got = minimalize_path(d, p)
            assert got[0] == x and got[-1] == y
            assert len(got) <= len(p)

    def test_fixed_point_is_minimal_by_enumeration(self):
        checked = 0
        for seed in range(60):
            d = random_digraph(9, 92_000 + seed, 3)
            rng = SplitMix64(93_000 + seed)
            x, y = rng.sample(list(range(9)), 2)
            p = _some_long_path(d, x, y)
            if p is None:
                continue
            got = minimalize_path(d, p)
            assert set(got) <= set(p)
            assert _is_minimal(d, got)
            checked += 1
        assert checked > 10

    def test_one_call_is_the_fixed_point(self):
        # the lexicographically smallest shortest path inside V(path) is
        # already minimal, so repeating the call never changes it
        shrunk = 0
        for seed in range(200):
            n = 6 + seed % 7
            d = random_digraph(n, 97_000 + seed, 2 + seed % 4)
            rng = SplitMix64(98_000 + seed)
            x, y = rng.sample(list(range(n)), 2)
            p = _some_long_path(d, x, y)
            if p is None:
                continue
            got = minimalize_path(d, p)
            assert got == ref_minimalize_path(d, p), (seed, p)
            shrunk += got != p
        assert shrunk >= 50


def _some_long_path(d, x, y):
    """Any simple x->y path, preferring a long one (DFS order)."""
    best = None
    stack = [(x, (x,))]
    steps = 0
    while stack and steps < 4_000:
        steps += 1
        v, path = stack.pop()
        if v == y:
            if best is None or len(path) > len(best):
                best = path
            continue
        for w in out_neighbors(d, v):
            if w not in path:
                stack.append((w, path + (w,)))
    return list(best) if best else None


def _is_minimal(d, path):
    """No same-endpoint path on a proper subset of the vertex set."""
    from itertools import combinations

    inner = [v for v in path if v not in (path[0], path[-1])]
    for r in range(len(inner)):
        for keep in combinations(inner, r):
            allowed = set(keep) | {path[0], path[-1]}
            sub = d.induced(allowed)
            if sub.shortest_path(path[0], path[-1]) is not None:
                return r == len(inner)
    return True


class TestSolveComposition:
    def test_single_vertex_parts_match_semicomplete(self):
        from klinkage import LinkageInstance, solve_semicomplete

        d = random_semicomplete(50, 0.6, 7)
        parts = [Digraph.from_arcs(1, []) for _ in range(50)]
        spec = CompositionSpec.from_local_parts(d, parts)
        assert spec.digraph == d
        pairs = ((0, 25), (10, 40))
        comp = solve_composition(spec, pairs, skip_audit=True)
        semi = solve_semicomplete(LinkageInstance(d, pairs), skip_audit=True)
        assert comp.linked and semi.linked
        assert verify_linkage(d, pairs, comp.system).ok

    def test_direct_arcs_peeled(self):
        spec = random_composition(6, [2, 2, 2, 2, 2, 2], 0.8, 3, part_arcs=True)
        d = spec.digraph
        pairs = []
        for u, v in d.arcs():
            if all(t not in (u, v) for p in pairs for t in p):
                pairs.append((u, v))
            if len(pairs) == 2:
                break
        rep = solve_composition(spec, tuple(pairs), skip_audit=True)
        assert rep.linked
        assert rep.system.paths == tuple(tuple(p) for p in pairs)

    def test_two_part_routing(self):
        two = Digraph.from_arcs(2, [(0, 1), (1, 0)])
        spec = CompositionSpec.from_local_parts(two, [Digraph.from_arcs(4, []), Digraph.from_arcs(4, [])])
        d = spec.digraph
        pairs = ((0, 1), (2, 3))  # same-part pairs, no direct arcs
        rep = solve_composition(spec, pairs, skip_audit=True)
        assert rep.linked
        assert verify_linkage(d, pairs, rep.system).ok
        assert all(len(p) == 3 for p in rep.system.paths)

    def test_audited_random_composition(self):
        found = None
        seed = 52_000
        from klinkage import is_k_strong

        while found is None:
            spec = random_composition(20, [3] * 20, 0.9, seed, part_arcs=True)
            seed += 1
            d = spec.digraph
            if d.min_out_degree() >= 46 and is_k_strong(d, 6):
                found = (spec, d)
        spec, d = found
        parts = spec.part_vertex_ids()
        pairs = []
        used = set()
        for part in parts:
            for x in part:
                for y in part:
                    if x != y and not d.has_arc(x, y) and not {x, y} & used:
                        pairs.append((x, y))
                        used |= {x, y}
                        break
                if len(pairs) == 2:
                    break
            if len(pairs) == 2:
                break
        rep = solve_composition(spec, tuple(pairs))
        assert rep.linked
        assert verify_linkage(d, tuple(pairs), rep.system).ok
        # synthetic filling never leaks: consecutive path vertices change parts
        part_of = {}
        for j, ids in enumerate(parts):
            for v in ids:
                part_of[v] = j
        for p in rep.system.paths:
            assert all(part_of[a] != part_of[b] for a, b in zip(p, p[1:]) if len(p) > 2)

    def test_degraded_runs_never_crash(self):
        linked = 0
        for seed in range(60):
            h = 3 + seed % 8
            rng = SplitMix64(82_000 + seed)
            sizes = [1 + rng.randrange(3) for _ in range(h)]
            spec = random_composition(h, sizes, (seed % 4) * 0.3, 83_000 + seed,
                                      part_arcs=bool(seed % 2))
            d = spec.digraph
            k = 1 + seed % 2
            if d.order < 2 * k + 1:
                continue
            terms = rng.sample(list(d.vertices()), 2 * k)
            pairs = tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k))
            rep = solve_composition(spec, pairs, skip_audit=True)
            assert rep.outcome in ("linked", "stage_failed")
            if rep.linked:
                assert verify_linkage(d, pairs, rep.system).ok
                linked += 1
        assert linked > 20

    def test_hypothesis_violation_reported(self):
        spec = random_composition(3, [2, 2, 2], 0.2, 5)
        rep = solve_composition(spec, ((0, 2), (1, 4)))
        assert rep.outcome == "hypothesis_violated"


class TestRecoveredSpec:
    """A generator spec is the spec ``composition_from_digraph`` recovers
    from its digraph and part lists, and the two solve to the same canonical
    report bytes."""

    @staticmethod
    def _both(spec, pairs, skip_audit):
        recovered = composition_from_digraph(spec.digraph, spec.part_vertex_ids())
        assert recovered == spec
        built = solve_composition(spec, pairs, skip_audit=skip_audit)
        kept = solve_composition(recovered, pairs, skip_audit=skip_audit)
        assert dumps_canonical(report_to_obj(kept)) == dumps_canonical(report_to_obj(built))
        return kept.outcome

    def test_pool_shape_specs(self):
        """The 24 pool-shape specs of ``tests/test_composition_masks.py``,
        audited and not, with two random pairs and with two non-adjacent
        pairs inside parts (the ``composition`` pool's choice)."""
        outcomes = []
        for seed in range(7_000, 7_024):
            spec = random_composition(20, [3] * 20, 0.9, seed, part_arcs=True)
            d = spec.digraph
            terms = SplitMix64(seed).sample(list(d.vertices()), 4)
            inside = [(x, y) for part in spec.part_vertex_ids() for x in part for y in part
                      if x != y and not d.has_arc(x, y)]
            chosen = [inside[0]] + [p for p in inside if not set(p) & set(inside[0])][:1]
            for pairs in (((terms[0], terms[1]), (terms[2], terms[3])), tuple(chosen)):
                for skip_audit in (False, True):
                    outcomes.append(self._both(spec, pairs, skip_audit))
        assert outcomes.count("linked") >= 80, outcomes

    def test_golden_composition_cases(self, monkeypatch):
        import test_golden_reports as golden

        calls = []

        def record(spec, pairs, skip_audit=False):
            calls.append((spec, pairs, skip_audit))
            return solve_composition(spec, pairs, skip_audit=skip_audit)

        with monkeypatch.context() as patch:
            patch.setattr(golden, "solve_composition", record)
            names = [name for name in golden.CASES if name.startswith("composition")]
            for name in names:
                golden.CASES[name]()
        assert len(calls) == len(names) >= 14
        outcomes = {self._both(*call) for call in calls}
        assert outcomes == {"linked", "stage_failed", "hypothesis_violated"}


def _canonical_or_error(solve, spec, pairs, skip_audit):
    try:
        return dumps_canonical(report_to_obj(solve(spec, pairs, skip_audit=skip_audit)))
    except Exception as exc:  # both solves must fail alike
        return type(exc), str(exc)


def _inside_pairs(spec, d, avoid=()):
    """Non-adjacent ordered pairs inside one part, off ``avoid``."""
    return [(x, y) for part in spec.part_vertex_ids() for x in part for y in part
            if x != y and not d.has_arc(x, y) and not {x, y} & set(avoid)]


def _disjoint(rng, options, k, used=()):
    """Up to k pairs from ``options``, in random order, sharing no vertex."""
    used, pairs = set(used), []
    for pair in rng.sample(options, len(options)):
        if len(pairs) < k and not set(pair) & used:
            pairs.append(pair)
            used |= set(pair)
    return pairs


def _differential_cases(rng, trials):
    """(spec, pairs, skip_audit) in four shapes, one per trial in turn:
    small random compositions with random terminals (some audited, some
    repeating a terminal); two parts under an outer 2-cycle with pairs
    inside the parts; two parts whose 2-vertex part two cross pairs empty;
    20 parts of 3 with a cross pair joined by an arc and two pairs inside
    parts."""
    for trial in range(trials):
        shape, seed = trial % 4, 100_000 + trial
        if shape == 0:
            h = 2 + rng.randrange(7)
            spec = random_composition(h, [1 + rng.randrange(4) for _ in range(h)],
                                      rng.randrange(4) / 3, seed, part_arcs=rng.randrange(2) == 1)
            k = 1 + rng.randrange(4)
            if spec.digraph.order < 2 * k:
                continue
            terms = rng.sample(list(spec.digraph.vertices()), 2 * k)
            if rng.randrange(20) == 0:
                terms[-1] = terms[0]
            pairs = [(terms[2 * i], terms[2 * i + 1]) for i in range(k)]
            yield spec, tuple(pairs), rng.randrange(4) != 0
            continue
        if shape == 1:
            spec = random_composition(2, [2 + rng.randrange(5), 2 + rng.randrange(5)], 1.0, seed,
                                      part_arcs=rng.randrange(3) == 0)
            pairs = _disjoint(rng, _inside_pairs(spec, spec.digraph), 2 + rng.randrange(2))
        elif shape == 2:
            spec = random_composition(2, [3 + rng.randrange(4), 2], 1.0, seed)
            a, b = spec.part_vertex_ids()
            a = rng.sample(a, len(a))
            pairs = [(a[0], b[0]), (b[1], a[1])]
            pairs += _disjoint(rng, _inside_pairs(spec, spec.digraph, a[:2] + b),
                               1 + rng.randrange(2))
        else:
            spec = random_composition(20, [3] * 20, 0.9, seed, part_arcs=True)
            d = spec.digraph
            part_of = {v: j for j, part in enumerate(spec.part_vertex_ids()) for v in part}
            cross = [(u, v) for u, v in d.arcs() if part_of[u] != part_of[v]]
            pairs = [cross[rng.randrange(len(cross))]]
            pairs += _disjoint(rng, _inside_pairs(spec, d), 2, pairs[0])
        if pairs:
            yield spec, tuple(rng.sample(pairs, len(pairs))), True


class TestAgainstRecursiveReduction:
    """The one loop of ``solve_composition`` against the recursive
    reduction it replaced (``ref_composition.ref_solve_composition``): the
    same canonical report bytes, or the same exception, with a floor on
    every round kind the recursion takes."""

    def test_report_bytes_match(self, monkeypatch):
        rounds = []
        peel, route, fill = (ref_composition._peel_direct, ref_composition._two_part_route,
                             ref_composition.solve_semicomplete)

        def record_peel(d, pairs):
            i = peel(d, pairs)
            rounds.append("peel" if i is not None else "shortest" if len(pairs) == 1 else "none")
            return i

        def record_route(*args):
            routed = route(*args)
            rounds.append("route" if routed else "none")
            return routed

        def record_fill(*args, **kwargs):
            rounds.append("fill")
            return fill(*args, **kwargs)

        monkeypatch.setattr(ref_composition, "_peel_direct", record_peel)
        monkeypatch.setattr(ref_composition, "_two_part_route", record_route)
        monkeypatch.setattr(ref_composition, "solve_semicomplete", record_fill)
        seen = Counter()
        for spec, pairs, skip_audit in _differential_cases(SplitMix64(4_246), 800):
            rounds.clear()
            want = _canonical_or_error(ref_solve_composition, spec, pairs, skip_audit)
            got = _canonical_or_error(solve_composition, spec, pairs, skip_audit)
            assert got == want, (spec, pairs, skip_audit)
            if isinstance(got, tuple):
                seen["error"] += 1
                continue
            report = solve_composition(spec, pairs, skip_audit=skip_audit)
            seen[report.stage or report.outcome] += 1
            if report.linked:
                seen["peel then fill"] += "peel" in rounds and "fill" in rounds
                seen["route"] += "route" in rounds
                seen["final shortest path"] += "shortest" in rounds
        # read 200, 117, 146, 187, 41, 15, 27, 42 and 7 (about 1.5 s)
        floors = {"peel then fill": 100, "route": 60, "final shortest path": 70, "path": 90,
                  "degenerate": 20, "two-part": 8, "filled-subsolve": 12,
                  "hypothesis_violated": 20, "error": 3}
        assert all(seen[kind] >= floor for kind, floor in floors.items()), seen

"""Acceptance suite: every shipped guarantee, checked end to end.

Each criterion returns a CriterionResult; ``run_criteria`` drives them all
(CLI: ``klinkage bench --suite acceptance``).  The exhaustive oracles here
(cut enumeration, path-family packing, full system enumeration) are written
against the definitions only and stay independent of the flow-based
implementations they check.
"""

from __future__ import annotations

import io
import os
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .connectivity import is_k_strong, kappa, local_connectivity, min_vertex_menger
from .digraph import Digraph, iter_bits, mask_of
from .dominators import is_in_king, nearly_in_dominating_vertex, verify_nearly_in_dominating
from .errors import ConstructionFailedError, PreconditionViolatedError
from .generators import (
    SplitMix64,
    non_linked_family,
    random_composition,
    random_digraph,
    random_extended_tournament,
    random_tournament,
)
from .linkage_composition import solve_composition, strip_intra_part_arcs
from .linkage_lqt import build_auxiliary, pool_threshold, find_short_anchor_pair, solve_lqt, verify_short_anchor
from .linkage_semicomplete import solve_semicomplete
from .paths import Infeasible, LinkageInstance
from .verify import brute_force_disjoint_paths, brute_force_k_linked, verify_linkage


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


# -- exhaustive oracles -----------------------------------------------------


def brute_kappa(d: Digraph) -> int:
    """Smallest deletion set that breaks strong connectivity; n-1 if none."""
    alive = list(d.vertices())
    n = len(alive)
    for size in range(n - 1):
        for cut in combinations(alive, size):
            rest = d.delete(cut)
            if rest.order >= 2 and not rest.is_strong():
                return size
    return n - 1


def brute_local_connectivity(d: Digraph, x: int, y: int) -> int:
    """Maximum packing of simple x->y paths with pairwise disjoint interiors."""
    interior_sets: set[frozenset[int]] = set()
    stack = [(x, frozenset(), 1 << x)]
    while stack:
        v, inner, visited = stack.pop()
        for w in iter_bits(d.out_mask(v) & ~visited):
            if w == y:
                interior_sets.add(inner)
            else:
                stack.append((w, inner | {w}, visited | (1 << w)))
    # the direct arc conflicts with nothing; among non-empty interiors any
    # superset can be swapped for a contained one, so minimal sets suffice
    direct = 1 if frozenset() in interior_sets else 0
    nonempty = [s for s in interior_sets if s]
    minimal = [s for s in nonempty if not any(t < s for t in nonempty)]
    minimal.sort(key=len)

    def pack(start: int, used: frozenset) -> int:
        best = 0
        for j in range(start, len(minimal)):
            s = minimal[j]
            if not s & used:
                best = max(best, 1 + pack(j + 1, used | s))
        return best

    return direct + pack(0, frozenset())


def brute_min_total_vertices(d: Digraph, us, ys, avoid=()) -> int | None:
    """Minimum total vertex count over all disjoint U->Y systems; None if none."""
    avoid_mask = mask_of(avoid)
    best: int | None = None

    def paths_to(y: int, used_mask: int):
        found = []
        for u in us:
            if used_mask >> u & 1:
                continue
            stack = [(u, (u,), 1 << u)]
            while stack:
                v, path, vis = stack.pop()
                if v == y:
                    found.append(path)
                    continue
                for w in iter_bits(d.out_mask(v) & ~vis & ~used_mask & ~avoid_mask):
                    stack.append((w, path + (w,), vis | (1 << w)))
        return found

    def rec(idx: int, used_mask: int, total: int):
        nonlocal best
        if best is not None and total >= best:
            return
        if idx == len(ys):
            best = total
            return
        for p in paths_to(ys[idx], used_mask):
            rec(idx + 1, used_mask | mask_of(p), total + len(p))

    rec(0, 0, 0)
    return best


# -- criteria ----------------------------------------------------------------


def _c1_dominating_vertex_suite():
    failures = 0
    for i in range(300):
        n = 5 + i % 56
        t = random_tournament(n, 10_000 + i)
        u = nearly_in_dominating_vertex(t)
        if not verify_nearly_in_dominating(t, u, n).ok:
            failures += 1
    return failures == 0, f"300 tournaments, n in [5,60], failures={failures}"


def _c2_landau_suite():
    failures = 0
    for i in range(300):
        n = 5 + i % 56
        t = random_tournament(n, 10_000 + i)
        if not is_in_king(t, nearly_in_dominating_vertex(t)):
            failures += 1
    return failures == 0, f"max in-degree vertex is an in-king, failures={failures}"


def _c3_flow_vs_brute():
    mismatches = []
    for i in range(500):
        n = 2 + i % 7
        tenths = (2, 3, 5, 7, 9)[i % 5]
        d = random_digraph(n, 20_000 + i, tenths)
        rng = SplitMix64(31_000 + i)

        if d.order >= 2 and kappa(d) != brute_kappa(d):
            mismatches.append(f"kappa@{i}")
        for _ in range(2):
            x, y = rng.sample(list(d.vertices()), 2)
            if local_connectivity(d, x, y) != brute_local_connectivity(d, x, y):
                mismatches.append(f"local@{i}:{x}->{y}")
        if n >= 4:
            m = 1 + rng.randrange(2)
            picks = rng.sample(list(d.vertices()), min(n, 2 * m + 1))
            us, ys = picks[: m + 1], picks[m + 1 : 2 * m + 1]
            if len(ys) == m:
                got = min_vertex_menger(d, us, ys)
                want = brute_min_total_vertices(d, us, ys)
                if isinstance(got, Infeasible):
                    if want is not None:
                        mismatches.append(f"feas@{i}")
                elif got.total_vertices() != want:
                    mismatches.append(f"total@{i}")
        if mismatches:
            break
    return not mismatches, f"500 instances n<=8; mismatches={mismatches or 'none'}"


def _c4_semicomplete_end_to_end():
    solved = verified = 0
    seed = 40_000
    tournaments = []
    while len(tournaments) < 20:
        t = random_tournament(200, seed)
        seed += 1
        if t.min_out_degree() >= 44 and is_k_strong(t, 6):
            tournaments.append(t)
    for j, t in enumerate(tournaments):
        rng = SplitMix64(41_000 + j)
        for _ in range(5):
            a, b, c, e = rng.sample(list(t.vertices()), 4)
            pairs = ((a, b), (c, e))
            rep = solve_semicomplete(LinkageInstance(t, pairs), skip_audit=True)
            if rep.linked:
                solved += 1
                if verify_linkage(t, pairs, rep.system):
                    verified += 1
    return (
        solved == 100 and verified == 100,
        f"20 audited tournaments n=200, k=2: linked {solved}/100, verified {verified}/100",
    )


def _c5_composition_checks():
    # Stripping intra-part arcs keeps the connectivity degree when every
    # part is a single vertex or non-strong (the regime the composition
    # solver meets; a strong part of size >= 2 is a counterexample, since
    # deleting everything outside it leaves a strong digraph only before
    # stripping).  200 compositions with at least 3 parts.
    mismatch = 0
    done = 0
    i = 0
    while done < 200:
        h = 3 + i % 6
        rng = SplitMix64(50_000 + i)
        sizes = [1 + rng.randrange(4) for _ in range(h)]
        while sum(sizes) > 25:
            sizes[sizes.index(max(sizes))] -= 1
        spec = random_composition(h, sizes, (i % 4) * 0.25, 51_000 + i, part_arcs=True)
        i += 1
        d = spec.digraph
        if any(m.bit_count() >= 2 and d._restrict(m).is_strong() for m in spec.part_masks):
            continue
        done += 1
        d0 = strip_intra_part_arcs(d, spec.part_vertex_ids())
        if kappa(d) != kappa(d0):
            mismatch += 1

    # audited solves at k=2 through the filled-digraph reduction
    linked = 0
    leaks = 0
    instances = _composition_instances(20)
    for spec, d, pairs in instances:
        try:
            rep = solve_composition(spec, pairs)
        except ConstructionFailedError:
            leaks += 1
            continue
        if rep.linked and verify_linkage(d, pairs, rep.system):
            linked += 1
    ok = mismatch == 0 and linked == len(instances) and leaks == 0 and len(instances) == 20
    return ok, (
        f"strip keeps kappa on 200/200 (mismatch={mismatch}); "
        f"audited solves {linked}/{len(instances)}, leaks={leaks}"
    )


def _composition_instances(count: int):
    found = []
    seed = 52_000
    while len(found) < count:
        spec = random_composition(20, [3] * 20, 0.9, seed, part_arcs=True)
        seed += 1
        d = spec.digraph
        if d.min_out_degree() < 46 or not is_k_strong(d, 6):
            continue
        pair_opts = [
            (x, y)
            for part in spec.part_vertex_ids()
            for x in part
            for y in part
            if x != y and not d.has_arc(x, y)
        ]
        chosen, used = [], set()
        for x, y in pair_opts:
            if x not in used and y not in used:
                chosen.append((x, y))
                used.update((x, y))
            if len(chosen) == 2:
                break
        if len(chosen) < 2:
            continue
        found.append((spec, d, tuple(chosen)))
    return found


def _c6_non_linked_reproduction():
    spec, bad_pairs = non_linked_family(3)
    d = spec.digraph
    strong_enough = kappa(d) >= 1
    not_linked = brute_force_k_linked(d, 3) is not True
    bad_infeasible = isinstance(brute_force_disjoint_paths(d, bad_pairs), Infeasible)
    ok = d.order == 6 and strong_enough and not_linked and bad_infeasible
    return ok, (
        f"n={d.order}, kappa={kappa(d)}>=1, 3-linked={not not_linked}, "
        f"bad pairs infeasible={bad_infeasible}"
    )


def _pool_threshold_reference(k: int, l: int) -> int:
    # independent coding of the same arithmetic
    m = 9 * k - 6
    binom = factorial(m) // (2 * factorial(m - 2))
    return binom * (l + 2) + 2 * k * l + 5 * k + 9 * k


def _lqt_instances(count: int, h: int, seed0: int):
    found = []
    seed = seed0
    while len(found) < count:
        spec = random_extended_tournament(h, [3] * h, seed)
        seed += 1
        d = spec.digraph
        if d.is_strong():
            found.append((spec, d))
    return found


def _c7_lqt_substitutes():
    problems = []

    if any(pool_threshold(k, l) != _pool_threshold_reference(k, l)
           for k in range(1, 11) for l in range(2, 11)):
        problems.append("threshold formula mismatch")

    # pools on 50 synthetic quasi-transitive instances, exhaustively re-verified
    key_violations = 0
    built = []
    seed = 60_000
    while len(built) < 50:
        spec = random_extended_tournament(14, [3] * 14, seed)
        seed += 1
        d = spec.digraph
        if not d.is_strong():
            continue
        parts = spec.part_vertex_ids()
        x, y = parts[0][0], parts[1][0]
        try:
            available = build_auxiliary(d, [x], [y], 2, 3)
        except PreconditionViolatedError:  # no short return path: d is strong
            key_violations += 1
            continue
        except ConstructionFailedError:
            continue  # pool too thin on this seed; take the next instance
        built.append((d, x, y, available))
    for idx, (d, x, y, available) in enumerate(built):
        d0 = d.delete({x, y})
        for (a, b), pool in available.items():
            seen_interiors: set[int] = set()
            for p in pool:
                if p[0] != a or p[-1] != b or len(p) > 4:
                    problems.append(f"pool shape@{idx}")
                if any(not d0.has_arc(u, v) for u, v in zip(p, p[1:])):
                    problems.append(f"pool arcs@{idx}")
                inner = set(p[1:-1])
                if inner & seen_interiors:
                    problems.append(f"pool independence@{idx}")
                seen_interiors |= inner
    if key_violations:
        problems.append(f"distance law fired {key_violations} times")

    solved = 0
    for spec, d in _lqt_instances(10, 20, 61_000):
        parts = spec.part_vertex_ids()
        x, y = parts[0][0], parts[10][0]
        rep = solve_lqt(d, ((x, y),), 2, threshold=5, skip_audit=True)
        # verification also rules out synthetic arcs: they are simply not
        # arcs of d
        if rep.linked and verify_linkage(d, ((x, y),), rep.system):
            solved += 1
    if solved != 10:
        problems.append(f"lqt solves {solved}/10")

    anchors_ok = True
    for k in (1, 2):
        for n in range(9 * k - 6, 15):
            t = random_tournament(max(n, 2 * k), 62_000 + 31 * k + n)
            pair = find_short_anchor_pair(t, k)
            if pair is None or not verify_short_anchor(t, *pair):
                anchors_ok = False
    if not anchors_ok:
        problems.append("anchor pair search")

    return not problems, f"problems={problems or 'none'}; lqt solves {solved}/10"


def _cli_bytes(argv) -> str:
    from .cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return f"exit={code}\n{buf.getvalue()}"


def _c8_cli_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        gpath = os.path.join(tmp, "t.json")
        runs = []
        for _ in range(2):
            out = []
            out.append(_cli_bytes(["gen", "--family", "tournament", "--n", "60",
                                   "--seed", "7", "-o", gpath]))
            with open(gpath, encoding="utf-8") as fh:
                out.append(fh.read())
            out.append(_cli_bytes(["check", "--input", gpath, "--nid"]))
            out.append(_cli_bytes(["solve", "--input", gpath, "--class", "semicomplete",
                                   "--pairs", "0:9,17:3", "--skip-audit", "--seed", "7"]))
            out.append(_cli_bytes(["gen", "--family", "composition", "--part-sizes",
                                   "2,3,2", "--p-double", "0.5", "--seed", "3"]))
            runs.append("\n".join(out))
    return runs[0] == runs[1], "two CLI executions produced identical bytes"


_CRITERIA = [
    (1, "dominating-vertex suite", _c1_dominating_vertex_suite),
    (2, "in-king (Landau) suite", _c2_landau_suite),
    (3, "flow vs exhaustive search", _c3_flow_vs_brute),
    (4, "semicomplete solver end-to-end", _c4_semicomplete_end_to_end),
    (5, "composition reduction checks", _c5_composition_checks),
    (6, "non-linked family reproduction", _c6_non_linked_reproduction),
    (7, "quasi-transitive machinery", _c7_lqt_substitutes),
    (8, "CLI determinism", _c8_cli_determinism),
]


def run_criteria(only=None) -> list[CriterionResult]:
    results = []
    for number, name, fn in _CRITERIA:
        if only and number not in only:
            continue
        start = time.perf_counter()
        passed, detail = fn()
        results.append(
            CriterionResult(number, name, passed, detail, time.perf_counter() - start)
        )
    return results

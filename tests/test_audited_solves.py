"""The converse of the stage failures: on input that passes the hypothesis
audit, no stage of the semicomplete or the composition pipeline fails.

A stage failure after a passing audit is a bug, in a solver or in how it
reads the paper's bounds.  The terminals are chosen adversarially: targets
at the highest in-degrees, sources there instead, pairs joined only by the
reverse arc, random pairs, and (for compositions) pairs inside one part as
in acceptance criterion 5.  ``solve_lqt`` is left out: its bound
81k^2(l+2)^2 is out of reach at testable sizes.
"""

from __future__ import annotations

from collections import Counter

from klinkage import LinkageInstance, solve_composition, solve_semicomplete
from klinkage.generators import SplitMix64, random_composition, random_semicomplete, random_tournament

CHOICES = ("targets", "sources", "reverse", "random")


def _terminal_pairs(d, k, choice, rng):
    vs = list(d.vertices())
    if choice == "reverse":
        pairs, used = [], set()
        for x in rng.sample(vs, len(vs)):
            ys = [y for y in vs if d.has_arc(y, x) and not d.has_arc(x, y) and y not in used]
            if x not in used and ys:
                pairs.append((x, ys[rng.randrange(len(ys))]))
                used.update(pairs[-1])
            if len(pairs) == k:
                break
        return tuple(pairs)
    if choice == "random":
        t = rng.sample(vs, 2 * k)
        return tuple(zip(t[::2], t[1::2]))
    top = sorted(vs, key=lambda v: (-d.in_degree(v), v))[:k]
    rest = rng.sample([v for v in vs if v not in top], k)
    return tuple(zip(rest, top) if choice == "targets" else zip(top, rest))


def _inside_parts(spec, d, k, rng):
    """Non-adjacent pairs inside one part each, as acceptance criterion 5 picks them."""
    opts = [(x, y) for part in spec.part_vertex_ids() for x in part for y in part
            if x != y and not d.has_arc(x, y)]
    pairs, used = [], set()
    for x, y in rng.sample(opts, len(opts)):
        if len(pairs) < k and not {x, y} & used:
            pairs.append((x, y))
            used.update((x, y))
    return tuple(pairs)


def _tally(reports) -> Counter:
    outcomes = Counter(r.outcome for r in reports)
    assert set(outcomes) <= {"linked", "hypothesis_violated"}, [
        (r.stage, r.witness) for r in reports if r.outcome == "stage_failed"]
    return outcomes


def semicomplete_instances():
    """The 64 audited semicomplete instances, k = 1 and 2 in turn."""
    for i in range(64):
        n, k = 100 + (i * 37) % 101, 1 + i % 2
        d = random_tournament(n, 98_000 + i) if i % 3 else random_semicomplete(n, 0.2, 98_000 + i)
        pairs = _terminal_pairs(d, k, CHOICES[i // 2 % 4], SplitMix64(99_000 + i))
        assert len(pairs) == k
        yield LinkageInstance(d, pairs)


def test_audited_semicomplete_solves_never_fail_a_stage():
    reports, piped = [], 0
    for instance in semicomplete_instances():
        d, pairs = instance.digraph, instance.pairs
        reports.append(solve_semicomplete(instance))
        # past the direct-arcs shortcut: some pair is not an arc of the input
        piped += reports[-1].linked and not all(d.has_arc(x, y) for x, y in pairs)
    assert _tally(reports)["linked"] >= 56
    # most of them through every stage
    assert piped >= 40


def test_audited_compositions_never_fail_a_stage():
    reports = []
    for i in range(100):
        spec = random_composition(20, [3] * 20, 0.9, 52_100 + i, part_arcs=True)
        d = spec.digraph
        k, rng = 1 + i % 2, SplitMix64(53_100 + i)
        choice = (*CHOICES, "parts")[i // 2 % 5]
        pairs = (_inside_parts(spec, d, k, rng) if choice == "parts"
                 else _terminal_pairs(d, k, choice, rng))
        assert len(pairs) == k
        reports.append(solve_composition(spec, pairs))
    assert _tally(reports)["linked"] >= 80

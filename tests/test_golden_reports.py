"""Pinned canonical reports: refactors must not change a single output byte.

Each case is one solve on a seeded input; its digest is the sha256 of
``dumps_canonical(report_to_obj(report))``.  The grid mixes semicomplete
solves (n=60, k=1-2, audited and not), criterion-5 compositions,
criterion-7 l-QT instances, a violation of every audit clause of the three
solvers, a hand-built linked solve whose source has no helper and one
failure of every stage the three solvers can fail at, seeded or built by
hand.  A digest changes only when a solver's output does: if
that is intended, re-pin with ``python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import hashlib

import pytest

from klinkage import (
    CompositionSpec,
    Digraph,
    LinkageInstance,
    solve_composition,
    solve_lqt,
    solve_semicomplete,
)
from klinkage import linkage_semicomplete
from klinkage.acceptance import _composition_instances, _lqt_instances
from klinkage.generators import (
    SplitMix64,
    random_composition,
    random_extended_tournament,
    random_semicomplete,
    random_tournament,
)
from klinkage.jsonio import dumps_canonical, report_to_obj


def _terminal_pairs(d, k, seed):
    terms = SplitMix64(seed).sample(list(d.vertices()), 2 * k)
    return tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k))


def _complete(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def _transitive(n):
    return Digraph.from_arcs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


_FOUR_CYCLE = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def _semicomplete(i):
    d = random_tournament(60, 93_000 + i) if i % 2 else random_semicomplete(60, 0.3, 93_000 + i)
    k = 1 + i % 2
    return solve_semicomplete(LinkageInstance(d, _terminal_pairs(d, k, 94_000 + i)),
                              skip_audit=i >= 2)


def _direct_arcs():
    return solve_semicomplete(LinkageInstance(_complete(10), ((0, 1), (2, 3))), skip_audit=True)


def _dominating_set_fails():
    return solve_semicomplete(LinkageInstance(_transitive(5), ((4, 0), (3, 1))), skip_audit=True)


def _leftover_linked():
    """x = 0 sees no helper, so its path is built as a leftover source's.

    y = 1, C = 2..4, A = 5..19, B = 20..59; inside each group list position
    i beats j when (j - i) mod m < m/2, and at a tie when i is even; full
    bundles x->A, C->x, B->x, C->A, B->C, A->B, y->x, C->y, y->A, B->y.
    """
    groups = [list(range(2, 5)), list(range(5, 20)), list(range(20, 60))]
    arcs = []
    for g in groups:
        m = len(g)
        for i in range(m):
            for j in range(i + 1, m):
                gap = 2 * (j - i)
                arcs.append((g[i], g[j]) if gap < m or gap == m and i % 2 == 0 else (g[j], g[i]))
    x, y, (c, a, b) = [0], [1], groups
    for tails, heads in ((x, a), (c, x), (b, x), (c, a), (b, c), (a, b), (y, x), (c, y),
                         (y, a), (b, y)):
        arcs += [(u, v) for u in tails for v in heads]
    d = Digraph.from_arcs(60, arcs)
    return solve_semicomplete(LinkageInstance(d, ((0, 1),)), skip_audit=True)


def _semicomplete_small(i):
    n, k = 8 + i % 23, 1 + i % 3
    d = random_tournament(n, 70_000 + i) if i % 2 else random_semicomplete(n, 0.3, 70_000 + i)
    return solve_semicomplete(LinkageInstance(d, _terminal_pairs(d, k, 71_000 + i)),
                              skip_audit=True)


def _composition(i):
    spec, _d, pairs = _composition_instances(4)[i]
    return solve_composition(spec, pairs)


def _composition_thin(i):
    spec = random_composition(6, [2] * 6, 0.5, 95_000 + i, part_arcs=True)
    d = spec.digraph
    return solve_composition(spec, _terminal_pairs(d, 2, 96_000 + i), skip_audit=i > 0)


def _composition_small(i):
    h = 3 + i % 6
    spec = random_composition(h, [2] * h, 0.5, 72_000 + i, part_arcs=bool(i % 2))
    d = spec.digraph
    return solve_composition(spec, _terminal_pairs(d, 1 + i % 3, 73_000 + i), skip_audit=True)


def _arcless_parts(outer_arcs, sizes, pairs):
    outer = Digraph.from_arcs(len(sizes), outer_arcs)
    spec = CompositionSpec.from_local_parts(outer, [Digraph.from_arcs(s, []) for s in sizes])
    return solve_composition(spec, pairs, skip_audit=True)


def _audited_parts(outer_arcs, parts, pairs):
    outer = Digraph.from_arcs(len(parts), outer_arcs)
    return solve_composition(CompositionSpec.from_local_parts(outer, parts), pairs)


def _lqt(i, skip_audit=True):
    spec, d = _lqt_instances(5, 20, 61_000)[i]
    parts = spec.part_vertex_ids()
    pairs = ((parts[0][0], parts[10][0]),)
    if i % 2:
        pairs += ((parts[5][0], parts[15][0]),)
    return solve_lqt(d, pairs, 2, threshold=5, skip_audit=skip_audit)


def _lqt_thin(seed):
    spec = random_extended_tournament(8, [2] * 8, 84_000 + seed)
    d = spec.digraph
    return solve_lqt(d, _terminal_pairs(d, 1, 85_000 + seed), 2, threshold=5, skip_audit=True)


def _lqt_small_instance(i, anchor_budget=2000):
    """The digraph, pairs and ``solve_lqt`` keywords of the small l-QT case i."""
    h = 6 + i % 7
    spec = random_extended_tournament(h, [1 + (i // 7 + j) % 3 for j in range(h)], 76_000 + i)
    d = spec.digraph
    return d, _terminal_pairs(d, 1 + i % 2, 77_000 + i), {
        "threshold": 1 + i % 3, "anchor_budget": anchor_budget, "skip_audit": True}


def _lqt_small(i, anchor_budget=2000):
    d, pairs, kwargs = _lqt_small_instance(i, anchor_budget)
    return solve_lqt(d, pairs, 2, **kwargs)


CASES = {
    **{f"semicomplete-{i}": (lambda i=i: _semicomplete(i)) for i in range(6)},
    "semicomplete-direct-arcs": _direct_arcs,
    "semicomplete-dominating-set": _dominating_set_fails,
    "semicomplete-menger": lambda: _semicomplete_small(601),
    "semicomplete-anchor-direct": lambda: _semicomplete_small(4),
    "semicomplete-leftover-linked": _leftover_linked,
    "semicomplete-not-semicomplete": lambda: solve_semicomplete(
        LinkageInstance(_FOUR_CYCLE, ((0, 2),))),
    "semicomplete-kappa": lambda: solve_semicomplete(LinkageInstance(_transitive(8), ((7, 0),))),
    **{f"composition-{i}": (lambda i=i: _composition(i)) for i in range(4)},
    **{f"composition-thin-{i}": (lambda i=i: _composition_thin(i)) for i in (0, 1, 5)},
    "composition-path": lambda: _composition_small(6),
    # A = {0..5}, B = {6, 7} and an outer 2-cycle: peeling (0,6) and (7,1) empties B
    "composition-degenerate": lambda: _arcless_parts([(0, 1), (1, 0)], [6, 2],
                                                     ((0, 6), (7, 1), (2, 3), (4, 5))),
    # A = {0..3}, B = {4} and the outer arc A->B: 4 is no middle back into A
    "composition-two-part": lambda: _arcless_parts([(0, 1)], [4, 1], ((0, 1), (2, 3))),
    # the outer 2-cycles 0<->1<->2 leave 0 and 2 non-adjacent
    "composition-outer": lambda: _audited_parts([(0, 1), (1, 0), (1, 2), (2, 1)],
                                                [_complete(1)] * 3, ((0, 2),)),
    # the same instance under skip_audit: the class check still runs
    "composition-outer-skip": lambda: _arcless_parts([(0, 1), (1, 0), (1, 2), (2, 1)], [1] * 3,
                                                     ((0, 2),)),
    # five complete 3-parts under a complete outer digraph: out-degree 14
    "composition-out-degree": lambda: _audited_parts(_complete(5).arcs(), [_complete(3)] * 5,
                                                     ((0, 3),)),
    # parts 1, 1 and K_75: the large part leaves 2 < 2k-3 = 3 vertices
    "composition-co-size": lambda: _audited_parts(_complete(3).arcs(),
                                                  [_complete(1), _complete(1), _complete(75)],
                                                  ((0, 2), (1, 3), (4, 5))),
    **{f"lqt-{i}": (lambda i=i: _lqt(i)) for i in range(5)},
    "lqt-not-strong": lambda: solve_lqt(_transitive(8), ((0, 7),), 2),
    "lqt-not-quasi-transitive": lambda: solve_lqt(_FOUR_CYCLE, ((0, 2),), 2),
    "lqt-audited": lambda: _lqt(0, skip_audit=False),
    **{f"lqt-thin-{s}": (lambda s=s: _lqt_thin(s)) for s in range(2)},
    "lqt-dominating-set": lambda: _lqt_small(15),
    "lqt-anchor-pair": lambda: _lqt_small(0, anchor_budget=0),
    "lqt-source-helper": lambda: _lqt_small(3),
    "lqt-source-replacement": lambda: _lqt_small(19),
    "lqt-targets": lambda: _lqt_small(39),
    "lqt-anchor-link": lambda: _lqt_small(12),
}

# name -> (outcome, failed stage or hypothesis, sha256 of the canonical report)
PINNED = {
    'composition-0': ('linked', None,
        '84e30cce0197a6c64e8b0e9db1459f165e43fdc0718655b675c834fdab6bf556'),
    'composition-1': ('linked', None,
        '9d736473c50d07f5e45cc63aef44eb923761b6b291eced3b75e204312424ce9f'),
    'composition-2': ('linked', None,
        '6dd4ef29faf6771a3a472b6f5b5b2dfdecf6a3c64078d5969a09c82bd36dfac1'),
    'composition-3': ('linked', None,
        'e56c251645876d1147d1791f434fb2513988a4660c1be094319b4a47fde9c391'),
    'composition-co-size': ('hypothesis_violated', 'a part leaves fewer than 3 vertices',
        'fdb52c417eb7b2b32d63eab1841b9a4ea668533e3efcc8054492b8fa46f52cf9'),
    'composition-degenerate': ('stage_failed', 'degenerate',
        'dd8d02ca989879ff776e2ed3666fd7a980f2d5f611ee85ed917acb4987ae676b'),
    'composition-out-degree': ('hypothesis_violated', 'min out-degree < 23',
        'afb4ed1b0f59c7956b36ebdcec5d26c8d7f5bf54dd49181f3f07f9fd6c73f812'),
    'composition-outer': ('hypothesis_violated', 'outer digraph not semicomplete',
        'e1f471f3ed0c572bcb6af726ee5c62cee8e6bfa41e42464e1cdc0f769f8895b9'),
    'composition-outer-skip': ('hypothesis_violated', 'outer digraph not semicomplete',
        'e1f471f3ed0c572bcb6af726ee5c62cee8e6bfa41e42464e1cdc0f769f8895b9'),
    'composition-path': ('stage_failed', 'path',
        '7c2c8d3cb8dff5d2628463497c1ef0f32a14e14c859a924c560be1287e34c490'),
    'composition-thin-0': ('hypothesis_violated', 'kappa < 6',
        '9053f9e607cfaf35e0b8bb6c69a4977a257ca18a53403f796060366ead00a6cf'),
    'composition-thin-1': ('linked', None,
        '624743cf2fc5f613d445e883e8c061f8df1bcc51aea5d25efbfb3274d18f4bde'),
    'composition-thin-5': ('stage_failed', 'filled-subsolve',
        '61059c9f8087e6d1d72a787f5c44657e6d1659d41218980442843928e616c2a9'),
    'composition-two-part': ('stage_failed', 'two-part',
        'c41c91c0864c5d5e6e66f4e42dac8a759c89a0fdde4f2db4db65125a660476dc'),
    'lqt-0': ('linked', None,
        'e00fd6150e51cded06d76d0f1de6630b34dde8c0d06ff6d4eb49ceee48f6f96c'),
    'lqt-1': ('linked', None,
        'b44e571453abc2a817757c15b59f603aca14278e01ea5d788e33c056ec0af372'),
    'lqt-2': ('linked', None,
        '9ffd396fefe25e76f5b3c1bcda34d243f4ec13ed15c84e5a15aec6daefe65532'),
    'lqt-3': ('linked', None,
        '3707b88a27029e95697f956290c7be1f008514901c02a08635e1f04ad072fb72'),
    'lqt-4': ('linked', None,
        'cfb629e2003cb76021d37ce590436da2819918b24172fa44fb9e886982dec7dc'),
    'lqt-anchor-link': ('stage_failed', 'anchor-link',
        'f85226b6f7e9c92291848a4270af4505b6623f16e98ca2a91e25a37464d465eb'),
    'lqt-anchor-pair': ('stage_failed', 'anchor-pair',
        '5be82d9207199a655162995c93c59bbbd298391adab09457ea90c0b91935ecb5'),
    'lqt-audited': ('hypothesis_violated', 'kappa < 1296',
        'be39aa786174e56ab1b98d39c583fec477296348fa3d7e9e3e9c4f57d251251d'),
    'lqt-dominating-set': ('stage_failed', 'dominating-set',
        'f59399869f2f320f77fa0ffaa7540573ec9a80d82522bf40aa7948037387444b'),
    'lqt-not-quasi-transitive': ('hypothesis_violated', 'not 2-quasi-transitive',
        '7472f7f8cd1117f39bd7f3ddbbf76e4bd50aeb0e3354af0c2e30bd14ffdadefd'),
    'lqt-not-strong': ('hypothesis_violated', 'not strong',
        'ca06ec4f516cfa747cdae1b3b5ad01741551a9b6919b214d17a6566cc661bef3'),
    'lqt-source-helper': ('stage_failed', 'source-helper',
        '364dee845375f7688e27d7b96fa748f2e5aa61db6a6de73779b1b8199afb93c7'),
    'lqt-source-replacement': ('stage_failed', 'source-replacement',
        '7db7184bb15c30e7473e74ecc9702940df0f558aefd91f58a98f4698ac759db8'),
    'lqt-targets': ('stage_failed', 'targets',
        'cbaed7e14a2a88904bc659b273c0b1427dcb318f6f2dc62b652a1e92156a0866'),
    'lqt-thin-0': ('stage_failed', 'auxiliary',
        '92126cdada8d3d9e14a0528268604de3c1d2868cff7b3db288af57edfb7b96e6'),
    'lqt-thin-1': ('stage_failed', 'auxiliary',
        '2df83a2c811f4cb8d7ff5dcc054e5a1503e24c848c7cc4b093c948a81f10805a'),
    'semicomplete-0': ('linked', None,
        'f35e8f40ad58a387dcb3bb6a6a41e56b1259c6a6908365ba26f0f81e802c1b16'),
    'semicomplete-1': ('hypothesis_violated', 'min out-degree < 44',
        '4b33df2ccca519fe5f7c847a26227a844457a3c181c409f1638712cb1151015f'),
    'semicomplete-2': ('linked', None,
        '0384718f309e9728584eb52927e72aef2070022088f7d56d6b93639d9eb9a1f2'),
    'semicomplete-3': ('stage_failed', 'anchor-landed',
        '63ad7c06b6633494c52089c6cbc4ddbefa815b08c63acaebd665aff433499bc2'),
    'semicomplete-4': ('linked', None,
        '388010d33410c765816034925afdbfeda94cde81feb0966eee30b504e08b06ec'),
    'semicomplete-5': ('linked', None,
        '02b15548c420bdb26b9cc60040804102c64b8279609bde5444da08425614629a'),
    'semicomplete-anchor-direct': ('stage_failed', 'anchor-direct',
        '089a7baf2eb30dd9b28a5b116b5371635a202e0c00501b8a0172d84c5c427000'),
    'semicomplete-direct-arcs': ('linked', None,
        'edb039050a34847a4f37c094f727d27998d6f538a9ce25dcd30b6dc618999bf6'),
    'semicomplete-dominating-set': ('stage_failed', 'dominating-set',
        '05263eebd0ee02f428ac16513180c06abb763029f9184ea26f17f4f7cc0bae85'),
    'semicomplete-kappa': ('hypothesis_violated', 'kappa < 3',
        '2e5c7e27f8a54ac4623fd6b0a4673ec66821534d5ea27f5eb150c075bd04ae01'),
    'semicomplete-leftover-linked': ('linked', None,
        'acfc34f671cf293f85ad77c386f52c1c468f172ccdb5936b77831be4bc378b07'),
    'semicomplete-menger': ('stage_failed', 'menger',
        '1d7e6578a8b20f4fd50112d519ca6f4f5a3027f163dd0a6aa8639fb7fed6b62d'),
    'semicomplete-not-semicomplete': ('hypothesis_violated', 'not semicomplete',
        '89c0b0cbe30486bf4f39e3733485d1fa3fa1704eaef1a7b8daf3e2a31eb03728'),
}


def digest(report) -> str:
    return hashlib.sha256(dumps_canonical(report_to_obj(report)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name):
    report = CASES[name]()
    assert (report.outcome, report.stage or report.failure, digest(report)) == PINNED[name]


def test_grid_covers_every_outcome_and_solver():
    assert set(PINNED) == set(CASES)
    assert {outcome for outcome, _, _ in PINNED.values()} == {
        "linked", "hypothesis_violated", "stage_failed"}
    assert {name.split("-")[0] for name, (outcome, _, _) in PINNED.items()
            if outcome == "linked"} == {"semicomplete", "composition", "lqt"}
    # every audit clause of the three solvers
    assert {(name.split("-")[0], what) for name, (outcome, what, _) in PINNED.items()
            if outcome == "hypothesis_violated"} == {
        *(("semicomplete", h) for h in ("not semicomplete", "kappa < 3", "min out-degree < 44")),
        *(("composition", h) for h in ("outer digraph not semicomplete", "kappa < 6",
                                       "min out-degree < 23",
                                       "a part leaves fewer than 3 vertices")),
        *(("lqt", h) for h in ("not strong", "not 2-quasi-transitive", "kappa < 1296")),
    }
    # every stage a solver can fail at, but ``verify`` (tests/test_linkage_semicomplete.py)
    assert {(name.split("-")[0], what) for name, (outcome, what, _) in PINNED.items()
            if outcome == "stage_failed"} == {
        *(("semicomplete", s) for s in ("dominating-set", "menger", "anchor-direct",
                                        "anchor-landed")),
        *(("composition", s) for s in ("path", "degenerate", "two-part", "filled-subsolve")),
        *(("lqt", s) for s in ("auxiliary", "dominating-set", "anchor-pair", "source-helper",
                               "source-replacement", "targets", "anchor-link")),
    }


def test_leftover_source_is_linked(monkeypatch):
    # the one linked case whose source has no helper: its path is the
    # leftover branch's, straight from x to its q-start
    splits = []
    partition = linkage_semicomplete.partition_terminals

    def record(*args):
        splits.append(partition(*args))
        return splits[-1]

    monkeypatch.setattr(linkage_semicomplete, "partition_terminals", record)
    report = _leftover_linked()
    assert splits == [{}]
    assert report.system.paths == ((0, 5, 20, 2, 1),)


if __name__ == "__main__":
    for name in sorted(CASES):
        report = CASES[name]()
        print(f"    {name!r}: ({report.outcome!r}, {report.stage or report.failure!r},\n"
              f"        {digest(report)!r}),")

"""The bulk digraph loader against the per-arc one it replaced
(``tests/ref_jsonio.py``): on every document, the identical digraph, in-masks
included, or the identical exception class and message."""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from collections import Counter

import pytest
from conftest import assert_in_masks_transpose
from ref_jsonio import ref_digraph_from_obj, ref_from_arcs

from klinkage import jsonio
from klinkage.digraph import Digraph
from klinkage.errors import FormatError, InputError
from klinkage.generators import random_digraph, random_extended_tournament, random_semicomplete
from klinkage.jsonio import MAX_ORDER, digraph_from_obj, digraph_to_obj, parse_json


class Id(int):
    """An int subclass: an id to the per-arc check, not to the bulk one."""


def _outcome(load, *args):
    """The loaded digraph's masks and parts, or the exception's class and message."""
    try:
        d, parts = load(*args)
    except Exception as exc:  # the two loaders must fail alike
        return ("error", type(exc), str(exc)), None
    return ("built", d.n, d._alive, list(d._out), list(d._in), parts), d


def _check(obj):
    got, d = _outcome(digraph_from_obj, obj, "doc.json")
    want, _ = _outcome(ref_digraph_from_obj, obj, "doc.json")
    assert got == want, obj
    if d is not None:
        assert_in_masks_transpose(d)
    return got


def _doc(rng: random.Random, case: int) -> dict:
    """A valid document from a random digraph, its arcs shuffled."""
    n = rng.randrange(16)
    obj = digraph_to_obj(random_digraph(n, 410_000 + case, rng.randrange(11)))
    rng.shuffle(obj["arcs"])
    return obj


def _dense_doc(rng: random.Random, case: int) -> dict:
    """A valid semicomplete document on 2 to 24 ids, its arcs shuffled: at
    least n(n-1)/2 arcs, so the in-rows come from the transpose."""
    obj = digraph_to_obj(random_semicomplete(rng.randrange(2, 25), rng.random() / 2, 450_000 + case))
    rng.shuffle(obj["arcs"])
    return obj


# Each fault rewrites the arc at index i of a document with n ids, in place
# or by inserting one arc.  TYPE_FAULTS fail the pair-of-integers check, the
# others fail the range, self-loop or duplicate check.
def _set_id(value):
    def fault(arcs, i, n, rng):
        arcs[i] = list(arcs[i])
        arcs[i][rng.randrange(2)] = value(arcs[i], n, rng)
    return fault


def _set_arc(value):
    def fault(arcs, i, n, rng):
        arcs[i] = value(arcs[i], n, rng)
    return fault


def _duplicate(far):
    def fault(arcs, i, n, rng):
        arcs.insert(len(arcs) if far else i + 1, list(arcs[i]))
    return fault


TYPE_FAULTS = {
    "bool": _set_id(lambda arc, n, rng: rng.random() < 0.5),
    "float": _set_id(lambda arc, n, rng: rng.choice([float(arc[0]), 0.5])),
    "string": _set_id(lambda arc, n, rng: str(arc[0])),
    "null": _set_id(lambda arc, n, rng: None),
    "nested list": _set_id(lambda arc, n, rng: [arc[0]]),
    "length 1": _set_arc(lambda arc, n, rng: arc[:1]),
    "length 3": _set_arc(lambda arc, n, rng: [*arc, arc[0]]),
    "not a list": _set_arc(lambda arc, n, rng: rng.choice([tuple(arc), arc[0], "0,1", {"u": 0}])),
}
ARC_FAULTS = {
    "negative id": _set_id(lambda arc, n, rng: -1 - rng.randrange(3)),
    "id == n": _set_id(lambda arc, n, rng: n),
    "self-loop": _set_arc(lambda arc, n, rng: [arc[0], arc[0]]),
    "adjacent duplicate": _duplicate(far=False),
    "far duplicate": _duplicate(far=True),
}
FAULTS = {**TYPE_FAULTS, **ARC_FAULTS}


def _faulty_doc(rng: random.Random, case: int, kinds: list[str],
                make=_doc) -> tuple[dict, list[int]]:
    """A document from ``make`` with one fault of each kind in ``kinds``, at
    increasing arc indices (faults that insert an arc shift the later ones
    right)."""
    while True:
        obj = make(rng, case)
        if len(obj["arcs"]) >= len(kinds) + 1:
            break
        case += 1_000_000
    arcs, n = obj["arcs"], obj["n"]
    at = sorted(rng.sample(range(len(arcs)), len(kinds)))
    for kind, i in reversed(list(zip(kinds, at))):  # the last first keeps the indices
        FAULTS[kind](arcs, i, n, rng)
    return obj, at


class TestAgainstPerArcLoader:
    def test_valid_documents(self):
        rng = random.Random(4_101)
        seen = Counter()
        for case in range(400):
            obj = _doc(rng, case)
            assert _check(obj)[0] == "built"
            seen["2-cycles"] += any([v, u] in obj["arcs"] for u, v in obj["arcs"])
        for n in (0, 1, 3):
            assert _check({"n": n, "arcs": []})[0] == "built"
        assert _check({"n": 2, "arcs": [[0, 1], [1, 0]], "parts": [[0], [1]]})[0] == "built"
        assert _check({"n": 3, "arcs": [[Id(0), Id(2)], [2, 1]]})[0] == "built"
        assert seen["2-cycles"] >= 150, seen

    def test_large_semicomplete_document(self):
        obj = digraph_to_obj(random_semicomplete(500, 0.2, 4_102))
        random.Random(4_103).shuffle(obj["arcs"])
        assert len(obj["arcs"]) > 130_000
        assert _check(obj)[0] == "built"
        rng = random.Random(4_104)
        for kind in ("bool", "self-loop", "far duplicate"):
            faulty = {"n": obj["n"], "arcs": [list(a) for a in obj["arcs"]]}
            FAULTS[kind](faulty["arcs"], 100_000 + rng.randrange(20_000), faulty["n"], rng)
            assert _check(faulty)[0] == "error"

    def test_one_fault(self):
        _one_fault(random.Random(4_105), 420_000, 1_300, _doc, floor=70)

    def test_two_faults_report_the_first(self):
        _two_faults(random.Random(4_106), 430_000, 700, _doc, floor=30)

    def test_one_fault_dense(self):
        _one_fault(random.Random(4_108), 460_000, 1_300, _dense_doc, floor=70)

    def test_two_faults_report_the_first_dense(self):
        _two_faults(random.Random(4_109), 470_000, 700, _dense_doc, floor=30)

    def test_arc_fault_before_a_bool_id(self):
        """A self-loop comes first, but the bool id after it, a type fault,
        is the one reported."""
        obj = _dense_doc(random.Random(4_110), 0)
        arcs = obj["arcs"]
        arcs[3] = [arcs[3][0], arcs[3][0]]
        arcs[-2] = [True, arcs[-2][1]]
        got = _check(obj)
        assert got == ("error", FormatError,
                       f"doc.json: field 'arcs[{len(arcs) - 2}]' must be a pair of integers")

    def test_dense_document_with_int_subclass_ids(self):
        obj = _dense_doc(random.Random(4_111), 1)
        obj["arcs"] = [[Id(u), Id(v)] for u, v in obj["arcs"]]
        assert _check(obj)[0] == "built"


def _one_fault(rng: random.Random, case0: int, cases: int, make, floor: int):
    seen = Counter()
    for case in range(cases):
        kind = rng.choice(sorted(FAULTS))
        obj, (i,) = _faulty_doc(rng, case0 + case, [kind], make)
        got = _check(obj)
        assert got[:2] == ("error", FormatError), (kind, obj)
        if kind in TYPE_FAULTS:
            assert f"'arcs[{i}]'" in got[2], (kind, got)
        seen[kind] += 1
    assert min(seen[kind] for kind in FAULTS) >= floor, seen


def _two_faults(rng: random.Random, case0: int, cases: int, make, floor: int):
    """With two faults, the reported one is the earlier type fault if any."""
    seen = Counter()
    for case in range(cases):
        kinds = [rng.choice(sorted(FAULTS)) for _ in range(2)]
        obj, (i, j) = _faulty_doc(rng, case0 + case, kinds, make)
        got = _check(obj)
        assert got[:2] == ("error", FormatError), (kinds, obj)
        if kinds[0] in TYPE_FAULTS:
            assert f"'arcs[{i}]'" in got[2], (kinds, got)
        seen[kinds[0]] += 1
    assert min(seen[kind] for kind in FAULTS) >= floor, seen


# A semicomplete digraph on 5 ids with exactly n(n-1)/2 = 10 arcs (the
# in-rows by transpose), and the same less one arc (by a second arc pass).
DENSE = [(0, 1), (2, 0), (0, 3), (4, 0), (1, 2), (3, 1), (1, 4), (2, 3), (4, 2), (3, 4)]


class TestFromArcs:
    """``Digraph.from_arcs`` on inputs no JSON document holds: tuples, sets,
    iterators, bools and junk values, with the identical outcome."""

    CASES = [
        (3, [(0, 1), (1, 2), (2, 0)]),
        (3, {(0, 1), (1, 0)}),
        (4, [(u, u + 1) for u in range(3)]),
        (3, [(True, 2), (0, 1)]),
        (3, [(True, 1)]),
        (3, [(0, 1), (False, 1)]),
        (3, [(0, 1.5)]),
        (3, [(0, 0), (0, 1.5)]),
        (3, [(0, 1), (1, 2, 0)]),
        (3, [(1, 2), ("a", "b")]),
        (3, [(1, 2), (0,)]),
        (3, [(0, 3), (1, 1)]),
        (3, [(1, 1), (0, 3)]),
        (3, [(2, 0), (2, 0), (1, 1)]),
        (0, []),
        (-1, []),
        (3, [(-1, 2)]),
        (3, [(0, 1), (-3, 2)]),
        (5, [*DENSE[:6], (1, 5), *DENSE[6:]]),
        (3, [(0, 1), (1, 10 ** 30)]),
        (3, [(0, 1), (1, 2), (2, 0), (1, 2)]),
        (5, [*DENSE[:4], (3, 1), *DENSE[4:]]),
        (5, DENSE),
        (5, DENSE[:-1]),
        (3, [(0, 1), (1, 2), (-1, 0)]),
    ]

    @pytest.mark.parametrize("n, arcs", CASES)
    def test_same_outcome(self, n, arcs):
        arcs = list(arcs)
        got, d = _outcome(lambda: (Digraph.from_arcs(n, iter(arcs)), None))
        want, _ = _outcome(lambda: (ref_from_arcs(n, arcs), None))
        assert got == want
        if d is not None:
            assert_in_masks_transpose(d)


    def test_sparse_input_allocates_no_grid(self):
        """A grid of n^2 characters would take 16 MB at n = 4000; two arcs
        are far below the density threshold and get their in-rows from a
        second arc pass, which builds no grid."""
        tracemalloc.start()
        try:
            d = Digraph.from_arcs(4000, [(0, 1), (2, 3)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        assert d.arcs() == [(0, 1), (2, 3)]
        assert_in_masks_transpose(d)

    @pytest.mark.parametrize("n, pairs, want", [
        (2, [(0, 1), (0, 1)], ("error", InputError, "arc (0,1) listed twice")),
        (2, [(0, 1), (1, 0)], ("built", 2, 3, [2, 1], [2, 1], None)),
    ])
    def test_one_shot_arcs(self, n, pairs, want):
        """Arcs that are iterators would be spent by the bulk loop, so they
        take the per-arc loop; loader and oracle each get fresh ones."""
        got, _ = _outcome(lambda: (Digraph.from_arcs(n, [iter(a) for a in pairs]), None))
        ref, _ = _outcome(lambda: (ref_from_arcs(n, [iter(a) for a in pairs]), None))
        assert got == ref == want


class TestBulkPath:
    """Valid documents never reach the per-arc loops: a change that sends
    them back to the slow path fails here, whatever the time it takes."""

    @pytest.fixture(autouse=True)
    def no_per_arc_loop(self, monkeypatch):
        def fail(*args):
            pytest.fail("a valid document took a per-arc loop")
        monkeypatch.setattr(Digraph, "_from_arcs_per_arc", fail)
        monkeypatch.setattr(jsonio, "_check_arc_types", fail)

    @pytest.mark.parametrize("spec", ["dense", "sparse"])
    def test_valid_document_loads_in_bulk(self, spec):
        if spec == "dense":  # shaped like the sc-large pool
            obj = digraph_to_obj(random_semicomplete(500, 0.2, 4_112))
        else:  # shaped like the lqt pool: 20 parts of 3, below n(n-1)/2 arcs
            ext = random_extended_tournament(20, [3] * 20, 4_113)
            obj = digraph_to_obj(ext.digraph, ext.part_vertex_ids())
        random.Random(4_114).shuffle(obj["arcs"])
        assert (2 * len(obj["arcs"]) >= obj["n"] * (obj["n"] - 1)) == (spec == "dense")
        d, parts = digraph_from_obj(obj)
        want, want_parts = ref_digraph_from_obj(obj)
        assert (d._alive, d._out, d._in, parts) == (want._alive, want._out, want._in, want_parts)
        assert Digraph.from_arcs(d.n, d.arcs()) == d


class TestOrderCeiling:
    @pytest.mark.parametrize("n", [MAX_ORDER + 1, 1_000_000_000])
    def test_refused_before_any_allocation(self, n, monkeypatch):
        def no_build(*args):
            pytest.fail("from_arcs called above the ceiling")
        monkeypatch.setattr(Digraph, "from_arcs", no_build)
        with pytest.raises(FormatError) as info:
            digraph_from_obj({"n": n, "arcs": []}, "doc.json")
        assert str(info.value) == f"doc.json: field 'n' must be at most {MAX_ORDER}"

    def test_ceiling_itself_loads(self):
        d, _ = digraph_from_obj({"n": MAX_ORDER, "arcs": [[0, MAX_ORDER - 1]]})
        assert (d.n, d.arcs()) == (MAX_ORDER, [(0, MAX_ORDER - 1)])


class TestArcsOrder:
    def test_arcs_come_out_sorted(self):
        """``digraph_to_obj`` writes ``d.arcs()`` unsorted: the order must
        already be lexicographic, deleted vertices or not."""
        rng = random.Random(4_107)
        for case in range(200):
            n = rng.randrange(1, 16)
            d = random_digraph(n, 440_000 + case, rng.randrange(11))
            d = d.delete(rng.sample(range(n), rng.randrange(n)))
            arcs = digraph_to_obj(d)["arcs"]
            assert arcs == sorted(arcs) == [list(a) for a in d.arcs()]


class TestParseJson:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("valid", [True, False])
    def test_collector_state_is_restored(self, enabled, valid):
        text = '{"n": 2, "arcs": [[0, 1]]}' if valid else '{"n": 2, "arcs": [[0, 1]'
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if valid:
                assert parse_json(text, "doc.json") == json.loads(text)
            else:
                with pytest.raises(FormatError, match="^doc.json: line 1 column ") as info:
                    parse_json(text, "doc.json")
                assert isinstance(info.value.__cause__, json.JSONDecodeError)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

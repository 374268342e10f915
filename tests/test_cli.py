import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import klinkage
import klinkage.digraph
from klinkage.cli import main
from klinkage.jsonio import (
    MAX_ORDER,
    digraph_from_obj,
    digraph_to_obj,
    dumps_canonical,
    load_digraph,
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klinkage.__file__)))
    return subprocess.run([sys.executable, "-m", "klinkage.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


_K3 = {"n": 3, "arcs": [[0, 1], [0, 2], [1, 2]]}


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


class TestGen:
    def test_circulant_then_kappa(self, workdir):
        path = os.path.join(workdir, "c7.json")
        code, _ = run_cli(["gen", "--family", "circulant", "--n", "7", "-o", path])
        assert code == 0
        code, out = run_cli(["check", "--input", path, "--kappa"])
        assert code == 0
        assert json.loads(out)["kappa"] == 3

    def test_roundtrip_identical_digraph(self, workdir):
        path = os.path.join(workdir, "t.json")
        run_cli(["gen", "--family", "tournament", "--n", "15", "--seed", "4", "-o", path])
        d, _ = load_digraph(path)
        assert dumps_canonical(digraph_to_obj(d)) == dumps_canonical(
            digraph_to_obj(digraph_from_obj(digraph_to_obj(d))[0])
        )

    def test_seed_echoed(self, workdir):
        path = os.path.join(workdir, "t.json")
        run_cli(["gen", "--family", "tournament", "--n", "6", "--seed", "9", "-o", path])
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["meta"]["seed"] == 9

    def test_dot_sibling(self, workdir):
        path = os.path.join(workdir, "t.json")
        run_cli(["gen", "--family", "tournament", "--n", "4", "--seed", "1",
                 "-o", path, "--dot"])
        with open(os.path.join(workdir, "t.dot"), encoding="utf-8") as fh:
            assert fh.read().startswith("digraph")

    def test_dot_sibling_keeps_a_dotted_directory(self, workdir):
        # only the file name's extension is replaced, never a directory's
        os.mkdir(os.path.join(workdir, "out.d"))
        path = os.path.join(workdir, "out.d", "t")
        code, _ = run_cli(["gen", "--family", "tournament", "--n", "4", "-o", path, "--dot"])
        assert code == 0
        assert sorted(os.listdir(os.path.join(workdir, "out.d"))) == ["t", "t.dot"]

    def test_dot_without_output_writes_nothing(self, workdir, monkeypatch):
        # --dot names its file after -o: without one, the usage error comes
        # before any work, so stdout stays empty and no solver runs
        path = os.path.join(workdir, "k.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_K3, fh)
        monkeypatch.setattr("klinkage.cli.solve_semicomplete", None)
        for argv in (["gen", "--family", "tournament", "--n", "4", "--dot"],
                     ["solve", "--input", path, "--class", "semicomplete", "--pairs", "0:2",
                      "--dot"]):
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run_cli(argv)
            assert (code, out) == (2, ""), argv
            assert "--dot needs -o" in err.getvalue()

    def test_dot_report_path_writes_nothing(self, workdir, monkeypatch):
        # the .dot sibling of a report path ending in .dot is the report
        # itself: refused before any work, so no file appears and no solver runs
        path = os.path.join(workdir, "k.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_K3, fh)
        monkeypatch.setattr("klinkage.cli.solve_semicomplete", None)
        report = os.path.join(workdir, "rep.dot")
        for argv in (["gen", "--family", "tournament", "--n", "4"],
                     ["solve", "--input", path, "--class", "semicomplete", "--pairs", "0:2"]):
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run_cli([*argv, "-o", report, "--dot"])
            assert (code, out) == (2, ""), argv
            assert "--dot would write over the report" in err.getvalue()
        assert os.listdir(workdir) == ["k.json"]

    def test_composition_carries_parts(self, workdir):
        path = os.path.join(workdir, "comp.json")
        run_cli(["gen", "--family", "composition", "--part-sizes", "2,3,2",
                 "--p-double", "0.5", "--seed", "3", "-o", path])
        _, parts = load_digraph(path)
        assert parts == [[0, 1], [2, 3, 4], [5, 6]]


    @pytest.mark.parametrize("family, size, error", [
        (family, ["--n", str(n)], "--n must be at most")
        for family in ("tournament", "circulant", "semicomplete")
        for n in (MAX_ORDER + 1, 10 ** 9)
    ] + [
        (family, ["--part-sizes", sizes], "--part-sizes must sum to at most")
        for family in ("composition", "extended-tournament")
        for sizes in (f"{MAX_ORDER},1", f"2,{10 ** 9}")
    ] + [
        # the family's order is 2k - 4 + |core|, and the default core has 4 vertices
        ("non-linked", ["--k", str(k)], "--k must give an order 2k-4+|core| of at most")
        for k in (MAX_ORDER // 2 + 1, 10 ** 9)
    ])
    def test_order_above_the_ceiling_generates_nothing(self, family, size, error, monkeypatch):
        for name in ("random_tournament", "circulant_tournament", "random_semicomplete",
                     "random_composition", "random_extended_tournament", "non_linked_family"):
            monkeypatch.setattr(f"klinkage.cli.{name}", _no_generator)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["gen", "--family", family, *size])
        assert (code, out, err.getvalue()) == (2, "", f"error: InputError: {error} {MAX_ORDER}\n")

    def test_non_linked_order_counts_the_core(self, workdir, monkeypatch):
        # a 5-vertex core puts k = MAX_ORDER / 2 one vertex above the ceiling
        monkeypatch.setattr("klinkage.cli.non_linked_family", _no_generator)
        path = os.path.join(workdir, "core.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 5, "arcs": [[i, (i + 1) % 5] for i in range(5)]}, fh)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["gen", "--family", "non-linked", "--k", str(MAX_ORDER // 2),
                                 "--core", path])
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("error: InputError: --k must give an order")

    @pytest.mark.parametrize("family, size", [
        ("tournament", ["--n", str(MAX_ORDER)]),
        ("composition", ["--part-sizes", f"{MAX_ORDER - 1},1"]),
        ("non-linked", ["--k", str(MAX_ORDER // 2)]),
    ])
    def test_order_at_the_ceiling_is_generated(self, family, size, monkeypatch):
        for name in ("random_tournament", "random_composition", "non_linked_family"):
            monkeypatch.setattr(f"klinkage.cli.{name}", _no_generator)
        with pytest.raises(_Generated):
            run_cli(["gen", "--family", family, *size])


class _Generated(Exception):
    """Raised by ``_no_generator`` in place of building a large digraph."""


def _no_generator(*args):
    raise _Generated


class TestCheckFlags:
    def test_king_exit_codes(self, workdir):
        path = os.path.join(workdir, "c3.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}, fh)
        code, out = run_cli(["check", "--input", path, "--king", "1"])
        assert code == 0 and json.loads(out)["in_king"] is True
        # the source of a transitive tournament is unreachable
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 3, "arcs": [[0, 1], [0, 2], [1, 2]]}, fh)
        code, out = run_cli(["check", "--input", path, "--king", "0"])
        assert code == 1

    def test_nid_profile_dump(self, workdir):
        path = os.path.join(workdir, "t.json")
        run_cli(["gen", "--family", "tournament", "--n", "12", "--seed", "2", "-o", path])
        code, out = run_cli(["check", "--input", path, "--nid", "--profile"])
        assert code == 0
        obj = json.loads(out)
        assert "widths" in obj and "dominators" in obj
        assert len(obj["widths"]) == 11

    def test_semicomplete_and_lqt_flags(self, workdir):
        path = os.path.join(workdir, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 3, "arcs": [[0, 1], [1, 2]]}, fh)
        code, _ = run_cli(["check", "--input", path, "--semicomplete"])
        assert code == 1
        code, _ = run_cli(["check", "--input", path, "--lqt", "2"])
        assert code == 1
        # one negative check fails the run, whichever flag comes last
        comp = os.path.join(workdir, "c.json")
        code, _ = run_cli(["gen", "--family", "composition", "--part-sizes", "2,2",
                           "--seed", "1", "-o", comp])
        assert code == 0
        code, out = run_cli(["check", "--input", comp, "--semicomplete", "--lqt", "2"])
        obj = json.loads(out)
        assert (obj["semicomplete"], obj["l_quasi_transitive"]) == (False, True)
        assert code == 1

    def test_lqt_budget_overrun_is_exit_four(self, workdir, monkeypatch):
        path = os.path.join(workdir, "near.json")
        arcs = [[i, j] for i in range(10) for j in range(10) if i != j and {i, j} != {0, 1}]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 10, "arcs": arcs}, fh)
        code, out = run_cli(["check", "--input", path, "--lqt", "40"])
        assert code == 0 and json.loads(out)["l_quasi_transitive"] is True
        monkeypatch.setattr(klinkage.digraph, "LQT_EXPANSION_BUDGET", 10)
        for argv in (["check", "--input", path, "--lqt", "9"],
                     ["solve", "--input", path, "--class", "lqt", "--l", "9",
                      "--pairs", "2:3", "--skip-audit"]):
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run_cli(argv)
            assert code == 4 and out == ""
            assert err.getvalue().startswith("error: BudgetExceededError:")


class TestSolveExitCodes:
    def test_hypothesis_violation_is_exit_three(self, workdir):
        path = os.path.join(workdir, "tt.json")
        arcs = [[i, j] for i in range(8) for j in range(i + 1, 8)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 8, "arcs": arcs}, fh)
        code, out = run_cli(["solve", "--input", path, "--class", "semicomplete",
                             "--pairs", "0:1,2:3"])
        assert code == 3
        assert "kappa" in json.loads(out)["failure"]

    def test_linked_is_exit_zero(self, workdir):
        path = os.path.join(workdir, "k.json")
        arcs = [[i, j] for i in range(10) for j in range(10) if i != j]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 10, "arcs": arcs}, fh)
        code, out = run_cli(["solve", "--input", path, "--class", "semicomplete",
                             "--pairs", "0:1,2:3", "--skip-audit"])
        assert code == 0
        assert json.loads(out)["outcome"] == "linked"

    def test_malformed_json_is_exit_two(self, workdir):
        path = os.path.join(workdir, "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"n": 3, "arcs": [[0, 1]')
        code, _ = run_cli(["solve", "--input", path, "--class", "semicomplete",
                           "--pairs", "0:1"])
        assert code == 2

    def test_missing_field_is_exit_two(self, workdir):
        path = os.path.join(workdir, "bad2.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"n": 3}')
        code, _ = run_cli(["check", "--input", path, "--kappa"])
        assert code == 2

    def test_order_above_the_ceiling_is_exit_two(self, workdir, monkeypatch):
        """A 29-byte document asking for 10^9 vertices is refused before
        ``Digraph.from_arcs`` allocates a row."""
        def no_build(*args):
            pytest.fail("from_arcs called above the ceiling")
        monkeypatch.setattr(klinkage.digraph.Digraph, "from_arcs", no_build)
        path = os.path.join(workdir, "huge.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"n": 1000000000, "arcs": []}')
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["check", "--input", path, "--kappa"])
        assert (code, out) == (2, "")
        assert err.getvalue() == f"error: {path}: field 'n' must be at most 10000\n"

    @pytest.mark.parametrize("doc, paths", [
        ({**_K3, "parts": [["a"], [1, 2]]}, None),
        ({**_K3, "parts": [[-1], [0, 1, 2]]}, None),
        ({**_K3, "parts": [[0], [1, 2, 3]]}, None),
        ({**_K3, "parts": [[True], [0, 2]]}, None),
        ({"n": True, "arcs": []}, None),
        ({"n": 2, "arcs": [[True, False]]}, None),
        ({"n": 2, "arcs": [[0, 1.0]]}, None),
        (_K3, {"paths": [["0", 2]], "pairs": [[0, 2]]}),
        (_K3, {"paths": [[0, 1.9]], "pairs": [[0, 2]]}),
        (_K3, {"paths": [[True, 2]], "pairs": [[1, 2]]}),
        (_K3, {"paths": [[0, 2]], "pairs": [[False, 2]]}),
        (_K3, {"paths": [[0, 2]], "pairs": [[0, "2"]]}),
    ], ids=["non-integer", "negative", "out-of-range", "parts-bool", "n-bool", "arc-bool",
            "arc-float", "path-string", "path-float", "path-bool", "pair-bool", "pair-string"])
    def test_malformed_parts_is_exit_two(self, workdir, doc, paths):
        """Ids that are not JSON integers, or are out of range, in the digraph
        or in the path system are a FormatError: exit 2, "error: <file>: ..."."""
        path = os.path.join(workdir, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if paths is None:
            bad, argv = path, ["solve", "--input", path, "--class", "composition", "--pairs", "0:2"]
        else:
            bad = os.path.join(workdir, "paths.json")
            with open(bad, "w", encoding="utf-8") as fh:
                json.dump(paths, fh)
            argv = ["verify", "--input", path, "--paths", bad]
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(argv)
        assert code == 2
        assert err.getvalue().startswith(f"error: {bad}: "), err.getvalue()


class TestInvalidInputExitTwo:
    """Arguments that fail validation exit 2 with a one-line error, no traceback."""

    @pytest.fixture()
    def k6(self, workdir):
        path = os.path.join(workdir, "k6.json")
        arcs = [[i, j] for i in range(6) for j in range(6) if i != j]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 6, "arcs": arcs}, fh)
        return path

    @pytest.mark.parametrize("argv", [
        ["solve", "--class", "semicomplete", "--pairs", "0:1,1:2"],
        ["oracle", "--pairs", "0:1,1:2"],
        ["check", "--lqt", "0"],
        ["check", "--nid", "--cmax", "0"],
        ["check", "--nid", "--cmax", "-1"],
        ["oracle", "--k", "-1"],
    ], ids=["solve-terminal-twice", "oracle-terminal-twice", "check-lqt-zero",
            "check-nid-cmax-zero", "check-nid-cmax-negative", "oracle-k-negative"])
    def test_exit_two_without_traceback(self, k6, argv):
        out = run_cli_process([argv[0], "--input", k6, *argv[1:]])
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: InputError: ")

    @pytest.mark.parametrize("argv, line", [
        (["solve", "--class", "semicomplete", "--pairs", "0:9"],
         "error: InputError: terminal 9 not in digraph\n"),
        (["check", "--king", "0"],
         "error: PreconditionViolatedError: in-kings are defined on tournaments\n"),
    ], ids=["id-out-of-range", "king-not-tournament"])
    def test_error_line_names_the_kind(self, k6, argv, line):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli([argv[0], "--input", k6, *argv[1:]])
        assert (code, out, err.getvalue()) == (2, "", line)

    def test_one_part_composition(self, workdir):
        path = os.path.join(workdir, "one.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 4, "arcs": [[0, 1], [1, 2], [2, 3], [3, 0]], "parts": [[0, 1, 2, 3]]},
                      fh)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["solve", "--input", path, "--class", "composition",
                                 "--pairs", "0:2"])
        assert (code, out, err.getvalue()) == (
            2, "", "error: InputError: outer digraph needs at least 2 vertices\n")

    @pytest.mark.parametrize("family, size", [("semicomplete", ["--n", "4"]),
                                              ("composition", ["--part-sizes", "2,2"])])
    @pytest.mark.parametrize("p_double", ["1.5", "-0.5", "nan"])
    def test_p_double_outside_the_unit_interval(self, family, size, p_double):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["gen", "--family", family, *size, "--p-double", p_double])
        assert (code, out, err.getvalue()) == (
            2, "", "error: InputError: p_double must lie in [0, 1]\n")

    def test_part_repeating_a_vertex(self, workdir):
        path = os.path.join(workdir, "repeat.json")
        run_cli(["gen", "--family", "composition", "--part-sizes", "2,3,2", "--p-double", "0.5",
                 "--seed", "3", "-o", path])
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["parts"] == [[0, 1], [2, 3, 4], [5, 6]]
        doc["parts"] = [[0, 1], [2, 3, 4], [5, 6, 6]]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["solve", "--input", path, "--class", "composition",
                                 "--pairs", "0:2", "--skip-audit"])
        assert (code, out, err.getvalue()) == (2, "", "error: InputError: part repeats vertex 6\n")

    @pytest.mark.parametrize("command, flags, line", [
        ("solve", ["--l", "1"], "need k >= 1 and l >= 2"),
        ("solve", ["--threshold", "0"], "threshold must be positive"),
        ("solve", ["--anchor-budget", "-1"], "budget must be at least 0, got -1"),
        ("solve", ["--l", "1", "--threshold", "0", "--anchor-budget", "-1"],
         "need k >= 1 and l >= 2"),
        ("solve", ["--threshold", "0", "--anchor-budget", "-1"], "threshold must be positive"),
        ("check", ["--kappa", "--lqt", "0"], "path length must be at least 1"),
        ("check", ["--lqt", "0", "--nid", "--cmax", "0"], "path length must be at least 1"),
        ("check", ["--nid", "--cmax", "0"], "c_max must be at least 1, got 0"),
        ("oracle", ["--k", "1", "--budget", "-5"], "budget must be at least 0, got -5"),
    ], ids=["l", "threshold", "anchor-budget", "all-three", "threshold-and-budget",
            "check-lqt", "check-lqt-and-cmax", "check-cmax", "oracle-budget"])
    def test_lqt_flags_before_the_input_is_read(self, workdir, command, flags, line):
        # the library's own messages, in its order, and the missing file is never opened
        if command == "solve":
            flags = ["--class", "lqt", "--pairs", "0:1", *flags]
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli([command, "--input", os.path.join(workdir, "absent.json"), *flags])
        assert (code, out, err.getvalue()) == (2, "", f"error: InputError: {line}\n")

    def test_cmax_ignored_without_nid(self, workdir):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["check", "--input", os.path.join(workdir, "absent.json"),
                                 "--kappa", "--cmax", "0"])
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("error: [Errno 2]")

    def test_lqt_flags_ignored_by_other_classes(self, workdir):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["solve", "--input", os.path.join(workdir, "absent.json"),
                                 "--class", "semicomplete", "--pairs", "0:1", "--l", "1",
                                 "--threshold", "0", "--anchor-budget", "-1"])
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("error: [Errno 2]")

    def test_missing_input_file(self, workdir):
        out = run_cli_process(["check", "--input", os.path.join(workdir, "absent.json"), "--kappa"])
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: [Errno 2]")

    @pytest.mark.parametrize("only", ["99", "x"])
    def test_bench_unknown_criterion(self, only):
        out = run_cli_process(["bench", "--only", only])
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr


class TestVerifyCommand:
    def test_tampered_arc_fails_with_clause(self, workdir):
        dpath = os.path.join(workdir, "d.json")
        ppath = os.path.join(workdir, "ps.json")
        with open(dpath, "w", encoding="utf-8") as fh:
            json.dump({"n": 4, "arcs": [[0, 1], [2, 3]]}, fh)
        with open(ppath, "w", encoding="utf-8") as fh:
            json.dump({"paths": [[0, 1], [2, 3]], "pairs": [[0, 1], [2, 3]]}, fh)
        code, out = run_cli(["verify", "--input", dpath, "--paths", ppath])
        assert code == 0
        # delete one arc from the digraph: same system must now fail
        with open(dpath, "w", encoding="utf-8") as fh:
            json.dump({"n": 4, "arcs": [[0, 1]]}, fh)
        code, out = run_cli(["verify", "--input", dpath, "--paths", ppath])
        assert code == 1
        assert json.loads(out)["clause"] == "ArcMembership"


    @staticmethod
    def _documents(workdir, paths, pairs):
        """A 4-vertex digraph with arcs 0->1 and 2->3, and a path-system
        document; returns their file names."""
        dpath = os.path.join(workdir, "d.json")
        ppath = os.path.join(workdir, "ps.json")
        with open(dpath, "w", encoding="utf-8") as fh:
            json.dump({"n": 4, "arcs": [[0, 1], [2, 3]]}, fh)
        with open(ppath, "w", encoding="utf-8") as fh:
            json.dump({"paths": paths, "pairs": pairs}, fh)
        return dpath, ppath

    @pytest.mark.parametrize("pairs", [None, "0:1,2:3"])
    def test_one_pair_per_path_required(self, workdir, pairs):
        # checked on the document, before --pairs replaces its pairs
        dpath, ppath = self._documents(workdir, [[0, 1], [2, 3]], [[0, 1]])
        argv = ["verify", "--input", dpath, "--paths", ppath]
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(argv + (["--pairs", pairs] if pairs else []))
        assert (code, out) == (2, "")
        assert err.getvalue() == (f"error: {ppath}: malformed path system: "
                                  "one (source, target) role per path required\n")

    def test_document_pairs_are_checked(self, workdir):
        # without --pairs the document's pairs are the claim, not its paths' ends
        dpath, ppath = self._documents(workdir, [[0, 1], [2, 3]], [[0, 1], [3, 2]])
        code, out = run_cli(["verify", "--input", dpath, "--paths", ppath])
        assert code == 1
        assert json.loads(out) == {"ok": False, "clause": "Pairing",
                                   "detail": "path 1 does not run 3->2"}

    def test_pairs_flag_overrides_the_document(self, workdir):
        dpath, ppath = self._documents(workdir, [[0, 1], [2, 3]], [[0, 1], [3, 2]])
        argv = ["verify", "--input", dpath, "--paths", ppath, "--pairs"]
        code, out = run_cli(argv + ["0:1,2:3"])
        assert (code, json.loads(out)) == (0, {"ok": True})
        code, out = run_cli(argv + ["0:1,2:1"])
        assert code == 1
        assert json.loads(out)["detail"] == "path 1 does not run 2->1"

    def test_negative_id_on_a_path_is_a_missing_arc(self, workdir):
        dpath = os.path.join(workdir, "d.json")
        ppath = os.path.join(workdir, "ps.json")
        with open(dpath, "w", encoding="utf-8") as fh:
            json.dump({"n": 3, "arcs": [[0, 1], [1, 2]]}, fh)
        with open(ppath, "w", encoding="utf-8") as fh:
            json.dump({"paths": [[0, -1, 2]], "pairs": [[0, 2]]}, fh)
        out = run_cli_process(["verify", "--input", dpath, "--paths", ppath])
        assert out.returncode == 1, out.stderr
        assert "Traceback" not in out.stderr
        assert json.loads(out.stdout)["clause"] == "ArcMembership"


class TestOracleCommand:
    def test_non_linked_family_oracle(self, workdir):
        path = os.path.join(workdir, "p2.json")
        run_cli(["gen", "--family", "non-linked", "--k", "3", "-o", path])
        code, out = run_cli(["oracle", "--input", path, "--k", "3"])
        assert code == 1
        assert json.loads(out)["outcome"] == "not_k_linked"

    def test_budget_exit_code(self, workdir):
        path = os.path.join(workdir, "k.json")
        arcs = [[i, j] for i in range(8) for j in range(8) if i != j]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 8, "arcs": arcs}, fh)
        for mode, budget in ((["--k", "2"], 3), (["--pairs", "0:1,2:3,4:5"], 2)):
            code, out = run_cli(["oracle", "--input", path, *mode, "--budget", str(budget)])
            assert code == 4
            assert out == f'{{\n  "budget": {budget},\n  "outcome": "budget_exceeded"\n}}\n'

    def test_negative_budget_is_exit_two(self, workdir):
        # a budget below 0 is malformed input, not an overrun; 0 stays legal.
        # The lqt flags are checked before the audit, so the transitive
        # tournament, which is not strong, exits 2 too
        path = os.path.join(workdir, "e.json")
        run_cli(["gen", "--family", "extended-tournament", "--part-sizes", "1,2,3,1,2,3",
                 "--seed", "76000", "-o", path])
        lqt = ["solve", "--input", path, "--class", "lqt", "--pairs", "3:0", "--threshold", "1",
               "--skip-audit", "--anchor-budget"]
        code, out = run_cli([*lqt, "0"])
        assert (code, json.loads(out)["stage"]) == (1, "anchor-pair")
        transitive = os.path.join(workdir, "t.json")
        with open(transitive, "w", encoding="utf-8") as fh:
            json.dump({"n": 6, "arcs": [[i, j] for i in range(6) for j in range(i + 1, 6)]}, fh)
        not_strong = ["solve", "--input", transitive, "--class", "lqt", "--pairs", "0:5"]
        # l = 1 is refused whether or not a threshold stands in for the pool size
        tournament = os.path.join(workdir, "t12.json")
        run_cli(["gen", "--family", "tournament", "--n", "12", "--seed", "3", "-o", tournament])
        l_one = ["solve", "--input", tournament, "--class", "lqt", "--l", "1", "--pairs", "0:5",
                 "--threshold", "1"]
        budget, threshold = "budget must be at least 0", "threshold must be positive"
        need = "need k >= 1 and l >= 2"
        for argv, message in ((["oracle", "--input", path, "--k", "1", "--budget", "-5"], budget),
                              (["oracle", "--input", path, "--pairs", "3:0", "--budget", "-5"],
                               budget),
                              ([*lqt, "-1"], budget),
                              ([*not_strong, "--anchor-budget", "-1"], budget),
                              ([*not_strong, "--threshold", "-3"], threshold),
                              ([*not_strong, "--threshold", "0"], threshold),
                              ([*l_one, "--skip-audit"], need),
                              (l_one, need)):
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run_cli(argv)
            assert (code, out) == (2, ""), argv
            assert err.getvalue().startswith(f"error: InputError: {message}"), argv

    def test_composition_solve_uses_parts(self, workdir):
        path = os.path.join(workdir, "comp.json")
        run_cli(["gen", "--family", "composition", "--part-sizes", "3,3,3,3,3,3",
                 "--p-double", "0.9", "--seed", "3", "-o", path])
        code, out = run_cli(["solve", "--input", path, "--class", "composition",
                             "--pairs", "0:9,4:12", "--skip-audit"])
        assert code in (0, 1)  # linked or an honest stage diagnosis
        assert "audit" in json.loads(out)

    def test_pairs_mode_found(self, workdir):
        path = os.path.join(workdir, "k.json")
        arcs = [[i, j] for i in range(6) for j in range(6) if i != j]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 6, "arcs": arcs}, fh)
        code, out = run_cli(["oracle", "--input", path, "--pairs", "0:1,2:3"])
        assert code == 0
        assert json.loads(out)["outcome"] == "found"


class TestDeterminism:
    def test_gen_twice_identical(self, workdir):
        outs = []
        for run in range(2):
            path = os.path.join(workdir, f"g{run}.json")
            run_cli(["gen", "--family", "semicomplete", "--n", "25", "--p-double",
                     "0.3", "--seed", "12", "-o", path])
            with open(path, encoding="utf-8") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_solve_twice_identical(self, workdir):
        path = os.path.join(workdir, "t.json")
        run_cli(["gen", "--family", "tournament", "--n", "80", "--seed", "6", "-o", path])
        runs = [
            run_cli(["solve", "--input", path, "--class", "semicomplete",
                     "--pairs", "0:40,20:60", "--skip-audit", "--seed", "6"])
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_solve_dot_highlights_paths(self, workdir):
        path = os.path.join(workdir, "k.json")
        arcs = [[i, j] for i in range(10) for j in range(10) if i != j]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 10, "arcs": arcs}, fh)
        out = os.path.join(workdir, "rep.json")
        code, _ = run_cli(["solve", "--input", path, "--class", "semicomplete",
                           "--pairs", "0:1,2:3", "--skip-audit", "-o", out, "--dot"])
        assert code == 0
        with open(os.path.join(workdir, "rep.dot"), encoding="utf-8") as fh:
            dot = fh.read()
        assert "color=red" in dot

    def test_kernel_bench_runs(self):
        # criterion 3 checks the flow kernel against exhaustive search
        code, out = run_cli(["bench", "--only", "3"])
        assert code == 0
        assert out.startswith("PASS  flow vs exhaustive search")
        assert out.splitlines()[-1].startswith("OK  1 criteria in")


# -- fuzzing the CLI in-process ------------------------------------------------

_small = st.integers(-1, 8)
_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=3))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def _digraph_objs(draw):
    """A well-formed digraph document, semicomplete half of the time, with
    parts (a partition that may or may not be a composition) sometimes."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                kind = draw(st.sampled_from(["fwd", "bwd", "both"]))
                if kind != "bwd":
                    arcs.append([u, v])
                if kind != "fwd":
                    arcs.append([v, u])
    else:
        ids = st.integers(0, n - 1)
        arcs = sorted(list(a) for a in draw(st.sets(st.tuples(ids, ids).filter(
            lambda a: a[0] != a[1]), max_size=n * (n - 1))))
    obj = {"n": n, "arcs": arcs}
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        obj["parts"] = [[v for v in range(n) if labels[v] == i] for i in sorted(set(labels))]
    return obj


_malformed_digraph_docs = st.one_of(
    _digraph_objs().flatmap(lambda obj: st.lists(
        st.lists(st.one_of(_small, _json_scalars), max_size=4), max_size=4).map(
        lambda parts: json.dumps({**obj, "parts": parts}))),
    st.fixed_dictionaries(
        {"n": st.integers(-1, 7), "arcs": st.lists(st.lists(_small, min_size=2, max_size=2),
                                                   max_size=12)},
        optional={"parts": st.lists(st.lists(st.one_of(_small, _json_scalars), max_size=4),
                                    max_size=4)},
    ).map(json.dumps),
    st.fixed_dictionaries({"n": _json_values, "arcs": _json_values},
                          optional={"parts": _json_values}).map(json.dumps),
    _json_values.map(json.dumps),
    st.text(max_size=10),
)
_path_docs = st.fixed_dictionaries({
    "paths": st.lists(st.lists(_small, max_size=5), max_size=3),
    "pairs": st.lists(st.lists(_small, min_size=2, max_size=2), max_size=3),
}).map(json.dumps)
_malformed_path_docs = st.one_of(_json_values.map(json.dumps), st.text(max_size=10))


# the fuzzed (command, solver class) options, each drawn about as often
_OPTIONS = (("gen", None), ("check", None), ("solve", "semicomplete"), ("solve", "composition"),
            ("solve", "lqt"), ("verify", None), ("oracle", None))


@st.composite
def _cli_runs(draw, commands=("gen", "check", "solve", "verify", "oracle")):
    """(argv with {g}/{p}/{o}/{missing} file placeholders, digraph text, path system text).

    Half of the runs are clean: every value parses and the documents are
    well formed, so they reach the solvers and checks.  The other half may
    also draw malformed values, documents and missing files.
    """
    # drawn first: Hypothesis fills the choices after a novel prefix with
    # their simplest values often, and that would favour the first option
    command, klass = draw(st.sampled_from([o for o in _OPTIONS if o[0] in commands]))
    clean = draw(st.booleans())

    def either(valid, malformed):
        return valid if clean else st.one_of(valid, malformed)

    if clean:
        doc = draw(_digraph_objs())
        doc_text, n = json.dumps(doc), doc["n"]
    else:
        doc_text = draw(st.one_of(_digraph_objs().map(json.dumps), _malformed_digraph_docs))
        n = 8
    paths_text = draw(either(_path_docs, _malformed_path_docs))
    ints = either(st.integers(-1, n).map(str), st.sampled_from(["", "x", "1.5"]))
    terminals = draw(st.permutations(range(n)))
    k = draw(st.integers(1, 3))
    pairs = ",".join(f"{a}:{b}" for a, b in zip(terminals[:k], terminals[k:2 * k]))
    pairs = draw(either(st.just(pairs or "0:1"), st.text(alphabet="0123456789:,- x", max_size=8)))
    input_file = draw(either(st.just("{g}"), st.just("{missing}")))
    argv = [command]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, draw(values)])

    def switch(flag):
        if draw(st.booleans()):
            argv.append(flag)

    if command == "gen":
        argv += ["--family", draw(either(st.sampled_from(
            ["tournament", "circulant", "semicomplete", "composition",
             "extended-tournament", "non-linked"]), st.just("bogus")))]
        maybe("--n", either(st.integers(1, 9).map(str), ints))
        maybe("--k", st.integers(-1, 4).map(str))
        maybe("--p-double", either(st.sampled_from(["0", "0.2", "1"]), st.sampled_from(["2", "x"])))
        maybe("--part-sizes", either(
            st.lists(st.integers(1, 3), min_size=2, max_size=4).map(lambda s: ",".join(map(str, s))),
            st.text(alphabet="0123,x", max_size=5)))
        switch("--part-arcs")
        maybe("--core", st.just(input_file))
    else:
        argv += ["--input", input_file]
    if command == "check":
        switch("--kappa")
        switch("--semicomplete")
        maybe("--lqt", st.integers(-1, 40).map(str))
        maybe("--king", ints)
        switch("--nid")
        maybe("--vertex", ints)
        maybe("--cmax", ints)
        switch("--profile")
    elif command == "solve":
        argv += ["--class", draw(either(st.just(klass), st.just("x")))]
        argv += ["--pairs", pairs]
        maybe("--l", st.integers(-1, 40).map(str))
        maybe("--threshold", st.integers(-1, 5).map(str))
        maybe("--anchor-budget", st.integers(-1, 50).map(str))
        switch("--skip-audit")
    elif command == "verify":
        argv += ["--paths", draw(either(st.just("{p}"), st.just("{missing}")))]
        maybe("--pairs", st.just(pairs))
    elif command == "oracle":
        maybe("--k", st.integers(-1, 3).map(str))
        maybe("--pairs", st.just(pairs))
        argv += ["--budget", draw(st.integers(-1, 3_000).map(str))]
    maybe("--seed", ints)
    if draw(st.booleans()):
        argv += ["-o", "{o}"]
    if command in ("gen", "solve"):
        switch("--dot")
    return argv, doc_text, paths_text


# per command, the flags with a smallest legal value and the start of the error
# their range check raises (for solve, with --class lqt; for check --cmax, with --nid)
_RANGED = {"solve": (("--threshold", 1, "threshold must be positive"),
                     ("--anchor-budget", 0, "budget must be at least 0"),
                     ("--l", 2, "need k >= 1 and l >= 2")),
           "check": (("--lqt", 1, "path length must be at least 1"),
                     ("--cmax", 1, "c_max must be at least 1")),
           "oracle": (("--budget", 0, "budget must be at least 0"),)}


def _below_range(argv) -> list[str]:
    """The errors of the flags the argv sets below their smallest legal
    value, empty if none: malformed input, whatever the documents hold."""
    if argv[0] == "solve" and argv[argv.index("--class") + 1] != "lqt":
        return []
    errors = []
    for flag, low, error in _RANGED.get(argv[0], ()):
        if flag not in argv or (flag == "--cmax" and "--nid" not in argv):
            continue
        value = argv[argv.index(flag) + 1]
        if value.lstrip("-").isdigit() and int(value) < low:
            errors.append(error)
    return errors


@st.composite
def _below_range_runs(draw, command, flag, low):
    """A run of ``command`` with ``flag`` set below its smallest legal value
    ``low``, and in half the runs no input to read."""
    argv, doc, paths = draw(_cli_runs(commands=(command,)))
    if command == "solve":
        argv[argv.index("--class") + 1] = "lqt"
    value = str(draw(st.integers(-1, low - 1)))
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    if flag == "--cmax" and "--nid" not in argv:
        argv.append("--nid")
    if draw(st.booleans()):  # the range checks come before the input is read
        argv[argv.index("--input") + 1] = "{missing}"
    return argv, doc, paths


def _p_double_above_range(argv) -> bool:
    """A run of ``gen`` that draws from a semicomplete family with ``--p-double 2``."""
    return (argv[0] == "gen" and argv[2] in ("semicomplete", "composition")
            and "--p-double" in argv and argv[argv.index("--p-double") + 1] == "2")


def _run_fuzzed(argv, doc, paths):
    """The run's argv with its files filled in, its exit code, its stdout
    and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, name) for name in ("g", "p", "o", "missing")}
        for name, text in (("g", doc), ("p", paths)):
            with open(files[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [a.format(**files) for a in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    return argv, code, out.getvalue(), err.getvalue()


class TestFuzz:
    """Random argv and documents: every run exits 0-4 and raises nothing,
    and a run with a flag below its range, or with ``gen --p-double 2`` for
    a family that reads it, exits 2 with nothing on stdout."""

    @given(_cli_runs())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_code_in_range(self, run):
        argv, code, out, _err = _run_fuzzed(*run)
        assert code in (0, 1, 2, 3, 4), (argv, *run[1:])
        if _below_range(argv) or _p_double_above_range(argv):
            assert (code, out) == (2, ""), (argv, *run[1:])

    @given(st.data())
    # no shrink phase: a failing example of six CLI runs took minutes to shrink
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow],
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    def test_flag_below_range_is_exit_two(self, data):
        """About one example in thirty above sets a flag below its range;
        each example here makes one run per ranged flag, set below its
        range.  The range checks run before the input is read, so the error
        is one of theirs (or argparse's, or solve's ``--dot`` check), never
        one of a missing or malformed document."""
        for command, flags in _RANGED.items():
            for flag, low, _error in flags:
                run = data.draw(_below_range_runs(command, flag, low))
                errors = _below_range(run[0])
                assert errors
                argv, code, out, err = _run_fuzzed(*run)
                assert (code, out) == (2, ""), (argv, *run[1:])
                assert err.startswith(("usage:", "error: --dot")) or any(
                    err.startswith(f"error: InputError: {error}") for error in errors), (argv, err)

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import klinkage
from klinkage.cli import main
from klinkage.jsonio import (
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

    def test_composition_carries_parts(self, workdir):
        path = os.path.join(workdir, "comp.json")
        run_cli(["gen", "--family", "composition", "--part-sizes", "2,3,2",
                 "--p-double", "0.5", "--seed", "3", "-o", path])
        _, parts = load_digraph(path)
        assert parts == [[0, 1], [2, 3, 4], [5, 6]]


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
    ], ids=["solve-terminal-twice", "oracle-terminal-twice", "check-lqt-zero",
            "check-nid-cmax-zero", "check-nid-cmax-negative"])
    def test_exit_two_without_traceback(self, k6, argv):
        out = run_cli_process([argv[0], "--input", k6, *argv[1:]])
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: InputError: ")

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
        code, out = run_cli(["oracle", "--input", path, "--k", "2", "--budget", "3"])
        assert code == 4

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

"""klinkage solve benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload sc-audited --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each
    python3 perfbench/run.py --pin                   # re-record pinned.json

A run (1) makes sure the workload's input pool exists and matches the
sha256 pinned in ``pinned.json``, generating it from the pinned workload
seed when missing and refusing to run on a mismatch; (2) measures set-up in
several fresh processes; (3) runs the closed solve loop in one fresh worker
process for ``--seconds``, visiting the pool in an order drawn from
``--seed`` and probing the host's speed around every solve; (4) checks every report against the outcome pinned for that
instance and re-checks every linked path system against the input JSON with
a checker of its own; (5) prints a table, a ``meta`` line and, last, one
JSON result line.  The end-to-end times are scaled to a reference host
speed (see ``ref_per_instance``); the table also gives them as measured.
``--trace 1`` reports per-layer metrics instead of the end-to-end ones.  The exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import COUNTERS, traced_names  # noqa: E402
from worker import PROBE_MIN_S, PROBE_SHARE, probe  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, WORKLOADS, import_klinkage, instances, pool_digest, pool_files, write_pool,
)

PINNED = os.path.join(HERE, "pinned.json")
INPUTS = os.path.join(ROOT, ".bench_inputs")
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 5  # set-up processes per timed run
MARGIN_S = 120  # workers are killed this long after the measured time would end
TAIL_MIN_SAMPLES = 100  # below this the tail percentile falls under p90: no tail
REF_UNIT_S = 0.001  # the reference host runs one calibration unit in exactly 1 ms

# every stage name a SolveReport can carry at the pinned commit
STAGES = (
    "dominating-set", "menger", "two-paths", "anchor-direct", "anchor-landed", "verify",
    "path", "degenerate", "two-part", "filled-subsolve",
    "auxiliary", "anchor-pair", "source-helper", "source-replacement", "targets",
    "anchor-link", "anchor-replacement",
)

END_TO_END_UNITS = {
    "ref_solve_s.p50": "s",
    "ref_solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.incl_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name in COUNTERS:
            suffix, _counter, share = COUNTERS[name]
            units[f"{name}.{suffix}"] = "ratio" if share else "count"
    for stage in STAGES:
        units[f"stage_failed.{stage}"] = "count"
    units["solves"] = "count"
    units["unattributed_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


# -- inputs -------------------------------------------------------------------


def read_pinned() -> dict:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def ensure_pool(name: str, pin: dict) -> str:
    """Directory of the workload's pool, generated if missing, digest-checked."""
    pool_dir = os.path.join(INPUTS, f"{name}-{pin['seed']}")
    if os.path.isdir(pool_dir) and pool_digest(pool_dir) == pin["sha256"]:
        return pool_dir
    if write_pool(name, pin["seed"], pool_dir) != pin["sha256"]:
        raise BenchError(
            f"{name}: generated inputs do not match the pinned sha256 {pin['sha256']}; "
            "the generators changed, so parent and change would not see the same inputs"
        )
    return pool_dir


# -- independent checker (does not use klinkage.verify) --------------------------


def check_system(arcs: set, pairs, system) -> str | None:
    """None when the paths link every pair disjointly along input arcs."""
    paths = [tuple(p) for p in system["paths"]]
    if len(paths) != len(pairs):
        return f"{len(paths)} paths for {len(pairs)} pairs"
    by_ends = {(p[0], p[-1]): p for p in paths if p}
    used: set[int] = set()
    for x, y in pairs:
        path = by_ends.get((x, y))
        if path is None:
            return f"no path from {x} to {y}"
        if len(set(path)) != len(path):
            return f"path {x}->{y} is not simple"
        missing = [a for a in zip(path, path[1:]) if a not in arcs]
        if missing:
            return f"path {x}->{y} uses arc {missing[0]} not in the input"
        if used.intersection(path):
            return f"path {x}->{y} meets another path"
        used.update(path)
    return None


class Checker:
    """Checks solve records against the pinned outcomes and the input files."""

    def __init__(self, pool_dir: str, expected: list[str]):
        self.files = pool_files(pool_dir)
        self.pairs = []
        for path in self.files:
            with open(path, encoding="utf-8") as fh:
                self.pairs.append(json.load(fh)["pairs"])
        self.keys = instances([len(ps) for ps in self.pairs])
        self.expected = expected
        self._arcs: dict[int, set] = {}
        self._checked: dict[tuple[int, str], str | None] = {}

    def arcs(self, g: int) -> set:
        if g not in self._arcs:
            with open(self.files[g], encoding="utf-8") as fh:
                self._arcs[g] = {tuple(a) for a in json.load(fh)["arcs"]}
        return self._arcs[g]

    def problem(self, rec: dict, systems: dict) -> str | None:
        """Why a solve record is wrong, or None."""
        if rec["error"]:
            return f"raised {rec['error']}"
        i = rec["i"]
        outcome = rec["outcome"] if rec["stage"] is None else f"{rec['outcome']}:{rec['stage']}"
        if outcome != self.expected[i]:
            return f"instance {i}: outcome {outcome}, pinned {self.expected[i]}"
        if rec["outcome"] != "linked":
            return None
        key = (i, rec["report"])
        if key not in self._checked:
            g, p = self.keys[i]
            pairs = [tuple(pr) for pr in self.pairs[g][p]]
            self._checked[key] = check_system(self.arcs(g), pairs, systems[rec["report"]])
        return self._checked[key]


# -- processes -----------------------------------------------------------------


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker, killed at ``deadline`` (a perf_counter value); return
    (seconds from its start to ready, its result line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    try:
        with proc:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest = proc.stdout.read()
        if proc.returncode != 0 or first.strip() != "ready":
            raise BenchError(f"worker exited with code {proc.returncode}")
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready_s, (json.loads(rest) if rest.strip() else None)


def git_commit() -> str | None:
    """HEAD of the repository whose top level is ROOT (a clone, worktree or
    submodule); None elsewhere, so an enclosing repository is never named."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    top, head = lines
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else None


# -- statistics ----------------------------------------------------------------


def ref_per_instance(solves: list[dict]) -> dict[int, float]:
    """Each solved instance's median solve seconds at the reference host speed.

    A shared host runs the same pure-Python code up to 1.6 times slower from
    one minute to the next, on every instance alike, so raw times of the same
    code spread past any useful bound.  Each solve is therefore scaled by the
    calibration unit timed right before and after it: its time in units,
    times REF_UNIT_S."""
    scaled: dict[int, list[float]] = {}
    for r in solves:
        scaled.setdefault(r["i"], []).append(r["s"] / r["unit_s"] * REF_UNIT_S)
    return {i: statistics.median(v) for i, v in scaled.items()}


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; None when that percentile would be below p90."""
    if len(samples) < TAIL_MIN_SAMPLES:
        return None
    s = sorted(samples)
    rank = len(s) - 11
    return s[rank], 100.0 * (rank + 1) / len(s)


# -- one workload --------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str], int]:
    """Returns (result object, printable lines, exit code)."""
    pinned = read_pinned()
    pin = pinned["workloads"][name]
    pool_dir = ensure_pool(name, pin)
    deadline = time.perf_counter() + seconds + MARGIN_S
    common = ["--workload", name, "--pool", pool_dir, "--seed", str(seed),
              "--seconds", str(seconds)]
    setup_times, setup_ref = [], []
    if not trace:
        # each set-up is scaled to the reference host speed like a solve,
        # by probes taken in this process right before and after it
        before = probe(PROBE_MIN_S)
        for _ in range(SETUP_RUNS):
            ready_s = run_worker(common + ["--setup-only"], deadline)[0]
            after = probe(max(PROBE_MIN_S, PROBE_SHARE * ready_s))
            setup_times.append(ready_s)
            setup_ref.append(ready_s / ((before + after) / 2) * REF_UNIT_S)
            before = after
    out = run_worker(common + ["--trace", str(int(trace))], deadline)[1]

    checker = Checker(pool_dir, pin["expected"])
    problems = []
    solves = out["solves"]
    failed = 0
    for rec in solves + out.get("untraced_solves", []):
        why = checker.problem(rec, out["systems"])
        if why:
            failed += 1
            problems.append(why)
    attempted = len(solves) + len(out.get("untraced_solves", []))
    lines = [f"workload {name}  seed {seed}  pool {len(checker.keys)} instances "
             f"(workload seed {pin['seed']})"]

    if trace:
        for a, b in zip(solves, out["untraced_solves"]):
            if a.get("report") != b.get("report"):
                failed += 1
                problems.append(f"instance {a['i']}: traced report differs from untraced")
        layers = out["layers"]
        linked = sum(1 for r in solves if r.get("outcome") == "linked")
        verify_calls = layers.get("verify.verify_linkage.calls")
        if verify_calls is not None and verify_calls < linked:
            failed += 1
            problems.append(f"{linked} linked reports but {verify_calls} verify_linkage calls")
        values = dict(layers)
        for stage in STAGES:
            values[f"stage_failed.{stage}"] = sum(1 for r in solves if r.get("stage") == stage)
        values["solves"] = len(solves)
        values["unattributed_s"] = out["unattributed_s"]
        values["trace_overhead_s"] = out["trace_overhead_s"]
        units = per_layer_units()
        lines += layer_summary(values, sum(r["s"] for r in solves))
    else:
        times = [r["s"] for r in solves]
        ref = ref_per_instance(solves)
        reps = [sum(1 for r in solves if r["i"] == i) for i in ref]
        values = {
            "ref_solve_s.p50": statistics.median(ref.values()),
            "ref_solves_per_s": len(ref) / sum(ref.values()),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mib": out["peak_rss_kib"] / 1024.0,
        }
        units = END_TO_END_UNITS
        notes = {
            "ref_solve_s.p50": f"{len(ref)} of {len(checker.keys)} instances, "
                               f"{min(reps)}-{max(reps)} solves each",
            "setup_s": f"median of {len(setup_ref)} processes at reference speed; "
                       f"{statistics.median(setup_times):.6f} s as measured",
        }
        for key, unit in units.items():
            lines.append(f"  {key:<17} {values[key]:>12.6f} {unit:<4} {notes.get(key, '')}")
        lines.append(f"  {'solve_s.p50':<17} {statistics.median(times):>12.6f} s    "
                     f"all {len(times)} solves")
        lines.append(f"  {'solves_per_s':<17} {len(times) / sum(times):>12.6f} 1/s  "
                     "solves per second of solving")
        lines.append(f"  {'unit_s.p50':<17} {statistics.median(r['unit_s'] for r in solves):>12.6f} s"
                     "    calibration unit, the host's speed")
        resolved = tail(times)
        if resolved is None:
            lines.append(f"  {'solve_s.tail':<17} {'unresolved':>12} s    {len(times)} solves, "
                         f"fewer than the {TAIL_MIN_SAMPLES} a p90 or higher needs")
        else:
            lines.append(f"  {'solve_s.tail':<17} {resolved[0]:>12.6f} s    "
                         f"p{resolved[1]:.1f} of {len(times)} solves")
        lines.append(f"  {'fail_ratio':<17} {failed / attempted:>12.6f}      {failed} of {attempted}")

    backend = out["kernel_backend"]
    meta = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": out["affinity"],
        "kernel_backend": backend,
        "KLINKAGE_KERNEL": os.environ.get("KLINKAGE_KERNEL"),
        "commit": git_commit(),
        "baseline_kernel_backend": pinned["baseline"]["kernel_backend"],
        "backend_differs": backend != pinned["baseline"]["kernel_backend"],
    }
    if meta["backend_differs"]:
        lines.append(f"  WARNING kernel backend {backend!r} differs from the baseline's "
                     f"{meta['baseline_kernel_backend']!r}")
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    for why in problems[:20]:
        print(f"perfbench: {name}: {why}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, lines, 0 if failed == 0 else 1


def layer_summary(values: dict, solve_s: float) -> list[str]:
    """Which traced functions and layers own the solve time (by self time)."""
    selfs = {k[: -len(".self_s")]: v for k, v in values.items()
             if k.endswith(".self_s") and v and not k.startswith("jsonio.")}
    lines = [f"  traced solve time {solve_s:.3f} s over {values['solves']} solves; "
             f"unattributed_s {values['unattributed_s']:.4f}; "
             f"trace_overhead_s {values['trace_overhead_s']:.4f}"]
    by_layer: dict[str, float] = {}
    for name, v in selfs.items():
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + v
    for label, table in (("layer", by_layer), ("function", selfs)):
        top = sorted(table.items(), key=lambda kv: -kv[1])
        lines.append(f"  top {label}: {top[0][0]}" if top else f"  top {label}: none")
        for key, v in top[:6]:
            lines.append(f"    {key:<46} {v:>10.4f} s  {100 * v / solve_s:5.1f}%")
    return lines


# -- pinning -------------------------------------------------------------------


def pin(names: list[str]) -> None:
    """Regenerate the pools and record digests and outcomes at this commit."""
    from worker import describe, load, solve_loop

    kl = import_klinkage()
    import klinkage.jsonio as jsonio

    pinned = read_pinned() if os.path.exists(PINNED) else {"workloads": {}}
    pinned["baseline"] = {
        "kernel_backend": kl.kernel_backend,
        "python": platform.python_version(),
        "commit": git_commit(),
    }
    for name in names:
        entry = pinned["workloads"][name]
        pool_dir = os.path.join(INPUTS, f"{name}-{entry['seed']}")
        entry["sha256"] = write_pool(name, entry["seed"], pool_dir)
        graphs, pairs = load(kl, jsonio, WORKLOADS[name], pool_dir)
        keys = instances([len(ps) for ps in pairs])
        results = solve_loop(kl, WORKLOADS[name], graphs, pairs, keys)
        records, _systems = describe(jsonio, results, {k: i for i, k in enumerate(keys)})
        if any(r["error"] for r in records):
            raise BenchError(f"{name}: a solve raised while pinning")
        entry["expected"] = [
            r["outcome"] if r["stage"] is None else f"{r['outcome']}:{r['stage']}" for r in records
        ]
        print(name, entry["sha256"], {o: entry["expected"].count(o) for o in set(entry["expected"])})
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="re-record pinned.json and exit")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.pin:
            pin(names)
            return 0
        code = 0
        for name in names:
            result, lines, status = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result, sort_keys=True), flush=True)
            code = max(code, status)
        return code
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

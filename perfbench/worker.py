"""One measured process: set up, say "ready", run the closed solve loop.

Started by ``run.py``; not meant to be run by hand.  Set-up is what a user
of the CLI pays: ``import klinkage`` and loading the inputs through
``jsonio``.  One client solves one instance at a time.  The process prints
``ready`` when set up and, unless ``--setup-only``, one JSON line with the
per-solve results when done.

Untraced, the host's speed is probed right before and after every solve
by timing a fixed pure-Python calibration unit that does not touch
klinkage; ``run.py`` divides each solve time by it.

With ``--trace 1`` every instance is solved twice in a row, traced and
untraced (alternating which goes first), each side on its own load of the
inputs: the difference in solve time is the tracing overhead, and the two
sides' reports can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, import_klinkage, instances, pool_files, sha256

UNIT_ITERS = 4000  # about 1 ms per calibration unit on a 2-CPU Xeon host
PROBE_MIN_S = 0.02  # shortest host-speed probe
PROBE_SHARE = 0.1  # a probe after a solve lasts at least this share of the solve
_TABLE = list(range(256))
_MAP = {i: i * 7 for i in range(256)}


def load(kl, jsonio, workload, pool_dir: str):
    """The pool's digraphs (as the solver takes them) and pair sets."""
    graphs, pairs = [], []
    for path in pool_files(pool_dir):
        with open(path, encoding="utf-8") as fh:
            obj = jsonio.parse_json(fh.read(), path)
        graphs.append(workload.load(kl, jsonio, obj, path))
        pairs.append([tuple(tuple(p) for p in ps) for ps in obj["pairs"]])
    return graphs, pairs


def solve(kl, workload, graphs, pairs, key):
    """(key, wall seconds from the call to the returned report, report, error)."""
    g, p = key
    start = time.perf_counter()
    try:
        report, error = workload.solve(kl, graphs[g], pairs[g][p]), None
    except Exception as exc:  # counted as a failed operation; the run goes on
        traceback.print_exc()
        report, error = None, f"{type(exc).__name__}: {exc}"
    return key, time.perf_counter() - start, report, error


def _mix(a, b):
    return (a * 31 + b) & 0xFFFF


def calibration_unit() -> int:
    """Fixed interpreter work (calls, indexing, dict lookups, int arithmetic)
    that allocates no container, so it never triggers the garbage collector."""
    s = 0
    table, mapping = _TABLE, _MAP
    for i in range(UNIT_ITERS):
        s = _mix(s, table[i & 255]) ^ mapping[s & 255]
    return s


def probe(min_s: float) -> float:
    """Mean seconds per calibration unit over at least ``min_s`` (and two
    units): how fast the host runs pure Python right now."""
    count = 0
    start = time.perf_counter()
    while True:
        calibration_unit()
        count += 1
        elapsed = time.perf_counter() - start
        if count >= 2 and elapsed >= min_s:
            return elapsed / count


def solve_loop(kl, workload, graphs, pairs, order):
    """Solve ``order`` (instance keys) once."""
    return [solve(kl, workload, graphs, pairs, key) for key in order]


def probed_loop(kl, workload, graphs, pairs, order, deadline):
    """Cycle through ``order`` until the deadline passes, probing the host
    before and after every solve.  Returns (results, for each result the
    mean of the unit seconds probed before and after it)."""
    results, units = [], []
    before = probe(PROBE_MIN_S)
    while True:
        results.append(solve(kl, workload, graphs, pairs, order[len(results) % len(order)]))
        after = probe(max(PROBE_MIN_S, PROBE_SHARE * results[-1][1]))
        units.append((before + after) / 2)
        before = after
        if time.perf_counter() >= deadline:
            return results, units


def traced_loop(kl, jsonio, workload, tracer, graphs, pairs, path, order, deadline):
    """Cycle through ``order`` until the deadline passes, solving each instance
    twice, traced on ``graphs`` and untraced on a fresh load, alternating
    which goes first.  Returns (traced, untraced) results."""
    plain_graphs, plain_pairs = load(kl, jsonio, workload, path)
    sides = {True: (graphs, pairs), False: (plain_graphs, plain_pairs)}
    results = {True: [], False: []}
    i = 0
    while True:
        key = order[i % len(order)]
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
            results[traced].append(solve(kl, workload, *sides[traced], key))
            if traced:
                tracer.uninstall()
        i += 1
        if time.perf_counter() >= deadline:
            break
    return results[True], results[False]


def describe(jsonio, results, index_of):
    """Per-solve records, plus each distinct path system once, keyed by digest."""
    records, systems = [], {}
    for key, seconds, report, error in results:
        rec = {"i": index_of[key], "s": seconds, "error": error}
        if report is not None:
            obj = jsonio.report_to_obj(report)
            digest = sha256(jsonio.dumps_canonical(obj).encode())
            rec.update(outcome=report.outcome, stage=report.stage, report=digest)
            if "pathsystem" in obj:
                systems[digest] = obj["pathsystem"]
        records.append(rec)
    return records, systems


def peak_rss_kib() -> int:
    """This process's own peak RSS.  ru_maxrss is not used where /proc is
    available: across exec it keeps the spawning process's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pool", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    kl = import_klinkage()
    import klinkage.jsonio as jsonio

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    graphs, pairs = load(kl, jsonio, workload, args.pool)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    keys = instances([len(ps) for ps in pairs])
    index_of = {key: i for i, key in enumerate(keys)}
    order = list(keys)
    random.Random(args.seed).shuffle(order)
    deadline = time.perf_counter() + args.seconds

    out = {"kernel_backend": getattr(kl, "kernel_backend", None)}
    if tracer is None:
        results, units = probed_loop(kl, workload, graphs, pairs, order, deadline)
        out["solves"], out["systems"] = describe(jsonio, results, index_of)
        for rec, unit_s in zip(out["solves"], units):
            rec["unit_s"] = unit_s
    else:
        tracer.uninstall()
        setup_self = tracer.total_self_s()
        traced, plain = traced_loop(kl, jsonio, workload, tracer, graphs, pairs, args.pool,
                                    order, deadline)
        out["solves"], out["systems"] = describe(jsonio, traced, index_of)
        out["untraced_solves"], untraced_systems = describe(jsonio, plain, index_of)
        out["systems"].update(untraced_systems)
        out["layers"] = tracer.metrics()
        traced_s = sum(r[1] for r in traced)
        out["unattributed_s"] = traced_s - (tracer.total_self_s() - setup_self)
        out["trace_overhead_s"] = traced_s - sum(r[1] for r in plain)
    out["peak_rss_kib"] = peak_rss_kib()
    out["affinity"] = sorted(os.sched_getaffinity(0))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

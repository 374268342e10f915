"""The benchmark's workloads: how each input pool is generated and solved.

Every workload is a fixed pool of instances generated from one pinned
workload seed (``pinned.json``).  A pool is a directory of canonical JSON
files, one per digraph, each in the repo's digraph format (``{"n", "arcs",
"parts"?}``) plus ``"pairs"``, a list of pair sets; an instance is one
digraph with one pair set.  The pool's digest is the sha256 of its files'
sha256 digests, in file order.  The run's ``--seed`` only chooses the order
in which the pool is solved.

Instance selection (strength filters, pair choice) happens here, never in
a timed or traced region.  Usage, for one pool::

    python3 perfbench/workloads.py --workload lqt --seed 7 -o lqt-pool
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_klinkage():
    """Import klinkage from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "klinkage", "__init__.py")):
        raise SystemExit(f"perfbench: no klinkage sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import klinkage

    if os.path.dirname(os.path.dirname(os.path.abspath(klinkage.__file__))) != src:
        raise SystemExit(f"perfbench: klinkage was imported from {klinkage.__file__}")
    return klinkage


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pool_files(pool_dir: str) -> list[str]:
    return [os.path.join(pool_dir, f) for f in sorted(os.listdir(pool_dir)) if f.endswith(".json")]


def pool_digest(pool_dir: str) -> str:
    digests = []
    for path in pool_files(pool_dir):
        with open(path, "rb") as fh:
            digests.append(sha256(fh.read()))
    return sha256("".join(digests).encode())


# -- generation (uses klinkage.generators; never timed) ---------------------


def _gen_sc_audited(kl, seed: int) -> list[dict]:
    # Consecutive seeds, no filtering: about one tournament in six misses the
    # 22k out-degree bound and reports hypothesis_violated after the full
    # connectivity audit.  Two pair sets share each Digraph object.  Three
    # tournaments keep one pass over the pool short enough that a run solves
    # every instance several times.
    graphs = []
    for i in range(3):
        t = kl.random_tournament(120, seed + i)
        rng = kl.SplitMix64(seed * 1_000 + i)
        pairs = []
        for _ in range(2):
            a, b, c, e = rng.sample(list(t.vertices()), 4)
            pairs.append([[a, b], [c, e]])
        graphs.append(_graph_obj(t, None, pairs))
    return graphs


def _gen_sc_large(kl, seed: int) -> list[dict]:
    graphs = []
    for i in range(6):
        d = kl.random_semicomplete(500, 0.2, seed + i)
        rng = kl.SplitMix64(seed * 1_000 + i)
        vs = rng.sample(list(d.vertices()), 6)
        pairs = [[[vs[0], vs[1]], [vs[2], vs[3]], [vs[4], vs[5]]]]
        graphs.append(_graph_obj(d, None, pairs))
    return graphs


def _gen_lqt(kl, seed: int) -> list[dict]:
    # Strong extended tournaments, 20 parts of 3 (acceptance criterion 7's
    # shape); the terminals sit in two different parts.
    graphs = []
    s = seed
    while len(graphs) < 24:
        spec = kl.random_extended_tournament(20, [3] * 20, s)
        s += 1
        d = kl.compose(spec)
        if not d.is_strong():
            continue
        parts = spec.part_vertex_ids()
        rng = kl.SplitMix64(s)
        i, j = rng.sample(list(range(len(parts))), 2)
        x = parts[i][rng.randrange(len(parts[i]))]
        y = parts[j][rng.randrange(len(parts[j]))]
        graphs.append(_graph_obj(d, parts, [[[x, y]]]))
    return graphs


def _gen_composition(kl, seed: int) -> list[dict]:
    # Acceptance criterion 5's audited compositions: 20 parts of 3,
    # p_double 0.9, kept only when 6-strong with min out-degree 46; the two
    # pairs are non-adjacent vertices inside a part.
    graphs = []
    s = seed
    while len(graphs) < 24:
        spec = kl.random_composition(20, [3] * 20, 0.9, s, part_arcs=True)
        s += 1
        d = kl.compose(spec)
        if d.min_out_degree() < 46 or not kl.is_k_strong(d, 6):
            continue
        chosen, used = [], set()
        for part in spec.part_vertex_ids():
            for x in part:
                for y in part:
                    if x != y and not d.has_arc(x, y) and not {x, y} & used and len(chosen) < 2:
                        chosen.append([x, y])
                        used.update((x, y))
        if len(chosen) == 2:
            graphs.append(_graph_obj(d, spec.part_vertex_ids(), [chosen]))
    return graphs


def _graph_obj(d, parts, pairs) -> dict:
    from klinkage.jsonio import digraph_to_obj

    obj = digraph_to_obj(d, parts)
    obj["pairs"] = pairs
    return obj


# -- loading and solving (the measured path) ---------------------------------


def _load_plain(kl, jsonio, obj, source):
    d, _parts = jsonio.digraph_from_obj(obj, source)
    return d


def _load_composition(kl, jsonio, obj, source):
    # as the CLI does for --class composition
    d, parts = jsonio.digraph_from_obj(obj, source)
    return kl.composition_from_digraph(d, parts)


def _solve_sc_audited(kl, d, pairs):
    return kl.solve_semicomplete(kl.LinkageInstance(d, pairs))


def _solve_sc_large(kl, d, pairs):
    return kl.solve_semicomplete(kl.LinkageInstance(d, pairs), skip_audit=True)


def _solve_lqt(kl, d, pairs):
    return kl.solve_lqt(d, pairs, 2, threshold=5, skip_audit=True)


def _solve_composition(kl, spec, pairs):
    return kl.solve_composition(spec, pairs)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable
    load: Callable
    solve: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sc-audited", _gen_sc_audited, _load_plain, _solve_sc_audited),
        Workload("sc-large", _gen_sc_large, _load_plain, _solve_sc_large),
        Workload("lqt", _gen_lqt, _load_plain, _solve_lqt),
        Workload("composition", _gen_composition, _load_composition, _solve_composition),
    )
}


def write_pool(name: str, seed: int, pool_dir: str) -> str:
    """Generate the pool into ``pool_dir`` (replacing it); return its digest."""
    kl = import_klinkage()
    graphs = WORKLOADS[name].generate(kl, seed)
    tmp = f"{pool_dir}.{os.getpid()}.tmp"
    os.makedirs(tmp)
    for g, obj in enumerate(graphs):
        with open(os.path.join(tmp, f"g{g:03d}.json"), "wb") as fh:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())
    shutil.rmtree(pool_dir, ignore_errors=True)
    os.replace(tmp, pool_dir)
    return pool_digest(pool_dir)


def instances(pair_counts: list[int]) -> list[tuple[int, int]]:
    """(graph index, pair-set index) for every instance of a pool."""
    return [(g, p) for g, count in enumerate(pair_counts) for p in range(count)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("-o", "--output", required=True, help="pool directory to (re)write")
    args = ap.parse_args(argv)
    print(write_pool(args.workload, args.seed, args.output))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success / linked / pass, 1 negative (a failed check, a
path system ``verify`` rejects, an ``oracle`` answer of not linked, or a
``solve`` stage that failed), 2 usage or format error, 3 hypothesis
violated, 4 search budget exceeded.  Exit 1 from ``solve`` is no verified
negative: below the bounds a failed stage proves nothing about
linkability; ``oracle`` decides that on small digraphs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .connectivity import kappa
from .digraph import (
    composition_from_digraph,
    is_l_quasi_transitive,
    is_semicomplete,
)
from .dominators import (
    goodness_profile,
    is_in_king,
    nearly_in_dominating_vertex,
    verify_nearly_in_dominating,
)
from .errors import Budget, BudgetExceededError, FormatError, InputError, KLinkageError
from .generators import (
    _default_core,
    circulant_tournament,
    non_linked_family,
    random_composition,
    random_extended_tournament,
    random_semicomplete,
    random_tournament,
)
from .jsonio import (
    MAX_ORDER,
    digraph_from_obj,
    digraph_to_dot,
    digraph_to_obj,
    dumps_canonical,
    load_digraph,
    parse_json,
    pathsystem_from_obj,
    pathsystem_to_obj,
    report_to_obj,
)
from .linkage_composition import solve_composition
from .linkage_lqt import _ANCHOR_BUDGET, pool_threshold, solve_lqt
from .linkage_semicomplete import solve_semicomplete
from .paths import Infeasible, LinkageInstance
from .reports import HYPOTHESIS_VIOLATED, LINKED
from .verify import _ORACLE_BUDGET, brute_force_disjoint_paths, brute_force_k_linked, verify_linkage

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = chunk.split(":")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise FormatError(f"pair {chunk!r} is not of the form x:y") from None
    if not pairs:
        raise FormatError("no terminal pairs given")
    return pairs


def _read_digraph(path: str):
    if path == "-":
        return digraph_from_obj(parse_json(sys.stdin.read(), "<stdin>"), "<stdin>")
    return load_digraph(path)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dot_sibling(out: str) -> str:
    """The ``.dot`` file named after the report path ``out``."""
    return os.path.splitext(out)[0] + ".dot"


def _cmd_gen(args) -> int:
    meta = {"family": args.family, "seed": args.seed}
    parts = None
    # refused before anything is generated: no digraph document may hold it
    if args.family in ("tournament", "circulant", "semicomplete") and args.n > MAX_ORDER:
        raise InputError(f"--n must be at most {MAX_ORDER}")
    if args.family == "tournament":
        d = random_tournament(args.n, args.seed)
    elif args.family == "circulant":
        d = circulant_tournament(args.n)
        meta.pop("seed")
    elif args.family == "semicomplete":
        d = random_semicomplete(args.n, args.p_double, args.seed)
        meta["p_double"] = args.p_double
    elif args.family in ("composition", "extended-tournament"):
        try:
            sizes = [int(s) for s in args.part_sizes.split(",")]
        except ValueError:
            raise FormatError("--part-sizes must be a comma-separated list, e.g. 2,3,2") from None
        if sum(sizes) > MAX_ORDER:
            raise InputError(f"--part-sizes must sum to at most {MAX_ORDER}")
        if args.family == "composition":
            spec = random_composition(len(sizes), sizes, args.p_double, args.seed, args.part_arcs)
            meta["p_double"] = args.p_double
        else:
            spec = random_extended_tournament(len(sizes), sizes, args.seed)
        meta["part_sizes"] = sizes
        d, parts = spec.digraph, spec.part_vertex_ids()
    elif args.family == "non-linked":
        core = _read_digraph(args.core)[0] if args.core else _default_core()
        if 2 * args.k - 4 + core.n > MAX_ORDER:
            raise InputError(f"--k must give an order 2k-4+|core| of at most {MAX_ORDER}")
        spec, bad_pairs = non_linked_family(args.k, core)
        d, parts = spec.digraph, spec.part_vertex_ids()
        meta.pop("seed")
        meta["k"] = args.k
        meta["bad_pairs"] = [list(p) for p in bad_pairs]

    text = dumps_canonical(digraph_to_obj(d, parts, meta))
    _emit(text, args.output)
    if args.dot:
        _emit(digraph_to_dot(d), _dot_sibling(args.output))
    return EXIT_OK


def _cmd_check(args) -> int:
    # the range checks, in the order the checks below make them, before the input is read
    if args.lqt is not None and args.lqt < 1:
        raise InputError("path length must be at least 1")
    if args.nid and args.cmax is not None and args.cmax < 1:
        raise InputError(f"c_max must be at least 1, got {args.cmax}")
    d, _parts = _read_digraph(args.input)
    result: dict = {"n": d.n, "order": d.order}
    ok = True  # every requested check passes
    if args.kappa:
        result["kappa"] = kappa(d)
    if args.semicomplete:
        result["semicomplete"] = is_semicomplete(d)
        ok &= result["semicomplete"]
    if args.lqt is not None:
        result["l"] = args.lqt
        result["l_quasi_transitive"] = is_l_quasi_transitive(d, args.lqt)
        ok &= result["l_quasi_transitive"]
    if args.king is not None:
        result["vertex"] = args.king
        result["in_king"] = is_in_king(d, args.king)
        ok &= result["in_king"]
    if args.nid:
        vertex = args.vertex if args.vertex is not None else nearly_in_dominating_vertex(d)
        cmax = args.cmax if args.cmax is not None else d.order
        rep = verify_nearly_in_dominating(d, vertex, cmax)
        result["vertex"] = vertex
        result["c_max"] = cmax
        result["nearly_in_dominating"] = rep.ok
        if not rep.ok:
            result["worst_c"] = rep.worst_c
            result["bad_vertices"] = list(rep.bad_vertices)
        if args.profile:
            prof = goodness_profile(d, vertex)
            result["widths"] = {str(v): w for v, w in sorted(prof.widths.items())}
            result["dominators"] = sorted(prof.dominators)
        ok &= rep.ok
    if args.seed is not None:
        result["seed"] = args.seed
    _emit(dumps_canonical(result), args.output)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    if args.klass == "lqt":  # solve_lqt's entry checks, in its order, before the input is read
        pool_threshold(1, args.l)  # checks l; k waits for the pairs
        if args.threshold is not None and args.threshold < 1:
            raise InputError("threshold must be positive")
        Budget(args.anchor_budget)
    d, parts = _read_digraph(args.input)
    pairs = _parse_pairs(args.pairs)
    if args.klass == "semicomplete":
        report = solve_semicomplete(LinkageInstance(d, tuple(pairs)), skip_audit=args.skip_audit)
    elif args.klass == "composition":
        if parts is None:
            raise FormatError("composition solving needs a 'parts' field in the digraph file")
        spec = composition_from_digraph(d, parts)
        report = solve_composition(spec, pairs, skip_audit=args.skip_audit)
    else:
        report = solve_lqt(
            d,
            pairs,
            args.l,
            threshold=args.threshold,
            anchor_budget=args.anchor_budget,
            skip_audit=args.skip_audit,
        )

    obj = report_to_obj(report)
    obj["pairs"] = [list(p) for p in pairs]
    if args.seed is not None:
        obj["seed"] = args.seed
    _emit(dumps_canonical(obj), args.output)
    if args.dot:
        _emit(digraph_to_dot(d, highlight=report.system), _dot_sibling(args.output))
    if report.outcome == LINKED:
        return EXIT_OK
    if report.outcome == HYPOTHESIS_VIOLATED:
        return EXIT_HYPOTHESIS
    return EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    d, _parts = _read_digraph(args.input)
    with open(args.paths, encoding="utf-8") as fh:
        ps, claimed = pathsystem_from_obj(parse_json(fh.read(), args.paths), args.paths)
    pairs = _parse_pairs(args.pairs) if args.pairs else claimed
    report = verify_linkage(d, pairs, ps)
    obj = {"ok": report.ok}
    if not report.ok:
        obj["clause"] = report.clause
        obj["detail"] = report.detail
    if args.seed is not None:
        obj["seed"] = args.seed
    _emit(dumps_canonical(obj), args.output)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    Budget(args.budget)  # the search's range check, before the input is read
    d, _parts = _read_digraph(args.input)
    obj: dict = {"budget": args.budget}
    try:
        if args.pairs:
            pairs = _parse_pairs(args.pairs)
            res = brute_force_disjoint_paths(d, pairs, args.budget)
            if isinstance(res, Infeasible):
                obj["outcome"] = "infeasible"
                code = EXIT_NEGATIVE
            else:
                obj["outcome"] = "found"
                obj["pathsystem"] = pathsystem_to_obj(res)
                code = EXIT_OK
        elif args.k is not None:
            res = brute_force_k_linked(d, args.k, args.budget)
            if res is True:
                obj["outcome"] = "k_linked"
                code = EXIT_OK
            else:
                obj["outcome"] = "not_k_linked"
                obj["witness_pairs"] = [list(p) for p in res]
                code = EXIT_NEGATIVE
        else:
            raise FormatError("oracle needs --k or --pairs")
    except BudgetExceededError:
        obj["outcome"] = "budget_exceeded"
        code = EXIT_BUDGET
    if args.seed is not None:
        obj["seed"] = args.seed
    _emit(dumps_canonical(obj), args.output)
    return code


def _cmd_bench(args) -> int:
    from .acceptance import _CRITERIA, run_criteria

    only = None
    if args.only:
        known = {n for n, _, _ in _CRITERIA}
        try:
            only = [int(s) for s in args.only.split(",")]
        except ValueError:
            raise FormatError("--only must be a comma-separated list, e.g. 4,5") from None
        if not known.issuperset(only):
            raise FormatError(f"--only: criteria are numbered {min(known)}..{max(known)}")
    results = run_criteria(only)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{status}  {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}\n")
    total = sum(r.seconds for r in results)
    ok = all(r.passed for r in results)
    sys.stdout.write(f"{'OK' if ok else 'FAILED'}  {len(results)} criteria in {total:.2f}s\n")
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="klinkage", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a digraph family member")
    gen.add_argument("--family", required=True,
                     choices=["tournament", "circulant", "semicomplete",
                              "composition", "extended-tournament", "non-linked"])
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--k", type=int, default=3, help="linkage size for the non-linked family")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--p-double", type=float, default=0.0, dest="p_double")
    gen.add_argument("--part-sizes", default="", dest="part_sizes")
    gen.add_argument("--part-arcs", action="store_true", dest="part_arcs")
    gen.add_argument("--core", help="digraph file for the non-linked family core part")
    gen.add_argument("-o", "--output")
    gen.add_argument("--dot", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="run structural checks")
    check.add_argument("--input", required=True)
    check.add_argument("--kappa", action="store_true")
    check.add_argument("--semicomplete", action="store_true")
    check.add_argument("--lqt", type=int, default=None, metavar="L")
    check.add_argument("--king", type=int, default=None, metavar="V")
    check.add_argument("--nid", action="store_true", help="nearly in-dominating vertex check")
    nid_only = "; read with --nid only, ignored otherwise"
    check.add_argument("--vertex", type=int, default=None,
                       help="the vertex to check (default: one of largest in-degree in the"
                            " spanning tournament)" + nid_only)
    check.add_argument("--cmax", type=int, default=None,
                       help="check every c from 1 to CMAX (default: the order)" + nid_only)
    check.add_argument("--profile", action="store_true",
                       help="dump the goodness profile" + nid_only)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("-o", "--output")
    check.set_defaults(func=_cmd_check)

    solve = sub.add_parser("solve", help="run a linkage solver")
    solve.add_argument("--input", required=True)
    solve.add_argument("--class", required=True, dest="klass",
                       choices=["semicomplete", "composition", "lqt"])
    solve.add_argument("--pairs", required=True, help="x1:y1,x2:y2,...")
    lqt_only = "; read by --class lqt only, ignored otherwise"
    solve.add_argument("--l", type=int, default=2, help="the l of l-quasi-transitivity" + lqt_only)
    solve.add_argument("--threshold", type=int, default=None,
                       help="pool size per auxiliary arc (default: the theorem's)" + lqt_only)
    solve.add_argument("--anchor-budget", type=int, default=_ANCHOR_BUDGET, dest="anchor_budget",
                       help="candidate-list expansions per anchor search" + lqt_only)
    solve.add_argument("--skip-audit", action="store_true", dest="skip_audit")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("-o", "--output")
    solve.add_argument("--dot", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="certify a path system")
    verify.add_argument("--input", required=True, help="digraph file")
    verify.add_argument("--paths", required=True, help="path system file")
    verify.add_argument("--pairs", default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("-o", "--output")
    verify.set_defaults(func=_cmd_verify)

    oracle = sub.add_parser("oracle", help="exhaustive linkage search")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--k", type=int, default=None)
    oracle.add_argument("--pairs", default=None)
    oracle.add_argument("--budget", type=int, default=_ORACLE_BUDGET)
    oracle.add_argument("--seed", type=int, default=None)
    oracle.add_argument("-o", "--output")
    oracle.set_defaults(func=_cmd_oracle)

    bench = sub.add_parser("bench", help="acceptance suite")
    bench.add_argument("--suite", choices=["acceptance"], default=None)
    bench.add_argument("--only", default=None, help="comma-separated criterion numbers")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "dot", False) and not args.output:
            raise FormatError("--dot needs -o to name the sibling file")
        if getattr(args, "dot", False) and _dot_sibling(args.output) == args.output:
            raise FormatError(f"--dot would write over the report: -o {args.output} ends in .dot")
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KLinkageError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_USAGE
    except OSError as exc:  # an input file that cannot be read, an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

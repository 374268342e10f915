"""Canonical JSON and DOT serialization.

Digraph files: {"n": int, "arcs": [[u, v], ...], "parts": [[ids], ...]?}
with arcs sorted lexicographically, so identical digraphs serialize to
identical bytes across runs.  Extra keys (e.g. "meta" carrying the seed)
are preserved on write and ignored on load.
"""

from __future__ import annotations

import json
from typing import Any

from .digraph import Digraph, build_digraph
from .errors import FormatError
from .paths import PathSystem

__all__ = [
    "dumps_canonical",
    "digraph_to_obj",
    "digraph_from_obj",
    "load_digraph",
    "pathsystem_to_obj",
    "pathsystem_from_obj",
    "report_to_obj",
    "digraph_to_dot",
]


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_json(text: str, source: str = "<input>") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def digraph_to_obj(d: Digraph, parts=None, meta: dict | None = None) -> dict:
    obj: dict[str, Any] = {"n": d.n, "arcs": sorted([u, v] for u, v in d.arcs())}
    if parts is not None:
        obj["parts"] = [sorted(p) for p in parts]
    if meta:
        obj["meta"] = meta
    return obj


def _field(obj: dict, name: str, source: str):
    if name not in obj:
        raise FormatError(f"{source}: missing field {name!r}")
    return obj[name]


def digraph_from_obj(obj: Any, source: str = "<input>") -> tuple[Digraph, list | None]:
    if not isinstance(obj, dict):
        raise FormatError(f"{source}: expected a JSON object")
    n = _field(obj, "n", source)
    arcs = _field(obj, "arcs", source)
    if not isinstance(n, int) or n < 0:
        raise FormatError(f"{source}: field 'n' must be a non-negative integer")
    if not isinstance(arcs, list):
        raise FormatError(f"{source}: field 'arcs' must be a list")
    pairs = []
    for i, arc in enumerate(arcs):
        if not (isinstance(arc, list) and len(arc) == 2 and all(isinstance(x, int) for x in arc)):
            raise FormatError(f"{source}: field 'arcs[{i}]' must be a pair of integers")
        pairs.append((arc[0], arc[1]))
    try:
        d = build_digraph(n, pairs)
    except Exception as exc:
        raise FormatError(f"{source}: {exc}") from exc
    parts = obj.get("parts")
    if parts is not None:
        if not isinstance(parts, list) or not all(isinstance(p, list) for p in parts):
            raise FormatError(f"{source}: field 'parts' must be a list of id lists")
        if not all(isinstance(v, int) and 0 <= v < n for p in parts for v in p):
            raise FormatError(f"{source}: field 'parts' must hold vertex ids 0..{n - 1}")
        parts = [list(p) for p in parts]
    return d, parts


def load_digraph(path: str) -> tuple[Digraph, list | None]:
    with open(path, encoding="utf-8") as fh:
        return digraph_from_obj(parse_json(fh.read(), path), path)


def pathsystem_to_obj(ps: PathSystem) -> dict:
    return {
        "paths": [list(p) for p in ps.paths],
        "pairs": [list(p) for p in ps.pairing],
    }


def pathsystem_from_obj(obj: Any, source: str = "<input>") -> PathSystem:
    if not isinstance(obj, dict):
        raise FormatError(f"{source}: expected a JSON object")
    paths = _field(obj, "paths", source)
    pairs = _field(obj, "pairs", source)
    try:
        return PathSystem(
            tuple(tuple(int(v) for v in p) for p in paths),
            tuple((int(a), int(b)) for a, b in pairs),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{source}: malformed path system: {exc}") from exc


def report_to_obj(report) -> dict:
    obj: dict[str, Any] = {"outcome": report.outcome, "audit": report.audit}
    if report.system is not None:
        obj["pathsystem"] = pathsystem_to_obj(report.system)
    if report.failure is not None:
        obj["failure"] = report.failure
    if report.stage is not None:
        obj["stage"] = report.stage
    if report.witness is not None:
        obj["witness"] = _jsonable(report.witness)
    return obj


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def digraph_to_dot(d: Digraph, name: str = "G", highlight: PathSystem | None = None) -> str:
    """DOT text; arcs on highlighted paths are colored and path vertices boxed."""
    on_path: set[tuple[int, int]] = set()
    endpoints: set[int] = set()
    if highlight is not None:
        for p in highlight.paths:
            on_path.update(zip(p, p[1:]))
            endpoints.update((p[0], p[-1]))
    lines = [f"digraph {name} {{"]
    for v in d.vertices():
        shape = ' [shape=box]' if v in endpoints else ""
        lines.append(f"  {v}{shape};")
    for u, v in sorted(d.arcs()):
        mark = ' [color=red, penwidth=2]' if (u, v) in on_path else ""
        lines.append(f"  {u} -> {v}{mark};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Canonical JSON and DOT serialization.

Digraph files: {"n": int, "arcs": [[u, v], ...], "parts": [[ids], ...]?}
with arcs sorted lexicographically, so identical digraphs serialize to
identical bytes across runs.  Extra keys (e.g. "meta" carrying the seed)
are preserved on write and ignored on load.
"""

from __future__ import annotations

import gc
import json
from typing import Any

from .digraph import Digraph, _in_rows, _out_rows
from .errors import FormatError, InputError
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
    """Decode ``text``, with the cyclic garbage collector paused meanwhile.

    Decoded JSON is a tree of fresh containers and cannot hold a reference
    cycle, so a collection during decoding finds nothing to free; on a
    150k-arc document the collector's passes over the growing arc lists
    cost about as much as the decoding itself.  The collector's prior state
    is restored however decoding ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    finally:
        if enabled:
            gc.enable()


def digraph_to_obj(d: Digraph, parts=None, meta: dict | None = None) -> dict:
    obj: dict[str, Any] = {"n": d.n, "arcs": [[u, v] for u, v in d.arcs()]}
    if parts is not None:
        obj["parts"] = [sorted(p) for p in parts]
    if meta:
        obj["meta"] = meta
    return obj


# The largest ``n`` a digraph document may give, checked before any row is
# allocated: without it the 29-byte document {"n": 1000000000, "arcs": []}
# asks for two lists of 8 GB each.  A dense digraph of this order already
# holds 10^8 arcs.
MAX_ORDER = 10_000


def _is_id(value) -> bool:
    """A vertex id or count: a JSON integer (``true`` and ``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _id_lists(value, length: int | None = None) -> bool:
    """A list of lists of ids, each of ``length`` ids when that is given."""
    return isinstance(value, list) and all(
        isinstance(ids, list) and (length is None or len(ids) == length) and all(map(_is_id, ids))
        for ids in value
    )


def _field(obj: dict, name: str, source: str):
    if name not in obj:
        raise FormatError(f"{source}: missing field {name!r}")
    return obj[name]


def _check_arc_types(arcs: list, source: str) -> None:
    """Raise for the first arc that is not a list of two ids."""
    for i, arc in enumerate(arcs):
        if not (isinstance(arc, list) and len(arc) == 2 and all(map(_is_id, arc))):
            raise FormatError(f"{source}: field 'arcs[{i}]' must be a pair of integers")


def digraph_from_obj(obj: Any, source: str = "<input>") -> tuple[Digraph, list | None]:
    """The digraph (and the ``parts``, if given) a digraph document describes.

    ``n`` above ``MAX_ORDER`` is refused before anything is allocated.
    Arcs that are all lists take one typed pass, ``_out_rows``, which checks
    the ids' types and range, self-loops and repeats while it sets the
    out-rows; ``_in_rows`` adds the in-rows.  When that check fails,
    ``_check_arc_types`` names the first arc that is not a pair of integers,
    and then ``Digraph.from_arcs`` the first arc out of range, self-loop or
    repeat, so type faults come before the others.  An ``int``-subclass id
    fails the typed pass and loads on this slower path.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{source}: expected a JSON object")
    n = _field(obj, "n", source)
    arcs = _field(obj, "arcs", source)
    if not _is_id(n) or n < 0:
        raise FormatError(f"{source}: field 'n' must be a non-negative integer")
    if n > MAX_ORDER:
        raise FormatError(f"{source}: field 'n' must be at most {MAX_ORDER}")
    if not isinstance(arcs, list):
        raise FormatError(f"{source}: field 'arcs' must be a list")
    out = _out_rows(n, arcs) if set(map(type, arcs)) <= {list} else None
    if out is not None:
        d = Digraph(n, (1 << n) - 1, out, _in_rows(n, out, arcs))
    else:
        _check_arc_types(arcs, source)
        try:
            d = Digraph.from_arcs(n, arcs)
        except InputError as exc:
            raise FormatError(f"{source}: {exc}") from exc
    parts = obj.get("parts")
    if parts is not None:
        if not _id_lists(parts):
            raise FormatError(f"{source}: field 'parts' must be a list of id lists")
        if not all(0 <= v < n for p in parts for v in p):
            raise FormatError(f"{source}: field 'parts' must hold vertex ids 0..{n - 1}")
        parts = [list(p) for p in parts]
    return d, parts


def load_digraph(path: str) -> tuple[Digraph, list | None]:
    with open(path, encoding="utf-8") as fh:
        return digraph_from_obj(parse_json(fh.read(), path), path)


def pathsystem_to_obj(ps: PathSystem) -> dict:
    return {
        "paths": [list(p) for p in ps.paths],
        "pairs": [[p[0], p[-1]] for p in ps.paths],
    }


def pathsystem_from_obj(obj: Any, source: str = "<input>") -> tuple[PathSystem, list]:
    """The document's path system and the (source, target) pairs it claims,
    one per path."""
    if not isinstance(obj, dict):
        raise FormatError(f"{source}: expected a JSON object")
    paths = _field(obj, "paths", source)
    pairs = _field(obj, "pairs", source)
    if not _id_lists(paths):
        raise FormatError(f"{source}: field 'paths' must be a list of id lists")
    if not _id_lists(pairs, 2):
        raise FormatError(f"{source}: field 'pairs' must be a list of id pairs")
    if len(paths) != len(pairs):
        raise FormatError(
            f"{source}: malformed path system: one (source, target) role per path required")
    return PathSystem(tuple(map(tuple, paths))), pairs


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
    """``value`` with tuples as lists; any type JSON has no form for raises."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"report witness holds a {type(value).__name__}, which has no JSON form")


def digraph_to_dot(d: Digraph, highlight: PathSystem | None = None) -> str:
    """DOT text; arcs on highlighted paths are colored and path vertices boxed."""
    on_path: set[tuple[int, int]] = set()
    endpoints: set[int] = set()
    if highlight is not None:
        for p in highlight.paths:
            on_path.update(zip(p, p[1:]))
            endpoints.update((p[0], p[-1]))
    lines = ["digraph G {"]
    for v in d.vertices():
        shape = ' [shape=box]' if v in endpoints else ""
        lines.append(f"  {v}{shape};")
    for u, v in d.arcs():
        mark = ' [color=red, penwidth=2]' if (u, v) in on_path else ""
        lines.append(f"  {u} -> {v}{mark};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Shared strategies and small exhaustive oracles for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from klinkage import Digraph
from klinkage.digraph import iter_bits


@st.composite
def digraphs(draw, min_n=2, max_n=8):
    """Random digraph: each ordered pair gets an arc independently."""
    n = draw(st.integers(min_n, max_n))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                arcs.append((u, v))
    return Digraph.from_arcs(n, arcs)


@st.composite
def semicomplete_digraphs(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            kind = draw(st.sampled_from(["fwd", "bwd", "both"]))
            if kind in ("fwd", "both"):
                arcs.append((u, v))
            if kind in ("bwd", "both"):
                arcs.append((v, u))
    return Digraph.from_arcs(n, arcs)


def assert_in_masks_transpose(d):
    """``d._in`` is the transpose of ``d._out`` on the alive vertices.

    ``Digraph.__eq__`` compares only the alive mask and the out-masks, so a
    wrong in-mask passes every ``==`` and ``arcs()`` assertion."""
    want = [0] * d.n
    for u in iter_bits(d._alive):
        for v in iter_bits(d._out[u]):
            want[v] |= 1 << u
    assert all(want[v] == 0 for v in range(d.n) if not d._alive >> v & 1), "arc to a dead vertex"
    bad = [v for v in iter_bits(d._alive) if d._in[v] != want[v]]
    assert bad == [], f"in-masks differ from the transposed out-masks at {bad}"


def out_neighbors(d, v):
    """v's out-neighbours in ascending order."""
    return [w for w, bit in enumerate(bin(d.out_mask(v))[:1:-1]) if bit == "1"]


def is_adjacent(d, u, v):
    """An arc joins u and v in one direction or the other."""
    return d.has_arc(u, v) or d.has_arc(v, u)

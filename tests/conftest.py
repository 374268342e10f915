"""Shared strategies and small exhaustive oracles for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from klinkage import build_digraph


@st.composite
def digraphs(draw, min_n=2, max_n=8):
    """Random digraph: each ordered pair gets an arc independently."""
    n = draw(st.integers(min_n, max_n))
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                arcs.append((u, v))
    return build_digraph(n, arcs)


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
    return build_digraph(n, arcs)

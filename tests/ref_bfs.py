"""List-based reference BFS, used only as a test oracle.

The frontier is a list of vertices and each vertex's out-neighbours are
scanned one by one in ascending order; the first vertex to reach a new one
becomes its parent.  This is the search ``Digraph.shortest_path`` and the
l-quasi-transitive pool extraction used before the mask-level search, and
the tests require the two to return identical paths.
"""

from __future__ import annotations

from conftest import out_neighbors


def ref_shortest_path(d, src: int, dst: int, forbidden: int = 0, max_len: int | None = None,
                      skip_direct: bool = False) -> list[int] | None:
    """Shortest src->dst path whose interior avoids ``forbidden``, of at most
    ``max_len`` arcs, not using the arc src->dst when ``skip_direct``."""
    if src == dst:
        return [src]

    allowed = d.alive_mask & ~forbidden | 1 << dst  # src is in parent from the start
    parent = {src: None}
    frontier = [src]
    depth = 0
    while frontier and (max_len is None or depth < max_len):
        depth += 1
        nxt = []
        for u in frontier:
            for w in out_neighbors(d, u):
                if w in parent or not allowed >> w & 1 or (skip_direct and u == src and w == dst):
                    continue
                parent[w] = u
                if w == dst:
                    path = [w]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
    return None

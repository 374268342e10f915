"""klinkage: disjoint-path linkage toolkit for semicomplete-style digraphs.

Solvers for three digraph classes (semicomplete, semicomplete composition,
l-quasi-transitive), the dominator machinery they run on, exact vertex
connectivity, seeded generators, and an exhaustive verification oracle.
"""

from .connectivity import (
    is_k_strong,
    kappa,
    local_connectivity,
    menger_set_paths,
    min_vertex_menger,
)
from .digraph import (
    CompositionSpec,
    Digraph,
    compose,
    composition_from_digraph,
    is_l_quasi_transitive,
    is_semicomplete,
    is_tournament,
    spanning_tournament,
)
from .dominators import (
    goodness_profile,
    is_c_good,
    is_in_king,
    nearly_in_dominating_set,
    nearly_in_dominating_vertex,
    verify_nearly_in_dominating,
    verify_nearly_in_dominating_set,
)
from .generators import (
    SplitMix64,
    circulant_tournament,
    non_linked_family,
    random_composition,
    random_extended_tournament,
    random_semicomplete,
    random_tournament,
)
from .linkage_composition import (
    fill_parts,
    minimalize_path,
    solve_composition,
    strip_intra_part_arcs,
)
from .linkage_lqt import (
    build_auxiliary,
    pool_threshold,
    find_short_anchor_pair,
    independent_short_paths,
    solve_lqt,
    verify_short_anchor,
)
from .linkage_semicomplete import anchor_connectors, partition_terminals, solve_semicomplete
from .paths import Infeasible, LinkageInstance, PathSystem
from .reports import SolveReport
from .verify import brute_force_disjoint_paths, brute_force_k_linked, verify_linkage

__version__ = "0.1.0"

# reported in benchmark metadata: the one flow kernel (``_kernel``) is plain Python
kernel_backend = "python"

"""Spectral-gap toolkit for interchange processes on weighted graphs.

Builds random-walk and interchange Laplacians, Young's orthogonal
representation matrices, and the collapse/interlacing machinery needed
to certify numerically that the two spectral gaps coincide, graph by
graph. See the README for the CLI surface.
"""

from .conjecture import (
    GammaVector,
    check_conjecture,
    conjecture_matrix,
    equal_gamma_min_eig,
    k4_closed_forms,
)
from .graphs import (
    WeightedGraph,
    collapse_last_vertex,
    complete_graph,
    cycle_graph,
    generate,
    graph_from_json_dict,
    graph_to_json_dict,
    gt_pattern,
    is_connected,
    nested_triangulation,
    path_graph,
    random_connected_graph,
    rank1_identity_check,
    rw_laplacian,
    star_graph,
    wheel_graph,
)
from .interchange import (
    aldous_check,
    gap_interchange,
    gap_rw,
    interchange_spectrum,
    spectrum_via_irreps,
)
from .permutations import Permutation, parse_permutation
from .reduction import (
    Skeleton,
    apply_rule,
    certify_elimination,
    reduce_to_edge,
    replay_elimination,
    replay_reduction,
)
from .spectral import interlace_check, is_psd, multiset_equal, shift_bound_check
from .tableaux import (
    Partition,
    StandardTableau,
    content,
    content_sum,
    covers_below,
    enumerate_partitions,
    enumerate_syt,
    f_dim,
    max_corner_content,
    parse_partition,
)
from .yor import (
    branching_check,
    irrep_laplacian,
    jucys_murphy,
    rho_adjacent,
    rho_sigma,
    rho_transposition,
)

__version__ = "0.1.0"

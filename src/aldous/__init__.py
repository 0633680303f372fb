"""Spectral-gap toolkit for interchange processes on weighted graphs.

Builds random-walk and interchange Laplacians, Young's orthogonal
representation matrices, and the collapse/interlacing machinery needed
to certify numerically that the two spectral gaps coincide, graph by
graph. See the README for the CLI surface.

Importing the package loads the graphs, the tableaux, Young's matrices,
the eigensolvers and both routes to the interchange spectrum. The
star-versus-clique sweep (`conjecture`), the reduction and elimination
searches (`reduction`) and the permutation type (`permutations`) load
on first use of one of their names (PEP 562), so a process that only
compares gaps, as `aldous gap` does, never imports them. Every name in
`__all__` is importable from the package either way.
"""

from importlib import import_module as _import_module

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

# the submodule behind each name that loads on first use
_DEFERRED = {
    "GammaVector": "conjecture",
    "check_conjecture": "conjecture",
    "conjecture_matrix": "conjecture",
    "equal_gamma_min_eig": "conjecture",
    "k4_closed_forms": "conjecture",
    "Permutation": "permutations",
    "parse_permutation": "permutations",
    "Skeleton": "reduction",
    "apply_rule": "reduction",
    "certify_elimination": "reduction",
    "reduce_to_edge": "reduction",
    "replay_elimination": "reduction",
    "replay_reduction": "reduction",
}

__all__ = [
    "WeightedGraph",
    "collapse_last_vertex",
    "complete_graph",
    "cycle_graph",
    "generate",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "gt_pattern",
    "is_connected",
    "nested_triangulation",
    "path_graph",
    "random_connected_graph",
    "rank1_identity_check",
    "rw_laplacian",
    "star_graph",
    "wheel_graph",
    "aldous_check",
    "gap_interchange",
    "gap_rw",
    "interchange_spectrum",
    "spectrum_via_irreps",
    "interlace_check",
    "is_psd",
    "multiset_equal",
    "shift_bound_check",
    "Partition",
    "StandardTableau",
    "content",
    "content_sum",
    "covers_below",
    "enumerate_partitions",
    "enumerate_syt",
    "f_dim",
    "max_corner_content",
    "parse_partition",
    "branching_check",
    "irrep_laplacian",
    "jucys_murphy",
    "rho_adjacent",
    "rho_sigma",
    "rho_transposition",
    *_DEFERRED,
]


def __getattr__(name: str):
    # not cached here, so a rebinding in the submodule (a test's
    # monkeypatch, a tracer's wrapper) shows through the package too
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_DEFERRED[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})

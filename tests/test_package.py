import importlib

import pytest

import aldous

# every name the package root exports, by the submodule that defines it
EXPORTS = {
    "conjecture": ["GammaVector", "check_conjecture", "conjecture_matrix", "equal_gamma_min_eig", "k4_closed_forms"],
    "graphs": [
        "WeightedGraph", "collapse_last_vertex", "complete_graph", "cycle_graph", "generate",
        "graph_from_json_dict", "graph_to_json_dict", "gt_pattern", "is_connected", "nested_triangulation",
        "path_graph", "random_connected_graph", "rank1_identity_check", "rw_laplacian", "star_graph",
        "wheel_graph",
    ],
    "interchange": ["aldous_check", "gap_interchange", "gap_rw", "interchange_spectrum", "spectrum_via_irreps"],
    "permutations": ["Permutation", "parse_permutation"],
    "reduction": [
        "Skeleton", "apply_rule", "certify_elimination", "reduce_to_edge", "replay_elimination",
        "replay_reduction",
    ],
    "spectral": ["interlace_check", "is_psd", "multiset_equal", "shift_bound_check"],
    "tableaux": [
        "Partition", "StandardTableau", "content", "content_sum", "covers_below", "enumerate_partitions",
        "enumerate_syt", "f_dim", "max_corner_content", "parse_partition",
    ],
    "yor": ["branching_check", "irrep_laplacian", "jucys_murphy", "rho_adjacent", "rho_sigma", "rho_transposition"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_exports_are_listed():
    assert len(NAMES) == 54
    assert sorted(aldous.__all__) == sorted(name for _, name in NAMES)
    assert set(aldous.__all__) <= set(dir(aldous))
    namespace: dict = {}
    exec("from aldous import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(aldous.__all__)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_the_submodule_attribute(module, name):
    value = getattr(importlib.import_module(f"aldous.{module}"), name)
    assert getattr(aldous, name) is value
    namespace: dict = {}
    exec(f"from aldous import {name}", namespace)
    assert namespace[name] is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'aldous' has no attribute 'no_such_name'"):
        aldous.no_such_name
    with pytest.raises(ImportError):
        exec("from aldous import no_such_name", {})

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import aldous
from aldous import cli, conjecture, interchange, yor
from aldous.cli import main
from aldous.graphs import collapse_last_vertex, graph_from_json_dict, graph_to_json_dict
from helpers import forbid_large_factorials, loop_rho_sums


GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, payload, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_fresh(argv, env=(), **kwargs):
    """`aldous argv` in a fresh interpreter that imports this package,
    with `env` added to the environment; stdout and stderr as bytes."""
    src = str(Path(aldous.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **dict(env))
    return subprocess.run(
        [sys.executable, "-m", "aldous.cli", *argv], env=env, capture_output=True, timeout=120, **kwargs
    )


def seed3_wheel10(capsys, tmp_path):
    assert main(["--seed", "3", "generate", "wheel", "10"]) == 0
    return write_graph(tmp_path, json.loads(capsys.readouterr().out))


@pytest.fixture
def wheel7_file(tmp_path):
    edges = [[1, i, 1.0] for i in range(2, 8)] + [[i, i + 1, 1.0] for i in range(2, 7)] + [[2, 7, 1.0]]
    return write_graph(tmp_path, {"n": 7, "edges": edges})


class TestGap:
    def test_wheel7_passes(self, capsys, wheel7_file):
        code, out, err = run_cli(capsys, "gap", wheel7_file)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["argmin_partition"] == "6,1"
        assert payload["gap_interchange"] == pytest.approx(payload["gap_rw"], rel=1e-9)

    def test_two_vertex_gap_values(self, capsys, tmp_path):
        path = write_graph(tmp_path, {"n": 2, "edges": [[1, 2, 0.75]]})
        code, out, _ = run_cli(capsys, "gap", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["gap_interchange"] == pytest.approx(1.5)
        assert payload["gap_rw"] == pytest.approx(1.5)

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run_cli(capsys, "gap", str(path))
        assert code == 2
        assert out == ""  # no partial output
        assert "error:" in err

    @pytest.mark.parametrize(
        "edges",
        [
            [[1, 2, -1.0]],
            [[1, 2, None]],
            [[1, 2, [1]]],
            [[1, 2, {}]],
            [[True, 2, 1.0], [2, 3, 1.0]],
        ],
        ids=["negative_weight", "null_weight", "list_weight", "object_weight", "bool_vertex"],
    )
    def test_invalid_graph_exits_2(self, capsys, tmp_path, edges):
        path = write_graph(tmp_path, {"n": 3, "edges": edges})
        code, out, err = run_cli(capsys, "gap", path)
        assert code == 2 and out == ""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "gap", str(tmp_path / "absent.json"))
        assert code == 2

    def test_byte_identical_reruns(self, capsys, wheel7_file):
        _, out1, _ = run_cli(capsys, "gap", wheel7_file)
        _, out2, _ = run_cli(capsys, "gap", wheel7_file)
        assert out1 == out2

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_fresh_processes_print_the_same_bytes(self, capsys, tmp_path, threads):
        """The per-shape minima of the seed-3 10-vertex wheel differ in
        their last digits between one and two OpenBLAS threads, so the
        thread count is part of the configuration that fixes the output;
        with it fixed, two fresh processes print the same bytes."""
        argv = ["gap", seed3_wheel10(capsys, tmp_path)]
        first, second = (run_fresh(argv, {"OPENBLAS_NUM_THREADS": threads}) for _ in range(2))
        assert first.returncode == 0 and first.stdout, first.stderr
        assert second.stdout == first.stdout


@pytest.mark.skipif(sys.platform != "linux", reason="sets RLIMIT_AS")
@pytest.mark.parametrize(
    "argv, limits",
    [
        (["gap"], [*range(160000, 196000, 8000), 196000]),
        (["--format", "json", "rep", "8,8", "(1 2)"], range(160000, 260001, 20000)),
        (["--format", "csv", "rep", "8,8", "(1 2)"], range(160000, 260001, 20000)),
        (
            ["check-conjecture", "--k", "10", "--gamma", "1,2,3,4,5,6,7,8,9"],
            [*range(160000, 196000, 8000), 196000, 260000],
        ),
        (["--format", "json", "decompose"], range(160000, 220001, 10000)),
        (["--format", "csv", "decompose"], range(160000, 260001, 10000)),
        (["certify", "--k", "3"], range(160000, 260001, 20000)),
    ],
    ids=["gap", "rep-json", "rep-csv", "check-conjecture", "decompose-json", "decompose-csv", "certify"],
)
def test_address_space_ladder_gives_refusal_or_result(capsys, tmp_path, argv, limits):
    """Under `ulimit -v` limits (in KB) around what each run needs, the
    command prints the unlimited run's stdout or refuses with exit 2 and
    empty stdout. `aldous gap` on the seed-3 10-vertex wheel never dies in
    numpy's first solve, whose OpenBLAS buffer its estimate counts, and
    `aldous rep` never dies in its text, which it makes a row at a time.
    `check-conjecture` at k = 10 and `decompose` on the 9-vertex wheel make
    the same per-shape pass with the same estimate; the CSV `decompose`
    also counts the merged spectrum and its text. `certify` on the
    1500-vertex path fits at every rung. Below about 150000 KB the
    interpreter dies inside `import numpy`, before any check can run."""
    import resource

    if argv == ["gap"]:
        argv = ["gap", seed3_wheel10(capsys, tmp_path)]
    elif argv[-1] == "decompose":
        assert main(["generate", "wheel", "9"]) == 0
        argv = [*argv, write_graph(tmp_path, json.loads(capsys.readouterr().out))]
    elif argv[0] == "certify":
        assert main(["generate", "path", "1500"]) == 0
        argv = [*argv, write_graph(tmp_path, json.loads(capsys.readouterr().out))]
    full = run_fresh(argv)
    assert full.returncode == 0 and full.stdout, full.stderr
    for kb in limits:
        def limit(kb=kb):
            resource.setrlimit(resource.RLIMIT_AS, (kb * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]))

        run = run_fresh(argv, preexec_fn=limit)
        assert (run.returncode, run.stdout) in ((0, full.stdout), (2, b"")), (kb, run.returncode, run.stderr)


class TestCheckConjecture:
    def test_k4_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check-conjecture", "--k", "4", "--gamma", "1,2,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["per_lambda"]) == 5
        assert {entry["lambda"] for entry in payload["per_lambda"]} == {
            "4", "3,1", "2,2", "2,1,1", "1,1,1,1",
        }

    def test_bad_gamma_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "check-conjecture", "--k", "4", "--gamma", "1,-2,3")
        assert code == 2 and out == ""

    def test_arity_mismatch_exits_2(self, capsys):
        code, *_ = run_cli(capsys, "check-conjecture", "--k", "4", "--gamma", "1,2")
        assert code == 2


class TestCertify:
    def test_tree_certificate_and_replay(self, capsys, tmp_path):
        path = write_graph(tmp_path, {"n": 4, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0]]})
        code, out, _ = run_cli(capsys, "--budget", "1000", "certify", path, "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "certified"
        assert payload["states_expanded"] == 2
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, out, _ = run_cli(capsys, "certify", "--replay", str(cert_path))
        assert code == 0
        assert json.loads(out)["replay_ok"] is True

    def test_k5_fails_with_exit_1(self, capsys, tmp_path):
        edges = [[i, j, 1.0] for i in range(1, 6) for j in range(i + 1, 6)]
        path = write_graph(tmp_path, {"n": 5, "edges": edges})
        code, out, _ = run_cli(capsys, "certify", path, "--k", "4")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "no_certificate"
        # every vertex of K5 has positive degree 4 > K - 1: only the root is expanded
        assert payload["states_expanded"] == 1

    def test_exhausted_search_reports_state_count(self, capsys, tmp_path):
        # K5 plus three leaves on vertex 1: no K = 4 order exists, and the
        # search visits every ordering of the leaves, 1 + 3 + 6 + 6 states
        edges = [[i, j, 1.0] for i in range(1, 6) for j in range(i + 1, 6)]
        edges += [[1, leaf, 1.0] for leaf in (6, 7, 8)]
        path = write_graph(tmp_path, {"n": 8, "edges": edges})
        code, out, _ = run_cli(capsys, "certify", path, "--k", "4")
        assert code == 1
        assert json.loads(out) == {"k": 4, "n": 8, "states_expanded": 16, "status": "no_certificate"}

    def test_large_finite_rates_certify(self, capsys, tmp_path):
        # `gap` accepts rates of 1e200; the collapse fill-in must not overflow
        edges = [[1, 2, 1e200], [2, 3, 1e200], [3, 4, 1e200], [1, 4, 1e200]]
        path = write_graph(tmp_path, {"n": 4, "edges": edges})
        code, out, err = run_cli(capsys, "certify", path)
        assert code == 0 and err == ""
        cert = json.loads(out)["certificate"]
        assert json.loads(out)["status"] == "certified"
        assert cert["graph"] == {"n": 4, "edges": sorted(edges)}
        collapsed = collapse_last_vertex(graph_from_json_dict(cert["graph"]), cert["steps"][0][0])
        assert graph_to_json_dict(collapsed)["edges"][0] == [1, 2, 5e199]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, out, _ = run_cli(capsys, "certify", "--replay", str(cert_path))
        assert code == 0 and json.loads(out)["replay_ok"] is True

    def test_replay_rejects_malformed(self, capsys, tmp_path, wheel7_file):
        code, out, _ = run_cli(capsys, "certify", wheel7_file)
        cert = json.loads(out)["certificate"]
        old = {"max_degree_bound": 3, "steps": cert["steps"], "graphs": [cert["graph"]]}
        # the bare certificate, the format that recorded every graph, and a payload without one
        for payload in [cert, old, {"certificate": old}, {"status": "no_certificate"}, {"steps": []}]:
            cert_path = tmp_path / "cert.json"
            cert_path.write_text(json.dumps(payload))
            code, out, err = run_cli(capsys, "certify", "--replay", str(cert_path))
            assert code == 2 and out == "" and "malformed certificate" in err, payload

    def test_replay_rejects_a_certificate_that_stops_early(self, capsys, tmp_path, wheel7_file):
        code, out, _ = run_cli(capsys, "certify", wheel7_file)
        payload = json.loads(out)
        steps = payload["certificate"]["steps"]
        assert code == 0 and len(steps) == 5
        for prefix in ([], steps[:1], steps[:-1]):
            payload["certificate"]["steps"] = prefix
            cert_path = tmp_path / "cert.json"
            cert_path.write_text(json.dumps(payload))
            code, out, _ = run_cli(capsys, "certify", "--replay", str(cert_path))
            assert code == 1 and json.loads(out) == {"replay_ok": False}, prefix

    @pytest.mark.parametrize(
        "field, text",
        [
            ("vertex", "1.7"),
            ("degree", "1.5"),
            ("bound", "1.5"),
            ("bound", "Infinity"),
            ("bound", "1e400"),
            ("vertex", "true"),
            ("vertex", '"1"'),
            ("step", "[1, 1, 0]"),
            ("step", "[1]"),
        ],
    )
    def test_replay_requires_integer_fields_and_pairs(self, capsys, tmp_path, field, text):
        """Fractional, infinite, bool and string values, and steps that are
        not pairs, exit 2 instead of being truncated or raising. 1.7, 1.5
        and 1e400 were once read by int() as 1, 1 and an OverflowError."""
        path = write_graph(tmp_path, {"n": 4, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0]]})
        code, out, _ = run_cli(capsys, "certify", path, "--k", "2")
        payload = json.loads(out)
        cert = payload["certificate"]
        assert cert["max_degree_bound"] == 1 and cert["steps"][0] == [1, 1]
        if field == "bound":
            cert["max_degree_bound"] = "@"
        else:
            cert["steps"][0] = {"vertex": ["@", 1], "degree": [1, "@"], "step": "@"}[field]
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload).replace('"@"', text))
        code, out, err = run_cli(capsys, "certify", "--replay", str(cert_path))
        assert code == 2 and out == ""
        assert "malformed certificate" in err

    def test_tampered_certificate_fails_replay(self, capsys, tmp_path):
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]]})
        code, out, _ = run_cli(capsys, "certify", path, "--k", "2")
        payload = json.loads(out)
        assert payload["certificate"]["steps"] == [[1, 1]]
        payload["certificate"]["steps"][0] = [2, 1]  # vertex 2 has positive degree 2
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "certify", "--replay", str(cert_path))
        assert code == 1
        assert json.loads(out)["replay_ok"] is False


class TestGenerate:
    def test_wheel7(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "wheel", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 7
        assert len(payload["edges"]) == 12
        assert all(w == 1.0 for _, _, w in payload["edges"])

    def test_seeded_weights_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "--seed", "9", "generate", "complete", "4")
        _, out2, _ = run_cli(capsys, "generate", "complete", "4", "--seed", "9")
        assert out1 == out2
        weights = [w for _, _, w in json.loads(out1)["edges"]]
        assert all(0.5 <= w <= 1.5 for w in weights)

    def test_nested_triangulation(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "nested_triangulation", "1", "1")
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_bad_params_exit_2(self, capsys):
        code, *_ = run_cli(capsys, "generate", "wheel", "3")
        assert code == 2
        code, *_ = run_cli(capsys, "generate", "wheel", "7", "2")
        assert code == 2

    def test_refuses_exactly_above_the_estimate(self, capsys, monkeypatch):
        """720 bytes for each of the 12 edges of wheel 7."""
        monkeypatch.setattr(yor, "_available_bytes", lambda: 12 * 720)
        code, out, _ = run_cli(capsys, "generate", "wheel", "7")
        assert code == 0 and json.loads(out)["n"] == 7
        monkeypatch.setattr(yor, "_available_bytes", lambda: 12 * 720 - 1)
        code, out, err = run_cli(capsys, "generate", "wheel", "7")
        assert code == 2 and out == ""
        assert "the edges of wheel 7 and their JSON text need" in err

    @pytest.mark.parametrize("argv", [["complete", "30000"], ["nested_triangulation", "30", "1"]])
    def test_oversized_request_refused_before_building(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(yor, "_available_bytes", lambda: 2**30)
        monkeypatch.setattr(cli, "generate", lambda *args, **kwargs: pytest.fail("built a graph"))
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: the edges of {' '.join(argv)} and their JSON text need")


class TestDecompose:
    def test_json_shape_and_count(self, capsys, tmp_path):
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 1.0]]})
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["state_count"] == 6
        dims = {entry["lambda"]: entry["dim"] for entry in payload["per_lambda"]}
        assert dims == {"3": 1, "2,1": 2, "1,1,1": 1}
        assert payload["direct_check"] == {"performed": True, "matches": True}

    @pytest.mark.parametrize("n, performed", [(4, True), (7, True), (8, False)])
    def test_direct_check_up_to_dense_limit(self, capsys, tmp_path, n, performed):
        edges = [[i, i + 1, 1.0] for i in range(1, n)] + [[1, n, 0.5]]
        path = write_graph(tmp_path, {"n": n, "edges": edges})
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0
        expected = {"performed": True, "matches": True} if performed else {"performed": False, "matches": None}
        assert json.loads(out)["direct_check"] == expected

    def test_csv_merged_spectrum(self, capsys, tmp_path):
        path = write_graph(tmp_path, {"n": 3, "edges": [[1, 2, 1.0], [1, 3, 1.0], [2, 3, 1.0]]})
        code, out, _ = run_cli(capsys, "--format", "csv", "decompose", path)
        assert code == 0
        values = [float(line) for line in out.strip().splitlines()]
        assert len(values) == 6
        assert values == sorted(values)
        # K3 interchange spectrum: {0, 3, 3, 3, 3, 6}
        assert values == pytest.approx([0.0, 3.0, 3.0, 3.0, 3.0, 6.0], abs=1e-9)

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 5, "edges": [[1, 2, 1.5], [2, 3, 0.0], [3, 4, 0.75], [1, 5, 2.0], [4, 5, 1.0]]},
            {"n": 4, "edges": [[1, 2, 0.0], [2, 3, 0.0], [3, 4, 0.0]]},
        ],
        ids=["zero_weight_edge", "all_zero"],
    )
    def test_matches_library_spectrum_and_dimensions(self, capsys, tmp_path, payload):
        from aldous.tableaux import f_dim, parse_partition

        path = write_graph(tmp_path, payload)
        code, out, err = run_cli(capsys, "--format", "csv", "decompose", path)
        assert code == 0 and err == ""
        # the reference merge: every block's spectrum repeated as often as
        # its dimension, in one stable sort of Python floats
        spectra = yor.shape_spectra(graph_from_json_dict(payload))
        merged = sorted(v for _, vals, _ in spectra for v in vals.tolist() * len(vals))
        assert out == "".join(f"{v:.17g}\n" for v in merged)
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0
        per_lambda = json.loads(out)["per_lambda"]
        assert [entry["dim"] for entry in per_lambda] == [
            f_dim(parse_partition(entry["lambda"])) for entry in per_lambda
        ]

    def test_json_holds_only_the_blocks(self, capsys, tmp_path):
        """JSON output once built a sorted list of all n! eigenvalues that
        it never printed: 537 MB peak RSS on wheel 11 against 167 MB for
        `aldous gap`."""
        edges = [[1, i, 1.0] for i in range(2, 10)] + [[i, i + 1, 1.0] for i in range(2, 9)] + [[2, 9, 1.0]]
        payload = {"n": 9, "edges": edges}
        path = write_graph(tmp_path, payload)
        graph = graph_from_json_dict(payload)
        yor.shape_spectra(graph)  # fills the caches of tableaux and tables
        tracemalloc.start()
        try:
            yor.shape_spectra(graph)
            _, blocks = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            code, out, _ = run_cli(capsys, "decompose", path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["state_count"] == math.factorial(9)
        # an n!-long array of pointers or floats alone would be 8 * 9! bytes
        assert peak - blocks < 8 * math.factorial(9) / 4

    def test_json_solves_the_blocks_once(self, capsys, monkeypatch, wheel7_file):
        """The direct check at n <= 7 once merged a shape_spectra pass of
        its own before the pass that the JSON prints."""
        calls = []

        def counted(graph):
            calls.append(graph.n)
            return yor.shape_spectra(graph)

        monkeypatch.setattr(cli, "shape_spectra", counted)
        monkeypatch.setattr(interchange, "shape_spectra", counted)
        code, out, _ = run_cli(capsys, "decompose", wheel7_file)
        assert code == 0 and json.loads(out)["direct_check"] == {"performed": True, "matches": True}
        assert calls == [7]

    def test_csv_refused_before_any_block(self, capsys, tmp_path, monkeypatch):
        path = write_graph(tmp_path, {"n": 9, "edges": [[1, 2, 1.0], [2, 9, 0.5]]})
        need = math.factorial(9) * cli._DECOMPOSE_CSV_BYTES + 2**26
        monkeypatch.setattr(yor, "_available_bytes", lambda: need - 1)
        monkeypatch.setattr(interchange, "shape_spectra", lambda graph: pytest.fail("built the blocks"))
        code, out, err = run_cli(capsys, "--format", "csv", "decompose", path)
        assert code == 2 and out == ""
        assert err.startswith("error: the 9! eigenvalues of the merged spectrum and their CSV text need")
        monkeypatch.setattr(yor, "_available_bytes", lambda: need)
        monkeypatch.setattr(interchange, "shape_spectra", yor.shape_spectra)
        code, out, _ = run_cli(capsys, "--format", "csv", "decompose", path)
        assert code == 0 and len(out.splitlines()) == math.factorial(9)


class TestRep:
    def test_csv_matches_reference_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "rep", "3,1", "(14)")
        assert code == 0
        data_lines = [line for line in out.splitlines() if not line.startswith("#")]
        matrix = [[float(x) for x in line.split(",")] for line in data_lines]
        from aldous.tableaux import Partition
        from aldous.yor import s4_transposition_matrix
        import numpy as np

        expected = s4_transposition_matrix(Partition((3, 1)), 1, 4)
        assert np.allclose(matrix, expected, atol=1e-12)

    def test_header_documents_tableaux(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "csv", "rep", "2,1", "(1 2)")
        assert "#   0: 1,2/3" in out
        assert "#   1: 1,3/2" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "2,1^2", "(1 2)(3 4)")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == "2,1,1"
        assert payload["dim"] == 3

    @pytest.mark.parametrize(
        ("partition", "entry"), [("130", 1.0), ("1^130", -1.0), ("1000", 1.0)]
    )
    def test_long_shapes_print_their_one_entry(self, capsys, partition, entry):
        # more columns or rows than an int8 index holds, and a row longer
        # than the interpreter's recursion limit
        code, out, _ = run_cli(capsys, "rep", partition, "(1 2)")
        assert code == 0
        assert json.loads(out)["matrix"] == [[entry]]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_text_fits_beside_the_matrix(self, capsys, monkeypatch, fmt):
        """With its caches warm, `rep` 8,8 holds no more than what
        rho_sigma's estimate counts, two f x f arrays and 200 bytes per box
        of each tableau, while it writes to a sink that keeps no text: the
        text is made a row at a time."""
        from aldous.tableaux import Partition, enumerate_syt

        argv = ["--format", fmt, "rep", "8,8", "(1 2)"]
        assert main(argv) == 0  # fills the caches of tableaux and tables
        expected = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
        f = len(enumerate_syt(Partition((8, 8))))
        digest = hashlib.md5()

        class Sink:
            def writelines(self, chunks):
                for chunk in chunks:
                    digest.update(chunk.encode())

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest.hexdigest() == expected
        assert peak <= 2 * f * f * 8 + 200 * 16 * f

    def test_bad_sigma_exits_2(self, capsys):
        code, *_ = run_cli(capsys, "rep", "3,1", "(1 9)")
        assert code == 2

    @pytest.mark.parametrize("sigma", ["(1 2", "(1 2)(3", "(1 2))", "((1 2)", "(1 2) 3"])
    def test_malformed_cycle_notation_exits_2(self, capsys, sigma):
        code, out, err = run_cli(capsys, "--format", "csv", "rep", "2,1", sigma)
        assert code == 2 and out == ""
        assert "malformed cycle notation" in err


@pytest.mark.parametrize(
    "option",
    [["--tol", "0"], ["--tol", "inf"], ["--tol", "nan"], ["--tol", "-1"], ["--budget", "-1"]],
)
def test_invalid_global_option_exits_2(capsys, option):
    code, out, err = run_cli(capsys, *option, "check-conjecture", "--k", "4", "--gamma", "1,2,3")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [["gap"], ["certify"], ["decompose"], ["certify", "--replay"]])
def test_integer_weight_beyond_the_float_range_exits_2(capsys, tmp_path, argv):
    """float() of a 401-digit JSON integer raises OverflowError, which
    once escaped as a traceback with exit 1."""
    graph = {"n": 3, "edges": [[1, 2, 10**400], [2, 3, 1.0]]}
    replay = "--replay" in argv
    payload = {"certificate": {"max_degree_bound": 1, "steps": [[1, 1]], "graph": graph}} if replay else graph
    code, out, err = run_cli(capsys, *argv, write_graph(tmp_path, payload))
    assert code == 2 and out == ""
    prefix = "error: malformed certificate: " if replay else "error: "
    assert err.startswith(prefix + "weight for edge (1, 2) must be finite")


@pytest.mark.parametrize(
    "command, subject",
    [
        (["gap"], "the per-shape blocks of "),
        (["decompose"], "the per-shape blocks of "),
        (["--format", "csv", "decompose"], "the 100000000! eigenvalues of the merged spectrum "),
        (["check-conjecture"], "the per-shape blocks of "),
    ],
    ids=["gap", "decompose", "decompose-csv", "check-conjecture"],
)
def test_refused_from_the_size_alone(capsys, tmp_path, monkeypatch, command, subject):
    """`gap` once formed (n-1)! before refusing, 9 s at n = 10^6, and
    `check-conjecture` its k^2/2 comparison weights, 9.9 s and 355 MB at
    k = 1500."""
    forbid_large_factorials(monkeypatch)
    monkeypatch.setattr(conjecture, "comparison_weights", lambda gamma: pytest.fail("built the weights"))
    if command == ["check-conjecture"]:
        argv = [*command, "--k", "3000", "--gamma", ",".join(["1"] * 2999)]
    else:
        argv = [*command, write_graph(tmp_path, {"n": 10**8, "edges": [[1, 2, 1.0]]})]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: " + subject) and "need about inf GiB" in err


class TestGoldenStdout:
    """Stdout recorded once to tests/golden and compared byte for byte.

    Unit weights only, so no RNG stream and no LAPACK result enters the
    recorded files.
    """

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["generate", "wheel", "7"], "generate_wheel_7.json"),
            (
                ["generate", "nested_triangulation", "2", "1"],
                "generate_nested_triangulation_2_1.json",
            ),
            (["certify", str(GOLDEN / "generate_wheel_7.json")], "certify_wheel_7.json"),
            (
                ["certify", str(GOLDEN / "generate_nested_triangulation_2_1.json")],
                "certify_nested_triangulation_2_1.json",
            ),
            (["--format", "json", "rep", "3,2,1", "(1 4)(2 6)"], "rep_3_2_1.json"),
            (["--format", "csv", "rep", "3,2,1", "(1 4)(2 6)"], "rep_3_2_1.csv"),
        ],
    )
    def test_matches_recorded_stdout(self, capsys, argv, golden):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "wheel_7"],
        ["gap", "wheel_8"],
        ["check-conjecture", "--k", "7", "--gamma", "1,2,3,4,5,6"],
        ["--format", "json", "decompose", "wheel_7"],
        ["--format", "csv", "decompose", "wheel_7"],
    ],
    ids=["gap-wheel7", "gap-wheel8", "check-conjecture-k7", "decompose-json", "decompose-csv"],
)
def test_per_shape_stdout_matches_the_loop_oracle(capsys, monkeypatch, tmp_path, argv):
    """The per-shape commands print the same bytes whether their blocks
    come from `yor._rho_sums` or from `loop_rho_sums`, the per-column
    builder it replaced. Their eigenvalues depend on the CPU's BLAS
    kernels, so this compares two runs instead of a golden file."""
    graphs = {}
    for n in (7, 8):
        assert main(["generate", "wheel", str(n)]) == 0
        graphs[f"wheel_{n}"] = tmp_path / f"wheel_{n}.json"
        graphs[f"wheel_{n}"].write_text(capsys.readouterr().out)
    argv = [str(graphs.get(arg, arg)) for arg in argv]
    built = run_cli(capsys, *argv)
    monkeypatch.setattr(yor, "_rho_sums", loop_rho_sums)
    assert run_cli(capsys, *argv) == built
    assert built[0] == 0 and built[1] and built[2] == ""

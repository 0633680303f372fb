"""Command-line surface: batch verification and data export.

Subcommands wrap the library one-to-one: `gap` (spectral-gap equality
report), `check-conjecture` (per-shape PSD sweep), `certify` (weighted
elimination certificates, with `--replay`), `generate` (named graph
families as JSON), `decompose` (interchange spectrum by shape), and
`rep` (representation matrices). Output is deterministic byte for byte
given identical input, seed, and configuration, and the configuration
includes the OpenBLAS thread count (`OPENBLAS_NUM_THREADS`): the
eigenvalues that `gap`, `check-conjecture` and `decompose` print can
differ in their last digits between thread counts. Errors print to
stderr only. Exit codes: 0 pass/success, 1 fail, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterator
from itertools import chain
from typing import TYPE_CHECKING

from .graphs import _FAMILIES, WeightedGraph, generate, generated_edges
from .graphs import graph_from_json_dict, graph_to_json_dict
from .interchange import _merged_spectrum, aldous_check, interchange_spectrum, spectrum_via_irreps
from .spectral import BLAS_BUFFER_BYTES, DEFAULT_TOL, DENSE_LIMIT, multiset_equal
from .tableaux import Partition, enumerate_syt, parse_partition
from .yor import _require_bytes, _states, rho_sigma, shape_spectra

if TYPE_CHECKING:
    from .reduction import EliminationCertificate

# Peak bytes per state while `decompose` makes its CSV: the per-shape
# spectra tiled, their concatenation, its sorted copy and the sort's
# buffer. Beside them stay the work buffer that numpy's OpenBLAS maps on
# the first per-shape solve and 32 MiB for the text of one chunk of
# _CSV_CHUNK values at a time. Measured as 21.7 (wheel 11) and 22.7
# (wheel 10) bytes of address space per state beyond that buffer.
_DECOMPOSE_CSV_BYTES = 22
_CSV_CHUNK = 2**16
# Peak bytes per edge while `generate` makes a graph, its JSON object and
# text: 600-710 resident bytes per edge measured at 0.27-1.1 million edges
# (complete, star, nested_triangulation; with and without --seed).
_GENERATE_BYTES = 720


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _partition_text(lam: Partition) -> str:
    return ",".join(str(p) for p in lam.parts)


def _load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return graph_from_json_dict(data)


def _cmd_gap(args) -> tuple[str, int]:
    G = _load_graph(args.graph)
    report = aldous_check(G, tol=args.tol)
    payload = {
        "gap_interchange": report.gap_interchange,
        "gap_rw": report.gap_rw,
        "argmin_partition": _partition_text(report.argmin_partition),
        "pass": report.passed,
        "n": G.n,
        "minima": {_partition_text(lam): v for lam, v in report.minima.items()},
        "tied_partitions": [_partition_text(lam) for lam in report.tied_partitions],
    }
    return _dump_json(payload), 0 if report.passed else 1


def _cmd_check_conjecture(args) -> tuple[str, int]:
    from .conjecture import check_conjecture

    gamma = tuple(float(tok) for tok in args.gamma.split(","))
    report = check_conjecture(args.k, gamma, tol=args.tol)
    payload = {
        "k": report.k,
        "gamma": list(report.gamma),
        "pass": report.passed,
        "per_lambda": [
            {
                "lambda": _partition_text(v.partition),
                "dim": v.dim,
                "min_eig": v.min_eig,
                "status": v.status,
            }
            for v in report.per_shape
        ],
    }
    return _dump_json(payload), 0 if report.passed else 1


def _certificate_payload(cert: EliminationCertificate) -> dict:
    return {
        "max_degree_bound": cert.max_degree_bound,
        "steps": [[v, d] for v, d in cert.steps],
        "graph": graph_to_json_dict(cert.graph),
    }


def _certificate_int(value) -> int:
    """A JSON integer that is not a bool, as vertex ids must be."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _certificate_step(step) -> tuple[int, int]:
    if not isinstance(step, list) or len(step) != 2:
        raise TypeError(f"a step must be [vertex, degree], got {step!r}")
    return _certificate_int(step[0]), _certificate_int(step[1])


def _cmd_certify(args) -> tuple[str, int]:
    from .reduction import EliminationCertificate, certify_elimination, replay_elimination

    if args.replay:
        with open(args.graph, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        try:
            data = data["certificate"]
            cert = EliminationCertificate(
                max_degree_bound=_certificate_int(data["max_degree_bound"]),
                steps=tuple(map(_certificate_step, data["steps"])),
                graph=graph_from_json_dict(data["graph"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate: {exc}")
        ok = replay_elimination(cert)
        return _dump_json({"replay_ok": ok}), 0 if ok else 1
    G = _load_graph(args.graph)
    result = certify_elimination(G, K=args.k, budget=args.budget)
    payload: dict = {
        "status": result.status,
        "states_expanded": result.states_expanded,
        "k": args.k,
        "n": G.n,
    }
    if result.certificate is not None:
        payload["certificate"] = _certificate_payload(result.certificate)
    return _dump_json(payload), 0 if result.certified else 1


def _cmd_generate(args) -> tuple[str, int]:
    what = f"the edges of {' '.join([args.kind, *map(str, args.params)])} and their JSON text"
    _require_bytes(generated_edges(args.kind, *args.params) * _GENERATE_BYTES, what)
    G = generate(args.kind, *args.params, seed=args.seed)
    return _dump_json(graph_to_json_dict(G)), 0


def _cmd_decompose(args) -> tuple[str | Iterator[str], int]:
    G = _load_graph(args.graph)
    states = _states(G.n)
    if args.format == "csv":
        what = f"the {G.n}! eigenvalues of the merged spectrum and their CSV text"
        _require_bytes(states * _DECOMPOSE_CSV_BYTES + BLAS_BUFFER_BYTES + 2**25, what)
        spectrum = spectrum_via_irreps(G)
        chunks = (tuple(spectrum[k : k + _CSV_CHUNK].tolist()) for k in range(0, len(spectrum), _CSV_CHUNK))
        # one %-format per chunk: the bytes of f"{v:.17g}\n" per value, in
        # two thirds of the time
        return (("%.17g\n" * len(chunk)) % chunk for chunk in chunks), 0
    # before the per-shape solves: the dense solve's estimate counts the
    # OpenBLAS work buffer that numpy's first solve would map
    direct = interchange_spectrum(G) if states <= DENSE_LIMIT else None
    spectra = shape_spectra(G)  # refuses a huge n before n! is formed below
    matches = None if direct is None else multiset_equal(direct, _merged_spectrum(spectra), tol=1e-8)
    payload = {
        "n": G.n,
        "state_count": math.factorial(G.n),
        "per_lambda": [
            {
                "lambda": _partition_text(lam),
                "dim": len(vals),
                "eigenvalues": [float(v) for v in vals],
            }
            for lam, vals, _ in spectra
        ],
        "direct_check": {"performed": matches is not None, "matches": matches},
    }
    return _dump_json(payload), 0


def _cmd_rep(args) -> tuple[Iterator[str], int]:
    from .permutations import parse_permutation

    lam = parse_partition(args.partition)
    sigma = parse_permutation(args.sigma, lam.n)
    # rho_sigma's check is the only refusal: the text is made and written
    # a row at a time, after everything that can fail has run
    M = rho_sigma(lam, sigma)
    tableaux = [str(t) for t in enumerate_syt(lam)]
    if args.format == "json":
        payload = {
            "lambda": _partition_text(lam),
            "sigma": list(sigma.images),
            "dim": M.shape[0],
            "tableaux": tableaux,
            "matrix": None,
        }
        # the matrix in the layout and float text of json.dumps(indent=2)
        head, tail = _dump_json(payload).split('"matrix": null', 1)
        rows = (
            ("," if k else "") + "\n    [\n      " + ",\n      ".join(map(repr, row.tolist())) + "\n    ]"
            for k, row in enumerate(M)
        )
        return chain([head + '"matrix": ['], rows, ["\n  ]" + tail]), 0
    header = [
        f"# rho for shape ({_partition_text(lam)}) at sigma with one-line word "
        f"{','.join(map(str, sigma.images))}\n",
        "# rows/columns indexed by standard tableaux in dictionary order:\n",
        *(f"#   {idx}: {t}\n" for idx, t in enumerate(tableaux)),
    ]
    return chain(header, (",".join(f"{x:.17g}" for x in row.tolist()) + "\n" for row in M)), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aldous",
        description="Spectral-gap toolkit for interchange processes on weighted graphs.",
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="relative tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help="draw Uniform(0.5, 1.5) generator weights instead of unit weights")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--budget", type=int, default=100_000, help="search budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="compare interchange and random-walk spectral gaps")
    p.set_defaults(handler=_cmd_gap)
    p.add_argument("graph", help="graph JSON file")

    p = sub.add_parser("check-conjecture", help="per-shape PSD sweep for given rates")
    p.set_defaults(handler=_cmd_check_conjecture)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", required=True, help="comma-separated k-1 nonnegative rates")

    p = sub.add_parser("certify", help="search for a bounded-degree elimination order")
    p.set_defaults(handler=_cmd_certify)
    p.add_argument("graph", help="graph JSON file (or, with --replay, the output of certify)")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--replay", action="store_true", help="verify a stored certificate")

    p = sub.add_parser("generate", help="emit a named graph family as JSON")
    p.set_defaults(handler=_cmd_generate)
    p.add_argument("kind", choices=sorted(_FAMILIES))
    p.add_argument("params", type=int, nargs="*")
    # SUPPRESS keeps a subcommand-level --seed from clobbering the global one
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, dest="seed",
                   help="draw Uniform(0.5, 1.5) weights instead of unit weights")

    p = sub.add_parser("decompose", help="interchange spectrum shape by shape")
    p.set_defaults(handler=_cmd_decompose)
    p.add_argument("graph", help="graph JSON file")

    p = sub.add_parser("rep", help="dump a representation matrix")
    p.set_defaults(handler=_cmd_rep)
    p.add_argument("partition", help="partition text, e.g. 3,1 or 2,1^2")
    p.add_argument("sigma", help='permutation: cycles "(1 4)(2 3)" or one-line "2,1,4,3"')

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.tol > 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(args.tol):
            raise ValueError("tolerance must be finite")
        if args.budget < 0:
            raise ValueError("budget must be nonnegative")
        output, code = args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # `rep` and CSV `decompose` hand over their text in chunks, each made
    # as it is written
    sys.stdout.writelines([output] if isinstance(output, str) else output)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Worker process for the benchmark driver in `run.py`.

Two modes, both started by the driver with `src` on `PYTHONPATH` and the
BLAS/OpenMP thread count pinned in the environment:

`serve --module M [--warm-n N] [--spans PATH]`
    Imports M, warms the caches with `aldous_check(complete_graph(N))`
    when N > 0, and prints one `{"ready": true}` line. It then answers
    one JSON request per stdin line with one JSON line on stdout, timing
    each library call with `time.perf_counter`. The `calibrate` request
    times the host-speed calibration of `calibration.py` in this process.
    A request marked `"trace": true` runs with the layer tracer installed.
    At end of input the recorded spans are written to PATH.

`cli --spans PATH --request-id ID -- ARGS...`
    Runs `aldous.cli.main(ARGS)` under the tracer, with the import of
    `aldous.cli` recorded as its own span, and writes the spans to PATH.
    The CLI's stdout and exit code pass through unchanged.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from calibration import calibrate  # noqa: E402
from tracer import Tracer, yor_cache_bytes  # noqa: E402


def _graph(data):
    from aldous import graphs

    return graphs.graph_from_json_dict(data)


def _gap(args: dict) -> tuple[dict, None]:
    from aldous import interchange

    report = interchange.aldous_check(_graph(args["graph"]))
    out = {"pass": bool(report.passed), "gap_rw": report.gap_rw, "gap_interchange": report.gap_interchange}
    return out, None


def _conjecture(args: dict) -> tuple[dict, None]:
    from aldous import conjecture

    report = conjecture.check_conjecture(args["k"], args["gamma"])
    return {"passed": bool(report.passed), "min_eig": report.min_eigenvalue()}, None


def _oracle(args: dict) -> tuple[dict, None]:
    from aldous import interchange

    G = _graph(args["graph"])
    return {"gap_interchange": interchange.gap_interchange(G), "gap_rw": interchange.gap_rw(G)}, None


def _eliminate(args: dict) -> tuple[dict, tuple]:
    from aldous import reduction

    G = _graph(args["graph"])
    elim = reduction.certify_elimination(G, K=args["k"])
    red = reduction.reduce_to_edge(reduction.Skeleton.from_graph(G))
    out = {
        "elimination": [elim.status, elim.states_expanded],
        "reduction": [red.status, red.states_expanded],
    }
    return out, (elim.certificate, red.certificate)


def _replay(certificates) -> bool:
    """Replay every certificate a search returned; run outside the timed call."""
    from aldous import reduction

    elim, red = certificates
    ok = elim is None or reduction.replay_elimination(elim)
    return ok and (red is None or reduction.replay_reduction(red))


def _calibrate(args: dict) -> tuple[dict, None]:
    return {"seconds": calibrate()}, None


OPS = {"gap": _gap, "conjecture": _conjecture, "oracle": _oracle, "eliminate": _eliminate,
       "calibrate": _calibrate}


def _write_spans(path: str, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counters": dict(tracer.counters)}, handle)


def serve(opts) -> int:
    importlib.import_module(opts.module)
    if opts.warm_n:
        from aldous import graphs, interchange

        interchange.aldous_check(graphs.complete_graph(opts.warm_n))
    tracer = Tracer()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        op = OPS[request["op"]]
        traced = request.get("trace", False)
        reply: dict = {"id": request["id"]}
        if traced:
            tracer.install()
        try:
            if traced:
                with tracer.request(request["id"]):
                    t0 = time.perf_counter()
                    result, certificates = op(request["args"])
                    t1 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                result, certificates = op(request["args"])
                t1 = time.perf_counter()
        except Exception as exc:  # a failing library call is a failed request, not a dead worker
            reply["error"] = f"{type(exc).__name__}: {exc}"
        else:
            if traced:
                reply["cache_bytes"] = yor_cache_bytes()
            if certificates is not None:
                result["replay_ok"] = _replay(certificates)
            reply.update(latency_s=t1 - t0, result=result)
        finally:
            tracer.uninstall()
        print(json.dumps(reply), flush=True)
    if opts.spans:
        _write_spans(opts.spans, tracer)
    return 0


def cli(opts) -> int:
    tracer = Tracer()
    with tracer.request(opts.request_id, start=STARTED):
        t0 = time.perf_counter()
        aldous_cli = importlib.import_module("aldous.cli")
        tracer.add_span("import", "import", t0, time.perf_counter())
        tracer.install()
        code = aldous_cli.main(opts.argv)
    sys.stdout.flush()
    tracer.uninstall()
    tracer.counters["yor.cache_bytes"] = yor_cache_bytes()
    _write_spans(opts.spans, tracer)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--module", default="aldous")
    p.add_argument("--warm-n", type=int, default=0)
    p.add_argument("--spans")
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--request-id", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    if opts.mode == "cli":
        opts.argv = [a for a in opts.argv if a != "--"]
        return cli(opts)
    return serve(opts)


if __name__ == "__main__":
    sys.exit(main())

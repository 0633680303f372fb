"""End-to-end and per-layer benchmark of the `aldous` certifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout; the package is loaded from
`src/`. Load is a closed loop with one client: the driver sends the next
request only after the previous one completes, and at most one worker
process exists at a time. The driver builds every input from `--seed`
(graph JSON, rate vectors), and checks every output against oracles that
do not use `aldous`: lambda_2 of the random-walk Laplacian computed here
from the generated edge list, known verdicts of the graph families, and
exact repetition of search results. Workloads, metrics and bounds are
listed in BENCHMARK.json at the repository root; see README.md here.

With `--trace 0` the last stdout line carries the end-to-end metrics,
with set-up time and throughput stated at a reference host speed (see
calibration.py); with `--trace 1` every input is served twice, untraced
and traced, and the last line carries the per-layer metrics. The line
before it is a report with sample counts, `fail_ratio`, the tail latency,
the wall-clock figures and the environment fingerprint. Spans and reports are written under
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import REF_PROCESS_S, REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 4  # fresh workers per untraced run, started at even steps of its request loop
CAL_INTERVAL_S = 0.25  # request-loop time between host-speed calibrations
BUDGET = 100_000  # certify_elimination's default search budget
ORACLE_TOL = 1e-8  # relative to 1 + lambda_max of the random-walk Laplacian
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LAYERS = ("cli", "graphs", "tableaux", "yor", "eigensolve", "interchange", "conjecture", "reduction")
REPORTED = ("fail_ratio", "latency_p50_s", "latency_tail_s")  # end-to-end, in the report line only
# counts reported per traced request; yor.cache_bytes and eigensolve.dim_max are maxima
PER_REQUEST_COUNTS = (
    "tableaux.tableau_objects", "yor.block_elems", "eigensolve.iterative_calls",
    "eigensolve.dense_flops", "interchange.states", "interchange.nnz",
    "reduction.states_expanded", "graphs.collapse_calls",
)


# ---------------------------------------------------------------------------
# Inputs: generated here from the seed, independent of the package under test
# ---------------------------------------------------------------------------

def _weighted(n: int, edges: list, rng: np.random.Generator, lo: float, hi: float) -> dict:
    """Graph JSON with Uniform(lo, hi) rates on the given sorted edges."""
    weights = rng.uniform(lo, hi, size=len(edges))
    return {"n": n, "edges": [[i, j, float(w)] for (i, j), w in zip(edges, weights)]}


def random_connected(n: int, rng: np.random.Generator, p: float, conditioned: bool = True) -> dict:
    """Uniform random-attachment tree plus each other pair with probability p,
    rates Uniform(0.25, 2.0) (the model of `aldous.graphs.random_connected_graph`).

    Conditioned draws are redrawn until the edge count equals the model's
    mean, rounded: the cost and the cache size of the per-shape route grow
    with the edge count, and a few requests per run cannot average it out."""
    target = round(n - 1 + p * ((n - 1) * (n - 2) / 2))
    while True:
        edges = {(int(rng.integers(1, v)), v) for v in range(2, n + 1)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) not in edges and rng.random() < p:
                    edges.add((i, j))
        if not conditioned or len(edges) == target:
            break
    return _weighted(n, sorted(edges), rng, 0.25, 2.0)


def nested_triangulation(depth: int, rng: np.random.Generator) -> dict:
    """Stacked triangulation: each level puts one vertex in every triangle the
    previous level created. Eliminating vertices newest first removes each at
    positive degree 3, so an elimination certificate with K = 4 exists."""
    edges, triangles, nxt = [(1, 2), (1, 3), (2, 3)], [(1, 2, 3)], 4
    for _ in range(depth):
        created = []
        for a, b, c in triangles:
            edges += [(a, nxt), (b, nxt), (c, nxt)]
            created += [(a, b, nxt), (a, c, nxt), (b, c, nxt)]
            nxt += 1
        triangles = created
    return _weighted(nxt - 1, sorted(edges), rng, 0.5, 1.5)


def pendant_core(pendants: int, rng: np.random.Generator) -> dict:
    """K5 plus `pendants` leaves on random core vertices, labels shuffled.

    Core vertices keep positive degree >= 4 whatever is removed, so no
    K = 4 elimination order exists, and a search without memoization
    visits every ordering of the leaves: sum_k p!/(p-k)! states."""
    n = 5 + pendants
    label = [0] + [int(v) + 1 for v in rng.permutation(n)]
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    pairs += [(int(rng.integers(1, 6)), 6 + k) for k in range(pendants)]
    return _weighted(n, sorted(tuple(sorted((label[i], label[j]))) for i, j in pairs), rng, 0.25, 2.0)


def pendant_core_states(pendants: int) -> int:
    return min(BUDGET, sum(math.perm(pendants, k) for k in range(pendants + 1)))


def rw_lambda2(graph: dict) -> tuple[float, float]:
    """(lambda_2, lambda_max) of L = D - W, from the edge list."""
    n = graph["n"]
    L = np.zeros((n, n))
    for i, j, w in graph["edges"]:
        L[i - 1, j - 1] -= w
        L[j - 1, i - 1] -= w
        L[i - 1, i - 1] += w
        L[j - 1, j - 1] += w
    vals = np.linalg.eigvalsh(L)
    return float(vals[1]), float(vals[-1])


@dataclass
class Request:
    op: str
    args: dict
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Sizes:
    cli_n: int
    stream_n: int
    conj_k: int
    oracle_cycle: tuple[int, ...]
    tri_depths: tuple[int, ...]
    core_pendants: int
    search_n: tuple[int, int]
    search_count: int
    batch_repeats: int


# An explicit_oracle cycle outlasts a run, so every run serves the same
# fourteen n = 8 graphs around its one dense n = 7 solve. elimination_search
# serves its quick batch four times per exhausted pendant-core search; the
# batch has more depth-3 triangulations than anything else, so the median
# latency is that of one fixed structure, not of whichever random graphs a
# seed draws.
FULL = Sizes(9, 9, 9, (8,) * 7 + (7,) + (8,) * 7, (3,) * 6 + (4,) * 2, 7, (14, 18), 4, 4)
SMALL = Sizes(6, 6, 6, (6, 5, 6), (1, 1, 2), 4, (7, 9), 2, 2)
SEARCH_P = 0.35  # extra-edge probability of elimination_search's random graphs


def _gap_request(op: str, graph: dict) -> Request:
    lam2, lam_max = rw_lambda2(graph)
    return Request(op, {"graph": graph}, {"lambda2": lam2, "scale": 1.0 + lam_max})


def build_cycles(workload: str, seed: int, sizes: Sizes) -> list[list[Request]]:
    """The request cycles a run goes through, in order, repeating as time
    allows. A run ends only at a cycle boundary, so every run of a workload
    serves the same mix of request kinds."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if workload == "cli_cold":
        return [[_gap_request("cli_gap", random_connected(sizes.cli_n, rng, 0.3))] for _ in range(8)]
    if workload == "gap_warm_stream":
        cycles = []
        for _ in range(16):
            gamma = [float(g) for g in rng.uniform(0.25, 2.0, size=sizes.conj_k - 1)]
            cycles.append([_gap_request("gap", random_connected(sizes.stream_n, rng, 0.3)),
                           Request("conjecture", {"k": sizes.conj_k, "gamma": gamma})])
        return cycles
    if workload == "explicit_oracle":
        return [[_gap_request("oracle", random_connected(n, rng, 0.3)) for n in sizes.oracle_cycle]
                for _ in range(4)]
    if workload == "elimination_search":
        k = sizes.core_pendants
        states = pendant_core_states(k)
        core = [Request("eliminate", {"graph": pendant_core(k, rng), "k": 4},
                        {"status": "inconclusive" if states == BUDGET else "no_certificate",
                         "states": states, "irreducible": True})]
        batch = []
        for depth in sizes.tri_depths:
            batch.append(Request("eliminate", {"graph": nested_triangulation(depth, rng), "k": 4},
                                 {"status": "certified"}))
        lo, hi = sizes.search_n
        for _ in range(sizes.search_count):
            graph = random_connected(int(rng.integers(lo, hi + 1)), rng, SEARCH_P, conditioned=False)
            batch.append(Request("eliminate", {"graph": graph, "k": 4}))
        return [core + batch * sizes.batch_repeats]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _close(value, req: Request) -> bool:
    return isinstance(value, float) and abs(value - req.expect["lambda2"]) <= ORACLE_TOL * req.expect["scale"]


def check(req: Request, result: dict) -> str | None:
    """None when the output is right, else the reason it is not."""
    if req.op in ("gap", "cli_gap"):
        if result.get("pass") is not True:
            return "pass is not true"
        if not _close(result.get("gap_rw"), req):
            return f"gap_rw {result.get('gap_rw')} != lambda_2 {req.expect['lambda2']}"
    elif req.op == "conjecture":
        if result.get("passed") is not True:
            return "star-versus-clique check did not pass"
    elif req.op == "oracle":
        for key in ("gap_interchange", "gap_rw"):
            if not _close(result.get(key), req):
                return f"{key} {result.get(key)} != lambda_2 {req.expect['lambda2']}"
    elif req.op == "eliminate":
        if result.get("replay_ok") is not True:
            return "certificate replay failed"
        status, states = result["elimination"]
        if req.expect.get("status", status) != status or req.expect.get("states", states) != states:
            return f"elimination ended {status} after {states} states, expected {req.expect}"
        if req.expect.get("irreducible") and result["reduction"][0] == "reduced":
            return "reduced to an edge, but no rule applies to the K5 core"
    return None


def corrupt(req: Request, result: dict) -> dict:
    """A wrong copy of a right output, for the self-check."""
    bad = dict(result)
    if req.op in ("gap", "cli_gap"):
        bad["gap_rw"] = result["gap_rw"] + 1e-3
    elif req.op == "conjecture":
        bad["passed"] = False
    elif req.op == "oracle":
        bad["gap_interchange"] = result["gap_interchange"] + 1e-3
    else:
        status, states = result["elimination"]
        bad["elimination"] = [status, states + 1]
    return bad


def signature(req: Request, result: dict, stdout: bytes | None):
    """What must repeat exactly when the same input is served again."""
    if req.op == "cli_gap":
        return stdout
    if req.op == "eliminate":
        return (tuple(result["elimination"]), tuple(result["reduction"]))
    return None


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def calibrate_process() -> float:
    """Wall time of a fresh reference process (see calibration.py), in the
    units of `calibration.calibrate`. It stands in for an in-process
    calibration where each request is a short-lived process of its own."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "calibration.py")], env=worker_env(), cwd=ROOT, check=True)
    return (time.perf_counter() - t0) * REF_S / REF_PROCESS_S


def reference_seconds(marks: list[tuple[float, float]]) -> float:
    """Request-loop time at the reference host speed (see calibration.py).
    `marks` holds (loop time, calibration seconds) from the loop's start to
    its end, each made in the process serving the requests; the loop time
    between two marks is scaled by the mean of their speeds."""
    return sum((t1 - t0) * REF_S / ((c0 + c1) / 2) for (t0, c0), (t1, c1) in zip(marks, marks[1:]))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def merge_counters(total: Counter, part: dict) -> None:
    """Add one process's counters; `eigensolve.dim_max` is a maximum."""
    for name, value in part.items():
        total[name] = max(total[name], value) if name == "eigensolve.dim_max" else total[name] + value


def _reap(proc: subprocess.Popen) -> float:
    """Wait for the process; return its own peak RSS in MB from wait4."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


class Worker:
    """One long-lived `worker.py serve` process; spawn time to ready is set-up."""

    def __init__(self, module: str, warm_n: int, spans: Path | None, log) -> None:
        cmd = [sys.executable, str(HERE / "worker.py"), "serve", "--module", module, "--warm-n", str(warm_n)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=log, env=worker_env(), cwd=ROOT, text=True)
        try:
            ready = self.proc.stdout.readline()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0
        if not ready.startswith('{"ready"'):
            self.close()
            raise RuntimeError(f"worker failed to start (exit {self.proc.returncode}); see {log.name}")

    def call(self, rid: int, req: Request, traced: bool) -> dict:
        self.proc.stdin.write(json.dumps({"id": rid, "op": req.op, "args": req.args, "trace": traced}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited mid-request")
        return json.loads(line)

    def calibrate(self) -> float:
        return self.call(0, Request("calibrate", {}), False)["result"]["seconds"]

    def close(self) -> float:
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        return _reap(self.proc)


def cli_call(rid: int, req: Request, traced: bool, log) -> tuple[dict, bytes, float, dict | None]:
    """One fresh `aldous gap` process: (reply, stdout, peak RSS MB, spans)."""
    path = OUT / "inputs" / f"graph-{hashlib.sha256(json.dumps(req.args['graph']).encode()).hexdigest()[:16]}.json"
    if not path.exists():
        path.write_text(json.dumps(req.args["graph"]))
    spans_path = OUT / "spans" / f"cli-{rid}.json"
    if traced:
        cmd = [sys.executable, str(HERE / "worker.py"), "cli", "--spans", str(spans_path),
               "--request-id", str(rid), "--", "gap", str(path)]
    else:
        cmd = [sys.executable, "-m", "aldous.cli", "gap", str(path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, env=worker_env(), cwd=ROOT)
    try:
        stdout = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.stdout.close()
    rss = _reap(proc)
    latency = time.perf_counter() - t0
    reply: dict = {"id": rid, "latency_s": latency}
    if proc.returncode != 0:
        reply["error"] = f"exit code {proc.returncode}"
    else:
        try:
            reply["result"] = json.loads(stdout)
        except json.JSONDecodeError as exc:
            reply["error"] = f"stdout is not JSON: {exc}"
    trace = None
    if traced and spans_path.exists():
        trace = json.loads(spans_path.read_text())
        spans_path.unlink()
        reply["cache_bytes"] = trace["counters"].pop("yor.cache_bytes", 0)
    return reply, stdout, rss, trace


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

WORKLOADS = {
    # name: (module the worker imports, warm the caches first?, requests served by the worker?)
    "cli_cold": ("aldous.cli", False, False),
    "gap_warm_stream": ("aldous", True, True),
    "explicit_oracle": ("aldous", False, True),
    "elimination_search": ("aldous", False, True),
}


@dataclass
class Record:
    traced: bool
    latency_s: float
    failure: str | None
    cache_bytes: int = 0


@dataclass
class RunResult:
    records: list[Record]
    setup_s: list[float]
    setup_cal_s: list[float]  # calibration seconds of each new worker (untraced runs)
    peak_rss_mb: list[float]
    loop_wall_s: float
    cal_marks: list[tuple[float, float]]  # (loop time, calibration seconds) (untraced runs)
    spans: list[list]
    counters: Counter
    repeats_checked: int


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 corrupt_first: bool = False) -> RunResult:
    module, warm, in_process = WORKLOADS[workload]
    cycles = build_cycles(workload, seed, sizes)
    pool = [req for cycle in cycles for req in cycle]
    for sub in ("inputs", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    records: list[Record] = []
    seen: dict[int, object] = {}  # id of a Request -> its first output signature
    spans: list[list] = []
    counters: Counter = Counter()
    rss: list[float] = []
    setups: list[float] = []
    setup_cal: list[float] = []
    marks: list[tuple[float, float]] = []
    repeats = 0
    log = open(OUT / f"stderr-{workload}-{seed}.log", "w")
    worker = None
    # Trace runs report no set-up time, so they start one worker. Untraced
    # runs start SETUP_SAMPLES fresh workers, one each time the request loop
    # passes another 1/SETUP_SAMPLES of `seconds`, so the set-up samples are
    # spread over the run like the requests. An in-process workload is
    # served by each worker in turn; the others' workers are set-up probes.
    starts = 1 if trace else SETUP_SAMPLES
    warm_n = sizes.stream_n if warm else 0
    spans_path = OUT / "spans" / f"worker-{workload}-{seed}.json" if trace and in_process else None

    def retire() -> None:
        nonlocal worker
        if worker is not None:
            rss.append(worker.close())
            worker = None
            if spans_path is not None:
                data = json.loads(spans_path.read_text())
                spans.extend(data["spans"])
                merge_counters(counters, data["counters"])

    def start(serving: bool) -> None:
        nonlocal worker
        retire()
        worker = Worker(module, warm_n, spans_path, log)
        setups.append(worker.setup_s)
        if not trace:
            setup_cal.append(worker.calibrate())
        if not serving:  # a set-up probe
            worker.close()
            worker = None

    def serve(rid: int, idx: int, traced: bool) -> None:
        nonlocal repeats
        req = pool[idx]
        stdout = None
        if in_process:
            reply = worker.call(rid, req, traced)
        else:
            reply, stdout, peak, trace_data = cli_call(rid, req, traced, log)
            if not traced:
                rss.append(peak)
            if trace_data is not None:
                spans.extend(trace_data["spans"])
                merge_counters(counters, trace_data["counters"])
        failure = reply.get("error")
        if failure is None:
            result = reply["result"]
            if corrupt_first and not records:
                result = corrupt(req, result)
                if stdout is not None:
                    stdout = stdout.replace(b'"pass": true', b'"pass": false')
            failure = check(req, result)
            sig = signature(req, result, stdout)
            if failure is None and sig is not None:
                if id(req) in seen:
                    repeats += 1
                    if seen[id(req)] != sig:
                        failure = "output differs from an earlier serve of the same input"
                else:
                    seen[id(req)] = sig
        records.append(Record(traced, reply.get("latency_s", math.nan), failure,
                              reply.get("cache_bytes", 0)))

    def schedule():
        """(pool index, ends a cycle?) in cycle order, without end."""
        k = 0
        while True:
            cycle = cycles[k % len(cycles)]
            first = sum(len(c) for c in cycles[: k % len(cycles)])
            for j in range(len(cycle)):
                yield first + j, j == len(cycle) - 1
            k += 1

    try:
        loop_wall = 0.0
        rid = 0
        for idx, ends_cycle in schedule():
            if len(setups) < starts and loop_wall >= len(setups) * seconds / starts:
                start(serving=in_process)
            if not trace and (not marks or loop_wall - marks[-1][0] >= CAL_INTERVAL_S):
                marks.append((loop_wall, worker.calibrate() if in_process else calibrate_process()))
            order = ((False, True) if rid % 4 == 0 else (True, False)) if trace else (False,)
            t0 = time.perf_counter()
            for traced in order:
                rid += 1
                serve(rid, idx, traced)
            loop_wall += time.perf_counter() - t0
            if ends_cycle and loop_wall >= seconds:
                break
        if not trace:
            marks.append((loop_wall, worker.calibrate() if in_process else calibrate_process()))
        retire()
        while len(setups) < starts:  # requests too long to reach every step
            start(serving=False)
    finally:
        if worker is not None:
            worker.close()
        log.close()
    return RunResult(records, setups, setup_cal, rss, loop_wall, marks, spans, counters, repeats)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_latency(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest ladder percentile with at least
    ten samples beyond it (nearest rank), or None with too few samples."""
    ordered = sorted(latencies)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def end_to_end(run: RunResult, in_process: bool) -> dict[str, float]:
    """`setup_s` and `throughput_rps` are at the reference host speed: each
    set-up time and each stretch of the request loop is scaled by the
    calibrations made beside it. `peak_rss_mb` is the largest peak of the
    workers that served an in-process workload in turn, or the median peak
    of the `cli_cold` request processes."""
    return {
        "setup_s": statistics.median(s * REF_S / c for s, c in zip(run.setup_s, run.setup_cal_s)),
        "throughput_rps": len(run.records) / reference_seconds(run.cal_marks),
        "peak_rss_mb": (max if in_process else statistics.median)(run.peak_rss_mb),
    }


def self_times(spans: list[list]) -> tuple[dict, Counter, float]:
    """Per layer: summed self time and span count; plus the time covered by
    spans directly under a request's root, summed over requests."""
    child_time: dict[tuple, float] = defaultdict(float)
    roots = {}
    for sid, parent, req, layer, name, t0, t1 in spans:
        if parent is None:
            roots[req] = sid
        else:
            child_time[(req, parent)] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered = 0.0
    for sid, parent, req, layer, name, t0, t1 in spans:
        if parent is None:
            continue
        self_s[layer] += (t1 - t0) - child_time[(req, sid)]
        calls[layer] += 1
        if parent == roots.get(req):
            covered += t1 - t0
    return self_s, calls, covered


def check_nesting(spans: list[list]) -> list[str]:
    """Every span has one root per request and lies inside its parent."""
    by_id = {(s[2], s[0]): s for s in spans}
    roots = Counter(s[2] for s in spans if s[1] is None)
    problems = [f"request {req} has {c} roots" for req, c in roots.items() if c != 1]
    for sid, parent, req, layer, name, t0, t1 in spans:
        if parent is None:
            continue
        outer = by_id.get((req, parent))
        if outer is None:
            problems.append(f"span {sid} of request {req}: parent {parent} missing")
        elif not (outer[5] <= t0 <= t1 <= outer[6]):
            problems.append(f"span {sid} ({layer}.{name}) not inside parent {parent}")
    return problems


def per_layer(run: RunResult) -> dict[str, float]:
    traced = [r for r in run.records if r.traced]
    untraced = [r for r in run.records if not r.traced]
    count = max(len(traced), 1)
    self_s, calls, covered = self_times(run.spans)
    traced_wall = sum(r.latency_s for r in traced)
    search_s = sum(s[6] - s[5] for s in run.spans if s[4] in ("certify_elimination", "reduce_to_edge"))
    imports = [s[6] - s[5] for s in run.spans if s[3] == "import"]
    c = run.counters
    metrics = {f"{layer}.self_s": self_s[layer] / count for layer in LAYERS}
    calls["tableaux"] += c["tableaux.method_calls"]  # counted, not timed
    metrics.update({f"{layer}.calls": calls[layer] / count for layer in ("tableaux", "yor", "eigensolve")})
    metrics.update({name: c[name] / count for name in PER_REQUEST_COUNTS})
    metrics.update({
        "yor.cache_bytes": max((r.cache_bytes for r in traced), default=0),
        "eigensolve.dim_max": c["eigensolve.dim_max"],
        "reduction.states_per_s": c["reduction.states_expanded"] / search_s if search_s else 0.0,
        "reduction.useful_ratio": c["reduction.decided"] / c["reduction.attempts"] if c["reduction.attempts"] else 0.0,
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "trace.overhead_ratio": traced_wall / sum(r.latency_s for r in untraced),
        "trace.coverage": covered / traced_wall,
        "trace.unattributed_s": (traced_wall - covered) / count,
    })
    return metrics


def fingerprint(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "aldous").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(), "git_commit": commit, "source_sha256": digest.hexdigest(),
        "load": "closed loop, one client, at most one worker process at a time",
    }


def load_metric_units() -> dict[str, dict[str, str]]:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in spec[section]} for section in ("end_to_end", "per_layer")}


def metric_problems(section: str, computed: dict) -> list[str]:
    """Names BENCHMARK.json lists in `section` that were not computed, and
    computed names it does not list."""
    listed = load_metric_units()[section]
    problems = [f"{section} metric {m} is listed in BENCHMARK.json but not computed"
                for m in listed if m not in computed]
    problems += [f"{section} metric {m} is computed but not listed in BENCHMARK.json"
                 for m in computed if m not in listed]
    return problems


def report_line(workload: str, seed: int, run: RunResult) -> dict:
    """Sample counts, the end-to-end metrics BENCHMARK.json does not bound,
    and the environment fingerprint."""
    failed = [r for r in run.records if r.failure]
    latencies = [r.latency_s for r in run.records if not r.traced]
    tail = tail_latency(latencies)
    return {
        "fingerprint": fingerprint(workload, seed),
        "samples": len(run.records), "setup_samples": len(run.setup_s),
        "fail_ratio": {"value": len(failed) / len(run.records), "unit": "ratio"},
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "latency_tail_s": ({"value": tail[1], "unit": "s", "percentile": tail[0]} if tail
                           else {"omitted": f"{len(latencies)} samples; the 50th percentile needs 20"}),
        "repeats_checked": run.repeats_checked,
        "wall_clock": {
            "setup_s": statistics.median(run.setup_s),
            "throughput_rps": len(run.records) / run.loop_wall_s,
            "host_speed": (REF_S / statistics.median(c for _, c in run.cal_marks)
                           if run.cal_marks else None),
            "calibrations": len(run.cal_marks),
        },
        "failures": sorted({r.failure for r in failed})[:5],
    }


def compute_metrics(workload: str, trace: bool, run: RunResult) -> tuple[str, dict[str, float]]:
    if trace:
        return "per_layer", per_layer(run)
    return "end_to_end", end_to_end(run, in_process=WORKLOADS[workload][2])


def result_line(workload: str, trace: bool, run: RunResult) -> dict:
    """The last stdout line: every metric BENCHMARK.json lists for the mode."""
    section, computed = compute_metrics(workload, trace, run)
    units = load_metric_units()[section]
    missing = [m for m in units if m not in computed]
    if missing:
        raise RuntimeError(f"BENCHMARK.json lists {section} metrics that are not computed: {missing}")
    failed = sum(1 for r in run.records if r.failure)
    return {
        "correct": not failed, "attempted": len(run.records), "failed": failed,
        "metrics": {name: {"value": computed[name], "unit": unit} for name, unit in units.items()},
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def selfcheck() -> int:
    """Every workload at a small size, untraced and traced, with the first
    output corrupted: exactly that one must fail, spans must nest, and the
    metrics computed must be exactly those BENCHMARK.json names."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            run = run_workload(workload, seed=1, seconds=1.0, trace=trace, sizes=SMALL, corrupt_first=True)
            tag = f"{workload} trace={int(trace)}"
            failures = [r.failure for r in run.records if r.failure]
            if len(failures) != 1 or run.records[0].failure is None:
                problems.append(f"{tag}: expected only the corrupted first output to fail, got {failures}")
            problems += [f"{tag}: {p}" for p in metric_problems(*compute_metrics(workload, trace, run))]
            info = report_line(workload, 1, run)
            problems += [f"{tag}: report line lacks {m}" for m in REPORTED if m not in info]
            if not trace and (len(run.cal_marks) < 2 or len(run.setup_cal_s) != len(run.setup_s)):
                problems.append(f"{tag}: {len(run.cal_marks)} loop calibrations, "
                                f"{len(run.setup_cal_s)} for {len(run.setup_s)} set-ups")
            if trace:
                problems += [f"{tag}: {p}" for p in check_nesting(run.spans)[:5]]
                if not run.spans:
                    problems.append(f"{tag}: no spans recorded")
            print(f"{tag}: {len(run.records)} requests, {len(run.spans)} spans, "
                  f"failures={failures}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the aldous certifier.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="quick check of the benchmark itself")
    opts = parser.parse_args(argv)
    # On SIGTERM, unwind through the `finally` blocks that end the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "aldous" / "cli.py").is_file():
        print(f"error: no aldous sources under {SRC}", file=sys.stderr)
        return 2
    if opts.selfcheck:
        return selfcheck()
    if opts.workload is None:
        parser.error("--workload is required")
    run = run_workload(opts.workload, opts.seed, opts.seconds, bool(opts.trace), FULL)
    info = report_line(opts.workload, opts.seed, run)
    result = result_line(opts.workload, bool(opts.trace), run)
    stem = f"{opts.workload}-{opts.seed}-trace{opts.trace}"
    if opts.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(run.spans))
    (OUT / f"result-{stem}.json").write_text(json.dumps({"report": info, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host-speed calibration for the benchmark driver (`run.py`) and `worker.py`.

A shared host's speed for interpreter-bound code drifts by a quarter or
more over tens of seconds, and the two vCPUs need not drift together.
`calibrate` times a fixed amount of pure-Python work that never calls
`aldous`, so no change to the program can move it. A time measured in
some process and scaled by `REF_S / calibrate()`, with the calibration
made in the same process beside it, is a time at one reference speed.

Run as a script, `python3 calibration.py` is the reference process for
work done in short-lived processes, such as a cold CLI request: it starts
an interpreter, imports the libraries `aldous` imports, and runs the
calibration work. Its wall time from spawn to exit, times
`REF_S / REF_PROCESS_S`, is in the units `calibrate` returns.
"""

from __future__ import annotations

import time

# The reference speed: `calibrate()` takes REF_S there, and a reference
# process takes REF_PROCESS_S from spawn to exit. On the 2-vCPU shared
# virtual machine the benchmark was built on (Python 3.11, numpy with
# OpenBLAS) they took 7-15 ms and 0.6-0.9 s, so scaled figures there read
# close to wall-clock figures.
REF_S = 0.010
REF_PROCESS_S = 0.55
PROCESS_KERNELS = 20  # calibration work a reference process does after its imports


def _kernel() -> None:
    """Work of the kind the searches and builders do: rebuild a dict keyed
    by vertex pairs and sort a degree list."""
    pairs = {}
    for k in range(40):
        a, b = (k * 7919) % 13 + 1, (k * 104729) % 13 + 1
        if a != b:
            pairs[(min(a, b), max(a, b))] = 0.5 + (a * b) % 5
    for _ in range(150):
        pairs = {(j, i) if j < i else (i, j): w * 1.0001 for (i, j), w in pairs.items()}
        sorted((sum(1 for key in pairs if v in key), v) for v in range(1, 14))


def calibrate() -> float:
    """Seconds this process takes for the fixed calibration work."""
    t0 = time.perf_counter()
    for _ in range(3):
        _kernel()
    return time.perf_counter() - t0


def reference_process() -> None:
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    for _ in range(PROCESS_KERNELS):
        _kernel()


if __name__ == "__main__":
    reference_process()

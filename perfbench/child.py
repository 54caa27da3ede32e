"""Run one manifold-ssl CLI call in this fresh interpreter and record it.

Usage: python3 child.py JOB, where JOB is a JSON object with keys
src (the checkout's src directory), argv (for manifold_ssl.cli.main),
config (the config file or null), trace (bool) and result (where the
record goes). run.py starts one of these per operation.

Set-up ends once the package is imported and the config resolved; the
timed call is manifold_ssl.cli.main. Times use time.monotonic, which on
Linux is CLOCK_MONOTONIC and so comparable with the launching process.

Right before and right after the call the child times a fixed calibration
loop, so that run.py can take out the machine's speed at that moment (on a
shared host it drifts by tens of percent over minutes). The loop uses
nothing from manifold_ssl, so no change to the program can move it.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time


def blas_record() -> dict:
    """BLAS library and the thread count it reports, when it can say."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    threads = None
    for path in glob.glob(os.path.join(libs, "*blas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


# time of the calibration, before plus after, on an unloaded core of the
# reference machine (Intel Xeon, 2 vCPUs, numpy 2.4.6, one BLAS thread)
CALIBRATION_REFERENCE_S = 0.62
CALIBRATION_ROUNDS = 300


def calibration_s() -> float:
    """Time a fixed loop shaped like small training steps: matmuls at hidden
    width 64 on 10 to 100 rows, ELU and its slope, a dict per step, and a
    2000-row forward pass every tenth round like a per-epoch evaluation."""
    import numpy as np
    rng = np.random.default_rng(0)
    W = rng.standard_normal((64, 100))
    b = rng.standard_normal(64)
    w2 = rng.standard_normal(64)
    batches = [rng.standard_normal((n, 100)) for n in (10, 100, 100, 100)]
    evaluation = rng.standard_normal((2000, 100))
    start = time.monotonic()
    for i in range(CALIBRATION_ROUNDS):
        for x in batches:
            pre = x @ W.T + b
            h = np.where(pre >= 0, pre, np.expm1(np.minimum(pre, 0)))
            f = h @ w2
            slope = np.where(pre >= 0, 1.0, np.exp(np.minimum(pre, 0)))
            slope *= f[:, None]
            {"W1": w2[:, None] * (slope.T @ x), "b1": slope.sum(axis=0),
             "b2": float(f.sum())}
        if i % 10 == 0:
            pre = evaluation @ W.T + b
            np.where(pre >= 0, pre, np.expm1(np.minimum(pre, 0))) @ w2
    return time.monotonic() - start


def main() -> None:
    job = json.loads(sys.argv[1])
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    from manifold_ssl import cli, config
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"manifold_ssl came from {cli.__file__}, not from {src}")
    config.parse_config(job["config"])
    tracer = absent = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        absent = tracing.install(tracer)
    ready = time.monotonic()
    before = calibration_s()
    start = time.monotonic()
    exit_code = cli.main(job["argv"])
    wall_s = time.monotonic() - start
    after = calibration_s()
    record = {"exit_code": exit_code, "ready": ready, "wall_s": wall_s,
              "speed": CALIBRATION_REFERENCE_S / (before + after),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0,
              "env": blas_record()}
    if tracer is not None:
        record["trace"] = {**tracer.report(), "absent": absent}
    with open(job["result"], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()

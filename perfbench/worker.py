"""Child process of run.py: one set-up, or one measured run of a workload.

    python3 perfbench/worker.py setup WORKLOAD WORKDIR SEED RESULT [--smoke]
    python3 perfbench/worker.py run WORKLOAD WORKDIR SEED SECONDS TRACE RESULT SPANS [--smoke]

Both write their findings as JSON to RESULT.  A run first does the
workload's untimed warm-up rounds, then repeats whole rounds until SECONDS
have passed.  With TRACE 1 the measured rounds alternate untraced and
traced: per-layer figures come from the traced ones, the gap between the
two kinds is the tracing overhead, and the spans are written to SPANS.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import workloads
from spans import Tracer

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PYTHONHASHSEED")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def setup(workload, work, seed, result_path) -> int:
    """Time one set-up: writing the workload's inputs and building the
    objects its rounds read.  Imports happen before, outside the timing."""
    import prosoparse.cli  # noqa: F401

    os.makedirs(work, exist_ok=True)
    start = time.perf_counter()
    info = workload.setup(work, seed)
    workload.load(work, seed)
    info["setup_s"] = time.perf_counter() - start
    with open(result_path, "w") as fh:
        json.dump(info, fh)
    return 0


def run(workload, work, seed, seconds, trace, result_path, spans_path) -> int:
    workload.load(work, seed)
    tracer = Tracer() if trace else None
    outputs_seen = []    # outputs of every good round, warm-up included
    rounds = []          # (traced, wall, walls per op) of good measured rounds
    attempted = failed = 0
    start = None
    while True:
        warm = len(outputs_seen) < workload.warmup_rounds
        if not warm and start is None:
            start = time.perf_counter()
        traced = trace and not warm and len(rounds) % 2 == 1
        # every round starts with no garbage left over from the one before,
        # so peak RSS does not depend on how many rounds fit in the run
        gc.collect()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            walls, outputs = workload.round()
        except Exception:
            traceback.print_exc()
            failed += workload.ops_per_round
        else:
            outputs_seen.append(outputs)
            if not warm:
                rounds.append((traced, time.perf_counter() - t0, walls))
        finally:
            if traced:
                tracer.uninstall()
        attempted += workload.ops_per_round
        if start is None:
            if failed > 2 * workload.ops_per_round:   # warm-up keeps failing
                break
            continue
        elapsed = time.perf_counter() - start
        kinds = {r[0] for r in rounds}
        if elapsed >= seconds and (not trace or kinds == {False, True}):
            break
        if elapsed >= 3 * seconds + 60:     # every round failing: stop anyway
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not rounds:
        print("no round completed", file=sys.stderr)
        return 1

    first = outputs_seen[0]
    errors = workload.check(first)
    diverged = sum(out != first for out in outputs_seen)
    if diverged:
        errors.append("%s: %d of %d rounds gave outputs unlike the first"
                      % (workload.name, diverged, len(outputs_seen)))

    plain = [r for r in rounds if not r[0]]
    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "rounds": len(rounds), "peak_rss_mb": peak_rss_mb,
              "env": environment(),
              "walls": {k: [v for r in plain for v in r[2][k]] for k in plain[0][2]}}
    if trace:
        traced_walls = [r[1] for r in rounds if r[0]]
        layers = tracer.layer_metrics(len(traced_walls))
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / statistics.median([r[1] for r in plain]) - 1)
        result["layers"] = layers
        with open(spans_path, "w") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    role, name, work, seed = argv[0], argv[1], argv[2], int(argv[3])
    workload = workloads.WORKLOADS[name](smoke)
    if role == "setup":
        return setup(workload, work, seed, argv[4])
    seconds, trace = float(argv[4]), argv[5] == "1"
    return run(workload, work, seed, seconds, trace, argv[6], argv[7])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of prosoparse: three workloads, each checked for correctness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up runs SETUP_REPEATS times,
each in a fresh child process that times it after its imports, and
``setup_s`` is the median of those times.  The measured part then runs in
one more child process, which repeats whole rounds for S seconds.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1, by the names and units ``BENCHMARK.json``
declares.  The line before it records the Python, numpy and BLAS builds and
the thread settings.  Everything the run writes stays under
``.perfbench_work/`` (removed at the end) and ``.perfbench_out/`` (spans and
a record of each run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-paper", "train-prosody", "eval-prosody")
SETUP_REPEATS = 3
BLAS_THREADS = 1          # fixed, never above nproc; README: Settings
TIME_LIMIT_S = 170        # the whole run, set-up included


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args: list[str], log: Path, deadline: float) -> None:
    """Run worker.py to completion, its output appended to the log."""
    what = " ".join(args[:2])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before: worker %s" % what)
    with open(log, "ab") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")] + args, stdout=fh,
                stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("worker %s timed out" % what) from None
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-3000:]
        raise BenchError("worker %s exited with %d:\n%s"
                         % (what, proc.returncode, tail))


def same_files(a: Path, b: Path) -> bool:
    names_a = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
    names_b = sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return False
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in names_a)


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    tag = "%s-seed%d" % (args.workload, args.seed)
    work = ROOT / ".perfbench_work" / ("%s-%d" % (tag, os.getpid()))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    log = work / "worker.log"
    smoke = ["--smoke"] if args.smoke else []
    try:
        setup_info = []
        for k in range(SETUP_REPEATS):
            d = work / ("setup%d" % k)
            info = work / ("setup%d.json" % k)
            run_child(["setup", args.workload, str(d), str(args.seed), str(info)]
                      + smoke, log, deadline)
            setup_info.append(json.loads(info.read_text()))
        errors = []
        for k in range(1, SETUP_REPEATS):
            if not same_files(work / "setup0", work / ("setup%d" % k)):
                errors.append("set-up %d wrote different files from set-up 0" % k)
            shutil.rmtree(work / ("setup%d" % k))
        result_path = work / "result.json"
        spans_path = out_dir / ("%s.spans.jsonl" % tag)
        run_child(["run", args.workload, str(work / "setup0"), str(args.seed),
                   repr(args.seconds), str(args.trace), str(result_path),
                   str(spans_path)] + smoke, log, deadline)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    result["errors"] = errors + result["errors"]
    result["setup_s"] = [i["setup_s"] for i in setup_info]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics = result["layers"]
    else:
        walls = dict(result["walls"])
        if "train_sents_per_s" not in walls:     # measured during set-up
            walls["train_sents_per_s"] = [i["train_sents_per_s"] for i in setup_info]
        metrics = {k: statistics.median(v) for k, v in walls.items()}
        metrics["setup_s"] = statistics.median(result["setup_s"])
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError("no figure for %s" % ", ".join(sorted(missing)))
    report = {"correct": not result["errors"], "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {k: {"value": metrics[k], "unit": unit}
                          for k, unit in units.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, report=report)
    record.pop("layers", None)
    (out_dir / ("%s.trace%d.json" % (tag, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest configuration, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prosoparse" / "__init__.py").is_file():
        print("perfbench: no prosoparse sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    try:
        report, result = measure(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for error in result["errors"]:
        print("perfbench: check failed: %s" % error, file=sys.stderr)
    print("perfbench env: %s" % json.dumps(dict(
        result["env"], setup_repeats=SETUP_REPEATS, rounds=result["rounds"])))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for splitinv: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh interpreters
(worker.py) with PYTHONHASHSEED=0 and src/ on PYTHONPATH: with --trace 0,
two set-up probes that stop once set up, then the measured run; with
--trace 1, one traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Two opt-in commands run outside every workload:

    python3 perfbench/run.py --self-test       feed each checker a corrupted result
    python3 perfbench/run.py --verify-digest   recompute the verify-report digest
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("normalizer", "scenarios", "descent", "signs")
SETUP_PROBES = 2
DEADLINE_S = 170.0

UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
         "peak_rss_mib": "MiB"}


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkerError(RuntimeError):
    pass


def _worker(args, setup_only: bool, deadline: float):
    """Start worker.py; return (seconds from start to set-up done, scaled to
    the reference machine speed, and the result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=str(ROOT), text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    setup_s, scale, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("@@READY"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("@@SCALE "):
                scale = float(line[len("@@SCALE "):])
            elif line.startswith("@@RESULT "):
                result = json.loads(line[len("@@RESULT "):])
    except BaseException:
        proc.kill()                     # interrupted: take the worker down too
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        rc = proc.wait()
    if rc != 0 or scale is None or (result is None and not setup_only):
        raise WorkerError(f"worker for {args.workload} exited {rc} "
                          f"({'killed at the deadline' if rc < 0 else 'no result'})")
    return setup_s * scale, result


def run_workload(args) -> int:
    if not (ROOT / "src" / "splitinv" / "__init__.py").is_file():
        print(f"error: no splitinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else \
            [_worker(args, True, deadline)[0] for _ in range(SETUP_PROBES)]
        setup_s, result = _worker(args, False, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    if args.trace:
        metrics = {k: {"value": v, "unit": "%" if k.endswith("_pct") else
                       "count" if k.endswith(".calls") else "s"}
                   for k, v in result["metrics"].items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    for err in result["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    record = dict(result, metrics=metrics, setup_samples_s=setups,
                  seed=args.seed, seconds=args.seconds, python=sys.version.split()[0])
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="splitinv benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output checker rejects a corrupted result")
    ap.add_argument("--verify-digest", action="store_true",
                    help="compare the sha256 of `splitinv verify --suite all --seed 0` "
                         "with the reference in perfbench/README.md")
    args = ap.parse_args(argv)
    # a terminated run unwinds, so that it stops its worker first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_test or args.verify_digest:
        cmd = [sys.executable, str(HERE / ("selftest.py" if args.self_test else "digest.py"))]
        return subprocess.run(cmd, env=_env(), cwd=str(ROOT)).returncode
    if args.workload is None:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, time it, check its outputs.

Started by run.py in a fresh interpreter with PYTHONHASHSEED=0 and the
repository's src/ on PYTHONPATH.  It writes three protocol lines to stdout:
"@@READY" when set-up (imports, inputs, one warm-up call per kind of
operation) is done, "@@SCALE <factor>" with the machine-speed factor
measured right after it, and "@@RESULT <json>" at the end.  With
--setup-only it stops after the second.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import calibrate
import spans

MAX_ERRORS = 20
MIN_ROUNDS = 3


class Round:
    """Outcomes of one pass over the operations of a workload."""

    def __init__(self, ops, tracer=None, gauge=None):
        self.ops = ops
        self.outputs = []          # output, or the exception of a failed op
        self.failed = []           # bool per op
        self.durations = []        # seconds per op, None for a failed op
        self.starts = []           # perf_counter() when each op started
        perf = time.perf_counter
        t_round = perf()
        for op in ops:
            t0 = perf()
            self.starts.append(t0)
            try:
                out = tracer.call("op." + op.kind, op.run) if tracer else op.run()
            except Exception as exc:  # recorded as a failed operation
                self.outputs.append(exc)
                self.failed.append(True)
                self.durations.append(None)
                continue
            self.durations.append(perf() - t0)
            self.outputs.append(out)
            self.failed.append(False)
            if gauge:
                gauge.tick()
        self.seconds = perf() - t_round


class Checker:
    """Checks every output of the first round, and that later rounds give
    the same outputs for the same inputs."""

    def __init__(self):
        self.errors = []
        self.reference = None      # keys of the first round

    def error(self, message):
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def outcome(self, op, failed, out):
        """Check one output; failures outside the op's known fault are errors."""
        if failed:
            if not isinstance(out, op.known_fault):
                self.error(f"{op.kind} {op.label}: raised {type(out).__name__}: {out}")
            return
        try:
            err = op.check(out)
        except Exception as exc:  # a check that cannot run rejects the output
            err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            self.error(f"{op.kind} {op.label}: {err}")

    def keys(self, rnd):
        return [("failed", type(out).__name__) if failed else ("ok", op.key(out))
                for op, failed, out in zip(rnd.ops, rnd.failed, rnd.outputs)]

    def full(self, rnd):
        for op, failed, out in zip(rnd.ops, rnd.failed, rnd.outputs):
            self.outcome(op, failed, out)

    def repeat(self, rnd):
        keys = self.keys(rnd)
        if self.reference is None:
            self.reference = keys
            return
        for op, a, b in zip(rnd.ops, self.reference, keys):
            if a != b:
                self.error(f"{op.kind} {op.label}: output differs from the first round")


def _emit(tag, payload=None):
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _op_times(rounds, gauge=None):
    """Each operation's median time over the rounds, None if it ever failed;
    with a gauge, each time is first scaled to the reference speed."""
    per_round = []
    for r in rounds:
        if gauge is None:
            per_round.append(r.durations)
        else:
            per_round.append([None if d is None else d * gauge.local_scale(t, t + d, op.work)
                              for op, t, d in zip(r.ops, r.starts, r.durations)])
    return [None if None in times else statistics.median(times) for times in zip(*per_round)]


def _kind_summary(ops, rounds, times):
    by_kind = {}
    for i, op in enumerate(ops):
        entry = by_kind.setdefault(op.kind, {"ops_per_round": 0, "failed": 0, "times": []})
        entry["ops_per_round"] += 1
        entry["failed"] += sum(r.failed[i] for r in rounds)
        if times[i] is not None:
            entry["times"].append(times[i])
    return {k: {"ops_per_round": v["ops_per_round"], "failed": v["failed"],
                "median_ms": statistics.median(v["times"]) * 1e3 if v["times"] else None,
                "round_share": sum(v["times"]) / sum(t for t in times if t is not None)}
            for k, v in by_kind.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, help="module name of the workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    module = importlib.import_module(args.workload)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        return _run(args, module, tracer, workdir)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, module, tracer, workdir) -> int:
    checker = Checker()
    workload = module.build(args.seed, workdir)
    warmup = Round(workload.warmup)
    gc.collect()
    gc.freeze()
    _emit("@@READY")
    # the machine speed just after set-up, for scaling the set-up time
    _emit("@@SCALE", calibrate.spot_scale())
    if args.setup_only:
        return 0

    rounds = []
    gauge = calibrate.Gauge()

    def run_round(traced=False):
        if traced:
            tracer.install()
        rnd = Round(workload.ops, tracer if traced else None, gauge)
        if traced:
            tracer.uninstall()
        checker.repeat(rnd)
        rounds.append(rnd if not rounds else _Summary(rnd))
        gc.collect()
        return rounds[-1]

    if tracer:
        # an untraced round to settle caches, then the traced round whose
        # totals, with those of set-up, are the per-layer metrics; then
        # pairs of untraced and traced rounds for the tracing overhead
        tracer.uninstall()
        run_round()
        run_round(traced=True)
        metrics, trace_dump = tracer.metrics(), tracer.dump()
        pairs = []
        while sum(r.seconds for pair in pairs for r in pair) < args.seconds or not pairs:
            pairs.append((run_round(), run_round(traced=True)))
    else:
        while sum(r.seconds for r in rounds) < args.seconds or len(rounds) < MIN_ROUNDS:
            run_round()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker.full(warmup)
    checker.full(rounds[0])

    # each operation's median over the rounds, unscaled and at the reference speed
    raw, scaled = _op_times(rounds), _op_times(rounds, gauge)
    result = {"correct": not checker.errors,
              "attempted": sum(len(r.ops) for r in rounds),
              "failed": sum(sum(r.failed) for r in rounds),
              "rounds": len(rounds), "ops_per_round": len(workload.ops),
              "errors": checker.errors,
              "kinds": _kind_summary(workload.ops, rounds, scaled),
              "gauge_median_s": {k: statistics.median(v) for k, v in gauge.samples.items()}}
    if tracer:
        plain, traced = (sum(t for t in _op_times(side, gauge) if t is not None)
                         for side in zip(*pairs))
        metrics[spans.OVERHEAD_METRIC] = (traced / plain - 1.0) * 100.0
        result["overhead_pairs"] = len(pairs)
        result["trace_file"] = os.path.join(args.out_dir,
                                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(result["trace_file"], "w") as fh:
            json.dump(trace_dump, fh)
    else:
        metrics = dict(_timing_metrics([t for t in scaled if t is not None]),
                       peak_rss_mib=peak_rss_mib)
        result["raw_metrics"] = _timing_metrics([t for t in raw if t is not None])
        result["speed_scale"] = gauge.scale()
        result["op_times_ms"] = sorted((t * 1e3, op.kind, op.label)
                                       for op, t in zip(workload.ops, scaled) if t is not None)
    result["metrics"] = metrics
    _emit("@@RESULT", result)
    return 0


def _timing_metrics(times):
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3}


class _Summary:
    """What later rounds keep once their outputs are compared: no outputs."""

    def __init__(self, rnd):
        self.ops, self.failed, self.seconds = rnd.ops, rnd.failed, rnd.seconds
        self.durations, self.starts = rnd.durations, rnd.starts


if __name__ == "__main__":
    sys.exit(main())

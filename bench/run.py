"""ddinv benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload minlevel_kgon --seed 1 --seconds 30 --trace 0

Runs in a single process with BLAS threads pinned to one. A run draws a
fixed number of instances from the seed, as many as the workload gets
through in about --seconds of timed work at this commit, so that the same
seed and --seconds give the same instances and the same failures on every
run. With --trace 0 a closed loop of one caller runs each of them once and
reports the end-to-end metrics. With --trace 1 each instance of the first
half of the set runs untraced and again with every ddinv entry point
wrapped, and the run reports the per-layer metrics and the tracing
overhead. Every instance is checked against the reference in
`reference.py`, outside the timed region. The last line of standard output
is the JSON result; the lines before it say how the instances ended. ddinv
is imported from the `src` directory next to this one and nowhere else;
without it the script exits 2 and prints no result. numpy is imported only
after the environment below is set.
"""

import argparse
import functools
import json
import math
import os
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_run"
SETUP_REPEATS = 5
WARMUP_SEED = 0


class PivotBudgetExceeded(BaseException):
    """Raised from inside ddinv's simplex when an instance has made more
    pivots than its workload allows. A BaseException so no `except
    Exception` in ddinv can swallow it."""


class PivotBudget:
    """Counts the simplex pivots of the running instance by wrapping
    `ddinv.lp._pivot`, and stops the instance once it passes `left`. A pivot
    count depends only on the instance, so which instances are stopped
    repeats exactly from run to run, as it would not under a wall-clock
    deadline."""

    def __init__(self, lp):
        self.left = math.inf
        # unwrap an earlier Runner's wrapper so that pivots are counted once
        original = getattr(lp._pivot, "__wrapped__", lp._pivot)

        @functools.wraps(original)
        def counted(*args):
            self.left -= 1
            if self.left < 0:
                raise PivotBudgetExceeded()
            return original(*args)

        lp._pivot = counted


def instance_count(workload, seconds):
    """Instances in a run: whole cycles of the workload's instance pattern,
    as many as it runs in about `seconds` at its calibrated rate, at least
    one cycle."""
    return workload.cycle * max(1, round(seconds * workload.per_second / workload.cycle))


def import_ddinv():
    """Import ddinv from this checkout's src directory, refusing any other."""
    if not (SRC / "ddinv" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'ddinv'} not found; run from a ddinv checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ddinv
    from ddinv import cli, experiment, lp, polytopes, synthesis, verification
    if Path(ddinv.__file__).resolve().parent != SRC / "ddinv":
        raise SystemExit(f"error: ddinv was imported from {ddinv.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, experiment=experiment, lp=lp, polytopes=polytopes,
                           synthesis=synthesis, verification=verification)


class Runner:
    """Instance set, reference cache and pass for one workload."""

    def __init__(self, workload, seed, dd, workdir):
        self.workload = workload
        self.seed = seed
        self.dd = dd
        self.workdir = workdir
        self.budget = PivotBudget(dd.lp)
        self.setups = 0
        self.pool = []
        self.refs = {}
        self.reasons = Counter()
        self.silent = 0
        self.unchecked = 0

    def set_up(self, count):
        """Generate `count` instances from the seed and run one untimed
        warm-up instance, the same one for every seed. Each set-up writes
        its files into a new directory, so none overwrites an earlier one."""
        self.setups += 1
        workdir = self.workdir and os.path.join(self.workdir, f"setup{self.setups}")
        if workdir:
            os.makedirs(workdir)
        self.pool = [self.workload.make(self.seed, i, workdir) for i in range(count)]
        self.attempt(self.workload.make(WARMUP_SEED, count, workdir))

    def attempt(self, inst):
        """Run one instance under the pivot budget; returns (seconds, outcome)."""
        self.budget.left = self.workload.pivot_budget
        start = time.perf_counter()
        try:
            outcome = self.workload.run(inst, self.dd)
        except PivotBudgetExceeded:
            outcome = {"error": "pivot_budget"}
        except Exception as exc:  # every other exception is an instance failure
            outcome = {"error": type(exc).__name__}
        elapsed = time.perf_counter() - start
        self.budget.left = math.inf
        return elapsed, outcome

    def judge(self, index, outcome):
        """Check one outcome against the reference; True when it failed."""
        if "error" in outcome:
            reason = outcome["error"]
            self.reasons["solver_failure" if reason == "SolverFailure" else reason] += 1
            return True
        inst = self.pool[index]

        def reference():
            if index not in self.refs:
                self.refs[index] = self.workload.reference(inst)
            return self.refs[index]

        try:
            reason, silent = self.workload.check(inst, outcome, reference)
        except Exception as exc:  # the reference itself could not decide
            self.unchecked += 1
            reason, silent = f"unchecked:{type(exc).__name__}", False
        if reason is not None:
            self.reasons[reason] += 1
            self.silent += silent
        return reason is not None

    def one_pass(self):
        """Closed loop of one caller over the instance set, each instance
        once. Returns (per-instance latencies in s, failures)."""
        latencies = []
        failures = 0
        for index, inst in enumerate(self.pool):
            elapsed, outcome = self.attempt(inst)
            latencies.append(elapsed)
            failures += self.judge(index, outcome)
        return latencies, failures

    def traced_pass(self, tracer, count):
        """Run each of the first `count` instances both untraced and traced,
        back to back so both see the same machine state, alternating which
        goes first so neither profits from the other's warm caches. Returns
        (untraced s, traced s, failures of the traced attempts)."""
        totals = {False: 0.0, True: 0.0}
        failures = 0
        for index, inst in enumerate(self.pool[:count]):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    root = tracer.begin("instance")
                try:
                    elapsed, outcome = self.attempt(inst)
                finally:
                    if traced:
                        tracer.end(root)
                        tracer.reset_stack()
                        tracer.uninstall()
                totals[traced] += elapsed
                failed = self.judge(index, outcome)
                failures += failed and traced
        return totals[False], totals[True], failures


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(latencies, failures, setup_s):
    """Latency statistics over the instances' latencies, throughput over the
    whole pass. The tail is the mean of the slowest tenth: on minlevel_kgon
    the 90th percentile itself falls among solver failures whose times
    depend on which ones the seed's data produce, and moved more from seed
    to seed than this mean."""
    ms = sorted(seconds * 1e3 for seconds in latencies)
    tail = ms[-max(10, len(ms) // 10):]
    return {
        "setup_s": _metric(setup_s, "s"),
        "latency_p50_ms": _metric(statistics.median(ms), "ms"),
        "latency_tail10_ms": _metric(statistics.fmean(tail), "ms"),
        "throughput_per_s": _metric(len(latencies) / math.fsum(latencies), "1/s"),
        "ok_frac": _metric((len(latencies) - failures) / len(latencies), "frac"),
    }


def per_layer(tracer, traced_s, untraced_s):
    spans = tracer.summary()
    counts = tracer.counts

    def calls(*names):
        return sum(spans.get(name, {}).get("calls", 0) for name in names)

    def self_ms(*names):
        return sum(spans.get(name, {}).get("self_ms", 0.0) for name in names)

    statuses = ("optimal", "feasible", "infeasible", "unbounded", "iteration_limit")
    solves = calls("lp.solve")
    # a solve stopped by the pivot budget returns no status
    interrupted = solves - sum(counts[f"lp.status.{s}"] for s in statuses)
    useful = solves - counts["lp.status.iteration_limit"] - counts["lp.bad_point"] - interrupted
    out = {
        "lp.solve.calls": _metric(solves, "count"),
        "lp.solve.self_ms": _metric(self_ms("lp.solve"), "ms"),
        "lp.rows_sum": _metric(counts["lp.rows_sum"], "count"),
        "lp.vars_sum": _metric(counts["lp.vars_sum"], "count"),
    }
    for status in statuses:
        out[f"lp.status.{status}"] = _metric(counts[f"lp.status.{status}"], "count")
    out.update({
        "lp.interrupted": _metric(interrupted, "count"),
        "lp.bad_point": _metric(counts["lp.bad_point"], "count"),
        "lp.ok_frac": _metric(useful / solves if solves else 1.0, "frac"),
        "synthesis.build.calls": _metric(calls("synthesis.build"), "count"),
        "synthesis.build.self_ms": _metric(self_ms("synthesis.build"), "ms"),
        "synthesis.synthesize.self_ms": _metric(self_ms("synthesis.synthesize"), "ms"),
        "polytopes.validate_cset.calls": _metric(calls("polytopes.validate_cset"), "count"),
        "polytopes.validate_cset.self_ms": _metric(self_ms("polytopes.validate_cset"), "ms"),
        "polytopes.enumerate_vertices.self_ms":
            _metric(self_ms("polytopes.enumerate_vertices"), "ms"),
        "polytopes.subsets_sum": _metric(counts["polytopes.subsets_sum"], "count"),
        "polytopes.vertices_sum": _metric(counts["polytopes.vertices_sum"], "count"),
        "verification.verify_certificate.calls":
            _metric(calls("verification.verify_certificate"), "count"),
        "verification.verify_certificate.self_ms":
            _metric(self_ms("verification.verify_certificate"), "ms"),
        "experiment.calls": _metric(calls("experiment"), "count"),
        "experiment.self_ms": _metric(self_ms("experiment"), "ms"),
        "fileio.load.self_ms": _metric(self_ms("fileio.load"), "ms"),
        "fileio.save.self_ms": _metric(self_ms("fileio.save"), "ms"),
        "fileio.digest.self_ms": _metric(self_ms("fileio.digest"), "ms"),
        "fileio.bytes_read": _metric(counts["fileio.bytes_read"], "B"),
        "fileio.bytes_written": _metric(counts["fileio.bytes_written"], "B"),
        "svgplot.self_ms": _metric(self_ms("svgplot"), "ms"),
        "svgplot.bytes": _metric(counts["svgplot.bytes"], "B"),
    })
    for command in ("generate", "synthesize", "verify", "simulate"):
        out[f"cli.{command}.self_ms"] = _metric(self_ms(f"cli.{command}"), "ms")
    out["trace.overhead_frac"] = _metric(traced_s / untraced_s - 1.0, "frac")
    return out


def run(workload_name, seed, seconds, trace, spans_path=None):
    """Set up, measure and check one workload; returns the result dict."""
    dd = import_ddinv()
    import_s = time.perf_counter() - _START
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[workload_name]
    count = instance_count(workload, seconds)
    workdir = WORK_ROOT / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runner = Runner(workload, seed, dd, str(workdir))
            # set-up: the import of ddinv (once, from process start) plus the
            # median of several set-ups of the instance set with the warm-up
            setups = []
            for _ in range(1 if trace else SETUP_REPEATS):
                start = time.perf_counter()
                runner.set_up(count)
                setups.append(time.perf_counter() - start)
            if not trace:
                latencies, failures = runner.one_pass()
                attempts = len(latencies)
                metrics = end_to_end(latencies, failures, import_s + statistics.median(setups))
            else:
                # half the set, run twice, keeps a traced run as long as an
                # untraced one
                attempts = count // 2
                tracer = Tracer()
                untraced, traced, failures = runner.traced_pass(tracer, attempts)
                if spans_path is not None:
                    tracer.write(spans_path)
                metrics = per_layer(tracer, traced, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": runner.silent == 0 and runner.unchecked == 0,
        "attempted": attempts,
        "failed": failures,
        "metrics": metrics,
        "reasons": dict(runner.reasons),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not BENCHMARK_FILE.is_file():
        print(f"error: {BENCHMARK_FILE} not found", file=sys.stderr)
        return 2
    names = [w["name"] for w in json.loads(BENCHMARK_FILE.read_text())["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spans_path = None
    if args.trace:
        WORK_ROOT.mkdir(exist_ok=True)
        spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, spans_path)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    reasons = result.pop("reasons")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed; reasons over every checked attempt: {reasons}")
    if spans_path is not None:
        print(f"spans written to {spans_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

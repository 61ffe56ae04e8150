"""Run one hyperwave benchmark workload and print its metrics.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the end-to-end metrics are measured with tracing off;
with ``--trace 1`` the run times each library layer and reports per-layer
self time, calls, work counts and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, samples, quartiles, failures) is written to
``bench/_work/results/``; spans of a traced run to ``bench/_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bootstrap

DEFAULT_SEED = 0
SETUP_PROBES = 10
IMPORT_PROBES = 3
MIN_PASSES = 2
PROBE_TIMEOUT = 120


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _quartiles(values) -> dict:
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class SetupProbes:
    """Seconds for fresh interpreters to import, build the basis and make inputs.

    The probes are spread over the run, between passes, so that a slow
    stretch of the host lands on a few of them rather than on all.
    """

    def __init__(self, workload: str, seed: int, workdir, seconds: float):
        self.argv = [sys.executable, str(bootstrap.BENCH_DIR / "setup_probe.py"),
                     workload, str(seed)]
        self.workdir = workdir
        self.every = seconds / SETUP_PROBES
        self.times: list[float] = []

    def when_due(self, elapsed: float) -> None:
        """Run the probes due ``elapsed`` seconds into the run."""
        while len(self.times) < SETUP_PROBES and len(self.times) * self.every <= elapsed:
            probe_dir = os.path.join(self.workdir, f"setup{len(self.times)}")
            os.mkdir(probe_dir)
            start = time.perf_counter()
            subprocess.run(self.argv + [probe_dir], check=True, capture_output=True,
                           timeout=PROBE_TIMEOUT)
            self.times.append(time.perf_counter() - start)


def measure_import() -> tuple[float, list]:
    """Median seconds to import hyperwave (``-X importtime``) and its costliest imports."""
    totals, breakdown = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hyperwave"],
                              env=bootstrap.child_env(), capture_output=True, text=True,
                              check=True, timeout=PROBE_TIMEOUT)
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, module = line[len("import time:"):].split("|")
            rows.append((module.rstrip(), int(cumulative) * 1e-6))
        totals.append(next(sec for mod, sec in rows if mod.strip() == "hyperwave"))
        breakdown = sorted(rows, key=lambda r: -r[1])[:15]
    return statistics.median(totals), breakdown


class Runner:
    """Timed passes of one workload, with every output checked."""

    def __init__(self, workload, inputs, reference, checker):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.checker = checker
        self.file_counts: dict = {}
        self.child_maxrss_kb = 0

    def passes(self, seconds: float, recorder=None, min_passes: int = MIN_PASSES,
               between=None):
        """Run passes until the next one would end after ``seconds``.

        ``between(elapsed)`` is called after each pass, outside its timing.
        Returns per-pass wall and CPU seconds and, when traced, pass span ids.
        """
        walls, cpus, pass_ids = [], [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            typical = statistics.median(walls) if walls else 0.0
            if len(walls) >= min_passes and elapsed + typical > seconds:
                break
            try:
                cpu0, t0 = _cpu_seconds(), time.perf_counter()
                if recorder is None:
                    out = self.workload.run_pass(self.inputs, None)
                else:
                    recorder.run += 1
                    with recorder.span("pass") as pass_id:
                        out = self.workload.run_pass(self.inputs, recorder)
                    pass_ids.append(pass_id)
                wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.checker.check(f"{self.workload.name} pass raised", False)
                if time.perf_counter() - start > seconds:
                    break
                continue
            walls.append(wall)
            cpus.append(cpu)
            self._check(out)
            if between is not None:
                between(time.perf_counter() - start)
        return walls, cpus, pass_ids

    def _check(self, out) -> None:
        try:
            self.workload.check(self.inputs, out, self.checker)
            if self.reference is not None:
                self.checker.reference(self.workload.reference_values(self.inputs, out),
                                       self.reference)
            if not self.file_counts:
                self.file_counts = self.workload.file_counts(self.inputs, out)
            self.child_maxrss_kb = max(self.child_maxrss_kb, out.get("child_maxrss_kb", 0))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.checker.check(f"{self.workload.name} output could not be checked", False)


def _peak_rss_mb(runner) -> float:
    """Peak RSS of the pass: this process, or the largest command subprocess.

    The set-up probes are children too, so a workload whose pass runs in
    subprocesses reads each command's own peak (``os.wait4``), not
    ``RUSAGE_CHILDREN``.
    """
    if runner.workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runner.child_maxrss_kb / 1024.0


def end_to_end(runner, args, workdir) -> tuple[dict, dict]:
    probes = SetupProbes(args.workload, args.seed, workdir, args.seconds)
    walls, cpus, _ = runner.passes(args.seconds, between=probes.when_due)
    if not walls:
        raise RuntimeError("no pass completed")
    probes.when_due(float("inf"))
    setup = probes.times
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (_peak_rss_mb(runner), "MB"),
    }
    detail = {"wall_s": _quartiles(walls), "cpu_s": _quartiles(cpus),
              "setup_s": _quartiles(setup), "samples": {"wall_s": walls, "cpu_s": cpus,
                                                        "setup_s": setup}}
    return metrics, detail


def traced(runner, args) -> tuple[dict, dict]:
    import spans
    from workloads import CLI_COMMANDS

    half = args.seconds / 2.0
    plain, _, _ = runner.passes(half, min_passes=1)
    recorder = spans.Recorder()
    instr = spans.Instrumentation(recorder) if runner.workload.in_process else None
    if instr:
        instr.install()
    try:
        walls, _, pass_ids = runner.passes(half, recorder=recorder, min_passes=1)
    finally:
        if instr:
            instr.remove()
    if not walls or not plain:
        raise RuntimeError("no pass completed")
    n = len(pass_ids)
    ok_runs = {s.run for s in recorder.spans if s.id in pass_ids}
    layer_spans = [s for s in recorder.spans if s.name != "pass" and s.run in ok_runs]
    seconds, calls = spans.self_times(layer_spans)
    import_s, import_rows = measure_import()

    metrics = {}
    for name in spans.layer_metric_names(CLI_COMMANDS):
        if name.endswith(".calls"):
            metrics[name] = (calls.get(name[: -len(".calls")], 0) / n, "count")
        elif name == "cli.import.s":
            metrics[name] = (import_s, "s")
        elif name in spans.COUNTS:
            value = runner.file_counts.get(name, recorder.counts.get(name, 0) / n)
            metrics[name] = (value, "bytes" if name.endswith("bytes") else "count")
        elif name == "trace.coverage":
            metrics[name] = (min(spans.coverage(recorder.spans, p) for p in pass_ids), "ratio")
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.median(walls) - statistics.median(plain), "s")
        else:
            metrics[name] = (seconds.get(name[: -len(".s")], 0.0) / n, "s")

    os.makedirs(bootstrap.WORK / "traces", exist_ok=True)
    trace_file = bootstrap.WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    recorder.write(trace_file)
    detail = {"untraced_wall_s": _quartiles(plain), "traced_wall_s": _quartiles(walls),
              "import_breakdown_s": import_rows,
              "trace_file": str(trace_file.relative_to(bootstrap.ROOT))}
    return metrics, detail


def _as_number(x):
    return int(x) if isinstance(x, float) and x.is_integer() and abs(x) < 2 ** 53 else x


def report(args, metrics: dict, detail: dict, checker, env: dict) -> None:
    for name, (value, unit) in metrics.items():
        extra = ""
        q = detail.get(name)
        if isinstance(q, dict) and "q1" in q:
            extra = f"  ({q['n']} samples: q1 {q['q1']:.6g}, median {q['median']:.6g}, q3 {q['q3']:.6g})"
        print(f"{name:<42} {value:.6g} {unit}{extra}")
    rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{'error_rate':<42} {rate:.6g} failed/attempted "
          f"({checker.failed} of {checker.attempted} checked operations failed)")
    for what in checker.failures[:20]:
        print(f"FAILED: {what}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {k: {"value": _as_number(v) if u in ("count", "bytes") else v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    os.makedirs(bootstrap.WORK / "results", exist_ok=True)
    record = bootstrap.WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "error_rate": rate,
                   "failures": checker.failures, "env": env, "detail": detail}, fh, indent=1)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap.import_library()
    except bootstrap.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Checker

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(bootstrap.BENCH_DIR / "reference.json") as fh:
        reference = json.load(fh)[args.workload] if args.seed == DEFAULT_SEED else None

    os.makedirs(bootstrap.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=bootstrap.WORK)
    try:
        checker = Checker()
        inputs = workload.make_inputs(args.seed, Path(workdir))
        runner = Runner(workload, inputs, reference, checker)
        if args.trace:
            metrics, detail = traced(runner, args)
        else:
            metrics, detail = end_to_end(runner, args, workdir)
        report(args, metrics, detail, checker, bootstrap.environment())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

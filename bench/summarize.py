"""Run the benchmark over seeds 0-9 and summarize each metric.

Usage:
    python3 bench/summarize.py [--traced] [--out FILE]

For every workload this runs ``bench/run.py`` once per seed, for the
``run_seconds`` of ``BENCHMARK.json``, with tracing off, and reports per
end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median.  With ``--traced`` it adds one traced run per
workload, on seed 0, for the per-layer breakdown.  ``--out`` writes
everything as JSON, which is how ``bench/baseline.json`` is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import bootstrap

RUN = str(bootstrap.BENCH_DIR / "run.py")
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    out = {"seconds": seconds, "env": None, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, elapsed = [], []
        for seed in SEEDS:
            result, secs = run_once(workload, seed, seconds, 0)
            runs.append(result)
            elapsed.append(secs)
            print(f"{workload} seed {seed}: {secs:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        entry = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "error_rate": [r["failed"] / r["attempted"] for r in runs],
            "run_elapsed_s": max(elapsed),
            "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                               **summary([r["metrics"][name]["value"] for r in runs])}
                        for name in runs[0]["metrics"]},
        }
        if args.traced:
            traced, _ = run_once(workload, SEEDS[0], seconds, 1)
            entry["per_layer"] = {k: v for k, v in traced["metrics"].items() if v["value"]}
        out["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            print(f"{workload:<14} {name:<12} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}")
    bootstrap.import_library()
    out["env"] = bootstrap.environment()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

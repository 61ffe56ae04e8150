"""Record the default-seed reference outputs into bench/reference.json.

Usage: python3 bench/record_reference.py
Run once on the commit whose outputs define "correct"; every later run
with the default seed compares its file hashes and values against them.
Refuses to record a workload whose own invariant checks fail.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import bootstrap

bootstrap.import_library()

from run import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS, Checker  # noqa: E402


def main() -> int:
    reference = {}
    bootstrap.WORK.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=bootstrap.WORK))
        try:
            inputs = workload.make_inputs(DEFAULT_SEED, workdir)
            out = workload.run_pass(inputs, None)
            checker = Checker()
            workload.check(inputs, out, checker)
            if checker.failed:
                print(f"{name}: invariant checks failed: {checker.failures}", file=sys.stderr)
                return 1
            reference[name] = workload.reference_values(inputs, out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: recorded")
    with open(bootstrap.BENCH_DIR / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

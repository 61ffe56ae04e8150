"""Set-up of one workload in a fresh interpreter, timed from outside by run.py.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
Imports the library, builds the basis and generates the workload's inputs.
"""

import sys
from pathlib import Path

import bootstrap

bootstrap.import_library()

from workloads import WORKLOADS  # noqa: E402  (needs the library on the path)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:4]
    WORKLOADS[name].make_inputs(int(seed), Path(workdir))

"""One fresh-process set-up, timed from outside by bench/run.py.

Usage: python3 bench/setup_probe.py WORKLOAD SEED DIRECTORY

Imports the package the way the CLI does, writes the workload's problem files
into DIRECTORY and parses each of them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shapedparts.cli  # noqa: E402,F401  (the import a CLI call pays)
from shapedparts.problems import load_problem  # noqa: E402

from instances import workload_instances, write_instances  # noqa: E402

workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
for path in write_instances(workload_instances(workload, seed), directory):
    load_problem(path)

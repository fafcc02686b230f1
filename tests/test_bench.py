import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_pass_matches_expected_counts():
    # One traced pass over every workload: bench/run.py checks each report
    # digest and traced count against bench/expected.json and counts a
    # command that differs as failed.
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1", "--trace", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["attempted"] > 0
    assert summary["failed"] == 0, done.stdout[-4000:]

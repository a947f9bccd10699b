"""The benchmark's traced pass still runs against the library.

``perfbench/run.py --trace 1`` checks that every span it expects fires
and reads attributes off the library's return values (a report's
``censored_fraction``, a solution's ``cycles``), so it exits 1 when the
library stops providing one.  One pass of each workload takes about
12 s.  The run directories it prints are removed when it passes and
kept for inspection when it fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pass_of_every_workload_is_correct():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    results = [json.loads(line) for line in run.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == 3, run.stdout[-2000:]
    for result in results:
        assert (result["correct"], result["failed"]) == (True, 0)
    for line in run.stdout.splitlines():
        if line.startswith("run directory: "):
            shutil.rmtree(line.removeprefix("run directory: "))

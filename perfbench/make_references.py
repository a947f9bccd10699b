"""Regenerate ``references.json``: the stage-0 values that ``value_err``
checks the benchmark's detection solves against.

    python3 perfbench/make_references.py

Each reference is ``solve_detection`` on a bundled config at the grid the
benchmark uses, iterated to a sup step of 1e-12 instead of the config's
1e-6.  Run it again after a change to the solver's discretisation (grid,
quadrature, interpolation); a change to the stopping rule alone leaves the
references valid.
"""

from __future__ import annotations

import json
import time

import benchenv

benchenv.cap_blas_threads()
benchenv.use_source_tree()

from periodet.cli import bundled_config  # noqa: E402
from periodet.detection_dp import solve_detection  # noqa: E402

import workloads  # noqa: E402

TOLERANCE = 1e-12
COMMAND = "python3 perfbench/make_references.py"


def main() -> None:
    values = {}
    for name, grid in workloads.REFERENCE_SOLVES:
        cfg = bundled_config(name)
        start = time.perf_counter()
        solution = solve_detection(cfg.scenario(), cfg.cost_spec(), grid_resolution=grid,
                                   tol=TOLERANCE, max_cycles=cfg.max_cycles)
        if not solution.converged:
            raise SystemExit(f"{name}@{grid} did not reach tol {TOLERANCE:g}")
        values[f"{name}@{grid}"] = solution.value_at_zero
        print(f"{name}@{grid}: V0 = {solution.value_at_zero!r} after {solution.cycles} cycles "
              f"({time.perf_counter() - start:.1f} s)")
    record = {
        "command": COMMAND,
        "tolerance": TOLERANCE,
        "environment": benchenv.environment_record("references", 0),
        "values": values,
    }
    workloads.REFERENCES_FILE.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {workloads.REFERENCES_FILE}")


if __name__ == "__main__":
    main()

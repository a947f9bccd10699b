"""Benchmark for periodet.

    python3 perfbench/run.py --workload {study_mc,dp_fine_grid,mdp_engine,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; periodet is imported from its ``src/``.
One process, one operation at a time (closed loop, one client), BLAS
threads capped at the usable CPU count.  The operation list of the
workload is run in whole passes for about ``--seconds`` (within half a
pass); at least one pass always runs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one
untraced pass, then traced passes, and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs the
three workloads one after another, each in its own process.

Outputs go to a fresh directory under ``.perfbench_out/`` in the
checkout; the CLI's per-operation outputs and the generated instances are
deleted when the run ends, the result, environment record and spans stay.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import benchenv  # noqa: E402

benchenv.cap_blas_threads()

WORKLOAD_NAMES = ("study_mc", "dp_fine_grid", "mdp_engine")
SETUP_SAMPLES = 3  # this process plus two fresh ones

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_geomean": "s",
    "peak_rss_mb": "MB",
    "ops_failed_frac": "fraction",
    "value_err_max": "cost",
}


@dataclass(frozen=True)
class OpRecord:
    name: str
    seconds: float
    error: str | None
    checks: list
    csv_bytes: int

    @property
    def failed(self) -> bool:
        """Raised, exited non-zero, or failed any check (the accuracy
        check included)."""
        return self.error is not None or any(not c.ok for c in self.checks)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON, and exit "
                             "(used to sample set-up in fresh processes)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# running operations

def run_pass(workload, run_dir: Path, index: int, tracer=None) -> list[OpRecord]:
    from workloads import Check

    state: dict = {}
    records = []
    for k, op in enumerate(workload.ops):
        out = run_dir / "ops" / f"pass{index}_op{k}"
        out.mkdir(parents=True)
        error = result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run(out, state)
            else:
                with tracer.root(f"{index}:{k}"):
                    result = op.run(out, state)
        except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        checks = []
        if error is None:
            try:
                with benchenv.single_blas_thread():
                    checks = op.check(result, out, state)
            except Exception as exc:  # noqa: BLE001 - unreadable outputs fail the op's check
                checks = [Check("outputs_readable", False, f"{op.name}: {type(exc).__name__}: {exc}")]
        csv_bytes = sum(p.stat().st_size for p in out.glob("*.csv"))
        shutil.rmtree(out)
        records.append(OpRecord(op.name, seconds, error, checks, csv_bytes))
    return records


def pass_seconds(records: list[OpRecord]) -> float:
    return sum(r.seconds for r in records)


def run_passes(workload, run_dir: Path, seconds: float, start_index: int = 0,
               clock_start: float | None = None, tracer=None) -> list[list[OpRecord]]:
    """Whole passes while the next one is expected to end no later than
    half a pass after ``seconds`` (counted from ``clock_start``), so the
    measured time lands within half a pass of ``seconds``; always at least
    one."""
    clock_start = time.perf_counter() if clock_start is None else clock_start
    passes, lengths = [], []
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workload, run_dir, start_index + len(passes), tracer))
        lengths.append(time.perf_counter() - began)
        if time.perf_counter() - clock_start + statistics.median(lengths) / 2 > seconds:
            return passes


# ---------------------------------------------------------------------------
# set-up

def setup(args, run_dir: Path):
    """Build the workload and run its first operation once, cold.  Users of
    the CLI pay that first-call cost once per process, so it is part of
    set-up time (the checks on its outputs are not), and it is printed on
    its own as the cold first operation."""
    import workloads

    workload = workloads.build(args.workload, args.seed, run_dir / "inputs")
    built = time.perf_counter() - _START
    cold = run_pass(workloads.Workload("warm-up", workload.ops[:1], (), None), run_dir, -1)[0]
    return workload, built + cold.seconds, cold


def sample_setup(args, own_setup_s: float) -> list[float]:
    samples = [own_setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed ({proc.returncode}): {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# reporting

def print_failures(records: list[OpRecord]) -> None:
    errors = Counter(f"{r.name}: {r.error}" for r in records if r.error)
    failed_checks = Counter(
        f"[{'known defect' if c.known_defect else 'contract'}] {c.name}: {c.detail}"
        for r in records for c in r.checks if not c.ok
    )
    for line, n in sorted(errors.items()):
        print(f"FAILED OPERATION (x{n}) {line}")
    for line, n in sorted(failed_checks.items()):
        print(f"FAILED CHECK (x{n}) {line}")


def end_to_end(passes: list[list[OpRecord]], setup_samples: list[float]) -> dict[str, float]:
    records = [r for p in passes for r in p]
    per_op: dict[str, list[float]] = {}
    for r in records:
        per_op.setdefault(r.name, []).append(r.seconds)
    medians = [statistics.median(v) for v in per_op.values()]
    errors = [c.value for r in records for c in r.checks if c.value is not None]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(pass_seconds(p) for p in passes),
        "op_s_geomean": math.exp(statistics.fmean(math.log(t) for t in medians)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_failed_frac": sum(r.failed for r in records) / len(records),
        "value_err_max": max(errors) if errors else math.nan,
    }


def verdict(records: list[OpRecord]) -> tuple[bool, int]:
    """(correct, failed) for the result line: ``failed`` counts operations
    that raised or exited non-zero; ``correct`` also needs every contract
    check to pass.  The known-defect accuracy check is left out of both and
    shows in ``ops_failed_frac`` and ``value_err_max`` instead."""
    failed = sum(r.error is not None for r in records)
    contract_ok = all(c.ok or c.known_defect for r in records for c in r.checks)
    return failed == 0 and contract_ok, failed


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in metrics.items()},
    })


# ---------------------------------------------------------------------------
# the two kinds of run

def measure_end_to_end(args, workload, run_dir: Path, setup_s: float, cold) -> tuple[dict, str]:
    samples = sample_setup(args, setup_s)
    passes = run_passes(workload, run_dir, args.seconds)
    records = [r for p in passes for r in p]
    metrics = end_to_end(passes, samples)
    correct, failed = verdict(records)
    print(f"set-up samples (s): {[round(s, 4) for s in samples]}; "
          f"cold first operation '{cold.name}': {cold.seconds:.4f} s (inside set-up)")
    print(f"passes: {len(passes)}, pass seconds: {[round(pass_seconds(p), 4) for p in passes]}")
    for name in dict.fromkeys(r.name for r in records):
        times = [r.seconds for r in records if r.name == name]
        print(f"  op {name}: median {statistics.median(times):.4f} s over {len(times)}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"ops_attempted: {len(records)}")
    print(f"ops_failed: {sum(r.failed for r in records)} "
          f"(raised or exited non-zero: {failed})")
    print_failures(records)
    summary = {"passes": [[r.__dict__ | {"checks": [c.__dict__ for c in r.checks]} for r in p]
                          for p in passes],
               "setup_samples": samples, "metrics": metrics}
    return summary, result_line(correct, len(records), failed, metrics, END_TO_END_UNITS)


def measure_traced(args, workload, run_dir: Path) -> tuple[dict, str]:
    import tracing
    import workloads

    clock = time.perf_counter()
    untraced = run_passes(workload, run_dir, 0.0, clock_start=clock)
    tracer = tracing.Tracer()
    tracer.install(extra_sites=(workloads,))
    try:
        traced = run_passes(workload, run_dir, args.seconds, start_index=1, clock_start=clock,
                            tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(run_dir / "spans.jsonl")

    missing = tracing.missing_spans(tracer, workload.expected_spans)
    if missing:
        print(f"error: expected spans never fired: {missing}; the function is no longer "
              f"called, or is called through a reference the tracer did not wrap",
              file=sys.stderr)
        sys.exit(1)
    records = [r for p in traced for r in p]
    traced_wall = sum(r.seconds for r in records)
    self_total = sum(t[2] for t in tracer.totals.values())
    if abs(self_total - traced_wall) > 0.01 * traced_wall:
        print(f"error: span self times sum to {self_total:.4f} s but the traced operations "
              f"took {traced_wall:.4f} s", file=sys.stderr)
        sys.exit(1)

    probe = tracing.detection_probe(*workload.probe) if workload.probe else None
    csv_bytes = sum(r.csv_bytes for r in records)
    metrics = tracing.layer_metrics(tracer, len(traced), csv_bytes, probe)
    untraced_wall = pass_seconds(untraced[0])
    traced_median = statistics.median(pass_seconds(p) for p in traced)
    spans = sum(t[0] for t in tracer.totals.values()) / len(traced)
    estimated = spans * tracing.span_cost() / traced_median
    print(f"untraced pass: {untraced_wall:.4f} s; traced passes: "
          f"{[round(pass_seconds(p), 4) for p in traced]}; tracing overhead against the "
          f"untraced pass {traced_median / untraced_wall - 1:+.2%} (one pass each, so "
          f"machine noise included); estimated from {spans:.0f} spans per pass at the "
          f"calibrated cost per span: {estimated:+.2%}")
    layer_self = {layer: sum(t[2] for n, t in tracer.totals.items() if n.startswith(layer + "."))
                  for layer in (*tracing.LAYERS, "bench")}
    print("self time per layer (s per pass): " + ", ".join(
        f"{layer} {s / len(traced):.4f} ({s / traced_wall:.1%})" for layer, s in layer_self.items()))
    print(f"self times sum to {self_total:.4f} s, traced operations took {traced_wall:.4f} s")
    print("call sites: " + ", ".join(f"{site} x{n}" for site, n in sorted(tracer.sites.items())))
    on_path = {span.split(".")[0] for span in workload.expected_spans}
    for name, value in metrics.items():
        note = "" if name.split(".")[0] in on_path else " (layer not expected on this workload)"
        print(f"{name}: {value:.6g} {tracing.PER_LAYER_UNITS[name]}{note}")
    print_failures(records)
    correct, failed = verdict(records)
    summary = {"untraced_pass_s": untraced_wall, "traced_pass_s": [pass_seconds(p) for p in traced],
               "estimated_overhead": estimated, "layer_self_s": layer_self, "metrics": metrics}
    return summary, result_line(correct, len(records), failed, metrics, tracing.PER_LAYER_UNITS)


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"=== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    benchenv.use_source_tree()
    benchenv.OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-",
                                    dir=benchenv.OUT_DIR))
    try:
        workload, setup_s, cold = setup(args, run_dir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = benchenv.environment_record(args.workload, args.seed)
        print("environment: " + json.dumps(env))
        if args.trace:
            summary, line = measure_traced(args, workload, run_dir)
        else:
            summary, line = measure_end_to_end(args, workload, run_dir, setup_s, cold)
        (run_dir / "result.json").write_text(json.dumps(
            {"environment": env, "args": vars(args), **summary, "result": json.loads(line)},
            indent=1, default=str))
        print(f"run directory: {run_dir}")
        print(line)
        return 0
    finally:
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)
        shutil.rmtree(run_dir / "ops", ignore_errors=True)
        if args.setup_only:
            shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

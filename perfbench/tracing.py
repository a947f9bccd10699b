"""Span tracer for the traced benchmark run, and the per-layer metrics
derived from its spans.

The tracer wraps every public function of the six periodet modules at
every name it is looked up under (``cli`` calls ``solve_detection`` through
its own module global, ``monte_carlo`` calls ``belief_to_log_odds`` through
its own, and so on), plus the ``logpdf``/``sample`` methods of the Gaussian
density.  A span records name, lookup site, start, end, parent span and
operation id.  Spans stay in memory and are written out when the run ends;
density-method calls (hundreds of thousands per pass) are only aggregated,
so memory stays bounded.

A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "detection_dp", "monte_carlo", "periodic_mdp", "belief", "ipid_model")
ROOT_SPAN = "bench.op"
_DENSITY_METHODS = ("logpdf", "sample")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, inclusive s, self s]
        self.sites: Counter = Counter()  # "name@site" -> calls
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op: str | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._mc_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, site: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0, name, site, parent, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool = True) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, child, name, site, parent, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        self.sites[f"{name}@{site}"] += 1
        if keep:
            self.spans.append((span_id, name, site, start, end, parent, self.op))
        return duration

    @contextlib.contextmanager
    def root(self, op_id: str):
        """The span around one benchmark operation."""
        self.op = op_id
        frame = self._enter(ROOT_SPAN, "bench")
        try:
            yield
        finally:
            self._exit(frame)
            self.op = None

    def observe_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, site: str):
        tracer = self
        after = _AFTER.get(name)
        signature = inspect.signature(fn) if after else None
        is_mc = name.startswith("monte_carlo.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name, site)
            if is_mc:
                tracer._mc_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
                if is_mc:
                    tracer._mc_depth -= 1
                    if tracer._mc_depth == 0:
                        tracer.counts["monte_carlo.outer_s"] += duration
            if after is not None:
                after(tracer, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _wrap_density(self, fn, name: str, kind: str):
        tracer = self

        @functools.wraps(fn)
        def traced(density, *args, **kwargs):
            frame = tracer._enter(name, "Gaussian")
            try:
                result = fn(density, *args, **kwargs)
            finally:
                tracer._exit(frame, keep=False)
            n = getattr(result, "size", 1)  # a scalar call returns a float
            tracer.counts[f"ipid_model.{kind}_elems"] += n
            if kind == "sample" and tracer._mc_depth:
                tracer.counts["monte_carlo.path_steps"] += n
            return result

        return traced

    def install(self, extra_sites: tuple = ()) -> None:
        """Wrap every public function of the six modules at every module
        global that refers to it, in periodet and in ``extra_sites``."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"periodet.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[value] = f"{layer}.{attr}"
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "periodet" or n.startswith("periodet.")]
        for module in [*modules, *extra_sites]:
            site = module.__name__.removeprefix("periodet.")
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patch(module, attr, self._wrap(value, originals[value], site))
        from periodet.ipid_model import Gaussian

        for method in _DENSITY_METHODS:
            original = Gaussian.__dict__[method]
            self._patch(Gaussian, method,
                        self._wrap_density(original, f"ipid_model.Gaussian.{method}", method))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span_id, name, site, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "site": site, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"aggregates": self.totals, "sites": self.sites,
                                 "counts": self.counts, "maxima": self.maxima}) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds the tracer adds to one wrapped call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "calibration.noop", "calibration")
    timings = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        timings.append(time.perf_counter() - start)
    return max(timings[1] - timings[0], 0.0) / calls


def missing_spans(tracer: Tracer, expected: tuple[str, ...]) -> list[str]:
    fired = tracer.totals
    return [name for name in expected
            if not (any(n.startswith(name[:-1]) for n in fired) if name.endswith(".*")
                    else name in fired)]


# -- counters read off return values ------------------------------------------

def _after_solve_detection(tracer: Tracer, args: dict, solution) -> None:
    tracer.counts["detection_dp.cycles"] += solution.cycles
    # T stage sweeps per cycle plus T for the final entry curves
    tracer.counts["detection_dp.stage_sweeps"] += solution.period * (solution.cycles + 1)
    tracer.counts["detection_dp.unconverged"] += not solution.converged


def _after_report(tracer: Tracer, args: dict, report) -> None:
    tracer.observe_max("monte_carlo.censored_frac_max", report.censored_fraction)


def _after_sweep(tracer: Tracer, args: dict, sweep) -> None:
    tracer.counts["monte_carlo.sweep_points"] += len(sweep.points)
    for point in sweep.points:
        tracer.observe_max("monte_carlo.censored_frac_max", point.censored_fraction)


def _after_value_iterate(tracer: Tracer, args: dict, values) -> None:
    mdp = args["mdp"]
    T, S, A, _ = mdp.transitions.shape
    tracer.counts["periodic_mdp.cycles"] += values.cycles
    # one cycle: T matrix-vector products of a (S*A, S) kernel
    tracer.counts["periodic_mdp.bellman_flops_computed"] += 2 * T * S * A * S * values.cycles
    tracer.counts["periodic_mdp.bellman_bytes_computed"] += 8 * T * S * A * S * values.cycles


def _after_residual(tracer: Tracer, args: dict, residual) -> None:
    tracer.observe_max("periodic_mdp.residual_max", residual)


def _after_load_instance(tracer: Tracer, args: dict, mdp) -> None:
    tracer.counts["periodic_mdp.instance_bytes"] += os.path.getsize(args["path"])


def _after_simulate_policy(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["periodic_mdp.sim_path_steps"] += args["n_paths"] * args["horizon"]


_AFTER = {
    "detection_dp.solve_detection": _after_solve_detection,
    "monte_carlo.estimate_bayes_cost": _after_report,
    "monte_carlo.estimate_add_pfa": _after_report,
    "monte_carlo.sweep_single_threshold": _after_sweep,
    "periodic_mdp.value_iterate": _after_value_iterate,
    "periodic_mdp.fixed_point_residual": _after_residual,
    "periodic_mdp.load_instance": _after_load_instance,
    "periodic_mdp.simulate_policy": _after_simulate_policy,
}


# -- detection_dp set-up/per-cycle probe --------------------------------------

def detection_probe(config: str, grid: int, short: int = 5, long: int = 25,
                    repeats: int = 3) -> tuple[float, float]:
    """Intercept and slope of solve time against ``max_cycles``: two probe
    solves that differ only in the cycle cap, each the median of
    ``repeats``.  Returns (set-up seconds, seconds per cycle)."""
    from periodet.cli import bundled_config
    from periodet.detection_dp import solve_detection

    cfg = bundled_config(config)

    def timed(cycles: int) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            solve_detection(cfg.scenario(), cfg.cost_spec(), grid_resolution=grid,
                            tol=cfg.tolerance, max_cycles=cycles)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    t_short, t_long = timed(short), timed(long)
    per_cycle = (t_long - t_short) / (long - short)
    return t_short - short * per_cycle, per_cycle


# -- per-layer metrics ---------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.config_parse_s": "s", "cli.csv_bytes": "B",
    "detection_dp.self_s": "s", "detection_dp.solve_calls": "count",
    "detection_dp.solve_s": "s", "detection_dp.cycles": "count",
    "detection_dp.stage_sweeps": "count", "detection_dp.unconverged": "count",
    "detection_dp.setup_s": "s", "detection_dp.cycle_s": "s",
    "monte_carlo.self_s": "s", "monte_carlo.bayes_cost_calls": "count",
    "monte_carlo.bayes_cost_s": "s", "monte_carlo.sweep_s": "s",
    "monte_carlo.sweep_points": "count", "monte_carlo.s_per_sweep_point": "s",
    "monte_carlo.add_pfa_s": "s", "monte_carlo.path_steps": "count",
    "monte_carlo.path_steps_per_s": "1/s", "monte_carlo.censored_frac_max": "fraction",
    "ipid_model.self_s": "s", "ipid_model.logpdf_calls": "count",
    "ipid_model.logpdf_elems": "count", "ipid_model.logpdf_s": "s",
    "ipid_model.sample_calls": "count", "ipid_model.sample_draws": "count",
    "ipid_model.sample_s": "s", "ipid_model.elems_per_call": "count",
    "belief.calls": "count", "belief.s": "s",
    "periodic_mdp.self_s": "s", "periodic_mdp.load_instance_s": "s",
    "periodic_mdp.instance_bytes": "B", "periodic_mdp.value_iterate_s": "s",
    "periodic_mdp.cycles": "count", "periodic_mdp.cycle_s": "s",
    "periodic_mdp.oracle_s": "s", "periodic_mdp.simulate_s": "s",
    "periodic_mdp.sim_path_steps_per_s": "1/s", "periodic_mdp.residual_max": "cost",
    "periodic_mdp.bellman_flops_computed": "flop",
    "periodic_mdp.bellman_bytes_computed": "B",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, csv_bytes: float,
                  probe: tuple[float, float] | None) -> dict[str, float]:
    """Per-pass values of every per-layer metric.  Layers a workload does
    not reach read 0; the caller checks beforehand that every span the
    workload is expected to reach fired."""
    totals, counts, maxima = tracer.totals, tracer.counts, tracer.maxima

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def layer(prefix, column):
        return sum(t[column] for name, t in totals.items() if name.startswith(prefix + "."))

    logpdf, sample = "ipid_model.Gaussian.logpdf", "ipid_model.Gaussian.sample"
    density_calls = calls(logpdf) + calls(sample)
    density_elems = counts["ipid_model.logpdf_elems"] + counts["ipid_model.sample_elems"]
    mdp_cycles = counts["periodic_mdp.cycles"]
    sim_s = inclusive("periodic_mdp.simulate_policy")
    total = {
        "cli.self_s": layer("cli", 2),
        "cli.config_parse_s": inclusive("cli.parse_config"),
        "cli.csv_bytes": csv_bytes,
        "detection_dp.self_s": layer("detection_dp", 2),
        "detection_dp.solve_calls": calls("detection_dp.solve_detection"),
        "detection_dp.solve_s": inclusive("detection_dp.solve_detection"),
        "detection_dp.cycles": counts["detection_dp.cycles"],
        "detection_dp.stage_sweeps": counts["detection_dp.stage_sweeps"],
        "detection_dp.unconverged": counts["detection_dp.unconverged"],
        "monte_carlo.self_s": layer("monte_carlo", 2),
        "monte_carlo.bayes_cost_calls": calls("monte_carlo.estimate_bayes_cost"),
        "monte_carlo.bayes_cost_s": inclusive("monte_carlo.estimate_bayes_cost"),
        "monte_carlo.sweep_s": inclusive("monte_carlo.sweep_single_threshold"),
        "monte_carlo.sweep_points": counts["monte_carlo.sweep_points"],
        "monte_carlo.add_pfa_s": inclusive("monte_carlo.estimate_add_pfa"),
        "monte_carlo.path_steps": counts["monte_carlo.path_steps"],
        "ipid_model.self_s": layer("ipid_model", 2),
        "ipid_model.logpdf_calls": calls(logpdf),
        "ipid_model.logpdf_elems": counts["ipid_model.logpdf_elems"],
        "ipid_model.logpdf_s": inclusive(logpdf),
        "ipid_model.sample_calls": calls(sample),
        "ipid_model.sample_draws": counts["ipid_model.sample_elems"],
        "ipid_model.sample_s": inclusive(sample),
        "belief.calls": layer("belief", 0),
        "belief.s": layer("belief", 1),
        "periodic_mdp.self_s": layer("periodic_mdp", 2),
        "periodic_mdp.load_instance_s": inclusive("periodic_mdp.load_instance"),
        "periodic_mdp.instance_bytes": counts["periodic_mdp.instance_bytes"],
        "periodic_mdp.value_iterate_s": inclusive("periodic_mdp.value_iterate"),
        "periodic_mdp.cycles": mdp_cycles,
        "periodic_mdp.oracle_s": inclusive("periodic_mdp.finite_horizon_oracle"),
        "periodic_mdp.simulate_s": sim_s,
        "periodic_mdp.bellman_flops_computed": counts["periodic_mdp.bellman_flops_computed"],
        "periodic_mdp.bellman_bytes_computed": counts["periodic_mdp.bellman_bytes_computed"],
    }
    out = {name: value / passes for name, value in total.items()}
    # ratios and maxima are the same whatever the number of passes
    out.update({
        "detection_dp.setup_s": probe[0] if probe else 0.0,
        "detection_dp.cycle_s": probe[1] if probe else 0.0,
        "monte_carlo.s_per_sweep_point": _ratio(total["monte_carlo.sweep_s"],
                                                total["monte_carlo.sweep_points"]),
        "monte_carlo.path_steps_per_s": _ratio(counts["monte_carlo.path_steps"],
                                               counts["monte_carlo.outer_s"]),
        "monte_carlo.censored_frac_max": maxima.get("monte_carlo.censored_frac_max", 0.0),
        "ipid_model.elems_per_call": _ratio(density_elems, density_calls),
        "periodic_mdp.cycle_s": _ratio(total["periodic_mdp.value_iterate_s"], mdp_cycles),
        "periodic_mdp.sim_path_steps_per_s": _ratio(counts["periodic_mdp.sim_path_steps"], sim_s),
        "periodic_mdp.residual_max": maxima.get("periodic_mdp.residual_max", 0.0),
    })
    return {name: out[name] for name in PER_LAYER_UNITS}

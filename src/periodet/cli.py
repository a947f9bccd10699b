"""Experiment runner.

Subcommands
-----------
solve      solve one detection scenario; write curve/threshold CSVs
simulate   Monte-Carlo Bayes cost of a policy on one scenario
sweep      Bayes cost of the single-threshold rule over a threshold grid
tradeoff   delay vs false-alarm curve with the matching analytic column
reproduce  run a bundled experiment batch and diff against target values
mdp-solve  solve a generic periodic MDP instance file

Scenario configs are flat ``key = value`` text files read by
``parse_config``, each key declared once as an ``ExperimentConfig`` field;
lists are comma separated, in configs and flags alike.  Every bundled
experiment ships as a config.  All outputs are CSV files with
header rows; stdout gets a summary and then one ``wrote <path>`` line per
file, both from ``_emit``.  ``reproduce fig1``
and ``fig2`` print their target value at p=0 and then write and print
what ``solve`` and ``sweep`` do on the figure's config, ``fig3`` what
``tradeoff`` does, each with the figure id as the file stem.  Exit codes:
0 on success, 2 on config/instance parse errors, 3 when a solver did not
converge (``solve``, ``simulate --policy optimal`` and every ``reproduce``
batch but fig3: policy iteration did not repeat its policy within
``max_cycles`` improvement steps, or left a fixed-point residual above
the tolerance; ``mdp-solve``: value iteration did not meet its stopping
rule within ``max_cycles`` cycles), 1 on any other runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .belief import log_odds_to_belief
from .detection_dp import DEFAULT_GRID_POINTS, DetectionSolution, solve_detection
from .ipid_model import (DetectionCostSpec, Gaussian, IpidScenario, kl_information,
                         prior_tail_exponent)
from .monte_carlo import (
    SimulationReport,
    SweepResult,
    analytic_delay,
    default_horizon,
    estimate_add_pfa,
    estimate_bayes_cost,
    sample_path,
    sweep_single_threshold,
)
from .periodic_mdp import (
    DEFAULT_MAX_CYCLES,
    InstanceFormatError,
    fixed_point_residual,
    load_instance,
    value_iterate,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3

# Threshold grid used by sweeps when none is given.  Dense near zero where
# the cost curve of aggressive rules has sharp structure.
DEFAULT_THRESHOLD_GRID = (
    0.002, 0.005, 0.008, 0.010, 0.012, 0.015, 0.018, 0.022, 0.027, 0.033,
    0.040, 0.050, 0.065, 0.080, 0.100, 0.125, 0.150, 0.200, 0.250, 0.300,
    0.350, 0.400, 0.450, 0.500, 0.550, 0.600, 0.650, 0.700, 0.750, 0.800,
    0.850, 0.900, 0.950,
)

DEFAULT_TRADEOFF_ALPHAS = (1e-2, 1e-3, 1e-4)


class ConfigError(ValueError):
    """Bad experiment config; carries the offending line number, or None
    when the fault concerns the whole file."""

    def __init__(self, source: str, line_no: int | None, message: str):
        where = source if line_no is None else f"{source}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no


def _numbers(text: str) -> tuple[float, ...]:
    """A comma-separated list of numbers, the one list grammar of configs
    and flags; an empty entry is a ValueError."""
    return tuple(float(v) for v in text.split(","))


def _positive(v: float) -> bool:
    return 0.0 < v < math.inf


def _field(parse, in_range, what: str, default=MISSING):
    """A config field read by ``parse`` (``_numbers`` for a list, one entry
    per stage) whose every number passes ``in_range``, the range ``what``;
    a field with no ``default`` is required."""
    return field(default=default, metadata={"spec": (parse, in_range, what)})


@dataclass(frozen=True)
class ExperimentConfig:
    """One detection experiment: scenario, penalties, and run sizes.

    Each config key is declared here once, with its parser, range and
    default; variances left out are 1.0 per stage, and a horizon left out
    is the scenario's ``default_horizon``.  Construction runs the checks of
    the scenario and the cost spec, which raise ``ValueError``."""

    period: int = _field(int, lambda v: v >= 1, ">= 1")
    rho: float = _field(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
    pre_means: tuple[float, ...] = _field(_numbers, math.isfinite, "finite")
    post_means: tuple[float, ...] = _field(_numbers, math.isfinite, "finite")
    false_alarm_penalties: tuple[float, ...] = _field(_numbers, _positive, "finite and > 0")
    delay_penalties: tuple[float, ...] = _field(_numbers, lambda v: 0.0 <= v < math.inf,
                                                "finite and >= 0")
    pre_vars: tuple[float, ...] | None = _field(_numbers, _positive, "finite and > 0", None)
    post_vars: tuple[float, ...] | None = _field(_numbers, _positive, "finite and > 0", None)
    grid_points: int = _field(int, lambda v: v >= 2, ">= 2", DEFAULT_GRID_POINTS)
    tolerance: float | None = _field(float, _positive, "finite and > 0", None)
    max_cycles: int = _field(int, lambda v: v >= 1, ">= 1", DEFAULT_MAX_CYCLES)
    paths: int = _field(int, lambda v: v >= 1, ">= 1", 10_000)
    horizon: int | None = _field(int, lambda v: v >= 1, ">= 1", None)
    seed: int = _field(int, lambda v: v >= 0, ">= 0", 0)

    def __post_init__(self):
        for name in ("pre_vars", "post_vars"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, (1.0,) * self.period)
        scenario, _ = self.scenario(), self.cost_spec()
        if self.horizon is None:
            object.__setattr__(self, "horizon", default_horizon(scenario))

    def scenario(self) -> IpidScenario:
        pre = tuple(Gaussian(m, v) for m, v in zip(self.pre_means, self.pre_vars))
        post = tuple(Gaussian(m, v) for m, v in zip(self.post_means, self.post_vars))
        return IpidScenario(pre=pre, post=post, rho=self.rho)

    def cost_spec(self) -> DetectionCostSpec:
        return DetectionCostSpec(false_alarm=self.false_alarm_penalties,
                                 delay=self.delay_penalties)


# config key -> (parser, range test, the range it stands for)
_FIELDS = {f.name: f.metadata["spec"] for f in fields(ExperimentConfig)}


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse a flat ``key = value`` config into the ``ExperimentConfig``
    fields it declares.

    List entries are separated by commas, and an empty one is an error;
    '#' starts a comment.  Every violation, an out-of-range value included,
    is reported with the source name and line number of the offending
    field; a fault of the whole file (a missing field, a check of the model
    types) with the source name only.
    """
    values: dict[str, object] = {}
    lines_of: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(source, line_no, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ConfigError(source, line_no, f"duplicate field {key!r} (first at line {lines_of[key]})")
        if key not in _FIELDS:
            raise ConfigError(source, line_no, f"unknown field {key!r}")
        parse, in_range, what = _FIELDS[key]
        try:
            values[key] = parse(value)
        except ValueError:
            kind = "list" if parse is _numbers else "value"
            raise ConfigError(source, line_no, f"field {key!r}: bad {kind} {value!r}") from None
        if not all(map(in_range, values[key] if parse is _numbers else (values[key],))):
            raise ConfigError(source, line_no, f"field {key!r} must be {what}, got {value!r}")
        lines_of[key] = line_no

    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(source, None, f"missing required field {f.name!r}")
    period = int(values["period"])  # type: ignore[arg-type]
    for key, seq in values.items():
        if _FIELDS[key][0] is _numbers and len(seq) != period:  # type: ignore[arg-type]
            raise ConfigError(source, lines_of[key],
                              f"field {key!r} has {len(seq)} entries, period is {period}")  # type: ignore[arg-type]
    try:
        cfg = ExperimentConfig(**values)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ConfigError(source, None, str(exc)) from exc
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(path.read_text(), source=str(path))


def bundled_config(name: str) -> ExperimentConfig:
    text = (resources.files(__package__) / "configs" / f"{name}.cfg").read_text()
    return parse_config(text, source=f"bundled:{name}")


# ---------------------------------------------------------------------------
# bundled experiment registry: config name, row label, target costs to diff
# against (single-threshold rule, threshold policy from the solver)

@dataclass(frozen=True)
class ReproRow:
    label: str
    config: str
    target_single: float
    target_optimal: float


REPRODUCE_TABLES: dict[str, tuple[ReproRow, ...]] = {
    "table1": (
        ReproRow("theta=0.5", "iid_theta_0.5", 11.1, 5.0),
        ReproRow("theta=1.0", "iid_theta_1.0", 12.0, 5.0),
        ReproRow("theta=2.0", "iid_theta_2.0", 9.4, 5.0),
    ),
    "table2": (
        ReproRow("means=(2.0,0.0)", "means_2.0_0.0", 7.2, 5.0),
        ReproRow("means=(2.0,0.5)", "means_2.0_0.5", 8.8, 5.0),
        ReproRow("means=(3.0,0.5)", "means_3.0_0.5", 6.6, 5.0),
        ReproRow("means=(3.0,1.0)", "means_3.0_1.0", 7.2, 5.0),
        ReproRow("means=(1.0,0.1)", "means_1.0_0.1", 9.5, 5.0),
        ReproRow("means=(0.5,0.0)", "means_0.5_0.0", 8.1, 5.0),
    ),
    "table3": (
        ReproRow("penalties=(20,5,10,1)", "alternating_t2", 10.2, 5.0),
        ReproRow("penalties=(20,5,1,1)", "penalties_20_5_1_1", 4.6, 3.7),
        ReproRow("penalties=(5,5,1,1)", "penalties_5_5_1_1", 3.2, 3.2),
    ),
}

REPRODUCE_FIGURES = {"fig1": "alternating_t2", "fig2": "decaying_t4", "fig3": "tradeoff_t2"}

# target solver value at p = 0 of the figures that solve
FIGURE_TARGETS = {"fig1": 5.0, "fig2": 5.0}


# ---------------------------------------------------------------------------
# output writer

def _emit(out_dir: Path, tables: dict, summary=()) -> list[Path]:
    """Write each ``name: (header, rows)`` of ``tables`` to
    ``out_dir/<name>.csv``, then print the ``summary`` lines and one
    ``wrote <path>`` line per file; return the paths.  A NumPy scalar in a
    row is written as the Python number it holds, so ``csv.writer`` writes
    a float's ``repr`` and ``str`` of anything else."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{name}.csv" for name in tables]
    for path, (header, rows) in zip(paths, tables.values()):
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([v.item() if isinstance(v, np.generic) else v for v in row]
                             for row in rows)
    for line in [*summary, *(f"wrote {path}" for path in paths)]:
        print(line)
    return paths


def _write_solution(solution: DetectionSolution, out_dir: Path, stem: str) -> list[Path]:
    T = solution.period
    return _emit(out_dir, {
        f"{stem}_curves": (["p", *(f"stage_{s}_cost" for s in range(T)),
                            *(f"stop_cost_{s}" for s in range(T))],
                           np.column_stack((solution.grid.points, *solution.stage_curves,
                                            *solution.stop_curves)).tolist()),
        f"{stem}_history": (["cycle", "sup_distance", "l2_distance"],
                            [[n, sup, l2] for n, (sup, l2) in
                             enumerate(zip(solution.sup_history, solution.l2_history), start=1)]),
        f"{stem}_thresholds": (["stage", "threshold"], list(enumerate(solution.thresholds))),
    }, [f"value at p=0: {solution.value_at_zero:.4f}",
        f"stage thresholds: ({', '.join(f'{a:.4f}' for a in solution.thresholds)})",
        f"cycles: {solution.cycles} (converged: {solution.converged})"])


def _write_sweep(sweep: SweepResult, out_dir: Path, stem: str) -> None:
    best = sweep.best
    _emit(out_dir, {
        f"{stem}_sweep": (["threshold", "cost", "std_error", "censored_fraction"],
                          [[p.threshold, p.cost, p.std_error, p.censored_fraction]
                           for p in sweep.points]),
    }, [f"best single threshold: cost {best.cost:.4f} +- {best.std_error:.4f} "
        f"at A = {best.threshold}"])


# library calls on a config's own settings, shared by the subcommands

def _optimal_policy(cfg: ExperimentConfig) -> tuple[DetectionSolution, int]:
    """The solution and the exit code of the solve: ``EXIT_NO_CONVERGENCE``
    if it did not converge."""
    solution = solve_detection(cfg.scenario(), cfg.cost_spec(), grid_resolution=cfg.grid_points,
                               tol=cfg.tolerance, max_cycles=cfg.max_cycles)
    exit_code = EXIT_OK if solution.converged else EXIT_NO_CONVERGENCE
    return solution, exit_code


def _bayes_cost(cfg: ExperimentConfig, thresholds) -> SimulationReport:
    return estimate_bayes_cost(
        cfg.scenario(), cfg.cost_spec(), thresholds, cfg.paths, horizon=cfg.horizon, seed=cfg.seed
    )


def _sweep(cfg: ExperimentConfig, grid=DEFAULT_THRESHOLD_GRID) -> SweepResult:
    return sweep_single_threshold(
        cfg.scenario(), cfg.cost_spec(), grid, cfg.paths, horizon=cfg.horizon, seed=cfg.seed
    )


# ---------------------------------------------------------------------------
# subcommands

# override flag -> the config field it replaces
_OVERRIDES = {"seed": "seed", "paths": "paths", "grid": "grid_points", "tol": "tolerance"}
# the override flags that only a solve reads, and those only a simulation reads
_SOLVER_FLAGS, _SIMULATION_FLAGS = ("grid", "tol"), ("seed", "paths")


def _inputs(args, bundled: str | None = None) -> tuple[ExperimentConfig, Path, str]:
    """A subcommand's config with the override flags applied, its output
    directory and the stem of its output files: the ``--config`` file and
    its name, or (``reproduce``) the bundled config ``bundled`` and the
    batch id."""
    if bundled is None:
        cfg, stem = load_config(args.config), Path(args.config).stem
    else:
        cfg, stem = bundled_config(bundled), args.id
    kw = {key: getattr(args, flag) for flag, key in _OVERRIDES.items()
          if getattr(args, flag, None) is not None}
    return replace(cfg, **kw), Path(args.out_dir), stem


def _reject_solver_flags(args, mode: str) -> None:
    """The usage error for a solver flag given to ``mode``, which solves
    nothing; ``main`` turns it into exit 2."""
    for flag in _SOLVER_FLAGS:
        if getattr(args, flag) is not None:
            raise argparse.ArgumentError(None, f"argument --{flag}: {mode} runs no solver")


def cmd_solve(args) -> int:
    cfg, out_dir, stem = _inputs(args)
    solution, exit_code = _optimal_policy(cfg)
    _write_solution(solution, out_dir, stem)
    return exit_code


def cmd_simulate(args) -> int:
    cfg, out_dir, stem = _inputs(args)
    spec, thresholds = args.policy
    exit_code = EXIT_OK
    if thresholds is None:
        solution, exit_code = _optimal_policy(cfg)
        thresholds = solution.thresholds
    else:
        _reject_solver_flags(args, f"--policy {spec}")
        if spec.startswith("single:"):
            thresholds *= cfg.period
        elif len(thresholds) != cfg.period:
            raise argparse.ArgumentError(None, f"argument --policy: policy has {len(thresholds)} "
                                               f"thresholds but the period is {cfg.period}")
    report = _bayes_cost(cfg, thresholds)
    _emit(out_dir, {
        f"{stem}_simulate": (["kind", "estimate", "std_error", "n_paths", "seed", "horizon",
                              "censored_fraction"],
                             [[report.kind, report.estimate, report.std_error, report.n_paths,
                               report.seed, report.horizon, report.censored_fraction]]),
    }, [f"policy: {spec}",
        f"bayes cost: {report.estimate:.4f} +- {report.std_error:.4f} "
        f"({report.n_paths} paths, censored {report.censored_fraction:.4f})"])
    return exit_code


def cmd_sweep(args) -> int:
    cfg, out_dir, stem = _inputs(args)
    _write_sweep(_sweep(cfg, args.thresholds or DEFAULT_THRESHOLD_GRID), out_dir, stem)
    return EXIT_OK


def _trace_rows(cfg: ExperimentConfig, horizon: int) -> list[list]:
    path = sample_path(cfg.scenario(), horizon, cfg.seed)
    return [[n, p, int(path.change_active(n))]
            for n, p in enumerate(log_odds_to_belief(path.log_odds).tolist(), start=1)]


def cmd_tradeoff(args) -> int:
    return _tradeoff(*_inputs(args), args.alpha or DEFAULT_TRADEOFF_ALPHAS)


def _tradeoff(cfg: ExperimentConfig, out_dir: Path, stem: str, alphas) -> int:
    scenario = cfg.scenario()
    info = kl_information(scenario)
    tail = prior_tail_exponent(scenario)
    sweep = estimate_add_pfa(
        scenario, [1.0 - alpha for alpha in alphas], cfg.paths,
        horizon=cfg.horizon, seed=cfg.seed,
    )
    rows = [[alpha, abs(math.log(alpha)), res.add.estimate, res.conditional_add.estimate,
             res.pfa.estimate, res.pfa_posterior, analytic_delay(alpha, info, tail)]
            for alpha, res in zip(alphas, sweep.points)]
    _emit(out_dir, {
        f"{stem}_tradeoff": (["alpha", "log_alpha_magnitude", "add_sim", "conditional_add_sim",
                              "pfa_sim", "pfa_posterior", "add_analytic"], rows),
        f"{stem}_trace": (["n", "p", "change_active"], _trace_rows(cfg, min(cfg.horizon, 600))),
    }, [f"information number: {info:.6f}, tail exponent: {tail:.6f}",
        *(f"alpha={row[0]:g}: ADD {row[2]:.2f}, analytic {row[6]:.2f}, "
          f"PFA {row[4]:.5f} (posterior {row[5]:.6f})" for row in rows)])
    return EXIT_OK


def _reproduce_table(args) -> int:
    exit_code, rows = EXIT_OK, []
    for row in REPRODUCE_TABLES[args.id]:
        cfg = _inputs(args, row.config)[0]
        solution, code = _optimal_policy(cfg)
        exit_code = max(exit_code, code)
        optimal, best = _bayes_cost(cfg, solution.thresholds), _sweep(cfg).best
        rows.append([
            row.label, best.cost, best.std_error, best.threshold,
            optimal.estimate, optimal.std_error, solution.value_at_zero,
            row.target_single, row.target_optimal,
        ])
        print(f"{row.label}: single {best.cost:.2f} (target {row.target_single}), "
              f"optimal {optimal.estimate:.2f} (target {row.target_optimal})")
    _emit(Path(args.out_dir), {
        args.id: (["row", "single_threshold_cost", "single_threshold_se",
                   "single_best_threshold", "optimal_policy_cost", "optimal_policy_se",
                   "solver_value_at_zero", "target_single_threshold_cost",
                   "target_optimal_cost"], rows),
    })
    return exit_code


def cmd_reproduce(args) -> int:
    """A table runs its rows; a figure writes and prints what ``solve`` and
    ``sweep`` (fig1, fig2) or ``tradeoff`` (fig3) write and print on its
    bundled config, with the figure id as the stem."""
    if args.id in REPRODUCE_TABLES:
        return _reproduce_table(args)
    cfg, out_dir, stem = _inputs(args, REPRODUCE_FIGURES[args.id])
    if args.id == "fig3":
        _reject_solver_flags(args, "reproduce fig3")
        return _tradeoff(cfg, out_dir, stem, DEFAULT_TRADEOFF_ALPHAS)
    print(f"target value at p=0: {FIGURE_TARGETS[args.id]}")
    solution, exit_code = _optimal_policy(cfg)
    _write_solution(solution, out_dir, stem)
    _write_sweep(_sweep(cfg), out_dir, stem)
    return exit_code


def cmd_mdp_solve(args) -> int:
    mdp = load_instance(args.instance)
    values = value_iterate(mdp, tol=args.tol, max_cycles=args.max_cycles)
    actions = values.actions
    residual = fixed_point_residual(values.values[0], mdp)
    stem = Path(args.instance).stem
    cells = [(l, s) for l in range(mdp.period) for s in range(mdp.num_states)]
    _emit(Path(args.out_dir), {
        f"{stem}_{name}": (["stage", "state", column], [[l, s, table[l, s]] for l, s in cells])
        for name, column, table in (("values", "value", values.values),
                                    ("policy", "action", actions))
    }, [f"cycles: {values.cycles} (converged: {values.converged})",
        f"fixed-point residual: {residual:.3e}",
        *(f"stage {l}: values {np.round(values.values[l], 6).tolist()} "
          f"actions {actions[l].tolist()}" for l in range(mdp.period))])
    return EXIT_OK if values.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------

def _flag_type(name: str, parse, in_range, what: str):
    """argparse ``type=`` for a flag read by ``parse`` whose every number
    passes ``in_range`` (a config field's spec, for a flag that overrides
    it), so a bad value exits 2 naming the flag."""

    def convert(text: str):
        value = parse(text)  # a ValueError reads "invalid <name> value"
        if not all(map(in_range, value if parse is _numbers else (value,))):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    convert.__name__ = name
    return convert


def _policy_spec(text: str) -> tuple[str, tuple[float, ...] | None]:
    """argparse ``type=`` for ``--policy``: the spec as given, with the
    stage thresholds of 'periodic:a0,a1,...', the one threshold of
    'single:A' (``cmd_simulate`` repeats it to the period) or None for
    'optimal', so a bad spec exits 2 naming the flag."""
    if text == "optimal":
        return text, None
    kind, _, rest = text.partition(":")
    try:
        if kind == "single":
            threshold = float(rest)
            if not 0.0 <= threshold < 1.0:
                raise ValueError(f"threshold must lie in [0, 1), got {threshold}")
            return text, (threshold,)
        if kind == "periodic":
            thresholds = _numbers(rest)
            if not all(0.0 <= a <= 1.0 for a in thresholds):
                raise ValueError("stage thresholds must lie in [0, 1]")
            return text, thresholds
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad policy spec {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(
        f"bad policy spec {text!r}; expected 'optimal', 'single:A', or 'periodic:a0,a1,...'"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodet",
        description="Periodic-MDP optimal stopping and quickest change detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(name, func, summary, overrides=_OVERRIDES, config_required=True):
        """A subcommand that runs one config, with the override flags it
        reads: all four where it solves and simulates (``simulate --policy
        optimal``, the ``reproduce`` tables); its modes that solve nothing
        reject the solver's two (``_reject_solver_flags``)."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if config_required:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out-dir", default="periodet-results", help="output directory")
        for flag in overrides:
            key = _OVERRIDES[flag]
            p.add_argument(f"--{flag}", type=_flag_type(key, *_FIELDS[key]), default=None,
                           help=f"override config field {key!r}")
        return p

    experiment("solve", cmd_solve, "solve a detection scenario by policy iteration",
               _SOLVER_FLAGS)
    p = experiment("simulate", cmd_simulate, "Monte-Carlo Bayes cost of a policy")
    p.add_argument("--policy", type=_policy_spec, default="optimal",
                   help="'optimal', 'single:A', or 'periodic:a0,a1,...'")
    p = experiment("sweep", cmd_sweep, "single-threshold cost over a threshold grid",
                   _SIMULATION_FLAGS)
    p.add_argument("--thresholds", type=_flag_type("thresholds", _numbers,
                                                   lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                   default=None, help="comma-separated thresholds, each in [0, 1)")
    p = experiment("tradeoff", cmd_tradeoff, "delay vs false-alarm tradeoff curve",
                   _SIMULATION_FLAGS)
    # an alpha below half the spacing of floats under 1 would make 1 - alpha round to 1
    p.add_argument("--alpha", type=_flag_type("alpha", _numbers,
                                              lambda v: 0.0 < v < 1.0 and 1.0 - v < 1.0,
                                              "in (0, 1) with 1 - alpha < 1"),
                   default=None, help="comma-separated false-alarm levels, each in (0, 1)")
    p = experiment("reproduce", cmd_reproduce, "run a bundled experiment batch",
                   config_required=False)
    p.add_argument("id", choices=sorted(REPRODUCE_TABLES) + sorted(REPRODUCE_FIGURES))

    p = sub.add_parser("mdp-solve", help="solve a periodic MDP instance file")
    p.add_argument("instance", help="instance file (see periodic_mdp.load_instance)")
    p.add_argument("--out-dir", default="periodet-results")
    p.add_argument("--tol", type=_flag_type("tolerance", *_FIELDS["tolerance"]), default=None)
    p.add_argument("--max-cycles", type=_flag_type("max_cycles", *_FIELDS["max_cycles"]),
                   default=DEFAULT_MAX_CYCLES)
    p.set_defaults(func=cmd_mdp_solve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:  # a flag value that only the config can refute
        parser.error(str(exc))
    except (ConfigError, InstanceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

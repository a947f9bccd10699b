"""The benchmark's three workloads: inputs made from the seed, the list of
timed operations, and the checks run on each operation's outputs.

An operation is one ``periodet.cli.main`` invocation or one public library
call.  Only the call is timed; its checks run afterwards.  A check that
fails is recorded with its numbers and never stops the run.  Checks come
in two kinds:

* contract checks, taken from the acceptance suite's green criteria
  (table targets within max(allowance, 3 SE), curve invariants, oracle
  sandwich, simulation agreement, monotone fig3 delays);
* the accuracy check ``value_err``: the solved stage-0 value against a
  reference must lie within the solver's own tolerance.  The solvers stop
  on a small last step, not on a small error, so this check fails on the
  slowly converging configs and on every random MDP.  It is marked
  ``known_defect`` and counts in ``ops_failed_frac``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from benchenv import BENCH_DIR, SOURCE_DIR
from periodet import PeriodicMdp, cli, finite_horizon_oracle, simulate_policy
from periodet.periodic_mdp import dump_instance

CONFIG_DIR = SOURCE_DIR / "periodet" / "configs"
REFERENCES_FILE = BENCH_DIR / "references.json"

# study_mc: one table3 row (solve, optimal-policy Bayes cost, 33-point
# sweep) plus fig1, fig2 and fig3, at the bundled grid and path counts.
STUDY_ROW = "penalties_20_5_1_1"
# acceptance criterion 3: best single-threshold cost and its allowance
FIGURE_SWEEP_TARGETS = {"fig1": (10.2, 0.5), "fig2": (11.3, 0.6)}
# acceptance criteria 4-6: allowance per reproduction table
TABLE_ALLOWANCE = {"table1": 0.5, "table2": 0.5, "table3": 0.4}
GRID_ALLOWANCE = 0.2  # solver value vs simulated cost (criterion 8)

# dp_fine_grid: iteration-bound (penalties_*, ~400 cycles) and
# set-up-bound (decaying_t4, alternating_t2, tradeoff_t2) configs.
DP_GRID = 200
DP_CONFIGS = ("decaying_t4", "alternating_t2", "tradeoff_t2",
              "penalties_20_5_1_1", "penalties_5_5_1_1")

# mdp_engine: dense random periodic MDPs with kernels on both sides of a
# 4 MB L2 (S=200: 3.8 MB, S=400: 15 MB of float64).
MDP_STATES = (200, 400)
MDP_ACTIONS = 4
MDP_PERIOD = 3
MDP_DISCOUNT = 0.99
MDP_TOL = 1e-8
ORACLE_HORIZON = 600
SIM_PATHS = 1000
SIM_HORIZON = 1200

# every (config, grid) whose stage-0 value is checked against a reference
REFERENCE_SOLVES = (
    [(STUDY_ROW, 100), ("alternating_t2", 100), ("decaying_t4", 100)]
    + [(name, DP_GRID) for name in DP_CONFIGS]
)


class OperationFailed(RuntimeError):
    """The CLI exited with a non-zero code."""


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    known_defect: bool = False
    value: float | None = None


@dataclass(frozen=True)
class Op:
    """``run`` is the timed call; ``check`` inspects its outputs after the
    timer stops.  Both get the op's output directory and the pass state,
    which carries solved values from one op to the next within a pass."""

    name: str
    run: Callable[[Path, dict], object]
    check: Callable[[object, Path, dict], list[Check]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # spans the per-layer metrics of this workload are read from; the
    # traced run fails if one never fires ("layer.*" matches any span of
    # the layer), so a metric cannot silently read 0
    expected_spans: tuple[str, ...]
    # (config, grid) of the detection_dp set-up/per-cycle probe, if any
    probe: tuple[str, int] | None


# ---------------------------------------------------------------------------
# shared helpers

def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"periodet {' '.join(argv)} exited with code {code}")
    return out.getvalue()


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _within(name: str, got: float, target: float, tol: float, what: str) -> Check:
    ok = math.isfinite(got) and abs(got - target) <= tol
    return Check(name, ok, f"{what} {got:.4f}, target {target} +- {tol:.3f}")


def _read_solution(out: Path, stem: str):
    curves = _rows(out / f"{stem}_curves.csv")
    period = sum(1 for key in curves[0] if key.startswith("stop_cost_"))
    entry = np.array([[float(r[f"stage_{s}_cost"]) for r in curves] for s in range(period)])
    stop = np.array([[float(r[f"stop_cost_{s}"]) for r in curves] for s in range(period)])
    thresholds = np.array([float(r["threshold"]) for r in _rows(out / f"{stem}_thresholds.csv")])
    return entry, stop, thresholds


def _value_check(what: str, got: float | np.ndarray, ref: float | np.ndarray, tol: float) -> Check:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(ref))))
    return Check("value_err", err <= tol,
                 f"{what}: |V0 - reference| = {err:.3e} above solver tol {tol:g}",
                 known_defect=True, value=err)


def _solution_checks(key: str, entry, stop, thresholds, tol: float, ref: float) -> list[Check]:
    """Accuracy against the tight reference plus the structural invariants
    of acceptance criterion 8 (capped by the stopping cost, nonnegative,
    concave, stopping region an upper interval)."""
    checks = [_value_check(key, entry[0, 0], ref, tol)]
    bad = []
    for s in range(entry.shape[0]):
        if np.any(entry[s] < -1e-12) or np.any(entry[s] > stop[s] + 1e-12):
            bad.append(f"stage {s} not within [0, stop cost]")
        if np.any(np.diff(entry[s], 2) > 1e-6):
            bad.append(f"stage {s} not concave")
        stop_preferred = entry[s] >= stop[s] - 1e-12
        if not stop_preferred[np.argmax(stop_preferred):].all():
            bad.append(f"stage {s} stopping region not an upper interval")
    if np.any((thresholds < 0.0) | (thresholds > 1.0)):
        bad.append(f"thresholds {thresholds.tolist()} outside [0, 1]")
    checks.append(Check("curve_invariants", not bad, f"{key}: {'; '.join(bad) or 'ok'}"))
    checks.extend(_criterion_checks(key, entry, thresholds))
    return checks


def _criterion_checks(key: str, entry, thresholds) -> list[Check]:
    """Acceptance criteria 1 and 2 on the two scenarios they name."""
    name, grid = key.rsplit("@", 1)
    step = 1.0 / (int(grid) - 1)
    if name == "alternating_t2":
        ok = (abs(thresholds[0] - 0.6) <= step + 1e-12 and thresholds[1] <= step + 1e-12)
        return [_within("criterion1_value", entry[0, 0], 5.0, 0.2, f"{key} V0"),
                Check("criterion1_thresholds", bool(ok),
                      f"{key} thresholds {np.round(thresholds, 4).tolist()}, "
                      f"target (0.6, 0.0) at step {step:.4f}")]
    if name == "decaying_t4":
        return [_within("criterion2_value", entry[0, 0], 5.0, 0.2, f"{key} V0"),
                Check("criterion2_thresholds", thresholds.shape == (4,),
                      f"{key} has {thresholds.size} thresholds, target 4")]
    return []


def _sweep_checks(path: Path, target: float, allowance: float, what: str) -> list[Check]:
    rows = _rows(path)
    grid = [float(r["threshold"]) for r in rows]
    best = min(rows, key=lambda r: float(r["cost"]))
    cost, se = float(best["cost"]), float(best["std_error"])
    return [
        Check("sweep_grid", grid == list(cli.DEFAULT_THRESHOLD_GRID),
              f"{what}: {len(grid)} sweep points, expected {len(cli.DEFAULT_THRESHOLD_GRID)}"),
        _within("sweep_best", cost, target, max(allowance, 3 * se),
                f"{what} best single threshold (A={best['threshold']})"),
    ]


def _table_row(config: str) -> tuple[cli.ReproRow, float]:
    for table, rows in cli.REPRODUCE_TABLES.items():
        for row in rows:
            if row.config == config:
                return row, TABLE_ALLOWANCE[table]
    raise KeyError(config)


def _references() -> dict:
    return json.loads(REFERENCES_FILE.read_text())["values"]


# ---------------------------------------------------------------------------
# study_mc

def _study_mc(seed: int) -> Workload:
    refs = _references()
    cfg_path = str(CONFIG_DIR / f"{STUDY_ROW}.cfg")
    cfg = cli.load_config(cfg_path)
    key = f"{STUDY_ROW}@{cfg.grid_points}"
    row, allowance = _table_row(STUDY_ROW)
    seed_args = ["--seed", str(seed)]

    def fig3_check(_, out: Path, state: dict) -> list[Check]:
        rows = _rows(out / "fig3_tradeoff.csv")
        adds = [float(r["add_sim"]) for r in rows]  # alpha decreasing down the file
        ok = (len(adds) == 3 and all(math.isfinite(a) for a in adds)
              and all(lo < hi for lo, hi in zip(adds, adds[1:])))
        trace = [float(r["p"]) for r in _rows(out / "fig3_trace.csv")]
        trace_ok = bool(trace) and all(0.0 <= p <= 1.0 for p in trace)
        return [Check("fig3_add_monotone", ok, f"fig3 ADD {adds} must be finite and increasing"),
                Check("fig3_trace", trace_ok, f"fig3 trace: {len(trace)} beliefs in [0, 1]")]

    def solve_check(_, out: Path, state: dict) -> list[Check]:
        entry, stop, thresholds = _read_solution(out, STUDY_ROW)
        state["value"], state["thresholds"] = entry[0, 0], thresholds
        return _solution_checks(key, entry, stop, thresholds, cfg.tolerance, refs[key])

    def simulate_run(out: Path, state: dict):
        policy = "periodic:" + ",".join(repr(float(a)) for a in state["thresholds"])
        return _cli(["simulate", "--config", cfg_path, "--policy", policy,
                     "--out-dir", str(out), *seed_args])

    def simulate_check(_, out: Path, state: dict) -> list[Check]:
        report = _rows(out / f"{STUDY_ROW}_simulate.csv")[0]
        est, se = float(report["estimate"]), float(report["std_error"])
        return [
            _within("table_optimal", est, row.target_optimal, max(allowance, 3 * se),
                    f"{row.label} optimal-policy cost"),
            _within("solver_vs_simulation", est, state["value"], GRID_ALLOWANCE + 3 * se,
                    f"{row.label} simulated cost against solver value"),
        ]

    def figure(fig: str, config: str):
        fig_cfg = cli.bundled_config(config)
        fig_key = f"{config}@{fig_cfg.grid_points}"
        target, fig_allowance = FIGURE_SWEEP_TARGETS[fig]

        def check(_, out: Path, state: dict) -> list[Check]:
            entry, stop, thresholds = _read_solution(out, fig)
            return (_solution_checks(fig_key, entry, stop, thresholds, fig_cfg.tolerance,
                                     refs[fig_key])
                    + _sweep_checks(out / f"{fig}_sweep.csv", target, fig_allowance, fig))

        return Op(f"reproduce {fig}",
                  lambda out, state: _cli(["reproduce", fig, "--out-dir", str(out), *seed_args]),
                  check)

    ops = (
        Op("reproduce fig3",
           lambda out, state: _cli(["reproduce", "fig3", "--out-dir", str(out), *seed_args]),
           fig3_check),
        Op(f"solve {STUDY_ROW}",
           lambda out, state: _cli(["solve", "--config", cfg_path, "--out-dir", str(out)]),
           solve_check),
        Op(f"simulate {STUDY_ROW}", simulate_run, simulate_check),
        Op(f"sweep {STUDY_ROW}",
           lambda out, state: _cli(["sweep", "--config", cfg_path, "--out-dir", str(out),
                                    *seed_args]),
           lambda _, out, state: _sweep_checks(out / f"{STUDY_ROW}_sweep.csv", row.target_single,
                                               allowance, row.label)),
        figure("fig1", cli.REPRODUCE_FIGURES["fig1"]),
        figure("fig2", cli.REPRODUCE_FIGURES["fig2"]),
    )
    return Workload(
        "study_mc", ops,
        expected_spans=("cli.main", "cli.parse_config", "detection_dp.solve_detection",
                        "monte_carlo.estimate_bayes_cost", "monte_carlo.sweep_single_threshold",
                        "monte_carlo.estimate_add_pfa", "belief.*",
                        "ipid_model.Gaussian.logpdf", "ipid_model.Gaussian.sample"),
        probe=(STUDY_ROW, cfg.grid_points),
    )


# ---------------------------------------------------------------------------
# dp_fine_grid

def _dp_fine_grid(seed: int) -> Workload:
    """The solver is deterministic and the inputs are the bundled configs,
    so the seed changes nothing here."""
    refs = _references()

    def solve_op(name: str) -> Op:
        cfg_path = str(CONFIG_DIR / f"{name}.cfg")
        cfg = cli.load_config(cfg_path)
        key = f"{name}@{DP_GRID}"

        def check(_, out: Path, state: dict) -> list[Check]:
            entry, stop, thresholds = _read_solution(out, name)
            return _solution_checks(key, entry, stop, thresholds, cfg.tolerance, refs[key])

        return Op(f"solve {name} --grid {DP_GRID}",
                  lambda out, state: _cli(["solve", "--config", cfg_path, "--grid", str(DP_GRID),
                                           "--out-dir", str(out)]),
                  check)

    return Workload(
        "dp_fine_grid", tuple(solve_op(name) for name in DP_CONFIGS),
        expected_spans=("cli.main", "cli.parse_config", "detection_dp.solve_detection",
                        "ipid_model.Gaussian.logpdf"),
        probe=("penalties_5_5_1_1", DP_GRID),
    )


# ---------------------------------------------------------------------------
# mdp_engine

def random_mdp(rng: np.random.Generator, states: int) -> PeriodicMdp:
    """Dense random periodic MDP: uniform rows normalized to sum to one,
    uniform [0, 1) costs."""
    shape = (MDP_PERIOD, states, MDP_ACTIONS, states)
    P = rng.random(shape)
    P /= P.sum(axis=-1, keepdims=True)
    c = rng.random(shape[:3])
    return PeriodicMdp(transitions=P, costs=c, discount=MDP_DISCOUNT)


def policy_value(mdp: PeriodicMdp, actions: np.ndarray) -> np.ndarray:
    """Exact stage-0 value of a periodic policy: one linear solve of the
    T-stage cycle system (I - M) V0 = b, where b is the discounted cost of
    one cycle and M the discounted one-cycle kernel under ``actions``."""
    S = mdp.num_states
    idx = np.arange(S)
    M = np.eye(S)
    b = np.zeros(S)
    for l in range(mdp.period):
        b += M @ mdp.costs[l][idx, actions[l]]
        M = mdp.discount * (M @ mdp.transitions[l][idx, actions[l]])
    return np.linalg.solve(np.eye(S) - M, b)


def bellman_cycle(mdp: PeriodicMdp, v: np.ndarray) -> np.ndarray:
    """Stage operators T-1, ..., 0 applied to v (the benchmark's own copy,
    so the residual check does not reuse the code it checks)."""
    for l in range(mdp.period - 1, -1, -1):
        v = (mdp.costs[l] + mdp.discount * np.einsum("sat,t->sa", mdp.transitions[l], v)).min(axis=1)
    return v


def _mdp_engine(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for S in MDP_STATES:
        mdp = random_mdp(rng, S)
        path = workdir / f"random_s{S}.mdp"
        dump_instance(mdp, path)
        ops.extend(_mdp_ops(mdp, path, seed))
    return Workload(
        "mdp_engine", tuple(ops),
        expected_spans=("cli.main", "periodic_mdp.load_instance", "periodic_mdp.value_iterate",
                        "periodic_mdp.fixed_point_residual", "periodic_mdp.finite_horizon_oracle",
                        "periodic_mdp.simulate_policy"),
        probe=None,
    )


def _mdp_ops(mdp: PeriodicMdp, path: Path, seed: int) -> list[Op]:
    S = mdp.num_states
    tag = f"S={S}"
    cost_tail = mdp.costs.max() / (1.0 - mdp.discount)

    def solve_check(_, out: Path, state: dict) -> list[Check]:
        values = np.zeros((mdp.period, S))
        for r in _rows(out / f"{path.stem}_values.csv"):
            values[int(r["stage"]), int(r["state"])] = float(r["value"])
        actions = np.zeros((mdp.period, S), dtype=int)
        for r in _rows(out / f"{path.stem}_policy.csv"):
            actions[int(r["stage"]), int(r["state"])] = int(r["action"])
        exact = policy_value(mdp, actions)
        state[S] = (values[0], actions, exact)
        residual = float(np.max(np.abs(bellman_cycle(mdp, values[0]) - values[0])))
        return [Check("residual", residual <= MDP_TOL,
                      f"{tag}: fixed-point residual {residual:.3e}, tol {MDP_TOL:g}"),
                _value_check(f"{tag} vs exact policy evaluation", values[0], exact, MDP_TOL)]

    def oracle_check(lower: np.ndarray, out: Path, state: dict) -> list[Check]:
        v0 = state[S][0]
        tail = mdp.discount ** ORACLE_HORIZON * cost_tail
        above = float(np.max(lower - v0))
        gap = float(np.max(v0 - lower))
        ok = above <= 1e-9 and gap <= tail + 1e-9
        return [Check("oracle_sandwich", ok,
                      f"{tag}: oracle(H={ORACLE_HORIZON}) - V max {above:.3e} (<= 1e-9), "
                      f"V - oracle max {gap:.3e} (<= tail {tail:.3e})")]

    def simulate_run(out: Path, state: dict):
        return simulate_policy(mdp, state[S][1], SIM_PATHS, SIM_HORIZON, seed=seed)

    def simulate_check(result, out: Path, state: dict) -> list[Check]:
        mean, se = result
        exact0 = state[S][2][0]
        bias = mdp.discount ** SIM_HORIZON * cost_tail
        return [_within("simulation_agrees", mean, exact0, 4 * se + bias,
                        f"{tag} simulated cost from state 0 against exact policy value")]

    return [
        Op(f"mdp-solve {tag}",
           lambda out, state: _cli(["mdp-solve", str(path), "--tol", repr(MDP_TOL),
                                    "--out-dir", str(out)]),
           solve_check),
        Op(f"finite_horizon_oracle {tag}",
           lambda out, state: finite_horizon_oracle(mdp, ORACLE_HORIZON), oracle_check),
        Op(f"simulate_policy {tag}", simulate_run, simulate_check),
    ]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Set up a workload: parse its configs, load references, and for
    mdp_engine generate and write the instance files."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "study_mc":
        return _study_mc(seed)
    if name == "dp_fine_grid":
        return _dp_fine_grid(seed)
    if name == "mdp_engine":
        return _mdp_engine(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

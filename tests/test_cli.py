import csv
import importlib.util
import math
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import periodet
from periodet import OddsState, default_horizon, log_odds_to_belief, solve_detection, update_odds
from periodet.cli import (
    ConfigError,
    DEFAULT_THRESHOLD_GRID,
    ExperimentConfig,
    REPRODUCE_FIGURES,
    REPRODUCE_TABLES,
    _trace_rows,
    _tradeoff,
    _write_solution,
    bundled_config,
    main,
    parse_config,
)

MINIMAL = """\
period = 2
rho = 0.01
pre_means = 0.0, 0.0
post_means = 2.0, 1.0
false_alarm_penalties = 20, 5
delay_penalties = 10, 1
"""

ZERO_COST_INSTANCE = (
    "states 2\nactions 1\nperiod 1\ndiscount 0.9\n"
    "kernel 0 0 0 0.5 0.5\nkernel 0 1 0 0.5 0.5\n"
    "cost 0 0 0 0.0\ncost 0 1 0 0.0\n"
)


# ── config parsing ─────────────────────────────────────────────────────


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.period == 2
    assert cfg.grid_points == 100
    assert cfg.paths == 10_000
    assert cfg.horizon == 5000
    assert cfg.pre_vars == (1.0, 1.0)
    scenario = cfg.scenario()
    assert scenario.period == 2
    assert cfg.cost_spec().false_alarm == (20.0, 5.0)


def test_config_built_directly_has_unit_variances_and_solves(tmp_path):
    cfg = ExperimentConfig(period=2, rho=0.01, pre_means=(0.0, 0.0), post_means=(2.0, 1.0),
                           false_alarm_penalties=(20.0, 5.0), delay_penalties=(10.0, 1.0),
                           paths=50)
    assert solve_detection(cfg.scenario(), cfg.cost_spec(), grid_resolution=50).converged
    assert cfg.pre_vars == cfg.post_vars == (1.0, 1.0)
    assert cfg.scenario() == parse_config(MINIMAL).scenario()
    assert cfg.horizon == default_horizon(cfg.scenario()) == parse_config(MINIMAL).horizon
    assert _tradeoff(cfg, tmp_path, "direct", (1e-2,)) == 0
    # the model types check a config built directly, horizon given or not
    with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\), got 2.0"):
        replace(cfg, rho=2.0, horizon=100)
    with pytest.raises(ValueError, match="false-alarm penalties must be finite and positive"):
        replace(cfg, false_alarm_penalties=(-1.0, 1.0))


def test_parse_config_reports_field_and_line():
    bad = MINIMAL.replace("false_alarm_penalties = 20, 5", "false_alarm_penalties = 20")
    with pytest.raises(ConfigError) as err:
        parse_config(bad, source="exp.cfg")
    msg = str(err.value)
    assert "false_alarm_penalties" in msg
    assert "exp.cfg:5" in msg


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        (("rho = 0.01", "rho = 2.0"), "rho"),
        (("period = 2", "period = 2\nunknown_knob = 3"), "unknown field"),
        (("period = 2", "period = 2\nperiod = 2"), "duplicate"),
        (("rho = 0.01", "rho = abc"), "bad value"),
        (("period = 2\n", ""), "missing required"),
        (("rho = 0.01", "rho 0.01"), "expected 'key = value'"),
    ],
)
def test_parse_config_rejects(mutation, fragment):
    old, new = mutation
    with pytest.raises(ConfigError, match=fragment):
        parse_config(MINIMAL.replace(old, new))


@pytest.mark.parametrize(
    "line",
    ["grid_points = 1", "tolerance = 0", "paths = 0", "horizon = 0", "pre_vars = 0, 1"],
)
def test_out_of_range_value_is_a_parse_error(tmp_path, capsys, line):
    # appended as line 7; rejected at parse time, before anything runs
    path = tmp_path / "range.cfg"
    path.write_text(MINIMAL + line + "\n")
    code = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{path}:7:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# entries are separated by commas, and an empty entry is an error
@pytest.mark.parametrize("value", ["20,,5", "20,5,", "20 5"])
def test_malformed_list_is_a_parse_error(tmp_path, capsys, value):
    text = MINIMAL.replace("false_alarm_penalties = 20, 5", f"false_alarm_penalties = {value}")
    with pytest.raises(ConfigError, match="^exp.cfg:5: field 'false_alarm_penalties': bad list"):
        parse_config(text, source="exp.cfg")
    path = tmp_path / "list.cfg"
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert f"{path}:5:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command",
    [
        "simulate --config {cfg} --policy single:0.5 --paths 0",
        "solve --config {cfg} --grid 1",
        "solve --config {cfg} --tol 0",
        "sweep --config {cfg} --seed -1",
        "reproduce fig1 --grid 1",
        "mdp-solve {mdp} --tol 0",
        "mdp-solve {mdp} --max-cycles 0",
        "sweep --config {cfg} --thresholds 0.5,abc",
        "sweep --config {cfg} --thresholds ''",
        "sweep --config {cfg} --thresholds 0.5,1.0",
        "simulate --config {cfg} --policy single:x",
        "simulate --config {cfg} --policy single:1.5",
        "simulate --config {cfg} --policy single:1.0",
        "simulate --config {cfg} --policy periodic:0.5,1.2",
        "simulate --config {cfg} --policy periodic:",
        "simulate --config {cfg} --policy bogus",
        # one threshold for a period-2 config: only the config refutes it
        "simulate --config {cfg} --policy periodic:0.5",
    ],
)
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, command):
    # override flags get the range test of the config field they replace;
    # list and policy flags get a converter of their own
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(MINIMAL)
    mdp = tmp_path / "zero.mdp"
    mdp.write_text(ZERO_COST_INSTANCE)
    argv = shlex.split(command.format(cfg=cfg, mdp=mdp))
    flag = argv[-2]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "spec,stderr",
    [
        ("single:1.0", "periodet simulate: error: argument --policy: bad policy spec "
                       "'single:1.0': threshold must lie in [0, 1), got 1.0"),
        ("single:1.5", "periodet simulate: error: argument --policy: bad policy spec "
                       "'single:1.5': threshold must lie in [0, 1), got 1.5"),
        ("periodic:0.5,1.2", "periodet simulate: error: argument --policy: bad policy spec "
                             "'periodic:0.5,1.2': stage thresholds must lie in [0, 1]"),
        ("periodic:0.5", "periodet: error: argument --policy: "
                         "policy has 1 thresholds but the period is 2"),
    ],
)
def test_policy_refusal_message(tmp_path, capsys, spec, stderr):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(MINIMAL)
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--config", str(cfg), "--policy", spec, "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == stderr


@pytest.mark.parametrize(
    "command",
    [
        "solve --seed 5",
        "solve --paths 7",
        "sweep --grid 7",
        "sweep --tol 1e-3",
        "tradeoff --grid 7",
        "tradeoff --tol 1e-3",
    ],
)
def test_override_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(MINIMAL)
    name, *flag = shlex.split(command)
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--config", str(cfg), *flag, "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command",
    [
        "simulate --policy single:0.5 --grid 7",
        "simulate --policy periodic:0.3,0.7 --tol 1e-3",
        "reproduce fig3 --grid 7",
        "reproduce fig3 --tol 1e-3",
    ],
)
def test_solver_flag_a_mode_does_not_read_is_a_usage_error(tmp_path, capsys, command):
    """``--grid`` and ``--tol`` belong to the subcommand, but these modes
    solve nothing, so the flag is refused before anything runs."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(MINIMAL)
    name, *rest = shlex.split(command)
    config = ["--config", str(cfg)] if name == "simulate" else []
    with pytest.raises(SystemExit) as exit_info:
        main([name, *config, *rest, "--paths", "20", "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"argument {rest[-2]}: " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


# 1e-17: 1 - alpha rounds to 1.0, which is no threshold a rule can take
@pytest.mark.parametrize("alpha", ["1.5", "1.0", "0", "x", "0.01,1.5", "nan", "1e-17"])
def test_out_of_range_alpha_is_a_usage_error(tmp_path, capsys, alpha):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(MINIMAL)
    with pytest.raises(SystemExit) as exit_info:
        main(["tradeoff", "--config", str(cfg), "--alpha", alpha, "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "argument --alpha:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_bundled_configs_all_parse():
    for table in REPRODUCE_TABLES.values():
        for row in table:
            cfg = bundled_config(row.config)
            assert cfg.period in (2, 4)
    for name in REPRODUCE_FIGURES.values():
        bundled_config(name)


def test_bundled_config_reads_the_configs_of_its_own_package(tmp_path):
    # a copy of the package under another name finds its configs with no
    # package named periodet importable
    shutil.copytree(Path(periodet.__file__).parent, tmp_path / "periodet_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = ("import sys; sys.modules['periodet'] = None; sys.path.insert(0, sys.argv[1]); "
            "from periodet_copy.cli import bundled_config; "
            "print(bundled_config('alternating_t2').period)")
    run = subprocess.run([sys.executable, "-I", "-c", code, str(tmp_path)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "2\n"


# ── subcommands ────────────────────────────────────────────────────────


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL + "paths = 400\nseed = 3\n")
    return path


def test_cmd_solve_writes_artifacts(tmp_path, config_file, capsys):
    out_dir = tmp_path / "out"
    assert main(["solve", "--config", str(config_file), "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "value at p=0: 4.9485" in captured
    assert "0.6061" in captured
    for suffix in ("curves", "history", "thresholds"):
        assert (out_dir / f"exp_{suffix}.csv").exists()
    header = (out_dir / "exp_curves.csv").read_text().splitlines()[0]
    assert header == "p,stage_0_cost,stage_1_cost,stop_cost_0,stop_cost_1"


@pytest.mark.parametrize("solved", ["solved_t2", "solved_t4"])
def test_solution_csvs_match_value_by_value_reference(tmp_path, request, capsys, solved):
    solution = request.getfixturevalue(solved)
    T = solution.period

    def line(*values):
        return ",".join(v if isinstance(v, str) else repr(float(v)) for v in values)

    curves = [line("p", *(f"stage_{s}_cost" for s in range(T)),
                   *(f"stop_cost_{s}" for s in range(T)))]
    for i, p in enumerate(solution.grid.points):
        curves.append(line(p, *solution.stage_curves[:, i], *solution.stop_curves[:, i]))
    history = ["cycle,sup_distance,l2_distance"] + [
        line(str(n), sup, l2)
        for n, (sup, l2) in enumerate(zip(solution.sup_history, solution.l2_history), start=1)
    ]
    thresholds = ["stage,threshold"] + [line(str(s), a) for s, a in enumerate(solution.thresholds)]
    paths = _write_solution(solution, tmp_path, "pin")
    assert [path.name for path in paths] == ["pin_curves.csv", "pin_history.csv",
                                             "pin_thresholds.csv"]
    for path, lines in zip(paths, (curves, history, thresholds)):
        assert path.read_bytes() == "".join(f"{text}\r\n" for text in lines).encode()
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"value at p=0: {solution.value_at_zero:.4f}"
    assert printed[-3:] == [f"wrote {path}" for path in paths]


@pytest.mark.parametrize(
    "command",
    [
        "solve --config {cfg} --grid 30",
        "simulate --config {cfg} --policy single:0.4",
        "sweep --config {cfg} --thresholds 0.2,0.6",
        "tradeoff --config {cfg} --alpha 0.05",
        "mdp-solve {mdp}",
        "reproduce table1 --grid 30 --paths 100",
        "reproduce fig1 --grid 30 --paths 100",
        "reproduce fig3 --paths 100",
    ],
)
def test_every_file_written_is_announced_once(tmp_path, capsys, config_file, command):
    mdp = tmp_path / "instance_three_state_t2.mdp"
    mdp.write_text(resources.files("periodet.configs").joinpath(mdp.name).read_text())
    out_dir = tmp_path / "out"
    argv = shlex.split(command.format(cfg=config_file, mdp=mdp))
    assert main([*argv, "--out-dir", str(out_dir)]) == 0
    announced = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
    assert len(announced) == len(set(announced))
    assert sorted(announced) == sorted(str(path) for path in out_dir.iterdir())


def test_cmd_solve_nonconvergence_exit_code(tmp_path, config_file):
    text = config_file.read_text() + "tolerance = 1e-15\nmax_cycles = 2\n"
    path = config_file.parent / "slow.cfg"
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--out-dir", str(config_file.parent)]) == 3


def test_cmd_simulate_identical_bytes_for_same_seed(tmp_path, config_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main([
            "simulate", "--config", str(config_file), "--out-dir", str(out),
            "--policy", "single:0.4",
        ])
        assert code == 0
    assert (out1 / "exp_simulate.csv").read_bytes() == (out2 / "exp_simulate.csv").read_bytes()


def test_periodic_equal_entries_equivalent_to_single(tmp_path, config_file):
    csvs = []
    for spec in ("single:0.3", "periodic:0.3,0.3"):
        out = tmp_path / spec.partition(":")[0]
        assert main(["simulate", "--config", str(config_file), "--out-dir", str(out),
                     "--policy", spec, "--paths", "2000", "--seed", "5"]) == 0
        csvs.append((out / "exp_simulate.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("spec", ["optimal", "single:0.4", "periodic:0.4,0.2"])
def test_cmd_simulate_prints_the_policy_spec_as_given(tmp_path, config_file, capsys, spec):
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path),
                 "--policy", spec, "--paths", "50"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"policy: {spec}"


def test_cmd_simulate_single_threshold_never_beats_solver_policy(tmp_path, config_file, capsys):
    def cost_of(policy):
        assert main([
            "simulate", "--config", str(config_file), "--out-dir", str(tmp_path / "o"),
            "--policy", policy, "--paths", "4000",
        ]) == 0
        out = capsys.readouterr().out
        return float(out.split("bayes cost: ")[1].split(" ")[0])

    assert cost_of("single:0.99") >= cost_of("optimal") - 0.3


def test_cmd_sweep(tmp_path, config_file, capsys):
    code = main([
        "sweep", "--config", str(config_file), "--out-dir", str(tmp_path),
        "--thresholds", "0.0,0.5",
    ])
    assert code == 0
    rows = (tmp_path / "exp_sweep.csv").read_text().splitlines()
    assert rows[0] == "threshold,cost,std_error,censored_fraction"
    assert len(rows) == 3
    assert "best single threshold" in capsys.readouterr().out


def test_cmd_tradeoff_columns_and_trace(tmp_path, config_file):
    code = main([
        "tradeoff", "--config", str(config_file), "--out-dir", str(tmp_path),
        "--alpha", "0.01", "--paths", "500",
    ])
    assert code == 0
    rows = (tmp_path / "exp_tradeoff.csv").read_text().splitlines()
    assert rows[0] == (
        "alpha,log_alpha_magnitude,add_sim,conditional_add_sim,"
        "pfa_sim,pfa_posterior,add_analytic"
    )
    assert len(rows) == 2
    trace = (tmp_path / "exp_trace.csv").read_text().splitlines()
    assert trace[0] == "n,p,change_active"
    body = np.array([row.split(",") for row in trace[1:]], dtype=float)
    assert np.all((body[:, 1] >= 0.0) & (body[:, 1] <= 1.0))
    assert set(body[:, 2]) <= {0.0, 1.0}
    # change marker is monotone: once active it stays active
    assert np.all(np.diff(body[:, 2]) >= 0)


def test_cmd_tradeoff_smallest_alpha_below_one_runs(tmp_path, config_file):
    # 1 - 1e-16 is the largest float below 1, so the threshold is valid
    code = main([
        "tradeoff", "--config", str(config_file), "--out-dir", str(tmp_path),
        "--alpha", "1e-16", "--paths", "50",
    ])
    assert code == 0
    assert len((tmp_path / "exp_tradeoff.csv").read_text().splitlines()) == 2


def scalar_trace_rows(cfg, horizon):
    """The trace drawn and scored one observation at a time: a geometric
    change point, then one draw from the stage law and one ``update_odds``
    step per observation."""
    scenario = cfg.scenario()
    rng = np.random.default_rng(cfg.seed)
    nu = int(rng.geometric(cfg.rho))
    state, rows = OddsState(-math.inf), []
    for n in range(1, horizon + 1):
        s = scenario.stage_index(n)
        law = scenario.post[s] if n >= nu else scenario.pre[s]
        state = update_odds(state, scenario, law.sample(rng))
        rows.append([state.n, log_odds_to_belief(state.log_r), int(n >= nu)])
    return rows


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_trace_rows_match_scalar_reference(seed):
    cfg = replace(bundled_config("tradeoff_t2"), seed=seed)
    assert _trace_rows(cfg, 600) == scalar_trace_rows(cfg, 600)


def test_cmd_tradeoff_single_alpha_single_row(tmp_path, config_file):
    main([
        "tradeoff", "--config", str(config_file), "--out-dir", str(tmp_path),
        "--alpha", "0.05", "--paths", "200",
    ])
    assert len((tmp_path / "exp_tradeoff.csv").read_text().splitlines()) == 2


def test_cmd_reproduce_figure_small(tmp_path, capsys):
    code = main(["reproduce", "fig1", "--out-dir", str(tmp_path), "--paths", "500"])
    assert code == 0
    assert (tmp_path / "fig1_curves.csv").exists()
    assert (tmp_path / "fig1_sweep.csv").exists()
    assert "value at p=0" in capsys.readouterr().out


def test_cmd_reproduce_table_applies_grid_and_tol(tmp_path):
    from periodet import solve_detection

    argv = ["reproduce", "table1", "--out-dir", str(tmp_path), "--paths", "200",
            "--grid", "30", "--tol", "1e-4"]
    assert main(argv) == 0
    lines = (tmp_path / "table1.csv").read_text().splitlines()
    got = [float(line.split(",")[6]) for line in lines[1:]]
    want = []
    for row in REPRODUCE_TABLES["table1"]:
        cfg = bundled_config(row.config)
        sol = solve_detection(cfg.scenario(), cfg.cost_spec(), grid_resolution=30, tol=1e-4)
        want.append(sol.value_at_zero)
    assert lines[0].split(",")[6] == "solver_value_at_zero"
    assert got == want


def test_cmd_reproduce_table_exits_3_when_a_solve_does_not_converge(tmp_path):
    argv = ["reproduce", "table1", "--out-dir", str(tmp_path), "--paths", "200",
            "--grid", "30", "--tol", "1e-300"]
    assert main(argv) == 3
    lines = (tmp_path / "table1.csv").read_text().splitlines()
    assert len(lines) == 1 + len(REPRODUCE_TABLES["table1"])


def _bundled_copy(directory: Path, name: str) -> Path:
    path = directory / f"{name}.cfg"
    path.write_text(resources.files("periodet.configs").joinpath(path.name).read_text())
    return path


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


# each command gets the override flags it takes; reproduce and simulate take all
SOLVER_FLAGS = ["--grid", "40"]
SIMULATION_FLAGS = ["--paths", "300", "--seed", "5"]
FLAGS = SOLVER_FLAGS + SIMULATION_FLAGS


def test_reproduce_figure_writes_what_solve_and_sweep_write(tmp_path):
    config = _bundled_copy(tmp_path, REPRODUCE_FIGURES["fig1"])
    fig, direct = tmp_path / "fig", tmp_path / "direct"
    assert main(["reproduce", "fig1", "--out-dir", str(fig), *FLAGS]) == 0
    for command, flags in (("solve", SOLVER_FLAGS), ("sweep", SIMULATION_FLAGS)):
        assert main([command, "--config", str(config), "--out-dir", str(direct), *flags]) == 0
    for suffix in ("curves", "history", "thresholds", "sweep"):
        assert ((fig / f"fig1_{suffix}.csv").read_bytes()
                == (direct / f"{config.stem}_{suffix}.csv").read_bytes())


def test_reproduce_table_row_matches_simulate_and_sweep(tmp_path):
    row = REPRODUCE_TABLES["table3"][0]
    config = _bundled_copy(tmp_path, row.config)
    assert main(["reproduce", "table3", "--out-dir", str(tmp_path), *FLAGS]) == 0
    for command, flags in ((["simulate", "--policy", "optimal"], FLAGS),
                           (["sweep"], SIMULATION_FLAGS)):
        assert main([*command, "--config", str(config), "--out-dir", str(tmp_path), *flags]) == 0
    got = _csv_rows(tmp_path / "table3.csv")[0]
    simulated = _csv_rows(tmp_path / f"{row.config}_simulate.csv")[0]
    best = min(_csv_rows(tmp_path / f"{row.config}_sweep.csv"), key=lambda r: float(r["cost"]))
    assert got["row"] == row.label
    assert got["optimal_policy_cost"] == simulated["estimate"]
    assert got["optimal_policy_se"] == simulated["std_error"]
    assert got["single_threshold_cost"] == best["cost"]


def test_cmd_mdp_solve_zero_costs(tmp_path, capsys):
    instance = tmp_path / "zero.mdp"
    instance.write_text(ZERO_COST_INSTANCE)
    assert main(["mdp-solve", str(instance), "--out-dir", str(tmp_path)]) == 0
    values = (tmp_path / "zero_values.csv").read_text().splitlines()
    assert values[1] == "0,0,0.0"
    assert values[2] == "0,1,0.0"


def test_cmd_mdp_solve_bundled_instance_matches_oracle(tmp_path):
    from periodet import finite_horizon_oracle, load_instance, value_iterate

    src = resources.files("periodet.configs").joinpath("instance_three_state_t2.mdp")
    instance = tmp_path / "bundled.mdp"
    instance.write_text(src.read_text())
    assert main(["mdp-solve", str(instance), "--out-dir", str(tmp_path)]) == 0
    mdp = load_instance(instance)
    values = value_iterate(mdp, tol=1e-10)
    horizon = 300
    lower = finite_horizon_oracle(mdp, horizon)
    tail = mdp.discount**horizon * mdp.costs.max() / (1 - mdp.discount)
    slack = 1e-10 / (1 - mdp.discount)
    assert np.all(values.values[0] >= lower - slack)
    assert np.all(values.values[0] <= lower + tail + slack)


def _load_script(name: str):
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_example_mdp_script_writes_the_mdp_solve_policy(tmp_path, monkeypatch):
    module = _load_script("solve_example_mdp")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)  # the script writes into ./periodet-results
    assert module.main() == 0
    direct = tmp_path / "direct"
    direct.mkdir()
    instance = direct / "instance_three_state_t2.mdp"
    src = resources.files("periodet.configs").joinpath(instance.name)
    instance.write_text(src.read_text())
    assert main(["mdp-solve", str(instance), "--out-dir", str(direct)]) == 0
    name = "instance_three_state_t2_policy.csv"
    assert (run_dir / "periodet-results" / name).read_bytes() == (direct / name).read_bytes()


def test_reproduce_experiments_script_writes_every_batch(tmp_path, monkeypatch, capsys):
    module = _load_script("reproduce_experiments")
    script_dir, direct = tmp_path / "script", tmp_path / "direct"
    monkeypatch.setattr(sys, "argv", ["reproduce_experiments.py", "--paths", "200",
                                      "--out-dir", str(script_dir)])
    assert module.main() == 0
    batches = [line.strip("= ") for line in capsys.readouterr().out.splitlines()
               if line.startswith("===")]
    assert batches == ["table1", "table2", "table3", "fig1", "fig2", "fig3"]
    for batch in batches:
        assert main(["reproduce", batch, "--paths", "200", "--out-dir", str(direct)]) == 0
    solved = ("curves", "history", "thresholds", "sweep")
    names = sorted([f"{table}.csv" for table in REPRODUCE_TABLES]
                   + [f"{fig}_{suffix}.csv" for fig in ("fig1", "fig2") for suffix in solved]
                   + ["fig3_tradeoff.csv", "fig3_trace.csv"])
    assert sorted(path.name for path in script_dir.iterdir()) == names
    for name in names:
        assert (script_dir / name).read_bytes() == (direct / name).read_bytes()


# ── exit codes ─────────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "text,where",
    [
        # a fault of the whole file names the file and no line
        ("period = 2\n", ": missing required field 'rho'"),
        ("period = 2\nrho = 2\n", ":2: field 'rho' must be in (0, 1)"),
    ],
    ids=["whole file", "one line"],
)
def test_exit_code_parse_failure(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["solve", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}{where}" in err
    assert f"{bad}:0" not in err


def test_hazard_too_small_for_a_default_horizon_is_a_parse_error(tmp_path, capsys):
    # 50 / rho overflows to inf, which no integer horizon holds
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(MINIMAL.replace("rho = 0.01", "rho = 1e-320"))
    assert main(["solve", "--config", str(tiny), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tiny}: rho 1e-320 is too small for a default horizon; set one\n")


TWO_STATE = "states 2\nactions 1\nperiod 1\ndiscount 0.9\n"


@pytest.mark.parametrize(
    "text,where",
    [
        ("nonsense 1 2 3\n", "line 1: unknown directive"),
        # faults of the whole file name the file and no line
        (TWO_STATE + "kernel 0 0 0 0.5 0.5\ncost 0 0 0 1\nkernel 0 1 0 0.5 0.5\n",
         "{bad}: missing cost line for (0, 1, 0)"),
        (TWO_STATE + "kernel 0 0 0 0.5 0.6\ncost 0 0 0 1\nkernel 0 1 0 0.5 0.5\ncost 0 1 0 1\n",
         "{bad}: transition row (0, 0, 0) sums to 1.1"),
    ],
    ids=["one line", "missing row", "row sum"],
)
def test_exit_code_instance_parse_failure(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.mdp"
    bad.write_text(text)
    assert main(["mdp-solve", str(bad), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {where.format(bad=bad)}" in err
    assert "line 0" not in err


@pytest.mark.parametrize(
    "dims,line",
    [("states 2.7\nactions 1\nperiod 1\n", "line 1"),
     ("states -1\nactions 1\nperiod 1\n", "line 1"),
     ("states 2\nactions 1\nperiod 0\n", "line 3")],
    ids=["states 2.7", "states -1", "period 0"],
)
def test_exit_code_bad_instance_dimension(tmp_path, capsys, dims, line):
    bad = tmp_path / "bad.mdp"
    bad.write_text(dims + "discount 0.9\n" + "".join(
        f"kernel 0 {s} 0 0.5 0.5\ncost 0 {s} 0 1\n" for s in range(2)))
    assert main(["mdp-solve", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert f"{line}: " in capsys.readouterr().err
    assert not (tmp_path / "bad_values.csv").exists()


def test_exit_code_runtime_failure(tmp_path, capsys):
    degenerate = tmp_path / "degenerate.cfg"
    degenerate.write_text(
        "period = 1\nrho = 0.01\npre_means = 0.0\npost_means = 0.0\n"
        "false_alarm_penalties = 5\ndelay_penalties = 1\npaths = 10\n"
    )
    code = main(["tradeoff", "--config", str(degenerate), "--out-dir", str(tmp_path)])
    assert code == 1
    assert "zero divergence" in capsys.readouterr().err


def test_default_threshold_grid_is_sorted_and_in_range():
    grid = np.asarray(DEFAULT_THRESHOLD_GRID)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] > 0.0 and grid[-1] < 1.0

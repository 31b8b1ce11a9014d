import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from romctl import build_fourier_shapes, cli, experiments
from romctl.cli import main as cli_main
from romctl.control import ControlProblem
from romctl.experiments import (
    FMT,
    STREAM_COLUMNS,
    ConfigError,
    ScenarioConfig,
    TargetSpec,
    _smallness,
    _write_csv,
    _write_history_csvs,
    _write_state_bin,
    build_model,
    build_target,
    double_tilt_target,
    gaussian_initial_condition,
    parse_config,
    record_row,
    run_rank_study,
    run_scenario,
    single_tilt_target,
)
from romctl.fom import cost, solve_state
from romctl.models import SpodModel
from romctl.optimizer import OptimizerConfig, OptimizerReport, optimize
from romctl.rom_spod import SingularMassError, certify_smallness
from romctl.transform import split_shift

from conftest import coarse_grid, load_snapshots_bin


TINY_CONFIG = {"n": "41", "n_t": "30", "T": "5.0", "n_iter": "12", "xi": "1", "beta": "1e-8"}


def tiny_config_text(**overrides):
    # a key set twice is a config error, so each override replaces its base line
    keys = {**TINY_CONFIG, **overrides}
    return "# tiny smoke scenario\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


def test_trivial_target_matches_exact_rotation():
    g = coarse_grid(n=201, n_t=150, cfl=1.0)
    y0 = gaussian_initial_condition(g)
    Qd = build_target(g, y0, TargetSpec())
    for j in (0, 1, 50, 149):
        np.testing.assert_array_equal(Qd[:, j], np.roll(y0, j))
    Y = solve_state(g, build_fourier_shapes(g, 1), np.zeros((3, g.n_t)), y0)
    assert np.max(np.abs(Qd - Y)) < 1e-12


def test_single_tilt_kink_freezes_target():
    g = coarse_grid(n=101, n_t=80, cfl=1.0)
    y0 = gaussian_initial_condition(g)
    Qd = build_target(g, y0, single_tilt_target(0.0, g.v))
    kink = int(0.75 * g.n_t)
    np.testing.assert_array_equal(Qd[:, kink + 5], Qd[:, kink + 1])
    assert np.max(np.abs(Qd[:, kink - 5] - Qd[:, kink - 4])) > 0


def test_double_tilt_middle_freeze_then_resume():
    g = coarse_grid(n=101, n_t=80, cfl=1.0)
    y0 = gaussian_initial_condition(g)
    Qd = build_target(g, y0, double_tilt_target(0.0, g.v))
    q1, q3 = int(0.25 * g.n_t), int(0.75 * g.n_t)
    np.testing.assert_array_equal(Qd[:, q1 + 5], Qd[:, q1 + 1])
    assert np.max(np.abs(Qd[:, q3 + 5] - Qd[:, q3 + 1])) > 0


def test_control_problem_holds_a_profile_on_its_path():
    g = coarse_grid(n=101, n_t=80)
    y0 = gaussian_initial_condition(g)
    spec = double_tilt_target(0.5, g.v)
    target, path = build_target(g, y0, spec), spec.displacement(g.t, g)
    shapes = build_fourier_shapes(g, 1)
    ControlProblem(g, shapes, y0, target, path, 1e-3)
    with pytest.raises(ValueError, match="column 70 "):  # one column off its path
        bad = target.copy()
        bad[3, 70] = np.nextafter(bad[3, 70], 1.0)
        ControlProblem(g, shapes, y0, bad, path, 1e-3)
    with pytest.raises(ValueError, match="column 1 "):  # a target of another speed
        ControlProblem(g, shapes, y0, target, 0.5 * path, 1e-3)
    with pytest.raises(ValueError, match="start at 0"):
        ControlProblem(g, shapes, y0, build_target(g, y0, spec), path + g.dx, 1e-3)
    with pytest.raises(ValueError, match="shape"):
        ControlProblem(g, shapes, y0, target, path[:-1], 1e-3)


def test_parse_config_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing but a comment\n")
    cfg = parse_config(path)
    assert (cfg.l, cfg.n, cfg.T, cfg.n_t, cfg.v) == (100.0, 3201, 136.2642, 2400, 0.55)
    assert (cfg.xi, cfg.mu, cfg.beta, cfg.omega0) == (20, 1e-3, 1e-5, 1.0)
    assert cfg.n_iter == 20000


def test_readme_defaults_are_the_config_defaults():
    # README "CLI" lists the reference defaults as key=value pairs; each must
    # name a ScenarioConfig field and equal its default
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    sentence = text.split("missing keys take the reference defaults:", 1)[1].split(")", 1)[0]
    pairs = re.findall(r"(\w+)=([^,\s`]+)", sentence)
    assert len(pairs) >= 10, sentence
    defaults = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
    for key, value in pairs:
        assert key in defaults, key
        assert type(defaults[key])(value) == defaults[key], key


def test_readme_cli_section_names_every_config_key():
    # every ScenarioConfig field appears as a word inside a backtick span of
    # README's "CLI" section, outside its code blocks
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.S))
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    missing = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name not in named]
    assert missing == []


@pytest.mark.parametrize("n", [401, 1601, 3201])
def test_initial_condition_holds_no_subnormals(n):
    # the Gaussian's tail below the smallest normal float is flushed to zero;
    # every other value is the plain exponential
    g = ScenarioConfig(n=n).grid()
    y0 = gaussian_initial_condition(g)
    raw = np.exp(-((g.x - g.l / 12.0) ** 2))
    normal = raw >= np.finfo(float).tiny
    np.testing.assert_array_equal(y0[normal], raw[normal])
    assert not np.any(y0[~normal])


def test_target_energy_is_the_sum_of_blended_profile_energies():
    # at the spod-eig-desk settings: target column j blends the rolls of the
    # profile y by c_j and c_j + 1 cells with weight b_j, so
    # dx |y_d^j|^2 = ((1 - b_j)^2 + b_j^2) dx |y|^2 + 2 b_j (1 - b_j) dx <y, roll(y, 1)>
    cfg = ScenarioConfig(n=401, n_t=300, T=136.02357742008616, xi=5, model="spod",
                         eigenfunction_basis=True)
    p = build_model(cfg).problem
    g, y = p.grid, p.target[:, 0]
    _, b = split_shift(p.target_path, g)
    per_step = ((1.0 - b) ** 2 + b**2) * (y @ y) + 2.0 * b * (1.0 - b) * (y @ np.roll(y, 1))
    per_step *= g.dx
    assert p.target_energy == pytest.approx(0.5 * g.dt * np.sum(per_step), rel=1e-14)


def test_parse_config_model_selection(tmp_path):
    path = tmp_path / "spod.cfg"
    path.write_text("model = spod\nmodes = 35\n")
    cfg = parse_config(path)
    assert cfg.model == "spod"
    assert cfg.mode_rule().count == 35
    path2 = tmp_path / "tol.cfg"
    path2.write_text("model = pod\nmode_tol = 1e-5\n")
    assert parse_config(path2).mode_rule().tol == 1e-5


def test_parse_config_errors_carry_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 41\nwhat = ever\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config(path)
    path.write_text("n = forty\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        parse_config(path)
    path.write_text("n 41\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        parse_config(path)


def test_parse_config_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("model = pod\nmodes = 4\n# again\nmodes = 8\n")
    with pytest.raises(ConfigError, match=r"twice\.cfg:4: 'modes' is already set on line 2"):
        parse_config(path)
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


def test_parse_config_rejects_a_hash_inside_a_value(tmp_path):
    # a comment starts at a '#' at the start of a line or after whitespace;
    # any other '#' would cut a value short without a word
    path = tmp_path / "hash.cfg"
    path.write_text("# header\nn = 401  # note\n\t# indented\nmodel = pod\t# tab\n")
    cfg = parse_config(path)
    assert (cfg.n, cfg.model) == (401, "pod")
    for line in ("out = run#1", "n = 401#note", "n# = 401"):
        path.write_text(f"n_t = 30\n{line}\n")
        with pytest.raises(ConfigError, match=r"hash\.cfg:2: '#' inside a value"):
            parse_config(path)
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


def test_parse_config_rejects_an_empty_out(tmp_path, monkeypatch):
    # an empty out would be the working directory: from the file key and the
    # flag alike, the run stops with exit 2 before it writes anything there
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "empty_out.cfg"
    path.write_text(tiny_config_text(out=""))
    with pytest.raises(ConfigError, match=r"empty_out\.cfg: out must name"):
        parse_config(path)
    assert cli_main(["run", str(path), "--quiet"]) == 2
    path.write_text(tiny_config_text(out=tmp_path / "out"))
    assert cli_main(["run", str(path), "--out", "", "--quiet"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty_out.cfg"]


def test_optimizer_settings_default_to_the_optimizer_defaults():
    assert ScenarioConfig().optimizer_config() == OptimizerConfig()
    settings = dict(beta=2e-5, omega0=0.5, n_iter=7, refine_every=3, bb_switch_threshold=0.1)
    assert ScenarioConfig(**settings).optimizer_config() == OptimizerConfig(**settings)


def test_run_scenario_fom_artifacts(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text(out=tmp_path / "out"))
    cfg = parse_config(cfg_path)
    assert run_scenario(cfg, quiet=True) == 0
    out = tmp_path / "out"
    for name in (
        "cost_history.csv",
        "gradient_history.csv",
        "modes_per_iteration.csv",
        "timings.csv",
        "final_control.csv",
        "final_state.bin",
        "iterations.csv",
        "plots.gp",
        "run_meta.json",
    ):
        assert (out / name).exists(), name
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] in ("converged", "max_iter")
    # the config echo is every ScenarioConfig field, each a JSON scalar, and
    # nothing else repeats a config value at the top level
    assert meta["config"] == {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    assert len(meta["config"]) == 19
    assert "tilt_factor" not in meta
    header = (out / "timings.csv").read_text().splitlines()[0]
    assert header == "iteration,basis,state,cost,adjoint,gradient,update,wall"


def test_run_scenario_reproducible_histories(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.cfg"
        cfg_path.write_text(tiny_config_text(out=tmp_path / tag, model="pod", modes=6))
        assert run_scenario(parse_config(cfg_path), quiet=True) == 0
        outs.append(
            (tmp_path / tag / "cost_history.csv").read_bytes()
            + (tmp_path / tag / "gradient_history.csv").read_bytes()
            + (tmp_path / tag / "modes_per_iteration.csv").read_bytes()
        )
    assert outs[0] == outs[1]


def test_tolerance_rule_mode_counts_monotone(tmp_path):
    avgs = {}
    for tol in ("1e-1", "1e-4"):
        cfg_path = tmp_path / f"t{tol}.cfg"
        cfg_path.write_text(
            tiny_config_text(out=tmp_path / f"out{tol}", model="pod", mode_tol=tol, n_iter=8)
        )
        assert run_scenario(parse_config(cfg_path), quiet=True) == 0
        rows = (tmp_path / f"out{tol}" / "modes_per_iteration.csv").read_text().splitlines()[1:]
        counts = [int(r.split(",")[1]) for r in rows]
        avgs[tol] = sum(counts) / len(counts)
    assert avgs["1e-4"] >= avgs["1e-1"]


@pytest.mark.parametrize("extra", [dict(model="fom"), dict(model="pod", modes=3),
                                   dict(model="spod", eigenfunction_basis="true")])
def test_run_meta_reports_full_order_cost(tmp_path, extra):
    # fom_cost is fom.cost of the full-order state at the returned control;
    # rom_gap compares fom.cost of the written final state with it
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text(tiny_config_text(out=tmp_path / "out", n_iter=6, **extra))
    cfg = parse_config(cfg_path)
    assert run_scenario(cfg, quiet=True) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    model = build_model(cfg)
    p = model.problem
    u = np.loadtxt(tmp_path / "out" / "final_control.csv", delimiter=",", skiprows=1, ndmin=2).T
    fom_cost = cost(p.grid, solve_state(p.grid, p.shapes, u, p.y0), p.target, u, p.mu).total
    lifted = load_snapshots_bin(tmp_path / "out" / "final_state.bin")
    lifted_cost = cost(p.grid, lifted, p.target, u, p.mu).total
    assert meta["fom_cost"] == fom_cost
    assert meta["rom_gap"] == abs(lifted_cost - fom_cost) / fom_cost
    assert (meta["rom_gap"] == 0.0) == (extra["model"] == "fom")


@pytest.mark.parametrize("extra", [dict(model="fom"), dict(model="pod", modes=3),
                                   dict(model="spod", eigenfunction_basis="true"),
                                   dict(model="spod", modes=4)])
def test_run_meta_reports_smallness_certificate(tmp_path, extra):
    # the sPOD-G certificate of the held operators at the returned control;
    # null for the linear models
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text(tiny_config_text(out=tmp_path / "out", n_iter=6, **extra))
    cfg = parse_config(cfg_path)
    assert run_scenario(cfg, quiet=True) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    if extra["model"] != "spod":
        assert meta["smallness_zeta"] is None and meta["smallness_satisfied"] is None
        return
    zeta, satisfied = meta["smallness_zeta"], meta["smallness_satisfied"]
    assert isinstance(zeta, float) and math.isfinite(zeta)
    assert satisfied is (zeta > 0.0)
    if cfg.eigenfunction_basis:
        # the invariant basis is the same at every control
        model = build_model(cfg)
        p = model.problem
        u = np.loadtxt(tmp_path / "out" / "final_control.csv", delimiter=",", skiprows=1,
                       ndmin=2).T
        model.refine_basis(u)
        assert zeta == certify_smallness(model.ops, u).zeta


def test_rom_gap_is_null_when_the_fom_reaches_the_target(tmp_path):
    # with two time nodes the target's second column, y0 moved by the sub-cell
    # shift v dt, is the linear blend that one upwind step of y0 makes, so the
    # zero control tracks the target exactly and fom_cost is 0
    cfg_path = tmp_path / "exact.cfg"
    cfg_path.write_text("n = 41\nn_t = 2\nT = 0.2\nxi = 1\nmodel = fom\n")
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["fom_cost"] == 0.0
    assert meta["rom_gap"] is None


def test_smallness_is_null_when_the_bound_is_vacuous(tmp_path):
    cfg = ScenarioConfig(n=41, n_t=30, T=5.0, xi=1, model="spod", eigenfunction_basis=True,
                         out=str(tmp_path))
    model = build_model(cfg)
    u = np.zeros((model.problem.shapes.m, cfg.n_t))
    model.refine_basis(u)
    assert _smallness(model, u)["smallness_satisfied"] is True
    model.ops = dataclasses.replace(model.ops, alpha0=np.zeros(model.ops.r))
    assert _smallness(model, u) == {"smallness_zeta": None, "smallness_satisfied": None}


@pytest.mark.parametrize("overrides", [
    {"model": "pod", "mode_tol": "1e-6"},
    {"model": "spod", "modes": "4"},
    {"model": "spod", "eigenfunction_basis": "true"},
    {"model": "fom"},
], ids=["pod-mode_tol", "spod-modes", "spod-eigenfunction", "fom"])
def test_run_scenario_spod_writes_spectra(tmp_path, monkeypatch, overrides):
    # one spectrum file per refresh that ran an SVD, none for fom or the fixed basis
    reports = []

    def keep_report(*args, **kwargs):
        u, report = optimize(*args, **kwargs)
        reports.append(report)
        return u, report

    monkeypatch.setattr(experiments, "optimize", keep_report)
    out = tmp_path / "out"
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(tiny_config_text(out=out, n_iter=7, **overrides))
    assert run_scenario(parse_config(cfg_path), quiet=True) == 0
    written = sorted(p.name for p in out.glob("singular_values_iter*.csv"))
    with open(out / "modes_per_iteration.csv", newline="") as fh:
        refined = [int(row["iteration"]) for row in csv.DictReader(fh) if row["refined"] == "1"]
    assert refined[0] == 1
    if overrides["model"] == "fom" or "eigenfunction_basis" in overrides:
        assert written == []
        return
    assert len(refined) > 1
    assert written == [f"singular_values_iter{i:05d}.csv" for i in refined]
    (report,) = reports
    for rec in report.records:
        if rec.refresh is not None:
            name = f"singular_values_iter{rec.iteration:05d}.csv"
            expected = csv_writer_bytes(["sigma"], [[s] for s in rec.refresh.spectrum])
            assert (out / name).read_bytes() == expected


def test_rank_study_emits_ratio_table(tmp_path):
    g_kw = dict(n=201, n_t=150)
    dx = 100.0 / g_kw["n"]
    T = g_kw["n_t"] * dx / 0.55  # unit CFL keeps shifts grid-aligned
    cfg = ScenarioConfig(n=g_kw["n"], n_t=g_kw["n_t"], T=T, xi=4, n_iter=25,
                         out=str(tmp_path / "rank"), model="spod",
                         eigenfunction_basis=True)
    assert run_rank_study(cfg, quiet=True) == 0
    lines = (tmp_path / "rank" / "rank_study.csv").read_text().splitlines()
    assert lines[0] == "iteration,sv_ratio_m_plus_1,sv_ratio_m_plus_2"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][0] == "0"
    assert all(float(r[2]) < 1e-12 for r in rows)


def test_cli_run_and_gradient_check(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text())
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert cli_main(["gradient-check", str(cfg_path), "--quiet"]) == 0


def test_cli_gradient_check_reads_seed(tmp_path, capsys):
    # the seed draws the control and the directions, so another seed prints other errors
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text(model="pod", modes=3))
    printed = []
    for seed in ("0", "3"):
        assert cli_main(["gradient-check", str(cfg_path), "--seed", seed]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] != printed[1]


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "1"],
    ["sweep", "--modes", "3", "--seed", "1"],
    ["rank-study", "--seed", "1"],
    ["rank-study", "--every", "5"],
    ["gradient-check", "--out", "X"],
])
def test_cli_rejects_flags_the_command_does_not_read(tmp_path, argv):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text())
    with pytest.raises(SystemExit) as exc:
        cli_main([argv[0], str(cfg_path), *argv[1:]])
    assert exc.value.code == 2


def test_cli_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("ROMCTL_THREADS", "1")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text(model="pod", n_iter=6))
    code = cli_main(["sweep", str(cfg_path), "--modes", "3,5",
                     "--out", str(tmp_path / "sweep"), "--quiet"])
    assert code == 0
    assert (tmp_path / "sweep" / "modes_0003" / "cost_history.csv").exists()
    assert (tmp_path / "sweep" / "modes_0005" / "cost_history.csv").exists()


def test_cli_sweep_counts_the_cpus_it_may_run_on(tmp_path, monkeypatch):
    # one CPU in the affinity mask of a many-CPU host: the jobs run in this
    # process, and no worker pool starts
    monkeypatch.delenv("ROMCTL_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU sweep started a worker pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text(model="pod", n_iter=2))
    code = cli_main(["sweep", str(cfg_path), "--modes", "3,5",
                     "--out", str(tmp_path / "sweep"), "--quiet"])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == ["modes_0003", "modes_0005"]


@pytest.mark.parametrize("modes, threads",
                         [("0,3", "1"), ("2,x", "1"), ("3,5", "x"), ("3,3", "1"), ("3,3", "2")])
def test_cli_sweep_bad_input_exit_code(tmp_path, monkeypatch, modes, threads):
    # checked before any job starts, so no job writes output
    monkeypatch.setenv("ROMCTL_THREADS", threads)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text(model="pod", n_iter=6))
    code = cli_main(["sweep", str(cfg_path), "--modes", modes,
                     "--out", str(tmp_path / "sweep"), "--quiet"])
    assert code == 2
    assert not (tmp_path / "sweep").exists()


# each is rejected while the config is parsed: exit 2, and no output written
BAD_CONFIGS = (
    "nope = 1",
    "model = pod\nmodes = 0",
    "model = pod\nmode_tol = 2",
    "model = spod\nn_samples = 1",
    "refine_every = 0",
    "xi = -1",
    "eigenfunction_basis = ture",
    "mu = nan",
    "mu = 0",
    "omega0 = inf",
    "model = pod\nmodes = 4\nmode_tol = 1e-3",
    "model = fom\nmodes = 4",
    "model = pod\neigenfunction_basis = true",
    "model = fom\neigenfunction_basis = true",
    "model = spod\neigenfunction_basis = true\nmodes = 4",
    "model = spod\neigenfunction_basis = true\nmode_tol = 1e-3",
    "kinks = 0.5\nkink_velocities = 0.5",
    "problem = double_tilt\nkink_velocities = 0.5",
    "problem = custom\ntilt_factor = 0.5",
    "problem = custom",
    "seed = 1",
    "rank_study_every = 5",
    "model = pod\nn_samples = 64",
    "model = fom\nn_samples = 64",
    "model = spod\nn_samples = 800",
    "xi = 21",  # 2 xi >= n = 41: the top Fourier pair would alias
    "n_t = 1",  # one time node: no step to take
    "model = spod\nmodes = 2\nn_t = 1",
)


def test_cli_config_error_exit_code(tmp_path):
    for k, text in enumerate(BAD_CONFIGS):
        cfg_path = tmp_path / f"bad{k}.cfg"
        cfg_path.write_text(tiny_config_text(**dict(ln.split(" = ") for ln in text.splitlines())))
        out = tmp_path / f"out{k}"
        assert cli_main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 2, text
        assert not out.exists(), text


def test_cli_rank_study_rejects_mode_keys(tmp_path, capsys):
    # the rank study fixes the invariant-subspace basis, so a mode rule would be ignored
    for k, text in enumerate(("model = spod\nmodes = 4", "model = pod\nmode_tol = 1e-3")):
        cfg_path = tmp_path / f"rank{k}.cfg"
        cfg_path.write_text(tiny_config_text() + text + "\n")
        out = tmp_path / f"out{k}"
        assert cli_main(["rank-study", str(cfg_path), "--out", str(out), "--quiet"]) == 2, text
        assert not out.exists(), text
        assert "rank-study" in capsys.readouterr().err, text


@pytest.mark.parametrize("text", [
    "",  # model = fom by default
    "model = pod",
    "model = spod",  # on a snapshot basis
    "model = fom",
])
def test_cli_rank_study_needs_the_invariant_spod_basis(tmp_path, text):
    # rank-study reads model and eigenfunction_basis, so anything but the
    # invariant sPOD-G basis exits 2 before any output
    cfg_path = tmp_path / "rank.cfg"
    cfg_path.write_text(tiny_config_text() + text + "\n")
    out = tmp_path / "out"
    assert cli_main(["rank-study", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("text", ["model = pod\nmodes = 4", "model = spod\nmode_tol = 1e-3"])
def test_cli_sweep_rejects_mode_keys(tmp_path, monkeypatch, capsys, text):
    # --modes sets each job's mode count, so the config's mode rule would be ignored
    monkeypatch.setenv("ROMCTL_THREADS", "1")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text() + text + "\n")
    out = tmp_path / "sweep"
    assert cli_main(["sweep", str(cfg_path), "--modes", "3", "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "sweep" in capsys.readouterr().err


def test_gradient_checks_script_passes(capsys):
    # the study script README lists drives the CLI's gradient-check for all three models
    path = Path(__file__).resolve().parents[1] / "scripts" / "gradient_checks.py"
    spec = importlib.util.spec_from_file_location("gradient_checks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0, capsys.readouterr().out


def test_artifact_digests_mask_the_timings_alone(tmp_path, capsys):
    # two runs of one scenario agree outside their wall-clock fields and their
    # output directory, so the masked digests list the same lines; a changed
    # value outside the timings changes its file's line
    path = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text(model="pod", n_iter=3))
    listings = []
    for rerun in ("a", "b"):
        out = tmp_path / rerun / "run"
        assert cli_main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        assert script.main([str(out)]) == 0
        listings.append(capsys.readouterr().out)
    names = [line.split("  ")[1] for line in listings[0].splitlines()]
    assert names == sorted(f"run/{p.name}" for p in (tmp_path / "a" / "run").iterdir())
    assert listings[0] == listings[1]
    timings = tmp_path / "b" / "run" / "timings.csv"
    timings.write_bytes(timings.read_bytes().replace(b"\r\n1,", b"\r\n7,", 1))
    assert script.main([str(tmp_path / "b" / "run")]) == 0
    changed = set(capsys.readouterr().out.splitlines()) ^ set(listings[0].splitlines())
    assert {line.split("  ")[1] for line in changed} == {"run/timings.csv"}


def test_reproduce_studies_runs_the_cli_of_this_interpreter(tmp_path, monkeypatch):
    # the commands need no installed romctl, and the config directory goes away
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_studies.py"
    spec = importlib.util.spec_from_file_location("reproduce_studies", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    commands = []
    monkeypatch.setattr(script, "run", commands.append)
    monkeypatch.setattr(sys, "argv", ["reproduce_studies.py", "--desk",
                                      "--studies", "reference,rank", "--out", str(tmp_path)])
    temp_root = Path(tempfile.gettempdir())
    before = set(temp_root.glob("romctl-cfg-*"))
    assert script.main() == 0
    assert [cmd[3] for cmd in commands] == ["run", "rank-study"]
    for cmd in commands:
        assert cmd[:3] == [sys.executable, "-m", "romctl.cli"]
        assert not Path(cmd[4]).exists()  # the config file went with its directory
    assert set(temp_root.glob("romctl-cfg-*")) <= before


# a step size far beyond the stability bound of the full-order upwind scheme
UNSTABLE = dict(n=41, n_t=700, T=7000.0, xi=1, n_iter=5)


def strict_json(path):
    """run_meta.json parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(word):
        raise ValueError(f"{path} holds {word}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_run_scenario_divergence_exit_code(tmp_path, recwarn):
    # the full-order state solve blows up: in the full model's first
    # evaluation, and in the snapshot solve of a reduced model's first refresh
    for model in ({"model": "fom"}, {"model": "pod", "modes": 4},
                  {"model": "spod", "modes": 4}):
        out = tmp_path / f"diverged-{model['model']}"
        code = run_scenario(ScenarioConfig(**UNSTABLE, **model, out=str(out)), quiet=True)
        assert code == 3, model
        meta = strict_json(out / "run_meta.json")
        assert (meta["status"], meta["iterations"], meta["final_cost"]) == ("diverged", 0, None)
        assert meta["smallness_zeta"] is None
        assert "fom_cost" not in meta and "rom_gap" not in meta


def test_full_order_check_that_diverges_leaves_the_run_its_status(tmp_path, recwarn):
    # the invariant sPOD-G stays stable on the grid where the full model blows
    # up: the run ends as the optimizer did, with the lifted final state and
    # no full-order cost to compare it against
    out = tmp_path / "reduced-only"
    cfg = ScenarioConfig(**UNSTABLE, model="spod", eigenfunction_basis=True, out=str(out))
    assert run_scenario(cfg, quiet=True) == 0
    meta = strict_json(out / "run_meta.json")
    assert (meta["status"], meta["iterations"]) == ("max_iter", 5)
    assert math.isfinite(meta["final_cost"]) and meta["smallness_zeta"] is not None
    assert meta["fom_cost"] is None and meta["rom_gap"] is None
    lifted = load_snapshots_bin(out / "final_state.bin")
    assert lifted.shape == (cfg.n, cfg.n_t) and np.all(np.isfinite(lifted))


def test_iterations_csv_counts_the_state_solves_after_the_trials(tmp_path):
    # evals follows trials in iterations.csv; timings.csv keeps its header
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text(out=tmp_path / "out", n_iter=4))
    assert run_scenario(parse_config(cfg_path), quiet=True) == 0
    header = (tmp_path / "out" / "iterations.csv").read_text().splitlines()[0]
    assert header == ",".join(STREAM_COLUMNS)
    assert header.endswith(",update,wall,trials,evals")
    header = (tmp_path / "out" / "timings.csv").read_text().splitlines()[0]
    assert header == "iteration,basis,state,cost,adjoint,gradient,update,wall"


@pytest.mark.parametrize("model", [{"model": "fom"}, {"model": "pod", "modes": 4},
                                   {"model": "spod", "modes": 4}])
def test_diverging_run_prints_no_numpy_warning(tmp_path, model):
    # the full-order state blows up; its sweep stops within a block of the step
    # where it diverged, with numpy's floating-point warnings off, since the
    # diverged status reports them. The CFL warning, which names the cause, stays.
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**UNSTABLE, **model}.items()))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "CFL number", RuntimeWarning)
        assert cli_main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
    meta = strict_json(out / "run_meta.json")
    assert (meta["status"], meta["iterations"]) == ("diverged", 0)


def csv_writer_bytes(columns, rows):
    """The bytes of the per-value CSV writer the artifacts keep: csv.writer
    rows, the header first, each float as "%.17g" % v and each int as it is."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(columns)
    for row in rows:
        w.writerow([v if isinstance(v, (int, str)) else "%.17g" % v for v in row])
    return fh.getvalue().encode()


EDGE = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
        -2.2250738585072014e-308, 0.1, 1.0 / 3.0, -123456789.0]


def test_control_csv_round_trip(tmp_path, rng):
    u = rng.standard_normal((5, 17))
    path = tmp_path / "u.csv"
    _write_csv(path, [f"u_{k + 1}" for k in range(5)], u.T, FMT)
    header = path.read_text().splitlines()[0]
    assert header == "u_1,u_2,u_3,u_4,u_5"
    np.testing.assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=1).T, u)


def test_spectrum_csv_round_trip(tmp_path):
    sigma = np.array([3.0, 1.0, 1e-8])
    _write_csv(tmp_path / "s.csv", ["sigma"], sigma, FMT)
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "sigma"
    np.testing.assert_array_equal(np.loadtxt(tmp_path / "s.csv", skiprows=1), sigma)


def test_snapshot_binary_round_trip(tmp_path, rng):
    Q = rng.standard_normal((13, 9))
    _write_state_bin(tmp_path / "q.bin", Q)
    data = (tmp_path / "q.bin").read_bytes()
    assert len(data) == 16 + 13 * 9 * 8
    np.testing.assert_array_equal(load_snapshots_bin(tmp_path / "q.bin"), Q)


def test_csv_writer_keeps_the_per_value_bytes(tmp_path):
    # a control table of edge values (its transpose, as the run writes it), a
    # one-column spectrum, the rank study's integer column and a history
    # table of record_row strings
    u = np.array(EDGE * 3).reshape(3, -1)
    _write_csv(tmp_path / "u.csv", ["u_1", "u_2", "u_3"], u.T, FMT)
    assert (tmp_path / "u.csv").read_bytes() == csv_writer_bytes(["u_1", "u_2", "u_3"], u.T)
    _write_csv(tmp_path / "s.csv", ["sigma"], np.array(EDGE), FMT)
    assert (tmp_path / "s.csv").read_bytes() == csv_writer_bytes(["sigma"], [[v] for v in EDGE])
    columns = ["iteration", "sv_ratio_m_plus_1", "sv_ratio_m_plus_2"]
    rows = [(10 * i, a, b) for i, (a, b) in enumerate(zip(EDGE, EDGE[::-1]))]
    _write_csv(tmp_path / "r.csv", columns, rows, ["%d", FMT, FMT])
    assert (tmp_path / "r.csv").read_bytes() == csv_writer_bytes(columns, rows)
    rows = [[i, FMT % v, i % 2] for i, v in enumerate(EDGE)]
    _write_csv(tmp_path / "h.csv", ["iteration", "J", "refined"], rows, "%s")
    assert (tmp_path / "h.csv").read_bytes() == csv_writer_bytes(["iteration", "J", "refined"],
                                                                  rows)


def test_iterations_csv_streams_each_record_as_the_run_goes(tmp_path, monkeypatch):
    # the csv.writer bytes of record_row's fields, one CRLF line per record,
    # on disk up to record 50 when its callback returns
    out = tmp_path / "out"
    reports, flushed = [], []

    def keep_report(model, u0, config, callback):
        def stream(rec, u):
            callback(rec, u)
            if rec.iteration == 50:
                flushed.append((out / "iterations.csv").read_bytes())

        u, report = optimize(model, u0, config, callback=stream)
        reports.append(report)
        return u, report

    monkeypatch.setattr(experiments, "optimize", keep_report)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text(out=out, n_iter=60))
    assert run_scenario(parse_config(cfg_path), quiet=True) == 0
    (report,) = reports
    assert report.iterations == 60
    rows = [record_row(r) for r in report.records]
    assert (out / "iterations.csv").read_bytes() == csv_writer_bytes(STREAM_COLUMNS, rows)
    assert flushed == [csv_writer_bytes(STREAM_COLUMNS, rows[:50])]


def test_history_csvs_of_no_records_hold_their_headers(tmp_path):
    _write_history_csvs(tmp_path, OptimizerReport())
    for name, columns in experiments._HISTORY_CSVS:
        assert (tmp_path / name).read_bytes() == csv_writer_bytes(columns, [])


@pytest.mark.parametrize("order, dtype", [("C", np.float64), ("F", np.float64),
                                          ("C", np.float32)])
def test_state_bin_layout(tmp_path, rng, order, dtype):
    # the <QQ dims, then little-endian float64 in C order, whatever the
    # layout and the float type of the state
    Q = np.asarray(rng.standard_normal((7, 5)), dtype=dtype, order=order)
    _write_state_bin(tmp_path / "q.bin", Q)
    expected = struct.pack("<QQ", 7, 5) + np.ascontiguousarray(Q, dtype="<f8").tobytes()
    assert (tmp_path / "q.bin").read_bytes() == expected


def test_final_control_csv_holds_the_returned_control(tmp_path, monkeypatch):
    controls = []

    def keep_control(*args, **kwargs):
        u, report = optimize(*args, **kwargs)
        controls.append(u)
        return u, report

    monkeypatch.setattr(experiments, "optimize", keep_control)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(tiny_config_text(out=tmp_path / "out"))
    assert run_scenario(parse_config(cfg_path), quiet=True) == 0
    (u,) = controls
    expected = csv_writer_bytes([f"u_{k + 1}" for k in range(u.shape[0])], u.T)
    assert (tmp_path / "out" / "final_control.csv").read_bytes() == expected


@pytest.mark.parametrize("command, extra", [("gradient-check", {"modes": 4}),
                                            ("rank-study", {"eigenfunction_basis": "true"})])
def test_cli_commands_exit_3_when_a_solve_diverges(tmp_path, capsys, command, extra):
    # the full-order solve blows up at CFL 2.25: in gradient-check's basis
    # refresh and in the rank study's first spectrum
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**UNSTABLE, "model": "spod",
                                                        **extra}.items()))
    out = [] if command == "gradient-check" else ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "CFL number", RuntimeWarning)
        assert cli_main([command, str(cfg), *out, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("diverged: state solve diverged at step") and "Traceback" not in err


def test_final_lift_that_diverges_leaves_the_run_its_artifacts(tmp_path, monkeypatch):
    # at the budget's end the returned control was never solved; its sPOD-G
    # solve may fail, and the run still ends as the optimizer did
    def singular(self, u):
        raise SingularMassError(3, "in the final lift")

    monkeypatch.setattr(SpodModel, "lift", singular)
    out = tmp_path / "out"
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(tiny_config_text(out=out, model="spod", modes=4, n_iter=4))
    assert run_scenario(parse_config(cfg_path), quiet=True) == 0
    meta = strict_json(out / "run_meta.json")
    assert (meta["status"], meta["iterations"]) == ("max_iter", 4)
    assert math.isfinite(meta["fom_cost"]) and meta["rom_gap"] is None
    assert not (out / "final_state.bin").exists()
    assert (out / "final_control.csv").exists() and (out / "cost_history.csv").exists()

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from romctl import build_fourier_shapes
from romctl.cli import main as cli_main
from romctl.experiments import (
    ConfigError,
    ScenarioConfig,
    TargetSpec,
    build_model,
    build_target,
    double_tilt_target,
    gaussian_initial_condition,
    parse_config,
    run_rank_study,
    run_scenario,
    single_tilt_target,
)
from romctl.fom import cost, load_snapshots_bin, solve_state
from romctl.models import ControlProblem

from conftest import coarse_grid


def tiny_config_text(**extra):
    lines = [
        "# tiny smoke scenario",
        "n = 41",
        "n_t = 30",
        "T = 5.0",
        "n_iter = 12",
        "xi = 1",
        "beta = 1e-8",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    return "\n".join(lines) + "\n"


def test_target_spec_validation():
    with pytest.raises(ConfigError):
        TargetSpec(segments=((1.2, 0.0),))
    with pytest.raises(ConfigError):
        TargetSpec(segments=((0.75, 0.0), (0.25, 1.0)))


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
    assert (cfg.n_iter, cfg.n_samples) == (20000, 800)


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


def test_run_scenario_spod_writes_spectra(tmp_path):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(tiny_config_text(out=tmp_path / "out", model="spod",
                                         modes=4, n_samples=64, n_iter=7))
    assert run_scenario(parse_config(cfg_path), quiet=True) == 0
    spectra = list((tmp_path / "out").glob("singular_values_iter*.csv"))
    assert spectra


def test_rank_study_emits_ratio_table(tmp_path):
    g_kw = dict(n=201, n_t=150)
    dx = 100.0 / g_kw["n"]
    T = g_kw["n_t"] * dx / 0.55  # unit CFL keeps shifts grid-aligned
    cfg = ScenarioConfig(n=g_kw["n"], n_t=g_kw["n_t"], T=T, xi=4, n_iter=25,
                         n_samples=64, rank_study_every=10,
                         out=str(tmp_path / "rank"), model="spod")
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


def test_cli_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("ROMCTL_THREADS", "1")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(tiny_config_text(model="pod", n_iter=6))
    code = cli_main(["sweep", str(cfg_path), "--modes", "3,5",
                     "--out", str(tmp_path / "sweep"), "--quiet"])
    assert code == 0
    assert (tmp_path / "sweep" / "modes_0003" / "cost_history.csv").exists()
    assert (tmp_path / "sweep" / "modes_0005" / "cost_history.csv").exists()


@pytest.mark.parametrize("modes, threads", [("0,3", "1"), ("2,x", "1"), ("3,5", "x")])
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
)


def test_cli_config_error_exit_code(tmp_path):
    for k, text in enumerate(BAD_CONFIGS):
        cfg_path = tmp_path / f"bad{k}.cfg"
        cfg_path.write_text(tiny_config_text() + text + "\n")
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


def test_gradient_checks_script_passes(capsys):
    # the study script README lists drives the CLI's gradient-check for all three models
    path = Path(__file__).resolve().parents[1] / "scripts" / "gradient_checks.py"
    spec = importlib.util.spec_from_file_location("gradient_checks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0, capsys.readouterr().out


def test_run_scenario_divergence_exit_code(tmp_path, recwarn):
    # step size far beyond the stability bound blows up the state solve
    cfg = ScenarioConfig(n=41, n_t=700, T=7000.0, xi=1, n_iter=5,
                         out=str(tmp_path / "diverged"))
    code = run_scenario(cfg, quiet=True)
    assert code == 3
    meta = json.loads((tmp_path / "diverged" / "run_meta.json").read_text())
    assert meta["status"] == "diverged"
    assert "fom_cost" not in meta and "rom_gap" not in meta

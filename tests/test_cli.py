"""Config-loading and command-line behavior: schema rejection, exit
codes, output formats, determinism, env/flag overrides."""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import reconphase.cli as cli
import reconphase.config as cfg
import reconphase.integrate as integrate
from reconphase import BALL, ConfigError, IntegrationDefaults
from reconphase.reconstruct import conjugacy_residuals, phase, torus_embed
from reconphase.verify import CheckReport

BALL_CONFIG = {
    "system": {"kind": "ball", "profile": [0.0, 0.5]},
    "initial_state": {"a": [0.9, -0.2], "a_dot": [0.1, 0.35], "w": 0.4},
    "sampling": {"seed": 7, "count": 2},
}
RIGID_CONFIG = {
    "system": {"kind": "rigid", "inertia": [1.0, 2.0, 3.0]},
    "initial_state": {"quat": [1.0, 0.0, 0.0, 0.0], "omega": [1.1, 0.12, 0.18]},
    "sampling": {"seed": 7, "count": 2},
}

BALL_TAU = 4.624163118538843  # frozen reference period of BALL_CONFIG


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# config loading and resolution
# ---------------------------------------------------------------------------


def test_load_config_valid(tmp_path):
    raw = cfg.load_config(write_config(tmp_path, BALL_CONFIG))
    assert raw["system"]["kind"] == BALL


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"system": ')
    with pytest.raises(ConfigError, match="not valid JSON"):
        cfg.load_config(str(path))


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        cfg.load_config("/nonexistent/nowhere.json")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("system"), "required"),
        (lambda d: d["system"].pop("profile"),
         "system.profile is required for kind 'ball'"),
        (lambda d: d["system"].__setitem__("gravity", -1.0), "gravity"),
        (lambda d: d["system"].__setitem__("inertia", [1, 2, 3]),
         "system.inertia is not a key of system for kind 'ball'"),
        (lambda d: d.__setitem__("extra_block", {}), "extra_block"),
        (lambda d: d["initial_state"].pop("a_dot"),
         "initial_state.a_dot is required for kind 'ball'"),
        # a key of the other kind is an unknown key of its block
        (lambda d: d["initial_state"].__setitem__("omega", [5, 5, 5]),
         "initial_state.omega is not a key of initial_state for kind 'ball'"),
        (lambda d: d.update(system={"kind": "rigid", "inertia": [1.0, 2.0, 3.0]},
                            initial_state={"omega": [1.1, 0.12, 0.18], "w": 0.4}),
         "initial_state.w is not a key of initial_state for kind 'rigid'"),
        (lambda d: d.update(system={"kind": "rigid", "inertia": [1.0, 2.0, 3.0]},
                            initial_state={"omega": [1.1, 0.12, 0.18], "a": [0.9, 0.0]}),
         "initial_state.a is not a key of initial_state for kind 'rigid'"),
        (lambda d: d.update(system={"kind": "rigid", "inertia": [1.0, 2.0, 3.0],
                                    "annulus": [0.2, 2.5]},
                            initial_state={"omega": [1.1, 0.12, 0.18]}),
         "system.annulus is not a key of system for kind 'rigid'"),
        (
            lambda d: d["sampling"].__setitem__("seed", -3),
            "minimum",
        ),
        # an integer is an int, not an integral float
        (lambda d: d["sampling"].__setitem__("seed", 3.0), "sampling.seed is not"),
        # a JSON true is not a number
        (lambda d: d["system"].__setitem__("gravity", True), "system.gravity is not"),
        # a 401-digit literal overflows a float
        (lambda d: d["system"].__setitem__("gravity", 10**400), "gravity is not a finite"),
        (lambda d: d.update(system={"kind": "rigid", "inertia": [1.0, 10**400, 3.0]},
                            initial_state={"omega": [1.1, 0.12, 0.18]}), "inertia.1."),
        (lambda d: d.__setitem__("integration", {"t_max": 10**400}), "integration.t_max"),
    ],
)
def test_load_config_schema_rejections(tmp_path, mutate, fragment):
    doc = json.loads(json.dumps(BALL_CONFIG))
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment):
        cfg.load_config(write_config(tmp_path, doc))
    assert run_cli("phase", "--config", write_config(tmp_path, doc), "--out",
                   str(tmp_path)) == 2


def test_rigid_cross_field_rules(tmp_path):
    doc = json.loads(json.dumps(RIGID_CONFIG))
    doc["system"]["profile"] = [0.0, 1.0]
    with pytest.raises(ConfigError,
                       match="system.profile is not a key of system for kind 'rigid'"):
        cfg.load_config(write_config(tmp_path, doc))
    assert run_cli("phase", "--config", write_config(tmp_path, doc), "--out",
                   str(tmp_path)) == 2
    doc = json.loads(json.dumps(RIGID_CONFIG))
    del doc["initial_state"]["omega"]
    with pytest.raises(ConfigError,
                       match="initial_state.omega is required for kind 'rigid'"):
        cfg.load_config(write_config(tmp_path, doc))
    assert run_cli("phase", "--config", write_config(tmp_path, doc), "--out",
                   str(tmp_path)) == 2


def test_resolve_fills_defaults_and_applies_overrides():
    resolved = cfg.resolve_config(BALL_CONFIG, env={})
    assert resolved["integration"]["rtol"] == 1e-10
    assert resolved["sampling"]["seed"] == 7
    assert resolved["output"]["dir"] == "."

    resolved = cfg.resolve_config(
        BALL_CONFIG,
        seed=123,
        out_dir="elsewhere",
        env={"RECONPHASE_RTOL": "1e-6", "RECONPHASE_TOL_PHASE": "0.5"},
    )
    assert resolved["integration"]["rtol"] == 1e-6
    assert resolved["integration"]["tol_phase"] == 0.5
    assert resolved["sampling"]["seed"] == 123
    assert resolved["output"]["dir"] == "elsewhere"


def test_config_file_integration_block_beats_defaults():
    doc = dict(BALL_CONFIG, integration={"rtol": 1e-8})
    resolved = cfg.resolve_config(doc, env={})
    assert resolved["integration"]["rtol"] == 1e-8
    # but env still beats the file
    resolved = cfg.resolve_config(doc, env={"RECONPHASE_RTOL": "1e-4"})
    assert resolved["integration"]["rtol"] == 1e-4


@pytest.mark.parametrize("value", ["fast", "-1", "0", "nan", "inf"])
def test_bad_env_value_is_config_error(tmp_path, monkeypatch, capsys, value):
    for var in ("RECONPHASE_RTOL", "RECONPHASE_ATOL", "RECONPHASE_TOL_CLOSURE",
                "RECONPHASE_TOL_PHASE"):
        with pytest.raises(ConfigError, match=var):
            cfg.resolve_config(BALL_CONFIG, env={var: value})
    monkeypatch.setenv("RECONPHASE_TOL_PHASE", value)
    config = write_config(tmp_path, BALL_CONFIG)
    assert run_cli("phase", "--config", config, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error: RECONPHASE_TOL_PHASE")
    assert not (tmp_path / "phase.json").exists()


@pytest.mark.parametrize(
    "base, block, key, value, token",
    [
        (RIGID_CONFIG, "initial_state", "omega", ["@", 0.2, 0.3], "NaN"),
        (BALL_CONFIG, "initial_state", "a_dot", [0.1, "@"], "Infinity"),
        (BALL_CONFIG, "initial_state", "a_dot", [0.1, "@"], "-Infinity"),
        (BALL_CONFIG, "integration", "tol_closure", "@", "NaN"),
        (BALL_CONFIG, "integration", "rtol", "@", "1e400"),
    ],
    ids=["omega-NaN", "a_dot-Infinity", "a_dot-minus-Infinity", "tol_closure-NaN",
         "rtol-1e400"],
)
def test_non_finite_config_number_exits_two(tmp_path, capsys, base, block, key,
                                            value, token):
    # json reads NaN/Infinity literals and overflows 1e400 to inf
    doc = json.loads(json.dumps(base))
    doc.setdefault(block, {})[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"@"', token))
    with pytest.raises(ConfigError, match="not a finite number"):
        cfg.load_config(str(path))
    assert run_cli("phase", "--config", str(path), "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "phase.json").exists()


def test_rtol_below_integrator_floor_is_config_error(tmp_path, monkeypatch, capsys):
    # error control cannot work below rounding (scipy raises a smaller rtol
    # to 100 eps with only a warning)
    floor = 100 * np.finfo(float).eps
    assert IntegrationDefaults(rtol=floor).rtol == floor
    for make in (lambda: IntegrationDefaults(rtol=1e-20),
                 lambda: IntegrationDefaults().override(rtol=1e-20)):
        with pytest.raises(ConfigError, match="floor"):
            make()
    config = write_config(tmp_path, dict(BALL_CONFIG, integration={"rtol": 1e-20}))
    assert run_cli("phase", "--config", config, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "phase.json").exists()
    monkeypatch.setenv("RECONPHASE_RTOL", "1e-20")
    config = write_config(tmp_path, BALL_CONFIG)
    assert run_cli("phase", "--config", config, "--out", str(tmp_path)) == 2
    assert "floor" in capsys.readouterr().err
    assert not (tmp_path / "phase.json").exists()


def test_all_integration_settings_round_trip():
    values = {
        "rtol": 3e-9,
        "atol": 2e-11,
        "t_max": 250.0,
        "tol_closure": 5e-6,
        "tol_phase": 4e-6,
        "min_period": 0.02,
        "v_min": 3e-4,
    }
    assert values.keys() == asdict(IntegrationDefaults()).keys()
    assert all(v != getattr(IntegrationDefaults(), k) for k, v in values.items())
    resolved = cfg.resolve_config(dict(BALL_CONFIG, integration=values), env={})
    assert cfg.build_system(resolved).defaults == IntegrationDefaults(**values)


def test_build_system_and_state_both_kinds():
    rb = cfg.resolve_config(BALL_CONFIG, env={})
    spec_b = cfg.build_system(rb)
    m_b = cfg.build_initial_state(rb, spec_b)
    assert spec_b.kind == "ball" and m_b.w == 0.4

    rr = cfg.resolve_config(RIGID_CONFIG, env={})
    spec_r = cfg.build_system(rr)
    m_r = cfg.build_initial_state(rr, spec_r)
    assert spec_r.kind == "rigid"
    assert np.allclose(m_r.omega_body, [1.1, 0.12, 0.18])


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


def run_cli(*argv):
    return cli.main(list(argv))


def test_simulate_writes_trajectory_csv(tmp_path):
    config = write_config(tmp_path, BALL_CONFIG)
    out = str(tmp_path / "out")
    assert run_cli("simulate", "--config", config, "--t-end", "3.0", "--out", out) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "# reconphase trajectory csv v1"
    assert any(line.startswith("# config:") for line in lines)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[:3] == ["t", "a1", "a2"]
    first = lines[lines.index(header) + 1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.9


def _csv_rows(path):
    lines = path.read_text().splitlines()
    return list(csv.DictReader(l for l in lines if not l.startswith("#")))


@pytest.mark.parametrize("doc", [BALL_CONFIG, RIGID_CONFIG], ids=["ball", "rigid"])
def test_simulate_csv_round_trips_every_node(tmp_path, doc):
    config = write_config(tmp_path, doc)
    assert run_cli("simulate", "--config", config, "--t-end", "2.0",
                   "--out", str(tmp_path)) == 0
    resolved = cfg.resolve_config(doc, env={})
    spec = cfg.build_system(resolved)
    traj = integrate.flow_trajectory(spec, cfg.build_initial_state(resolved, spec), 2.0)
    rows = _csv_rows(tmp_path / "trajectory.csv")
    assert list(rows[0]) == ["t", *spec.state_columns(), *spec.invariant_names()]
    assert len(rows) == len(traj.times)
    # shortest-round-trip floats reproduce the stored node states exactly
    for row, t, y in zip(rows, traj.times, traj.states):
        assert float(row["t"]) == t
        assert [float(row[c]) for c in spec.state_columns()] == list(y)
        assert float(row["energy"]) == spec.energy_y(y)


def test_phase_json_ball(tmp_path):
    config = write_config(tmp_path, BALL_CONFIG)
    assert run_cli("phase", "--config", config, "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "phase.json").read_text())
    assert doc["regular"] is True
    assert math.isclose(doc["phase"]["tau"], BALL_TAU, abs_tol=1e-9)
    assert doc["config"]["system"]["kind"] == "ball"
    assert len(doc["phase"]["eta"]) == 2
    assert len(doc["phase"]["frequencies"]) == 3


def test_phase_relative_equilibrium_exit_zero(tmp_path):
    doc = json.loads(json.dumps(RIGID_CONFIG))
    doc["initial_state"]["omega"] = [0.0, 0.0, 0.9]
    config = write_config(tmp_path, doc)
    assert run_cli("phase", "--config", config, "--out", str(tmp_path)) == 0
    out = json.loads((tmp_path / "phase.json").read_text())
    assert out["regular"] is False and out["phase"] is None
    eq = out["relative_equilibrium"]
    assert math.isclose(eq["rate"], 0.9, rel_tol=1e-12)
    assert np.allclose(eq["axis"], [0, 0, 1])


def test_torus_grid_small_residuals(tmp_path):
    config = write_config(tmp_path, RIGID_CONFIG)
    assert run_cli("torus", "--config", config, "--grid", "3",
                   "--out", str(tmp_path)) == 0
    lines = (tmp_path / "torus.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    cols = header.split(",")
    assert cols[0] == "alpha" and cols[1] == "beta_1"
    assert cols[-1] == "conjugacy_residual"
    data = [l.split(",") for l in lines[lines.index(header) + 1:]]
    assert len(data) == 9  # 3 alpha ticks x 3 beta ticks
    assert max(float(row[-1]) for row in data) < 1e-8


def test_torus_residual_column_is_the_commuting_square(tmp_path):
    config = write_config(tmp_path, BALL_CONFIG)
    assert run_cli("torus", "--config", config, "--grid", "2",
                   "--out", str(tmp_path)) == 0
    rows = _csv_rows(tmp_path / "torus.csv")
    resolved = cfg.resolve_config(BALL_CONFIG, env={})
    spec = cfg.build_system(resolved)
    p = phase(spec, cfg.build_initial_state(resolved, spec))
    points = []
    for row in rows:
        alpha = float(row["alpha"])
        beta = np.array([float(row["beta_1"]), float(row["beta_2"])])
        points.append((alpha, beta, torus_embed(spec, p, alpha, beta)))
    expected = conjugacy_residuals(spec, p, points, [cli.TORUS_PROBE])[:, 0]
    assert len(rows) == 8
    assert [float(row["conjugacy_residual"]) for row in rows] == list(expected)


def test_verify_subset_passes(tmp_path):
    config = write_config(tmp_path, RIGID_CONFIG)
    code = run_cli("verify", "--config", config,
                   "--checks", "vf_invariance,equivariance",
                   "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_passed"] is True
    assert [r["name"] for r in doc["reports"]] == ["vf_invariance", "equivariance"]
    assert all(r["verdict"] == "pass" for r in doc["reports"])
    assert "wall_time" not in doc["reports"][0]


def test_verify_unsorted_inertia_passes(tmp_path):
    doc = json.loads(json.dumps(RIGID_CONFIG))
    doc["system"]["inertia"] = [2.0, 1.0, 3.0]
    config = write_config(tmp_path, doc)
    assert run_cli("verify", "--config", config, "--checks", "vf_invariance",
                   "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["reports"][0]["verdict"] == "pass"


@pytest.mark.parametrize("inertia", [[1.0, 1.0, 2.0], [1.0, 2.0, 2.0]])
def test_verify_symmetric_top_passes(tmp_path, inertia):
    # a symmetric top has one stable-axis family; the sampler draws from it
    doc = json.loads(json.dumps(RIGID_CONFIG))
    doc["system"]["inertia"] = inertia
    config = write_config(tmp_path, doc)
    assert run_cli("verify", "--config", config, "--checks", "vf_invariance",
                   "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "verify.json").read_text())["reports"][0]
    assert report["verdict"] == "pass" and report["n_samples"] == 2


def test_verify_empty_check_list_is_ok(tmp_path):
    config = write_config(tmp_path, RIGID_CONFIG)
    assert run_cli("verify", "--config", config, "--checks", "",
                   "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["reports"] == [] and doc["all_passed"] is True


def test_verify_unknown_check_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, RIGID_CONFIG)
    assert run_cli("verify", "--config", config, "--checks", "no_such_check") == 2
    assert "unknown checks" in capsys.readouterr().err


def test_verify_check_failure_exits_one(tmp_path, monkeypatch):
    # corrupt the integrator through the documented env knobs; the
    # linearization check must then fail, not pass or skip
    monkeypatch.setenv("RECONPHASE_RTOL", "1e-2")
    monkeypatch.setenv("RECONPHASE_ATOL", "1e-2")
    monkeypatch.setenv("RECONPHASE_TOL_CLOSURE", "0.5")
    monkeypatch.setenv("RECONPHASE_TOL_PHASE", "1e30")
    config = write_config(tmp_path, RIGID_CONFIG)
    code = run_cli("verify", "--config", config, "--checks", "linearization",
                   "--out", str(tmp_path))
    assert code == 1
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["reports"][0]["verdict"] == "fail"
    assert doc["config"]["integration"]["rtol"] == 1e-2


def test_strict_turns_inconclusive_into_failure(tmp_path, monkeypatch):
    def inconclusive_check(spec, samples, tol, seed=None):
        return CheckReport(
            name="vf_invariance", system=spec.kind, sample_description="stub",
            max_residual=None, tolerance=tol, verdict="inconclusive",
            n_samples=0, n_skipped=5, seed=seed, wall_time=0.0,
        )

    monkeypatch.setitem(cli.ALL_CHECKS, "vf_invariance", inconclusive_check)
    monkeypatch.setattr(cli, "sample_points", lambda spec, rng, n: [])
    config = write_config(tmp_path, RIGID_CONFIG)
    args = ["verify", "--config", config, "--checks", "vf_invariance",
            "--out", str(tmp_path)]
    assert cli.main(args) == 0
    assert cli.main(args + ["--strict"]) == 1
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["strict"] is True and doc["all_passed"] is False


@pytest.mark.parametrize("command", [
    ["simulate", "--t-end", "1"], ["phase"], ["torus"],
    ["sweep", "--param", "w", "--values", "0,1"],
], ids=lambda command: command[0])
def test_strict_is_a_verify_option_only(tmp_path, capsys, command):
    config = write_config(tmp_path, BALL_CONFIG)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--config", config, "--out", str(tmp_path), "--strict"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_sweep_csv_content(tmp_path):
    config = write_config(tmp_path, BALL_CONFIG)
    code = run_cli("sweep", "--config", config, "--param", "w",
                   "--values", "0.2:0.6:3", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    cols = header.split(",")
    assert cols[:3] == ["value", "status", "tau"]
    assert cols[-2:] == ["closure_residual", "defining_residual"]
    rows = [l.split(",") for l in lines[lines.index(header) + 1:]]
    assert [float(r[0]) for r in rows] == [0.2, 0.4, 0.6]
    assert all(r[1] == "ok" for r in rows)
    # the w=0.4 row is exactly the base configuration
    assert math.isclose(float(rows[1][2]), BALL_TAU, abs_tol=1e-9)
    taus = [float(r[2]) for r in rows]
    assert all(math.isfinite(t) for t in taus)


def test_sweep_bad_param_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, BALL_CONFIG)
    assert run_cli("sweep", "--config", config, "--param", "omega1",
                   "--values", "0:1:3") == 2
    assert "not valid for a ball system" in capsys.readouterr().err


def test_sweep_error_rows_are_marked(tmp_path):
    # huge spin-scaling drives the orbit out of the annulus: those rows
    # must carry the error class, not poison the whole sweep
    config = write_config(tmp_path, BALL_CONFIG)
    code = run_cli("sweep", "--config", config, "--param", "speed_scale",
                   "--values", "1.0,40.0", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    rows = [l.split(",") for l in lines[lines.index(header) + 1:]]
    assert rows[0][1] == "ok"
    assert rows[1][1] in ("IntegrationError", "NotPeriodicError", "DomainError")
    assert rows[1][2] == "nan"


_ZERO_BALL = dict(BALL_CONFIG["initial_state"], a=[0, 0], a_dot=[0, 0])
_NO_ROTATION = r"\$\.initial_state\.quat is not a rotation: quaternion norm too small"


def _with_quat(doc, quat):
    return dict(doc, initial_state=dict(doc["initial_state"], quat=quat))


@pytest.mark.parametrize("command", [["phase"], ["simulate", "--t-end", "1"],
                                     ["torus", "--grid", "2"]],
                         ids=["phase", "simulate", "torus"])
@pytest.mark.parametrize("doc, where", [
    (_with_quat(RIGID_CONFIG, [0, 0, 0, 0]), _NO_ROTATION),
    (_with_quat(BALL_CONFIG, [1e-300, 0, 0, 0]), _NO_ROTATION),
    (dict(BALL_CONFIG, initial_state=_ZERO_BALL),
     r"\$\.initial_state is not a phase point: \(a, a_dot\) = 0 is outside"),
    (_with_quat(RIGID_CONFIG, [1e200, 0, 0, 0]),
     r"\$\.initial_state\.quat is not a rotation: quaternion norm is not finite"),
    # the rigid body's omega is not a key of a ball's initial_state
    (dict(BALL_CONFIG, initial_state=dict(BALL_CONFIG["initial_state"], omega=[5, 5, 5])),
     r"config '[^']*': \$\.initial_state\.omega is not a key of initial_state "
     r"for kind 'ball'"),
], ids=["zero-quat", "tiny-quat", "zero-ball", "huge-quat", "ball-omega"])
def test_an_invalid_initial_state_exits_2_and_writes_nothing(tmp_path, capsys,
                                                             command, doc, where):
    config = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run_cli(*command, "--config", config, "--out", str(out)) == 2
    assert re.match(r"config error: " + where, capsys.readouterr().err)
    assert not out.exists()


def test_sweep_an_invalid_row_is_marked_and_an_invalid_base_exits_2(tmp_path, capsys):
    # radius_scale 0 zeroes a, which with a_dot = 0 leaves the phase
    # space: that row reads ConfigError and the sweep goes on
    base = dict(BALL_CONFIG["initial_state"], a_dot=[0, 0])
    config = write_config(tmp_path, dict(BALL_CONFIG, initial_state=base))
    assert run_cli("sweep", "--config", config, "--param", "radius_scale",
                   "--values", "1,0,0.5", "--out", str(tmp_path)) == 0
    rows = _csv_rows(tmp_path / "sweep.csv")
    assert [row["status"] == "ConfigError" for row in rows] == [False, True, False]
    assert all(v == "nan" for k, v in rows[1].items() if k not in ("value", "status"))
    # an invalid base point is a config error, whatever the values
    config = write_config(tmp_path, dict(BALL_CONFIG, initial_state=_ZERO_BALL))
    out = tmp_path / "base"
    assert run_cli("sweep", "--config", config, "--param", "w",
                   "--values", "0.2,0.4", "--out", str(out)) == 2
    assert "$.initial_state is not a phase point" in capsys.readouterr().err
    assert not out.exists()


def test_exit_codes_for_bad_configs(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli("phase", "--config", missing) == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"kind": "ball"}}))
    assert run_cli("phase", "--config", str(bad)) == 2
    capsys.readouterr()


def test_runtime_error_exit_code(tmp_path, capsys):
    doc = {
        "system": {"kind": "ball", "profile": [0.0, 0.5], "annulus": [0.2, 1.0]},
        "initial_state": {"a": [0.9, -0.2], "a_dot": [1.5, 1.5], "w": 0.4},
    }
    config = write_config(tmp_path, doc)
    assert run_cli("simulate", "--config", config, "--t-end", "10.0",
                   "--out", str(tmp_path)) == 3
    assert "runtime error" in capsys.readouterr().err


def test_start_without_a_first_step_exit_code(tmp_path, capsys):
    # the field at this finite start overflows its error scale
    doc = dict(BALL_CONFIG, initial_state={"a": [1.0, 0.0], "a_dot": [0.0, 1e75]})
    config = write_config(tmp_path, doc)
    assert run_cli("phase", "--config", config, "--out", str(tmp_path)) == 3
    assert "runtime error: IntegrationError: no first step" in capsys.readouterr().err


def test_failed_crossing_refinement_is_typed(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise RuntimeError("Failed to converge after 100 iterations")

    monkeypatch.setattr(integrate, "brentq", no_convergence)
    config = write_config(tmp_path, BALL_CONFIG)
    assert run_cli("phase", "--config", config, "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    # the message keeps the bracket the refinement was given
    assert re.search(r"runtime error: SectionRefinementError: section crossing "
                     r"in \[\d\S*, \d\S*\] was not refined", err)
    assert "Failed to converge after 100 iterations" in err


def test_nan_section_value_in_the_refinement_is_typed(tmp_path, capsys, monkeypatch):
    # the section function reads NaN strictly inside the refinement's
    # bracket only (the scan and the bracket's ends read it as they are):
    # brentq raises RuntimeError, which the period search types as
    # SectionRefinementError (exit 3)
    brentq = integrate.brentq

    def nan_inside(f, xa, xb, **kwargs):
        return brentq(lambda x: math.nan if xa < x < xb else f(x), xa, xb, **kwargs)

    monkeypatch.setattr(integrate, "brentq", nan_inside)
    config = write_config(tmp_path, BALL_CONFIG)
    assert run_cli("phase", "--config", config, "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert re.search(r"runtime error: SectionRefinementError: section crossing "
                     r"in \[\d\S*, \d\S*\] was not refined: The function value "
                     r"at x=\d\S* is NaN; solver cannot continue.", err)


def test_the_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter runs the CLI import, loads, resolves and builds a
    # config, and runs one phase(), one flow_many batch and one orbit
    # distance importing nothing beyond numpy and the standard library: no
    # scipy module and no JSON-schema engine
    code = """
import sys
started = set(sys.modules)
import numpy as np
import reconphase.cli
from reconphase import (
    ball_point, config, flow_many, make_ball_system, phase,
    reduced_orbit_distance, SurfaceProfile,
)
config.build_system(config.resolve_config(config.load_config(sys.argv[1])))
spec = make_ball_system(SurfaceProfile((0.0, 0.5)))
m = ball_point(spec, (0.9, -0.2), (0.1, 0.35), w=0.4)
p = phase(spec, m)
flow_many(spec, np.column_stack([m.y, m.y]), np.array([0.5, 1.0]))
reduced_orbit_distance(spec, p, p._trajectory.eval(0.3 * p.tau))
loaded = {k.split(".")[0] for k in set(sys.modules) - started}
print(sorted(loaded - sys.stdlib_module_names - {"numpy", "reconphase"}))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code, write_config(tmp_path, BALL_CONFIG)],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_sampler_exhaustion_exit_code(tmp_path, capsys):
    # a spherical body has family margin 0 for every draw, so the rigid
    # sampler rejects them all and runs out of budget
    doc = dict(RIGID_CONFIG, system={"kind": "rigid", "inertia": [1.0, 1.0, 1.0]})
    config = write_config(tmp_path, doc)
    assert run_cli("verify", "--config", config, "--checks", "all",
                   "--out", str(tmp_path)) == 3
    assert "SamplerExhaustedError" in capsys.readouterr().err


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    config = write_config(tmp_path, RIGID_CONFIG)
    out = str(tmp_path / "o")
    run_cli("phase", "--config", config, "--out", out)
    first = (tmp_path / "o" / "phase.json").read_bytes()
    run_cli("phase", "--config", config, "--out", out)
    assert (tmp_path / "o" / "phase.json").read_bytes() == first

    run_cli("verify", "--config", config, "--checks", "vf_invariance", "--out", out)
    v1 = (tmp_path / "o" / "verify.json").read_bytes()
    run_cli("verify", "--config", config, "--checks", "vf_invariance", "--out", out)
    assert (tmp_path / "o" / "verify.json").read_bytes() == v1


def test_seed_flag_changes_embedded_config(tmp_path):
    config = write_config(tmp_path, RIGID_CONFIG)
    out = str(tmp_path / "o")
    run_cli("verify", "--config", config, "--checks", "", "--out", out)
    doc = json.loads((tmp_path / "o" / "verify.json").read_text())
    assert doc["config"]["sampling"]["seed"] == 7
    run_cli("verify", "--config", config, "--checks", "", "--seed", "99",
            "--out", out)
    doc = json.loads((tmp_path / "o" / "verify.json").read_text())
    assert doc["config"]["sampling"]["seed"] == 99


def test_no_stray_temp_files(tmp_path):
    config = write_config(tmp_path, RIGID_CONFIG)
    out = tmp_path / "o"
    run_cli("phase", "--config", config, "--out", str(out))
    assert sorted(p.name for p in out.iterdir()) == ["phase.json"]


def test_values_parser():
    assert cli._parse_values("0:1:3") == [0.0, 0.5, 1.0]
    assert cli._parse_values("0.5,2.5") == [0.5, 2.5]
    with pytest.raises(Exception):
        cli._parse_values("0:1")
    # given or generated: -1e308:1e308:3 overflows its span to [nan, inf, inf]
    for text in ("nan", "inf", "0.5,-inf", "0:inf:3", "-1e308:1e308:3"):
        with pytest.raises(argparse.ArgumentTypeError, match="not finite"):
            cli._parse_values(text)


@pytest.mark.parametrize("values", ["nan", "-1e308:1e308:3"])
def test_sweep_non_finite_values_exit_2(tmp_path, capsys, values):
    config = write_config(tmp_path, BALL_CONFIG)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", config, "--param", "w", f"--values={values}",
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "is not finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]

"""Self-consistency of the benchmark's trace and inputs.

Run from the root of a checkout:  python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_METRICS = (
    "dynsys.rhs_calls", "dynsys.act_calls", "dynsys.unpack_calls",
    "liegroup.rotation_objects", "integrate.period_search_calls",
    "integrate.steps_accepted", "integrate.steps_rejected",
    "integrate.rhs_evals_per_phase", "integrate.flow_calls",
    "integrate.flow_horizon_tau", "reconstruct.phase_calls",
    "reconstruct.phase_calls_per_sample", "reconstruct.chart_calls",
    "reconstruct.orbit_distance_calls", "verify.sampler_accept_ratio",
)


def traced_round(name, tmp_path, seed=5, k=0):
    wl = WORKLOADS[name]
    tally, tracer = run.Tally(), Tracer()
    with tracer:
        tally.run_round(wl, seed, k, tmp_path, tracer)
    assert tally.n_failed == 0
    return tally, tracer


def test_sweep_has_one_phase_span_per_value(tmp_path):
    tally, tracer = traced_round("sweep", tmp_path)
    snap = tracer.snapshot()
    for system in ("ball", "rigid"):
        spans = [s for s in snap.named("reconstruct.phase")
                 if s.item == f"0:{system}"]
        items = sum(r["items"] for r in tally.records if r["system"] == system)
        assert len(spans) == items == 12


def test_wrapped_rhs_calls_equal_trajectory_evaluations(tmp_path):
    _, tracer = traced_round("sweep", tmp_path)
    snap = tracer.snapshot()
    evals = sum(s.extra["rhs_evals"] for s in snap.named("reconstruct.phase"))
    assert snap.calls["dynsys.rhs"] == evals > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(tmp_path, name):
    metrics = []
    for attempt in range(2):
        tally, tracer = traced_round(name, tmp_path / str(attempt))
        metrics.append(layer_metrics(tracer.snapshot(), tally.attempted))
    for key in COUNT_METRICS:
        assert metrics[0][key] == metrics[1][key], key


def test_tracer_restores_every_patch(tmp_path):
    from reconphase import cli, dynsys, liegroup, reconstruct, verify

    before = (dynsys.SystemSpec.rhs, liegroup.Rotation.__init__, reconstruct.phase,
              verify.phase, cli.phase, dict(verify.ALL_CHECKS))
    tracer = Tracer()
    with tracer:
        assert reconstruct.phase is not before[2]
        assert tracer.missing == []
    after = (dynsys.SystemSpec.rhs, liegroup.Rotation.__init__, reconstruct.phase,
             verify.phase, cli.phase, dict(verify.ALL_CHECKS))
    assert after == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(tmp_path, name):
    make = WORKLOADS[name].make_round
    same = [j.config for j in make(3, 1, tmp_path / "a")]
    again = [j.config for j in make(3, 1, tmp_path / "b")]
    other = [j.config for j in make(4, 1, tmp_path / "c")]
    assert json.dumps(same) == json.dumps(again) != json.dumps(other)


def test_readme_phase_matches_baseline():
    """One phase() on the README ball config, against the counts recorded
    at the seed commit in baseline.json."""
    from reconphase import ball_point, make_ball_system, phase, SurfaceProfile

    base = json.loads((BENCH / "baseline.json").read_text())["readme_phase"]
    spec = make_ball_system(SurfaceProfile((0.0, 0.5)))
    p = phase(spec, ball_point(spec, a=[0.9, -0.2], a_dot=[0.1, 0.35], w=0.4))
    traj = p._trajectory
    assert traj.n_accepted == base["steps_accepted"] == 28
    assert traj.n_rhs_evals == base["rhs_evals"] == 558
    assert traj.n_rejected == base["steps_rejected"]

"""Integrator and period-detector tests.

Oracles: flow semigroup property, closed-form steady rotation of the
rigid body, the linearized small-oscillation period of Euler's
equations near a stable axis, re-integration at a tighter tolerance,
and flow() for the lockstep batch, which must give its bits.
"""

import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconphase.cli import TORUS_PROBE
from reconphase.dynsys import (
    IntegrationDefaults,
    SurfaceProfile,
    SystemSpec,
    act,
    ball_point,
    make_ball_system,
    make_rigid_body,
    rigid_point,
    state_distance,
)
from reconphase.errors import (
    DomainError,
    IntegrationError,
    NotPeriodicError,
    PeriodNotFoundError,
)
from reconphase.integrate import (
    _lockstep,
    _Marcher,
    _period_search,
    find_reduced_period,
    flow,
    flow_many,
    flow_trajectory,
)
from reconphase.liegroup import GroupElement, Rotation, exp_so3
from reconphase.reconstruct import phase, torus_embed
from reconphase.verify import sample_points


@pytest.fixture(scope="module")
def ball():
    return make_ball_system(SurfaceProfile((0.0, 0.5)))


@pytest.fixture(scope="module")
def rigid():
    return make_rigid_body((1.0, 2.0, 3.0))


@pytest.fixture(scope="module")
def mball(ball):
    rng = np.random.default_rng(1)
    return ball_point(ball, (0.9, -0.2), (0.1, 0.35), Rotation(rng.normal(size=4)), 0.4)


@pytest.fixture(scope="module")
def mrigid(rigid):
    rng = np.random.default_rng(2)
    return rigid_point(rigid, Rotation(rng.normal(size=4)), (1.1, 0.2, 0.15))


# ----------------------------------------------------------------------
# flow
# ----------------------------------------------------------------------


def test_flow_zero_time_is_identity(ball, mball):
    assert flow(ball, mball, 0.0) is mball


def test_flow_semigroup(ball, mball):
    m12 = flow(ball, flow(ball, mball, 1.7), 2.3)
    m_direct = flow(ball, mball, 4.0)
    assert state_distance(m12, m_direct) < 1e-8


def test_flow_backward_inverts_forward(ball, mball):
    m_fwd = flow(ball, mball, 3.0)
    m_back = flow(ball, m_fwd, -3.0)
    assert state_distance(m_back, mball) < 1e-9


def test_rigid_steady_rotation_closed_form(rigid):
    # principal-axis rotation: Q(t) = exp(t * omega_spatial) Q0
    rng = np.random.default_rng(3)
    Q0 = Rotation(rng.normal(size=4))
    omega_body = np.array([0.0, 0.0, 0.8])
    m = rigid_point(rigid, Q0, omega_body)
    t = 2.37
    mt = flow(rigid, m, t)
    omega_spatial = Q0.apply(omega_body)
    expected = exp_so3(t * omega_spatial) @ Q0
    assert mt.Q.distance(expected) < 1e-9
    np.testing.assert_allclose(mt.omega_body, omega_body, atol=1e-12)


def test_flow_integration_error_on_domain_exit(ball):
    m = ball_point(ball, (1.4, 0.0), (2.5, 0.0), Rotation.identity(), 0.0)
    with pytest.raises(IntegrationError) as exc:
        flow(ball, m, 10.0)
    # the error carries the last valid state, still inside the annulus
    last = exc.value.last_state
    assert last is not None
    assert np.linalg.norm(last.a) <= 2.5 + 1e-9


def test_flow_rejects_bad_start(ball):
    m = ball_point(ball, (5.0, 0.0), (0.0, 0.1), Rotation.identity(), 0.0)
    with pytest.raises(IntegrationError):
        flow(ball, m, 1.0)


@pytest.mark.parametrize("run", [lambda s, m: flow(s, m, 1.0), phase],
                         ids=["flow", "phase"])
def test_infinite_velocity_is_a_typed_domain_exit(ball, run):
    # phase() tests the domain before any arithmetic on the start
    m = ball_point(ball, (0.5, 0.0), (math.inf, 0.0))
    with pytest.raises(IntegrationError, match="initial state outside the domain") as exc:
        run(ball, m)
    assert isinstance(exc.value.__cause__, DomainError)
    assert str(exc.value.__cause__) == "velocity a_dot = (inf, 0) is not finite"


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_flow_builds_no_dense_output_and_keeps_its_steps(kind, ball, rigid, mball, mrigid):
    # flow() skips the interpolant (3 RHS evaluations per step) and so
    # steps exactly like the trajectory-keeping march
    spec, m = (ball, mball) if kind == "ball" else (rigid, mrigid)
    kept = flow_trajectory(spec, m, 5.0)
    bare = _Marcher(spec, spec.pack(m), 5.0, 1e-10, 1e-12).run()
    assert bare.segments == [] and len(kept.segments) == kept.n_accepted
    assert bare.times == kept.times
    assert np.array_equal(bare.states, kept.states)
    assert bare.n_rhs_evals == kept.n_rhs_evals - 3 * kept.n_accepted
    end = spec.unpack(kept.states[-1])
    assert np.array_equal(spec.pack(flow(spec, m, 5.0)), spec.pack(end))


# ----------------------------------------------------------------------
# lockstep batch
# ----------------------------------------------------------------------


def _packed(spec, points):
    return np.column_stack([spec.pack(x) for x in points])


@pytest.fixture(scope="module")
def batch_inputs(ball, rigid, mball, mrigid):
    """(spec, starts, horizons) of the torus subcommand's probes (grid 3
    for the ball, 5 for the rigid body) and of check_linearization's
    3 x 3 x 3 (alpha, beta, t) grid, by system and name."""
    out = {}
    for kind, spec, m, grid in (("ball", ball, mball, 3), ("rigid", rigid, mrigid, 5)):
        p = phase(spec, m)
        rank = p.eta.size
        ticks = [i / grid for i in range(grid)]
        probes = [torus_embed(spec, p, al, np.array(be))
                  for al in ticks for be in itertools.product(ticks, repeat=rank)]
        out[kind, "probe"] = (spec, _packed(spec, probes),
                              np.full(len(probes), TORUS_PROBE * p.tau))
        betas = [np.zeros(rank), np.full(rank, 0.3), np.full(rank, 0.7)]
        chart = [torus_embed(spec, p, al, be) for al in (0.0, 1 / 3, 2 / 3) for be in betas]
        fracs = np.array([0.15, 0.45, 0.75])
        out[kind, "grid"] = (spec, np.repeat(_packed(spec, chart), 3, axis=1),
                             np.tile(fracs * p.tau, len(chart)))
    return out


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_flow_many_columns_are_independent_of_their_batch(kind, batch_inputs):
    spec, ys, ts = batch_inputs[kind, "grid"]
    assert ys.shape[1] == 27
    full = flow_many(spec, ys, ts)
    for j in range(27):
        assert np.array_equal(flow_many(spec, ys[:, [j]], ts[[j]])[:, 0], full[:, j])
    for lo in range(0, 27, 7):
        cols = slice(lo, lo + 7)
        assert np.array_equal(flow_many(spec, ys[:, cols], ts[cols]), full[:, cols])
    perm = np.random.default_rng(5).permutation(27)
    assert np.array_equal(flow_many(spec, ys[:, perm], ts[perm]), full[:, perm])


def _assert_columns_equal_flow(spec, xs, ts):
    """flow_many from the points ``xs`` to the horizons ``ts`` ends, column
    by column, on the bits of flow().  The batch starts from each x.y,
    as flow() does: unpack renormalises."""
    ends = flow_many(spec, _packed(spec, xs), np.asarray(ts, dtype=float))
    for x, t, y_end in zip(xs, ts, ends.T):
        assert np.array_equal(spec.unpack(y_end).y, flow(spec, x, t).y)


@pytest.mark.parametrize("kind, inputs", list(itertools.product(["ball", "rigid"],
                                                                ["probe", "grid"])))
def test_flow_many_agrees_with_flow(kind, inputs, batch_inputs):
    spec, ys, ts = batch_inputs[kind, inputs]
    _assert_columns_equal_flow(spec, [spec.unpack(y) for y in ys.T], ts)


@pytest.fixture(scope="module")
def sampled(ball, rigid):
    """(spec, sampler points, their periods) of both systems."""
    out = {}
    for spec in (ball, rigid):
        points = sample_points(spec, np.random.default_rng(11), 4)
        out[spec.kind] = (spec, points, [phase(spec, x).tau for x in points])
    return out


@pytest.mark.parametrize("kind, n", list(itertools.product(["ball", "rigid"], [1, 5, 17])))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_flow_many_equals_flow_on_sampler_points(kind, n, data, sampled):
    spec, points, taus = sampled[kind]
    picks = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=n, max_size=n))
    # a zero horizon returns the start unrenormalised (flow_many's own test)
    fracs = data.draw(st.lists(st.floats(0.0, 2.0, exclude_min=True),
                               min_size=n, max_size=n))
    _assert_columns_equal_flow(spec, [points[i] for i in picks],
                               [f * taus[i] for i, f in zip(picks, fracs)])


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_flow_many_step_counts_equal_the_marchers(kind, batch_inputs, monkeypatch):
    # A one-column batch takes its f and first step from a marcher (2
    # scalar RHS calls), then makes 12 column RHS calls per attempt and,
    # after each accepted step, one recompute at the renormalized state,
    # whose input repeats the previous call's outside the quaternion slot.
    spec, ys, ts = batch_inputs[kind, "probe"]
    calls, scalar_calls = [], []
    rhs, rhs_columns = SystemSpec.rhs, SystemSpec.rhs_columns

    def counting(self, states):
        calls.append(np.array(states))
        return rhs_columns(self, states)

    def counting_scalar(self, t, y):
        scalar_calls.append(t)
        return rhs(self, t, y)

    monkeypatch.setattr(SystemSpec, "rhs_columns", counting)
    monkeypatch.setattr(SystemSpec, "rhs", counting_scalar)
    rest = np.ones(spec.nstate, dtype=bool)
    rest[spec.quat_slice] = False
    for j in range(ys.shape[1]):
        calls.clear()
        scalar_calls.clear()
        flow_many(spec, ys[:, [j]], ts[[j]])
        assert len(scalar_calls) == 2
        accepted = sum(np.array_equal(a[rest], b[rest]) for a, b in zip(calls, calls[1:]))
        rejected, rem = divmod(len(calls) - 13 * accepted, 12)
        traj = _Marcher(spec, ys[:, j], ts[j], 1e-10, 1e-12).run()
        assert rem == 0
        assert (accepted, rejected) == (traj.n_accepted, traj.n_rejected)


def test_flow_many_domain_exit_fails_its_column_only(ball, mball):
    # columns 1 and 3 leave the annulus, column 3 earlier in time; the
    # batch raises column 1's error and the others finish untouched
    escape = [ball_point(ball, (1.4, 0.0), (2.5, 0.0)),
              ball_point(ball, (2.3, 0.0), (2.5, 0.0))]
    start = [mball, escape[0], flow(ball, mball, 1.0), escape[1]]
    ys, ts = _packed(ball, start), np.array([3.0, 10.0, 2.0, 10.0])
    scalar = []
    for x in escape:
        with pytest.raises(IntegrationError) as exc:
            flow(ball, x, 10.0)
        scalar.append(exc.value)
    assert scalar[1].t < scalar[0].t
    with pytest.raises(IntegrationError) as exc:
        flow_many(ball, ys, ts)
    err = exc.value
    assert str(err).startswith("trajectory left the domain: center radius")
    assert str(err) == str(scalar[0])
    assert err.t == scalar[0].t > 0.4
    assert np.array_equal(err.last_state.y, scalar[0].last_state.y)
    assert np.linalg.norm(err.last_state.a) <= 2.5
    assert isinstance(err.__cause__, DomainError)
    assert str(err.__cause__) == str(scalar[0].__cause__)

    out, failed = _lockstep(ball, ys, ts, 1e-10, 1e-12)
    assert failed == {1, 3}
    for j in (0, 2):
        assert np.array_equal(out[:, j], flow_many(ball, ys[:, [j]], ts[[j]])[:, 0])
    assert np.array_equal(out[:, [1, 3]], ys[:, [1, 3]])


def test_flow_many_zero_horizon_returns_start(ball, mball):
    # as flow(m, 0) returns m, even a start outside the domain
    outside = ball_point(ball, (5.0, 0.0), (0.0, 0.1))
    ys = _packed(ball, [mball, mball, outside])
    ends = flow_many(ball, ys, np.array([0.0, 1.5, 0.0]))
    assert np.array_equal(ends[:, [0, 2]], ys[:, [0, 2]])
    assert np.array_equal(ends[:, 1], flow_many(ball, ys[:, [1]], np.array([1.5]))[:, 0])
    with pytest.raises(IntegrationError, match="initial state outside the domain"):
        flow_many(ball, ys, np.array([0.0, 1.5, 1.0]))


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_flow_many_rejects_bad_horizons(ball, mball, bad):
    ys = _packed(ball, [mball, mball])
    with pytest.raises(ValueError):
        flow_many(ball, ys, np.array([1.0, bad]))


def test_flow_many_rejects_bad_shapes(ball, mball):
    ys = _packed(ball, [mball, mball])
    with pytest.raises(ValueError):
        flow_many(ball, ys[:8], np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        flow_many(ball, ys, np.array([1.0]))


# ----------------------------------------------------------------------
# trajectories and dense output
# ----------------------------------------------------------------------


def test_trajectory_nodes_and_dense_output(ball, mball):
    traj = flow_trajectory(ball, mball, 5.0)
    times = np.array(traj.times)
    assert np.all(np.diff(times) > 0)
    for t, y in zip(traj.times, traj.states):
        assert np.abs(traj.eval_y(t) - y).max() < 1e-12
        assert abs(np.linalg.norm(y[4:8]) - 1.0) < 1e-12
    assert traj.n_accepted == len(traj.times) - 1
    assert traj.n_rhs_evals > 12 * traj.n_accepted


def test_dense_eval_matches_tighter_reintegration(ball, mball):
    traj = flow_trajectory(ball, mball, 5.0, rtol=1e-10, atol=1e-12)
    k = len(traj.times) // 2
    tq = 0.5 * (traj.times[k] + traj.times[k + 1])
    m_interp = traj.eval(tq)
    m_exact = flow(ball, mball, tq, rtol=1e-12, atol=1e-14)
    assert state_distance(m_interp, m_exact) < 1e-9


def test_dense_eval_out_of_span(ball, mball):
    traj = flow_trajectory(ball, mball, 1.0)
    with pytest.raises(ValueError):
        traj.eval(1.5)
    with pytest.raises(ValueError):
        traj.eval(-0.1)
    with pytest.raises(ValueError):
        traj.eval_y(np.array([0.2, 1.5, 0.7]))
    with pytest.raises(ValueError):
        traj.eval_y(np.array([-0.1, 0.5]))


def test_dense_eval_on_arrays_equals_scalar_calls(ball, mball):
    traj = flow_trajectory(ball, mball, 5.0)
    nodes = np.array(traj.times)
    interior = 0.3 * nodes[:-1] + 0.7 * nodes[1:]
    rng = np.random.default_rng(4)
    # unsorted, with repeats and both ends of the span
    ts = np.concatenate(
        [nodes[::-1], interior, [traj.t0, traj.t1, traj.t0], rng.uniform(0.0, 5.0, 40)]
    )
    ys = traj.eval_y(ts)
    assert ys.shape == (ball.nstate, ts.size)
    assert np.array_equal(ys, np.column_stack([traj.eval_y(t) for t in ts]))


def test_dense_eval_on_arrays_without_steps(rigid, mrigid):
    traj = flow_trajectory(rigid, mrigid, 0.0)
    assert traj.n_accepted == 0
    ys = traj.eval_y(np.array([0.0, 0.0, 0.0]))
    assert np.array_equal(ys, np.column_stack([traj.eval_y(0.0)] * 3))
    with pytest.raises(ValueError):
        traj.eval_y(np.array([0.0, 1e-9]))


# ----------------------------------------------------------------------
# period detection
# ----------------------------------------------------------------------


def test_ball_period_closure(ball, mball):
    pr = find_reduced_period(ball, mball)
    assert pr.tau > 1e-3
    assert pr.closure_residual < 1e-7
    assert pr.crossing_refinement_iterations >= 1
    # independent confirmation: the reduced state at tau matches the start
    y0 = ball.pack(mball)
    ytau = ball.pack(flow(ball, mball, pr.tau))
    assert np.linalg.norm(ball.reduce_y(ytau) - ball.reduce_y(y0)) < 1e-8


def test_rigid_linearized_period_near_stable_axis(rigid):
    # small oscillation about e1 for inertia (1,2,3):
    # omega^2 = Omega1^2 (I2-I1)(I3-I1)/(I2 I3) => tau = 2 pi sqrt(3)/Omega1
    m = rigid_point(rigid, Rotation.identity(), (1.0, 0.01, 0.01))
    pr = find_reduced_period(rigid, m)
    assert pr.tau == pytest.approx(2 * math.pi * math.sqrt(3), rel=1e-2)


def test_period_is_orbit_intrinsic(ball, mball):
    pr = find_reduced_period(ball, mball)
    m_shift = flow(ball, mball, 0.3 * pr.tau)
    pr2 = find_reduced_period(ball, m_shift)
    assert abs(pr2.tau - pr.tau) < 1e-8 * pr.tau


def test_period_is_group_invariant(ball, mball):
    pr = find_reduced_period(ball, mball)
    g = GroupElement(1.1, exp_so3(np.array([0.3, -0.2, 0.5])))
    pr2 = find_reduced_period(ball, act(g, mball))
    assert abs(pr2.tau - pr.tau) < 1e-8 * pr.tau


def test_period_rejects_reduced_equilibrium(rigid):
    m = rigid_point(rigid, Rotation.identity(), (0.8, 0.0, 0.0))
    with pytest.raises(PeriodNotFoundError):
        find_reduced_period(rigid, m)


def test_near_separatrix_rigid_orbits_end_quickly(rigid, monkeypatch):
    # long period close to the separatrix, but no grind on to t_max
    m = rigid_point(rigid, Rotation.identity(), (1e-3, 1.0, 1e-3))
    assert abs(find_reduced_period(rigid, m).tau - 55.061681108135716) < 1e-6
    # closer still the reduced speed falls below the v_min gate, which
    # answers before the integrator takes a step
    def no_step(self, t, y):
        raise AssertionError("the v_min gate let an integration start")

    monkeypatch.setattr(SystemSpec, "rhs", no_step)
    m = rigid_point(rigid, Rotation.identity(), (1e-6, 1.0, 1e-6))
    with pytest.raises(PeriodNotFoundError, match="below v_min"):
        find_reduced_period(rigid, m)


def test_period_not_found_within_t_max(ball, mball):
    with pytest.raises(PeriodNotFoundError):
        find_reduced_period(ball, mball, t_max=1.0)


def test_not_periodic_when_closure_unattainable(ball, mball):
    # an impossible closure tolerance turns every crossing into a miss
    with pytest.raises(NotPeriodicError) as exc:
        find_reduced_period(ball, mball, tol_closure=1e-16, t_max=30.0)
    assert exc.value.best_residual < 1e-9


def test_energy_drift_below_contract_over_one_period(ball, rigid, mball, mrigid):
    for spec, m in ((ball, mball), (rigid, mrigid)):
        settings = spec.defaults.override(rtol=1e-10, atol=1e-12)
        pr, traj = _period_search(spec, m, settings)
        E0 = spec.energy_y(spec.pack(m))
        drift = max(abs(spec.energy_y(y) - E0) for y in traj.states)
        assert drift / abs(E0) < 1e-9


# ----------------------------------------------------------------------
# integration settings
# ----------------------------------------------------------------------


def test_override_replaces_only_given_settings():
    d = IntegrationDefaults()
    assert d.override() is d
    assert d.override(rtol=None, t_max=None) is d
    o = d.override(rtol=1e-8, v_min=None, t_max=5.0)
    assert o == IntegrationDefaults(rtol=1e-8, t_max=5.0)


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_explicit_default_settings_equal_none(kind, ball, rigid, mball, mrigid):
    spec, m = (ball, mball) if kind == "ball" else (rigid, mrigid)
    written = asdict(spec.defaults)
    p_none, p_explicit = phase(spec, m), phase(spec, m, **written)
    assert p_explicit.to_dict() == p_none.to_dict()
    assert np.array_equal(p_explicit._trajectory.states, p_none._trajectory.states)
    assert find_reduced_period(spec, m, **written) == find_reduced_period(spec, m)
    tol = dict(rtol=written["rtol"], atol=written["atol"])
    for t in (2.1, -1.3):
        explicit = spec.pack(flow(spec, m, t, **tol))
        assert np.array_equal(explicit, spec.pack(flow(spec, m, t)))
    assert np.array_equal(flow_trajectory(spec, m, 2.1, **tol).states,
                          flow_trajectory(spec, m, 2.1).states)
    # and a setting that differs from the default does reach the search
    assert find_reduced_period(spec, m, rtol=1e-8).tau != p_none.tau


def test_unknown_setting_raises_type_error(ball, mball):
    with pytest.raises(TypeError):
        IntegrationDefaults().override(rtool=1e-9)
    with pytest.raises(TypeError):
        IntegrationDefaults().override(rtool=None)
    with pytest.raises(TypeError):
        phase(ball, mball, rtool=1e-9)
    with pytest.raises(TypeError):
        find_reduced_period(ball, mball, tol_closures=None)
    with pytest.raises(TypeError):
        flow(ball, mball, 1.0, tol_closure=1e-7)


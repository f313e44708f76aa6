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
    ConfigError,
    DomainError,
    IntegrationError,
    NotPeriodicError,
    PeriodNotFoundError,
)
from reconphase.integrate import (
    _lockstep,
    _Marcher,
    _period_search,
    _Section,
    _Segment,
    Trajectory,
    brentq,
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


def test_backward_flow_failure_time_is_signed(ball):
    # the mirror image of the forward escape above: the same march, at
    # negative times, so the error and its domain cause report t < 0
    m = ball_point(ball, (1.4, 0.0), (-2.5, 0.0), Rotation.identity(), 0.0)
    with pytest.raises(IntegrationError) as exc:
        flow(ball, m, -10.0)
    assert exc.value.t == -0.5329057165439738
    assert isinstance(exc.value.__cause__, DomainError)
    assert exc.value.__cause__.t < 0.0


@pytest.mark.parametrize("run", ["flow", "flow_many", "phase"])
@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_a_field_beyond_its_error_scale_leaves_no_first_step(kind, run, ball, rigid):
    # a finite start whose field overflows the first step's error norm
    # gets step size 0; it fails at t = 0 with a typed error instead of
    # dividing by that step.  On the later starts the period search's
    # norm of the reduced velocity overflows too, and on the last rigid
    # one the reduced velocity itself
    if kind == "ball":
        spec = ball
        starts = [ball_point(ball, (1.0, 0.0), (0.0, a_dot)) for a_dot in (1e75, 1e78)]
    else:
        spec = rigid
        starts = [rigid_point(rigid, Rotation.identity(), omega)
                  for omega in ((1e150, 0.2, 0.3), (1e150,) * 3, (1e160,) * 3)]
    for m in starts:
        with pytest.raises(IntegrationError, match="^no first step") as exc:
            if run == "flow":
                flow(spec, m, 1.0)
            elif run == "flow_many":
                flow_many(spec, _packed(spec, [m, m]), np.array([0.0, 1.0]))
            else:
                phase(spec, m)
        assert exc.value.t == 0.0
        assert np.array_equal(exc.value.last_state.y, m.y)


def test_a_field_that_turns_infinite_mid_march_underflows_the_step(rigid, monkeypatch):
    # the field reads inf after t = 0.5: every attempt that reaches past
    # it has a NaN error norm and is cut by the minimum factor until the
    # step underflows just short of 0.5.  A batch column fails with the
    # same error, on numpy block sums that see the same inf and NaN
    m = rigid_point(rigid, Rotation.identity(), (1.0, 0.2, 0.3))
    rhs = SystemSpec.rhs
    monkeypatch.setattr(SystemSpec, "rhs", lambda self, t, y: (
        [math.inf] * len(y) if t > 0.5 else rhs(self, t, y)))
    errors = []
    for run in (lambda: flow(rigid, m, 1.0),
                lambda: flow_many(rigid, _packed(rigid, [m, m]), np.array([0.4, 1.0]))):
        with pytest.raises(IntegrationError, match="^step-size underflow") as exc:
            run()
        errors.append(exc.value)
    assert errors[0].t == errors[1].t == 0.4999999999999979
    assert str(errors[0]) == str(errors[1])
    assert np.array_equal(errors[0].last_state.y, errors[1].last_state.y)


def test_phase_from_an_overflowing_reduced_speed_fails_as_flow_does(ball):
    # the reduced velocity's sum of squares overflows; the first step is
    # taken and leaves the annulus, and phase() reports flow()'s error
    m = ball_point(ball, (0.9, -0.2), (0.0, 1e60), w=0.4)
    errors = []
    for run in (lambda: flow(ball, m, 1.0), lambda: phase(ball, m)):
        with pytest.raises(IntegrationError, match="^trajectory left the domain") as exc:
            run()
        errors.append(exc.value)
    assert errors[0].t == errors[1].t > 0.0
    assert str(errors[0]) == str(errors[1])
    assert np.array_equal(errors[0].last_state.y, errors[1].last_state.y)


def test_brentq_raises_runtime_error_on_a_nan_value():
    # NaN inside the bracket, met after the endpoints: a RuntimeError, the
    # class the period search types as SectionRefinementError
    calls = []

    def f(x):
        calls.append(x)
        return math.nan if len(calls) > 2 else x - 0.3

    with pytest.raises(RuntimeError, match=r"^The function value at x=\S+ is NaN"):
        brentq(f, 0.0, 1.0, xtol=1e-13, rtol=1e-15)
    assert len(calls) == 3


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


@pytest.mark.parametrize("a_dot", [(0.0, 1e160), (1e200, 1e200)], ids=["one", "both"])
@pytest.mark.parametrize("run", [lambda s, m: flow(s, m, 1.0), phase],
                         ids=["flow", "phase"])
def test_an_overflowing_velocity_square_is_a_typed_domain_exit(ball, run, a_dot):
    # a finite velocity whose square overflows: the domain test squares
    # it on Python floats, so it raises no overflow warning, and its
    # message does not call the velocity infinite
    m = ball_point(ball, (1.0, 0.0), a_dot)
    with pytest.raises(IntegrationError, match="initial state outside the domain") as exc:
        run(ball, m)
    assert isinstance(exc.value.__cause__, DomainError)
    assert str(exc.value.__cause__) == (
        f"velocity a_dot = ({a_dot[0]:.6g}, {a_dot[1]:.6g}) is too large: "
        "|(a, a_dot)|^2 overflows")


def test_a_retry_with_zero_error_keeps_its_step(ball, mball):
    # scipy's rule caps the factor at 1 after any rejection, a zero error
    # norm included (test_scipy_pins pins scipy to it); a first attempt
    # with zero error still grows the step tenfold
    marcher = _Marcher(ball, ball.pack(mball), 5.0, 1e-10, 1e-12)
    marcher.retried = True
    assert marcher._verdict(0.0, 0.0, 0.01)
    assert marcher.h_abs == 0.01 and not marcher.retried
    assert marcher._verdict(0.0, 0.0, 0.01)
    assert marcher.h_abs == 0.1


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
    # every field call pins an attempt: a one-column batch makes the
    # SystemSpec.rhs calls of a marcher alone, with its times and states,
    # in its order
    spec, ys, ts = batch_inputs[kind, "probe"]
    rhs_calls = []
    rhs = SystemSpec.rhs

    def recording_rhs(self, t, y):
        rhs_calls.append((t, list(y)))
        return rhs(self, t, y)

    monkeypatch.setattr(SystemSpec, "rhs", recording_rhs)
    for j in range(ys.shape[1]):
        rhs_calls.clear()
        flow_many(spec, ys[:, [j]], ts[[j]])
        batch_rhs_calls = list(rhs_calls)
        rhs_calls.clear()
        _Marcher(spec, ys[:, j], ts[j], 1e-10, 1e-12).run()
        assert batch_rhs_calls == rhs_calls


def test_flow_many_domain_exit_fails_its_column_only(ball, mball):
    # columns 1 and 3 leave the annulus, column 3 earlier in time; each
    # fails with flow()'s error, the batch raises column 1's and the
    # others finish untouched
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
    assert exc.value.t > 0.4
    assert str(exc.value).startswith("trajectory left the domain: center radius")

    out, errors = _lockstep(ball, ys, ts, 1e-10, 1e-12)
    assert sorted(errors) == [1, 3]
    for err, want in zip((exc.value, errors[1], errors[3]), (scalar[0], *scalar)):
        assert str(err) == str(want)
        assert err.t == want.t
        assert np.array_equal(err.last_state.y, want.last_state.y)
        assert np.linalg.norm(err.last_state.a) <= 2.5
        assert isinstance(err.__cause__, DomainError)
        assert str(err.__cause__) == str(want.__cause__)
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


def _period_trajectory(ball, rigid, system):
    """The trajectory of one period search: the README ball orbit, the same
    start on a cubic profile, or rigid [1,2,3] with omega (1, 0.2, 0.3)."""
    if system == "rigid":
        spec, m = rigid, rigid_point(rigid, Rotation.identity(), (1.0, 0.2, 0.3))
    else:
        spec = ball if system == "ball" else make_ball_system(
            SurfaceProfile((0.1, 0.3, 0.05), gravity=2.0, inertia_ratio=0.5),
            annulus=(0.1, 3.0))
        m = ball_point(spec, (0.9, -0.2), (0.1, 0.35), w=0.4)
    return _period_search(spec, m, spec.defaults)


def test_dense_eval_on_arrays_equals_scalar_calls(ball, mball, rigid):
    # an array of times reads the bytes of one call per time: on a 5 s
    # flow at unsorted times, with repeats and both ends of the span, and
    # on the period trajectories of the README ball, a cubic ball and
    # rigid [1,2,3] (9 and 7 state rows) at the nodes, the mid-steps and
    # the closest approach's 512-time grid; no times read (nstate, 0)
    traj = flow_trajectory(ball, mball, 5.0)
    nodes = np.array(traj.times)
    interior = 0.3 * nodes[:-1] + 0.7 * nodes[1:]
    rng = np.random.default_rng(4)
    ts = np.concatenate(
        [nodes[::-1], interior, [traj.t0, traj.t1, traj.t0], rng.uniform(0.0, 5.0, 40)]
    )
    cases = [(traj, ts)]
    for system in ("ball", "ball_cubic", "rigid"):
        result, traj = _period_trajectory(ball, rigid, system)
        nodes = np.array(traj.times)
        grid = np.linspace(0.0, result.tau, 512) % result.tau
        cases += [(traj, nodes), (traj, 0.5 * (nodes[:-1] + nodes[1:])), (traj, grid)]
        assert traj.eval_y(np.array([])).shape == (traj.spec.nstate, 0)
    for traj, ts in cases:
        ys = traj.eval_y(ts)
        assert ys.shape == (traj.spec.nstate, ts.size)
        assert ys.tobytes() == np.column_stack([traj.eval_y(t) for t in ts]).tobytes()


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


@pytest.mark.parametrize("system, tau, theta, quat, counts", [
    ("ball", "0x1.27f249dd5f990p+2", "0x1.c209250663206p+1",
     ["0x1.3bf2bdf53b899p-1", "-0x1.688e0fc650466p-1", "-0x1.317917f531d76p-8",
      "-0x1.67874862951f6p-2"], (28, 9, 558)),
    ("rigid", "0x1.7459c194cd918p+3", "0x0.0p+0",
     ["0x1.e2c6e6b8cc285p-1", "0x1.e5e7fd3e7bd39p-3", "0x1.84b99764da925p-4",
      "0x1.b550ca5344a64p-3"], (33, 3, 566)),
])
def test_phase_bits_and_work_are_pinned(ball, rigid, system, tau, theta, quat, counts):
    # tau and gamma to the last bit, and the accepted and rejected steps
    # and field evaluations that found them, on the README ball orbit and
    # rigid [1,2,3] with omega (1, 0.2, 0.3); on both the period search
    # scans 3 steps: the first (sigma starts at 0) and the two where sigma
    # changes sign, falling and then rising at the period
    if system == "ball":
        spec, m = ball, ball_point(ball, (0.9, -0.2), (0.1, 0.35), w=0.4)
    else:
        spec, m = rigid, rigid_point(rigid, Rotation.identity(), (1.0, 0.2, 0.3))
    p = phase(spec, m)
    traj = p._trajectory
    assert p.tau.hex() == tau
    assert float(p.gamma.theta).hex() == theta
    assert [v.hex() for v in p.gamma.rot.q.tolist()] == quat
    assert (traj.n_accepted, traj.n_rejected, traj.n_rhs_evals) == counts
    assert traj.n_scanned == 3


@pytest.mark.parametrize("system", ["ball", "ball_cubic", "rigid"])
def test_the_one_time_reader_has_the_array_forms_bits(ball, rigid, system):
    # the period search reads sigma at one time on floats (scan,
    # refinement, closure); the closest approach reads array columns: at
    # the start, mid-step and the 16 scan times before the end of every
    # step of one period, read as one array, the two forms read the same
    # bits
    _, traj = _period_trajectory(ball, rigid, system)
    assert len(traj.segments) == traj.n_accepted > 20
    ts, expected = [], []
    for seg in traj.segments:
        times = np.linspace(seg.t_old, seg.t, 17).tolist()[:-1]
        times += [seg.t_old, 0.5 * (seg.t_old + seg.t)]
        ts += times
        expected += [seg.at(t) for t in times]
    # a step's end time is the next step's start, read there, but the last
    ts.append(seg.t)
    expected.append(seg.at(seg.t))
    columns = traj.eval_y(np.array(ts)).T.tolist()
    assert len(columns) == len(expected)
    for y, column in zip(expected, columns):
        assert all(type(v) is float for v in y)
        assert [v.hex() for v in y] == [v.hex() for v in column]


def _scan_marks(section, seg):
    """Whether the period search's 17-point scan of the step reads sigma
    rising from below zero to zero or above."""
    ts = np.linspace(seg.t_old, seg.t, 17).tolist()
    vals = list(map(section.on_floats(seg), ts))
    return any(a < 0.0 <= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_may_cross_passes_every_step_the_full_scan_marks(kind, sampled):
    # from criterion 11's crude tolerances to rtol 1e-13, every step whose
    # 17-point scan reads a rising sign change passes may_cross; at the
    # default tolerances most steps do not.  (At the crude ones the ball's
    # marches leave the annulus after a step or a few.)
    spec, points, _ = sampled[kind]
    for rtol, atol in [(1e-2, 1e-2), (1e-4, 1e-6), (1e-7, 1e-9), (1e-10, 1e-12),
                       (1e-13, 1e-14)]:
        steps = scanned = 0
        for m in points:
            y0 = spec.pack(m)
            v0 = spec.reduced_velocity(y0)
            section = _Section(spec, spec.reduce_y(y0), v0 / np.linalg.norm(v0))
            marcher = _Marcher(spec, y0, 1e3, rtol, atol, dense=True)
            for _ in range(100):
                try:
                    seg = marcher.step()
                except IntegrationError:
                    break
                flagged = section.may_cross(seg.y_old, seg.F)
                assert flagged or not _scan_marks(section, seg), (rtol, seg.t_old)
                steps += 1
                scanned += flagged
        assert steps >= len(points)
        if rtol == 1e-10:
            assert scanned < 0.2 * steps


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_a_skipped_step_keeps_one_sign_on_a_fine_grid(ball, rigid, kind):
    # random steps: states, F rows from 1e-10 to 10 in size, section
    # planes and start points near the states; whenever may_cross skips a
    # step, sigma has one strict sign at 513 times of its interpolant
    spec = ball if kind == "ball" else rigid
    rng = np.random.default_rng(5)
    skipped = 0
    for _ in range(1500):
        y = rng.normal(size=spec.nstate)
        scale = 10.0 ** rng.uniform(-6, 1)
        F = rng.normal(size=(7, spec.nstate)) * scale * 10.0 ** rng.uniform(-4, 0, (7, 1))
        rp0 = spec.reduce_y(y + rng.normal(size=spec.nstate) * scale * rng.uniform(0, 2))
        v0n = rng.normal(size=4) * ([1, 1, 1, kind == "ball"])
        section = _Section(spec, rp0, v0n / np.linalg.norm(v0n))
        if not section.may_cross(y.tolist(), F.tolist()):
            skipped += 1
            seg = _Segment(0.0, 1.0, y.tolist(), F.tolist())
            traj = Trajectory(spec, [0.0, 1.0], [seg.y_old, seg.at(1.0)], [seg])
            vals = section(traj.eval_y(np.linspace(0.0, 1.0, 513)))
            assert np.all(vals > 0.0) or np.all(vals < 0.0)
    assert 500 < skipped < 1400


def _hand_built(spec, rp0, y, F0, F1):
    """A section with v0n = e1 and the given rp0, and a step from ``y``
    with the F rows ``F0``, ``F1`` and zeros: the marcher's lists of
    floats and the step's segment."""
    y, F0, F1 = ([float(v) for v in row] for row in (y, F0, F1))
    F = [F0, F1] + [[0.0] * spec.nstate for _ in range(5)]
    section = _Section(spec, np.array(rp0, dtype=float), np.array([1.0, 0.0, 0.0, 0.0]))
    return section, y, F, _Segment(0.0, 1.0, y, F)


@pytest.mark.parametrize("kind, F0, F1, crossed", [
    # rigid: sigma = omega1 is 1 at both nodes; F1 bends it by x(1 - x)*F1
    ("rigid", [0] * 7, [0, 0, 0, 0, -20, 0, 0], True),
    ("rigid", [0] * 7, [0, 0, 0, 0, -2, 0, 0], False),
    # ball: sigma = (|a|^2 - |a_dot|^2)/2 - 1/4 is 1/4 at both nodes of a
    # straight step through a = 0, and stays positive on a shorter one
    ("ball", [-2] + [0] * 8, [0] * 9, True),
    ("ball", [-0.2] + [0] * 8, [0] * 9, False),
])
def test_may_cross_passes_a_dip_between_positive_nodes(ball, rigid, kind, F0, F1, crossed):
    if kind == "ball":
        spec, rp0, y = ball, [0.25, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, 0]
    else:
        spec, rp0, y = rigid, [0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0]
    section, y, F, seg = _hand_built(spec, rp0, y, F0, F1)
    assert _scan_marks(section, seg) is crossed
    assert section.may_cross(y, F) is crossed


@pytest.mark.parametrize("row, value", [
    (None, math.nan), (0, math.nan), (1, math.nan), (1, math.inf), (6, -math.inf),
])
def test_may_cross_passes_a_step_with_a_non_finite_value(rigid, row, value):
    # sigma = omega1 stays near 1 on this step, which is skipped; a
    # non-finite F row, or start value in a row the reduction reads,
    # scans it
    section, y, F, _ = _hand_built(rigid, [0] * 4, [1, 0, 0, 0, 1, 0, 0],
                                   [0] * 7, [0, 0, 0, 0, -0.1, 0, 0])
    assert section.may_cross(y, F) is False
    if row is None:
        y[4] = value
    else:
        F[row] = [value] * rigid.nstate
    assert section.may_cross(y, F) is True


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


@pytest.mark.parametrize("setting", [
    dict(atol=0.0), dict(atol=-1e-12), dict(rtol=math.nan), dict(t_max=-1.0),
    dict(tol_phase=math.nan), dict(tol_closure=0.0), dict(min_period=-1e-3),
    dict(v_min=math.nan),
], ids=lambda d: "{}={}".format(*next(iter(d.items()))))
def test_settings_that_are_not_positive_are_refused(setting, ball, mball):
    # the config file refuses these values; a per-call override does too,
    # before any integration (tol_phase = inf stays valid: criterion 11)
    with pytest.raises(ConfigError, match="is not positive"):
        IntegrationDefaults(**setting)
    with pytest.raises(ConfigError, match="is not positive"):
        phase(ball, mball, **setting)


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


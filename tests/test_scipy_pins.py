"""The runtime's owned copies of scipy's numerics, pinned to scipy bit for
bit: the DOP853 tableau, the dense output and brentq.  The closest
approach to a reduced orbit is held to scipy's bounded scalar search
instead: at least as close on every probe.  scipy is the reference here
only; the package imports none of it
(``test_cli.py::test_the_runtime_loads_no_scipy``)."""

import math

import numpy as np
import pytest

import reconphase.integrate as integrate
from reconphase import _dop853
from reconphase.dynsys import (
    SurfaceProfile,
    act,
    ball_point,
    make_ball_system,
    make_rigid_body,
    rigid_point,
)
from reconphase.liegroup import GroupElement, Rotation
from reconphase.reconstruct import phase, reduced_orbit_distance
from reconphase.verify import sample_points

scipy_dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
rk = pytest.importorskip("scipy.integrate._ivp.rk")
optimize = pytest.importorskip("scipy.optimize")


@pytest.fixture(scope="module")
def systems():
    ball = make_ball_system(SurfaceProfile((0.0, 0.5)))
    rigid = make_rigid_body((1.0, 2.0, 3.0))
    return {
        "ball": (ball, ball_point(ball, (0.9, -0.2), (0.1, 0.35), w=0.4)),
        "rigid": (rigid, rigid_point(rigid, Rotation.identity(), (1.0, 0.2, 0.3))),
    }


def test_the_tableau_is_scipys():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(_dop853, name) == getattr(scipy_dop, name)
    for name in ("C", "A", "B", "E3", "E5", "D"):
        ours, theirs = getattr(_dop853, name), getattr(scipy_dop, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def test_the_step_factor_constants_are_scipys():
    for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR"):
        assert getattr(integrate, name) == getattr(rk, name)


def test_scipy_keeps_the_step_after_a_retry_with_zero_error(systems):
    # one rejected attempt (error norm 2), then one whose error norm is
    # exactly 0: the next step is the accepted one, not ten times it
    spec, m = systems["rigid"]
    solver = rk.DOP853(spec.rhs, 0.0, spec.pack(m), 5.0, rtol=1e-10, atol=1e-12)
    norms = iter([2.0, 0.0])
    solver._estimate_error_norm = lambda K, h, scale: next(norms)
    solver.step()
    assert solver.h_abs == solver.step_size


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_the_dense_output_is_scipys(systems, kind):
    # every segment of one recorded period, at single times read on floats
    # (the nodes, a scan time, a mid-step time) and at arrays of times in
    # [t_old, t) read through the trajectory
    spec, m = systems[kind]
    traj = phase(spec, m)._trajectory
    assert len(traj.segments) > 20
    for seg in traj.segments:
        ref = rk.Dop853DenseOutput(seg.t_old, seg.t, np.array(seg.y_old),
                                   np.array(seg.F))
        assert (seg.t_old, seg.t) == (ref.t_old, ref.t)
        ts = np.linspace(seg.t_old, seg.t, 17)
        for t in (seg.t_old, float(ts[5]), 0.5 * (seg.t_old + seg.t), seg.t):
            assert np.array(seg.at(t)).tobytes() == ref(t).tobytes()
        for times in (ts[:-1], ts[3:4], np.array([ts[9], seg.t_old])):
            assert traj.eval_y(times).shape == (spec.nstate, times.size)
            assert traj.eval_y(times).tobytes() == ref(times).tobytes()


def _random_functions(rng):
    """Smooth scalar functions of four kinds with seeded coefficients."""
    kinds = (
        lambda c: lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
        lambda c: lambda x: math.sin(3.0 * c[0] * x + c[1]) + 0.5 * c[2],
        lambda c: lambda x: math.exp(c[0] * x) - 1.0 - c[1],
        lambda c: lambda x: math.tanh(5.0 * c[0] * (x - c[1])) + 0.1 * c[2] * x,
    )
    while True:
        for make in kinds:
            yield make(rng.normal(size=4))


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def test_brentq_is_scipys_on_random_brackets():
    # root, iterations and function calls, in both bracket orientations
    rng = np.random.default_rng(1701)
    functions = _random_functions(rng)
    compared = 0
    while compared < 4000:
        f = next(functions)
        a, b = rng.uniform(-3.0, 3.0, 2).tolist()
        if math.copysign(1.0, f(a)) == math.copysign(1.0, f(b)):
            continue
        g = _counted(f)
        root, iterations = integrate.brentq(g, a, b, xtol=1e-13, rtol=1e-15)
        ref_root, ref = optimize.brentq(f, a, b, xtol=1e-13, rtol=1e-15,
                                        full_output=True)
        assert root.hex() == ref_root.hex()
        assert (iterations, g.calls) == (ref.iterations, ref.function_calls)
        compared += 1


def test_brentq_fails_to_converge_as_scipy_does():
    def f(x):
        return x ** 3 - 2.0

    with pytest.raises(RuntimeError) as ours:
        integrate.brentq(f, 0.0, 2.0, xtol=1e-13, rtol=1e-15, maxiter=3)
    with pytest.raises(RuntimeError) as theirs:
        optimize.brentq(f, 0.0, 2.0, xtol=1e-13, rtol=1e-15, maxiter=3)
    assert str(ours.value) == str(theirs.value) == "Failed to converge after 3 iterations."
    with pytest.raises(ValueError, match="must have different signs"):
        integrate.brentq(f, 2.0, 3.0, xtol=1e-13, rtol=1e-15)


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_brentq_is_scipys_on_the_samplers_refinements(systems, kind, monkeypatch):
    # every section refinement the sampler's admission phases perform
    own = integrate.brentq
    seen = []

    def both(f, a, b, xtol, rtol):
        g = _counted(f)
        result = own(g, a, b, xtol, rtol)
        ref_root, ref = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
        assert result[0].hex() == ref_root.hex()
        assert (result[1], g.calls) == (ref.iterations, ref.function_calls)
        seen.append(result)
        return result

    monkeypatch.setattr(integrate, "brentq", both)
    spec, _ = systems[kind]
    sample_points(spec, np.random.default_rng(11), 4)
    assert len(seen) >= 4


@pytest.mark.parametrize("kind", ["ball", "rigid"])
def test_the_closest_approach_beats_scipys_bounded_search(systems, kind):
    # points on the orbit, on a flower frame and off it, and other sampled
    # orbits' starts: the distance is no larger than scipy's
    # minimize_scalar(method="bounded") finds in the grid node's bracket,
    # nor than the grid node's, and it is the distance at the returned time
    spec, m = systems[kind]
    p = phase(spec, m)
    traj = p._trajectory
    g = GroupElement(0.7 if kind == "ball" else 0.0,
                     Rotation.from_axis_angle([0.4, -0.7, 0.59], 2.1), spec.group)
    points = [traj.eval(f * p.tau) for f in (0.0, 0.13, 0.5, 0.77, 0.999)]
    points.append(act(g, traj.eval(0.31 * p.tau)))
    points.append(spec.unpack(traj.eval_y(0.6 * p.tau) * 1.01))
    points += sample_points(spec, np.random.default_rng(5), 2)
    ts = np.linspace(0.0, p.tau, 512)
    for m2 in points:
        y2r = spec.reduce_y(m2.y)

        def dist(t):
            return float(np.linalg.norm(spec.reduce_y(traj.eval_y(t % p.tau)) - y2r))

        grid = np.linalg.norm(spec.reduce_y(traj.eval_y(ts % p.tau)) - y2r[:, None], axis=0)
        i = int(np.argmin(grid))
        ref = optimize.minimize_scalar(lambda s: dist(ts[i] + s), bounds=(-ts[1], ts[1]),
                                       method="bounded", options={"xatol": 1e-13})
        d, t = reduced_orbit_distance(spec, p, m2)
        assert d <= float(ref.fun) + 1e-15
        assert d <= grid[i]
        assert 0.0 <= t < p.tau
        assert abs(d - dist(t)) <= 1e-15

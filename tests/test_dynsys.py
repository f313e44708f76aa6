"""System-layer tests: profiles, action axioms, reduction, energy,
vector-field invariance.  Oracles: closed-form values computed by hand,
numpy polynomial evaluation, and small scipy integrations."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reconphase.dynsys import (
    PhasePoint,
    SurfaceProfile,
    act,
    ball_point,
    d_act,
    make_ball_system,
    make_rigid_body,
    rigid_point,
    state_distance,
    vector_field,
)
from reconphase.errors import ConfigError, DomainError
from reconphase.liegroup import (
    E3,
    SO3,
    S1XSO3,
    GroupElement,
    Rotation,
    exp_so3,
    group_distance,
)


@pytest.fixture(scope="module")
def ball():
    return make_ball_system(SurfaceProfile((0.0, 0.5)))


@pytest.fixture(scope="module")
def rigid():
    return make_rigid_body((1.0, 2.0, 3.0))


def random_ball_point(spec, rng, q=None):
    phi = rng.uniform(0, 2 * math.pi)
    r = rng.uniform(0.5, 1.5)
    a = r * np.array([math.cos(phi), math.sin(phi)])
    a_dot = rng.normal(size=2) * 0.3
    quat = Rotation(q if q is not None else rng.normal(size=4))
    return ball_point(spec, a, a_dot, quat, rng.uniform(-0.6, 0.6))


def random_group(rng, group=S1XSO3):
    th = rng.uniform(0, 2 * math.pi) if group == S1XSO3 else 0.0
    return GroupElement(th, exp_so3(rng.normal(size=3)), group)


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------


def test_profile_derivatives_match_numpy_polyval():
    coeffs = (0.1, 0.5, -0.02, 0.003)
    p = SurfaceProfile(coeffs)
    poly = np.polynomial.Polynomial(coeffs)
    dpoly = poly.deriv()
    ddpoly = poly.deriv(2)
    for s in np.linspace(0.0, 5.0, 23):
        assert p.f(s) == pytest.approx(poly(s), rel=1e-14, abs=1e-14)
        assert p.fp(s) == pytest.approx(dpoly(s), rel=1e-14, abs=1e-14)
        assert p.fpp(s) == pytest.approx(ddpoly(s), rel=1e-14, abs=1e-14)


def test_paraboloid_profile_accepted():
    make_ball_system(SurfaceProfile((0.0, 0.5)))  # z = r^2/2, d2z/dr2 = 1


def test_concave_profile_rejected():
    # z = r^2 - r^4/2 flattens and turns concave for r > 1/sqrt(2)
    with pytest.raises(ConfigError):
        make_ball_system(SurfaceProfile((0.0, 1.0, -0.5)))


def test_profile_parameter_validation():
    with pytest.raises(ConfigError):
        SurfaceProfile((0.0, 0.5), gravity=-1.0)
    with pytest.raises(ConfigError):
        SurfaceProfile((0.0, 0.5), mass=0.0)
    with pytest.raises(ConfigError):
        SurfaceProfile((0.0, 0.5), inertia_ratio=1.5)
    with pytest.raises(ConfigError):
        make_ball_system(SurfaceProfile((0.0, 0.5)), annulus=(1.0, 0.5))


def test_rigid_body_validation():
    with pytest.raises(ConfigError):
        make_rigid_body((1.0, -2.0, 3.0))
    with pytest.raises(ConfigError):
        make_rigid_body((1.0, 2.0))


# ----------------------------------------------------------------------
# phase points
# ----------------------------------------------------------------------


def test_ball_point_excludes_origin(ball):
    with pytest.raises(ValueError, match="outside the phase space"):
        PhasePoint(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.3]), ball)
    with pytest.raises(ValueError, match="outside the phase space"):
        ball_point(ball, np.zeros(2), np.zeros(2), Rotation.identity(), 0.3)


def test_phase_point_is_its_packed_vector(ball, rigid):
    Q = Rotation([0.5, -0.5, 0.5, 0.5])
    mb = ball_point(ball, (0.9, -0.2), (0.1, 0.35), Q, 0.4)
    mr = rigid_point(rigid, Q, (0.3, -0.4, 0.5))
    np.testing.assert_array_equal(mb.y, [0.9, -0.2, 0.1, 0.35, *Q.q, 0.4])
    np.testing.assert_array_equal(mr.y, [*Q.q, 0.3, -0.4, 0.5])
    for m, spec in ((mb, ball), (mr, rigid)):
        assert m.Q is Q
        assert not m.y.flags.writeable
        y = spec.pack(m)
        assert y.flags.writeable and np.array_equal(y, m.y)
        # a bare vector builds its rotation from the quaternion slot
        bare = PhasePoint(m.y, spec)
        assert np.array_equal(bare.Q.q, Q.q) and state_distance(bare, m) == 0.0
    assert (mb.a.tolist(), mb.a_dot.tolist(), mb.w) == ([0.9, -0.2], [0.1, 0.35], 0.4)
    assert mr.omega_body.tolist() == [0.3, -0.4, 0.5]
    for name in ("a", "a_dot", "w"):
        with pytest.raises(ValueError, match="ball accessor"):
            getattr(mr, name)
    with pytest.raises(ValueError, match="rigid accessor"):
        mb.omega_body


def test_phase_points_compare_by_identity(ball, rigid):
    # an array field makes dataclass equality ambiguous; points compare
    # and hash as objects instead
    for spec, make in ((ball, lambda: ball_point(ball, (0.9, -0.2), (0.1, 0.35))),
                       (rigid, lambda: rigid_point(rigid, Rotation.identity(), (1.0, 0.2, 0.3)))):
        m1, m2 = make(), make()
        assert np.array_equal(m1.y, m2.y)
        assert (m1 == m2) is False and m1 != m2
        assert m1 == m1
        assert {m1, m2, m1} == {m1, m2} and m1 in {m1}


def test_phase_point_rejects_a_bad_vector(ball, rigid):
    y = np.array([0.9, -0.2, 0.1, 0.35, 1.0, 0.0, 0.0, 0.0, 0.4])
    with pytest.raises(ValueError, match="shape"):
        PhasePoint(y[:7], ball)
    with pytest.raises(ValueError, match="unit length"):
        PhasePoint(np.array([*y[:4], 2.0, 0.0, 0.0, 0.0, 0.4]), ball)
    with pytest.raises(ValueError, match="canonical"):
        PhasePoint(np.array([*y[:4], -1.0, 0.0, 0.0, 0.0, 0.4]), ball)
    with pytest.raises(ValueError, match="canonical"):
        PhasePoint(y, ball, Q=Rotation.from_axis_angle(E3, 0.1))
    with pytest.raises(ValueError, match="shape"):
        rigid_point(rigid, Rotation.identity(), (0.3, -0.4))


def test_rigid_point_packing(rigid):
    m = rigid_point(rigid, Rotation.identity(), (0.3, -0.4, 0.5))
    np.testing.assert_array_equal(m.omega_body, [0.3, -0.4, 0.5])
    y = rigid.pack(m)
    m2 = rigid.unpack(y)
    assert state_distance(m, m2) < 1e-15


def test_ball_pack_unpack_round_trip(ball):
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_ball_point(ball, rng)
        assert state_distance(m, ball.unpack(ball.pack(m))) < 1e-15


# ----------------------------------------------------------------------
# the action
# ----------------------------------------------------------------------


def test_act_identity(ball):
    rng = np.random.default_rng(2)
    m = random_ball_point(ball, rng)
    assert state_distance(act(GroupElement.identity(), m), m) == 0.0


def test_act_quarter_turn_frozen(ball):
    m = ball_point(ball, (1.0, 0.0), (0.2, 0.1), Rotation.identity(), 0.0)
    g = GroupElement(math.pi / 2, Rotation.identity())
    m2 = act(g, m)
    np.testing.assert_allclose(m2.a, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(m2.a_dot, [-0.1, 0.2], atol=1e-15)


def test_act_is_group_action(ball, rigid):
    rng = np.random.default_rng(3)
    for spec, sampler, group in (
        (ball, random_ball_point, S1XSO3),
        (rigid, lambda s, r: rigid_point(s, Rotation(r.normal(size=4)), r.normal(size=3)), SO3),
    ):
        for _ in range(50):
            m = sampler(spec, rng)
            g1, g2 = random_group(rng, group), random_group(rng, group)
            lhs = act(g1 @ g2, m)
            rhs = act(g1, act(g2, m))
            assert state_distance(lhs, rhs) < 1e-12


def test_act_freeness(ball):
    rng = np.random.default_rng(4)
    m = random_ball_point(ball, rng)
    for _ in range(50):
        g = random_group(rng)
        if group_distance(g, GroupElement.identity()) > 0.1:
            assert state_distance(act(g, m), m) > 1e-3


def test_act_group_tag_mismatch(ball):
    rng = np.random.default_rng(5)
    m = random_ball_point(ball, rng)
    with pytest.raises(ValueError):
        act(GroupElement(0.0, Rotation.identity(), SO3), m)


# ----------------------------------------------------------------------
# vector field
# ----------------------------------------------------------------------


def test_rigid_principal_axes_are_equilibria(rigid):
    for axis in np.eye(3):
        m = rigid_point(rigid, Rotation.identity(), 0.7 * axis)
        v = vector_field(m)
        np.testing.assert_allclose(v[3:], 0.0, atol=1e-15)
        np.testing.assert_allclose(v[:3], 0.7 * axis, atol=1e-15)


def test_ball_restoring_force_sign(ball):
    # displaced rest state on an upward bowl: horizontal acceleration
    # must point back toward the axis
    m = ball_point(ball, (0.3, 0.0), (0.0, 0.0), Rotation.identity(), 0.0)
    v = vector_field(m)
    assert v[2] < 0.0
    assert abs(v[3]) < 1e-15


def test_ball_domain_errors(ball):
    outside = ball_point(ball, (3.0, 0.0), (0.0, 0.1), Rotation.identity(), 0.0)
    with pytest.raises(DomainError):
        vector_field(outside)
    at_axis = ball_point(ball, (0.0, 0.0), (0.1, 0.0), Rotation.identity(), 0.0)
    with pytest.raises(DomainError):
        vector_field(at_axis)


@pytest.mark.parametrize("system, y, hexes", [
    ("ball", [0.9, -0.2, 0.1, 0.35, 1.0, 0.0, 0.0, 0.0, 0.4],
     ["0x1.999999999999ap-4", "0x1.6666666666666p-2", "-0x1.8fb2311ac42e7p-2",
      "0x1.5da992a43c412p-4", "0x0.0p+0", "0x1.1399780f2edc6p-2",
      "-0x1.e36c02c243ca0p-7", "0x1.62a3fd66a4c69p-3", "-0x1.dab174d8c1826p-9"]),
    ("ball_cubic", [-0.7, 1.1, 0.6, -0.25, 0.5, -0.5, 0.5, 0.5, -0.3],
     ["0x1.3333333333333p-1", "-0x1.0000000000000p-2", "0x1.0e149489df83fp-1",
      "-0x1.877fd486cc3c4p-1", "-0x1.da95609e09a1ep-3", "-0x1.b1d2f55a6010ap-2",
      "-0x1.0f9566003abc0p-9", "-0x1.84d2347eb5945p-3", "-0x1.db305862557e7p-5"]),
    ("rigid", [1.0, 0.0, 0.0, 0.0, 1.0, 0.2, 0.3],
     ["-0x0.0p+0", "0x1.0000000000000p-1", "0x1.999999999999ap-4",
      "0x1.3333333333333p-3", "-0x1.eb851eb851eb8p-5", "0x1.3333333333333p-2",
      "-0x1.1111111111111p-4"]),
    ("rigid_unsorted", [0.5, 0.5, -0.5, 0.5, -0.4, 1.3, 0.9],
     ["0x1.999999999999bp-3", "-0x1.4cccccccccccdp-1", "0x0.0p+0",
      "0x1.ccccccccccccep-2", "-0x1.2b851eb851eb9p+0", "-0x1.70a3d70a3d70ep-2",
      "-0x1.8342183421835p-3"]),
])
def test_rhs_bits_are_pinned(ball, rigid, system, y, hexes):
    # the field every integration steps with, to the last bit (signed
    # zeros included), on a list of floats and on an array alike
    spec = {
        "ball": ball,
        "ball_cubic": make_ball_system(
            SurfaceProfile((0.1, 0.3, 0.05), gravity=2.0, inertia_ratio=0.5),
            annulus=(0.1, 3.0)),
        "rigid": rigid,
        "rigid_unsorted": make_rigid_body((1.5, 0.7, 2.2)),
    }[system]
    for state in (y, np.array(y)):
        f = spec.rhs(0.0, state)
        assert all(type(v) is float for v in f)
        assert [v.hex() for v in f] == hexes


def test_specs_compare_and_hash_by_identity(ball, rigid):
    # a rigid spec's inertia is an array, which a value comparison could
    # not use; every spec equals itself only
    for spec in (ball, rigid):
        assert spec == spec and spec != replace(spec)
        assert {spec: 1}[spec] == 1 and hash(spec) != hash(replace(spec))


def test_a_replaced_spec_generates_its_own_field(ball, rigid):
    # replace() builds the spec again, so its field reads the new
    # constants; the old spec keeps its own
    y = [0.9, -0.2, 0.1, 0.35, 1.0, 0.0, 0.0, 0.0, 0.4]
    cubic = SurfaceProfile((0.1, 0.3, 0.05), gravity=2.0, inertia_ratio=0.5)
    fresh = make_ball_system(cubic, annulus=(0.1, 3.0))
    assert replace(ball, profile=cubic).rhs(0.0, y) == fresh.rhs(0.0, y)
    assert ball.rhs(0.0, y) != fresh.rhs(0.0, y)
    yr = [1.0, 0.0, 0.0, 0.0, 1.0, 0.2, 0.3]
    assert (replace(rigid, inertia=np.array([1.5, 0.7, 2.2])).rhs(0.0, yr)
            == make_rigid_body((1.5, 0.7, 2.2)).rhs(0.0, yr) != rigid.rhs(0.0, yr))
    # a domain exit follows the replaced annulus, with domain_check's message
    narrow = replace(ball, annulus=(0.2, 0.8))
    message = r"^center radius 0.921954 left the annulus \[0.2, 0.8\]$"
    with pytest.raises(DomainError, match=message):
        narrow.rhs(0.0, y)
    wide = [2.7, 0.0, 0.1, 0.35, 1.0, 0.0, 0.0, 0.0, 0.4]
    with pytest.raises(DomainError, match="left the annulus"):
        ball.rhs(0.0, wide)
    assert replace(ball, annulus=(0.2, 3.0)).rhs(0.0, wide) == make_ball_system(
        ball.profile, annulus=(0.2, 3.0)).rhs(0.0, wide)
    assert ball.rhs(0.0, y) == make_ball_system(ball.profile).rhs(0.0, y)


@pytest.mark.parametrize("y, annulus, message", [
    ([3.0, 0.0, 0.0, 0.1, 1.0, 0.0, 0.0, 0.0, 0.0], (0.2, 2.5),
     "center radius 3 left the annulus [0.2, 2.5]"),
    ([0.1, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], (0.2, 2.5),
     "center radius 0.141421 left the annulus [0.2, 2.5]"),
    ([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], (0.2, 2.5),
     "center radius 0 left the annulus [0.2, 2.5]"),
    ([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], (0.0, 2.5),
     "(a, a_dot) collapsed to 0"),
    ([np.nan, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], (0.2, 2.5),
     "center radius nan left the annulus [0.2, 2.5]"),
    ([0.5, 0.0, np.nan, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], (0.2, 2.5),
     "velocity a_dot = (nan, 0) is not finite"),
    ([0.5, 0.0, np.inf, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], (0.2, 2.5),
     "velocity a_dot = (inf, 0) is not finite"),
    ([1.0, 0.0, 0.0, 1e160, 1.0, 0.0, 0.0, 0.0, 0.0], (0.2, 2.5),
     "velocity a_dot = (0, 1e+160) is too large: |(a, a_dot)|^2 overflows"),
    ([1.0, 0.0, 1e200, 1e200, 1.0, 0.0, 0.0, 0.0, 0.0], (0.2, 2.5),
     "velocity a_dot = (1e+200, 1e+200) is too large: |(a, a_dot)|^2 overflows"),
])
def test_rhs_domain_error_payload(ball, y, annulus, message):
    # the scalar call tests the domain on Python floats: its message,
    # last state and time are the ones the numpy-scalar test gives
    spec = replace(ball, annulus=annulus)
    y = np.array(y)
    with pytest.raises(DomainError) as on_floats:
        spec.rhs(1.5, y)
    with pytest.raises(DomainError) as on_numpy:
        spec.domain_check(y, 1.5)
    for e in (on_floats.value, on_numpy.value):
        assert str(e) == message
        assert np.array_equal(e.last_state, y, equal_nan=True)
        assert e.t == 1.5


def test_vector_field_invariance(ball, rigid):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        m = random_ball_point(ball, rng)
        g = random_group(rng)
        lhs = vector_field(act(g, m))
        rhs = d_act(g, m, vector_field(m))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10
    for _ in range(100):
        m = rigid_point(rigid, Rotation(rng.normal(size=4)), rng.normal(size=3))
        g = random_group(rng, SO3)
        lhs = vector_field(act(g, m))
        rhs = d_act(g, m, vector_field(m))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------


def test_reduce_anchor_values(ball):
    m = ball_point(ball, (1.0, 0.0), (0.0, 0.0), Rotation.identity(), 0.7)
    r = ball.reduce_y(ball.pack(m))
    np.testing.assert_allclose(r[:3], [0.5, 0.0, 0.0], atol=0)
    assert r[3] == 0.7
    m2 = ball_point(ball, (0.0, 1.0), (1.0, 0.0), Rotation.identity(), 0.0)
    np.testing.assert_allclose(ball.reduce_y(ball.pack(m2))[:3], [0.0, 0.0, -1.0], atol=0)


def test_reduce_quotients_the_action(ball, rigid):
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_ball_point(ball, rng)
        g = random_group(rng)
        d = np.abs(
            ball.reduce_y(ball.pack(act(g, m))) - ball.reduce_y(ball.pack(m))
        ).max()
        assert d < 1e-12
    for _ in range(50):
        m = rigid_point(rigid, Rotation(rng.normal(size=4)), rng.normal(size=3))
        g = random_group(rng, SO3)
        assert np.array_equal(
            rigid.reduce_y(rigid.pack(act(g, m))), rigid.reduce_y(rigid.pack(m))
        )


def test_reduce_norm_identity(ball):
    # |b| = (|a|^2 + |a_dot|^2)/2 under the chosen quotient convention
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = random_ball_point(ball, rng)
        expect = 0.5 * (m.a @ m.a + m.a_dot @ m.a_dot)
        b = ball.reduce_y(ball.pack(m))[:3]
        assert np.linalg.norm(b) == pytest.approx(expect, rel=1e-13)


def test_reduce_rigid_is_body_momentum(rigid):
    m = rigid_point(rigid, Rotation.identity(), (0.5, -0.25, 0.125))
    r = rigid.reduce_y(rigid.pack(m))
    np.testing.assert_allclose(r[:3], [0.5, -0.5, 0.375], atol=0)
    assert r[3] == 0.0


def test_reduce_y_on_columns_equals_per_column_calls(ball, rigid):
    rng = np.random.default_rng(10)
    for spec, points in (
        (ball, [random_ball_point(ball, rng) for _ in range(7)]),
        (rigid, [rigid_point(rigid, Rotation(rng.normal(size=4)), rng.normal(size=3))
                 for _ in range(7)]),
    ):
        ys = np.column_stack([spec.pack(m) for m in points])
        reduced = spec.reduce_y(ys)
        assert reduced.shape == (4, 7)
        assert np.array_equal(reduced, np.column_stack([spec.reduce_y(y) for y in ys.T]))
    # the rigid body's constant w slot is a row of zeros
    assert np.array_equal(reduced[3], np.zeros(7))


def test_reduced_velocity_matches_finite_difference(ball, rigid):
    rng = np.random.default_rng(9)
    h = 1e-6
    for spec, m in (
        (ball, random_ball_point(ball, rng)),
        (rigid, rigid_point(rigid, Rotation(rng.normal(size=4)), (1.1, 0.2, 0.15))),
    ):
        y0 = spec.pack(m)
        yp = solve_ivp(spec.rhs, (0, h), y0, method="DOP853",
                       rtol=1e-13, atol=1e-15).y[:, -1]
        ym = solve_ivp(lambda t, y: -np.array(spec.rhs(t, y)), (0, h), y0,
                       method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
        fd = (spec.reduce_y(yp) - spec.reduce_y(ym)) / (2 * h)
        an = spec.reduced_velocity(y0)
        assert np.abs(fd - an).max() < 1e-9


# ----------------------------------------------------------------------
# energy and constraint
# ----------------------------------------------------------------------


def test_energy_at_rest_is_potential(ball):
    prof = ball.profile
    m = ball_point(ball, (1.2, 0.0), (0.0, 0.0), Rotation.identity(), 0.0)
    assert ball.energy_y(ball.pack(m)) == pytest.approx(
        prof.mass * prof.gravity * prof.f(1.44), rel=1e-15
    )


def test_energy_invariant_under_action(ball, rigid):
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = random_ball_point(ball, rng)
        g = random_group(rng)
        assert ball.energy_y(ball.pack(act(g, m))) == pytest.approx(
            ball.energy_y(ball.pack(m)), rel=1e-12
        )
    for _ in range(50):
        m = rigid_point(rigid, Rotation(rng.normal(size=4)), rng.normal(size=3))
        g = random_group(rng, SO3)
        assert rigid.energy_y(rigid.pack(act(g, m))) == rigid.energy_y(rigid.pack(m))


def test_rigid_energy_closed_form(rigid):
    m = rigid_point(rigid, Rotation.identity(), (0.3, 0.5, -0.2))
    expect = 0.5 * (1 * 0.3**2 + 2 * 0.5**2 + 3 * 0.2**2)
    assert rigid.energy_y(rigid.pack(m)) == pytest.approx(expect, rel=1e-15)


def test_rolling_residual_is_negligible(ball):
    # the state parametrization solves the rolling constraint exactly;
    # the residual measures only floating-point arithmetic
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_ball_point(ball, rng)
        assert ball.rolling_residual_y(ball.pack(m)) < 1e-13


def test_energy_conserved_along_trajectory(ball):
    rng = np.random.default_rng(12)
    m = random_ball_point(ball, rng)
    y0 = ball.pack(m)
    sol = solve_ivp(ball.rhs, (0, 20), y0, method="DOP853",
                    rtol=1e-11, atol=1e-13)
    E0 = ball.energy_y(y0)
    drift = max(abs(ball.energy_y(sol.y[:, i]) - E0)
                for i in range(sol.y.shape[1]))
    assert drift / abs(E0) < 1e-10


def test_rigid_spatial_momentum_conserved(rigid):
    rng = np.random.default_rng(13)
    m = rigid_point(rigid, Rotation(rng.normal(size=4)), (1.1, 0.2, 0.15))
    y0 = rigid.pack(m)
    sol = solve_ivp(rigid.rhs, (0, 40), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)

    def spatial(y):
        return Rotation(y[0:4]).apply(rigid.inertia * y[4:7])

    p0 = spatial(y0)
    drift = max(np.linalg.norm(spatial(sol.y[:, i]) - p0)
                for i in range(sol.y.shape[1]))
    assert drift < 1e-11
    # body momentum norm equals spatial momentum norm
    assert np.linalg.norm(rigid.reduce_y(y0)[:3]) == pytest.approx(
        np.linalg.norm(p0), rel=1e-12
    )

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from reconphase.dynsys import (
    SurfaceProfile,
    act,
    ball_point,
    make_ball_system,
    make_rigid_body,
    rigid_point,
    state_distance,
)
from reconphase.errors import DomainError, PhaseInconsistencyError
import reconphase.reconstruct as reconstruct
from reconphase.integrate import brentq, flow
from reconphase.liegroup import (
    GroupElement,
    Rotation,
    Xi,
    conj,
    group_distance,
    projective_distance,
    torus_coords,
)
from reconphase.cli import TORUS_PROBE
from reconphase.verify import sample_ball, sample_rigid
from reconphase.reconstruct import (
    PhaseResult,
    conjugacy_residuals,
    delta,
    delta_from_axis,
    flower_frame,
    frequency_mismatch,
    phase,
    reduced_orbit_distance,
    same_petal,
    torus_embed,
    weyl_partner,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# fixtures: one phase computation per system, shared across the module
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ball():
    spec = make_ball_system(SurfaceProfile((0.0, 0.5)), annulus=(0.2, 2.5))
    m = ball_point(spec, a=(0.9, -0.2), a_dot=(0.1, 0.35), w=0.4)
    return spec, m, phase(spec, m)


@pytest.fixture(scope="module")
def rigid():
    spec = make_rigid_body((1.0, 2.0, 3.0))
    m = rigid_point(
        spec, Rotation.from_axis_angle([0.2, 0.5, -0.3], 0.8), omega=(1.1, 0.12, 0.18)
    )
    return spec, m, phase(spec, m)


# ---------------------------------------------------------------------------
# the defining property and frozen regression values
# ---------------------------------------------------------------------------

def test_phase_defining_property_ball(ball):
    spec, m, p = ball
    m_tau = flow(spec, m, p.tau)
    assert state_distance(act(p.gamma, m), m_tau) < 1e-9
    assert p.residuals["defining"] < 1e-9
    assert p.residuals["closure"] < 1e-9
    assert p.residuals["section_iterations"] > 0


def test_phase_defining_property_rigid(rigid):
    spec, m, p = rigid
    m_tau = flow(spec, m, p.tau)
    assert state_distance(act(p.gamma, m), m_tau) < 1e-9


def test_phase_frozen_values_ball(ball):
    _, _, p = ball
    assert p.regular
    assert p.tau == pytest.approx(4.624163118538843, abs=1e-9)
    assert p.gamma.theta == pytest.approx(3.5159040719211143, abs=1e-9)
    assert p.gamma.rot.angle() == pytest.approx(1.8115234790446764, abs=1e-9)
    np.testing.assert_allclose(
        p.eta, [0.5595735124831681, 0.28831291621698774], atol=1e-9
    )
    np.testing.assert_allclose(
        p.delta_rep,
        [-0.8949204764964891, -0.00592346600810064, 0.44618634369257404],
        atol=1e-9,
    )


def test_phase_frozen_values_rigid(rigid):
    _, _, p = rigid
    assert p.regular
    assert p.tau == pytest.approx(10.071482639647366, abs=1e-8)
    np.testing.assert_allclose(p.eta, [0.1520697532551335], atol=1e-9)


def test_eta_is_conjugated_lattice_coordinates(ball):
    # eta must reproduce the lattice coordinates of the phase itself:
    # circle slot = theta / 2 pi, rotation slot = angle / 2 pi (the
    # conjugation preserves both), with the rotation slot in [0, 1/2].
    _, _, p = ball
    assert p.eta[0] == pytest.approx(p.gamma.theta / TWO_PI, abs=1e-12)
    assert p.eta[1] == pytest.approx(p.gamma.rot.angle() / TWO_PI, abs=1e-12)
    assert 0.0 <= p.eta[1] <= 0.5
    np.testing.assert_allclose(
        torus_coords(conj(p.conjugator, p.gamma)), p.eta, atol=1e-14
    )
    # conj(g_m, gamma) must be in the reference torus at tight tolerance
    torus_coords(conj(p.conjugator, p.gamma), tol=1e-10)


def test_frequency_vector_structure(ball):
    _, _, p = ball
    f = p.frequencies
    assert f[0] == 1.0 / p.tau  # exact by construction
    np.testing.assert_allclose(f[1:], p.eta / p.tau, atol=0)


@pytest.mark.parametrize("system", ["ball", "rigid"])
def test_phase_result_is_read_only(request, system):
    # verify hands one result to every check of a sample: none can change
    # it for the next
    _, _, p = request.getfixturevalue(system)
    for arr in (p.eta, p.frequencies, p.delta_rep):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(TypeError):
        p.residuals["closure"] = 0.0
    with pytest.raises(TypeError):
        del p.residuals["defining"]
    d = p.to_dict()
    d["residuals"]["closure"] = 1.0
    assert p.residuals["closure"] != 1.0


def test_frequency_arithmetic_on_synthetic_phase():
    # hand-built regular phase: quarter-turn about e3 with circle part pi
    gamma = GroupElement(math.pi, Rotation.from_axis_angle([0, 0, 1], math.pi / 2))
    eta = torus_coords(conj(GroupElement.identity(), gamma))
    np.testing.assert_allclose(eta, [0.5, 0.25], atol=1e-15)


def test_frequency_mismatch_wraps_branch_lattice():
    f = np.array([0.25, 0.1, 0.05])
    tau = 4.0
    shifted = f + np.array([0.0, 3.0 / tau, -1.0 / tau])  # lattice shifts
    assert frequency_mismatch(f, shifted, tau) < 1e-15
    assert frequency_mismatch(f, f + np.array([0.0, 0.01, 0.0]), tau) > 5e-3


def test_phase_rejects_foreign_spec(ball):
    spec, m, _ = ball
    other = make_ball_system(SurfaceProfile((0.0, 0.5)), annulus=(0.2, 2.5))
    with pytest.raises(ValueError):
        phase(other, m)


def test_phase_inconsistency_under_crude_integration(ball):
    spec, m, _ = ball
    with pytest.raises(PhaseInconsistencyError) as exc:
        phase(spec, m, rtol=1e-3, atol=1e-6, tol_closure=5e-2)
    assert exc.value.residual > 1e-7


# ---------------------------------------------------------------------------
# symmetry properties of the phase
# ---------------------------------------------------------------------------

def test_phase_equivariance_ball(ball):
    spec, m, p = ball
    rng = np.random.default_rng(5)
    for _ in range(3):
        ax = rng.normal(size=3)
        g = GroupElement(
            rng.uniform(0, TWO_PI),
            Rotation.from_axis_angle(ax / np.linalg.norm(ax), rng.uniform(0.1, 3.0)),
            spec.group,
        )
        pg = phase(spec, act(g, m))
        assert abs(pg.tau - p.tau) < 1e-8
        assert group_distance(pg.gamma, conj(g, p.gamma)) < 1e-8
        assert frequency_mismatch(pg.frequencies, p.frequencies, p.tau) < 1e-8


def test_phase_constant_along_flow(ball):
    spec, m, p = ball
    for frac in (0.2, 0.7, 1.5):
        mt = flow(spec, m, frac * p.tau)
        pt = phase(spec, mt)
        assert abs(pt.tau - p.tau) < 1e-8
        assert group_distance(pt.gamma, p.gamma) < 1e-8
        assert projective_distance(pt.delta_rep, p.delta_rep) < 1e-9


def test_phase_equivariance_rigid(rigid):
    spec, m, p = rigid
    g = GroupElement(
        0.0, Rotation.from_axis_angle([0.3, -0.5, 0.81], 1.2), spec.group
    )
    pg = phase(spec, act(g, m))
    assert abs(pg.tau - p.tau) < 1e-8
    assert group_distance(pg.gamma, conj(g, p.gamma)) < 1e-8


# ---------------------------------------------------------------------------
# exact symmetries of the equations (bounds of acceptance criteria 01-03)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("system", ["ball", "rigid"])
def test_backward_flow_over_one_period_undoes_the_phase(request, system):
    # act(gamma, m) = flow(m, tau) and equivariance give
    # flow(m, -tau) = act(gamma^-1, m)
    spec, m, p = request.getfixturevalue(system)
    back = flow(spec, m, -p.tau)
    assert state_distance(back, act(p.gamma.inverse(), m)) < 1e-6


@pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
def test_rigid_time_rescaling(rigid, s):
    # Euler's equations are homogeneous of degree two in omega: omega ->
    # s omega traces the same orbit at s times the speed
    spec, m, p = rigid
    ps = phase(spec, rigid_point(spec, m.Q, s * m.omega_body))
    assert abs(ps.tau - p.tau / s) < 5e-7
    assert group_distance(ps.gamma, p.gamma) < 5e-7


@pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
def test_ball_time_rescaling(ball, s):
    # gravity -> s^2 g with (a_dot, w) -> s (a_dot, w) scales every term of
    # the ball's equations by s^2 in the accelerations and s in the rates:
    # the same orbit at s times the speed
    spec, m, p = ball
    pr = spec.profile
    spec_s = make_ball_system(
        SurfaceProfile(pr.coeffs, gravity=s * s * pr.gravity, mass=pr.mass,
                       inertia_ratio=pr.inertia_ratio),
        annulus=spec.annulus,
    )
    ps = phase(spec_s, ball_point(spec_s, m.a, s * m.a_dot, m.Q, s * m.w))
    assert abs(ps.tau - p.tau / s) < 5e-7
    assert group_distance(ps.gamma, p.gamma) < 5e-7


def test_ball_mirror_reverses_the_circle_angle():
    # negating (a2, a2_dot, qx, qz, w) reflects the state in the x-z plane
    # and conjugates Q by diag(1, -1, 1): the mirrored orbit has the same
    # period, the circle slot of eta runs backwards and the rotation slot
    # is unchanged.  A sign error in the circle action or the Procrustes
    # angle breaks it.  Measured on seeds 0-3 (16 orbits): tau within
    # 2.7e-15, eta within 1.5e-15
    spec = make_ball_system(SurfaceProfile((0.0, 0.3, 0.05)))
    samples = sample_ball(spec, np.random.default_rng(0), 4)
    assert {math.copysign(1.0, m.w) for m in samples} == {1.0, -1.0}
    for m in samples:
        y = m.y.copy()
        y[[1, 3, 5, 7, 8]] *= -1.0
        p, q = phase(spec, m), phase(spec, spec.unpack(y))
        assert abs(q.tau - p.tau) < 3e-14
        circle = (q.eta[0] + p.eta[0]) % 1.0
        assert min(circle, 1.0 - circle) < 1.5e-14
        assert abs(q.eta[1] - p.eta[1]) < 1.5e-14


# ---------------------------------------------------------------------------
# the torus chart
# ---------------------------------------------------------------------------

def test_torus_embed_origin_is_basepoint(ball):
    spec, m, p = ball
    assert state_distance(torus_embed(spec, p, 0.0, np.zeros(2)), m) < 1e-15


def test_torus_embed_beta_periodicity(ball):
    spec, m, p = ball
    x = torus_embed(spec, p, 0.3, np.array([0.2, 0.4]))
    y = torus_embed(spec, p, 0.3, np.array([1.2, -0.6]))
    assert state_distance(x, y) < 1e-12


def test_torus_embed_flow_linearity_ball(ball):
    spec, m, p = ball
    alpha, beta = 0.3, np.array([0.15, 0.45])
    t = 0.37 * p.tau
    lhs = flow(spec, torus_embed(spec, p, alpha, beta), t)
    rhs = torus_embed(spec, p, alpha + 0.37, beta + 0.37 * p.eta)
    assert state_distance(lhs, rhs) < 1e-9


def test_torus_embed_flow_linearity_rigid(rigid):
    spec, m, p = rigid
    lhs = flow(spec, torus_embed(spec, p, 0.4, np.array([0.3])), 0.25 * p.tau)
    rhs = torus_embed(spec, p, 0.65, np.array([0.3]) + 0.25 * p.eta)
    assert state_distance(lhs, rhs) < 1e-9


@pytest.mark.parametrize("system", ["ball", "rigid"])
def test_torus_embed_is_one_periodic_in_alpha(request, system):
    # a full turn in alpha flows one period and undoes it with the phase
    # conjugated into the torus, so the chart closes up on itself
    spec, m, p = request.getfixturevalue(system)
    beta = np.full(p.eta.size, 0.3)
    for alpha in (0.0, 0.4):
        x = torus_embed(spec, p, alpha, beta)
        x1 = torus_embed(spec, p, alpha + 1.0, beta)
        assert state_distance(x1, x) < 1e-9


def test_torus_embed_grid_injectivity(ball):
    spec, m, p = ball
    pts = [
        torus_embed(spec, p, al, np.array([b1, b2]))
        for al in (0.0, 0.5)
        for b1 in (0.1, 0.6)
        for b2 in (0.2, 0.7)
    ]
    dmin = min(state_distance(x, y) for x, y in itertools.combinations(pts, 2))
    assert dmin > 1e-3


def test_torus_embed_requires_regular(ball):
    spec, m, p = ball
    bad = PhaseResult(
        tau=p.tau, gamma=p.gamma, regular=False, conjugator=None, eta=None,
        frequencies=None, delta_rep=None, residuals={},
    )
    with pytest.raises(DomainError):
        torus_embed(spec, bad, 0.1, np.zeros(2))


def test_flower_frame_extends_torus_embed(ball):
    spec, m, p = ball
    beta = np.array([0.35, 0.8])
    h = (p.conjugator.inverse() @ Xi(beta, spec.group)) @ p.conjugator
    x = flower_frame(spec, p, 0.45, h)
    y = torus_embed(spec, p, 0.45, beta)
    assert state_distance(x, y) < 1e-12


def test_flower_points_share_reduced_orbit(ball):
    # the reduced state of J_m(alpha, g) must land on the reduced orbit of m for any g
    spec, m, p = ball
    g = GroupElement(
        2.2, Rotation.from_axis_angle([0.6, 0.1, 0.79], 1.4), spec.group
    )
    for alpha in (0.2, 0.85):
        # the frame point is read off m's period trajectory; a fresh flow
        # from it must stay on m's reduced orbit (equivariance). Floor set
        # by one half-period integration at rtol 1e-10, not by the closest
        # approach, which resolves the time to about 1e-13
        x = flow(spec, flower_frame(spec, p, alpha, g), 0.5 * p.tau)
        d, _ = reduced_orbit_distance(spec, p, x)
        assert d < 1e-7


@pytest.mark.parametrize("system", ["ball", "rigid"])
def test_flower_frame_matches_its_definition(request, system):
    # J_m(alpha, g) = act(g h_alpha^-1, flow(m, alpha tau)) with
    # h_alpha = g_m^-1 Xi(alpha eta) g_m, against a fresh tight flow of
    # either sign and over several periods
    spec, m, p = request.getfixturevalue(system)
    theta = 0.7 if spec.group == "s1xso3" else 0.0
    g = GroupElement(
        theta, Rotation.from_axis_angle([0.4, -0.7, 0.59], 2.1), spec.group
    )
    for alpha in (-0.6, 0.0, 0.3, 0.999, 1.4, 2.9):
        h_alpha = (
            p.conjugator.inverse() @ Xi(alpha * p.eta, spec.group)
        ) @ p.conjugator
        want = act(
            g @ h_alpha.inverse(),
            flow(spec, m, alpha * p.tau, rtol=1e-12, atol=1e-14),
        )
        assert state_distance(flower_frame(spec, p, alpha, g), want) < 1e-9


def _chart_queries(spec, p):
    """Chart points and flower frames at alpha 0 and 1 (one frame
    fraction) and beta 0.0 and -0.0 (two sets of bits), plus an interior
    point; each query is a function of a phase result."""
    rank = p.eta.size
    theta = 0.7 if spec.group == "s1xso3" else 0.0
    g = GroupElement(theta, Rotation.from_axis_angle([0.4, -0.7, 0.59], 2.1), spec.group)
    queries = [
        lambda q, al=al, b=b: torus_embed(spec, q, al, np.full(rank, b))
        for al in (0.0, 1.0, 0.37) for b in (0.0, -0.0, 0.3)
    ]
    queries += [lambda q, al=al: flower_frame(spec, q, al, g) for al in (0.0, 1.0, 0.37)]
    return queries


def _bits(x):
    return x.y.tobytes(), x.Q.q.tobytes()


@pytest.mark.parametrize("system", ["ball", "rigid"])
def test_chart_points_from_a_warm_phase_keep_their_bits(request, system):
    # every query twice on one result (the second from its memo), each
    # against the same query on a result no other query has touched
    spec, m, _ = request.getfixturevalue(system)
    warm = phase(spec, m)
    queries = _chart_queries(spec, warm)
    first = [_bits(query(warm)) for query in queries]
    again = [_bits(query(warm)) for query in queries]
    fresh = [_bits(query(phase(spec, m))) for query in queries]
    assert first == again == fresh


def test_the_memo_is_not_shared_compared_or_shown(ball):
    spec, m, _ = ball
    p = phase(spec, m)
    shown, doc = repr(p), json.dumps(p.to_dict(), sort_keys=True)
    for query in _chart_queries(spec, p):
        query(p)
    assert p._memo
    q = dataclasses.replace(p)
    assert q._memo == {} and q._memo is not p._memo
    assert p == q and repr(p) == repr(q) == shown
    assert json.dumps(p.to_dict(), sort_keys=True) == doc
    assert "_memo" not in shown


@pytest.mark.parametrize("system", ["ball", "rigid"])
def test_reduced_orbit_distance_wraps_the_period_seam(request, system):
    # points just before tau lie closest to the grid node t = 0, the same
    # reduced point as t = tau: the refinement must cross the seam.  The
    # last point is an orbit point far from the seam, moved off the torus
    # by a group element: it lies on the reduced orbit too, and reads ~0
    # only if the refinement resolves t well below sqrt(eps) t
    spec, _, p = request.getfixturevalue(system)
    h = p.tau / 511
    theta = 0.7 if spec.group == "s1xso3" else 0.0
    g = GroupElement(
        theta, Rotation.from_axis_angle([0.4, -0.7, 0.59], 2.1), spec.group
    )
    points = [p._trajectory.eval(p.tau - e * h) for e in (0.1, 0.3, 0.45)]
    points.append(p._trajectory.eval(0.1 * h))  # just after the seam
    for x in points + [flower_frame(spec, p, 0.85, g)]:
        d, t = reduced_orbit_distance(spec, p, x)
        assert d < 1e-10
        assert 0.0 <= t < p.tau


def test_reduced_orbit_distance_of_a_body_at_rest(monkeypatch):
    # a rigid body at rest reduces to 0, equidistant from the whole
    # momentum loop: the slope is rounding noise and keeps one sign across
    # the bracket on some orbits, where the grid node is the answer
    spec = make_rigid_body((1.0, 2.0, 3.0))
    x = rigid_point(spec, Rotation.identity(), omega=(0.0, 0.0, 0.0))
    one_sign = []

    def recording(*args, **kwargs):
        try:
            return brentq(*args, **kwargs)
        except ValueError:
            one_sign.append(None)
            raise

    monkeypatch.setattr(reconstruct, "brentq", recording)
    for m in sample_rigid(spec, np.random.default_rng(3), 6):
        p = phase(spec, m)
        d, t = reduced_orbit_distance(spec, p, x)
        assert abs(d - spec.momentum_norm_y(m.y)) < 1e-9
        assert 0.0 <= t < p.tau
    assert one_sign


@pytest.mark.parametrize("system", ["ball", "rigid"])
def test_reduced_orbit_distance_of_a_nan_probe_is_nan(request, system):
    spec, m, p = request.getfixturevalue(system)
    y = m.y.copy()
    y[spec.reduced_rows[0]] = math.nan
    d, t = reduced_orbit_distance(spec, p, spec.unpack(y))
    assert math.isnan(d)
    assert 0.0 <= t < p.tau


# ---------------------------------------------------------------------------
# delta and the petal structure
# ---------------------------------------------------------------------------

def test_delta_direct_formula_agreement(ball):
    spec, m, p = ball
    assert projective_distance(delta(spec, m, p), delta_from_axis(p.gamma)) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(2):
        r, ang = rng.uniform(0.6, 1.3), rng.uniform(0, TWO_PI)
        m2 = ball_point(
            spec,
            a=(r * math.cos(ang), r * math.sin(ang)),
            a_dot=rng.uniform(-0.4, 0.4, 2),
            w=rng.uniform(-0.5, 0.5),
        )
        p2 = phase(spec, m2)
        assert (
            projective_distance(delta(spec, m2, p2), delta_from_axis(p2.gamma))
            < 1e-12
        )


def test_delta_from_axis_degenerate_vertical():
    g = GroupElement(0.3, Rotation.from_axis_angle([0, 0, -1], 1.0))
    np.testing.assert_allclose(delta_from_axis(g), [0, 0, 1], atol=1e-15)


def test_weyl_partner_same_level_different_petal(ball):
    spec, m, p = ball
    m_w, n = weyl_partner(spec, m, p)
    # the swap is a half turn about a horizontal axis orthogonal to the
    # phase axis, so it fixes the reduced point exactly
    assert np.allclose(spec.reduce_y(spec.pack(m_w)), spec.reduce_y(spec.pack(m)), atol=0)
    assert n.rot.angle() == pytest.approx(math.pi, abs=1e-12)
    assert abs(n.rot.axis() @ p.gamma.rot.axis()) < 1e-12
    p_w = phase(spec, m_w)
    assert projective_distance(p_w.delta_rep, p.delta_rep) < 1e-9
    np.testing.assert_allclose(p_w.eta, p.eta, atol=1e-9)
    assert not same_petal(spec, m, m_w, p1=p, p2=p_w)
    assert not same_petal(spec, m_w, m, p1=p_w, p2=p)


def test_same_petal_accepts_torus_translates(ball):
    spec, m, p = ball
    assert same_petal(spec, m, m, p1=p, p2=p)
    # chart points are read off p's trajectory: a fresh flow keeps them on
    # the torus while making the comparison independent of that trajectory
    x = flow(spec, torus_embed(spec, p, 0.3, np.array([0.2, 0.4])), 0.4 * p.tau)
    assert same_petal(spec, m, x, p1=p)
    y = flow(spec, torus_embed(spec, p, 0.0, np.array([0.77, 0.13])), 0.4 * p.tau)
    assert same_petal(spec, m, y, p1=p)


def test_same_petal_rejects_other_flowers_and_petals(ball):
    spec, m, p = ball
    g = GroupElement(
        1.1, Rotation.from_axis_angle([0.3, -0.5, 0.81], 0.9), spec.group
    )
    assert not same_petal(spec, m, act(g, m), p1=p)
    m_far = ball_point(spec, a=(1.1, 0.3), a_dot=(-0.2, 0.25), w=0.1)
    assert not same_petal(spec, m, m_far, p1=p)
    m_w, _ = weyl_partner(spec, m, p)
    p_w = phase(spec, m_w)
    z = torus_embed(spec, p_w, 0.6, np.array([0.9, 0.2]))
    assert not same_petal(spec, m, z, p1=p)


def test_stabilizer_samples_split_into_two_petals(ball):
    spec, m, p = ball
    m_w, n = weyl_partner(spec, m, p)
    p_w = phase(spec, m_w)
    v = p.gamma.rot.axis()
    rng = np.random.default_rng(42)
    counts = [0, 0]
    for k in range(10):
        g = GroupElement(
            rng.uniform(0, TWO_PI),
            Rotation.from_axis_angle(v, rng.uniform(0, TWO_PI)),
            spec.group,
        )
        if k % 2:
            g = n @ g
        x = act(g, m)
        px = phase(spec, x)
        assert projective_distance(px.delta_rep, p.delta_rep) < 1e-9
        on1 = same_petal(spec, m, x, p1=p, p2=px)
        on2 = same_petal(spec, m_w, x, p1=p_w, p2=px)
        assert on1 != on2
        counts[1 if on2 else 0] += 1
    assert counts == [5, 5]


def test_rigid_petal_logic(rigid):
    spec, m, p = rigid
    # flowed on so that the comparison does not read p's trajectory twice
    x = flow(spec, torus_embed(spec, p, 0.7, np.array([0.85])), 0.4 * p.tau)
    assert same_petal(spec, m, x, p1=p)
    m_w, _ = weyl_partner(spec, m, p)
    p_w = phase(spec, m_w)
    assert projective_distance(p_w.delta_rep, p.delta_rep) < 1e-9
    assert not same_petal(spec, m, m_w, p1=p, p2=p_w)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_phase_result_to_dict_round_trips_through_json(ball):
    _, _, p = ball
    d = p.to_dict()
    blob = json.loads(json.dumps(d, sort_keys=True))
    assert blob["regular"] is True
    assert blob["tau"] == p.tau
    assert len(blob["gamma"]["quat"]) == 4
    assert len(blob["eta"]) == 2
    assert len(blob["frequencies"]) == 3
    assert blob["frequencies"][0] == 1.0 / p.tau
    assert set(blob["residuals"]) == {"closure", "defining", "section_iterations"}


@pytest.mark.parametrize("kind, grid", [("ball", 3), ("rigid", 5)])
def test_conjugacy_residual_does_not_depend_on_its_batch(kind, grid):
    # a chart point reads the same residual flowed alone as in the full
    # grid, where its end state is a strided column of the batch
    if kind == "ball":
        spec = make_ball_system(SurfaceProfile((0.0, 0.5)))
        m = ball_point(spec, a=(0.9, -0.2), a_dot=(0.1, 0.35), w=0.4)
    else:
        spec = make_rigid_body((1.0, 2.0, 3.0))
        m = rigid_point(spec, Rotation.identity(), (1.0, 0.2, 0.3))
    p = phase(spec, m)
    ticks = [i / grid for i in range(grid)]
    chart = [
        (alpha, beta, torus_embed(spec, p, alpha, beta))
        for alpha in ticks
        for beta in map(np.array, itertools.product(ticks, repeat=p.eta.size))
    ]
    batch = conjugacy_residuals(spec, p, chart, [TORUS_PROBE])[:, 0]
    alone = [conjugacy_residuals(spec, p, [pt], [TORUS_PROBE])[0, 0] for pt in chart]
    assert batch.tolist() == alone

"""Acceptance suite: eleven numbered criteria, one test (= one pytest
line) each.  Tolerances are pinned inline; samples come from the
admission-filtered generators with fixed seeds, so every run evaluates
the same initial conditions.

The criteria exercise, in order: the defining property of the
reconstruction phase (01), its invariance along the flow (02) and
equivariance under symmetry translations (03), the torus chart
linearizing the flow (04), reduced-orbit and frequency constancy across
a flower (05), the two-petal structure of a delta level set (06),
agreement of the two independent delta code paths (07), the rigid-body
rotation angle against a from-scratch oracle (08), conservation laws
(09), continuity of the reduced period along an energy sweep (10), and
negative controls proving the suite loses its green state when the
integrator is degraded (11)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from reconphase import (
    GroupElement,
    PhasePoint,
    Rotation,
    SurfaceProfile,
    act,
    ball_point,
    delta,
    delta_from_axis,
    flow,
    flow_trajectory,
    make_ball_system,
    make_rigid_body,
    phase,
    projective_distance,
    same_petal,
    state_distance,
    weyl_partner,
)
from reconphase.errors import (
    IntegrationError,
    NotPeriodicError,
    PeriodNotFoundError,
    PhaseInconsistencyError,
)
from reconphase.verify import (
    check_equivariance,
    check_flower_invariants,
    check_frequency_flower_constancy,
    check_linearization,
    check_period_continuity,
    check_phase_conserved,
    measured_rotation_angle,
    montgomery_oracle,
    sample_ball,
    sample_rigid,
)

SEED = 108
N_DEFINING = 50        # criterion 01 sample count per system
RTOL_PIN = 1e-10       # "integration tol 1e-10"
ATOL_PIN = 1e-12


@pytest.fixture(scope="module")
def ball_spec():
    return make_ball_system(SurfaceProfile((0.0, 0.5)))


@pytest.fixture(scope="module")
def rigid_spec():
    return make_rigid_body([1.0, 2.0, 3.0])


@pytest.fixture(scope="module")
def ball_samples(ball_spec):
    return sample_ball(ball_spec, np.random.default_rng(SEED), N_DEFINING)


@pytest.fixture(scope="module")
def rigid_samples(rigid_spec):
    return sample_rigid(rigid_spec, np.random.default_rng(SEED), N_DEFINING)


def test_criterion_01_phase_defining_property(
    ball_spec, rigid_spec, ball_samples, rigid_samples
):
    """act(gamma(m), m) equals flow(m, tau(m)) to < 1e-6 for 50 sampled
    initial conditions per system, integrating at rtol 1e-10; < 2 min."""
    t0 = time.perf_counter()
    for spec, samples in ((ball_spec, ball_samples), (rigid_spec, rigid_samples)):
        assert len(samples) >= 50
        worst = 0.0
        for m in samples:
            p = phase(spec, m, rtol=RTOL_PIN, atol=ATOL_PIN)
            # independent re-flow: do not trust the residual the phase
            # computation reported about itself
            m_tau = flow(spec, m, p.tau, rtol=RTOL_PIN, atol=ATOL_PIN)
            worst = max(worst, state_distance(act(p.gamma, m), m_tau))
        assert worst < 1e-6, f"{spec.kind}: defining distance {worst:.3e}"
    assert time.perf_counter() - t0 < 120.0


def test_criterion_02_phase_constant_along_flow(
    ball_spec, rigid_spec, ball_samples, rigid_samples
):
    """Recomputing the phase anywhere along the orbit reproduces tau,
    gamma and delta: residual < 5e-7 at t/tau in {0.2, 0.7, 1.5, 3.1},
    20 samples per system."""
    for spec, samples in ((ball_spec, ball_samples), (rigid_spec, rigid_samples)):
        report = check_phase_conserved(
            spec, samples[:20], 5e-7, seed=SEED, fractions=(0.2, 0.7, 1.5, 3.1)
        )
        assert report.n_samples == 20 and report.n_skipped == 0
        assert report.verdict == "pass", report.to_dict()


def test_criterion_03_phase_equivariance_under_group_translation(
    ball_spec, rigid_spec, ball_samples, rigid_samples
):
    """gamma(g.m) = g gamma(m) g^-1 and tau(g.m) = tau(m): residual
    < 5e-7 over 20 random group elements x 10 samples per system."""
    for spec, samples in ((ball_spec, ball_samples), (rigid_spec, rigid_samples)):
        report = check_equivariance(spec, samples[:10], 5e-7, seed=SEED, n_group=20)
        assert report.n_samples == 10 and report.n_skipped == 0
        assert report.verdict == "pass", report.to_dict()


def test_criterion_04_torus_chart_linearizes_flow(
    ball_spec, rigid_spec, ball_samples, rigid_samples
):
    """Flow-then-embed equals embed-then-shift on a 3x3x3 (alpha, beta,
    t) grid to < 1e-6, for at least 5 regular points per system."""
    for spec, samples in ((ball_spec, ball_samples), (rigid_spec, rigid_samples)):
        report = check_linearization(spec, samples[:5], 1e-6, seed=SEED)
        assert report.n_samples >= 5 and report.n_skipped == 0
        assert report.verdict == "pass", report.to_dict()


def test_criterion_05_flower_shares_reduced_orbit_and_frequencies(
    ball_spec, rigid_spec, ball_samples, rigid_samples
):
    """Every flower frame projects onto the base point's reduced orbit
    (< 1e-6 over 30 random (alpha, g) per system), and all flower points
    share the frequency vector modulo the branch lattice (< 1e-7)."""
    for spec, samples in ((ball_spec, ball_samples), (rigid_spec, rigid_samples)):
        orbit = check_flower_invariants(
            spec, samples[:3], 1e-6, seed=SEED, n_frames=10
        )
        assert orbit.n_samples == 3 and orbit.n_skipped == 0
        assert orbit.verdict == "pass", orbit.to_dict()

        freq = check_frequency_flower_constancy(
            spec, samples[:3], 1e-7, seed=SEED, n_frames=10
        )
        assert freq.n_samples == 3 and freq.n_skipped == 0
        assert freq.verdict == "pass", freq.to_dict()


def test_criterion_06_delta_level_set_is_two_petals(ball_spec, ball_samples):
    """Within one flower, the level set of delta consists of exactly two
    petals (the two-element Weyl group): the base point and its flipped
    partner have equal delta but lie on distinct petals, and 50 random
    level-set samples all classify into exactly one of the two."""
    m = ball_samples[0]
    p = phase(ball_spec, m)
    partner, _ = weyl_partner(ball_spec, m, p)
    p2 = phase(ball_spec, partner)

    # two petals with equal delta and distinct torus frames
    assert projective_distance(p.delta_rep, p2.delta_rep) < 1e-8
    assert not same_petal(ball_spec, m, partner, p1=p, p2=p2)
    assert not same_petal(ball_spec, partner, m, p1=p2, p2=p)

    # the level-set stabilizer: rotations about the phase axis, half of
    # them composed with a line-preserving half-turn (the other sheet)
    v = p.gamma.rot.axis()
    perp = np.cross(v, [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    rng = np.random.default_rng(SEED)
    counts = [0, 0]
    for k in range(50):
        alpha = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, 2 * math.pi)
        rot = Rotation.from_axis_angle(v, rng.uniform(0.0, 2 * math.pi))
        if k % 2 == 1:
            axis = Rotation.from_axis_angle(v, rng.uniform(0, 2 * math.pi)).apply(perp)
            rot = rot @ Rotation.from_axis_angle(axis, math.pi)
        g = GroupElement(theta, rot, ball_spec.group)
        x = act(g, flow(ball_spec, m, alpha * p.tau))
        px = phase(ball_spec, x)
        assert projective_distance(px.delta_rep, p.delta_rep) < 1e-8
        in_first = same_petal(ball_spec, m, x, p1=p, p2=px)
        in_second = same_petal(ball_spec, partner, x, p1=p2, p2=px)
        assert in_first != in_second, f"sample {k}: no third petal allowed"
        counts[0 if in_first else 1] += 1
    assert counts[0] > 0 and counts[1] > 0, counts


def test_criterion_07_projective_formula_matches_conjugator_delta(
    ball_spec, ball_samples
):
    """The closed-form projective image of the phase axis agrees with
    the conjugator-based delta on 50 regular ball samples, projective
    distance < 1e-8."""
    assert len(ball_samples) >= 50
    worst = 0.0
    for m in ball_samples:
        p = phase(ball_spec, m)
        assert p.regular
        worst = max(
            worst,
            projective_distance(delta(ball_spec, m, p=p), delta_from_axis(p.gamma)),
        )
    assert worst < 1e-8, f"projective disagreement {worst:.3e}"


def test_criterion_08_rotation_angle_matches_independent_oracle(rigid_spec):
    """The computed per-period rotation angle about the momentum axis
    matches the classical energy/solid-angle prediction to < 1e-6 rad on
    at least 10 off-separatrix orbits of the (1, 2, 3) body; < 1 min."""
    t0 = time.perf_counter()
    samples = sample_rigid(rigid_spec, np.random.default_rng(SEED + 1), 10)
    worst = 0.0
    for m in samples:
        p = phase(rigid_spec, m)
        measured = measured_rotation_angle(p, m)
        predicted = montgomery_oracle(rigid_spec.inertia, m)
        diff = abs(measured - predicted) % (2 * math.pi)
        diff = min(diff, 2 * math.pi - diff)
        worst = max(worst, diff)
    assert worst < 1e-6, f"oracle disagreement {worst:.3e} rad"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_conserved_quantities_hold_along_flow(
    ball_spec, rigid_spec, ball_samples, rigid_samples
):
    """Over one reduced period: relative energy drift < 1e-9 (both
    systems), rolling-constraint residual < 1e-9 (ball), angular
    momentum magnitude drift < 1e-9 (rigid body)."""
    for spec, samples in ((ball_spec, ball_samples), (rigid_spec, rigid_samples)):
        worst_energy = worst_extra = 0.0
        for m in samples[:10]:
            p = phase(spec, m)
            traj = flow_trajectory(spec, m, p.tau)
            e0 = spec.energy_y(traj.states[0])
            for y in traj.states:
                worst_energy = max(
                    worst_energy, abs(spec.energy_y(y) - e0) / abs(e0)
                )
            if spec.kind == "ball":
                for y in traj.states:
                    worst_extra = max(worst_extra, abs(spec.rolling_residual_y(y)))
            else:
                l0 = spec.momentum_norm_y(traj.states[0])
                for y in traj.states:
                    worst_extra = max(
                        worst_extra, abs(spec.momentum_norm_y(y) - l0)
                    )
        assert worst_energy < 1e-9, f"{spec.kind}: energy drift {worst_energy:.3e}"
        assert worst_extra < 1e-9, f"{spec.kind}: constraint drift {worst_extra:.3e}"


def test_criterion_10_period_varies_continuously_along_energy_sweep(ball_spec):
    """tau along a 50-point family of increasing energy shows no jump
    exceeding 10x the local finite-difference trend."""
    scales = np.linspace(0.6, 2.0, 50)
    family = [
        ball_point(
            ball_spec,
            a=[0.9, -0.2],
            a_dot=[s * 0.1, s * 0.35],
            w=s * 0.4,
        )
        for s in scales
    ]
    energies = [ball_spec.energy_y(ball_spec.pack(m)) for m in family]
    assert all(e1 > e0 for e0, e1 in zip(energies, energies[1:]))

    report = check_period_continuity(ball_spec, family, tol=1.0, jump_factor=10.0)
    assert report.n_skipped == 0
    assert report.verdict == "pass", report.to_dict()


def test_criterion_11_degraded_tolerance_breaks_the_suite(
    ball_spec, rigid_spec, ball_samples, rigid_samples
):
    """Negative control: on a crude system, one that integrates at
    tolerance 1e-2, the defining property (criterion 01) and the
    torus-chart linearization (criterion 04) both fail, so the green
    suite carries information.  The crude system's closure and
    consistency guards are loosened so the corrupted flow is allowed to
    produce an answer instead of raising."""

    def crude(spec, samples):
        system = replace(spec, defaults=spec.defaults.override(
            rtol=1e-2, atol=1e-2, tol_closure=0.5, tol_phase=np.inf))
        return system, [PhasePoint(m.y, system) for m in samples]

    for spec, samples in (crude(ball_spec, ball_samples[:6]),
                          crude(rigid_spec, rigid_samples[:6])):
        n_pass = n_fail = 0
        for m in samples:
            try:
                p = phase(spec, m)
            except (IntegrationError, NotPeriodicError, PeriodNotFoundError,
                    PhaseInconsistencyError):
                n_fail += 1  # could not even produce a phase
                continue
            if p.residuals["defining"] < 1e-6:
                n_pass += 1
            else:
                n_fail += 1
        assert n_pass == 0, f"{spec.kind}: corrupted flow met the 1e-6 bound"
        assert n_fail >= 5

    broken = check_linearization(*crude(rigid_spec, rigid_samples[:5]), 1e-6, seed=SEED)
    assert broken.verdict == "fail" and broken.max_residual > 1e-6
    broken_ball = check_linearization(*crude(ball_spec, ball_samples[:5]), 1e-6,
                                      seed=SEED)
    assert broken_ball.verdict != "pass"

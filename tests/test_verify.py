import gc
import itertools
import json
import math
import os
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from reconphase.dynsys import (
    PhasePoint,
    SurfaceProfile,
    ball_point,
    make_ball_system,
    make_rigid_body,
    rigid_point,
)
import reconphase.verify as verify
from reconphase.errors import (
    IntegrationError,
    OracleUnavailableError,
    PhaseInconsistencyError,
    ReconphaseError,
    SamplerExhaustedError,
)
from reconphase.liegroup import GroupElement, Rotation, group_distance
from reconphase.reconstruct import conjugacy_residuals, phase, torus_embed
from reconphase.verify import (
    ALL_CHECKS,
    CheckReport,
    check_delta_integral,
    check_equivariance,
    check_flower_invariants,
    check_frequency_flower_constancy,
    check_linearization,
    check_period_continuity,
    check_phase_conserved,
    check_vf_invariance,
    measured_rotation_angle,
    momentum_loop_area,
    montgomery_oracle,
    rigid_family_margin,
    sample_ball,
    sample_points,
    sample_rigid,
)

TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    return abs((x + math.pi) % TWO_PI - math.pi)


@pytest.fixture(scope="module")
def ball_spec():
    return make_ball_system(SurfaceProfile((0.0, 0.5)), annulus=(0.2, 2.5))


@pytest.fixture(scope="module")
def rigid_spec():
    return make_rigid_body((1.0, 2.0, 3.0))


@pytest.fixture(scope="module")
def ball_samples(ball_spec):
    return sample_ball(ball_spec, np.random.default_rng(7), 3)


@pytest.fixture(scope="module")
def rigid_samples(rigid_spec):
    return sample_rigid(rigid_spec, np.random.default_rng(7), 4)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_ball_sampler_region_and_admission(ball_spec, ball_samples):
    for m in ball_samples:
        r = float(np.linalg.norm(m.a))
        assert 0.5 <= r <= 1.5
        assert np.linalg.norm(m.a_dot) <= 0.6
        assert abs(m.w) <= 0.6
    # admission guarantees a regular phase exists
    assert phase(ball_spec, ball_samples[0]).regular


def test_ball_sampler_deterministic(ball_spec, ball_samples):
    again = sample_ball(ball_spec, np.random.default_rng(7), 3)
    for m1, m2 in zip(ball_samples, again):
        assert np.array_equal(m1.a, m2.a)
        assert np.array_equal(m1.a_dot, m2.a_dot)
        assert m1.w == m2.w


def test_rigid_sampler_stratifies_families(rigid_spec, rigid_samples):
    margins = [rigid_family_margin(rigid_spec, m.omega_body) for m in rigid_samples]
    assert all(abs(k) >= 0.12 for k in margins)
    signs = [k > 0 for k in margins]
    assert signs == [True, False, True, False]  # alternating by construction


def test_rigid_family_margin_reference_values(rigid_spec):
    # short axis: I2/I1 - 1 = +1;  long axis: I2/I3 - 1 = -1/3;  middle: 0
    assert rigid_family_margin(rigid_spec, (1.0, 0, 0)) == pytest.approx(1.0)
    assert rigid_family_margin(rigid_spec, (0, 0, 0.7)) == pytest.approx(-1 / 3)
    assert rigid_family_margin(rigid_spec, (0, 1.3, 0)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_rigid_classifier_ignores_inertia_order(rigid_spec, perm):
    # listing the principal moments in another order relabels the axes of
    # the same body: the family margin and the sampler's strata must follow
    perm = list(perm)
    body = make_rigid_body(rigid_spec.inertia[perm])
    rng = np.random.default_rng(3)
    for _ in range(20):
        omega = rng.normal(size=3)
        assert rigid_family_margin(body, omega[perm]) == pytest.approx(
            rigid_family_margin(rigid_spec, omega), abs=1e-14
        )
    margins = [rigid_family_margin(body, m.omega_body)
               for m in sample_rigid(body, np.random.default_rng(7), 2)]
    assert all(abs(k) >= 0.12 for k in margins)
    assert [k > 0 for k in margins] == [True, False]


@pytest.mark.parametrize("inertia, positive", [((1.0, 1.0, 2.0), False),
                                               ((1.0, 2.0, 2.0), True)])
def test_rigid_sampler_draws_the_one_family_of_a_symmetric_top(inertia, positive):
    # with two equal moments the family margin keeps one sign everywhere
    body = make_rigid_body(inertia)
    margins = [rigid_family_margin(body, m.omega_body)
               for m in sample_rigid(body, np.random.default_rng(7), 3)]
    assert all(abs(k) >= 0.12 for k in margins)
    assert [k > 0 for k in margins] == [positive] * 3


def test_rigid_sampler_exhaustion_is_typed(rigid_spec, monkeypatch):
    # the family margin of inertia (1, 2, 3) lies in [-1/3, 1]: no draw
    # reaches |margin| >= 2, so no candidate gets as far as phase()
    def no_phase(*args, **kwargs):
        raise AssertionError("a candidate reached phase()")

    monkeypatch.setattr(verify, "phase", no_phase)
    with pytest.raises(SamplerExhaustedError) as exc:
        sample_rigid(rigid_spec, np.random.default_rng(0), 2, margin=2.0)
    assert isinstance(exc.value, ReconphaseError)
    assert exc.value.n_accepted == 0
    assert exc.value.budget == 400


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_report_verdict_matches_residual(ball_spec, ball_samples):
    rep = check_vf_invariance(ball_spec, ball_samples, tol=1e-10, seed=3)
    assert rep.passed and rep.verdict == "pass"
    assert rep.max_residual < rep.tolerance
    tight = check_vf_invariance(ball_spec, ball_samples, tol=1e-300, seed=3)
    assert tight.verdict == "fail"


def test_report_serialization_excludes_wall_time(ball_spec, ball_samples):
    rep = check_vf_invariance(ball_spec, ball_samples, tol=1e-10, seed=3)
    d = rep.to_dict()
    assert "wall_time" not in d
    assert d["seed"] == 3
    assert d["system"] == "ball"
    assert rep.wall_time >= 0.0


def test_reports_deterministic_and_idempotent(ball_spec, ball_samples):
    a = check_equivariance(ball_spec, ball_samples[:2], 5e-7, seed=11, n_group=2)
    b = check_equivariance(ball_spec, ball_samples[:2], 5e-7, seed=11, n_group=2)
    assert a.to_dict() == b.to_dict()


def test_each_check_defaults_to_its_acceptance_bound(ball_spec):
    # the table verify runs, in its order; a report's tolerance is the
    # check's default tol
    bounds = {"phase_conserved": 5e-7, "equivariance": 5e-7, "linearization": 1e-6,
              "flower_invariants": 1e-6, "delta_integral": 1e-6,
              "frequency_flower_constancy": 1e-7, "vf_invariance": 5e-7}
    assert list(ALL_CHECKS) == list(bounds)
    for name, fn in ALL_CHECKS.items():
        assert fn(ball_spec, []).tolerance == bounds[name], name


def test_empty_samples_are_inconclusive(ball_spec):
    for name, fn in [*ALL_CHECKS.items(), ("period_continuity", check_period_continuity)]:
        rep = fn(ball_spec, [], 1e-6)
        assert rep.verdict == "inconclusive", name
        assert rep.max_residual is None
        assert rep.n_samples == 0


def test_unperiodic_samples_are_skipped(rigid_spec, rigid_samples):
    # a rigid relative equilibrium has no reduced period: every
    # phase-based check skips it and scores the healthy sample alone
    equilibrium = rigid_point(rigid_spec, Rotation.identity(), (0.9, 0.0, 0.0))
    samples = [rigid_samples[0], equilibrium]
    for name, fn in ALL_CHECKS.items():
        rep = fn(rigid_spec, samples, 1.0, seed=0)
        if name == "vf_invariance":
            assert (rep.n_samples, rep.n_skipped) == (2, 0), name
            continue
        assert (rep.n_samples, rep.n_skipped) == (1, 1), name
        alone = fn(rigid_spec, [equilibrium], 1.0, seed=0)
        assert alone.verdict == "inconclusive", name


# ---------------------------------------------------------------------------
# the checks pass on healthy samples
# ---------------------------------------------------------------------------

def test_all_checks_pass_ball(ball_spec, ball_samples):
    reports = [
        check_phase_conserved(ball_spec, ball_samples, 5e-7, seed=1,
                              fractions=(0.2, 1.5)),
        check_equivariance(ball_spec, ball_samples, 5e-7, seed=2, n_group=2),
        check_linearization(ball_spec, ball_samples, 1e-6, seed=3),
        check_flower_invariants(ball_spec, ball_samples, 1e-6, seed=4, n_frames=3),
        check_delta_integral(ball_spec, ball_samples, 1e-6, seed=5),
        check_frequency_flower_constancy(ball_spec, ball_samples, 1e-7, seed=6,
                                         n_frames=2),
        check_vf_invariance(ball_spec, ball_samples, 1e-10, seed=7),
    ]
    for rep in reports:
        assert rep.passed, (rep.name, rep.max_residual)
        assert rep.n_skipped == 0


def test_all_checks_pass_rigid(rigid_spec, rigid_samples):
    samples = rigid_samples[:3]
    reports = [
        check_phase_conserved(rigid_spec, samples, 5e-7, seed=1,
                              fractions=(0.7, 3.1)),
        check_equivariance(rigid_spec, samples, 5e-7, seed=2, n_group=2),
        check_linearization(rigid_spec, samples, 1e-6, seed=3),
        check_flower_invariants(rigid_spec, samples, 1e-6, seed=4, n_frames=3),
        check_delta_integral(rigid_spec, samples, 1e-6, seed=5),
        check_frequency_flower_constancy(rigid_spec, samples, 1e-7, seed=6,
                                         n_frames=2),
        check_vf_invariance(rigid_spec, samples, 1e-10, seed=7),
    ]
    for rep in reports:
        assert rep.passed, (rep.name, rep.max_residual)


def test_linearization_residual_is_the_commuting_square(ball_spec, ball_samples):
    # the check's chart: 3 alphas x 3 betas, each flowed over 3 fractions
    worst = 0.0
    for m in ball_samples:
        p = phase(ball_spec, m)
        betas = [np.zeros(2), np.full(2, 0.3), np.array([0.7, 0.2])]
        chart = [(al, be, torus_embed(ball_spec, p, al, be))
                 for al in (0.0, 1.0 / 3.0, 2.0 / 3.0) for be in betas]
        res = conjugacy_residuals(ball_spec, p, chart, (0.15, 0.45, 0.75))
        assert res.shape == (9, 3)
        worst = max(worst, float(res.max()))
    rep = check_linearization(ball_spec, ball_samples, 1e-6)
    assert rep.max_residual == worst


def test_checks_pass_near_relative_equilibrium(rigid_spec):
    m = rigid_point(
        rigid_spec, Rotation.from_axis_angle([0.1, 0.8, 0.2], 0.5),
        (1.1, 0.005, 0.008),
    )
    assert check_phase_conserved(rigid_spec, [m], 1e-6, seed=1,
                                 fractions=(0.2, 0.7)).passed
    assert check_linearization(rigid_spec, [m], 1e-6, seed=2).passed


def test_period_continuity_smooth_family(ball_spec):
    fam = [
        ball_point(ball_spec, a=(0.9, -0.2), a_dot=(0.1, 0.35), w=w)
        for w in np.linspace(-0.5, 0.5, 12)
    ]
    rep = check_period_continuity(ball_spec, fam, 1.0)
    assert rep.passed
    assert rep.n_samples == 11  # one residual per period jump


def test_period_continuity_detects_separatrix_spike(rigid_spec):
    def fam_point(theta):
        u = np.array([math.cos(theta), 0.35, math.sin(theta)])
        u /= np.linalg.norm(u)
        return rigid_point(rigid_spec, Rotation.identity(), 1.2 * u / rigid_spec.inertia)

    angles = sorted(list(np.linspace(0.15, 1.45, 14)) + [math.pi / 3 + 2e-6])
    rep = check_period_continuity(rigid_spec, [fam_point(t) for t in angles], 1.0)
    assert rep.verdict == "fail"


def _crude(spec, samples):
    """The negative control's crude system, which integrates at tolerance
    1e-2 with its closure and consistency guards loosened, and the
    samples as its points."""
    system = replace(spec, defaults=spec.defaults.override(
        rtol=1e-2, atol=1e-2, tol_closure=0.5, tol_phase=np.inf))
    return system, [PhasePoint(m.y, system) for m in samples]


def test_negative_control_corrupted_flow_fails(rigid_spec, rigid_samples):
    rep = check_linearization(*_crude(rigid_spec, rigid_samples[:2]), 1e-6, seed=3)
    assert rep.verdict == "fail"
    assert rep.max_residual > 1e-4


def test_singular_frame_phase_fails_frequency_constancy(rigid_spec, rigid_samples,
                                                       monkeypatch):
    # regularity is conjugation-invariant: a singular frame phase at a
    # regular base is an inconsistency, not a frame to drop
    samples = rigid_samples[:1]
    real = verify.phase

    def singular_frames(spec, m, **kw):
        p = real(spec, m, **kw)
        if any(m is s for s in samples):
            return p
        return replace(p, regular=False, conjugator=None, eta=None,
                       frequencies=None, delta_rep=None)

    monkeypatch.setattr(verify, "phase", singular_frames)
    rep = check_frequency_flower_constancy(rigid_spec, samples, 1e-7, seed=6,
                                           n_frames=2)
    assert rep.verdict == "fail"
    assert rep.max_residual == 1.0


@pytest.mark.parametrize("nan_sample", [0, 1], ids=["nan_first", "nan_after_finite"])
def test_nan_residual_fails_the_check(rigid_spec, rigid_samples, monkeypatch, nan_sample):
    # a NaN residual is the sample's score and the report's, wherever it
    # comes in the order of residuals and of samples
    samples = rigid_samples[:2]
    fractions = (0.2, 0.7)
    real = verify.group_distance
    calls = []

    def nan_for_one_sample(g, h):
        calls.append(None)
        sample = (len(calls) - 1) // len(fractions)
        return math.nan if sample == nan_sample else real(g, h)

    monkeypatch.setattr(verify, "group_distance", nan_for_one_sample)
    rep = check_phase_conserved(rigid_spec, samples, 1e-6, seed=0, fractions=fractions)
    assert len(calls) == 2 * len(fractions)
    assert (rep.n_samples, rep.n_skipped) == (2, 0)
    assert rep.verdict == "fail" and math.isnan(rep.max_residual)
    assert '"max_residual": NaN' in json.dumps(rep.to_dict())


def test_nan_orbit_probe_fails_flower_invariants(rigid_spec, rigid_samples, monkeypatch):
    # a frame whose fresh flow turns NaN is scored NaN by the closest
    # approach, so the check fails on it rather than raising
    real = verify.flow
    calls = []

    def nan_for_one_frame(spec, m, t):
        calls.append(None)
        x = real(spec, m, t)
        if len(calls) == 2:
            y = x.y.copy()
            y[list(spec.reduced_rows)] = math.nan
            x = spec.unpack(y)
        return x

    monkeypatch.setattr(verify, "flow", nan_for_one_frame)
    rep = check_flower_invariants(rigid_spec, rigid_samples[:1], 1e-6, seed=0, n_frames=3)
    assert len(calls) == 3
    assert rep.verdict == "fail" and math.isnan(rep.max_residual)


@pytest.mark.parametrize("check", [check_phase_conserved, check_equivariance,
                                   check_delta_integral,
                                   check_frequency_flower_constancy])
def test_inconsistent_fresh_phase_scores_its_residual(rigid_spec, rigid_samples,
                                                      monkeypatch, check):
    # a fresh phase that is off its group orbit is the sample's score, not
    # a skip: the error's residual stands for the whole sample
    samples = rigid_samples[:2]
    real = verify.phase

    def inconsistent(spec, m, **kw):
        if any(m is s for s in samples):
            return real(spec, m, **kw)
        raise PhaseInconsistencyError("off the group orbit", residual=0.25)

    monkeypatch.setattr(verify, "phase", inconsistent)
    rep = check(rigid_spec, samples, 1e-6, seed=1)
    assert (rep.n_samples, rep.n_skipped) == (2, 0)
    assert rep.max_residual == 0.25 and rep.verdict == "fail"


def test_wrong_petal_verdict_scores_one(rigid_spec, rigid_samples, monkeypatch):
    # the two petal tests are binary: each violation counts as residual 1
    real = verify.same_petal
    monkeypatch.setattr(verify, "same_petal", lambda *a, **kw: not real(*a, **kw))
    rep = check_delta_integral(rigid_spec, rigid_samples[:1], 1e-6, seed=5)
    assert rep.verdict == "fail"
    assert rep.max_residual == 1.0


# ---------------------------------------------------------------------------
# one base phase per sample
# ---------------------------------------------------------------------------

PHASE_CHECKS = (check_phase_conserved, check_equivariance, check_linearization,
                check_flower_invariants, check_delta_integral,
                check_frequency_flower_constancy)


def _spy_on_phase(monkeypatch):
    """Record (point, keywords, result) of every ``verify.phase`` call."""
    calls = []
    real = verify.phase

    def spy(spec, m, **kw):
        p = real(spec, m, **kw)
        calls.append((m, kw, p))
        return p

    monkeypatch.setattr(verify, "phase", spy)
    return calls


def test_base_phase_is_computed_once_per_sample(rigid_spec, monkeypatch):
    calls = _spy_on_phase(monkeypatch)
    samples = sample_points(rigid_spec, np.random.default_rng(5), 2)
    n_sampler = len(calls)
    for check in PHASE_CHECKS:
        assert check(rigid_spec, samples, 1e-6, seed=1).n_skipped == 0
    # the sampler's admission call is the only phase of each sample point
    assert [sum(m is s for m, _, _ in calls) for s in samples] == [1, 1]
    # the rest are fresh phases of flowed, translated or framed points:
    # 4 in phase_conserved, 5 in equivariance, 4 in delta_integral and 4
    # in frequency_flower_constancy, per sample
    assert len(calls) - n_sampler == 17 * len(samples)


def test_negative_control_computes_its_own_base(rigid_spec, monkeypatch):
    samples = sample_points(rigid_spec, np.random.default_rng(5), 2)
    calls = _spy_on_phase(monkeypatch)
    crude, crude_samples = _crude(rigid_spec, samples)
    rep = check_linearization(crude, crude_samples, 1e-6, seed=3)
    assert rep.verdict == "fail" and rep.max_residual > 1e-4
    # the crude system's points are points of their own, with their own base
    assert len(calls) == len(samples)
    assert all(m is s and kw == {} for (m, kw, _), s in zip(calls, crude_samples))
    # the base the sampler computed is still the one kept
    n_crude = len(calls)
    assert check_linearization(rigid_spec, samples, 1e-6, seed=3).passed
    assert len(calls) == n_crude


def test_base_phase_memo_is_freed_with_the_samples(rigid_spec, monkeypatch):
    calls = _spy_on_phase(monkeypatch)
    samples = sample_points(rigid_spec, np.random.default_rng(5), 1)
    p = verify._base_phase(rigid_spec, samples[0])
    assert p is calls[-1][2]
    ref, point_ref = weakref.ref(p), weakref.ref(samples[0])
    del p, samples, calls[:]
    gc.collect()
    # the memo holds neither the result nor the point it is keyed by
    assert ref() is None and point_ref() is None


# ---------------------------------------------------------------------------
# checks in forked workers
# ---------------------------------------------------------------------------

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_workers(monkeypatch):
    # two workers whatever the machine has, so the forked path always runs
    monkeypatch.setattr(verify, "_usable_cores", lambda: 2)


def test_worker_results_come_back_in_input_order(two_workers):
    def slow_square(x):
        time.sleep(0.02 * (5 - x))  # the first items are the slowest
        return x * x, os.getpid()

    out = verify._map_in_workers(slow_square, range(6))
    assert [v for v, _ in out] == [x * x for x in range(6)]
    assert os.getpid() not in {pid for _, pid in out}
    _assert_no_child_left()


def test_lowest_index_error_is_raised_with_its_payload(two_workers):
    def fail_two_and_four(i):
        if i == 2:
            time.sleep(0.2)  # item 4's error arrives first
        if i in (2, 4):
            raise IntegrationError(f"item {i} failed", last_state=np.array([i, 0.5]),
                                   t=float(i))
        return i

    with pytest.raises(IntegrationError, match="item 2 failed") as exc:
        verify._map_in_workers(fail_two_and_four, range(6))
    assert exc.value.t == 2.0
    assert exc.value.last_state.tolist() == [2.0, 0.5]
    # the worker's traceback names the frame that raised
    assert "in fail_two_and_four" in str(exc.value.__cause__)
    assert not hasattr(exc.value, "_worker_traceback")
    _assert_no_child_left()


def test_a_worker_dying_without_a_result_is_a_typed_error(two_workers):
    def die_on_b(item):
        if item == "b":
            os._exit(7)
        return item

    with pytest.raises(ReconphaseError, match="no result for 'b': worker exit status 7"):
        verify._map_in_workers(die_on_b, ["a", "b", "c"])
    _assert_no_child_left()


def test_one_item_runs_in_the_calling_process(two_workers):
    assert verify._map_in_workers(lambda _: os.getpid(), ["only"]) == [os.getpid()]


# ---------------------------------------------------------------------------
# the independent rotation-angle oracle
# ---------------------------------------------------------------------------

def test_oracle_agrees_with_phase_both_families(rigid_spec, rigid_samples):
    # the sampled (1, 2, 3) orbits, plus each family on bodies whose
    # principal moments are not listed in increasing order
    cases = [(rigid_spec, m) for m in rigid_samples]
    # and a loop next to the pole
    cases.append((rigid_spec, rigid_point(rigid_spec, Rotation.identity(),
                                          (1e-4, 1e-4, 0.9))))
    for inertia in ((3.0, 2.0, 1.0), (2.0, 1.0, 3.0), (1.0, 3.0, 2.0), (1.0, 1.0, 3.0)):
        spec = make_rigid_body(inertia)
        for omega in ((1.0, 0.2, 0.3), (0.2, 0.3, 1.0), (0.3, 1.0, 0.2)):
            cases.append((spec, rigid_point(spec, Rotation.identity(), omega)))
    for spec, m in cases:
        p = phase(spec, m)
        predicted = montgomery_oracle(spec.inertia, m)
        measured = measured_rotation_angle(p, m)
        assert wrap_angle(predicted - measured) < 1e-6
        assert 0.0 <= measured < TWO_PI


def test_oracle_symmetric_top_closed_form():
    # inertia (1, 2, 2): the momentum loop precesses uniformly about e1
    # with period 2 pi I2 / (|I2 - I1| |Omega_1|), and the per-period
    # rotation angle is ||L|| tau / I2 (mod 2 pi); the second loop lies
    # next to the pole
    spec = make_rigid_body((1.0, 2.0, 2.0))
    for omega in ((0.8, 0.3, -0.25), (0.8, 1e-5, 1e-5)):
        omega = np.array(omega)
        m = rigid_point(spec, Rotation.identity(), omega)
        L = float(np.linalg.norm(spec.inertia * omega))
        tau = TWO_PI * 2.0 / (1.0 * 0.8)
        expected = (L * tau / 2.0) % TWO_PI
        assert wrap_angle(montgomery_oracle(spec.inertia, m) - expected) < 1e-8


@pytest.mark.parametrize("inertia", [(1.0, 1.0, 2.0), (2.0, 2.0, 1.0), (1.5, 1.5, 0.7)],
                         ids=["112", "221", "1.5-1.5-0.7"])
def test_symmetric_tops_match_their_elementary_phase(inertia):
    # I1 = I2: Omega_3 is constant, the loop's period is
    # 2 pi I1 / |(I3 - I1) Omega_3|, and gamma is the rotation by
    # tau |L| / I1 about the spatial momentum axis
    spec = make_rigid_body(inertia)
    i1, _, i3 = inertia
    for m in sample_rigid(spec, np.random.default_rng(0), 4):
        tau = TWO_PI * i1 / abs((i3 - i1) * m.omega_body[2])
        L_body = spec.inertia * m.omega_body
        L = float(np.linalg.norm(L_body))
        angle = tau * L / i1
        gamma = GroupElement(0.0, Rotation.from_axis_angle(m.Q.apply(L_body / L), angle),
                             spec.group)
        p = phase(spec, m)
        assert abs(p.tau - tau) < 1e-10 * tau
        assert group_distance(p.gamma, gamma) < 1e-9
        assert wrap_angle(montgomery_oracle(spec.inertia, m) - angle) < 1e-12


def test_oracle_point_loop_requires_period(rigid_spec):
    m = rigid_point(rigid_spec, Rotation.identity(), (0.9, 0.0, 0.0))
    with pytest.raises(OracleUnavailableError):
        montgomery_oracle(rigid_spec.inertia, m)
    ang = montgomery_oracle(rigid_spec.inertia, m, period=7.0)
    assert ang == pytest.approx((0.9 * 7.0) % TWO_PI, abs=1e-12)


@pytest.mark.parametrize(
    "inertia, omega",
    [
        ((1.0, 2.0, 3.0), (1e-6, 0.8, 1e-6)),
        ((2.0, 1.0, 3.0), (0.4, 1e-6, 1e-6)),
        ((1.0, 3.0, 2.0), (1e-6, 1e-6, 0.4)),
    ],
    ids=["123", "213", "132"],
)
def test_oracle_separatrix_unavailable(inertia, omega):
    # momentum next to the middle principal axis, wherever it is listed
    spec = make_rigid_body(inertia)
    m = rigid_point(spec, Rotation.identity(), omega)
    with pytest.raises(OracleUnavailableError):
        montgomery_oracle(spec.inertia, m)


def test_loop_reversal_negates_enclosed_area(rigid_spec, rigid_samples):
    m = rigid_samples[0]
    tau_f, area_f = momentum_loop_area(rigid_spec.inertia, m)
    tau_b, area_b = momentum_loop_area(rigid_spec.inertia, m, reverse=True)
    assert abs(tau_f - tau_b) < 1e-9
    assert abs(area_f + area_b) < 1e-8
    assert abs(area_f) > 1e-3  # a genuine loop, not a degenerate point


# criterion 08's orbits of the (1, 2, 3) body (sample_rigid, seed 109): body
# angular velocity, then montgomery_oracle and momentum_loop_area forward and
# reversed, as an integration of the loop (DOP853, rtol 1e-12, atol 1e-14,
# ended by a one-turn azimuth event) recorded them
ORACLE_PINS = [
    ((0.6168166538580723, 0.4137812683958959, 0.0001973374641500848),
     0.7789922234828293, (16.0437190646659, -2.108675272011857),
     (16.043719064665893, 2.1086752720118596)),
    ((0.04191108529425219, -0.2090311483989138, -0.2630038093403319),
     0.9153549017077447, (22.809929078549334, 0.3712969886401478),
     (22.809929078545245, -0.3712969886401206)),
    ((0.8151703366441682, 0.09125768534847033, -0.05116182189160574),
     4.794528609343361, (13.348317665212463, -0.24909478750971994),
     (13.348317665211972, 0.24909478750970024)),
    ((-0.1875289245188487, 0.027299989230139054, 0.48769196569091733),
     0.2413052399908855, (13.043387502207375, 0.104660179542135),
     (13.043387502209516, -0.10466017954215547)),
    ((0.8074953903860937, 0.17595600626707508, -0.059326807726276125),
     5.087993461341167, (13.375490294365925, -0.5872783570953705),
     (13.37549029435865, 0.5872783570952549)),
    ((0.11948728414950482, 0.3404479667192394, 0.19721804835273382),
     3.5264934855941625, (27.413423411252158, 1.1196717393971494),
     (27.41342341123144, -1.1196717393964661)),
    ((-0.5433135599234329, -0.30721868231409716, 0.11597507319399268),
     1.0720327435675951, (19.3332969269288, -2.2610083374338714),
     (19.333296926925186, 2.261008337433705)),
    ((0.12130913159450137, -0.2670581068810466, 0.21896473809532427),
     2.260003262968617, (26.548284496000576, 0.8059556353316428),
     (26.548284496021523, -0.805955635332218)),
    ((-1.4004348029531546, 0.10317523848116622, 0.028275008544851644),
     4.6534925222530195, (7.76287220255928, -0.07099246337954758),
     (7.7628722025580545, 0.07099246337952969)),
    ((0.11726948861652473, -0.11002733755325395, -0.35023838529033186),
     0.32869435916343726, (17.964012808073146, 0.14131651584136204),
     (17.964012808032766, -0.141316515841093)),
]


# the closed form's own floats on the same orbits: montgomery_oracle, then
# the period and area of momentum_loop_area
CLOSED_FORM_PINS = [
    (0.7789922234778661, 16.04371906465947, -2.108675272011398),
    (0.9153549016974702, 22.80992907851686, 0.3712969886396449),
    (4.794528609335005, 13.348317665202265, -0.24909478750963565),
    (0.24130523997966957, 13.043387502184922, 0.1046601795419404),
    (5.08799346133069, 13.375490294353277, -0.587278357095089),
    (3.5264934855721606, 27.41342341119157, 1.1196717393949962),
    (1.0720327435626906, 19.33329692692138, -2.261008337433334),
    (2.260003262960705, 26.548284495975977, 0.8059556353308901),
    (4.653492522245946, 7.7628722025542345, -0.0709924633795378),
    (0.3286943591476392, 17.96401280803018, 0.1413165158410079),
]


def test_oracle_floats_on_criterion_08_orbits_are_pinned(rigid_spec):
    for (omega, angle, forward, backward), pins in zip(ORACLE_PINS, CLOSED_FORM_PINS):
        m = rigid_point(rigid_spec, Rotation.identity(), omega)
        got = montgomery_oracle(rigid_spec.inertia, m)
        tau, area = momentum_loop_area(rigid_spec.inertia, m)
        assert (got, tau, area) == pins
        assert momentum_loop_area(rigid_spec.inertia, m, reverse=True) == (tau, -area)
        # the loop integration's record: measured 2.2e-11 rad in angle,
        # 6.1e-11 in period and 2.2e-12 in area
        assert wrap_angle(got - angle) < 1e-10
        for (tau_i, area_i), sign in ((forward, 1.0), (backward, -1.0)):
            assert abs(tau - tau_i) < 1e-10
            assert abs(sign * area - area_i) < 1e-11


@pytest.mark.parametrize("axis", [0, 2], ids=["smallest", "largest"])
def test_point_loop_has_the_small_oscillation_period(rigid_spec, axis):
    # momentum on the pole: the loop is the limit of the small loops about
    # it, whose rate is |L| sqrt((1/I_a - 1/I_b)(1/I_a - 1/I_c)), and
    # encloses no area
    omega = np.zeros(3)
    omega[axis] = 0.9
    m = rigid_point(rigid_spec, Rotation.identity(), omega)
    tau, area = momentum_loop_area(rigid_spec.inertia, m)
    i_a, i_b, i_c = np.roll(rigid_spec.inertia, -axis)
    rate = 0.9 * i_a * math.sqrt((1.0 / i_a - 1.0 / i_b) * (1.0 / i_a - 1.0 / i_c))
    assert abs(tau - TWO_PI / rate) < 1e-14 * tau
    assert abs(area) < 1e-14


def test_cel_matches_carlson_forms():
    # K = R_F(0, kc^2, 1), and the third kind at n = 1 - p is
    # R_F + (n/3) R_J(0, kc^2, 1, p), from scipy as the reference.  For
    # large p the two terms cancel, so the reference itself is only good
    # to a few ulps of the larger term: measured 5.3e-16 of |R_F| + |(n/3) R_J|
    # (and 2.9e-16 relative for K) on 2000 such draws
    from scipy import special

    rng = np.random.default_rng(1601)
    for kc, p in zip(10.0 ** rng.uniform(-6.0, 0.0, 500), 10.0 ** rng.uniform(0.0, 6.0, 500)):
        rf = special.elliprf(0.0, kc * kc, 1.0)
        rj = (1.0 - p) / 3.0 * special.elliprj(0.0, kc * kc, 1.0, p)
        assert abs(verify._cel(kc, 1.0) - rf) < 1e-15 * rf
        assert abs(verify._cel(kc, p) - (rf + rj)) < 2e-15 * (rf + abs(rj))


def test_loop_area_without_momentum_is_unavailable(rigid_spec):
    m = rigid_point(rigid_spec, Rotation.identity(), (0.0, 0.0, 0.0))
    with pytest.raises(OracleUnavailableError, match="zero angular momentum"):
        momentum_loop_area(rigid_spec.inertia, m)


def test_sample_points_dispatches(ball_spec, rigid_spec):
    rng = np.random.default_rng(0)
    assert sample_points(ball_spec, rng, 1)[0].system is ball_spec
    assert sample_points(rigid_spec, rng, 1)[0].system is rigid_spec

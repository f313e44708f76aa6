"""Named verification checks with machine-readable verdicts, plus the
independent rigid-body rotation-angle oracle.

Each ``check_*`` function takes a system, a list of sample phase points,
and a tolerance, and returns a :class:`CheckReport`.  Samples whose
preconditions fail (no reduced period, singular phase, domain exit) are
*skipped*, not failed; if every sample is skipped the verdict is
``"inconclusive"`` — deliberately distinct from ``"fail"``.  Checks are
evaluated sequentially sample by sample, which makes every report
deterministic for a fixed seed; extra randomness a check needs (group
elements, frame coordinates) comes from its own ``numpy`` generator
seeded with the ``seed`` argument recorded in the report.

A sample's base phase is computed once per resolved integration
settings: the sampler's admission call computes it, it is kept on the
phase point, and every check run with the same settings receives that
result (read-only, so no check can change it for the next).  A check
run with other settings, such as the crude-tolerance negative control
of ``check_linearization``, computes its own.  The phases a check
compares against the base (flowed, translated, framed points) are
always fresh computations.

The rotation-angle oracle (:func:`montgomery_oracle`) re-derives the
rigid body's per-period rotation about its spatial momentum axis from
scratch — its own integrator, a one-turn azimuth event and the area
integrated along the loop — so that agreement with ``phase()`` genuinely
cross-validates two code paths.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .dynsys import (
    BALL,
    PhasePoint,
    SystemSpec,
    act,
    ball_point,
    d_act,
    rigid_point,
    vector_field,
)
from .errors import (
    DomainError,
    IntegrationError,
    NotPeriodicError,
    OracleUnavailableError,
    PeriodNotFoundError,
    PhaseInconsistencyError,
    SamplerExhaustedError,
)
from .integrate import find_reduced_period, flow
from .liegroup import (
    GroupElement,
    Rotation,
    conj,
    group_distance,
    projective_distance,
)
from .reconstruct import (
    conjugacy_residuals,
    flower_frame,
    frequency_mismatch,
    phase,
    reduced_orbit_distance,
    same_petal,
    torus_embed,
    weyl_partner,
)

TWO_PI = 2.0 * math.pi

# recoverable per-sample failures: the sample is skipped, not the check
_SKIP = (PeriodNotFoundError, DomainError, IntegrationError)


@dataclass
class CheckReport:
    """Verdict of one named check.

    ``verdict`` is ``"pass"`` iff ``max_residual < tolerance``, ``"fail"``
    otherwise, and ``"inconclusive"`` when no sample survived its
    preconditions (``max_residual`` is then None).  ``wall_time`` is kept
    for interactive use but excluded from :meth:`to_dict` so serialized
    reports stay byte-reproducible.
    """

    name: str
    system: str
    sample_description: str
    max_residual: Optional[float]
    tolerance: float
    verdict: str
    n_samples: int
    n_skipped: int
    seed: Optional[int]
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "system": self.system,
            "sample_description": self.sample_description,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "n_samples": self.n_samples,
            "n_skipped": self.n_skipped,
            "seed": self.seed,
        }


def _finish(name, spec, desc, residuals, n_skipped, tol, seed, t0) -> CheckReport:
    if residuals:
        worst = float(max(residuals))
        verdict = "pass" if worst < tol else "fail"
    else:
        worst = None
        verdict = "inconclusive"
    return CheckReport(
        name=name,
        system=spec.kind,
        sample_description=desc,
        max_residual=worst,
        tolerance=tol,
        verdict=verdict,
        n_samples=len(residuals),
        n_skipped=n_skipped,
        seed=seed,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _random_rotation(rng) -> Rotation:
    return Rotation(rng.normal(size=4))


def _random_group_element(spec: SystemSpec, rng) -> GroupElement:
    theta = float(rng.uniform(0.0, TWO_PI)) if spec.kind == BALL else 0.0
    return GroupElement(theta, _random_rotation(rng), spec.group)


def _base_phase(spec: SystemSpec, m: PhasePoint, **kw):
    """The phase of m with the settings ``kw`` resolve to, computed once
    per point and resolved settings and kept on the point, so the sampler
    and every check of a sample share it.  A failure is not kept."""
    key = spec.defaults.override(**kw)
    p = m._phases.get(key)
    if p is None:
        p = m._phases[key] = phase(spec, m, **kw)
    return p


def _keep_sample(spec: SystemSpec, m: PhasePoint) -> bool:
    """Sampler admission: the candidate must have a periodic reduced
    orbit staying in the domain and a regular phase."""
    try:
        return _base_phase(spec, m).regular
    except _SKIP + (NotPeriodicError, PhaseInconsistencyError):
        return False


def sample_ball(spec: SystemSpec, rng, n: int):
    """Ball-system initial conditions with contact radius in [0.5, 1.5]
    and moderate speeds/spins: the energy stays below the potential wall
    of the default annulus, so orbits cannot escape outward.  Candidates
    whose orbit leaves the domain inward (near-radial motion passing
    close to the chart singularity at the axis) or whose phase is
    singular are rejected and redrawn."""
    out = []
    budget = draws = 60 * n
    while len(out) < n:
        if draws == 0:
            raise SamplerExhaustedError(
                f"ball sampler accepted {len(out)} of {n} points in "
                f"{budget} draws", n_accepted=len(out), budget=budget)
        draws -= 1
        r = rng.uniform(0.5, 1.5)
        psi = rng.uniform(0.0, TWO_PI)
        speed = rng.uniform(0.15, 0.6)
        chi = rng.uniform(0.0, TWO_PI)
        m = ball_point(
            spec,
            a=(r * math.cos(psi), r * math.sin(psi)),
            a_dot=(speed * math.cos(chi), speed * math.sin(chi)),
            Q=_random_rotation(rng),
            w=float(rng.uniform(-0.6, 0.6)),
        )
        if _keep_sample(spec, m):
            out.append(m)
    return out


def _family_margin(inertia, L) -> float:
    """I_mid L.(L/I) / |L|^2 - 1 for body momentum L, with I_mid the
    middle principal moment, in whatever order the moments are listed."""
    L2 = float(L @ L)
    return float(np.sort(inertia)[1] * (L @ (L / inertia)) / L2 - 1.0)


def rigid_family_margin(spec: SystemSpec, omega) -> float:
    """Separatrix classifier for the Euler flow: positive for loops around
    the axis of the smallest moment, negative for the largest, zero on
    the separatrix through the axis of the middle moment."""
    return _family_margin(spec.inertia, spec.inertia * np.asarray(omega, float))


def sample_rigid(spec: SystemSpec, rng, n: int, margin: float = 0.12):
    """Rigid-body initial conditions stratified across the stable-axis
    families (smallest- and largest-moment axis), keeping a margin from
    the separatrix (|classifier| >= ``margin``) and from the axis of the
    middle moment itself.  A symmetric top has one family only (the
    classifier keeps one sign), and every draw comes from it."""
    mid_axis = np.eye(3)[np.argsort(spec.inertia, kind="stable")[1]]
    lo, mid, hi = np.sort(spec.inertia)
    # a sphere has no family at all: then no draw passes the margin
    signs = [positive for positive, exists in ((True, lo < mid), (False, mid < hi))
             if exists] or [True]
    out = []
    budget = draws = 200 * n
    while len(out) < n:
        if draws == 0:
            raise SamplerExhaustedError(
                f"rigid sampler accepted {len(out)} of {n} points in "
                f"{budget} draws", n_accepted=len(out), budget=budget)
        draws -= 1
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        if min(np.linalg.norm(u - mid_axis), np.linalg.norm(u + mid_axis)) < 0.35:
            continue
        L = float(rng.uniform(0.8, 1.5))
        omega = L * u / spec.inertia
        kappa = rigid_family_margin(spec, omega)
        if abs(kappa) < margin:
            continue
        if (kappa > 0) != signs[len(out) % len(signs)]:
            continue
        m = rigid_point(spec, _random_rotation(rng), omega)
        if not _keep_sample(spec, m):
            continue
        out.append(m)
    return out


def sample_points(spec: SystemSpec, rng, n: int):
    return sample_ball(spec, rng, n) if spec.kind == BALL else sample_rigid(spec, rng, n)


# ---------------------------------------------------------------------------
# the named checks
# ---------------------------------------------------------------------------

def _run_check(name, spec, samples, tol, seed, desc, residual, base="torus",
               **phase_kwargs) -> CheckReport:
    """Shared driver of the sample checks: times the run, seeds the
    check's own generator and applies the skip policy.

    ``residual(m, p, rng)`` returns the worst residual of one sample, with
    ``p`` the base phase of m (``_base_phase`` with ``phase_kwargs``), or
    None when ``base`` is None.  A :class:`PhaseInconsistencyError` counts as
    the sample's residual; a recoverable failure, or a singular base
    phase when ``base == "torus"``, skips the sample.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    residuals, skipped = [], 0
    for m in samples:
        try:
            p = None if base is None else _base_phase(spec, m, **phase_kwargs)
            if base == "torus" and not p.regular:
                skipped += 1
                continue
            residuals.append(residual(m, p, rng))
        except PhaseInconsistencyError as e:
            residuals.append(e.residual)
        except _SKIP + (NotPeriodicError,):
            skipped += 1
    return _finish(name, spec, desc, residuals, skipped, tol, seed, t0)


def check_phase_conserved(spec, samples, tol, seed=None, fractions=(0.2, 0.7, 1.5, 3.1)) -> CheckReport:
    """The phase is constant along the flow: recomputing it anywhere on
    the orbit returns the same group element and the same period."""
    def residual(m, p, rng):
        worst = 0.0
        for frac in fractions:
            pt = phase(spec, flow(spec, m, frac * p.tau))
            worst = max(
                worst,
                abs(pt.tau - p.tau),
                group_distance(pt.gamma, p.gamma),
            )
        return worst

    desc = f"{len(samples)} initial conditions x flow offsets {list(fractions)} of tau"
    return _run_check("phase_conserved", spec, samples, tol, seed, desc, residual,
                      base="phase")


def check_equivariance(spec, samples, tol, seed=None, n_group=5) -> CheckReport:
    """Conjugation equivariance: the phase of a translated point is the
    translated phase, gamma(g.m) = g gamma(m) g^-1."""
    def residual(m, p, rng):
        worst = 0.0
        for _ in range(n_group):
            g = _random_group_element(spec, rng)
            pg = phase(spec, act(g, m))
            worst = max(
                worst,
                abs(pg.tau - p.tau),
                group_distance(pg.gamma, conj(g, p.gamma)),
            )
        return worst

    desc = f"{len(samples)} initial conditions x {n_group} group elements"
    return _run_check("equivariance", spec, samples, tol, seed, desc, residual,
                      base="phase")


def check_linearization(spec, samples, tol, seed=None, rtol=None, atol=None,
                        tol_closure=None, tol_phase=None) -> CheckReport:
    """The torus chart conjugates the flow to a linear flow: the
    commuting-square residual (``conjugacy_residuals``) of flow-then-embed
    vs embed-then-shift on an (alpha, beta, t) grid.

    ``rtol``/``atol`` (with matching ``tol_closure``/``tol_phase``
    loosening) exist so a deliberately corrupted flow can be fed through
    the same code path as a negative control.  They set the integration
    of the base phase, whose period trajectory every chart point is read
    from, and of the fresh flows on the left-hand side of the square (one
    ``flow_many`` batch per sample, each column its own integration).
    """
    alphas = (0.0, 1.0 / 3.0, 2.0 / 3.0)
    t_fracs = (0.15, 0.45, 0.75)

    def residual(m, p, rng):
        rank = p.eta.size
        betas = [np.zeros(rank), np.full(rank, 0.3), np.full(rank, 0.7)]
        if rank == 2:
            betas[2] = np.array([0.7, 0.2])
        chart = [(al, be, torus_embed(spec, p, al, be)) for al in alphas for be in betas]
        return float(
            conjugacy_residuals(spec, p, chart, t_fracs, rtol=rtol, atol=atol).max()
        )

    desc = f"{len(samples)} initial conditions x 3x3x3 (alpha, beta, t) grid"
    return _run_check("linearization", spec, samples, tol, seed, desc, residual,
                      rtol=rtol, atol=atol, tol_phase=tol_phase, tol_closure=tol_closure)


def check_flower_invariants(spec, samples, tol, seed=None, n_frames=6) -> CheckReport:
    """Every flower frame J_m(alpha, g), carried on by a fresh flow of
    half a period, lands on the reduced orbit of m: the flower projects
    to a single reduced periodic orbit.  The frame point is read off m's
    period trajectory; the fresh integration from it is what equivariance
    of the flow must keep on that orbit."""
    def residual(m, p, rng):
        worst = 0.0
        for _ in range(n_frames):
            al = float(rng.uniform(0.0, 1.0))
            g = _random_group_element(spec, rng)
            x = flow(spec, flower_frame(spec, p, al, g), 0.5 * p.tau)
            d, _ = reduced_orbit_distance(spec, p, x)
            worst = max(worst, d)
        return worst

    desc = f"{len(samples)} initial conditions x {n_frames} random (alpha, g) frames"
    return _run_check("flower_invariants", spec, samples, tol, seed, desc, residual)


def check_delta_integral(spec, samples, tol, seed=None) -> CheckReport:
    """delta is an integral of motion, constant on petals: it is preserved
    along the flow, under torus translation, and by the petal-swapping
    Weyl flip; the flip itself lands on a different petal (binary
    violations count as residual 1)."""
    def residual(m, p, rng):
        worst = 0.0
        for frac in (0.35, 1.6):
            pt = phase(spec, flow(spec, m, frac * p.tau))
            worst = max(worst, projective_distance(pt.delta_rep, p.delta_rep))
        rank = p.eta.size
        x = torus_embed(spec, p, 0.4, np.full(rank, 0.3))
        px = phase(spec, x)
        worst = max(worst, projective_distance(px.delta_rep, p.delta_rep))
        m_w, _ = weyl_partner(spec, m, p)
        pw = phase(spec, m_w)
        worst = max(worst, projective_distance(pw.delta_rep, p.delta_rep))
        if not same_petal(spec, m, x, p1=p, p2=px):
            worst = max(worst, 1.0)
        if same_petal(spec, m, m_w, p1=p, p2=pw):
            worst = max(worst, 1.0)
        return worst

    desc = f"{len(samples)} initial conditions; flow/torus/Weyl transports"
    return _run_check("delta_integral", spec, samples, tol, seed, desc, residual)


def check_frequency_flower_constancy(spec, samples, tol, seed=None, n_frames=4) -> CheckReport:
    """All points of one flower share the frequency vector (modulo the
    branch lattice): frequencies depend only on the reduced orbit.  A
    frame phase is conjugate to the regular base phase, so a singular
    one is an inconsistency and counts as residual 1."""
    def residual(m, p, rng):
        worst = 0.0
        for _ in range(n_frames):
            al = float(rng.uniform(0.0, 1.0))
            g = _random_group_element(spec, rng)
            x = flower_frame(spec, p, al, g)
            px = phase(spec, x)
            if not px.regular:
                worst = max(worst, 1.0)
                continue
            worst = max(
                worst,
                frequency_mismatch(px.frequencies, p.frequencies, p.tau),
            )
        return worst

    desc = f"{len(samples)} initial conditions x {n_frames} flower frames"
    return _run_check(
        "frequency_flower_constancy", spec, samples, tol, seed, desc, residual
    )


def check_vf_invariance(spec, samples, tol, seed=None, n_group=5) -> CheckReport:
    """The vector field is symmetric: pushing it forward by any group
    element reproduces it at the translated point."""
    def residual(m, p, rng):
        v = vector_field(m)
        worst = 0.0
        for _ in range(n_group):
            g = _random_group_element(spec, rng)
            diff = vector_field(act(g, m)) - d_act(g, m, v)
            worst = max(worst, float(np.max(np.abs(diff))))
        return worst

    desc = f"{len(samples)} phase points x {n_group} group elements"
    return _run_check("vf_invariance", spec, samples, tol, seed, desc, residual,
                      base=None)


def check_period_continuity(spec, family, tol=1.0, seed=None, jump_factor=10.0) -> CheckReport:
    """The reduced period varies smoothly along a one-parameter family of
    initial conditions: no period jump may exceed ``jump_factor`` times
    the local finite-difference trend.  Residual = worst jump ratio
    normalized by ``jump_factor`` (pass iff < tol = 1)."""
    t0 = time.perf_counter()
    taus, skipped = [], 0
    for m in family:
        try:
            taus.append(find_reduced_period(spec, m).tau)
        except _SKIP + (NotPeriodicError,):
            skipped += 1
    desc = f"{len(family)}-point family, jump factor {jump_factor}"
    if len(taus) < 4:
        return _finish("period_continuity", spec, desc, [], skipped, tol, seed, t0)
    taus = np.asarray(taus)
    jumps = np.abs(np.diff(taus))
    floor = 1e-12 * float(np.max(taus))
    ratios = []
    for i in range(len(jumps)):
        lo, hi = max(0, i - 3), min(len(jumps), i + 4)
        neighbors = np.delete(jumps[lo:hi], i - lo)
        trend = max(float(np.median(neighbors)), floor)
        ratios.append(float(jumps[i] / trend / jump_factor))
    return _finish("period_continuity", spec, desc, ratios, skipped, tol, seed, t0)


ALL_CHECKS = {
    "phase_conserved": check_phase_conserved,
    "equivariance": check_equivariance,
    "linearization": check_linearization,
    "flower_invariants": check_flower_invariants,
    "delta_integral": check_delta_integral,
    "frequency_flower_constancy": check_frequency_flower_constancy,
    "vf_invariance": check_vf_invariance,
    "period_continuity": check_period_continuity,
}


# ---------------------------------------------------------------------------
# independent rigid-body rotation-angle oracle
# ---------------------------------------------------------------------------

def measured_rotation_angle(p, m: PhasePoint) -> float:
    """Rotation angle of the computed phase about the spatial momentum
    direction, in [0, 2 pi): the quantity the oracle predicts."""
    L_body = m.system.inertia * m.omega_body
    mu_hat = m.Q.apply(L_body / np.linalg.norm(L_body))
    qw = float(p.gamma.rot.q[0])
    qv = p.gamma.rot.q[1:]
    return (2.0 * math.atan2(float(qv @ mu_hat), qw)) % TWO_PI


def _family_pole(inertia, u0) -> np.ndarray:
    """The principal axis of extreme inertia (+-, on u0's side) that the
    unit momentum loop through u0 encircles: the smallest moment's above
    the separatrix energy, the largest's below.  Separatrix-adjacent
    loops raise OracleUnavailableError."""
    order = np.argsort(inertia, kind="stable")
    kappa = _family_margin(inertia, u0)
    if abs(kappa) < 1e-3:
        raise OracleUnavailableError(
            f"momentum loop too close to the separatrix (margin {kappa:.2e})"
        )
    pole = np.eye(3)[order[0] if kappa > 0 else order[2]]
    return pole if float(u0 @ pole) >= 0.0 else -pole


def montgomery_oracle(inertia, m: PhasePoint, period: float = None) -> float:
    """Predicted per-period rotation angle about the spatial momentum
    axis, from the classical energy/solid-angle formula:

        angle = 2 H tau / ||L||  -  (signed solid angle of the
                 body-momentum loop about its encircled axis)   (mod 2 pi)

    Everything is recomputed from scratch here: the unit momentum loop is
    integrated with its own solver together with its azimuth about the
    encircled axis and the enclosed spherical area, and stopped when the
    azimuth has made one full turn (:func:`momentum_loop_area`).

    Conventions: the loop's solid angle is taken about the stable axis it
    encircles (+-the smallest-moment axis for the short-axis family,
    +-the largest-moment axis for the long-axis family, sign matched to
    the loop); a degenerate point loop (momentum exactly on a principal
    axis) encloses zero area, and since the reduced orbit is then an
    equilibrium with no intrinsic period, the ``period`` argument must be
    supplied; separatrix-adjacent loops raise OracleUnavailableError.
    """
    inertia = np.asarray(inertia, dtype=float)
    omega0 = m.omega_body
    L_body = inertia * omega0
    L = float(np.linalg.norm(L_body))
    if L == 0.0:
        raise OracleUnavailableError("zero angular momentum")
    H = 0.5 * float(omega0 @ L_body)
    u0 = L_body / L
    pole = _family_pole(inertia, u0)

    if np.linalg.norm(np.cross(u0, pole)) < 1e-12:
        # point loop: zero enclosed area by convention
        if period is None:
            raise OracleUnavailableError(
                "momentum on a principal axis: the reduced orbit is an "
                "equilibrium, supply the period explicitly"
            )
        return (2.0 * H * period / L) % TWO_PI

    tau_loop, area = momentum_loop_area(inertia, m)
    return (2.0 * H * tau_loop / L - area) % TWO_PI


def momentum_loop_area(inertia, m: PhasePoint, reverse: bool = False):
    """Period of the unit body-momentum loop and the signed spherical
    area it encloses about the family pole (right-handed about the pole;
    ``reverse=True`` traverses the loop backward, negating the area).

    One integration of (u, phi, A): the unit momentum u, its azimuth phi
    about the pole and the area A' = (1 - pole.u) phi', ended by the event
    |phi| = 2 pi.  About the encircled axis e_a,
    phi' = L u_a sum_{b != a} u_b^2 (1/I_b - 1/I_a) / (1 - u_a^2), which
    keeps one sign along the loop (I_a is strictly extreme and u_a never
    changes sign), so one azimuth turn is one period of u.
    """
    inertia = np.asarray(inertia, dtype=float)
    L_body = inertia * m.omega_body
    L = float(np.linalg.norm(L_body))
    u0 = L_body / L
    pole = _family_pole(inertia, u0)
    sign = -1.0 if reverse else 1.0

    def rhs(t, y):
        u = y[:3]
        du = sign * L * np.cross(u, u / inertia)
        cos_th = float(pole @ u)
        dphi = float(np.cross(u, du) @ pole) / (1.0 - cos_th**2)
        return np.append(du, (dphi, (1.0 - cos_th) * dphi))

    def one_turn(t, y):
        return abs(y[3]) - TWO_PI

    one_turn.terminal = True

    sp = L * float(np.linalg.norm(np.cross(u0, u0 / inertia)))
    if sp < 1e-12:
        raise OracleUnavailableError("stationary momentum loop without period")

    # crude window of several symmetric-top precession periods: only the
    # integration bound, the one-turn event ends the loop well before it
    t_guess = TWO_PI / sp * max(inertia) / min(inertia) * 4.0 + 1.0
    sol = solve_ivp(
        rhs, (0.0, 3.0 * t_guess), np.append(u0, (0.0, 0.0)),
        method="DOP853", rtol=1e-12, atol=1e-14, events=one_turn,
    )
    if sol.status != 1:
        raise OracleUnavailableError(
            "no closed momentum loop found (separatrix or integration range)"
        )
    return float(sol.t_events[0][0]), float(sol.y_events[0][0][4])

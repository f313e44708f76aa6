"""Named verification checks with machine-readable verdicts, plus the
independent rigid-body rotation-angle oracle.

Each ``check_*`` function takes a system, a list of sample phase points,
and a tolerance, and returns a :class:`CheckReport`.  Samples whose
preconditions fail (no reduced period, singular phase, domain exit) are
*skipped*, not failed; if every sample is skipped the verdict is
``"inconclusive"`` — deliberately distinct from ``"fail"``.  A check
evaluates its samples one after another; extra randomness it needs
(group elements, frame coordinates) comes from its own ``numpy``
generator seeded with the ``seed`` argument recorded in the report.
So each report is a function of the samples and the seed alone, and
the CLI may run the checks in forked worker processes
(:func:`_map_in_workers`), in any order and on any number of cores,
without changing a bit of any report.

A sample's base phase is computed once per resolved integration
settings: the sampler's admission call computes it, a weak memo keyed
by the phase point keeps it while the point lives, and every check run
with the same settings receives that result (read-only, so no check can
change it for the next).  A check run with other settings, such as the
crude-tolerance negative control of ``check_linearization``, computes
its own.  The phases a check compares against the base (flowed,
translated, framed points) are always fresh computations.

The rotation-angle oracle (:func:`montgomery_oracle`) re-derives the
rigid body's per-period rotation about its spatial momentum axis from
scratch — the momentum loop's period and enclosed area in closed form,
as complete elliptic integrals — so that agreement with ``phase()``
genuinely cross-validates two code paths: the oracle integrates nothing.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import pickle
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    ReconphaseError,
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
_SKIP = (PeriodNotFoundError, NotPeriodicError, DomainError, IntegrationError)


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


def _worst(residuals):
    """The largest of the residuals, or NaN when any of them is NaN (a
    bare ``max`` keeps or drops a NaN depending on where it comes), so
    that a NaN residual fails its check."""
    residuals = list(residuals)
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def _finish(name, spec, desc, residuals, n_skipped, tol, seed, t0) -> CheckReport:
    if residuals:
        worst = float(_worst(residuals))
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


# base phases by point (held weakly), then by resolved settings
_BASE_PHASES = weakref.WeakKeyDictionary()


def _base_phase(spec: SystemSpec, m: PhasePoint, **kw):
    """The phase of m with the settings ``kw`` resolve to, computed once
    per point and resolved settings and kept in ``_BASE_PHASES``, so the
    sampler and every check of a sample share it.  A failure is not kept."""
    key = spec.defaults.override(**kw)
    phases = _BASE_PHASES.setdefault(m, {})
    p = phases.get(key)
    if p is None:
        p = phases[key] = phase(spec, m, **kw)
    return p


def _keep_sample(spec: SystemSpec, m: PhasePoint) -> bool:
    """Sampler admission: the candidate must have a periodic reduced
    orbit staying in the domain and a regular phase."""
    try:
        return _base_phase(spec, m).regular
    except _SKIP + (PhaseInconsistencyError,):
        return False


def _sample(spec: SystemSpec, n: int, budget: int, draw):
    """The sampler loop: ``draw(k)`` makes one candidate for the k-th
    point, or None when it rejects its own draw, and a candidate that
    ``_keep_sample`` admits is kept, until n points are kept or the
    ``budget`` of draws is spent."""
    out = []
    draws = 0
    while len(out) < n:
        if draws == budget:
            raise SamplerExhaustedError(
                f"{spec.kind} sampler accepted {len(out)} of {n} points in "
                f"{budget} draws", n_accepted=len(out), budget=budget)
        draws += 1
        m = draw(len(out))
        if m is not None and _keep_sample(spec, m):
            out.append(m)
    return out


def sample_ball(spec: SystemSpec, rng, n: int):
    """Ball-system initial conditions with contact radius in [0.5, 1.5]
    and moderate speeds/spins: the energy stays below the potential wall
    of the default annulus, so orbits cannot escape outward.  Candidates
    whose orbit leaves the domain inward (near-radial motion passing
    close to the chart singularity at the axis) or whose phase is
    singular are rejected and redrawn."""

    def draw(_):
        r = rng.uniform(0.5, 1.5)
        psi = rng.uniform(0.0, TWO_PI)
        speed = rng.uniform(0.15, 0.6)
        chi = rng.uniform(0.0, TWO_PI)
        return ball_point(
            spec,
            a=(r * math.cos(psi), r * math.sin(psi)),
            a_dot=(speed * math.cos(chi), speed * math.sin(chi)),
            Q=_random_rotation(rng),
            w=float(rng.uniform(-0.6, 0.6)),
        )

    return _sample(spec, n, 60 * n, draw)


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

    def draw(k):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        if min(np.linalg.norm(u - mid_axis), np.linalg.norm(u + mid_axis)) < 0.35:
            return None
        L = float(rng.uniform(0.8, 1.5))
        omega = L * u / spec.inertia
        kappa = rigid_family_margin(spec, omega)
        if abs(kappa) < margin or (kappa > 0) != signs[k % len(signs)]:
            return None
        return rigid_point(spec, _random_rotation(rng), omega)

    return _sample(spec, n, 200 * n, draw)


def sample_points(spec: SystemSpec, rng, n: int):
    return sample_ball(spec, rng, n) if spec.kind == BALL else sample_rigid(spec, rng, n)


# ---------------------------------------------------------------------------
# the named checks
# ---------------------------------------------------------------------------

def _run_check(name, spec, samples, tol, seed, desc, residual, base="torus",
               **phase_kwargs) -> CheckReport:
    """Shared driver of the sample checks: times the run, seeds the
    check's own generator and applies the skip policy.

    ``residual(m, p, rng)`` yields the residuals of one sample, with ``p``
    the base phase of m (``_base_phase`` with ``phase_kwargs``), or None
    when ``base`` is None; the sample scores the largest of them (NaN if
    any is NaN), or 0.0 when it yields none.  A
    :class:`PhaseInconsistencyError` is the sample's score instead; a
    recoverable failure, or a singular base phase when
    ``base == "torus"``, skips the sample.
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
            residuals.append(_worst(itertools.chain((0.0,), residual(m, p, rng))))
        except PhaseInconsistencyError as e:
            residuals.append(e.residual)
        except _SKIP:
            skipped += 1
    return _finish(name, spec, desc, residuals, skipped, tol, seed, t0)


def check_phase_conserved(spec, samples, tol, seed=None, fractions=(0.2, 0.7, 1.5, 3.1)) -> CheckReport:
    """The phase is constant along the flow: recomputing it anywhere on
    the orbit returns the same group element and the same period."""
    def residual(m, p, rng):
        for frac in fractions:
            pt = phase(spec, flow(spec, m, frac * p.tau))
            yield abs(pt.tau - p.tau)
            yield group_distance(pt.gamma, p.gamma)

    desc = f"{len(samples)} initial conditions x flow offsets {list(fractions)} of tau"
    return _run_check("phase_conserved", spec, samples, tol, seed, desc, residual,
                      base="phase")


def check_equivariance(spec, samples, tol, seed=None, n_group=5) -> CheckReport:
    """Conjugation equivariance: the phase of a translated point is the
    translated phase, gamma(g.m) = g gamma(m) g^-1."""
    def residual(m, p, rng):
        for _ in range(n_group):
            g = _random_group_element(spec, rng)
            pg = phase(spec, act(g, m))
            yield abs(pg.tau - p.tau)
            yield group_distance(pg.gamma, conj(g, p.gamma))

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
        yield float(
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
        for _ in range(n_frames):
            al = float(rng.uniform(0.0, 1.0))
            g = _random_group_element(spec, rng)
            x = flow(spec, flower_frame(spec, p, al, g), 0.5 * p.tau)
            yield reduced_orbit_distance(spec, p, x)[0]

    desc = f"{len(samples)} initial conditions x {n_frames} random (alpha, g) frames"
    return _run_check("flower_invariants", spec, samples, tol, seed, desc, residual)


def check_delta_integral(spec, samples, tol, seed=None) -> CheckReport:
    """delta is an integral of motion, constant on petals: it is preserved
    along the flow, under torus translation, and by the petal-swapping
    Weyl flip; the flip itself lands on a different petal (binary
    violations count as residual 1)."""
    def residual(m, p, rng):
        for frac in (0.35, 1.6):
            pt = phase(spec, flow(spec, m, frac * p.tau))
            yield projective_distance(pt.delta_rep, p.delta_rep)
        rank = p.eta.size
        x = torus_embed(spec, p, 0.4, np.full(rank, 0.3))
        px = phase(spec, x)
        yield projective_distance(px.delta_rep, p.delta_rep)
        m_w, _ = weyl_partner(spec, m, p)
        pw = phase(spec, m_w)
        yield projective_distance(pw.delta_rep, p.delta_rep)
        yield float(not same_petal(spec, m, x, p1=p, p2=px))
        yield float(same_petal(spec, m, m_w, p1=p, p2=pw))

    desc = f"{len(samples)} initial conditions; flow/torus/Weyl transports"
    return _run_check("delta_integral", spec, samples, tol, seed, desc, residual)


def check_frequency_flower_constancy(spec, samples, tol, seed=None, n_frames=4) -> CheckReport:
    """All points of one flower share the frequency vector (modulo the
    branch lattice): frequencies depend only on the reduced orbit.  A
    frame phase is conjugate to the regular base phase, so a singular
    one is an inconsistency and counts as residual 1."""
    def residual(m, p, rng):
        for _ in range(n_frames):
            al = float(rng.uniform(0.0, 1.0))
            g = _random_group_element(spec, rng)
            px = phase(spec, flower_frame(spec, p, al, g))
            yield (frequency_mismatch(px.frequencies, p.frequencies, p.tau)
                   if px.regular else 1.0)

    desc = f"{len(samples)} initial conditions x {n_frames} flower frames"
    return _run_check(
        "frequency_flower_constancy", spec, samples, tol, seed, desc, residual
    )


def check_vf_invariance(spec, samples, tol, seed=None, n_group=5) -> CheckReport:
    """The vector field is symmetric: pushing it forward by any group
    element reproduces it at the translated point."""
    def residual(m, p, rng):
        v = vector_field(m)
        for _ in range(n_group):
            g = _random_group_element(spec, rng)
            diff = vector_field(act(g, m)) - d_act(g, m, v)
            yield float(np.max(np.abs(diff)))

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
        except _SKIP:
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
# running checks in forked workers
# ---------------------------------------------------------------------------

class _WorkerTraceback(Exception):
    """The traceback, as text, of an exception a forked worker raised;
    chained as the ``__cause__`` of the copy the parent raises."""

    def __str__(self):
        return self.args[0]


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_claimed(fn, items, claims):
    """Yield ``(i, fn(items[i]) or the exception it raised)`` for each
    index i that ``claims`` yields, stopping after the first exception as
    a plain loop over the items would."""
    for i in claims:
        try:
            result = fn(items[i])
        except Exception as e:  # noqa: BLE001 - re-raised by _map_in_workers
            yield i, e
            return
        yield i, result


def _worker(fn, items, claims: int, result_fd: int):
    """A forked worker's whole life: claim indices one byte at a time from
    the ``claims`` pipe (a one-byte read is atomic, so no two workers
    claim the same index), run them, send each ``(i, result)`` pickled
    through ``result_fd`` as soon as it is known, and leave by
    ``os._exit``, which flushes no inherited buffer and runs no atexit
    hook."""
    status = 1
    try:
        indices = (b[0] for b in iter(lambda: os.read(claims, 1), b""))
        with os.fdopen(result_fd, "wb") as fh:
            for i, result in _run_claimed(fn, items, indices):
                if isinstance(result, Exception):
                    import traceback  # only here: the CLI import does not load it
                    # a pickled exception loses its traceback; send it as text
                    result._worker_traceback = "".join(
                        traceback.format_exception(result))
                pickle.dump((i, result), fh)
                fh.flush()
        status = 0
    finally:
        os._exit(status)


def _in_workers(fn, items, n_workers: int) -> dict:
    """Run ``fn`` on ``items`` in ``n_workers`` forked processes that claim
    indices from one pipe filled in advance.  Returns ``{i: result or
    exception}``; an index whose worker died before sending its result
    holds a :class:`ReconphaseError` naming the item and the exit status.
    Every worker is reaped before this returns or raises, and killed
    first when the parent leaves early (an exception or an interrupt)."""
    claims, feed = os.pipe()
    os.write(feed, bytes(range(len(items))))
    os.close(feed)
    sys.stdout.flush()
    sys.stderr.flush()
    pids, readers, payloads = [], [], None
    try:
        for _ in range(n_workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, items, claims, write_fd)
            finally:
                os.close(write_fd)
            pids.append(pid)
        # read every pipe to its end before waiting: a worker blocked on a
        # full pipe would never exit
        payloads = [fh.read() for fh in readers]
    finally:
        os.close(claims)
        for fh in readers:
            fh.close()
        statuses = []
        for pid in pids:
            if payloads is None:
                import signal  # only here: the CLI import does not load it
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    results = {}
    for data in payloads:
        records = io.BytesIO(data)
        try:
            while records.tell() < len(data):
                i, result = pickle.load(records)
                results[i] = result
        except (pickle.UnpicklingError, EOFError):
            pass  # a record cut short by its worker's death
    dead = ", ".join(str(s) for s in statuses if s != 0)
    for i, item in enumerate(items):
        if i not in results:
            results[i] = ReconphaseError(
                f"no result for {item!r}: worker exit status {dead}")
    return results


def _map_in_workers(fn, items) -> list:
    """``[fn(item) for item in items]`` with the calls shared among forked
    worker processes, one per usable core and at most one per item, so
    ``fn`` may read (never change for the next call) what the caller
    built before.  The results come back in input order.  When calls
    raise, the exception of the lowest-index item is raised, as the loop
    would, with its payload attributes (it travels pickled) and, from a
    worker, the worker's traceback as its ``__cause__``.

    With one usable core, one item or no ``os.fork``, the same claim loop
    runs in this process.  There may be at most 256 items (an index is
    one byte); ``fn`` must not return an exception, and its results and
    exceptions must pickle."""
    items = list(items)
    n_workers = min(_usable_cores(), len(items))
    if n_workers < 2 or not hasattr(os, "fork"):
        results = dict(_run_claimed(fn, items, range(len(items))))
    else:
        results = _in_workers(fn, items, n_workers)
    out = []
    for i in range(len(items)):
        result = results[i]
        if isinstance(result, BaseException):
            text = result.__dict__.pop("_worker_traceback", None)
            if text:
                result.__cause__ = _WorkerTraceback(text)
            raise result
        out.append(result)
    return out


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


def _momentum_loop(inertia, m: PhasePoint):
    """The momentum loop through m, as ``(inertia, L, H, u0, pole)``: the
    moments as an array, the norm of the body momentum, the kinetic
    energy, the unit body momentum and its family pole
    (:func:`_family_pole`).  Zero momentum raises OracleUnavailableError."""
    inertia = np.asarray(inertia, dtype=float)
    omega0 = m.omega_body
    L_body = inertia * omega0
    L = float(np.linalg.norm(L_body))
    if L == 0.0:
        raise OracleUnavailableError("zero angular momentum")
    u0 = L_body / L
    return inertia, L, 0.5 * float(omega0 @ L_body), u0, _family_pole(inertia, u0)


def montgomery_oracle(inertia, m: PhasePoint, period: float = None) -> float:
    """Predicted per-period rotation angle about the spatial momentum
    axis, from the classical energy/solid-angle formula:

        angle = 2 H tau / ||L||  -  (signed solid angle of the
                 body-momentum loop about its encircled axis)   (mod 2 pi)

    Everything is recomputed from scratch here, with no integration: the
    period of the unit momentum loop and the spherical area it encloses
    about the encircled axis are complete elliptic integrals of Euler's
    solution (:func:`momentum_loop_area`).

    Conventions: the loop's solid angle is taken about the stable axis it
    encircles (+-the smallest-moment axis for the short-axis family,
    +-the largest-moment axis for the long-axis family, sign matched to
    the loop); a degenerate point loop (momentum exactly on a principal
    axis) encloses zero area, and since the reduced orbit is then an
    equilibrium with no intrinsic period, the ``period`` argument must be
    supplied; separatrix-adjacent loops raise OracleUnavailableError.
    """
    _, L, H, u0, pole = _momentum_loop(inertia, m)

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


def _cel(kc, p):
    """Bulirsch's complete elliptic integral cel(kc, p, 1, 1) for p > 0,

        int_0^{pi/2} dth / ((cos^2 th + p sin^2 th) sqrt(cos^2 th + kc^2 sin^2 th)),

    by his AGM loop (Numer. Math. 13 (1969) 305): cel(kc, 1) is K(k) with
    k^2 = 1 - kc^2, and cel(kc, p) the third kind with n = 1 - p."""
    e = kc
    p = math.sqrt(p)
    a, b, em = 1.0, 1.0 / p, 1.0
    while True:
        f = a
        a += b / p
        g = e / p
        b = 2.0 * (b + f * g)
        p += g
        g = em
        em += kc
        if abs(g - kc) <= 1e-8 * g:
            return 0.5 * math.pi * (b + a * em) / (em * (em + p))
        kc = 2.0 * math.sqrt(e)
        e = kc * em


def momentum_loop_area(inertia, m: PhasePoint, reverse: bool = False):
    """Period of the unit body-momentum loop and the signed spherical
    area it encloses about the family pole (right-handed about the pole;
    ``reverse=True`` traverses the loop backward, negating the area).

    Both are complete elliptic integrals of Euler's cn/sn/dn solution
    (Landau & Lifshitz, Mechanics, sec. 37), evaluated by :func:`_cel`:
    the period is 4 K(k) / lam and the area a third-kind integral.  With
    p the pole's axis, q the other extreme axis and mid the middle one,
    x_p = 2 H I_p - M^2 and x_q = M^2 - 2 H I_q are summed without the
    terms that vanish, so nothing cancels near the pole, and nothing
    divides by x_p, which is zero on the pole itself: there the period is
    that of small oscillations and the area zero.
    """
    inertia, _, _, _, pole = _momentum_loop(inertia, m)
    order = np.argsort(inertia, kind="stable")
    p, mid = int(np.flatnonzero(pole)[0]), int(order[1])
    q = 3 - p - mid
    I = inertia.tolist()
    L2 = ((inertia * m.omega_body) ** 2).tolist()
    Ip, Iq, Im = I[p], I[q], I[mid]
    M2 = sum(L2)
    M = math.sqrt(M2)
    x_p = sum(L2[i] * (Ip / I[i] - 1.0) for i in range(3) if i != p)
    x_q = sum(L2[i] * (1.0 - Iq / I[i]) for i in range(3) if i != q)
    lam = math.sqrt((Ip - Im) * x_q / (I[0] * I[1] * I[2]))
    kc = math.sqrt(1.0 - (Im - Iq) * x_p / ((Ip - Im) * x_q))
    c = Iq * x_p / (M2 * (Ip - Iq))
    n = 1.0 + (1.0 - c) * (Im - Iq) * (Ip - Iq) * M2 / ((Ip - Im) * x_q * Iq)
    T = 4.0 * _cel(kc, 1.0) / lam
    area = math.copysign(TWO_PI, Ip - Iq) - (
        4.0 * M * (Ip - Iq) * _cel(kc, n) / (lam * Ip * Iq) - x_p * T / (Ip * M))
    return T, -area if reverse else area

"""Adaptive integration (DOP853) plus detection of the reduced
trajectory's return time (the reduced period).  The module is numerics
only: it writes no files (``cli`` owns the output formats).

The attitude quaternion is renormalized after every accepted step.
Callers that keep a trajectory (``flow_trajectory`` and the period
search) also get each step's dense interpolant, blended toward the
renormalized endpoint with a linear ramp: the correction is O(norm
drift) per step, orders of magnitude below the interpolation error, and
makes dense evaluation reproduce the stored node states exactly.
``flow()`` reads only the end state, so it builds no interpolant; its
steps, and so its result, are the same either way.

``flow_many`` runs many fixed-horizon flows as one lockstep batch over
packed columns (torchode, Lienen & Günnemann, arXiv:2210.12375): every
column follows scipy's DOP853 rule (Hairer, Nørsett & Wanner, *Solving
ODEs I*, §II.6) with its own step size, error norm and accept/reject
decision, and a column that reaches its horizon or fails is compacted
away.  The vector field is evaluated once per stage for all live
columns (``SystemSpec.rhs_columns``).  Stage sums and norms run in one
fixed order, never through a BLAS product across columns, so a column's
result is bitwise the same whatever else shares its batch.  It agrees
with ``flow()``, whose stage sums go through BLAS, to rounding.  Each
numpy operation costs about as much as a scalar vector-field call, so
the batch pays off only with several columns; a single flow stays on
the scalar marcher.

Period detection marches the flow while watching the section function
sigma(t) = <reduced(t) - reduced(0), v0_hat> (v0 = initial reduced
velocity).  Each accepted step samples sigma at 17 equally spaced times
(16 sub-intervals) with one call to the step's interpolant and one
batch reduction.  At every sign change of sigma from negative to
positive the crossing time is refined by brentq on that same function,
applied to a one-element time array, so the scan and the refinement
agree on every sign; the first refined crossing beyond the
minimal-period floor whose reduced state also returns to the start
(closure) is the period.  Crossings that fail
closure are other intersections of the reduced orbit with the section
hyperplane and are skipped; if only such crossings exist up to t_max the
orbit is reported as not periodic.  A refinement that fails inside its
bracket raises ``SectionRefinementError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.optimize import brentq

from .dynsys import IntegrationDefaults, PhasePoint, SystemSpec
from .errors import (
    DomainError,
    IntegrationError,
    NotPeriodicError,
    PeriodNotFoundError,
    SectionRefinementError,
)


def _failure(spec: SystemSpec, what: str, y_last, t: float, cause=None):
    """The typed integration failure: ``what`` (followed by the domain
    error ``cause`` when there is one) with the last valid packed state
    ``y_last`` and its time ``t``; ``cause`` is chained as ``__cause__``."""
    if cause is not None:
        what = f"{what}: {cause}"
    error = IntegrationError(what, last_state=spec.unpack(y_last), t=t)
    error.__cause__ = cause
    return error


class _CountingDOP853(DOP853):
    """DOP853 that counts rejected step attempts."""

    n_rejected = 0

    def _estimate_error_norm(self, K, h, scale):
        norm = super()._estimate_error_norm(K, h, scale)
        if norm >= 1.0:
            self.n_rejected += 1
        return norm


class _Segment:
    """One step's dense interpolant, endpoint-blended to the
    renormalized node value."""

    __slots__ = ("dense", "delta", "t_old", "t_new")

    def __init__(self, dense, delta):
        self.dense = dense
        self.delta = delta
        self.t_old = dense.t_old
        self.t_new = dense.t

    def __call__(self, t):
        """State at time t (nstate,), or at times t as columns (nstate, n)."""
        span = self.t_new - self.t_old
        x = (t - self.t_old) / span if span != 0.0 else np.zeros_like(t, float)
        return self.dense(t) + np.multiply.outer(self.delta, x)


@dataclass
class Trajectory:
    """Dense solution of one forward integration.  Node states carry the
    renormalized quaternion; dense evaluation reproduces them exactly."""

    spec: SystemSpec
    times: list
    states: list
    segments: list
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs_evals: int = 0

    @property
    def t0(self) -> float:
        return self.times[0]

    @property
    def t1(self) -> float:
        return self.times[-1]

    def eval_y(self, t) -> np.ndarray:
        """Packed state at time t (nstate,), or at a 1-D array of times as
        columns (nstate, n) with one interpolant call per segment hit."""
        ts = np.asarray(t, dtype=float)
        inside = (self.t0 <= ts) & (ts <= self.t1)
        if not np.all(inside):
            bad = t if ts.ndim == 0 else ts[~inside][0]
            raise ValueError(
                f"t = {bad!r} outside the trajectory span [{self.t0}, {self.t1}]"
            )
        if not self.segments:
            y0 = self.states[0]
            return np.array(y0) if ts.ndim == 0 else np.repeat(y0[:, None], ts.size, 1)
        idx = np.searchsorted(self.times, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.segments) - 1)
        if ts.ndim == 0:
            return self.segments[idx](t)
        out = np.empty((len(self.states[0]), ts.size))
        for i in np.unique(idx):
            sel = idx == i
            out[:, sel] = self.segments[i](ts[sel])
        return out

    def eval(self, t: float) -> PhasePoint:
        return self.spec.unpack(self.eval_y(t))


class _Marcher:
    """Forward march of the packed ODE with per-step quaternion fixing;
    with ``dense`` each step's interpolant is kept as a segment."""

    def __init__(self, spec: SystemSpec, y0, t_bound, rtol, atol, rhs=None,
                 dense=False):
        y0 = np.asarray(y0, dtype=float)
        try:
            spec.domain_check(y0)
        except DomainError as e:
            raise _failure(spec, "initial state outside the domain", y0, 0.0, e)
        self.spec = spec
        self.dense = dense
        self.traj = Trajectory(spec, [0.0], [np.array(y0)], [])
        self.qs = spec.quat_slice
        self.finished = t_bound == 0.0
        if not self.finished:
            try:
                self.solver = _CountingDOP853(
                    rhs or spec.rhs, 0.0, y0, t_bound=t_bound, rtol=rtol, atol=atol
                )
            except DomainError as e:
                raise _failure(spec, "domain exit at start", y0, 0.0, e)

    def step(self):
        """Advance one accepted step; returns its segment when dense
        output is kept, else None."""
        traj = self.traj
        try:
            msg = self.solver.step()
        except DomainError as e:
            raise _failure(self.spec, "trajectory left the domain",
                           traj.states[-1], traj.times[-1], e)
        if self.solver.status == "failed":
            raise _failure(self.spec, f"step-size underflow: {msg}",
                           traj.states[-1], traj.times[-1])
        y_new = np.array(self.solver.y)
        y_fix = np.array(y_new)
        q = y_fix[self.qs]
        y_fix[self.qs] = q / math.sqrt(float(q @ q))
        seg = None
        if self.dense:
            seg = _Segment(self.solver.dense_output(), y_fix - y_new)
            traj.segments.append(seg)
        # continue the march from the renormalized state
        self.solver.y[...] = y_fix
        self.solver.f = self.solver.fun(self.solver.t, self.solver.y)
        traj.times.append(self.solver.t)
        traj.states.append(y_fix)
        traj.n_accepted += 1
        traj.n_rejected = self.solver.n_rejected
        traj.n_rhs_evals = self.solver.nfev
        self.finished = self.solver.status == "finished"
        return seg

    def run(self) -> Trajectory:
        while not self.finished:
            self.step()
        return self.traj


def flow_trajectory(
    spec: SystemSpec, m: PhasePoint, t: float, rtol=None, atol=None
) -> Trajectory:
    """Integrate forward from m to time t >= 0, keeping dense output."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("flow_trajectory needs finite t >= 0")
    s = spec.defaults.override(rtol=rtol, atol=atol)
    return _Marcher(spec, spec.pack(m), t, s.rtol, s.atol, dense=True).run()


def flow(spec: SystemSpec, m: PhasePoint, t: float, rtol=None, atol=None) -> PhasePoint:
    """State at time t (either sign) with local error control."""
    if m.system is not spec:
        raise ValueError("phase point belongs to a different system")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t == 0.0:
        return m
    s = spec.defaults.override(rtol=rtol, atol=atol)
    # backward flow = forward flow of the negated field
    rhs = None if t > 0.0 else lambda tt, y: -spec.rhs(tt, y)
    traj = _Marcher(spec, spec.pack(m), abs(t), s.rtol, s.atol, rhs=rhs).run()
    return spec.unpack(traj.states[-1])


# ---------------------------------------------------------------------------
# lockstep batch
# ---------------------------------------------------------------------------


def _terms(coefficients):
    """The nonzero entries of a tableau row as (stage, coefficient)."""
    return tuple((i, float(c)) for i, c in enumerate(coefficients) if c != 0.0)


# each stage's tableau row, the last one (B) giving the step's end state
_STAGE_TERMS = tuple(
    _terms(_dop.A[s, :s]) for s in range(1, _dop.N_STAGES)
) + (_terms(_dop.B),)
_E5_TERMS = _terms(_dop.E5)
_E3_TERMS = _terms(_dop.E3)
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)


def _combine(K, terms):
    """sum_i c_i K[i] over ``terms`` in their fixed order."""
    (i, c), *rest = terms
    acc = K[i] * c
    for i, c in rest:
        acc += K[i] * c
    return acc


def _sumsq(x):
    """Per-column sum of squares over the rows, in row order."""
    acc = x[0] * x[0]
    for row in x[1:]:
        acc += row * row
    return acc


def _rms(x):
    """Per-column RMS over the rows (scipy's ``norm``)."""
    return np.sqrt(_sumsq(x)) / len(x) ** 0.5


def _per_column(fn, *arrays):
    """``fn`` on each column's Python floats: a power's bits then never
    depend on how numpy vectorises the array around it."""
    return np.array([fn(*v) for v in zip(*(a.tolist() for a in arrays))])


def _initial_step(d0, d1, d2, h0):
    """scipy's ``select_initial_step`` from its norms, for one column."""
    if d1 <= 1e-15 and d2 <= 1e-15:
        return max(1e-6, h0 * 1e-3)
    return (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT


def _step_factor(norm, retried):
    """scipy's step-size factor after an attempt with error ``norm``; the
    retry of a rejected step may not grow it."""
    if norm < 1.0:
        if norm == 0.0:
            return MAX_FACTOR
        factor = min(MAX_FACTOR, SAFETY * norm ** _ERROR_EXPONENT)
        return min(1.0, factor) if retried else factor
    return max(MIN_FACTOR, SAFETY * norm ** _ERROR_EXPONENT)


def _lockstep(spec: SystemSpec, ys, ts, rtol, atol):
    """Integrate column j of ``ys`` (nstate, n) forward to ``ts[j] >= 0``
    in one lockstep batch.  Returns the (nstate, n) end states and, by
    column, the failures as ``(what, last state, t, state outside the
    domain or None)``; a failed column keeps its start state."""
    out = np.array(ys, dtype=float)
    failed = {}
    idx = np.flatnonzero(ts > 0.0)
    y = out[:, idx]
    t = np.zeros(idx.size)
    t_bound = ts[idx]
    f, outside = spec.rhs_columns(y)
    h_abs = retried = None

    def fail(mask, what, y_bad=None):
        for k in np.flatnonzero(mask):
            bad = None if y_bad is None else y_bad[:, k].copy()
            failed[int(idx[k])] = (what, y[:, k].copy(), float(t[k]), bad)

    def keep(mask):
        nonlocal idx, y, f, t, t_bound, h_abs, retried
        idx, y, f, t, t_bound = idx[mask], y[:, mask], f[:, mask], t[mask], t_bound[mask]
        if h_abs is not None:
            h_abs, retried = h_abs[mask], retried[mask]

    fail(outside, "initial state outside the domain", y)
    keep(~outside)

    # scipy's select_initial_step, column by column
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_bound)
    y1 = y + h0 * f
    f1, outside = spec.rhs_columns(y1)
    fail(outside, "domain exit at start", y1)
    ok = ~outside
    d2 = _rms((f1[:, ok] - f[:, ok]) / scale[:, ok]) / h0[ok]
    h1 = _per_column(_initial_step, d0[ok], d1[ok], d2, h0[ok])
    keep(ok)
    h_abs = np.minimum(np.minimum(100 * h0[ok], h1), t_bound)
    retried = np.zeros(idx.size, dtype=bool)

    while idx.size:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(~retried & (h_abs < min_step), min_step, h_abs)
        tiny = h_abs < min_step
        if tiny.any():
            fail(tiny, f"step-size underflow: {DOP853.TOO_SMALL_STEP}")
            keep(~tiny)
            continue
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t
        K = [f]
        outside = np.zeros(idx.size, dtype=bool)
        y_bad = np.empty_like(y)
        for terms in _STAGE_TERMS:
            stage = y + _combine(K, terms) * h
            k, out_k = spec.rhs_columns(stage)
            first = out_k & ~outside
            y_bad[:, first] = stage[:, first]
            outside |= out_k
            K.append(k)
        y_new = stage
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5 = _sumsq(_combine(K, _E5_TERMS) / scale)
        e3 = _sumsq(_combine(K, _E3_TERMS) / scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            norm = np.where((e5 == 0.0) & (e3 == 0.0), 0.0,
                            h * e5 / np.sqrt((e5 + 0.01 * e3) * spec.nstate))
        h_abs = h * _per_column(_step_factor, norm, retried)
        retried = ~(norm < 1.0)
        accepted = ~retried & ~outside
        fail(outside, "trajectory left the domain", y_bad)
        if accepted.any():
            # the marcher's quaternion renormalization and f recompute
            y_acc = y_new[:, accepted]
            q = y_acc[spec.quat_slice]
            y_acc[spec.quat_slice] = q / np.sqrt(_sumsq(q))
            y[:, accepted] = y_acc
            f[:, accepted] = spec.rhs_columns(y_acc)[0]
            t[accepted] = t_new[accepted]
        done = accepted & (t >= t_bound)
        out[:, idx[done]] = y[:, done]
        if (done | outside).any():
            keep(~(done | outside))
    return out, failed


def flow_many(spec: SystemSpec, ys, ts, rtol=None, atol=None) -> np.ndarray:
    """End states of forward flows from the packed states given as the
    columns of ``ys`` (nstate, n), column j to its own time ``ts[j] >= 0``,
    as an (nstate, n) array.

    Each column is its own integration with ``flow()``'s rule and
    settings, stepped in lockstep with the others (see the module
    docstring); it agrees with ``flow()`` to rounding and is bitwise
    independent of the other columns.  A zero horizon returns the start
    state.  If columns fail, the IntegrationError of the lowest-index one
    is raised after the batch, with that column's last state and time.
    """
    ys = np.asarray(ys, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if ys.ndim != 2 or ys.shape[0] != spec.nstate or ts.shape != (ys.shape[1],):
        raise ValueError(
            f"flow_many needs states of shape ({spec.nstate}, n) and n times"
        )
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise ValueError("flow_many needs finite times ts >= 0")
    if not np.all(np.isfinite(ys)):
        raise ValueError("flow_many needs finite states")
    s = spec.defaults.override(rtol=rtol, atol=atol)
    out, failed = _lockstep(spec, ys, ts, s.rtol, s.atol)
    if failed:
        what, y_last, t, y_bad = failed[min(failed)]
        cause = None
        if y_bad is not None:
            try:
                spec.domain_check(y_bad)
            except DomainError as e:
                cause = e
        raise _failure(spec, what, y_last, t, cause)
    return out


@dataclass(frozen=True)
class PeriodResult:
    """Return time of the reduced trajectory to its starting point."""

    tau: float
    closure_residual: float
    crossing_refinement_iterations: int


def _period_search(spec: SystemSpec, m: PhasePoint, s: IntegrationDefaults):
    """Core search at the settings ``s``; returns (PeriodResult, trajectory
    covering [0, tau])."""
    y0 = spec.pack(m)
    rp0 = spec.reduce_y(y0)
    scale = max(1.0, float(np.linalg.norm(rp0)))
    v0 = spec.reduced_velocity(y0)
    speed = float(np.linalg.norm(v0))
    if speed < s.v_min * scale:
        raise PeriodNotFoundError(
            f"reduced speed {speed:.3e} is below v_min = {s.v_min * scale:.3e}: "
            "the reduced orbit is (numerically) an equilibrium, so no "
            "minimal period exists"
        )
    v0n = v0 / speed

    marcher = _Marcher(spec, y0, s.t_max, s.rtol, s.atol, dense=True)
    traj = marcher.traj

    def sigma_of(seg):
        def sigma(ts):
            # summed term by term in one fixed order, never by a BLAS dot
            # whose order depends on the array length: a time gets the same
            # value in the step's scan and in the brentq refinement
            d = spec.reduce_y(seg(ts)) - rp0[:, None]
            return sum(v * row for v, row in zip(v0n, d))
        return sigma

    best_residual = math.inf
    found_crossing = False
    n_sub = 16
    while not marcher.finished:
        seg = marcher.step()
        sig = sigma_of(seg)
        ts = np.linspace(seg.t_old, seg.t_new, n_sub + 1)
        vals = sig(ts)
        for i in range(1, len(ts)):
            if not (vals[i - 1] < 0.0 <= vals[i]):
                continue
            if ts[i] <= s.min_period:
                continue
            try:
                t_star, rr = brentq(
                    lambda t: float(sig(np.array([t]))[0]),
                    ts[i - 1], ts[i], xtol=1e-13, rtol=1e-15, full_output=True,
                )
            except RuntimeError as e:
                raise SectionRefinementError(
                    f"section crossing in [{float(ts[i - 1])!r}, {float(ts[i])!r}] "
                    f"was not refined: {e}"
                ) from e
            if t_star <= s.min_period:
                continue
            found_crossing = True
            residual = float(np.linalg.norm(spec.reduce_y(seg(t_star)) - rp0))
            if residual < s.tol_closure * scale:
                return (
                    PeriodResult(float(t_star), residual, int(rr.iterations)),
                    traj,
                )
            best_residual = min(best_residual, residual)

    if not found_crossing:
        raise PeriodNotFoundError(
            f"no positively-oriented section crossing before t_max = {s.t_max}"
        )
    raise NotPeriodicError(
        "section crossings found but the reduced state never returned to "
        f"its start (best residual {best_residual:.3e} vs tolerance "
        f"{s.tol_closure * scale:.3e})",
        best_residual=best_residual,
        t_searched=s.t_max,
    )


def find_reduced_period(spec: SystemSpec, m: PhasePoint, **kwargs) -> PeriodResult:
    """Smallest return time of the reduced trajectory (see module doc).

    Keyword overrides are fields of :class:`IntegrationDefaults`; each
    non-None one replaces ``spec.defaults``' value (``tol_phase`` has no
    effect here) and an unknown name raises TypeError.
    """
    result, _ = _period_search(spec, m, spec.defaults.override(**kwargs))
    return result


"""Adaptive integration (DOP853) plus detection of the reduced
trajectory's return time (the reduced period).  The module is numerics
only: it writes no files (``cli`` owns the output formats).

One rule integrates: scipy's DOP853 (Hairer, Nørsett & Wanner, *Solving
ODEs I*, §II.6: its tableau, first step, error norm and step factors)
with every sum in one fixed order.  ``_Marcher`` runs it on one state
of Python floats, one generated comprehension per tableau row, for
``flow()``, ``flow_trajectory`` and the period search.  The attitude
quaternion is renormalized after every accepted step.  Callers that
keep a trajectory also get each step's dense interpolant (scipy's, from
three extra stages) with a linear ramp to the renormalized endpoint:
the correction is O(norm drift), far below the interpolation error, and
makes dense evaluation reproduce the nodes to rounding.  ``flow()``
builds no interpolant; its steps are the same either way.

``flow_many`` runs many fixed-horizon flows as one lockstep batch over
packed columns (torchode, Lienen & Günnemann, arXiv:2210.12375): each
column with its own step size and accept/reject decision, compacted
away once it finishes or fails.  The field is evaluated once per stage
for all live columns (``SystemSpec.rhs_columns``) and every sum runs in
the marcher's order, so a column ends on the bits of ``flow()`` from
its start, whatever shares its batch.  A column takes its first step
from a marcher, and the lowest failed column is re-run alone by the
marcher, which raises ``flow()``'s error.  Each numpy operation costs
about a scalar field call, so the batch pays only with several columns.

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
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY, Dop853DenseOutput
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


def _start_state(spec: SystemSpec, y0) -> np.ndarray:
    """A float copy of the packed start y0, once it passes the domain test."""
    y0 = np.array(y0, dtype=float)
    try:
        spec.domain_check(y0)
    except DomainError as e:
        raise _failure(spec, "initial state outside the domain", y0, 0.0, e)
    return y0


def _terms(coefficients):
    """The nonzero entries of a tableau row as (stage, coefficient)."""
    return tuple((i, float(c)) for i, c in enumerate(coefficients) if c != 0.0)


def _rows(rows, template):
    """Per tableau row, a function ``(y, K, x)`` giving the list of
    ``template`` over the rows ``v`` of y, with ``{acc}`` the row's sum
    over the stages K in ``_combine``'s order.  Each is one comprehension
    generated here: built term by term, the sums cost a list per term."""
    made = []
    for terms in rows:
        ks = ", ".join(f"k{i}" for i, _ in terms)
        stages = ", ".join(f"K[{i}]" for i, _ in terms)
        acc = " + ".join(f"k{i} * {c!r}" for i, c in terms)
        made.append(eval(f"lambda y, K, x: [{template.format(acc=acc)} "
                         f"for v, {ks} in zip(y, {stages})]"))
    return tuple(made)


# tableau rows 1-12 make a step (row 12 is B, the step's end state) and
# rows 13-15 the dense output's extra stages; (c, row) with y = start, x = h
_A_TERMS = tuple(_terms(_dop.A[s, :s]) for s in range(1, _dop.N_STAGES_EXTENDED))
_STAGE_TERMS = _A_TERMS[:_dop.N_STAGES]
_E5_TERMS = _terms(_dop.E5)
_E3_TERMS = _terms(_dop.E3)
_STAGES = tuple(zip(_dop.C[1:].tolist(), _rows(_A_TERMS, "v + ({acc}) * x")))
_D_ROWS = _rows(map(_terms, _dop.D), "x * ({acc})")
_E5_ROW, _E3_ROW = _rows((_E5_TERMS, _E3_TERMS), "({acc}) / v")  # y = scale
# DOP853's error estimator is of order 7
_ERROR_EXPONENT = -1.0 / 8.0


def _combine(K, terms):
    """sum_i c_i K[i] over ``terms`` in their fixed order."""
    (i, c), *rest = terms
    acc = K[i] * c
    for i, c in rest:
        acc += K[i] * c
    return acc


def _sumsq(x):
    """Sum of squares over the rows (floats or array rows), in row order."""
    acc = x[0] * x[0]
    for row in x[1:]:
        acc += row * row
    return acc


def _rms(x):
    """RMS of a list of floats (scipy's ``norm``)."""
    return math.sqrt(_sumsq(x)) / len(x) ** 0.5


def _per_column(fn, *arrays):
    """``fn`` on each column's Python floats, as the marcher computes it."""
    return np.array([fn(*v) for v in zip(*(a.tolist() for a in arrays))])


def _initial_step(d0, d1, d2, h0):
    """scipy's ``select_initial_step`` from its norms."""
    if d1 <= 1e-15 and d2 <= 1e-15:
        return max(1e-6, h0 * 1e-3)
    return (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT


def _error_norm(e5, e3, h, n):
    """scipy's error norm of a step h from its scaled error sums of squares."""
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * n)


def _step_factor(norm, retried):
    """scipy's step-size factor after an attempt with error ``norm``; the
    retry of a rejected step may not grow it."""
    if norm < 1.0:
        if norm == 0.0:
            return MAX_FACTOR
        factor = min(MAX_FACTOR, SAFETY * norm ** _ERROR_EXPONENT)
        return min(1.0, factor) if retried else factor
    return max(MIN_FACTOR, SAFETY * norm ** _ERROR_EXPONENT)


@dataclass
class Trajectory:
    """Dense solution of one forward integration.  Node states carry the
    renormalized quaternion; dense evaluation reproduces them to rounding."""

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
    """The DOP853 rule on one packed state of Python floats from time 0
    to ``t_bound``, fixing the quaternion after each step.  ``sign = -1``
    marches the negated field; with ``dense`` (forward only) each step's
    interpolant is kept.  ``_lockstep`` starts a column from ``f`` and
    ``h_abs``, the start's field and first step size."""

    def __init__(self, spec: SystemSpec, y0, t_bound, rtol, atol, sign=1.0,
                 dense=False):
        y0 = _start_state(spec, y0)
        self.spec, self.t_bound = spec, float(t_bound)
        self.rtol, self.atol, self.sign, self.dense = rtol, atol, sign, dense
        self.traj = Trajectory(spec, [0.0], [y0], [])
        self.t, self.y = 0.0, y0.tolist()
        self.finished = self.t_bound == 0.0
        if not self.finished:
            try:
                self.f = self._eval(0.0, self.y)
                self.h_abs = self._first_step()
            except DomainError as e:
                raise _failure(spec, "domain exit at start", y0, 0.0, e)

    def _eval(self, t, y):
        self.traj.n_rhs_evals += 1
        return self.spec.rhs(t, y)

    def _first_step(self):
        """scipy's ``select_initial_step``."""
        y, f, t_bound = self.y, self.f, self.t_bound
        scale = [self.atol + abs(v) * self.rtol for v in y]
        d0 = _rms([v / s for v, s in zip(y, scale)])
        d1 = _rms([v / s for v, s in zip(f, scale)])
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
        f1 = self._eval(h0, [v + h0 * self.sign * g for v, g in zip(y, f)])
        d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
        return min(100 * h0, _initial_step(d0, d1, d2, h0), t_bound)

    def step(self):
        """Advance one accepted step; returns its interpolant when dense
        output is kept, else None."""
        spec, traj, t, y = self.spec, self.traj, self.t, self.y
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, retried = max(self.h_abs, min_step), False
        try:
            while True:
                if h_abs < min_step:
                    raise _failure(spec, "step-size underflow: Required step size "
                                   "is less than spacing between numbers.",
                                   traj.states[-1], t)
                t_new = min(t + h_abs, self.t_bound)
                h = t_new - t
                K = [self.f]
                for c, row in _STAGES[:_dop.N_STAGES]:
                    y_new = row(y, K, h * self.sign)
                    K.append(self._eval(t + c * h, y_new))
                scale = [self.atol + max(abs(a), abs(b)) * self.rtol
                         for a, b in zip(y, y_new)]
                norm = _error_norm(_sumsq(_E5_ROW(scale, K, None)),
                                   _sumsq(_E3_ROW(scale, K, None)), h, spec.nstate)
                h_abs = h * _step_factor(norm, retried)
                if norm < 1.0:
                    break
                retried = True
                traj.n_rejected += 1
            y_fix = list(y_new)
            q = y_fix[spec.quat_slice]
            n = math.sqrt(_sumsq(q))
            y_fix[spec.quat_slice] = [v / n for v in q]
            dense = self._interpolant(K, y_new, y_fix, t_new) if self.dense else None
            # continue the march from the renormalized state
            self.f = self._eval(t_new, y_fix)
        except DomainError as e:
            raise _failure(spec, "trajectory left the domain", traj.states[-1], t, e)
        self.t, self.y, self.h_abs = t_new, y_fix, h_abs
        traj.times.append(t_new)
        traj.states.append(np.array(y_fix))
        traj.n_accepted += 1
        self.finished = t_new >= self.t_bound
        return dense

    def _interpolant(self, K, y_new, y_fix, t_new):
        """The interpolant of the step from ``self.y`` to ``y_new`` at
        ``t_new``, built as scipy's ``_dense_output_impl`` builds it, with
        the linear ramp to the renormalized ``y_fix`` added to its x term;
        kept as a segment."""
        t, y = self.t, self.y
        h = t_new - t
        for c, row in _STAGES[_dop.N_STAGES:]:
            K.append(self._eval(t + c * h, row(y, K, h)))
        dy = [b - a for a, b in zip(y, y_new)]
        F = [[b - a for a, b in zip(y, y_fix)],
             [h * f - d for f, d in zip(K[0], dy)],
             [2 * d - h * (g + f) for d, g, f in zip(dy, K[_dop.N_STAGES], K[0])],
             *(row(y, K, h) for row in _D_ROWS)]
        dense = Dop853DenseOutput(t, t_new, np.array(y), np.array(F))
        self.traj.segments.append(dense)
        return dense

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
    traj = _Marcher(spec, m.y, abs(t), s.rtol, s.atol, math.copysign(1.0, t)).run()
    return spec.unpack(traj.states[-1])


# ---------------------------------------------------------------------------
# lockstep batch
# ---------------------------------------------------------------------------


def _lockstep(spec: SystemSpec, ys, ts, rtol, atol):
    """Integrate column j of ``ys`` (nstate, n) forward to ``ts[j] >= 0``
    in one lockstep batch.  Returns the (nstate, n) end states and the
    set of failed columns, which keep their start state."""
    out = np.array(ys, dtype=float)
    failed, starts = set(), {}
    for j in np.flatnonzero(ts > 0.0).tolist():
        try:
            starts[j] = _Marcher(spec, out[:, j], ts[j], rtol, atol)
        except IntegrationError:
            failed.add(j)
    idx = np.array(list(starts), dtype=int)
    y = out[:, idx]
    t = np.zeros(idx.size)
    t_bound = ts[idx]
    f = np.array([m.f for m in starts.values()]).reshape(idx.size, spec.nstate).T
    h_abs = np.array([m.h_abs for m in starts.values()])
    retried = np.zeros(idx.size, dtype=bool)

    def keep(mask):
        nonlocal idx, y, f, t, t_bound, h_abs, retried
        idx, y, f, t, t_bound = idx[mask], y[:, mask], f[:, mask], t[mask], t_bound[mask]
        h_abs, retried = h_abs[mask], retried[mask]

    while idx.size:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(~retried & (h_abs < min_step), min_step, h_abs)
        tiny = h_abs < min_step
        if tiny.any():
            failed.update(idx[tiny].tolist())
            keep(~tiny)
            continue
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t
        K = [f]
        outside = np.zeros(idx.size, dtype=bool)
        for terms in _STAGE_TERMS:
            stage = y + _combine(K, terms) * h
            k, out_k = spec.rhs_columns(stage)
            outside |= out_k
            K.append(k)
        y_new = stage
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5 = _sumsq(_combine(K, _E5_TERMS) / scale)
        e3 = _sumsq(_combine(K, _E3_TERMS) / scale)
        norm = _per_column(lambda *a: _error_norm(*a, spec.nstate), e5, e3, h)
        h_abs = h * _per_column(_step_factor, norm, retried)
        retried = ~(norm < 1.0)
        accepted = ~retried & ~outside
        failed.update(idx[outside].tolist())
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
    docstring): it ends on the bits of ``flow()`` from its start, whatever
    else shares its batch.  A zero horizon returns the start state.  If
    columns fail, the lowest-index one is re-run alone and raises
    ``flow()``'s IntegrationError.
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
        j = min(failed)
        _Marcher(spec, ys[:, j], ts[j], s.rtol, s.atol).run()
        raise AssertionError(f"batch column {j} failed but not when run alone")
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
    # the domain test comes first: the gate below is arithmetic on y0
    y0 = _start_state(spec, spec.pack(m))
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
        ts = np.linspace(seg.t_old, seg.t, n_sub + 1)
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


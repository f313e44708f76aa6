"""Adaptive integration (DOP853) plus detection of the reduced
trajectory's return time (the reduced period).  The module is numerics
only: it writes no files (``cli`` owns the output formats).

One rule integrates: scipy's DOP853 (Hairer, Nørsett & Wanner, *Solving
ODEs I*, §II.6: its tableau, first step, error norm and step factors)
with every sum in one fixed order.  The module imports no scipy: the
tableau (``_dop853``), the dense output (``_Segment``) and ``brentq`` are
owned copies of scipy 1.17.1's, with its arithmetic in its order, so
they give its bits.  ``_Marcher`` runs the rule on one state of Python
floats, one generated comprehension per tableau row, for ``flow()``,
``flow_trajectory`` and the period search.  The attitude
quaternion is renormalized after every accepted step.  Callers that
keep a trajectory also get each step's dense interpolant (scipy's, from
three extra stages) with a linear ramp to the renormalized endpoint:
the correction is O(norm drift), far below the interpolation error, and
makes dense evaluation reproduce the nodes to rounding.  A step's
interpolant keeps the marcher's lists of floats, and one generated sum,
``_DENSE_SUM``, reads it: on those floats at one time (``_Segment.at``),
and on rows gathered from the steps hit at an array of times
(``Trajectory.eval_y``), with the same bits by construction.  ``flow()``
builds no interpolant; its steps are the same either way.

``flow_many`` runs many fixed-horizon flows as one lockstep batch over
packed columns (torchode, Lienen & Günnemann, arXiv:2210.12375), with
one marcher per column.  The marcher's step is made of pieces (the
attempt's size, the verdict on its error sums, the acceptance and the
domain-exit failure), and each column's marcher runs them, so a column
has its own step size, accept/reject decision, field calls, counters
and failure.  Only the stage rows, the error scale and the E5/E3 sums
run on one block of all live columns, as the marcher's tableau rows.
A column therefore ends on the bits of ``flow()`` from its start, or
fails with its error, whatever shares its batch.  The block sums cost
the same numpy calls at any width, so the batch pays only with several
columns.

Period detection marches the flow while watching the section function
sigma(t) = <reduced(t) - reduced(0), v0_hat> (v0 = initial reduced
velocity).  Each accepted step first runs one test on the Python floats
the marcher holds (``_Section.may_cross``): the interpolant stays within
a per-row bound of the chord between the step's ends, sigma is at most
quadratic along the chord, and its gradient and curvature bound
(``SystemSpec.reduced_gradient``, ``reduced_curvature``) bound how far
the remainder moves it.  When that enclosure lies above or below zero
by more than a rounding slack, sigma keeps one sign on the step and the
step is not scanned; a value that is not finite scans it.  The test
only excludes steps, by a bound rather than a heuristic (event location
on a step's own data: Shampine & Thompson, Comput. Math. Appl. 39
(2000) 43), so every crossing, bracket and output keeps its bits;
``Trajectory.n_scanned`` counts the scanned steps.  A scanned step
samples sigma at 17 equally spaced times (16 sub-intervals), and at
every sign change of sigma from negative to positive brentq refines the
crossing time.  The scan, the refinement and the closure test read the
step at one time by ``_Segment.at``, so a time gets the same bits in
the scan and in the refinement by construction.  The first refined crossing
beyond the minimal-period floor whose reduced state also returns to the
start (closure) is the period.  Crossings that fail closure are other
intersections of the reduced orbit with the section hyperplane and are
skipped; if only such crossings exist up to t_max the orbit is reported
as not periodic.  A refinement that fails inside its bracket raises
``SectionRefinementError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, mul

import numpy as np

from . import _dop853 as _dop
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
    ``k_i * c_i + ...`` over the stages K in the row's order.  The marcher
    passes one state's floats as the rows, the lockstep one block ``[y]``
    of all rows and columns with stages ``[k]``.  Each is one comprehension
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
_STAGES = tuple(zip(_dop.C[1:].tolist(), _rows(
    (_terms(_dop.A[s, :s]) for s in range(1, _dop.N_STAGES_EXTENDED)),
    "v + ({acc}) * x")))
_D_ROWS = _rows(map(_terms, _dop.D), "x * ({acc})")
_E5_ROW, _E3_ROW = _rows(map(_terms, (_dop.E5, _dop.E3)), "({acc}) / v")  # y = scale
# DOP853's error estimator is of order 7
_ERROR_EXPONENT = -1.0 / 8.0
# scipy's step-size factor: safety, and the bounds of one change
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10


def _sumsq(x):
    """Sum of squares over the rows (floats or array rows), in row order."""
    acc = x[0] * x[0]
    for row in x[1:]:
        acc += row * row
    return acc


def _rms(x):
    """RMS of a list of floats (scipy's ``norm``)."""
    return math.sqrt(_sumsq(x)) / len(x) ** 0.5


def _initial_step(d0, d1, d2, h0):
    """scipy's ``select_initial_step`` from its norms."""
    if d1 <= 1e-15 and d2 <= 1e-15:
        return max(1e-6, h0 * 1e-3)
    return (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT


def _dense_sum(n):
    """scipy's dense-output sum of n F rows: a function of (x, u, y, F),
    u = 1 - x, giving per row v of y the sum ``acc = (acc + f) * m`` over
    that row of F from the last, m = x, u, x, ..., plus v.  Rows of
    Python floats read one time, numpy rows one time per column, by the
    same operations.  One comprehension generated here, as ``_rows``
    generates the tableau rows."""
    acc = "0.0"
    for k in reversed(range(n)):
        acc = f"({acc} + f{k}) * {'u' if (n - 1 - k) % 2 else 'x'}"
    fs = ", ".join(f"f{k}" for k in range(n))
    return eval(f"lambda x, u, y, F: [{acc} + v for v, {fs} in zip(y, *F)]")


_N_F = 3 + len(_dop.D)  # a step's F rows: three from the ends, then D
_DENSE_SUM = _dense_sum(_N_F)


class _Segment:
    """One step's interpolant on [t_old, t]: the marcher's start list
    y_old plus the rows F of ``_dense_output_impl`` as lists of Python
    floats, read by scipy's ``Dop853DenseOutput`` arithmetic in its order.
    ``at`` runs ``_DENSE_SUM`` on those floats at one time;
    ``Trajectory.eval_y`` runs it on gathered rows at many."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.t, self.h = t_old, t, t - t_old
        self.y_old, self.F = y_old, F

    def at(self, t):
        """The state at time t as a list of Python floats."""
        x = (t - self.t_old) / self.h
        return _DENSE_SUM(x, 1 - x, self.y_old, self.F)


@dataclass
class Trajectory:
    """Dense solution of one forward integration.  Node states are lists
    of Python floats and carry the renormalized quaternion; dense
    evaluation reproduces them to rounding."""

    spec: SystemSpec
    times: list
    states: list
    segments: list
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs_evals: int = 0
    n_scanned: int = 0

    @property
    def t0(self) -> float:
        return self.times[0]

    @property
    def t1(self) -> float:
        return self.times[-1]

    def eval_y(self, t) -> np.ndarray:
        """Packed state at time t (nstate,) by ``_Segment.at``, or at a 1-D
        array of times as columns (nstate, n): ``_DENSE_SUM`` on each time's
        start and F rows, gathered from the distinct steps hit."""
        ts = np.asarray(t, dtype=float)
        inside = (self.t0 <= ts) & (ts <= self.t1)
        if not np.all(inside):
            bad = t if ts.ndim == 0 else ts[~inside][0]
            raise ValueError(
                f"t = {bad!r} outside the trajectory span [{self.t0}, {self.t1}]"
            )
        if not self.segments:
            y0 = np.array(self.states[0])
            return y0 if ts.ndim == 0 else np.repeat(y0[:, None], ts.size, 1)
        idx = np.searchsorted(self.times, ts, side="right") - 1
        idx = np.clip(idx, 0, len(self.segments) - 1)
        if ts.ndim == 0:
            return np.array(self.segments[idx].at(float(ts)))
        steps, inverse = np.unique(idx, return_inverse=True)
        hit = [self.segments[i] for i in steps.tolist()]
        n, nstate = len(hit), len(self.states[0])
        t_old, h = np.reshape([(s.t_old, s.h) for s in hit], (n, 2))[inverse].T
        y = np.reshape([s.y_old for s in hit], (n, nstate))[inverse].T
        F = np.reshape([s.F for s in hit], (n, _N_F, nstate))[inverse].transpose(1, 2, 0)
        x = (ts - t_old) / h
        return np.array(_DENSE_SUM(x, 1 - x, y, F))

    def eval(self, t: float) -> PhasePoint:
        return self.spec.unpack(self.eval_y(t))


class _Marcher:
    """The DOP853 rule on one packed state of Python floats from time 0
    to ``t_bound``, fixing the quaternion after each step.  ``sign = -1``
    marches the negated field (the field and a failure see the time
    ``sign * t``); with ``dense`` (forward only) each step's interpolant is
    kept.  A step is made of the pieces ``_attempt``,
    ``_verdict`` and ``_accept`` (and ``_left_domain`` when the field
    raises), which ``_lockstep`` drives for a batch column."""

    def __init__(self, spec: SystemSpec, y0, t_bound, rtol, atol, sign=1.0,
                 dense=False):
        y0 = _start_state(spec, y0)
        self.spec, self.t_bound = spec, float(t_bound)
        self.rtol, self.atol, self.sign, self.dense = rtol, atol, sign, dense
        self.t, self.y = 0.0, y0.tolist()
        self.traj = Trajectory(spec, [0.0], [self.y], [])
        self.finished, self.retried = self.t_bound == 0.0, False
        if not self.finished:
            try:
                self.f = self._eval(0.0, self.y)
                self.h_abs = self._first_step()
            except DomainError as e:
                raise _failure(spec, "domain exit at start", y0, 0.0, e)

    def _eval(self, t, y):
        self.traj.n_rhs_evals += 1
        return self.spec.rhs(self.sign * t, y)

    def _first_step(self):
        """scipy's ``select_initial_step``."""
        y, f, t_bound = self.y, self.f, self.t_bound
        scale = [self.atol + abs(v) * self.rtol for v in y]
        d0 = _rms([v / s for v, s in zip(y, scale)])
        d1 = _rms([v / s for v, s in zip(f, scale)])
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
        if not h0 > 0.0:
            raise _failure(self.spec, "no first step: the field at the start "
                           "overflows its error scale", self.traj.states[0], 0.0)
        f1 = self._eval(h0, [v + h0 * self.sign * g for v, g in zip(y, f)])
        d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
        return min(100 * h0, _initial_step(d0, d1, d2, h0), t_bound)

    def step(self):
        """Advance one accepted step; returns its interpolant when dense
        output is kept, else None."""
        t, y = self.t, self.y
        try:
            while True:
                t_new, h = self._attempt()
                K = [self.f]
                for c, row in _STAGES[:_dop.N_STAGES]:
                    y_new = row(y, K, h * self.sign)
                    K.append(self._eval(t + c * h, y_new))
                scale = [self.atol + max(abs(a), abs(b)) * self.rtol
                         for a, b in zip(y, y_new)]
                if self._verdict(_sumsq(_E5_ROW(scale, K, None)),
                                 _sumsq(_E3_ROW(scale, K, None)), h):
                    return self._accept(t_new, y_new, K)
        except DomainError as e:
            raise self._left_domain(e)

    def _attempt(self):
        """The next attempt's end time and size (t_new, h); raises the
        step-size underflow when a retry falls below the spacing of the
        floats at t."""
        t = self.t
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = self.h_abs if self.retried else max(self.h_abs, min_step)
        if h_abs < min_step:
            raise _failure(self.spec, "step-size underflow: Required step size "
                           "is less than spacing between numbers.",
                           self.traj.states[-1], self.sign * t)
        t_new = min(t + h_abs, self.t_bound)
        return t_new, t_new - t

    def _verdict(self, e5, e3, h):
        """scipy's verdict on the attempt of size h from its scaled error
        sums of squares ``e5`` and ``e3``: the error norm sets the next
        step size, which the retry of a rejected step may not grow.  True
        when the attempt is accepted; a rejection is counted."""
        norm = 0.0 if e5 == 0.0 and e3 == 0.0 else (
            h * e5 / math.sqrt((e5 + 0.01 * e3) * self.spec.nstate))
        if norm < 1.0:
            factor = MAX_FACTOR if norm == 0.0 else min(
                MAX_FACTOR, SAFETY * norm ** _ERROR_EXPONENT)
            factor = min(1.0, factor) if self.retried else factor
        else:
            factor = max(MIN_FACTOR, SAFETY * norm ** _ERROR_EXPONENT)
        self.h_abs = h * factor
        self.retried = not norm < 1.0
        self.traj.n_rejected += self.retried
        return not self.retried

    def _accept(self, t_new, y_new, K):
        """Take the accepted attempt ending at ``t_new`` in ``y_new`` with
        stages K: renormalize the quaternion, keep the interpolant when
        dense (returned, else None) and recompute f at the new state."""
        y_fix = list(y_new)
        q = y_fix[self.spec.quat_slice]
        n = math.sqrt(_sumsq(q))
        y_fix[self.spec.quat_slice] = [v / n for v in q]
        dense = self._interpolant(K, y_new, y_fix, t_new) if self.dense else None
        # continue the march from the renormalized state
        self.f = self._eval(t_new, y_fix)
        self.t, self.y = t_new, y_fix
        self.traj.times.append(t_new)
        self.traj.states.append(y_fix)
        self.traj.n_accepted += 1
        self.finished = t_new >= self.t_bound
        return dense

    def _left_domain(self, cause):
        """The failure of an attempt whose field raised the DomainError
        ``cause``, at the last accepted state."""
        return _failure(self.spec, "trajectory left the domain",
                        self.traj.states[-1], self.sign * self.t, cause)

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
        dense = _Segment(t, t_new, y, F)
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
    in one lockstep batch, one marcher per column.  Returns the (nstate,
    n) end states, where a failed column keeps its start, and each failed
    column's IntegrationError by column index.

    Per attempt, the stage rows, the error scale and the E5/E3 sums run
    on one block of the live columns; each column's field is its
    marcher's, and its marcher sizes, judges and takes its own attempt.
    A column whose field raises gets zero fields for the rest of the
    attempt."""
    out = np.array(ys, dtype=float)
    errors, live, zero = {}, [], [0.0] * spec.nstate
    for j in np.flatnonzero(ts > 0.0).tolist():
        try:
            live.append((j, _Marcher(spec, out[:, j], ts[j], rtol, atol)))
        except IntegrationError as e:
            errors[j] = e
    while live:
        tries = []
        for j, m in live:
            try:
                tries.append((j, m, *m._attempt()))
            except IntegrationError as e:
                errors[j] = e
        if not tries:
            break
        js, ms, t_new, h = zip(*tries)
        t, hs = np.array([m.t for m in ms]), np.array(h)
        y = np.array([m.y for m in ms]).T
        K = [[np.array([m.f for m in ms]).T]]
        for c, row in _STAGES[:_dop.N_STAGES]:
            y_new, = row([y], K, hs)
            cols, k = y_new.T.tolist(), []
            for j, m, tc, yc in zip(js, ms, (t + c * hs).tolist(), cols):
                try:
                    k.append(zero if j in errors else m._eval(tc, yc))
                except DomainError as e:
                    errors[j] = m._left_domain(e)
                    k.append(zero)
            K.append([np.array(k).T])
        scale = [atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol]
        e5 = _sumsq(_E5_ROW(scale, K, None)[0]).tolist()
        e3 = _sumsq(_E3_ROW(scale, K, None)[0]).tolist()
        for i, (j, m, yc) in enumerate(zip(js, ms, cols)):
            if j not in errors and m._verdict(e5[i], e3[i], h[i]):
                try:
                    m._accept(t_new[i], yc, None)
                except DomainError as e:
                    errors[j] = m._left_domain(e)
                if m.finished:
                    out[:, j] = m.y
        live = [(j, m) for j, m in zip(js, ms) if not (m.finished or j in errors)]
    return out, errors


def flow_many(spec: SystemSpec, ys, ts, rtol=None, atol=None) -> np.ndarray:
    """End states of forward flows from the packed states given as the
    columns of ``ys`` (nstate, n), column j to its own time ``ts[j] >= 0``,
    as an (nstate, n) array.

    Each column is its own integration by its own marcher, with
    ``flow()``'s rule and settings, stepped in lockstep with the others
    (see the module docstring): it ends on the bits of ``flow()`` from its
    start, whatever else shares its batch.  A zero horizon returns the
    start state.  If columns fail, the lowest-index one's IntegrationError
    is raised: the error ``flow()`` raises from that start.
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
    # a field that turns non-finite gives the block sums inf and nan, as
    # it gives the marcher's floats, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out, errors = _lockstep(spec, ys, ts, s.rtol, s.atol)
    if errors:
        raise errors[min(errors)]
    return out


@dataclass(frozen=True)
class PeriodResult:
    """Return time of the reduced trajectory to its starting point."""

    tau: float
    closure_residual: float
    crossing_refinement_iterations: int


def brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """A root of f in the bracket [xa, xb] by Brent's method: scipy
    1.17.1's ``brentq.c`` on Python floats, step for step.  Returns (root,
    iterations); a root at an end of the bracket takes 0 iterations (scipy
    reports an unset count there).  Raises ValueError when f(xa) and f(xb)
    have one sign, and RuntimeError when a value of f is NaN or maxiter
    iterations do not converge."""

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise RuntimeError(f"The function value at x={x} is NaN; "
                               "solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


class _Section:
    """The section function sigma(y) = <reduce_y(y) - rp0, v0n> (see the
    module docstring), summed term by term in one fixed order, never by a
    BLAS dot whose order depends on the array length: the columns of an
    (nstate, n) array give an (n,) array, and a list of floats a float of
    the same bits."""

    def __init__(self, spec: SystemSpec, rp0, v0n):
        self.spec, self.rp0, self.v0n = spec, rp0.tolist(), v0n.tolist()
        # may_cross's constants: the reduced rows, the curvature bound,
        # <rp0, v0n> and the size of rp0
        self.pick = itemgetter(*spec.reduced_rows)
        self.curvature = spec.reduced_curvature(self.v0n)
        self.level = sum(map(mul, self.v0n, self.rp0))
        self.size = sum(map(abs, self.rp0))

    def __call__(self, y):
        reduced = self.spec.reduce_y(y)
        return sum(v * (r - p) for v, r, p in zip(self.v0n, reduced, self.rp0))

    def may_cross(self, y, F):
        """False when sigma keeps one sign on the whole step whose
        interpolant starts at the list ``y`` with the F rows ``F`` (lists
        of floats), by more than rounding: then no scan of the step can
        read a sign change.  True otherwise, and when a value is not
        finite.

        The interpolant is y + x*(F0 + (1 - x)*(F1 + x*(F2 + ...))) with x
        and 1 - x in [0, 1], so in each row it lies within
        eps = sum(|F_k|, k >= 1) / 4 of the chord y + x*F0.  On the chord
        sigma is s0 + b*x + c*x**2, whose range on [0, 1] is that of its
        values at both ends and at the vertex.  Off the chord sigma moves
        by at most its gradient times eps plus its curvature bound on
        eps; the gradient is linear in y, so its size on the chord is
        largest at an end.  The slack covers the rounding of every term,
        at 1e-12 of the sizes of the reduced states and of rp0."""
        spec, v, pick = self.spec, self.v0n, self.pick
        F0 = F[0]
        y1 = [a + f for a, f in zip(y, F0)]
        r0, r1 = spec.reduce_y(y), spec.reduce_y(y1)
        g0, g1 = spec.reduced_gradient(y, v), spec.reduced_gradient(y1, v)
        s0 = sum(map(mul, v, r0)) - self.level
        s1 = sum(map(mul, v, r1)) - self.level
        # the chord's slope at y, so that c = s1 - s0 - b
        b = sum(map(mul, g0, pick(F0)))
        eps = [0.25 * sum(map(abs, fs)) for fs in zip(*map(pick, F[1:]))]
        reach = (sum(map(mul, map(max, map(abs, g0), map(abs, g1)), eps))
                 + self.curvature * sum(map(mul, eps, eps)))
        slack = 1e-12 * (sum(map(abs, r0)) + sum(map(abs, r1)) + self.size)
        if not math.isfinite(s0 + s1 + b + reach + slack):
            return True
        lo, hi = (s0, s1) if s0 < s1 else (s1, s0)
        c = s1 - s0 - b
        if c != 0.0 and 0.0 < -b / (2.0 * c) < 1.0:
            vertex = s0 - b * b / (4.0 * c)
            lo, hi = min(lo, vertex), max(hi, vertex)
        margin = reach + slack
        return not (lo > margin or hi < -margin)

    def on_floats(self, seg):
        """sigma at one time of the step's interpolant ``seg``, read on
        Python floats by ``seg.at``; the scan and the refinement both read
        it."""
        return lambda t: self(seg.at(t))


def _period_search(spec: SystemSpec, m: PhasePoint, s: IntegrationDefaults):
    """Core search at the settings ``s``; returns (PeriodResult, trajectory
    covering [0, tau])."""
    # the domain test comes first: the gate below is arithmetic on y0
    y0 = _start_state(spec, spec.pack(m))
    rp0 = spec.reduce_y(y0)
    # a reduced velocity or norm that overflows reads inf or nan, without
    # a warning: the march from such a start then fails as flow() does
    with np.errstate(over="ignore", invalid="ignore"):
        v0 = spec.reduced_velocity(y0)
        scale = max(1.0, float(np.linalg.norm(rp0)))
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
    section = _Section(spec, rp0, v0n)

    best_residual = math.inf
    found_crossing = False
    while not marcher.finished:
        seg = marcher.step()
        if not section.may_cross(seg.y_old, seg.F):
            continue
        traj.n_scanned += 1
        sigma = section.on_floats(seg)
        ts = np.linspace(seg.t_old, seg.t, 17).tolist()
        vals = list(map(sigma, ts))
        for i in range(1, len(ts)):
            if not (vals[i - 1] < 0.0 <= vals[i]):
                continue
            if ts[i] <= s.min_period:
                continue
            try:
                t_star, iterations = brentq(
                    sigma, ts[i - 1], ts[i], xtol=1e-13, rtol=1e-15,
                )
            except RuntimeError as e:
                raise SectionRefinementError(
                    f"section crossing in [{ts[i - 1]!r}, {ts[i]!r}] "
                    f"was not refined: {e}"
                ) from e
            if t_star <= s.min_period:
                continue
            found_crossing = True
            residual = float(np.linalg.norm(spec.reduce_y(seg.at(t_star)) - rp0))
            if residual < s.tol_closure * scale:
                return (
                    PeriodResult(t_star, residual, iterations),
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


"""Adaptive integration (DOP853 with dense output) plus detection of the
reduced trajectory's return time (the reduced period).

The attitude quaternion is renormalized after every accepted step.  To
keep dense output consistent with the stored nodes, each step's
interpolant is blended toward the renormalized endpoint with a linear
ramp: the correction is O(norm drift) per step, orders of magnitude
below the interpolation error, and makes dense evaluation reproduce the
stored node states exactly.

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
orbit is reported as not periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .dynsys import IntegrationDefaults, PhasePoint, SystemSpec
from .errors import (
    DomainError,
    IntegrationError,
    NotPeriodicError,
    PeriodNotFoundError,
)


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
    """Forward march of the packed ODE with per-step quaternion fixing."""

    def __init__(self, spec: SystemSpec, y0, t_bound, rtol, atol, rhs=None):
        y0 = np.asarray(y0, dtype=float)
        try:
            spec.domain_check(y0)
        except DomainError as e:
            raise IntegrationError(
                f"initial state outside the domain: {e}",
                last_state=spec.unpack(y0),
                t=0.0,
            ) from e
        self.spec = spec
        self.traj = Trajectory(spec, [0.0], [np.array(y0)], [])
        self.qs = spec.quat_slice
        self._finished = t_bound == 0.0
        if not self._finished:
            try:
                self.solver = _CountingDOP853(
                    rhs or spec.rhs, 0.0, y0, t_bound=t_bound, rtol=rtol, atol=atol
                )
            except DomainError as e:
                raise IntegrationError(
                    f"domain exit at start: {e}", last_state=spec.unpack(y0), t=0.0
                ) from e

    def step(self):
        """Advance one accepted step; returns the new segment, or None
        when the time bound has been reached."""
        if self._finished:
            return None
        traj = self.traj
        try:
            msg = self.solver.step()
        except DomainError as e:
            raise IntegrationError(
                f"trajectory left the domain: {e}",
                last_state=self.spec.unpack(traj.states[-1]),
                t=traj.times[-1],
            ) from e
        if self.solver.status == "failed":
            raise IntegrationError(
                f"step-size underflow: {msg}",
                last_state=self.spec.unpack(traj.states[-1]),
                t=traj.times[-1],
            )
        dense = self.solver.dense_output()
        y_new = np.array(self.solver.y)
        y_fix = np.array(y_new)
        q = y_fix[self.qs]
        y_fix[self.qs] = q / math.sqrt(float(q @ q))
        seg = _Segment(dense, y_fix - y_new)
        # continue the march from the renormalized state
        self.solver.y[...] = y_fix
        self.solver.f = self.solver.fun(self.solver.t, self.solver.y)
        traj.times.append(self.solver.t)
        traj.states.append(y_fix)
        traj.segments.append(seg)
        traj.n_accepted += 1
        traj.n_rejected = self.solver.n_rejected
        traj.n_rhs_evals = self.solver.nfev
        if self.solver.status == "finished":
            self._finished = True
        return seg

    def run(self) -> Trajectory:
        while not self._finished:
            self.step()
        return self.traj


def flow_trajectory(
    spec: SystemSpec, m: PhasePoint, t: float, rtol=None, atol=None
) -> Trajectory:
    """Integrate forward from m to time t >= 0, keeping dense output."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError("flow_trajectory needs finite t >= 0")
    s = spec.defaults.override(rtol=rtol, atol=atol)
    return _Marcher(spec, spec.pack(m), t, s.rtol, s.atol).run()


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

    marcher = _Marcher(spec, y0, s.t_max, s.rtol, s.atol)
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
    while True:
        seg = marcher.step()
        if seg is None:
            break
        sig = sigma_of(seg)
        ts = np.linspace(seg.t_old, seg.t_new, n_sub + 1)
        vals = sig(ts)
        for i in range(1, len(ts)):
            if not (vals[i - 1] < 0.0 <= vals[i]):
                continue
            if ts[i] <= s.min_period:
                continue
            t_star, rr = brentq(
                lambda t: float(sig(np.array([t]))[0]),
                ts[i - 1], ts[i], xtol=1e-13, rtol=1e-15, full_output=True,
            )
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


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def export_csv(traj: Trajectory, stream, config_echo: str = None):
    """Write the trajectory nodes as CSV to a text stream: time, packed
    state components, pointwise invariants.  Floats use shortest
    round-trip formatting."""
    spec = traj.spec
    stream.write("# reconphase trajectory csv v1\n")
    stream.write(f"# system: {spec.kind}\n")
    if config_echo is not None:
        stream.write(f"# config: {config_echo}\n")
    cols = ("t",) + spec.state_columns() + spec.invariant_names()
    stream.write(",".join(cols) + "\n")
    for t, y in zip(traj.times, traj.states):
        row = [t, *y, *spec.invariants_y(y)]
        stream.write(",".join(repr(float(v)) for v in row) + "\n")

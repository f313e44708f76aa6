"""Reconstruction geometry of a symmetric flow with periodic reduced
dynamics: the group-valued phase of one reduced period, its torus
coordinates and frequencies, embedded invariant tori ("petals"), their
group translates ("flowers"), and the projective-plane-valued integral
of motion delta.

Conventions
-----------
* ``gamma`` (the phase) is the unique group element with
  ``act(gamma, m) = flow(m, tau)`` — solved in closed form per block:
  a 2D orthogonal-Procrustes fit for the circle angle (ball system) and
  the attitude quotient ``Q(tau) Q(0)^-1`` for the rotation part.
* For a regular phase, ``g_m = conjugator_to_torus(gamma)`` conjugates
  gamma into the reference torus T: ``conj(g_m, gamma) in T``.  The
  centralizer torus through gamma is then ``T_m = g_m^-1 T g_m``, and
  every torus element used by the embeddings acts through
  ``g_m^-1 Xi(beta) g_m``.
* ``eta`` = lattice coordinates of ``conj(g_m, gamma)``; by the
  principal-branch and axis conventions the rotation slot lies in
  [0, 1/2].  Frequencies are (1/tau, eta/tau) and are canonical only
  modulo (1/tau) Z in the eta slots.
* ``delta`` = projective class of ``g_m`` in G/N(T), represented by the
  folded image of e3 under g_m's rotation.  It is an integral of motion
  and is constant on petals; its level set inside one flower consists of
  exactly two petals (swapped by a half-turn about a horizontal axis
  orthogonal to the phase axis).
* ``conjugacy_residuals`` measures the chart's commuting square (flow
  vs linear shift of the coordinates) for the CLI and the checks alike.
* The chart's pieces depend on the phase alone, so a ``PhaseResult``
  builds each once: ``_centralizer_element`` keeps ``g_m^-1 Xi(beta)
  g_m`` by the exact bits of ``beta``, and ``flower_frame`` keeps
  ``(h_f^-1, flow(m, f tau))`` by ``f = alpha % 1``.  A point read from
  the memo has the bits of one built afresh.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .dynsys import BALL, PhasePoint, SystemSpec, act, state_distance
from .errors import DomainError, PhaseInconsistencyError
# flow is unused here but stays importable: the benchmark tracer patches it
from .integrate import Trajectory, _period_search, brentq, flow, flow_many
from .liegroup import (
    E1,
    E3,
    GroupElement,
    Rotation,
    Xi,
    conj,
    conjugator_to_torus,
    fold_projective,
    hat,
    is_regular,
    projective_distance,
    torus_coords,
    weyl_representative,
)


@dataclass(frozen=True)
class PhaseResult:
    """Phase data of one reduced period at a point.  Its arrays and its
    ``residuals`` mapping are read-only, so a result can be shared.

    ``residuals``: ``closure`` is the reduced distance from the start to
    the integrated state at ``tau``, ``defining`` the distance from
    ``act(gamma, m)`` to that state.  Both test the result against its
    own integration, so neither bounds the error in ``tau`` or ``gamma``
    (rigid ``[1,2,3]``, omega ``[1,0.2,0.3]``: ``defining`` 7.5e-13, gamma
    off by 6.7e-11); a rerun at a tighter ``rtol`` estimates it.

    ``_memo`` holds the chart's pieces that depend on the phase alone:
    centralizer elements by the exact bits of their coordinates and
    flower-frame basepoints by their period fraction, one entry per
    distinct query.  It is filled on first use, takes no part in ``==``,
    ``repr`` or ``to_dict``, and ``dataclasses.replace`` gives the new
    result an empty one."""

    tau: float
    gamma: GroupElement
    regular: bool
    conjugator: Optional[GroupElement]
    eta: Optional[np.ndarray]
    frequencies: Optional[np.ndarray]
    delta_rep: Optional[np.ndarray]
    residuals: Mapping
    _trajectory: Trajectory = field(repr=False, compare=False, default=None)
    _memo: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)

    def to_dict(self) -> dict:
        def group_el(g):
            if g is None:
                return None
            d = {"theta": g.theta, "quat": list(g.rot.q), "angle": g.rot.angle()}
            d["axis"] = list(g.rot.axis()) if d["angle"] > 1e-12 else None
            return d

        return {
            "tau": self.tau,
            "gamma": group_el(self.gamma),
            "regular": self.regular,
            "conjugator": group_el(self.conjugator),
            "eta": None if self.eta is None else list(self.eta),
            "frequencies": None
            if self.frequencies is None
            else list(self.frequencies),
            "delta_rep": None if self.delta_rep is None else list(self.delta_rep),
            "residuals": dict(self.residuals),
        }


def _procrustes_angle(sources, targets) -> float:
    """Best rotation angle for S_theta @ source_i ~ target_i (2-vectors)."""
    m00 = m01 = 0.0
    for s, t in zip(sources, targets):
        m00 += t[0] * s[0] + t[1] * s[1]
        m01 += -t[0] * s[1] + t[1] * s[0]
    return math.atan2(m01, m00)


def _solve_group_element(m_from: PhasePoint, m_to: PhasePoint) -> GroupElement:
    """Closed-form solve of act(g, m_from) = m_to (exact when the states
    lie on one group orbit; otherwise least-squares per block)."""
    spec = m_from.system
    R = m_to.Q @ m_from.Q.inverse()
    if spec.kind == BALL:
        theta = _procrustes_angle(
            (m_from.a, m_from.a_dot), (m_to.a, m_to.a_dot)
        )
        return GroupElement(theta, R, spec.group)
    return GroupElement(0.0, R, spec.group)


def phase(
    spec: SystemSpec,
    m: PhasePoint,
    rtol=None,
    atol=None,
    tol_phase=None,
    **period_kwargs,
) -> PhaseResult:
    """Compute the phase of one reduced period at m, with torus data when
    the phase is a regular group element."""
    if m.system is not spec:
        raise ValueError("phase point belongs to a different system")
    s = spec.defaults.override(
        rtol=rtol, atol=atol, tol_phase=tol_phase, **period_kwargs
    )
    pr, traj = _period_search(spec, m, s)
    m_tau = traj.eval(pr.tau)
    gamma = _solve_group_element(m, m_tau)
    defining = state_distance(act(gamma, m), m_tau)
    residuals = {
        "closure": pr.closure_residual,
        "defining": defining,
        "section_iterations": pr.crossing_refinement_iterations,
    }
    if defining > s.tol_phase:
        raise PhaseInconsistencyError(
            f"phase extraction residual {defining:.3e} exceeds tol_phase = "
            f"{s.tol_phase:.3e}; the integration did not return to the group "
            "orbit accurately enough",
            residual=defining,
        )
    regular = is_regular(gamma)
    conjugator = eta = freqs = delta_rep = None
    if regular:
        conjugator = conjugator_to_torus(gamma)
        eta = torus_coords(conj(conjugator, gamma), tol=1e-8)
        freqs = np.concatenate([[1.0 / pr.tau], eta / pr.tau])
        delta_rep = weyl_representative(conjugator)
        for arr in (eta, freqs, delta_rep):
            arr.flags.writeable = False
    return PhaseResult(
        tau=pr.tau,
        gamma=gamma,
        regular=regular,
        conjugator=conjugator,
        eta=eta,
        frequencies=freqs,
        delta_rep=delta_rep,
        residuals=MappingProxyType(residuals),
        _trajectory=traj,
    )


def frequency_mismatch(f1, f2, tau: float) -> float:
    """Distance between frequency vectors modulo the branch lattice
    (1/tau) Z in the torus slots."""
    f1 = np.asarray(f1, float)
    f2 = np.asarray(f2, float)
    d = abs(f1[0] - f2[0])
    for a, b in zip(f1[1:], f2[1:]):
        frac = (a - b) * tau
        frac = abs((frac + 0.5) % 1.0 - 0.5)
        d = max(d, frac / tau)
    return d


def _centralizer_element(p: PhaseResult, beta, group: str) -> GroupElement:
    """Element of T_m = g_m^-1 T g_m with reference coordinates beta,
    built once per phase for each exact beta."""
    b = np.asarray(beta, dtype=float)
    key = (group, b.shape, b.tobytes())
    h = p._memo.get(key)
    if h is None:
        g_m = p.conjugator
        h = p._memo[key] = (g_m.inverse() @ Xi(b, group)) @ g_m
    return h


def torus_embed(
    spec: SystemSpec, p: PhaseResult, alpha: float, beta
) -> PhasePoint:
    """Invariant-torus chart at the phase's basepoint m: the point with
    torus coordinates (alpha, beta).  (0, 0) maps to m; the flow acts
    linearly: flow(embed(alpha, beta), t) = embed(alpha + t/tau,
    beta + (t/tau) eta).  It is the flower frame at the element
    g_m^-1 Xi(beta) g_m of T_m.
    """
    if not p.regular:
        raise DomainError("torus embedding requires a regular phase")
    h_beta = _centralizer_element(p, beta, spec.group)
    return flower_frame(spec, p, alpha, h_beta)


def conjugacy_residuals(
    spec: SystemSpec, p: PhaseResult, chart, t_fracs, rtol=None, atol=None
) -> np.ndarray:
    """Commuting-square residuals of the torus chart: entry (i, j) is the
    distance of a fresh flow of ``chart[i] = (alpha, beta, x)``, x =
    torus_embed(spec, p, alpha, beta), over ``t_fracs[j]`` periods from
    the chart point at (alpha + tf, beta + tf eta).  The flows run as one
    ``flow_many`` batch at ``rtol``/``atol``."""
    grid = list(itertools.product(chart, t_fracs))
    ys = np.column_stack([x.y for (_, _, x), _ in grid])
    ts = np.array([tf * p.tau for _, tf in grid])
    ends = flow_many(spec, ys, ts, rtol=rtol, atol=atol)
    residuals = [
        state_distance(
            spec.unpack(y_end), torus_embed(spec, p, al + tf, be + tf * p.eta)
        )
        for ((al, be, _), tf), y_end in zip(grid, ends.T)
    ]
    return np.array(residuals).reshape(len(chart), len(t_fracs))


def flower_frame(
    spec: SystemSpec, p: PhaseResult, alpha: float, g: GroupElement
) -> PhasePoint:
    """Point of the flower through the phase's basepoint m with frame
    coordinates (alpha, g): act(g h_alpha^-1, flow(m, alpha tau)), with
    h_alpha = g_m^-1 Xi(alpha eta) g_m.

    It is read off the period trajectory p already holds.  With
    alpha = k + f (k integer, f in [0, 1)), flow(m, alpha tau) =
    act(gamma^k, flow(m, f tau)), and gamma = g_m^-1 Xi(eta) g_m = h_1, so
    h_alpha^-1 gamma^k = h_f^-1: no integration, the tolerance is the one
    p was computed with, and the chart is one-periodic in alpha.  The
    pair (h_f^-1, flow(m, f tau)) is built once per phase for each f.
    """
    if not p.regular:
        raise DomainError("the flower frame requires a regular phase")
    f = alpha % 1.0
    key = float(f).hex()
    frame = p._memo.get(key)
    if frame is None:
        h_f = _centralizer_element(p, f * p.eta, spec.group)
        frame = p._memo[key] = (h_f.inverse(), p._trajectory.eval(f * p.tau))
    h_f_inv, m_f = frame
    return act(g @ h_f_inv, m_f)


def delta(spec: SystemSpec, m: PhasePoint, p: PhaseResult = None) -> np.ndarray:
    """The projective integral of motion: class of the conjugator in
    G/N(T), as a folded unit 3-vector."""
    if p is None:
        p = phase(spec, m)
    if not p.regular:
        raise DomainError("delta is only defined on the regular set")
    return p.delta_rep


def delta_from_axis(gamma: GroupElement) -> np.ndarray:
    """Direct evaluation of delta from the phase's rotation axis v: the
    class of the image of e3 under the rotation of angle arccos(v.e3)
    about v x e3, computed through the explicit Rodrigues matrix.  This
    is an independent code path from the conjugator-based delta and is
    cross-checked against it in tests."""
    v = gamma.rot.axis()
    c = float(np.clip(v @ E3, -1.0, 1.0))
    u = np.cross(v, E3)
    s = float(np.linalg.norm(u))
    if s < 1e-12:
        # v parallel to e3: the conjugating rotation degenerates and the
        # class is [e3] for either sign
        return fold_projective(E3)
    u /= s
    ang = math.acos(c)
    K = hat(u)
    R = np.eye(3) + math.sin(ang) * K + (1.0 - math.cos(ang)) * (K @ K)
    return fold_projective(R @ E3)


def weyl_partner(spec: SystemSpec, m: PhasePoint, p: PhaseResult = None):
    """A representative of the second petal in the delta-level set of the
    flower through m: act(n, m) for n a half turn about a horizontal axis
    orthogonal to the phase axis.  Returns (partner point, n)."""
    if p is None:
        p = phase(spec, m)
    if not p.regular:
        raise DomainError("the petal pairing requires a regular phase")
    v = p.gamma.rot.axis()
    u = np.cross(v, E3)
    nu = float(np.linalg.norm(u))
    if nu < 1e-8:
        u = E1  # any horizontal axis works when v is vertical
    else:
        u = u / nu
    n = GroupElement(0.0, Rotation.from_axis_angle(u, math.pi), spec.group)
    return act(n, m), n


def reduced_orbit_distance(spec: SystemSpec, p: PhaseResult, m2: PhasePoint):
    """Minimum distance of the reduced state of m2 (``spec.reduce_y``) to
    the (periodic) reduced orbit recorded in p's trajectory, as (distance,
    argmin time in [0, tau)).  The closest of 512 grid times, found with
    one array call to the trajectory, is refined by brentq on the slope of
    half the squared distance, ``<reduce_y(y(t)) - r2,
    reduced_velocity(y(t))>``, in the offset s in [-h, h] around it: that
    function is smooth where the distance has a V-shaped kink, so its
    minimum is a root of the slope.  Times are read modulo tau, so the
    refinement may cross the seam.  The grid node is kept when it is
    closer than the root, and when the slope keeps one sign across the
    bracket (a rigid body at rest is equidistant from its whole momentum
    loop); a non-finite m2 gives a NaN distance."""
    traj = p._trajectory
    y2r = spec.reduce_y(m2.y)
    ts = np.linspace(0.0, p.tau, 512)
    grid = spec.reduce_y(traj.eval_y(ts % p.tau)) - y2r[:, None]
    dists = np.linalg.norm(grid, axis=0)
    i = int(np.argmin(dists))
    d, t = float(dists[i]), float(ts[i] % p.tau)

    def slope(s):
        y = traj.eval_y((ts[i] + s) % p.tau)
        return float((spec.reduce_y(y) - y2r) @ spec.reduced_velocity(y))

    try:
        s, _ = brentq(slope, -ts[1], ts[1], xtol=1e-13, rtol=1e-15)
    except (ValueError, RuntimeError):  # one sign, or a NaN slope
        return d, t
    t_s = float((ts[i] + s) % p.tau)
    d_s = float(np.linalg.norm(spec.reduce_y(traj.eval_y(t_s)) - y2r))
    return (d_s, t_s) if d_s < d else (d, t)


def same_petal(
    spec: SystemSpec,
    m1: PhasePoint,
    m2: PhasePoint,
    p1: PhaseResult = None,
    p2: PhaseResult = None,
    tol: float = 1e-6,
) -> bool:
    """Numerical membership test: is m2 on the invariant torus (petal)
    through m1?  Three-stage filter:

    1. the reduced point of m2 must lie on the reduced orbit of m1
       (same flower), within tol;
    2. the delta representatives must agree within tol (petals in one
       delta-level);
    3. m2 must be reachable from the m1-trajectory by a torus element:
       solving act(h, flow(m1, t*)) = m2 at the closest-approach time t*
       must succeed and h must conjugate into the reference torus.
    """
    if p1 is None:
        p1 = phase(spec, m1)
    if p2 is None:
        p2 = phase(spec, m2)
    if not (p1.regular and p2.regular):
        raise DomainError("petal membership requires regular phases")
    traj = p1._trajectory
    scale = max(1.0, float(np.linalg.norm(spec.reduce_y(m2.y))))
    d_star, t_star = reduced_orbit_distance(spec, p1, m2)
    if d_star > tol * scale:
        return False  # not even on the same flower
    if projective_distance(p1.delta_rep, p2.delta_rep) > tol:
        return False  # same flower, different delta level
    m_t = traj.eval(t_star)
    h = _solve_group_element(m_t, m2)
    if state_distance(act(h, m_t), m2) > 10.0 * tol:
        return False  # no group element carries the trajectory to m2
    try:
        torus_coords(conj(p1.conjugator, h), tol=1e-5)
    except DomainError:
        return False  # reachable only through a non-torus element
    return True

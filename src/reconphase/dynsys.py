"""Symmetric mechanical systems: a ball rolling without sliding inside a
convex surface of revolution, and a free rigid body used for validation.

Ball system
-----------
The ball has unit effective radius, mass ``m`` and inertia ``k m`` about
any axis (``k`` = inertia ratio, 2/5 for a homogeneous sphere).  The
surface is described by the locus of the *center*: the center sits at
``(a1, a2, f(s))`` with ``s = ||a||^2`` and ``f`` a polynomial; the
profile must be convex on the working annulus.  State:

* ``a`` (2-vector) — horizontal center position; the chart needs a != 0.
* ``a_dot`` (2-vector) — horizontal center velocity.
* ``Q`` — attitude expressed in the frame corotating with the radial
  direction: ``Q = A^-1 psi(a)`` where ``A`` is the body-to-space
  attitude and ``psi(a)`` the orthonormal frame (a/r, e3 x a/r, e3).
  Working in this chart makes the symmetry action on the attitude a
  plain left multiplication (see ``act``).
* ``w`` — angular-velocity component about the contact normal.

Symmetry group S^1 x SO(3): the circle rotates the system about the
vertical axis, the SO(3) factor re-labels the ball's material frame:
``(theta, R).(a, a_dot, Q, w) = (S_theta a, S_theta a_dot, R Q, w)``.

The equations of motion follow from the Newton-Euler equations with the
rolling constraint (zero material velocity at the contact point)
eliminating two angular-velocity components.  With

    n      = unit upward surface normal at the center,
    v_c    = 3-velocity of the center,
    omega  = n x v_c + w n      (rolling constraint solved for omega),

the center acceleration and spin rate obey

    dv_c/dt = -(v_c . dn/dt) n + (k/(k+1)) w (n x dn/dt) + G_t/(k+1),
    dw/dt   = det[n, v_c, dn/dt],

where ``G_t`` is the tangential part of the gravity acceleration
(0, 0, -g).  Energy  H = m/2 |v_c|^2 + k m/2 |omega|^2 + m g f(s)  is
conserved; conservation, group invariance and the constraint residual
are enforced by tests rather than assumed.

Rigid body
----------
State (Q, Omega): attitude (body-to-space) and body angular velocity.
Euler's equations  Omega' = I^-1 (I Omega x Omega),  Q' = Q hat(Omega).
Symmetry SO(3) acting on the left (spatial rotations): Q -> R Q.

Phase points
------------
A ``PhasePoint`` is the packed vector ``y`` the integrator marches, laid
out as ``SystemSpec.state_columns()`` with the canonical unit quaternion
of ``Q``; ``a``, ``a_dot`` and ``w`` read a ball point's ``y``, and
``omega_body`` a rigid one's.

Reduction
---------
``SystemSpec.reduce_y`` quotients the full symmetry group: it maps a
packed state to a reduced 4-vector.  Ball: the S^1-invariants of
(a, a_dot) as (b, w) with b the standard quadratic-map image of
R^4\\{0} in R^3\\{0} (anchor: a=(1,0), a_dot=0 -> b=(1/2,0,0)),
w passed through; the attitude disappears with the SO(3) factor.  Rigid
body: body angular momentum b = I Omega (w slot kept at 0 so reduced
states are uniformly 4-vectors).

Evaluation
----------
``SystemSpec.rhs`` is the one evaluator of the vector field that
integrations step with; a batch of states calls it once per state.
Building a spec generates its field as one straight-line function on
Python floats, from source text with the spec's constants baked in as
``repr`` literals: for the ball the Horner coefficients of f' and f'',
``k/(k+1)``, ``1/(k+1)``, the gravity and the squared annulus bounds
(a state outside them goes to ``domain_check`` for its message), for the
rigid body the inertia.  Each formula is written once, as that source:
``reduced_velocity``, ``vector_field``, ``energy_y`` and
``rolling_residual_y`` run functions generated from the same blocks, and
every operation keeps its order, so the bits are those of the formulas
above.  ``dataclasses.replace`` builds a spec again, with its own field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .liegroup import (
    SO3,
    S1XSO3,
    GroupElement,
    Rotation,
)

BALL = "ball"
RIGID = "rigid"


# ---------------------------------------------------------------------------
# surface profile
# ---------------------------------------------------------------------------


def _horner(coeffs):
    """Source text of Horner's rule for the polynomial with coefficients
    ``coeffs`` (lowest degree first) at s: acc = acc * s + c from
    acc = 0.0, highest degree first, with the coefficients as literals."""
    acc = "0.0"
    for cj in reversed(coeffs):
        acc = f"({acc}) * s + ({cj!r})"
    return acc


@dataclass(frozen=True)
class SurfaceProfile:
    """Surface of revolution traced by the ball's center: z = f(r^2) with
    f a polynomial (coeffs[j] multiplies (r^2)^j).  Convexity d^2z/dr^2 > 0
    is required on the working annulus and checked by make_ball_system.
    ``horner`` holds f, f' and f'' as Horner source in s, which ``f``,
    ``fp``, ``fpp`` and the ball's generated field run."""

    coeffs: tuple
    gravity: float = 1.0
    mass: float = 1.0
    inertia_ratio: float = 0.4

    def __post_init__(self):
        c = tuple(float(x) for x in self.coeffs)
        if len(c) == 0 or not all(math.isfinite(x) for x in c):
            raise ConfigError("profile coefficients must be finite and nonempty")
        if not (self.gravity > 0 and math.isfinite(self.gravity)):
            raise ConfigError("gravity must be positive")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ConfigError("mass must be positive")
        if not (0.0 < self.inertia_ratio <= 1.0):
            raise ConfigError("inertia_ratio must lie in (0, 1]")
        object.__setattr__(self, "coeffs", c)
        horner = {
            "f": _horner(c),
            "fp": _horner([j * c[j] for j in range(1, len(c))]),
            "fpp": _horner([j * (j - 1) * c[j] for j in range(2, len(c))]),
        }
        object.__setattr__(self, "horner", horner)
        for name, text in horner.items():
            object.__setattr__(self, f"_{name}", eval(f"lambda s: {text}"))

    def f(self, s: float) -> float:
        return self._f(s)

    def fp(self, s: float) -> float:
        return self._fp(s)

    def fpp(self, s: float) -> float:
        return self._fpp(s)

    def height_convexity(self, r: float) -> float:
        """d^2 z / d r^2 of the height z(r) = f(r^2)."""
        s = r * r
        return 2.0 * self.fp(s) + 4.0 * s * self.fpp(s)


# ---------------------------------------------------------------------------
# phase points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Full state of either system as its read-only packed vector ``y``
    (see the module docstring).  ``Q`` defaults to the rotation of y's
    quaternion slot, which must be a canonical unit quaternion.  Points
    compare and hash by identity."""

    y: np.ndarray
    system: "SystemSpec"
    Q: Rotation = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        spec = self.system
        y = np.array(self.y, dtype=float)
        if y.shape != (spec.nstate,):
            raise ValueError(f"a {spec.kind} state has shape ({spec.nstate},)")
        values = y.tolist()
        if spec.kind == BALL and not any(values[0:4]):
            raise ValueError("(a, a_dot) = 0 is outside the phase space")
        y.flags.writeable = False
        qs = spec.quat_slice
        Q = self.Q if self.Q is not None else Rotation(y[qs], normalize=False)
        if Q.q.tolist() != values[qs]:
            raise ValueError("Q must be the canonical rotation of y's quaternion slot")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "Q", Q)

    def _slot(self, kind: str, name: str, index):
        if self.system.kind != kind:
            raise ValueError(f"{name} is a {kind} accessor")
        return self.y[index]

    a = property(lambda m: m._slot(BALL, "a", slice(0, 2)))
    a_dot = property(lambda m: m._slot(BALL, "a_dot", slice(2, 4)))
    w = property(lambda m: float(m._slot(BALL, "w", 8)))
    omega_body = property(lambda m: m._slot(RIGID, "omega_body", slice(4, 7)))


@dataclass(frozen=True)
class IntegrationDefaults:
    """The settings of one ``phase()`` integration.  These fields are the
    only list of them: the config's ``integration`` block, its resolution
    and every per-call keyword override derive from it."""

    rtol: float = 1e-10
    atol: float = 1e-12
    t_max: float = 1e3
    tol_closure: float = 1e-7
    tol_phase: float = 1e-7
    min_period: float = 1e-3
    v_min: float = 1e-5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0:
                raise ConfigError(f"integration {f.name} {value!r} is not positive")
        # error control cannot work below rounding (scipy raises a smaller
        # rtol to this floor), while every output echoes the value asked for
        floor = 100 * np.finfo(float).eps
        if self.rtol < floor:
            raise ConfigError(
                f"integration rtol {self.rtol:.3g} is below the integrator's "
                f"floor 100*eps = {floor:.3g}"
            )

    def override(self, **kw) -> "IntegrationDefaults":
        """This record with every non-None keyword replacing its field, or
        ``self`` when all are None; an unknown name raises TypeError."""
        unknown = kw.keys() - {f.name for f in fields(self)}
        if unknown:
            raise TypeError(f"unknown integration setting(s) {sorted(unknown)}")
        changes = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **changes) if changes else self


def _quat_rate(r1, r2, r3):
    """Source of the rows of dq/dt = q (0, r) / 2 for the attitude
    quaternion (qw, qx, qy, qz) and its body-frame angular rate r."""
    return (f"0.5 * (-qx * {r1} - qy * {r2} - qz * {r3}), "
            f"0.5 * (qw * {r1} + qy * {r3} - qz * {r2}), "
            f"0.5 * (qw * {r2} + qz * {r1} - qx * {r3}), "
            f"0.5 * (qw * {r3} + qx * {r2} - qy * {r1})")


# The ball's formulas, written once as source.  The geometry of the state
# (a1, a2, ad1, ad2, w) with s = |a|^2: the unit normal n, its rate nd,
# the center velocity v_c = (ad1, ad2, vc2) and omega, solved from the
# rolling constraint omega = n x v_c + w n.  {fp} and {fpp} are the
# profile's Horner source in s.
_BALL_GEOMETRY = """
    fp = {fp}
    fpp = {fpp}
    g1 = 2.0 * fp * a1
    g2 = 2.0 * fp * a2
    N2 = 1.0 + g1 * g1 + g2 * g2
    N = sqrt(N2)
    n0 = -g1 / N
    n1 = -g2 / N
    n2 = 1.0 / N
    ca = a1 * ad1 + a2 * ad2
    dg1 = 2.0 * fp * ad1 + 4.0 * fpp * ca * a1
    dg2 = 2.0 * fp * ad2 + 4.0 * fpp * ca * a2
    gdg = g1 * dg1 + g2 * dg2
    nd0 = -dg1 / N - n0 * gdg / N2
    nd1 = -dg2 / N - n1 * gdg / N2
    nd2 = -n2 * gdg / N2
    vc2 = g1 * ad1 + g2 * ad2
    om0 = n1 * vc2 - n2 * ad2 + w * n0
    om1 = n2 * ad1 - n0 * vc2 + w * n1
    om2 = n0 * ad2 - n1 * ad1 + w * n2"""
# The rates: the center acceleration (vd1, vd2), with {c1} = k/(k+1),
# {c2} = 1/(k+1) and the tangential gravity G - (n.G) n of
# G = (0, 0, -{gravity}); the spin rate wdot = det[n, v_c, nd]; and mu,
# the body-frame rate of the attitude Q in the corotating chart.
_BALL_RATES = """
    vdn = ad1 * nd0 + ad2 * nd1 + vc2 * nd2
    nxnd0 = n1 * nd2 - n2 * nd1
    nxnd1 = n2 * nd0 - n0 * nd2
    vd1 = -vdn * n0 + {c1} * w * nxnd0 + {c2} * ({gravity} * n2 * n0)
    vd2 = -vdn * n1 + {c1} * w * nxnd1 + {c2} * ({gravity} * n2 * n1)
    wdot = (n0 * (ad2 * nd2 - vc2 * nd1) - n1 * (ad1 * nd2 - vc2 * nd0)
            + n2 * (ad1 * nd1 - ad2 * nd0))
    r = sqrt(s)
    e10 = a1 / r
    e11 = a2 / r
    chidot = (a1 * ad2 - a2 * ad1) / s
    mu1 = -(e10 * om0 + e11 * om1)
    mu2 = -(-e11 * om0 + e10 * om1)
    mu3 = chidot - om2"""
# field: the packed rhs of a list of floats, whose state outside the
# squared annulus [{lo}, {hi}] or with |(a, a_dot)|^2 outside [1e-16, inf)
# goes to domain_check for its message; geometry and rates: the blocks'
# values on any indexable state.
_BALL_SOURCE = """
def field(spec, t, y):
    a1, a2, ad1, ad2, qw, qx, qy, qz, w = y
    s = a1 * a1 + a2 * a2
    if not ({lo} <= s <= {hi} and 1e-16 <= s + ad1 * ad1 + ad2 * ad2 < inf):
        spec.domain_check(y, t)
{geometry}
{rates}
    return [ad1, ad2, vd1, vd2, {quat}, wdot]

def geometry(y):
    a1, a2, ad1, ad2, w = y[0], y[1], y[2], y[3], y[8]
    s = a1 * a1 + a2 * a2
{geometry}
    return s, (n0, n1, n2), (ad1, ad2, vc2), (om0, om1, om2)

def rates(y):
    a1, a2, ad1, ad2, w = y[0], y[1], y[2], y[3], y[8]
    s = a1 * a1 + a2 * a2
{geometry}
{rates}
    return vd1, vd2, wdot, (mu1, mu2, mu3)
"""
_BALL_SOURCE = (_BALL_SOURCE.replace("{geometry}", _BALL_GEOMETRY)
                .replace("{rates}", _BALL_RATES)
                .replace("{quat}", _quat_rate("mu1", "mu2", "mu3")))
# Euler's equations with the inertia (I1, I2, I3) as literals
_RIGID_SOURCE = """
def field(spec, t, y):
    qw, qx, qy, qz, o1, o2, o3 = y
    return [{quat}, ({I2} - {I3}) * o2 * o3 / {I1}, ({I3} - {I1}) * o3 * o1 / {I2},
            ({I1} - {I2}) * o1 * o2 / {I3}]
""".replace("{quat}", _quat_rate("o1", "o2", "o3"))


def _generate(source: str, **constants) -> dict:
    """The functions that ``source`` defines once its fields are filled
    with ``constants`` (floats as their ``repr``, so each keeps its bits;
    a non-finite one reads the name ``inf`` or ``nan``)."""
    text = source.format(**{k: repr(float(v)) if isinstance(v, float) else v
                            for k, v in constants.items()})
    namespace = {"sqrt": math.sqrt, "inf": math.inf, "nan": math.nan}
    exec(text, namespace)
    return namespace


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Bundle of a system's action, vector field, reduction and
    invariants, plus integration defaults.  Immutable; evaluators are
    pure functions of the state.  Specs compare and hash by identity.
    Building one (``replace`` included) generates its vector field from
    its constants (see the module docstring)."""

    kind: str
    group: str
    nstate: int         # packed-vector length (9 ball / 7 rigid)
    profile: Optional[SurfaceProfile] = None
    inertia: Optional[np.ndarray] = None
    annulus: tuple = (0.2, 2.5)
    defaults: IntegrationDefaults = field(default_factory=IntegrationDefaults)

    def __post_init__(self):
        if self.kind == BALL:
            pr, k = self.profile, self.profile.inertia_ratio
            rmin, rmax = self.annulus
            made = _generate(
                _BALL_SOURCE, fp=pr.horner["fp"], fpp=pr.horner["fpp"],
                c1=k / (k + 1.0), c2=1.0 / (k + 1.0), gravity=pr.gravity,
                lo=rmin * rmin, hi=rmax * rmax)
            object.__setattr__(self, "_geometry", made["geometry"])
            object.__setattr__(self, "_rates", made["rates"])
        else:
            I1, I2, I3 = self.inertia.tolist()
            made = _generate(_RIGID_SOURCE, I1=I1, I2=I2, I3=I3)
        object.__setattr__(self, "_field", made["field"])

    # -- packing -------------------------------------------------------
    def pack(self, m: PhasePoint) -> np.ndarray:
        """A writable copy of the point's packed vector."""
        if m.system is not self:
            raise ValueError("phase point belongs to a different system")
        return m.y.copy()

    def unpack(self, y: np.ndarray) -> PhasePoint:
        """The point of a packed state with its quaternion normalised.  The
        norm is taken on a contiguous copy, so the result does not depend
        on the strides of ``y`` (a column of a batch reads as itself)."""
        y = np.array(y, dtype=float)
        Q = Rotation(y[self.quat_slice])
        y[self.quat_slice] = Q.q
        return PhasePoint(y, self, Q=Q)

    @property
    def quat_slice(self) -> slice:
        return slice(4, 8) if self.kind == BALL else slice(0, 4)

    # -- pointwise evaluators (packed form) -----------------------------
    def domain_check(self, y: np.ndarray, t: float = 0.0):
        """Ball only: raise DomainError unless the center lies in the
        annulus and |(a, a_dot)|^2 is finite and away from 0."""
        if self.kind != BALL:
            return
        # on Python floats, where a square too large for a float reads inf
        # without a warning, as in rhs
        a1, a2, ad1, ad2 = y[:4].tolist() if isinstance(y, np.ndarray) else y[:4]
        s = a1 * a1 + a2 * a2
        e = s + ad1 * ad1 + ad2 * ad2
        rmin, rmax = self.annulus
        if not rmin * rmin <= s <= rmax * rmax:
            what = (f"center radius {math.sqrt(max(s, 0.0)):.6g} left the annulus "
                    f"[{rmin}, {rmax}]")
        elif e < 1e-16:
            what = "(a, a_dot) collapsed to 0"
        elif not e < math.inf:
            velocity = f"velocity a_dot = ({ad1:.6g}, {ad2:.6g})"
            if math.isfinite(ad1) and math.isfinite(ad2):
                what = f"{velocity} is too large: |(a, a_dot)|^2 overflows"
            else:
                what = f"{velocity} is not finite"
        else:
            return
        raise DomainError(what, last_state=np.array(y), t=t)

    def rhs(self, t: float, y) -> list:
        """Packed-state time derivative (quaternion slot included) of a
        list of floats or an array, as a list of Python floats (see the
        module docstring)."""
        return self._field(self, t, y.tolist() if isinstance(y, np.ndarray) else y)

    def reduce_y(self, y):
        """Reduced state as a 4-vector (b, w) of a packed state: an array
        from an (nstate,) array, the columns of a (4, n) array from the
        columns of an (nstate, n) one, and a list of Python floats from a
        list of floats, by the same arithmetic.  It reads the rows
        ``reduced_rows`` of y."""
        on_floats = isinstance(y, list)
        if self.kind == BALL:
            a1, a2, ad1, ad2 = y[0], y[1], y[2], y[3]
            r = [
                0.5 * (a1 * a1 + a2 * a2 - ad1 * ad1 - ad2 * ad2),
                a1 * ad1 + a2 * ad2,
                a1 * ad2 - a2 * ad1,
                y[8],
            ]
        else:
            I1, I2, I3 = self.inertia.tolist()
            zero = 0.0 if on_floats else np.zeros_like(y[4])
            r = [I1 * y[4], I2 * y[5], I3 * y[6], zero]
        return r if on_floats else np.array(r)

    @property
    def reduced_rows(self) -> tuple:
        """The rows of a packed state that reduce_y reads."""
        return (0, 1, 2, 3, 8) if self.kind == BALL else (4, 5, 6)

    def reduced_gradient(self, y: list, v: list) -> list:
        """The gradient of <reduce_y(y), v> in the rows ``reduced_rows`` of
        a list of floats y, in that order.  reduce_y is quadratic in the
        ball's rows and linear in the rigid body's, so the gradient is
        linear in y."""
        if self.kind == BALL:
            a1, a2, ad1, ad2 = y[0], y[1], y[2], y[3]
            v0, v1, v2, v3 = v
            return [v0 * a1 + v1 * ad1 + v2 * ad2, v0 * a2 + v1 * ad2 - v2 * ad1,
                    v1 * a1 - v0 * ad1 - v2 * a2, v1 * a2 - v0 * ad2 + v2 * a1, v3]
        I1, I2, I3 = self.inertia.tolist()
        return [v[0] * I1, v[1] * I2, v[2] * I3]

    def reduced_curvature(self, v: list) -> float:
        """A bound k on the quadratic part of <reduce_y, v>: for a shift e
        of the rows ``reduced_rows``, <reduce_y(y + e) - reduce_y(y), v>
        is the gradient at y times e plus a term of size at most
        k * sum(e_j**2).  Each of the ball's three quadratic components
        is at most sum(e_j**2) / 2 in size; the rigid body has none."""
        if self.kind == BALL:
            return 0.5 * (abs(v[0]) + abs(v[1]) + abs(v[2]))
        return 0.0

    def reduced_velocity(self, y: np.ndarray) -> np.ndarray:
        """Time derivative of reduce_y along the flow (analytic)."""
        if self.kind == BALL:
            a1, a2, ad1, ad2 = y[0], y[1], y[2], y[3]
            vd1, vd2, wdot, _ = self._rates(y)
            return np.array(
                [
                    a1 * ad1 + a2 * ad2 - (ad1 * vd1 + ad2 * vd2),
                    ad1 * ad1 + ad2 * ad2 + a1 * vd1 + a2 * vd2,
                    a1 * vd2 - a2 * vd1,
                    wdot,
                ]
            )
        b = self.reduce_y(y)[:3]
        om = np.array([y[4], y[5], y[6]])
        bd = np.cross(b, om)
        return np.array([bd[0], bd[1], bd[2], 0.0])

    def energy_y(self, y: np.ndarray) -> float:
        if self.kind == BALL:
            pr = self.profile
            s, _, vc, om = self._geometry(y)
            v2 = vc[0] ** 2 + vc[1] ** 2 + vc[2] ** 2
            o2 = om[0] ** 2 + om[1] ** 2 + om[2] ** 2
            return pr.mass * (
                0.5 * v2 + 0.5 * pr.inertia_ratio * o2 + pr.gravity * pr.f(s)
            )
        om = np.array([y[4], y[5], y[6]])
        return 0.5 * float(om @ (self.inertia * om))

    def rolling_residual_y(self, y: np.ndarray) -> float:
        """Norm of the material velocity at the contact point,
        reconstructed from the state (ball only)."""
        if self.kind != BALL:
            raise ValueError("rolling residual is defined for the ball system")
        _, n, vc, om = self._geometry(y)
        # contact velocity = v_c - omega x n  (contact offset is -n)
        res = (
            vc[0] - (om[1] * n[2] - om[2] * n[1]),
            vc[1] - (om[2] * n[0] - om[0] * n[2]),
            vc[2] - (om[0] * n[1] - om[1] * n[0]),
        )
        return math.sqrt(res[0] ** 2 + res[1] ** 2 + res[2] ** 2)

    def momentum_norm_y(self, y: np.ndarray) -> float:
        if self.kind != RIGID:
            raise ValueError("momentum norm is a rigid-body invariant")
        b = self.reduce_y(y)[:3]
        return float(np.linalg.norm(b))

    def invariant_names(self):
        if self.kind == BALL:
            return ("energy", "rolling_residual")
        return ("energy", "momentum_norm")

    def invariants_y(self, y: np.ndarray):
        return tuple(getattr(self, f"{name}_y")(y) for name in self.invariant_names())

    def state_columns(self):
        if self.kind == BALL:
            return ("a1", "a2", "adot1", "adot2", "qw", "qx", "qy", "qz", "w")
        return ("qw", "qx", "qy", "qz", "omega1", "omega2", "omega3")


# ---------------------------------------------------------------------------
# module-level operations (dispatch on the point's system)
# ---------------------------------------------------------------------------


def _turned(spec: SystemSpec, theta: float, v) -> np.ndarray:
    """A copy of the state or tangent vector v, with the ball's planar
    blocks v[0:2] and v[2:4] turned by the circle angle theta."""
    v = np.array(v, dtype=float)
    if spec.kind == BALL:
        c, s = math.cos(theta), math.sin(theta)
        v[0:4] = (c * v[0] - s * v[1], s * v[0] + c * v[1],
                  c * v[2] - s * v[3], s * v[2] + c * v[3])
    return v


def act(g: GroupElement, m: PhasePoint) -> PhasePoint:
    """Symmetry action.  Ball: (theta, R).(a, a_dot, Q, w) =
    (S_theta a, S_theta a_dot, R Q, w).  Rigid: Q -> R Q, Omega fixed."""
    spec = m.system
    if g.group != spec.group:
        raise ValueError(
            f"group tag {g.group!r} does not match the system's {spec.group!r}"
        )
    Q = g.rot @ m.Q
    y = _turned(spec, g.theta, m.y)
    y[spec.quat_slice] = Q.q
    return PhasePoint(y, spec, Q=Q)


def vector_field(m: PhasePoint) -> np.ndarray:
    """Tangent vector at m: ball 8-vector (da, da_dot, mu, dw) with mu the
    body-frame attitude rate; rigid 6-vector (Omega, Omega_dot)."""
    spec = m.system
    y = m.y
    if spec.kind == BALL:
        spec.domain_check(y)
        vd1, vd2, wdot, mu = spec._rates(y)
        return np.array([y[2], y[3], vd1, vd2, *mu, wdot])
    return np.concatenate([y[4:7], spec.rhs(0.0, y)[4:7]])


def d_act(g: GroupElement, m: PhasePoint, v: np.ndarray) -> np.ndarray:
    """Pushforward of the tangent vector v at m by the action of g, in the
    same coordinates as vector_field.  Q -> R Q keeps the ball's
    body-frame rate mu and the rigid body's (Omega, Omega_dot)."""
    return _turned(m.system, g.theta, v)


def state_distance(m1: PhasePoint, m2: PhasePoint) -> float:
    """Uniform state metric used by the phase checks: max over blocks of
    the Euclidean block distances and the rotation geodesic angle."""
    if m1.system is not m2.system:
        raise ValueError("points belong to different systems")
    d = m1.y - m2.y
    dq = m1.Q.distance(m2.Q)
    if m1.system.kind == BALL:
        return max(
            float(np.linalg.norm(d[0:2])),
            float(np.linalg.norm(d[2:4])),
            dq,
            abs(float(d[8])),
        )
    return max(dq, float(np.linalg.norm(d[4:7])))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_ball_system(
    profile: SurfaceProfile,
    annulus: tuple = (0.2, 2.5),
    defaults: IntegrationDefaults = None,
) -> SystemSpec:
    """Wire up the ball system; rejects profiles that are not strictly
    convex (as height functions of r) anywhere on the annulus."""
    rmin, rmax = float(annulus[0]), float(annulus[1])
    if not (0.0 < rmin < rmax and math.isfinite(rmax)):
        raise ConfigError(f"invalid annulus {annulus!r}")
    for r in np.linspace(rmin, rmax, 257):
        if not profile.height_convexity(float(r)) > 0.0:
            raise ConfigError(
                f"profile is not convex at r = {float(r):.6g} "
                f"(d2z/dr2 = {profile.height_convexity(float(r)):.6g})"
            )
    return SystemSpec(
        kind=BALL,
        group=S1XSO3,
        nstate=9,
        profile=profile,
        annulus=(rmin, rmax),
        defaults=defaults or IntegrationDefaults(),
    )


def make_rigid_body(
    inertia, defaults: IntegrationDefaults = None
) -> SystemSpec:
    inertia = np.asarray(inertia, dtype=float)
    if inertia.shape != (3,) or not np.all(np.isfinite(inertia)):
        raise ConfigError("inertia must be three finite numbers")
    if not np.all(inertia > 0):
        raise ConfigError("inertia components must be positive")
    inertia.flags.writeable = False
    return SystemSpec(
        kind=RIGID,
        group=SO3,
        nstate=7,
        inertia=inertia,
        defaults=defaults or IntegrationDefaults(),
    )


def ball_point(spec: SystemSpec, a, a_dot, Q: Rotation = None, w: float = 0.0) -> PhasePoint:
    if spec.kind != BALL:
        raise ValueError("spec is not a ball system")
    Q = Q if Q is not None else Rotation.identity()
    y = np.concatenate([np.reshape(a, 2), np.reshape(a_dot, 2), Q.q, [w]])
    return PhasePoint(y, spec, Q=Q)


def rigid_point(spec: SystemSpec, Q: Rotation, omega) -> PhasePoint:
    if spec.kind != RIGID:
        raise ValueError("spec is not a rigid body")
    return PhasePoint(np.concatenate([Q.q, np.asarray(omega, dtype=float)]), spec, Q=Q)

"""Symmetry-group primitives: S^1 x SO(3) (and plain SO(3)) elements,
exponential/logarithm, conjugation, maximal-torus coordinates and the
Weyl folding used by the orbit invariant.

Conventions (used consistently everywhere in the package):

* Rotations are stored as unit quaternions ``[w, x, y, z]`` and are
  canonicalized so that ``w > 0``, or ``w == 0`` and the first nonzero
  vector component is positive.  With that convention the rotation
  angle returned by :meth:`Rotation.angle` always lies in ``[0, pi]``.
* ``exp_so3`` / :meth:`Rotation.log` use the principal branch: the logarithm of
  a rotation is ``angle * axis`` with ``angle`` in ``[0, pi]``; at
  ``angle == pi`` the axis sign follows the quaternion canonicalization.
* The compact group is either ``"s1xso3"`` (circle times rotations,
  rank 2) or ``"so3"`` (rank 1).  The circle factor is central.
* The reference maximal torus ``T`` is the circle factor together with
  rotations about ``e3``.  Torus coordinates ``beta`` live in
  ``[0, 1)^r`` and exponentiate through the lattice basis
  ``xi_1 = (2*pi, 0)``, ``xi_2 = (0, 2*pi*e3)`` (rank 2) or
  ``xi_1 = 2*pi*e3`` (rank 1), so ``beta -> Xi(beta)`` is 1-periodic in
  every slot.
* Projective 3-vectors (lines in R^3) are folded to a unit vector whose
  last nonzero coordinate is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

TWO_PI = 2.0 * math.pi

#: group tags; the tag decides the torus rank r
S1XSO3 = "s1xso3"
SO3 = "so3"

_RANK = {S1XSO3: 2, SO3: 1}

# below this rotation-vector norm exp/log switch to their series forms
_SMALL_ANGLE = 1e-8
# unit-norm guard for stored quaternions
_UNIT_TOL = 1e-12


def torus_rank(group: str) -> int:
    try:
        return _RANK[group]
    except KeyError:
        raise ValueError(f"unknown group tag {group!r}") from None


def _canonical_quat(q: np.ndarray) -> np.ndarray:
    """Flip the overall quaternion sign into the canonical half-sphere."""
    if q[0] < 0.0:
        return -q
    if q[0] == 0.0:
        for c in q[1:]:
            if c != 0.0:
                return q if c > 0.0 else -q
    return q


class Rotation:
    """A rotation of R^3, stored as a canonical unit quaternion."""

    __slots__ = ("q",)

    def __init__(self, q, normalize: bool = True):
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise ValueError("quaternion must have shape (4,)")
        # on Python floats an overflow or a NaN is an inf or NaN sum, not
        # a RuntimeWarning; only a finite sum reaches q @ q
        w, x, y, z = q.tolist()
        if not math.isfinite(w * w + x * x + y * y + z * z):
            if normalize:
                raise ValueError(f"quaternion norm is not finite: {q.tolist()}")
            raise ValueError("quaternion is not unit length")
        n = math.sqrt(float(q @ q))
        if normalize:
            if n < 1e-12:
                raise ValueError("quaternion norm too small to normalize")
            q = q / n
        elif abs(n - 1.0) > _UNIT_TOL:
            raise ValueError("quaternion is not unit length")
        self.q = _canonical_quat(q)
        self.q.flags.writeable = False

    # -- constructors -------------------------------------------------
    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]), normalize=False)

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Rotation":
        axis = np.asarray(axis, dtype=float)
        n = np.linalg.norm(axis)
        if n == 0.0:
            raise ValueError("axis must be nonzero")
        return exp_so3(axis * (float(angle) / n))

    # -- algebra -------------------------------------------------------
    def compose(self, other: "Rotation") -> "Rotation":
        """Return self o other (apply ``other`` first), multiplied out on
        Python floats."""
        w1, x1, y1, z1 = self.q.tolist()
        w2, x2, y2, z2 = other.q.tolist()
        return Rotation(
            np.array(
                [
                    w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                    w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                    w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                    w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
                ]
            )
        )

    def __matmul__(self, other):
        if isinstance(other, Rotation):
            return self.compose(other)
        return NotImplemented

    def inverse(self) -> "Rotation":
        w, x, y, z = self.q
        return Rotation(np.array([w, -x, -y, -z]), normalize=False)

    def apply(self, v):
        """Rotate a 3-vector (or stack of 3-vectors along the last axis)."""
        v = np.asarray(v, dtype=float)
        u = self.q[1:]
        w = self.q[0]
        t = 2.0 * np.cross(u, v)
        return v + w * t + np.cross(u, t)

    def matrix(self) -> np.ndarray:
        return np.column_stack([self.apply(E1), self.apply(E2), self.apply(E3)])

    # -- geometry ------------------------------------------------------
    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        s = float(np.linalg.norm(self.q[1:]))
        return 2.0 * math.atan2(s, float(self.q[0]))

    def axis(self) -> np.ndarray:
        """Unit rotation axis; raises for the identity."""
        v = self.q[1:]
        s = float(np.linalg.norm(v))
        if s == 0.0:
            raise ValueError("identity rotation has no axis")
        return v / s

    def log(self) -> np.ndarray:
        """Principal rotation vector (angle * axis, angle in [0, pi])."""
        v = self.q[1:]
        s = float(np.linalg.norm(v))
        w = float(self.q[0])
        if s < _SMALL_ANGLE:
            # q ~ (1, omega/2): first-order series, relative error O(s^2)
            return (2.0 / w) * np.asarray(v, dtype=float)
        return (2.0 * math.atan2(s, w) / s) * np.asarray(v, dtype=float)

    def distance(self, other: "Rotation") -> float:
        """Geodesic angle of self o other^-1, in [0, pi]."""
        return self.compose(other.inverse()).angle()

    # -- misc ----------------------------------------------------------
    def __repr__(self):
        return f"Rotation({np.array2string(self.q, precision=6)})"


def exp_so3(omega) -> Rotation:
    """Exponential of a rotation vector ``omega`` (axis * angle)."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3,):
        raise ValueError("rotation vector must have shape (3,)")
    theta = float(np.linalg.norm(omega))
    if theta < _SMALL_ANGLE:
        # sin(theta/2)/theta = 1/2 - theta^2/48 + O(theta^4)
        half_sinc = 0.5 - theta * theta / 48.0
        return Rotation(
            np.array([1.0 - theta * theta / 8.0, *(half_sinc * omega)])
        )
    h = 0.5 * theta
    return Rotation(np.array([math.cos(h), *((math.sin(h) / theta) * omega)]))


def hat(omega) -> np.ndarray:
    """Skew matrix of a 3-vector: hat(w) @ v == cross(w, v)."""
    x, y, z = np.asarray(omega, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Element of S^1 x SO(3) (``theta`` in [0, 2*pi)) or of SO(3)
    (``theta`` fixed at 0)."""

    theta: float
    rot: Rotation
    group: str = S1XSO3

    def __post_init__(self):
        torus_rank(self.group)
        th = float(self.theta) % TWO_PI
        if self.group == SO3 and th != 0.0:
            raise ValueError("so3 elements carry no circle component")
        object.__setattr__(self, "theta", th)

    @staticmethod
    def identity(group: str = S1XSO3) -> "GroupElement":
        return GroupElement(0.0, Rotation.identity(), group)

    def compose(self, other: "GroupElement") -> "GroupElement":
        _require_same_group(self, other)
        return GroupElement(self.theta + other.theta, self.rot @ other.rot, self.group)

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            return self.compose(other)
        return NotImplemented

    def inverse(self) -> "GroupElement":
        return GroupElement(-self.theta, self.rot.inverse(), self.group)


def _require_same_group(a: GroupElement, b: GroupElement):
    if a.group != b.group:
        raise ValueError(f"group tags differ: {a.group!r} vs {b.group!r}")


def conj(g: GroupElement, h: GroupElement) -> GroupElement:
    """Conjugation g * h * g^-1.  The circle factor is central, so only
    the rotation part is affected."""
    _require_same_group(g, h)
    return GroupElement(h.theta, (g.rot @ h.rot) @ g.rot.inverse(), g.group)


def _circle_distance(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def group_distance(a: GroupElement, b: GroupElement) -> float:
    """max(circle arc distance, rotation geodesic angle); the single
    group metric used by every check in the package."""
    _require_same_group(a, b)
    return max(_circle_distance(a.theta, b.theta), a.rot.distance(b.rot))


# ---------------------------------------------------------------------------
# regularity, maximal torus, Weyl folding
# ---------------------------------------------------------------------------


def is_regular(g: GroupElement, tol: float = 1e-6) -> bool:
    """An element is regular when its centralizer is just the maximal
    torus through it; for these groups that means the rotation angle is
    bounded away from 0 and pi."""
    ang = g.rot.angle()
    return tol < ang < math.pi - tol


def conjugator_to_torus(g: GroupElement, tol: float = 1e-6) -> GroupElement:
    """Return ``h`` (trivial circle part) with ``h g h^-1`` in the
    reference torus: the rotation part of ``h`` carries the rotation
    axis ``v`` of ``g`` onto ``e3`` by turning about ``v x e3``.

    Raises DomainError on singular input (rotation angle ~ 0 or ~ pi),
    where the torus through ``g`` is not unique.
    """
    if not is_regular(g, tol):
        raise DomainError(
            "conjugator_to_torus requires a regular element "
            f"(rotation angle {g.rot.angle():.3e})"
        )
    v = g.rot.axis()
    c = float(v @ E3)
    if c > 1.0 - 1e-12:
        h_rot = Rotation.identity()
    elif c < -1.0 + 1e-12:
        h_rot = Rotation.from_axis_angle(E1, math.pi)
    else:
        axis = np.cross(v, E3)
        axis /= np.linalg.norm(axis)
        h_rot = Rotation.from_axis_angle(axis, math.acos(max(-1.0, min(1.0, c))))
    return GroupElement(0.0, h_rot, g.group)


def _torus_beta(beta, group: str) -> np.ndarray:
    """Torus coordinates reduced to [0, 1)^r, checked against the rank."""
    beta = np.mod(np.asarray(beta, dtype=float), 1.0)
    # mod can return 1.0 for tiny negative inputs
    beta[beta >= 1.0] = 0.0
    if beta.shape != (torus_rank(group),):
        raise ValueError(f"beta must have shape ({torus_rank(group)},) for {group!r}")
    return beta


def torus_coords(g: GroupElement, tol: float = 1e-10) -> np.ndarray:
    """Lattice coordinates ``beta`` in [0, 1)^r of an element of the
    reference torus.

    The rotation part must be about +-e3 (within ``tol`` measured as the
    geodesic distance to the nearest rotation about e3); otherwise a
    DomainError is raised.
    """
    qw, qx, qy, qz = g.rot.q
    # geodesic distance from the circle {R_z(phi)}: the unit quaternions
    # (cos phi/2, 0, 0, sin phi/2) form a great circle of S^3, and the
    # angular distance of q to it has sine equal to the norm of the
    # orthogonal (x, y)-projection (well conditioned near the circle)
    off = 2.0 * math.asin(min(1.0, math.hypot(qx, qy)))
    if off > tol:
        raise DomainError(
            f"element is not in the reference torus (geodesic offset {off:.3e})"
        )
    phi_z = 2.0 * math.atan2(qz, qw)
    if g.group == SO3:
        return _torus_beta([phi_z / TWO_PI], g.group)
    return _torus_beta([g.theta / TWO_PI, phi_z / TWO_PI], g.group)


def Xi(beta, group: str = S1XSO3) -> GroupElement:
    """Exponential of torus coordinates through the lattice basis:
    1-periodic in every beta slot."""
    beta = _torus_beta(beta, group)
    if group == SO3:
        return GroupElement(0.0, exp_so3(TWO_PI * beta[0] * E3), group)
    return GroupElement(TWO_PI * beta[0], exp_so3(TWO_PI * beta[1] * E3), group)


def fold_projective(u) -> np.ndarray:
    """Fold a nonzero 3-vector to the canonical representative of its
    line: unit length, last nonzero coordinate positive."""
    u = np.asarray(u, dtype=float)
    n = np.linalg.norm(u)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot fold a zero/non-finite vector")
    u = u / n
    for i in (2, 1, 0):
        if abs(u[i]) > 1e-12:
            return -u if u[i] < 0.0 else u
    return u


def projective_distance(u, v) -> float:
    """Distance between lines: min over sign choices of the chord norm."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return min(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))


def weyl_representative(h: GroupElement) -> np.ndarray:
    """Class of ``h`` in G/N(T), represented by the line spanned by the
    image of e3 under the rotation part.  Elements differing by right
    multiplication with the torus normalizer map to the same line."""
    return fold_projective(h.rot.apply(E3))

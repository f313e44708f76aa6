"""Group-layer tests: exp/log, conjugation, torus coordinates, Weyl folding.

Expected values for the worked examples were computed independently
(matrix exponentials / Rodrigues formula by hand) before being frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconphase.errors import DomainError
from reconphase.liegroup import (
    E1,
    E2,
    E3,
    SO3,
    S1XSO3,
    GroupElement,
    Rotation,
    Xi,
    conj,
    conjugator_to_torus,
    exp_so3,
    fold_projective,
    group_distance,
    hat,
    is_regular,
    projective_distance,
    torus_coords,
    weyl_representative,
)

# ----------------------------------------------------------------------
# rotations: frozen examples
# ----------------------------------------------------------------------


def test_exp_quarter_turn_about_e3():
    r = exp_so3(np.array([0.0, 0.0, math.pi / 2]))
    np.testing.assert_allclose(r.apply(E1), E2, atol=1e-15)
    np.testing.assert_allclose(r.apply(E2), -E1, atol=1e-15)
    np.testing.assert_allclose(r.apply(E3), E3, atol=1e-15)


def test_log_exp_round_trip_frozen():
    w = np.array([0.3, -0.2, 0.7])
    np.testing.assert_allclose(exp_so3(w).log(), w, rtol=0, atol=1e-12)


def test_rotation_matrix_agrees_with_rodrigues():
    # independent oracle: Rodrigues' formula R = I + sin(t) K + (1-cos(t)) K^2
    w = np.array([0.4, -1.1, 0.25])
    t = np.linalg.norm(w)
    K = hat(w / t)
    expected = np.eye(3) + math.sin(t) * K + (1 - math.cos(t)) * (K @ K)
    np.testing.assert_allclose(exp_so3(w).matrix(), expected, atol=1e-14)


def test_exp_small_angle_series_matches_generic_branch():
    # straddle the series cutoff and compare against the closed form
    for s in (1e-7, 1e-8, 1e-9, 1e-12):
        w = np.array([0.6, -0.8, 0.0]) * s
        r = exp_so3(w)
        assert abs(r.angle() - s) <= 1e-15 + 1e-10 * s
        np.testing.assert_allclose(r.log(), w, rtol=1e-9, atol=1e-30)


def test_identity_log_is_zero():
    np.testing.assert_array_equal(Rotation.identity().log(), np.zeros(3))


def test_quaternion_canonicalization():
    q = np.array([-math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)])
    r = Rotation(q)
    assert r.q[0] > 0
    r2 = Rotation(np.array([0.0, -1.0, 0.0, 0.0]))
    assert r2.q[1] == 1.0


@pytest.mark.parametrize("q, message", [
    ([math.nan, 0.0, 0.0, 0.0], "quaternion norm is not finite: [nan, 0.0, 0.0, 0.0]"),
    ([1.0, math.inf, 0.0, 0.0], "quaternion norm is not finite: [1.0, inf, 0.0, 0.0]"),
    ([1e-13, 0.0, 0.0, 0.0], "quaternion norm too small to normalize"),
    # its norm overflows: typed, with no RuntimeWarning first
    ([1e200, 0.0, 0.0, 0.0], "quaternion norm is not finite: [1e+200, 0.0, 0.0, 0.0]"),
])
def test_quaternion_that_cannot_be_normalized(q, message):
    # a state whose integration blew up reads as not finite, not as small
    with pytest.raises(ValueError) as exc:
        Rotation(np.array(q))
    assert str(exc.value) == message


def test_a_huge_quaternion_is_not_unit_length():
    with pytest.raises(ValueError, match="^quaternion is not unit length$"):
        Rotation(np.array([1e200, 0.0, 0.0, 0.0]), normalize=False)
    # nor is a NaN one, though |nan - 1| > tol alone is False
    with pytest.raises(ValueError, match="^quaternion is not unit length$"):
        Rotation(np.full(4, math.nan), normalize=False)


def test_compose_apply_consistency():
    a = exp_so3(np.array([0.2, 0.1, -0.4]))
    b = exp_so3(np.array([-0.7, 0.3, 0.9]))
    v = np.array([0.3, -2.0, 1.1])
    np.testing.assert_allclose((a @ b).apply(v), a.apply(b.apply(v)), atol=1e-13)


# ----------------------------------------------------------------------
# rotations: properties
# ----------------------------------------------------------------------

finite_component = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)
rotation_vectors = st.tuples(finite_component, finite_component, finite_component).map(
    np.array
)


@settings(max_examples=150, deadline=None)
@given(rotation_vectors)
def test_exp_double_angle_property(w):
    # exp(2w) == exp(w)^2 for any rotation vector
    assert exp_so3(2.0 * w).distance(exp_so3(w) @ exp_so3(w)) < 1e-10


@settings(max_examples=150, deadline=None)
@given(rotation_vectors)
def test_log_is_principal(w):
    v = exp_so3(w).log()
    assert np.linalg.norm(v) <= math.pi + 1e-12


@settings(max_examples=100, deadline=None)
@given(rotation_vectors, rotation_vectors)
def test_inverse_and_distance(w1, w2):
    a, b = exp_so3(w1), exp_so3(w2)
    assert a.distance(a) <= 1e-12
    assert (a @ a.inverse()).angle() < 1e-12
    # symmetry of the geodesic distance
    assert abs(a.distance(b) - b.distance(a)) < 1e-12


def test_log_exp_round_trip_random_batch():
    rng = np.random.default_rng(42)
    for _ in range(500):
        w = rng.normal(size=3) * rng.uniform(0.0, 1.0)
        # stay strictly inside the injectivity radius
        n = np.linalg.norm(w)
        if n >= math.pi - 1e-3:
            w *= (math.pi - 1e-3) / n
        np.testing.assert_allclose(exp_so3(w).log(), w, rtol=0, atol=1e-10)


# ----------------------------------------------------------------------
# group elements and conjugation
# ----------------------------------------------------------------------


def test_group_element_theta_wraps():
    g = GroupElement(2.5 * math.pi, Rotation.identity())
    assert abs(g.theta - 0.5 * math.pi) < 1e-15


def test_so3_tag_forbids_circle_part():
    with pytest.raises(ValueError):
        GroupElement(0.1, Rotation.identity(), SO3)


def test_conj_quarter_turns_frozen():
    # g: quarter turn about e1 sends e3 -> -e2, so conjugating a quarter
    # turn about e3 yields a quarter turn about -e2 (canonical axis -e2).
    g = GroupElement(0.0, Rotation.from_axis_angle(E1, math.pi / 2), SO3)
    h = GroupElement(0.0, Rotation.from_axis_angle(E3, math.pi / 2), SO3)
    k = conj(g, h)
    assert abs(k.rot.angle() - math.pi / 2) < 1e-14
    np.testing.assert_allclose(k.rot.axis(), -E2, atol=1e-14)


def test_conj_is_group_action():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g1 = GroupElement(rng.uniform(0, 2 * math.pi), exp_so3(rng.normal(size=3)))
        g2 = GroupElement(rng.uniform(0, 2 * math.pi), exp_so3(rng.normal(size=3)))
        h = GroupElement(rng.uniform(0, 2 * math.pi), exp_so3(rng.normal(size=3)))
        lhs = conj(g1 @ g2, h)
        rhs = conj(g1, conj(g2, h))
        assert group_distance(lhs, rhs) < 1e-10


def test_conj_preserves_circle_component():
    g = GroupElement(0.0, exp_so3(np.array([0.3, 0.2, -0.1])))
    h = GroupElement(1.234, exp_so3(np.array([0.0, 0.5, 0.5])))
    assert conj(g, h).theta == pytest.approx(1.234, abs=1e-15)


def test_group_distance_metric_axioms():
    rng = np.random.default_rng(11)
    els = [
        GroupElement(rng.uniform(0, 2 * math.pi), exp_so3(rng.normal(size=3)))
        for _ in range(8)
    ]
    for a in els:
        assert group_distance(a, a) <= 1e-12
        for b in els:
            assert abs(group_distance(a, b) - group_distance(b, a)) < 1e-12
            for c in els:
                assert group_distance(a, c) <= (
                    group_distance(a, b) + group_distance(b, c) + 1e-12
                )


# ----------------------------------------------------------------------
# regularity
# ----------------------------------------------------------------------

# 24 rotations of the cube, used as an independent finite probe of the
# centralizer: an element is regular iff every nontrivial cube rotation
# that commutes with it shares its axis.
_CUBE_GROUP = []
for _axis, _angles in [
    (E1, (math.pi / 2, math.pi, 3 * math.pi / 2)),
    (E2, (math.pi / 2, math.pi, 3 * math.pi / 2)),
    (E3, (math.pi / 2, math.pi, 3 * math.pi / 2)),
    (np.array([1.0, 1.0, 0.0]), (math.pi,)),
    (np.array([1.0, -1.0, 0.0]), (math.pi,)),
    (np.array([1.0, 0.0, 1.0]), (math.pi,)),
    (np.array([1.0, 0.0, -1.0]), (math.pi,)),
    (np.array([0.0, 1.0, 1.0]), (math.pi,)),
    (np.array([0.0, 1.0, -1.0]), (math.pi,)),
    (np.array([1.0, 1.0, 1.0]), (2 * math.pi / 3, 4 * math.pi / 3)),
    (np.array([1.0, -1.0, 1.0]), (2 * math.pi / 3, 4 * math.pi / 3)),
    (np.array([-1.0, 1.0, 1.0]), (2 * math.pi / 3, 4 * math.pi / 3)),
    (np.array([1.0, 1.0, -1.0]), (2 * math.pi / 3, 4 * math.pi / 3)),
]:
    for _a in _angles:
        _CUBE_GROUP.append(Rotation.from_axis_angle(_axis, _a))
_CUBE_GROUP.append(Rotation.identity())
assert len(_CUBE_GROUP) == 24


def _regular_by_cube_commutant(rot):
    if rot.angle() < 1e-9:
        return False
    axis = rot.axis()
    for k in _CUBE_GROUP:
        if k.angle() < 1e-9:
            continue
        if (k @ rot).distance(rot @ k) < 1e-9:
            if min(np.linalg.norm(k.axis() - axis), np.linalg.norm(k.axis() + axis)) > 1e-9:
                return False
    return True


@pytest.mark.parametrize(
    "axis,angle,expected",
    [
        (E3, 0.7, True),
        ((1.0, 1.0, 1.0), 2 * math.pi / 3, True),
        (E3, math.pi, False),
        ((1.0, 1.0, 1.0), math.pi, False),
        (E1, 0.0, False),
    ],
)
def test_is_regular_against_cube_commutant(axis, angle, expected):
    rot = Rotation.from_axis_angle(np.asarray(axis, dtype=float), angle)
    g = GroupElement(0.3, rot)
    assert is_regular(g) is expected
    # the finite commutant probe must agree on these cases
    assert _regular_by_cube_commutant(rot) is expected


def test_is_regular_matches_trace_formula():
    # independent angle computation through the matrix trace
    rng = np.random.default_rng(3)
    for _ in range(300):
        g = GroupElement(0.0, exp_so3(rng.normal(size=3)))
        tr = np.trace(g.rot.matrix())
        ang = math.acos(max(-1.0, min(1.0, (tr - 1.0) / 2.0)))
        assert is_regular(g) == (1e-6 < ang < math.pi - 1e-6)


# ----------------------------------------------------------------------
# torus coordinates
# ----------------------------------------------------------------------


def test_torus_coords_frozen_example():
    g = GroupElement(math.pi, Rotation.from_axis_angle(E3, -math.pi / 2))
    np.testing.assert_allclose(torus_coords(g), [0.5, 0.75], atol=1e-15)


def test_xi_frozen_example():
    g = Xi([0.25, 0.25])
    assert g.theta == pytest.approx(math.pi / 2, abs=1e-15)
    assert g.rot.angle() == pytest.approx(math.pi / 2, abs=1e-15)
    np.testing.assert_allclose(g.rot.axis(), E3, atol=1e-15)


def test_xi_is_periodic_in_each_slot():
    rng = np.random.default_rng(5)
    for _ in range(50):
        b = rng.uniform(0, 1, size=2)
        for shift in ([1.0, 0.0], [0.0, 1.0], [2.0, -1.0]):
            assert group_distance(Xi(b), Xi(b + np.asarray(shift))) < 1e-12


def test_torus_coords_inverts_xi():
    rng = np.random.default_rng(9)
    for _ in range(200):
        b = rng.uniform(0, 1, size=2)
        d = torus_coords(Xi(b)) - b
        d = np.abs((d + 0.5) % 1.0 - 0.5)
        assert d.max() < 1e-12


def test_torus_coords_rejects_off_axis_rotation():
    g = GroupElement(0.0, Rotation.from_axis_angle(E1, 0.5))
    with pytest.raises(DomainError):
        torus_coords(g)


def test_torus_coords_so3_rank_one():
    g = GroupElement(0.0, Rotation.from_axis_angle(E3, 1.0), SO3)
    b = torus_coords(g)
    assert b.shape == (1,)
    assert b[0] == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)


def test_xi_homomorphism_on_torus():
    b1 = np.array([0.2, 0.6])
    b2 = np.array([0.55, 0.7])
    assert group_distance(Xi(b1) @ Xi(b2), Xi(b1 + b2)) < 1e-12


# ----------------------------------------------------------------------
# conjugator to the reference torus
# ----------------------------------------------------------------------


def test_conjugator_lands_in_torus_and_keeps_angle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        ang = rng.uniform(0.05, math.pi - 0.05)
        g = GroupElement(rng.uniform(0, 2 * math.pi), Rotation.from_axis_angle(v, ang))
        h = conjugator_to_torus(g)
        assert h.theta == 0.0
        t = conj(h, g)
        beta = torus_coords(t, tol=1e-8)  # raises if off the torus
        assert abs(t.rot.angle() - ang) < 1e-12
        assert beta[0] == pytest.approx(g.theta / (2 * math.pi), abs=1e-12)


def test_conjugator_degenerate_axis_cases():
    up = GroupElement(0.0, Rotation.from_axis_angle(E3, 1.0))
    assert conjugator_to_torus(up).rot.angle() < 1e-15
    down = GroupElement(0.0, Rotation.from_axis_angle(-E3, 1.0))
    h = conjugator_to_torus(down)
    assert h.rot.angle() == pytest.approx(math.pi, abs=1e-12)
    # conjugation keeps the (positive) rotation angle and carries the
    # axis -e3 onto +e3
    assert torus_coords(conj(h, down))[1] == pytest.approx(
        1.0 / (2 * math.pi), abs=1e-12
    )


def test_conjugator_rejects_singular_elements():
    with pytest.raises(DomainError):
        conjugator_to_torus(GroupElement(1.0, Rotation.identity()))
    with pytest.raises(DomainError):
        conjugator_to_torus(
            GroupElement(0.0, Rotation.from_axis_angle(E2, math.pi))
        )


# ----------------------------------------------------------------------
# Weyl folding / projective representatives
# ----------------------------------------------------------------------


def test_weyl_representative_frozen_example():
    g = GroupElement(0.0, Rotation.from_axis_angle(E1, math.pi / 2), SO3)
    np.testing.assert_allclose(weyl_representative(g), E2, atol=1e-14)


def test_weyl_representative_invariant_under_normalizer():
    # right-multiplying by any rotation about e3, or by a half turn that
    # flips e3, must not move the class
    rng = np.random.default_rng(23)
    flip = GroupElement(0.0, Rotation.from_axis_angle(E1, math.pi))
    for _ in range(100):
        g = GroupElement(rng.uniform(0, 2 * math.pi), exp_so3(rng.normal(size=3)))
        rep = weyl_representative(g)
        twist = GroupElement(
            rng.uniform(0, 2 * math.pi),
            Rotation.from_axis_angle(E3, rng.uniform(0, 2 * math.pi)),
        )
        assert projective_distance(rep, weyl_representative(g @ twist)) < 1e-12
        assert projective_distance(rep, weyl_representative(g @ flip @ twist)) < 1e-12


def test_fold_projective_sign_rules():
    np.testing.assert_allclose(fold_projective([0.0, 0.0, -2.0]), E3, atol=0)
    np.testing.assert_allclose(fold_projective([0.0, -3.0, 0.0]), E2, atol=0)
    np.testing.assert_allclose(fold_projective([-1.0, 0.0, 0.0]), E1, atol=0)


@settings(max_examples=100, deadline=None)
@given(rotation_vectors.filter(lambda w: np.linalg.norm(w) > 1e-6))
def test_projective_distance_is_sign_blind(w):
    u = w / np.linalg.norm(w)
    assert projective_distance(u, -u) == 0.0
    assert projective_distance(u, u) == 0.0

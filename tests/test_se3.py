import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rodgp import se3

from conftest import random_pose, random_twist
from oracles import exp_so3, jac_so3, left_jacobian_series

rng = np.random.default_rng(0)


def twists(omega_bound=1.7):
    # |omega| <= sqrt(3) * bound stays inside the principal branch for
    # bound = 1.7 (2.95 < pi).
    coord = st.floats(-omega_bound, omega_bound, allow_nan=False)
    return st.tuples(*[coord] * 6).map(lambda t: np.array(t))


def test_hat3_is_skew_and_holds_its_vector():
    v = np.array([0.3, -1.2, 2.5])
    V = se3.hat3(v)
    assert np.allclose(V, -V.T)
    np.testing.assert_array_equal(V[[2, 0, 1], [1, 2, 0]], v)


def test_hat3_is_cross_product():
    a = np.array([0.3, -1.2, 2.5])
    b = np.array([-0.7, 0.4, 1.1])
    np.testing.assert_allclose(se3.hat3(a) @ b, np.cross(a, b), atol=1e-15)


def test_hat6_layout():
    x = np.arange(1.0, 7.0)
    X = se3.hat6(x)
    np.testing.assert_array_equal(X[:3, 3], x[:3])
    np.testing.assert_array_equal(X[:3, :3], se3.hat3(x[3:]))
    np.testing.assert_array_equal(X[3], np.zeros(4))


def test_curly_hat_layout():
    x = np.arange(1.0, 7.0)
    X = se3.curly_hat(x)
    W = se3.hat3(x[3:])
    np.testing.assert_array_equal(X[:3, :3], W)
    np.testing.assert_array_equal(X[3:, 3:], W)
    np.testing.assert_array_equal(X[:3, 3:], se3.hat3(x[:3]))
    np.testing.assert_array_equal(X[3:, :3], np.zeros((3, 3)))


def test_exp_so3_matches_matrix_exponential():
    for _ in range(50):
        w = rng.uniform(-1.5, 1.5, 3)
        np.testing.assert_allclose(
            exp_so3(w), scipy.linalg.expm(se3.hat3(w)), atol=1e-12
        )


def test_exp_se3_matches_matrix_exponential():
    for _ in range(50):
        x = random_twist(rng, 2.0, 1.5)
        np.testing.assert_allclose(
            se3.exp_se3(x), scipy.linalg.expm(se3.hat6(x)), atol=1e-12
        )


def test_exp_translation_uses_rotation_jacobian():
    x = np.array([0.4, -0.2, 0.9, 0.3, 1.1, -0.5])
    T = se3.exp_se3(x)
    np.testing.assert_allclose(T[:3, 3], jac_so3(x[3:]) @ x[:3], atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(twists())
def test_log_exp_roundtrip(x):
    np.testing.assert_allclose(se3.log_se3(se3.exp_se3(x)), x, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(twists(), twists())
def test_group_closure(x, y):
    T = se3.exp_se3(x) @ se3.exp_se3(y)
    se3.check_pose(T)
    se3.check_pose(se3.pose_inverse(T))
    np.testing.assert_allclose(se3.pose_inverse(T) @ T, np.eye(4), atol=1e-12)


def test_log_so3_small_angle():
    w = np.array([1e-10, -2e-10, 3e-10])
    np.testing.assert_allclose(se3.log_so3(exp_so3(w)), w, atol=1e-15)


def test_log_so3_rejects_near_pi():
    C = exp_so3((np.pi - 1e-8) * np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        se3.log_so3(C)


def test_branch_cut_raises_a_branch_error():
    C = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(se3.BranchError):
        se3.log_so3(C)
    with pytest.raises(se3.BranchError):
        se3.left_jacobian_inv(np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi]))
    assert issubclass(se3.BranchError, ValueError)


def test_adjoint_of_exp_is_exp_of_curly():
    for _ in range(20):
        x = random_twist(rng, 1.5, 1.2)
        np.testing.assert_allclose(
            se3.adjoint(se3.exp_se3(x)),
            scipy.linalg.expm(se3.curly_hat(x)),
            atol=1e-10,
        )


def test_adjoint_homomorphism():
    for _ in range(50):
        Ta = random_pose(rng)
        Tb = random_pose(rng)
        np.testing.assert_allclose(
            se3.adjoint(Ta @ Tb), se3.adjoint(Ta) @ se3.adjoint(Tb), atol=1e-10
        )


def test_adjoint_intertwines_hat():
    x = random_twist(rng)
    T = random_pose(rng)
    lhs = T @ se3.hat6(x) @ se3.pose_inverse(T)
    np.testing.assert_allclose(lhs, se3.hat6(se3.adjoint(T) @ x), atol=1e-10)


def test_left_jacobian_matches_series():
    for scale in (1.0, 0.05, 1e-5):
        for _ in range(20):
            x = random_twist(rng, scale, scale)
            np.testing.assert_allclose(
                se3.left_jacobian(x), left_jacobian_series(x, 30), atol=1e-10
            )


def test_left_jacobian_inverse():
    for scale in (1.0, 0.01):
        for _ in range(20):
            x = random_twist(rng, scale, scale)
            np.testing.assert_allclose(
                se3.left_jacobian_inv(x) @ se3.left_jacobian(x),
                np.eye(6),
                atol=1e-10,
            )


def test_left_jacobian_fixes_its_own_twist():
    # J(x) x = x is the defining identity that makes constant-strain
    # rollouts exact prior means.
    x = random_twist(rng, 2.0, 1.4)
    np.testing.assert_allclose(se3.left_jacobian(x) @ x, x, atol=1e-12)


def test_jac_so3_matches_rotation_block():
    w = np.array([0.7, -0.3, 0.4])
    x = np.concatenate([np.zeros(3), w])
    np.testing.assert_allclose(se3.left_jacobian(x)[3:, 3:], jac_so3(w), atol=1e-12)


def test_check_pose_rejects_bad_matrices():
    T = np.eye(4)
    T[0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError):
        se3.check_pose(T)
    flipped = np.diag([1.0, 1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        se3.check_pose(flipped)
    T = np.eye(4)
    T[3, 0] = 1e-6
    with pytest.raises(ValueError):
        se3.check_pose(T)
    T = np.eye(4)
    T[0, 3] = np.nan
    with pytest.raises(ValueError):
        se3.check_pose(T)


def test_pose_parts_roundtrip():
    T = random_pose(rng)
    rebuilt = se3.pose_from_parts(T[:3, :3], T[:3, 3])
    np.testing.assert_array_equal(rebuilt, T)


def test_rotation_angle_deg():
    C = exp_so3(np.array([0.0, 0.0, np.pi / 2]))
    assert se3.rotation_angle_deg(np.eye(3), np.eye(3)) == 0.0
    np.testing.assert_allclose(se3.rotation_angle_deg(np.eye(3), C), 90.0, atol=1e-10)
    np.testing.assert_allclose(se3.rotation_angle_deg(C, np.eye(3)), 90.0, atol=1e-10)


def test_log_exp_roundtrip_just_above_former_small_angle_cutoff():
    # At theta = 1e-8, (1 - cos(theta)) / theta^2 used to round to 0 and
    # drop the first-order term of exp's translation.
    x = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1e-8])
    np.testing.assert_allclose(se3.log_se3(se3.exp_se3(x)), x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(se3.exp_se3(x)[:3, 3], [-5e-9, 1.0, 0.0], rtol=0, atol=1e-16)


def sweep_twists(gen, n_per_angle=3):
    """Twists with unit-box translations over rotation angles 1e-10..1 rad,
    including both sides of the Taylor threshold."""
    angles = np.concatenate(
        [np.logspace(-10, 0, 61), se3.TAYLOR_ANGLE * (1.0 + np.array([-1e-12, 0.0, 1e-12]))]
    )
    for theta in angles:
        for _ in range(n_per_angle):
            axis = gen.normal(size=3)
            yield np.concatenate([gen.uniform(-1.0, 1.0, 3), theta * axis / np.linalg.norm(axis)])


def test_jacobians_match_series_oracle_across_taylor_threshold():
    gen = np.random.default_rng(7)
    for x in sweep_twists(gen):
        J_ref = left_jacobian_series(x, 40)
        np.testing.assert_allclose(se3.left_jacobian(x), J_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(se3.left_jacobian_inv(x) @ J_ref, np.eye(6), rtol=0, atol=1e-13)


def test_log_exp_roundtrip_across_taylor_threshold():
    gen = np.random.default_rng(8)
    for x in sweep_twists(gen):
        np.testing.assert_allclose(se3.exp_se3(x), scipy.linalg.expm(se3.hat6(x)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(se3.log_se3(se3.exp_se3(x)), x, rtol=0, atol=1e-13)


def test_exp_from_the_left_jacobian_matches_exp_se3():
    # Stacked twists over both branches of the angle coefficients, and at
    # rotation angles up to 3 rad, where the closed forms carry the most.
    gen = np.random.default_rng(10)
    X = np.stack(list(sweep_twists(gen)) + [np.concatenate([gen.uniform(-1, 1, 3), [0.0, 3.0, 0.0]])])
    theta = np.linalg.norm(X[:, 3:], axis=1)
    assert (theta < se3.TAYLOR_ANGLE).any() and (theta >= se3.TAYLOR_ANGLE).any()
    T = se3.exp_se3_from_jacobian(X, se3.left_jacobian(X))
    np.testing.assert_allclose(T, se3.exp_se3(X), rtol=0, atol=1e-15)
    # The translation is J3 nu in both, bit for bit.
    np.testing.assert_array_equal(T[:, :3, 3], se3.exp_se3(X)[:, :3, 3])


TWIST_MAPS = [
    se3.hat3,
    se3.hat6,
    se3.curly_hat,
    exp_so3,
    jac_so3,
    se3.exp_se3,
    se3.left_jacobian,
    se3.left_jacobian_inv,
]
POSE_MAPS = [se3.log_se3, se3.adjoint, se3.pose_inverse]


@pytest.mark.parametrize("fn", TWIST_MAPS + POSE_MAPS, ids=lambda fn: fn.__name__)
def test_stacked_call_equals_unstacked_rows(fn):
    gen = np.random.default_rng(9)
    # Rotation angles on both sides of the Taylor threshold, one of them zero.
    X = gen.uniform(-1.0, 1.0, (12, 6))
    X[:4, 3:] *= 1e-3
    X[4, 3:] = 0.0
    if fn in POSE_MAPS:
        X = se3.exp_se3(X)
    elif fn in (se3.hat3, exp_so3, jac_so3):
        X = X[:, 3:]
    stacked = fn(X)
    for row, out in zip(X, stacked):
        np.testing.assert_allclose(out, fn(row), rtol=1e-14, atol=1e-15)
    # A (2, 6, ...) stack gives the same rows as the flat one.
    np.testing.assert_array_equal(fn(X.reshape((2, 6) + X.shape[1:])).reshape(stacked.shape), stacked)
    assert fn(X[:0]).shape == (0,) + stacked.shape[1:]


def test_stacked_calls_check_the_branch_cut():
    X = np.zeros((3, 6))
    X[1, 3] = np.pi - 1e-8
    with pytest.raises(ValueError):
        se3.left_jacobian_inv(X)
    with pytest.raises(ValueError):
        se3.log_se3(se3.exp_se3(X))


def test_log_with_jacobian_inverse_is_log_then_left_jacobian_inv():
    gen = np.random.default_rng(15)
    # Rotation angles below and above TAYLOR_ANGLE, one of them zero.
    axes = gen.standard_normal((40, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([gen.uniform(0.0, se3.TAYLOR_ANGLE, 20), gen.uniform(se3.TAYLOR_ANGLE, 3.0, 20)])
    angles[0] = 0.0
    X = np.concatenate([gen.uniform(-1.0, 1.0, (40, 3)), angles[:, None] * axes], axis=1)
    T = se3.exp_se3(X).reshape(2, 20, 4, 4)
    xi, J_inv = se3.log_se3_jacobian_inv(T)
    np.testing.assert_array_equal(xi, se3.log_se3(T))
    np.testing.assert_array_equal(J_inv, se3.left_jacobian_inv(se3.log_se3(T)))
    for pose in (T[0, 0], T[1, 19]):
        xi, J_inv = se3.log_se3_jacobian_inv(pose)
        np.testing.assert_array_equal(xi, se3.log_se3(pose))
        np.testing.assert_array_equal(J_inv, se3.left_jacobian_inv(se3.log_se3(pose)))


def test_log_with_jacobian_inverse_checks_the_branch_cut_as_log_se3():
    # Angles straddling pi - BRANCH_MARGIN, each alone and inside a stack.
    axis = np.array([0.48, -0.6, 0.64])
    raised = []
    for k in np.linspace(-3.0, 3.0, 25):
        angle = np.pi - se3.BRANCH_MARGIN * (1.0 + 1e-3 * k)
        pose = se3.pose_from_parts(exp_so3(angle * axis), np.array([0.1, -0.2, 0.3]))
        for T in (pose, np.stack([np.eye(4), pose])):
            try:
                expected = se3.log_se3(T)
            except se3.BranchError:
                with pytest.raises(se3.BranchError):
                    se3.log_se3_jacobian_inv(T)
                raised.append(True)
                continue
            np.testing.assert_array_equal(se3.log_se3_jacobian_inv(T)[0], expected)
            raised.append(False)
    assert any(raised) and not all(raised)

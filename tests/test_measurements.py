import numpy as np
import pytest

from rodgp import measurements as meas
from rodgp import se3, solver
from rodgp.prior import PriorHyperparams, StateNode

from conftest import random_pose, random_twist

rng = np.random.default_rng(2)

R6 = 0.01 * np.eye(6)

HYPER = PriorHyperparams(np.eye(6), np.zeros(6))


def test_pose_measurement_validation():
    T = np.eye(4)
    with pytest.raises(ValueError):
        meas.PoseMeasurement(0.0, np.zeros((4, 4)), R6)
    with pytest.raises(ValueError):
        meas.PoseMeasurement(0.0, T, np.eye(5))
    with pytest.raises(ValueError):
        meas.PoseMeasurement(0.0, T, -np.eye(6))
    with pytest.raises(ValueError):
        meas.PoseMeasurement(0.0, T, R6, mask=np.zeros(6, dtype=bool))
    with pytest.raises(ValueError):
        meas.PoseMeasurement(0.0, T, R6, mask=np.ones(5, dtype=bool))


def test_masked_cov_only_needs_masked_block_spd():
    # Variance entries outside the mask may be zero.
    mask = np.array([True, True, True, False, False, False])
    R = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    m = meas.StrainMeasurement(0.0, np.zeros(6), R, mask)
    assert m.mask.sum() == 3


def measurement_factor(measurement, T, eps):
    """(H_diag, b, cost) that linearize adds for one measurement at node 0 of
    a two-node problem whose nodes both hold the pose T and the strain eps:
    the difference from the same problem without it."""
    grid = np.array([0.0, 1.0])
    nodes = [StateNode(s, T, eps) for s in grid]
    with_it, without = (
        solver.linearize(solver.Problem(grid, HYPER, ms, nodes), np.stack([T, T]), np.stack([eps, eps]))
        for ms in ([measurement], [])
    )
    return tuple(with_it[i] - without[i] for i in (0, 2, 3))


def test_pose_error_recovers_injected_twist():
    for _ in range(20):
        T = random_pose(rng)
        n = random_twist(rng, 0.5, 0.5)
        m = meas.PoseMeasurement(0.0, se3.exp_se3(n) @ T, R6)
        np.testing.assert_allclose(meas.pose_residual(m.T_meas, T)[0], n, atol=1e-10)


def test_pose_error_masking_selects_rows():
    # The masked factor weighs the masked rows of the unmasked residual.
    T = random_pose(rng)
    n = random_twist(rng, 0.3, 0.3)
    mask = np.array([True, False, True, False, True, False])
    masked = meas.PoseMeasurement(0.0, se3.exp_se3(n) @ T, R6, mask)
    e, J = meas.pose_residual(masked.T_meas, T)
    e, E, Ri = e[mask], J[mask], np.linalg.inv(R6[np.ix_(mask, mask)])
    H, b, cost = measurement_factor(masked, T, np.zeros(6))
    np.testing.assert_allclose(H[0, 0:6, 0:6], E.T @ Ri @ E, rtol=0, atol=1e-12 * np.abs(E.T @ Ri @ E).max())
    np.testing.assert_allclose(b[0, 0:6], -E.T @ Ri @ e, rtol=0, atol=1e-12 * np.abs(E.T @ Ri @ e).max())
    np.testing.assert_allclose(cost, 0.5 * e @ Ri @ e, rtol=1e-12)
    assert not H[:, 6:].any() and not H[:, :, 6:].any() and not H[1].any() and not b[:, 6:].any()


def test_pose_error_jacobian_at_zero_error():
    T = random_pose(rng)
    m = meas.PoseMeasurement(0.0, T.copy(), R6)
    J = meas.pose_residual(m.T_meas, T)[1]
    np.testing.assert_allclose(J, -np.eye(6), atol=1e-12)
    # The factor never reads the strain.
    H, b, _ = measurement_factor(m, T, np.zeros(6))
    np.testing.assert_array_equal(H[0, :, 6:], np.zeros((12, 6)))
    np.testing.assert_array_equal(b[0, 6:], np.zeros(6))


def test_pose_error_jacobian_finite_difference():
    h = 1e-6
    for _ in range(20):
        T = random_pose(rng)
        m = meas.PoseMeasurement(0.0, se3.exp_se3(random_twist(rng, 0.4, 0.4)) @ T, R6)
        J = meas.pose_residual(m.T_meas, T)[1]
        num = np.zeros((6, 6))
        for j in range(6):
            step = h * np.eye(6)[j]
            num[:, j] = (
                meas.pose_residual(m.T_meas, se3.exp_se3(step) @ T)[0]
                - meas.pose_residual(m.T_meas, se3.exp_se3(-step) @ T)[0]
            ) / (2.0 * h)
        assert np.abs(J - num).max() / max(1.0, np.abs(num).max()) < 1e-4


def test_strain_error_and_jacobian():
    # The strain factor has error (eps_meas - eps) and Jacobian [0, -I] on
    # the masked rows: with R = I it adds the masked identity to the strain
    # block and the masked error to the strain gradient.
    eps = rng.uniform(-1.0, 1.0, 6)
    target = rng.uniform(-1.0, 1.0, 6)
    mask = np.array([False, True, True, True, True, False])
    m = meas.StrainMeasurement(0.0, target, np.eye(6), mask)
    H, b, _ = measurement_factor(m, np.eye(4), eps)
    expected = np.zeros((12, 12))
    expected[6:, 6:] = np.diag(mask.astype(float))
    np.testing.assert_allclose(H[0], expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(H[1], np.zeros((12, 12)))
    np.testing.assert_array_equal(b[0, :6], np.zeros(6))
    np.testing.assert_allclose(b[0, 6:], np.where(mask, target - eps, 0.0), rtol=0, atol=1e-12)


def test_measurement_cost_values():
    # A strain measurement at a node with zero strain, where the prior
    # costs nothing, leaves linearize 0.5 e^T R^-1 e.
    def cost(e):
        return measurement_factor(meas.StrainMeasurement(0.0, e, R6), np.eye(4), np.zeros(6))[2]

    assert cost(np.zeros(6)) == 0.0
    e = np.zeros(6)
    e[2] = 0.1  # one standard deviation under R = 0.01 I
    np.testing.assert_allclose(cost(e), 0.5, atol=1e-12)
    np.testing.assert_allclose(cost(2.0 * e), 2.0, atol=1e-12)
    with pytest.raises(ValueError):
        meas.StrainMeasurement(0.0, np.zeros(4), R6)


def test_masking_matches_huge_variance_limit():
    # Dropping a row and inflating its variance to 1e12 agree on the cost
    # that linearize prices with the embedded R^-1.
    T = random_pose(rng)
    T_meas = se3.exp_se3(random_twist(rng, 0.2, 0.2)) @ T
    mask = np.array([True, True, True, True, True, False])
    R_inflated = R6.copy()
    R_inflated[5, 5] = 1e12
    masked = meas.PoseMeasurement(0.0, T_meas, R6, mask)
    inflated = meas.PoseMeasurement(0.0, T_meas, R_inflated)
    cost_masked = measurement_factor(masked, T, np.zeros(6))[2]
    cost_inflated = measurement_factor(inflated, T, np.zeros(6))[2]
    assert cost_masked > 0.0
    np.testing.assert_allclose(cost_masked, cost_inflated, rtol=1e-6)


def test_corrupt_pose_zero_covariance_is_identity():
    T = random_pose(rng)
    np.testing.assert_array_equal(
        meas.corrupt_pose(T, np.zeros((6, 6)), np.random.default_rng(0)), T
    )


def test_corrupt_pose_reproducible():
    T = random_pose(rng)
    a = meas.corrupt_pose(T, R6, np.random.default_rng(9))
    b = meas.corrupt_pose(T, R6, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
    se3.check_pose(a)


def test_corrupt_pose_covariance_recovered():
    # 50000 draws; empirical covariance of the recovered twists matches
    # the injected R on every diagonal entry within 5%.
    R = np.diag([1e-6, 2e-6, 3e-6, 1e-4, 2e-4, 3e-4])
    T = se3.exp_se3(np.array([0.05, -0.1, 0.2, 0.3, -0.2, 0.1]))
    gen = np.random.default_rng(11)
    draws = np.array(
        [
            se3.log_se3(meas.corrupt_pose(T, R, gen) @ se3.pose_inverse(T))
            for _ in range(50000)
        ]
    )
    emp = np.cov(draws.T)
    rel = np.abs(np.diag(emp) - np.diag(R)) / np.diag(R)
    assert rel.max() < 0.05


def test_corrupt_strain_std():
    R = np.diag([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
    eps = np.array([1.0, 0, 0, 0.2, 0, 0])
    gen = np.random.default_rng(12)
    draws = np.array([meas.corrupt_strain(eps, R, gen) for _ in range(50000)])
    np.testing.assert_allclose(draws.mean(axis=0), eps, atol=0.01)
    rel = np.abs(draws.std(axis=0) - np.sqrt(np.diag(R))) / np.sqrt(np.diag(R))
    assert rel.max() < 0.03


def test_corrupt_strain_semidefinite_covariance():
    R = np.zeros((6, 6))
    R[0, 0] = 1e-4
    out = meas.corrupt_strain(np.zeros(6), R, np.random.default_rng(1))
    assert np.all(out[1:] == 0.0)
    assert out[0] != 0.0

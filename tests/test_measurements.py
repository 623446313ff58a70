import numpy as np
import pytest

from rodgp import measurements as meas
from rodgp import se3, solver
from rodgp.prior import PriorHyperparams, StateNode

from conftest import random_pose, random_twist
from oracles import linearize_one, pose, pose_residual, sensor_list, sensors, stack_nodes, strain

rng = np.random.default_rng(2)

R6 = 0.01 * np.eye(6)

HYPER = PriorHyperparams(np.eye(6), np.zeros(6))


def test_pose_measurement_validation():
    T = np.eye(4)
    with pytest.raises(ValueError):
        sensors([pose(0.0, np.zeros((4, 4)), R6)])
    with pytest.raises(ValueError):
        sensors([pose(0.0, T, np.eye(5))])
    with pytest.raises(ValueError):
        sensors([pose(0.0, T, -np.eye(6))])
    with pytest.raises(ValueError):
        sensors([pose(0.0, T, R6, mask=np.zeros(6, dtype=bool))])
    with pytest.raises(ValueError):
        sensors([pose(0.0, T, R6, mask=np.ones(5, dtype=bool))])


def test_masked_cov_only_needs_masked_block_spd():
    # Variance entries outside the mask may be zero.
    mask = np.array([True, True, True, False, False, False])
    R = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    m = sensors([strain(0.0, np.zeros(6), R, mask)])
    assert m.mask.sum() == 3


def valid_sensors():
    """Two strain sensors and a pose sensor between them, all valid."""
    return [strain(0.1, np.zeros(6), R6), pose(0.2, np.eye(4), R6), strain(0.3, np.ones(6), 2.0 * R6)]


@pytest.mark.parametrize(
    "index, field, edit, message",
    [
        (2, "R", lambda x: x.R * np.nan, "R must be finite"),
        (2, "R", lambda x: x.R + np.diag([np.inf, 0, 0, 0, 0, 0]), "R must be finite"),
        (2, "value", lambda x: np.full(6, np.nan), "eps_meas must be finite"),
        (2, "value", lambda x: np.full(6, -np.inf), "eps_meas must be finite"),
        (1, "value", lambda x: np.where(np.eye(4, dtype=bool), np.nan, x.value), "T_meas must be finite"),
        (2, "s", lambda x: np.nan, "s must be finite"),
        (2, "kind", lambda x: "twist", "kind must be 'pose' or 'strain', got 'twist'"),
    ],
)
def test_non_finite_or_unknown_input_is_rejected_by_name(index, field, edit, message):
    items = valid_sensors()
    sensors(items)
    items[index] = items[index]._replace(**{field: edit(items[index])})
    with pytest.raises(ValueError, match=message):
        sensors(items)


def test_container_layout_and_run_axis():
    items = valid_sensors()
    m = sensors(items)
    assert m.kind.tolist() == ["strain", "pose", "strain"]
    np.testing.assert_array_equal(m.s, [0.1, 0.2, 0.3])
    assert m.T_meas.shape == (1, 4, 4) and m.eps_meas.shape == (2, 6)
    assert [(x.kind, x.s) for x in sensor_list(m)] == [(x.kind, x.s) for x in items]
    layout, T_meas, eps_meas = meas.stack_runs(m)
    assert layout is m and T_meas.shape == (1, 1, 4, 4) and eps_meas.shape == (1, 2, 6)
    # The runs of a batch are a list of containers on one layout.
    twice = meas.Measurements(m.s, m.kind, m.mask, m.R, m.T_meas, 2 * m.eps_meas)
    _, T_meas, eps_meas = meas.stack_runs([m, m, twice, m])
    assert T_meas.shape == (4, 1, 4, 4)
    np.testing.assert_array_equal(eps_meas[2], 2 * m.eps_meas)
    # A container holds one run: values with a leading run axis are refused.
    for T_bad, eps_bad in ((m.T_meas, np.stack([m.eps_meas] * 3)), (np.stack([m.T_meas] * 3), m.eps_meas)):
        with pytest.raises(ValueError, match="_meas must have shape"):
            meas.Measurements(m.s, m.kind, m.mask, m.R, T_bad, eps_bad)
    # One information block per sensor: R^-1 on its masked components.
    np.testing.assert_allclose(m.information(), np.linalg.inv(m.R), rtol=1e-15)
    # No sensor at all is a valid, empty layout.
    empty = sensors([])
    assert empty.information().shape == (0, 6, 6) and empty.T_meas.shape == (0, 4, 4)


def measurement_factor(measurement, T, eps):
    """(H_diag, b, cost) that linearize adds for one Sensor at node 0 of
    a two-node problem whose nodes both hold the pose T and the strain eps:
    the difference from the same problem without it."""
    grid = np.array([0.0, 1.0])
    nodes = stack_nodes([StateNode(s, T, eps) for s in grid])
    with_it, without = (
        linearize_one(solver.Problem(grid, HYPER, ms, nodes), nodes)
        for ms in (sensors([measurement]), sensors([]))
    )
    return tuple(with_it[i] - without[i] for i in (0, 2, 3))


def test_pose_error_recovers_injected_twist():
    for _ in range(20):
        T = random_pose(rng)
        n = random_twist(rng, 0.5, 0.5)
        np.testing.assert_allclose(pose_residual(se3.exp_se3(n) @ T, T)[0], n, atol=1e-10)


def test_pose_error_masking_selects_rows():
    # The masked factor weighs the masked rows of the unmasked residual.
    T = random_pose(rng)
    n = random_twist(rng, 0.3, 0.3)
    mask = np.array([True, False, True, False, True, False])
    masked = pose(0.0, se3.exp_se3(n) @ T, R6, mask)
    e, J = pose_residual(masked.value, T)
    e, E, Ri = e[mask], J[mask], np.linalg.inv(R6[np.ix_(mask, mask)])
    H, b, cost = measurement_factor(masked, T, np.zeros(6))
    np.testing.assert_allclose(H[0, 0:6, 0:6], E.T @ Ri @ E, rtol=0, atol=1e-12 * np.abs(E.T @ Ri @ E).max())
    np.testing.assert_allclose(b[0, 0:6], -E.T @ Ri @ e, rtol=0, atol=1e-12 * np.abs(E.T @ Ri @ e).max())
    np.testing.assert_allclose(cost, 0.5 * e @ Ri @ e, rtol=1e-12)
    assert not H[:, 6:].any() and not H[:, :, 6:].any() and not H[1].any() and not b[:, 6:].any()


def test_pose_error_jacobian_at_zero_error():
    T = random_pose(rng)
    m = pose(0.0, T.copy(), R6)
    J = pose_residual(m.value, T)[1]
    np.testing.assert_allclose(J, -np.eye(6), atol=1e-12)
    # The factor never reads the strain.
    H, b, _ = measurement_factor(m, T, np.zeros(6))
    np.testing.assert_array_equal(H[0, :, 6:], np.zeros((12, 6)))
    np.testing.assert_array_equal(b[0, 6:], np.zeros(6))


def test_pose_error_jacobian_finite_difference():
    h = 1e-6
    for _ in range(20):
        T = random_pose(rng)
        T_meas = se3.exp_se3(random_twist(rng, 0.4, 0.4)) @ T
        J = pose_residual(T_meas, T)[1]
        num = np.zeros((6, 6))
        for j in range(6):
            step = h * np.eye(6)[j]
            num[:, j] = (
                pose_residual(T_meas, se3.exp_se3(step) @ T)[0]
                - pose_residual(T_meas, se3.exp_se3(-step) @ T)[0]
            ) / (2.0 * h)
        assert np.abs(J - num).max() / max(1.0, np.abs(num).max()) < 1e-4


def test_strain_error_and_jacobian():
    # The strain factor has error (eps_meas - eps) and Jacobian [0, -I] on
    # the masked rows: with R = I it adds the masked identity to the strain
    # block and the masked error to the strain gradient.
    eps = rng.uniform(-1.0, 1.0, 6)
    target = rng.uniform(-1.0, 1.0, 6)
    mask = np.array([False, True, True, True, True, False])
    m = strain(0.0, target, np.eye(6), mask)
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
        return measurement_factor(strain(0.0, e, R6), np.eye(4), np.zeros(6))[2]

    assert cost(np.zeros(6)) == 0.0
    e = np.zeros(6)
    e[2] = 0.1  # one standard deviation under R = 0.01 I
    np.testing.assert_allclose(cost(e), 0.5, atol=1e-12)
    np.testing.assert_allclose(cost(2.0 * e), 2.0, atol=1e-12)
    with pytest.raises(ValueError):
        sensors([strain(0.0, np.zeros(4), R6)])


def test_masking_matches_huge_variance_limit():
    # Dropping a row and inflating its variance to 1e12 agree on the cost
    # that linearize prices with the embedded R^-1.
    T = random_pose(rng)
    T_meas = se3.exp_se3(random_twist(rng, 0.2, 0.2)) @ T
    mask = np.array([True, True, True, True, True, False])
    R_inflated = R6.copy()
    R_inflated[5, 5] = 1e12
    masked = pose(0.0, T_meas, R6, mask)
    inflated = pose(0.0, T_meas, R_inflated)
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
    # 50000 draws in one stacked call; empirical covariance of the
    # recovered twists matches the injected R on every diagonal entry
    # within 5%.
    R = np.diag([1e-6, 2e-6, 3e-6, 1e-4, 2e-4, 3e-4])
    T = se3.exp_se3(np.array([0.05, -0.1, 0.2, 0.3, -0.2, 0.1]))
    gen = np.random.default_rng(11)
    draws = se3.log_se3(meas.corrupt_pose(np.broadcast_to(T, (50000, 4, 4)), R, gen) @ se3.pose_inverse(T))
    emp = np.cov(draws.T)
    rel = np.abs(np.diag(emp) - np.diag(R)) / np.diag(R)
    assert rel.max() < 0.05


def test_corrupt_strain_std():
    R = np.diag([0.01, 0.02, 0.03, 0.04, 0.05, 0.06])
    eps = np.array([1.0, 0, 0, 0.2, 0, 0])
    gen = np.random.default_rng(12)
    draws = meas.corrupt_strain(np.broadcast_to(eps, (50000, 6)), R, gen)
    np.testing.assert_allclose(draws.mean(axis=0), eps, atol=0.01)
    rel = np.abs(draws.std(axis=0) - np.sqrt(np.diag(R))) / np.sqrt(np.diag(R))
    assert rel.max() < 0.03


def test_corrupt_strain_semidefinite_covariance():
    R = np.zeros((6, 6))
    R[0, 0] = 1e-4
    out = meas.corrupt_strain(np.zeros(6), R, np.random.default_rng(1))
    assert np.all(out[1:] == 0.0)
    assert out[0] != 0.0

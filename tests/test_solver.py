import dataclasses
import time

import numpy as np
import pytest

from rodgp import prior, se3, solver, study
from rodgp.prior import PriorHyperparams, StateNode

from conftest import arc_problem
from oracles import linearize_one, pin, pose, pose_residual, prior_terms, sensor_list, sensors, stack_nodes, strain

rng = np.random.default_rng(3)

HYPER = PriorHyperparams(np.diag([0.01] * 6), np.array([1.0, 0, 0, 0, 0, 0]))


def random_block_system(gen, sizes):
    """Random SPD block-tridiagonal system with the given block sizes."""
    n = len(sizes)
    diag = []
    off = [0.1 * gen.standard_normal((sizes[k], sizes[k + 1])) for k in range(n - 1)]
    for k in range(n):
        M = gen.standard_normal((sizes[k], sizes[k]))
        diag.append(M @ M.T + 3.0 * sizes[k] * np.eye(sizes[k]))
    rhs = [gen.standard_normal(sizes[k]) for k in range(n)]
    return diag, off, rhs


def dense_from_blocks(diag, off):
    sizes = [d.shape[0] for d in diag]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    A = np.zeros((starts[-1], starts[-1]))
    for k, d in enumerate(diag):
        A[starts[k] : starts[k + 1], starts[k] : starts[k + 1]] = d
    for k, o in enumerate(off):
        A[starts[k] : starts[k + 1], starts[k + 1] : starts[k + 2]] = o
        A[starts[k + 1] : starts[k + 2], starts[k] : starts[k + 1]] = o.T
    return A, starts


def embed_ragged(diag, off, rhs=None):
    """The ragged system embedded in 12-wide blocks, each real size first,
    and pinned outside that free mask as gauss_newton pins locks:
    (D, U, b, free)."""
    sizes = [len(d) for d in diag]
    free = np.arange(12) < np.array(sizes)[:, None]
    D, U = np.zeros((len(diag), 12, 12)), np.zeros((len(off), 12, 12))
    for k, d in enumerate(diag):
        D[k, : sizes[k], : sizes[k]] = d
    for k, o in enumerate(off):
        U[k, : sizes[k], : sizes[k + 1]] = o
    b = np.zeros(free.shape)
    if rhs is not None:
        b[free] = np.concatenate(rhs)
    return (*pin(free, D, U, b), free)


def ragged_solve(diag, off, rhs):
    """cr_factor and cr_solve of the embedded system, on the real sizes."""
    D, U, b, free = embed_ragged(diag, off, rhs)
    x = solver.cr_solve(solver.cr_factor(D, U), b)
    return [x[k][f] for k, f in enumerate(free)]


def ragged_marginals(diag, off):
    """cr_marginals of the embedded system, on the real sizes."""
    D, U, _, free = embed_ragged(diag, off)
    P, C = solver.cr_marginals(solver.cr_factor(D, U))
    return [P[k][np.ix_(f, f)] for k, f in enumerate(free)], [
        C[k][np.ix_(free[k], free[k + 1])] for k in range(len(free) - 1)
    ]


def reduced_blocks(problem, nodes):
    """linearize's blocks at the nodes with the locked rows and columns
    deleted: (diag, off, rhs, free), free[k] the unlocked dimensions of node k."""
    H_diag, H_off, b, _ = linearize_one(problem, nodes)
    free = [np.flatnonzero(~row) for row in problem.locks]
    diag = [H_diag[k][np.ix_(f, f)] for k, f in enumerate(free)]
    off = [H_off[k][np.ix_(free[k], free[k + 1])] for k in range(len(free) - 1)]
    return diag, off, [b[k][f] for k, f in enumerate(free)], free


def measurement_terms(m, node):
    """Masked rows of one Sensor's error and of its 6x12 Jacobian
    w.r.t. (dt, de) at the node."""
    E = np.zeros((6, 12))
    if m.kind == "pose":
        e, E[:, 0:6] = pose_residual(m.value, node.T)
    else:
        e, E[:, 6:12] = m.value - node.eps, -np.eye(6)
    return e[m.mask], E[m.mask]


def sensors_at_nodes(problem):
    """Each Sensor of a one-run problem with the index of its grid node."""
    return [(m, int(np.argmin(np.abs(problem.grid - m.s)))) for m in sensor_list(problem.measurements)]


def rollout_guess(grid, eps):
    return stack_nodes([StateNode(s, se3.exp_se3(s * eps), eps.copy()) for s in grid])


def dense_normal_equations(problem, nodes):
    """Brute-force lock-reduced normal equations, one flat matrix."""
    n = problem.grid.size
    A = np.zeros((12 * n, 12 * n))
    b = np.zeros(12 * n)
    for k in range(1, n):
        e, E = prior_terms(nodes[k - 1], nodes[k])
        Qi = prior.process_cov_inv(problem.grid[k] - problem.grid[k - 1], problem.hyper)
        idx = np.arange(12 * (k - 1), 12 * (k + 1))
        A[np.ix_(idx, idx)] += E.T @ Qi @ E
        b[idx] -= E.T @ Qi @ e
    for m, k in sensors_at_nodes(problem):
        e, E = measurement_terms(m, nodes[k])
        Ri = np.linalg.inv(m.R[np.ix_(m.mask, m.mask)])
        idx = np.arange(12 * k, 12 * (k + 1))
        A[np.ix_(idx, idx)] += E.T @ Ri @ E
        b[idx] -= E.T @ Ri @ e
    keep = np.flatnonzero(~problem.locks.ravel())
    return A[np.ix_(keep, keep)], b[keep]


def test_default_locks_patterns():
    locks = solver.default_locks(4)
    assert locks.shape == (4, 12)
    assert locks[0, 0:6].all() and not locks[0, 6:].any()
    assert not locks[1:].any()
    locks = solver.default_locks(4, tip_strain=True, translational_strains=True)
    assert locks[-1, 6:12].all()
    assert locks[:, 6:9].all()


def test_problem_validation():
    grid = prior.uniform_grid(1.0, 4)
    guess = study.straight_guess(grid, HYPER)
    with pytest.raises(ValueError):
        solver.Problem(grid, HYPER, sensors([]), guess[:-1])
    off_node = pose(0.3, np.eye(4), 0.01 * np.eye(6))
    with pytest.raises(ValueError):
        solver.Problem(grid, HYPER, sensors([off_node]), guess)
    with pytest.raises(ValueError):
        solver.Problem(grid, HYPER, sensors([]), guess, locks=np.zeros((4, 12), dtype=bool))
    with pytest.raises(ValueError):
        solver.Problem(grid, HYPER, sensors([]), guess, max_iters=0)


def test_assemble_zero_gradient_on_prior_rollout():
    grid = prior.uniform_grid(1.5, 6)
    guess = rollout_guess(grid, HYPER.eps_bar)
    problem = solver.Problem(grid, HYPER, sensors([]), guess, solver.default_locks(7))
    _, _, rhs, _ = reduced_blocks(problem, guess)
    assert max(np.abs(r).max() for r in rhs) < 1e-10


def test_assemble_matches_dense_brute_force():
    grid = prior.uniform_grid(0.8, 4)
    eps = np.array([1.0, 0.02, -0.01, 0.3, -0.2, 0.1])
    nodes = rollout_guess(grid, eps)
    ms = sensors(
        [
            pose(grid[2], se3.exp_se3(0.1 * np.ones(6)) @ nodes[2].T, 0.01 * np.eye(6)),
            strain(grid[4], eps + 0.05, 0.02 * np.eye(6)),
            strain(
                grid[1],
                eps,
                np.eye(6),
                np.array([True, False, False, True, True, True]),
            ),
        ]
    )
    problem = solver.Problem(grid, HYPER, ms, nodes, solver.default_locks(5, tip_strain=True))
    diag, off, rhs, free = reduced_blocks(problem, nodes)
    A_blocks, _ = dense_from_blocks(diag, off)
    A_dense, b_dense = dense_normal_equations(problem, nodes)
    np.testing.assert_allclose(A_blocks, A_dense, atol=1e-10)
    np.testing.assert_allclose(np.concatenate(rhs), b_dense, atol=1e-10)
    assert free[0].tolist() == list(range(6, 12))
    assert free[-1].tolist() == list(range(0, 6))


def test_block_solve_identity():
    diag = [np.eye(3), np.eye(5)]
    off = [np.zeros((3, 5))]
    rhs = [np.arange(3.0), np.arange(5.0)]
    x = ragged_solve(diag, off, rhs)
    np.testing.assert_allclose(np.concatenate(x), np.concatenate(rhs))


@pytest.mark.parametrize("n_blocks", [1, 2, 5, 25, 50])
def test_block_solve_matches_dense(n_blocks):
    gen = np.random.default_rng(n_blocks)
    sizes = list(gen.integers(2, 13, n_blocks))
    diag, off, rhs = random_block_system(gen, sizes)
    x = ragged_solve(diag, off, rhs)
    A, _ = dense_from_blocks(diag, off)
    expected = np.linalg.solve(A, np.concatenate(rhs))
    err = np.abs(np.concatenate(x) - expected).max()
    assert err < 1e-8 * (1.0 + np.abs(expected).max())


def test_block_marginals_match_dense_inverse():
    gen = np.random.default_rng(8)
    sizes = [6, 12, 4, 12, 9, 12]
    diag, off, _ = random_block_system(gen, sizes)
    P_diag, P_off = ragged_marginals(diag, off)
    A, starts = dense_from_blocks(diag, off)
    P = np.linalg.inv(A)
    for k in range(len(sizes)):
        np.testing.assert_allclose(
            P_diag[k],
            P[starts[k] : starts[k + 1], starts[k] : starts[k + 1]],
            atol=1e-8,
        )
    for k in range(len(sizes) - 1):
        np.testing.assert_allclose(
            P_off[k],
            P[starts[k] : starts[k + 1], starts[k + 1] : starts[k + 2]],
            atol=1e-8,
        )


def test_cholesky_rejects_indefinite():
    diag = [np.eye(2), -np.eye(2)]
    off = [np.zeros((2, 2))]
    D, U, _, _ = embed_ragged(diag, off)
    with pytest.raises(np.linalg.LinAlgError):
        solver.cr_factor(D, U)


def test_solve_scales_linearly():
    # Linear scaling puts the 400-vs-20 block ratio near 20; a quadratic
    # implementation would land near 400. The slack covers cache effects
    # on the larger working set.
    gen = np.random.default_rng(0)

    def timed(n_blocks):
        D, U, b = stacked_system(gen, n_blocks)
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            solver.cr_solve(solver.cr_factor(D, U), b)
            best = min(best, time.perf_counter() - t0)
        return best

    timed(20)  # warmup
    assert timed(400) < 30.0 * timed(20)


def test_under_constrained_problem_raises():
    grid = prior.uniform_grid(1.0, 5)
    guess = study.straight_guess(grid, HYPER)
    # No locks and no measurements: the whole state is gauge-free.
    free_locks = np.zeros((6, 12), dtype=bool)
    with pytest.raises(np.linalg.LinAlgError):
        solver.gauss_newton(solver.Problem(grid, HYPER, sensors([]), guess, free_locks))
    # A root pose lock alone still leaves the root strain unconstrained
    # relative to the pose chain.
    with pytest.raises(np.linalg.LinAlgError):
        solver.gauss_newton(solver.Problem(grid, HYPER, sensors([]), guess))


def test_stationary_at_prior_rollout():
    grid = prior.uniform_grid(1.0, 5)
    guess = rollout_guess(grid, HYPER.eps_bar)
    locks = np.zeros((6, 12), dtype=bool)
    locks[0, :] = True
    problem = solver.Problem(grid, HYPER, sensors([]), guess, locks)
    sol = solver.gauss_newton(problem)
    assert sol.converged
    assert sol.iterations == 1
    for node, ref in zip(sol.nodes, guess):
        np.testing.assert_allclose(node.T, ref.T, atol=1e-9)
        np.testing.assert_allclose(node.eps, ref.eps, atol=1e-9)


def test_arc_problem_converges_monotonically():
    problem, target = arc_problem()
    sol = solver.gauss_newton(problem)
    assert sol.converged
    assert sol.iterations <= 8
    costs = np.array(sol.cost_history)
    assert np.all(costs[1:] <= costs[:-1] * (1.0 + 1e-6) + 1e-12)
    assert costs[-1] < 1.0 < costs[0]
    # The prior pulls toward straight, so the tip lands between the
    # straight rollout and the measured target, much nearer the target.
    assert np.linalg.norm(sol.nodes[-1].T[:3, 3] - target) < 0.5
    for node in sol.nodes:
        se3.check_pose(node.T)


def test_locked_substates_bit_identical():
    problem, _ = arc_problem()
    guess = [node.copy() for node in problem.initial_guess]
    sol = solver.gauss_newton(problem)
    np.testing.assert_array_equal(sol.nodes[0].T, guess[0].T)
    np.testing.assert_array_equal(sol.nodes[-1].eps[3:], guess[-1].eps[3:])
    for node, ref in zip(sol.nodes, guess):
        np.testing.assert_array_equal(node.eps[:3], ref.eps[:3])


def test_noise_free_measurements_recover_truth():
    eps_true = np.array([1.0, 0, 0, 0, 0.5, 0])
    grid = prior.uniform_grid(2.0, 10)
    truth = rollout_guess(grid, eps_true)
    R = 1e-12 * np.eye(6)
    ms = sensors([pose(s, truth[k].T.copy(), R) for k, s in enumerate(grid) if k > 0])
    problem = solver.Problem(grid, HYPER, ms, study.straight_guess(grid, HYPER))
    sol = solver.gauss_newton(problem)
    assert sol.converged
    for node, ref in zip(sol.nodes, truth):
        err = se3.log_se3(node.T @ se3.pose_inverse(ref.T))
        assert np.abs(err).max() < 1e-5
        np.testing.assert_allclose(node.eps, eps_true, atol=1e-5)


def test_measurement_order_does_not_matter():
    problem, _ = arc_problem()
    extra = [
        strain(problem.grid[10], HYPER.eps_bar, 0.5 * np.eye(6)),
        strain(problem.grid[20], HYPER.eps_bar, 0.5 * np.eye(6)),
    ]
    ms = sensor_list(problem.measurements) + extra
    kwargs = dict(locks=problem.locks)
    a = solver.gauss_newton(
        solver.Problem(problem.grid, HYPER, sensors(ms), problem.initial_guess, **kwargs)
    )
    b = solver.gauss_newton(
        solver.Problem(problem.grid, HYPER, sensors(ms[::-1]), problem.initial_guess, **kwargs)
    )
    for na, nb in zip(a.nodes, b.nodes):
        np.testing.assert_allclose(na.T, nb.T, atol=1e-10)
        np.testing.assert_allclose(na.eps, nb.eps, atol=1e-10)


def test_marginal_covariances_structure():
    problem, _ = arc_problem()
    sol = solver.gauss_newton(problem)
    assert len(sol.marginal_covs) == problem.grid.size
    assert len(sol.joint_covs) == problem.grid.size - 1
    for k, P in enumerate(sol.marginal_covs):
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        assert np.linalg.eigvalsh(P).min() > -1e-10
        locked = problem.locks[k]
        assert not P[locked].any() and not P[:, locked].any()
    for J in sol.joint_covs:
        np.testing.assert_allclose(J, J.T, atol=1e-12)


def test_non_convergence_reported():
    problem, _ = arc_problem()
    problem.max_iters = 1
    sol = solver.gauss_newton(problem)
    assert not sol.converged
    assert sol.iterations == 1
    assert len(sol.cost_history) == 2


def test_factorize_matches_gauss_newton_at_optimum():
    problem, _ = arc_problem()
    sol = solver.gauss_newton(problem)
    refactored = solver.factorize(
        solver.Problem(problem.grid, HYPER, problem.measurements, sol.nodes, problem.locks)
    )
    assert refactored.iterations == 0
    for a, b in zip(refactored.marginal_covs, sol.marginal_covs):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_sample_posterior_counts_and_locks():
    problem, _ = arc_problem()
    sol = solver.gauss_newton(problem)
    assert len(solver.sample_posterior(sol, 0, np.random.default_rng(0))) == 0
    samples = solver.sample_posterior(sol, 5, np.random.default_rng(0))
    assert len(samples) == 5
    for sample in samples:
        np.testing.assert_array_equal(sample[0].T, sol.nodes[0].T)
        np.testing.assert_array_equal(sample[-1].eps[3:], sol.nodes[-1].eps[3:])
        for node in sample:
            se3.check_pose(node.T)


def test_sample_posterior_covariance_matches_marginals():
    eps_true = np.array([1.0, 0, 0, 0, 0.5, 0])
    grid = prior.uniform_grid(0.4, 4)
    truth = rollout_guess(grid, eps_true)
    ms = sensors([pose(grid[-1], truth[-1].T.copy(), 0.01 * np.eye(6))])
    problem = solver.Problem(grid, HYPER, ms, study.straight_guess(grid, HYPER))
    sol = solver.gauss_newton(problem)
    samples = solver.sample_posterior(sol, 20000, np.random.default_rng(3))
    nodes = [1, 4]
    xi = se3.log_se3(samples.T[:, nodes] @ se3.pose_inverse(sol.nodes.T[nodes]))
    devs = np.concatenate([xi, samples.eps[:, nodes] - sol.nodes.eps[nodes]], axis=-1)
    for i, k in enumerate(nodes):
        emp = np.cov(devs[:, i].T)
        ref = sol.marginal_covs[k]
        assert np.abs(emp - ref).max() < 0.05 * np.abs(ref).max()


def looped_linearization(problem, nodes):
    """Full normal-equation blocks and cost, one interval and one
    measurement at a time through the factor functions."""
    grid, n = problem.grid, problem.grid.size
    H_diag, H_off, b = np.zeros((n, 12, 12)), np.zeros((n - 1, 12, 12)), np.zeros((n, 12))
    cost = 0.0
    for k in range(1, n):
        e, E = prior_terms(nodes[k - 1], nodes[k])
        Qi = prior.process_cov_inv(grid[k] - grid[k - 1], problem.hyper)
        E1, E2 = E[:, 0:12], E[:, 12:24]
        H_diag[k - 1] += E1.T @ Qi @ E1
        H_diag[k] += E2.T @ Qi @ E2
        H_off[k - 1] += E1.T @ Qi @ E2
        b[k - 1] -= E1.T @ Qi @ e
        b[k] -= E2.T @ Qi @ e
        cost += 0.5 * e @ Qi @ e
    for m, k in sensors_at_nodes(problem):
        e, E = measurement_terms(m, nodes[k])
        Ri = np.linalg.inv(m.R[np.ix_(m.mask, m.mask)])
        H_diag[k] += E.T @ Ri @ E
        b[k] -= E.T @ Ri @ e
        cost += 0.5 * e @ Ri @ e
    return H_diag, H_off, b, cost


def test_linearize_matches_looped_factors(props, small_dataset):
    from rodgp import rodsim

    _, shape = small_dataset[0]
    config = study.ScenarioConfig(rodsim.Scenario.STRAIN_PLUS_TIP_POSE)
    measurements = rodsim.extract_measurements(
        shape, config.scenario, props, config.noise, np.random.default_rng(4)
    )
    hyper = config.hyperparams()
    grid = study.estimation_grid(props.total_length, config.num_intervals, measurements.s)
    guess = study.straight_guess(grid, hyper)
    problem = solver.Problem(grid, hyper, measurements, guess, config.locks(grid.size))
    assert grid.size == 43
    sol = solver.gauss_newton(problem)
    midpoint = [
        StateNode(
            a.s,
            se3.exp_se3(0.5 * se3.log_se3(b.T @ se3.pose_inverse(a.T))) @ a.T,
            0.5 * (a.eps + b.eps),
        )
        for a, b in zip(guess, sol.nodes)
    ]
    for nodes in (guess, midpoint, sol.nodes):
        fused = linearize_one(problem, nodes)
        looped = looped_linearization(problem, nodes)
        for got, ref in zip(fused[:3], looped[:3]):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        np.testing.assert_allclose(fused[3], looped[3], rtol=1e-12)
    # Gauss-Newton prices each iterate with the pass that linearises it.
    np.testing.assert_allclose(sol.cost_history[-1], looped[3], rtol=1e-12)


def stacked_system(gen, n, batch=()):
    """Random SPD block-tridiagonal system as stacked (D, U, b) arrays."""
    D = np.empty(batch + (n, 12, 12))
    U = np.empty(batch + (n - 1, 12, 12))
    b = np.empty(batch + (n, 12))
    for idx in np.ndindex(*batch):
        diag, off, rhs = random_block_system(gen, [12] * n)
        D[idx], b[idx] = np.stack(diag), np.stack(rhs)
        U[idx] = np.stack(off) if off else np.zeros((0, 12, 12))
    return D, U, b


def dense_stacked(D, U):
    return dense_from_blocks(list(D), list(U))[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 43, 201])
def test_cyclic_reduction_matches_dense_solve_and_inverse(n):
    gen = np.random.default_rng(600 + n)
    D, U, b = stacked_system(gen, n)
    A = dense_stacked(D, U)
    factor = solver.cr_factor(D, U)
    x = solver.cr_solve(factor, b)
    expected = np.linalg.solve(A, b.ravel()).reshape(n, 12)
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
    P, C = solver.cr_marginals(factor)
    assert P.shape == (n, 12, 12) and C.shape == (n - 1, 12, 12)
    inv = np.linalg.inv(A)
    tol = 1e-12 * np.abs(inv).max()
    for k in range(n):
        np.testing.assert_allclose(P[k], inv[12 * k : 12 * k + 12, 12 * k : 12 * k + 12], rtol=0, atol=tol)
    for k in range(n - 1):
        np.testing.assert_allclose(C[k], inv[12 * k : 12 * k + 12, 12 * k + 12 : 12 * k + 24], rtol=0, atol=tol)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_cyclic_reduction_samples_have_the_inverse_as_covariance(n):
    # Draws are linear in z, so pushing the unit vectors through gives the
    # square root M of the covariance, which must satisfy M M^T = A^-1.
    gen = np.random.default_rng(700 + n)
    D, U, _ = stacked_system(gen, n)
    unit = np.eye(12 * n).reshape(12 * n, n, 12)
    M = solver.cr_sample(solver.cr_factor(D, U), unit).reshape(12 * n, 12 * n).T
    inv = np.linalg.inv(dense_stacked(D, U))
    np.testing.assert_allclose(M @ M.T, inv, rtol=0, atol=1e-12 * np.abs(inv).max())


def test_cyclic_reduction_leading_axis_matches_separate_calls():
    gen = np.random.default_rng(11)
    D, U, b = stacked_system(gen, 43, batch=(2,))
    z = gen.standard_normal((3, 2, 43, 12))
    factor = solver.cr_factor(D, U)
    x = solver.cr_solve(factor, b)
    P, C = solver.cr_marginals(factor)
    samples = solver.cr_sample(factor, z)
    assert x.shape == (2, 43, 12) and P.shape == (2, 43, 12, 12) and samples.shape == (3, 2, 43, 12)
    for r in range(2):
        single = solver.cr_factor(D[r], U[r])
        P_r, C_r = solver.cr_marginals(single)
        np.testing.assert_allclose(x[r], solver.cr_solve(single, b[r]), rtol=1e-13, atol=0)
        np.testing.assert_allclose(P[r], P_r, rtol=0, atol=1e-15 * np.abs(P_r).max())
        np.testing.assert_allclose(C[r], C_r, rtol=0, atol=1e-15 * np.abs(P_r).max())
        np.testing.assert_allclose(samples[:, r], solver.cr_sample(single, z[:, r]), rtol=1e-13, atol=1e-15)


def test_pinned_locks_match_the_ragged_assembled_system():
    grid = prior.uniform_grid(0.8, 4)
    eps = np.array([1.0, 0.02, -0.01, 0.3, -0.2, 0.1])
    nodes = rollout_guess(grid, eps)
    ms = sensors(
        [
            pose(grid[2], se3.exp_se3(0.1 * np.ones(6)) @ nodes[2].T, 0.01 * np.eye(6)),
            strain(grid[4], eps + 0.05, 0.02 * np.eye(6)),
        ]
    )
    problem = solver.Problem(grid, HYPER, ms, nodes, solver.default_locks(5, tip_strain=True))
    A, rhs = dense_normal_equations(problem, nodes)
    free = ~problem.locks
    x_ref = np.zeros((5, 12))
    x_ref[free] = np.linalg.solve(A, rhs)
    P_ref = np.zeros((60, 60))
    keep = np.flatnonzero(free.ravel())
    P_ref[np.ix_(keep, keep)] = np.linalg.inv(A)

    D, U, b = pin(free, *linearize_one(problem, nodes)[:3])
    factor = solver.cr_factor(D, U)
    x = solver.cr_solve(factor, b)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-10 * np.abs(x_ref).max())
    assert not x[problem.locks].any()
    sol = solver.factorize(problem)
    tol = 1e-10 * np.abs(P_ref).max()
    for k in range(5):
        np.testing.assert_allclose(sol.marginal_covs[k], P_ref[12 * k : 12 * k + 12, 12 * k : 12 * k + 12], atol=tol)
    for k in range(4):
        np.testing.assert_allclose(sol.joint_covs[k], P_ref[12 * k : 12 * k + 24, 12 * k : 12 * k + 24], atol=tol)


@pytest.mark.parametrize("bad", [1, 3, 2, 4, 0])
def test_cyclic_reduction_rejects_indefinite_at_every_level(bad):
    # With 5 nodes, level 0 eliminates nodes 1 and 3, level 1 node 2,
    # level 2 node 4, and node 0 is the root.
    gen = np.random.default_rng(5)
    D, U, _ = stacked_system(gen, 5)
    D[bad] = -D[bad]
    with pytest.raises(np.linalg.LinAlgError):
        solver.cr_factor(D, U)


def spd_blocks(gen, shape, w):
    """Random SPD (*shape, w, w) blocks, as random_block_system draws them."""
    M = gen.standard_normal(shape + (w, w))
    return M @ np.swapaxes(M, -1, -2) + 3.0 * w * np.eye(w)


# Odd-node counts one below the substitution switch, at it and above it.
SWITCH_SIDES = [solver.SUBSTITUTION_NODES - 1, solver.SUBSTITUTION_NODES, 3 * solver.SUBSTITUTION_NODES]


@pytest.mark.parametrize("w", [12, 2])
@pytest.mark.parametrize("h", SWITCH_SIDES)
def test_inverse_cholesky_factors_match_numpy_inverse(h, w):
    D = spd_blocks(np.random.default_rng(h + w), (8, h), w)
    ref = np.linalg.inv(np.linalg.cholesky(D))
    Li = solver._inverse_cholesky(D)
    deviation = np.abs(Li - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert deviation.max() <= 1e-15
    assert not np.triu(Li, 1).any()


@pytest.mark.parametrize("w", [12, 2])
@pytest.mark.parametrize("h", SWITCH_SIDES)
def test_inverse_cholesky_factors_reject_an_indefinite_block(h, w):
    D = spd_blocks(np.random.default_rng(h), (2, h), w)
    D[1, h // 2] = -D[1, h // 2]
    with pytest.raises(np.linalg.LinAlgError):
        solver._inverse_cholesky(D)
    # In a system whose first level eliminates h odd nodes.
    D, U, _ = stacked_system(np.random.default_rng(h), 2 * h + 1)
    D[2 * (h // 2) + 1] *= -1.0
    with pytest.raises(np.linalg.LinAlgError):
        solver.cr_factor(D[..., :w, :w], U[..., :w, :w])


@pytest.mark.parametrize("h", SWITCH_SIDES)
def test_one_run_factor_equals_its_run_in_a_batch(h):
    # 2 h + 1 nodes: the first level has h odd nodes, later levels fewer.
    D, U, _ = stacked_system(np.random.default_rng(h), 2 * h + 1, batch=(8,))
    levels, root = solver.cr_factor(D, U)
    for r in (0, 5):
        levels_r, root_r = solver.cr_factor(D[r], U[r])
        for (Li, W), (Li_r, W_r) in zip(levels, levels_r, strict=True):
            np.testing.assert_array_equal(Li[r], Li_r)
            np.testing.assert_array_equal(W[r], W_r)
        np.testing.assert_array_equal(root[r], root_r)


def test_posterior_samples_keep_every_locked_dimension_at_the_estimate():
    problem, _ = arc_problem()
    sol = solver.gauss_newton(problem)
    samples = solver.sample_posterior(sol, 6, np.random.default_rng(2))
    est = sol.nodes
    for stack in samples:
        np.testing.assert_array_equal(stack.T[0], est.T[0])
        np.testing.assert_array_equal(stack.eps[:, 0:3], est.eps[:, 0:3])
        np.testing.assert_array_equal(stack.eps[-1], est.eps[-1])
        assert np.all(stack.eps[1:-1, 3:6] != est.eps[1:-1, 3:6])


def test_problem_tells_one_run_from_a_batch():
    problem, _ = arc_problem()
    sol = solver.gauss_newton(problem)
    one = solver.Problem(problem.grid, HYPER, problem.measurements, sol.nodes, problem.locks)
    assert not one.batched and one.guess.T.shape == (1, problem.grid.size, 4, 4)
    np.testing.assert_array_equal(one.guess.T[0], sol.nodes.T)
    np.testing.assert_array_equal(one.guess.s[0], problem.grid)
    # A list of stacks is a batch of their runs.
    guesses = [sol.nodes, problem.initial_guess]
    batch = solver.Problem(problem.grid, HYPER, [problem.measurements] * 2, guesses, problem.locks)
    assert batch.batched and batch.guess.T.shape == (2, problem.grid.size, 4, 4)
    np.testing.assert_array_equal(batch.guess.T[0], sol.nodes.T)
    np.testing.assert_array_equal(batch.guess.eps[1], problem.initial_guess.eps)
    # A warm start from the solution stops within the step tolerance.
    warm = solver.gauss_newton(solver.Problem(problem.grid, HYPER, problem.measurements, sol.nodes, problem.locks))
    assert warm.converged and warm.iterations == 1
    np.testing.assert_allclose(warm.nodes.T, sol.nodes.T, rtol=0, atol=problem.step_tol)


def test_problem_rejects_node_lists_naming_the_accepted_forms():
    problem, _ = arc_problem()
    nodes = list(problem.initial_guess)
    for guess in (nodes, [nodes, nodes], []):
        with pytest.raises(TypeError, match=r"one StateNode with s \(n,\), or a list of them, one per run"):
            solver.Problem(problem.grid, HYPER, problem.measurements, guess, problem.locks)


def test_stacked_measurement_information_masks_each_covariance():
    gen = np.random.default_rng(4)
    grid = prior.uniform_grid(1.0, 4)
    guess = study.straight_guess(grid, HYPER)
    masks = [[True] * 6, [True, False, True, False, True, True], [False, False, False, True, True, True]]
    measurements = []
    for k, mask in zip((1, 2, 4), masks):
        M = gen.standard_normal((6, 6))
        R = M @ M.T + np.eye(6)
        measurements.append(pose(grid[k], se3.exp_se3(0.1 * gen.standard_normal(6)), R, np.array(mask)))
        measurements.append(strain(grid[k], gen.standard_normal(6), 2.0 * R, np.array(mask)[::-1]))
    problem = solver.Problem(grid, HYPER, sensors(measurements), guess)
    for stack, kind in ((problem.pose_stack, "pose"), (problem.strain_stack, "strain")):
        picked = [m for m in measurements if m.kind == kind]
        nodes, info, values = stack
        np.testing.assert_array_equal(nodes, [1, 2, 4])
        assert values.shape[:2] == (1, 3)
        for m, got in zip(picked, info):
            expected = np.zeros((6, 6))
            expected[np.ix_(m.mask, m.mask)] = np.linalg.inv(m.R[np.ix_(m.mask, m.mask)])
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())
            assert np.all(got[~m.mask] == 0.0) and np.all(got[:, ~m.mask] == 0.0)
    # Runs of a batch must share the measurement layout.
    other = list(measurements)
    other[1] = strain(grid[1], np.zeros(6), 3.0 * other[1].R, other[1].mask)
    for second in (other, measurements[:-1], measurements[1:] + measurements[:1]):
        with pytest.raises(ValueError, match="must share their measurement nodes, kinds and covariances"):
            solver.Problem(grid, HYPER, [sensors(measurements), sensors(second)], [guess, guess])
    # A list of containers is the batch of their runs, their values stacked.
    one = sensors(measurements)
    second = dataclasses.replace(one, T_meas=se3.exp_se3(0.01 * np.ones(6)) @ one.T_meas, eps_meas=one.eps_meas + 0.1)
    batch = solver.Problem(grid, HYPER, [one, second], [guess, guess])
    np.testing.assert_array_equal(batch.pose_stack[2], np.stack([one.T_meas, second.T_meas]))
    np.testing.assert_array_equal(batch.strain_stack[2], np.stack([one.eps_meas, second.eps_meas]))
    with pytest.raises(ValueError, match="one run of measured values per initial guess"):
        solver.Problem(grid, HYPER, [one, second], guess)
    with pytest.raises(ValueError, match="one run of measured values per initial guess"):
        solver.Problem(grid, HYPER, [one] * 3, [guess, guess])

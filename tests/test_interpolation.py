import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodgp import interpolation as interp
from rodgp import prior, rodsim, se3, solver, study
from rodgp.prior import PriorHyperparams, StateNode

from conftest import arc_problem
from oracles import sensors, stack_nodes

HYPER = PriorHyperparams(np.diag([0.01] * 6), np.array([1.0, 0, 0, 0, 0, 0]))


def factorized_solution(nodes, hyper=HYPER):
    """Solution pinned at the given nodes, root fully locked, unmeasured."""
    grid = np.array([n.s for n in nodes])
    locks = np.zeros((grid.size, 12), dtype=bool)
    locks[0, :] = True
    problem = solver.Problem(grid, hyper, sensors([]), stack_nodes(nodes), locks)
    return solver.factorize(problem)


def gain_matrices(tau, s_k, s_k1):
    """12x12 gains (Lambda, Psi): the scalar gains expanded with kron6."""
    g = interp.gains(tau, s_k, s_k1)
    return prior.kron6(g[..., 0:2], np.eye(6)), prior.kron6(g[..., 2:4], np.eye(6))


def test_interp_matrices_endpoints():
    Lam, Psi = gain_matrices(0.2, 0.2, 0.5)
    np.testing.assert_allclose(Lam, np.eye(12), atol=1e-12)
    np.testing.assert_allclose(Psi, np.zeros((12, 12)), atol=1e-12)
    Lam, Psi = gain_matrices(0.5, 0.2, 0.5)
    np.testing.assert_allclose(Lam, np.zeros((12, 12)), atol=1e-9)
    np.testing.assert_allclose(Psi, np.eye(12), atol=1e-9)


def test_interp_matrices_rejects_outside():
    with pytest.raises(ValueError):
        interp.gains(0.6, 0.2, 0.5)
    with pytest.raises(ValueError):
        interp.gains(0.3, 0.5, 0.2)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99, allow_nan=False))
def test_interp_reproduces_transition_rollouts(frac):
    # When the right knot is the transitioned left knot, the interpolant
    # follows the transition at every interior arclength.
    tau = 0.1 + 0.4 * frac
    Lam, Psi = gain_matrices(tau, 0.1, 0.5)
    gamma = np.arange(1.0, 13.0)
    lhs = Lam @ gamma + Psi @ (prior.transition(0.5, 0.1) @ gamma)
    np.testing.assert_allclose(lhs, prior.transition(tau, 0.1) @ gamma, atol=1e-8)


def test_query_state_at_nodes_is_exact():
    eps = np.array([1.0, 0, 0, 0.2, -0.1, 0.3])
    grid = prior.uniform_grid(1.0, 5)
    nodes = [StateNode(s, se3.exp_se3(s * eps), eps.copy()) for s in grid]
    sol = factorized_solution(nodes)
    states, covs = interp.query(sol, grid)
    for k in range(grid.size):
        np.testing.assert_array_equal(states.T[k], nodes[k].T)
        np.testing.assert_array_equal(states.eps[k], nodes[k].eps)
        np.testing.assert_allclose(covs[k], sol.marginal_covs[k], atol=1e-14)


def test_query_outside_grid_raises():
    sol = factorized_solution(study.straight_guess(prior.uniform_grid(1.0, 4), HYPER))
    with pytest.raises(ValueError):
        interp.query(sol, -0.1)
    with pytest.raises(ValueError):
        interp.query(sol, 1.1)


def test_constant_strain_nodes_interpolate_on_geodesic():
    eps = np.array([1.0, 0, 0, 0.4, -0.2, 0.25])
    grid = prior.uniform_grid(1.2, 4)
    nodes = [StateNode(s, se3.exp_se3(s * eps), eps.copy()) for s in grid]
    sol = factorized_solution(nodes)
    taus = np.linspace(0.01, 1.19, 23)
    for tau, state in zip(taus, interp.query(sol, taus)[0]):
        dev = se3.log_se3(state.T @ se3.pose_inverse(se3.exp_se3(tau * eps)))
        assert np.abs(dev).max() < 1e-9
        np.testing.assert_allclose(state.eps, eps, atol=1e-9)


def test_translation_nodes_interpolate_as_cubic_hermite():
    # Identity rotations with purely translational strains reduce the
    # interpolant to scalar Hermite data, so each position coordinate
    # must follow the cubic through (p, v) at both knots.
    p_l, v_l = np.zeros(3), np.array([1.0, 0.3, -0.2])
    p_r, v_r = np.array([0.1, 0.02, 0.01]), np.array([1.0, -0.4, 0.5])
    ds = 0.1
    nodes = [
        StateNode(0.0, se3.pose_from_parts(np.eye(3), p_l), np.concatenate([v_l, np.zeros(3)])),
        StateNode(ds, se3.pose_from_parts(np.eye(3), p_r), np.concatenate([v_r, np.zeros(3)])),
    ]
    sol = factorized_solution(nodes)
    taus = np.linspace(0.0, ds, 21)
    positions = interp.query(sol, taus)[0].T[:, :3, 3]
    for axis in range(3):
        coeffs = np.polyfit(taus, positions[:, axis], 3)
        residual = np.abs(np.polyval(coeffs, taus) - positions[:, axis]).max()
        assert residual < 1e-9
        deriv = np.polyder(np.poly1d(coeffs))
        np.testing.assert_allclose(deriv(0.0), v_l[axis], atol=1e-6)
        np.testing.assert_allclose(deriv(ds), v_r[axis], atol=1e-6)


def test_query_cov_symmetric_psd():
    problem, _ = arc_problem()
    sol = solver.gauss_newton(problem)
    grid = sol.grid
    for P in interp.query(sol, np.linspace(grid[0], grid[-1], 17)[1:])[1]:
        np.testing.assert_allclose(P, P.T, atol=1e-10)
        assert np.linalg.eigvalsh(P).min() > -1e-10


def scenario_problem(props, shape, seed=0):
    config = study.ScenarioConfig(rodsim.Scenario.POSE_AT_SEGMENT_ENDS)
    rng = np.random.default_rng(seed)
    measurements = rodsim.extract_measurements(
        shape, config.scenario, props, config.noise, rng
    )
    hyper = config.hyperparams()
    grid = study.estimation_grid(
        props.total_length, config.num_intervals, measurements.s
    )
    guess = study.straight_guess(grid, hyper)
    return solver.Problem(grid, hyper, measurements, guess, config.locks(grid.size))


def test_inserted_node_close_to_interpolant(props, small_dataset):
    # Re-solving with a measurement-free node inserted shifts the optimum
    # slightly (the restarted prior is not insertion-invariant at second
    # order), so interpolated queries agree with the re-solve only to the
    # measured few-1e-3 level, not to solver precision.
    _, shape = small_dataset[0]
    problem = scenario_problem(props, shape)
    sol = solver.gauss_newton(problem)
    assert sol.converged
    grid = sol.grid
    gen = np.random.default_rng(21)
    taus = gen.uniform(grid[0] + 1e-3, grid[-1] - 1e-3, 3)
    for tau, state, cov in zip(taus, *interp.query(sol, taus)):
        grid2 = np.sort(np.append(grid, tau))
        guess2 = study.straight_guess(grid2, problem.hyper)
        locks2 = solver.default_locks(grid2.size)
        sol2 = solver.gauss_newton(
            solver.Problem(grid2, problem.hyper, problem.measurements, guess2, locks2)
        )
        assert sol2.converged
        k = int(np.argmin(np.abs(grid2 - tau)))
        node2 = sol2.nodes[k]
        cov2 = sol2.marginal_covs[k]
        assert np.linalg.norm(state.T[:3, 3] - node2.T[:3, 3]) < 1e-4
        assert np.abs(state.eps - node2.eps).max() < 5e-3
        rel = np.abs(cov - cov2).max() / np.abs(cov2).max()
        assert rel < 5e-3


def test_one_call_query_equals_single_queries(props, small_dataset):
    _, shape = small_dataset[1]
    sol = solver.gauss_newton(scenario_problem(props, shape))
    taus, is_node = study.query_points(sol.grid, 5)
    # More queries than one evaluation chunk, in an order that mixes intervals.
    assert taus.size > interp.QUERY_CHUNK
    order = np.random.default_rng(5).permutation(taus.size)
    states, covs = interp.query(sol, taus[order])
    assert len(states) == taus.size and covs.shape == (taus.size, 12, 12)
    for state, cov, tau, node in zip(states, covs, taus[order], is_node[order]):
        single_states, single_covs = interp.query(sol, tau)
        single = single_states[0]
        assert state.s == single.s == tau
        if node:
            k = int(np.argmin(np.abs(sol.grid - tau)))
            np.testing.assert_array_equal(state.T, sol.nodes[k].T)
            np.testing.assert_array_equal(state.eps, sol.nodes[k].eps)
            np.testing.assert_array_equal(cov, sol.marginal_covs[k])
        np.testing.assert_allclose(state.T, single.T, rtol=0, atol=1e-15)
        np.testing.assert_allclose(state.eps, single.eps, rtol=1e-14, atol=1e-15)
        single_cov = single_covs[0]
        np.testing.assert_allclose(cov, single_cov, rtol=0, atol=1e-14 * np.abs(single_cov).max())
    with pytest.raises(ValueError):
        interp.query(sol, np.array([0.1, sol.grid[-1] + 1e-3]))


def dense_query(solution, tau):
    """One interior query by the dense formula: 12x12 gains
    Psi = Q_tau Phi^T Q^-1 and Lambda = Phi - Psi Phi applied to the knots,
    and the local covariance Q_tau + [Lambda, Psi] D [Lambda, Psi]^T."""
    grid, hyper, nodes = solution.grid, solution.hyper, solution.nodes
    k = int(np.clip(np.searchsorted(grid, tau, side="right") - 1, 0, grid.size - 2))
    s_k, s_k1 = grid[k], grid[k + 1]
    Q_tau = prior.process_cov(tau - s_k, hyper)
    Psi = Q_tau @ prior.transition(s_k1, tau).T @ prior.process_cov_inv(s_k1 - s_k, hyper)
    Lam = prior.transition(tau, s_k) - Psi @ prior.transition(s_k1, s_k)
    np.testing.assert_allclose(np.hstack(gain_matrices(tau, s_k, s_k1)), np.hstack([Lam, Psi]),
                               rtol=0, atol=1e-14 * np.abs(Psi).max())
    xi = se3.log_se3(nodes.T[k + 1] @ se3.pose_inverse(nodes.T[k]))
    J_inv = se3.left_jacobian_inv(xi)
    gamma = Lam @ np.concatenate([np.zeros(6), nodes.eps[k]]) + Psi @ np.concatenate([xi, J_inv @ nodes.eps[k + 1]])
    J = se3.left_jacobian(gamma[:6])
    eps = J @ gamma[6:]
    G = np.zeros((24, 24))
    G[0:12, 0:12] = interp._lower(np.eye(6), 0.5 * se3.curly_hat(nodes.eps[k]))
    G[12:24, 12:24] = interp._lower(J_inv, 0.5 * se3.curly_hat(nodes.eps[k + 1]) @ J_inv)
    D = G @ solution.joint_covs[k] @ G.T
    D[12:24, 12:24] -= prior.process_cov(s_k1 - s_k, hyper)
    gain = np.hstack([Lam, Psi])
    H = interp._lower(J, -0.5 * J @ se3.curly_hat(eps))
    return se3.exp_se3(gamma[:6]) @ nodes.T[k], eps, H @ (Q_tau + gain @ D @ gain.T) @ H.T


def test_batch_query_matches_the_dense_gains(props, small_dataset):
    problems = [scenario_problem(props, shape, seed) for seed, (_, shape) in enumerate(small_dataset)]
    grid = problems[0].grid
    assert all(np.array_equal(p.grid, grid) for p in problems)
    batch = solver.Problem(grid, problems[0].hyper, [p.measurements for p in problems],
                           [p.initial_guess for p in problems], problems[0].locks)
    solutions = solver.gauss_newton(batch)
    taus, is_node = study.query_points(grid, 3)
    order = np.random.default_rng(8).permutation(taus.size)
    taus, is_node = taus[order], is_node[order]
    # Several chunks over the flattened (run, query) axis, intervals mixed.
    assert len(solutions) * np.count_nonzero(~is_node) > 2 * interp.QUERY_CHUNK
    states, covs = interp.query(solutions, taus)
    assert len(states) == len(covs) == len(solutions)
    for solution, state, cov in zip(solutions, states, covs):
        assert len(state) == taus.size and cov.shape == (taus.size, 12, 12)
        np.testing.assert_array_equal(state.s, taus)
        scale = np.abs(cov).max()
        for i, tau in enumerate(taus):
            if is_node[i]:
                k = int(np.argmin(np.abs(grid - tau)))
                np.testing.assert_array_equal(state.T[i], solution.nodes.T[k])
                np.testing.assert_array_equal(state.eps[i], solution.nodes.eps[k])
                np.testing.assert_array_equal(cov[i], solution.marginal_covs[k])
                continue
            T, eps, P = dense_query(solution, tau)
            np.testing.assert_allclose(state.T[i], T, rtol=0, atol=1e-14)
            np.testing.assert_allclose(state.eps[i], eps, rtol=0, atol=1e-14 * max(1.0, np.abs(eps).max()))
            np.testing.assert_allclose(cov[i], P, rtol=0, atol=1e-12 * scale)

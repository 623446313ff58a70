"""Continuous-arclength queries of a converged estimate.

Between nodes the posterior is conditioned on the two bracketing states
only (the prior is Markovian), so mean and covariance at any arclength
follow from closed-form gain matrices applied to the local variables
gamma = [xi; psi] expressed in the bracketing left node's frame.
"""

from __future__ import annotations

import numpy as np

from . import se3
from .prior import StateNode, process_cov, process_cov_inv, stack_nodes, transition
from .solver import Solution

# Queries this close to a node return that node's estimate.
NODE_HIT_TOL = 1e-12
# Interior queries are evaluated this many at a time.
QUERY_CHUNK = 64


def interp_matrices(tau, s_k, s_k1, hyper):
    """Gain matrices (Lambda, Psi) for a query at tau inside [s_k, s_k1], or stacks."""
    tau, s_k, s_k1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (tau, s_k, s_k1)))
    if not np.all((s_k <= tau) & (tau <= s_k1) & (s_k < s_k1)):
        raise ValueError("query arclength must lie inside the interval")
    # At the left knot the gains are exactly (I, 0); process_cov needs a
    # positive length, so those entries are computed on a stand-in and zeroed.
    Q_tau = process_cov(np.where(tau > s_k, tau - s_k, s_k1 - s_k), hyper)
    Psi = Q_tau @ np.swapaxes(transition(s_k1, tau), -1, -2) @ process_cov_inv(s_k1 - s_k, hyper)
    Psi = np.where((tau == s_k)[..., None, None], 0.0, Psi)
    Lam = transition(tau, s_k) - Psi @ transition(s_k1, s_k)
    return Lam, Psi


def _lower(A, B):
    """12x12 matrices [[A, 0], [B, A]] from stacked 6x6 blocks."""
    out = np.zeros(A.shape[:-2] + (12, 12))
    out[..., 0:6, 0:6] = out[..., 6:12, 6:12] = A
    out[..., 6:12, 0:6] = B
    return out


def query(solutions, taus):
    """Posterior means and covariances at every arclength in taus.

    Returns (states, covs): one StateNode per arclength and an (n, 12, 12)
    array; given a list of Solutions of one problem's runs, one such list
    and array per run. Arclengths on a node return copies of its estimate
    and marginal covariance. Every other query applies the interpolation
    gains, which depend on the grid and the arclength only and so serve
    every run, to the knots of its interval, computed once per interval
    and run, and maps the local covariance back to a left perturbation at
    the queried mean.
    """
    single = isinstance(solutions, Solution)
    batch = [solutions] if single else list(solutions)
    problem = batch[0].problem
    if any(solution.problem is not problem for solution in batch):
        raise ValueError("a batch query needs the solutions of one problem")
    grid, hyper = problem.grid, problem.hyper
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    outside = (taus < grid[0] - NODE_HIT_TOL) | (taus > grid[-1] + NODE_HIT_TOL)
    if outside.any():
        raise ValueError(f"query arclength {taus[outside][0]} outside the grid span")
    states = [[None] * taus.size for _ in batch]
    covs = [np.empty((taus.size, 12, 12)) for _ in batch]
    hits = np.abs(taus[:, None] - grid[None, :]) <= NODE_HIT_TOL
    on_node = np.flatnonzero(hits.any(axis=1))
    node = np.argmax(hits[on_node], axis=1)
    for run, solution in enumerate(batch):
        covs[run][on_node] = solution.marginal_covs[node]
        for i, k in zip(on_node, node):
            states[run][i] = solution.nodes[k].copy()
    inner = np.flatnonzero(~hits.any(axis=1))
    if inner.size == 0:
        return (states[0], covs[0]) if single else (states, covs)

    # Knots of each interval holding a query, in the left node's frame.
    k = np.clip(np.searchsorted(grid, taus[inner], side="right") - 1, 0, grid.size - 2)
    intervals, k_local = np.unique(k, return_inverse=True)
    stacks = [stack_nodes(solution.nodes) for solution in batch]
    T_n, eps_n = np.stack([x.T for x in stacks]), np.stack([x.eps for x in stacks])
    T_l, eps_l, eps_r = T_n[:, intervals], eps_n[:, intervals], eps_n[:, intervals + 1]
    xi = se3.log_se3(T_n[:, intervals + 1] @ se3.pose_inverse(T_l))
    J_inv = se3.left_jacobian_inv(xi)
    gamma_l = np.concatenate([np.zeros_like(eps_l), eps_l], axis=-1)
    gamma_r = np.concatenate([xi, (J_inv @ eps_r[..., None])[..., 0]], axis=-1)
    # The gains and the local prior covariances depend on the grid and the
    # arclengths only, so every run shares them.
    gain = np.concatenate(interp_matrices(taus[inner], grid[k], grid[k + 1], hyper), axis=-1)
    Lam, Psi = gain[..., 0:12], gain[..., 12:24]
    Q_tau = process_cov(taus[inner] - grid[k], hyper)
    Q_knots = process_cov(grid[intervals + 1] - grid[intervals], hyper)

    G = np.zeros((intervals.size, 24, 24))
    for run, solution in enumerate(batch):
        # D: the run's posterior joint covariance of the bracketing nodes in
        # local coordinates, minus the knots' prior covariance in that frame
        # (zero at the anchor). At a knot with local coordinate xi, node
        # perturbations (dt, de) move (dxi, dpsi) by [[J_inv, 0], [0.5
        # curly_hat(eps) J_inv, J_inv]], the first-order coupling of the
        # prior Jacobian.
        G[:, 0:12, 0:12] = _lower(np.broadcast_to(np.eye(6), J_inv.shape[1:]), 0.5 * se3.curly_hat(eps_l[run]))
        G[:, 12:24, 12:24] = _lower(J_inv[run], 0.5 * se3.curly_hat(eps_r[run]) @ J_inv[run])
        D = G @ solution.joint_covs[intervals] @ np.swapaxes(G, -1, -2)
        D[:, 12:24, 12:24] -= Q_knots
        # Bounded chunks over (run, query) keep the temporaries small.
        for lo in range(0, inner.size, QUERY_CHUNK):
            q = slice(lo, lo + QUERY_CHUNK)
            i, j = inner[q], k_local[q]
            gamma = (Lam[q] @ gamma_l[run, j, :, None] + Psi[q] @ gamma_r[run, j, :, None])[..., 0]
            J = se3.left_jacobian(gamma[:, 0:6])
            eps = (J @ gamma[:, 6:12, None])[..., 0]
            T = se3.exp_se3(gamma[:, 0:6]) @ T_l[run, j]
            P_local = Q_tau[q] + gain[q] @ D[j] @ np.swapaxes(gain[q], -1, -2)
            H = _lower(J, -0.5 * J @ se3.curly_hat(eps))
            covs[run][i] = H @ P_local @ np.swapaxes(H, -1, -2)
            for q_i, T_q, eps_q in zip(i, T, eps):
                states[run][q_i] = StateNode(float(taus[q_i]), T_q, eps_q)
    return (states[0], covs[0]) if single else (states, covs)


def query_state(solution: Solution, tau: float) -> StateNode:
    """Posterior mean state at an arbitrary arclength."""
    return query(solution, tau)[0][0]


def query_cov(solution: Solution, tau: float) -> np.ndarray:
    """Posterior 12x12 covariance at an arbitrary arclength."""
    return query(solution, tau)[1][0]

"""Continuous-arclength queries of a converged estimate.

Between nodes the posterior is conditioned on the two bracketing states
only (the prior is Markovian), so mean and covariance at any arclength
follow from closed-form gains applied to the local variables
gamma = [xi; psi] expressed in the bracketing left node's frame.

The gains Lambda = lambda (x) I and Psi = psi (x) I act on whole 6-blocks:
Psi = Q_tau Phi^T Q^-1 and every factor is a 2x2 arclength structure
times Qc, Qc^-1 or I, so Qc cancels and only the 2x4 scalars [lambda, psi]
depend on the query (Barfoot, Tong & Sarkka, RSS 2014).
"""

from __future__ import annotations

import numpy as np

from . import se3
from .prior import StateNode, kron6, process_coeffs, process_coeffs_inv, process_cov, transition_coeffs
from .solver import Solution

# Queries this close to a node return that node's estimate.
NODE_HIT_TOL = 1e-12
# Interior (run, query) pairs are evaluated this many at a time.
QUERY_CHUNK = 128


def gains(tau, s_k, s_k1) -> np.ndarray:
    """(..., 2, 4) scalar gains [lambda, psi] for queries at tau inside [s_k, s_k1]."""
    tau, s_k, s_k1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (tau, s_k, s_k1)))
    if not np.all((s_k <= tau) & (tau <= s_k1) & (s_k < s_k1)):
        raise ValueError("query arclength must lie inside the interval")
    phi_T = np.swapaxes(transition_coeffs(s_k1 - tau), -1, -2)
    psi = process_coeffs(tau - s_k) @ phi_T @ process_coeffs_inv(s_k1 - s_k)
    lam = transition_coeffs(tau - s_k) - psi @ transition_coeffs(s_k1 - s_k)
    return np.concatenate([lam, psi], axis=-1)


def _lower(A, B):
    """12x12 matrices [[A, 0], [B, A]] from stacked 6x6 blocks."""
    out = np.zeros(A.shape[:-2] + (12, 12))
    out[..., 0:6, 0:6] = out[..., 6:12, 6:12] = A
    out[..., 6:12, 0:6] = B
    return out


def _blockwise(M):
    """(..., 16, 36) rearrangement of (..., 24, 24) matrices: row (c, d) and
    column (i, j) hold entry (6c + i, 6d + j), so that the 12x12 product
    (g (x) I) M (g (x) I)^T is kron(g, g) @ this, for 2x4 gains g."""
    return M.reshape(M.shape[:-2] + (4, 6, 4, 6)).swapaxes(-3, -2).reshape(M.shape[:-2] + (16, 36))


def _unblock(M):
    """(..., 12, 12) matrices from their (..., 4, 36) blockwise form."""
    return M.reshape(M.shape[:-2] + (2, 2, 6, 6)).swapaxes(-3, -2).reshape(M.shape[:-2] + (12, 12))


def query(solutions, taus):
    """Posterior means and covariances at every arclength in taus.

    Returns (states, covs): one stacked StateNode over the arclengths and an
    (n, 12, 12) array; given a list of Solutions of one problem's runs, one
    such stack and array per run. Arclengths on a node return copies of its
    estimate and marginal covariance. Every other query applies the scalar
    gains, which depend on the grid and the arclength only and so serve
    every run, to the knots of its interval, computed once per interval
    and run, and maps the local covariance back to a left perturbation at
    the queried mean. The (run, query) pairs are evaluated together, in
    bounded chunks.
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
    R = len(batch)
    T_n = np.stack([solution.nodes.T for solution in batch])
    eps_n = np.stack([solution.nodes.eps for solution in batch])
    T_out, eps_out = np.empty((R, taus.size, 4, 4)), np.empty((R, taus.size, 6))
    covs = np.empty((R, taus.size, 12, 12))
    hits = np.abs(taus[:, None] - grid[None, :]) <= NODE_HIT_TOL
    on_node = hits.any(axis=1)
    node = np.argmax(hits[on_node], axis=1)
    T_out[:, on_node], eps_out[:, on_node] = T_n[:, node], eps_n[:, node]
    for run, solution in enumerate(batch):
        covs[run, on_node] = solution.marginal_covs[node]
    inner = np.flatnonzero(~on_node)

    if inner.size:
        # Knots of each interval holding a query, in the left node's frame,
        # as the rows [0, eps_l, xi, J^-1 eps_r] of 6-blocks.
        k = np.clip(np.searchsorted(grid, taus[inner], side="right") - 1, 0, grid.size - 2)
        intervals, k_local = np.unique(k, return_inverse=True)
        T_l, eps_l, eps_r = T_n[:, intervals], eps_n[:, intervals], eps_n[:, intervals + 1]
        xi, J_inv = se3.log_se3_jacobian_inv(T_n[:, intervals + 1] @ se3.pose_inverse(T_l))
        knots = np.stack([np.zeros_like(eps_l), eps_l, xi, (J_inv @ eps_r[..., None])[..., 0]], axis=-2)
        g = gains(taus[inner], grid[k], grid[k + 1])
        gg = (g[:, :, None, :, None] * g[:, None, :, None, :]).reshape(-1, 4, 16)
        Q_tau = kron6(process_coeffs(taus[inner] - grid[k]), hyper.Qc)
        Q_knots = process_cov(grid[intervals + 1] - grid[intervals], hyper)

        D = np.empty((R, intervals.size, 16, 36))
        G = np.zeros((intervals.size, 24, 24))
        for run, solution in enumerate(batch):
            # The run's posterior joint covariance of the bracketing nodes in
            # local coordinates, minus the knots' prior covariance in that
            # frame (zero at the anchor). At a knot with local coordinate xi,
            # node perturbations (dt, de) move (dxi, dpsi) by [[J_inv, 0],
            # [0.5 curly_hat(eps) J_inv, J_inv]], the first-order coupling of
            # the prior Jacobian.
            G[:, 0:12, 0:12] = _lower(np.broadcast_to(np.eye(6), J_inv.shape[1:]), 0.5 * se3.curly_hat(eps_l[run]))
            G[:, 12:24, 12:24] = _lower(J_inv[run], 0.5 * se3.curly_hat(eps_r[run]) @ J_inv[run])
            D_run = G @ solution.joint_covs[intervals] @ np.swapaxes(G, -1, -2)
            D_run[:, 12:24, 12:24] -= Q_knots
            D[run] = _blockwise(D_run)

        # One flattened (run, query) axis, in bounded chunks.
        for lo in range(0, R * inner.size, QUERY_CHUNK):
            flat = np.arange(lo, min(lo + QUERY_CHUNK, R * inner.size))
            run, q = np.divmod(flat, inner.size)
            j = k_local[q]
            gamma = g[q] @ knots[run, j]
            J = se3.left_jacobian(gamma[:, 0])
            eps = (J @ gamma[:, 1, :, None])[..., 0]
            T_out[run, inner[q]] = se3.exp_se3_from_jacobian(gamma[:, 0], J) @ T_l[run, j]
            eps_out[run, inner[q]] = eps
            P_local = Q_tau[q] + _unblock(gg[q] @ D[run, j])
            H = _lower(J, -0.5 * J @ se3.curly_hat(eps))
            covs[run, inner[q]] = H @ P_local @ np.swapaxes(H, -1, -2)

    states = [StateNode(taus, T_out[run], eps_out[run]) for run in range(R)]
    return (states[0], covs[0]) if single else (states, list(covs))


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


def query(solution: Solution, taus):
    """Posterior means and covariances at every arclength in taus.

    Returns (states, covs): one StateNode per arclength and an (n, 12, 12)
    array. Arclengths on a node return copies of its estimate and marginal
    covariance. Every other query applies the interpolation gains to the
    knots of its interval, computed once per interval, and maps the local
    covariance back to a left perturbation at the queried mean.
    """
    grid, hyper = solution.grid, solution.hyper
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    outside = (taus < grid[0] - NODE_HIT_TOL) | (taus > grid[-1] + NODE_HIT_TOL)
    if outside.any():
        raise ValueError(f"query arclength {taus[outside][0]} outside the grid span")
    states = [None] * taus.size
    covs = np.empty((taus.size, 12, 12))
    hits = np.abs(taus[:, None] - grid[None, :]) <= NODE_HIT_TOL
    for i in np.flatnonzero(hits.any(axis=1)):
        k = int(np.argmax(hits[i]))
        states[i], covs[i] = solution.nodes[k].copy(), solution.marginal_covs[k]
    inner = np.flatnonzero(~hits.any(axis=1))
    if inner.size == 0:
        return states, covs

    # Knots of each interval holding a query, in the left node's frame.
    k = np.clip(np.searchsorted(grid, taus[inner], side="right") - 1, 0, grid.size - 2)
    intervals, k_local = np.unique(k, return_inverse=True)
    nodes = stack_nodes(solution.nodes)
    T_l, eps_l, eps_r = nodes.T[intervals], nodes.eps[intervals], nodes.eps[intervals + 1]
    xi = se3.log_se3(nodes.T[intervals + 1] @ se3.pose_inverse(T_l))
    J_inv = se3.left_jacobian_inv(xi)
    gamma_l = np.concatenate([np.zeros_like(eps_l), eps_l], axis=-1)
    gamma_r = np.concatenate([xi, (J_inv @ eps_r[..., None])[..., 0]], axis=-1)
    # D: the posterior joint covariance of the bracketing nodes in local
    # coordinates, minus the knots' prior covariance in that frame (zero at
    # the anchor). At a knot with local coordinate xi, node perturbations
    # (dt, de) move (dxi, dpsi) by [[J_inv, 0], [0.5 curly_hat(eps) J_inv,
    # J_inv]], the first-order coupling of the prior Jacobian.
    G = np.zeros((intervals.size, 24, 24))
    G[:, 0:12, 0:12] = _lower(np.broadcast_to(np.eye(6), J_inv.shape), 0.5 * se3.curly_hat(eps_l))
    G[:, 12:24, 12:24] = _lower(J_inv, 0.5 * se3.curly_hat(eps_r) @ J_inv)
    D = G @ solution.joint_covs[intervals] @ np.swapaxes(G, -1, -2)
    D[:, 12:24, 12:24] -= process_cov(grid[intervals + 1] - grid[intervals], hyper)

    # Bounded chunks keep the per-query temporaries small.
    for lo in range(0, inner.size, QUERY_CHUNK):
        i, k_i, j = inner[lo : lo + QUERY_CHUNK], k[lo : lo + QUERY_CHUNK], k_local[lo : lo + QUERY_CHUNK]
        Lam, Psi = interp_matrices(taus[i], grid[k_i], grid[k_i + 1], hyper)
        gamma = (Lam @ gamma_l[j, :, None] + Psi @ gamma_r[j, :, None])[..., 0]
        J = se3.left_jacobian(gamma[:, 0:6])
        eps = (J @ gamma[:, 6:12, None])[..., 0]
        T = se3.exp_se3(gamma[:, 0:6]) @ T_l[j]
        gain = np.concatenate([Lam, Psi], axis=-1)
        P_local = process_cov(taus[i] - grid[k_i], hyper) + gain @ D[j] @ np.swapaxes(gain, -1, -2)
        H = _lower(J, -0.5 * J @ se3.curly_hat(eps))
        covs[i] = H @ P_local @ np.swapaxes(H, -1, -2)
        for q, tau, T_q, eps_q in zip(i, taus[i], T, eps):
            states[q] = StateNode(float(tau), T_q, eps_q)
    return states, covs


def query_state(solution: Solution, tau: float) -> StateNode:
    """Posterior mean state at an arbitrary arclength."""
    return query(solution, tau)[0][0]


def query_cov(solution: Solution, tau: float) -> np.ndarray:
    """Posterior 12x12 covariance at an arbitrary arclength."""
    return query(solution, tau)[1][0]

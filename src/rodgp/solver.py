"""Batch Gauss-Newton estimator over pose-and-strain node states.

The normal equations of the prior factors 0.5 e_p^T Q^-1 e_p plus the
measurement factors 0.5 e_m^T R^-1 e_m are block tridiagonal with 12-dim
node blocks (one interval couples adjacent nodes only). Factorisation,
solves, and marginal covariance extraction all run in O(K) via a block
Cholesky recursion; nothing ever forms the dense system.

Locked sub-states (boundary conditions) are handled by deleting their rows
and columns, so each node owns between 0 and 12 free dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import measurements as meas_mod
from . import se3
from .prior import PriorHyperparams, StateNode, prior_error, prior_error_jacobian, process_cov_inv
from .prior import stack_nodes, validate_grid

# Measurement arclengths must coincide with grid nodes within this tolerance.
NODE_MATCH_TOL = 1e-9


def default_locks(
    n_nodes: int,
    root_pose: bool = True,
    tip_strain: bool = False,
    translational_strains: bool = False,
) -> np.ndarray:
    """Boolean (n_nodes, 12) array marking fixed sub-states.

    Per node the 12 entries are (pose 0:6, strain 6:12). The defaults pin
    the root pose only; the tip-strain boundary condition is opt-in because
    rods with tip-terminated tendons have a strain jump at the tip that the
    nominal value would contradict.
    """
    locks = np.zeros((n_nodes, 12), dtype=bool)
    if root_pose:
        locks[0, 0:6] = True
    if tip_strain:
        locks[-1, 6:12] = True
    if translational_strains:
        locks[:, 6:9] = True
    return locks


def _stack_measurements(measurements, node_index, kind):
    """Node indices, measured values, and R^-1 on the masked components
    embedded in 6x6 zeros, of every measurement of one kind, as arrays."""
    picked = [(m, k) for m, k in zip(measurements, node_index) if isinstance(m, kind)]
    info = np.zeros((len(picked), 6, 6))
    for i, (m, _) in enumerate(picked):
        info[i][np.ix_(m.mask, m.mask)] = np.linalg.inv(m.R[np.ix_(m.mask, m.mask)])
    values = [m.T_meas if kind is meas_mod.PoseMeasurement else m.eps_meas for m, _ in picked]
    return np.array([k for _, k in picked], dtype=int), np.array(values), info


@dataclass
class Problem:
    """Estimation problem: grid, prior, measurements, initial guess, locks."""

    grid: np.ndarray
    hyper: PriorHyperparams
    measurements: list
    initial_guess: list
    locks: np.ndarray | None = None
    max_iters: int = 20
    step_tol: float = 1e-6

    def __post_init__(self):
        self.grid = validate_grid(self.grid)
        n = self.grid.size
        if len(self.initial_guess) != n:
            raise ValueError(f"initial guess must have {n} nodes")
        for node, s in zip(self.initial_guess, self.grid):
            if abs(node.s - s) > NODE_MATCH_TOL:
                raise ValueError("initial guess arclengths must match the grid")
            se3.check_pose(node.T)
        if self.locks is None:
            self.locks = default_locks(n)
        self.locks = np.array(self.locks, dtype=bool)
        if self.locks.shape != (n, 12):
            raise ValueError(f"locks must be {(n, 12)}, got {self.locks.shape}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        self.meas_node = [self._node_index(m.s) for m in self.measurements]
        self.pose_stack, self.strain_stack = (
            _stack_measurements(self.measurements, self.meas_node, kind)
            for kind in (meas_mod.PoseMeasurement, meas_mod.StrainMeasurement)
        )

    def _node_index(self, s: float) -> int:
        k = int(np.argmin(np.abs(self.grid - s)))
        if abs(self.grid[k] - s) > NODE_MATCH_TOL:
            raise ValueError(f"measurement at s={s} does not coincide with a grid node")
        return k


def linearize(problem: Problem, T, eps):
    """Normal equations without locks, and the cost, at the operating point.

    One stacked pass over all intervals and measurements at poses T (n, 4, 4)
    and strains eps (n, 6). Returns (H_diag, H_off, b, cost): the (n, 12, 12)
    diagonal blocks, the (n - 1, 12, 12) blocks coupling nodes k and k + 1,
    minus the gradient (n, 12), and the prior plus measurement cost.
    """
    grid, n = problem.grid, problem.grid.size
    prev = StateNode(grid[:-1], T[:-1], eps[:-1])
    cur = StateNode(grid[1:], T[1:], eps[1:])
    e = prior_error(prev, cur)
    E = prior_error_jacobian(prev, cur)
    Qi = process_cov_inv(np.diff(grid), problem.hyper)
    Qi_e = np.einsum("kij,kj->ki", Qi, e)
    A = np.einsum("kai,kab,kbj->kij", E, Qi, E, optimize=True)
    g = np.einsum("kai,ka->ki", E, Qi_e)
    H_diag = np.zeros((n, 12, 12))
    H_diag[:-1] += A[:, 0:12, 0:12]
    H_diag[1:] += A[:, 12:24, 12:24]
    b = np.zeros((n, 12))
    b[:-1] -= g[:, 0:12]
    b[1:] -= g[:, 12:24]
    cost = 0.5 * float(np.sum(e * Qi_e))

    # Measurement factors; R^-1 is embedded so masked-out rows weigh zero.
    for (node, value, info), kind in ((problem.pose_stack, "pose"), (problem.strain_stack, "strain")):
        if node.size == 0:
            continue
        E = np.zeros((node.size, 6, 12))
        if kind == "pose":
            e, E[:, :, 0:6] = meas_mod.pose_residual(value, T[node])
        else:
            e, E[:, :, 6:12] = value - eps[node], -np.eye(6)
        info_e = np.einsum("mij,mj->mi", info, e)
        np.add.at(H_diag, node, np.einsum("mai,mab,mbj->mij", E, info, E))
        np.add.at(b, node, -np.einsum("mai,ma->mi", E, info_e))
        cost += 0.5 * float(np.sum(e * info_e))
    return H_diag, A[:, 0:12, 12:24], b, cost


def _reduce(locks, H_diag, H_off, b):
    """Delete the locked rows and columns from full normal equations."""
    free = [np.flatnonzero(~row) for row in locks]
    n = len(free)

    def block(M, rows, cols):
        return M if rows.size == cols.size == 12 else M[np.ix_(rows, cols)]

    diag = [block(H_diag[k], free[k], free[k]) for k in range(n)]
    off = [block(H_off[k], free[k], free[k + 1]) for k in range(n - 1)]
    rhs = [b[k][free[k]] for k in range(n)]
    return diag, off, rhs, free


def assemble(problem: Problem, nodes):
    """Normal equations at an operating point, reduced by the locks.

    Returns (diag, off, rhs, free) where diag[k] is the k-th diagonal
    block, off[k] couples nodes k and k+1, rhs is -gradient, and free[k]
    holds the unlocked dimension indices of node k.
    """
    stack = stack_nodes(nodes)
    H_diag, H_off, b, _ = linearize(problem, stack.T, stack.eps)
    return _reduce(problem.locks, H_diag, H_off, b)


def block_tridiag_cholesky(diag, off):
    """Lower block-bidiagonal Cholesky factors of a block-tridiagonal SPD matrix.

    Returns (L, C) with A[k,k] = L_k L_k^T + C_{k-1} C_{k-1}^T and
    A[k+1,k] = C_k L_k^T. Raises numpy.linalg.LinAlgError when the matrix
    is not positive definite (under-constrained problem).
    """
    n = len(diag)
    L = [None] * n
    C = [None] * (n - 1)
    for k in range(n):
        Ak = np.array(diag[k], dtype=float)
        if k > 0:
            Ak -= C[k - 1] @ C[k - 1].T
        L[k] = np.linalg.cholesky(Ak)
        if k < n - 1:
            C[k] = np.linalg.solve(L[k], off[k]).T
    return L, C


def block_tridiag_solve_factored(L, C, rhs):
    """Solve A x = rhs given the factors from block_tridiag_cholesky."""
    n = len(L)
    y = [None] * n
    for k in range(n):
        r = rhs[k] if k == 0 else rhs[k] - C[k - 1] @ y[k - 1]
        y[k] = np.linalg.solve(L[k], r)
    x = [None] * n
    for k in range(n - 1, -1, -1):
        r = y[k] if k == n - 1 else y[k] - C[k].T @ x[k + 1]
        x[k] = np.linalg.solve(L[k].T, r)
    return x


def solve_block_tridiag(diag, off, rhs):
    """Factor and solve in one call; O(K) in the number of blocks."""
    L, C = block_tridiag_cholesky(diag, off)
    return block_tridiag_solve_factored(L, C, rhs)


def block_tridiag_marginals(L, C):
    """Diagonal and first superdiagonal blocks of the inverse.

    Backward recursion on the Cholesky factors; never forms the dense
    inverse.
    """
    n = len(L)
    P_diag = [None] * n
    P_off = [None] * (n - 1)
    eye = np.eye(L[n - 1].shape[0])
    inv_last = np.linalg.solve(L[n - 1].T, np.linalg.solve(L[n - 1], eye))
    P_diag[n - 1] = inv_last
    for k in range(n - 2, -1, -1):
        eye = np.eye(L[k].shape[0])
        Lk_inv = np.linalg.solve(L[k], eye)
        base = Lk_inv.T @ Lk_inv
        W = np.linalg.solve(L[k].T, C[k].T)
        P_off[k] = -W @ P_diag[k + 1]
        P_diag[k] = base + W @ P_diag[k + 1] @ W.T
    return P_diag, P_off


@dataclass
class Solution:
    """Converged estimate with marginal covariances and factor data."""

    nodes: list
    marginal_covs: np.ndarray
    joint_covs: np.ndarray
    cost_history: list
    iterations: int
    converged: bool
    problem: Problem = field(repr=False)
    chol_L: list = field(repr=False, default=None)
    chol_C: list = field(repr=False, default=None)

    @property
    def grid(self) -> np.ndarray:
        return self.problem.grid

    @property
    def hyper(self) -> PriorHyperparams:
        return self.problem.hyper


def _embed_covariances(P_diag, P_off, locks):
    """Scatter reduced covariance blocks back to full 12-dim node blocks:
    (n, 12, 12) marginals and (n - 1, 24, 24) joints of adjacent nodes."""
    free = ~locks
    marg = np.zeros((len(free), 12, 12))
    marg[free[:, :, None] & free[:, None, :]] = np.concatenate([P.ravel() for P in P_diag])
    off = np.zeros((len(free) - 1, 12, 12))
    off[free[:-1, :, None] & free[1:, None, :]] = np.concatenate([P.ravel() for P in P_off])
    return marg, np.block([[marg[:-1], off], [np.swapaxes(off, -1, -2), marg[1:]]])


def gauss_newton(problem: Problem) -> Solution:
    """Full-step Gauss-Newton with lock-aware block-tridiagonal solves.

    Convergence is declared when the update infinity-norm drops below
    problem.step_tol. A cost increase along the way flags the run as not
    converged even if the step criterion is met later.
    """
    x = stack_nodes(problem.initial_guess)
    system = linearize(problem, x.T, x.eps)
    cost_history = [system[3]]
    converged = False
    monotone = True
    iterations = 0

    for _ in range(problem.max_iters):
        diag, off, rhs, free = _reduce(problem.locks, *system[:3])
        L, C = block_tridiag_cholesky(diag, off)
        full = np.zeros((len(free), 12))
        full[~problem.locks] = np.concatenate(block_tridiag_solve_factored(L, C, rhs))
        x.T = se3.exp_se3(full[:, 0:6]) @ x.T
        x.eps = x.eps + full[:, 6:12]
        iterations += 1
        # The pass that linearises the new nodes also prices them.
        system = linearize(problem, x.T, x.eps)
        # The slack absorbs cost-evaluation noise from exp/log roundtrips
        # near convergence; genuine overshoots are orders larger.
        if system[3] > cost_history[-1] * (1.0 + 1e-6) + 1e-12:
            monotone = False
        cost_history.append(system[3])
        if np.max(np.abs(full)) < problem.step_tol:
            converged = True
            break

    return _finalize(problem, x, system, cost_history, iterations, converged and monotone)


def _finalize(problem, x, system, cost_history, iterations, converged) -> Solution:
    """Factor the system linearised at the stacked nodes x and package the Solution."""
    L, C = block_tridiag_cholesky(*_reduce(problem.locks, *system[:3])[:2])
    marg, joints = _embed_covariances(*block_tridiag_marginals(L, C), problem.locks)
    return Solution(
        nodes=[StateNode(node.s, T, eps) for node, T, eps in zip(problem.initial_guess, x.T, x.eps)],
        marginal_covs=marg,
        joint_covs=joints,
        cost_history=cost_history,
        iterations=iterations,
        converged=converged,
        problem=problem,
        chol_L=L,
        chol_C=C,
    )


def factorize(problem: Problem) -> Solution:
    """Solution at the initial guess without iterating.

    Rebuilds covariance factors at an already-converged estimate, e.g.
    one loaded back from a result file for posterior sampling.
    """
    x = stack_nodes(problem.initial_guess)
    system = linearize(problem, x.T, x.eps)
    return _finalize(problem, x, system, [system[3]], 0, True)


def sample_posterior(solution: Solution, count: int, rng):
    """Draw joint posterior samples x = x_hat (+) L^-T z.

    z is standard normal on the free dimensions; the backward substitution
    against the block Cholesky factor gives samples with covariance A^-1.
    Locked dimensions stay at their estimates.
    """
    rng = np.random.default_rng(rng)
    L, C = solution.chol_L, solution.chol_C
    n = len(L)
    nodes = stack_nodes(solution.nodes)
    samples = []
    for _ in range(count):
        y = [None] * n
        for k in range(n - 1, -1, -1):
            z = rng.standard_normal(L[k].shape[0])
            if k < n - 1:
                z = z - C[k].T @ y[k + 1]
            y[k] = np.linalg.solve(L[k].T, z)
        full = np.zeros((n, 12))
        full[~solution.problem.locks] = np.concatenate(y)
        T = se3.exp_se3(full[:, 0:6]) @ nodes.T
        samples.append([StateNode(s, T[k], nodes.eps[k] + full[k, 6:12]) for k, s in enumerate(nodes.s)])
    return samples

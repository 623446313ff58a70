"""Batch Gauss-Newton estimator over pose-and-strain node states.

The normal equations of the prior factors 0.5 e_p^T Q^-1 e_p plus the
measurement factors 0.5 e_m^T R^-1 e_m are block tridiagonal with 12-dim
node blocks (one interval couples adjacent nodes only). One stacked kernel
factors them by block cyclic reduction, in about log2(K) levels of batched
calls, and serves the step, the marginal and adjacent-node covariances and
posterior samples; nothing ever forms the dense system.

Locked sub-states (boundary conditions) are pinned rather than deleted: a
locked dimension gets a unit diagonal, zero coupling and a zero right-hand
side, and its entries of the step and of the covariances are zeroed
afterwards. Every node block keeps all 12 dimensions, so systems stack:
the runs of one problem (a batch on one grid) are linearised, factored
and solved together, each stopping on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import measurements as meas_mod
from . import se3
from .prior import PriorHyperparams, StateNode, process_cov_inv, prior_terms_from_log, validate_grid

# Measurement arclengths must coincide with grid nodes within this tolerance.
NODE_MATCH_TOL = 1e-9
# A cyclic-reduction level with at least this many odd nodes per system
# inverts their Cholesky factors by batched forward substitution, which
# beats numpy.linalg.inv's LU and full solve on long stacks; shorter levels
# keep inv, whose per-call cost is lower. The choice depends on the node
# axis only, so a batch repeats its one-run solves bit for bit.
SUBSTITUTION_NODES = 8


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


@dataclass
class Problem:
    """Estimation problem: grid, prior, measurements, initial guess, locks.

    measurements is one run's measurements.Measurements and initial_guess
    its nodes, one StateNode with s (n,), or a batch: a list of R
    containers on one layout and a list of R such StateNodes. Every run
    shares the grid, the prior, the locks, the measurement nodes and their
    R^-1, which are held once; the measured values and the initial guesses
    are held as (R, ...) stacks.
    What every iteration reuses is built here once: the lock masks that
    pinning takes, and the strain factors' Hessian, which is R^-1 on the
    strain block of each measured node whatever the iterate.
    """

    grid: np.ndarray
    hyper: PriorHyperparams
    measurements: meas_mod.Measurements | list
    initial_guess: StateNode | list
    locks: np.ndarray | None = None
    max_iters: int = 20
    step_tol: float = 1e-6

    def __post_init__(self):
        self.grid = validate_grid(self.grid)
        n = self.grid.size
        self.batched = not _one_run(self.initial_guess)
        guesses = list(self.initial_guess) if self.batched else [self.initial_guess]
        if not guesses or not all(map(_one_run, guesses)):
            raise TypeError("initial_guess must be one StateNode with s (n,), or a list of them, one per run")
        layout, T_meas, eps_meas = meas_mod.stack_runs(self.measurements)
        if len(T_meas) != len(guesses):
            raise ValueError("need one run of measured values per initial guess")
        if any(len(guess) != n for guess in guesses):
            raise ValueError(f"initial guess must have {n} nodes")
        self.guess = StateNode(*(np.stack([getattr(x, f) for x in guesses]) for f in ("s", "T", "eps")))
        if np.any(np.abs(self.guess.s - self.grid) > NODE_MATCH_TOL):
            raise ValueError("initial guess arclengths must match the grid")
        se3.check_pose(self.guess.T)
        if self.locks is None:
            self.locks = default_locks(n)
        self.locks = np.array(self.locks, dtype=bool)
        if self.locks.shape != (n, 12):
            raise ValueError(f"locks must be {(n, 12)}, got {self.locks.shape}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        # Per kind: the node index and R^-1 of each sensor, and the values.
        node, info, pose = self._node_index(layout.s), layout.information(), layout.kind == "pose"
        self.pose_stack = node[pose], info[pose], T_meas
        self.strain_stack = node[~pose], info[~pose], eps_meas
        self.prior_info = process_cov_inv(np.diff(self.grid), self.hyper)
        self.masks = _lock_masks(~self.locks)
        self.strain_info = np.zeros((n, 12, 12))
        np.add.at(self.strain_info[:, 6:12, 6:12], *self.strain_stack[:2])

    def _node_index(self, s) -> np.ndarray:
        """Grid index of every measurement arclength in the (m,) array s."""
        gap = np.abs(self.grid - s[:, None])
        off = np.min(gap, axis=1, initial=np.inf) > NODE_MATCH_TOL
        if off.any():
            raise ValueError(f"measurement at s={s[off][0]} does not coincide with a grid node")
        return np.argmin(gap, axis=1)


def _one_run(guess) -> bool:
    """Whether an initial guess is one run's nodes, a StateNode with s (n,)."""
    return isinstance(guess, StateNode) and np.ndim(guess.s) == 1


def linearize(problem: Problem, T, eps, runs=slice(None)):
    """Normal equations without locks, and the cost, at the operating point.

    One stacked pass over all intervals and measurements of the problem's
    runs `runs` at poses T (R, n, 4, 4) and strains eps (R, n, 6).
    Returns (H_diag, H_off, b, cost): the (R, n, 12, 12) diagonal blocks,
    the (R, n - 1, 12, 12) blocks coupling nodes k and k + 1, minus the
    gradient (R, n, 12), and the (R,) prior plus measurement costs.
    """
    grid, n = problem.grid, problem.grid.size
    pose_node, pose_info, T_meas = problem.pose_stack
    # One log pass over the relative poses of the intervals, T_k T_{k-1}^-1,
    # and of the pose measurements, T_meas T^-1.
    T_inv = se3.pose_inverse(T)
    rel = np.concatenate([T[:, 1:] @ T_inv[:, :-1], T_meas[runs] @ T_inv[:, pose_node]], axis=1)
    xi, J_inv = se3.log_se3_jacobian_inv(rel)
    J_inv_Ad = J_inv @ se3.adjoint(rel)
    e, E = prior_terms_from_log(
        np.diff(grid), eps[:, :-1], eps[:, 1:], xi[:, : n - 1], J_inv[:, : n - 1], J_inv_Ad[:, : n - 1]
    )
    # The interval couples node k (first 12 columns of E) to node k + 1:
    # E^T Q^-1 E holds both nodes' diagonal blocks and their coupling.
    Qi_e = problem.prior_info @ e[..., None]
    H = (_t(E) @ problem.prior_info) @ E
    g = (_t(E) @ Qi_e)[..., 0]
    H_diag = np.zeros(T.shape[:1] + (n, 12, 12))
    H_diag[:, :-1] += H[..., :12, :12]
    H_diag[:, 1:] += H[..., 12:, 12:]
    H_diag += problem.strain_info
    b = np.zeros(T.shape[:1] + (n, 12))
    b[:, :-1] -= g[..., :12]
    b[:, 1:] -= g[..., 12:]
    H_off = H[..., :12, 12:]
    cost = 0.5 * np.sum(e * Qi_e[..., 0], axis=(-2, -1))

    # Measurement factors; R^-1 is embedded so masked-out rows weigh zero.
    # A pose factor's error is log(T_meas T^-1), with the Jacobian
    # -J(e)^-1 Ad(T_meas T^-1) on its node's pose block.
    if pose_node.size:
        e, J = xi[:, n - 1 :], -J_inv_Ad[:, n - 1 :]
        info_e = pose_info @ e[..., None]
        np.add.at(H_diag[..., 0:6, 0:6], (slice(None), pose_node), _t(J) @ pose_info @ J)
        np.add.at(b[..., 0:6], (slice(None), pose_node), -(_t(J) @ info_e)[..., 0])
        cost += 0.5 * np.sum(e * info_e[..., 0], axis=(-2, -1))
    # A strain factor's error is eps_meas - eps, with the Jacobian -I on its
    # node's strain block; its Hessian is the problem's strain_info.
    strain_node, strain_info, eps_meas = problem.strain_stack
    if strain_node.size:
        e = eps_meas[runs] - eps[:, strain_node]
        info_e = (strain_info @ e[..., None])[..., 0]
        np.add.at(b[..., 6:12], (slice(None), strain_node), info_e)
        cost += 0.5 * np.sum(e * info_e, axis=(-2, -1))
    return H_diag, H_off, b, cost


def _lock_masks(free):
    """The (..., n, w) free mask, and the entries of the diagonal and of the
    coupling blocks whose two dimensions are both free."""
    return free, free[..., :, None] & free[..., None, :], free[..., :-1, :, None] & free[..., 1:, None, :]


def pin(masks, D, U, b):
    """The system with every dimension outside the free mask pinned, given
    the _lock_masks of that mask: unit diagonal, zero coupling and zero
    right-hand side. Its solution and inverse on the free dimensions are
    those of the system with the pinned rows and columns deleted."""
    free, diag_mask, off_mask = masks
    return np.where(diag_mask, D, np.eye(free.shape[-1])), np.where(off_mask, U, 0.0), np.where(free, b, 0.0)


def _t(M):
    return M.swapaxes(-1, -2)


def _pad_right(M, length):
    """The first `length` blocks of M along the node axis, zero past its end."""
    return np.concatenate([M, np.zeros(M.shape[:-3] + (1,) + M.shape[-2:])], axis=-3)[..., :length, :, :]


def _interleave(even, odd):
    """Blocks even[0], odd[0], even[1], ... along the node axis."""
    out = np.empty(odd.shape[:-3] + (even.shape[-3] + odd.shape[-3],) + even.shape[-2:])
    out[..., 0::2, :, :], out[..., 1::2, :, :] = even, odd
    return out


def _joint(P_a, C, P_b):
    """(..., 2w, 2w) joint blocks [[P_a, C], [C^T, P_b]] of adjacent nodes."""
    w = C.shape[-1]
    out = np.empty(C.shape[:-2] + (2 * w, 2 * w))
    out[..., :w, :w], out[..., :w, w:] = P_a, C
    out[..., w:, :w], out[..., w:, w:] = _t(C), P_b
    return out


def _inverse_cholesky(D):
    """Inverses of the Cholesky factors of the diagonal blocks D (..., h, w, w),
    raising numpy.linalg.LinAlgError where a block is not positive definite.

    At h >= SUBSTITUTION_NODES by forward substitution, row by row over the
    stack: row i of L^-1 is -(L[i, :i] / L[i, i]) L^-1[:i, :i], next to its
    diagonal 1 / L[i, i]. Otherwise by numpy.linalg.inv."""
    L = np.linalg.cholesky(D)
    if L.shape[-3] < SUBSTITUTION_NODES:
        return np.linalg.inv(L)
    w = L.shape[-1]
    scale = -1.0 / np.diagonal(L, axis1=-2, axis2=-1)
    Li = np.zeros(L.shape)
    Li.reshape(L.shape[:-2] + (w * w,))[..., :: w + 1] = -scale
    N = L * scale[..., :, None]
    for i in range(1, w):
        np.matmul(N[..., i : i + 1, :i], Li[..., :i, :i], out=Li[..., i : i + 1, :i])
    return Li


def cr_factor(D, U):
    """Block cyclic reduction of a symmetric positive definite
    block-tridiagonal system.

    D (..., n, w, w) holds the diagonal blocks and U (..., n - 1, w, w) the
    blocks coupling node k to node k + 1; leading axes are independent
    systems. Each level eliminates the odd nodes, which couple only to
    their even neighbours, and hands the Schur complement on the even
    nodes, again block tridiagonal, to the next level: about log2(n) levels
    of batched calls. Returns (levels, root): per level the inverse
    Cholesky factors Li of the odd nodes' diagonal blocks and
    W = Li [A[j, j-1], A[j, j+1]] (zero past the last node), then Li of the
    node left at the root. Raises numpy.linalg.LinAlgError when the system
    is not positive definite (under-constrained problem).
    """
    U, w, levels = _pad_right(U, D.shape[-3]), D.shape[-1], []
    while D.shape[-3] > 1:
        h, e = D.shape[-3] // 2, (D.shape[-3] + 1) // 2
        Li = _inverse_cholesky(D[..., 1::2, :, :])
        W = Li @ np.concatenate([_t(U[..., 0 : 2 * h : 2, :, :]), U[..., 1::2, :, :]], axis=-1)
        G = np.ascontiguousarray(_t(W)) @ W
        D = D[..., 0::2, :, :].copy()
        D[..., :h, :, :] -= G[..., :w, :w]
        D[..., 1:, :, :] -= G[..., : e - 1, w:, w:]
        U = np.zeros_like(D)
        U[..., :h, :, :] = -G[..., :w, w:]
        levels.append((Li, W))
    return levels, _inverse_cholesky(D)


def cr_solve(factor, b):
    """Solution x (..., n, w) of the factored system for b (..., n, w).

    The forward sweep whitens b level by level into c = L^-1 b, stored at
    each node's own index, and cr_sample maps c to x = L^-T c.
    """
    c = np.empty(b.shape + (1,))
    view, b, w = c, b[..., None], b.shape[-1]
    for Li, W in factor[0]:
        view[..., 1::2, :, :] = Li @ b[..., 1::2, :, :]
        Wc = _t(W) @ view[..., 1::2, :, :]
        b = b[..., 0::2, :, :].copy()
        b[..., : Li.shape[-3], :, :] -= Wc[..., :w, :]
        b[..., 1:, :, :] -= Wc[..., : b.shape[-3] - 1, w:, :]
        view = view[..., 0::2, :, :]
    view[...] = factor[1] @ b
    return cr_sample(factor, c[..., 0])


def cr_sample(factor, z):
    """x = L^-T z (..., n, w): zero-mean draws whose covariance is the
    inverse of the factored system when z is standard normal. The root is
    drawn first, then each eliminated node j given its two neighbours:
    x_j = Li^T (z_j - W [x_{j-1}; x_{j+1}])."""
    levels, root = factor
    z = [z[..., None]]
    for _ in levels:
        z.append(z[-1][..., 0::2, :, :])
    x = _t(root) @ z[-1]
    for (Li, W), z_level in zip(levels[::-1], z[-2::-1]):
        h = Li.shape[-3]
        x_nb = np.concatenate([x[..., :h, :, :], _pad_right(x[..., 1:, :, :], h)], axis=-2)
        x = _interleave(x, _t(Li) @ (z_level[..., 1::2, :, :] - W @ x_nb))
    return x[..., 0]


def cr_marginals(factor):
    """Diagonal blocks P (..., n, w, w) and blocks C (..., n - 1, w, w)
    coupling node k to node k + 1 of the inverse of the factored system.

    They go down the tree from the root: an eliminated node j with
    neighbours N gets D_j^-1 + F S F^T and cross-covariances -F S, where
    F = D_j^-1 A[j, N] and S is the joint of N, adjacent one level up.
    """
    levels, root = factor
    P = _t(root) @ root
    C = P[..., :0, :, :]
    for Li, W in levels[::-1]:
        h, w = Li.shape[-3], P.shape[-1]
        F, C_n = _t(Li) @ W, _pad_right(C, h)
        G = F @ _joint(P[..., :h, :, :], C_n, _pad_right(P[..., 1:, :, :], h))
        C = _interleave(-_t(G[..., :w]), -G[..., : P.shape[-3] - 1, :, w:])
        P = _interleave(P, _t(Li) @ Li + G @ _t(F))
    return P, C


@dataclass
class Solution:
    """Converged estimate with marginal covariances and factor data, and
    the problem it was solved in (for a batch, the problem of all runs)."""

    nodes: StateNode
    marginal_covs: np.ndarray
    joint_covs: np.ndarray
    cost_history: list
    iterations: int
    converged: bool
    problem: Problem = field(repr=False)
    factor: tuple = field(repr=False, default=None)

    @property
    def grid(self) -> np.ndarray:
        return self.problem.grid

    @property
    def hyper(self) -> PriorHyperparams:
        return self.problem.hyper


def gauss_newton(problem: Problem):
    """Full-step Gauss-Newton with lock-aware block-tridiagonal solves,
    over every run of the problem at once.

    Each iteration factors and solves the systems of the runs still active
    in one cyclic-reduction call. A run freezes when its update
    infinity-norm drops below problem.step_tol (converged) or after
    problem.max_iters iterations; a cost increase along the way flags it
    as not converged even if the step criterion is met later. Returns the
    Solution of a one-run problem and, for a batch, one Solution per run
    in run order. Raises numpy.linalg.LinAlgError when the system of any
    run is not positive definite (under-constrained).
    """
    T, eps = problem.guess.T.copy(), problem.guess.eps.copy()
    H_diag, H_off, b, cost = linearize(problem, T, eps)
    cost_history = [[c] for c in cost.tolist()]
    runs = len(cost_history)
    iterations, converged, monotone = np.zeros(runs, dtype=int), np.zeros(runs, dtype=bool), np.ones(runs, dtype=bool)
    active, masks = np.arange(runs), problem.masks

    for _ in range(problem.max_iters):
        if active.size == 0:
            break
        D, U, rhs = pin(masks, H_diag[active], H_off[active], b[active])
        full = np.where(masks[0], cr_solve(cr_factor(D, U), rhs), 0.0)
        T[active] = se3.exp_se3(full[..., 0:6]) @ T[active]
        eps[active] += full[..., 6:12]
        iterations[active] += 1
        # The pass that linearises the new nodes also prices them.
        H_diag[active], H_off[active], b[active], cost = linearize(problem, T[active], eps[active], active)
        # The slack absorbs cost-evaluation noise from exp/log roundtrips
        # near convergence; genuine overshoots are orders larger.
        for run, c in zip(active, cost.tolist()):
            monotone[run] &= not c > cost_history[run][-1] * (1.0 + 1e-6) + 1e-12
            cost_history[run].append(c)
        done = np.max(np.abs(full), axis=(-2, -1)) < problem.step_tol
        converged[active[done]] = True
        active = active[~done]

    solutions = _finalize(problem, T, eps, (H_diag, H_off), cost_history, iterations, converged & monotone)
    return solutions if problem.batched else solutions[0]


def _finalize(problem, T, eps, system, cost_history, iterations, converged) -> list:
    """Factor the systems linearised at the runs' final nodes (T, eps) in
    one call and package one Solution per run: (n, 12, 12) marginals and
    (n - 1, 24, 24) joints of adjacent nodes, zero on the locked
    dimensions."""
    free, diag_mask, off_mask = problem.masks
    D, U, _ = pin(problem.masks, system[0], system[1], np.zeros(free.shape))
    factor = cr_factor(D, U)
    marg, off = cr_marginals(factor)
    np.copyto(marg, 0.0, where=~diag_mask)
    np.copyto(off, 0.0, where=~off_mask)
    joint = _joint(marg[:, :-1], off, marg[:, 1:])
    return [
        Solution(
            nodes=StateNode(problem.guess.s[run], T[run], eps[run]),
            marginal_covs=marg[run],
            joint_covs=joint[run],
            cost_history=cost_history[run],
            iterations=int(iterations[run]),
            converged=bool(converged[run]),
            problem=problem,
            factor=([(Li[run], W[run]) for Li, W in factor[0]], factor[1][run]),
        )
        for run in range(len(T))
    ]


def factorize(problem: Problem):
    """Solution at the initial guess without iterating, one per run as in
    gauss_newton.

    Rebuilds covariance factors at an already-converged estimate, e.g.
    one loaded back from a result file for posterior sampling.
    """
    guess = problem.guess
    system = linearize(problem, guess.T, guess.eps)
    runs = guess.T.shape[0]
    history = [[c] for c in system[3].tolist()]
    solutions = _finalize(problem, guess.T, guess.eps, system, history, np.zeros(runs), np.ones(runs, dtype=bool))
    return solutions if problem.batched else solutions[0]


def sample_posterior(solution: Solution, count: int, rng):
    """Draw joint posterior samples x = x_hat (+) dx, all in one pass: one
    StateNode with s (count, n), T (count, n, 4, 4) and eps (count, n, 6).

    dx comes from cr_sample on standard normal draws, so its covariance is
    the inverse of the factored system. Locked dimensions stay at their
    estimates.
    """
    rng = np.random.default_rng(rng)
    nodes = solution.nodes
    free = solution.problem.masks[0]
    full = np.where(free, cr_sample(solution.factor, rng.standard_normal((count,) + free.shape)), 0.0)
    T = se3.exp_se3(full[..., 0:6]) @ nodes.T
    eps = nodes.eps + full[..., 6:12]
    return StateNode(np.broadcast_to(nodes.s, (count,) + nodes.s.shape), T, eps)

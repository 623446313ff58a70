"""White-noise-on-strain-derivative prior over rod states.

The state at arclength s is a pose T(s) together with a body-frame strain
(twist per unit arclength) eps(s). Between grid nodes the strain derivative
is modelled as white noise with power spectral density Qc, which makes the
stacked variable gamma = [xi; psi] (local pose increment and its arclength
derivative) a linear SDE with closed-form transition and process noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se3


@dataclass(frozen=True)
class PriorHyperparams:
    """Power spectral density Qc (6x6 SPD) and nominal strain eps_bar."""

    Qc: np.ndarray
    eps_bar: np.ndarray

    def __post_init__(self):
        Qc = np.array(self.Qc, dtype=float)
        eps_bar = np.array(self.eps_bar, dtype=float)
        if Qc.shape != (6, 6):
            raise ValueError(f"Qc must be 6x6, got {Qc.shape}")
        if eps_bar.shape != (6,):
            raise ValueError(f"eps_bar must be length 6, got {eps_bar.shape}")
        if not np.all(np.isfinite(Qc)) or not np.all(np.isfinite(eps_bar)):
            raise ValueError("hyperparameters must be finite")
        if np.max(np.abs(Qc - Qc.T)) > 1e-12:
            raise ValueError("Qc must be symmetric within 1e-12")
        try:
            np.linalg.cholesky(Qc)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Qc must be positive definite") from exc
        object.__setattr__(self, "Qc", Qc)
        object.__setattr__(self, "eps_bar", eps_bar)


@dataclass
class StateNode:
    """Estimation variable at one grid arclength: pose and strain.

    Fields of shape (n,), (n, 4, 4) and (n, 6) hold a stack of n nodes,
    which indexes, iterates and takes item assignment like a list of them:
    nodes[k] is a single node (a copy) and nodes[a:b] a stack. A leading
    axis stacks stacks: with s (count, n), nodes[i] is the i-th stack.
    """

    s: float
    T: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        if np.ndim(self.s):
            self.s = np.array(self.s, dtype=float)
        self.T = np.array(self.T, dtype=float)
        self.eps = np.array(self.eps, dtype=float)
        if self.eps.shape[-1:] != (6,):
            raise ValueError(f"eps must be length 6, got {self.eps.shape}")

    def copy(self) -> "StateNode":
        return StateNode(self.s, self.T.copy(), self.eps.copy())

    def __len__(self) -> int:
        if np.ndim(self.s) == 0:
            raise TypeError("a single StateNode has no length")
        return len(self.s)

    def __getitem__(self, k) -> "StateNode":
        s = self.s[k]
        return StateNode(float(s) if np.ndim(s) == 0 else s, self.T[k], self.eps[k])

    def __setitem__(self, k, node: "StateNode"):
        self.s[k], self.T[k], self.eps[k] = node.s, node.T, node.eps

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def validate_grid(grid) -> np.ndarray:
    """Node arclengths: s_0 = 0, strictly increasing, at least two nodes."""
    s = np.asarray(grid, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("grid needs at least two arclengths")
    if abs(s[0]) > 1e-12:
        raise ValueError("grid must start at arclength 0")
    if np.any(np.diff(s) <= 0):
        raise ValueError("grid arclengths must be strictly increasing")
    return s


def uniform_grid(length: float, n_intervals: int) -> np.ndarray:
    if length <= 0 or n_intervals < 1:
        raise ValueError("length must be positive and n_intervals >= 1")
    return np.linspace(0.0, length, n_intervals + 1)


def transition(s, s_prev) -> np.ndarray:
    """12x12 transition [[I, ds*I], [0, I]] of gamma over [s_prev, s], or a stack."""
    ds = np.asarray(s, dtype=float) - s_prev
    if np.any(ds < 0):
        raise ValueError("transition requires s >= s_prev")
    return kron6(transition_coeffs(ds), np.eye(6))


def kron6(coeffs, M) -> np.ndarray:
    """12x12 Kronecker products coeffs (x) M: block (i, j) is coeffs[..., i, j] M,
    for (..., 2, 2) coeffs and a 6x6 M."""
    coeffs = np.asarray(coeffs, dtype=float)
    return (coeffs[..., :, None, :, None] * M[:, None, :]).reshape(coeffs.shape[:-2] + (12, 12))


def transition_coeffs(ds) -> np.ndarray:
    """(..., 2, 2) arclength structure [[1, ds], [0, 1]] of the transition Phi = phi (x) I."""
    ds = np.asarray(ds, dtype=float)
    one, zero = np.ones(ds.shape), np.zeros(ds.shape)
    return np.moveaxis(np.array([[one, ds], [zero, one]]), (0, 1), (-2, -1))


def process_coeffs(ds) -> np.ndarray:
    """(..., 2, 2) arclength structure q of the process noise Q = q (x) Qc
    over intervals of length ds >= 0."""
    ds = np.asarray(ds, dtype=float)
    return np.moveaxis(np.array([[ds**3 / 3.0, ds**2 / 2.0], [ds**2 / 2.0, ds]]), (0, 1), (-2, -1))


def _positive(ds) -> np.ndarray:
    ds = np.asarray(ds, dtype=float)
    if np.any(ds <= 0):
        raise ValueError("process covariance requires ds > 0")
    return ds


def process_cov(ds, hyper: PriorHyperparams) -> np.ndarray:
    """Accumulated process noise over an interval of length ds > 0, or a stack."""
    return kron6(process_coeffs(_positive(ds)), hyper.Qc)


def process_coeffs_inv(ds) -> np.ndarray:
    """Closed-form inverse of process_coeffs for ds > 0."""
    ds = np.asarray(ds, dtype=float)
    return np.moveaxis(np.array([[12.0 / ds**3, -6.0 / ds**2], [-6.0 / ds**2, 4.0 / ds]]), (0, 1), (-2, -1))


def process_cov_inv(ds, hyper: PriorHyperparams) -> np.ndarray:
    """Closed-form inverse of process_cov (no numeric 12x12 inversion)."""
    return kron6(process_coeffs_inv(_positive(ds)), np.linalg.inv(hyper.Qc))


def prior_terms_from_log(ds, eps_prev, eps_cur, xi, J_inv, J_inv_Ad) -> tuple:
    """Prior error e (..., 12) and 12x24 Jacobian E of intervals of length
    ds between strains eps_prev and eps_cur, given xi = log(T_k T_{k-1}^-1),
    J(xi)^-1 and J(xi)^-1 Ad(T_k T_{k-1}^-1), for a caller that takes these
    logs in one pass with other relative poses.

    e = [xi - ds eps_{k-1}; J(xi)^-1 eps_k - eps_{k-1}], zero on
    constant-strain rollouts. E is w.r.t. (dt_{k-1}, de_{k-1}, dt_k, de_k)
    under left perturbations T <- exp(hat6(dt)) T; its strain-row pose
    blocks use the 0.5 curly_hat(eps_k) linearisation the solver consumes,
    accurate to first order in the inter-node twist.
    """
    ds = np.asarray(ds, dtype=float)[..., None]
    strain = (J_inv @ eps_cur[..., None])[..., 0]
    e = np.concatenate([xi - ds * eps_prev, strain - eps_prev], axis=-1)

    half_curly = 0.5 * se3.curly_hat(eps_cur)
    E = np.zeros(J_inv.shape[:-2] + (12, 24))
    E[..., 0:6, 0:6] = -J_inv_Ad
    E[..., 0:6, 6:12] = -ds[..., None] * np.eye(6)
    E[..., 0:6, 12:18] = J_inv
    E[..., 6:12, 0:6] = -half_curly @ J_inv_Ad
    E[..., 6:12, 6:12] = -np.eye(6)
    E[..., 6:12, 12:18] = half_curly @ J_inv
    E[..., 6:12, 18:24] = J_inv
    return e, E


def sample_prior(hyper: PriorHyperparams, grid, count: int, rng, root_pose=None):
    """Draw rod-shape samples by sequential rollout from the root, all at
    once: one StateNode with s (count, n), T (count, n, 4, 4), eps (count, n, 6).

    Each sample starts at gamma = (0, eps_bar) in the root frame, propagates
    the current gamma through the interval transition, adds Cholesky-shaped
    process noise, and compounds T_{k+1} = exp(hat6(xi)) T_k with the strain
    recovered as eps_{k+1} = J(xi) psi.
    """
    s = validate_grid(grid)
    rng = np.random.default_rng(rng)
    if root_pose is None:
        root_pose = np.eye(4)
    root_pose = se3.check_pose(root_pose)

    L = np.linalg.cholesky(process_cov(np.diff(s), hyper))
    Phi = transition(s[1:], s[:-1])
    # All samples advance together; z holds the draws in the order a
    # sample-by-sample rollout takes them.
    z = rng.standard_normal((count, s.size - 1, 12))
    poses = [np.broadcast_to(root_pose, (count, 4, 4))]
    strains = [np.broadcast_to(hyper.eps_bar, (count, 6))]
    for k in range(1, s.size):
        gamma = np.concatenate([np.zeros((count, 6)), strains[-1]], axis=-1)
        gamma = (Phi[k - 1] @ gamma[..., None] + L[k - 1] @ z[:, k - 1, :, None])[..., 0]
        poses.append(se3.exp_se3(gamma[:, 0:6]) @ poses[-1])
        strains.append((se3.left_jacobian(gamma[:, 0:6]) @ gamma[:, 6:12, None])[..., 0])
    return StateNode(np.broadcast_to(s, (count, s.size)), np.stack(poses, axis=1), np.stack(strains, axis=1))

"""Pose and strain measurement models: the pose residual, corruption.

Pose measurements compare on the group, e = log(T_meas T^-1), so partial
pose sensing is row selection of that 6-vector. Strain measurements are
plain differences, e = eps_meas - eps. Masks select which of the 6
components a sensor observes; covariances R are always stored full-size,
and the solver weighs the masked subspace by R^-1 embedded in 6x6 zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import se3


def _full_mask() -> np.ndarray:
    return np.ones(6, dtype=bool)


def _check_cov(R, mask) -> np.ndarray:
    R = np.array(R, dtype=float)
    if R.shape != (6, 6):
        raise ValueError(f"R must be 6x6, got {R.shape}")
    if np.max(np.abs(R - R.T)) > 1e-12:
        raise ValueError("R must be symmetric")
    sub = R[np.ix_(mask, mask)]
    try:
        np.linalg.cholesky(sub)
    except np.linalg.LinAlgError as exc:
        raise ValueError("R must be positive definite on the masked components") from exc
    return R


def _check_mask(mask) -> np.ndarray:
    mask = np.array(mask, dtype=bool)
    if mask.shape != (6,):
        raise ValueError(f"mask must be length 6, got {mask.shape}")
    if not mask.any():
        raise ValueError("mask must select at least one component")
    return mask


@dataclass
class PoseMeasurement:
    """Noisy pose observed at arclength s, ordering [nu; omega]."""

    s: float
    T_meas: np.ndarray
    R: np.ndarray
    mask: np.ndarray = field(default_factory=_full_mask)

    def __post_init__(self):
        self.T_meas = se3.check_pose(self.T_meas)
        self.mask = _check_mask(self.mask)
        self.R = _check_cov(self.R, self.mask)


@dataclass
class StrainMeasurement:
    """Noisy strain observed at arclength s, ordering [nu; omega]."""

    s: float
    eps_meas: np.ndarray
    R: np.ndarray
    mask: np.ndarray = field(default_factory=_full_mask)

    def __post_init__(self):
        self.eps_meas = np.array(self.eps_meas, dtype=float)
        if self.eps_meas.shape != (6,):
            raise ValueError("eps_meas must be length 6")
        self.mask = _check_mask(self.mask)
        self.R = _check_cov(self.R, self.mask)


def pose_residual(T_meas, T):
    """Unmasked pose error log(T_meas T^-1) and its 6x6 pose Jacobian.

    e(dt) = log(T_meas (exp(hat6(dt)) T)^-1), so the Jacobian is
    -J(e)^-1 Ad(T_meas T^-1). Stacked poses give stacked results.
    """
    rel = np.asarray(T_meas, dtype=float) @ se3.pose_inverse(T)
    e, J_inv = se3.log_se3_jacobian_inv(rel)
    return e, -(J_inv @ se3.adjoint(rel))


def noise_factor(R) -> np.ndarray:
    """Matrix L with L L^T = R, tolerating positive semidefinite R."""
    R = np.asarray(R, dtype=float)
    if not np.any(R):
        return np.zeros_like(R)
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(R)
        if np.min(w) < -1e-12 * max(1.0, np.max(np.abs(w))):
            raise ValueError("noise covariance must be positive semidefinite")
        return V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def corrupt_pose(T, R, rng) -> np.ndarray:
    """Left-multiply T by exp(hat6(n)) with n ~ N(0, R)."""
    rng = np.random.default_rng(rng)
    n = noise_factor(R) @ rng.standard_normal(6)
    return se3.exp_se3(n) @ se3.check_pose(T)


def corrupt_strain(eps, R, rng) -> np.ndarray:
    """Add n ~ N(0, R) to a strain vector."""
    rng = np.random.default_rng(rng)
    n = noise_factor(R) @ rng.standard_normal(6)
    return np.asarray(eps, dtype=float) + n

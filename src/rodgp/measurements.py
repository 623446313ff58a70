"""Sensors along the rod and their measured values, as one stacked container.

A pose sensor compares on the group, e = log(T_meas T^-1), so partial pose
sensing is row selection of that 6-vector. A strain sensor is a plain
difference, e = eps_meas - eps. A mask selects which of the 6 components a
sensor observes; its covariance R is stored full-size, and the solver
weighs the masked subspace by R^-1 embedded in 6x6 zeros. The container
holds every sensor's arclength, kind, mask and R as (m, ...) stacks, and
the measured values as one stack per kind, and validates the whole layout
once. Noise is injected by the stacked corrupt_pose and corrupt_strain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import se3

# The per-sensor fields that the runs of a batch share.
LAYOUT = ("s", "kind", "mask", "R")


@dataclass
class Measurements:
    """Noisy pose and strain measurements at arclengths, ordering [nu; omega].

    Per sensor, in sensor order: arclength s (m,), kind (m,) "pose" or
    "strain", the observed components mask (m, 6) and covariance R
    (m, 6, 6). The measured values are T_meas (p, 4, 4) of the p pose
    sensors and eps_meas (m - p, 6) of the strain sensors, each in sensor
    order. The runs of a batch are a list of containers on one layout.
    """

    s: np.ndarray
    kind: np.ndarray
    mask: np.ndarray
    R: np.ndarray
    T_meas: np.ndarray
    eps_meas: np.ndarray

    def __post_init__(self):
        self.kind, self.mask = np.asarray(self.kind, dtype=str), np.asarray(self.mask, dtype=bool)
        self.s, self.R, self.T_meas, self.eps_meas = (
            np.asarray(x, dtype=float) for x in (self.s, self.R, self.T_meas, self.eps_meas)
        )
        pose = self.kind == "pose"
        unknown = self.kind[~pose & (self.kind != "strain")]
        if unknown.size:
            raise ValueError(f"kind must be 'pose' or 'strain', got '{unknown[0]}'")
        m, p = self.s.size, int(np.count_nonzero(pose))
        for name, shape in (
            ("s", (m,)), ("kind", (m,)), ("mask", (m, 6)), ("R", (m, 6, 6)),
            ("T_meas", (p, 4, 4)), ("eps_meas", (m - p, 6)),
        ):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {getattr(self, name).shape}")
        for name in ("s", "R", "T_meas", "eps_meas"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not np.all(self.mask.any(axis=-1)):
            raise ValueError("mask must select at least one component of every sensor")
        if np.max(np.abs(self.R - self.R.swapaxes(-1, -2)), initial=0.0) > 1e-12:
            raise ValueError("R must be symmetric")
        try:
            np.linalg.cholesky(self._pinned()[1])
        except np.linalg.LinAlgError as exc:
            raise ValueError("R must be positive definite on the masked components") from exc
        se3.check_pose(self.T_meas)

    def _pinned(self):
        """Where both dimensions of R are observed, and R with the other
        rows and columns pinned to the identity, as solver.pin does for
        locks: positive definite iff R is on the observed components."""
        both = self.mask[:, :, None] & self.mask[:, None, :]
        return both, np.where(both, self.R, np.eye(6))

    def information(self) -> np.ndarray:
        """R^-1 on each sensor's observed components, embedded in 6x6 zeros."""
        both, pinned = self._pinned()
        return np.where(both, np.linalg.inv(pinned), 0.0)


def stack_runs(runs) -> tuple:
    """The layout shared by `runs`, one container or a list of containers,
    and their measured values along one run axis: (layout, T_meas
    (R, p, 4, 4), eps_meas (R, m - p, 6))."""
    runs = [runs] if isinstance(runs, Measurements) else list(runs)
    if not runs:
        raise ValueError("need at least one run of measurements")
    layout = runs[0]
    if not all(np.array_equal(getattr(layout, f), getattr(run, f)) for run in runs[1:] for f in LAYOUT):
        raise ValueError("the runs of a batch must share their measurement nodes, kinds and covariances")
    return layout, np.stack([r.T_meas for r in runs]), np.stack([r.eps_meas for r in runs])


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
    """Left-multiply each pose of T (..., 4, 4) by exp(hat6(n)), n ~ N(0, R),
    with one standard-normal 6-vector drawn per pose, in order."""
    T = se3.check_pose(T)
    rng = np.random.default_rng(rng)
    return se3.exp_se3(rng.standard_normal(T.shape[:-2] + (6,)) @ noise_factor(R).T) @ T


def corrupt_strain(eps, R, rng) -> np.ndarray:
    """Add n ~ N(0, R) to each strain vector of eps (..., 6), with one
    standard-normal 6-vector drawn per vector, in order."""
    eps = np.asarray(eps, dtype=float)
    rng = np.random.default_rng(rng)
    return eps + rng.standard_normal(eps.shape) @ noise_factor(R).T

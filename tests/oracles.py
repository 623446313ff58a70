"""Reference forms the tests check the library against: the pose residual
of one measurement, and per-sensor views of the measurement container."""

from typing import NamedTuple

import numpy as np

from rodgp import se3
from rodgp.measurements import Measurements

FULL_MASK = np.ones(6, dtype=bool)


def pose_residual(T_meas, T):
    """Unmasked pose error log(T_meas T^-1) and its 6x6 pose Jacobian.

    e(dt) = log(T_meas (exp(hat6(dt)) T)^-1), so the Jacobian is
    -J(e)^-1 Ad(T_meas T^-1). Stacked poses give stacked results.
    """
    rel = np.asarray(T_meas, dtype=float) @ se3.pose_inverse(T)
    e, J_inv = se3.log_se3_jacobian_inv(rel)
    return e, -(J_inv @ se3.adjoint(rel))


class Sensor(NamedTuple):
    """One sensor of a container: its kind, arclength, measured value (a
    4x4 pose or a strain 6-vector), covariance and mask."""

    kind: str
    s: float
    value: np.ndarray
    R: np.ndarray
    mask: np.ndarray = FULL_MASK


def pose(s, T_meas, R, mask=FULL_MASK) -> Sensor:
    return Sensor("pose", s, T_meas, R, mask)


def strain(s, eps_meas, R, mask=FULL_MASK) -> Sensor:
    return Sensor("strain", s, eps_meas, R, mask)


def _stack(values, shape, dtype=float):
    return np.array(values, dtype=dtype) if values else np.empty((0,) + shape, dtype=dtype)


def sensors(items) -> Measurements:
    """The container of a list of Sensors, in their order."""
    items = list(items)
    return Measurements(
        s=_stack([x.s for x in items], ()),
        kind=_stack([x.kind for x in items], (), str),
        mask=_stack([x.mask for x in items], (6,), bool),
        R=_stack([x.R for x in items], (6, 6)),
        T_meas=_stack([x.value for x in items if x.kind == "pose"], (4, 4)),
        eps_meas=_stack([x.value for x in items if x.kind == "strain"], (6,)),
    )


def sensor_list(measurements: Measurements) -> list:
    """The Sensors of a one-run container, in sensor order."""
    values = {"pose": iter(measurements.T_meas), "strain": iter(measurements.eps_meas)}
    return [
        Sensor(kind, float(s), next(values[kind]), R, mask)
        for kind, s, R, mask in zip(measurements.kind.tolist(), measurements.s, measurements.R, measurements.mask)
    ]

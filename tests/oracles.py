"""Reference forms the tests check the library against: SO(3) maps and the
series left Jacobian, the prior terms of node pairs, node lists as
stacks, the pose residual of one measurement, and per-sensor views of the
measurement container."""

from typing import NamedTuple

import numpy as np

from rodgp import se3, solver
from rodgp.measurements import Measurements
from rodgp.prior import StateNode, prior_terms_from_log

FULL_MASK = np.ones(6, dtype=bool)


def exp_so3(phi) -> np.ndarray:
    """Rodrigues rotation matrix for a rotation vector."""
    phi = np.asarray(phi, dtype=float)
    sin1, cos2 = se3._coefficients(se3._angle(phi))[0:2]
    return se3._so3_series(se3.hat3(phi), sin1, cos2)


def jac_so3(phi) -> np.ndarray:
    """Left Jacobian of SO(3)."""
    phi = np.asarray(phi, dtype=float)
    cos2, sin3 = se3._coefficients(se3._angle(phi))[1:3]
    return se3._so3_series(se3.hat3(phi), cos2, sin3)


def left_jacobian_series(xi, n_terms: int = 30) -> np.ndarray:
    """Truncated series sum_n curly_hat(xi)^n / (n+1)! of one twist, the
    slow reference of the closed-form left_jacobian and left_jacobian_inv."""
    A = se3.curly_hat(xi)
    J = np.eye(6)
    term = np.eye(6)
    for n in range(1, n_terms):
        term = term @ A / (n + 1.0)
        J = J + term
    return J


def prior_terms(prev: StateNode, cur: StateNode) -> tuple:
    """prior.prior_terms_from_log of the intervals from prev to cur, nodes
    or stacks, from one pass over T_k T_{k-1}^-1 = exp(hat6(xi))."""
    rel = cur.T @ se3.pose_inverse(prev.T)
    xi, J_inv = se3.log_se3_jacobian_inv(rel)
    return prior_terms_from_log(cur.s - prev.s, prev.eps, cur.eps, xi, J_inv, J_inv @ se3.adjoint(rel))


def stack_nodes(nodes) -> StateNode:
    """One StateNode holding a list of nodes as stacked arrays; a stack is
    returned as it is."""
    if isinstance(nodes, StateNode):
        return nodes
    return StateNode(
        np.array([node.s for node in nodes], dtype=float),
        np.stack([node.T for node in nodes]),
        np.stack([node.eps for node in nodes]),
    )


def linearize_one(problem, nodes) -> tuple:
    """solver.linearize of one run's nodes, a stack or a node list, without
    the run axis: (H_diag, H_off, b, cost)."""
    stack = stack_nodes(nodes)
    return tuple(out[0] for out in solver.linearize(problem, stack.T[None], stack.eps[None]))


def pin(free, D, U, b) -> tuple:
    """solver.pin of the system outside the free mask."""
    return solver.pin(solver._lock_masks(free), D, U, b)


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

"""SO(3)/SE(3) primitives for twists ordered [nu; omega].

Poses are plain 4x4 homogeneous transforms, twists are length-6 vectors with
the translational part stacked above the rotational part. All functions are
pure and side-effect free. The maps between twists, poses and Jacobians also
take stacks, (..., 6) twists or (..., 4, 4) poses, and return one result per
stacked element; a single twist or pose is the unstacked case.
"""

from __future__ import annotations

import numpy as np

# Below this rotation angle the scalar coefficients of the closed forms
# (sin(theta)/theta, (1 - cos(theta))/theta^2, ...) switch to their Taylor
# series in theta^2: the closed forms cancel catastrophically as theta -> 0,
# while seven series terms are exact to machine precision up to here.
TAYLOR_ANGLE = 0.3
# log is restricted to rotation angles below pi minus this margin; the
# principal branch is ill-conditioned at the cut.
BRANCH_MARGIN = 1e-6


class BranchError(ValueError):
    """A rotation angle is too close to pi for the principal branch."""


# The hat maps are linear, so a stack of hats is one product with these
# generators: _HAT3[i] = hat3(e_i), and likewise for hat6 and curly_hat.
_HAT3 = np.zeros((3, 3, 3))
_HAT3[[0, 1, 2], [2, 0, 1], [1, 2, 0]], _HAT3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0, -1.0
_HAT6 = np.zeros((6, 4, 4))
_HAT6[0:3, 0:3, 3], _HAT6[3:6, 0:3, 0:3] = np.eye(3), _HAT3
_CURLY = np.zeros((6, 6, 6))
_CURLY[0:3, 0:3, 3:6] = _CURLY[3:6, 0:3, 0:3] = _CURLY[3:6, 3:6, 3:6] = _HAT3

# Taylor coefficients in t^2 of the six functions of the rotation angle t
# that the closed forms use, in the order _coefficients returns them:
# sin(t)/t, (1 - cos t)/t^2, (t - sin t)/t^3, 1/t^2 - (1 + cos t)/(2 t sin t),
# (t^2 + 2 cos t - 2)/(2 t^4) and (2 t - 3 sin t + t cos t)/(2 t^5).
_TAYLOR = np.array(
    [
        [1, -1 / 6, 1 / 120, -1 / 5040, 1 / 362880, -1 / 39916800, 1 / 6227020800],
        [1 / 2, -1 / 24, 1 / 720, -1 / 40320, 1 / 3628800, -1 / 479001600, 1 / 87178291200],
        [1 / 6, -1 / 120, 1 / 5040, -1 / 362880, 1 / 39916800, -1 / 6227020800, 1 / 1307674368000],
        [1 / 12, 1 / 720, 1 / 30240, 1 / 1209600, 1 / 47900160, 691 / 1307674368000, 1 / 74724249600],
        [1 / 24, -1 / 720, 1 / 40320, -1 / 3628800, 1 / 479001600, -1 / 87178291200, 1 / 20922789888000],
        [1 / 120, -1 / 2520, 1 / 120960, -1 / 9979200, 1 / 1245404160, -1 / 217945728000, 1 / 50812489728000],
    ]
)
_TAYLOR_POWERS = 2.0 * np.arange(_TAYLOR.shape[1])


def _closed_forms(t):
    # Powers as products: numpy's scalar and array power differ in the last bit.
    s, c, t2 = np.sin(t), np.cos(t), t * t
    forms = [s / t, (1.0 - c) / t2, (t - s) / (t2 * t), 1.0 / t2 - (1.0 + c) / (2.0 * t * s)]
    forms += [(t2 + 2.0 * c - 2.0) / (2.0 * t2 * t2), (2.0 * t - 3.0 * s + t * c) / (2.0 * t2 * t2 * t)]
    return np.array(forms)


def _coefficients(theta):
    """The six functions of _TAYLOR at every angle in theta, as six arrays
    of shape (..., 1, 1) that broadcast against stacked 3x3 matrices."""
    theta = np.asarray(theta, dtype=float)
    small = theta < TAYLOR_ANGLE
    # The closed forms only see angles at or above the threshold.
    out = None if small.all() else _closed_forms(np.maximum(theta, TAYLOR_ANGLE))
    if out is None or small.any():
        # Elementwise, so a stacked call repeats the unstacked one bit for bit.
        taylor = np.moveaxis(np.sum(theta[..., None, None] ** _TAYLOR_POWERS * _TAYLOR, axis=-1), -1, 0)
        out = taylor if out is None else np.where(small, taylor, out)
    return out[..., None, None]


def _angle(omega, check_branch: bool = False):
    theta = np.sqrt((omega * omega).sum(axis=-1))
    if check_branch and (theta >= np.pi - BRANCH_MARGIN).any():
        raise BranchError("rotation angle too close to pi")
    return theta


def _apply(M, v):
    """Stacked matrix-vector product M @ v over the leading axes."""
    return (M @ v[..., None])[..., 0]


def _linear(x, generators):
    x = np.asarray(x, dtype=float)
    return (x @ generators.reshape(len(generators), -1)).reshape(x.shape[:-1] + generators.shape[1:])


def hat3(v) -> np.ndarray:
    """3x3 skew matrix such that hat3(v) @ w == np.cross(v, w)."""
    return _linear(v, _HAT3)


def hat6(x) -> np.ndarray:
    """4x4 se(3) matrix [[hat3(omega), nu], [0, 0]] of a twist [nu; omega]."""
    return _linear(x, _HAT6)


def curly_hat(x) -> np.ndarray:
    """6x6 adjoint-algebra matrix [[hat3(w), hat3(v)], [0, hat3(w)]]."""
    return _linear(x, _CURLY)


def _so3_series(W, first, second):
    """I + first * W + second * W @ W, the form of every SO(3) closed form."""
    return np.eye(3) + first * W + second * (W @ W)


def log_so3(C) -> np.ndarray:
    """Rotation vector of C on the principal branch (angle < pi)."""
    C = np.asarray(C, dtype=float)
    cos_theta = np.clip((np.trace(C, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if (theta >= np.pi - BRANCH_MARGIN).any():
        raise BranchError("rotation angle too close to pi for the principal branch")
    # theta / (2 sin(theta)) has no cancellation; only theta = 0 needs its limit.
    half = np.where(theta > 0.0, theta / (2.0 * np.sin(np.where(theta > 0.0, theta, 1.0))), 0.5)
    A = C - np.swapaxes(C, -1, -2)
    return half[..., None] * A[..., [2, 0, 1], [1, 2, 0]]


def exp_se3(xi) -> np.ndarray:
    """Matrix exponential of hat6(xi) as a 4x4 pose."""
    xi = np.asarray(xi, dtype=float)
    nu, omega = xi[..., 0:3], xi[..., 3:6]
    W = hat3(omega)
    sin1, cos2, sin3 = _coefficients(_angle(omega))[0:3]
    return pose_from_parts(_so3_series(W, sin1, cos2), _apply(_so3_series(W, cos2, sin3), nu))


def exp_se3_from_jacobian(xi, J) -> np.ndarray:
    """exp_se3(xi) from its left Jacobian J = left_jacobian(xi), with no
    second pass over the angle coefficients: with the rotational block J3,
    C = I + hat3(omega) J3 and t = J3 nu."""
    xi = np.asarray(xi, dtype=float)
    J3 = np.asarray(J, dtype=float)[..., :3, :3]
    return pose_from_parts(np.eye(3) + hat3(xi[..., 3:6]) @ J3, _apply(J3, xi[..., 0:3]))


def _log_parts(T):
    """omega = log_so3(C) of a pose, hat3(omega), its angle coefficients
    (checked below pi), the inverse SO(3) left Jacobian Ji of omega and
    nu = Ji t."""
    T = np.asarray(T, dtype=float)
    omega = log_so3(T[..., :3, :3])
    W, coeffs = _angle_terms(omega)
    Ji = _so3_series(W, -0.5, coeffs[3])
    return omega, _apply(Ji, T[..., :3, 3]), W, coeffs, Ji


def log_se3(T) -> np.ndarray:
    """Twist [nu; omega] with exp_se3(log_se3(T)) == T, principal branch."""
    omega, nu = _log_parts(T)[:2]
    return np.concatenate([nu, omega], axis=-1)


def log_se3_jacobian_inv(T) -> tuple:
    """(xi, J(xi)^-1): log_se3(T) and left_jacobian_inv of it, bit for bit,
    from one pass over the angle, hat3(omega) and the angle coefficients."""
    omega, nu, W, coeffs, Ji = _log_parts(T)
    return np.concatenate([nu, omega], axis=-1), _jacobian_inv(W, hat3(nu), coeffs, Ji)


def adjoint(T) -> np.ndarray:
    """6x6 adjoint [[C, hat3(r) C], [0, C]] of a pose."""
    T = np.asarray(T, dtype=float)
    C = T[..., :3, :3]
    return _block_upper(C, hat3(T[..., :3, 3]) @ C)


def _block_upper(A, B):
    """6x6 matrices [[A, B], [0, A]] from stacked 3x3 blocks."""
    out = np.zeros(A.shape[:-2] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = A
    out[..., :3, 3:] = B
    return out


def _angle_terms(omega):
    """hat3(omega) and the angle coefficients, for angles below pi."""
    return hat3(omega), _coefficients(_angle(omega, check_branch=True))


def _jacobian_blocks(W, V, coeffs):
    """Barfoot's closed-form translational block Q of the SE(3) left
    Jacobian from hat3(omega), hat3(nu) and the angle coefficients. Q's
    coefficients share the Taylor switch, so Q is exact to machine
    precision below pi."""
    _, _, sin3, _, cos4, sin5 = coeffs
    WV, VW = W @ V, V @ W
    WVW = WV @ W
    Q = 0.5 * V + sin3 * (WV + VW + WVW) + cos4 * (W @ WV + VW @ W - 3.0 * WVW)
    return Q + sin5 * (WVW @ W + W @ WVW)


def _jacobian_inv(W, V, coeffs, Ji):
    """left_jacobian_inv from its parts, with Ji the inverse SO(3) Jacobian."""
    return _block_upper(Ji, -Ji @ _jacobian_blocks(W, V, coeffs) @ Ji)


def left_jacobian(xi) -> np.ndarray:
    """Left Jacobian of SE(3) such that d(log) pulls back left perturbations.

    Requires the rotation angle to be below pi.
    """
    xi = np.asarray(xi, dtype=float)
    W, coeffs = _angle_terms(xi[..., 3:6])
    return _block_upper(_so3_series(W, coeffs[1], coeffs[2]), _jacobian_blocks(W, hat3(xi[..., 0:3]), coeffs))


def left_jacobian_inv(xi) -> np.ndarray:
    """Inverse of left_jacobian, evaluated in closed form."""
    xi = np.asarray(xi, dtype=float)
    W, coeffs = _angle_terms(xi[..., 3:6])
    return _jacobian_inv(W, hat3(xi[..., 0:3]), coeffs, _so3_series(W, -0.5, coeffs[3]))


def pose_from_parts(C, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    T = np.zeros(r.shape[:-1] + (4, 4))
    T[..., :3, :3], T[..., :3, 3], T[..., 3, 3] = C, r, 1.0
    return T


def pose_inverse(T) -> np.ndarray:
    """Inverse using the orthogonality of the rotation block."""
    T = np.asarray(T, dtype=float)
    Ct = np.swapaxes(T[..., :3, :3], -1, -2)
    return pose_from_parts(Ct, -_apply(Ct, T[..., :3, 3]))


def check_pose(T, tol: float = 1e-9) -> np.ndarray:
    """Validate a 4x4 pose, or a (..., 4, 4) stack: orthonormal rotation,
    unit bottom row."""
    T = np.asarray(T, dtype=float)
    if T.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 pose, got {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("pose contains non-finite entries")
    C = T[..., :3, :3]
    if np.max(np.abs(np.swapaxes(C, -1, -2) @ C - np.eye(3)), initial=0.0) > tol:
        raise ValueError("rotation block is not orthonormal within tolerance")
    if np.max(np.abs(np.linalg.det(C) - 1.0), initial=0.0) > tol:
        raise ValueError("rotation block must have determinant +1")
    if np.max(np.abs(T[..., 3, :] - np.array([0.0, 0.0, 0.0, 1.0])), initial=0.0) > tol:
        raise ValueError("bottom row must be (0, 0, 0, 1)")
    return T


def rotation_angle_deg(C_a, C_b) -> float | np.ndarray:
    """Angle in degrees between two rotation matrices, or stacks of them."""
    R = np.asarray(C_a, dtype=float) @ np.swapaxes(np.asarray(C_b, dtype=float), -1, -2)
    cos_theta = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    return np.degrees(np.arccos(cos_theta))

"""Correctness checks of the benchmark's outputs.

Every check returns a list of problem strings; an empty list means the
outputs passed. The checks compare against computations made here, not
against stored outputs:

- simulate: a separate Cosserat re-integration with scipy's DOP853,
  started from each shape's base stress with tendon wrenches computed
  here, must reach the simulator's tip pose, and its tip stress must
  balance the applied tip wrench;
- study: tip errors against the dense ground truth stay within the
  acceptance gate's upper bounds, the truth lies inside the 3-sigma
  envelope at nearly every node, node queries return the node estimates
  and every queried rotation is orthonormal;
- track: a warm-started frame equals a cold straight-guess solve of the
  same frame, and every returned covariance is symmetric PSD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The re-integration runs at a far tighter tolerance than the simulator's
# RK4 at 0.69 mm steps, so these bounds measure the simulator's error;
# measured gaps are at most 1e-11 m, 2e-10 rad and 8e-10 N.
TIP_POSITION_TOL_M = 1e-8
TIP_ROTATION_TOL_RAD = 1e-8
TIP_WRENCH_TOL = 1e-7
ODE_RTOL = 1e-11
ODE_ATOL = 1e-13

# Acceptance criterion 6 upper bounds on the mean tip position error (m),
# keyed by scenario value; strain_plus_tip_pose is bounded relative to
# pose_at_segment_ends instead.
TIP_ERROR_BOUND_M = {"pose_at_segment_ends": 7e-3, "strain_at_disks": 15e-3}
TIP_POSE_RATIO_BOUND = 1.5
# Acceptance criterion 7: share of node checks inside the 3-sigma envelope.
ENVELOPE_MIN_SHARE = 0.95
ORTHONORMAL_TOL = 1e-9
NODE_QUERY_TOL = 1e-12

# Warm and cold solves of one frame stop within step_tol = 1e-6 of the
# same optimum; measured agreement is about 1e-8 in state and 1e-13 in cost.
WARM_COLD_STATE_TOL = 1e-6
WARM_COLD_COST_RTOL = 1e-9
PSD_RTOL = 1e-9


# ---------------------------------------------------------------- simulate


@dataclass(frozen=True)
class ShapeSummary:
    """What the simulate check needs of one solved shape."""

    tensions: tuple
    tip_wrench: tuple
    base_stress: np.ndarray
    tip_arclength: float
    tip_pose: np.ndarray


def summarize_shape(actuation, shape) -> ShapeSummary:
    return ShapeSummary(
        tensions=tuple(actuation.tensions),
        tip_wrench=tuple(actuation.tip_wrench),
        base_stress=np.array(shape.sigma[0], dtype=float),
        tip_arclength=float(shape.nodes[-1].s),
        tip_pose=np.array(shape.nodes[-1].T, dtype=float),
    )


def rod_stiffness(props) -> np.ndarray:
    """diag(EA, GA, GA, GJ, EI, EI) of a solid circular section."""
    E, nu, d = props.young_modulus, props.poisson, props.diameter
    G = E / (2.0 * (1.0 + nu))
    area = np.pi * d * d / 4.0
    second_moment = np.pi * d**4 / 64.0
    return np.array(
        [E * area, G * area, G * area, G * 2.0 * second_moment, E * second_moment, E * second_moment]
    )


def tendon_stress(props, tensions, s: float) -> np.ndarray:
    """Body-frame wrench of the tendons still routed past arclength s.

    A tendon at angle theta sits at offset r (0, sin theta, cos theta) and
    pulls toward the base with its tension.
    """
    ends = np.cumsum(props.segment_lengths)
    total = np.zeros(6)
    for (segment, theta), tension in zip(props.tendons, tensions):
        if tension == 0.0 or s >= ends[segment]:
            continue
        offset = props.pitch_radius * np.array([0.0, np.sin(theta), np.cos(theta)])
        force = np.array([-tension, 0.0, 0.0])
        total[:3] += force
        total[3:] += np.cross(offset, force)
    return total


def reintegrate(props, tensions, base_stress):
    """Tip pose and tip transported stress from a base stress.

    State: rotation C (9), position r (3), transported stress (force f,
    moment m). With strain (nu, w) = rest + K^-1 (total stress), the
    left-increment kinematics give C' = w x C, r' = w x r + nu, and the
    stress obeys f' = w x f, m' = nu x f + w x m. Integration restarts at
    every segment end, where tendons terminate.
    """
    from scipy.integrate import solve_ivp

    compliance = 1.0 / rod_stiffness(props)
    rest = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    sigma_p = np.asarray(base_stress, dtype=float) - tendon_stress(props, tensions, 0.0)
    y = np.concatenate([np.eye(3).ravel(), np.zeros(3), sigma_p])
    start = 0.0
    for end in np.cumsum(props.segment_lengths):
        routed = tendon_stress(props, tensions, 0.5 * (start + end))

        def rhs(_s, state, routed=routed):
            C = state[0:9].reshape(3, 3)
            r, f, m = state[9:12], state[12:15], state[15:18]
            strain = rest + compliance * (state[12:18] + routed)
            nu, w = strain[0:3], strain[3:6]
            dC = np.cross(w[None, :], C.T).T
            return np.concatenate(
                [dC.ravel(), np.cross(w, r) + nu, np.cross(w, f), np.cross(nu, f) + np.cross(w, m)]
            )

        sol = solve_ivp(rhs, (start, end), y, method="DOP853", rtol=ODE_RTOL, atol=ODE_ATOL)
        if not sol.success:
            raise RuntimeError(f"re-integration failed: {sol.message}")
        y = sol.y[:, -1]
        start = end
    T = np.eye(4)
    T[:3, :3] = y[0:9].reshape(3, 3)
    T[:3, 3] = y[9:12]
    return T, y[12:18]


def rotation_angle(C_a, C_b) -> float:
    """Angle of C_a C_b^T, accurate for tiny angles where arccos is not."""
    R = C_a @ C_b.T
    sin = 0.5 * np.linalg.norm([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return float(np.arctan2(sin, 0.5 * (np.trace(R) - 1.0)))


def check_shapes(props, summaries) -> list:
    """Re-integrate every shape and compare its tip with the simulator's."""
    problems = []
    length = float(np.sum(props.segment_lengths))
    for i, shape in enumerate(summaries):
        if abs(shape.tip_arclength - length) > 1e-12:
            problems.append(f"shape {i}: tip at s={shape.tip_arclength}, rod length {length}")
            continue
        T, tip_stress = reintegrate(props, shape.tensions, shape.base_stress)
        dp = float(np.linalg.norm(T[:3, 3] - shape.tip_pose[:3, 3]))
        dr = rotation_angle(T[:3, :3], shape.tip_pose[:3, :3])
        dw = float(np.max(np.abs(tip_stress - np.asarray(shape.tip_wrench))))
        if not dp <= TIP_POSITION_TOL_M:
            problems.append(f"shape {i}: tip position off by {dp:.2e} m")
        if not dr <= TIP_ROTATION_TOL_RAD:
            problems.append(f"shape {i}: tip rotation off by {dr:.2e} rad")
        if not dw <= TIP_WRENCH_TOL:
            problems.append(f"shape {i}: tip stress misses the tip wrench by {dw:.2e}")
    return problems


# ------------------------------------------------------------------- study


def _orthonormal(T) -> bool:
    C = np.asarray(T)[:3, :3]
    return bool(
        np.max(np.abs(C.T @ C - np.eye(3))) <= ORTHONORMAL_TOL and np.linalg.det(C) > 0.0
    )


def check_study_records(result) -> list:
    """Per-call properties of one run_study result."""
    problems = []
    for record in result.records:
        sol = record.solution
        node_ids = np.flatnonzero(record.is_node)
        if node_ids.size != len(sol.nodes):
            problems.append(f"run {record.index}: {node_ids.size} node queries for {len(sol.nodes)} nodes")
            continue
        for k, i in enumerate(node_ids):
            state, node = record.states[i], sol.nodes[k]
            scale = max(1.0, float(np.max(np.abs(sol.marginal_covs[k]))))
            if (
                np.max(np.abs(state.T - node.T)) > NODE_QUERY_TOL
                or np.max(np.abs(state.eps - node.eps)) > NODE_QUERY_TOL
                or np.max(np.abs(record.covs[i] - sol.marginal_covs[k])) > NODE_QUERY_TOL * scale
            ):
                problems.append(f"run {record.index}: query at node {k} differs from the node estimate")
                break
        if not all(_orthonormal(state.T) for state in record.states):
            problems.append(f"run {record.index}: a queried rotation is not orthonormal")
    return problems


def tip_error_mean(result, shapes) -> float:
    """Mean tip position error against the simulator's last dense sample."""
    errors = [
        np.linalg.norm(r.solution.nodes[-1].T[:3, 3] - shapes[r.index].nodes[-1].T[:3, 3])
        for r in result.records
    ]
    return float(np.mean(errors))


def check_tip_errors(tip_means: dict) -> list:
    """Criterion 6 upper bounds on one round's mean tip errors (m)."""
    problems = []
    for scenario, bound in TIP_ERROR_BOUND_M.items():
        if not tip_means[scenario] <= bound:
            problems.append(f"{scenario}: mean tip error {tip_means[scenario]:.2e} m above {bound:.0e}")
    ratio_bound = TIP_POSE_RATIO_BOUND * tip_means["pose_at_segment_ends"]
    if not tip_means["strain_plus_tip_pose"] <= ratio_bound:
        problems.append(
            f"strain_plus_tip_pose: mean tip error {tip_means['strain_plus_tip_pose']:.2e} m "
            f"above {TIP_POSE_RATIO_BOUND} x pose_at_segment_ends"
        )
    return problems


def envelope_counts(result, shapes) -> tuple:
    """(hits, checks): nodes whose true position is inside 3 sigma.

    The truth is the dense simulator sample at the node's arclength, and
    the position covariance [I, -hat(p)] P_pose [I, -hat(p)]^T follows
    the left pose perturbation of the estimate.
    """
    hits = checks = 0
    for record in result.records:
        shape = shapes[record.index]
        dense_s = np.array([node.s for node in shape.nodes])
        for node, cov in zip(record.solution.nodes, record.solution.marginal_covs):
            truth = shape.nodes[int(np.argmin(np.abs(dense_s - node.s)))].T[:3, 3]
            p = node.T[:3, 3]
            A = np.hstack([np.eye(3), -np.array([[0, -p[2], p[1]], [p[2], 0, -p[0]], [-p[1], p[0], 0]])])
            P = A @ cov[0:6, 0:6] @ A.T
            d = truth - p
            if np.trace(P) < 1e-18:
                inside = np.linalg.norm(d) < 1e-9
            else:
                inside = float(d @ np.linalg.solve(P, d)) <= 9.0
            hits += bool(inside)
            checks += 1
    return hits, checks


def check_envelope(hits: int, checks: int) -> list:
    if checks == 0:
        return ["no envelope checks were made"]
    share = hits / checks
    if share < ENVELOPE_MIN_SHARE:
        return [f"truth inside the 3-sigma envelope at {share:.1%} of {checks} nodes, below {ENVELOPE_MIN_SHARE:.0%}"]
    return []


# ------------------------------------------------------------------- track


def check_covariances(covs) -> list:
    """Every covariance symmetric and positive semidefinite."""
    for i, P in enumerate(covs):
        P = np.asarray(P)
        scale = max(1e-300, float(np.max(np.abs(P))))
        if np.max(np.abs(P - P.T)) > PSD_RTOL * scale:
            return [f"covariance {i} is not symmetric"]
        if np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) < -PSD_RTOL * scale:
            return [f"covariance {i} is not positive semidefinite"]
    return []


def state_distance(nodes_a, nodes_b) -> float:
    """Largest pose (rotation-matrix and position entries) or strain gap."""
    worst = 0.0
    for a, b in zip(nodes_a, nodes_b):
        worst = max(worst, float(np.max(np.abs(a.T - b.T))), float(np.max(np.abs(a.eps - b.eps))))
    return worst


def check_warm_equals_cold(warm, cold) -> list:
    """A warm-started solution against a cold solve of the same frame."""
    problems = []
    if len(warm.nodes) != len(cold.nodes):
        return [f"warm solve has {len(warm.nodes)} nodes, cold solve {len(cold.nodes)}"]
    gap = state_distance(warm.nodes, cold.nodes)
    if not gap <= WARM_COLD_STATE_TOL:
        problems.append(f"warm and cold solves differ by {gap:.2e} in state")
    c_warm, c_cold = warm.cost_history[-1], cold.cost_history[-1]
    if not abs(c_warm - c_cold) <= WARM_COLD_COST_RTOL * abs(c_cold):
        problems.append(f"warm cost {c_warm:.12g} vs cold cost {c_cold:.12g}")
    return problems

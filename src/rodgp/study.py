"""Batch estimation studies on simulated tendon-driven robots.

Runs the estimator over a dataset of simulated configurations for one
sensor scenario, queries the posterior densely along arclength, and
collects position/orientation error statistics against the simulated
ground truth. Per-run solver failures are excluded from the aggregates
and reported alongside them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import interpolation, rodsim, se3, solver
from .prior import PriorHyperparams, StateNode, uniform_grid
from .rodsim import MeasurementNoise, Scenario

# Measurement arclengths closer than this to an existing node reuse it
# instead of adding another one.
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    """Sensor scenario plus estimator settings for one study.

    The defaults are the reference study settings: millimetre position
    noise, 0.01 rad angular noise, 0.05 strain noise, a tenfold inflated
    measurement covariance, a smoothness prior that is much looser on
    the rotational strains, 29 intervals, and 5 interpolated states per
    interval.
    """

    scenario: Scenario
    noise: MeasurementNoise = MeasurementNoise()
    qc_diag: tuple = (1.0, 1.0, 1.0, 100.0, 100.0, 100.0)
    eps_bar: tuple = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    num_intervals: int = 29
    states_per_interval: int = 5
    lock_root_pose: bool = True
    lock_tip_strain: bool = False
    lock_translational_strains: bool = False
    max_iters: int = 20
    step_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "qc_diag", tuple(float(q) for q in self.qc_diag))
        object.__setattr__(self, "eps_bar", tuple(float(e) for e in self.eps_bar))
        if len(self.qc_diag) != 6 or len(self.eps_bar) != 6:
            raise ValueError("qc_diag and eps_bar must have 6 entries")
        if self.num_intervals < 1:
            raise ValueError("need at least one interval")
        if self.states_per_interval < 0:
            raise ValueError("states_per_interval must be non-negative")

    def hyperparams(self) -> PriorHyperparams:
        return PriorHyperparams(np.diag(self.qc_diag), np.array(self.eps_bar))

    def locks(self, n_nodes: int) -> np.ndarray:
        return solver.default_locks(
            n_nodes,
            root_pose=self.lock_root_pose,
            tip_strain=self.lock_tip_strain,
            translational_strains=self.lock_translational_strains,
        )


def pose_errors(estimate, truth) -> tuple:
    """Translation distance in metres and rotation angle in degrees, per
    node, of StateNodes or of (..., 4, 4) pose stacks."""
    T_est, T_truth = (x.T if isinstance(x, StateNode) else x for x in (estimate, truth))
    dp = np.linalg.norm(T_est[..., :3, 3] - T_truth[..., :3, 3], axis=-1)
    return dp, se3.rotation_angle_deg(T_est[..., :3, :3], T_truth[..., :3, :3])


def estimation_grid(total_length, num_intervals, measurement_arclengths):
    """Uniform node grid with the measurement arclengths merged in.

    In measurement order, an arclength within MERGE_TOL of a node or of an
    arclength merged before it reuses that node instead of adding one.
    """
    uniform = uniform_grid(total_length, num_intervals)
    s = np.asarray(measurement_arclengths, dtype=float).reshape(-1)
    s = s[np.abs(s[:, None] - uniform).min(axis=1, initial=np.inf) > MERGE_TOL]
    earlier = np.tril(np.abs(s[:, None] - s) <= MERGE_TOL, -1)
    keep = ~earlier.any(axis=1)
    # Only an arclength near an earlier one depends on what came before it.
    for i in np.flatnonzero(~keep):
        keep[i] = not (earlier[i] & keep).any()
    return np.sort(np.concatenate([uniform, s[keep]]))


def straight_guess(grid, hyper: PriorHyperparams) -> StateNode:
    """Constant-strain rollout of the prior mean from the identity pose."""
    s = np.asarray(grid, dtype=float)
    return StateNode(s, se3.exp_se3(s[:, None] * hyper.eps_bar), np.tile(hyper.eps_bar, (s.size, 1)))


def measured_guess(grid, measurements, hyper: PriorHyperparams) -> StateNode:
    """An initial guess per run of a batch (measurements on one layout),
    read off its own measurements: a StateNode with s (R, n).

    With strain sensors, each component is interpolated linearly over
    arclength between the nodes observing it (sensors on one node are
    averaged), held before the first and past the last, and eps_bar where
    nothing observes it; poses roll out from the identity root with
    T_{k+1} = exp(ds_k (eps_k + eps_{k+1}) / 2) T_k. With fully observed
    poses only, each span between their nodes (the root at the identity,
    a node's first sensor) gets the strain log(T_b T_a^-1) / ds from its
    start, the last span's running on past it. With neither, it is the
    straight rollout. Each step is elementwise per run, so a run's guess
    is the same alone and in a batch. A span turned by pi raises
    se3.BranchError.
    """
    layout, runs, n = measurements[0], len(measurements), grid.size
    node = np.argmin(np.abs(grid - layout.s[:, None]), axis=1)
    strain, pose = layout.kind == "strain", layout.kind == "pose"
    anchor = pose & layout.mask.all(axis=1) & (node > 0)
    if strain.any():
        mask = layout.mask[strain]
        values = np.stack([run.eps_meas for run in measurements])
        total, count = np.zeros((runs, n, 6)), np.zeros((n, 6))
        np.add.at(total, (slice(None), node[strain]), np.where(mask, values, 0.0))
        np.add.at(count, node[strain], mask)
        seen, index = count > 0, np.arange(n)[:, None]
        # Per component, the observing nodes at or before (-1 for none) and
        # at or after (n for none) each node: before the first observing
        # node both are the first, past the last both are the last.
        before = np.maximum.accumulate(np.where(seen, index, -1), axis=0)
        after = np.minimum.accumulate(np.where(seen, index, n)[::-1], axis=0)[::-1]
        lo = np.where(before >= 0, before, after)
        lo, hi = np.minimum(lo, n - 1), np.minimum(np.where(after < n, after, lo), n - 1)
        span = grid[hi] - grid[lo]
        w = np.divide(grid[:, None] - grid[lo], span, out=np.zeros(span.shape), where=span > 0)
        value, c = total / np.maximum(count, 1.0), np.arange(6)
        eps = np.where(seen.any(axis=0), (1.0 - w) * value[:, lo, c] + w * value[:, hi, c], hyper.eps_bar)
        steps = se3.exp_se3(0.5 * (eps[:, :-1] + eps[:, 1:]) * np.diff(grid)[:, None])
        T = np.empty((runs, n, 4, 4))
        T[:, 0] = np.eye(4)
        for k in range(n - 1):
            T[:, k + 1] = steps[:, k] @ T[:, k]
    elif anchor.any():
        # The anchors: the identity root, then each node's first fully
        # observed pose in sensor order, by node.
        anchored, first = np.unique(node[anchor], return_index=True)
        T_meas = np.stack([run.T_meas for run in measurements])[:, anchor[pose]][:, first]
        anchors = np.concatenate([np.broadcast_to(np.eye(4), (runs, 1, 4, 4)), T_meas], axis=1)
        knots = grid[np.concatenate([[0], anchored])]
        rel = anchors[:, 1:] @ se3.pose_inverse(anchors[:, :-1])
        twists = se3.log_se3(rel) / np.diff(knots)[:, None]
        span = np.clip(np.searchsorted(knots, grid), 1, knots.size - 1) - 1
        eps = twists[:, span]
        T = se3.exp_se3((grid - knots[span])[:, None] * eps) @ anchors[:, span]
    else:
        straight = straight_guess(grid, hyper)
        T, eps = (np.broadcast_to(x, (runs,) + x.shape) for x in (straight.T, straight.eps))
    return StateNode(np.broadcast_to(grid, (runs, n)), T, eps)


def model_guess(grid, shape: rodsim.GroundTruthShape) -> StateNode:
    """Initial guess read off a simulated shape at the grid arclengths."""
    truth = shape.nodes[shape.nearest_indices(grid)]
    return StateNode(np.asarray(grid, dtype=float), truth.T, truth.eps)


def query_points(grid, per_interval: int):
    """All emitted arclengths: every node plus equally spaced interiors.

    Returns (arclengths, is_node) with n_nodes + per_interval*(n_nodes-1)
    entries in ascending order.
    """
    i = np.arange(per_interval + 1)
    taus = grid[:-1, None] + np.diff(grid)[:, None] * i / (per_interval + 1)
    is_node = np.broadcast_to(i == 0, taus.shape)
    return np.append(taus.ravel(), grid[-1]), np.append(is_node.ravel(), True)


@dataclass
class EstimateRecord:
    """One configuration's estimate sampled at the query points."""

    index: int
    solution: solver.Solution
    arclengths: np.ndarray
    is_node: np.ndarray
    states: StateNode
    covs: np.ndarray
    truth: StateNode
    pos_err: np.ndarray
    ang_err: np.ndarray


@dataclass
class ErrorProfile:
    """Error statistics along arclength, aggregated across runs."""

    arclengths: np.ndarray
    pos_mean: np.ndarray
    pos_std: np.ndarray
    pos_min: np.ndarray
    pos_max: np.ndarray
    ang_mean: np.ndarray
    ang_std: np.ndarray
    ang_min: np.ndarray
    ang_max: np.ndarray
    run_count: int

    def tip_errors(self) -> tuple:
        """(mean position m, mean orientation deg) at the last arclength."""
        return float(self.pos_mean[-1]), float(self.ang_mean[-1])


@dataclass
class StudyResult:
    profile: ErrorProfile
    records: list
    failures: list = field(default_factory=list)


def _estimate(shapes, measurements, config: ScenarioConfig, grid, guesses=None) -> list:
    """Solve, query and score runs that share one grid as one batch: an
    EstimateRecord per run, in run order. guesses holds one initial guess
    per run, or None for measured_guess. A run whose system is not
    positive definite (LinAlgError) or whose rotations leave the log branch
    (BranchError), in its guess or in the solve, fails the whole batch, so
    every run is then solved alone, and a run that fails alone gets its
    error in place of a record."""
    hyper, locks = config.hyperparams(), config.locks(grid.size)
    try:
        guess = measured_guess(grid, measurements, hyper) if guesses is None else guesses
        problem = solver.Problem(grid, hyper, measurements, guess, locks, config.max_iters, config.step_tol)
        solutions = solver.gauss_newton(problem)
        taus, is_node = query_points(grid, config.states_per_interval)
        states, covs = interpolation.query(solutions, taus)
    except (np.linalg.LinAlgError, se3.BranchError) as exc:
        if len(shapes) == 1:
            return [exc]
        one = [slice(run, run + 1) for run in range(len(shapes))]
        alone = [None if guesses is None else guesses[r] for r in one]
        return [_estimate(shapes[r], measurements[r], config, grid, g)[0] for r, g in zip(one, alone)]
    truth = [shape.nodes[shape.nearest_indices(taus)] for shape in shapes]
    pos_err, ang_err = pose_errors(np.stack([x.T for x in states]), np.stack([t.T for t in truth]))
    return [
        EstimateRecord(-1, solutions[i], taus, is_node, states[i], covs[i], truth[i], pos_err[i], ang_err[i])
        for i in range(len(shapes))
    ]


def run_single(props, shape, measurements, config: ScenarioConfig, initial_guess=None) -> EstimateRecord:
    """Estimate one configuration and match it against its ground truth.

    initial_guess is a StateNode with s (n,) on the estimation grid, or
    "measured" (also None) for measured_guess, "straight" for the
    prior-mean rollout or "model" to read it off shape, built on that grid.
    This is the one-run case of run_study; a run that fails raises its
    error.
    """
    grid = estimation_grid(props.total_length, config.num_intervals, measurements.s)
    if initial_guess == "model":
        initial_guess = model_guess(grid, shape)
    elif initial_guess == "straight":
        initial_guess = straight_guess(grid, config.hyperparams())
    guesses = None if initial_guess is None or initial_guess == "measured" else [initial_guess]
    (record,) = _estimate([shape], [measurements], config, grid, guesses)
    if isinstance(record, Exception):
        raise record
    return record


def run_study(props, dataset, config: ScenarioConfig) -> StudyResult:
    """Run the estimator over a dataset for one sensor scenario.

    Each configuration gets an independent measurement-noise stream
    derived from (config.seed, run index), so results are reproducible
    and independent of the dataset size. Runs whose measurements give the
    same sensor arclengths, and so the same estimation grid, are solved,
    queried and scored as one batch.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    measurements = [
        rodsim.extract_measurements(
            shape, config.scenario, props, config.noise, np.random.default_rng([config.seed, index])
        )
        for index, (_, shape) in enumerate(dataset)
    ]
    batches = {}
    for index, ms in enumerate(measurements):
        batches.setdefault(ms.s.tobytes(), []).append(index)
    outcome = {}
    for runs in batches.values():
        grid = estimation_grid(props.total_length, config.num_intervals, measurements[runs[0]].s)
        shapes = [dataset[index][1] for index in runs]
        outcome.update(zip(runs, _estimate(shapes, [measurements[i] for i in runs], config, grid)))
    records, failures = [], []
    for index in range(len(dataset)):
        record = outcome[index]
        if isinstance(record, Exception):
            failures.append((index, f"solver error: {record}"))
        elif not record.solution.converged:
            failures.append((index, f"no convergence in {record.solution.iterations} iterations"))
        else:
            record.index = index
            records.append(record)
    if not records:
        # With no run to report, a run that left the log branch raises its
        # error, as any such run did before runs were filed one by one.
        for index in range(len(dataset)):
            if isinstance(outcome[index], se3.BranchError):
                raise outcome[index]
        raise RuntimeError(f"every run failed: {failures}")
    pos, ang = (np.stack([getattr(r, name) for r in records]) for name in ("pos_err", "ang_err"))
    stats = [f(x, axis=0) for x in (pos, ang) for f in (np.mean, np.std, np.min, np.max)]
    profile = ErrorProfile(records[0].arclengths.copy(), *stats, len(records))
    return StudyResult(profile, records, failures)


def position_covariance(T, cov12) -> np.ndarray:
    """3x3 world-position covariance from a 12x12 state covariance, or
    (..., 3, 3) from (..., 4, 4) poses and (..., 12, 12) covariances.

    A left pose perturbation moves the translation by delta_rho plus
    delta_theta crossed into it, so the position picks up [I, -hat(p)]
    times the pose block.
    """
    p = np.asarray(T, dtype=float)[..., :3, 3]
    A = np.concatenate([np.broadcast_to(np.eye(3), p.shape[:-1] + (3, 3)), -se3.hat3(p)], axis=-1)
    return A @ np.asarray(cov12)[..., 0:6, 0:6] @ np.swapaxes(A, -1, -2)


def envelope_hits(record: EstimateRecord, nodes_only: bool = True) -> np.ndarray:
    """Whether ground truth lies within the 3-sigma position envelope.

    Checked as a Mahalanobis distance of the true position under the
    estimated position covariance.
    """
    points = np.flatnonzero(record.is_node) if nodes_only else np.arange(record.arclengths.size)
    T = record.states.T[points]
    P = position_covariance(T, record.covs[points])
    d = record.truth.T[points, :3, 3] - T[:, :3, 3]
    # Locked sub-state: zero covariance, inside iff exact.
    locked = np.trace(P, axis1=-2, axis2=-1) < 1e-18
    x = np.linalg.solve(np.where(locked[:, None, None], np.eye(3), P), d[..., None])[..., 0]
    m2 = np.einsum("ij,ij->i", d, x)
    return np.where(locked, np.linalg.norm(d, axis=-1) < 1e-9, m2 <= 9.0)

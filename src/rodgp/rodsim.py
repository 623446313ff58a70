"""Static Cosserat-rod simulator for tendon-driven continuum robots.

Ground truth for the estimator: a multi-segment rod actuated by straight,
parallel-routed tendons that terminate at segment ends, plus an optional
wrench at the tip. Each tendon contributes a body-frame-constant internal
wrench everywhere proximal of its termination (the cross-section always
sees the same pull in local coordinates), so the internal stress splits
into that piecewise-constant part and a transported part obeying
d(sigma)/ds = -curly(eps)^T sigma. Only the transported part is unknown,
which makes the boundary-value problem a 6-dimensional shoot.

Kinematics use the same left-increment convention as the estimator:
dT/ds = hat6(eps) T, so simulated strains feed the prior directly.

One fixed-step RK4 integrates the transported stress for a stack of base
values, each with its own routed tendon stress, so a whole dataset is shot
at once: a Newton iteration is mostly one sweep without poses over the
step trials and next finite differences of all configurations, and one
dense pass at the requested resolution carries every shape's pose. Newton
climbs SHOOTING_RUNGS, coarse resolutions whose last roots and Jacobians
start the next one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import se3
from .measurements import Measurements, corrupt_pose, corrupt_strain
from .prior import StateNode

# Shooting convergence: residual infinity norm in N / N*m.
SHOOTING_TOL = 1e-9
MAX_SHOOTING_ITERATIONS = 50
# Finite-difference step for the shooting Jacobian.
SHOOTING_FD_STEP = 1e-7
MIN_STEPS_PER_SEGMENT = 200
# Newton climbs these resolutions in steps per segment: from the zero guess
# at the first, and at each next one from the last roots and Jacobians. A
# sweep costs mostly per-step overhead, so the cheap first rung takes the
# long way in. The dense shape at the requested resolution is polished only
# if its tip misses SHOOTING_TOL, since RK4 truncation error at the last
# rung is still well under the tol.
SHOOTING_RUNGS = (32, 128)
# Undeformed rod: unit stretch along the local x axis, no shear or curvature.
REST_STRAIN = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
# -curly_hat(eps)^T sigma as the product (sigma_i eps_k)_{6 i + k} @ _STRESS_RATE.
_STRESS_RATE = -np.swapaxes(se3.curly_hat(np.eye(6)), 0, 1).reshape(36, 6)


@dataclass(frozen=True)
class RodProperties:
    """Geometry and material of a multi-segment tendon-driven rod.

    Tendons are (segment index, angular position) pairs; each tendon runs
    from the base to the end of its segment at constant cross-section
    offset pitch_radius from the backbone.
    """

    young_modulus: float
    poisson: float
    diameter: float
    segment_lengths: tuple
    pitch_radius: float
    tendons: tuple
    disks_per_segment: int

    def __post_init__(self):
        lengths = tuple(float(L) for L in self.segment_lengths)
        tendons = tuple((int(i), float(th)) for i, th in self.tendons)
        object.__setattr__(self, "segment_lengths", lengths)
        object.__setattr__(self, "tendons", tendons)
        if self.young_modulus <= 0 or self.diameter <= 0 or self.pitch_radius <= 0:
            raise ValueError("material and geometry parameters must be positive")
        if not 0.0 < self.poisson < 0.5:
            raise ValueError(f"Poisson ratio must be in (0, 0.5), got {self.poisson}")
        if not lengths or any(L <= 0 for L in lengths):
            raise ValueError("segment lengths must be positive")
        if self.disks_per_segment < 1:
            raise ValueError("need at least one disk per segment")
        for seg, _ in tendons:
            if not 0 <= seg < len(lengths):
                raise ValueError(f"tendon segment index {seg} out of range")

    @classmethod
    def default(cls) -> "RodProperties":
        """Two-segment reference robot used across tests and examples.

        54 GPa backbone of 1 mm diameter, 7 mm tendon pitch radius, two
        0.14 m segments with 7 disks each and four tendons per segment at
        right angles.
        """
        tendons = tuple(
            (seg, angle)
            for seg in (0, 1)
            for angle in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
        )
        return cls(
            young_modulus=54e9,
            poisson=0.3,
            diameter=1e-3,
            segment_lengths=(0.14, 0.14),
            pitch_radius=7e-3,
            tendons=tendons,
            disks_per_segment=7,
        )

    @property
    def total_length(self) -> float:
        return float(sum(self.segment_lengths))

    def segment_ends(self) -> np.ndarray:
        """Arclengths of the segment boundaries, excluding the base."""
        return np.cumsum(self.segment_lengths)

    def tendon_terminations(self) -> np.ndarray:
        """Termination arclength of each tendon (end of its segment)."""
        ends = self.segment_ends()
        return np.array([ends[seg] for seg, _ in self.tendons])

    def disk_arclengths(self) -> np.ndarray:
        """Disk positions: equally spaced within each segment, end included."""
        starts = np.concatenate([[0.0], self.segment_ends()[:-1]])
        disks = []
        for start, length in zip(starts, self.segment_lengths):
            for j in range(1, self.disks_per_segment + 1):
                disks.append(start + j * length / self.disks_per_segment)
        return np.array(disks)


def stiffness(props: RodProperties) -> np.ndarray:
    """Diagonal stiffness diag(EA, GA, GA, GJ, EI, EI), local x tangent."""
    area = np.pi * props.diameter**2 / 4.0
    inertia = np.pi * props.diameter**4 / 64.0
    polar = 2.0 * inertia
    shear_mod = props.young_modulus / (2.0 * (1.0 + props.poisson))
    E, G = props.young_modulus, shear_mod
    return np.diag([E * area, G * area, G * area, G * polar, E * inertia, E * inertia])


@dataclass(frozen=True)
class Actuation:
    """Per-tendon tensions (N) and an optional wrench at the tip."""

    tensions: tuple
    tip_wrench: tuple = (0.0,) * 6
    max_tension: float = 3.0

    def __post_init__(self):
        tensions = tuple(float(t) for t in self.tensions)
        wrench = tuple(float(w) for w in self.tip_wrench)
        object.__setattr__(self, "tensions", tensions)
        object.__setattr__(self, "tip_wrench", wrench)
        if len(wrench) != 6:
            raise ValueError(f"tip wrench must be length 6, got {len(wrench)}")
        if any(t < 0 for t in tensions):
            raise ValueError("tendon tensions must be non-negative")
        if any(t > self.max_tension + 1e-12 for t in tensions):
            raise ValueError(f"tendon tensions must not exceed {self.max_tension} N")


@dataclass
class GroundTruthShape:
    """Dense simulator output: every sample as one stacked StateNode, s (n,)
    ascending, T (n, 4, 4) and eps (n, 6), and the internal stress sigma
    (n, 6) at each."""

    nodes: StateNode
    sigma: np.ndarray

    def __post_init__(self):
        if not isinstance(self.nodes, StateNode) or np.ndim(self.nodes.s) != 1:
            raise TypeError("nodes must be one stacked StateNode")
        self.sigma = np.asarray(self.sigma, dtype=float)
        n = self.nodes.s.size
        if n == 0:
            raise ValueError("need at least one dense sample")
        fields = {"s": self.nodes.s, "T": self.nodes.T, "eps": self.nodes.eps, "sigma": self.sigma}
        for name, shape in (("T", (n, 4, 4)), ("eps", (n, 6)), ("sigma", (n, 6))):
            if fields[name].shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {fields[name].shape}")
        for name, value in fields.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.diff(self.nodes.s) >= 0):
            raise ValueError("dense samples must ascend in arclength")

    def nearest_indices(self, s) -> np.ndarray:
        """Index of the dense sample nearest to each arclength in s, a tie
        going to the lower index as in np.argmin over all samples. The
        samples ascend, so the nearest one is the first at or past s or
        the first of the samples equal to the one before it."""
        a, s = self.nodes.s, np.asarray(s, dtype=float)
        right = np.clip(np.searchsorted(a, s), 1, a.size - 1)
        left = np.searchsorted(a, a[right - 1])
        return np.where(np.abs(a[right] - s) < np.abs(a[left] - s), right, left)


class ShootingError(RuntimeError):
    """Static solve failed; carries the best boundary residual seen."""

    def __init__(self, message: str, residual: np.ndarray):
        super().__init__(message)
        self.residual = residual


def tendon_point_wrenches(props: RodProperties, actuation: Actuation):
    """Per-tendon termination wrench in the local frame.

    The tendon pulls along -x (toward the base) at cross-section offset
    p = pitch_radius * (0, sin theta, cos theta); theta = 0 therefore
    bends about the local y axis. Zero-tension tendons are omitted.
    """
    if len(actuation.tensions) != len(props.tendons):
        raise ValueError(
            f"expected {len(props.tendons)} tensions, got {len(actuation.tensions)}"
        )
    terminations = props.tendon_terminations()
    wrenches = []
    for (seg, theta), tension, s_end in zip(
        props.tendons, actuation.tensions, terminations
    ):
        if tension == 0.0:
            continue
        offset = props.pitch_radius * np.array([0.0, np.sin(theta), np.cos(theta)])
        force = np.array([-tension, 0.0, 0.0])
        wrenches.append((float(s_end), np.concatenate([force, np.cross(offset, force)])))
    return wrenches


def _routed_stress(props: RodProperties, wrench_lists) -> np.ndarray:
    """Tendon stress in each segment, (n_segments, C, 6), for C wrench lists."""
    mids = props.segment_ends() - 0.5 * np.array(props.segment_lengths)
    return np.array([[sum((w for e, w in ws if s < e), np.zeros(6)) for ws in wrench_lists] for s in mids])


def _rounded_steps(props: RodProperties, steps_per_segment: int) -> int:
    """Steps per segment, rounded up so disk arclengths land on samples."""
    if steps_per_segment < MIN_STEPS_PER_SEGMENT:
        raise ValueError(f"need at least {MIN_STEPS_PER_SEGMENT} steps per segment")
    disks = props.disks_per_segment
    return int(-(-steps_per_segment // disks) * disks)


def _rk4(props, base_stresses, routed, steps_per_segment, poses=False):
    """Fixed-step RK4 from the base for a stack of transported stresses.

    base_stresses is (B, 6) and its rows evolve independently; routed is
    the tendon stress each row sees in each segment, (n_segments, B, 6).
    Each stage strain eps = (REST_STRAIN + K^-1 routed) + K^-1 sigma, the
    bracket fixed per segment, drives d(sigma)/ds = -curly_hat(eps)^T sigma
    and, when poses is set, also the pose dT/ds = hat6(eps) T from T(0) = I. Shooting leaves the pose out and
    gets the tip stresses (B, 6); with poses, returns the arclengths, the
    stresses (n + 1, B, 6) and poses (n + 1, B, 4, 4) of every sample.
    Non-finite rows propagate silently.
    """
    compliance = 1.0 / np.diag(stiffness(props))
    sigma = np.array(base_stresses, dtype=float)
    rows = len(sigma)
    # The pose rides along as 16 extra columns of one state array.
    y = np.hstack([sigma, np.tile(np.eye(4).ravel(), (rows, 1))]) if poses else sigma

    def derivative(y, offset):
        sig = y[:, :6]
        eps = offset + compliance * sig
        d_sigma = (sig[:, :, None] * eps[:, None, :]).reshape(rows, 36) @ _STRESS_RATE
        if not poses:
            return d_sigma
        d_pose = se3.hat6(eps) @ y[:, 6:].reshape(rows, 4, 4)
        return np.concatenate([d_sigma, d_pose.reshape(rows, 16)], axis=1)

    arclengths = [0.0]
    if poses:  # every sample is kept, written in place
        states = np.empty((len(props.segment_lengths) * steps_per_segment + 1, *y.shape))
        states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for start, length, tendons in zip(
            np.concatenate([[0.0], props.segment_ends()[:-1]]), props.segment_lengths, routed
        ):
            # The tendon stress is constant within a segment, so RK4 never
            # straddles a jump.
            h, offset = length / steps_per_segment, REST_STRAIN + compliance * tendons
            for j in range(1, steps_per_segment + 1):
                k1 = derivative(y, offset)
                k2 = derivative(y + 0.5 * h * k1, offset)
                k3 = derivative(y + 0.5 * h * k2, offset)
                k4 = derivative(y + h * k3, offset)
                y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if poses:
                    arclengths.append(start + j * h if j < steps_per_segment else start + length)
                    states[len(arclengths) - 1] = y
    if not poses:
        return y
    return np.array(arclengths), states[..., :6], states[..., 6:].reshape(len(states), rows, 4, 4)


def _integrate(props, base_stresses, routed, tip_wrench, steps):
    """Dense shapes of C configurations from one RK4 pass with poses: the
    shapes, the tip residuals sigma(S) - tip_wrench (C, 6) and, per
    configuration, None or the ShootingError of a diverged integration."""
    arclengths, sigma_p, T = _rk4(props, base_stresses, routed, steps, poses=True)
    # The last sample of a segment lies past the tendons ending there.
    past = np.concatenate([routed, np.zeros_like(routed[:1])])
    stresses = sigma_p + past[np.arange(len(arclengths)) // steps]
    residuals = stresses[-1] - tip_wrench
    strains = REST_STRAIN + stresses * (1.0 / np.diag(stiffness(props)))
    finite = np.isfinite(T).all(axis=(0, 2, 3)) & np.isfinite(stresses).all(axis=(0, 2))
    shapes = [
        GroundTruthShape(StateNode(arclengths, T[:, c], strains[:, c]), stresses[:, c]) if ok else None
        for c, ok in enumerate(finite)
    ]
    errors = [None if ok else ShootingError("rod integration diverged", residual)
              for ok, residual in zip(finite, residuals)]
    return shapes, residuals, errors


def _newton_shoot(props, routed, tip_wrench, guess, steps_per_segment, jac=None):
    """Damped Newton on the base stresses (C, 6) of C configurations.

    The forward map is stiff for large trial stresses, so each step is
    backtracked over 12 halvings until the residual norm decreases;
    non-finite trials count as failures. The first sweep takes the residual
    of every guess and the finite differences around it. One RK4 sweep per
    iteration holds the trials at step sizes 1, 1/2 and 1/4 and the finite
    differences around the full step, which leave that step's Jacobian
    ready. Where all three fail a second sweep tries the other nine, and a
    shorter step gets its finite differences in a sweep of its own. Returns
    the roots and, per configuration, None or the ShootingError it meets
    when shot alone.

    jac, if given, is a (C, 6, 6) array of Jacobians at the guesses, such
    as a coarser resolution's last ones: the first sweep takes finite
    differences only for the configurations whose Jacobian holds a NaN.
    It is overwritten with each configuration's last Jacobian.
    """

    def residuals_of(guesses, rows, take=None):  # (A, k, 6): k trials per configuration, NaN where not taken
        take = np.ones(guesses.shape[:2], dtype=bool) if take is None else take
        configs = np.broadcast_to(rows[:, None], take.shape)[take]
        out = np.full(guesses.shape, np.nan)
        out[take] = _rk4(props, guesses[take], routed[:, configs], steps_per_segment) - tip_wrench[configs]
        return out

    def bumped(x):  # finite-difference steps (A, 6) and stresses (A, 6, 6) around x
        fd_steps = SHOOTING_FD_STEP * np.maximum(1.0, np.abs(x))
        return fd_steps, x[:, None, :] + fd_steps[:, :, None] * np.eye(6)

    def slopes(bumped_residuals, base, fd_steps):
        return (bumped_residuals - base[:, None]).transpose(0, 2, 1) / fd_steps[:, None]

    def norms(trials):  # infinity norms, inf for a non-finite trial
        return np.where(np.isfinite(trials).all(axis=-1), np.max(np.abs(trials), axis=-1), np.inf)

    def fail(rows, message):
        for c in rows:
            errors[c] = ShootingError(message.format(norm=np.max(np.abs(residual[c]))), residual[c])

    guess, errors, active = np.array(guess, dtype=float), [None] * len(guess), np.arange(len(guess))
    jac = np.full((len(guess), 6, 6), np.nan) if jac is None else jac
    unknown = np.isnan(jac).any(axis=(1, 2))
    fd_steps, fd_rows = bumped(guess)
    take = np.ones((len(guess), 7), dtype=bool)
    take[~unknown, 1:] = False
    first = residuals_of(np.concatenate([guess[:, None], fd_rows], axis=1), active, take)
    residual = first[:, 0]
    jac[unknown] = slopes(first[unknown, 1:], residual[unknown], fd_steps[unknown])
    stale = np.zeros(len(guess), dtype=bool)  # took a shorter step: no Jacobian yet
    alphas, likely = 0.5 ** np.arange(12), 3
    for _ in range(MAX_SHOOTING_ITERATIONS):
        norm = np.max(np.abs(residual), axis=1)
        active = active[~(norm[active] < SHOOTING_TOL)]
        if active.size == 0:
            break
        if stale[active].any():
            rows = active[stale[active]]
            fd_steps, fd_rows = bumped(guess[rows])
            jac[rows] = slopes(residuals_of(fd_rows, rows), residual[rows], fd_steps)
        # LU meets a zero pivot in exactly the Jacobians solve rejects.
        with np.errstate(invalid="ignore"):
            singular = np.linalg.slogdet(jac[active])[0] == 0.0
        fail(active[singular], "singular shooting Jacobian")
        active = active[~singular]
        delta = np.linalg.solve(jac[active], -residual[active, :, None])[..., 0]
        candidates = guess[active, None, :] + alphas[:, None] * delta[:, None, :]
        fd_steps, fd_rows = bumped(candidates[:, 0])
        swept = residuals_of(np.concatenate([candidates[:, :likely], fd_rows], axis=1), active)
        trial = np.full(candidates.shape, np.nan)  # a NaN row is never accepted
        trial[:, :likely] = swept[:, :likely]
        short = ~(norms(trial[:, :likely]) < norm[active, None]).any(axis=1)
        if short.any():
            trial[short, likely:] = residuals_of(candidates[short, likely:], active[short])
        accepted = norms(trial) < norm[active, None]
        moved = accepted.any(axis=1)
        fail(active[~moved], "shooting step failed to reduce the residual below {norm:.3e}")
        # Each configuration takes its first accepted step size.
        rows, pick, active = np.flatnonzero(moved), accepted[moved].argmax(axis=1), active[moved]
        guess[active], residual[active] = candidates[rows, pick], trial[rows, pick]
        full = pick == 0
        jac[active[full]] = slopes(swept[rows[full], likely:], residual[active[full]], fd_steps[rows[full]])
        stale[active] = ~full
    # Accepted steps only ever lower the norm, so the last residual is the best.
    fail(active, f"shooting did not converge in {MAX_SHOOTING_ITERATIONS} iterations; "
         "best residual infinity norm {norm:.3e}")
    return guess, errors


def _climb(props, routed, tip_wrench):
    """Roots (C, 6) at the last of SHOOTING_RUNGS and, per configuration,
    None or its ShootingError: Newton from the zero guess at the first
    rung, then at each next one from the last rung's roots and Jacobians.
    A configuration that meets an error on the way is shot again from the
    zero guess at the last rung alone, so it gets the root or the error of
    a one-rung shoot."""
    guess, rows = np.zeros_like(tip_wrench), np.arange(len(tip_wrench))
    jac = np.full((len(rows), 6, 6), np.nan)  # one per row, unknown at the zero guess
    for steps in SHOOTING_RUNGS:
        guess[rows], failed = _newton_shoot(props, routed[:, rows], tip_wrench[rows], guess[rows], steps, jac)
        kept = [f is None for f in failed]
        rows, jac = rows[kept], jac[kept]
    errors = [None] * len(tip_wrench)
    retry = np.delete(np.arange(len(tip_wrench)), rows)
    if retry.size:
        zeros = np.zeros((retry.size, 6))
        guess[retry], failed = _newton_shoot(props, routed[:, retry], tip_wrench[retry], zeros, SHOOTING_RUNGS[-1])
        for c, f in zip(retry, failed):
            errors[c] = f
    return guess, errors


def _solve(props: RodProperties, actuations, steps_per_segment: int) -> list:
    """Shapes of many actuations, each as solve_static describes, solved
    together. Raises the ShootingError of the lowest-index configuration
    that fails, the one solve_static raises on it alone."""
    steps = _rounded_steps(props, steps_per_segment)
    routed = _routed_stress(props, [tendon_point_wrenches(props, a) for a in actuations])
    tip = np.array([a.tip_wrench for a in actuations], dtype=float)
    guess, failed = _climb(props, routed, tip)
    shapes, errors, rows = [None] * len(tip), [None] * len(tip), list(range(len(tip)))
    for polished in (False, True):
        dense, residuals, diverged = _integrate(props, guess[rows], routed[:, rows], tip[rows], steps)
        for c, shape, f, d in zip(rows, dense, failed, diverged):
            shapes[c], errors[c] = shape, f or d
        rows = [c for c, r in zip(rows, residuals) if not errors[c] and np.max(np.abs(r)) >= SHOOTING_TOL]
        if polished or not rows:
            break
        guess[rows], failed = _newton_shoot(props, routed[:, rows], tip[rows], guess[rows], steps)
    for error in filter(None, errors):
        raise error
    return shapes


def solve_static(
    props: RodProperties,
    actuation: Actuation,
    steps_per_segment: int = MIN_STEPS_PER_SEGMENT,
) -> GroundTruthShape:
    """Newton shooting on the base stress until the tip wrench balances.

    Shoots up a ladder of coarse resolutions first, then integrates the
    dense shape at the requested one; only if that shape's tip misses the
    wrench by SHOOTING_TOL does Newton polish at the dense resolution,
    which RK4 is accurate enough to make rare.
    """
    return _solve(props, [actuation], steps_per_segment)[0]


def sample_dataset(
    props: RodProperties,
    count: int,
    loaded_fraction: float = 0.5,
    seed: int = 0,
    steps_per_segment: int = MIN_STEPS_PER_SEGMENT,
):
    """Random actuations and their solved shapes.

    Each draw tensions one or two tendons (one on a single-tendon rod)
    uniformly in [0, 3] N. The first
    floor(loaded_fraction * count) configurations additionally carry a tip
    wrench with force components uniform in [-0.1, 0.1] N and moment
    components uniform in [-0.01, 0.01] N*m. Per-configuration generators
    are seeded from (seed, index), so draws are independent of count. All
    are shot together, bit-identical to solve_static on each draw.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0.0 <= loaded_fraction <= 1.0:
        raise ValueError("loaded fraction must be within [0, 1]")
    n_loaded = int(np.floor(loaded_fraction * count))
    actuations = []
    for index in range(count):
        rng = np.random.default_rng([int(seed), index])
        n_active = min(int(rng.integers(1, 3)), len(props.tendons))
        active = rng.choice(len(props.tendons), size=n_active, replace=False)
        tensions = np.zeros(len(props.tendons))
        tensions[active] = rng.uniform(0.0, 3.0, size=n_active)
        wrench = np.zeros(6)
        if index < n_loaded:
            wrench[:3] = rng.uniform(-0.1, 0.1, size=3)
            wrench[3:] = rng.uniform(-0.01, 0.01, size=3)
        actuations.append(Actuation(tuple(tensions), tuple(wrench)))
    return list(zip(actuations, _solve(props, actuations, steps_per_segment)))


class Scenario(enum.Enum):
    """Sensor placements of the simulation study."""

    POSE_AT_SEGMENT_ENDS = "pose_at_segment_ends"
    STRAIN_AT_DISKS = "strain_at_disks"
    STRAIN_PLUS_TIP_POSE = "strain_plus_tip_pose"


# Keeps R positive definite when the injected noise is switched off.
MIN_MEASUREMENT_VARIANCE = 1e-12


@dataclass(frozen=True)
class MeasurementNoise:
    """Injected noise stds and the covariance inflation used for R."""

    sigma_t: float = 1e-3
    sigma_a: float = 0.01
    sigma_nu: float = 0.05
    sigma_omega: float = 0.05
    r_inflation: float = 10.0

    def pose_cov(self) -> np.ndarray:
        return self.r_inflation * np.diag(
            [max(self.sigma_t**2, MIN_MEASUREMENT_VARIANCE)] * 3
            + [max(self.sigma_a**2, MIN_MEASUREMENT_VARIANCE)] * 3
        )

    def strain_cov(self) -> np.ndarray:
        return self.r_inflation * np.diag(
            [max(self.sigma_nu**2, MIN_MEASUREMENT_VARIANCE)] * 3
            + [max(self.sigma_omega**2, MIN_MEASUREMENT_VARIANCE)] * 3
        )


def extract_measurements(
    shape: GroundTruthShape,
    scenario: Scenario,
    props: RodProperties,
    noise: MeasurementNoise,
    rng,
) -> Measurements:
    """Scenario measurements read off the dense shape, then corrupted.

    Pose scenarios sense segment ends; strain scenarios sense every disk.
    The strain sensors come first, then the poses, and the noise is drawn
    from rng in that order, one 6-vector per sensor. The reported
    covariance R is the inflated noise covariance, not the injected one.
    """
    rng = np.random.default_rng(rng)
    if scenario is Scenario.POSE_AT_SEGMENT_ENDS:
        strains, poses = [], props.segment_ends()
    elif scenario is Scenario.STRAIN_AT_DISKS:
        strains, poses = props.disk_arclengths(), []
    elif scenario is Scenario.STRAIN_PLUS_TIP_POSE:
        strains, poses = props.disk_arclengths(), [props.total_length]
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    m = len(strains)
    states = shape.nodes[shape.nearest_indices(np.concatenate([strains, poses]))]
    eps_meas = corrupt_strain(states.eps[:m], np.diag([noise.sigma_nu**2] * 3 + [noise.sigma_omega**2] * 3), rng)
    T_meas = corrupt_pose(states.T[m:], np.diag([noise.sigma_t**2] * 3 + [noise.sigma_a**2] * 3), rng)
    pose = np.arange(states.s.size) >= m
    return Measurements(
        s=states.s,
        kind=np.where(pose, "pose", "strain"),
        mask=np.ones((pose.size, 6), dtype=bool),
        R=np.where(pose[:, None, None], noise.pose_cov(), noise.strain_cov()),
        T_meas=T_meas,
        eps_meas=eps_meas,
    )

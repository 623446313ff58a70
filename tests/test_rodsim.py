import dataclasses
import re

import numpy as np
import pytest

from rodgp import rodsim, se3
from rodgp.measurements import corrupt_pose, corrupt_strain
from rodgp.rodsim import (
    Actuation,
    GroundTruthShape,
    MeasurementNoise,
    RodProperties,
    Scenario,
    ShootingError,
)

from oracles import pose, sensor_list, strain

NO_TENSION = (0.0,) * 8
# Two tendons in different segments plus a tip wrench.
TIP_LOADED = Actuation(
    (2.5, 0, 0, 0, 0, 2.0, 0, 0), (-0.08, 0.05, 0.06, 0.008, -0.006, 0.004)
)


def single_tendon(tension, index=0):
    tensions = [0.0] * 8
    tensions[index] = tension
    return Actuation(tuple(tensions))


def test_default_properties():
    props = RodProperties.default()
    assert props.total_length == pytest.approx(0.28)
    np.testing.assert_allclose(props.segment_ends(), [0.14, 0.28])
    assert len(props.tendons) == 8
    disks = props.disk_arclengths()
    assert disks.size == 14
    np.testing.assert_allclose(disks[:3], [0.02, 0.04, 0.06])
    assert 0.14 in disks and 0.28 in disks
    np.testing.assert_allclose(
        props.tendon_terminations(), [0.14] * 4 + [0.28] * 4
    )


def test_properties_validation():
    props = RodProperties.default()
    with pytest.raises(ValueError):
        dataclasses.replace(props, poisson=0.6)
    with pytest.raises(ValueError):
        dataclasses.replace(props, poisson=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(props, diameter=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(props, segment_lengths=(0.14, -0.1))
    with pytest.raises(ValueError):
        dataclasses.replace(props, tendons=((5, 0.0),))
    with pytest.raises(ValueError):
        dataclasses.replace(props, disks_per_segment=0)


def test_stiffness_formulas():
    props = RodProperties.default()
    K = rodsim.stiffness(props)
    d, E = props.diameter, props.young_modulus
    area = np.pi * d**2 / 4.0
    inertia = np.pi * d**4 / 64.0
    G = E / (2.0 * (1.0 + props.poisson))
    np.testing.assert_allclose(np.diag(K), [E * area, G * area, G * area, G * 2 * inertia, E * inertia, E * inertia])
    np.testing.assert_allclose(K[4, 4], 0.0026507188014663887)
    assert not np.any(K - np.diag(np.diag(K)))
    # Fourth-power law in the diameter for the bending stiffness.
    thick = rodsim.stiffness(dataclasses.replace(props, diameter=2 * d))
    np.testing.assert_allclose(thick[4, 4] / K[4, 4], 16.0)


def test_actuation_validation():
    with pytest.raises(ValueError):
        Actuation((-0.1,) + (0.0,) * 7)
    with pytest.raises(ValueError):
        Actuation((3.5,) + (0.0,) * 7)
    with pytest.raises(ValueError):
        Actuation(NO_TENSION, (0.0,) * 5)
    Actuation((3.0,) + (0.0,) * 7)  # boundary tension is allowed


def test_tendon_point_wrenches():
    props = RodProperties.default()
    assert rodsim.tendon_point_wrenches(props, Actuation(NO_TENSION)) == []
    with pytest.raises(ValueError):
        rodsim.tendon_point_wrenches(props, Actuation((1.0,)))

    wrenches = rodsim.tendon_point_wrenches(props, single_tendon(1.0))
    assert len(wrenches) == 1
    s_end, wrench = wrenches[0]
    assert s_end == pytest.approx(0.14)
    np.testing.assert_allclose(wrench[:3], [-1.0, 0.0, 0.0])
    np.testing.assert_allclose(wrench[3:], [0.0, -7e-3, 0.0], atol=1e-18)

    # Quarter-turn tendon bends about the local z axis instead.
    wrenches = rodsim.tendon_point_wrenches(props, single_tendon(1.0, index=1))
    np.testing.assert_allclose(wrenches[0][1][3:], [0.0, 0.0, 7e-3], atol=1e-18)

    # Opposing pair: pure compression, moments cancel.
    opposing = Actuation((1.0, 0.0, 1.0, 0.0) + (0.0,) * 4)
    wrenches = rodsim.tendon_point_wrenches(props, opposing)
    total = sum(w for _, w in wrenches)
    np.testing.assert_allclose(total, [-2.0, 0, 0, 0, 0, 0], atol=1e-18)


def integrate(props, base_stress, wrenches, tip_wrench, steps_per_segment=rodsim.MIN_STEPS_PER_SEGMENT):
    """One configuration's dense shape, tip residual and error (or None)
    from one rodsim._integrate pass."""
    shapes, residuals, errors = rodsim._integrate(
        props,
        np.asarray(base_stress, dtype=float)[None],
        rodsim._routed_stress(props, [wrenches]),
        np.asarray(tip_wrench, dtype=float)[None],
        rodsim._rounded_steps(props, steps_per_segment),
    )
    return shapes[0], residuals[0], errors[0]


def test_integrate_rod_step_handling():
    props = RodProperties.default()
    with pytest.raises(ValueError):
        integrate(props, np.zeros(6), [], np.zeros(6), 100)
    shape, residual, error = integrate(props, np.zeros(6), [], np.zeros(6), 200)
    assert error is None
    # 200 requested steps round up to 203 = 29 * 7 so disks hit samples.
    assert len(shape.nodes) == 2 * 203 + 1
    for s in props.disk_arclengths():
        assert np.abs(shape.nodes.s - s).min() < 1e-12
    np.testing.assert_allclose(residual, np.zeros(6))


def coupled_rk4_reference(props, base_stress, wrenches, steps):
    """The dense pass as a per-step RK4 on one 4x4 pose and one stress.

    Returns the poses and the total stresses at every sample.
    """
    compliance = 1.0 / np.diag(rodsim.stiffness(props))

    def routed(s):
        return sum((w for end, w in wrenches if s < end - 1e-12), np.zeros(6))

    def derivative(T, sigma, tendons):
        eps = rodsim.REST_STRAIN + compliance * (sigma + tendons)
        return se3.hat6(eps) @ T, -se3.curly_hat(eps).T @ sigma

    T, sigma = np.eye(4), np.asarray(base_stress, dtype=float)
    poses, stresses = [T], [sigma + routed(0.0)]
    for start, length in zip([0.0, *props.segment_ends()[:-1]], props.segment_lengths):
        h = length / steps
        tendons = routed(start + 0.5 * h)
        for j in range(1, steps + 1):
            k1 = derivative(T, sigma, tendons)
            k2 = derivative(T + 0.5 * h * k1[0], sigma + 0.5 * h * k1[1], tendons)
            k3 = derivative(T + 0.5 * h * k2[0], sigma + 0.5 * h * k2[1], tendons)
            k4 = derivative(T + h * k3[0], sigma + h * k3[1], tendons)
            T = T + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            sigma = sigma + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            poses.append(T)
            stresses.append(sigma + routed(start + j * h if j < steps else start + length))
    return np.array(poses), np.array(stresses)


def test_integrate_rod_matches_a_coupled_rk4_loop():
    props = RodProperties.default()
    act = TIP_LOADED
    wrenches = rodsim.tendon_point_wrenches(props, act)
    base = np.array([0.3, -0.1, 0.2, 0.01, -0.02, 0.015])
    shape, residual, error = integrate(props, base, wrenches, act.tip_wrench, 200)
    assert error is None
    poses, stresses = coupled_rk4_reference(props, base, wrenches, 203)
    np.testing.assert_allclose(shape.nodes.T, poses, rtol=0, atol=1e-13)
    np.testing.assert_allclose(shape.sigma, stresses, rtol=0, atol=1e-13)
    np.testing.assert_allclose(residual, stresses[-1] - act.tip_wrench, rtol=0, atol=1e-13)


def test_integrate_rod_divergence():
    props = RodProperties.default()
    shape, _, error = integrate(props, 1e8 * np.ones(6), [], np.zeros(6))
    assert shape is None and isinstance(error, ShootingError)
    assert error.residual.shape == (6,)


def test_unloaded_rod_is_straight():
    props = RodProperties.default()
    shape = rodsim.solve_static(props, Actuation(NO_TENSION))
    tip = shape.nodes[-1]
    np.testing.assert_allclose(tip.T[:3, 3], [0.28, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(tip.T[:3, :3], np.eye(3), atol=1e-12)
    assert max(np.abs(n.eps - rodsim.REST_STRAIN).max() for n in shape.nodes) == 0.0
    assert np.abs(shape.sigma).max() == 0.0


def test_tip_moment_gives_uniform_curvature():
    # kappa = M / EI along the whole rod, with unit axial stretch; the
    # slope stays within 1% across the small-deflection moments.
    props = RodProperties.default()
    EI = rodsim.stiffness(props)[4, 4]
    for moment in (1e-4, 2e-4, 4e-4):
        shape = rodsim.solve_static(
            props, Actuation(NO_TENSION, (0, 0, 0, 0, moment, 0))
        )
        curvatures = np.array([n.eps[4] for n in shape.nodes])
        np.testing.assert_allclose(curvatures, moment / EI, rtol=1e-9)
        stretches = np.array([n.eps[0] for n in shape.nodes])
        np.testing.assert_allclose(stretches, 1.0, atol=1e-12)
        assert abs(curvatures.mean() * EI / moment - 1.0) < 0.01


def test_single_tendon_bends_with_constant_strain():
    props = RodProperties.default()
    K = rodsim.stiffness(props)
    shape = rodsim.solve_static(props, single_tendon(1.0))
    i_end = int(shape.nearest_indices(0.14))
    loaded = np.array([n.eps for n in shape.nodes[:i_end]])
    assert np.abs(loaded - loaded[0]).max() == 0.0
    np.testing.assert_allclose(loaded[0, 0], 1.0 - 1.0 / K[0, 0], atol=1e-12)
    np.testing.assert_allclose(loaded[0, 4], -7e-3 / K[4, 4], atol=1e-9)

    # With constant strain the loaded segment is an exact geodesic, so the
    # integrated boundary pose must match the closed-form rollout.
    T_end = shape.nodes[i_end].T
    dev = se3.log_se3(T_end @ se3.pose_inverse(se3.exp_se3(0.14 * loaded[0])))
    assert np.abs(dev).max() < 1e-6

    # Unloaded distal segment continues straight in its own frame.
    distal = np.array([n.eps for n in shape.nodes[i_end:]])
    assert np.abs(distal - rodsim.REST_STRAIN).max() == 0.0


def test_strain_jump_at_tendon_termination():
    props = RodProperties.default()
    EI = rodsim.stiffness(props)[4, 4]
    tau = 2.0
    shape = rodsim.solve_static(props, single_tendon(tau))
    i_end = int(shape.nearest_indices(0.14))
    jump = abs(shape.nodes[i_end - 1].eps[4] - shape.nodes[i_end].eps[4])
    np.testing.assert_allclose(jump, props.pitch_radius * tau / EI, atol=1e-9)
    assert shape.nodes[i_end].eps[4] == 0.0


def test_opposing_tendons_compress_axially():
    props = RodProperties.default()
    EA = rodsim.stiffness(props)[0, 0]
    opposing = Actuation((1.0, 0.0, 1.0, 0.0) + (0.0,) * 4)
    shape = rodsim.solve_static(props, opposing)
    proximal = shape.nodes[int(shape.nearest_indices(0.07))]
    np.testing.assert_allclose(proximal.eps[0], 1.0 - 2.0 / EA, atol=1e-12)
    np.testing.assert_allclose(proximal.eps[1:], np.zeros(5), atol=1e-12)
    distal = shape.nodes[int(shape.nearest_indices(0.21))]
    np.testing.assert_allclose(distal.eps, rodsim.REST_STRAIN, atol=1e-12)


def test_shooting_residual_under_tip_load():
    props = RodProperties.default()
    act = TIP_LOADED
    shape = rodsim.solve_static(props, act)
    np.testing.assert_allclose(
        shape.sigma[-1], act.tip_wrench, atol=rodsim.SHOOTING_TOL
    )
    se3.check_pose(shape.nodes[-1].T, tol=1e-6)


def test_dense_shape_is_polished_when_the_coarse_root_misses(monkeypatch):
    # Rungs of four and eight steps leave a root whose dense tip misses the
    # wrench by more than SHOOTING_TOL, so Newton must finish at the dense
    # resolution.
    props = RodProperties.default()
    reference = rodsim.solve_static(props, TIP_LOADED)
    monkeypatch.setattr(rodsim, "SHOOTING_RUNGS", (4, 8))
    shape = rodsim.solve_static(props, TIP_LOADED)
    np.testing.assert_allclose(shape.sigma[-1], TIP_LOADED.tip_wrench, atol=rodsim.SHOOTING_TOL)
    np.testing.assert_allclose(shape.nodes[-1].T, reference.nodes[-1].T, atol=1e-8)


def test_tip_loaded_shape_matches_an_adaptive_reintegration():
    # Independent reference: the same statics with the cross products
    # written out, integrated by DOP853 from the solved base stress. The
    # state is the rotation C, the position r and the transported force f
    # and moment m; with strain (v, u) = rest + K^-1 (total stress),
    # dT/ds = hat6(eps) T gives C' = u x C and r' = u x r + v, and the
    # stress obeys f' = u x f, m' = v x f + u x m.
    from scipy.integrate import solve_ivp

    props = RodProperties.default()
    shape = rodsim.solve_static(props, TIP_LOADED)
    compliance = 1.0 / np.diag(rodsim.stiffness(props))
    ends = props.segment_ends()

    def routed(s):
        total = np.zeros(6)
        for (segment, theta), tension in zip(props.tendons, TIP_LOADED.tensions):
            if s < ends[segment]:
                offset = props.pitch_radius * np.array([0.0, np.sin(theta), np.cos(theta)])
                force = np.array([-tension, 0.0, 0.0])
                total += np.concatenate([force, np.cross(offset, force)])
        return total

    y = np.concatenate([np.eye(3).ravel(), np.zeros(3), shape.sigma[0] - routed(0.0)])
    for start, end in zip([0.0, *ends[:-1]], ends):

        def rhs(_s, y, tendons=routed(0.5 * (start + end))):
            C, r, f, m = y[:9].reshape(3, 3), y[9:12], y[12:15], y[15:18]
            strain = rodsim.REST_STRAIN + compliance * (y[12:18] + tendons)
            v, u = strain[:3], strain[3:]
            dC = np.cross(u, C.T).T
            return np.concatenate([dC.ravel(), np.cross(u, r) + v, np.cross(u, f), np.cross(v, f) + np.cross(u, m)])

        sol = solve_ivp(rhs, (start, end), y, method="DOP853", rtol=1e-11, atol=1e-13)
        assert sol.success
        y = sol.y[:, -1]

    tip = shape.nodes[-1].T
    assert np.linalg.norm(y[9:12] - tip[:3, 3]) < 1e-8
    R = y[:9].reshape(3, 3) @ tip[:3, :3].T
    angle = np.arctan2(np.linalg.norm(R - R.T) / (2.0 * np.sqrt(2.0)), 0.5 * (np.trace(R) - 1.0))
    assert angle < 1e-8
    assert np.max(np.abs(y[12:18] - np.array(TIP_LOADED.tip_wrench))) < 1e-7


def test_refining_steps_barely_moves_the_tip():
    props = RodProperties.default()
    act = single_tendon(1.5)
    coarse = rodsim.solve_static(props, act, 200)
    fine = rodsim.solve_static(props, act, 400)
    shift = np.linalg.norm(coarse.nodes[-1].T[:3, 3] - fine.nodes[-1].T[:3, 3])
    assert shift < 1e-8


def test_tip_moves_continuously_with_tension():
    # Sampled tension sweeps; neighbouring tips stay within 5 mm for
    # 0.01 N increments, so the solver never jumps branches.
    props = RodProperties.default()
    windows = [np.arange(1.0, 1.1, 0.01), np.arange(2.9, 3.0, 0.01)]
    for taus in windows:
        tips = []
        for tau in taus:
            shape = rodsim.solve_static(props, single_tendon(float(tau)))
            tips.append(shape.nodes[-1].T[:3, 3])
        steps = np.linalg.norm(np.diff(np.array(tips), axis=0), axis=1)
        assert steps.max() < 5e-3


def test_ground_truth_shape_validation_and_lookup():
    nodes = rodsim.StateNode(np.zeros(1), np.eye(4)[None], rodsim.REST_STRAIN[None])
    with pytest.raises(ValueError):
        GroundTruthShape(nodes, np.zeros((2, 6)))
    shape = rodsim.solve_static(RodProperties.default(), single_tendon(1.0))
    state = shape.nodes[int(shape.nearest_indices(0.07))]
    assert abs(state.s - 0.07) < 1e-3
    assert shape.nearest_indices(-1.0) == 0


def three_samples(s=(0.0, 0.1, 0.2), T=None, eps=None):
    T = np.tile(np.eye(4), (3, 1, 1)) if T is None else T
    eps = np.tile(rodsim.REST_STRAIN, (3, 1)) if eps is None else eps
    return rodsim.StateNode(np.array(s), T, eps)


@pytest.mark.parametrize(
    "nodes, sigma, error, message",
    [
        (list(three_samples()), np.zeros((3, 6)), TypeError, "one stacked StateNode"),
        (three_samples()[0], np.zeros((1, 6)), TypeError, "one stacked StateNode"),
        (three_samples()[:0], np.zeros((0, 6)), ValueError, "at least one dense sample"),
        (three_samples(T=np.tile(np.eye(4), (2, 1, 1))), np.zeros((3, 6)), ValueError, "T must have shape (3, 4, 4)"),
        (three_samples(eps=np.zeros((2, 6))), np.zeros((3, 6)), ValueError, "eps must have shape (3, 6)"),
        (three_samples(), np.zeros((3, 5)), ValueError, "sigma must have shape (3, 6)"),
        (three_samples(s=(0.0, np.nan, 0.2)), np.zeros((3, 6)), ValueError, "s must be finite"),
        (three_samples(T=np.full((3, 4, 4), np.nan)), np.zeros((3, 6)), ValueError, "T must be finite"),
        (three_samples(eps=np.full((3, 6), np.inf)), np.zeros((3, 6)), ValueError, "eps must be finite"),
        (three_samples(), np.full((3, 6), -np.inf), ValueError, "sigma must be finite"),
        (three_samples(s=(0.0, 0.2, 0.1)), np.zeros((3, 6)), ValueError, "ascend in arclength"),
    ],
)
def test_ground_truth_shape_checks_its_layout(nodes, sigma, error, message):
    with pytest.raises(error, match=re.escape(message)):
        GroundTruthShape(nodes, sigma)


def test_ground_truth_arclengths_built_once():
    shape = rodsim.solve_static(RodProperties.default(), single_tendon(1.0))
    s = shape.nodes.s
    np.testing.assert_array_equal(s, [node.s for node in shape.nodes])
    for tau in (0.0, 0.0701, 0.2, 0.28):
        k = int(np.argmin(np.abs(s - tau)))
        assert int(shape.nearest_indices(tau)) == k
        state = shape.nodes[int(shape.nearest_indices(tau))]
        assert state.s == s[k]
        np.testing.assert_array_equal(state.T, shape.nodes.T[k])
        np.testing.assert_array_equal(state.eps, shape.nodes.eps[k])


def test_sample_dataset_reproducible_and_bounded():
    props = RodProperties.default()
    with pytest.raises(ValueError):
        rodsim.sample_dataset(props, 0)
    with pytest.raises(ValueError):
        rodsim.sample_dataset(props, 2, loaded_fraction=1.5)
    data = rodsim.sample_dataset(props, 6, seed=1)
    again = rodsim.sample_dataset(props, 6, seed=1)
    for (act_a, shape_a), (act_b, shape_b) in zip(data, again):
        assert act_a.tensions == act_b.tensions
        assert act_a.tip_wrench == act_b.tip_wrench
        np.testing.assert_array_equal(shape_a.sigma, shape_b.sigma)
    # Per-index generators make draws independent of the dataset size.
    longer = rodsim.sample_dataset(props, 8, seed=1)
    assert longer[3][0].tensions == data[3][0].tensions

    for index, (act, _) in enumerate(data):
        tensions = np.array(act.tensions)
        active = np.flatnonzero(tensions)
        assert 1 <= active.size <= 2
        assert tensions.max() <= 3.0 and tensions.min() >= 0.0
        wrench = np.array(act.tip_wrench)
        if index < 3:  # floor(0.5 * 6) loaded configurations come first
            assert np.abs(wrench[:3]).max() <= 0.1
            assert np.abs(wrench[3:]).max() <= 0.01
            assert np.any(wrench)
        else:
            assert not np.any(wrench)

    unloaded = rodsim.sample_dataset(props, 2, loaded_fraction=0.0, seed=3)
    assert all(not np.any(act.tip_wrench) for act, _ in unloaded)


def test_measurement_noise_floor_keeps_covariance_positive():
    silent = MeasurementNoise(0.0, 0.0, 0.0, 0.0, 10.0)
    assert np.linalg.eigvalsh(silent.pose_cov()).min() > 0.0
    assert np.linalg.eigvalsh(silent.strain_cov()).min() > 0.0
    noise = MeasurementNoise()
    np.testing.assert_allclose(np.diag(noise.pose_cov()), [1e-5] * 3 + [1e-3] * 3)
    np.testing.assert_allclose(np.diag(noise.strain_cov()), [0.025] * 6)


def test_extract_measurements_layouts(props, small_dataset):
    _, shape = small_dataset[0]
    noise = MeasurementNoise()
    rng = np.random.default_rng(0)

    poses = rodsim.extract_measurements(
        shape, Scenario.POSE_AT_SEGMENT_ENDS, props, noise, rng
    )
    assert poses.kind.tolist() == ["pose"] * 2
    np.testing.assert_allclose(poses.s, [0.14, 0.28])
    np.testing.assert_allclose(poses.R[0], noise.pose_cov())
    assert poses.T_meas.shape == (2, 4, 4) and poses.eps_meas.shape == (0, 6)

    strains = rodsim.extract_measurements(
        shape, Scenario.STRAIN_AT_DISKS, props, noise, rng
    )
    assert strains.kind.tolist() == ["strain"] * 14
    np.testing.assert_allclose(strains.s, props.disk_arclengths())
    assert strains.T_meas.shape == (0, 4, 4) and strains.eps_meas.shape == (14, 6)

    mixed = rodsim.extract_measurements(
        shape, Scenario.STRAIN_PLUS_TIP_POSE, props, noise, rng
    )
    assert mixed.kind.tolist() == ["strain"] * 14 + ["pose"]
    assert mixed.s[-1] == pytest.approx(0.28)
    np.testing.assert_array_equal(mixed.R[:-1], np.broadcast_to(noise.strain_cov(), (14, 6, 6)))
    assert mixed.mask.all()


def test_extract_measurements_zero_noise_reads_truth(props, small_dataset):
    _, shape = small_dataset[1]
    silent = MeasurementNoise(0.0, 0.0, 0.0, 0.0, 10.0)
    rng = np.random.default_rng(5)
    for m in sensor_list(rodsim.extract_measurements(shape, Scenario.STRAIN_PLUS_TIP_POSE, props, silent, rng)):
        state = shape.nodes[int(shape.nearest_indices(m.s))]
        np.testing.assert_array_equal(m.value, state.T if m.kind == "pose" else state.eps)


def assert_same_shape(batched, single):
    np.testing.assert_array_equal(batched.sigma, single.sigma)
    np.testing.assert_array_equal(batched.nodes.T, single.nodes.T)
    np.testing.assert_array_equal(batched.nodes.eps, single.nodes.eps)
    np.testing.assert_array_equal(batched.nodes.s, single.nodes.s)


@pytest.mark.parametrize(
    "loaded_fraction, tendons",
    [(0.0, None), (0.5, None), (1.0, None), (0.5, ((0, 0.0),))],
)
def test_sample_dataset_is_solve_static_on_each_draw(loaded_fraction, tendons):
    props = RodProperties.default()
    if tendons is not None:
        props = dataclasses.replace(props, tendons=tendons)
    data = rodsim.sample_dataset(props, 12, loaded_fraction=loaded_fraction, seed=1)
    for act, shape in data:
        assert_same_shape(shape, rodsim.solve_static(props, act))


def test_batch_polishes_only_the_shapes_that_miss(monkeypatch):
    # Rungs of four and eight steps leave the loaded roots short of the
    # dense resolution; unloaded shapes carry no transported stress and hit.
    props = RodProperties.default()
    monkeypatch.setattr(rodsim, "SHOOTING_RUNGS", (4, 8))
    shoot = rodsim._newton_shoot
    calls = []

    def spy(props, routed, tip_wrench, guess, steps, jac=None):
        roots, errors = shoot(props, routed, tip_wrench, guess, steps, jac)
        calls.append((tip_wrench.copy(), steps, roots.copy()))
        return roots, errors

    monkeypatch.setattr(rodsim, "_newton_shoot", spy)
    data = rodsim.sample_dataset(props, 6, loaded_fraction=0.5, seed=2)
    assert [steps for _, steps, _ in calls] == [4, 8, 203]
    _, (tips, _, roots), (polished_tips, _, _) = calls
    miss = []
    for index, (act, root) in enumerate(zip((a for a, _ in data), roots)):
        wrenches = rodsim.tendon_point_wrenches(props, act)
        _, residual, _ = integrate(props, root, wrenches, act.tip_wrench)
        if np.max(np.abs(residual)) >= rodsim.SHOOTING_TOL:
            miss.append(index)
    assert miss == [0, 1, 2]
    np.testing.assert_array_equal(polished_tips, tips[miss])

    for act, shape in data:
        np.testing.assert_allclose(shape.sigma[-1], act.tip_wrench, rtol=0, atol=rodsim.SHOOTING_TOL)
        assert_same_shape(shape, rodsim.solve_static(props, act))


def test_batch_raises_the_lowest_index_failure(monkeypatch):
    props = RodProperties.default()
    actuations = [act for act, _ in rodsim.sample_dataset(props, 12, seed=1)]
    # Seven iterations leave configurations 1, 4 and 5 unconverged.
    monkeypatch.setattr(rodsim, "MAX_SHOOTING_ITERATIONS", 7)
    with pytest.raises(ShootingError) as batch:
        rodsim.sample_dataset(props, 12, seed=1)
    rodsim.solve_static(props, actuations[0])
    with pytest.raises(ShootingError) as alone:
        rodsim.solve_static(props, actuations[1])
    assert str(batch.value) == str(alone.value)
    assert "did not converge in 7 iterations" in str(batch.value)
    np.testing.assert_array_equal(batch.value.residual, alone.value.residual)


def test_singular_jacobian_is_traced_to_its_configuration(monkeypatch):
    # A 1e-20 bump vanishes against TIP_LOADED's residual, so its Jacobian
    # is zero; the small residual of a faint tip force still resolves it.
    props = RodProperties.default()
    faint = Actuation(NO_TENSION, (2e-8, 0, 0, 0, 0, 0))
    monkeypatch.setattr(rodsim, "SHOOTING_FD_STEP", 1e-20)
    rodsim.solve_static(props, faint)
    with pytest.raises(ShootingError) as alone:
        rodsim.solve_static(props, TIP_LOADED)
    assert str(alone.value) == "singular shooting Jacobian"
    with pytest.raises(ShootingError) as batch:
        rodsim._solve(props, [faint, TIP_LOADED], rodsim.MIN_STEPS_PER_SEGMENT)
    assert str(batch.value) == str(alone.value)
    np.testing.assert_array_equal(batch.value.residual, alone.value.residual)


def reference_shoot(props, routed, tip_wrench, guess, steps):
    """Plain damped Newton for one configuration: one RK4 sweep for the
    finite differences at each accepted point and one for all 12 step
    sizes. Returns the root and the step sizes taken."""

    def residuals(stresses):
        rows = np.atleast_2d(stresses)
        return rodsim._rk4(props, rows, np.repeat(routed, len(rows), axis=1), steps) - tip_wrench

    x, alphas, taken = np.array(guess, dtype=float), 0.5 ** np.arange(12), []
    r = residuals(x)[0]
    while np.max(np.abs(r)) >= rodsim.SHOOTING_TOL:
        assert len(taken) < rodsim.MAX_SHOOTING_ITERATIONS
        h = rodsim.SHOOTING_FD_STEP * np.maximum(1.0, np.abs(x))
        jac = ((residuals(x + h[:, None] * np.eye(6)) - r) / h[:, None]).T
        delta = np.linalg.solve(jac, -r)
        trials = residuals(x + alphas[:, None] * delta)
        ok = np.isfinite(trials).all(axis=1) & (np.max(np.abs(trials), axis=1) < np.max(np.abs(r)))
        k = int(np.argmax(ok))
        assert ok[k]
        x, r = x + alphas[k] * delta, trials[k]
        taken.append(alphas[k])
    return x, taken


def test_newton_shoot_matches_a_plain_reference():
    props = RodProperties.default()
    actuations = [
        single_tendon(2.0),
        TIP_LOADED,
        Actuation((0, 2.0, 0, 0, 0, 0, 0, 0), (-0.07, 0.04, 0.005, -0.004, 0.0, 0.008)),
        Actuation((0, 0, 2.0, 0, 0, 0, 0, 0), (-0.09, -0.1, 0.06, 0.008, 0.002, 0.005)),
        Actuation(NO_TENSION, (-0.1, -0.2, -0.03, 0.02, -0.015, -0.025)),
    ]
    routed = rodsim._routed_stress(props, [rodsim.tendon_point_wrenches(props, a) for a in actuations])
    tips = np.array([a.tip_wrench for a in actuations])
    steps = rodsim.SHOOTING_RUNGS[-1]
    roots, errors = rodsim._newton_shoot(props, routed, tips, np.zeros_like(tips), steps)
    assert errors == [None] * len(actuations)
    taken = []
    for c in range(len(actuations)):
        root, alphas = reference_shoot(props, routed[:, c : c + 1], tips[c], np.zeros(6), steps)
        np.testing.assert_array_equal(roots[c], root)
        taken.append(alphas)
    # No step, full steps only, a step of 1/2 or 1/4 and a step of 1/8 or less.
    assert taken[0] == [] and set(taken[1]) == set(taken[2]) == {1.0}
    assert min(taken[3]) in (0.5, 0.25) and min(taken[4]) <= 0.125


def test_one_rk4_sweep_per_shooting_iteration(monkeypatch):
    props = RodProperties.default()
    rk4, sweeps = rodsim._rk4, []

    def spy(props, base_stresses, routed, steps, poses=False):
        sweeps.append((len(base_stresses), steps, poses))
        return rk4(props, base_stresses, routed, steps, poses)

    monkeypatch.setattr(rodsim, "_rk4", spy)
    rodsim.sample_dataset(props, 8, seed=11)
    # The first rung makes 7 iterations: a first sweep of every residual
    # and its 6 finite differences, one sweep per iteration (9 rows per
    # loaded configuration: 3 trials and 6 finite differences) and two
    # finite-difference catch-ups after shorter steps. The second starts
    # from those roots and Jacobians, so its first sweep takes one residual
    # per configuration and one iteration converges. Then one dense pass.
    # A single rung at 128 steps makes 10 sweeps at that resolution.
    assert sweeps == [
        (8 * 7, 32, False), (4 * 9, 32, False), (3 * 6, 32, False), (4 * 9, 32, False),
        (1 * 6, 32, False), (4 * 9, 32, False), (4 * 9, 32, False), (4 * 9, 32, False),
        (3 * 9, 32, False), (1 * 9, 32, False),
        (8, 128, False), (4 * 9, 128, False),
        (8, 203, True),
    ]


def shooting_inputs(props, actuations):
    routed = rodsim._routed_stress(props, [rodsim.tendon_point_wrenches(props, a) for a in actuations])
    return routed, np.array([a.tip_wrench for a in actuations])


def test_ladder_roots_match_a_plain_newton_at_the_last_rung():
    props = RodProperties.default()
    data = rodsim.sample_dataset(props, 24, seed=1)
    routed, tips = shooting_inputs(props, [act for act, _ in data])
    plain, plain_errors = rodsim._newton_shoot(props, routed, tips, np.zeros_like(tips), rodsim.SHOOTING_RUNGS[-1])
    roots, errors = rodsim._climb(props, routed, tips)
    assert errors == plain_errors == [None] * 24
    np.testing.assert_allclose(roots, plain, rtol=0, atol=1e-8)
    # Unloaded configurations are converged at the zero guess on every rung.
    np.testing.assert_array_equal(roots[12:], plain[12:])
    for act, shape in data:
        assert np.max(np.abs(shape.sigma[-1] - act.tip_wrench)) < rodsim.SHOOTING_TOL


def test_a_first_rung_failure_gets_the_one_rung_outcome(monkeypatch):
    # The first rung stops after 7 iterations, where configurations 1, 4
    # and 5 have not converged; shot again at the last rung with 8, 5
    # converges and 1 and 4 fail as a one-rung shoot fails.
    props = RodProperties.default()
    routed, tips = shooting_inputs(props, [act for act, _ in rodsim.sample_dataset(props, 12, seed=1)])
    monkeypatch.setattr(rodsim, "MAX_SHOOTING_ITERATIONS", 8)
    plain, plain_errors = rodsim._newton_shoot(props, routed, tips, np.zeros_like(tips), rodsim.SHOOTING_RUNGS[-1])
    shoot, first_rung_failures = rodsim._newton_shoot, []

    def spy(props, routed, tip_wrench, guess, steps, jac=None):
        if steps != rodsim.SHOOTING_RUNGS[0]:
            return shoot(props, routed, tip_wrench, guess, steps, jac)
        with monkeypatch.context() as patch:
            patch.setattr(rodsim, "MAX_SHOOTING_ITERATIONS", 7)
            roots, errors = shoot(props, routed, tip_wrench, guess, steps, jac)
        first_rung_failures.extend(c for c, e in enumerate(errors) if e)
        return roots, errors

    monkeypatch.setattr(rodsim, "_newton_shoot", spy)
    roots, errors = rodsim._climb(props, routed, tips)
    assert first_rung_failures == [1, 4, 5]
    assert [c for c, e in enumerate(plain_errors) if e] == [c for c, e in enumerate(errors) if e] == [1, 4]
    for c in (1, 4):
        assert str(errors[c]) == str(plain_errors[c])
        np.testing.assert_array_equal(errors[c].residual, plain_errors[c].residual)
    np.testing.assert_array_equal(roots[5], plain[5])


def sequential_measurements(shape, scenario, props, noise, rng):
    """One state lookup, one 6-vector draw and one corruption per
    measurement, in measurement order: a list of Sensors."""
    pose_noise = np.diag([noise.sigma_t**2] * 3 + [noise.sigma_a**2] * 3)
    strain_noise = np.diag([noise.sigma_nu**2] * 3 + [noise.sigma_omega**2] * 3)

    def pose_at(s):
        state = shape.nodes[int(np.argmin(np.abs(shape.nodes.s - s)))]
        return pose(state.s, corrupt_pose(state.T, pose_noise, rng), noise.pose_cov())

    def strain_at(s):
        state = shape.nodes[int(np.argmin(np.abs(shape.nodes.s - s)))]
        return strain(state.s, corrupt_strain(state.eps, strain_noise, rng), noise.strain_cov())

    if scenario is Scenario.POSE_AT_SEGMENT_ENDS:
        return [pose_at(s) for s in props.segment_ends()]
    strains = [strain_at(s) for s in props.disk_arclengths()]
    return strains + ([pose_at(props.total_length)] if scenario is Scenario.STRAIN_PLUS_TIP_POSE else [])


@pytest.mark.parametrize("scenario", list(Scenario))
def test_extract_measurements_equal_a_draw_per_measurement(props, small_dataset, scenario):
    noise = MeasurementNoise()
    for index, (_, shape) in enumerate(small_dataset):
        batched = rodsim.extract_measurements(shape, scenario, props, noise, np.random.default_rng([7, index]))
        single = sequential_measurements(shape, scenario, props, noise, np.random.default_rng([7, index]))
        assert batched.kind.tolist() == [m.kind for m in single]
        for a, b in zip(sensor_list(batched), single):
            assert a.s == b.s
            np.testing.assert_array_equal(a.R, b.R)
            np.testing.assert_array_equal(a.mask, b.mask)
            np.testing.assert_array_equal(a.value, b.value)


def test_extract_measurements_look_up_the_truth_once(props, small_dataset, monkeypatch):
    _, shape = small_dataset[2]
    calls = []
    original = GroundTruthShape.nearest_indices
    monkeypatch.setattr(
        GroundTruthShape, "nearest_indices", lambda self, s: calls.append("nearest_indices") or original(self, s)
    )
    rodsim.extract_measurements(shape, Scenario.STRAIN_PLUS_TIP_POSE, props, MeasurementNoise(), 0)
    assert calls == ["nearest_indices"]
    np.testing.assert_array_equal(shape.nodes.T, [node.T for node in shape.nodes])
    np.testing.assert_array_equal(shape.nodes.eps, [node.eps for node in shape.nodes])

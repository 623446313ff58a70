import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rodgp import rodsim, se3, study
from rodgp.prior import PriorHyperparams, StateNode
from rodgp.rodsim import Actuation, MeasurementNoise, Scenario

from oracles import exp_so3, pose_residual, sensor_list, sensors

SRC = Path(study.__file__).resolve().parents[1]

SCENARIO_1 = Scenario.POSE_AT_SEGMENT_ENDS

SILENT = MeasurementNoise(0.0, 0.0, 0.0, 0.0, 10.0)


@pytest.fixture(scope="module")
def study_result(props, small_dataset):
    return study.run_study(props, small_dataset, study.ScenarioConfig(SCENARIO_1))


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        study.ScenarioConfig(SCENARIO_1, qc_diag=(1.0,) * 5)
    with pytest.raises(ValueError):
        study.ScenarioConfig(SCENARIO_1, num_intervals=0)
    with pytest.raises(ValueError):
        study.ScenarioConfig(SCENARIO_1, states_per_interval=-1)
    config = study.ScenarioConfig(SCENARIO_1, lock_tip_strain=True)
    hyper = config.hyperparams()
    np.testing.assert_allclose(np.diag(hyper.Qc), (1.0, 1.0, 1.0, 100.0, 100.0, 100.0))
    locks = config.locks(5)
    assert locks[0, 0:6].all() and locks[-1, 6:12].all()


def test_pose_errors_values():
    node = StateNode(0.0, np.eye(4), np.zeros(6))
    assert study.pose_errors(node, node) == (0.0, 0.0)
    shifted = StateNode(0.0, se3.pose_from_parts(np.eye(3), [3e-3, 4e-3, 0.0]), np.zeros(6))
    dp, da = study.pose_errors(shifted, node)
    np.testing.assert_allclose(dp, 5e-3)
    assert da == 0.0
    quarter = StateNode(
        0.0, se3.pose_from_parts(exp_so3([0, 0, np.pi / 2]), [0, 0, 0]), np.zeros(6)
    )
    dp, da = study.pose_errors(quarter, node)
    assert dp == 0.0
    np.testing.assert_allclose(da, 90.0, atol=1e-10)


def test_estimation_grid_merges_measurement_arclengths():
    grid = study.estimation_grid(0.28, 29, [0.14, 0.28])
    assert grid.size == 31  # 0.14 is not a multiple of 0.28/29
    assert np.any(np.abs(grid - 0.14) < 1e-12)
    merged = study.estimation_grid(0.28, 28, [0.14, 0.28])
    assert merged.size == 29  # both arclengths already sit on nodes
    nudged = study.estimation_grid(0.28, 28, [0.14 + 1e-12])
    assert nudged.size == 29


def test_guesses():
    hyper = PriorHyperparams(np.eye(6), np.array([1.0, 0, 0, 0, 0, 0]))
    grid = np.array([0.0, 0.1, 0.25])
    guess = study.straight_guess(grid, hyper)
    for s, node in zip(grid, guess):
        np.testing.assert_allclose(node.T[:3, 3], [s, 0, 0], atol=1e-12)
        np.testing.assert_array_equal(node.eps, hyper.eps_bar)


def test_model_guess_reads_shape(props, small_dataset):
    _, shape = small_dataset[0]
    grid = np.array([0.0, 0.14, 0.28])
    guess = study.model_guess(grid, shape)
    for s, node in zip(grid, guess):
        ref = shape.nodes[int(shape.nearest_indices(s))]
        np.testing.assert_array_equal(node.T, ref.T)
        np.testing.assert_array_equal(node.eps, ref.eps)


def test_query_points_counting():
    grid = np.array([0.0, 0.1, 0.2])
    taus, is_node = study.query_points(grid, 3)
    assert taus.size == 3 + 3 * 2
    assert is_node.sum() == 3
    assert np.all(np.diff(taus) > 0)
    np.testing.assert_allclose(taus[:4], [0.0, 0.025, 0.05, 0.075])
    only_nodes, flags = study.query_points(grid, 0)
    np.testing.assert_array_equal(only_nodes, grid)
    assert flags.all()


def test_run_single_zero_noise_recovers_tip(props, small_dataset):
    _, shape = small_dataset[0]
    config = study.ScenarioConfig(SCENARIO_1, noise=SILENT)
    measurements = rodsim.extract_measurements(
        shape, config.scenario, props, config.noise, np.random.default_rng(0)
    )
    record = study.run_single(props, shape, measurements, config)
    assert record.solution.converged
    assert record.pos_err[-1] < 1.5e-3
    assert study.max_residual_sigmas(record.solution, measurements) < 0.01
    hits = study.envelope_hits(record)
    assert hits.size == record.is_node.sum()
    assert hits[0]  # locked root: exact hit through the zero-cov branch
    assert hits.all()


def test_query_point_counting_when_measurements_sit_on_nodes(props, small_dataset):
    # 28 intervals put both segment ends on nodes, so the record emits
    # exactly (K+1) node states plus 5 per interval.
    _, shape = small_dataset[1]
    config = study.ScenarioConfig(SCENARIO_1, num_intervals=28)
    measurements = rodsim.extract_measurements(
        shape, config.scenario, props, config.noise, np.random.default_rng(1)
    )
    record = study.run_single(props, shape, measurements, config)
    assert record.solution.grid.size == 29
    assert record.arclengths.size == 29 + 5 * 28
    assert record.is_node.sum() == 29


def test_run_study_aggregates(props, small_dataset, study_result):
    profile = study_result.profile
    assert profile.run_count == 3
    assert study_result.failures == []
    assert [r.index for r in study_result.records] == [0, 1, 2]
    n_pts = profile.arclengths.size
    for arr in (profile.pos_mean, profile.pos_std, profile.ang_mean, profile.ang_std):
        assert arr.shape == (n_pts,)
    assert np.all(profile.pos_min <= profile.pos_mean + 1e-15)
    assert np.all(profile.pos_mean <= profile.pos_max + 1e-15)
    assert np.all(profile.pos_min >= 0.0)
    assert np.all((profile.ang_min >= 0.0) & (profile.ang_max <= 180.0))
    tip_pos, tip_ang = profile.tip_errors()
    assert tip_pos == profile.pos_mean[-1] and tip_ang == profile.ang_mean[-1]


def test_run_study_reproducible(props, small_dataset, study_result):
    again = study.run_study(props, small_dataset, study.ScenarioConfig(SCENARIO_1))
    np.testing.assert_array_equal(again.profile.pos_mean, study_result.profile.pos_mean)
    np.testing.assert_array_equal(again.profile.ang_max, study_result.profile.ang_max)


def test_run_study_failure_paths(props, small_dataset):
    with pytest.raises(ValueError):
        study.run_study(props, [], study.ScenarioConfig(SCENARIO_1))
    config = study.ScenarioConfig(SCENARIO_1, max_iters=1)
    with pytest.raises(RuntimeError, match="every run failed"):
        study.run_study(props, small_dataset, config)


def test_position_covariance_formula():
    gen = np.random.default_rng(6)
    T = se3.exp_se3(gen.uniform(-0.5, 0.5, 6))
    M = gen.standard_normal((12, 12))
    cov = M @ M.T
    A = np.hstack([np.eye(3), -se3.hat3(T[:3, 3])])
    np.testing.assert_allclose(
        study.position_covariance(T, cov), A @ cov[:6, :6] @ A.T, atol=1e-12
    )


def test_measured_nodes_tighten_the_envelope(study_result):
    # The position covariance at the sensed arclength 0.14 is far below
    # the covariance midway between sensed arclengths.
    record = study_result.records[0]
    i_meas = int(np.flatnonzero(np.abs(record.arclengths - 0.14) < 1e-12)[0])
    i_mid = int(np.argmin(np.abs(record.arclengths - 0.21)))
    tr_meas = np.trace(study.position_covariance(record.states[i_meas].T, record.covs[i_meas]))
    tr_mid = np.trace(study.position_covariance(record.states[i_mid].T, record.covs[i_mid]))
    assert tr_meas < tr_mid


def test_initial_guess_study_mild_bend_shares_basin(props):
    # With a 1 N single-tendon bend, the straight and simulator-shape
    # initial guesses converge to the same optimum to solver precision.
    config = study.ScenarioConfig(SCENARIO_1)
    report = study.initial_guess_study(props, Actuation((1.0,) + (0.0,) * 7), config)
    assert report.straight.converged and report.model.converged
    dev = 0.0
    for a, b in zip(report.straight.nodes, report.model.nodes):
        dev = max(dev, np.abs(se3.log_se3(a.T @ se3.pose_inverse(b.T))).max())
        dev = max(dev, np.abs(a.eps - b.eps).max())
    assert dev < 1e-6
    np.testing.assert_allclose(report.straight.cost_history[-1], report.model.cost_history[-1], rtol=1e-6)
    np.testing.assert_allclose(report.straight_tip, report.model_tip, atol=1e-6)
    assert report.straight_residual_sigmas < 3.0


def merged_grid_by_scan(total_length, num_intervals, measurement_arclengths):
    """The merge rule as a scan: each arclength, in measurement order, is
    added unless it lies within MERGE_TOL of a node added before it."""
    grid = list(study.uniform_grid(total_length, num_intervals))
    for s in measurement_arclengths:
        if min(abs(s - g) for g in grid) > study.MERGE_TOL:
            grid.append(float(s))
    return np.sort(np.asarray(grid))


def test_estimation_grid_merges_near_duplicates_in_measurement_order():
    tol, node = study.MERGE_TOL, 0.28 / 29
    cases = [
        [],
        [0.14, 0.14, 0.28, 0.28],
        [0.1, 0.1 + 0.5 * tol, 0.1 + 1.5 * tol],
        [0.1 + 0.5 * tol, 0.1, 0.1 + 1.5 * tol],
        [0.1 + 1.5 * tol, 0.1 + 0.5 * tol, 0.1, 0.1 - 0.8 * tol],
        [0.1, 0.1 + tol, 0.1 + 2 * tol, 0.1 + 3.5 * tol],
        [node + 0.9 * tol, node + 1.8 * tol, node + 2.6 * tol, 3 * node - tol],
        [0.2, 0.05, 0.2 + 0.3 * tol, 0.05 - 0.7 * tol, 0.2 - 0.6 * tol, 0.27],
    ]
    gen = np.random.default_rng(9)
    cases += [list(0.1 + gen.uniform(-3, 3, 12) * tol) for _ in range(20)]
    for arclengths in cases:
        expected = merged_grid_by_scan(0.28, 29, arclengths)
        got = study.estimation_grid(0.28, 29, arclengths)
        assert got.tobytes() == expected.tobytes(), arclengths
        got = study.estimation_grid(0.28, 29, np.array(arclengths))
        assert got.tobytes() == expected.tobytes(), arclengths


def test_position_covariance_takes_stacks():
    gen = np.random.default_rng(10)
    T = se3.exp_se3(gen.uniform(-0.5, 0.5, (2, 3, 6)))
    M = gen.standard_normal((2, 3, 12, 12))
    cov = M @ np.swapaxes(M, -1, -2)
    stacked = study.position_covariance(T, cov)
    assert stacked.shape == (2, 3, 3, 3)
    for i in np.ndindex(2, 3):
        np.testing.assert_allclose(stacked[i], study.position_covariance(T[i], cov[i]), rtol=0, atol=1e-14)


def envelope_hits_by_point(record, nodes_only=True):
    hits = []
    for i in range(record.arclengths.size):
        if nodes_only and not record.is_node[i]:
            continue
        T = record.states[i].T
        A = np.hstack([np.eye(3), -se3.hat3(T[:3, 3])])
        P = A @ record.covs[i][0:6, 0:6] @ A.T
        d = record.truth[i].T[:3, 3] - T[:3, 3]
        hits.append(bool(np.linalg.norm(d) < 1e-9) if np.trace(P) < 1e-18 else float(d @ np.linalg.solve(P, d)) <= 9.0)
    return np.array(hits)


def max_residual_sigmas_by_measurement(solution, measurements):
    worst = 0.0
    for m in sensor_list(measurements):
        k = int(np.argmin(np.abs(solution.grid - m.s)))
        node = solution.nodes[k]
        e = (pose_residual(m.value, node.T)[0] if m.kind == "pose" else m.value - node.eps)[m.mask]
        worst = max(worst, float(np.max(np.abs(e / np.sqrt(np.diag(m.R)[m.mask])))))
    return worst


@pytest.mark.parametrize("scenario", list(Scenario))
def test_vectorised_scorers_equal_their_per_point_forms(props, small_dataset, scenario):
    config = study.ScenarioConfig(scenario, states_per_interval=2, seed=4)
    result = study.run_study(props, small_dataset, config)
    for record in result.records:
        for nodes_only in (True, False):
            np.testing.assert_array_equal(
                study.envelope_hits(record, nodes_only), envelope_hits_by_point(record, nodes_only)
            )
        rng = np.random.default_rng([config.seed, record.index])
        measurements = rodsim.extract_measurements(small_dataset[record.index][1], scenario, props, config.noise, rng)
        # A partial mask leaves the unsensed components out of the residual.
        mask = measurements.mask.copy()
        mask[-1] = [True, False, True, True, False, True]
        masked = dataclasses.replace(measurements, mask=mask)
        for ms in (measurements, masked):
            assert study.max_residual_sigmas(record.solution, ms) == max_residual_sigmas_by_measurement(
                record.solution, ms
            )
    assert study.max_residual_sigmas(result.records[0].solution, sensors([])) == 0.0


def test_simulating_and_studying_leave_numpy_ma_unimported():
    # numpy.ma costs about 10 ms and 1.7 MB of peak memory per process. The
    # plain np.unique(x) imports it; np.unique(x, return_inverse=True),
    # which interpolation.query calls, does not.
    script = (
        "import sys\n"
        "from rodgp import rodsim, study\n"
        "props = rodsim.RodProperties.default()\n"
        "dataset = rodsim.sample_dataset(props, 2, seed=11)\n"
        "for scenario in rodsim.Scenario:\n"
        "    study.run_study(props, dataset, study.ScenarioConfig(scenario, seed=5))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr

"""Tests of the benchmark harness: tail rule, oracle, checks and tracer.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from rodgp import rodsim, solver, study  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def props():
    return rodsim.RodProperties.default()


@pytest.fixture(scope="module")
def loaded(props):
    """One tip-loaded shape bent by tendons in both segments."""
    actuation = rodsim.Actuation(
        (2.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.0, 0.0), (0.05, -0.03, 0.02, 0.004, 0.0, -0.003)
    )
    return actuation, rodsim.solve_static(props, actuation)


@pytest.mark.parametrize(
    "n, percentile", [(40, 75), (41, 75), (100, 90), (200, 95), (211, 95), (1000, 99)]
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    samples = np.random.default_rng(n).permutation(np.arange(1.0, n + 1))
    p, value = workloads.tail(samples)
    assert p == percentile
    assert int(np.sum(samples > value)) == 10
    # One percentile higher would leave fewer than ten samples beyond.
    assert int(np.ceil((p + 1) * n / 100)) > n - 10


@pytest.mark.parametrize("n", [1, 2, 39])
def test_tail_below_forty_samples_is_the_median(n):
    samples = np.arange(float(n))
    assert workloads.tail(samples) == (50, float(np.median(samples)))


def test_reintegration_agrees_with_solve_static(props, loaded):
    actuation, shape = loaded
    T, tip_stress = checks.reintegrate(props, actuation.tensions, shape.sigma[0])
    assert np.max(np.abs(T - shape.nodes[-1].T)) < 1e-9
    assert np.max(np.abs(tip_stress - np.array(actuation.tip_wrench))) < 1e-7
    assert checks.check_shapes(props, [checks.summarize_shape(actuation, shape)]) == []


def test_tendon_stress_matches_the_simulator(props, loaded):
    actuation, _ = loaded
    wrenches = rodsim.tendon_point_wrenches(props, actuation)
    for s in (0.0, 0.1, 0.2):
        expected = sum((w for end, w in wrenches if s < end), np.zeros(6))
        np.testing.assert_allclose(checks.tendon_stress(props, actuation.tensions, s), expected, atol=1e-15)


def test_simulate_check_rejects_corrupted_shapes(props, loaded):
    actuation, shape = loaded
    good = checks.summarize_shape(actuation, shape)
    pose = good.tip_pose.copy()
    pose[0, 3] += 1e-6
    stress = good.base_stress.copy()
    stress[4] += 1e-6
    wrench = list(good.tip_wrench)
    wrench[2] += 1e-5
    for bad in (
        checks.ShapeSummary(good.tensions, good.tip_wrench, good.base_stress, good.tip_arclength, pose),
        checks.ShapeSummary(good.tensions, good.tip_wrench, stress, good.tip_arclength, good.tip_pose),
        checks.ShapeSummary(good.tensions, tuple(wrench), good.base_stress, good.tip_arclength, good.tip_pose),
    ):
        assert checks.check_shapes(props, [bad])


@pytest.fixture(scope="module")
def small_study(props, loaded):
    dataset = [loaded]
    config = study.ScenarioConfig(rodsim.Scenario.POSE_AT_SEGMENT_ENDS, states_per_interval=1, seed=5)
    return dataset, study.run_study(props, dataset, config)


def test_study_checks_pass_on_real_output(small_study):
    dataset, result = small_study
    shapes = [shape for _, shape in dataset]
    assert checks.check_study_records(result) == []
    hits, count = checks.envelope_counts(result, shapes)
    assert count == len(result.records[0].solution.nodes)
    assert checks.check_envelope(hits, count) == []
    assert checks.tip_error_mean(result, shapes) < 7e-3


def test_study_check_rejects_corrupted_queries(small_study):
    _, result = small_study
    record = result.records[0]
    node_query = int(np.flatnonzero(record.is_node)[3])
    interior = int(np.flatnonzero(~record.is_node)[3])
    original = record.states[node_query]
    try:
        moved = original.copy()
        moved.eps = moved.eps + 1e-6
        record.states[node_query] = moved
        assert checks.check_study_records(result)
    finally:
        record.states[node_query] = original
    original = record.states[interior]
    try:
        skewed = original.copy()
        skewed.T = skewed.T.copy()
        skewed.T[0, 0] *= 1.001
        record.states[interior] = skewed
        assert checks.check_study_records(result)
    finally:
        record.states[interior] = original
    assert checks.check_study_records(result) == []


def test_study_check_rejects_tip_errors_and_envelope_misses():
    good = {"pose_at_segment_ends": 4e-3, "strain_at_disks": 9e-3, "strain_plus_tip_pose": 5e-3}
    assert checks.check_tip_errors(good) == []
    for key, value in (
        ("pose_at_segment_ends", 8e-3),
        ("strain_at_disks", 16e-3),
        ("strain_plus_tip_pose", 6.5e-3),
    ):
        assert checks.check_tip_errors({**good, key: value})
    assert checks.check_envelope(94, 100)
    assert checks.check_envelope(0, 0)


def test_track_checks(props, loaded):
    _, shape = loaded
    config = study.ScenarioConfig(workloads.TRACK_SCENARIO, states_per_interval=0)

    def frame(seed):
        rng = np.random.default_rng(seed)
        return rodsim.extract_measurements(shape, workloads.TRACK_SCENARIO, props, config.noise, rng)

    first = study.run_single(props, shape, frame(0), config)
    measurements = frame(1)
    warm = study.run_single(props, shape, measurements, config, initial_guess=first.solution.nodes)
    cold = study.run_single(props, shape, measurements, config)
    assert checks.check_warm_equals_cold(warm.solution, cold.solution) == []
    assert checks.check_covariances(warm.covs) == []

    # A solve that stopped early is no longer the cold solve's optimum.
    early = solver.gauss_newton(
        solver.Problem(
            warm.solution.grid,
            config.hyperparams(),
            measurements,
            first.solution.nodes,
            locks=config.locks(warm.solution.grid.size),
            max_iters=1,
        )
    )
    problems = checks.check_warm_equals_cold(early, cold.solution)
    assert any("in state" in p for p in problems) and any("cost" in p for p in problems)

    asymmetric = [P.copy() for P in warm.covs]
    asymmetric[5][0, 1] += 1e-3 * np.max(np.abs(asymmetric[5]))
    assert checks.check_covariances(asymmetric)
    indefinite = [P.copy() for P in warm.covs]
    indefinite[7] = indefinite[7] - 2.0 * np.max(np.linalg.eigvalsh(indefinite[7])) * np.eye(12)
    assert checks.check_covariances(indefinite)


def test_tracer_sees_imported_names_and_balances_self_time(props, loaded):
    _, shape = loaded
    config = study.ScenarioConfig(workloads.TRACK_SCENARIO, states_per_interval=0)
    rng = np.random.default_rng(3)
    measurements = rodsim.extract_measurements(shape, workloads.TRACK_SCENARIO, props, config.noise, rng)
    original = solver.prior_error
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.prior_error is not original
        tracer.enabled = True
        record = study.run_single(props, shape, measurements, config)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert solver.prior_error is original
    iterations = record.solution.iterations
    n = record.solution.grid.size
    assert tracer.calls["study.run_single"] == 1
    assert tracer.calls["solver.gauss_newton"] == 1
    # One assemble per iteration plus one to factor the result; one cost
    # pass for the guess and one per iteration.
    assert tracer.calls["solver.assemble"] == iterations + 1
    assert tracer.calls["solver.total_cost"] == iterations + 1
    # prior_error is bound by name in solver: once per interval per pass.
    assert tracer.calls["prior.prior_error"] == (n - 1) * (2 * iterations + 2)
    assert tracer.calls["measurements.pose_error"] > 0
    assert len(tracer.roots) == 1 and tracer.unbalanced_roots() == 0
    _, duration, self_total = tracer.roots[0]
    assert self_total == pytest.approx(sum(tracer.self_s.values()), rel=1e-12)
    assert self_total == pytest.approx(duration, rel=1e-12)

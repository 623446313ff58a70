"""Batched estimation: a scenario's runs solved, queried and scored together
must give what one-run solves of the same runs give."""

import dataclasses

import numpy as np
import pytest

from rodgp import rodsim, se3, solver, study
from rodgp.prior import StateNode
from rodgp.rodsim import GroundTruthShape, Scenario

from conftest import arc_problem

# Batched and one-run solves run the same arithmetic on stacks of different
# length; this bounds what a different BLAS path per stack length may move.
ROUND_OFF = 1e-12
LINEARIZE = solver.linearize


@pytest.fixture(scope="module")
def reference_dataset(props):
    return rodsim.sample_dataset(props, 8, seed=11)


def measured(props, shape, config, index):
    """Run `index`'s measurements, drawn from run_study's noise stream."""
    rng = np.random.default_rng([config.seed, index])
    return rodsim.extract_measurements(shape, config.scenario, props, config.noise, rng)


def single_records(props, dataset, config):
    """run_single (a batch of one) for every run, with run_study's noise streams."""
    return [
        study.run_single(props, shape, measured(props, shape, config, index), config)
        for index, (_, shape) in enumerate(dataset)
    ]


def assert_records_agree(batched, single):
    assert batched.solution.iterations == single.solution.iterations
    assert batched.solution.converged == single.solution.converged
    a, b = batched.states, single.states
    np.testing.assert_allclose(a.T, b.T, rtol=0, atol=ROUND_OFF)
    np.testing.assert_allclose(a.eps, b.eps, rtol=0, atol=ROUND_OFF * np.abs(b.eps).max())
    np.testing.assert_allclose(batched.covs, single.covs, rtol=0, atol=ROUND_OFF * np.abs(single.covs).max())
    np.testing.assert_allclose(batched.solution.cost_history, single.solution.cost_history, rtol=ROUND_OFF)
    np.testing.assert_array_equal(batched.pos_err, single.pos_err)


def batch_sizes(monkeypatch):
    """Runs per gauss_newton call, recorded as run_study makes them."""
    sizes, original = [], solver.gauss_newton

    def recording(problem):
        sizes.append(problem.guess.T.shape[0])
        return original(problem)

    monkeypatch.setattr(solver, "gauss_newton", recording)
    return sizes


@pytest.mark.parametrize("scenario", list(Scenario))
def test_reference_study_batch_equals_single_solves(props, reference_dataset, scenario, monkeypatch):
    config = study.ScenarioConfig(scenario, seed=5)
    singles = single_records(props, reference_dataset, config)
    sizes = batch_sizes(monkeypatch)
    result = study.run_study(props, reference_dataset, config)
    # Every run of the reference dataset shares its scenario's grid.
    assert sizes == [8]
    assert result.records[0].solution.grid.size == {Scenario.POSE_AT_SEGMENT_ENDS: 31}.get(scenario, 43)
    expected = [(0, "no convergence in 6 iterations")] if scenario is Scenario.STRAIN_AT_DISKS else []
    assert result.failures == expected
    assert [r.index for r in result.records] == [i for i in range(8) if i not in dict(expected)]
    assert singles[0].solution.converged == (not expected)
    for record in result.records:
        assert_records_agree(record, singles[record.index])


def indefinite_where(measurements):
    """solver.linearize with the diagonal blocks negated of every run whose
    measured values are those of `measurements`, so that its own system,
    and no other, is not positive definite, in a batch or alone."""

    def linearize(problem, T, eps, runs=slice(None)):
        H_diag, H_off, b, cost = LINEARIZE(problem, T, eps, runs)
        hit = [
            np.array_equal(T_m, measurements.T_meas) and np.array_equal(e_m, measurements.eps_meas)
            for T_m, e_m in zip(problem.pose_stack[2][runs], problem.strain_stack[2][runs])
        ]
        H_diag[np.array(hit, dtype=bool)] *= -1.0
        return H_diag, H_off, b, cost

    return linearize


def test_a_failed_factor_raises_from_its_batch(monkeypatch):
    problem, _ = arc_problem()
    one = problem.measurements
    bad = dataclasses.replace(one, T_meas=se3.exp_se3(0.01 * np.ones(6)) @ one.T_meas)
    guess = problem.initial_guess
    batch = solver.Problem(problem.grid, problem.hyper, [one, bad, one], [guess] * 3, problem.locks)
    monkeypatch.setattr(solver, "linearize", indefinite_where(bad))
    assert solver.gauss_newton(problem).converged
    with pytest.raises(np.linalg.LinAlgError) as single_error:
        solver.gauss_newton(solver.Problem(problem.grid, problem.hyper, bad, guess, problem.locks))
    with pytest.raises(np.linalg.LinAlgError) as batch_error:
        solver.gauss_newton(batch)
    assert str(batch_error.value) == str(single_error.value)


def test_study_files_a_failed_factor_alone(props, small_dataset, monkeypatch):
    config = study.ScenarioConfig(Scenario.POSE_AT_SEGMENT_ENDS)
    singles = single_records(props, small_dataset, config)
    monkeypatch.setattr(solver, "linearize", indefinite_where(measured(props, small_dataset[1][1], config, 1)))
    sizes = batch_sizes(monkeypatch)
    result = study.run_study(props, small_dataset, config)
    # The batch fails, so every run is solved alone.
    assert sizes == [3, 1, 1, 1]
    assert result.failures == [(1, "solver error: Matrix is not positive definite")]
    assert [r.index for r in result.records] == [0, 2]
    for record in result.records:
        assert_records_agree(record, singles[record.index])


def test_two_grids_give_one_batch_each(props, small_dataset, monkeypatch):
    # Every other dense sample of one shape moves its sensed arclengths, and
    # with them the nodes merged into its estimation grid.
    _, shape = small_dataset[1]
    sparse = GroundTruthShape(shape.nodes[::2], shape.sigma[::2])
    dataset = [small_dataset[0], (None, sparse), small_dataset[2]]
    config = study.ScenarioConfig(Scenario.POSE_AT_SEGMENT_ENDS)
    singles = single_records(props, dataset, config)
    assert not np.array_equal(singles[0].solution.grid, singles[1].solution.grid)
    assert np.array_equal(singles[0].solution.grid, singles[2].solution.grid)
    sizes = batch_sizes(monkeypatch)
    result = study.run_study(props, dataset, config)
    assert sorted(sizes) == [1, 2]
    assert result.failures == [] and [r.index for r in result.records] == [0, 1, 2]
    for record in result.records:
        assert_records_agree(record, singles[record.index])


def test_nearest_indices_match_state_at(props, small_dataset):
    _, shape = small_dataset[0]
    config = study.ScenarioConfig(Scenario.STRAIN_PLUS_TIP_POSE)
    record = study.run_study(props, small_dataset[:1], config).records[0]
    a = shape.nodes.s
    midpoints = 0.5 * (a[:-1] + a[1:])
    queries = np.concatenate([record.arclengths, midpoints, a, [-1.0, a[-1] + 1.0]])
    # The reference is a scan over every sample.
    expected = [int(np.argmin(np.abs(a - s))) for s in queries]
    np.testing.assert_array_equal(shape.nearest_indices(queries), expected)
    assert [int(shape.nearest_indices(s)) for s in queries] == expected
    truth = shape.nodes[shape.nearest_indices(record.arclengths)]
    for name in ("s", "T", "eps"):
        np.testing.assert_array_equal(getattr(record.truth, name), getattr(truth, name))
    # A tie between two samples goes to the lower index, as with argmin.
    ties = [0.0, 1.0, 1.0, 2.0]
    tie = GroundTruthShape(StateNode(ties, np.tile(np.eye(4), (4, 1, 1)), np.zeros((4, 6))), np.zeros((4, 6)))
    queries = [-1.0, 0.5, 1.0, 1.5, 3.0]
    expected = [int(np.argmin(np.abs(np.array(ties) - s))) for s in queries]
    assert expected == [0, 0, 1, 1, 3]
    np.testing.assert_array_equal(tie.nearest_indices(queries), expected)


def test_guess_kinds_and_the_two_guess_batch(props, small_dataset):
    _, shape = small_dataset[0]
    config = study.ScenarioConfig(Scenario.POSE_AT_SEGMENT_ENDS)
    measurements = rodsim.extract_measurements(shape, config.scenario, props, config.noise, np.random.default_rng(0))
    grid = study.estimation_grid(props.total_length, config.num_intervals, measurements.s)
    by_kind = study.run_single(props, shape, measurements, config, "model")
    by_nodes = study.run_single(props, shape, measurements, config, study.model_guess(grid, shape))
    assert_records_agree(by_kind, by_nodes)
    assert_records_agree(study.run_single(props, shape, measurements, config, "straight"),
                         study.run_single(props, shape, measurements, config))

    actuation = rodsim.Actuation((1.0,) + (0.0,) * 7)
    report = study.initial_guess_study(props, actuation, config)
    truth = rodsim.solve_static(props, actuation)
    measurements = rodsim.extract_measurements(
        truth, config.scenario, props, config.noise, np.random.default_rng([config.seed])
    )
    for kind, solution in (("straight", report.straight), ("model", report.model)):
        single = study.run_single(props, truth, measurements, config, kind).solution
        assert solution.iterations == single.iterations and solution.converged == single.converged
        for a, b in zip(solution.nodes, single.nodes):
            np.testing.assert_allclose(a.T, b.T, rtol=0, atol=ROUND_OFF)


def test_a_run_on_the_log_branch_cut_is_filed_alone(props, small_dataset, monkeypatch):
    # The unloaded, straight rod turned about the world z axis by an angle
    # growing to pi at the tip: its tip pose measurement lies on the log
    # branch cut, while its sensed arclengths, and so its grid, are those
    # of the simulated shapes it is batched with.
    straight = rodsim.solve_static(props, rodsim.Actuation((0.0,) * 8))
    s = straight.nodes.s
    turn = se3.exp_se3(np.outer(s / s[-1], [0, 0, 0, 0, 0, np.pi]))
    turned = GroundTruthShape(StateNode(s, turn @ straight.nodes.T, straight.nodes.eps), straight.sigma)
    dataset = [small_dataset[1], (None, turned), small_dataset[2]]
    config = study.ScenarioConfig(Scenario.POSE_AT_SEGMENT_ENDS, noise=rodsim.MeasurementNoise(sigma_a=0.0))
    singles = single_records(props, dataset[:1], config)
    sizes = batch_sizes(monkeypatch)
    result = study.run_study(props, dataset, config)
    # The batch leaves the branch, so every run is solved alone.
    assert sizes == [3, 1, 1, 1]
    assert result.failures == [(1, "solver error: rotation angle too close to pi for the principal branch")]
    assert [r.index for r in result.records] == [0, 2]
    assert_records_agree(result.records[0], singles[0])
    # A study whose every run leaves the branch raises its error, as before.
    with pytest.raises(se3.BranchError):
        study.run_study(props, [(None, turned)], config)

"""Batched estimation: a scenario's runs solved, queried and scored together
must give what one-run solves of the same runs give."""

import dataclasses

import numpy as np
import pytest

from rodgp import rodsim, se3, solver, study
from rodgp.prior import StateNode
from rodgp.rodsim import GroundTruthShape, Scenario

from conftest import arc_problem
from oracles import initial_guess_study

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
    # From the measured guess every run converges; the straight guess's
    # faults are kept in view below.
    assert result.failures == []
    assert [r.index for r in result.records] == list(range(8))
    for record in result.records:
        assert_records_agree(record, singles[record.index])


def straight_solve(props, shape, measurements, config):
    """gauss_newton from straight_guess, on run_single's grid and locks."""
    grid = study.estimation_grid(props.total_length, config.num_intervals, measurements.s)
    hyper = config.hyperparams()
    return solver.gauss_newton(
        solver.Problem(grid, hyper, measurements, study.straight_guess(grid, hyper), config.locks(grid.size))
    )


def test_the_straight_guess_still_shows_the_solver_faults(props, reference_dataset):
    # Run 0 under strain_at_disks: the first full step raises the cost, so a
    # run that meets step_tol is not converged.
    config = study.ScenarioConfig(Scenario.STRAIN_AT_DISKS, seed=5)
    shape = reference_dataset[0][1]
    solution = straight_solve(props, shape, measured(props, shape, config, 0), config)
    assert not solution.converged and solution.iterations == 6
    assert solution.cost_history[1] > solution.cost_history[0]
    # A stall: from the straight guess the cost stops far above the optimum
    # that the measured guess reaches.
    config = study.ScenarioConfig(Scenario.STRAIN_PLUS_TIP_POSE)
    shape = rodsim.sample_dataset(props, 4, seed=4)[0][1]
    rng = np.random.default_rng([4, 0, 0])
    measurements = rodsim.extract_measurements(shape, config.scenario, props, config.noise, rng)
    stalled = straight_solve(props, shape, measurements, config)
    assert not stalled.converged and stalled.iterations == config.max_iters
    measured_start = study.run_single(props, shape, measurements, config).solution
    assert measured_start.converged and measured_start.iterations <= 4
    assert measured_start.cost_history[-1] < 1e-2 * stalled.cost_history[-1]


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
    by_straight = study.run_single(props, shape, measurements, config, study.straight_guess(grid, config.hyperparams()))
    assert_records_agree(study.run_single(props, shape, measurements, config, "straight"), by_straight)
    assert_records_agree(study.run_single(props, shape, measurements, config, "measured"),
                         study.run_single(props, shape, measurements, config))

    actuation = rodsim.Actuation((1.0,) + (0.0,) * 7)
    report = initial_guess_study(props, actuation, config)
    truth = rodsim.solve_static(props, actuation)
    measurements = rodsim.extract_measurements(
        truth, config.scenario, props, config.noise, np.random.default_rng([config.seed])
    )
    for kind, solution in (("straight", report.straight), ("model", report.model)):
        single = study.run_single(props, truth, measurements, config, kind).solution
        assert solution.iterations == single.iterations and solution.converged == single.converged
        for a, b in zip(solution.nodes, single.nodes):
            np.testing.assert_allclose(a.T, b.T, rtol=0, atol=ROUND_OFF)


def turned_rod(props, turns_per_metre):
    """The unloaded, straight rod turned about the world z axis by an angle
    growing with arclength at turns_per_metre radians per metre."""
    straight = rodsim.solve_static(props, rodsim.Actuation((0.0,) * 8))
    s = straight.nodes.s
    turn = se3.exp_se3(np.outer(s * turns_per_metre, [0, 0, 0, 0, 0, 1.0]))
    return GroundTruthShape(StateNode(s, turn @ straight.nodes.T, straight.nodes.eps), straight.sigma)


def guess_sizes(monkeypatch):
    """Runs per measured_guess call, recorded as run_study makes them."""
    sizes, original = [], study.measured_guess

    def recording(grid, measurements, hyper):
        sizes.append(len(measurements))
        return original(grid, measurements, hyper)

    monkeypatch.setattr(study, "measured_guess", recording)
    return sizes


def test_a_rod_turned_by_pi_at_the_tip_converges_in_its_batch(props, small_dataset, monkeypatch):
    # The tip pose measurement lies on the log branch cut, but each span
    # between measured poses turns by pi / 2 only. The sensed arclengths,
    # and so the grid, are those of the simulated shapes it is batched with.
    turned = turned_rod(props, np.pi / props.total_length)
    dataset = [small_dataset[1], (None, turned), small_dataset[2]]
    config = study.ScenarioConfig(Scenario.POSE_AT_SEGMENT_ENDS, noise=rodsim.MeasurementNoise(sigma_a=0.0))
    singles = single_records(props, dataset, config)
    sizes = batch_sizes(monkeypatch)
    result = study.run_study(props, dataset, config)
    assert sizes == [3]
    assert result.failures == [] and [r.index for r in result.records] == [0, 1, 2]
    assert result.records[1].solution.iterations == 6
    for record in result.records:
        assert_records_agree(record, singles[record.index])


def test_a_run_on_the_log_branch_cut_is_filed_alone(props, small_dataset, monkeypatch):
    # Turned by pi per segment, the rod's first span between measured poses
    # turns by pi: its guess leaves the log branch before any solve.
    turned = turned_rod(props, np.pi / props.segment_lengths[0])
    dataset = [small_dataset[1], (None, turned), small_dataset[2]]
    config = study.ScenarioConfig(Scenario.POSE_AT_SEGMENT_ENDS, noise=rodsim.MeasurementNoise(sigma_a=0.0))
    singles = single_records(props, dataset[:1], config)
    with pytest.raises(se3.BranchError):
        single_records(props, dataset[1:2], config)
    guesses, solves = guess_sizes(monkeypatch), batch_sizes(monkeypatch)
    result = study.run_study(props, dataset, config)
    # The batch's guess leaves the branch, so every run is guessed and
    # solved alone, and the turned run never reaches the solver.
    assert guesses == [3, 1, 1, 1] and solves == [1, 1]
    assert result.failures == [(1, "solver error: rotation angle too close to pi for the principal branch")]
    assert [r.index for r in result.records] == [0, 2]
    assert_records_agree(result.records[0], singles[0])
    # A study whose every run leaves the branch raises its error, as before.
    with pytest.raises(se3.BranchError):
        study.run_study(props, [(None, turned)], config)

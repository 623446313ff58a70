"""End-to-end release gate: ten numbered criteria, one verdict line each."""

import time

import numpy as np
import pytest

from rodgp import cli
from rodgp import interpolation, rodsim, se3, solver, study
from rodgp.prior import StateNode

from conftest import ACCEPTANCE_LINES, arc_problem
from oracles import (
    initial_guess_study, left_jacobian_series, linearize_one, pin, pose, pose_residual, prior_terms, strain,
)
from test_solver import (
    dense_from_blocks,
    dense_normal_equations,
    random_block_system,
    ragged_marginals,
    ragged_solve,
    reduced_blocks,
)


def verdict(number, ok, detail):
    line = f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dataset100(props):
    """The full-size simulated dataset used by the study criteria."""
    return rodsim.sample_dataset(props, 100, seed=1)


@pytest.fixture(scope="module")
def studies(props, dataset100):
    """One study per sensor scenario, with wall-clock seconds."""
    out = {}
    for scenario in rodsim.Scenario:
        cfg = study.ScenarioConfig(scenario, seed=5)
        t0 = time.perf_counter()
        result = study.run_study(props, dataset100, cfg)
        out[scenario] = (result, time.perf_counter() - t0)
    return out


def test_criterion_01_lie_core_properties():
    gen = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_round = worst_jac = worst_adj = 0.0
    for _ in range(300):
        x = gen.uniform(-1.7, 1.7, 6)
        y = gen.uniform(-1.7, 1.7, 6)
        T, U = se3.exp_se3(x), se3.exp_se3(y)
        worst_round = max(worst_round, np.abs(se3.log_se3(T) - x).max())
        worst_jac = max(
            worst_jac,
            np.abs(se3.left_jacobian(x) - left_jacobian_series(x, 30)).max(),
        )
        worst_adj = max(
            worst_adj,
            np.abs(se3.adjoint(T @ U) - se3.adjoint(T) @ se3.adjoint(U)).max(),
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_round < 1e-9
        and worst_jac < 1e-10
        and worst_adj < 1e-10
        and elapsed < 5.0
    )
    verdict(
        1,
        ok,
        f"roundtrip {worst_round:.1e}, jacobian vs series {worst_jac:.1e}, "
        f"adjoint homomorphism {worst_adj:.1e}, {elapsed:.1f}s",
    )


def _fd_prior(gen, h=1e-6):
    # Small-step regime: the strain rows are first order in the inter-node
    # twist, so large steps would measure the modeling error, not the
    # derivative.
    ds = gen.uniform(1e-3, 0.015)
    eps = np.array([1.0, 0, 0, 0, 0, 0]) + gen.normal(0.0, 0.01, 6)
    T_prev = se3.exp_se3(gen.uniform(-1.0, 1.0, 6))
    prev = StateNode(0.0, T_prev, eps + gen.normal(0.0, 1e-5, 6))
    T_cur = se3.exp_se3(gen.normal(0.0, 1e-5, 6)) @ se3.exp_se3(ds * eps) @ T_prev
    cur = StateNode(ds, T_cur, eps + gen.normal(0.0, 1e-5, 6))
    J = prior_terms(prev, cur)[1]
    num = np.zeros_like(J)
    for j in range(24):
        node_idx, local = divmod(j, 12)
        for sign in (1.0, -1.0):
            p, c = prev.copy(), cur.copy()
            node = p if node_idx == 0 else c
            if local < 6:
                node.T = se3.exp_se3(sign * h * np.eye(6)[local]) @ node.T
            else:
                node.eps = node.eps + sign * h * np.eye(6)[local - 6]
            num[:, j] += sign * prior_terms(p, c)[0] / (2.0 * h)
    return np.abs(J - num).max() / max(1.0, np.abs(num).max())


def _fd_pose(gen, h=1e-6):
    T = se3.exp_se3(gen.uniform(-1.0, 1.0, 6))
    T_meas = se3.exp_se3(gen.normal(0.0, 0.05, 6)) @ T
    mask = np.ones(6, dtype=bool)
    if gen.uniform() < 0.5:
        mask[gen.integers(0, 6)] = False
    m = pose(0.1, T_meas, 0.01 * np.eye(6), mask)

    def error(T):
        return pose_residual(m.value, T)[0][m.mask]

    J = np.zeros((6, 12))
    J[:, 0:6] = pose_residual(m.value, T)[1]
    J = J[m.mask]
    num = np.zeros_like(J)
    for j in range(6):
        step = h * np.eye(6)[j]
        num[:, j] = (error(se3.exp_se3(step) @ T) - error(se3.exp_se3(-step) @ T)) / (2.0 * h)
    worst = np.abs(J[:, 0:6] - num[:, 0:6]).max() / max(1.0, np.abs(num).max())
    # Strain columns are identically zero: the error never reads eps.
    return max(worst, np.abs(J[:, 6:12]).max())


def _fd_strain(gen, h=1e-6):
    eps = gen.normal(0.0, 0.5, 6)
    mask = gen.uniform(size=6) < 0.7
    mask[gen.integers(0, 6)] = True
    m = strain(0.1, eps + gen.normal(0.0, 0.1, 6), np.eye(6), mask)

    def error(eps):
        # The strain residual as linearize forms it, with its rows [0, -I].
        return (m.value - eps)[m.mask]

    J = np.hstack([np.zeros((6, 6)), -np.eye(6)])[m.mask]
    num = np.zeros_like(J)
    for j in range(6):
        step = h * np.eye(6)[j]
        num[:, 6 + j] = (error(eps + step) - error(eps - step)) / (2.0 * h)
    return np.abs(J - num).max() / max(1.0, np.abs(num).max())


def test_criterion_02_jacobians_match_finite_differences():
    gen = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        worst = max(worst, _fd_prior(gen))
    for _ in range(300):
        worst = max(worst, _fd_pose(gen))
    for _ in range(200):
        worst = max(worst, _fd_strain(gen))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    verdict(2, ok, f"worst relative error {worst:.1e} over 1000 instances, {elapsed:.1f}s")


def test_criterion_03_solver_matches_dense_oracles(props, small_dataset):
    gen = np.random.default_rng(303)
    worst = 0.0

    def rel(a, b):
        return np.abs(a - b).max() / max(1.0, np.abs(b).max())

    for sizes in (
        [12, 12],
        [6, 12, 4, 12, 9, 12],
        [12] * 25,
        [int(v) for v in gen.integers(3, 13, 50)],
    ):
        diag, off, rhs = random_block_system(gen, sizes)
        A, starts = dense_from_blocks(diag, off)
        x_dense = np.linalg.solve(A, np.concatenate(rhs))
        x_sparse = np.concatenate(ragged_solve(diag, off, rhs))
        worst = max(worst, rel(x_sparse, x_dense))
        P_diag, _ = ragged_marginals(diag, off)
        P_dense = np.linalg.inv(A)
        for k in range(len(sizes)):
            blk = P_dense[starts[k] : starts[k + 1], starts[k] : starts[k + 1]]
            worst = max(worst, rel(P_diag[k], blk))

    # Same comparison on an estimation problem (31 nodes): linearize's
    # lock-reduced blocks, and the step that gauss_newton takes from them.
    _, shape = small_dataset[0]
    cfg = study.ScenarioConfig(rodsim.Scenario.POSE_AT_SEGMENT_ENDS)
    meas = rodsim.extract_measurements(
        shape, cfg.scenario, props, cfg.noise, np.random.default_rng(0)
    )
    grid = study.estimation_grid(props.total_length, cfg.num_intervals, meas.s)
    problem = solver.Problem(
        grid, cfg.hyperparams(), meas, study.straight_guess(grid, cfg.hyperparams()),
        cfg.locks(grid.size),
    )
    diag, off, rhs, _ = reduced_blocks(problem, problem.initial_guess)
    A_ref, b_ref = dense_normal_equations(problem, problem.initial_guess)
    A, _ = dense_from_blocks(diag, off)
    worst = max(worst, rel(A, A_ref), rel(np.concatenate(rhs), b_ref))
    free = ~problem.locks
    D, U, b = pin(free, *linearize_one(problem, problem.initial_guess)[:3])
    x = solver.cr_solve(solver.cr_factor(D, U), b)
    worst = max(worst, rel(x[free], np.linalg.solve(A_ref, b_ref)))
    ok = worst < 1e-8
    verdict(3, ok, f"worst relative deviation from dense oracles {worst:.1e}")


def test_criterion_04_single_tip_pose_example():
    problem, _ = arc_problem(30)
    sol = solver.gauss_newton(problem)
    trace = [float(np.trace(P[0:3, 0:3])) for P in sol.marginal_covs]
    mid, first, last = trace[15], trace[1], trace[29]
    ok = sol.converged and sol.iterations <= 8 and mid > first and mid > last
    verdict(
        4,
        ok,
        f"{sol.iterations} iterations, position-covariance trace mid {mid:.2e} "
        f"vs node1 {first:.2e} and node K-1 {last:.2e}",
    )


def test_criterion_05_interpolation_matches_inserted_nodes(props, small_dataset):
    _, shape = small_dataset[0]
    worst_mean = worst_cov = 0.0
    for scenario in rodsim.Scenario:
        cfg = study.ScenarioConfig(scenario)
        meas = rodsim.extract_measurements(
            shape, scenario, props, cfg.noise, np.random.default_rng(0)
        )
        hyper = cfg.hyperparams()
        grid = study.estimation_grid(props.total_length, cfg.num_intervals, meas.s)
        sol = solver.gauss_newton(
            solver.Problem(
                grid, hyper, meas, study.straight_guess(grid, hyper), cfg.locks(grid.size)
            )
        )
        assert sol.converged
        taus = np.random.default_rng(17).uniform(grid[0] + 1e-3, grid[-1] - 1e-3, 20)
        grid2 = np.sort(np.concatenate([grid, taus]))
        # Warm-start the enlarged problem from the interpolant; a straight
        # restart with 20 extra nodes leaves the convergence basin.
        guess2 = interpolation.query(sol, grid2)[0]
        sol2 = solver.gauss_newton(
            solver.Problem(grid2, hyper, meas, guess2, cfg.locks(grid2.size))
        )
        assert sol2.converged
        states, covs = interpolation.query(sol, taus)
        for tau, state, cov in zip(taus, states, covs):
            k = int(np.argmin(np.abs(grid2 - tau)))
            node2, cov2 = sol2.nodes[k], sol2.marginal_covs[k]
            dxi = np.linalg.norm(se3.log_se3(state.T @ se3.pose_inverse(node2.T)))
            deps = np.abs(state.eps - node2.eps).max()
            worst_mean = max(
                worst_mean, dxi, deps / max(1.0, np.abs(node2.eps).max())
            )
            worst_cov = max(worst_cov, np.abs(cov - cov2).max() / np.abs(cov2).max())
    ok = worst_mean <= 1e-6 and worst_cov <= 1e-6
    verdict(
        5,
        ok,
        f"query vs re-solve with inserted nodes: worst mean deviation {worst_mean:.1e}, "
        f"worst covariance deviation {worst_cov:.1e} relative (contract: 1e-6; inserting "
        f"a measurement-free node shifts the restarted prior's optimum by ~1e-3)",
    )


def test_criterion_06_study_error_bands(studies):
    s1, t1 = studies[rodsim.Scenario.POSE_AT_SEGMENT_ENDS]
    s2, t2 = studies[rodsim.Scenario.STRAIN_AT_DISKS]
    s3, t3 = studies[rodsim.Scenario.STRAIN_PLUS_TIP_POSE]
    tip1, tip2, tip3 = (r.profile.tip_errors()[0] for r in (s1, s2, s3))
    ok = (
        1.5e-3 <= tip1 <= 7e-3
        and tip2 > tip1
        and 3e-3 <= tip2 <= 15e-3
        and tip3 <= 1.5 * tip1
        and max(t1, t2, t3) < 300.0
    )
    verdict(
        6,
        ok,
        f"mean tip position error {tip1 * 1e3:.2f} / {tip2 * 1e3:.2f} / {tip3 * 1e3:.2f} mm "
        f"for scenarios 1-3, studies took {t1:.0f}/{t2:.0f}/{t3:.0f}s",
    )


def test_criterion_07_envelope_calibration(studies):
    hits = np.concatenate(
        [
            study.envelope_hits(record)
            for result, _ in studies.values()
            for record in result.records
        ]
    )
    fraction = float(hits.mean())
    ok = fraction >= 0.95
    verdict(
        7, ok, f"truth inside 3-sigma envelope at {fraction:.1%} of {hits.size} node checks"
    )


def test_criterion_08_orientation_error_rises_at_segment_end(props, studies):
    profile = studies[rodsim.Scenario.STRAIN_AT_DISKS][0].profile
    l1 = props.segment_lengths[0]
    at_end = profile.ang_mean[np.argmin(np.abs(profile.arclengths - l1))]
    at_half = profile.ang_mean[np.argmin(np.abs(profile.arclengths - l1 / 2.0))]
    ok = at_end >= at_half
    verdict(
        8,
        ok,
        f"scenario-2 orientation error {at_end:.2f} deg at the first segment end "
        f"vs {at_half:.2f} deg at its midpoint",
    )


def test_criterion_09_model_initialization_not_worse(props):
    actuation = rodsim.Actuation(
        (2.5, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0),
        (-0.08, 0.05, 0.06, 0.008, -0.006, 0.004),
    )
    cfg = study.ScenarioConfig(rodsim.Scenario.POSE_AT_SEGMENT_ENDS, seed=5)
    report = initial_guess_study(props, actuation, cfg)
    residuals = (report.straight_residual_sigmas, report.model_residual_sigmas)
    costs = (report.straight.cost_history[-1], report.model.cost_history[-1])
    # Both guesses land in the same basin here, so the costs agree to
    # solver precision; the slack absorbs independent-rounding noise.
    ok = (
        report.straight.converged
        and report.model.converged
        and costs[1] <= costs[0] * (1.0 + 1e-6)
        and all(np.isfinite(residuals))
    )
    verdict(
        9,
        ok,
        f"final cost model {costs[1]:.6f} vs straight {costs[0]:.6f}, "
        f"residuals {residuals[1]:.2f} / {residuals[0]:.2f} sigma",
    )


def test_criterion_10_pipelines_are_byte_deterministic(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"prior": {"K": 10, "M": 2}, "seed": 3}')
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        assert cli.main(
            ["simulate", "--config", str(config), "--count", "2", "--out", str(out / "data.json")]
        ) == cli.EXIT_OK
        assert cli.main(
            [
                "estimate", "--config", str(config), "--dataset", str(a / "data.json"),
                "--run-index", "0", "--out", str(out / "est.json"),
            ]
        ) == cli.EXIT_OK
        assert cli.main(
            ["sample-prior", "--config", str(config), "--count", "3", "--out", str(out / "prior.json")]
        ) == cli.EXIT_OK
        assert cli.main(
            [
                "sample-posterior", "--solution", str(a / "est.json"),
                "--count", "3", "--out", str(out / "post.json"),
            ]
        ) == cli.EXIT_OK
        assert cli.main(
            [
                "evaluate", "--config", str(config), "--dataset", str(a / "data.json"),
                "--out-prefix", str(out / "ev"),
            ]
        ) == cli.EXIT_OK
    names = [
        "data.json", "est.json", "prior.json", "post.json",
        "ev_profile.csv", "ev_summary.csv", "ev_failures.csv",
    ]
    mismatched = [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()]
    ok = not mismatched
    verdict(
        10,
        ok,
        "all five pipelines byte-identical across reruns"
        if ok
        else f"outputs differ: {mismatched}",
    )

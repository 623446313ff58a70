"""Shared fixtures and problem builders for the test suite."""

import numpy as np
import pytest

from rodgp import rodsim, se3, solver, study
from rodgp.prior import PriorHyperparams, uniform_grid
from rodgp.rodsim import RodProperties

from oracles import exp_so3, pose, sensors


def random_rotation(rng, scale=1.0):
    return exp_so3(scale * rng.uniform(-1.0, 1.0, 3))


def random_pose(rng, rot_scale=1.0, trans_scale=1.0):
    T = np.eye(4)
    T[:3, :3] = random_rotation(rng, rot_scale)
    T[:3, 3] = trans_scale * rng.uniform(-1.0, 1.0, 3)
    return T


def random_twist(rng, nu_scale=1.0, omega_scale=1.0):
    return np.concatenate(
        [nu_scale * rng.uniform(-1.0, 1.0, 3), omega_scale * rng.uniform(-1.0, 1.0, 3)]
    )


def arc_problem(n_intervals=30):
    """Single tip-pose problem whose measurement sits on an exact arc.

    The measured pose is the constant-curvature state reaching translation
    (6, -2, -1) from the identity with initial tangent x, so the optimum
    is a smooth bend well inside the solver's basin. Root pose, tip
    strain, and all translational strains are locked.
    """
    target = np.array([6.0, -2.0, -1.0])
    dist = np.linalg.norm(target)
    direction = target / dist
    half = np.arccos(direction[0])
    length = dist * half / np.sin(half)
    axis = np.cross(np.array([1.0, 0.0, 0.0]), direction)
    axis /= np.linalg.norm(axis)
    eps_arc = np.concatenate([[1.0, 0.0, 0.0], (2.0 * half / length) * axis])
    T_meas = se3.exp_se3(length * eps_arc)

    grid = uniform_grid(length, n_intervals)
    hyper = PriorHyperparams(np.diag([0.01] * 6), np.array([1.0, 0, 0, 0, 0, 0]))
    measurements = sensors([pose(length, T_meas, 0.01 * np.eye(6))])
    locks = solver.default_locks(
        grid.size, root_pose=True, tip_strain=True, translational_strains=True
    )
    problem = solver.Problem(
        grid, hyper, measurements, study.straight_guess(grid, hyper), locks
    )
    return problem, target


@pytest.fixture(scope="session")
def props():
    return RodProperties.default()


@pytest.fixture(scope="session")
def small_dataset(props):
    """Three simulated configurations shared by the cheaper suites."""
    return rodsim.sample_dataset(props, 3, seed=1)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Repeat the per-criterion verdicts where they are easy to find."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

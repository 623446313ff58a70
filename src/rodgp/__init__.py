"""Continuous pose-and-strain estimation for continuum robots.

The estimator treats the robot backbone as a Cosserat rod and regresses
its full state, pose and strain as continuous functions of arclength,
from sparse noisy measurements using a Gaussian-process prior on SE(3).
A static tendon-driven-rod simulator supplies ground truth for studies.
"""

from . import cli, config, interpolation, measurements, prior, rodsim, se3, solver, study
from .config import ConfigError, RunConfig, default_config, load_config, parse_config
from .measurements import Measurements
from .prior import PriorHyperparams, StateNode, sample_prior, uniform_grid
from .rodsim import (
    Actuation,
    GroundTruthShape,
    MeasurementNoise,
    RodProperties,
    Scenario,
    ShootingError,
    extract_measurements,
    sample_dataset,
    solve_static,
)
from .solver import Problem, Solution, default_locks, gauss_newton, sample_posterior
from .study import ScenarioConfig, initial_guess_study, run_single, run_study

__all__ = [
    "Actuation",
    "ConfigError",
    "GroundTruthShape",
    "MeasurementNoise",
    "Measurements",
    "PriorHyperparams",
    "Problem",
    "RodProperties",
    "RunConfig",
    "Scenario",
    "ScenarioConfig",
    "ShootingError",
    "Solution",
    "StateNode",
    "cli",
    "config",
    "default_config",
    "default_locks",
    "extract_measurements",
    "gauss_newton",
    "initial_guess_study",
    "interpolation",
    "load_config",
    "measurements",
    "parse_config",
    "prior",
    "rodsim",
    "run_single",
    "run_study",
    "sample_dataset",
    "sample_posterior",
    "sample_prior",
    "se3",
    "solve_static",
    "solver",
    "study",
    "uniform_grid",
]

__version__ = "0.1.0"

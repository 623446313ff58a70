"""Continuous pose-and-strain estimation for continuum robots.

The estimator treats the robot backbone as a Cosserat rod and regresses
its full state, pose and strain as continuous functions of arclength,
from sparse noisy measurements using a Gaussian-process prior on SE(3).
A static tendon-driven-rod simulator supplies ground truth for studies.
"""

from . import cli, config, interpolation, measurements, prior, rodsim, se3, solver, study

__all__ = ["cli", "config", "interpolation", "measurements", "prior", "rodsim", "se3", "solver", "study"]

__version__ = "0.1.0"

"""Quadrotor + inverted spherical pendulum simulation and control toolkit."""

from .models import PendulumParams, PendulumState, QuadState, VehicleParams
from .harness import NoiseSpec, Scenario, SimLog, run_scenario

__all__ = [
    "PendulumParams", "PendulumState", "QuadState",
    "VehicleParams", "NoiseSpec", "Scenario", "SimLog", "run_scenario",
]

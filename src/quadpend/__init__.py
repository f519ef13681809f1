"""Quadrotor + inverted spherical pendulum simulation and control toolkit."""

from .models import InitialState, PendulumParams, VehicleParams
from .harness import NoiseSpec, Scenario, SimLog, run_scenario

__all__ = [
    "InitialState", "PendulumParams",
    "VehicleParams", "NoiseSpec", "Scenario", "SimLog", "run_scenario",
]

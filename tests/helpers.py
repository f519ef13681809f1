"""Helpers shared by the test modules."""

import numpy as np

from quadpend.models import VehicleParams, coupled_derivative


def pendulum_accel(ps, p_ddot, pp, g):
    """Pendulum (a_ddot, b_ddot) from coupled_derivative when the vehicle
    accelerates at p_ddot.

    At zero thrust the vehicle acceleration is gravity plus the additive
    acceleration noise, so the noise term sets p_ddot.
    """
    x = np.concatenate([np.zeros(12), ps.as_vector()])
    noise_acc = np.asarray(p_ddot, dtype=float) - np.array([0.0, 0.0, g])
    return coupled_derivative(x, np.zeros(4), VehicleParams(g=g), pp,
                              noise_acc)[14:16]

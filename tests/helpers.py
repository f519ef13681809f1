"""Helpers shared by the test modules."""

import numpy as np

from quadpend.models import VehicleParams, coupled_derivative
from quadpend.numerics import NonFiniteDerivativeError


def pendulum_accel(xp, p_ddot, pp, g):
    """Pendulum (a_ddot, b_ddot) from coupled_derivative at the pendulum
    states xp = [a, b, a_dot, b_dot] when the vehicle accelerates at p_ddot.

    At zero thrust the vehicle acceleration is gravity plus the additive
    acceleration noise, so the noise term sets p_ddot.
    """
    x = np.concatenate([np.zeros(12), xp])
    noise_acc = np.asarray(p_ddot, dtype=float) - np.array([0.0, 0.0, g])
    return coupled_derivative(x, np.zeros(4), VehicleParams(g=g), pp,
                              noise_acc)[14:16]


def linearize(f, x0, u0, eps=1e-5):
    """Central finite-difference Jacobians (A, B) of xdot = f(x, u)."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    n = x0.size
    m = u0.size
    f0 = np.asarray(f(x0, u0), dtype=float)
    A = np.zeros((f0.size, n))
    B = np.zeros((f0.size, m))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = eps
        hi = np.asarray(f(x0 + dx, u0), dtype=float)
        lo = np.asarray(f(x0 - dx, u0), dtype=float)
        col = (hi - lo) / (2.0 * eps)
        if not np.all(np.isfinite(col)):
            raise NonFiniteDerivativeError(f"non-finite sample in state column {j}")
        A[:, j] = col
    for j in range(m):
        du = np.zeros(m)
        du[j] = eps
        hi = np.asarray(f(x0, u0 + du), dtype=float)
        lo = np.asarray(f(x0, u0 - du), dtype=float)
        col = (hi - lo) / (2.0 * eps)
        if not np.all(np.isfinite(col)):
            raise NonFiniteDerivativeError(f"non-finite sample in input column {j}")
        B[:, j] = col
    return A, B

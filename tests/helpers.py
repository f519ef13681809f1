"""Helpers shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from quadpend.controllers import DECOUPLING_MARGIN
from quadpend.harness import SERIES, closed_loop_step
from quadpend.models import (PendulumParams, SingularAttitudeError,
                             VehicleParams, coupled_derivative, pendulum_zeta)
from quadpend.numerics import NonFiniteDerivativeError
from quadpend.trajectories import SetpointDifferentiator


def pendulum_accel(xp, p_ddot, pp, g):
    """Pendulum (a_ddot, b_ddot) from coupled_derivative at the pendulum
    states xp = [a, b, a_dot, b_dot] when the vehicle accelerates at p_ddot.

    At zero thrust the vehicle acceleration is gravity plus the additive
    acceleration noise, so the noise term sets p_ddot.
    """
    x = np.concatenate([np.zeros(12), xp])
    noise_acc = np.asarray(p_ddot, dtype=float) - np.array([0.0, 0.0, g])
    return np.asarray(coupled_derivative(x, np.zeros(4), VehicleParams(g=g),
                                         pp, noise_acc)[14:16])


def mixer_inverse(wrench, p):
    """Rotor commands realizing a wrench exactly; no clamping applied here."""
    return np.linalg.solve(p.mixer, np.asarray(wrench, dtype=float))


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


# Bit-for-bit oracles: coupled_derivative, output_dynamics and rk4_step as
# numpy elementwise expressions, the form the float versions in src/ must
# match byte for byte, with the helpers they call.

def cross3(a, b):
    """np.cross(a, b) of two 3-vectors, bit for bit, without its overhead."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1,
                     a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


def _gravity_direction_map(q, m):
    phi, theta, psi = float(q[0]), float(q[1]), float(q[2])
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)
    return np.array([
        -(sphi * sps + cphi * sth * cps) / m,
        -(-sphi * cps + cphi * sth * sps) / m,
        -(cphi * cth) / m,
    ])


def _euler_rate_matrix(q):
    phi, theta = float(q[0]), float(q[1])
    if abs(theta) >= math.pi / 2:
        raise SingularAttitudeError(
            f"pitch {theta:.4f} rad at or beyond +-pi/2")
    sphi, cphi = math.sin(phi), math.cos(phi)
    tth = math.tan(theta)
    sec = 1.0 / math.cos(theta)
    return np.array([
        [1.0, sphi * tth, cphi * tth],
        [0.0, cphi, -sphi],
        [0.0, sphi * sec, cphi * sec],
    ])


def _pendulum_drift_and_coupling(a, b, a_dot, b_dot, L, g):
    zeta = pendulum_zeta(a, b, L)
    L2 = L * L
    H = (4.0 * b_dot * b_dot * (a * a - L2)
         - 8.0 * a_dot * b_dot * a * b
         + 4.0 * a_dot * a_dot * (b * b - L2)
         + 3.0 * zeta ** 3 * g)
    scale = H / (4.0 * L2 * zeta * zeta)
    f_p = np.array([a * scale, b * scale])
    k = 3.0 / (4.0 * L2)
    B_p = k * np.array([
        [a * a - L2, a * b, a * zeta],
        [a * b, b * b - L2, b * zeta],
    ])
    return f_p, B_p


def oracle_coupled_derivative(x, wrench, p, pp=None, noise_acc=None,
                              noise_ang=None):
    v = x[3:6]
    q = x[6:9]
    omega = x[9:12]
    v_dot = _gravity_direction_map(q, p.m) * wrench[0]
    v_dot[2] += p.g
    if noise_acc is not None:
        v_dot = v_dot + noise_acc
    q_dot = _euler_rate_matrix(q) @ omega
    I = np.asarray(p.I_diag, dtype=float)
    w_dot = (cross3(I * omega, omega) + wrench[1:4]) / I
    if noise_ang is not None:
        w_dot = w_dot + noise_ang
    out = np.concatenate([v, v_dot, q_dot, w_dot])
    if pp is None:
        return out
    f_p, B_p = _pendulum_drift_and_coupling(
        x[12], x[13], x[14], x[15], pp.L, p.g)
    pend_acc = f_p + B_p @ v_dot
    return np.concatenate([out, x[14:16], pend_acc])


def _euler_rate_jacobian(q, omega):
    phi, theta = float(q[0]), float(q[1])
    wy, wz = float(omega[1]), float(omega[2])
    sphi, cphi = math.sin(phi), math.cos(phi)
    cth = math.cos(theta)
    tth = math.tan(theta)
    sec = 1.0 / cth
    J = np.zeros((3, 3))
    J[0, 0] = (cphi * wy - sphi * wz) * tth
    J[0, 1] = (sphi * wy + cphi * wz) * sec * sec
    J[1, 0] = -sphi * wy - cphi * wz
    J[2, 0] = (cphi * wy - sphi * wz) * sec
    J[2, 1] = (sphi * wy + cphi * wz) * sec * tth
    return J


def oracle_output_dynamics(x, p):
    q, omega = x[6:9], x[9:12]
    phi, theta = float(q[0]), float(q[1])
    cc = math.cos(phi) * math.cos(theta)
    if abs(cc) < DECOUPLING_MARGIN:
        raise SingularAttitudeError(
            "decoupling singularity: cos(phi)cos(theta) below margin")
    Z = _euler_rate_matrix(q)
    I = np.asarray(p.I_diag, dtype=float)
    Iw = I * omega
    gyro = cross3(Iw, omega) / I
    q_dot = Z @ omega
    Lf_att = _euler_rate_jacobian(q, omega) @ q_dot + Z @ gyro
    y = np.array([x[2], x[6], x[7], x[8]])
    y_dot = np.concatenate([[x[5]], q_dot])
    Lf_h = np.concatenate([[p.g], Lf_att])
    A_x = np.zeros((4, 4))
    A_x[0, 0] = -cc / p.m
    A_x[1:, 1:] = Z / I  # Z @ diag(1/I)
    return y, y_dot, Lf_h, A_x


def oracle_rk4_step(deriv, x, dt, t=None):
    """One classical fourth-order Runge-Kutta step of x' = deriv(x)."""
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(deriv(x))
    k2 = np.asarray(deriv(x + 0.5 * dt * k1))
    k3 = np.asarray(deriv(x + 0.5 * dt * k2))
    k4 = np.asarray(deriv(x + dt * k3))
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        when = "" if t is None else f" at t = {t:.6g} s"
        raise NonFiniteDerivativeError(f"non-finite derivative{when}")
    return out


def _floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


@st.composite
def step_inputs(draw, pendulum, noise):
    """(x, wrench, p, pp, noise_acc, noise_ang) with a valid attitude and,
    if pendulum, a pendulum offset inside 0.95 L; the noise is None unless
    noise.  Mass, inertia and gravity vary, so that no division is by 1."""
    p = VehicleParams(m=draw(st.floats(0.2, 5.0)),
                      I_diag=tuple(draw(_floats(1e-3, 0.1, 3))),
                      g=draw(st.floats(1.0, 20.0)))
    # |phi|, |theta| <= 1.5 keeps cos(phi) cos(theta) above the margin.
    x = (draw(_floats(-5.0, 5.0, 6)) + draw(_floats(-1.5, 1.5, 2))
         + [draw(st.floats(-math.pi, math.pi))] + draw(_floats(-5.0, 5.0, 3)))
    pp = None
    if pendulum:
        pp = PendulumParams(L=draw(st.floats(0.1, 2.0)))
        r = pp.L * draw(st.floats(0.0, 0.95))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        x += [r * math.cos(angle), r * math.sin(angle)]
        x += draw(_floats(-3.0, 3.0, 2))
    wrench = [draw(st.floats(0.0, 50.0))] + draw(_floats(-1.0, 1.0, 3))
    noises = (draw(_floats(-2.0, 2.0, 3)), draw(_floats(-2.0, 2.0, 3))) \
        if noise else (None, None)
    return (np.array(x), np.array(wrench), p, pp) + tuple(
        None if n is None else np.array(n) for n in noises)


def replay_period(sc, design, log, i):
    """closed_loop_step's period i of sc, rebuilt from the emitted CSV log
    (column name -> cells) alone: the state from row i, the differentiator
    from the q_d of rows i - 2 and i - 1, and a fresh generator past the
    2i draws of 3 of the earlier periods when a noise std is positive.
    design is the controller's setup(sc).  Returns (row, next state), or
    raises StepAbort, as the run did."""
    def floats(series, row):
        return [float(log[c][row]) for c in SERIES[series].columns]

    x = floats("quad", i) + (floats("pend", i) if sc.has_pendulum else [])
    diff = SetpointDifferentiator(sc.dt)
    for row in range(max(i - 2, 0), i):
        diff.update(floats("q_d", row))
    rng = np.random.default_rng(sc.seed)
    if sc.noise.accel_std > 0 or sc.noise.ang_accel_std > 0:
        rng.standard_normal(6 * i)
    return closed_loop_step(sc, design, x, diff, i * sc.dt, rng,
                            i == round(sc.duration / sc.dt))


def csv_cells(row):
    """Column name -> CSV cell of each emitted series in a step's row."""
    cells = {}
    for name, series in SERIES.items():
        if name in row:
            cast = int if series.dtype is bool else float
            cells.update(zip(series.columns, (
                repr(cast(v)) for v in np.ravel(row[name]).tolist())))
    return cells

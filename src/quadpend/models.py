"""Continuous-time dynamics of a quadrotor with an inertially coupled spherical pendulum.

Conventions
-----------
World frame is Z-down: gravity is the vector (0, 0, +g) and a hovering
vehicle produces thrust acceleration (0, 0, -g).  Attitude is parametrized
by ZYX Euler angles q = (phi, theta, psi) with body angular velocity omega.

Quadrotor (12 states, x[0:12] = [p, v, q, omega]):

    p_dot     = v
    v_dot     = g*e_Z + g1(q) * f_z
    q_dot     = Z(q) * omega
    omega_dot = I^-1 (I omega x omega) + I^-1 tau

The four rotor commands u map linearly to the body wrench [f_z, tau]
through the mixer matrix B (cross configuration, scaled by rho*D^4).

Spherical pendulum (4 states, x[12:16] = [a, b, a_dot, b_dot]), attached at
the vehicle CoM and light enough not to back-react on the vehicle.  Its CoM
offset from the vehicle CoM is (a, b, zeta) with zeta = sqrt(L^2 - a^2 - b^2):

    [a_ddot, b_ddot] = f_p(a, b, adot, bdot) + B_p(a, b) * p_ddot

A run's initial condition is an InitialState, stated in this layout of x.

Call overhead on 3-vectors, not arithmetic, sets the cost of a step.  So
cross3(a, b) computes np.cross's operations, in its order, on Python floats,
and each VehicleParams builds its constants once, as read-only arrays: the
mixer matrix (mixer), the inertia diagonal (inertia) and the rotor command
bounds (rotor_bounds).  Both keep every output bit.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SingularAttitudeError(ValueError):
    """Pitch at or beyond +-pi/2, where the Euler-rate map is singular."""


class PendulumHorizontalError(ValueError):
    """Pendulum offset reached the horizontal (a^2 + b^2 >= L^2)."""


# Fraction of L at which the harness aborts, before the exact singularity.
PENDULUM_MARGIN = 0.999


@dataclass(frozen=True)
class VehicleParams:
    """Physical and actuation parameters of the quadrotor."""

    m: float = 1.0
    I_diag: tuple = (0.01, 0.01, 0.02)
    rho: float = 1.225
    D: float = 0.2
    C_T: float = 0.1
    C_Q: float = 0.01
    l: float = 0.17
    g: float = 9.81
    u_min: tuple = None
    u_max: tuple = None

    def __post_init__(self):
        if not (self.m > 0 and self.C_T > 0 and self.l > 0 and self.D > 0
                and self.rho > 0):
            raise ValueError("vehicle parameters must be positive")
        if any(i <= 0 for i in self.I_diag):
            raise ValueError("inertia values must be positive")
        if self.u_min is None:
            object.__setattr__(self, "u_min", (0.0,) * 4)
        if self.u_max is None:
            # Total thrust authority of 4x hover by default.
            cap = self.m * self.g / (self.rho * self.D ** 4 * self.C_T)
            object.__setattr__(self, "u_max", (cap,) * 4)
        if not all(lo < hi for lo, hi in zip(self.u_min, self.u_max)):
            raise ValueError("u_min must be below u_max elementwise")

    # Cached per instance; a frozen dataclass compares and hashes by its
    # fields only, so the cache changes neither.
    @cached_property
    def inertia(self):
        return _read_only(np.asarray(self.I_diag, dtype=float))

    @cached_property
    def mixer(self):
        """mixer_matrix(self), built once."""
        return _read_only(mixer_matrix(self))

    @cached_property
    def rotor_bounds(self):
        """(u_min, u_max) as float arrays."""
        return (_read_only(np.asarray(self.u_min, dtype=float)),
                _read_only(np.asarray(self.u_max, dtype=float)))


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PendulumParams:
    """Spherical pendulum parameters; the rod has length 2L."""

    L: float = 0.5
    m_p: float = 0.05  # recorded only; too light to affect the vehicle

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("pendulum half-length must be positive")
        if self.m_p < 0:
            raise ValueError("pendulum mass must be nonnegative")


@dataclass(frozen=True)
class InitialState:
    """Initial condition, laid out as x: [p, v, q, omega, (a, b, a_dot, b_dot)]."""

    p: tuple = (0.0, 0.0, 0.0)
    v: tuple = (0.0, 0.0, 0.0)
    q: tuple = (0.0, 0.0, 0.0)
    omega: tuple = (0.0, 0.0, 0.0)
    pendulum: tuple = (0.0, 0.0, 0.0, 0.0)

    def as_vector(self):
        """The 16-entry x; a run without a pendulum uses x[:12]."""
        return np.concatenate([self.p, self.v, self.q, self.omega,
                               self.pendulum])


def mixer_matrix(p: VehicleParams) -> np.ndarray:
    """Full-rank cross-configuration mixer mapping rotor commands to wrench."""
    ct, cq, l = p.C_T, p.C_Q, p.l
    B = np.array([
        [ct, ct, ct, ct],
        [0.0, ct * l, 0.0, -ct * l],
        [ct * l, 0.0, -ct * l, 0.0],
        [cq, -cq, cq, -cq],
    ])
    return p.rho * p.D ** 4 * B


def mixer_forward(u, p: VehicleParams) -> np.ndarray:
    """Body wrench [f_z, tau_x, tau_y, tau_z] produced by rotor commands u."""
    return p.mixer @ np.asarray(u, dtype=float)


def mixer_inverse(wrench, p: VehicleParams) -> np.ndarray:
    """Rotor commands realizing a wrench exactly; no clamping applied here."""
    return np.linalg.solve(p.mixer, np.asarray(wrench, dtype=float))


def cross3(a, b) -> np.ndarray:
    """np.cross(a, b) of two 3-vectors, bit for bit, without its overhead."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1,
                     a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


def gravity_direction_map(q, m: float) -> np.ndarray:
    """Thrust direction map g1(q); a rotated unit axis scaled by -1/m."""
    phi, theta, psi = float(q[0]), float(q[1]), float(q[2])
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)
    return np.array([
        -(sphi * sps + cphi * sth * cps) / m,
        -(-sphi * cps + cphi * sth * sps) / m,
        -(cphi * cth) / m,
    ])


def euler_rate_matrix(q) -> np.ndarray:
    """Map Z(q) from body rates to Euler-angle rates; det Z = sec(theta)."""
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


def pendulum_zeta(a: float, b: float, L: float) -> float:
    """Vertical offset zeta = sqrt(L^2 - a^2 - b^2) of the pendulum CoM."""
    r2 = a * a + b * b
    if r2 >= L * L:
        raise PendulumHorizontalError(
            f"pendulum horizontal: a^2+b^2 = {r2:.6g} >= L^2 = {L * L:.6g}")
    return math.sqrt(L * L - r2)


def pendulum_drift_and_coupling(a, b, a_dot, b_dot, L, g):
    """Drift term f_p (2,) and coupling matrix B_p (2, 3) of the pendulum."""
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


def coupled_derivative(x, wrench, p: VehicleParams, pp: PendulumParams = None,
                       noise_acc=None, noise_ang=None) -> np.ndarray:
    """Time derivative of the quadrotor state, and of the pendulum's if pp.

    x holds the 12 quadrotor states, followed by the 4 pendulum states when
    pp is given.  The wrench [f_z, tau] and the optional additive noise on
    v_dot and omega_dot are held constant; the pendulum is driven by the
    realized vehicle acceleration, noise included.
    """
    v = x[3:6]
    q = x[6:9]
    omega = x[9:12]
    v_dot = gravity_direction_map(q, p.m) * wrench[0]
    v_dot[2] += p.g
    if noise_acc is not None:
        v_dot = v_dot + noise_acc
    q_dot = euler_rate_matrix(q) @ omega
    I = p.inertia
    w_dot = (cross3(I * omega, omega) + wrench[1:4]) / I
    if noise_ang is not None:
        w_dot = w_dot + noise_ang
    out = np.concatenate([v, v_dot, q_dot, w_dot])
    if pp is None:
        return out
    f_p, B_p = pendulum_drift_and_coupling(
        x[12], x[13], x[14], x[15], pp.L, p.g)
    pend_acc = f_p + B_p @ v_dot
    return np.concatenate([out, x[14:16], pend_acc])

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

Call overhead on 3-vectors, not arithmetic, sets the cost of a step, so the
step's math follows one rule, and keeps every output bit:

* elementwise math runs on Python floats, in numpy's order of operations.
  A float operation rounds like numpy's float64 one, so (a - b) * c on
  floats gives the bits of the same expression on arrays;
* every call that numpy hands to BLAS or LAPACK (@, np.linalg.norm,
  inv, solve, det) stays a numpy call on operands of the same values.  No
  scalar order matches a small BLAS matvec, nor np.linalg.norm, on every
  input.

The state x and the RK4 stages are lists of floats, so numpy arrays appear
only as the operands of those calls.

Each VehicleParams builds its constants once, as read-only arrays: the
mixer matrix (mixer) and the rotor command bounds (rotor_bounds).
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
        # The laws invert the mixer, rho * D ** 4 times C_T, C_T * l and C_Q.
        check_power_in_range(self.D, 4, "rotor_diameter")
        scale = self.rho * self.D ** 4
        if not all(0 < abs(scale * c) < math.inf
                   for c in (self.C_T, self.C_T * self.l, self.C_Q)):
            raise ValueError("rho * rotor_diameter ** 4 times thrust_coeff, "
                             "torque_coeff or arm_length * thrust_coeff is 0 "
                             "or overflows: the rotor mixer is singular")
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


def check_power_in_range(base, exponent, key):
    """Reject a parameter whose power, as the model evaluates it, overflows,
    or whose reciprocal power does: raises ValueError naming key."""
    try:
        power = base ** exponent
    except OverflowError:
        power = math.inf
    if not (0 < power < math.inf and 1.0 / power < math.inf):
        raise ValueError(f"{key} {base!r} is out of range: {key} ** "
                         f"{exponent} overflows or underflows")


@dataclass(frozen=True)
class PendulumParams:
    """Spherical pendulum parameters; the rod has length 2L."""

    L: float = 0.5

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("pendulum half-length must be positive")
        # pendulum_drift_and_coupling cubes zeta, which is at most L, and
        # divides by L ** 2 * zeta ** 2.
        check_power_in_range(self.L, 4, "half_length")


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


def gravity_direction_map(q, m: float):
    """Thrust direction map g1(q), a rotated unit axis scaled by -1/m, as a
    tuple of floats."""
    phi, theta, psi = float(q[0]), float(q[1]), float(q[2])
    sphi, cphi = math.sin(phi), math.cos(phi)
    sth, cth = math.sin(theta), math.cos(theta)
    sps, cps = math.sin(psi), math.cos(psi)
    return (-(sphi * sps + cphi * sth * cps) / m,
            -(-sphi * cps + cphi * sth * sps) / m,
            -(cphi * cth) / m)


def euler_rate_matrix(q) -> np.ndarray:
    """Map Z(q) from body rates to Euler-angle rates; det Z = sec(theta)."""
    phi, theta = float(q[0]), float(q[1])
    if abs(theta) >= math.pi / 2:
        raise SingularAttitudeError(
            f"pitch {theta:.4f} rad at or beyond +-pi/2")
    sphi, cphi = math.sin(phi), math.cos(phi)
    tth = math.tan(theta)
    sec = 1.0 / math.cos(theta)
    return np.array([1.0, sphi * tth, cphi * tth,
                     0.0, cphi, -sphi,
                     0.0, sphi * sec, cphi * sec]).reshape(3, 3)


def pendulum_zeta(a: float, b: float, L: float) -> float:
    """Vertical offset zeta = sqrt(L^2 - a^2 - b^2) of the pendulum CoM."""
    r2 = a * a + b * b
    if r2 >= L * L:
        raise PendulumHorizontalError(
            f"pendulum horizontal: a^2+b^2 = {r2:.6g} >= L^2 = {L * L:.6g}")
    return math.sqrt(L * L - r2)


def pendulum_drift_and_coupling(a, b, a_dot, b_dot, L, g):
    """Drift term f_p, as two floats, and coupling matrix B_p (2, 3)."""
    zeta = pendulum_zeta(a, b, L)
    L2 = L * L
    H = (4.0 * b_dot * b_dot * (a * a - L2)
         - 8.0 * a_dot * b_dot * a * b
         + 4.0 * a_dot * a_dot * (b * b - L2)
         + 3.0 * zeta ** 3 * g)
    scale = H / (4.0 * L2 * zeta * zeta)
    k = 3.0 / (4.0 * L2)
    B_p = np.array([k * (a * a - L2), k * (a * b), k * (a * zeta),
                    k * (a * b), k * (b * b - L2), k * (b * zeta)])
    return (a * scale, b * scale), B_p.reshape(2, 3)


def coupled_derivative(x, wrench, p: VehicleParams, pp: PendulumParams = None,
                       noise_acc=None, noise_ang=None) -> list:
    """Time derivative of the quadrotor state, and of the pendulum's if pp.

    x holds the 12 quadrotor states, followed by the 4 pendulum states when
    pp is given.  The wrench [f_z, tau] and the optional additive noise on
    v_dot and omega_dot are held constant; the pendulum is driven by the
    realized vehicle acceleration, noise included.  x, the wrench and the
    noise are sequences of floats; returns a list of floats.
    """
    _, _, _, v0, v1, v2, phi, theta, psi, wx, wy, wz, *pend = x
    f, tx, ty, tz = wrench
    g0, g1, g2 = gravity_direction_map((phi, theta, psi), p.m)
    a0, a1, a2 = g0 * f, g1 * f, g2 * f + p.g
    if noise_acc is not None:
        n0, n1, n2 = noise_acc
        a0, a1, a2 = a0 + n0, a1 + n1, a2 + n2
    q_dot = (euler_rate_matrix((phi, theta))
             @ np.array([wx, wy, wz])).tolist()
    I0, I1, I2 = p.I_diag
    Iw0, Iw1, Iw2 = I0 * wx, I1 * wy, I2 * wz
    d0 = (Iw1 * wz - Iw2 * wy + tx) / I0
    d1 = (Iw2 * wx - Iw0 * wz + ty) / I1
    d2 = (Iw0 * wy - Iw1 * wx + tz) / I2
    if noise_ang is not None:
        n0, n1, n2 = noise_ang
        d0, d1, d2 = d0 + n0, d1 + n1, d2 + n2
    if pp is None:
        return [v0, v1, v2, a0, a1, a2, *q_dot, d0, d1, d2]
    a, b, a_dot, b_dot = pend
    (f0, f1), B_p = pendulum_drift_and_coupling(a, b, a_dot, b_dot, pp.L,
                                                p.g)
    c0, c1 = (B_p @ np.array([a0, a1, a2])).tolist()
    return [v0, v1, v2, a0, a1, a2, *q_dot, d0, d1, d2,
            a_dot, b_dot, f0 + c0, f1 + c1]

"""Controller syntheses for the quadrotor and the coupled pendulum.

Four families:

* feedback-linearizing output regulation/tracking on y = [p_Z, phi, theta, psi]
  (vector relative degree [2, 2, 2, 2]),
* a CLF-QP that picks the minimum-effort virtual input satisfying the
  Lyapunov decrease inequality and the rotor box constraints,
* pendulum feedback linearization producing a desired vehicle acceleration,
  either through the pseudo-inverse of the full 2x3 coupling matrix (xi) or
  the inverse of its planar 2x2 restriction (xi'),
* a combined pendulum + horizontal-position LQR that emits roll/pitch
  set-points from the linearized 8-state model.

Position-to-attitude force allocation (zero yaw) bridges desired
accelerations and attitude set-points for the inner loop.
The quadrotor laws read the state vector x (layout in ``models``) and
return the four rotor commands u; the pendulum laws read x[12:16].
The three quadrotor laws each make one ``output_dynamics(x, p)`` call for
the output, its derivative, the drift Lf_h and the decoupling matrix A(x).
The per-step math follows the rule in ``models``: elementwise on Python
floats, BLAS and LAPACK calls on numpy; the laws accept sequences of floats
for every vector.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import (PendulumParams, SingularAttitudeError, VehicleParams,
                     euler_rate_matrix, pendulum_drift_and_coupling)
from .numerics import QpProblem, QpInfeasibleError, solve_care, solve_qp

DECOUPLING_MARGIN = 1e-6


class AllocationError(ValueError):
    """Desired force vector too small to define a thrust direction."""


class OutputReference(NamedTuple):
    """Desired output [p_Zd, phi_d, theta_d, psi_d] and its derivatives,
    each a sequence of four floats."""

    y_d: tuple
    y_d_dot: tuple
    y_d_ddot: tuple


@dataclass(frozen=True)
class TrackingGains:
    """Gain set for every controller family; its defaults are the scenario
    defaults and the controllers' keyword defaults."""

    alpha1: float = 100.0
    alpha2: float = 20.0
    kp: float = 4.0
    kd: float = 4.0
    q_care: float = 1.0       # scalar multiple of I_8
    k1: float = 8.0           # pendulum velocity gain
    k2: float = 16.0          # pendulum position gain
    q_lqr: tuple = (10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    r_lqr: tuple = (100.0, 100.0)
    attitude_clamp: float = 0.5  # rad, LQR set-point clamp

    def __post_init__(self):
        if self.q_care <= 0 or min(self.q_lqr) < 0 or min(self.r_lqr) <= 0:
            raise ValueError("q_care and r_lqr must be positive and q_lqr "
                             "nonnegative")


def output_error_matrices():
    """Double-integrator error dynamics (F, G) of the four outputs."""
    F = np.zeros((8, 8))
    F[:4, 4:] = np.eye(4)
    G = np.zeros((8, 4))
    G[4:, :] = np.eye(4)
    return F, G


@dataclass(frozen=True)
class OutputClf:
    """CARE-based CLF for the output error dynamics: V = eta' P eta.

    decay is F'P + PF + c3 P, so that V_dot + c3 V = eta' decay eta + the
    input term; it is read-only.
    """

    P: np.ndarray
    c3: float
    F: np.ndarray
    G: np.ndarray
    decay: np.ndarray


def setup_output_clf(q_care=TrackingGains.q_care) -> OutputClf:
    F, G = output_error_matrices()
    Q = np.eye(8) * float(q_care)
    P = solve_care(F, G, Q)
    c3 = float(np.min(np.linalg.eigvalsh(Q)) / np.max(np.linalg.eigvalsh(P)))
    decay = F.T @ P + P @ F + c3 * P
    decay.flags.writeable = False
    return OutputClf(P=P, c3=c3, F=F, G=G, decay=decay)


def _euler_rate_jacobian(q, omega):
    """Jacobian of Z(q) @ omega with respect to q (3x3)."""
    phi, theta = float(q[0]), float(q[1])
    wy, wz = float(omega[1]), float(omega[2])
    sphi, cphi = math.sin(phi), math.cos(phi)
    cth = math.cos(theta)
    tth = math.tan(theta)
    sec = 1.0 / cth
    return np.array([
        (cphi * wy - sphi * wz) * tth, (sphi * wy + cphi * wz) * sec * sec, 0.0,
        -sphi * wy - cphi * wz, 0.0, 0.0,
        (cphi * wy - sphi * wz) * sec, (sphi * wy + cphi * wz) * sec * tth, 0.0,
    ]).reshape(3, 3)


def output_dynamics(x, p: VehicleParams):
    """Output y = [p_Z, phi, theta, psi], its derivative y_dot, and the drift
    Lf_h and decoupling A(x) of its second derivative y_ddot = Lf_h + A(x) w,
    with w the body wrench [f_z, tau].  y, y_dot and Lf_h are tuples of
    floats, A(x) a 4x4 array."""
    _, _, pz, _, _, vz, phi, theta, psi, wx, wy, wz = x[:12]
    cc = math.cos(phi) * math.cos(theta)
    if abs(cc) < DECOUPLING_MARGIN:
        raise SingularAttitudeError(
            "decoupling singularity: cos(phi)cos(theta) below margin")
    Z = euler_rate_matrix((phi, theta))
    (z00, z01, z02), (z10, z11, z12), (z20, z21, z22) = Z.tolist()
    I0, I1, I2 = p.I_diag
    Iw0, Iw1, Iw2 = I0 * wx, I1 * wy, I2 * wz
    gyro = np.array([(Iw1 * wz - Iw2 * wy) / I0,
                     (Iw2 * wx - Iw0 * wz) / I1,
                     (Iw0 * wy - Iw1 * wx) / I2])
    q_dot = Z @ np.array([wx, wy, wz])
    J = _euler_rate_jacobian((phi, theta), (wx, wy, wz))
    Lf_att = [a + b for a, b in zip((J @ q_dot).tolist(),
                                    (Z @ gyro).tolist())]
    A_x = np.array([-cc / p.m, 0.0, 0.0, 0.0,
                    0.0, z00 / I0, z01 / I1, z02 / I2,
                    0.0, z10 / I0, z11 / I1, z12 / I2,
                    0.0, z20 / I0, z21 / I1, z22 / I2]).reshape(4, 4)
    return ((pz, phi, theta, psi), (vz, *q_dot.tolist()), (p.g, *Lf_att),
            A_x)


def _decoupling_inverse(A_x, p: VehicleParams):
    """(A(x) B)^-1 mapping virtual output accelerations to rotor commands."""
    return np.linalg.inv(A_x @ p.mixer)


def fbl_regulator(x, y_d, p: VehicleParams, clf: OutputClf) -> np.ndarray:
    """Set-point regulation u = (A(x)B)^-1 (-Lf_h - G'P eta)."""
    y, y_dot, Lf_h, A_x = output_dynamics(x, p)
    eta = np.array([*(a - b for a, b in zip(y, y_d)), *y_dot])
    v = (clf.P @ eta).tolist()[4:]
    return _decoupling_inverse(A_x, p) @ np.array(
        [-lf + -vi for lf, vi in zip(Lf_h, v)])


def fbl_tracker(x, ref: OutputReference, p: VehicleParams,
                alpha1=TrackingGains.alpha1,
                alpha2=TrackingGains.alpha2) -> np.ndarray:
    """PD trajectory tracking with exact feedforward of the reference."""
    y, y_dot, Lf_h, A_x = output_dynamics(x, p)
    return _decoupling_inverse(A_x, p) @ np.array([
        -lf + (dd - alpha2 * (yd - rd) - alpha1 * (yy - r))
        for lf, dd, yd, rd, yy, r in zip(Lf_h, ref.y_d_ddot, y_dot,
                                         ref.y_d_dot, y, ref.y_d)])


def attitude_from_force(f_d, m: float):
    """Zero-yaw Euler angles aligning the thrust axis with a force demand.

    Branch choice keeps the thrust pointing body-up (cos(theta_d) > 0 for
    f_zd < 0 in the Z-down frame); the reconstruction identity
    g1(q_d) * m * ||f_d|| == f_d holds exactly.  Returns (q_d, thrust) with
    q_d a tuple of floats.
    """
    f_d = np.asarray(f_d, dtype=float)
    norm = float(np.linalg.norm(f_d))
    if norm < 1e-6:
        raise AllocationError("degenerate force demand (norm below 1e-6)")
    f0, f1, f2 = f_d.tolist()
    return (math.asin(f1 / norm), math.atan2(-f0, -f2), 0.0), m * norm


def position_allocation(pos, vel, ref_pos, ref_vel, ref_acc, kp, kd,
                        g: float, m: float):
    """Desired force (PD + feedforward, gravity in the z row) and attitude.

    Returns (f_d, q_d, thrust_norm) with q_d = (phi_d, theta_d, 0); f_d and
    q_d are tuples of floats.
    """
    f0, f1, f2 = (acc + kd * (rv - v) + kp * (rp - x) for acc, rv, v, rp, x
                  in zip(ref_acc, ref_vel, vel, ref_pos, pos))
    f_d = (f0, f1, f2 - g)
    q_d, thrust = attitude_from_force(f_d, m)
    return f_d, q_d, thrust


@dataclass
class QpReport:
    """Per-step CLF-QP diagnostics for the simulation log."""

    relaxed: bool = False
    slack: float = 0.0


# L1 penalty on the CLF decrease slack when the raw QP is infeasible.
CLF_SLACK_WEIGHT = 1e3


def clf_qp_controller(x, ref: OutputReference, p: VehicleParams,
                      clf: OutputClf):
    """Minimum-effort virtual input subject to CLF decrease and rotor bounds.

    The rotor box constraints are kept hard; on infeasibility the decrease
    row is relaxed with an L1-penalized slack and the step is flagged.
    Returns (u, QpReport).
    """
    y, y_dot, Lf_h, A_x = output_dynamics(x, p)
    M = _decoupling_inverse(A_x, p)
    eta = np.array([*(a - b for a, b in zip(y, ref.y_d)),
                    *(a - b for a, b in zip(y_dot, ref.y_d_dot))])

    # u = M (v + y_d_ddot - Lf_h); error dynamics eta_dot = F eta + G v.
    clf_rhs = -float(eta @ clf.decay @ eta)
    shift = M @ np.array([dd - lf for dd, lf in zip(ref.y_d_ddot, Lf_h)])
    shift_f = shift.tolist()
    bounds = [(lo - 1e-12, hi + 1e-12) for lo, hi in zip(p.u_min, p.u_max)]

    def within_bounds(u):
        return all(lo <= ui <= hi for ui, (lo, hi) in zip(u, bounds))

    # Cheap exits: v = 0 when the decrease row is slack at the origin, and
    # the analytic projection onto the decrease hyperplane otherwise.
    report = QpReport()
    v = None
    if clf_rhs >= 0.0 and within_bounds(shift_f):
        v = np.zeros(4)
    else:
        # clf_row and cand stay arrays: each feeds a BLAS call next.
        clf_row = 2.0 * (eta @ clf.P @ clf.G)
        nrm2 = float(clf_row @ clf_row)
        if nrm2 > 1e-14 and clf_rhs < 0.0:
            cand = clf_row * (clf_rhs / nrm2)
            if within_bounds([a + b for a, b in zip((M @ cand).tolist(),
                                                     shift_f)]):
                v = cand

    if v is None:  # the QP rows, built only for the QP
        u_min, u_max = p.rotor_bounds
        A = np.vstack([clf_row, M, -M])
        b = np.concatenate([[clf_rhs], u_max - shift, -(u_min - shift)])
        try:
            res = solve_qp(QpProblem(H=2.0 * np.eye(4), f=np.zeros(4),
                                     A_ineq=A, b_ineq=b))
            v = res.x
        except QpInfeasibleError:
            # Relax the decrease row; box rows stay hard.
            H = np.diag([2.0, 2.0, 2.0, 2.0, 2e-6])
            f = np.array([0.0, 0.0, 0.0, 0.0, CLF_SLACK_WEIGHT])
            A_rel = np.zeros((A.shape[0] + 1, 5))
            A_rel[:A.shape[0], :4] = A
            A_rel[0, 4] = -1.0  # CLF row minus slack
            A_rel[-1, 4] = -1.0  # slack >= 0
            b_rel = np.concatenate([b, [0.0]])
            res = solve_qp(QpProblem(H=H, f=f, A_ineq=A_rel, b_ineq=b_rel))
            v = res.x[:4]
            report.relaxed = True
            report.slack = float(res.x[4])

    return M @ v + shift, report


def _pendulum_nu(xp, ref_pend, ref_pend_dot, ref_pend_ddot, k1: float,
                 k2: float):
    a, b, a_dot, b_dot = xp
    return [dd - k1 * (xd - rd) - k2 * (x - r) for dd, xd, rd, x, r in zip(
        ref_pend_ddot, (a_dot, b_dot), ref_pend_dot, (a, b), ref_pend)]


def pendulum_fbl_xi(xp, ref_pend, ref_pend_dot, ref_pend_ddot,
                    pp: PendulumParams, g: float, k1=TrackingGains.k1,
                    k2=TrackingGains.k2):
    """Minimum-norm vehicle acceleration xi = B_p^+ (-f_p + nu)."""
    nu = _pendulum_nu(xp, ref_pend, ref_pend_dot, ref_pend_ddot, k1, k2)
    f_p, B_p = pendulum_drift_and_coupling(*xp, pp.L, g)
    rhs = np.array([-f + n for f, n in zip(f_p, nu)])
    # B_p has full row rank inside the valid region, so the pseudo-inverse
    # is B_p' (B_p B_p')^-1.
    return B_p.T @ np.linalg.solve(B_p @ B_p.T, rhs)


def pendulum_fbl_xi_prime(xp, pz_ddot: float, ref_pend,
                          ref_pend_dot, ref_pend_ddot, pp: PendulumParams,
                          g: float, k1=TrackingGains.k1,
                          k2=TrackingGains.k2):
    """Planar acceleration xi' from the 2x2 restriction of B_p.

    The vertical acceleration pz_ddot is supplied externally and folded
    into the drift through the third column of B_p.
    """
    nu = _pendulum_nu(xp, ref_pend, ref_pend_dot, ref_pend_ddot, k1, k2)
    f_p, B_p = pendulum_drift_and_coupling(*xp, pp.L, g)
    B_prime = B_p[:, :2]
    if abs(np.linalg.det(B_prime)) < 1e-9:
        raise PendulumCouplingError("planar coupling matrix near singular")
    return np.linalg.solve(B_prime, np.array([
        -(f + row[2] * pz_ddot) + n
        for f, row, n in zip(f_p, B_p.tolist(), nu)]))


class PendulumCouplingError(RuntimeError):
    """Planar pendulum coupling matrix lost invertibility."""


def pendulum_linear_system(g: float, L: float):
    """Linearized pendulum + horizontal-position model about hover.

    State eta_p = [a, b, p_X, p_Y, a_dot, b_dot, pX_dot, pY_dot], inputs
    (phi, theta).  The b row couples to b (the symmetric form; the a-coupled
    variant fails the finite-difference cross-check against the nonlinear
    model).
    """
    A = np.zeros((8, 8))
    A[:4, 4:] = np.eye(4)
    A[4, 0] = 3.0 * g / (4.0 * L)
    A[5, 1] = 3.0 * g / (4.0 * L)
    B = np.zeros((8, 2))
    B[4, 1] = 0.75 * g     # a_ddot <- theta
    B[5, 0] = -0.75 * g    # b_ddot <- phi
    B[6, 1] = -g           # pX_ddot <- theta
    B[7, 0] = g            # pY_ddot <- phi
    return A, B


def setup_pendulum_lqr(g: float, L: float, q_lqr, r_lqr):
    """LQR gain K (2x8) for the linearized pendulum + position model."""
    A, B = pendulum_linear_system(g, L)
    Q = np.diag(np.asarray(q_lqr, dtype=float))
    R = np.diag(np.asarray(r_lqr, dtype=float))
    P = solve_care(A, B, Q, R)
    return np.linalg.solve(R, B.T @ P)


def pendulum_position_lqr(eta_p, eta_ref, K,
                          clamp=TrackingGains.attitude_clamp):
    """Roll/pitch set-points (phi_d, theta_d) = -K (eta_p - ref), clamped,
    as a tuple of floats."""
    u = -K @ np.array([e - r for e, r in zip(eta_p, eta_ref)])
    return tuple(_clip(ui, -clamp, clamp) for ui in u.tolist())


def _clip(v, lo, hi):
    """np.clip of one float, NaN and signed zeros included."""
    v = lo if v < lo else v
    return hi if v > hi else v

"""Closed-loop simulation engine.

One fixed-step loop per scenario: sample references, run the outer loop
(position allocation, pendulum controller, or LQR), numerically
differentiate the attitude set-points, run the inner altitude/attitude
controller, clamp rotor commands, inject process noise, and RK4-step the
coupled quadrotor-pendulum state with the wrench and noise held over the
step.  The pendulum consumes the realized vehicle acceleration, including
noise and clamping effects.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import controllers as ctl
from . import models, trajectories
from .models import (ControlCommand, PENDULUM_MARGIN, PendulumHorizontalError,
                     PendulumParams, PendulumState, QuadState,
                     SingularAttitudeError, VehicleParams)
from .numerics import (CareError, NonFiniteDerivativeError,
                       QpInfeasibleError, QpUnboundedError, rk4_step)
from .trajectories import SetpointDifferentiator, TrajectorySpec, sample_trajectory

CONTROLLER_KINDS = ("fbl-regulator", "fbl-tracker", "clf-qp",
                    "pend-xi", "pend-xi-prime", "pend-lqr")
PENDULUM_CONTROLLERS = ("pend-xi", "pend-xi-prime", "pend-lqr")

MAX_CONSECUTIVE_FAULTS = 50


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian process noise, held over each step.

    Stds are quoted at the reference step dt_ref and rescaled by
    sqrt(dt_ref/dt) so the injected noise energy is step-size independent.
    """

    enabled: bool = False
    accel_std: float = 0.2      # m/s^2 on v_dot
    ang_accel_std: float = 0.1  # rad/s^2 on omega_dot
    dt_ref: float = 1e-3

    def __post_init__(self):
        if self.accel_std < 0 or self.ang_accel_std < 0:
            raise ScenarioError("noise stds must be nonnegative")
        if self.dt_ref <= 0:
            raise ScenarioError("noise dt_ref must be positive")


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    description: str = ""
    controller: str = "fbl-tracker"
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    pendulum: PendulumParams = None
    gains: ctl.TrackingGains = field(default_factory=ctl.TrackingGains)
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    initial_quad: QuadState = field(default_factory=QuadState)
    initial_pend: PendulumState = None
    duration: float = 10.0
    dt: float = 1e-3
    seed: int = 0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.controller not in CONTROLLER_KINDS:
            raise ScenarioError(f"unknown controller {self.controller!r}")
        if not (0 < self.duration < math.inf and 0 < self.dt < math.inf):
            raise ScenarioError("duration and dt must be positive and finite")
        if self.seed < 0:
            raise ScenarioError("seed must be nonnegative")
        if self.controller in PENDULUM_CONTROLLERS and self.pendulum is None:
            raise ScenarioError(
                f"controller {self.controller!r} requires pendulum parameters")
        if self.pendulum is not None and self.initial_pend is None:
            object.__setattr__(self, "initial_pend",
                               PendulumState(0.0, 0.0, 0.0, 0.0))

    @property
    def has_pendulum(self):
        return self.pendulum is not None


@dataclass
class SimLog:
    """Uniformly sampled record of a scenario run plus derived metrics."""

    scenario_name: str
    dt: float
    t: np.ndarray = None
    quad: np.ndarray = None        # (N, 12)
    pend: np.ndarray = None        # (N, 4) or None
    u: np.ndarray = None           # (N, 4)
    wrench: np.ndarray = None      # (N, 4)
    q_d: np.ndarray = None         # (N, 3)
    f_zd_norm: np.ndarray = None   # (N,)
    ref_pos: np.ndarray = None     # (N, 3)
    ref_pend: np.ndarray = None    # (N, 2) or None
    cmd_accel: np.ndarray = None   # (N, 3)
    clamped: np.ndarray = None     # (N,) bool
    qp_relaxed: np.ndarray = None  # (N,) bool
    qp_fault: np.ndarray = None    # (N,) bool
    events: list = field(default_factory=list)
    aborted: bool = False
    abort_time: float = None
    abort_reason: str = ""
    metrics: dict = field(default_factory=dict)

    def abort(self, t, reason):
        """Record that the run stopped at time t."""
        self.aborted = True
        self.abort_time = t
        self.abort_reason = reason


class _Runner:
    """State shared across steps of one scenario run."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.p = sc.vehicle
        self.pp = sc.pendulum
        self.g = sc.vehicle.g
        self.gains = sc.gains
        self.diff = SetpointDifferentiator(sc.dt, dim=3)
        self.clf = None
        if sc.controller in ("fbl-regulator", "clf-qp"):
            self.clf = ctl.setup_output_clf(sc.gains.q_care)
        self.K_lqr = None
        if sc.controller == "pend-lqr":
            self.K_lqr = ctl.setup_pendulum_lqr(
                self.g, self.pp.L, sc.gains.q_lqr, sc.gains.r_lqr)
        self.rng = np.random.default_rng(sc.seed)
        self.prev_cmd = None
        self.consecutive_faults = 0

    def outer_loop(self, x, refs):
        """Attitude set-point and the altitude channel of the inner reference.

        Returns (q_d, thrust_norm, z_ref) where z_ref = (z_d, z_d_dot,
        z_d_ddot); pendulum controllers command vertical acceleration
        directly by pinning the altitude PD terms to the current state.
        """
        sc, g, m = self.sc, self.g, self.p.m
        pos, vel = x[0:3], x[3:6]
        kp, kd = self.gains.kp, self.gains.kd

        if sc.controller in ("fbl-regulator", "fbl-tracker", "clf-qp"):
            _, q_d, thrust = ctl.position_allocation(
                pos, vel, refs.pos, refs.pos_dot, refs.pos_ddot, kp, kd, g, m)
            z_ref = (refs.pos[2], refs.pos_dot[2], refs.pos_ddot[2])
            return q_d, thrust, z_ref

        ps = PendulumState(x[12], x[13], x[14], x[15])
        if sc.controller == "pend-xi":
            xi = ctl.pendulum_fbl_xi(ps, refs.pend, refs.pend_dot,
                                     refs.pend_ddot, self.pp, g,
                                     self.gains.k1, self.gains.k2)
            f_d = xi.copy()
            f_d[2] -= g
            q_d, thrust = ctl.attitude_from_force(f_d, m)
            return q_d, thrust, (pos[2], vel[2], xi[2])

        if sc.controller == "pend-xi-prime":
            z_acc = (refs.pos_ddot[2] + kd * (refs.pos_dot[2] - vel[2])
                     + kp * (refs.pos[2] - pos[2]))
            xi_p = ctl.pendulum_fbl_xi_prime(ps, z_acc, refs.pend,
                                             refs.pend_dot, refs.pend_ddot,
                                             self.pp, g,
                                             self.gains.k1, self.gains.k2)
            f_d = np.array([xi_p[0], xi_p[1], z_acc - g])
            q_d, thrust = ctl.attitude_from_force(f_d, m)
            return q_d, thrust, (pos[2], vel[2], z_acc)

        # pend-lqr
        eta_p = np.array([x[12], x[13], x[0], x[1],
                          x[14], x[15], x[3], x[4]])
        eta_ref = np.array([refs.pend[0], refs.pend[1],
                            refs.pos[0], refs.pos[1],
                            refs.pend_dot[0], refs.pend_dot[1],
                            refs.pos_dot[0], refs.pos_dot[1]])
        pt = ctl.pendulum_position_lqr(eta_p, eta_ref, self.K_lqr,
                                       self.gains.attitude_clamp)
        q_d = np.array([pt[0], pt[1], 0.0])
        # Altitude runs through the outer PD, like the other pendulum
        # controllers: a raw set-point step through the stiff inner gains
        # would saturate all four rotors and forfeit attitude authority.
        w_z = (refs.pos_ddot[2] + kd * (refs.pos_dot[2] - vel[2])
               + kp * (refs.pos[2] - pos[2]))
        thrust = m * abs(g - w_z) / max(math.cos(pt[0]) * math.cos(pt[1]), 0.5)
        return q_d, thrust, (pos[2], vel[2], w_z)

    def inner_loop(self, s: QuadState, ref: ctl.OutputReference):
        """Rotor command from the selected inner controller plus QP report."""
        sc = self.sc
        if sc.controller == "fbl-regulator":
            return ctl.fbl_regulator(s, ref.y_d, self.p, self.clf), ctl.QpReport()
        if sc.controller == "clf-qp":
            return ctl.clf_qp_controller(s, ref, self.p, self.clf)
        return ctl.fbl_tracker(s, ref, self.p, self.gains.alpha1,
                               self.gains.alpha2), ctl.QpReport()


def run_scenario(sc: Scenario) -> SimLog:
    """Run one scenario to completion (or abort) and return the full log."""
    p, pp = sc.vehicle, sc.pendulum
    n_steps = int(round(sc.duration / sc.dt))
    steps = range(n_steps + 1)

    x = sc.initial_quad.as_vector()
    if sc.has_pendulum:
        x = np.concatenate([x, sc.initial_pend.as_vector()])

    log = SimLog(scenario_name=sc.name, dt=sc.dt)
    try:
        runner = _Runner(sc)
    except CareError as exc:
        log.abort(0.0, f"controller synthesis failed: {exc}")
        steps = ()  # abort before the first row
    rows = {k: [] for k in ("t", "quad", "pend", "u", "wrench", "q_d",
                            "f_zd_norm", "ref_pos", "ref_pend", "cmd_accel",
                            "clamped", "qp_relaxed", "qp_fault")}
    u_min = np.asarray(p.u_min, dtype=float)
    u_max = np.asarray(p.u_max, dtype=float)
    noise_scale = math.sqrt(sc.noise.dt_ref / sc.dt) if sc.noise.enabled else 0.0

    for i in steps:
        t = i * sc.dt
        refs = sample_trajectory(sc.trajectory, t)
        s = QuadState.from_vector(x[:12])

        try:
            q_d, thrust, z_ref = runner.outer_loop(x, refs)
            qd_dot, qd_ddot, _ = runner.diff.update(q_d)
            ref_out = ctl.OutputReference(
                y_d=np.concatenate([[z_ref[0]], q_d]),
                y_d_dot=np.concatenate([[z_ref[1]], qd_dot]),
                y_d_ddot=np.concatenate([[z_ref[2]], qd_ddot]))
            cmd, report = runner.inner_loop(s, ref_out)
            runner.consecutive_faults = 0
        except (QpInfeasibleError, QpUnboundedError) as exc:
            runner.consecutive_faults += 1
            report = ctl.QpReport(feasible=False, fault=True)
            log.events.append((t, "qp_fault", str(exc)))
            if runner.prev_cmd is None:
                hover = np.array([p.m * p.g, 0.0, 0.0, 0.0])
                cmd = ControlCommand.from_wrench(hover, p)
            else:
                cmd = runner.prev_cmd
            q_d = np.zeros(3)
            thrust = cmd.f_z
            if runner.consecutive_faults >= MAX_CONSECUTIVE_FAULTS:
                log.abort(t, "persistent QP infeasibility")
        except (SingularAttitudeError, PendulumHorizontalError,
                ctl.PendulumCouplingError, ctl.AllocationError,
                np.linalg.LinAlgError) as exc:
            log.abort(t, str(exc))
            break

        u_cl = np.clip(cmd.u, u_min, u_max)
        was_clamped = bool(np.any(np.abs(u_cl - cmd.u) > 1e-12))
        if was_clamped:
            cmd = ControlCommand.from_rotor_commands(u_cl, p)
            log.events.append((t, "clamp", "rotor command clamped"))
        if report.relaxed:
            log.events.append((t, "qp_relaxed", f"slack {report.slack:.3g}"))
        runner.prev_cmd = cmd

        cmd_accel = models.gravity_direction_map(q_d, p.m) * thrust
        cmd_accel[2] += p.g

        rows["t"].append(t)
        rows["quad"].append(x[:12].copy())
        if sc.has_pendulum:
            rows["pend"].append(x[12:16].copy())
            rows["ref_pend"].append(refs.pend.copy())
        rows["u"].append(cmd.u.copy())
        rows["wrench"].append(cmd.wrench.copy())
        rows["q_d"].append(q_d.copy())
        rows["f_zd_norm"].append(thrust)
        rows["ref_pos"].append(refs.pos.copy())
        rows["cmd_accel"].append(cmd_accel)
        rows["clamped"].append(was_clamped)
        rows["qp_relaxed"].append(report.relaxed)
        rows["qp_fault"].append(report.fault)

        if log.aborted or i == n_steps:
            break

        if sc.noise.enabled:
            noise_acc = runner.rng.normal(
                0.0, sc.noise.accel_std * noise_scale, 3)
            noise_ang = runner.rng.normal(
                0.0, sc.noise.ang_accel_std * noise_scale, 3)
        else:
            noise_acc = noise_ang = None

        try:
            x = rk4_step(lambda xx: models.coupled_derivative(
                xx, cmd.wrench, p, pp, noise_acc, noise_ang), x, sc.dt, t=t)
        except (SingularAttitudeError, PendulumHorizontalError,
                NonFiniteDerivativeError) as exc:
            log.abort(t, str(exc))
            break

        if abs(x[7]) >= math.pi / 2:
            log.abort(t + sc.dt, "pitch reached +-pi/2")
            break
        if sc.has_pendulum:
            r2 = x[12] ** 2 + x[13] ** 2
            if r2 > (PENDULUM_MARGIN * pp.L) ** 2:
                log.abort(t + sc.dt, "pendulum approached horizontal")
                break

    log.t = np.asarray(rows["t"])
    log.quad = np.asarray(rows["quad"])
    log.u = np.asarray(rows["u"])
    log.wrench = np.asarray(rows["wrench"])
    log.q_d = np.asarray(rows["q_d"])
    log.f_zd_norm = np.asarray(rows["f_zd_norm"])
    log.ref_pos = np.asarray(rows["ref_pos"])
    log.cmd_accel = np.asarray(rows["cmd_accel"])
    log.clamped = np.asarray(rows["clamped"], dtype=bool)
    log.qp_relaxed = np.asarray(rows["qp_relaxed"], dtype=bool)
    log.qp_fault = np.asarray(rows["qp_fault"], dtype=bool)
    if sc.has_pendulum:
        log.pend = np.asarray(rows["pend"])
        log.ref_pend = np.asarray(rows["ref_pend"])
    log.metrics = compute_metrics(log)
    return log


def rms(x):
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    return float(np.sqrt(np.mean(x * x)))


def settling_time(err, dt, band=0.02, reference=None):
    """First time after which |err| stays within band * reference forever.

    reference defaults to |err[0]|; returns None when never settled.
    """
    err = np.abs(np.asarray(err, dtype=float))
    if err.size == 0:
        raise ValueError("empty series")
    ref = abs(err[0]) if reference is None else abs(reference)
    if ref == 0:
        return 0.0
    thresh = band * ref
    outside = np.where(err > thresh)[0]
    if outside.size == 0:
        return 0.0
    last = outside[-1]
    if last == err.size - 1:
        return None
    return float((last + 1) * dt)


def count_overshoots(x):
    """Sign changes of a signal after its largest-magnitude peak."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0
    peak = int(np.argmax(np.abs(x)))
    tail = x[peak:]
    signs = np.sign(tail[np.abs(tail) > 1e-12])
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))


def compute_metrics(log: SimLog, tail_frac=0.5) -> dict:
    """Summary metrics over the tail window [tail_frac * T, T]."""
    n = log.t.size
    if n == 0:
        # Aborted before the first row: there is nothing to summarise.
        return {"clamp_events": 0, "qp_relaxed_events": 0, "qp_faults": 0,
                "aborted": bool(log.aborted)}
    i0 = int(math.floor(tail_frac * (n - 1)))
    err = log.quad[:, 0:3] - log.ref_pos
    m = {
        "rms_err_x": rms(err[i0:, 0]),
        "rms_err_y": rms(err[i0:, 1]),
        "rms_err_z": rms(err[i0:, 2]),
        "peak_cmd_accel": float(np.max(np.linalg.norm(log.cmd_accel, axis=1))),
        "clamp_events": int(np.sum(log.clamped)),
        "qp_relaxed_events": int(np.sum(log.qp_relaxed)),
        "qp_faults": int(np.sum(log.qp_fault)),
        "aborted": bool(log.aborted),
    }
    for k, axis in enumerate("xyz"):
        m[f"settle_{axis}"] = settling_time(err[:, k], log.dt)
    if log.pend is not None:
        perr = log.pend[:, 0:2] - log.ref_pend
        m["rms_pend_a"] = rms(perr[i0:, 0])
        m["rms_pend_b"] = rms(perr[i0:, 1])
        m["peak_pend_offset"] = float(
            np.max(np.linalg.norm(log.pend[:, 0:2], axis=1)))
        m["overshoot_a"] = count_overshoots(perr[:, 0])
        m["overshoot_b"] = count_overshoots(perr[:, 1])
    return m

"""Closed-loop simulation engine.

One fixed-step loop per scenario: sample references, run the outer loop
(position allocation, pendulum controller, or LQR), numerically
differentiate the attitude set-points, run the inner altitude/attitude
controller, clamp rotor commands, inject process noise, and RK4-step the
coupled quadrotor-pendulum state with the wrench and noise held over the
step.  The pendulum consumes the realized vehicle acceleration, including
noise and clamping effects.  The per-step bookkeeping follows the rule in
``models``: elementwise on Python floats, BLAS calls on numpy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import controllers as ctl
from . import models
from .models import (PENDULUM_MARGIN, InitialState, PendulumHorizontalError,
                     PendulumParams, SingularAttitudeError, VehicleParams)
from .numerics import (CareError, NonFiniteDerivativeError,
                       QpInfeasibleError, QpNotConvergedError, rk4_step)
from .trajectories import SetpointDifferentiator, TrajectorySpec, sample_trajectory

MAX_CONSECUTIVE_FAULTS = 50
# Largest duration / dt a scenario may ask for.  The log is preallocated,
# at roughly 300 bytes a step, so this bounds a run's log to about 3 GB.
MAX_STEPS = 10 ** 7


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
    initial: InitialState = field(default_factory=InitialState)
    duration: float = 10.0
    dt: float = 1e-3
    seed: int = 0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ScenarioError(f"unknown controller {self.controller!r}")
        if not (0 < self.duration < math.inf and 0 < self.dt < math.inf):
            raise ScenarioError("duration and dt must be positive and finite")
        if not self.duration / self.dt <= MAX_STEPS:  # inf when it overflows
            raise ScenarioError(
                f"duration / dt is {self.duration / self.dt:.3g} steps, above "
                f"the limit of {MAX_STEPS}")
        # SetpointDifferentiator divides by dt * dt.
        models.check_power_in_range(self.dt, 2, "dt")
        if self.seed < 0:
            raise ScenarioError("seed must be nonnegative")
        if CONTROLLERS[self.controller].pendulum and self.pendulum is None:
            raise ScenarioError(
                f"controller {self.controller!r} requires pendulum parameters")
        if self.pendulum is None and any(self.initial.pendulum):
            raise ScenarioError(
                "initial.pendulum is set but there is no pendulum section")

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


@dataclass(frozen=True)
class Series:
    """One emitted SimLog series: its CSV column names, in order."""

    columns: tuple
    dtype: type = float
    pendulum: bool = False  # None without a pendulum
    blank: bool = False     # without a pendulum its CSV cells stay, empty


# The emitted SimLog series in CSV order; the JSON keys are their names.  A
# one-column series is (N,), the others (N, columns).  cmd_accel is logged
# for the metrics only.
SERIES = {
    "t": Series(("t",)),
    "quad": Series(("p_X", "p_Y", "p_Z", "v_X", "v_Y", "v_Z",
                    "phi", "theta", "psi", "w_x", "w_y", "w_z")),
    "pend": Series(("a", "b", "a_dot", "b_dot"), pendulum=True, blank=True),
    "u": Series(("u1", "u2", "u3", "u4")),
    "wrench": Series(("f_z", "tau_x", "tau_y", "tau_z")),
    "q_d": Series(("phi_d", "theta_d", "psi_d")),
    "ref_pos": Series(("p_Xd", "p_Yd", "p_Zd")),
    "ref_pend": Series(("a_d", "b_d"), pendulum=True),
    "clamped": Series(("clamped",), bool),
    "qp_relaxed": Series(("qp_relaxed",), bool),
    "qp_fault": Series(("qp_fault",), bool),
}


# Each controller law looks up its ctl.<name> functions when it runs, so a
# wrapper installed on quadpend.controllers (a profiler, a test) sees it.

def _no_design(sc):
    return None


def _output_clf(sc):
    return ctl.setup_output_clf(sc.gains.q_care)


def _pendulum_lqr(sc):
    return ctl.setup_pendulum_lqr(sc.vehicle.g, sc.pendulum.L,
                                  sc.gains.q_lqr, sc.gains.r_lqr)


def _altitude_pd(sc, x, refs):
    """Vertical acceleration demand of the outer position PD."""
    kp, kd = sc.gains.kp, sc.gains.kd
    return (refs.pos_ddot[2] + kd * (refs.pos_dot[2] - x[5])
            + kp * (refs.pos[2] - x[2]))


def _position_outer(sc, design, x, refs):
    _, q_d, thrust = ctl.position_allocation(
        x[0:3], x[3:6], refs.pos, refs.pos_dot, refs.pos_ddot,
        sc.gains.kp, sc.gains.kd, sc.vehicle.g, sc.vehicle.m)
    return q_d, thrust, (refs.pos[2], refs.pos_dot[2], refs.pos_ddot[2])


# The pendulum laws command vertical acceleration directly: z_ref pins the
# inner altitude PD terms to the current state.

def _xi_outer(sc, design, x, refs):
    g = sc.vehicle.g
    xi = ctl.pendulum_fbl_xi(x[12:16], refs.pend, refs.pend_dot,
                             refs.pend_ddot, sc.pendulum, g, sc.gains.k1,
                             sc.gains.k2).tolist()
    q_d, thrust = ctl.attitude_from_force((xi[0], xi[1], xi[2] - g),
                                          sc.vehicle.m)
    return q_d, thrust, (x[2], x[5], xi[2])


def _xi_prime_outer(sc, design, x, refs):
    g = sc.vehicle.g
    z_acc = _altitude_pd(sc, x, refs)
    xi_p = ctl.pendulum_fbl_xi_prime(x[12:16], z_acc, refs.pend,
                                     refs.pend_dot, refs.pend_ddot,
                                     sc.pendulum, g, sc.gains.k1,
                                     sc.gains.k2).tolist()
    q_d, thrust = ctl.attitude_from_force((xi_p[0], xi_p[1], z_acc - g),
                                          sc.vehicle.m)
    return q_d, thrust, (x[2], x[5], z_acc)


def _lqr_outer(sc, K, x, refs):
    eta_p = [x[i] for i in (12, 13, 0, 1, 14, 15, 3, 4)]
    eta_ref = [*refs.pend, *refs.pos[:2], *refs.pend_dot, *refs.pos_dot[:2]]
    pt = ctl.pendulum_position_lqr(eta_p, eta_ref, K, sc.gains.attitude_clamp)
    q_d = (pt[0], pt[1], 0.0)
    # Altitude runs through the outer PD, like the other pendulum
    # controllers: a raw set-point step through the stiff inner gains
    # would saturate all four rotors and forfeit attitude authority.
    w_z = _altitude_pd(sc, x, refs)
    thrust = (sc.vehicle.m * abs(sc.vehicle.g - w_z)
              / max(math.cos(pt[0]) * math.cos(pt[1]), 0.5))
    return q_d, thrust, (x[2], x[5], w_z)


def _regulator_inner(sc, clf, x, ref):
    return ctl.fbl_regulator(x, ref.y_d, sc.vehicle, clf), ctl.QpReport()


def _clf_qp_inner(sc, clf, x, ref):
    return ctl.clf_qp_controller(x, ref, sc.vehicle, clf)


def _tracker_inner(sc, design, x, ref):
    return ctl.fbl_tracker(x, ref, sc.vehicle, sc.gains.alpha1,
                           sc.gains.alpha2), ctl.QpReport()


@dataclass(frozen=True)
class Controller:
    """How one controller is built and stepped.

    setup(sc) returns the run's design (the OutputClf, the LQR gain, or
    None); outer(sc, design, x, refs) reads x as a list of floats and
    returns (q_d, thrust_norm, z_ref) with z_ref = (z_d, z_d_dot, z_d_ddot);
    inner(sc, design, x, ref) reads x as a list of floats too and returns
    the rotor commands u and their QpReport.
    """

    setup: object
    outer: object
    inner: object
    pendulum: bool = False  # needs pendulum parameters


CONTROLLERS = {
    "fbl-regulator": Controller(_output_clf, _position_outer, _regulator_inner),
    "fbl-tracker": Controller(_no_design, _position_outer, _tracker_inner),
    "clf-qp": Controller(_output_clf, _position_outer, _clf_qp_inner),
    "pend-xi": Controller(_no_design, _xi_outer, _tracker_inner, True),
    "pend-xi-prime": Controller(_no_design, _xi_prime_outer, _tracker_inner,
                                True),
    "pend-lqr": Controller(_pendulum_lqr, _lqr_outer, _tracker_inner, True),
}


def run_scenario(sc: Scenario) -> SimLog:
    """Run one scenario to completion (or abort) and return the full log."""
    p, pp = sc.vehicle, sc.pendulum
    n_steps = int(round(sc.duration / sc.dt))
    steps = range(n_steps + 1)

    x = sc.initial.as_vector().tolist()
    if not sc.has_pendulum:
        x = x[:12]

    log = SimLog(scenario_name=sc.name, dt=sc.dt)
    controller = CONTROLLERS[sc.controller]
    diff = SetpointDifferentiator(sc.dt)
    try:
        design = controller.setup(sc)
    except CareError as exc:
        log.abort(0.0, f"controller synthesis failed: {exc}")
        steps = ()  # abort before the first row
    for name, series in SERIES.items():
        if sc.has_pendulum or not series.pendulum:
            width = len(series.columns)
            shape = (len(steps),) if width == 1 else (len(steps), width)
            setattr(log, name, np.empty(shape, series.dtype))
    log.cmd_accel = np.empty((len(steps), 3))
    rows = 0  # rows written
    rng = np.random.default_rng(sc.seed)
    hover = np.array([p.m * p.g, 0.0, 0.0, 0.0])
    prev = models.mixer_inverse(hover, p), hover  # the last step's (u, wrench)
    consecutive_faults = 0
    u_min, u_max = p.rotor_bounds
    bounds = tuple(zip(u_min.tolist(), u_max.tolist()))
    noise_scale = math.sqrt(sc.noise.dt_ref / sc.dt) if sc.noise.enabled else 0.0

    for i in steps:
        t = i * sc.dt
        refs = sample_trajectory(sc.trajectory, t)

        try:
            q_d, thrust, z_ref = controller.outer(sc, design, x, refs)
            qd_dot, qd_ddot = diff.update(q_d)
            ref_out = ctl.OutputReference(y_d=(z_ref[0], *q_d),
                                          y_d_dot=(z_ref[1], *qd_dot),
                                          y_d_ddot=(z_ref[2], *qd_ddot))
            u, report = controller.inner(sc, design, x, ref_out)
            consecutive_faults = 0
        except QpInfeasibleError as exc:
            consecutive_faults += 1
            report = ctl.QpReport(fault=True)
            log.events.append((t, "qp_fault", str(exc)))
            u, wrench = prev
            q_d = (0.0, 0.0, 0.0)
            thrust = float(wrench[0])
            if consecutive_faults >= MAX_CONSECUTIVE_FAULTS:
                log.abort(t, "persistent QP infeasibility")
        except (SingularAttitudeError, PendulumHorizontalError,
                ctl.PendulumCouplingError, ctl.AllocationError,
                QpNotConvergedError, np.linalg.LinAlgError) as exc:
            log.abort(t, str(exc))
            break

        # A command more than 1e-12 outside its bounds is clamped; this is
        # |np.clip(u) - u| > 1e-12, NaN included.
        was_clamped = any((ui < lo and lo - ui > 1e-12)
                          or (ui > hi and ui - hi > 1e-12)
                          for ui, (lo, hi) in zip(u.tolist(), bounds))
        if was_clamped:
            u = np.clip(u, u_min, u_max)
            log.events.append((t, "clamp", "rotor command clamped"))
        if was_clamped or not report.fault:  # a fault repeats its wrench
            wrench = models.mixer_forward(u, p)
        if report.relaxed:
            log.events.append((t, "qp_relaxed", f"slack {report.slack:.3g}"))
        prev = u, wrench

        c0, c1, c2 = models.gravity_direction_map(q_d, p.m)

        log.t[i] = t
        log.quad[i] = x[:12]
        if sc.has_pendulum:
            log.pend[i] = x[12:16]
            log.ref_pend[i] = refs.pend
        log.u[i] = u
        log.wrench[i] = wrench
        log.q_d[i] = q_d
        log.ref_pos[i] = refs.pos
        log.cmd_accel[i] = (c0 * thrust, c1 * thrust, c2 * thrust + p.g)
        log.clamped[i] = was_clamped
        log.qp_relaxed[i] = report.relaxed
        log.qp_fault[i] = report.fault
        rows = i + 1

        if log.aborted or i == n_steps:
            break

        if sc.noise.enabled:
            noise_acc = rng.normal(
                0.0, sc.noise.accel_std * noise_scale, 3).tolist()
            noise_ang = rng.normal(
                0.0, sc.noise.ang_accel_std * noise_scale, 3).tolist()
        else:
            noise_acc = noise_ang = None

        held = wrench.tolist()
        try:
            x = rk4_step(lambda xx: models.coupled_derivative(
                xx, held, p, pp, noise_acc, noise_ang), x, sc.dt, t=t)
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

    for name in (*SERIES, "cmd_accel"):
        a = getattr(log, name)
        if a is not None:
            setattr(log, name, a[:rows])
    log.metrics = compute_metrics(log)
    return log


def rms(x):
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    return float(np.sqrt(np.mean(x * x)))


def settling_time(err, dt, band=0.02):
    """First time after which |err| stays within band * |err[0]| forever.

    Returns None when never settled.
    """
    err = np.abs(np.asarray(err, dtype=float))
    if err.size == 0:
        raise ValueError("empty series")
    if err[0] == 0:
        return 0.0
    thresh = band * err[0]
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


def compute_metrics(log: SimLog) -> dict:
    """Summary metrics; the RMS errors cover the second half of the run."""
    n = log.t.size
    if n == 0:
        # Aborted before the first row: there is nothing to summarise.
        return {"clamp_events": 0, "qp_relaxed_events": 0, "qp_faults": 0,
                "aborted": bool(log.aborted)}
    i0 = int(math.floor(0.5 * (n - 1)))
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

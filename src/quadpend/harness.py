"""Closed-loop simulation engine.

One fixed-step loop per scenario, whose period is one closed_loop_step:
sample references, run the outer loop (position allocation, pendulum
controller, or LQR), numerically differentiate the attitude set-points, run
the inner altitude/attitude controller, clamp rotor commands, inject process
noise, and RK4-step the coupled quadrotor-pendulum state with the wrench and
noise held over the step.  The pendulum consumes the realized vehicle
acceleration, including noise and clamping effects.  The per-step
bookkeeping follows the rule in ``models``: elementwise on Python floats,
BLAS calls on numpy.

SimLog's fields declare the series a run logs (SERIES is read off them), a
step's row is keyed by their names, and compute_metrics builds the metrics.

What ends a run is stated once, in RUN_FAILURES.  A step that ends the run
raises StepAbort, and run_scenario records it: a failing reference, outer
or inner law, an infeasible QP included, at t without the period's row; a
failing noise draw or RK4 step at t after the row; a pitch or pendulum out
of range at t + dt after the row.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import controllers as ctl
from . import models
from .models import PENDULUM_MARGIN, InitialState, PendulumParams, VehicleParams
from .numerics import rk4_step
from .trajectories import SetpointDifferentiator, TrajectorySpec, sample_trajectory

# Largest duration / dt a scenario may ask for.  The log is preallocated,
# at roughly 300 bytes a step, so this bounds a run's log to about 3 GB.
MAX_STEPS = 10 ** 7
NOISE_DT_REF = 1e-3  # the step at which NoiseSpec's stds are quoted
# What ends a run rather than the program.  Every error the model, the laws
# and the solvers raise is a ValueError (np.linalg.LinAlgError too) or a
# RuntimeError, and float overflow an ArithmeticError.  A TypeError,
# KeyError, AttributeError or IndexError is a programming error, and
# propagates.
RUN_FAILURES = (ArithmeticError, ValueError, RuntimeError)


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian process noise, held over each step, on
    when a std is positive.

    Stds are quoted at NOISE_DT_REF and rescaled by sqrt(NOISE_DT_REF/dt),
    so the injected noise energy is step-size independent.
    """

    accel_std: float = 0.0      # m/s^2 on v_dot
    ang_accel_std: float = 0.0  # rad/s^2 on omega_dot

    def __post_init__(self):
        if self.accel_std < 0 or self.ang_accel_std < 0:
            raise ScenarioError("noise stds must be nonnegative")
        # -0.0 is a zero std, but rng.normal rejects it as a scale.
        for key in ("accel_std", "ang_accel_std"):
            object.__setattr__(self, key, abs(getattr(self, key)))


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
        tr = self.trajectory
        if tr.kind != "set-point":
            # The reference's phase is rate * t, from transition_time for
            # takeoff-then-circle, and largest at the last step.
            t = round(self.duration / self.dt) * self.dt
            if tr.kind == "takeoff-then-circle":
                t = max(t - tr.transition_time, 0.0)
            if not math.isfinite(tr.rate * t):
                raise ScenarioError(f"trajectory.rate {tr.rate!r} is out of "
                                    f"range: the phase rate * {t!r} overflows")
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


@dataclass(frozen=True)
class Series:
    """One emitted SimLog series: its CSV column names, in order."""

    columns: tuple
    dtype: type = float
    pendulum: bool = False  # None without a pendulum
    blank: bool = False     # without a pendulum its CSV cells stay, empty


def _series(*columns, dtype=float, pendulum=False, blank=False):
    """A SimLog field that holds the emitted series of these CSV columns."""
    return field(default=None, metadata={
        "series": Series(columns, dtype, pendulum, blank)})


@dataclass
class SimLog:
    """Uniformly sampled record of a scenario run plus its metrics file.
    Each _series field is an emitted series, in CSV order: (N,) for one
    column, else (N, columns).  cmd_accel is for the metrics only."""

    scenario_name: str
    dt: float
    t: np.ndarray = _series("t")
    quad: np.ndarray = _series("p_X", "p_Y", "p_Z", "v_X", "v_Y", "v_Z",
                               "phi", "theta", "psi", "w_x", "w_y", "w_z")
    pend: np.ndarray = _series("a", "b", "a_dot", "b_dot", pendulum=True,
                               blank=True)
    u: np.ndarray = _series("u1", "u2", "u3", "u4")
    wrench: np.ndarray = _series("f_z", "tau_x", "tau_y", "tau_z")
    q_d: np.ndarray = _series("phi_d", "theta_d", "psi_d")
    ref_pos: np.ndarray = _series("p_Xd", "p_Yd", "p_Zd")
    ref_pend: np.ndarray = _series("a_d", "b_d", pendulum=True)
    clamped: np.ndarray = _series("clamped", dtype=bool)
    qp_relaxed: np.ndarray = _series("qp_relaxed", dtype=bool)
    qp_fault: np.ndarray = _series("qp_fault", dtype=bool)  # always False
    cmd_accel: np.ndarray = None   # (N, 3)
    aborted: bool = False
    abort_time: float = None
    abort_reason: str = ""
    metrics: dict = field(default_factory=dict)

    def abort(self, t, reason):
        """Record that the run stopped at time t."""
        self.aborted = True
        self.abort_time = t
        self.abort_reason = reason


# The emitted series, read off SimLog; the JSON keys are their names.
SERIES = {f.name: f.metadata["series"] for f in fields(SimLog)
          if "series" in f.metadata}


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


class StepAbort(Exception):
    """StepAbort(t, reason, row): the run stops at time t, and row is the
    period's row, as closed_loop_step builds it, or None when none stands."""


def closed_loop_step(sc, design, x, diff, t, rng, last):
    """One control period of sc from the state x (a list of floats) at t.

    design is the controller's setup(sc), diff the run's
    SetpointDifferentiator and rng its noise generator.  Returns the
    period's log row, a dict from series name to value (cmd_accel included,
    the pendulum series only with a pendulum), and the state at t + dt, or
    None when last.  Raises StepAbort, for any of RUN_FAILURES, at t with no
    row when the reference or a law fails, an infeasible QP included; at t
    after the row when the noise draw or the RK4 step fails; and at t + dt
    after the row when the pitch or the pendulum leaves its range.
    """
    p, pp, law = sc.vehicle, sc.pendulum, CONTROLLERS[sc.controller]
    try:
        refs = sample_trajectory(sc.trajectory, t)
        q_d, thrust, z_ref = law.outer(sc, design, x, refs)
        qd_dot, qd_ddot = diff.update(q_d)
        ref_out = ctl.OutputReference(y_d=(z_ref[0], *q_d),
                                      y_d_dot=(z_ref[1], *qd_dot),
                                      y_d_ddot=(z_ref[2], *qd_ddot))
        u, report = law.inner(sc, design, x, ref_out)
    except RUN_FAILURES as exc:
        raise StepAbort(t, str(exc), None) from exc

    # A command more than 1e-12 outside its bounds is clamped; this is
    # |np.clip(u) - u| > 1e-12, NaN included.
    u_min, u_max = p.rotor_bounds
    was_clamped = any((ui < lo and lo - ui > 1e-12)
                      or (ui > hi and ui - hi > 1e-12) for ui, lo, hi
                      in zip(u.tolist(), u_min.tolist(), u_max.tolist()))
    if was_clamped:
        u = np.clip(u, u_min, u_max)
    wrench = models.mixer_forward(u, p)
    c0, c1, c2 = models.gravity_direction_map(q_d, p.m)
    # qp_fault is always False: a QP the relaxation cannot solve aborts.
    row = {"t": t, "quad": x[:12], "u": u, "wrench": wrench, "q_d": q_d,
           "ref_pos": refs.pos, "clamped": was_clamped,
           "qp_relaxed": report.relaxed, "qp_fault": False,
           "cmd_accel": (c0 * thrust, c1 * thrust, c2 * thrust + p.g)}
    if pp:
        row["pend"], row["ref_pend"] = x[12:16], refs.pend

    if last:
        return row, None
    noise, noise_acc, noise_ang = sc.noise, None, None
    held = wrench.tolist()
    try:
        if noise.accel_std > 0 or noise.ang_accel_std > 0:
            scale = math.sqrt(NOISE_DT_REF / sc.dt)
            noise_acc = rng.normal(0.0, noise.accel_std * scale, 3).tolist()
            noise_ang = rng.normal(0.0, noise.ang_accel_std * scale, 3).tolist()
        x = rk4_step(lambda xx: models.coupled_derivative(
            xx, held, p, pp, noise_acc, noise_ang), x, sc.dt, t=t)
    except RUN_FAILURES as exc:
        raise StepAbort(t, str(exc), row) from exc
    if abs(x[7]) >= math.pi / 2:
        raise StepAbort(t + sc.dt, "pitch reached +-pi/2", row)
    if pp and x[12] ** 2 + x[13] ** 2 > (PENDULUM_MARGIN * pp.L) ** 2:
        raise StepAbort(t + sc.dt, "pendulum approached horizontal", row)
    return row, x


def run_scenario(sc: Scenario) -> SimLog:
    """Run one scenario to completion (or abort) and return the full log,
    one closed_loop_step per period."""
    n_steps = int(round(sc.duration / sc.dt))
    steps = range(n_steps + 1)
    x = sc.initial.as_vector().tolist()[:16 if sc.has_pendulum else 12]
    log = SimLog(scenario_name=sc.name, dt=sc.dt)
    diff = SetpointDifferentiator(sc.dt)
    try:
        design = CONTROLLERS[sc.controller].setup(sc)
    except RUN_FAILURES as exc:
        log.abort(0.0, f"controller synthesis failed: {exc}")
        steps = ()  # abort before the first row
    columns = {}  # series name -> preallocated array
    for name, series in SERIES.items():
        if sc.has_pendulum or not series.pendulum:
            width = len(series.columns)
            shape = (len(steps),) if width == 1 else (len(steps), width)
            columns[name] = np.empty(shape, series.dtype)
    columns["cmd_accel"] = np.empty((len(steps), 3))
    rng = np.random.default_rng(sc.seed)
    rows = 0

    for i in steps:
        try:
            row, x = closed_loop_step(sc, design, x, diff, i * sc.dt, rng,
                                      i == n_steps)
        except StepAbort as stop:
            t_stop, reason, row = stop.args
            log.abort(t_stop, reason)
        if row is not None:
            for name, column in columns.items():
                column[i] = row[name]
            rows = i + 1
        if log.aborted:
            break

    for name, column in columns.items():
        setattr(log, name, column[:rows])
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
    """The whole metrics file; the RMS errors cover the second half of the
    run, and a float that is not finite is None."""
    m = {
        "clamp_events": int(np.sum(log.clamped)),
        "qp_relaxed_events": int(np.sum(log.qp_relaxed)),
        "qp_faults": int(np.sum(log.qp_fault)),
        "aborted": bool(log.aborted),
    }
    if log.aborted:
        m["abort_time"] = log.abort_time
        m["abort_reason"] = log.abort_reason
    n = log.t.size
    if n == 0:
        # Aborted before the first row: there is nothing to summarise.
        return m
    i0 = int(math.floor(0.5 * (n - 1)))
    err = log.quad[:, 0:3] - log.ref_pos
    m["rms_err_x"] = rms(err[i0:, 0])
    m["rms_err_y"] = rms(err[i0:, 1])
    m["rms_err_z"] = rms(err[i0:, 2])
    m["peak_cmd_accel"] = float(
        np.max(np.linalg.norm(log.cmd_accel, axis=1)))
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
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in m.items()}

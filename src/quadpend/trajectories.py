"""Reference-signal generators and the attitude set-point differentiation stream.

All position references live in the Z-down world frame, so "2 m altitude"
is p_Z = -2.  The takeoff-then-circle profile offers both a raw switch
(velocity jumps at the transition, reproducing the non-smooth reference the
tracked path smooths over) and a quintic smooth-step blend that is C^2 at
both ends of the blend window.  The per-step math follows the rule in
``models``: it is elementwise, so it runs on Python floats.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .models import check_power_in_range

TRAJECTORY_KINDS = ("set-point", "circle", "takeoff-then-circle",
                    "pendulum-circle")


class ReferenceSample(NamedTuple):
    """Position and pendulum references with first and second derivatives,
    each a tuple of floats."""

    pos: tuple
    pos_dot: tuple
    pos_ddot: tuple
    pend: tuple
    pend_dot: tuple
    pend_ddot: tuple


@dataclass(frozen=True)
class TrajectorySpec:
    kind: str = "set-point"
    radius: float = 1.0
    rate: float = 0.5  # rad/s
    altitude: float = -2.0  # p_Z value (Z-down)
    setpoint: tuple = (0.0, 0.0, -2.0)
    transition_time: float = 5.0
    blend_window: float = 1.0  # 0 or less: the raw switch
    pend_radius: float = 0.1  # pendulum-circle amplitude (m)

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.radius < 0 or self.pend_radius < 0:
            raise ValueError("radius must be nonnegative")
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        # sample_trajectory divides by the square of each when it is positive.
        for key in ("transition_time", "blend_window"):
            if getattr(self, key) > 0:
                check_power_in_range(getattr(self, key), 2, key)


def _smoothstep5(s):
    """Quintic smooth-step and its first two derivatives on [0, 1]."""
    if s <= 0.0:
        return 0.0, 0.0, 0.0
    if s >= 1.0:
        return 1.0, 0.0, 0.0
    sig = s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)
    dsig = 30.0 * s * s * (1.0 - s) ** 2
    ddsig = 60.0 * s * (1.0 - 3.0 * s + 2.0 * s * s)
    return sig, dsig, ddsig


def _circle(R, k, alt, t):
    c, s = math.cos(k * t), math.sin(k * t)
    pos = (R * c, R * s, alt)
    vel = (-R * k * s, R * k * c, 0.0)
    acc = (-R * k * k * c, -R * k * k * s, 0.0)
    return pos, vel, acc


def sample_trajectory(spec: TrajectorySpec, t: float) -> ReferenceSample:
    """Reference sample at time t with analytic derivatives."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    zero2 = (0.0, 0.0)
    pend = zero2
    pend_dot = zero2
    pend_ddot = zero2

    if spec.kind == "set-point":
        pos = tuple(float(v) for v in spec.setpoint)
        vel = acc = (0.0, 0.0, 0.0)
    elif spec.kind == "circle":
        pos, vel, acc = _circle(spec.radius, spec.rate, spec.altitude, t)
    elif spec.kind == "takeoff-then-circle":
        t1 = spec.transition_time
        hold = (spec.radius, 0.0, spec.altitude)
        if t < t1:
            # Quintic climb from z = 0 to the target altitude above (R, 0).
            sig, dsig, ddsig = _smoothstep5(t / t1)
            pos = (spec.radius, 0.0, spec.altitude * sig)
            vel = (0.0, 0.0, spec.altitude * dsig / t1)
            acc = (0.0, 0.0, spec.altitude * ddsig / t1 ** 2)
        else:
            cpos, cvel, cacc = _circle(spec.radius, spec.rate, spec.altitude,
                                       t - t1)
            if spec.blend_window <= 0:
                pos, vel, acc = cpos, cvel, cacc
            else:
                w = spec.blend_window
                sig, dsig, ddsig = _smoothstep5((t - t1) / w)
                dsig /= w
                ddsig /= w * w
                d = [c - h for c, h in zip(cpos, hold)]
                pos = tuple(h + sig * di for h, di in zip(hold, d))
                vel = tuple(sig * cv + dsig * di for cv, di in zip(cvel, d))
                acc = tuple(sig * ca + 2.0 * dsig * cv + ddsig * di
                            for ca, cv, di in zip(cacc, cvel, d))
    else:  # pendulum-circle
        pos = (0.0, 0.0, spec.altitude)
        vel = acc = (0.0, 0.0, 0.0)
        r, k = spec.pend_radius, spec.rate
        c, s = math.cos(k * t), math.sin(k * t)
        pend = (r * c, r * s)
        pend_dot = (-r * k * s, r * k * c)
        pend_ddot = (-r * k * k * c, -r * k * k * s)

    return ReferenceSample(pos=pos, pos_dot=vel, pos_ddot=acc,
                           pend=pend, pend_dot=pend_dot, pend_ddot=pend_ddot)


class SetpointDifferentiator:
    """Backward finite-difference estimates of set-point derivatives.

    Single-consumer stream: push one sample per control step at uniform
    spacing dt.  Returns first-order differences once two samples exist and
    second-order backward differences plus the three-point second-derivative
    stencil once three do; until then the missing derivatives are zero.
    """

    def __init__(self, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self._hist = deque(maxlen=3)

    def update(self, value):
        """Push one sample, a 1-D sequence; returns (d1, d2) as lists."""
        self._hist.append([float(v) for v in value])
        n = len(self._hist)
        dt = self.dt
        if n == 1:
            return [0.0] * len(value), [0.0] * len(value)
        if n == 2:
            x1, x2 = self._hist
            return [(b - a) / dt for a, b in zip(x1, x2)], [0.0] * len(value)
        x0, x1, x2 = self._hist
        h1 = 2.0 * dt
        h2 = dt * dt
        return ([(3.0 * c - 4.0 * b + a) / h1 for a, b, c in zip(x0, x1, x2)],
                [(c - 2.0 * b + a) / h2 for a, b, c in zip(x0, x1, x2)])

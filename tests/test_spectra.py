"""Each controller's closed loop, linearized at its set-point, has the poles
of its design.

The map is one ``closed_loop_step`` at a hover set-point with the noise
off. Its state is ``x`` and the differentiator's two past ``q_d``, so that
the set-point derivatives the inner law reads are part of the loop. A
central-difference Jacobian of that map has eigenvalues ``lam``, and
``s = log(lam) / dt`` are the loop's poles; the modes with ``|lam| <= 0.5``
are the differentiator's delays and drop out. The poles nearest each
design pole are compared by their sum and their product, smooth functions
of the group, because a double root splits by the square root of a
perturbation.
"""

import numpy as np
import pytest

from quadpend.controllers import pendulum_linear_system
from quadpend.harness import CONTROLLERS, Scenario, closed_loop_step
from quadpend.models import InitialState, PendulumParams
from quadpend.trajectories import SetpointDifferentiator, TrajectorySpec

SETPOINT = (0.0, 0.0, -2.0)
RTOL = 0.05  # of the design pole's modulus, or of 1 at a pole at 0


def setpoint_scenario(controller):
    pendulum = PendulumParams() if CONTROLLERS[controller].pendulum else None
    return Scenario(controller=controller, pendulum=pendulum,
                    trajectory=TrajectorySpec(kind="set-point",
                                              setpoint=SETPOINT),
                    initial=InitialState(p=SETPOINT))


def step_map(sc, design, z):
    """(x, q_d two and one periods ago) -> the same one period later."""
    n = len(z) - 6
    diff = SetpointDifferentiator(sc.dt)
    diff.update(z[n:n + 3])
    diff.update(z[n + 3:])
    row, x = closed_loop_step(sc, design, z[:n].tolist(), diff, 0.0,
                              np.random.default_rng(0), False)
    return np.concatenate([x, z[n + 3:], row["q_d"]])


def closed_loop_poles(sc, h=1e-6):
    design = CONTROLLERS[sc.controller].setup(sc)
    z0 = np.zeros((16 if sc.has_pendulum else 12) + 6)
    z0[2] = SETPOINT[2]
    assert np.array_equal(step_map(sc, design, z0), z0)  # an equilibrium
    J = np.empty((z0.size, z0.size))
    for j in range(z0.size):
        dz = np.zeros(z0.size)
        dz[j] = h
        J[:, j] = (step_map(sc, design, z0 + dz)
                   - step_map(sc, design, z0 - dz)) / (2.0 * h)
    lam = np.linalg.eigvals(J)
    return np.log(lam[np.abs(lam) > 0.5].astype(complex)) / sc.dt


def pairs(*coefficients):
    """The roots of s**2 + c1 s + c0 for each (c1, c0)."""
    return [r for c1, c0 in coefficients for r in np.roots([1.0, c1, c0])]


def design_poles(sc):
    g = sc.gains
    inner = (g.alpha2, g.alpha1)      # y_ddot error: s**2 + alpha2 s + alpha1
    outer = (g.kd, g.kp)              # the position and altitude PD
    pendulum = (g.k1, g.k2)           # nu: s**2 + k1 s + k2
    drift = (0.0, 0.0)                # a state the law leaves alone
    if sc.controller == "fbl-regulator":
        q = g.q_care  # the CARE gains of each output channel
        return pairs(*[(np.sqrt(q + 2.0 * np.sqrt(q)), np.sqrt(q))] * 4,
                     outer, outer)
    if sc.controller == "fbl-tracker":
        return pairs(*[inner] * 4, outer, outer)
    # The pendulum laws: roll, pitch and yaw inner loops, altitude under the
    # outer PD except in pend-xi, whose vertical acceleration comes from xi.
    if sc.controller == "pend-xi":
        return pairs(*[inner] * 3, pendulum, pendulum, *[drift] * 3)
    if sc.controller == "pend-xi-prime":
        return pairs(*[inner] * 3, pendulum, pendulum, outer, drift, drift)
    A, B = pendulum_linear_system(sc.vehicle.g, sc.pendulum.L)
    K = CONTROLLERS["pend-lqr"].setup(sc)
    return pairs(*[inner] * 3, outer) + list(np.linalg.eigvals(A - B @ K))


def assert_poles_match(measured, design):
    """Each distinct design pole d, of multiplicity m, has m measured poles
    nearest it, and their sum and product are those of (s - d)**m."""
    assert len(measured) == len(design), np.sort_complex(measured)
    centres, counts = np.unique(np.round(np.asarray(design, complex), 6),
                                return_counts=True)
    nearest = np.argmin(abs(measured[:, None] - centres[None, :]), axis=1)
    for k, (d, m) in enumerate(zip(centres, counts)):
        group = measured[nearest == k]
        scale = max(abs(d), 1.0)
        assert group.size == m, (d, group)
        assert abs(group.sum() - m * d) <= m * RTOL * scale, (d, group)
        assert abs(np.prod(group / scale) - (d / scale) ** m) <= m * RTOL, (
            d, group)


@pytest.mark.parametrize("controller", [
    pytest.param("fbl-regulator", marks=pytest.mark.xfail(
        raises=AssertionError, reason=(
            "ROADMAP item 16: fbl-regulator drops the outer loop's "
            "feedforward; its loop has poles at +0.537 +- 1.361j"))),
    "fbl-tracker", "pend-xi", "pend-xi-prime", "pend-lqr"])
def test_linearized_closed_loop_has_the_design_poles(controller):
    sc = setpoint_scenario(controller)
    assert_poles_match(closed_loop_poles(sc), design_poles(sc))


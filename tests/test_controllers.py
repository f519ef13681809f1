"""Tests for the flight controllers and pendulum feedback linearization."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpend.controllers import (AllocationError, OutputClf, OutputReference,
                                  PendulumCouplingError, TrackingGains,
                                  attitude_from_force, clf_qp_controller,
                                  fbl_regulator, fbl_tracker,
                                  output_dynamics, output_error_matrices,
                                  pendulum_fbl_xi, pendulum_fbl_xi_prime,
                                  pendulum_linear_system,
                                  pendulum_position_lqr, position_allocation,
                                  setup_output_clf, setup_pendulum_lqr)
from quadpend.models import (InitialState, PendulumParams, VehicleParams,
                             coupled_derivative, gravity_direction_map,
                             mixer_forward, pendulum_drift_and_coupling)
from quadpend.numerics import rk4_step

from helpers import (linearize, oracle_output_dynamics, pendulum_accel,
                     step_inputs)

P = VehicleParams()
PP = PendulumParams()


def hover_state(p_z=-2.0):
    return InitialState(p=(0.0, 0.0, p_z)).as_vector()[:12]


class TestOutputClf:
    def test_care_solution_structure(self):
        clf = setup_output_clf(1.0)
        s3 = math.sqrt(3.0)
        expect = np.block([[s3 * np.eye(4), np.eye(4)],
                           [np.eye(4), s3 * np.eye(4)]])
        np.testing.assert_allclose(clf.P, expect, rtol=1e-10, atol=1e-10)
        assert clf.c3 == pytest.approx(1.0 / (s3 + 1.0), rel=1e-10)

    def test_decay_matrix_built_once_and_read_only(self):
        clf = setup_output_clf(2.5)
        fresh = clf.F.T @ clf.P + clf.P @ clf.F + clf.c3 * clf.P
        assert clf.decay.tobytes() == fresh.tobytes()
        assert not clf.decay.flags.writeable

    def test_error_matrices(self):
        F, G = output_error_matrices()
        np.testing.assert_allclose(F[:4, 4:], np.eye(4))
        np.testing.assert_allclose(F[4:, :], 0.0)
        np.testing.assert_allclose(G[4:, :], np.eye(4))


class TestFblTerms:
    def test_hover(self):
        _, _, Lf_h, A_x = output_dynamics(hover_state(), P)
        np.testing.assert_allclose(Lf_h, [P.g, 0.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(A_x[0], [-1.0 / P.m, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(A_x[1:, 1:],
                                   np.diag(1.0 / np.asarray(P.I_diag)),
                                   atol=1e-15)

    def test_second_derivative_oracle(self):
        # d/dt of y_dot along the flow must equal Lf_h + A(x) u, checked by
        # central differences along the vector field.
        rng = np.random.default_rng(20)
        h = 1e-5
        for _ in range(50):
            x = rng.normal(scale=0.3, size=12)
            hover_u = P.m * P.g / (4.0 * P.rho * P.D ** 4 * P.C_T)
            u = hover_u * (1.0 + 0.1 * rng.normal(size=4))
            wrench = mixer_forward(u, P)
            _, _, Lf_h, A_x = output_dynamics(x, P)
            pred = Lf_h + A_x @ wrench
            f = np.asarray(coupled_derivative(x, wrench, P))
            _, yd_plus, _, _ = output_dynamics(x + h * f, P)
            _, yd_minus, _, _ = output_dynamics(x - h * f, P)
            fd = np.subtract(yd_plus, yd_minus) / (2.0 * h)
            np.testing.assert_allclose(fd, pred, atol=1e-6)

    def test_decoupling_invertible_off_hover(self):
        x = InitialState(q=(0.4, -0.3, 1.2),
                         omega=(0.5, -0.2, 0.1)).as_vector()[:12]
        _, _, _, A_x = output_dynamics(x, P)
        assert abs(np.linalg.det(A_x)) > 1e-6


@pytest.mark.parametrize("pendulum", [False, True], ids=["12", "16"])
@settings(max_examples=250)
@given(data=st.data())
def test_output_dynamics_matches_numpy_oracle_bit_for_bit(pendulum, data):
    x, _, p, *_ = data.draw(step_inputs(pendulum, noise=False))
    got = output_dynamics(x, p)
    for g, w in zip(got, oracle_output_dynamics(x, p)):
        assert np.asarray(g, dtype=float).tobytes() == w.tobytes()


class TestFblRegulator:
    Y_D = np.array([-2.0, 0.0, 0.0, 0.0])

    def test_hover_equilibrium(self):
        clf = setup_output_clf()
        wrench = mixer_forward(fbl_regulator(hover_state(), self.Y_D, P, clf),
                               P)
        assert wrench[0] == pytest.approx(P.m * P.g, abs=1e-12)
        np.testing.assert_allclose(wrench[1:4], 0.0, atol=1e-12)

    def _simulate_step_response(self, clf, duration=8.0, dt=1e-3):
        x = hover_state(p_z=-1.0)
        n = int(round(duration / dt))
        etas = np.zeros((n + 1, 8))
        for i in range(n + 1):
            y, y_dot, _, _ = output_dynamics(x, P)
            etas[i] = np.concatenate([y - self.Y_D, y_dot])
            if i == n:
                break
            wrench = mixer_forward(fbl_regulator(x, self.Y_D, P, clf), P)
            x = rk4_step(
                lambda xx: coupled_derivative(xx, wrench, P),
                x, dt)
        return etas, dt

    def test_settles_at_eigenvalue_rate(self):
        clf = setup_output_clf()
        etas, dt = self._simulate_step_response(clf)
        err = np.abs(etas[:, 0])
        rate = -np.max(np.linalg.eigvals(
            clf.F - clf.G @ clf.G.T @ clf.P).real)
        predicted = math.log(50.0) / rate
        outside = np.where(err > 0.02 * err[0])[0]
        settle = (outside[-1] + 1) * dt
        assert 0.8 * predicted <= settle <= 1.2 * predicted

    def test_lyapunov_decrease_at_care_rate(self):
        clf = setup_output_clf()
        etas, dt = self._simulate_step_response(clf, duration=3.0)
        V = np.einsum("ij,jk,ik->i", etas, clf.P, etas)
        V_dot = np.diff(V) / dt
        assert np.max(V_dot + clf.c3 * V[:-1]) <= 1e-6


class TestFblTracker:
    def test_constant_reference_is_hover(self):
        ref = OutputReference(y_d=np.array([-2.0, 0, 0, 0]),
                              y_d_dot=np.zeros(4), y_d_ddot=np.zeros(4))
        wrench = mixer_forward(fbl_tracker(hover_state(), ref, P), P)
        assert wrench[0] == pytest.approx(P.m * P.g, abs=1e-12)
        np.testing.assert_allclose(wrench[1:4], 0.0, atol=1e-12)

    def test_critically_damped_envelope(self):
        # alpha1 = 25, alpha2 = 10 make each output error follow
        # e(t) = e0 (1 + 5t) exp(-5t) exactly in continuous time.
        ref = OutputReference(y_d=np.array([-1.0, 0, 0, 0]),
                              y_d_dot=np.zeros(4), y_d_ddot=np.zeros(4))
        dt = 1e-3
        x = hover_state(p_z=-0.9)
        probes = {0.1: None, 0.5: None, 1.0: None}
        for i in range(1001):
            t = round(i * dt, 9)
            if t in probes:
                probes[t] = x[2] - (-1.0)
            wrench = mixer_forward(
                fbl_tracker(x, ref, P, alpha1=25.0, alpha2=10.0), P)
            x = rk4_step(
                lambda xx: coupled_derivative(xx, wrench, P),
                x, dt)
        for t, err in probes.items():
            want = 0.1 * (1.0 + 5.0 * t) * math.exp(-5.0 * t)
            assert err == pytest.approx(want, rel=1e-2)

    def test_sinusoid_feedforward(self):
        # With exact reference derivatives the tracking error on a sinusoidal
        # altitude reference stays tiny (no phase lag from feedforward).
        dt = 1e-3
        w = 2.0
        x = hover_state(p_z=-2.0)
        worst = 0.0
        for i in range(4000):
            t = i * dt
            y_d = np.array([-2.0 + 0.2 * math.sin(w * t), 0, 0, 0])
            y_d_dot = np.array([0.2 * w * math.cos(w * t), 0, 0, 0])
            y_d_ddot = np.array([-0.2 * w * w * math.sin(w * t), 0, 0, 0])
            ref = OutputReference(y_d=y_d, y_d_dot=y_d_dot, y_d_ddot=y_d_ddot)
            if t > 1.0:
                worst = max(worst, abs(x[2] - y_d[0]))
            wrench = mixer_forward(fbl_tracker(x, ref, P), P)
            x = rk4_step(
                lambda xx: coupled_derivative(xx, wrench, P),
                x, dt)
        assert worst < 1e-3


def _vectors(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


@settings(max_examples=150)
@given(data=st.data())
def test_fbl_tracker_realizes_the_commanded_output_acceleration(data):
    # Measured without Lf_h and A(x): central differences of y_dot along
    # the flow under the wrench mixer_forward(u).
    x, _, p, *_ = data.draw(step_inputs(pendulum=False, noise=False))
    ref = OutputReference(*(data.draw(_vectors(-5.0, 5.0, 4))
                            for _ in range(3)))
    alpha1, alpha2 = data.draw(_vectors(0.1, 200.0, 2))
    u = fbl_tracker(x, ref, p, alpha1, alpha2)
    y, y_dot, _, _ = output_dynamics(x, p)
    commanded = [dd - alpha2 * (yd - rd) - alpha1 * (yy - r)
                 for dd, yd, rd, yy, r in zip(ref.y_d_ddot, y_dot,
                                              ref.y_d_dot, y, ref.y_d)]
    f = np.asarray(coupled_derivative(x, mixer_forward(u, p), p))
    h = 1e-6
    ahead = output_dynamics(x + h * f, p)[1]
    behind = output_dynamics(x - h * f, p)[1]
    measured = np.subtract(ahead, behind) / (2.0 * h)
    np.testing.assert_allclose(measured, commanded, rtol=1e-6, atol=1e-5)


class TestAllocation:
    def test_straight_down_force(self):
        q_d, thrust = attitude_from_force(np.array([0.0, 0.0, -9.81]), 1.0)
        np.testing.assert_allclose(q_d, 0.0, atol=1e-15)
        assert thrust == pytest.approx(9.81)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            f_d = rng.normal(scale=5.0, size=3)
            f_d[2] = -abs(f_d[2]) - 1.0  # net upward thrust demand
            q_d, thrust = attitude_from_force(f_d, P.m)
            rebuilt = np.multiply(gravity_direction_map(q_d, P.m), thrust)
            np.testing.assert_allclose(rebuilt, f_d, rtol=1e-10, atol=1e-10)

    def test_degenerate_demand_raises(self):
        with pytest.raises(AllocationError):
            attitude_from_force(np.zeros(3), 1.0)

    def test_allocation_at_reference_is_gravity(self):
        pos = np.array([1.0, 2.0, -2.0])
        f_d, q_d, thrust = position_allocation(
            pos, np.zeros(3), pos, np.zeros(3), np.zeros(3),
            kp=4.0, kd=4.0, g=P.g, m=P.m)
        np.testing.assert_allclose(f_d, [0.0, 0.0, -P.g], atol=1e-15)
        np.testing.assert_allclose(q_d, 0.0, atol=1e-15)
        assert thrust == pytest.approx(P.m * P.g)

    def test_lateral_error_tilts_toward_target(self):
        pos = np.zeros(3)
        ref = np.array([1.0, 0.0, 0.0])
        _, q_d, _ = position_allocation(pos, np.zeros(3), ref, np.zeros(3),
                                        np.zeros(3), 4.0, 4.0, P.g, P.m)
        # Negative pitch points the thrust axis toward +X in this convention.
        assert q_d[1] < 0.0
        assert q_d[0] == pytest.approx(0.0, abs=1e-15)


class TestClfQp:
    def test_on_reference_is_min_norm_hover(self):
        clf = setup_output_clf()
        ref = OutputReference(y_d=np.array([-2.0, 0, 0, 0]),
                              y_d_dot=np.zeros(4), y_d_ddot=np.zeros(4))
        u, report = clf_qp_controller(hover_state(), ref, P, clf)
        wrench = mixer_forward(u, P)
        assert wrench[0] == pytest.approx(P.m * P.g, abs=1e-10)
        np.testing.assert_allclose(wrench[1:4], 0.0, atol=1e-10)
        assert not report.relaxed and report.slack == 0.0

    def test_commands_within_bounds_and_clf_decrease(self):
        clf = setup_output_clf()
        ref = OutputReference(y_d=np.array([-2.0, 0, 0, 0]),
                              y_d_dot=np.zeros(4), y_d_ddot=np.zeros(4))
        dt = 1e-3
        x = hover_state(p_z=-1.0)
        V_prev = None
        for i in range(3000):
            u, report = clf_qp_controller(x, ref, P, clf)
            assert np.all(u >= np.asarray(P.u_min) - 1e-8)
            assert np.all(u <= np.asarray(P.u_max) + 1e-8)
            y, y_dot, _, _ = output_dynamics(x, P)
            eta = np.concatenate([y - ref.y_d, y_dot])
            V = float(eta @ clf.P @ eta)
            if V_prev is not None and not report.relaxed:
                assert (V - V_prev) / dt <= -clf.c3 * V_prev + 1e-3
            V_prev = V
            wrench = mixer_forward(u, P)
            x = rk4_step(
                lambda xx: coupled_derivative(xx, wrench, P),
                x, dt)

    def test_tight_bounds_trigger_relaxation_box_stays_hard(self):
        # Rotor ceiling barely above hover: a large error cannot satisfy the
        # decrease row, so the slack activates while the box holds.
        hover_u = P.m * P.g / (4.0 * P.rho * P.D ** 4 * P.C_T)
        tight = VehicleParams(u_max=(1.05 * hover_u,) * 4)
        clf = setup_output_clf()
        ref = OutputReference(y_d=np.array([-5.0, 0, 0, 0]),
                              y_d_dot=np.zeros(4), y_d_ddot=np.zeros(4))
        x = InitialState(v=(0.0, 0.0, 2.0)).as_vector()[:12]  # sinking fast
        u, report = clf_qp_controller(x, ref, tight, clf)
        assert report.relaxed
        assert report.slack > 0.0
        assert np.all(u <= np.asarray(tight.u_max) + 1e-8)
        assert np.all(u >= np.asarray(tight.u_min) - 1e-8)


@settings(max_examples=150)
@given(data=st.data())
def test_clf_qp_keeps_the_box_and_decreases_or_reports_its_slack(data):
    # A rotor ceiling from 1.05 to 4 times hover: the low ones make the
    # decrease row infeasible, and the relaxed QP must then say by how much.
    x, _, p, *_ = data.draw(step_inputs(pendulum=False, noise=False))
    hover_u = p.m * p.g / (4.0 * p.rho * p.D ** 4 * p.C_T)
    p = replace(p, u_max=(data.draw(st.floats(1.05, 4.0)) * hover_u,) * 4)
    ref = OutputReference(*(data.draw(_vectors(-2.0, 2.0, 4))
                            for _ in range(3)))
    clf = setup_output_clf(data.draw(st.floats(0.1, 100.0)))
    u, report = clf_qp_controller(x, ref, p, clf)
    tol = 1e-9 * max(1.0, max(abs(b) for b in p.u_max))
    assert all(lo - tol <= ui <= hi + tol
               for ui, lo, hi in zip(u, p.u_min, p.u_max))
    # The decrease row 2 eta'PG v <= -eta' decay eta, with v the output
    # acceleration that u gives, less the reference's.
    y, y_dot, Lf_h, A_x = output_dynamics(x, p)
    eta = np.subtract([*y, *y_dot], [*ref.y_d, *ref.y_d_dot])
    v = np.add(Lf_h, A_x @ mixer_forward(u, p)) - ref.y_d_ddot
    drift = float(eta @ clf.decay @ eta)
    push = 2.0 * (eta @ clf.P @ clf.G) @ v
    excess = drift + push
    scale = 1.0 + abs(drift) + abs(push)
    if report.relaxed:
        assert report.slack >= 0.0 and excess <= report.slack + 1e-7 * scale
    else:
        assert excess <= 1e-7 * scale


def _pendulum_inputs(data):
    """(xp, ref, ref_dot, ref_ddot, pp, g): an offset inside 0.95 L."""
    pp = PendulumParams(L=data.draw(st.floats(0.1, 2.0)))
    r = pp.L * data.draw(st.floats(0.0, 0.95))
    angle = data.draw(st.floats(0.0, 2.0 * math.pi))
    xp = [r * math.cos(angle), r * math.sin(angle),
          *data.draw(_vectors(-3.0, 3.0, 2))]
    refs = [data.draw(_vectors(-s, s, 2)) for s in (0.1, 0.5, 2.0)]
    return (xp, *refs, pp, data.draw(st.floats(1.0, 20.0)))


@settings(max_examples=150)
@given(data=st.data())
def test_pendulum_xi_realizes_nu_at_minimum_norm(data):
    xp, ref, ref_dot, ref_ddot, pp, g = _pendulum_inputs(data)
    xi = pendulum_fbl_xi(xp, ref, ref_dot, ref_ddot, pp, g)
    f_p, B_p = pendulum_drift_and_coupling(*xp, pp.L, g)
    nu = np.subtract(ref_ddot, np.multiply(8.0, np.subtract(xp[2:], ref_dot))
                     + np.multiply(16.0, np.subtract(xp[:2], ref)))
    np.testing.assert_allclose(f_p + B_p @ xi, nu, rtol=1e-9, atol=1e-9)
    # Minimum norm: no part of xi lies in the null space of B_p.
    null = np.cross(B_p[0], B_p[1])
    assert abs(null @ xi) <= 1e-9 * np.linalg.norm(null) * (
        1.0 + np.linalg.norm(xi))


@settings(max_examples=150)
@given(data=st.data(), pz_ddot=st.floats(-20.0, 20.0))
def test_pendulum_xi_prime_solves_its_planar_system(data, pz_ddot):
    xp, ref, ref_dot, ref_ddot, pp, g = _pendulum_inputs(data)
    xi_p = pendulum_fbl_xi_prime(xp, pz_ddot, ref, ref_dot, ref_ddot, pp, g)
    f_p, B_p = pendulum_drift_and_coupling(*xp, pp.L, g)
    nu = np.subtract(ref_ddot, np.multiply(8.0, np.subtract(xp[2:], ref_dot))
                     + np.multiply(16.0, np.subtract(xp[:2], ref)))
    np.testing.assert_allclose(f_p + B_p @ [*xi_p, pz_ddot], nu,
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("law", ["fbl_regulator", "fbl_tracker",
                                 "clf_qp_controller"])
def test_law_reads_only_the_quadrotor_states(law):
    # The harness hands every law the full 16-state vector of a pendulum
    # run; the pendulum states must not change u by a single bit.
    clf = setup_output_clf()
    ref = OutputReference(y_d=np.array([-2.0, 0.05, -0.05, 0.1]),
                          y_d_dot=np.array([0.1, 0.0, 0.2, 0.0]),
                          y_d_ddot=np.array([0.0, 0.3, 0.0, -0.1]))
    run = {
        "fbl_regulator": lambda x: fbl_regulator(x, ref.y_d, P, clf),
        "fbl_tracker": lambda x: fbl_tracker(x, ref, P),
        "clf_qp_controller": lambda x: clf_qp_controller(x, ref, P, clf)[0],
    }[law]
    rng = np.random.default_rng(25)
    for _ in range(50):
        x = np.concatenate([rng.normal(scale=0.2, size=12),
                            rng.uniform(-0.2, 0.2, size=4)])
        assert run(x).tobytes() == run(x[:12].copy()).tobytes()


class TestPendulumFbl:
    def test_equilibrium_needs_no_acceleration(self):
        xi = pendulum_fbl_xi([0.0, 0.0, 0.0, 0.0], np.zeros(2), np.zeros(2),
                             np.zeros(2), PP, P.g)
        np.testing.assert_allclose(xi, 0.0, atol=1e-14)

    def test_xi_achieves_commanded_error_dynamics(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            r = rng.uniform(0.0, 0.35)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            xp = [r * math.cos(ang), r * math.sin(ang),
                  *rng.normal(scale=0.4, size=2)]
            ref = rng.normal(scale=0.05, size=2)
            ref_dot = rng.normal(scale=0.1, size=2)
            ref_ddot = rng.normal(scale=0.5, size=2)
            xi = pendulum_fbl_xi(xp, ref, ref_dot, ref_ddot, PP, P.g)
            acc = pendulum_accel(xp, xi, PP, P.g)
            nu = (ref_ddot - 8.0 * (np.array(xp[2:4]) - ref_dot)
                  - 16.0 * (np.array(xp[0:2]) - ref))
            np.testing.assert_allclose(acc, nu, rtol=1e-9, atol=1e-10)

    def test_xi_is_minimum_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            xp = [*rng.uniform(-0.2, 0.2, size=2),
                  *rng.normal(scale=0.3, size=2)]
            ref = np.zeros(2)
            xi = pendulum_fbl_xi(xp, ref, ref, ref, PP, P.g)
            f_p, B_p = pendulum_drift_and_coupling(*xp, PP.L, P.g)
            nu = (-8.0 * np.array(xp[2:4])
                  - 16.0 * np.array(xp[0:2]))
            want, *_ = np.linalg.lstsq(B_p, -np.asarray(f_p) + nu, rcond=None)
            np.testing.assert_allclose(xi, want, rtol=1e-9, atol=1e-12)

    def test_xi_prime_folds_vertical_acceleration(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            xp = [*rng.uniform(-0.2, 0.2, size=2),
                  *rng.normal(scale=0.3, size=2)]
            pz_ddot = rng.normal(scale=2.0)
            ref = rng.normal(scale=0.05, size=2)
            ref_dot = rng.normal(scale=0.1, size=2)
            ref_ddot = rng.normal(scale=0.5, size=2)
            xi_p = pendulum_fbl_xi_prime(xp, pz_ddot, ref, ref_dot, ref_ddot,
                                         PP, P.g)
            acc = pendulum_accel(
                xp, np.array([xi_p[0], xi_p[1], pz_ddot]), PP, P.g)
            nu = (ref_ddot - 8.0 * (np.array(xp[2:4]) - ref_dot)
                  - 16.0 * (np.array(xp[0:2]) - ref))
            np.testing.assert_allclose(acc, nu, rtol=1e-9, atol=1e-10)

    def test_xi_prime_near_horizontal_raises(self):
        zeta = 1e-5
        a = math.sqrt(PP.L ** 2 - zeta ** 2)
        with pytest.raises(PendulumCouplingError):
            pendulum_fbl_xi_prime([a, 0.0, 0.0, 0.0], 0.0, np.zeros(2), np.zeros(2),
                                  np.zeros(2), PP, P.g)


class TestPendulumLqr:
    def test_linear_model_matches_finite_differences(self):
        # Composite hover-attitude model: inputs (phi, theta), thrust m*g.
        def f(x, u):
            xx = np.zeros(16)
            xx[6:8] = u  # roll and pitch
            xx[12:16] = x[0], x[1], x[4], x[5]
            dx = coupled_derivative(xx, np.array([P.m * P.g, 0.0, 0.0, 0.0]),
                                    P, PP)
            return np.concatenate([x[4:], dx[14:16], dx[3:5]])

        A_num, B_num = linearize(f, np.zeros(8), np.zeros(2))
        A, B = pendulum_linear_system(P.g, PP.L)
        np.testing.assert_allclose(A_num, A, atol=1e-6)
        np.testing.assert_allclose(B_num, B, atol=1e-6)

    def test_controllable(self):
        A, B = pendulum_linear_system(P.g, PP.L)
        C = np.hstack([np.linalg.matrix_power(A, i) @ B for i in range(8)])
        assert np.linalg.matrix_rank(C) == 8

    def test_closed_loop_hurwitz(self):
        g = TrackingGains()
        A, B = pendulum_linear_system(P.g, PP.L)
        K = setup_pendulum_lqr(P.g, PP.L, g.q_lqr, g.r_lqr)
        eigs = np.linalg.eigvals(A - B @ K)
        assert np.max(eigs.real) < -1e-3

    @settings(max_examples=60)
    @given(q=_vectors(-3.0, 3.0, 8), r=_vectors(-3.0, 3.0, 2))
    def test_closed_loop_hurwitz_for_any_positive_weights(self, q, r):
        # Log-uniform weights: the decades near 1e-3 matter as much as 1e3.
        A, B = pendulum_linear_system(P.g, PP.L)
        K = setup_pendulum_lqr(P.g, PP.L, [10.0 ** e for e in q],
                               [10.0 ** e for e in r])
        assert np.max(np.linalg.eigvals(A - B @ K).real) < 0.0

    def test_weights_whose_psp_dwarfs_q_synthesize(self):
        # Draw 293 of a seeded log-uniform sweep over [1e-3, 1e3]: ||PSP||_F
        # is 1.5e5 against ||Q||_F = 1.2e3, so no pass gets the residual
        # under 1e-8 ||Q||_F, while its backward error is below 1e-10.
        rng = np.random.default_rng(0)
        for _ in range(294):
            q = 10 ** rng.uniform(-3, 3, 8)
            r = 10 ** rng.uniform(-3, 3, 2)
        A, B = pendulum_linear_system(9.81, 0.5)
        K = setup_pendulum_lqr(9.81, 0.5, q, r)
        assert np.max(np.linalg.eigvals(A - B @ K).real) < 0.0

    def test_setpoint_clamped(self):
        K = setup_pendulum_lqr(P.g, PP.L, (10,) * 8, (0.01, 0.01))
        eta = np.zeros(8)
        eta[2:4] = [50.0, -50.0]  # huge position error
        u = pendulum_position_lqr(eta, np.zeros(8), K, clamp=0.5)
        assert np.all(np.abs(u) <= 0.5 + 1e-15)
        assert np.any(np.abs(u) == pytest.approx(0.5))

    def test_zero_error_zero_command(self):
        K = setup_pendulum_lqr(P.g, PP.L, (10, 10, 1, 1, 1, 1, 1, 1),
                               (100, 100))
        eta = np.array([0.01, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            pendulum_position_lqr(eta, eta, K), 0.0, atol=1e-15)

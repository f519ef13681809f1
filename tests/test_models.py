"""Tests for the rigid-body and pendulum dynamics primitives."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpend.models import (InitialState, PendulumHorizontalError,
                             PendulumParams, SingularAttitudeError,
                             VehicleParams,
                             euler_rate_matrix, gravity_direction_map,
                             coupled_derivative, mixer_forward,
                             mixer_inverse, mixer_matrix,
                             pendulum_drift_and_coupling, pendulum_zeta)

from helpers import (cross3, oracle_coupled_derivative, pendulum_accel,
                     step_inputs)

P = VehicleParams()


def _pendulum_oracle(a, b, a_dot, b_dot, L, g, p_ddot):
    """Independent transcription of the pendulum acceleration.

    Written directly from the closed-form expressions:
    zeta = sqrt(L^2 - a^2 - b^2),
    H = 4 b_dot^2 (a^2 - L^2) - 8 a_dot b_dot a b + 4 a_dot^2 (b^2 - L^2)
        + 3 zeta^3 g,
    (a_dd, b_dd) = (a, b) H / (4 L^2 zeta^2)
        + (3 / 4 L^2) [[a^2 - L^2, a b, a zeta], [a b, b^2 - L^2, b zeta]]
          . p_ddot
    """
    zeta = math.sqrt(L * L - a * a - b * b)
    H = (4.0 * b_dot ** 2 * (a * a - L * L)
         - 8.0 * a_dot * b_dot * a * b
         + 4.0 * a_dot ** 2 * (b * b - L * L)
         + 3.0 * zeta ** 3 * g)
    drift = np.array([a, b]) * H / (4.0 * L * L * zeta * zeta)
    coupling = (3.0 / (4.0 * L * L)) * np.array([
        [a * a - L * L, a * b, a * zeta],
        [a * b, b * b - L * L, b * zeta]])
    return drift + coupling @ np.asarray(p_ddot, dtype=float)


class TestVehicleParams:
    def test_defaults(self):
        assert P.m == 1.0
        assert P.g == 9.81
        np.testing.assert_allclose(P.I_diag, (0.01, 0.01, 0.02))
        # Default rotor ceiling gives a 4 m g total-thrust budget.
        cap = P.m * P.g / (P.rho * P.D ** 4 * P.C_T)
        np.testing.assert_allclose(P.u_max, (cap,) * 4)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            VehicleParams(m=0.0)

    @pytest.mark.parametrize("kw", [
        {"C_Q": 0.0}, {"rho": 1e-320}, {"C_T": 1e-200, "l": 1e-200},
        {"rho": 1e300, "D": 1e5}, {"D": 1e-80}],
        ids=["no-yaw", "scale-underflows", "arm-underflows",
             "scale-overflows", "d4-underflows"])
    def test_rejects_a_mixer_that_cannot_be_inverted(self, kw):
        with pytest.raises(ValueError, match="rotor"):
            VehicleParams(**kw)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            VehicleParams(u_min=(1.0,) * 4, u_max=(0.0,) * 4)

    def test_per_run_constants_equal_a_fresh_build_and_are_read_only(self):
        p = VehicleParams(I_diag=(0.02, 0.03, 0.05), u_min=(10.0,) * 4)
        u_min, u_max = p.rotor_bounds
        for cached, fresh in ((p.mixer, mixer_matrix(p)),
                              (u_min, np.asarray(p.u_min, dtype=float)),
                              (u_max, np.asarray(p.u_max, dtype=float))):
            assert cached.dtype == fresh.dtype
            assert cached.tobytes() == fresh.tobytes()
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0
        assert p.mixer is p.mixer  # built once

    def test_per_run_constants_rebuilt_for_a_replaced_vehicle(self):
        p = VehicleParams()
        built = p.mixer, p.rotor_bounds
        q = dataclasses.replace(p, l=0.3, I_diag=(0.1, 0.2, 0.3),
                                u_max=(1e4,) * 4)
        assert q.mixer.tobytes() == mixer_matrix(q).tobytes()
        assert q.mixer.tobytes() != built[0].tobytes()
        assert q.rotor_bounds[1].tobytes() == np.full(4, 1e4).tobytes()
        # The cache leaves equality and hashing to the fields.
        assert p == VehicleParams() and hash(p) == hash(VehicleParams())


class TestMixer:
    def test_equal_commands_give_pure_thrust(self):
        w = mixer_forward(np.full(4, 100.0), P)
        total = 4.0 * P.rho * P.D ** 4 * P.C_T * 100.0
        np.testing.assert_allclose(w, [total, 0.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = rng.uniform(0.0, 2e4, size=4)
            np.testing.assert_allclose(mixer_inverse(mixer_forward(u, P), P),
                                       u, rtol=1e-10, atol=1e-8)

    def test_wrench_round_trip(self):
        w = mixer_forward(mixer_inverse(np.array([9.81, 0.1, -0.2, 0.05]), P),
                          P)
        assert w[0] == pytest.approx(9.81)
        np.testing.assert_allclose(w[1:4], [0.1, -0.2, 0.05])

    def test_full_rank_and_conditioning(self):
        M = mixer_matrix(P)
        assert np.linalg.matrix_rank(M) == 4
        assert np.linalg.cond(M) < 1e4

    def test_opposite_rotor_pairs_produce_roll_and_pitch(self):
        # Rotor 2 (+y arm) up, rotor 4 down: pure roll torque, no pitch.
        w = mixer_forward([0.0, 1.0, 0.0, -1.0], P)
        assert w[0] == pytest.approx(0.0, abs=1e-15)
        assert w[1] != 0.0
        assert w[2] == pytest.approx(0.0, abs=1e-15)
        w = mixer_forward([1.0, 0.0, -1.0, 0.0], P)
        assert w[1] == pytest.approx(0.0, abs=1e-15)
        assert w[2] != 0.0

    def test_yaw_from_alternating_spin(self):
        w = mixer_forward([1.0, -1.0, 1.0, -1.0], P)
        np.testing.assert_allclose(w[:3], 0.0, atol=1e-15)
        assert w[3] != 0.0


# Finite floats, with signed zeros, subnormals and values whose products
# overflow drawn often.
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -1e-310, 1e154, -1.5e154, 1.7976931348623157e308,
                     -1.7976931348623157e308]))
VEC3 = st.lists(EDGE_FLOATS, min_size=3, max_size=3)


# cross3 is the bit-for-bit oracles' cross product (tests/helpers.py).
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(VEC3, VEC3)
def test_cross3_matches_np_cross_bit_for_bit(a, b):
    a, b = np.array(a), np.array(b)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.cross(a, b)
    assert cross3(a, b).tobytes() == expected.tobytes()


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noise"])
@pytest.mark.parametrize("pendulum", [False, True], ids=["12", "16"])
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_coupled_derivative_matches_numpy_oracle_bit_for_bit(pendulum, noise,
                                                             data):
    x, wrench, p, pp, noise_acc, noise_ang = data.draw(
        step_inputs(pendulum, noise))
    want = oracle_coupled_derivative(x, wrench, p, pp, noise_acc, noise_ang)
    got = coupled_derivative(x, wrench, p, pp, noise_acc, noise_ang)
    assert np.asarray(got).tobytes() == want.tobytes()
    # The harness hands over the state, the wrench and the noise as lists.
    lists = [None if a is None else a.tolist()
             for a in (x, wrench, noise_acc, noise_ang)]
    got = coupled_derivative(lists[0], lists[1], p, pp, *lists[2:])
    assert all(type(v) is float for v in got)
    assert np.asarray(got).tobytes() == want.tobytes()


class TestGravityDirectionMap:
    def test_level_attitude(self):
        np.testing.assert_allclose(gravity_direction_map(np.zeros(3), P.m),
                                   [0.0, 0.0, -1.0], atol=1e-15)

    def test_unit_norm_scaled_by_inverse_mass(self):
        rng = np.random.default_rng(1)
        for m in (0.5, 1.0, 3.0):
            for _ in range(100):
                q = rng.uniform(-1.4, 1.4, size=3)
                g1 = gravity_direction_map(q, m)
                assert np.linalg.norm(g1) == pytest.approx(1.0 / m, rel=1e-12)

    def test_pitch_tilts_thrust_forward(self):
        g1 = gravity_direction_map(np.array([0.0, 0.1, 0.0]), 1.0)
        # Positive pitch points the thrust axis toward -X in this convention.
        assert g1[0] < 0.0
        assert g1[2] < 0.0


class TestEulerRateMatrix:
    def test_identity_at_level(self):
        np.testing.assert_allclose(euler_rate_matrix(np.zeros(3)), np.eye(3),
                                   atol=1e-15)

    def test_determinant_is_secant_theta(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = rng.uniform(-1.4, 1.4, size=3)
            det = np.linalg.det(euler_rate_matrix(q))
            assert det == pytest.approx(1.0 / math.cos(q[1]), rel=1e-10)

    def test_singular_at_ninety_degrees_pitch(self):
        with pytest.raises(SingularAttitudeError):
            euler_rate_matrix(np.array([0.0, math.pi / 2, 0.0]))


class TestQuadDerivative:
    def test_hover_is_equilibrium(self):
        hover_u = P.m * P.g / (4.0 * P.rho * P.D ** 4 * P.C_T)
        wrench = mixer_forward(np.full(4, hover_u), P)
        x = InitialState(p=(0.0, 0.0, -2.0)).as_vector()[:12]
        np.testing.assert_allclose(
            coupled_derivative(x, wrench, P), np.zeros(12),
            atol=1e-12)

    def test_free_fall(self):
        wrench = mixer_forward(np.zeros(4), P)
        x = InitialState().as_vector()[:12]
        dx = coupled_derivative(x, wrench, P)
        np.testing.assert_allclose(dx[3:6], [0.0, 0.0, P.g], atol=1e-12)

    def test_gyroscopic_term(self):
        # Torque-free spin about a non-principal direction: Euler's equation
        # I w_dot = (I w) x w.
        w = np.array([1.0, 2.0, 3.0])
        x = InitialState(omega=tuple(w)).as_vector()[:12]
        dx = coupled_derivative(x, np.zeros(4), P)
        inertia = np.asarray(P.I_diag, dtype=float)
        expected = np.cross(inertia * w, w) / inertia
        np.testing.assert_allclose(dx[9:12], expected, rtol=1e-12)

    def test_velocity_passthrough_and_euler_rates(self):
        wrench = np.array([P.m * P.g, 0.0, 0.0, 0.0])
        q = np.array([0.3, -0.2, 0.7])
        w = np.array([0.1, -0.4, 0.2])
        s = InitialState(v=(1.0, 2.0, 3.0), q=tuple(q), omega=tuple(w))
        dx = coupled_derivative(s.as_vector()[:12], wrench, P)
        np.testing.assert_allclose(dx[0:3], s.v)
        np.testing.assert_allclose(dx[6:9], euler_rate_matrix(q) @ w)

    def test_singular_attitude_raises(self):
        wrench = np.array([P.m * P.g, 0.0, 0.0, 0.0])
        x = InitialState(q=(0.0, math.pi / 2, 0.0)).as_vector()[:12]
        with pytest.raises(SingularAttitudeError):
            coupled_derivative(x, wrench, P)


class TestPendulum:
    PP = PendulumParams()

    def test_zeta_examples(self):
        assert pendulum_zeta(0.0, 0.0, 0.5) == pytest.approx(0.5)
        assert pendulum_zeta(0.3, 0.0, 0.5) == pytest.approx(0.4)
        assert pendulum_zeta(0.3, 0.4, 0.5001) == pytest.approx(
            math.sqrt(0.5001 ** 2 - 0.25))

    def test_zeta_horizontal_raises(self):
        with pytest.raises(PendulumHorizontalError):
            pendulum_zeta(0.5, 0.0, 0.5)
        with pytest.raises(PendulumHorizontalError):
            pendulum_zeta(0.4, 0.4, 0.5)

    def test_upright_equilibrium(self):
        acc = pendulum_accel(np.zeros(4), np.zeros(3), self.PP, P.g)
        np.testing.assert_allclose(acc, np.zeros(2), atol=1e-15)

    def test_coupling_at_origin(self):
        f_p, B_p = pendulum_drift_and_coupling(0.0, 0.0, 0.0, 0.0, 0.5, P.g)
        np.testing.assert_allclose(f_p, np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(
            B_p, [[-0.75, 0.0, 0.0], [0.0, -0.75, 0.0]], atol=1e-15)

    def test_unit_forward_acceleration_at_origin(self):
        acc = pendulum_accel(np.zeros(4), np.array([1.0, 0.0, 0.0]), self.PP,
                             P.g)
        np.testing.assert_allclose(acc, [-0.75, 0.0], atol=1e-15)

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(4)
        L = 0.5
        for _ in range(500):
            r = rng.uniform(0.0, 0.8 * L)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            a, b = r * math.cos(ang), r * math.sin(ang)
            a_dot, b_dot = rng.normal(scale=0.5, size=2)
            p_ddot = rng.normal(scale=3.0, size=3)
            acc = pendulum_accel([a, b, a_dot, b_dot], p_ddot, self.PP, P.g)
            want = _pendulum_oracle(a, b, a_dot, b_dot, L, P.g, p_ddot)
            np.testing.assert_allclose(acc, want, rtol=1e-10, atol=1e-10)

    def test_axis_swap_symmetry(self):
        # Swapping (a, b) and (p_X, p_Y) swaps the acceleration components.
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.uniform(-0.25, 0.25, size=2)
            ad, bd = rng.normal(scale=0.3, size=2)
            acc = rng.normal(scale=2.0, size=3)
            d1 = pendulum_accel([a, b, ad, bd], acc, self.PP, P.g)
            swapped = np.array([acc[1], acc[0], acc[2]])
            d2 = pendulum_accel([b, a, bd, ad], swapped, self.PP, P.g)
            np.testing.assert_allclose(d1, d2[::-1], rtol=1e-12, atol=1e-12)

    def test_horizontal_raises(self):
        with pytest.raises(PendulumHorizontalError):
            pendulum_accel([0.5, 0.0, 0.0, 0.0], np.zeros(3), self.PP, P.g)

    @pytest.mark.xfail(raises=AssertionError, reason=(
        "ROADMAP item 12: the vertical coupling has "
        "the wrong sign, so free fall drives the pendulum"))
    def test_free_fall_leaves_a_pendulum_at_rest_unforced(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            r = rng.uniform(0.0, 0.9 * self.PP.L)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            xp = [r * math.cos(ang), r * math.sin(ang), 0.0, 0.0]
            acc = pendulum_accel(xp, [0.0, 0.0, P.g], self.PP, P.g)
            np.testing.assert_allclose(acc, 0.0, atol=1e-12)

    @pytest.mark.parametrize("L", [1e-78, 1e78])
    def test_half_length_whose_fourth_power_leaves_the_float_range(self, L):
        # The model divides by L ** 2 * zeta ** 2, with zeta at most L.
        with pytest.raises(ValueError, match="half_length"):
            PendulumParams(L=L)


class TestInitialState:
    def test_as_vector_order(self):
        # x = [p, v, q, omega, a, b, a_dot, b_dot], the layout
        # coupled_derivative reads.
        s = InitialState(p=(0.0, 1.0, 2.0), v=(3.0, 4.0, 5.0),
                         q=(6.0, 7.0, 8.0), omega=(9.0, 10.0, 11.0),
                         pendulum=(12.0, 13.0, 14.0, 15.0))
        np.testing.assert_array_equal(s.as_vector(), np.arange(16.0))
        assert s.as_vector().dtype == np.float64

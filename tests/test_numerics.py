"""Tests for the RK4 integrator, CARE solver, QP solver, and linearization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpend.models import coupled_derivative
from quadpend.numerics import (CareError, NonFiniteDerivativeError,
                               QpInfeasibleError, QpNotConvergedError,
                               QpProblem, QpResult,
                               _feasible_start, care_residual, rk4_step,
                               solve_care, solve_qp)

from helpers import linearize, oracle_rk4_step, step_inputs


class TestSteppers:
    def test_constant_derivative_exact(self):
        x = rk4_step(lambda x: np.array([2.0]), np.array([1.0]), 0.25)
        np.testing.assert_allclose(x, [1.5], rtol=1e-15)

    def test_exponential_single_step(self):
        # One RK4 step of x' = x over dt = 0.1 equals the 4th-order Taylor
        # polynomial of e^0.1.
        x = rk4_step(lambda x: x, np.array([1.0]), 0.1)
        taylor = sum(0.1 ** k / math.factorial(k) for k in range(5))
        assert x[0] == pytest.approx(taylor, abs=1e-15)
        assert x[0] == pytest.approx(1.1051708333333332, abs=1e-12)

    def test_harmonic_oscillator_period(self):
        def deriv(x):
            return np.array([x[1], -x[0]])

        x = np.array([1.0, 0.0])
        n = 2000
        dt = 2.0 * math.pi / n
        for _ in range(n):
            x = rk4_step(deriv, x, dt)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-9)

    def test_rk4_order(self):
        # Error against the exact solution of x' = x should shrink ~16x per
        # halving of dt.
        errs = []
        for dt in (0.1, 0.05, 0.025):
            x = np.array([1.0])
            t = 0.0
            while t < 1.0 - 1e-12:
                x = rk4_step(lambda x: x, x, dt)
                t += dt
            errs.append(abs(x[0] - math.e))
        for e0, e1 in zip(errs, errs[1:]):
            assert 16.0 * 0.8 < e0 / e1 < 16.0 * 1.2

    def test_nonfinite_derivative_raises(self):
        with pytest.raises(NonFiniteDerivativeError):
            rk4_step(lambda x: np.array([np.inf]), np.array([1.0]), 0.1)

    def test_infinite_stage_ends_the_step_before_it_is_evaluated(self):
        # math.sin raises on an infinite angle; the stage x + dt/2 * k1
        # overflows here.
        with pytest.raises(NonFiniteDerivativeError, match="t = 1"):
            rk4_step(lambda x: [math.sin(x[0]) + 1e308], [0.0], 10.0, t=1.0)

    def test_nonfinite_error_labels_time(self):
        with pytest.raises(NonFiniteDerivativeError, match="t = 2.5"):
            rk4_step(lambda x: np.array([np.nan]), np.array([1.0]), 0.1,
                     t=2.5)


def _assert_same_step(deriv, x, dt):
    """rk4_step on the list x gives the bytes of the numpy oracle on x."""
    got = rk4_step(deriv, x.tolist(), dt)
    assert np.asarray(got).tobytes() == oracle_rk4_step(deriv, x, dt).tobytes()


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noise"])
@pytest.mark.parametrize("pendulum", [False, True], ids=["12", "16"])
@settings(max_examples=150)
@given(data=st.data(), dt=st.floats(1e-4, 1e-2))
def test_rk4_step_matches_numpy_oracle_bit_for_bit(pendulum, noise, data, dt):
    x, wrench, p, pp, noise_acc, noise_ang = data.draw(
        step_inputs(pendulum, noise))
    held, n_acc, n_ang = [None if a is None else a.tolist()
                          for a in (wrench, noise_acc, noise_ang)]
    _assert_same_step(lambda xx: coupled_derivative(
        xx, held, p, pp, n_acc, n_ang), x, dt)


@settings(max_examples=150)
@given(x=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=16),
       dt=st.floats(1e-4, 1.0))
def test_rk4_step_matches_numpy_oracle_for_an_array_derivative(x, dt):
    x = np.array(x)
    c = np.linspace(-2.0, 2.0, x.size)

    def deriv(xx):
        xx = np.asarray(xx)
        return c * xx * xx - xx[::-1] + 0.3

    _assert_same_step(deriv, x, dt)


class TestCare:
    def test_double_integrator_analytic(self):
        # F = [[0,1],[0,0]], G = [0,1]', Q = I, R = 1 has the closed form
        # P = [[sqrt(3), 1], [1, sqrt(3)]].
        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        G = np.array([[0.0], [1.0]])
        P = solve_care(F, G, np.eye(2))
        s3 = math.sqrt(3.0)
        np.testing.assert_allclose(P, [[s3, 1.0], [1.0, s3]], rtol=1e-12)
        assert (care_residual(F, G, np.eye(2), np.eye(1), P)
                < 1e-8 * np.linalg.norm(np.eye(2)))

    def test_residual_and_hurwitz_random(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, m = 4, 2
            F = rng.normal(size=(n, n))
            G = rng.normal(size=(n, m))
            Q = np.eye(n)
            P = solve_care(F, G, Q)
            np.testing.assert_allclose(P, P.T, atol=1e-10)
            assert np.all(np.linalg.eigvalsh(P) > 0)
            assert (care_residual(F, G, Q, np.eye(m), P)
                    < 1e-8 * np.linalg.norm(Q))
            closed = F - G @ np.linalg.solve(np.eye(m), G.T @ P)
            assert np.max(np.linalg.eigvals(closed).real) < 0

    def test_output_error_block_system(self):
        # Four double integrators stacked: P is the Kronecker expansion of
        # the scalar double-integrator solution.
        F = np.zeros((8, 8))
        F[:4, 4:] = np.eye(4)
        G = np.zeros((8, 4))
        G[4:, :] = np.eye(4)
        P = solve_care(F, G, np.eye(8))
        s3 = math.sqrt(3.0)
        expect = np.block([[s3 * np.eye(4), np.eye(4)],
                           [np.eye(4), s3 * np.eye(4)]])
        np.testing.assert_allclose(P, expect, rtol=1e-10, atol=1e-10)

    def test_rejects_indefinite_q(self):
        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        G = np.array([[0.0], [1.0]])
        with pytest.raises(CareError):
            solve_care(F, G, np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("F, G, Q, R, message", [
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 1.0], [0.0, 1.0]],
         None, "symmetric"),
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), [[-1.0]],
         "R must be positive definite"),
        ([[math.nan, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), None,
         "Schur decomposition failed"),
        ([[0.0]], [[0.0]], [[0.0]], None, "found 0")],
        ids=["asymmetric-q", "negative-r", "nan-in-f", "no-stable-eigenvalue"])
    def test_rejects_malformed_problem(self, F, G, Q, R, message):
        with pytest.raises(CareError, match=message):
            solve_care(np.array(F), np.array(G), np.array(Q),
                       None if R is None else np.array(R))

    def test_rejects_nonstabilizable_pair(self):
        F = np.array([[1.0]])
        G = np.array([[0.0]])
        with pytest.raises(CareError):
            solve_care(F, G, np.eye(1))


def enumerate_qp(H, f, A, b, tol=1e-9):
    """Brute-force QP oracle: try every active set, keep the best KKT point.

    Solves min 0.5 x'Hx + f'x s.t. Ax <= b by solving the equality-
    constrained problem for each subset of constraints and keeping the
    feasible KKT point with the lowest objective.  The KKT systems of one
    subset size are solved as one batch; a batch that holds a singular
    system is solved one system at a time, skipping the singular ones.
    """
    n = H.shape[0]
    k = A.shape[0]
    best = None
    best_obj = np.inf
    for r in range(0, min(k, n) + 1):
        # One row per subset, in combinations order; shape (1, 0) at r = 0.
        subsets = np.array(list(itertools.combinations(range(k), r)),
                           dtype=int)
        Aw = A[subsets]
        KKT = np.zeros((len(subsets), n + r, n + r))
        KKT[:, :n, :n] = H
        KKT[:, :n, n:] = Aw.transpose(0, 2, 1)
        KKT[:, n:, :n] = Aw
        rhs = np.concatenate([np.broadcast_to(-f, (len(subsets), n)),
                              b[subsets]], axis=1)
        try:
            sols = np.linalg.solve(KKT, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            sols = np.full(rhs.shape, np.nan)
            for i in range(len(subsets)):
                try:
                    sols[i] = np.linalg.solve(KKT[i], rhs[i])
                except np.linalg.LinAlgError:
                    pass
        x, lam = sols[:, :n], sols[:, n:]
        solved = ~np.isnan(sols).any(axis=1)
        dual_ok = ~(lam < -tol).any(axis=1)
        primal_ok = ~(x @ A.T - b > tol).any(axis=1)
        for i in np.flatnonzero(solved & dual_ok & primal_ok):
            obj = 0.5 * x[i] @ H @ x[i] + f @ x[i]
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = x[i]
    return best


def random_qp(rng, n, k):
    M = rng.normal(size=(n, n))
    H = M @ M.T + n * np.eye(n)
    f = rng.normal(size=n)
    A = rng.normal(size=(k, n))
    x_feas = rng.normal(size=n)
    b = A @ x_feas + rng.uniform(0.1, 1.0, size=k)
    return QpProblem(H=H, f=f, A_ineq=A, b_ineq=b)


class TestQp:
    def test_unconstrained_minimum_interior(self):
        prob = QpProblem(H=2.0 * np.eye(2), f=np.array([-2.0, -4.0]),
                         A_ineq=np.array([[1.0, 0.0]]),
                         b_ineq=np.array([10.0]))
        res = solve_qp(prob)
        np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-10)
        assert res.active_set == ()

    def test_single_active_constraint(self):
        # min ||x||^2 s.t. x1 + x2 <= -1 -> projection onto the plane.
        prob = QpProblem(H=2.0 * np.eye(2), f=np.zeros(2),
                         A_ineq=np.array([[-1.0, -1.0]]),
                         b_ineq=np.array([-1.0]))
        res = solve_qp(prob)
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-10)
        assert res.active_set == (0,)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 13))
            prob = random_qp(rng, n, k)
            res = solve_qp(prob)
            want = enumerate_qp(prob.H, prob.f, prob.A_ineq, prob.b_ineq)
            assert want is not None
            np.testing.assert_allclose(res.x, want, atol=1e-7)

    def test_infeasible_raises_with_certificate(self):
        prob = QpProblem(H=2.0 * np.eye(1), f=np.zeros(1),
                         A_ineq=np.array([[1.0], [-1.0]]),
                         b_ineq=np.array([-2.0, -2.0]))  # x <= -2 and x >= 2
        with pytest.raises(QpInfeasibleError) as exc:
            solve_qp(prob)
        assert len(exc.value.violated_rows) > 0

    def test_rejects_h_not_positive_definite(self):
        # With H = 0, min -x s.t. x >= 0 would be unbounded below.
        for H in (np.zeros((1, 1)), np.diag([1.0, 0.0]),
                  np.array([[1.0, 1.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="positive definite"):
                QpProblem(H=H, f=-np.ones(len(H)), A_ineq=-np.eye(len(H)),
                          b_ineq=np.zeros(len(H)))

    def test_multipliers_nonnegative_and_stationary(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            prob = random_qp(rng, 4, 6)
            res = solve_qp(prob)
            assert np.all(res.multipliers >= 0.0)
            grad = (prob.H @ res.x + prob.f
                    + prob.A_ineq.T @ res.multipliers)
            np.testing.assert_allclose(grad, 0.0, atol=1e-7)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.eye(2), f=np.zeros(3),
                      A_ineq=np.zeros((1, 2)), b_ineq=np.zeros(1))
        with pytest.raises(ValueError, match="H must be square"):
            QpProblem(H=np.ones((2, 3)), f=np.zeros(2),
                      A_ineq=np.zeros((0, 2)), b_ineq=np.zeros(0))

    @pytest.mark.parametrize("b0", [-math.inf, math.nan])
    def test_non_finite_data_raises(self, b0):
        prob = QpProblem(H=np.eye(2), f=np.zeros(2), A_ineq=np.eye(2),
                         b_ineq=np.array([b0, 1.0]))
        with pytest.raises(QpNotConvergedError, match="NaN or infinity"):
            solve_qp(prob)


def linprog_feasible_start(A, b, n, tol):
    """_feasible_start as scipy.optimize.linprog(method="highs") gives it:
    the reference whose bytes the direct HiGHS call must reproduce."""
    import scipy.optimize
    x0 = np.zeros(n)
    if A.shape[0] == 0 or np.all(A @ x0 <= b + tol):
        return x0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.hstack([A, -np.ones((A.shape[0], 1))])
    res = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b, method="highs",
                                 bounds=[(None, None)] * n + [(0, None)])
    if not res.success or res.x[-1] > 1e-7:
        viol = np.where(A @ (res.x[:n] if res.success else x0) > b + tol)[0]
        raise QpInfeasibleError("QP constraints are infeasible",
                                violated_rows=viol)
    return res.x[:n]


def phase1_lp(rng, shape):
    """A seeded phase-1 LP (A, b, n): the CLF-QP's hard 9x4 and relaxed
    10x5 rows, or a general k x n; some entries of A exactly zero, and b
    scaled from 1e-3 to 1e3."""
    if shape == "general":
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 15))
        A = rng.normal(size=(k, n))
        b = rng.normal(size=k)
    else:  # decrease row, then the rotor box rows M v <= u_max - shift ...
        M = rng.normal(size=(4, 4))
        shift = rng.normal(size=4)
        A = np.vstack([rng.normal(size=4), M, -M])
        b = np.concatenate([[-abs(rng.normal())], rng.uniform(0, 2, 4) - shift,
                            shift])
        if shape == "clf-10x5":  # ... with the decrease row's slack
            A = np.hstack([A, np.zeros((9, 1))])
            A[0, 4] = -1.0
            A = np.vstack([A, -np.eye(5)[4]])
            b = np.append(b, 0.0)
    A[rng.random(A.shape) < 0.2] = 0.0
    return A, b * 10.0 ** rng.uniform(-3, 3), A.shape[1]


class TestFeasibleStart:
    @pytest.mark.parametrize("shape", ["clf-9x4", "clf-10x5", "general"])
    def test_same_bytes_and_violated_rows_as_linprog(self, shape, capfd):
        # Also the guard that a scipy upgrade left the HiGHS binding, the
        # model linprog builds and its options as _feasible_start has them.
        rng = np.random.default_rng(29)
        feasible = 0
        for _ in range(150):
            A, b, n = phase1_lp(rng, shape)
            try:
                want = linprog_feasible_start(A, b, n, 1e-10)
            except QpInfeasibleError as exc:
                with pytest.raises(QpInfeasibleError) as got:
                    _feasible_start(A, b, n, 1e-10)
                assert got.value.violated_rows == exc.violated_rows
                continue
            assert _feasible_start(A, b, n, 1e-10).tobytes() == want.tobytes()
            feasible += 1
        assert 20 < feasible < 130  # both outcomes, often
        assert capfd.readouterr() == ("", "")  # HiGHS logged nothing

    def test_a_model_highs_rejects_is_infeasible_at_the_origin(self):
        # HiGHS refuses a matrix entry of 1e15 or more; linprog reports
        # that as a failure, and the violated rows are those of the origin.
        A, b = np.array([[1e16, 1.0], [1.0, 0.0]]), np.array([-1.0, 5.0])
        with pytest.raises(QpInfeasibleError) as exc:
            linprog_feasible_start(A, b, 2, 1e-10)
        with pytest.raises(QpInfeasibleError) as got:
            _feasible_start(A, b, 2, 1e-10)
        assert got.value.violated_rows == exc.value.violated_rows == (0,)


class TestLinearize:
    def test_affine_system_exact(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        B = np.array([[0.0], [1.0]])
        c = np.array([0.5, -0.25])

        def f(x, u):
            return A @ x + B @ u + c

        Ahat, Bhat = linearize(f, np.array([0.3, -0.7]), np.array([0.2]))
        np.testing.assert_allclose(Ahat, A, atol=1e-9)
        np.testing.assert_allclose(Bhat, B, atol=1e-9)

    def test_scalar_nonlinear(self):
        def f(x, u):
            return np.array([math.sin(x[0]) + u[0] ** 2])

        Ahat, Bhat = linearize(f, np.array([0.5]), np.array([2.0]))
        assert Ahat[0, 0] == pytest.approx(math.cos(0.5), abs=1e-8)
        assert Bhat[0, 0] == pytest.approx(4.0, abs=1e-8)

"""Numerical machinery: fixed-step RK4 integration, CARE, and a dense QP
solver.

The CARE solver uses the Hamiltonian invariant-subspace method (real Schur
form with left-half-plane ordering) followed by a Kleinman-Newton refinement
pass so the residual contract holds even on marginally conditioned problems.

The QP solver is a primal active-set method for small dense strictly convex
problems (inequality constraints only, convention A_ineq @ x <= b_ineq).
When the origin is infeasible, its phase-1 LP calls scipy's HiGHS binding
directly, with linprog's model and options but not its Python front end.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NonFiniteDerivativeError(RuntimeError):
    """The supplied derivative produced NaN or infinity."""


class CareError(RuntimeError):
    """No stabilizing CARE solution (pair not stabilizable) or bad problem."""


class QpNotConvergedError(RuntimeError):
    """The active-set QP holds NaN or infinity, or did not converge within
    QP_MAX_ITER iterations."""


class QpInfeasibleError(RuntimeError):
    """QP has an empty feasible region."""

    def __init__(self, msg, violated_rows=()):
        super().__init__(msg)
        self.violated_rows = tuple(violated_rows)


def rk4_step(deriv, x, dt, t=None):
    """One classical fourth-order Runge-Kutta step of x' = deriv(x), with x
    a sequence of floats; the stages and the result are lists of floats."""
    h, c = 0.5 * dt, dt / 6.0
    k1 = deriv(x)
    k2 = deriv(_finite([a + h * k for a, k in zip(x, k1)], t))
    k3 = deriv(_finite([a + h * k for a, k in zip(x, k2)], t))
    k4 = deriv(_finite([a + dt * k for a, k in zip(x, k3)], t))
    return _finite([a + c * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                    for a, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4)], t)


def _finite(x, t):
    """x, unless it holds NaN or infinity.  Each stage is checked too, since
    math.sin raises on an infinite angle."""
    if not all(map(math.isfinite, x)):
        when = "" if t is None else f" at t = {t:.6g} s"
        raise NonFiniteDerivativeError(f"non-finite derivative{when}")
    return x


def care_residual(F, G, Q, R, P) -> float:
    S = G @ np.linalg.solve(R, G.T)
    return np.linalg.norm(F.T @ P + P @ F - P @ S @ P + Q, "fro")


def solve_care(F, G, Q, R=None) -> np.ndarray:
    """Stabilizing solution P of F'P + PF - P G R^-1 G' P + Q = 0.

    F, G, Q and R are 2-D float arrays; Q must be symmetric positive
    semidefinite and R symmetric positive definite (R = I when None).
    """
    if R is None:
        R = np.eye(G.shape[1])
    n = F.shape[0]
    if not np.allclose(Q, Q.T):
        raise CareError("Q must be symmetric")
    if np.min(np.linalg.eigvalsh(Q)) < -1e-12:
        raise CareError("Q must be positive semidefinite")
    if np.min(np.linalg.eigvalsh(R)) <= 0:
        raise CareError("R must be positive definite")

    S = G @ np.linalg.solve(R, G.T)
    ham = np.block([[F, -S], [-Q, -F.T]])
    try:
        _, U, ndim = scipy.linalg.schur(ham, sort="lhp")
    except (ValueError, np.linalg.LinAlgError) as exc:  # non-finite or unsortable
        raise CareError(f"Schur decomposition failed: {exc}") from exc
    if ndim != n:
        raise CareError(
            f"expected {n} stable Hamiltonian eigenvalues, found {ndim}; "
            "the pair (F, G) is likely not stabilizable")
    U11 = U[:n, :n]
    U21 = U[n:, :n]
    try:
        P = np.linalg.solve(U11.T, U21.T).T
    except np.linalg.LinAlgError as exc:
        raise CareError("singular invariant-subspace basis") from exc
    P = 0.5 * (P + P.T)

    # Kleinman-Newton refinement: each pass solves a Lyapunov equation for
    # the current gain and is quadratically convergent near the solution.
    # The passes stall at a round-off floor, so the best one is kept.
    qnorm = np.linalg.norm(Q, "fro")
    best = care_residual(F, G, Q, R, P), P
    for _ in range(10):
        if best[0] < 1e-10 * max(qnorm, 1.0):
            break
        K = np.linalg.solve(R, G.T @ P)
        Acl = F - G @ K
        rhs = -(Q + K.T @ R @ K)
        if not (np.all(np.isfinite(Acl)) and np.all(np.isfinite(rhs))):
            break
        P_next = scipy.linalg.solve_continuous_lyapunov(Acl.T, rhs)
        P_next = 0.5 * (P_next + P_next.T)
        if not np.all(np.isfinite(P_next)):
            break
        P = P_next
        best = min(best, (care_residual(F, G, Q, R, P), P), key=lambda b: b[0])

    # The contract is a backward error: the residual is small next to the
    # terms it sums, which ||Q|| alone understates when ||PSP|| >> ||Q||.
    residual, P = best
    scale = (np.linalg.norm(F.T @ P + P @ F, "fro")
             + np.linalg.norm(P @ S @ P, "fro") + qnorm)
    if not residual < 1e-8 * max(scale, 1.0):  # NaN fails
        raise CareError("CARE residual contract not met")
    if np.min(np.linalg.eigvalsh(P)) <= 0:
        raise CareError("CARE solution is not positive definite")
    Acl = F - S @ P
    if np.max(np.linalg.eigvals(Acl).real) >= -1e-10:
        raise CareError("closed loop is not strictly stable")
    return P


@dataclass(frozen=True)
class QpProblem:
    """min 1/2 x'Hx + f'x  s.t.  A_ineq @ x <= b_ineq, H positive definite."""

    H: np.ndarray
    f: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        f = np.atleast_1d(np.asarray(self.f, dtype=float))
        n = H.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be square")
        if f.shape != (n,):
            raise ValueError("f length must match H")
        if not (np.allclose(H, H.T) and np.linalg.eigvalsh(H).min() > 0):
            raise ValueError("H must be symmetric positive definite")
        A = np.asarray(self.A_ineq, dtype=float).reshape(-1, n)
        b = np.atleast_1d(np.asarray(self.b_ineq, dtype=float))
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "A_ineq", A)
        object.__setattr__(self, "b_ineq", b)


@dataclass
class QpResult:
    x: np.ndarray
    active_set: tuple
    multipliers: np.ndarray  # one per constraint row, zero if inactive
    iterations: int


def _feasible_start(A, b, n, tol):
    """Point satisfying Ax <= b, via phase-1 LP when the origin fails.

    The LP, min t s.t. Ax - t <= b, t >= 0, goes to the HiGHS binding that
    scipy ships, with the model and the options that
    scipy.optimize.linprog(method="highs") would pass it, so the vertex is
    linprog's to the bit.
    """
    x0 = np.zeros(n)
    if A.shape[0] == 0 or np.all(A @ x0 <= b + tol):
        return x0
    # Only here: scipy.optimize costs a quarter second to import.
    from scipy.optimize._highspy import _core as highs
    k = A.shape[0]
    inf = highs.kHighsInf
    cols = np.hstack([A, -np.ones((k, 1))]).T  # row j is column j of [A, -1]
    nz = cols != 0  # CSC, exact zeros dropped
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n + 1
    lp.num_row_ = lp.a_matrix_.num_row_ = k
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    start = np.append(0, np.cumsum(nz.sum(axis=1)))
    lp.a_matrix_.start_ = start.astype(np.int32)
    lp.a_matrix_.index_ = np.nonzero(nz)[1].astype(np.int32)
    lp.a_matrix_.value_ = cols[nz]
    lp.col_cost_ = np.append(np.zeros(n), 1.0)
    lp.col_lower_ = np.append(np.full(n, -inf), 0.0)
    lp.col_upper_ = np.full(n + 1, inf)
    lp.row_lower_ = np.full(k, -inf)
    lp.row_upper_ = b
    solver = highs._Highs()  # a fresh one: a reused one keeps its basis
    dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    for option in (("presolve", "on"), ("output_flag", False),
                   ("log_to_console", False), ("highs_debug_level", 0),
                   ("simplex_strategy", dual)):  # linprog's, set one by one
        solver.setOptionValue(*option)
    error = highs.HighsStatus.kError
    solved = (solver.passModel(lp) != error and solver.run() != error
              and solver.getModelStatus() == highs.HighsModelStatus.kOptimal)
    x = np.array(solver.getSolution().col_value) if solved else x0
    if not solved or x[-1] > 1e-7:
        viol = np.where(A @ x[:n] > b + tol)[0]
        raise QpInfeasibleError("QP constraints are infeasible",
                                violated_rows=viol)
    return x[:n]


QP_MAX_ITER = 200


def solve_qp(prob: QpProblem) -> QpResult:
    """Primal active-set solution of a small dense strictly convex QP."""
    H, f, A, b = prob.H, prob.f, prob.A_ineq, prob.b_ineq
    n = H.shape[0]
    k = A.shape[0]
    tol = 1e-10
    if not all(np.isfinite(a).all() for a in (H, f, A, b)):
        raise QpNotConvergedError("QP data holds NaN or infinity")

    x = _feasible_start(A, b, n, tol)

    work = [i for i in range(k) if A[i] @ x >= b[i] - 1e-9]
    # Keep the working set linearly independent.
    if len(work) > n:
        work = work[:n]

    lam_full = np.zeros(k)
    for it in range(1, QP_MAX_ITER + 1):
        Aw = A[work] if work else np.zeros((0, n))
        grad = H @ x + f
        m = len(work)
        KKT = np.block([[H, Aw.T], [Aw, np.zeros((m, m))]])
        rhs = np.concatenate([-grad, np.zeros(m)])
        try:
            sol = np.linalg.solve(KKT, rhs)
            consistent = np.all(np.isfinite(sol))
        except np.linalg.LinAlgError:
            consistent = False
        if not consistent:  # a dependent working set
            sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        p = sol[:n]
        lam = sol[n:]

        if np.linalg.norm(p) <= 1e-11 * (1.0 + np.linalg.norm(x)):
            if m == 0 or np.all(lam >= -1e-9):
                lam_full[:] = 0.0
                for i, ci in enumerate(work):
                    lam_full[ci] = max(lam[i], 0.0)
                return QpResult(x=x, active_set=tuple(sorted(work)),
                                multipliers=lam_full, iterations=it)
            work.pop(int(np.argmin(lam)))
            continue

        alpha = 1.0
        blocker = None
        for i in range(k):
            if i in work:
                continue
            ai_p = A[i] @ p
            if ai_p > tol:
                step = (b[i] - A[i] @ x) / ai_p
                if step < alpha - 1e-14:
                    alpha = max(step, 0.0)
                    blocker = i
        x = x + alpha * p
        if blocker is not None:
            work.append(blocker)

    raise QpNotConvergedError(
        f"active-set QP did not converge in {QP_MAX_ITER} iterations")

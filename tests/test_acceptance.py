"""Acceptance suite: one test per top-level acceptance criterion.

Each test prints a single PASS/FAIL line with the measured quantities; the
expensive closed-loop runs are shared through module-scoped fixtures.  The
long-horizon scenarios (criteria 6, 7) use the coarser 2 ms step validated
by the integrator order study.
"""

import itertools
import math

import numpy as np
import pytest

from quadpend.cli import load_scenarios, main, shipped_scenario_path
from quadpend.controllers import (output_error_matrices, setup_output_clf)
from quadpend.harness import NoiseSpec, Scenario, run_scenario
from quadpend.models import (InitialState, PendulumParams,
                             VehicleParams, coupled_derivative,
                             euler_rate_matrix, mixer_forward)
from quadpend.numerics import (QpProblem, care_residual, rk4_step,
                               solve_care, solve_qp)
from quadpend.trajectories import SetpointDifferentiator, TrajectorySpec

from helpers import mixer_inverse, pendulum_accel
from test_numerics import enumerate_qp, random_qp

P = VehicleParams()


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def run_shipped(name, overrides=()):
    scs = load_scenarios(shipped_scenario_path(name), overrides=overrides)
    assert len(scs) == 1
    return run_scenario(scs[0])


# ---------------------------------------------------------------------------
# Shared closed-loop runs.

@pytest.fixture(scope="module")
def circle_fbl_log():
    sc = Scenario(
        name="circle-fbl", controller="fbl-tracker",
        trajectory=TrajectorySpec(kind="circle", radius=1.0, rate=0.5,
                                  altitude=-2.0),
        initial=InitialState(p=(1.0, 0.0, -2.0), v=(0.0, 0.5, 0.0)),
        duration=10.0, dt=1e-3)
    return run_scenario(sc)


@pytest.fixture(scope="module")
def circle_clfqp_log():
    sc = Scenario(
        name="circle-clfqp", controller="clf-qp",
        trajectory=TrajectorySpec(kind="circle", radius=1.0, rate=0.5,
                                  altitude=-2.0),
        initial=InitialState(p=(1.0, 0.0, -2.0), v=(0.0, 0.5, 0.0)),
        duration=10.0, dt=1e-3)
    return run_scenario(sc)


@pytest.fixture(scope="module")
def balance_logs():
    xi = run_shipped("fig6-pend-balance.scn")
    xi_prime = run_shipped("fig6-pend-balance.scn",
                           overrides=[("controller", "pend-xi-prime")])
    return xi, xi_prime


@pytest.fixture(scope="module")
def drift_logs():
    def make(controller):
        return Scenario(
            name=f"drift-{controller}", controller=controller,
            pendulum=PendulumParams(),
            trajectory=TrajectorySpec(kind="set-point",
                                      setpoint=(0.0, 0.0, -2.0)),
            initial=InitialState(p=(0.0, 0.0, -2.0),
                                 pendulum=(0.1, -0.05, 0.0, 0.0)),
            duration=60.0, dt=2e-3)

    return run_scenario(make("pend-xi-prime")), run_scenario(make("pend-lqr"))


# ---------------------------------------------------------------------------
# Criteria.

def test_criterion_01_model_examples():
    hover_u = P.m * P.g / (4.0 * P.rho * P.D ** 4 * P.C_T)
    wrench = mixer_forward(np.full(4, hover_u), P)
    x = InitialState(p=(0.0, 0.0, -2.0)).as_vector()[:12]
    hover_drift = float(np.max(np.abs(coupled_derivative(x, wrench, P))))

    rng = np.random.default_rng(100)
    mixer_err = 0.0
    for _ in range(200):
        u = rng.uniform(0.0, 2.0 * hover_u, size=4)
        mixer_err = max(mixer_err, float(np.max(np.abs(
            mixer_inverse(mixer_forward(u, P), P) - u) / (1.0 + u))))

    pp = PendulumParams()
    sym_err = 0.0
    for _ in range(200):
        a, b = rng.uniform(-0.25, 0.25, size=2)
        ad, bd = rng.normal(scale=0.3, size=2)
        acc = rng.normal(scale=2.0, size=3)
        d1 = pendulum_accel([a, b, ad, bd], acc, pp, P.g)
        d2 = pendulum_accel([b, a, bd, ad], acc[[1, 0, 2]], pp, P.g)
        sym_err = max(sym_err, float(np.max(np.abs(d1 - d2[::-1]))))

    ok = hover_drift <= 1e-14 and mixer_err <= 1e-10 and sym_err <= 1e-12
    report(1, ok, f"hover drift {hover_drift:.2e}, mixer round-trip "
                  f"{mixer_err:.2e}, pendulum symmetry {sym_err:.2e}")


def test_criterion_02_numerics():
    # CARE: double integrator and the stacked 8x8 output-error system.
    F2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    G2 = np.array([[0.0], [1.0]])
    P2 = solve_care(F2, G2, np.eye(2))
    res2 = (care_residual(F2, G2, np.eye(2), np.eye(1), P2)
            / np.linalg.norm(np.eye(2)))
    hurwitz2 = np.max(np.linalg.eigvals(
        F2 - G2 @ np.linalg.solve(np.eye(1), G2.T @ P2)).real) < 0

    F8, G8 = output_error_matrices()
    P8 = solve_care(F8, G8, np.eye(8))
    res8 = (care_residual(F8, G8, np.eye(8), np.eye(4), P8)
            / np.linalg.norm(np.eye(8)))
    hurwitz8 = np.max(np.linalg.eigvals(
        F8 - G8 @ np.linalg.solve(np.eye(4), G8.T @ P8)).real) < 0

    # QP vs the brute-force active-set enumeration oracle.
    rng = np.random.default_rng(101)
    qp_err = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 13))
        prob = random_qp(rng, n, k)
        res = solve_qp(prob)
        want = enumerate_qp(prob.H, prob.f, prob.A_ineq, prob.b_ineq)
        qp_err = max(qp_err, float(np.max(np.abs(res.x - want))))

    # RK4 order: 16x +-20% error reduction per halving of dt.
    errs = []
    for dt in (0.1, 0.05, 0.025):
        x, t = np.array([1.0]), 0.0
        while t < 1.0 - 1e-12:
            x = rk4_step(lambda x: x, x, dt)
            t += dt
        errs.append(abs(x[0] - math.e))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    order_ok = all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in ratios)

    ok = (res2 < 1e-8 and res8 < 1e-8 and hurwitz2 and hurwitz8
          and qp_err <= 1e-7 and order_ok)
    report(2, ok, f"CARE residuals {res2:.1e}/{res8:.1e}, QP vs oracle "
                  f"{qp_err:.1e} over 1000 instances, RK4 ratios "
                  f"{ratios[0]:.1f}/{ratios[1]:.1f}")


def test_criterion_03_circle_tracking(circle_fbl_log, circle_clfqp_log):
    m = circle_fbl_log.metrics
    fbl_ok = (m["rms_err_x"] < 0.05 and m["rms_err_y"] < 0.05
              and m["rms_err_z"] < 0.02)

    log = circle_clfqp_log
    u_min = np.asarray(P.u_min)
    u_max = np.asarray(P.u_max)
    bounds_ok = (np.all(log.u >= u_min - 1e-9)
                 and np.all(log.u <= u_max + 1e-9)
                 and not log.clamped.any())

    # Reconstruct the CLF value along the run.  The reference derivatives
    # for the attitude channels replay the same backward-difference stream
    # the controller saw; the first two samples are its startup ramp and
    # carry no derivative information, so the decrease check starts at the
    # third.
    clf = setup_output_clf(1.0)
    dt = log.dt
    diff = SetpointDifferentiator(dt)
    n = log.t.size
    V = np.zeros(n)
    for i in range(n):
        qd_dot, _ = diff.update(log.q_d[i])
        q = log.quad[i, 6:9]
        y = np.array([log.quad[i, 2], *q])
        y_d = np.array([log.ref_pos[i, 2], *log.q_d[i]])
        y_dot = np.concatenate([[log.quad[i, 5]],
                                euler_rate_matrix(q) @ log.quad[i, 9:12]])
        y_d_dot = np.concatenate([[0.0], qd_dot])
        eta = np.concatenate([y - y_d, y_dot - y_d_dot])
        V[i] = eta @ clf.P @ eta
    V_dot = np.diff(V) / dt
    viol = float(np.max(V_dot[2:] + clf.c3 * V[2:-1]))
    decrease_ok = viol <= 1e-3

    ok = fbl_ok and bounds_ok and decrease_ok
    report(3, ok, f"fbl tail RMS ({m['rms_err_x']:.2e}, {m['rms_err_y']:.2e}, "
                  f"{m['rms_err_z']:.2e}) m, clf-qp bound violations "
                  f"{int(log.clamped.sum())}, worst decrease margin "
                  f"{viol:.2e}")


def test_criterion_04_noise_comparison():
    def run(controller, seed):
        gains = {}
        sc = load_scenarios(
            shipped_scenario_path("fig5a-noise-fbl.scn"
                                  if controller == "fbl-tracker"
                                  else "fig5b-noise-clfqp.scn"),
            seed=seed)[0]
        log = run_scenario(sc)
        m = log.metrics
        return math.sqrt(m["rms_err_x"] ** 2 + m["rms_err_y"] ** 2
                         + m["rms_err_z"] ** 2)

    wins = 0
    pairs = []
    for seed in range(10):
        fbl = run("fbl-tracker", seed)
        clfqp = run("clf-qp", seed)
        pairs.append((fbl, clfqp))
        wins += fbl <= clfqp
    ok = wins >= 8
    report(4, ok, f"fbl beat clf-qp on {wins}/10 seeds; mean RMS "
                  f"{np.mean([p[0] for p in pairs]):.4f} vs "
                  f"{np.mean([p[1] for p in pairs]):.4f} m")


@pytest.mark.xfail(raises=AssertionError, reason=(
    "ROADMAP item 4: fig5b diverges under some noise "
    "seeds; at seed 3 the pitch reaches -pi/2 at t = 3.442 s"))
def test_fig5b_noise_seed_3_finishes():
    sc, = load_scenarios(shipped_scenario_path("fig5b-noise-clfqp.scn"),
                         seed=3)
    log = run_scenario(sc)
    assert not log.aborted, log.abort_reason


def test_criterion_05_pendulum_balance(balance_logs):
    xi, xi_prime = balance_logs
    details = {}
    for name, log in (("xi", xi), ("xi-prime", xi_prime)):
        r = np.linalg.norm(log.pend[:, 0:2], axis=1)
        tail = r[log.t >= 5.0]
        details[name] = {
            "converged": float(np.max(tail)),
            "peak_offset": log.metrics["peak_pend_offset"],
            "peak_accel": log.metrics["peak_cmd_accel"],
        }
    d_xi, d_xp = details["xi"], details["xi-prime"]
    ok = (d_xi["converged"] < 1e-3 and d_xp["converged"] < 1e-3
          and d_xi["peak_offset"] <= d_xp["peak_offset"]
          and d_xi["peak_accel"] <= d_xp["peak_accel"])
    report(5, ok, f"offset after 5 s {d_xi['converged']:.1e}/"
                  f"{d_xp['converged']:.1e} m; peaks xi "
                  f"{d_xi['peak_offset']:.4f} m, {d_xi['peak_accel']:.2f} "
                  f"m/s^2 vs xi' {d_xp['peak_offset']:.4f} m, "
                  f"{d_xp['peak_accel']:.2f} m/s^2")


def test_criterion_06_pendulum_circle():
    log = run_shipped("fig7-pend-circle.scn")
    m = log.metrics
    radius = 0.1
    rms_rel = math.hypot(m["rms_pend_a"], m["rms_pend_b"]) / radius
    ok = not log.aborted and rms_rel < 0.10
    report(6, ok, f"tail RMS pendulum error {100 * rms_rel:.4f}% of the "
                  f"{radius} m reference radius")


def test_criterion_07_zero_dynamics_drift(drift_logs):
    xi_prime, lqr = drift_logs
    r_xp = np.linalg.norm(xi_prime.quad[:, 0:2], axis=1)
    r_lqr = np.linalg.norm(lqr.quad[:, 0:2], axis=1)
    peak_xp = float(np.max(r_xp[xi_prime.t <= 5.0]))
    peak_lqr = float(np.max(r_lqr[lqr.t <= 5.0]))
    drift_ratio = float(r_xp[-1]) / peak_xp
    bound_ratio = float(np.max(r_lqr)) / peak_lqr
    ok = drift_ratio > 10.0 and bound_ratio < 2.0
    report(7, ok, f"xi' drift ratio {drift_ratio:.1f} (final "
                  f"{r_xp[-1]:.1f} m), pend-lqr bound ratio "
                  f"{bound_ratio:.2f} (peak {np.max(r_lqr):.3f} m)")


def test_criterion_08_combined_setpoint(balance_logs):
    log = run_shipped("fig8-combined-setpoint.scn")
    m = log.metrics
    settled = all(m[f"settle_{ax}"] is not None for ax in "xyz")
    overshoots = m["overshoot_a"]
    balance_overshoots = balance_logs[0].metrics["overshoot_a"]
    ok = settled and overshoots >= 1 and balance_overshoots == 0
    report(8, ok, f"settle times ({m['settle_x']}, {m['settle_y']}, "
                  f"{m['settle_z']}) s, a(t) sign changes {overshoots} "
                  f"(balance run: {balance_overshoots})")


def test_criterion_09_combined_circle():
    log = run_shipped("fig9-combined-circle.scn")
    m = log.metrics
    L = 0.5
    peak = m["peak_pend_offset"]
    ok = (not log.aborted and m["rms_err_x"] < 0.1 and m["rms_err_y"] < 0.1
          and m["rms_err_z"] < 0.1 and peak <= 0.3 * L)
    report(9, ok, f"tail RMS ({m['rms_err_x']:.3f}, {m['rms_err_y']:.3f}, "
                  f"{m['rms_err_z']:.1e}) m, peak pendulum offset "
                  f"{peak:.4f} m <= {0.3 * L} m")


def test_criterion_10_determinism(tmp_path):
    name = "fig5a-noise-fbl.scn"
    rc_a = main(["run", name, "--out", str(tmp_path / "a"), "--seed", "42"])
    rc_b = main(["run", name, "--out", str(tmp_path / "b"), "--seed", "42"])
    files = ["fig5a-noise-fbl.csv", "fig5a-noise-fbl.metrics.json"]
    identical = all((tmp_path / "a" / f).read_bytes()
                    == (tmp_path / "b" / f).read_bytes() for f in files)
    ok = rc_a == 0 and rc_b == 0 and identical
    report(10, ok, f"reruns byte-identical: {identical}")

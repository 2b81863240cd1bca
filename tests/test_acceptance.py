"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
the whole module takes a few minutes (Monte Carlo criteria dominate).
"""

import math

import numpy as np
import pytest

import helpers
from stochpid import (
    GainVector,
    NotNegativeDefinite,
    SimConfig,
    bench3,
    bound_constants,
    bound_envelope,
    build_P,
    chain,
    char_coeffs,
    check_inequality,
    companion,
    is_hurwitz,
    lambda_gains,
    nie_stable,
    ou,
    routh_hurwitz,
    simulate_paths,
    solve_equilibrium,
    verify_certificate,
)

BENCH = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
L_BENCH = math.sqrt(3.0) / 2.0


def report(num, name, ok, detail=""):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def admissible_sweep():
    rng = np.random.default_rng(20240817)
    samples = []
    for n in range(1, 7):
        for _ in range(1000):
            samples.append(helpers.sample_admissible(rng, n))
    return samples


def test_criterion_1_design_reproduction():
    def pattern(k):
        return GainVector("pid", np.array([k, 2.5 * k, 2.5 * k, k]))

    r_hi = check_inequality(pattern(8.6), L_BENCH, 0.0)
    r_lo = check_inequality(pattern(8.5), L_BENCH, 0.0)
    margin_exact = abs(r_hi.margin - (52.46 - L_BENCH * 60.2)) <= 1e-9
    threshold = (5.0 + 7.0 * math.sqrt(3.0)) / 2.0
    ok = (
        r_hi.admissible
        and not r_lo.admissible
        and margin_exact
        and check_inequality(pattern(threshold * 1.0001), L_BENCH, 0.0).admissible
        and not check_inequality(pattern(threshold * 0.9999), L_BENCH, 0.0).admissible
    )
    report(1, "benchmark design reproduction", ok,
           f"margin@8.6={r_hi.margin:.9f}, threshold={threshold:.4f}")


def test_criterion_2_certificate_soundness(admissible_sweep):
    # eigvalsh (after an inertia-preserving scaling) is the independent
    # oracle: the library decides condition (ii) without an eigen-solve
    failures = 0
    for g, L, M in admissible_sweep:
        P = build_P(g)
        A = companion(g)
        S = P @ A + A.T @ P
        off = S - np.diag(np.diag(S))
        kbar = float(np.sum(g.gains) * L + g.gains[-1] * M ** 2)
        eig_P = helpers.congruent_eigvalsh(P)
        neg = S + 2.0 * kbar * np.eye(P.shape[0])
        eig_neg = helpers.congruent_eigvalsh(0.5 * (neg + neg.T))
        if (
            eig_P[0] <= 0.0
            or np.abs(off).max() >= 1e-12 * np.linalg.norm(P)
            or eig_neg[-1] >= 0.0
        ):
            failures += 1
    report(2, "certificate soundness sweep", failures == 0,
           f"{len(admissible_sweep)} admissible gain vectors, {failures} counterexamples")


def test_criterion_3_hurwitz_soundness(admissible_sweep):
    failures = 0
    decisive = 0
    skipped = 0

    for g, L, M in admissible_sweep:
        if not is_hurwitz(g):  # admissible must imply Hurwitz, oracle or not
            failures += 1
            continue
        oracle = helpers.certified_stability(char_coeffs(g))
        if oracle is None:  # outside the oracle's certifiable range
            skipped += 1
            continue
        decisive += 1
        if oracle is False:
            failures += 1

    rng = np.random.default_rng(99)
    for _ in range(1000):
        deg = int(rng.integers(3, 9))
        coeffs = 10.0 ** rng.uniform(-1.0, 1.3, deg + 1)
        oracle = helpers.certified_stability(coeffs)
        if oracle is None:
            skipped += 1
            continue
        decisive += 1
        if routh_hurwitz(coeffs) != oracle:
            failures += 1
        if deg >= 5 and nie_stable(coeffs) and not oracle:
            failures += 1  # sufficient test may never claim a false stable

    ok = failures == 0 and decisive >= 5000
    report(3, "hurwitz soundness vs root oracle", ok,
           f"{decisive} decisive cases, {skipped} oracle-indeterminate, "
           f"{failures} contradictions")


def test_criterion_4_zero_noise_convergence():
    plant = bench3(a=0.4, b=-0.3, c=0.5, d=6.0, mu=5.2, sigma=0.0)
    sp = solve_equilibrium(plant, 1.0)
    cfg = SimConfig(dt=1e-3, horizon=30.0, paths=100, seed=1, record_stride=50,
                    controller="pid", x0=np.array([0.9, 0.0, 0.1]))
    stats = simulate_paths(plant, sp, BENCH, cfg, workers=2)
    final = float(stats.mean_sq_error[-1])
    mask = (stats.times >= 15.0) & (stats.mean_sq_error > 0.0)
    slope = float(np.polyfit(stats.times[mask], np.log(stats.mean_sq_error[mask]), 1)[0])
    ok = final < 1e-6 and slope < 0.0
    report(4, "zero-noise exponential convergence", ok,
           f"E|e(30)|^2={final:.3e}, fitted decay rate={-slope:.3f}")


def test_criterion_5_envelope():
    g, _ = lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.4, 0.1], k=4000.0)
    assert np.allclose(g.gains, [4000.0, 1600.0, 160.0])
    bc = bound_constants(g, 1.0, 0.0, 0.0, 1.0)
    assert bc.decay_coeff == pytest.approx(20000.0)
    assert bc.floor_coeff == pytest.approx(8.0)

    details = []
    ok = True
    for sigma in (0.1, 0.2):
        plant = chain(2, sigma=sigma)
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=1e-3, horizon=15.0, paths=20000, seed=31, record_stride=10,
                        controller="pid", x0=np.zeros(2))
        stats = simulate_paths(plant, sp, g, cfg, workers=2)
        rep = bound_envelope(stats, bc, initial_dev=1.0, u_star_norm=0.0,
                             g_norm_at_zstar=sigma)
        ok = ok and rep.upper_ok and rep.lower_ok
        details.append(
            f"sigma={sigma}: violations={rep.violations.size}, "
            f"tail={rep.tail_estimate:.2e} >= {rep.lower_bound:.2e}"
        )
    report(5, "tracking-error envelope (upper and lower)", ok, "; ".join(details))


def test_criterion_6_noise_floor_scaling():
    steady = {}
    var_u = {}
    for sigma in (0.0, 0.2, 0.4):
        plant = bench3(a=0.4, b=-0.3, c=0.5, d=6.0, mu=5.2, sigma=sigma)
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=1e-3, horizon=30.0, paths=6000, seed=60, record_stride=50,
                        controller="pid", x0=np.array([0.9, 0.0, 0.1]))
        stats = simulate_paths(plant, sp, BENCH, cfg, workers=2)
        mask = stats.times >= 20.0
        steady[sigma] = float(np.mean(stats.mean_sq_error[mask]))
        var_u[sigma] = float(np.mean(stats.var_u[mask]))
    ratio = steady[0.4] / steady[0.2]
    monotone = var_u[0.0] < var_u[0.2] < var_u[0.4]
    ok = 2.5 <= ratio <= 6.0 and monotone
    report(6, "noise-floor scaling and input variance", ok,
           f"ratio={ratio:.2f} in [2.5, 6], Var(u) {var_u[0.0]:.2e} < "
           f"{var_u[0.2]:.2e} < {var_u[0.4]:.2e}")


def test_criterion_7_pid_vs_pd_offset():
    plant = chain(2, sigma=0.0, bias=6.0)
    sp = solve_equilibrium(plant, 1.0)

    pd_cfg = SimConfig(dt=1e-3, horizon=20.0, paths=1, seed=1, record_stride=1000,
                       controller="pd", x0=np.zeros(2))
    pd_stats = simulate_paths(plant, sp, GainVector("pd", np.array([3.0, 4.0])), pd_cfg)
    pd_offset = math.sqrt(float(pd_stats.mean_sq_error[-1]))

    pid_cfg = SimConfig(dt=1e-3, horizon=40.0, paths=1, seed=1, record_stride=1000,
                        controller="pid", x0=np.zeros(2))
    pid_stats = simulate_paths(plant, sp, GainVector("pid", np.array([1.0, 3.0, 4.0])), pid_cfg)
    pid_offset = math.sqrt(float(pid_stats.mean_sq_error[-1]))

    ok = abs(pd_offset - 2.0) <= 0.02 and pid_offset < 1e-6
    report(7, "integral action removes the steady offset", ok,
           f"PD |e|={pd_offset:.6f} (target 2 within 1%), PID |e|={pid_offset:.2e}")


def test_criterion_8_simulator_oracle_and_determinism():
    plant = ou(theta=1.0, sigma=1.0)
    sp = solve_equilibrium(plant, 0.0)
    cfg = SimConfig(dt=1e-3, horizon=6.0, paths=100_000, seed=8, record_stride=500,
                    controller="open_loop")
    stats = simulate_paths(plant, sp, None, cfg, workers=2)
    target = 0.5
    err = abs(float(stats.mean_sq_state_dev[-1]) - target)
    tol = 3.0 * float(stats.stderr_sq_state_dev[-1]) + 2.0 * cfg.dt
    moment_ok = err < tol

    small = SimConfig(dt=1e-3, horizon=0.5, paths=9000, seed=8, record_stride=50,
                      controller="open_loop")
    runs = [simulate_paths(plant, sp, None, small, workers=w) for w in (1, 2, 4)]
    fields = (
        "times", "mean_sq_error", "stderr_sq_error", "mean_sq_state_dev",
        "stderr_sq_state_dev", "mean_sq_u", "stderr_sq_u", "var_u", "stderr_var_u",
    )
    identical = all(
        np.array_equal(getattr(runs[0], f), getattr(r, f))
        for r in runs[1:]
        for f in fields
    )
    ok = moment_ok and identical
    report(8, "OU stationary moment and bitwise determinism", ok,
           f"|E[x^2]-0.5|={err:.2e} < {tol:.2e}, identical across 1/2/4 workers={identical}")


def test_eigensolver_supporting_invariant():
    # the certificate reports eigenvalues of P and of S = P*A + A'*P + 2*kbar*I
    # (the latter read off the diagonal of S); eigvalsh of the explicit
    # matrices keeps both honest, for certified and rejected gains alike
    rng = np.random.default_rng(3)
    ok = True
    for n in range(1, 9):
        L, M = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        g, _ = lambda_gains(10.0 ** rng.uniform(-1.0, 0.7), L, M, n)
        for L_used in (L, 1e3 * L):  # the second kbar defeats condition (ii)
            P, A = build_P(g), companion(g)
            kbar = float(np.sum(g.gains) * L_used + g.gains[-1] * M ** 2)
            S = P @ A + A.T @ P + 2.0 * kbar * np.eye(P.shape[0])
            eig_P = np.linalg.eigvalsh(P)
            eig_S = np.linalg.eigvalsh(0.5 * (S + S.T))
            tol = 1e-10 * np.linalg.norm(P) * np.linalg.norm(A)
            try:
                cert = verify_certificate(g, L_used, M)
            except NotNegativeDefinite as exc:
                ok = ok and abs(exc.eigenvalue - eig_S[-1]) < tol
                continue
            ok = ok and abs(cert.min_eig_P - eig_P[0]) < 1e-10 * np.linalg.norm(P)
            ok = ok and abs(cert.max_eig_P - eig_P[-1]) < 1e-10 * np.linalg.norm(P)
            ok = ok and abs(cert.min_eig_negdef + eig_S[-1]) < tol
    assert ok

import math

import numpy as np
import pytest

import helpers
from stochpid import (
    DimensionMismatch,
    Diverged,
    GainVector,
    NonFinite,
    PlantSpec,
    SimConfig,
    bench3,
    bound_constants,
    bound_envelope,
    chain,
    controller_pd,
    controller_pid,
    dissipativity_probe,
    em_step,
    generator_eval,
    lambda_gains,
    ou,
    simulate_paths,
    solve_equilibrium,
)
from stochpid.simulate import ClosedLoopState, _chunk_stream, _z_drift

BENCH = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))


def coupled_plant():
    """n = 2, d = 2, m = 2 with a state-dependent, non-diagonal diffusion."""

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        return u - 0.5 * x[..., 0:2] + 0.2 * np.sin(x[..., 2:4])

    def diffusion(x):
        x = np.asarray(x, dtype=float)
        g = np.empty(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 0.3 + 0.1 * np.cos(x[..., 0])
        g[..., 0, 1] = 0.1 * np.tanh(x[..., 3])
        g[..., 1, 0] = 0.05
        g[..., 1, 1] = 0.2 + 0.05 * np.sin(x[..., 1])
        return g

    return PlantSpec(2, 2, 2, drift, diffusion, lipschitz_L=1.0, lipschitz_M=0.2)


def em_reference(plant, sp, g, cfg):
    """Moments and divergence from repeated em_step calls on the kernel's noise.

    One chunk (paths <= 4096) draws its noise from the stream keyed
    (seed, 0), sequentially in (step, noise dimension, path) order.
    Returns (times, E|e|^2, E|x - z*|^2, E|u|^2, Var u) or raises Diverged.
    """
    N, d, dt = cfg.paths, plant.d, cfg.dt
    z = _chunk_stream(cfg.seed, 0).standard_normal((cfg.steps, plant.m, N))
    x0 = sp.z_star if cfg.x0 is None else cfg.x0
    state = ClosedLoopState(x=np.tile(x0, (N, 1)), integral=np.zeros((N, d)), t=0.0)
    law = {"pid": controller_pid, "pd": controller_pd}.get(cfg.controller)
    rows = []
    for s in range(cfg.steps + 1):
        u = np.zeros((N, d)) if law is None else law(state, g, sp.y_star)
        if s % cfg.record_stride == 0:
            dev = state.x - sp.z_star
            u2 = np.sum(u * u, axis=1)
            rows.append((s * dt, np.mean(np.sum(dev[:, :d] ** 2, axis=1)),
                         np.mean(np.sum(dev ** 2, axis=1)), np.mean(u2),
                         np.mean(u2) - np.sum(np.mean(u, axis=0) ** 2)))
        if s < cfg.steps:
            state = em_step(state, plant, u, math.sqrt(dt) * z[s].T, dt, sp.y_star)
    return np.array(rows).T


def stats_fields(stats):
    return (
        stats.times,
        stats.mean_sq_error,
        stats.stderr_sq_error,
        stats.mean_sq_state_dev,
        stats.stderr_sq_state_dev,
        stats.mean_sq_u,
        stats.stderr_sq_u,
        stats.var_u,
        stats.stderr_var_u,
    )


class TestControllers:
    def test_pid_zero_error_zero_output(self):
        plant = bench3()
        sp = solve_equilibrium(plant, 1.0)
        state = ClosedLoopState(x=sp.z_star.copy(), integral=np.zeros(1), t=0.0)
        assert controller_pid(state, BENCH, sp.y_star) == pytest.approx(0.0)

    def test_pid_pure_proportional(self):
        # e = 1, all derivatives and the integral zero: u = k1
        state = ClosedLoopState(x=np.zeros(3), integral=np.zeros(1), t=0.0)
        assert controller_pid(state, BENCH, 1.0)[0] == pytest.approx(21.5)

    def test_pid_full_formula(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            x = rng.standard_normal(3)
            acc = rng.standard_normal(1)
            state = ClosedLoopState(x=x, integral=acc, t=0.0)
            k = BENCH.gains
            e = 1.0 - x[0]
            expected = k[1] * e + k[0] * acc[0] + k[2] * (-x[1]) + k[3] * (-x[2])
            assert controller_pid(state, BENCH, 1.0)[0] == pytest.approx(expected, rel=1e-12)

    def test_pd_examples(self):
        g = GainVector("pd", np.array([3.0, 4.0]))
        state = ClosedLoopState(x=np.zeros(2), integral=np.zeros(1), t=0.0)
        assert controller_pd(state, g, 0.0)[0] == 0.0
        # e = 2, e' = -x2 = -1
        state = ClosedLoopState(x=np.array([-2.0, 1.0]), integral=np.zeros(1), t=0.0)
        assert controller_pd(state, g, 0.0)[0] == pytest.approx(3.0 * 2.0 + 4.0 * -1.0)

    def test_kind_guards(self):
        state = ClosedLoopState(x=np.zeros(2), integral=np.zeros(1), t=0.0)
        with pytest.raises(ValueError):
            controller_pid(state, GainVector("pd", np.array([3.0, 4.0])), 0.0)
        with pytest.raises(ValueError):
            controller_pd(state, GainVector("pid", np.array([1.0, 3.0])), 0.0)


class TestEmStep:
    def test_pure_chain_drift(self):
        plant = chain(3)
        state = ClosedLoopState(x=np.array([1.0, 2.0, 3.0]), integral=np.zeros(1), t=0.0)
        out = em_step(state, plant, np.zeros(1), np.zeros(1), 0.5, y_star=0.0)
        # x1 += x2*dt, x2 += x3*dt, x3 += (u+0)*dt
        assert np.allclose(out.x, [2.0, 3.5, 3.0])
        assert out.integral[0] == pytest.approx(-0.5)  # (y* - x1)*dt
        assert out.t == 0.5

    def test_euler_step_input(self):
        plant = chain(1)
        state = ClosedLoopState(x=np.zeros(1), integral=np.zeros(1), t=0.0)
        out = em_step(state, plant, np.array([2.0]), np.zeros(1), 0.5, y_star=0.0)
        assert out.x[0] == pytest.approx(1.0)

    def test_brownian_variance(self):
        # f = 0, g = sigma: Var(x1) after N steps is sigma^2 * N * dt
        sigma, dt, steps, paths = 0.7, 0.01, 50, 100_000

        def drift(x, u):
            return np.zeros(np.shape(u))

        from stochpid import PlantSpec

        plant = PlantSpec(1, 1, 1, drift, lambda x: np.array([[sigma]]), 0.0, 0.0)
        rng = np.random.default_rng(51)
        state = ClosedLoopState(x=np.zeros((paths, 1)), integral=np.zeros((paths, 1)), t=0.0)
        for _ in range(steps):
            dW = math.sqrt(dt) * rng.standard_normal((paths, 1))
            state = em_step(state, plant, np.zeros((paths, 1)), dW, dt, y_star=0.0)
        target = sigma ** 2 * steps * dt
        sample = state.x[:, 0] ** 2
        stderr = sample.std(ddof=1) / math.sqrt(paths)
        assert abs(sample.mean() - target) < 3.0 * stderr

    def test_divergence_raises(self):
        plant = chain(1)
        state = ClosedLoopState(x=np.array([1e12]), integral=np.zeros(1), t=0.0)
        with pytest.raises(Diverged):
            em_step(state, plant, np.array([1e13]), np.zeros(1), 1.0, y_star=0.0)

    def test_divergence_reports_batch_index(self):
        plant = chain(1)
        x = np.zeros((4, 1))
        x[2, 0] = 9e11
        state = ClosedLoopState(x=x, integral=np.zeros((4, 1)), t=0.0)
        with pytest.raises(Diverged) as info:
            em_step(state, plant, np.full((4, 1), 2e11), np.zeros((4, 1)), 1.0, y_star=0.0)
        assert info.value.path == 2


class TestSimulatePaths:
    def test_deterministic_repeat_and_workers(self):
        plant = ou(1.0, 1.0)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=1e-3, horizon=0.5, paths=6000, seed=3,
                        record_stride=100, controller="open_loop")
        a = simulate_paths(plant, sp, None, cfg, workers=1)
        b = simulate_paths(plant, sp, None, cfg, workers=1)
        c = simulate_paths(plant, sp, None, cfg, workers=4)
        for fa, fb, fc in zip(stats_fields(a), stats_fields(b), stats_fields(c)):
            assert np.array_equal(fa, fb)
            assert np.array_equal(fa, fc)

    def test_zero_noise_matches_rk4_reference(self):
        # explicit Euler error stays O(dt) against a dense RK4 reference
        dt, horizon = 1e-3, 10.0
        gains = np.array([1.0, 3.0, 4.0])
        plant = chain(2, sigma=0.0)
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=dt, horizon=horizon, paths=1, seed=1,
                        record_stride=1, controller="pid", x0=np.array([0.5, -0.2]))
        stats = simulate_paths(plant, sp, GainVector("pid", gains), cfg)
        steps = int(round(horizon / dt))
        fine = 10
        ref = helpers.rk4_closed_loop_chain(gains, 1.0, [0.5, -0.2], dt / fine, steps * fine)
        ref_dev = np.sum((ref[::fine] - sp.z_star) ** 2, axis=1)
        # compare E|x-z*|^2 trajectories pointwise
        err = np.abs(stats.mean_sq_state_dev - ref_dev).max()
        assert err < 10.0 * dt

    def test_ou_stationary_moment(self):
        plant = ou(1.0, 0.8)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=1e-3, horizon=6.0, paths=20000, seed=9,
                        record_stride=1000, controller="open_loop")
        stats = simulate_paths(plant, sp, None, cfg, workers=2)
        target = 0.8 ** 2 / 2.0
        tol = 3.0 * stats.stderr_sq_state_dev[-1] + 2.0 * cfg.dt
        assert abs(stats.mean_sq_state_dev[-1] - target) < tol

    def test_linear_loop_matches_lyapunov_oracle(self):
        # independent oracle: stationary covariance of the shifted closed loop
        # solves A S + S A' = -sigma^2 e e'; EM inflates by O(dt*|A|)
        from scipy.linalg import solve_continuous_lyapunov
        from stochpid import companion

        sigma = 0.2
        g = GainVector("pid", np.array([4000.0, 1600.0, 160.0]))
        A = companion(g)
        Q = np.zeros((3, 3))
        Q[2, 2] = sigma ** 2
        S = solve_continuous_lyapunov(A, -Q)
        exact = S[1, 1] + S[2, 2]  # E|x - z*|^2 = E y1^2 + E y2^2

        plant = chain(2, sigma=sigma)
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=1e-3, horizon=10.0, paths=3000, seed=17,
                        record_stride=500, controller="pid", x0=np.zeros(2))
        stats = simulate_paths(plant, sp, g, cfg, workers=2)
        tail = stats.mean_sq_state_dev[-4:].mean()
        assert 0.7 * exact < tail < 1.4 * exact

    def test_divergence_carries_path_and_time(self):
        # gains violating the cubic stability condition: a2*a1 < a0
        plant = chain(2, sigma=0.1)
        sp = solve_equilibrium(plant, 0.0)
        g = GainVector("pid", np.array([100.0, 1.0, 0.01]))
        cfg = SimConfig(dt=1e-3, horizon=30.0, paths=8, seed=5,
                        record_stride=100, controller="pid", x0=np.array([1.0, 0.0]))
        with pytest.raises(Diverged) as info:
            simulate_paths(plant, sp, g, cfg)
        assert info.value.path is not None
        assert 0.0 < info.value.t <= 30.0

    def test_gain_plant_degree_mismatch(self):
        plant = chain(2)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.1, horizon=1.0, paths=1, seed=1)
        with pytest.raises(ValueError):
            simulate_paths(plant, sp, BENCH, cfg)

    def test_horizon_must_be_a_multiple_of_dt(self):
        with pytest.raises(ValueError, match="multiple"):
            SimConfig(dt=0.3, horizon=1.0, paths=1, seed=1)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, horizon=math.inf, paths=1, seed=1)
        assert SimConfig(dt=1e-3, horizon=30.0, paths=1, seed=1).steps == 30000
        assert SimConfig(dt=0.1, horizon=0.3, paths=1, seed=1).steps == 3

    def test_record_stride_times(self):
        plant = chain(1)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.25, horizon=1.0, paths=2, seed=1,
                        record_stride=2, controller="open_loop")
        stats = simulate_paths(plant, sp, None, cfg)
        assert np.allclose(stats.times, [0.0, 0.5, 1.0])


class TestKernelMatchesEmStep:
    CASES = {
        "pid": (chain(2, sigma=0.3, bias=0.5), GainVector("pid", np.array([2.0, 5.0, 3.0])), 1.0),
        "pd": (bench3(sigma=0.4), GainVector("pd", np.array([21.5, 21.5, 8.6])), 1.0),
        "open_loop": (ou(theta=2.0, sigma=0.7), None, 0.0),
        "coupled": (coupled_plant(), GainVector("pid", np.array([1.0, 4.0, 3.0])), [1.0, -0.5]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_moments_match_to_round_off(self, case):
        # 300 steps cross a noise-block boundary
        plant, g, y_star = self.CASES[case]
        sp = solve_equilibrium(plant, y_star)
        controller = "open_loop" if g is None else g.kind
        x0 = np.linspace(-0.5, 0.5, plant.state_dim)
        cfg = SimConfig(dt=0.01, horizon=3.0, paths=64, seed=40, record_stride=3,
                        controller=controller, x0=x0)
        stats = simulate_paths(plant, sp, g, cfg)
        ref = em_reference(plant, sp, g, cfg)
        got = (stats.times, stats.mean_sq_error, stats.mean_sq_state_dev, stats.mean_sq_u,
               stats.var_u)
        for want, have in zip(ref, got):
            assert have == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_divergence_located_like_em_step(self):
        # an undamped oscillator, x1 = A*cos(w*t) and x2 = -w*A*sin(w*t) with
        # A = 0.9e12 and w*A = 1.1e12: x2 leaves the box at about step 93 and
        # is back inside well before the noise block ends at step 256
        plant = chain(2, sigma=1e9)
        sp = solve_equilibrium(plant, 0.0)
        g = GainVector("pd", np.array([1.5, 1e-6]))
        cfg = SimConfig(dt=0.01, horizon=5.0, paths=40, seed=7, record_stride=10,
                        controller="pd", x0=np.array([0.9e12, 0.0]))
        with pytest.raises(Diverged) as ref:
            em_reference(plant, sp, g, cfg)
        with pytest.raises(Diverged) as got:
            simulate_paths(plant, sp, g, cfg)
        assert got.value.path == ref.value.path
        assert got.value.t == pytest.approx(ref.value.t, rel=1e-12)
        assert 0.8 < got.value.t < 1.0

        # the same loop scaled by 1e-12 never meets the box: its excursion
        # past 1 ends inside the block
        scaled = chain(2, sigma=1e-3)
        state = ClosedLoopState(x=np.tile([0.9, 0.0], (40, 1)), integral=np.zeros((40, 1)), t=0.0)
        z = _chunk_stream(cfg.seed, 0).standard_normal((256, 1, 40))
        peaks = []
        for s in range(256):
            u = controller_pd(state, g, sp.y_star)
            state = em_step(state, scaled, u, 0.1 * z[s].T, 0.01, sp.y_star)
            peaks.append(max(np.abs(state.x).max(), np.abs(state.integral).max()))
        assert max(peaks) > 1.0 > peaks[-1]

    def test_nan_drift_mid_block_raises_non_finite(self):
        def drift(x, u):
            x = np.asarray(x, dtype=float)
            return np.where(x[..., 0:1] > 0.5, np.nan, 1.0) + u

        plant = PlantSpec(1, 1, 1, drift, lambda x: np.array([[0.01]]), 0.0, 0.0)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.01, horizon=2.0, paths=16, seed=3, record_stride=1,
                        controller="open_loop", x0=np.zeros(1))
        with pytest.raises(NonFinite, match="drift"):
            simulate_paths(plant, sp, None, cfg)
        with pytest.raises(NonFinite, match="drift"):
            em_reference(plant, sp, None, cfg)

    def test_second_chunk_draws_from_its_own_stream(self):
        # path 4096 is alone in chunk 1, whose noise stream is keyed (seed, 1);
        # chunk 0 is the same in both runs
        plant = ou(1.0, 1.0)
        sp = solve_equilibrium(plant, 0.0)
        a, b = (simulate_paths(plant, sp, None,
                               SimConfig(dt=0.1, horizon=1.0, paths=paths, seed=2,
                                         record_stride=10, controller="open_loop"))
                for paths in (4096, 4097))
        z = _chunk_stream(2, 1).standard_normal((10, 1, 1))
        state = ClosedLoopState(x=np.zeros((1, 1)), integral=np.zeros((1, 1)), t=0.0)
        for s in range(10):
            state = em_step(state, plant, np.zeros((1, 1)), math.sqrt(0.1) * z[s].T, 0.1, 0.0)
        last = b.mean_sq_state_dev[-1] * 4097 - a.mean_sq_state_dev[-1] * 4096
        assert last == pytest.approx(state.x[0, 0] ** 2, abs=1e-9)


class TestPidVsPdOffset:
    def test_integral_action_removes_offset(self):
        plant = chain(2, sigma=0.0, bias=6.0)
        sp = solve_equilibrium(plant, 1.0)

        pd_cfg = SimConfig(dt=1e-3, horizon=20.0, paths=1, seed=1,
                           record_stride=1000, controller="pd", x0=np.zeros(2))
        pd_stats = simulate_paths(plant, sp, GainVector("pd", np.array([3.0, 4.0])), pd_cfg)
        # PD settles at k1*e = -bias: |e| = 2
        assert math.sqrt(pd_stats.mean_sq_error[-1]) == pytest.approx(2.0, rel=1e-4)

        pid_cfg = SimConfig(dt=1e-3, horizon=40.0, paths=1, seed=1,
                            record_stride=1000, controller="pid", x0=np.zeros(2))
        pid_stats = simulate_paths(plant, sp, GainVector("pid", np.array([1.0, 3.0, 4.0])), pid_cfg)
        assert pid_stats.mean_sq_error[-1] < 1e-12


class TestBoundEnvelope:
    def test_zero_noise_reduces_to_decay(self):
        plant = chain(2, sigma=0.0)
        sp = solve_equilibrium(plant, 1.0)
        g, _ = lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.4, 0.1], k=4000.0)
        cfg = SimConfig(dt=1e-3, horizon=8.0, paths=1, seed=1,
                        record_stride=100, controller="pid", x0=np.zeros(2))
        stats = simulate_paths(plant, sp, g, cfg)
        bc = bound_constants(g, 1.0, 0.0, 0.0, 1.0)
        report = bound_envelope(stats, bc, initial_dev=1.0, u_star_norm=0.0,
                                g_norm_at_zstar=0.0)
        assert report.upper_ok
        assert report.lower_bound == 0.0
        assert report.lower_ok
        # envelope is the pure exponential here
        assert np.allclose(report.upper, 20000.0 * np.exp(-stats.times))

    def test_violations_reported_not_raised(self):
        plant = chain(2, sigma=0.3)
        sp = solve_equilibrium(plant, 1.0)
        g, _ = lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.4, 0.1], k=4000.0)
        cfg = SimConfig(dt=1e-3, horizon=4.0, paths=500, seed=2,
                        record_stride=100, controller="pid", x0=np.zeros(2))
        stats = simulate_paths(plant, sp, g, cfg)
        bc = bound_constants(g, 1.0, 0.0, 0.0, 1.0)
        shrunk = type(bc)(
            decay_coeff=0.0, floor_coeff=0.0, rate=1.0,
            floor_lower_coeff=bc.floor_lower_coeff,
        )
        report = bound_envelope(stats, shrunk, 1.0, 0.0, 0.3)
        assert not report.upper_ok
        assert report.violations.size > 0


class TestDissipativityProbe:
    def test_admissible_design_all_nonpositive(self):
        plant = chain(2)
        sp = solve_equilibrium(plant, 1.0)
        g, betas = lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.4, 0.1], k=4000.0)
        report = dissipativity_probe(plant, sp, g, betas, 1.0, 0.0,
                                     samples=10000, radius=1.0, seed=5)
        assert report.violations == 0
        assert report.worst_margin <= 0.0
        assert report.threshold == pytest.approx(0.5)

    def test_drift_vanishes_at_origin(self):
        plant = chain(2)
        sp = solve_equilibrium(plant, 1.0)
        g, betas = lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.4, 0.1], k=4000.0)
        b = _z_drift(plant, sp, g.gains[0], np.asarray(betas), np.zeros((1, 3)))
        assert np.allclose(b, 0.0, atol=1e-12)

    def test_weak_gains_report_positive_margins(self):
        plant = chain(2)
        sp = solve_equilibrium(plant, 1.0)
        g = GainVector("pid", np.array([50.0, 20.0, 2.0]))
        report = dissipativity_probe(plant, sp, g, [0.4, 0.1], 1.0, 0.0,
                                     samples=4000, radius=1.0, seed=5)
        assert report.violations > 0
        assert report.worst_margin > 0.0

    def test_mismatched_ratio_pattern_rejected(self):
        plant = chain(2)
        sp = solve_equilibrium(plant, 1.0)
        g = GainVector("pid", np.array([4000.0, 1600.0, 100.0]))
        with pytest.raises(ValueError):
            dissipativity_probe(plant, sp, g, [0.4, 0.1], 1.0, 0.0, samples=10)

    def test_nonlinear_plant_dissipative_inside_class(self):
        # drift with true L = 0.3 <= asserted design L
        from stochpid import expression_plant

        plant = expression_plant(2, "0.3*sin(x1) + u", "0", L=0.3, M=0.0)
        sp = solve_equilibrium(plant, 0.5)
        g, betas = lambda_gains(1.0, 0.3, 0.0, 2)
        report = dissipativity_probe(plant, sp, g, betas, 1.0, 0.0,
                                     samples=6000, radius=2.0, seed=6)
        assert report.violations == 0


class TestGeneratorEval:
    def test_trace_only(self):
        sigma = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        val = generator_eval(np.eye(3), np.zeros(3), sigma, np.zeros(3))
        assert val == pytest.approx(np.sum(sigma * sigma))

    def test_linear_drift(self):
        pt = np.array([1.0, -2.0, 0.5])
        val = generator_eval(np.eye(3), -pt, np.zeros((3, 1)), pt)
        assert val == pytest.approx(-2.0 * np.dot(pt, pt))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            N, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            V = rng.standard_normal((N, N))
            V = 0.5 * (V + V.T)
            b = rng.standard_normal(N)
            sigma = rng.standard_normal((N, m))
            pt = rng.standard_normal(N)

            def quad(x):
                return float(x @ V @ x)

            # h balances second-difference round-off (eps/h^2) vs truncation
            h = 1e-4
            grad = np.array([
                (quad(pt + h * e) - quad(pt - h * e)) / (2 * h) for e in np.eye(N)
            ])
            hess = np.empty((N, N))
            for i in range(N):
                for j in range(N):
                    pp = quad(pt + h * np.eye(N)[i] + h * np.eye(N)[j])
                    pm = quad(pt + h * np.eye(N)[i] - h * np.eye(N)[j])
                    mp = quad(pt - h * np.eye(N)[i] + h * np.eye(N)[j])
                    mm = quad(pt - h * np.eye(N)[i] - h * np.eye(N)[j])
                    hess[i, j] = (pp - pm - mp + mm) / (4 * h * h)
            expected = grad @ b + 0.5 * np.trace(sigma.T @ hess @ sigma)
            assert generator_eval(V, b, sigma, pt) == pytest.approx(expected, rel=1e-6, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            generator_eval(np.eye(3), np.zeros(2), np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            generator_eval(np.eye(3), np.zeros(3), np.zeros((2, 1)), np.zeros(3))

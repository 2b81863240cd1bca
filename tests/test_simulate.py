import dataclasses
import itertools
import math

import numpy as np
import pytest

import helpers
import stochpid.plants
from stochpid import (
    Diverged,
    EnsembleStats,
    GainVector,
    NonFinite,
    PlantSpec,
    SimConfig,
    bench3,
    bound_constants,
    bound_envelope,
    chain,
    expression_plant,
    lambda_gains,
    ou,
    simulate_paths,
    solve_equilibrium,
)
from helpers import ClosedLoopState, em_step
from stochpid.lyapunov import companion
from stochpid.model import _Terms
from stochpid.simulate import _chunk_stream, _closed_loop, _control_law, _law_weights

BENCH = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
BENCH_DRIFT = "0.4*sin(x1) - 0.3*x2 + 0.5*x3 + 6 + u + 5.2*tanh(u)"


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


def non_square_noise_plant(d: int, m: int) -> PlantSpec:
    """A constant (d, m) diffusion: d = 1, m = 2 with a residual drift, or
    d = 2, m = 1 with an affine-only, coupled drift."""
    if d == 1:
        return PlantSpec(2, 1, 2, lambda x, u: 0.3 * np.sin(np.asarray(x)[..., 0:1]),
                         lambda x: np.array([[0.3, -0.2]]), lipschitz_L=0.8, lipschitz_M=0.0,
                         affine=[[0.5, -0.4, -0.2, 1.0]])
    return PlantSpec(1, 2, 1, None, lambda x: np.array([[0.2], [0.1]]), lipschitz_L=0.6,
                     lipschitz_M=0.0, gain_lower_b=0.9,
                     affine=[[0.1, -0.5, 0.2, 1.0, 0.1], [0.0, 0.1, -0.3, 0.0, 1.0]])


def em_reference(plant, sp, g, cfg):
    """Moments and divergence from repeated em_step calls on the kernel's noise.

    Chunk c of 4096 paths draws its noise from the stream keyed (seed, c),
    sequentially in (step, noise dimension, path) order.  Returns the
    columns of ``EnsembleStats.table()``, each standard error computed in two
    passes over all paths; the one of Var u is the delta-method standard
    error, that of the mean of |u|^2 - 2 (E u).u.  Raises Diverged.
    """
    N, d, dt = cfg.paths, plant.d, cfg.dt
    z = np.concatenate([_chunk_stream(cfg.seed, c).standard_normal((cfg.steps, plant.m, size))
                        for c, size in enumerate(np.diff(np.r_[0:N:4096, N]))], axis=2)
    x0 = sp.z_star if cfg.x0 is None else cfg.x0
    state = ClosedLoopState(x=np.tile(x0, (N, 1)), integral=np.zeros((N, d)), t=0.0)
    K = None if cfg.controller == "open_loop" else _control_law(g, sp.y_star)

    def mean_and_stderr(v):
        return np.mean(v), np.std(v, ddof=1) / math.sqrt(N)

    rows = []
    for s in range(cfg.steps + 1):
        u = np.zeros((N, d)) if K is None else helpers.law_input(state) @ K.T
        if s % cfg.record_stride == 0:
            dev = state.x - sp.z_star
            u2 = np.sum(u * u, axis=1)
            h = u2 - 2.0 * u @ np.mean(u, axis=0)
            rows.append((s * dt, *mean_and_stderr(np.sum(dev[:, :d] ** 2, axis=1)),
                         *mean_and_stderr(np.sum(dev ** 2, axis=1)), *mean_and_stderr(u2),
                         np.mean(u2) - np.sum(np.mean(u, axis=0) ** 2), mean_and_stderr(h)[1]))
        if s < cfg.steps:
            state = em_step(state, plant, u, math.sqrt(dt) * z[s].T, dt, sp.y_star)
    return np.array(rows).T


class TestControllers:
    """The control law u = K @ [1; integral; x] against its closed form."""

    def test_pid_zero_error_zero_output(self):
        plant = bench3()
        sp = solve_equilibrium(plant, 1.0)
        state = ClosedLoopState(x=sp.z_star.copy(), integral=np.zeros(1), t=0.0)
        K = _control_law(BENCH, sp.y_star)
        assert K @ helpers.law_input(state) == pytest.approx(0.0)

    def test_pid_pure_proportional(self):
        # e = 1, all derivatives and the integral zero: u = k1
        state = ClosedLoopState(x=np.zeros(3), integral=np.zeros(1), t=0.0)
        assert (_control_law(BENCH, 1.0) @ helpers.law_input(state))[0] == pytest.approx(21.5)

    def test_pid_full_formula(self):
        rng = np.random.default_rng(50)
        K = _control_law(BENCH, 1.0)
        for _ in range(20):
            x = rng.standard_normal(3)
            acc = rng.standard_normal(1)
            state = ClosedLoopState(x=x, integral=acc, t=0.0)
            k = BENCH.gains
            e = 1.0 - x[0]
            expected = k[1] * e + k[0] * acc[0] + k[2] * (-x[1]) + k[3] * (-x[2])
            assert (K @ helpers.law_input(state))[0] == pytest.approx(expected, rel=1e-12)

    def test_pd_examples(self):
        K = _control_law(GainVector("pd", np.array([3.0, 4.0])), 0.0)
        state = ClosedLoopState(x=np.zeros(2), integral=np.zeros(1), t=0.0)
        assert (K @ helpers.law_input(state))[0] == 0.0
        # e = 2, e' = -x2 = -1
        state = ClosedLoopState(x=np.array([-2.0, 1.0]), integral=np.zeros(1), t=0.0)
        assert (K @ helpers.law_input(state))[0] == pytest.approx(3.0 * 2.0 + 4.0 * -1.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_certified_matrix_is_the_simulated_loop(self, n):
        # under the law, the homogeneous part of the chain loop the engine steps is the
        # companion matrix the certificate reads; PID's integral coordinate enters negated
        plant = chain(n, sigma=0.3, bias=0.5)
        sp = solve_equilibrium(plant, 0.7)
        A, _ = _closed_loop(plant, sp.y_star, np.eye(1))
        S = n + 2  # rows of [1; integral; x]
        rng = np.random.default_rng(n)
        pid = GainVector("pid", rng.uniform(0.5, 20.0, n + 1))
        A_cl = A[:, :S] + A[:, S:S + 1] @ _law_weights("pid", pid, plant, sp.y_star)
        sign = np.r_[-1.0, np.ones(n)]
        assert np.array_equal(A_cl[1:, 1:] * np.outer(sign, sign), companion(pid))
        pd = GainVector("pd", rng.uniform(0.5, 20.0, n))
        A_cl = A[:, :S] + A[:, S:S + 1] @ _law_weights("pd", pd, plant, sp.y_star)
        assert np.array_equal(A_cl[2:, 2:], companion(pd))
        assert not A_cl[2:, 1].any()  # PD leaves the integral out of the chain


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
        assert np.array_equal(a.table(), b.table())
        assert np.array_equal(a.table(), c.table())
        with pytest.raises(ValueError, match="workers: expected a positive integer, got 0"):
            simulate_paths(plant, sp, None, cfg, workers=0)

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
        # relative degree 3 on a degree-2 plant, PD gains for the PID controller, and none
        for gains, match in ((BENCH, r"^gains\.gains: expected 3 pid gains for relative degree 2, "
                                     "got 4$"),
                             (GainVector("pd", np.array([3.0, 4.0])),
                              "^gains.kind: expected pid gains for the pid controller, got pd$"),
                             (None, "^gains: required section")):
            with pytest.raises(ValueError, match=match):
                simulate_paths(plant, sp, gains, cfg)

    def test_x0_must_fit_the_plant(self):
        plant = chain(2)
        cfg = SimConfig(dt=0.1, horizon=1.0, paths=1, seed=1, controller="open_loop",
                        x0=np.zeros(3))
        with pytest.raises(ValueError, match=r"^x0: expected shape \(2,\), got \(3,\)$"):
            simulate_paths(plant, solve_equilibrium(plant, 0.0), None, cfg)

    def test_horizon_must_be_a_multiple_of_dt(self):
        with pytest.raises(ValueError,
                           match=r"^horizon: expected an integer multiple of dt=0\.3, got 1\.0$"):
            SimConfig(dt=0.3, horizon=1.0, paths=1, seed=1)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, horizon=math.inf, paths=1, seed=1)
        # an infinite step count, and one so large that every float is an integer multiple
        for dt, horizon in ((5e-324, 1e300), (1e-300, 1.0)):
            with pytest.raises(ValueError,
                               match=r"^horizon: expected at most 2\*\*53 steps of dt="):
                SimConfig(dt=dt, horizon=horizon, paths=1, seed=1)
        assert SimConfig(dt=1.0, horizon=2.0 ** 53, paths=1, seed=1).steps == 2 ** 53
        assert SimConfig(dt=1e-3, horizon=30.0, paths=1, seed=1).steps == 30000
        assert SimConfig(dt=0.1, horizon=0.3, paths=1, seed=1).steps == 3

    def test_seed_must_fit_64_bits(self):
        # the seed is the run entropy of each chunk's SeedSequence, taken as is
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError,
                               match=r"^seed: expected an integer in \[0, 2\*\*64\), got "):
                SimConfig(dt=0.1, horizon=1.0, paths=1, seed=seed)
        cfg = SimConfig(dt=0.1, horizon=1.0, paths=1, seed=2 ** 64 - 1, controller="open_loop")
        assert cfg.seed == 2 ** 64 - 1
        plant = ou(1.0, 1.0)
        stats = simulate_paths(plant, solve_equilibrium(plant, 0.0), None, cfg)
        assert np.all(np.isfinite(stats.table()))
        # the largest seed keys a stream for chunk indices far beyond any run
        for chunk in (2 ** 32, 2 ** 63):
            assert np.all(np.isfinite(_chunk_stream(2 ** 64 - 1, chunk).standard_normal(4)))

    def test_chunk_streams_are_keyed_apart(self):
        # SeedSequence([seed, chunk]) reads both pairs as the 32-bit words [5, 7]
        # (a missing word is zero) and would draw the same normals for both
        a = _chunk_stream(5, 7).standard_normal(8)
        assert not np.array_equal(a, _chunk_stream(5 + 7 * 2 ** 32, 0).standard_normal(8))
        assert not np.array_equal(a, _chunk_stream(5, 8).standard_normal(8))
        assert np.array_equal(a, _chunk_stream(5, 7).standard_normal(8))
        # the stream of chunk c is the c-th spawned child of the run's SeedSequence
        child = np.random.SeedSequence(5).spawn(8)[7]
        assert np.array_equal(a, np.random.Generator(np.random.SFC64(child)).standard_normal(8))

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.9), ("paths", 4.7), ("record_stride", 2.5), ("dt", "0.1"),
        ("horizon", True), ("x0", ["0"]),
        ("record_stride", 3),  # does not divide the 10 steps: the last record would be t = 0.9
        ("dt", 0.0), ("dt", 2.0),  # 0 < dt <= horizon
        ("controller", "pi"),
    ])
    def test_values_of_the_wrong_type_are_named(self, field, value):
        # nothing is truncated or read from text: a seed of 1.9 once ran as seed 1
        args = {"dt": 0.1, "horizon": 1.0, "paths": 1, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field}: "):
            SimConfig(**args)

    def test_numbers_are_stored_as_float_and_int(self):
        cfg = SimConfig(dt=0.1, horizon=1, paths=np.int64(4), seed=4.0)
        assert type(cfg.paths) is int and type(cfg.seed) is int and cfg.paths == 4
        assert type(cfg.horizon) is float and cfg.horizon == 1.0

    def test_record_stride_times(self):
        plant = chain(1)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.25, horizon=1.0, paths=2, seed=1,
                        record_stride=2, controller="open_loop")
        stats = simulate_paths(plant, sp, None, cfg)
        assert np.allclose(stats.times, [0.0, 0.5, 1.0])

    def test_noise_free_spreads_are_round_off(self):
        # every path is the same, so each spread is that of equal values: exactly
        # zero, where a rounded one-pass chunk mean left up to 1.3e-19 in
        # stderr_sq_error and 4.9e-32 in var_u; 5000 paths are a full chunk and a
        # narrow one, merged
        plant = bench3(sigma=0.0)
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=1e-3, horizon=0.5, paths=5000, seed=7, record_stride=50,
                        controller="pid", x0=np.array([0.9, 0.0, 0.1]))
        spreads = [2, 4, 6, 7, 8]  # the stderr_* and var_u columns
        assert np.all(simulate_paths(plant, sp, BENCH, cfg, workers=2).table()[:, spreads] == 0.0)
        # every path starts at x0, so the first record has no spread under noise either
        noisy = simulate_paths(bench3(sigma=0.2), sp, BENCH, cfg, workers=2).table()
        assert np.all(noisy[0, spreads] == 0.0) and np.all(noisy[1:, spreads] > 0.0)


class TestKernelMatchesEmStep:
    CASES = {
        "pid": (chain(2, sigma=0.3, bias=0.5), GainVector("pid", np.array([2.0, 5.0, 3.0])), 1.0),
        "pd": (bench3(sigma=0.4), GainVector("pd", np.array([21.5, 21.5, 8.6])), 1.0),
        "bench3_pid": (bench3(sigma=0.3), BENCH, 1.0),
        "open_loop": (ou(theta=2.0, sigma=0.7), None, 0.0),
        "coupled": (coupled_plant(), GainVector("pid", np.array([1.0, 4.0, 3.0])), [1.0, -0.5]),
        "noise_d1_m2": (non_square_noise_plant(1, 2), GainVector("pid", np.array([1.0, 4.0, 3.0])),
                        1.0),
        "noise_d2_m1": (non_square_noise_plant(2, 1), GainVector("pid", np.array([1.0, 3.0])),
                        [1.0, -0.5]),
    }

    # run id: (case, paths, record_stride, horizon); the plain case ids record
    # every third of 300 steps.  Recording every step buffers 42 (chain(2)) or
    # 32 (bench3) records of 64 paths per moment batch, so 301 records fill
    # several batches and end in a partial one; 4100 paths are a chunk of one
    # record per batch and one of 4 paths whose 31 records share a batch.
    RUNS = {
        **{case: (case, 64, 3, 3.0) for case in CASES},
        "pid_stride1": ("pid", 64, 1, 3.0),
        "bench3_pid_stride1": ("bench3_pid", 64, 1, 3.0),
        "bench3_pid_two_chunks": ("bench3_pid", 4100, 1, 0.3),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_moments_match_to_round_off(self, run):
        case, paths, stride, horizon = self.RUNS[run]
        plant, g, y_star = self.CASES[case]
        sp = solve_equilibrium(plant, y_star)
        controller = "open_loop" if g is None else g.kind
        x0 = np.linspace(-0.5, 0.5, plant.state_dim)
        cfg = SimConfig(dt=0.01, horizon=horizon, paths=paths, seed=40, record_stride=stride,
                        controller=controller, x0=x0)
        stats = simulate_paths(plant, sp, g, cfg, workers=1)
        ref = em_reference(plant, sp, g, cfg)
        for want, have in zip(ref, stats.table().T):
            assert have == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert np.array_equal(stats.table(), simulate_paths(plant, sp, g, cfg, workers=2).table())

    @pytest.mark.parametrize("paths", [48, 4100])
    def test_a_start_outside_the_box_is_not_a_divergence(self, paths):
        # the first step brings x0 = 5e12 back to 5e11, inside the box; the spread of
        # |x|^2 near 2.5e23 is at the rounding limit, so only the means are compared
        plant = ou(theta=90.0, sigma=0.1)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.01, horizon=0.1, paths=paths, seed=41, controller="open_loop",
                        x0=np.array([5e12]))
        have = simulate_paths(plant, sp, None, cfg).table().T
        want = em_reference(plant, sp, None, cfg)
        for column in ("t", "mean_sq_error", "mean_sq_state_dev", "mean_sq_u"):
            i = EnsembleStats.CSV_COLUMNS.index(column)
            assert have[i] == pytest.approx(want[i], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("paths", [48, 4100])  # narrow blocks, and one step per block
    def test_a_start_that_stays_outside_the_box_diverges_at_the_first_step(self, paths):
        # x1 = 2e12 stays outside the box: the guard covers the states a chunk wrote,
        # never x0, so the first is at t = dt on path 0, where em_step reports it
        plant = chain(2)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.01, horizon=0.1, paths=paths, seed=43, controller="open_loop",
                        x0=np.array([2e12, 0.0]))
        for run in (simulate_paths, em_reference):
            with pytest.raises(Diverged) as info:
                run(plant, sp, None, cfg)
            assert (info.value.t, info.value.path) == (cfg.dt, 0)

    @pytest.mark.parametrize("paths", [48, 4100])
    def test_a_scalar_residual_drift_is_broadcast(self, paths):
        plant = PlantSpec(1, 1, 1, lambda x, u: 0.5, lambda x: np.array([[0.3]]), 0.0, 0.0,
                          affine=[[0.0, -1.0, 1.0]])
        g = GainVector("pid", np.array([1.0, 2.0]))
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=0.01, horizon=0.3, paths=paths, seed=42, record_stride=3,
                        x0=np.array([0.2]))
        for want, have in zip(em_reference(plant, sp, g, cfg),
                              simulate_paths(plant, sp, g, cfg).table().T):
            assert have == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_noise_free_run_draws_no_normals(self, monkeypatch):
        # a zero constant diffusion leaves the noise rows at zero: no chunk draws,
        # and the moments are those of em_step fed the usual normals times zero
        class NoDraws:
            def standard_normal(self, *args, **kwargs):
                raise AssertionError("a noise-free run drew normals")

        plant, g = bench3(sigma=0.0), BENCH
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=0.01, horizon=0.3, paths=4100, seed=12, record_stride=3,
                        controller="pid", x0=np.array([0.9, 0.0, 0.1]))
        ref = em_reference(plant, sp, g, cfg)
        monkeypatch.setattr("stochpid.simulate._chunk_stream", lambda seed, chunk: NoDraws())
        for want, have in zip(ref, simulate_paths(plant, sp, g, cfg, workers=2).table().T):
            assert have == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_chunk_moments_merge_like_one_sample(self):
        # two chunks, the second of 4 paths, merged by Chan's update
        plant, g = bench3(sigma=0.3), BENCH
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=0.01, horizon=0.3, paths=4100, seed=12, record_stride=3,
                        controller="pid", x0=np.array([0.9, 0.0, 0.1]))
        ref = em_reference(plant, sp, g, cfg)
        for want, have in zip(ref, simulate_paths(plant, sp, g, cfg, workers=2).table().T):
            assert have == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("plant, g, diffusion_per_step", [
        (bench3(sigma=0.3), BENCH, False),
        (coupled_plant(), GainVector("pid", np.array([1.0, 4.0, 3.0])), True),
        (expression_plant(3, BENCH_DRIFT, "0.3", L=0.87, M=0.0), BENCH, False),
        (expression_plant(2, "u - 0.2*x1", "0.1", L=0.2, M=0.0),
         GainVector("pid", np.array([1.0, 4.0, 3.0])), False),
    ])
    def test_plant_calls_per_chunk(self, plant, g, diffusion_per_step, monkeypatch):
        # a constant diffusion is evaluated once per chunk, a state-dependent one
        # once per step, and a residual drift callable once per step (never when the
        # drift is affine); a wrapped drift is a callable, also where the plant's drift
        # is terms, as bench3's and the BENCH_DRIFT plant's are, so those plants'
        # moments move at round-off; two workers leave the moments bitwise equal
        names = ("drift", "diffusion", "expr")
        counters = {name: itertools.count() for name in names}

        def counted(name, fn):
            def call(*args):
                next(counters[name])
                return fn(*args)
            return call

        wrapped = dataclasses.replace(
            plant, drift=None if plant.drift is None else counted("drift", plant.drift),
            diffusion=counted("diffusion", plant.diffusion))
        sp = solve_equilibrium(plant, [1.0] * plant.d)
        cfg = SimConfig(dt=0.01, horizon=0.5, paths=4100, seed=11, record_stride=10,
                        controller="pid", x0=np.linspace(-0.2, 0.2, plant.state_dim))
        a = simulate_paths(plant, sp, g, cfg, workers=1).table()
        b = simulate_paths(wrapped, sp, g, cfg, workers=1).table()
        counters.update((name, itertools.count()) for name in names)  # count one run
        monkeypatch.setattr("stochpid.plants.eval_expr",
                            counted("expr", stochpid.plants.eval_expr))
        assert np.array_equal(simulate_paths(wrapped, sp, g, cfg, workers=2).table(), b)
        if isinstance(plant.drift, tuple):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)
        else:
            assert np.array_equal(a, b)
        chunks, steps = 2, cfg.steps
        drift_calls = next(counters["drift"])
        diffusion_calls = next(counters["diffusion"])
        assert drift_calls == (0 if plant.drift is None else steps * chunks)
        assert diffusion_calls == (steps if diffusion_per_step else 1) * chunks
        # a plant built by stochpid.plants, bench3 too, evaluates one formula per call of a
        # compiled formula (its diffusion, and a residual drift callable; terms are none)
        formula_calls = diffusion_calls + (0 if isinstance(plant.drift, tuple) else drift_calls)
        expr_calls = formula_calls if plant.diffusion.__module__ == "stochpid.plants" else 0
        assert next(counters["expr"]) == expr_calls

    def test_divergence_located_like_em_step(self, monkeypatch):
        # an undamped oscillator, x1 = A*cos(w*t) and x2 = -w*A*sin(w*t) with
        # A = 0.9e12 and w*A = 1.1e12: x2 leaves the box at about step 93 and
        # is back inside well before step 256, so a guard that looked only at
        # the ends of blocks of 256 steps (slots [1; integral; x1; x2; u; w]
        # have 6 rows) would miss the excursion
        plant = chain(2, sigma=1e9)
        sp = solve_equilibrium(plant, 0.0)
        g = GainVector("pd", np.array([1.5, 1e-6]))
        cfg = SimConfig(dt=0.01, horizon=5.0, paths=40, seed=7, record_stride=10,
                        controller="pd", x0=np.array([0.9e12, 0.0]))
        with pytest.raises(Diverged) as ref:
            em_reference(plant, sp, g, cfg)
        for block in (None, 256):  # the default blocks are 34 steps
            if block:
                monkeypatch.setattr("stochpid.simulate._BLOCK_BYTES", block_budget(block, 6, 40))
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
        K = _control_law(g, sp.y_star)
        for s in range(256):
            u = helpers.law_input(state) @ K.T
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


def term_plant_d2() -> PlantSpec:
    """n = 2, d = 2, m = 2: three elementwise terms, of x1, x4 and u1, each weighted
    into both drift rows, beside an affine part and a constant diffusion."""
    return PlantSpec(2, 2, 2,
                     ((np.sin, 0, (0.3, -0.2)), (np.cos, 3, (0.1, 0.1)), (np.tanh, 4, (0.4, 0.2))),
                     lambda x: np.array([[0.3, 0.05], [-0.1, 0.2]]),
                     lipschitz_L=1.0, lipschitz_M=0.0, gain_lower_b=0.5,
                     affine=[[0.5, -0.4, 0.1, 0.0, 0.2, 1.0, 0.0],
                             [-0.2, 0.0, 0.3, 0.1, -0.5, 0.0, 1.0]])


class TestTerms:
    """A plant's elementwise terms are stepped in place, their weights in the step matrix."""

    CASES = {
        "bench3": (bench3(sigma=0.3), BENCH, [0.9, 0.0, 0.1]),
        "cli_narrow": (expression_plant(3, BENCH_DRIFT, "0.2", L=0.87, M=0.0), BENCH,
                       [0.92, -0.01, 0.1]),
        "d2": (term_plant_d2(), GainVector("pid", np.array([1.0, 4.0, 3.0])),
               [0.2, -0.1, 0.05, 0.0]),
    }

    @staticmethod
    def run(case, paths, callable_twin=False):
        plant, g, x0 = TestTerms.CASES[case]
        if callable_twin:  # the same sum through a callable, as a traced run wraps it
            terms = plant.drift
            plant = dataclasses.replace(plant, drift=lambda x, u: terms(x, u))
        sp = solve_equilibrium(plant, [1.0] * plant.d)
        cfg = SimConfig(dt=0.01, horizon=0.6, paths=paths, seed=41, record_stride=2,
                        controller="pid", x0=np.array(x0))
        return lambda **kw: simulate_paths(plant, sp, g, cfg, **kw).table()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_generic_residual(self, case):
        # the callable twin evaluates the same sum, and solves the same u*
        assert isinstance(self.CASES[case][0].drift, _Terms)
        have, want = self.run(case, 48)(), self.run(case, 48, callable_twin=True)()
        assert not np.array_equal(have, want)  # dt*w*f(z) rounds unlike dt*(sum of w*f(z))
        np.testing.assert_allclose(have, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_workers_and_blocks_leave_moments_bitwise_equal(self, case, monkeypatch):
        # 4100 paths: a 4096-path chunk of one-step blocks beside a 4-path chunk of one
        # block, of 7-step blocks or of one-step blocks
        plant = self.CASES[case][0]
        run = self.run(case, 4100)
        default = run(workers=1)
        assert np.array_equal(run(workers=2), default)
        rows = 1 + (plant.n + 2) * plant.d + len(plant.drift) + plant.m
        for block in (1, 7):
            monkeypatch.setattr("stochpid.simulate._BLOCK_BYTES", block_budget(block, rows, 4))
            for workers in (1, 2):
                assert np.array_equal(run(workers=workers), default)

    def test_overflowing_term_raises_non_finite_at_the_reference_step(self, monkeypatch):
        # x1 climbs by about 10 a step until exp(x1) overflows, at x1 = 710, far inside the
        # box: the term's weight keeps 1e-300*exp(x1) small until then
        plant = expression_plant(2, "1e-300*exp(x1) + u", "0", L=1.0, M=0.0)
        assert plant.drift == ((np.exp, 0, (1e-300,)),)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.01, horizon=2.0, paths=16, seed=3, record_stride=1,
                        controller="open_loop", x0=np.array([0.0, 1000.0]))
        for steps in range(200):  # the first state at which the reference's drift overflows
            try:
                with np.errstate(over="ignore"):  # exp(710) = inf is what the test is after
                    em_reference(plant, sp, None,
                                 dataclasses.replace(cfg, horizon=(steps + 1) * 0.01))
            except NonFinite as exc:
                assert "drift" in str(exc)
                break
        assert steps == 71
        # slots [1; integral; x1; x2; u; exp; w] have 7 rows; the step is interior to the
        # first block
        monkeypatch.setattr("stochpid.simulate._BLOCK_BYTES", block_budget(steps + 3, 7, 16))
        ok = dataclasses.replace(cfg, horizon=steps * 0.01)
        assert np.isfinite(simulate_paths(plant, sp, None, ok).table()).all()
        with pytest.raises(NonFinite, match="drift"):
            simulate_paths(plant, sp, None, dataclasses.replace(ok, horizon=(steps + 1) * 0.01))
        with pytest.raises(NonFinite, match="drift"):
            simulate_paths(plant, sp, None, cfg)


def block_budget(block: int, rows: int, paths: int) -> int:
    """The ``_BLOCK_BYTES`` that gives a chunk of ``paths`` paths, whose slots have
    ``rows`` rows, blocks of ``block`` steps."""
    return block * 8 * rows * paths


class CountingStream:
    """A chunk's noise generator that counts its ``standard_normal`` calls."""

    def __init__(self, seed: int, chunk: int):
        self.rng = _chunk_stream(seed, chunk)
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.standard_normal(*args, **kwargs)


def doubling_plant(residual=None, diffusion=None) -> PlantSpec:
    """f = 100*x + u (+ a residual), run open loop at dt = 0.01: each step doubles
    x and adds 0.1 z, so a path leaves the box about 43 steps in, at a step and
    in a path set by the seed.  Slots have [1; integral; x; u; (f;) w] rows."""
    return PlantSpec(1, 1, 1, residual, diffusion or (lambda x: np.array([[1.0]])), 100.0, 0.0,
                     affine=[[0.0, 100.0, 1.0]])


class TestBlocks:
    """The kernel steps a chunk a block at a time (see ``simulate._run_chunk``)."""

    SIN_DIFFUSION = expression_plant(3, BENCH_DRIFT, "0.4*sin(x1 - 1) + 0.01", L=0.87, M=0.4)
    # case: plant, gains, x0 and the rows of a slot
    CASES = {
        "bench3_pid": (bench3(sigma=0.3), BENCH, [0.9, 0.0, 0.1], 9),
        "sin_diffusion": (SIN_DIFFUSION, BENCH, [0.9, 0.0, 0.1], 9),
        "open_loop": (ou(theta=2.0, sigma=0.7), None, [0.5], 5),
    }

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_size_leaves_moments_bitwise_equal(self, case, stride, monkeypatch):
        # the default budget gives 48 paths blocks of 18 (9 rows) or 34 (5 rows)
        # steps; 7 does not divide the 100 steps, so the last block is partial
        plant, g, x0, rows = self.CASES[case]
        sp = solve_equilibrium(plant, 1.0 if g else 0.0)
        cfg = SimConfig(dt=0.01, horizon=1.0, paths=48, seed=31, record_stride=stride,
                        controller=g.kind if g else "open_loop", x0=np.array(x0))
        default = simulate_paths(plant, sp, g, cfg).table()
        for block in (1, 7):
            monkeypatch.setattr("stochpid.simulate._BLOCK_BYTES", block_budget(block, rows, 48))
            assert np.array_equal(simulate_paths(plant, sp, g, cfg).table(), default)

    def test_full_and_narrow_chunks_share_a_run(self, monkeypatch):
        # 4100 paths: a 4096-path chunk of one-step blocks beside a 4-path chunk of
        # one 30-step block (the default), of 7-step blocks or of one-step blocks
        plant = self.SIN_DIFFUSION
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=0.01, horizon=0.3, paths=4100, seed=32, record_stride=3,
                        controller="pid", x0=np.array([0.9, 0.0, 0.1]))
        default = simulate_paths(plant, sp, BENCH, cfg, workers=1).table()
        assert np.array_equal(simulate_paths(plant, sp, BENCH, cfg, workers=2).table(), default)
        for block in (1, 7):
            monkeypatch.setattr("stochpid.simulate._BLOCK_BYTES", block_budget(block, 9, 4))
            for workers in (1, 2):
                assert np.array_equal(simulate_paths(plant, sp, BENCH, cfg, workers).table(),
                                      default)

    @pytest.mark.parametrize("paths, draws", [(48, [6]), (4096, [100]), (4100, [100, 1])])
    def test_one_noise_draw_per_block(self, paths, draws, monkeypatch):
        # bench3 slots [1; integral; x1..x3; u; sin; tanh; w] have 9 rows: 48 paths take
        # blocks of 65536 // (8*9*48) = 18 of the 100 steps, a full chunk blocks of one
        # step and a 4-path chunk one block
        plant = bench3(sigma=0.3)
        sp = solve_equilibrium(plant, 1.0)
        cfg = SimConfig(dt=0.01, horizon=1.0, paths=paths, seed=33, record_stride=5,
                        controller="pid", x0=np.array([0.9, 0.0, 0.1]))
        plain = simulate_paths(plant, sp, BENCH, cfg).table()
        streams = {}

        def counting_stream(seed, chunk):
            streams[chunk] = CountingStream(seed, chunk)
            return streams[chunk]

        monkeypatch.setattr("stochpid.simulate._chunk_stream", counting_stream)
        assert np.array_equal(simulate_paths(plant, sp, BENCH, cfg).table(), plain)
        assert [streams[c].calls for c in sorted(streams)] == draws

    @pytest.mark.parametrize("where", ["first", "interior", "last", "partial"])
    def test_divergence_located_in_any_slot(self, where, monkeypatch):
        plant = doubling_plant()
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.01, horizon=0.6, paths=40, seed=22, record_stride=1,
                        controller="open_loop", x0=np.zeros(1))
        with pytest.raises(Diverged) as ref:
            em_reference(plant, sp, None, cfg)
        k = round(ref.value.t / cfg.dt)  # the first state outside the box, written by step k - 1
        assert 30 < k < 58 and ref.value.path > 0
        # a block of b steps starting at step s0 writes slots 1..b-1 and then slot 0
        # of the other array: step k - 1 is the block's first step (b = k - 1), an
        # interior one, its last one (b = k), or the second of a final 4-step block
        block, steps = {"first": (k - 1, 60), "interior": (k + 5, 60), "last": (k, 60),
                        "partial": (k - 2, k + 2)}[where]
        cfg = dataclasses.replace(cfg, horizon=steps * cfg.dt)
        monkeypatch.setattr("stochpid.simulate._BLOCK_BYTES", block_budget(block, 5, 40))
        with pytest.raises(Diverged) as got:
            simulate_paths(plant, sp, None, cfg)
        assert got.value.path == ref.value.path
        assert got.value.t == pytest.approx(ref.value.t, rel=1e-12)

    @pytest.mark.parametrize("what", ["drift", "diffusion"])
    def test_non_finite_plant_output_at_an_interior_slot(self, what, monkeypatch):
        # only path 5 returns NaN, once, when it passes 1e6: the plant output at the
        # state it produces is finite, so the NaN is found at the step that made it
        calls = []  # one drift call per reference step

        def nan_at(x, value):
            x = np.asarray(x, dtype=float)
            path = np.arange(x.size).reshape(x.shape)  # x is (paths, 1) but for the setpoint
            return np.where((np.abs(x) > 1e6) & (path == 5), np.nan, value)

        def residual(x, u):
            calls.append(None)
            return nan_at(x, 0.0) if what == "drift" else np.zeros(np.shape(x))

        def diffusion(x):  # one (1, 1) matrix per path
            return (nan_at(x, 1.0) if what == "diffusion" else np.ones(np.shape(x)))[..., None]

        plant = doubling_plant(residual, diffusion)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.01, horizon=0.6, paths=40, seed=23, record_stride=1,
                        controller="open_loop", x0=np.zeros(1))
        calls.clear()
        with pytest.raises(NonFinite, match=what):
            em_reference(plant, sp, None, cfg)
        step = len(calls) - 1  # far inside the box: about 20 steps in
        assert step > 10
        # slots have [1; integral; x; u; f; w] rows; the step is interior to the first block
        monkeypatch.setattr("stochpid.simulate._BLOCK_BYTES", block_budget(step + 3, 6, 40))
        with pytest.raises(NonFinite, match=what):
            simulate_paths(plant, sp, None, cfg)

    def test_plant_error_after_a_divergence_in_the_block(self, monkeypatch):
        # the kernel calls the drift on the state that left the box before the
        # block's guard runs; the divergence, which comes first, is reported
        def residual(x, u):
            if np.any(np.abs(x) > 1e12):
                raise ValueError("drift evaluated outside the box")
            return np.zeros(np.shape(x))

        plant = doubling_plant(residual)
        sp = solve_equilibrium(plant, 0.0)
        cfg = SimConfig(dt=0.01, horizon=0.6, paths=40, seed=22, record_stride=1,
                        controller="open_loop", x0=np.zeros(1))
        with pytest.raises(Diverged) as ref:
            em_reference(plant, sp, None, cfg)
        k = round(ref.value.t / cfg.dt)
        monkeypatch.setattr("stochpid.simulate._BLOCK_BYTES", block_budget(k + 5, 6, 40))
        with pytest.raises(Diverged) as got:
            simulate_paths(plant, sp, None, cfg)
        assert got.value.path == ref.value.path
        assert got.value.t == pytest.approx(ref.value.t, rel=1e-12)

        # an error with every state inside the box is the plant's own
        calls = itertools.count()

        def failing(x, u):
            if next(calls) == 5:
                raise ValueError("plant failure")
            return np.zeros(np.shape(x))

        with pytest.raises(ValueError, match="plant failure"):
            simulate_paths(doubling_plant(failing), sp, None, cfg)


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

    @pytest.mark.parametrize("name, value", [
        ("initial_dev", np.nan), ("initial_dev", -1.0), ("u_star_norm", np.inf),
        ("u_star_norm", -0.5), ("g_norm_at_zstar", np.nan), ("g_norm_at_zstar", -0.3),
        ("initial_dev", 1e200), ("u_star_norm", 1e200), ("g_norm_at_zstar", np.float64(1e200))])
    def test_bad_norms_are_named(self, name, value):
        # a NaN initial_dev failed every comparison and so reported upper_ok=True; a finite
        # norm above about 1.3e154 ended in OverflowError, or a RuntimeWarning for a numpy one
        plant = chain(1)
        sp = solve_equilibrium(plant, 1.0)
        g = GainVector("pid", np.array([1.0, 2.0]))
        stats = simulate_paths(plant, sp, g, SimConfig(dt=0.1, horizon=1.0, paths=2, seed=0))
        norms = {"initial_dev": 1.0, "u_star_norm": 0.0, "g_norm_at_zstar": 0.0, name: value}
        with pytest.raises(ValueError) as info:
            bound_envelope(stats, bound_constants(g, 1.0, 0.0, 0.0, 1.0), **norms)
        assert str(info.value).startswith(name)

    @pytest.mark.parametrize("rate, norms, name", [
        (None, (1e154, 1e154, 0.0), "decay_coeff"),
        (None, (1.0, 0.0, 1.3e154), "floor_coeff"),
        (1000.0, (1e154, 1e154, 0.0), "decay_coeff"),
        (None, (1e154, 0.0, 5e153), "the upper envelope"),
    ], ids=["decay-term", "floor-term", "decay-term-underflowing-exp", "sum-of-terms"])
    def test_overflowing_envelope_terms_are_named(self, rate, norms, name):
        # finite squares whose envelope term overflowed gave an all-inf upper with
        # upper_ok=True; once exp(-rate*t) underflowed, inf*0 was a NaN and a RuntimeWarning
        plant = chain(1, sigma=0.1)
        sp = solve_equilibrium(plant, 1.0)
        g = GainVector("pid", np.array([1.0, 2.0]))
        stats = simulate_paths(plant, sp, g, SimConfig(dt=0.1, horizon=1.0, paths=2, seed=0))
        bc = bound_constants(g, 1.0, 0.0, 0.0, 1.0)
        if rate is not None:
            bc = type(bc)(decay_coeff=1.0, floor_coeff=0.0, rate=rate, floor_lower_coeff=0.0)
        with pytest.raises(ValueError) as info:
            bound_envelope(stats, bc, *norms)
        assert str(info.value).startswith(name)

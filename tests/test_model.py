import numpy as np
import pytest

import helpers
from stochpid import (
    DegenerateBeta,
    GainVector,
    NoConvergence,
    NonFinite,
    PlantSpec,
    Setpoint,
    bench3,
    chain,
    check_inequality,
    expression_plant,
    falsify_lipschitz,
    geometric_gains,
    lambda_gains,
    ou,
    shifted_coordinates,
    shifted_to_raw,
    solve_equilibrium,
    z_inverse,
    z_transform,
)
from helpers import ClosedLoopState
from stochpid.simulate import _control_law


def bisect_u_star(f, lo, hi, tol=1e-6):
    """Independent oracle: plain bisection on a bracketing interval."""
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveEquilibrium:
    def test_linear_offset_plant(self):
        # f(z*; u) = u + 6 at a*sin(y*) = 0
        plant = bench3(a=0.0, b=-0.3, c=0.5, d=6.0, mu=0.0, sigma=0.0)
        sp = solve_equilibrium(plant, 0.0)
        assert sp.u_star == pytest.approx(-6.0, abs=1e-10)
        assert sp.residual <= 1e-10
        assert np.array_equal(sp.z_star, [0.0, 0.0, 0.0])

    def test_saturating_input_plant(self):
        plant = bench3(a=0.0, b=-0.3, c=0.5, d=6.0, mu=5.2, sigma=0.0)
        sp = solve_equilibrium(plant, 0.0)
        oracle = bisect_u_star(lambda u: u + 5.2 * np.tanh(u) + 6.0, -6.0, 0.0)
        assert sp.u_star[0] == pytest.approx(oracle, abs=1e-6)
        assert sp.residual <= 1e-10

    def test_identity_plant(self):
        plant = chain(2)
        for y in (-3.0, 0.0, 11.5):
            sp = solve_equilibrium(plant, y)
            assert sp.u_star[0] == pytest.approx(0.0, abs=1e-10)
            assert sp.z_star[0] == y

    def test_setpoint_structure(self):
        sp = solve_equilibrium(bench3(), 2.5)
        assert sp.z_star[0] == 2.5
        assert np.all(sp.z_star[1:] == 0.0)

    def test_no_bracket_raises(self):
        def drift(x, u):
            return np.exp(np.asarray(u)) + 1.0  # no root

        plant = PlantSpec(1, 1, 1, drift, lambda x: np.zeros((1, 1)), 0.0, 0.0)
        with pytest.raises(NoConvergence):
            solve_equilibrium(plant, 0.0, max_iter=30)

    def test_nonfinite_plant(self):
        def drift(x, u):
            return np.full_like(np.asarray(u, dtype=float), np.nan)

        plant = PlantSpec(1, 1, 1, drift, lambda x: np.zeros((1, 1)), 0.0, 0.0)
        with pytest.raises(NonFinite):
            solve_equilibrium(plant, 0.0)

    def test_multivariate_newton(self):
        # symmetrized input Jacobian is I + diag(sech^2) >= I
        A = np.array([[1.0, 0.5], [-0.5, 1.0]])
        c = np.array([2.0, -1.0])

        def drift(x, u):
            u = np.asarray(u, dtype=float)
            return u @ A.T + 0.5 * np.tanh(u) + c

        plant = PlantSpec(2, 2, 1, drift, lambda x: np.zeros((2, 1)), 0.0, 0.0)
        sp = solve_equilibrium(plant, np.array([0.3, -0.7]))
        assert sp.residual <= 1e-10
        assert np.linalg.norm(drift(sp.z_star, sp.u_star)) <= 1e-10

    @pytest.mark.parametrize("family, shape", [
        ("tanh", np.tanh), ("arctan", np.arctan), ("cubic", lambda u: u ** 3),
    ])
    def test_scalar_sweep_matches_bisection(self, family, shape):
        # f(u) = b*u + a*shape(u) + c with an increasing odd shape: f' >= b, the true bound
        rng = np.random.default_rng(sum(map(ord, family)))
        for _ in range(40):
            b, a, c = rng.uniform(0.05, 3.0), rng.uniform(0.0, 5.0), rng.uniform(-30.0, 30.0)

            def f(u, b=b, a=a, c=c):
                return b * u + a * shape(u) + c

            plant = PlantSpec(1, 1, 1, lambda x, u: f(np.asarray(u, dtype=float)),
                              lambda x: np.zeros((1, 1)), 0.0, 0.0, gain_lower_b=b)
            sp = solve_equilibrium(plant, 0.0)
            reach = (abs(c) + 1.0) / b  # f(-reach) < 0 < f(reach)
            assert sp.u_star[0] == pytest.approx(bisect_u_star(f, -reach, reach), abs=1e-6)
            assert sp.residual <= 1e-10 and abs(f(sp.u_star[0])) <= 1e-10

    def test_root_beyond_reach_of_b_raises(self):
        # f = 0.01u + 5 has its root at -500, beyond (|f(0)| + tol)/b = 5 for b = 1
        def plant(b):
            return PlantSpec(1, 1, 1, None, lambda x: np.zeros((1, 1)), 0.0, 0.0,
                             gain_lower_b=b, affine=[[5.0, 0.0, 0.01]])

        with pytest.raises(NoConvergence, match=r"gain_lower_b b = 1\.0"):
            solve_equilibrium(plant(1.0), 0.0)
        assert solve_equilibrium(plant(0.01), 0.0).u_star[0] == pytest.approx(-500.0, rel=1e-12)

    @pytest.mark.parametrize("b, c", [(0.25984289611516703, 16942705.43560432),
                                      (1.7887687946450876, -54529547.286303595)])
    def test_linear_root_on_the_reach_is_kept(self, b, c):
        # f = b*u + c with its exact b puts the root on the reach; the rounded Newton
        # iterate lands an ulp beyond it, inside the relative rounding allowance
        plant = PlantSpec(1, 1, 1, None, lambda x: np.zeros((1, 1)), 0.0, 0.0,
                          gain_lower_b=b, affine=[[c, 0.0, b]])
        assert solve_equilibrium(plant, 0.0).u_star[0] == pytest.approx(-c / b, rel=1e-14)

    @pytest.mark.parametrize("kwargs, name", [({"tol": float("nan")}, "tol"),
                                              ({"tol": -1.0}, "tol"),
                                              ({"max_iter": 0}, "max_iter"),
                                              ({"max_iter": 2.5}, "max_iter")])
    def test_tolerance_and_iteration_count_checked(self, kwargs, name):
        # tol=nan ran the whole iteration and ended in NoConvergence
        with pytest.raises(ValueError) as info:
            solve_equilibrium(bench3(), 1.0, **kwargs)
        assert str(info.value).startswith(name)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestShiftedCoordinates:
    def test_equilibrium_state(self):
        plant = bench3(a=0.0, mu=0.0)
        sp = solve_equilibrium(plant, 1.0)
        y = shifted_coordinates(sp.z_star, np.zeros(1), sp, 8.6)
        assert y.shape == (4, 1)
        assert y[0] == pytest.approx(sp.u_star / 8.6)
        assert np.all(y[1:] == 0.0)

    def test_direct_substitution(self):
        sp = solve_equilibrium(chain(1), 1.0)  # u* = 0
        y = shifted_coordinates(np.array([3.0]), np.array([2.0]), sp, 5.0)
        assert np.array_equal(y.ravel(), [2.0, 2.0])

    def test_controller_identity(self):
        # PID output equals -sum(k_i y_i) + u* when the shifted integral is
        # the negative of the controller's error accumulator
        rng = np.random.default_rng(31)
        plant = bench3()
        sp = solve_equilibrium(plant, 1.0)
        g = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
        K = _control_law(g, sp.y_star)
        for _ in range(50):
            x = rng.standard_normal(3)
            acc = rng.standard_normal(1)  # accumulated e = y* - x1
            state = ClosedLoopState(x=x, integral=acc, t=0.0)
            u = K @ helpers.law_input(state)
            y = shifted_coordinates(x, -acc, sp, g.gains[0])
            via_shift = -np.sum(g.gains[:, None] * y, axis=0) + sp.u_star
            assert np.allclose(u, via_shift, rtol=1e-10, atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(32)
        sp = solve_equilibrium(bench3(), 0.7)
        for _ in range(20):
            x = rng.standard_normal(3)
            acc = rng.standard_normal(1)
            y = shifted_coordinates(x, acc, sp, 8.6)
            x2, acc2 = shifted_to_raw(y, sp, 8.6)
            assert np.allclose(x2, x, atol=1e-14)
            assert np.allclose(acc2, acc, atol=1e-14)

    def test_k0_positive_required(self):
        sp = solve_equilibrium(chain(1), 0.0)
        with pytest.raises(ValueError):
            shifted_coordinates(np.array([1.0]), np.zeros(1), sp, 0.0)

    @pytest.mark.parametrize("k0", [float("nan"), float("inf"), -1.0])
    def test_k0_must_be_positive_and_finite(self, k0):
        # NaN passes a plain k0 <= 0 test and would fill the blocks with NaN
        sp = solve_equilibrium(chain(1), 0.0)
        with pytest.raises(ValueError, match="^k0 must be positive and finite"):
            shifted_coordinates(np.array([1.0]), np.zeros(1), sp, k0)
        with pytest.raises(ValueError, match="^k0 must be positive and finite"):
            shifted_to_raw(np.zeros((2, 1)), sp, k0)


class TestZTransform:
    def test_zero_maps_to_zero(self):
        z = z_transform(np.zeros((3, 1)), [0.4, 0.1])
        assert np.all(z == 0.0)

    def test_direct_substitution(self):
        z = z_transform(np.ones((3, 1)), [0.4, 0.1])
        assert np.allclose(z.ravel(), [1.0, 1.4, 1.44])

    def test_round_trip_z_domain(self):
        # z_transform(z_inverse(z)) recovers z to 1e-12 relative error even
        # for tiny cumulative ratios
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 3))
            blocks = rng.standard_normal((n + 1, d))
            betas = 10.0 ** rng.uniform(-2.0, 0.5, n)
            back = z_transform(z_inverse(blocks, betas), betas)
            scale = max(1.0, np.abs(blocks).max())
            worst = max(worst, np.abs(back - blocks).max() / scale)
        assert worst < 1e-12

    def test_round_trip_y_domain(self):
        # the reverse composition is exact up to round-off amplified by the
        # inverse cumulative ratio; with moderate ratios it sits below 1e-12
        rng = np.random.default_rng(34)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            blocks = rng.standard_normal((n + 1, 1))
            betas = rng.uniform(0.3, 0.95, n)
            back = z_inverse(z_transform(blocks, betas), betas)
            scale = max(1.0, np.abs(blocks).max())
            worst = max(worst, np.abs(back - blocks).max() / scale)
        assert worst < 1e-12

    def test_batches_match_single_points(self):
        # every leading axis is a batch axis: a (S, n+1, d) batch gives
        # bitwise the per-point results
        rng = np.random.default_rng(35)
        for n, d in ((1, 1), (3, 1), (4, 2)):
            blocks = rng.standard_normal((20, n + 1, d))
            betas = 10.0 ** rng.uniform(-2.0, 0.5, n)
            y_star = rng.standard_normal(d)
            sp = Setpoint(y_star=y_star, z_star=np.r_[y_star, np.zeros((n - 1) * d)],
                          u_star=rng.standard_normal(d), residual=0.0)
            for transform in (z_transform, z_inverse):
                batch = transform(blocks, betas)
                assert same_bits(batch, np.stack([transform(y, betas) for y in blocks]))
            x, integral = shifted_to_raw(blocks, sp, 2.5)
            singles = [shifted_to_raw(y, sp, 2.5) for y in blocks]
            assert same_bits(x, np.stack([single[0] for single in singles]))
            assert same_bits(integral, np.stack([single[1] for single in singles]))

    def test_degenerate_beta(self):
        y = np.zeros((3, 1))
        with pytest.raises(DegenerateBeta):
            z_transform(y, [0.4, 0.0])
        with pytest.raises(DegenerateBeta):
            z_inverse(z_transform(y, [0.4, 0.1]), [-0.4, 0.1])
        # NaN and inf fail the one range test instead of propagating
        for betas in ([np.nan, 0.1], [0.4, np.inf]):
            with pytest.raises(DegenerateBeta):
                z_transform(np.ones((3, 1)), betas)


class TestAffineDrift:
    """f = affine @ [1; x; u] + drift(x, u): the full drift is the sum of the two."""

    @pytest.mark.parametrize("plant, formula", [
        (bench3(a=0.3, b=-0.45, c=0.2, d=4.0, mu=1.5),
         lambda x, u: (0.3 * np.sin(x[:, 0:1]) - 0.45 * x[:, 1:2] + 0.2 * x[:, 2:3] + 4.0 + u
                       + 1.5 * np.tanh(u))),
        (chain(3, bias=0.7), lambda x, u: u + 0.7),
        (ou(theta=2.0), lambda x, u: u - 2.0 * x[:, 0:1]),
    ])
    def test_eval_drift_matches_the_formula(self, plant, formula):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5.0, 5.0, (200, plant.state_dim))
        u = rng.uniform(-10.0, 10.0, (200, 1))
        assert np.allclose(plant.eval_drift(x, u), formula(x, u), rtol=1e-14, atol=1e-14)
        assert np.allclose(plant.eval_drift(x[0], u[0]), formula(x[:1], u[:1])[0],
                           rtol=1e-14, atol=1e-14)

    def test_affine_only_plants_have_no_residual(self):
        assert chain(2).drift is None and ou().drift is None

    def test_affine_weights_are_checked(self):
        def diffusion(x):
            return np.array([[0.1]])

        with pytest.raises(ValueError, match=r"affine must have shape \(1, 4\), got \(1, 3\)"):
            PlantSpec(2, 1, 1, None, diffusion, 0.0, 0.0, affine=[[0.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="affine must have shape"):
            PlantSpec(1, 2, 1, None, diffusion, 0.0, 0.0, affine=np.zeros((1, 4)))
        with pytest.raises(ValueError, match="finite"):
            PlantSpec(1, 1, 1, None, diffusion, 0.0, 0.0, affine=[[np.inf, 0.0, 1.0]])
        plant = PlantSpec(1, 1, 1, None, diffusion, 0.0, 0.0, affine=[[1.0, 0.0, 1.0]])
        assert not plant.affine.flags.writeable


def _spec(*constants):
    return PlantSpec(1, 1, 1, None, lambda x: np.zeros((1, 1)), *constants)


@pytest.mark.parametrize("make, name", [
    # asserted constants that falsify_lipschitz could never refute
    pytest.param(lambda v: _spec(v, 0.0), "lipschitz_L", id="PlantSpec-L"),
    pytest.param(lambda v: _spec(0.0, v), "lipschitz_M", id="PlantSpec-M"),
    pytest.param(lambda v: _spec(0.0, 0.0, v), "gain_lower_b", id="PlantSpec-b"),
    # builtin parameters, each checked on its own when the plant is built
    pytest.param(lambda v: bench3(a=v), "|a|", id="bench3-a"),
    pytest.param(lambda v: bench3(c=v), "|c|", id="bench3-c"),
    pytest.param(lambda v: bench3(mu=v), "mu", id="bench3-mu"),
    pytest.param(lambda v: bench3(sigma=v), "sigma", id="bench3-sigma"),
    pytest.param(lambda v: chain(2, sigma=v), "sigma", id="chain-sigma"),
    pytest.param(lambda v: ou(theta=v), "theta", id="ou-theta"),
    pytest.param(lambda v: ou(sigma=v), "sigma", id="ou-sigma"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_plant_constants_are_rejected(make, name, value):
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value).startswith(name)


@pytest.mark.parametrize("call, name", [
    # each ended in a TypeError traceback, ran with lam = 1 or kept a fractional n
    pytest.param(lambda: check_inequality(GainVector("pid", np.ones(2)), "1", 0.0), "L",
                 id="check_inequality-L-str"),
    pytest.param(lambda: bench3(sigma="0.2"), "sigma", id="bench3-sigma-str"),
    pytest.param(lambda: lambda_gains(True, 0.0, 0.0, 2), "lam", id="lambda_gains-lam-bool"),
    pytest.param(lambda: PlantSpec(1.5, 1, 1, None, lambda x: np.zeros((1, 1)), 0.0, 0.0), "n",
                 id="PlantSpec-n"),
    pytest.param(lambda: geometric_gains(10.0, 2.5), "n", id="geometric_gains-n"),
    pytest.param(lambda: lambda_gains(1.0, 0.0, 0.0, 2.5), "n", id="lambda_gains-n"),
    pytest.param(lambda: expression_plant(2.5, "u", "0", 0.0, 0.0), "n", id="expression_plant-n"),
    pytest.param(lambda: chain(2.5), "n", id="chain-n"),
    # the affine weights were read from text
    pytest.param(lambda: bench3(d="6.5"), "affine", id="bench3-d-str"),
    pytest.param(lambda: chain(2, bias="0.5"), "affine", id="chain-bias-str"),
    pytest.param(lambda: falsify_lipschitz(bench3(), samples=2.5), "samples",
                 id="falsify_lipschitz-samples"),
])
def test_one_number_rule_names_the_value(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(name)


def test_counts_are_stored_as_int():
    plant = PlantSpec(2.0, np.int64(1), 1, None, lambda x: np.zeros((1, 1)), 0.0, 0.0)
    assert (type(plant.n), type(plant.d), plant.state_dim) == (int, int, 2)
    assert geometric_gains(10.0, 2.0).n == 2


def understated_bench3() -> PlantSpec:
    """bench3's residual drift with an understated drift constant L = 0.01."""
    plant = bench3()
    return PlantSpec(
        n=3, d=1, m=1,
        drift=plant.drift, diffusion=plant.diffusion,
        lipschitz_L=0.01, lipschitz_M=0.0,
    )


def sin_diffusion_plant() -> PlantSpec:
    """g(x) = sin(x1) asserted with M = 0."""
    def diffusion(x):
        x = np.asarray(x, dtype=float)
        return np.sin(x[..., 0:1, None])

    return PlantSpec(1, 1, 1, lambda x, u: u, diffusion, 0.0, 0.0)


def falsify_per_sample(plant, samples, radius, seed):
    """Reference for falsify_lipschitz: one pair per plant call, the first worst kept."""
    rng = np.random.default_rng(seed)
    nd, d = plant.state_dim, plant.d
    worst = None
    for _ in range(samples):
        x1 = rng.uniform(-radius, radius, nd)
        x2 = rng.uniform(-radius, radius, nd)
        u = rng.uniform(-radius, radius, d)
        dist = float(np.linalg.norm(x1 - x2))
        if dist == 0.0:
            continue
        df = float(np.linalg.norm(plant.eval_drift(x1, u) - plant.eval_drift(x2, u)))
        dg = float(np.linalg.norm(plant.eval_diffusion(x1) - plant.eval_diffusion(x2)))
        tol = 1e-9 * (1.0 + dist)
        if df > plant.lipschitz_L * dist + tol or dg > plant.lipschitz_M * dist + tol:
            ratio = max(df / dist, dg / dist)
            if worst is None or ratio > worst["ratio"]:
                worst = {"x1": x1, "x2": x2, "u": u, "drift_ratio": df / dist,
                         "diffusion_ratio": dg / dist, "ratio": ratio}
    return worst


class TestFalsifyLipschitz:
    def test_valid_constants_not_refuted(self):
        assert falsify_lipschitz(bench3(), samples=300, seed=1) is None

    def test_understated_drift_constant_refuted(self):
        found = falsify_lipschitz(understated_bench3(), samples=300, seed=1)
        assert found is not None
        assert found["drift_ratio"] > 0.01

    def test_understated_diffusion_constant_refuted(self):
        found = falsify_lipschitz(sin_diffusion_plant(), samples=500, seed=2)
        assert found is not None
        assert found["diffusion_ratio"] > 0.0

    @pytest.mark.parametrize("make_plant", [bench3, understated_bench3, sin_diffusion_plant])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_matches_per_sample_loop(self, make_plant, seed):
        # one batched draw is the per-sample stream in order; the norms may
        # round differently, so only the ratios carry a tolerance
        plant = make_plant()
        found = falsify_lipschitz(plant, samples=300, radius=4.0, seed=seed)
        expect = falsify_per_sample(plant, 300, 4.0, seed)
        assert (found is None) == (expect is None)
        if expect is not None:
            for key in ("x1", "x2", "u"):
                assert np.array_equal(found[key], expect[key])
            for key in ("drift_ratio", "diffusion_ratio", "ratio"):
                assert found[key] == pytest.approx(expect[key], rel=1e-15, abs=0.0)

    def test_samples_must_be_positive(self):
        with pytest.raises(ValueError, match="samples"):
            falsify_lipschitz(bench3(), samples=0)

    @pytest.mark.parametrize("radius", [0.0, -10.0, np.nan, np.inf, 1e154, 1e308])
    def test_radius_must_be_positive_and_bounded(self, radius):
        # 0 gave a vacuous None, -10 a numpy "high - low < 0", NaN and inf an OverflowError;
        # 1e154 overflows the squared distances to inf tolerances, 1e308 even the box width
        with pytest.raises(ValueError, match="^radius"):
            falsify_lipschitz(understated_bench3(), samples=10, radius=radius)

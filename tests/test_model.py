import copy
import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest

import helpers
from stochpid import (
    GainVector,
    NoConvergence,
    NonFinite,
    PlantSpec,
    SimConfig,
    bench3,
    bound_constants,
    chain,
    check_inequality,
    determining_coeffs,
    expression_plant,
    geometric_gains,
    lambda_gains,
    nie_stable,
    ou,
    routh_hurwitz,
    solve_equilibrium,
)
from helpers import ClosedLoopState
from stochpid.model import _is_real, _Terms
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
        assert np.linalg.norm(plant.eval_drift(sp.z_star, sp.u_star)) <= 1e-10
        assert np.array_equal(sp.z_star, [0.0, 0.0, 0.0])

    def test_saturating_input_plant(self):
        plant = bench3(a=0.0, b=-0.3, c=0.5, d=6.0, mu=5.2, sigma=0.0)
        sp = solve_equilibrium(plant, 0.0)
        oracle = bisect_u_star(lambda u: u + 5.2 * np.tanh(u) + 6.0, -6.0, 0.0)
        assert sp.u_star[0] == pytest.approx(oracle, abs=1e-6)
        assert np.linalg.norm(plant.eval_drift(sp.z_star, sp.u_star)) <= 1e-10

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
            solve_equilibrium(plant, 0.0)

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
        assert np.linalg.norm(plant.eval_drift(sp.z_star, sp.u_star)) <= 1e-10

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
            assert np.linalg.norm(plant.eval_drift(sp.z_star, sp.u_star)) <= 1e-10

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


class TestShiftedCoordinates:
    """The proof's equilibrium-shifted blocks y0 = -acc + u*/k0, y1 = x1 - y*, yi = xi."""

    def test_controller_identity(self):
        # PID output equals -sum(k_i y_i) + u*, where acc is the controller's
        # error accumulator, the integral of e = y* - x1
        rng = np.random.default_rng(31)
        plant = bench3()
        sp = solve_equilibrium(plant, 1.0)
        g = GainVector("pid", np.array([8.6, 21.5, 21.5, 8.6]))
        K = _control_law(g, sp.y_star)
        for _ in range(50):
            x = rng.standard_normal(3)
            acc = rng.standard_normal(1)
            state = ClosedLoopState(x=x, integral=acc, t=0.0)
            u = K @ helpers.law_input(state)
            y = np.concatenate([-acc + sp.u_star / g.gains[0], x[:1] - sp.y_star, x[1:]])
            via_shift = -np.sum(g.gains * y) + sp.u_star
            assert np.allclose(u, via_shift, rtol=1e-10, atol=1e-10)


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

    @pytest.mark.parametrize("drift, diffusion, field", [
        # each built and solved u*, then failed in simulate_paths with a TypeError
        (None, None, "diffusion"),
        (None, np.array([[0.1]]), "diffusion"),
        ([(np.sin, 0, (0.4,))], np.array([[0.1]]).copy, "drift"),  # a list of terms
        (0.5, np.array([[0.1]]).copy, "drift"),
    ])
    def test_drift_and_diffusion_types_are_checked(self, drift, diffusion, field):
        with pytest.raises(ValueError, match=f"^{field}: expected "):
            PlantSpec(1, 1, 1, drift, diffusion, 0.0, 0.0, affine=[[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match=f"^{field}: expected "):
            dataclasses.replace(ou(), **{field: drift if field == "drift" else diffusion})


class TestTerms:
    """A residual given as elementwise terms: sum_k weights_k * ufunc_k(z[source_k])."""

    def test_bench3_drift_is_the_formula_bitwise(self):
        rng = np.random.default_rng(8)
        x, u = rng.uniform(-5.0, 5.0, (200, 3)), rng.uniform(-10.0, 10.0, (200, 1))
        x[:4], u[:2] = -0.0, -0.0  # the sign of a zero is kept too
        plant = bench3(a=0.3, mu=1.5)
        want = 0.3 * np.sin(x[..., 0:1]) + 1.5 * np.tanh(u)
        assert plant.drift(x, u).tobytes() == want.tobytes()
        assert plant.drift(x[7], u[7]).tobytes() == want[7].tobytes()

    def test_a_term_feeds_every_input_dimension(self):
        plant = PlantSpec(1, 2, 1, ((np.sin, 0, (0.5, -2.0)), (np.tanh, 3, (0.0, 1.0))),
                          lambda x: np.zeros((2, 1)), 1.0, 0.0)
        x, u = np.array([[0.3, -0.4]]), np.array([[0.1, 0.7]])
        want = np.sin(0.3) * np.array([0.5, -2.0]) + np.tanh(0.7) * np.array([0.0, 1.0])
        assert np.allclose(plant.eval_drift(x, u), want, rtol=1e-15, atol=0.0)
        assert plant.drift == ((np.sin, 0, (0.5, -2.0)), (np.tanh, 3, (0.0, 1.0)))

    @pytest.mark.parametrize("term, message", [
        ((np.sin,), r"drift\[0\]: expected \(ufunc, source, weights\)"),
        ((np.sin, 0), r"drift\[0\]: expected \(ufunc, source, weights\)"),
        ((np.sin, 0, (1.0, 2.0), 3), r"drift\[0\]: expected \(ufunc, source, weights\)"),
        ((lambda v: v, 0, (1.0, 2.0)), r"drift\[0\]: expected a unary numpy ufunc"),
        ((np.add, 0, (1.0, 2.0)), r"drift\[0\]: expected a unary numpy ufunc"),
        ((np.divmod, 0, (1.0, 2.0)), r"drift\[0\]: expected a unary numpy ufunc"),
        ((np.frexp, 0, (1.0, 2.0)), r"drift\[0\]: expected a unary numpy ufunc"),
        ((np.sin, -1, (1.0, 2.0)), r"drift\[0\]: source must be an index in \[0, 6\)"),
        ((np.sin, 6, (1.0, 2.0)), r"drift\[0\]: source must be an index in \[0, 6\)"),
        ((np.sin, 1.5, (1.0, 2.0)), r"drift\[0\]: source must be an index"),
        ((np.sin, "0", (1.0, 2.0)), r"drift\[0\]: source must be an index"),
        ((np.sin, True, (1.0, 2.0)), r"drift\[0\]: source must be an index"),
        ((np.sin, 0, (1.0,)), r"drift\[0\] weights: expected 2 finite number"),
        ((np.sin, 0, 1.0), r"drift\[0\] weights: expected 2 finite number"),
        ((np.sin, 0, (1.0, np.nan)), r"drift\[0\] weights: expected 2 finite number"),
        ((np.sin, 0, (1.0, np.inf)), r"drift\[0\] weights: expected 2 finite number"),
        ((np.sin, 0, (1.0, "2")), r"drift\[0\] weights: expected 2 finite number"),
    ])
    def test_terms_are_checked(self, term, message):
        # n*d + d = 2*2 + 2 = 6 entries in z = [x; u]
        with pytest.raises(ValueError, match="^" + message):
            PlantSpec(2, 2, 1, (term,), lambda x: np.zeros((2, 1)), 1.0, 0.0)

    def test_a_later_term_is_named_by_its_index(self):
        with pytest.raises(ValueError, match=r"^drift\[1\]: source"):
            PlantSpec(1, 1, 1, ((np.sin, 0, (1.0,)), (np.sin, 2, (1.0,))),
                      lambda x: np.zeros((1, 1)), 1.0, 0.0)

    def test_replacing_the_drift_replaces_the_terms(self):
        # the drift is the one residual: a callable in place of the terms is stepped as
        # a callable, and terms in place of a callable are the terms
        plant = bench3()
        wrapped = dataclasses.replace(plant, drift=lambda x, u: plant.drift(x, u))
        assert not isinstance(wrapped.drift, tuple)
        back = dataclasses.replace(wrapped, drift=tuple(plant.drift))
        assert back.drift == plant.drift and back.drift is not plant.drift
        assert dataclasses.replace(plant, drift=()).drift is None
        with pytest.raises(TypeError, match="terms"):
            dataclasses.replace(plant, terms=((np.sin, 0, (0.1,)),))

    def test_copies_and_pickles_keep_the_terms(self):
        plant = PlantSpec(1, 2, 1, ((np.sin, 0, (0.5, -2.0)), (np.tanh, 3, (0.0, 1.0))),
                          np.zeros((2, 1)).copy, 1.0, 0.0)  # a builtin method pickles
        x, u = np.array([[0.3, -0.4]]), np.array([[0.1, 0.7]])
        for other in (copy.copy(plant), copy.deepcopy(plant), pickle.loads(pickle.dumps(plant))):
            assert isinstance(other.drift, _Terms) and other.drift == plant.drift
            assert other.drift.state_dim == 2
            assert other.eval_drift(x, u).tobytes() == plant.eval_drift(x, u).tobytes()

    def test_replaced_terms_are_the_residual_solved(self):
        # bench3's affine part with the residual 0.1*sin(x1): eval_drift and u* read the
        # terms the simulator steps
        plant = dataclasses.replace(bench3(), drift=((np.sin, 0, (0.1,)),))
        assert plant.eval_drift([0.5, 0.0, 0.0], [0.2]) == pytest.approx(
            [6.2 + 0.1 * np.sin(0.5)], rel=1e-15)
        u_star = solve_equilibrium(plant, 1.0).u_star
        assert u_star == pytest.approx([-(6.0 + 0.1 * np.sin(1.0))], rel=1e-12)

    def test_terms_are_checked_again_on_replace(self):
        # a replaced n checks the stored terms against the new z = [x; u]; no affine part,
        # whose shape check would fail first
        plant = PlantSpec(2, 1, 1, ((np.tanh, 2, (1.0,)),), lambda x: np.zeros((1, 1)),
                          1.0, 0.0)
        assert plant.drift.state_dim == 2
        with pytest.raises(ValueError, match=r"^drift\[0\]: source must be an index in \[0, 2\)"):
            dataclasses.replace(plant, n=1)


def _spec(*constants, **fields):
    return PlantSpec(1, 1, 1, None, lambda x: np.zeros((1, 1)), *constants, **fields)


PID2 = GainVector("pid", np.ones(2))


@pytest.mark.parametrize("make, name", [
    # asserted constants that no sampling could ever refute
    pytest.param(lambda v: _spec(v, 0.0), "lipschitz_L", id="PlantSpec-L"),
    pytest.param(lambda v: _spec(0.0, v), "lipschitz_M", id="PlantSpec-M"),
    pytest.param(lambda v: _spec(0.0, 0.0, v), "gain_lower_b", id="PlantSpec-b"),
    # builtin parameters, each checked on its own when the plant is built
    pytest.param(lambda v: bench3(a=v), "a", id="bench3-a"),
    pytest.param(lambda v: bench3(c=v), "c", id="bench3-c"),
    pytest.param(lambda v: bench3(mu=v), "mu", id="bench3-mu"),
    pytest.param(lambda v: bench3(d=v), "d", id="bench3-d"),
    pytest.param(lambda v: bench3(sigma=v), "sigma", id="bench3-sigma"),
    pytest.param(lambda v: chain(2, bias=v), "bias", id="chain-bias"),
    pytest.param(lambda v: chain(2, sigma=v), "sigma", id="chain-sigma"),
    pytest.param(lambda v: ou(theta=v), "theta", id="ou-theta"),
    pytest.param(lambda v: ou(sigma=v), "sigma", id="ou-sigma"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_plant_constants_are_rejected(make, name, value):
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value).startswith(f"{name}: expected a ")


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
    # the affine weights were read from text, and the error named the affine array
    pytest.param(lambda: bench3(d="6.5"), "d", id="bench3-d-str"),
    pytest.param(lambda: chain(2, bias="0.5"), "bias", id="chain-bias-str"),
    # bound_constants took any L and M: a negative one, NaN, or text in a TypeError
    pytest.param(lambda: bound_constants(PID2, 1.0, -1.0, 0.0, 1.0), "L",
                 id="bound_constants-L-negative"),
    pytest.param(lambda: bound_constants(PID2, 1.0, 0.0, -3.0, 1.0), "M",
                 id="bound_constants-M-negative"),
    pytest.param(lambda: bound_constants(PID2, 1.0, np.nan, 0.0, 1.0), "L",
                 id="bound_constants-L-nan"),
    pytest.param(lambda: bound_constants(PID2, 1.0, "1", 0.0, 1.0), "L",
                 id="bound_constants-L-str"),
    # a Fraction beyond float64 ended in OverflowError from math.isfinite
    pytest.param(lambda: bound_constants(PID2, Fraction(10 ** 400), 0.5, 0.0, 1.0), "lam",
                 id="bound_constants-lam-huge-fraction"),
    pytest.param(lambda: SimConfig(dt=0.1, horizon=Fraction(10 ** 400), paths=1, seed=1),
                 "horizon", id="SimConfig-horizon-huge-fraction"),
    # array entries were read from text and bools by np.asarray(..., dtype=float)
    pytest.param(lambda: GainVector("pid", ["1", "2"]), "gains", id="GainVector-str"),
    pytest.param(lambda: GainVector("pid", [True, 2.0]), "gains", id="GainVector-bool"),
    pytest.param(lambda: GainVector("pid", np.ones((2, 2))), "gains", id="GainVector-2d"),
    pytest.param(lambda: GainVector("pid", []), "gains", id="GainVector-empty"),
    pytest.param(lambda: lambda_gains(1.0, 0.0, 0.0, 2, betas=["0.05", "0.01"]), "betas",
                 id="lambda_gains-betas-str"),
    pytest.param(lambda: routh_hurwitz(["1", "3", "3", "1"]), "coefficients",
                 id="routh_hurwitz-str"),
    pytest.param(lambda: determining_coeffs(["1", "3", "3", "1"]), "coefficients",
                 id="determining_coeffs-str"),
    pytest.param(lambda: nie_stable(["1", "6", "15", "20", "15", "6", "1"]), "coefficients",
                 id="nie_stable-str"),
    pytest.param(lambda: _spec(0.0, 0.0, 1.0, affine=[[True, 0.0, 1.0]]), "affine",
                 id="PlantSpec-affine-bool"),
])
def test_one_number_rule_names_the_value(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{name}: expected ")


def test_exact_rationals_are_real():
    # a numbers.Real that is neither a float nor an Integral is read by its float value
    assert _is_real(Fraction(1, 3))


def test_counts_are_stored_as_int():
    plant = PlantSpec(2.0, np.int64(1), 1, None, lambda x: np.zeros((1, 1)), 0.0, 0.0)
    assert (type(plant.n), type(plant.d), plant.state_dim) == (int, int, 2)
    assert geometric_gains(10.0, 2.0).n == 2

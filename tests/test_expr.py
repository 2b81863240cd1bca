import numpy as np
import pytest

from stochpid import bench3, expression_plant
from stochpid.expr import (
    ArityError,
    Bin,
    Call,
    Num,
    ParseError,
    Unary,
    UnknownIdentifier,
    Var,
    eval_expr,
    format_expr,
    parse_expr,
    variables_of,
)

BENCH_DRIFT = "0.4*sin(x1) - 0.3*x2 + 0.5*x3 + 6 + u + 5.2*tanh(u)"


class TestParsing:
    def test_identity_input(self):
        assert parse_expr("u") == Var("u")

    def test_left_associativity(self):
        ast = parse_expr("1 - 2 - 3")
        assert eval_expr(ast, {}) == -4.0
        assert ast == Bin("-", Bin("-", Num(1.0), Num(2.0)), Num(3.0))

    def test_precedence(self):
        assert eval_expr(parse_expr("2 + 3 * 4"), {}) == 14.0
        assert eval_expr(parse_expr("(2 + 3) * 4"), {}) == 20.0
        assert eval_expr(parse_expr("2 / 4 / 2"), {}) == 0.25

    def test_unary_minus(self):
        assert eval_expr(parse_expr("-3 + 1"), {}) == -2.0
        assert eval_expr(parse_expr("2 * -3"), {}) == -6.0
        assert parse_expr("-x1") == Unary(Var("x1"))

    def test_bench_drift_structure(self):
        ast = parse_expr(BENCH_DRIFT, n=3)
        assert variables_of(ast) == {"x1", "x2", "x3", "u"}
        env = {"x1": 0.5, "x2": -1.0, "x3": 2.0, "u": 0.3}
        expected = (
            0.4 * np.sin(0.5) - 0.3 * -1.0 + 0.5 * 2.0 + 6 + 0.3 + 5.2 * np.tanh(0.3)
        )
        assert eval_expr(ast, env) == pytest.approx(expected, rel=1e-15)

    def test_scientific_notation(self):
        assert eval_expr(parse_expr("1e-3 + 2.5E2"), {}) == pytest.approx(250.001)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_expr("1 + $")
        assert info.value.position == 4
        with pytest.raises(ParseError):
            parse_expr("1 +")
        with pytest.raises(ParseError):
            parse_expr("(1 + 2")
        with pytest.raises(ParseError):
            parse_expr("1 2")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_expr("y + 1")
        with pytest.raises(UnknownIdentifier):
            parse_expr("x0")
        with pytest.raises(UnknownIdentifier):
            parse_expr("x3", n=2)
        with pytest.raises(UnknownIdentifier):
            parse_expr("floor(x1)")
        with pytest.raises(UnknownIdentifier):
            parse_expr("u", allow_u=False)

    def test_arity_errors(self):
        with pytest.raises(ArityError):
            parse_expr("sin()")
        with pytest.raises(ArityError):
            parse_expr("sin(x1, x1)", n=1)


class TestRoundTrip:
    @staticmethod
    def random_ast(rng, depth):
        if depth == 0 or rng.random() < 0.3:
            choice = rng.integers(0, 3)
            if choice == 0:
                return Num(round(abs(float(rng.standard_normal())), 6))
            if choice == 1:
                return Var(f"x{int(rng.integers(1, 4))}")
            return Var("u")
        choice = rng.integers(0, 3)
        if choice == 0:
            return Unary(TestRoundTrip.random_ast(rng, depth - 1))
        if choice == 1:
            fn = ("sin", "cos", "tanh", "exp", "abs")[int(rng.integers(0, 5))]
            return Call(fn, TestRoundTrip.random_ast(rng, depth - 1))
        op = "+-*/"[int(rng.integers(0, 4))]
        return Bin(
            op,
            TestRoundTrip.random_ast(rng, depth - 1),
            TestRoundTrip.random_ast(rng, depth - 1),
        )

    def test_parse_print_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            ast = self.random_ast(rng, int(rng.integers(1, 6)))
            assert parse_expr(format_expr(ast)) == ast

    def test_round_trip_of_parsed_sources(self):
        for text in (
            BENCH_DRIFT,
            "1 - 2 - 3",
            "-(x1 + x2) * -u / (1 + exp(-x1))",
            "abs(x1)/3 - -2",
        ):
            ast = parse_expr(text)
            assert parse_expr(format_expr(ast)) == ast


class TestEvaluation:
    def test_array_broadcast(self):
        ast = parse_expr("x1 * u + 1")
        out = eval_expr(ast, {"x1": np.array([1.0, 2.0]), "u": np.array([3.0, 4.0])})
        assert np.array_equal(out, [4.0, 9.0])

    def test_scalar_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            eval_expr(parse_expr("1 / x1"), {"x1": 0.0})


class TestExpressionPlant:
    def test_matches_builtin_bench(self):
        plant = expression_plant(3, BENCH_DRIFT, "0.2", L=np.sqrt(3) / 2, M=0.0)
        builtin = bench3(a=0.4, b=-0.3, c=0.5, d=6.0, mu=5.2, sigma=0.2)
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.standard_normal(3)
            u = rng.standard_normal(1)
            assert plant.eval_drift(x, u) == pytest.approx(
                builtin.eval_drift(x, u), rel=1e-12, abs=1e-12
            )
            assert np.allclose(plant.eval_diffusion(x), builtin.eval_diffusion(x))
        # batched evaluation agrees with the loop
        xs = rng.standard_normal((64, 3))
        us = rng.standard_normal((64, 1))
        batch = plant.eval_drift(xs, us)
        rows = np.stack([plant.eval_drift(xs[i], us[i]) for i in range(64)])
        assert np.array_equal(batch, rows)

    def test_diffusion_cannot_use_u(self):
        with pytest.raises(UnknownIdentifier):
            expression_plant(2, "u", "0.1*u", L=0.0, M=0.0)

    def test_state_dependent_diffusion(self):
        plant = expression_plant(2, "u", "0.5*x2", L=0.0, M=0.5)
        out = plant.eval_diffusion(np.array([1.0, 3.0]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.5)
        assert plant.diffusion(np.ones((5, 2))).shape == (5, 1, 1)

    def test_constant_diffusion_is_unbatched(self):
        # a formula without variables is one (1, 1) matrix, which the simulator folds
        plant = expression_plant(2, "u", "0.1 + exp(0)", L=0.0, M=0.0)
        assert np.array_equal(plant.diffusion(np.ones((5, 2))), [[1.1]])
        assert plant.eval_diffusion(np.ones((5, 2))).shape == (5, 1, 1)

    def test_formula_errors_name_the_formula(self):
        with pytest.raises(UnknownIdentifier, match="^drift: unknown identifier 'foo'"):
            expression_plant(1, "u + foo", "0.1", L=0.0, M=0.0)

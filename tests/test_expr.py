import ast
import re

import numpy as np
import pytest

from stochpid import bench3, expression_plant
from stochpid.expr import (
    ParseError,
    compile_expr,
    eval_expr,
    fold_constants,
    parse_expr,
    split_sum,
)

BENCH_DRIFT = "0.4*sin(x1) - 0.3*x2 + 0.5*x3 + 6 + u + 5.2*tanh(u)"
num = ast.Constant


def var(name):
    return ast.Name(name, ast.Load())


def neg(operand):
    return ast.UnaryOp(ast.USub(), operand)


def binop(op, left, right):
    return ast.BinOp(left, {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div}[op](), right)


def call(func, arg):
    return ast.Call(var(func), [arg], [])


def same(a, b):
    """Trees are equal when they dump equal (source positions aside)."""
    return ast.dump(a) == ast.dump(b)


def evaluate(tree, env):
    return eval_expr(compile_expr(tree), env)


class TestParsing:
    def test_identity_input(self):
        assert same(parse_expr("u"), var("u"))

    def test_left_associativity(self):
        tree = parse_expr("1 - 2 - 3")
        assert evaluate(tree, {}) == -4.0
        assert same(tree, binop("-", binop("-", num(1.0), num(2.0)), num(3.0)))

    def test_precedence(self):
        assert evaluate(parse_expr("2 + 3 * 4"), {}) == 14.0
        assert evaluate(parse_expr("(2 + 3) * 4"), {}) == 20.0
        assert evaluate(parse_expr("2 / 4 / 2"), {}) == 0.25

    def test_unary_minus(self):
        assert evaluate(parse_expr("-3 + 1"), {}) == -2.0
        assert evaluate(parse_expr("2 * -3"), {}) == -6.0
        assert same(parse_expr("-x1"), neg(var("x1")))

    def test_bench_drift_structure(self):
        tree = parse_expr(BENCH_DRIFT, n=3)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert names == {"x1", "x2", "x3", "u", "sin", "tanh"}
        env = {"x1": 0.5, "x2": -1.0, "x3": 2.0, "u": 0.3}
        expected = (
            0.4 * np.sin(0.5) - 0.3 * -1.0 + 0.5 * 2.0 + 6 + 0.3 + 5.2 * np.tanh(0.3)
        )
        assert evaluate(tree, env) == pytest.approx(expected, rel=1e-15)

    def test_scientific_notation(self):
        assert evaluate(parse_expr("1e-3 + 2.5E2"), {}) == pytest.approx(250.001)

    @pytest.mark.parametrize("text, error, position", [
        ("1 + $", ParseError, 4),
        ("x1 % 2", ParseError, 3),
        ("sin(x=1)", ParseError, 5),
        ("\uff581", ParseError, 0),  # fullwidth x1, which NFKC would turn into x1
        ("\u0663", ParseError, 0),  # Arabic-Indic three, a \d digit but not an ASCII one
        ("x1 ** 2", ParseError, 3),
        ("  (x1) ** (2)", ParseError, 7),
        ("x1 // 2", ParseError, 3),
        ("1_0", ParseError, 0),
        ("0x10", ParseError, 0),
        ("1j", ParseError, 0),
        ("+x1", ParseError, 0),
        ("True", ParseError, 0),
        ("x1 if u else 1", ParseError, 0),
        ("x1.real", ParseError, 0),
        ("sin(*x1)", ParseError, 4),
        ("sin(**x1)", ParseError, 4),
        ("sin(x1,)", ParseError, 6),
        ("(sin)(x1)", ParseError, 0),
        ("1,2", ParseError, 0),
        ("x1 +\u00a0foo", ParseError, 5),
        ("sin()", ParseError, 0),
        # trees deeper than 200 levels, which no later walk has to recurse through
        pytest.param("u" + " + x1" * 1200, ParseError, 0, id="sum-of-1201-terms"),
        pytest.param("-" * 200 + "u", ParseError, 200, id="200-unary-minus"),
        # deep enough that ast.parse itself gives up
        pytest.param("u" + " + x1" * 5000, ParseError, 0, id="sum-of-5001-terms"),
        # Python's own syntax errors: only the range of the position is pinned
        ("", ParseError, None),
        (" \n ", ParseError, None),
        ("1 +", ParseError, None),
        ("(1 + 2", ParseError, None),
        ("1 2", ParseError, None),
        ("1if u else 2", ParseError, None),
    ])
    def test_syntax_error_position(self, text, error, position):
        with pytest.raises(ParseError) as info:
            parse_expr(text)
        assert type(info.value) is error
        if position is None:
            assert 0 <= info.value.position <= len(text)
        else:
            assert info.value.position == position

    def test_literals_python_spells_differently(self):
        # whitespace and line breaks anywhere, leading zeros, and an integer
        # literal too long for a float are all part of the DSL
        assert same(parse_expr("\n 007 *\tx1\n"), binop("*", num(7.0), var("x1")))
        assert same(parse_expr("00.5e-05 - 1E+007"), binop("-", num(0.5e-5), num(1e7)))
        assert same(parse_expr("1" * 400 + "*x1"), binop("*", num(float("inf")), var("x1")))

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="^unknown identifier 'y'"):
            parse_expr("y + 1")
        with pytest.raises(ParseError, match="^unknown identifier 'x0'"):
            parse_expr("x0")
        with pytest.raises(ParseError, match=r"^x3 exceeds the state dimension \(n=2\)"):
            parse_expr("x3", n=2)
        with pytest.raises(ParseError, match="^unknown function 'floor'"):
            parse_expr("floor(x1)")
        with pytest.raises(ParseError, match="^u is not allowed in a diffusion expression"):
            parse_expr("u", allow_u=False)

    def test_arity_errors(self):
        with pytest.raises(ParseError, match="^sin takes exactly one argument, got 0"):
            parse_expr("sin()")
        with pytest.raises(ParseError, match="^sin takes exactly one argument, got 2"):
            parse_expr("sin(x1, x1)", n=1)


class TestRoundTrip:
    @staticmethod
    def random_ast(rng, depth):
        if depth == 0 or rng.random() < 0.3:
            choice = rng.integers(0, 3)
            if choice == 0:
                return num(round(abs(float(rng.standard_normal())), 6))
            if choice == 1:
                return var(f"x{int(rng.integers(1, 4))}")
            return var("u")
        choice = rng.integers(0, 3)
        if choice == 0:
            return neg(TestRoundTrip.random_ast(rng, depth - 1))
        if choice == 1:
            fn = ("sin", "cos", "tanh", "exp", "abs")[int(rng.integers(0, 5))]
            return call(fn, TestRoundTrip.random_ast(rng, depth - 1))
        op = "+-*/"[int(rng.integers(0, 4))]
        return binop(
            op,
            TestRoundTrip.random_ast(rng, depth - 1),
            TestRoundTrip.random_ast(rng, depth - 1),
        )

    def test_parse_print_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            tree = self.random_ast(rng, int(rng.integers(1, 6)))
            assert same(parse_expr(ast.unparse(tree)), tree)

    def test_round_trip_of_parsed_sources(self):
        for text in (
            BENCH_DRIFT,
            "1 - 2 - 3",
            "-(x1 + x2) * -u / (1 + exp(-x1))",
            "abs(x1)/3 - -2",
        ):
            tree = parse_expr(text)
            assert same(parse_expr(ast.unparse(tree)), tree)


class TestEvaluation:
    def test_array_broadcast(self):
        tree = parse_expr("x1 * u + 1")
        out = evaluate(tree, {"x1": np.array([1.0, 2.0]), "u": np.array([3.0, 4.0])})
        assert np.array_equal(out, [4.0, 9.0])

    @pytest.mark.parametrize("tree", [
        ast.Attribute(var("x1"), "real", ast.Load()),  # what "x1.real" would parse to
        binop("+", var("u"), ast.Call(var("sin"), [], [ast.keyword("x", num(1.0))])),
        ast.BinOp(var("x1"), ast.Pow(), num(2.0)),
    ])
    def test_compile_refuses_nodes_outside_the_dsl(self, tree):
        # the parser's whitelist is the only way outside text reaches compile
        with pytest.raises(ValueError, match="is not part of a formula$"):
            compile_expr(tree)

    def test_scalar_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            evaluate(parse_expr("1 / x1"), {"x1": 0.0})


class TestConstantFolding:
    def test_constant_subtrees_become_numbers(self):
        assert same(fold_constants(parse_expr("0.1 + exp(0)")), num(0.1 + 1.0))
        assert same(fold_constants(parse_expr("-0.3*x2")), binop("*", num(-0.3), var("x2")))
        assert same(fold_constants(parse_expr("2*3*x1 + sin(x1)/(1 + 1)")),
                    parse_expr("6*x1 + sin(x1)/2"))
        # left-associative: x1*2*3 has no variable-free subtree
        assert same(fold_constants(parse_expr("x1*2*3")), parse_expr("x1*2*3"))

    def test_folding_keeps_values(self):
        text = "abs(-2)*x1/3 - (1 - 4)*tanh(u) + exp(-1)*cos(x1)"
        env = {"x1": np.linspace(-2.0, 2.0, 9), "u": np.linspace(1.0, -1.0, 9)}
        assert np.array_equal(evaluate(fold_constants(parse_expr(text)), env),
                              evaluate(parse_expr(text), env))

    @pytest.mark.parametrize("text, message", [
        ("u + 1/0", "1.0 / 0.0 divides by zero"),
        ("1/0", "1.0 / 0.0 divides by zero"),
        ("u + sin(1/0)*x1", "1.0 / 0.0 divides by zero"),
        ("x1/(1 - 1)", "x1 / (1.0 - 1.0) divides by zero"),
        ("u + exp(1000)", "constant exp(1000.0) is not finite"),
        ("u + 1e400", "constant inf is not finite"),
    ])
    def test_bad_constants_are_rejected(self, text, message):
        # the suite turns a RuntimeWarning into an error, so none is emitted either
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fold_constants(parse_expr(text))


class TestAffineSplit:
    @staticmethod
    def split(text):
        return split_sum(fold_constants(parse_expr(text)))

    def test_bench_formula(self):
        const, coeffs, terms, residual = self.split(BENCH_DRIFT)
        assert (const, coeffs) == (6.0, {"x2": -0.3, "x3": 0.5, "u": 1.0})
        assert (terms, residual) == ([("sin", "x1", 0.4), ("tanh", "u", 5.2)], None)
        plant = expression_plant(3, BENCH_DRIFT, "0.2", L=np.sqrt(3) / 2, M=0.0)
        assert np.array_equal(plant.affine, [[6.0, 0.0, -0.3, 0.5, 1.0]])

    def test_affine_only_formula_has_no_drift_callable(self):
        assert self.split("u - 0.2*x1") == (0.0, {"u": 1.0, "x1": -0.2}, [], None)
        plant = expression_plant(2, "u - 0.2*x1", "0.1", L=0.2, M=0.0)
        assert plant.drift is None
        assert np.array_equal(plant.affine, [[0.0, -0.2, 0.0, 1.0]])

    @pytest.mark.parametrize("term", ["x1*x2", "2/x1", "x1*u", "sin(x1*u)", "2*(x1 + u)"])
    def test_nonlinear_terms_stay_residual(self, term):
        const, coeffs, terms, residual = self.split(f"u + {term} - 1")
        assert (const, coeffs, terms) == (-1.0, {"u": 1.0}, [])
        assert same(residual, fold_constants(parse_expr(term)))
        plant = expression_plant(2, f"{term} - 1", "0.1", L=1.0, M=0.0)
        assert np.array_equal(plant.affine, [[-1.0, 0.0, 0.0, 0.0]])

    def test_terms_through_unary_minus_and_repeats(self):
        assert self.split("x1 + 2*x1") == (0.0, {"x1": 3.0}, [], None)
        const, coeffs, terms, residual = self.split("-(x1/4 - 3) - -u*2 - sin(x2)")
        assert (const, coeffs, terms, residual) == (3.0, {"x1": -0.25, "u": 2.0},
                                                    [("sin", "x2", -1.0)], None)
        const, coeffs, terms, residual = self.split("sin(x1) - cos(x2) - x1*x2")
        assert (const, coeffs, terms) == (0.0, {}, [])
        assert same(residual, binop("-", binop("-", call("sin", var("x1")), call("cos", var("x2"))),
                                    binop("*", var("x1"), var("x2"))))
        assert same(self.split("-sin(x1*x2) + cos(x2)")[3],
                    binop("+", neg(call("sin", binop("*", var("x1"), var("x2")))),
                          call("cos", var("x2"))))
        assert expression_plant(2, "sin(x1) + tanh(u)", "0.1", L=1.0, M=0.0).affine is None

    @pytest.mark.parametrize("text", [
        BENCH_DRIFT,
        "u - 0.2*x1 + x3/3",
        "-(x1*x2) + 2*x1 - x1/7 + u*1.5 - abs(u) + 0.25",
        "sin(x1) - exp(-x2)*u",
    ])
    def test_split_plant_evaluates_the_unsplit_formula(self, text):
        plant = expression_plant(3, text, "0.2", L=1.0, M=0.0)
        tree = parse_expr(text, n=3)
        rng = np.random.default_rng(43)
        x, u = rng.standard_normal((256, 3)), rng.standard_normal((256, 1))
        env = {"x1": x[:, 0], "x2": x[:, 1], "x3": x[:, 2], "u": u[:, 0]}
        want = evaluate(tree, env)[:, None]
        assert np.allclose(plant.eval_drift(x, u), want, rtol=1e-14, atol=1e-14)
        assert np.allclose(plant.eval_drift(x[0], u[0]), want[0], rtol=1e-14, atol=1e-14)


class TestTermLowering:
    """A residual whose every term is a scaled function of one variable is data."""

    @pytest.mark.parametrize("text, terms", [
        ("0.4*sin(x1)", ((np.sin, 0, (0.4,)),)),
        ("sin(x1)/4", ((np.sin, 0, (0.25,)),)),
        ("-tanh(u)", ((np.tanh, 2, (-1.0,)),)),
        ("tanh(u)*5.2", ((np.tanh, 2, (5.2,)),)),
        ("abs(x2)", ((np.abs, 1, (1.0,)),)),
        ("u - 0.2*x1 + 0.4*sin(x1) - 2*(3*exp(x2)) + cos(u)",
         ((np.sin, 0, (0.4,)), (np.exp, 1, (-6.0,)), (np.cos, 2, (1.0,)))),
    ])
    def test_lowered(self, text, terms):
        plant = expression_plant(2, text, "0.1", L=1.0, M=0.0)
        assert plant.drift == terms
        # the terms are the drift, so eval_drift and u* read the sum the simulator steps
        rng = np.random.default_rng(44)
        x, u = rng.standard_normal((64, 2)), rng.standard_normal((64, 1))
        want = evaluate(parse_expr(text, n=2), {"x1": x[:, 0], "x2": x[:, 1], "u": u[:, 0]})
        assert np.allclose(plant.eval_drift(x, u), want[:, None], rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("text", [
        "sin(x1 - 1)",
        "u*sin(x1)",
        "sin(x1)*cos(x2)",
        "0.4*sin(x1) + x1*x2",
        "sin(x1) + exp(-x2)",
        "u - 0.2*x1",
    ])
    def test_kept_as_a_callable(self, text):
        plant = expression_plant(2, text, "0.1", L=1.0, M=0.0)
        assert not isinstance(plant.drift, tuple)
        assert (plant.drift is None) == (text == "u - 0.2*x1")

    def test_split_terms_reads_the_residual_sum(self):
        # one term that is not a scaled function of one variable keeps the whole sum,
        # in its order, as the residual
        tree = fold_constants(parse_expr("0.4*sin(x1) - u + tanh(u)/2 + x1*x2"))
        const, coeffs, terms, residual = split_sum(tree)
        assert (const, coeffs, terms) == (0.0, {"u": -1.0}, [])
        assert ast.unparse(residual) == "0.4 * sin(x1) + tanh(u) / 2.0 + x1 * x2"
        assert split_sum(tree.left) == (0.0, {"u": -1.0}, [("sin", "x1", 0.4),
                                                           ("tanh", "u", 0.5)], None)


class TestExpressionPlant:
    def test_matches_builtin_bench(self):
        # bench3 is this formula with its defaults written in, lowered by the same
        # split: the same affine bytes, term triples and diffusion value
        plant = expression_plant(3, BENCH_DRIFT, "0.2", L=np.sqrt(3) / 2, M=0.0)
        builtin = bench3(a=0.4, b=-0.3, c=0.5, d=6.0, mu=5.2, sigma=0.2)
        assert plant.affine.tobytes() == builtin.affine.tobytes()
        assert plant.drift == builtin.drift == ((np.sin, 0, (0.4,)), (np.tanh, 3, (5.2,)))
        assert plant.diffusion(np.zeros(3)).tobytes() == np.array([[0.2]]).tobytes()
        assert builtin.diffusion(np.zeros(3)).tobytes() == np.array([[0.2]]).tobytes()
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.standard_normal(3)
            u = rng.standard_normal(1)
            assert plant.eval_drift(x, u).tobytes() == builtin.eval_drift(x, u).tobytes()
        # batched evaluation agrees with the loop
        xs = rng.standard_normal((64, 3))
        us = rng.standard_normal((64, 1))
        batch = plant.eval_drift(xs, us)
        rows = np.stack([plant.eval_drift(xs[i], us[i]) for i in range(64)])
        assert np.array_equal(batch, rows)

    def test_diffusion_cannot_use_u(self):
        with pytest.raises(ParseError, match="^diffusion: u is not allowed in a diffusion"):
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

    @staticmethod
    def random_formula(rng, names, depth=3):
        """A seeded formula over ``names`` (constants only when it is empty)."""
        if depth == 0 or rng.random() < 0.3:
            if names and rng.random() < 0.7:
                return str(rng.choice(names))
            return f"{rng.uniform(0.1, 2.0):.3f}"
        left = TestExpressionPlant.random_formula(rng, names, depth - 1)
        if rng.random() < 0.3:
            return f"{rng.choice(['sin', 'cos', 'tanh', 'abs'])}({left})"
        right = TestExpressionPlant.random_formula(rng, names, depth - 1)
        return f"({left} {rng.choice(['+', '-', '*'])} {right})"

    @pytest.mark.parametrize("n, names", [
        (3, []),                     # no variable: constant diffusion, affine drift
        (3, ["u"]),                  # u only
        (4, ["x4"]),                 # xn only
        (12, ["x10", "x2"]),         # a two-digit index
        (2, ["x1", "x1", "u", "u"]),  # repeated variables
    ])
    def test_callables_bind_only_the_variables_they_read(self, n, names, monkeypatch):
        # outputs are bitwise those of the same code with every variable bound,
        # and eval_expr receives exactly the names the folded formula reads
        seen = []

        def recording(code, env):
            seen.append(set(env))
            return eval_expr(code, env)

        monkeypatch.setattr("stochpid.plants.eval_expr", recording)
        rng = np.random.default_rng(sum(map(ord, "".join(names))) + n)
        state = [v for v in names if v != "u"]
        x, u = rng.standard_normal((32, n)), rng.standard_normal((32, 1))
        every = {**{f"x{i + 1}": x[:, i] for i in range(n)}, "u": u[:, 0]}
        residuals = 0
        for _ in range(30):  # a formula lowered to terms runs no formula code for its drift
            drift = self.random_formula(rng, names)
            diffusion = self.random_formula(rng, state)
            plant = expression_plant(n, drift, diffusion, L=1.0, M=1.0)
            _, _, terms, residual = split_sum(fold_constants(parse_expr(drift, n=n)))
            assert isinstance(plant.drift, tuple) == bool(terms)  # data: no formula code runs
            for tree, call_fn, shape in (
                (residual, lambda: plant.drift(x, u), (32, 1)),
                (fold_constants(parse_expr(diffusion, n=n, allow_u=False)),
                 lambda: plant.diffusion(x), (32, 1, 1)),
            ):
                if tree is None:  # an affine drift, or terms
                    assert plant.drift is None or terms
                    continue
                text = ast.unparse(tree)
                reads = set(re.findall(r"\b(?:x[0-9]+|u)\b", text))
                want = np.asarray(evaluate(tree, every), dtype=float)
                want = want.reshape(shape if reads else (1,) * (len(shape) - 1))
                seen.clear()
                got = call_fn()
                assert seen == [reads], text
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), text
                residuals += tree is residual
        assert residuals >= (10 if names else 0)

    def test_formula_errors_name_the_formula(self):
        with pytest.raises(ParseError, match="^drift: unknown identifier 'foo'"):
            expression_plant(1, "u + foo", "0.1", L=0.0, M=0.0)

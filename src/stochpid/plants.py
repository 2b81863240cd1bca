"""Builtin plants and the expression-defined scalar plant builder.

``bench3`` is the third-order benchmark with uncertain parameters

    f = a*sin(x1) + b*x2 + c*x3 + d + u + mu*tanh(u),   g = sigma,

restricted to |a|, |b|, |c| <= 1/2, mu >= 0, which keeps the asserted
Lipschitz constants L = sqrt(3)/2, M = 0 and control-gain lower bound 1
valid for the whole parameter class.  ``chain`` (f = u + bias) and ``ou``
(f = u - theta*x1) cover the linear sanity cases.  Each builtin is its
drift formula with its parameters written in, built by
:func:`expression_plant` with the constant diffusion sigma, so the one
lowering of a formula writes every scalar plant's affine weights and
elementwise terms.  Expression plants are scalar (d = m = 1) with drift
over x1..xn, u and diffusion over x1..xn only; the affine terms of their
drift formula become data, and so does a residual that is a sum of
constant multiples of functions of one variable; only any other residual
is a callable.
"""

from __future__ import annotations

import ast
import inspect
import math

import numpy as np

from .expr import FUNCTIONS, compile_expr, eval_expr, fold_constants, parse_expr, split_sum
from .model import PlantSpec, _require_count, _require_number, _section

__all__ = ["bench3", "chain", "ou", "expression_plant", "BUILTIN_PLANTS", "build_plant"]


def _formula_plant(n, drift: str, L: float, sigma, **params) -> PlantSpec:
    """:func:`expression_plant` of the ``drift`` template with each parameter written
    in as the repr of its float, and the constant diffusion sigma; a ValueError
    names the first parameter, sigma last, that is not a finite number."""
    text = {name: repr(_require_number(name, value, ""))
            for name, value in {**params, "sigma": sigma}.items()}
    return expression_plant(n, drift.format(**text), text["sigma"], L=L, M=0.0)


def bench3(
    a: float = 0.4,
    b: float = -0.3,
    c: float = 0.5,
    d: float = 6.0,
    mu: float = 5.2,
    sigma: float = 0.2,
) -> PlantSpec:
    """Third-order benchmark plant with additive noise of intensity sigma."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not abs(_require_number(name, value, "")) <= 0.5:
            raise ValueError(f"{name}: expected |{name}| <= 1/2, got {value!r}")
    _require_number("mu", mu)
    return _formula_plant(3, "{a}*sin(x1) + {b}*x2 + {c}*x3 + {d} + u + {mu}*tanh(u)",
                          math.sqrt(3.0) / 2.0, sigma, a=a, b=b, c=c, d=d, mu=mu)


def chain(n: int, sigma: float = 0.0, bias: float = 0.0) -> PlantSpec:
    """Linear integrator chain f = u + bias with additive noise."""
    return _formula_plant(n, "u + {bias}", 0.0, sigma, bias=bias)


def ou(theta: float = 1.0, sigma: float = 1.0) -> PlantSpec:
    """First-order plant f = u - theta*x1; open loop is an OU process.

    With u = 0 the stationary second moment is sigma^2/(2*theta), the
    standard simulator oracle.
    """
    _require_number("theta", theta, "positive")
    return _formula_plant(1, "u - {theta}*x1", float(theta), sigma, theta=theta)


def expression_plant(
    n: int,
    drift: str,
    diffusion: str,
    L: float,
    M: float,
    b_lower: float = 1.0,
) -> PlantSpec:
    """Scalar plant (d = m = 1) from DSL expressions.

    The drift may reference x1..xn and u; the diffusion only x1..xn (the
    noise gain does not depend on the input).  Both formulas have their
    constant subexpressions folded once here.  The drift is then split at
    its top-level sum (:func:`~stochpid.expr.split_sum`): the constant terms
    and the constant multiples or quotients of one variable become the
    affine weights W, which the simulator folds into its loop matrix, and
    the remaining terms are the plant's ``drift`` (None when every term is
    affine).  When each of them is a function of one variable, possibly
    negated or times or over a constant, the drift is those terms as data,
    which the simulator steps in place: ``bench3``'s formula, the README's,
    gives W = [6, 0, -0.3, 0.5, 1] and the terms sin(x1) weighted 0.4 and
    tanh(u) weighted 5.2.  Any other residual is compiled once here into
    the drift callable.  A diffusion that references no
    variable returns one unbatched (1, 1) matrix, so the simulator treats it
    as constant.  Each callable binds only the variables its formula's tree
    reads, found once here: a residual u*sin(x1) binds x1 and u.  L, M and
    b_lower are the caller's assertions about the expressions.  Errors in a
    formula, including a constant that divides by zero or is not finite,
    name its parameter (``drift: ...``), and so do a count ``n``, a nonnegative
    ``L`` and ``M`` and a positive ``b_lower`` that are not finite numbers.
    """
    n = _require_count("n", n)
    _require_number("L", L)
    _require_number("M", M)
    _require_number("b_lower", b_lower, "positive")
    const, coeffs, terms, residual = split_sum(_parse("drift", drift, n, allow_u=True))
    diffusion_tree = _parse("diffusion", diffusion, n, allow_u=False)
    names = [f"x{i + 1}" for i in range(n)] + ["u"]
    affine = np.array([[const] + [coeffs.get(v, 0.0) for v in names]]) if coeffs or const else None
    if terms:
        residual = tuple((FUNCTIONS[g], names.index(v), (c,)) for g, v, c in terms)
    elif residual is not None:
        residual = _compiled(residual, n, (None,))
    return PlantSpec(
        n=n,
        d=1,
        m=1,
        drift=residual,
        diffusion=_compiled(diffusion_tree, n, (None, None)),
        lipschitz_L=L,
        lipschitz_M=M,
        gain_lower_b=b_lower,
        affine=affine,
    )


def _compiled(tree, n: int, axes: tuple):
    """The formula ``tree`` compiled once, as a function of x (and u) that binds only
    the variables the tree reads and appends ``axes`` (None each) to the result; a
    formula without variables gives one unbatched value."""
    code = compile_expr(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    columns = [(f"x{i + 1}", i) for i in range(n) if f"x{i + 1}" in used]
    index = (...,) + axes

    def formula(x, u=None):
        x = np.asarray(x, dtype=float)
        env = {v: x[..., i] for v, i in columns}
        if "u" in used:
            env["u"] = np.asarray(u, dtype=float)[..., 0]
        return np.asarray(eval_expr(code, env), dtype=float)[index]

    return formula


def _parse(what: str, text: str, n: int, allow_u: bool):
    """Parse one formula string and fold its constants; an error keeps its type and
    names the formula it is in."""
    if not isinstance(text, str):
        raise ValueError(f"{what}: expected a formula string, got {text!r}")
    try:
        return fold_constants(parse_expr(text, n=n, allow_u=allow_u))
    except ValueError as exc:
        exc.args = (f"{what}: {exc}",)
        raise


BUILTIN_PLANTS = {"bench3": bench3, "chain": chain, "ou": ou}


def build_plant(spec: dict, where: str = "plant") -> PlantSpec:
    """Construct a plant from a config mapping; errors carry field paths.

    A builtin plant is ``{"kind", "params"}`` with the builtin's keyword
    arguments as params; an expression plant has the fields of
    :func:`expression_plant`.  Any other key is an error."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind in tuple(BUILTIN_PLANTS):  # a tuple: an unhashable kind compares unequal
        make = BUILTIN_PLANTS[kind]
        args = inspect.signature(make).parameters
        params = _section(where, spec, ("kind",), ("params",)).get("params", {})
        _section(f"{where}.params", params,
                 [a for a in args if args[a].default is inspect.Parameter.empty], list(args))
        try:
            return make(**params)
        except ValueError as exc:  # each builtin names the parameter it refuses
            raise ValueError(f"{where}.params.{exc}") from None
    if kind == "expression":
        _section(where, spec, ("kind", "n", "drift", "diffusion", "L", "M"), ("b_lower",))
        try:
            return expression_plant(**{name: v for name, v in spec.items() if name != "kind"})
        except ValueError as exc:  # every error names its field
            raise ValueError(f"{where}.{exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"{where}: expected an object, got {type(spec).__name__}")
    raise ValueError(
        f"{where}.kind: expected one of {sorted(BUILTIN_PLANTS)} or 'expression', got {kind!r}"
    )

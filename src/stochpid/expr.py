"""Tiny arithmetic DSL for scalar plant definitions.

A formula is decimal numbers (optional exponent), the state variables
x1..xn, the input u, ``+ - * /`` with the usual precedence (left-associative),
unary minus, parentheses and one-argument calls of sin, cos, tanh, exp, abs.
:func:`parse_expr` checks the characters, parses with ``ast.parse`` and
converts a whitelist of Python nodes into the dataclasses below; every other
node is an error whose position is a character offset in the formula, as
is a tree deeper than 200 levels, which bounds every later recursive walk.
Parsing and printing round-trip.  :func:`fold_constants` evaluates the
variable-free subtrees once, and :func:`split_affine` separates the affine
terms of a top-level sum from the rest, which lets a plant apply them as data.
"""

from __future__ import annotations

import ast
import math
import re
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "ParseError",
    "UnknownIdentifier",
    "ArityError",
    "Num",
    "Var",
    "Unary",
    "Bin",
    "Call",
    "parse_expr",
    "format_expr",
    "eval_expr",
    "variables_of",
    "fold_constants",
    "split_affine",
]

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "exp": np.exp,
    "abs": np.abs,
}


class ParseError(ValueError):
    """Syntax error; ``position`` is the character offset in the source."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownIdentifier(ParseError):
    pass


class ArityError(ParseError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    operand: "Expr"  # unary minus is the only prefix operator


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Unary, Bin, Call]

_NON_DSL = re.compile(r"[^A-Za-z0-9_.+\-*/(),\s]")
_SPACE = re.compile(r"\s")
# Python forbids leading zeros in integer literals ("007"); the DSL does not
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![0-9.][eE][+-])0+(?=[0-9])")
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_VAR_PATTERN = re.compile(r"x[1-9][0-9]*$")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# Python's own limit on nested parentheses; it also bounds every later tree walk
_MAX_DEPTH = 200


def parse_expr(text: str, n: Optional[int] = None, allow_u: bool = True) -> Expr:
    """Parse the DSL; identifiers are x1..xn plus u (unless disallowed)."""
    bad = _NON_DSL.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    # one space per whitespace character or leading zero keeps every offset
    src = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()), _SPACE.sub(" ", text))
    lead = len(src) - len(src.lstrip())
    src = src[lead:]  # eval mode rejects leading whitespace
    try:
        with warnings.catch_warnings():  # "1if": a number running into a keyword warns
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:  # offset is 1-based, sometimes 0, and varies by version
        raise ParseError(exc.msg, min(max(lead + (exc.offset or 1) - 1, 0), len(text))) from None
    except (RecursionError, MemoryError):  # how Python's parser gives up on deep nesting
        raise ParseError(f"formula nested deeper than {_MAX_DEPTH} levels", 0) from None

    def convert(node, depth: int = 1) -> Expr:
        pos = lead + node.col_offset
        if depth > _MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {_MAX_DEPTH} levels", pos)
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                gap = src[node.left.end_col_offset:node.right.col_offset]
                op = gap.strip(" ()")
                raise ParseError(f"unsupported operator {op!r}",
                                 lead + node.left.end_col_offset + gap.index(op))
            return Bin(_BINOPS[type(node.op)], convert(node.left, depth + 1),
                       convert(node.right, depth + 1))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Unary(convert(node.operand, depth + 1))
        if isinstance(node, ast.Constant):
            literal = src[node.col_offset:node.end_col_offset]
            if _NUMBER.fullmatch(literal):
                return Num(float(literal))  # 1e400 and 400-digit integers give inf
        if isinstance(node, ast.Name):
            if node.id == "u":
                if not allow_u:
                    raise UnknownIdentifier("u is not allowed in a diffusion expression", pos)
            elif not _VAR_PATTERN.match(node.id):
                raise UnknownIdentifier(f"unknown identifier {node.id!r}", pos)
            elif n is not None and int(node.id[1:]) > n:
                raise UnknownIdentifier(f"{node.id} exceeds the state dimension (n={n})", pos)
            return Var(node.id)
        # a call's name must not be parenthesized: "(sin)(x1)" is not a call
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.col_offset == node.col_offset):
            name = node.func.id
            if name not in FUNCTIONS:
                raise UnknownIdentifier(f"unknown function {name!r}", pos)
            args = node.args + node.keywords  # a keyword is "**x1": convert rejects it
            if len(args) != 1:
                raise ArityError(f"{name} takes exactly one argument, got {len(args)}", pos)
            tail = src[args[0].end_col_offset:node.end_col_offset]
            if "," in tail:
                raise ParseError("unexpected trailing ','",
                                 lead + args[0].end_col_offset + tail.index(","))
            return Call(name, convert(args[0], depth + 1))
        raise ParseError(f"unexpected {src[node.col_offset:node.end_col_offset]!r}", pos)

    return convert(tree.body)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _fmt(node: Expr, parent_prec: int, right_side: bool) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_fmt(node.arg, 0, False)})"
    if isinstance(node, Unary):
        inner = _fmt(node.operand, 3, False)
        s = f"-{inner}"
        return f"({s})" if parent_prec >= 3 or right_side and parent_prec > 0 else s
    prec = _PREC[node.op]
    s = (
        f"{_fmt(node.left, prec, False)} {node.op} "
        f"{_fmt(node.right, prec + (1 if node.op in ('-', '/') else 0), True)}"
    )
    if prec < parent_prec or (right_side and prec == parent_prec):
        return f"({s})"
    return s


def format_expr(node: Expr) -> str:
    """Render an AST back to source; ``parse_expr`` recovers the same tree."""
    return _fmt(node, 0, False)


def eval_expr(node: Expr, env: dict) -> Union[float, np.ndarray]:
    """Evaluate with variable bindings from ``env`` (scalars or arrays)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        return -eval_expr(node.operand, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.func](eval_expr(node.arg, env))
    left = eval_expr(node.left, env)
    right = eval_expr(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    return left / right


def variables_of(node: Expr) -> set[str]:
    """Names of the variables referenced by an AST."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return variables_of(node.operand)
    if isinstance(node, Call):
        return variables_of(node.arg)
    if isinstance(node, Bin):
        return variables_of(node.left) | variables_of(node.right)
    return set()


def fold_constants(node: Expr) -> Expr:
    """The AST with every variable-free subtree replaced by its value.

    Each constant is computed once, by the same float operations
    :func:`eval_expr` performs.  Raises ValueError, naming the
    subexpression, for a constant that is not finite (``exp(1000)``) and
    for a division by a constant zero, whatever its numerator.
    """
    if isinstance(node, Var):
        return node
    if isinstance(node, Num):
        folded = node
    elif isinstance(node, Unary):
        folded = Unary(fold_constants(node.operand))
    elif isinstance(node, Call):
        folded = Call(node.func, fold_constants(node.arg))
    else:
        folded = Bin(node.op, fold_constants(node.left), fold_constants(node.right))
        if node.op == "/" and isinstance(folded.right, Num) and folded.right.value == 0.0:
            raise ValueError(f"{format_expr(node)} divides by zero")
    if variables_of(folded):
        return folded
    with np.errstate(all="ignore"):  # an overflow is reported below, not warned about
        value = float(eval_expr(folded, {}))
    if not math.isfinite(value):
        raise ValueError(f"constant {format_expr(node)} is not finite")
    return Num(value)


def _linear_term(node: Expr) -> Optional[tuple[str, float]]:
    """(variable, coefficient) of a variable, possibly negated or multiplied or
    divided by constants; None for any other term."""
    if isinstance(node, Var):
        return node.name, 1.0
    if isinstance(node, Unary):
        inner = _linear_term(node.operand)
        return inner and (inner[0], -inner[1])
    if not isinstance(node, Bin) or node.op not in "*/":
        return None
    if isinstance(node.right, Num):
        inner = _linear_term(node.left)
        if inner:
            c = node.right.value
            return inner[0], inner[1] * c if node.op == "*" else inner[1] / c
    if node.op == "*" and isinstance(node.left, Num):
        inner = _linear_term(node.right)
        return inner and (inner[0], node.left.value * inner[1])
    return None


def split_affine(node: Expr) -> tuple[float, dict[str, float], Optional[Expr]]:
    """Split a constant-folded AST into its affine terms and a residual.

    The terms are the operands of the top-level ``+`` and ``-``, through
    unary minus.  A constant, a variable, or a constant multiple or quotient
    of a variable is affine.  Returns the sum of the constants, the summed
    coefficient of each variable, and the sum of the remaining terms in
    their order, or None when every term is affine.
    """
    const, coeffs, residual = 0.0, {}, None

    def terms(n: Expr, sign: float):
        if isinstance(n, Bin) and n.op in "+-":
            yield from terms(n.left, sign)
            yield from terms(n.right, sign if n.op == "+" else -sign)
        elif isinstance(n, Unary):
            yield from terms(n.operand, -sign)
        else:
            yield sign, n

    for sign, term in terms(node, 1.0):
        if isinstance(term, Num):
            const += sign * term.value
        elif linear := _linear_term(term):
            coeffs[linear[0]] = coeffs.get(linear[0], 0.0) + sign * linear[1]
        elif residual is None:
            residual = term if sign > 0 else Unary(term)
        else:
            residual = Bin("+" if sign > 0 else "-", residual, term)
    return const, coeffs, residual

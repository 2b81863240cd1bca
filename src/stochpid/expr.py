"""Tiny arithmetic DSL for scalar plant definitions.

Grammar (left-associative, usual precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')' | '-' factor

Identifiers are restricted to the state variables x1..xn and the input u;
functions are sin, cos, tanh, exp, abs.  Parsing and printing round-trip.
:func:`fold_constants` evaluates the variable-free subtrees once, and
:func:`split_affine` separates the affine terms of a top-level sum from the
rest, which lets a plant apply them as data.
"""

from __future__ import annotations

import math
import re
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

_TOKEN = re.compile(
    r"(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/(),]))"
)

_VAR_PATTERN = re.compile(r"x[1-9][0-9]*$")


class _Parser:
    def __init__(self, text: str, n: Optional[int], allow_u: bool):
        self.text = text
        self.n = n
        self.allow_u = allow_u
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = Bin(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        kind, text, pos = self.next()
        if text == "-":
            return Unary(self.factor())
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if self.peek()[1] == "(":
                return self.call(text, pos)
            return self.variable(text, pos)
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)

    def call(self, name: str, pos: int) -> Expr:
        if name not in FUNCTIONS:
            raise UnknownIdentifier(f"unknown function {name!r}", pos)
        self.expect("(")
        if self.peek()[1] == ")":
            raise ArityError(f"{name} takes exactly one argument, got 0", self.peek()[2])
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        if len(args) != 1:
            raise ArityError(f"{name} takes exactly one argument, got {len(args)}", pos)
        return Call(name, args[0])

    def variable(self, name: str, pos: int) -> Expr:
        if name == "u":
            if not self.allow_u:
                raise UnknownIdentifier("u is not allowed in a diffusion expression", pos)
            return Var(name)
        if _VAR_PATTERN.match(name):
            index = int(name[1:])
            if self.n is not None and index > self.n:
                raise UnknownIdentifier(f"{name} exceeds the state dimension (n={self.n})", pos)
            return Var(name)
        raise UnknownIdentifier(f"unknown identifier {name!r}", pos)


def parse_expr(text: str, n: Optional[int] = None, allow_u: bool = True) -> Expr:
    """Parse the DSL; identifiers are x1..xn plus u (unless disallowed)."""
    return _Parser(text, n, allow_u).parse()


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

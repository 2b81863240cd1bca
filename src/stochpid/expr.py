"""Tiny arithmetic DSL for scalar plant definitions.

A formula is decimal numbers (optional exponent), the state variables
x1..xn, the input u, ``+ - * /`` with the usual precedence (left-associative),
unary minus, parentheses and one-argument calls of sin, cos, tanh, exp, abs.
It is held as a Python ``ast`` expression tree from parsing to evaluation.
:func:`parse_expr` checks the characters, parses with ``ast.parse`` and
checks the tree against a whitelist of node types, turning every number into
a float constant; any other node is an error whose position is a character
offset in the formula, as is a tree deeper than 200 levels, which bounds
every later recursive walk.  ``ast.unparse`` prints a tree as a formula that
parses back to the same tree.  :func:`fold_constants` evaluates the
variable-free subtrees once, :func:`split_sum` reads a top-level sum in one
pass into its affine part and either scaled one-variable function calls or
a residual tree, which lets a plant apply all but that residual as data,
and :func:`compile_expr` compiles a tree once for
:func:`eval_expr`, which runs it without builtins on scalars or arrays.
"""

from __future__ import annotations

import ast
import math
import re
import warnings
from types import CodeType
from typing import Optional, Union

import numpy as np

__all__ = [
    "ParseError",
    "parse_expr",
    "compile_expr",
    "eval_expr",
    "fold_constants",
    "split_sum",
]

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "exp": np.exp,
    "abs": np.abs,
}
# what a formula's code sees besides its variables: the functions, no builtins
_GLOBALS = {"__builtins__": {}, **FUNCTIONS}


class ParseError(ValueError):
    """Syntax error; ``position`` is the character offset in the source."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_NON_DSL = re.compile(r"[^A-Za-z0-9_.+\-*/(),\s]")
_SPACE = re.compile(r"\s")
# Python forbids leading zeros in integer literals ("007"); the DSL does not
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![0-9.][eE][+-])0+(?=[0-9])")
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_VAR_PATTERN = re.compile(r"x[1-9][0-9]*$")
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
# the node types of a formula tree; compile_expr refuses every other one
_NODES = (ast.BinOp, ast.UnaryOp, ast.USub, ast.Constant, ast.Name, ast.Load, ast.Call) + _BINOPS
# Python's own limit on nested parentheses; it also bounds every later tree walk
_MAX_DEPTH = 200


def parse_expr(text: str, n: Optional[int] = None, allow_u: bool = True) -> ast.expr:
    """Parse the DSL into a checked tree; identifiers are x1..xn plus u (unless disallowed)."""
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

    def check(node, depth: int = 1) -> None:
        pos = lead + node.col_offset
        if depth > _MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {_MAX_DEPTH} levels", pos)
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, _BINOPS):
                gap = src[node.left.end_col_offset:node.right.col_offset]
                op = gap.strip(" ()")
                raise ParseError(f"unsupported operator {op!r}",
                                 lead + node.left.end_col_offset + gap.index(op))
            check(node.left, depth + 1)
            return check(node.right, depth + 1)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return check(node.operand, depth + 1)
        if isinstance(node, ast.Constant):
            literal = src[node.col_offset:node.end_col_offset]
            if _NUMBER.fullmatch(literal):
                node.value = float(literal)  # 1e400 and 400-digit integers give inf
                return
        if isinstance(node, ast.Name):
            if node.id == "u":
                if not allow_u:
                    raise ParseError("u is not allowed in a diffusion expression", pos)
            elif not _VAR_PATTERN.match(node.id):
                raise ParseError(f"unknown identifier {node.id!r}", pos)
            elif n is not None and int(node.id[1:]) > n:
                raise ParseError(f"{node.id} exceeds the state dimension (n={n})", pos)
            return
        # a call's name must not be parenthesized: "(sin)(x1)" is not a call
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.col_offset == node.col_offset):
            name = node.func.id
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function {name!r}", pos)
            args = node.args + node.keywords  # a keyword is "**x1": check rejects it
            if len(args) != 1:
                raise ParseError(f"{name} takes exactly one argument, got {len(args)}", pos)
            tail = src[args[0].end_col_offset:node.end_col_offset]
            if "," in tail:
                raise ParseError("unexpected trailing ','",
                                 lead + args[0].end_col_offset + tail.index(","))
            return check(args[0], depth + 1)
        raise ParseError(f"unexpected {src[node.col_offset:node.end_col_offset]!r}", pos)

    check(tree.body)
    return tree.body


def compile_expr(tree: ast.expr) -> CodeType:
    """Compile a formula tree once, for :func:`eval_expr`.

    Raises ValueError for a node type outside the DSL's, so no tree but a
    formula's reaches ``compile``.
    """
    for node in ast.walk(tree):
        if not isinstance(node, _NODES):
            raise ValueError(f"{type(node).__name__} is not part of a formula")
    return compile(ast.fix_missing_locations(ast.Expression(tree)), "<formula>", "eval")


def eval_expr(code: CodeType, env: dict) -> Union[float, np.ndarray]:
    """Run compiled code with variable bindings from ``env`` (scalars or arrays)."""
    return eval(code, _GLOBALS, env)


def fold_constants(node: ast.expr) -> ast.expr:
    """The tree with every variable-free subtree replaced by its value.

    Each constant is computed once, by the same float operations
    :func:`eval_expr` performs.  Raises ValueError, naming the
    subexpression, for a constant that is not finite (``exp(1000)``) and
    for a division by a constant zero, whatever its numerator.
    """
    if isinstance(node, ast.Name):
        return node
    if isinstance(node, ast.Constant):
        if not math.isfinite(node.value):  # unparse would print inf as 1e309
            raise ValueError(f"constant {node.value!r} is not finite")
        return node
    if isinstance(node, ast.BinOp):
        folded = ast.BinOp(fold_constants(node.left), node.op, fold_constants(node.right))
        if (isinstance(node.op, ast.Div) and isinstance(folded.right, ast.Constant)
                and folded.right.value == 0.0):
            raise ValueError(f"{ast.unparse(node)} divides by zero")
        children = folded.left, folded.right
    elif isinstance(node, ast.UnaryOp):
        folded = ast.UnaryOp(node.op, fold_constants(node.operand))
        children = (folded.operand,)
    else:
        folded = ast.Call(node.func, [fold_constants(node.args[0])], [])
        children = folded.args
    if not all(isinstance(child, ast.Constant) for child in children):
        return folded
    with np.errstate(all="ignore"):  # an overflow is reported below, not warned about
        value = float(eval_expr(compile_expr(folded), {}))
    if not math.isfinite(value):
        raise ValueError(f"constant {ast.unparse(node)} is not finite")
    return ast.Constant(value)


def _summands(node: ast.expr, sign: float = 1.0):
    """(sign, term) of each operand of the top-level ``+`` and ``-``, through unary minus."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        yield from _summands(node.left, sign)
        yield from _summands(node.right, sign if isinstance(node.op, ast.Add) else -sign)
    elif isinstance(node, ast.UnaryOp):
        yield from _summands(node.operand, -sign)
    else:
        yield sign, node


def _is_variable(node: ast.expr) -> bool:
    return isinstance(node, ast.Name)


def _is_function_of_variable(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and _is_variable(node.args[0])


def _scaled(node: ast.expr, leaf) -> Optional[tuple[ast.expr, float]]:
    """(leaf node, coefficient) of a node that ``leaf`` accepts, possibly negated or
    multiplied or divided by constants; None for any other term."""
    if leaf(node):
        return node, 1.0
    if isinstance(node, ast.UnaryOp):
        inner = _scaled(node.operand, leaf)
        return inner and (inner[0], -inner[1])
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div))):
        return None
    times = isinstance(node.op, ast.Mult)
    if isinstance(node.right, ast.Constant):
        inner = _scaled(node.left, leaf)
        if inner:
            c = node.right.value
            return inner[0], inner[1] * c if times else inner[1] / c
    if times and isinstance(node.left, ast.Constant):
        inner = _scaled(node.right, leaf)
        return inner and (inner[0], node.left.value * inner[1])
    return None


def split_sum(node: ast.expr) -> tuple[float, dict[str, float], list[tuple[str, str, float]],
                                       Optional[ast.expr]]:
    """Split a constant-folded tree at its top-level sum, read in one pass.

    The summands are the operands of the top-level ``+`` and ``-``, through
    unary minus.  A constant, a variable, or a constant multiple or quotient
    of a variable is affine; a function of one variable, possibly negated or
    multiplied or divided by constants (``0.4*sin(x1)``, ``-tanh(u)/2``), is
    a term.  Returns the sum of the constants, the summed coefficient of each
    variable, the (function, variable, coefficient) of each term when every
    other summand is a term, else [], and the residual: the sum of the other
    summands in their order, or None when there are none or they are terms.
    """
    const, coeffs, terms, residual = 0.0, {}, [], None
    for sign, summand in _summands(node):
        if isinstance(summand, ast.Constant):
            const += sign * summand.value
            continue
        if linear := _scaled(summand, _is_variable):
            name = linear[0].id
            coeffs[name] = coeffs.get(name, 0.0) + sign * linear[1]
            continue
        call = _scaled(summand, _is_function_of_variable)
        if terms is not None and call:
            terms.append((call[0].func.id, call[0].args[0].id, sign * call[1]))
        else:
            terms = None
        if residual is None:
            residual = summand if sign > 0 else ast.UnaryOp(ast.USub(), summand)
        else:
            residual = ast.BinOp(residual, ast.Add() if sign > 0 else ast.Sub(), summand)
    return (const, coeffs, terms, None) if terms else (const, coeffs, [], residual)

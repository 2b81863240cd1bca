"""Polynomial stability tests for the closed-loop characteristic polynomial.

Coefficients are stored ascending, ``a[0] + a[1]*s + ... + a[N]*s**N``.
``routh_hurwitz`` decides stability for every degree with one Routh row
recursion, run on floats and, when a float entry overflows, once more on the
exact rationals, and ``is_hurwitz`` applies it to the companion matrix of a
gain vector.  ``nie_stable`` is a separate determining-coefficient *sufficient*
test for degree >= 5: True proves stability, False decides nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .design import GainVector

__all__ = [
    "NonPositiveCoefficient",
    "DegreeTooLow",
    "IndeterminateStability",
    "char_coeffs",
    "determining_coeffs",
    "nie_stable",
    "routh_hurwitz",
    "is_hurwitz",
]


class NonPositiveCoefficient(ValueError):
    """The test requires strictly positive coefficients."""


class DegreeTooLow(ValueError):
    """Polynomial degree below the test's scope."""


class IndeterminateStability(ArithmeticError):
    """A Routh pivot is exactly zero; the array does not decide stability."""


def _coeffs(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("expected ascending coefficients of a degree >= 1 polynomial")
    if a[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    return a


def char_coeffs(g: GainVector) -> np.ndarray:
    """Ascending characteristic coefficients of the companion matrix.

    PID gains (k0..kn) give s**(n+1) + kn*s**n + ... + k1*s + k0, i.e.
    (k0, ..., kn, 1); PD gives the degree-n analogue.
    """
    return np.concatenate([g.gains, [1.0]])


def determining_coeffs(p) -> np.ndarray:
    """Ratios alpha_i = a[i-1]*a[i+2] / (a[i]*a[i+1]), i = 1..N-2."""
    a = _coeffs(p)
    N = a.size - 1
    if N < 3:
        raise DegreeTooLow("determining coefficients need degree >= 3")
    if np.any(a <= 0.0):
        raise NonPositiveCoefficient("all coefficients must be positive")
    c = a.tolist()
    alpha = []
    for i in range(1, N - 1):
        den = c[i] * c[i + 1]
        alpha.append(c[i - 1] * c[i + 2] / den if 0.0 < den < math.inf else math.inf)
    if not all(map(math.isfinite, alpha)):
        raise ValueError("determining coefficients overflow float64")
    return np.array(alpha)


def nie_stable(p) -> bool:
    """Sufficient stability test via determining coefficients (degree >= 5).

    True when every alpha_i < 1/2 and alpha_i + alpha_{i-1}*alpha_i*alpha_{i+1}
    <= 1/2 for i = 2..N-3.  True implies all roots lie strictly in the left
    half plane; False decides nothing.
    """
    a = _coeffs(p)
    N = a.size - 1
    if N < 5:
        raise DegreeTooLow("nie_stable applies to degree >= 5; use routh_hurwitz")
    alpha = determining_coeffs(a)
    if not np.all(alpha < 0.5):
        return False
    for i in range(2, N - 2):  # paper-style indices 2..N-3, 1-based alphas
        if alpha[i - 1] + alpha[i - 2] * alpha[i - 1] * alpha[i] > 0.5:
            return False
    return True


def _routh(desc: list) -> bool:
    """Routh verdict of descending float or ``Fraction`` coefficients (rows padded with
    the int 0, which keeps a ``Fraction`` row exact); OverflowError on a non-finite float."""
    prev, row = desc[0::2], desc[1::2] + [0] * (len(desc) % 2)
    positive = True
    for r in range(1, len(desc) - 1):
        pivot = row[0]
        if pivot == 0:
            raise IndeterminateStability(f"zero pivot in Routh row {r}")
        positive = positive and pivot > 0
        prev, row = row, [(pivot * prev[j + 1] - prev[0] * row[j + 1]) / pivot
                          for j in range(len(prev) - 1)] + [0]
        # Python float arithmetic overflows to inf (and inf - inf to nan) silently;
        # math.isfinite of a huge Fraction would itself raise OverflowError
        if isinstance(pivot, float) and not all(map(math.isfinite, row)):
            raise OverflowError
    if row[0] == 0:
        raise IndeterminateStability("zero entry in Routh first column")
    return positive and row[0] > 0


def routh_hurwitz(p) -> bool:
    """Exact stability via the Routh array (first column all positive), any degree.

    One row recursion on Python floats; when an entry overflows, it runs again on
    the coefficients as exact ``Fraction``s (floats are dyadic rationals).  Raises
    :class:`IndeterminateStability` on an exactly zero pivot rather than
    guessing, and ValueError for a non-finite coefficient.
    """
    a = _coeffs(p)
    if a[-1] < 0.0:
        raise ValueError("leading coefficient must be positive")
    desc = a[::-1].tolist()
    if not all(map(math.isfinite, desc)):
        raise ValueError(f"Routh array needs finite coefficients, got {a}")
    if len(desc) == 2:
        return desc[1] > 0.0
    try:
        return _routh(desc)
    except OverflowError:
        pass
    # imported here: fractions (with decimal) adds 2-3 ms to `import stochpid`
    from fractions import Fraction
    return _routh(list(map(Fraction, desc)))


def is_hurwitz(g: GainVector) -> bool:
    """Stability of the companion matrix: ``routh_hurwitz`` of its characteristic polynomial."""
    return routh_hurwitz(char_coeffs(g))

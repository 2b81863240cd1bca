"""Polynomial stability tests for the closed-loop characteristic polynomial.

Coefficients are stored ascending, ``a[0] + a[1]*s + ... + a[N]*s**N``.
``routh_hurwitz`` is the exact oracle for any degree; ``nie_stable`` is the
determining-coefficient *sufficient* test for degree >= 5, cheap and the
route by which admissible gain vectors are known to be Hurwitz.
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
    i = np.arange(1, N - 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = a[i] * a[i + 1]
        alpha = a[i - 1] * a[i + 2] / den
    if not (np.isfinite(den).all() and np.isfinite(alpha).all()):
        raise ValueError("determining coefficients overflow float64")
    return alpha


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


def routh_hurwitz(p) -> bool:
    """Exact stability via the full Routh array (first column all positive).

    For a monic quartic (a0..a3, 1) with positive coefficients this reduces
    to ``a1*a2*a3 - a1**2 - a0*a3**2 > 0``.  Raises
    :class:`IndeterminateStability` when a pivot is exactly zero rather than
    guessing.
    """
    a = _coeffs(p)
    if a[-1] < 0.0:
        raise ValueError("leading coefficient must be positive")
    desc = a[::-1]
    N = a.size - 1
    if N == 1:
        return bool(desc[1] > 0.0)
    width = (N + 2) // 2
    rows = np.zeros((N + 1, width))
    rows[0, : desc[0::2].size] = desc[0::2]
    rows[1, : desc[1::2].size] = desc[1::2]
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(2, N + 1):
            pivot = rows[r - 1, 0]
            if pivot == 0.0:
                _finite_routh(rows[:r])
                raise IndeterminateStability(f"zero pivot in Routh row {r - 1}")
            for j in range(width - 1):
                cross = pivot * rows[r - 2, j + 1] - rows[r - 2, 0] * rows[r - 1, j + 1]
                rows[r, j] = cross / pivot
    _finite_routh(rows)
    first = rows[:, 0]
    if np.any(first == 0.0):
        raise IndeterminateStability("zero entry in Routh first column")
    return bool(np.all(first > 0.0))


def _finite_routh(rows: np.ndarray) -> None:
    if not np.isfinite(rows).all():
        raise ValueError("Routh array entries overflow float64")


def _closed_form(a: np.ndarray) -> bool:
    # monic, positive coefficients; degree <= 4.  Python floats overflow to
    # inf silently, and every product is checked before it decides.
    N = a.size - 1
    if N <= 2:
        return True
    a0, a1, a2, a3 = a.tolist()[:4]
    if N == 3:
        products = (a2 * a1,)
        stable = products[0] > a0
    else:
        products = (a1 * a2 * a3, a1 * a1, a0 * (a3 * a3))
        stable = products[0] - products[1] - products[2] > 0.0
    if not all(math.isfinite(p) for p in products):
        raise ValueError("Routh products overflow float64")
    return stable


def is_hurwitz(g: GainVector) -> bool:
    """Stability of the companion matrix for positive gains.

    Degree <= 4 uses the closed-form Routh conditions; degree >= 5 tries the
    sufficient determining-coefficient test first and falls back to the
    full Routh array when that is inconclusive.  Raises ValueError when the
    products these tests form overflow float64.
    """
    a = char_coeffs(g)
    N = a.size - 1
    if N <= 4:
        return _closed_form(a)
    if nie_stable(a):
        return True
    return routh_hurwitz(a)

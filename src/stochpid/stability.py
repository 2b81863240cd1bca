"""Polynomial stability tests for the closed-loop characteristic polynomial.

Coefficients are stored ascending, ``a[0] + a[1]*s + ... + a[N]*s**N``.
``routh_hurwitz`` decides stability exactly for every degree with one
fraction-free Routh recursion on Python ints (floats are dyadic rationals,
:func:`stochpid.design._dyadic`), and ``is_hurwitz`` applies it to the
companion matrix of a gain vector, once per vector.  ``nie_stable`` is a
separate determining-coefficient *sufficient* test for degree >= 5: True
proves stability, False decides nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .design import GainVector, _dyadic, _routh
from .model import _as_floats

__all__ = [
    "char_coeffs",
    "determining_coeffs",
    "nie_stable",
    "routh_hurwitz",
    "is_hurwitz",
]


def _coeffs(p) -> np.ndarray:
    a = _as_floats(p, "coefficients")
    if a.ndim != 1 or a.size < 2:
        raise ValueError("expected ascending coefficients of a degree >= 1 polynomial")
    if not np.isfinite(a).all():
        raise ValueError(f"expected finite coefficients, got {a}")
    if a[-1] <= 0.0:
        raise ValueError("leading coefficient must be positive")
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
        raise ValueError("determining coefficients need degree >= 3")
    if np.any(a <= 0.0):
        raise ValueError("all coefficients must be positive")
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
        raise ValueError("nie_stable applies to degree >= 5; use routh_hurwitz")
    alpha = determining_coeffs(a)
    # alpha[1:-1] are the paper's alpha_2..alpha_{N-3}, with their neighbours on either side
    return bool(np.all(alpha < 0.5)
                and np.all(alpha[1:-1] + alpha[:-2] * alpha[1:-1] * alpha[2:] <= 0.5))


def routh_hurwitz(p) -> bool:
    """Exact stability via the Routh array (first column all positive), any degree.

    The coefficients are scaled to ints (:func:`_dyadic`), and each new row is
    ``pivot*prev[j+1] - prev[0]*row[j+1]`` divided by its gcd: a positive
    multiple of the rational Routh row while every earlier pivot is positive.
    A first-column entry <= 0 means "not Hurwitz", so every polynomial is decided.
    """
    return _routh(_dyadic(_coeffs(p)[::-1].tolist())[0])


def is_hurwitz(g: GainVector) -> bool:
    """Stability of the companion matrix: ``routh_hurwitz`` of its characteristic polynomial,
    decided once per gain vector and cached on it (``verify_certificate`` reads it too)."""
    return g._hurwitz

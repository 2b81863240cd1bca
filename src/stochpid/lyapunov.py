"""Lyapunov matrix construction and certificate verification.

For positive gains the companion matrix A (superdiagonal ones, last row the
negated gains) admits a symmetric P whose last column equals the gain vector
and with P*A + A'*P = -diag(q) exactly, given by the recursion

    p[0,j] = 2*g0*g[j+1]  (j < N-1),   p[i,N-1] = g[i],
    p[i,j] = 2*g[i]*g[j+1] - p[i-1,j+1]  (i <= j < N-1),

mirrored to the lower triangle; PID gains (k0..kn) give the (n+1)x(n+1)
matrix P and PD gains (k1..kn) the n x n matrix P0 by the same recursion.
It runs on exact ints, D**2*P and D**2*q for gains c/D over their common
power-of-two denominator D, and P and q are returned correctly rounded.
Unrolled along its anti-diagonal, each entry p[i,j] is one alternating sum of
gain products (:func:`_entry`); P reads one per entry and each
q_i = 2*(g_i**2 - p[i-1,i]) one, so q is computed without P.
A certificate for constants (L, M) holds when P is positive definite and
P*A + A'*P + 2*kbar*I = diag(2*kbar - q) is negative definite.  The second
condition, min(q) > 2*kbar, is decided on ints; it makes diag(q) positive
definite, and then (Lyapunov's theorem) P is positive definite exactly when A
is Hurwitz, which the exact Routh test decides.  So the verdict reads only q
and the Routh verdict: a certificate builds P from its gains on first read,
and the extreme eigenvalues it reports, diagnostics computed by
``numpy.linalg.eigvalsh``, on first read too.  A P that overflows float64 is
still reported by :func:`verify_certificate`, ahead of condition (ii).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import GainVector, _cached

__all__ = [
    "CertificateError",
    "NotPositiveDefinite",
    "NotNegativeDefinite",
    "LyapunovCertificate",
    "companion",
    "build_P",
    "q_diagonal",
    "verify_certificate",
]


class CertificateError(ValueError):
    """A certificate condition failed; carries the offending eigenvalue.

    For condition (ii) that eigenvalue is 2*kbar - min(q), the largest
    eigenvalue of the diagonal matrix P*A + A'*P + 2*kbar*I.
    """

    def __init__(self, condition: str, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(f"{condition} (offending eigenvalue {eigenvalue:.6g})")


class NotPositiveDefinite(CertificateError):
    def __init__(self, eigenvalue: float):
        super().__init__("P is not positive definite", eigenvalue)


class NotNegativeDefinite(CertificateError):
    def __init__(self, eigenvalue: float):
        super().__init__("P*A + A'*P + 2*kbar*I is not negative definite", eigenvalue)


@dataclass(frozen=True)
class LyapunovCertificate:
    """Certificate data: the gains, the diagonal of Q = -(PA + A'P), and the margin.

    ``min_eig_negdef`` is the smallest eigenvalue of -(PA + A'P + 2*kbar*I),
    which is min(Q) - 2*kbar because that matrix is diagonal.  The verdict
    reads only Q and the Routh verdict of the gains, so P is built from the
    gains by :func:`build_P` on first read; it is finite, since
    :func:`verify_certificate` reports a P that overflows float64.  The
    extreme eigenvalues ``min_eig_P`` and ``max_eig_P`` of P are diagnostics
    that no verdict uses: one ``numpy.linalg.eigvalsh(P)`` computes both on
    first read.  On graded P its smallest eigenvalue is only resolved to about
    1e-16 of the largest.  P and Q are read-only, so the cached eigenvalues
    cannot go stale.
    """

    gains: GainVector
    Q: np.ndarray
    min_eig_negdef: float
    kbar: float

    @_cached
    def P(self) -> np.ndarray:
        P = build_P(self.gains)
        P.flags.writeable = False
        return P

    @_cached
    def _eigs_P(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.P)

    @property
    def min_eig_P(self) -> float:
        return float(self._eigs_P[0])

    @property
    def max_eig_P(self) -> float:
        return float(self._eigs_P[-1])


def companion(g: GainVector) -> np.ndarray:
    """Companion matrix: superdiagonal ones, last row the negated gains."""
    A = np.eye(g.gains.size, k=1)
    A[-1] = -g.gains
    return A


def _entry(c: list[int], D: int, i: int, j: int) -> int:
    """D**2*p[i][j] (i <= j) for the gain ints c over D: the recursion unrolled along its
    anti-diagonal, c[i]*e[j] - c[i-1]*e[j+1] + ..., which ends at row 0 or at the boundary
    column, with e[b] = 2*c[b+1], or D at b = N-1; it is summed from its far end."""
    N = len(c)
    s = 0
    for t in range(min(i + 1, N - j) - 1, -1, -1):
        s = c[i - t] * (2 * c[j + t + 1] if j + t < N - 1 else D) - s
    return s


def _scaled_q(c: list[int], D: int) -> list[int]:
    """D**2*q for the gain ints c over D: q_i = 2*(c_i**2 - p[i-1][i])."""
    return [2 * (v * v - _entry(c, D, i - 1, i)) for i, v in enumerate(c)]


def _rounded(g: GainVector, ints, scale: int):
    """The exact ``ints / scale`` correctly rounded, for an int or a list of ints;
    ValueError when it overflows float64.

    Python's int / int is correctly rounded and raises OverflowError exactly
    where the quotient overflows float64.
    """
    try:
        return ints / scale if isinstance(ints, int) else [x / scale for x in ints]
    except OverflowError:
        raise ValueError(f"the Lyapunov matrix of gains {g.gains} overflows float64") from None


def build_P(g: GainVector) -> np.ndarray:
    """Diagonalizing Lyapunov matrix: (n+1)x(n+1) for PID gains, n x n for PD."""
    c, D = g._ints
    N = len(c)
    P = np.empty((N, N))
    for i in range(N):
        P[i, i:] = P[i:, i] = _rounded(g, [_entry(c, D, i, j) for j in range(i, N)], D * D)
    return P


def q_diagonal(g: GainVector) -> np.ndarray:
    """Diagonal of Q = -(P*A + A'*P): (2*g0^2, 2*(g_i^2 - p[i-1,i]), ...)."""
    c, D = g._ints
    return np.array(_rounded(g, _scaled_q(c, D), D * D))


def verify_certificate(g: GainVector, L: float, M: float) -> LyapunovCertificate:
    """Decide the two certificate conditions exactly, from q and the Routh verdict.

    Raises :class:`NotNegativeDefinite` when min(q) <= 2*kbar, and otherwise
    :class:`NotPositiveDefinite` when A is not Hurwitz, i.e. P is not positive
    definite; each error names the violated condition and the offending
    eigenvalue.  Raises ``ValueError`` when kbar, P, q or min(q) - 2*kbar
    overflows float64, an overflowing P ahead of condition (ii).
    """
    kbar = g.kbar(L, M)
    c, D = g._ints
    D2 = D * D
    # Unrolled along its anti-diagonal, each D**2*p[i][j] is an alternating sum of
    # at most N terms 2*c_a*c_b or c_a*D, each at most 2*top**2 in size.  So when
    # 2*N*top**2 < 2**1023*D**2, every entry of P is below 2**1023 in size and
    # rounds to a finite float; only gains of about 1e153 or more fail this
    # bound, and they build P here so that its overflow is raised first.
    top = max(max(c), D)
    if 2 * len(c) * top * top >= D2 << 1023:
        build_P(g)
    q = _scaled_q(c, D)
    Q = np.array(_rounded(g, q, D2))
    num, den = kbar.as_integer_ratio()
    excess = min(q) * den - 2 * num * D2  # (min(q) - 2*kbar) * den * D**2
    margin = _rounded(g, excess, den * D2)
    if excess <= 0:
        raise NotNegativeDefinite(-margin)
    if not g._hurwitz:
        raise NotPositiveDefinite(np.linalg.eigvalsh(build_P(g))[0])
    Q.flags.writeable = False
    return LyapunovCertificate(gains=g, Q=Q, min_eig_negdef=margin, kbar=kbar)

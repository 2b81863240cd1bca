"""Lyapunov matrix construction and certificate verification.

For positive gains the companion matrix A (superdiagonal ones, last row the
negated gains) admits a unique symmetric P whose last column equals the gain
vector and for which P*A + A'*P = -diag(q) exactly.  The entries follow the
recursion

    p[0,j] = 2*g0*g[j+1]  (j < N-1),   p[i,N-1] = g[i],
    p[i,j] = 2*g[i]*g[j+1] - p[i-1,j+1]  (i <= j < N-1),

mirrored to the lower triangle; PID gains (k0..kn) give the (n+1)x(n+1)
matrix P and PD gains (k1..kn) the n x n matrix P0 by the same recursion.
A certificate for constants (L, M) holds when P is positive definite and
P*A + A'*P + 2*kbar*I is negative definite.  The first condition is decided
by the symmetric eigenvalues of P; the second matrix is diag(2*kbar - q), so
the second condition is exactly min(q) > 2*kbar and needs no eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import GainVector

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
        self.condition = condition
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
    """Certificate data: P, the diagonal of Q = -(PA + A'P), and margins.

    ``min_eig_negdef`` is the smallest eigenvalue of -(PA + A'P + 2*kbar*I),
    which is min(Q) - 2*kbar because that matrix is diagonal; margins are
    reported as raw eigenvalues because downstream envelope constants use
    the ratio max_eig_P/min_eig_P directly.
    """

    P: np.ndarray
    Q: np.ndarray
    min_eig_P: float
    max_eig_P: float
    min_eig_negdef: float
    kbar: float


def companion(g: GainVector) -> np.ndarray:
    """Companion matrix: superdiagonal ones, last row the negated gains."""
    A = np.eye(g.gains.size, k=1)
    A[-1] = -g.gains
    return A


def build_P(g: GainVector) -> np.ndarray:
    """Diagonalizing Lyapunov matrix: (n+1)x(n+1) for PID gains, n x n for PD."""
    k = g.gains
    N = k.size
    p = np.zeros((N, N))
    for j in range(N - 1):
        p[0, j] = 2.0 * k[0] * k[j + 1]
    p[0, N - 1] = k[0]
    for i in range(1, N):
        for j in range(i, N - 1):
            p[i, j] = 2.0 * k[i] * k[j + 1] - p[i - 1, j + 1]
        p[i, N - 1] = k[i]
    lower = np.tril_indices(N, -1)
    p[lower] = p.T[lower]
    return p


def _q_from(k: np.ndarray, P: np.ndarray) -> np.ndarray:
    return 2.0 * (k ** 2 - np.append(0.0, np.diag(P, 1)))


def q_diagonal(g: GainVector) -> np.ndarray:
    """Diagonal of Q = -(P*A + A'*P): (2*g0^2, 2*(g_i^2 - p[i-1,i]), ...)."""
    return _q_from(g.gains, build_P(g))


def verify_certificate(g: GainVector, L: float, M: float) -> LyapunovCertificate:
    """Build P for the gains and verify the two certificate conditions.

    Raises :class:`NotPositiveDefinite` when P has a nonpositive eigenvalue
    and :class:`NotNegativeDefinite` when min(q) <= 2*kbar, i.e. when
    P*A + A'*P + 2*kbar*I has a nonnegative eigenvalue; each error names the
    violated condition and the offending eigenvalue.  Raises ``ValueError``
    when kbar, P or q overflows float64, where neither condition can be
    decided.
    """
    kbar = g.kbar(L, M)
    with np.errstate(over="ignore", invalid="ignore"):
        P = build_P(g)
        q = _q_from(g.gains, P)
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(q))):
        raise ValueError(f"the Lyapunov matrix of gains {g.gains} overflows float64")
    eigs_P = np.linalg.eigvalsh(P)
    if eigs_P[0] <= 0.0:
        raise NotPositiveDefinite(eigs_P[0])
    margin = float(q.min()) - 2.0 * kbar
    if margin <= 0.0:
        raise NotNegativeDefinite(-margin)
    return LyapunovCertificate(
        P=P,
        Q=q,
        min_eig_P=float(eigs_P[0]),
        max_eig_P=float(eigs_P[-1]),
        min_eig_negdef=margin,
        kbar=kbar,
    )

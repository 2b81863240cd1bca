"""Independent oracles for the certify-batch output checks.

Each oracle returns True, False or None; None means the oracle cannot
decide the case, and the verdict it would check is not counted as failed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# eigenvalues of the power-of-two-scaled matrices within this share of their
# Frobenius norm of zero do not decide definiteness
EIG_BAND = 1e-10
# polynomials whose extreme root real part is this close to zero are not
# classified (the band tests/helpers.py uses for its root oracle)
ROOT_BAND = 1e-8
# an admissibility term within this share of its operands' size plus kbar
# of kbar is undecided
MARGIN_BAND = 1e-12


def admissible(gains: np.ndarray, L: float, M: float):
    """The quadratic min-inequality over raw gains (PID and PD share it, b = 1).

    Admissible iff every left-hand term exceeds kbar; each comparison is
    decided only outside a rounding band scaled by its own operands.
    """
    k = gains
    kbar = float(np.sum(k) * L + k[-1] * M ** 2)
    terms = [(k[0] ** 2, k[0] ** 2)]
    terms += [(k[i] ** 2 - 2.0 * k[i - 1] * k[i + 1], k[i] ** 2 + 2.0 * k[i - 1] * k[i + 1])
              for i in range(1, k.size - 1)]
    if k.size >= 2:
        terms.append((k[-1] ** 2 - k[-2], k[-1] ** 2 + k[-2]))
    undecided = False
    for value, size in terms:
        band = MARGIN_BAND * (size + kbar)
        if value - kbar < -band:
            return False
        undecided |= value - kbar <= band
    return None if undecided else True


def lyapunov_matrix(k: np.ndarray) -> np.ndarray:
    """The symmetric P with last column k that diagonalizes P@A + A.T@P."""
    N = k.size
    p = np.zeros((N, N))
    p[0, : N - 1] = 2.0 * k[0] * k[1:]
    p[:, N - 1] = k
    for i in range(1, N):
        for j in range(i, N - 1):
            p[i, j] = 2.0 * k[i] * k[j + 1] - p[i - 1, j + 1]
    return np.triu(p) + np.triu(p, 1).T


def companion(k: np.ndarray) -> np.ndarray:
    N = k.size
    A = np.eye(N, k=1)
    A[-1] = -k
    return A


def _definite_sign(S: np.ndarray):
    """+1 (positive definite), -1 (not positive definite) or None.

    The congruence D@S@D with D a diagonal of powers of two preserves the
    inertia exactly and evens out the graded scale of these matrices, so
    ``eigvalsh`` decides the sign of the smallest eigenvalue much closer
    to zero than it could on S itself.
    """
    if not np.all(np.isfinite(S)):
        return None
    diag = np.abs(np.diag(S))
    diag[diag == 0.0] = 1.0
    scale = np.exp2(-np.round(0.5 * np.log2(diag)))
    T = S * scale[:, None] * scale[None, :]
    low = np.linalg.eigvalsh(0.5 * (T + T.T))[0]
    band = EIG_BAND * float(np.linalg.norm(T))
    if low > band:
        return 1
    if low < -band:
        return -1
    return None


def certificate(gains: np.ndarray, L: float, M: float):
    """True when P is positive definite and P@A + A.T@P + 2*kbar*I negative definite."""
    with np.errstate(over="ignore", invalid="ignore"):
        P = lyapunov_matrix(gains)
        A = companion(gains)
        kbar = float(np.sum(gains) * L + gains[-1] * M ** 2)
        S = P @ A + A.T @ P + 2.0 * kbar * np.eye(gains.size)
        p_sign = _definite_sign(P)
        s_sign = _definite_sign(-S)
    if p_sign == -1 or s_sign == -1:
        return False
    if p_sign is None or s_sign is None:
        return None
    return True


def hurwitz(coeffs_ascending):
    """Root oracle, with exact Routh arithmetic where float64 roots cannot decide.

    True: all roots in the open left half plane; False: some root in the
    closed right half plane; None: an exact zero Routh pivot.
    """
    verdict = _roots_verdict(coeffs_ascending)
    return _exact_routh(coeffs_ascending) if verdict is None else verdict


def _exact_routh(coeffs_ascending):
    """Routh first column in rational arithmetic (float coefficients are exact dyadics)."""
    desc = [Fraction(float(c)) for c in coeffs_ascending[::-1]]
    prev, row = desc[0::2], desc[1::2]
    row += [Fraction(0)] * (len(prev) - len(row))
    first = [prev[0]]
    for _ in range(len(desc) - 1):
        if row[0] == 0:
            return None
        first.append(row[0])
        prev, row = row, [(row[0] * prev[j + 1] - prev[0] * row[j + 1]) / row[0]
                          for j in range(len(prev) - 1)] + [Fraction(0)]
    return all(f > 0 for f in first)


def _roots_verdict(coeffs_ascending):
    """np.roots with a first-order error bound per computed root, or None."""
    a = np.asarray(coeffs_ascending, dtype=float)
    # s = c*t with c > 0 a power of two keeps the sign of every real part and
    # balances the coefficient spread that float64 roots cannot resolve
    c = np.exp2(np.round(np.log2(abs(a[0] / a[-1])) / (a.size - 1)))
    a = a * c ** np.arange(a.size)
    a = a / np.max(np.abs(a))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = np.roots(a[::-1])
        deriv = (a[1:] * np.arange(1, a.size))[::-1]
        residual = np.abs(np.polyval(a[::-1], roots))
        weight = np.polyval(np.abs(a)[::-1], np.abs(roots))
        dp = np.abs(np.polyval(deriv, roots))
        eps_eff = 16.0 * a.size * np.finfo(float).eps
        eta = residual / weight
        err = np.where(dp > 0.0, (residual + weight * eps_eff) / dp, np.inf)
    err = np.where(np.isfinite(err), err, np.inf)
    if not np.all(np.isfinite(eta)) or np.max(eta) > 1e-10:
        return None
    if np.max(roots.real + err) < -ROOT_BAND:
        return True
    if np.max(roots.real - err) > ROOT_BAND:
        return False
    return None

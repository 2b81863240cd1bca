"""Gain vectors for extended PID/PD control and their admissibility checks.

The controller for a relative-degree-n plant is

    u = k1*e + k0*integral(e) + k2*de/dt + ... + kn*e^(n-1)      (PID form)
    u = k1*e + k2*de/dt + ... + kn*e^(n-1)                       (PD form)

A gain vector is *admissible* for asserted Lipschitz constants (L, M) when a
quadratic min-inequality over the gains exceeds the aggregate disturbance
constant kbar = sum(k_i)*L + k_last*M**2.  Admissibility guarantees a
Lyapunov certificate (see :mod:`stochpid.lyapunov`) and hence mean-square
stability of the closed loop with an explicit tracking-error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "GainVector",
    "DesignReport",
    "BoundConstants",
    "NonPositiveGain",
    "InvalidBeta",
    "check_inequality",
    "check_inequality_pd",
    "geometric_gains",
    "lambda_gains",
    "bound_constants",
]


class NonPositiveGain(ValueError):
    """A gain entry is zero or negative."""


class InvalidBeta(ValueError):
    """Ratio overrides violate the strict design inequalities."""


@dataclass(frozen=True)
class GainVector:
    """Extended PID gains (k0..kn) or PD gains (k1..kn).

    ``kind`` is ``"pid"`` or ``"pd"``; ``gains`` holds n+1 entries for PID
    and n entries for PD, all strictly positive.
    """

    kind: str
    gains: np.ndarray

    def __post_init__(self):
        if self.kind not in ("pid", "pd"):
            raise ValueError(f"kind must be 'pid' or 'pd', got {self.kind!r}")
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("gains must be a non-empty 1-D vector")
        if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
            raise NonPositiveGain(f"all gains must be positive and finite, got {g}")
        object.__setattr__(self, "gains", g)

    def kbar(self, L: float, M: float) -> float:
        """Disturbance constant ``sum(k_i)*L + k_last*M**2`` the admissible set must beat.

        Raises ``ValueError`` for negative ``L`` or ``M`` and when the constant
        is not a finite float64.
        """
        if L < 0 or M < 0:
            raise ValueError("L and M must be nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):
            kbar = float(np.sum(self.gains) * L + self.gains[-1] * M ** 2)
        if not np.isfinite(kbar):
            raise ValueError(f"kbar = {kbar} overflows float64 for L={L}, M={M}")
        return kbar

    @property
    def n(self) -> int:
        """Relative degree of the plant the gains are meant for."""
        return self.gains.size - 1 if self.kind == "pid" else self.gains.size

    def label(self, i: int) -> str:
        """Display label index of ``gains[i]`` (PID counts from k0, PD from k1)."""
        return f"k{i}" if self.kind == "pid" else f"k{i + 1}"


@dataclass(frozen=True)
class DesignReport:
    """Outcome of an admissibility check.

    ``margin = binding_value - kbar``; the gains are admissible iff it is
    strictly positive.  ``binding_term`` names the smallest left-hand term.
    """

    admissible: bool
    binding_term: str
    binding_value: float
    kbar: float
    margin: float


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants of the closed-loop tracking-error envelopes.

    ``decay_coeff * (|x0 - z*|^2 + |u*|^2) * exp(-rate*t) + floor_coeff * |g(z*)|^2``
    upper-bounds E|x(t)-z*|^2 for rate-designed gains, and
    ``floor_lower_coeff * |g(z*)|^2`` lower-bounds its liminf when the control
    gain matrix is bounded by ``R``.  The ``cert_*`` variants are the cruder
    constants recoverable from a Lyapunov certificate's eigenvalue ratios.
    """

    decay_coeff: float
    floor_coeff: float
    rate: float
    floor_lower_coeff: float
    cert_decay_coeff: Optional[float] = None
    cert_floor_coeff: Optional[float] = None
    cert_rate: Optional[float] = None


def _terms(gains: np.ndarray, b_lower: float, labels) -> list[tuple[str, float]]:
    """Left-hand terms of the min-inequality for a raw gain list."""
    g = gains
    N = g.size
    b = "*b" if b_lower != 1.0 else ""
    # g[i] * g[i] is correctly rounded, like the certificate's array k ** 2;
    # a numpy scalar g[i] ** 2 goes through libm pow, which is not
    terms = [(f"{labels(0)}^2{b}", g[0] * g[0] * b_lower)]
    for i in range(1, N - 1):
        name = f"{labels(i)}^2-2*{labels(i - 1)}*{labels(i + 1)}"
        if b:
            name = f"({name}){b}"
        terms.append((name, (g[i] * g[i] - 2.0 * g[i - 1] * g[i + 1]) * b_lower))
    if N >= 2:
        last = g[N - 1] * g[N - 1] * b_lower - g[N - 2]
        terms.append((f"{labels(N - 1)}^2{b}-{labels(N - 2)}", last))
    return terms


def _report(g: GainVector, L: float, M: float, b_lower: float) -> DesignReport:
    kbar = g.kbar(L, M)
    if b_lower <= 0:
        raise ValueError("b_lower must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _terms(g.gains, b_lower, g.label)
    for name, value in terms:
        if not np.isfinite(value):
            raise ValueError(f"term {name} = {value} overflows float64")
    binding_term, binding_value = min(terms, key=lambda t: t[1])
    margin = binding_value - kbar
    # the stability conditions are strict: a zero margin counts as failure
    return DesignReport(
        admissible=bool(margin > 0.0),
        binding_term=binding_term,
        binding_value=float(binding_value),
        kbar=kbar,
        margin=float(margin),
    )


def check_inequality(g: GainVector, L: float, M: float, b_lower: float = 1.0) -> DesignReport:
    """Check PID gains (k0..kn) against the quadratic admissibility inequality.

    Evaluates ``min{k0^2*b, (k_{i-1}^2 - 2*k_{i-2}*k_i)*b for 2<=i<=n,
    kn^2*b - k_{n-1}} > kbar`` with ``kbar = sum(k_i)*L + kn*M**2`` and
    ``b`` the asserted lower bound on the symmetrized control gain matrix.
    """
    if g.kind != "pid":
        raise ValueError("check_inequality expects PID gains; use check_inequality_pd for PD")
    return _report(g, L, M, b_lower)


def check_inequality_pd(g: GainVector, L: float, M: float) -> DesignReport:
    """Check PD gains (k1..kn) against the integral-free variant.

    Evaluates ``min{k1^2, k_i^2 - 2*k_{i-1}*k_{i+1} for 2<=i<=n-1,
    kn^2 - k_{n-1}} > khat`` with ``khat = sum(k_i)*L + kn*M**2``.  For n=1
    the condition degenerates to ``k1^2 > khat``.
    """
    if g.kind != "pd":
        raise ValueError("check_inequality_pd expects PD gains")
    return _report(g, L, M, 1.0)


def geometric_gains(k: float, n: int) -> GainVector:
    """PID gains k0=k, k_i = 3**(-i*(i+1)/2) * k.

    This one-parameter family is admissible for every (L, M) once ``k`` is
    large enough; admissibility is monotone in ``k``.
    """
    if k <= 0:
        raise NonPositiveGain("k must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    gains = np.array([3.0 ** (-i * (i + 1) / 2.0) * k for i in range(n + 1)])
    return GainVector("pid", gains)


def _beta_bounds(lam: float, M: float, n: int) -> float:
    return min(1.0, 1.0 / (n * (lam + 8.0 * M ** 2)))


def _k_threshold(betas: np.ndarray, lam: float, L: float, M: float, b_lower: float) -> float:
    prod = float(np.prod(betas))
    return (1.0 + 3.0 * L + 2.0 * L ** 2 / (lam + 8.0 * M ** 2)) / (prod ** 2 * b_lower)


def _k_admissible_threshold(betas: np.ndarray, L: float, M: float, b_lower: float) -> float:
    """Smallest k above which the ratio-pattern gains pass check_inequality.

    For gains k_i = (beta_1..beta_i)*k every left-hand term is a positive
    quadratic in k (beta_{i+1} < beta_i/n < beta_i/2 keeps the middle
    coefficients positive) while kbar is linear, so admissibility is
    monotone in k with an explicit per-family threshold.
    """
    prods = np.concatenate([[1.0], np.cumprod(betas)])
    c = L * float(np.sum(prods)) + prods[-1] * M ** 2  # kbar = c*k
    thresholds = [c / b_lower]
    for i in range(1, prods.size - 1):
        quad = prods[i - 1] * prods[i] * (betas[i - 1] - 2.0 * betas[i]) * b_lower
        thresholds.append(c / quad)
    thresholds.append((prods[-2] + c) / (prods[-1] ** 2 * b_lower))
    return max(thresholds)


def lambda_gains(
    lam: float,
    L: float,
    M: float,
    n: int,
    b_lower: float = 1.0,
    betas: Optional[Sequence[float]] = None,
    k: Optional[float] = None,
) -> tuple[GainVector, np.ndarray]:
    """Design PID gains achieving a prescribed mean-square decay rate ``lam``.

    Gains follow k0=k, k_i = (beta_1*...*beta_i)*k where the ratios must
    satisfy the strict open conditions

        0 < beta_1 < min(1, 1/(n*(lam + 8*M**2)))
        0 < beta_i < beta_{i-1}/n
        k > (prod(beta))**-2 * (1 + 3L + 2L**2/(lam + 8*M**2)) / b_lower

    Defaults pick beta_1 = 0.9*bound, beta_i = 0.9*beta_{i-1}/n and
    k = 1.1*threshold, which keeps the strict inequalities robust to
    round-off.  Explicit ``betas``/``k`` overrides are validated and raise
    :class:`InvalidBeta` when they sit on or outside the open region.
    Returns the gain vector together with the ratios actually used.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if L < 0 or M < 0:
        raise ValueError("L and M must be nonnegative")
    if b_lower <= 0:
        raise ValueError("b_lower must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")

    b1_bound = _beta_bounds(lam, M, n)
    if betas is None:
        b = np.empty(n)
        b[0] = 0.9 * b1_bound
        for i in range(1, n):
            b[i] = 0.9 * b[i - 1] / n
    else:
        b = np.asarray(betas, dtype=float)
        if b.shape != (n,):
            raise InvalidBeta(f"expected {n} ratios, got shape {b.shape}")
        if not (0.0 < b[0] < b1_bound):
            raise InvalidBeta(f"beta_1={b[0]} outside (0, {b1_bound})")
        for i in range(1, n):
            if not (0.0 < b[i] < b[i - 1] / n):
                raise InvalidBeta(f"beta_{i + 1}={b[i]} outside (0, beta_{i}/n)")

    k_min = _k_threshold(b, lam, L, M, b_lower)
    if k is None:
        # also clear the exact admissibility threshold: the design condition
        # alone does not imply the quadratic inequality when n < 3
        k_val = 1.1 * max(k_min, _k_admissible_threshold(b, L, M, b_lower))
    else:
        k_val = float(k)
        # 1e-12 relative guard keeps the strict comparison meaningful when
        # the threshold itself rounds (exact boundary values must reject)
        if k_val <= k_min * (1.0 + 1e-12):
            raise InvalidBeta(f"k={k_val} must strictly exceed {k_min}")

    gains = k_val * np.concatenate([[1.0], np.cumprod(b)])
    return GainVector("pid", gains), b


def bound_constants(
    g: GainVector,
    lam: float,
    L: float,
    M: float,
    R: float,
    certificate=None,
) -> BoundConstants:
    """Explicit envelope constants for rate-designed PID gains.

    ``decay_coeff = 4*n**3*k0**2/kn**2``, ``floor_coeff = 4*n/lam`` and
    ``floor_lower_coeff = lam / (4*(2+2L+M^2)*lam + 64*(n+1)*R^2*sum(k_i^2))``.
    When a :class:`~stochpid.lyapunov.LyapunovCertificate` is supplied the
    cruder certificate-derived constants are filled in as well.
    """
    if g.kind != "pid":
        raise ValueError("bound constants are defined for PID gains")
    if lam <= 0 or R < 0:
        raise ValueError("lam must be positive and R nonnegative")
    n = g.n
    k = g.gains
    decay = 4.0 * n ** 3 * k[0] ** 2 / k[-1] ** 2
    floor = 4.0 * n / lam
    denom = 4.0 * (2.0 + 2.0 * L + M ** 2) * lam + 64.0 * (n + 1) * R ** 2 * float(np.sum(k ** 2))
    c3 = lam / denom

    cert_decay = cert_floor = cert_rate = None
    if certificate is not None:
        lo, hi = certificate.min_eig_P, certificate.max_eig_P
        rate = certificate.min_eig_negdef / hi
        cert_rate = rate
        cert_decay = (hi / lo) * max(1.0, 1.0 / k[0] ** 2)
        cert_floor = 2.0 * k[-1] / (rate * lo)

    return BoundConstants(
        decay_coeff=float(decay),
        floor_coeff=float(floor),
        rate=float(lam),
        floor_lower_coeff=float(c3),
        cert_decay_coeff=cert_decay,
        cert_floor_coeff=cert_floor,
        cert_rate=cert_rate,
    )

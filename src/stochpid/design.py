"""Gain vectors for extended PID/PD control and their admissibility checks.

The controller for a relative-degree-n plant is

    u = k1*e + k0*integral(e) + k2*de/dt + ... + kn*e^(n-1)      (PID form)
    u = k1*e + k2*de/dt + ... + kn*e^(n-1)                       (PD form)

PD gains are PID gains without k0, and both kinds share one law, the linear
map u = K @ [1; integral; x] built by ``stochpid.simulate._control_law``.  A
gain vector of either kind is *admissible* for asserted Lipschitz constants
(L, M) when one quadratic min-inequality over its entries,
:func:`check_inequality`, exceeds the aggregate disturbance constant
kbar = sum(k_i)*L + k_last*M**2.  Admissibility guarantees a Lyapunov
certificate (see :mod:`stochpid.lyapunov`) and hence mean-square stability
of the closed loop with an explicit tracking-error bound.  The smallest
admissible scale of a gain pattern is read off the inequality's own terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .model import _require_constant, _require_count

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


def _dyadic(values) -> tuple[list[int], int]:
    """Finite floats as ints over their common power-of-two denominator D:
    ``values[i] == c[i] / D`` exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    D = max(d for _, d in ratios)
    return [n * (D // d) for n, d in ratios], D


def _routh(c: list[int]) -> bool:
    """Routh verdict of descending int coefficients with a positive leading one."""
    prev, row = c[0::2], c[1::2] + [0] * (len(c) % 2)
    for _ in range(len(c) - 2):
        pivot = row[0]
        if pivot <= 0:
            return False
        new = [pivot * prev[j + 1] - prev[0] * row[j + 1] for j in range(len(prev) - 1)]
        g = math.gcd(*new) or 1
        prev, row = row, [v // g for v in new] + [0]
    return row[0] > 0


@dataclass(frozen=True)
class GainVector:
    """Extended PID gains (k0..kn) or PD gains (k1..kn).

    ``kind`` is ``"pid"`` or ``"pd"``; ``gains`` holds n+1 entries for PID
    and n entries for PD, all strictly positive.  ``gains`` is a read-only
    copy of the values passed in, so the exact form and the verdicts cached
    on the vector cannot go stale.
    """

    kind: str
    gains: np.ndarray

    def __post_init__(self):
        if self.kind not in ("pid", "pd"):
            raise ValueError(f"kind must be 'pid' or 'pd', got {self.kind!r}")
        g = np.array(self.gains, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("gains must be a non-empty 1-D vector")
        if not all(0.0 < v < math.inf for v in g.tolist()):  # NaN fails too
            raise NonPositiveGain(f"all gains must be positive and finite, got {g}")
        g.flags.writeable = False
        object.__setattr__(self, "gains", g)

    def __reduce__(self):  # copies and pickles are validated afresh and start uncached
        return GainVector, (self.kind, self.gains)

    @cached_property
    def _ints(self) -> tuple[list[int], int]:
        """The gains as ints c over their common power-of-two denominator D."""
        return _dyadic(self.gains.tolist())

    @cached_property
    def _hurwitz(self) -> bool:
        """Exact Routh verdict of the characteristic polynomial D*(s**N + ... + k_first)."""
        c, D = self._ints
        return _routh([D] + c[::-1])

    @cached_property
    def _sum(self) -> float:
        return _gain_sum(self.gains)

    def kbar(self, L: float, M: float) -> float:
        """Disturbance constant ``sum(k_i)*L + k_last*M**2`` the admissible set must beat.

        Raises ``ValueError`` for a negative or non-finite ``L`` or ``M`` and
        when the constant is not a finite float64.
        """
        _require_constant("L", L)
        _require_constant("M", M)
        kbar = _kbar(self._sum, float(self.gains[-1]), float(L), float(M))
        if not math.isfinite(kbar):
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


def _gain_sum(gains: np.ndarray) -> float:
    """numpy's sum of the gains, inf when it overflows; its pairwise sum rounds unlike
    a sequential one from 8 entries on, so the sum stays numpy's."""
    with np.errstate(over="ignore"):
        return float(gains.sum())


def _kbar(total: float, last: float, L: float, M: float) -> float:
    """``total*L + last*M*M`` on Python floats: inf or nan when it overflows, no warning."""
    return total * L + last * M * M


def _terms(g, b_lower: float):
    """Left-hand terms (i, q, l) of the min-inequality for a raw gain list: term i
    is q - l, with q quadratic and l linear in the gains."""
    N = len(g)
    # g[i] * g[i] is correctly rounded; a numpy scalar g[i] ** 2 goes through libm pow
    yield 0, g[0] * g[0] * b_lower, 0.0
    for i in range(1, N - 1):
        yield i, (g[i] * g[i] - 2.0 * g[i - 1] * g[i + 1]) * b_lower, 0.0
    if N >= 2:
        yield N - 1, g[N - 1] * g[N - 1] * b_lower, g[N - 2]


def _term_name(g: GainVector, i: int, b_lower: float) -> str:
    """Display name of left-hand term ``i`` of :func:`_terms` for the gains ``g``."""
    k, N = g.label, g.gains.size
    b = "*b" if b_lower != 1.0 else ""
    if i == 0:
        return f"{k(0)}^2{b}"
    if i == N - 1:
        return f"{k(i)}^2{b}-{k(i - 1)}"
    name = f"{k(i)}^2-2*{k(i - 1)}*{k(i + 1)}"
    return f"({name}){b}" if b else name


def check_inequality(g: GainVector, L: float, M: float, b_lower: float = 1.0) -> DesignReport:
    """Check PID (k0..kn) or PD (k1..kn) gains against the quadratic admissibility inequality.

    Over the gain entries k_first..k_last, evaluates ``min{k_first^2*b,
    (k_i^2 - 2*k_{i-1}*k_{i+1})*b for the middle entries, k_last^2*b - k_{last-1}}
    > kbar`` with ``kbar = sum(k_i)*L + k_last*M**2`` and ``b`` the asserted
    lower bound on the symmetrized control gain matrix.  The PD inequality has
    no b term, so PD gains need ``b_lower == 1``; a single PD gain degenerates
    to ``k1^2 > kbar``.
    """
    if g.kind == "pd" and b_lower != 1.0:
        raise ValueError("b_lower: the PD inequality has no b term")
    kbar = g.kbar(L, M)
    _require_constant("b_lower", b_lower, positive=True)
    terms = [q - l for _, q, l in _terms(g.gains.tolist(), float(b_lower))]
    for i, value in enumerate(terms):
        if not math.isfinite(value):
            raise ValueError(f"term {_term_name(g, i, b_lower)} = {value} overflows float64")
    binding = min(range(len(terms)), key=terms.__getitem__)
    margin = terms[binding] - kbar
    if not math.isfinite(margin):  # a finite term minus a finite kbar can still overflow
        raise ValueError(f"margin {_term_name(g, binding, b_lower)} - kbar = {terms[binding]} - "
                         f"{kbar} overflows float64")
    # the stability conditions are strict: a zero margin counts as failure
    return DesignReport(
        admissible=margin > 0.0,
        binding_term=_term_name(g, binding, b_lower),
        binding_value=terms[binding],
        kbar=kbar,
        margin=margin,
    )


def check_inequality_pd(g: GainVector, L: float, M: float) -> DesignReport:
    """:func:`check_inequality` for gains that must be PD."""
    if g.kind != "pd":
        raise ValueError("check_inequality_pd expects PD gains")
    return check_inequality(g, L, M)


def geometric_gains(k: float, n: int) -> GainVector:
    """PID gains k0=k, k_i = 3**(-i*(i+1)/2) * k.

    This one-parameter family is admissible for every (L, M) once ``k`` is
    large enough; admissibility is monotone in ``k``.
    """
    _require_constant("k", k, positive=True)
    n = _require_count("n", n)
    gains = np.array([3.0 ** (-i * (i + 1) / 2.0) * k for i in range(n + 1)])
    return GainVector("pid", gains)


# squares are products: a Python float ** 2 raises OverflowError where * gives inf
def _beta_bounds(lam: float, M: float, n: int) -> float:
    return min(1.0, 1.0 / (n * (lam + 8.0 * M * M)))


def _k_threshold(betas: np.ndarray, lam: float, L: float, M: float, b_lower: float) -> float:
    """The design condition's bound on k; inf when prod(betas)**2 * b_lower underflows."""
    scale = float(np.prod(betas)) ** 2 * b_lower
    return (1.0 + 3.0 * L + 2.0 * L * L / (lam + 8.0 * M * M)) / scale if scale > 0 else math.inf


def _k_admissible_threshold(w: np.ndarray, L: float, M: float, b_lower: float) -> float:
    """Smallest k above which the gains k*w pass check_inequality.

    The gains k*w have the terms k**2*q - k*l and kbar k*kbar(w), so a term
    beats kbar exactly when k > (l + kbar(w))/q, and never when q <= 0.  The
    ratio pattern w = (1, beta_1, beta_1*beta_2, ...) has every q > 0, as
    beta_{i+1} < beta_i/n <= beta_i/2, but a middle term's q cancels as
    beta_2 nears beta_1/2 at n = 2; a q within its rounding error counts as
    unreachable, so no finite k is returned for it.
    """
    # Rounding bound.  With u = 2**-53, a middle term q = (w_i**2 -
    # 2*w_{i-1}*w_{i+1})*b is computed within 3u*s of its exact value, where
    # s = (w_i**2 + 2*w_{i-1}*w_{i+1})*b <= 2*w_i**2*b up to rounding (the
    # ratio bounds give 2*w_{i-1}*w_{i+1} < w_i**2).  check_inequality's term
    # of the rounded gains fl(k*w_j) = k*w_j*(1 + d_j), |d_j| <= u, is within
    # 5u*k**2*s of k**2 times the exact value (gamma_3 for the products and
    # gains, gamma_2 for the difference and b), so at least
    # k**2*(q - 16u*w_i**2*b).  A default k is 1.1 times the threshold,
    # k*q >= 1.1*(l + kbar(w)); if q > 2**-45*w_i**2*b = 256u*w_i**2*b, the
    # term keeps k**2*q*15/16 >= 1.03*k*kbar(w), which clears the kbar of the
    # rounded gains (within (n + 4)u of k*kbar(w)).  The end terms are
    # q = w_i**2*b, clear unless 0.
    b, v = float(b_lower), w.tolist()
    c = _kbar(_gain_sum(w), v[-1], float(L), float(M))
    # on Python floats a tiny q gives inf without a warning
    return max((l + c) / q if q > 2.0 ** -45 * b * (vi * vi) else math.inf
               for (_, q, l), vi in zip(_terms(v, b), v))


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
    :class:`InvalidBeta` when they sit on or outside the open region; a
    ``ValueError`` names ``lam`` (or ``betas``) when no finite default k exists.
    Returns the gain vector together with the ratios actually used.
    """
    _require_constant("lam", lam, positive=True)
    _require_constant("L", L)
    _require_constant("M", M)
    _require_constant("b_lower", b_lower, positive=True)
    n = _require_count("n", n)

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

    w = np.concatenate([[1.0], np.cumprod(b)])
    k_min = _k_threshold(b, lam, L, M, b_lower)
    if k is None:
        # also clear the exact admissibility threshold: the design condition
        # alone does not imply the quadratic inequality when n < 3
        k_val = 1.1 * max(k_min, _k_admissible_threshold(w, L, M, b_lower))
        if not k_val < math.inf:
            raise ValueError(
                f"{'lam' if betas is None else 'betas'} must be such that the gain threshold "
                f"is finite, got inf for lam={lam}, L={L}, M={M}, b_lower={b_lower} and ratios {b}")
    else:
        _require_constant("k", k, positive=True)
        k_val = float(k)
        # 1e-12 relative guard keeps the strict comparison meaningful when
        # the threshold itself rounds (exact boundary values must reject)
        if not k_val > k_min * (1.0 + 1e-12):
            raise InvalidBeta(f"k={k_val} must strictly exceed {k_min}")

    return GainVector("pid", k_val * w), b


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
    cruder certificate-derived constants are filled in as well.  Raises
    ``ValueError`` when ``decay_coeff`` overflows float64; a denominator that
    overflows gives ``floor_lower_coeff = 0``, a valid lower bound.
    """
    if g.kind != "pid":
        raise ValueError("bound constants are defined for PID gains")
    _require_constant("lam", lam, positive=True)
    _require_constant("R", R)
    n = g.n
    k = g.gains
    floor = 4.0 * n / lam
    # an overflowing decay is raised below; an overflowing denom makes c3 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        decay = 4.0 * n ** 3 * k[0] ** 2 / k[-1] ** 2
        # M*M and R*R: a Python float ** 2 raises OverflowError where * gives inf
        denom = (4.0 * (2.0 + 2.0 * L + M * M) * lam
                 + 64.0 * (n + 1) * R * R * float(np.sum(k ** 2)))
    if not np.isfinite(decay):
        raise ValueError(f"decay_coeff = {decay} overflows float64 for k0={k[0]}, "
                         f"{g.label(n)}={k[-1]}")
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

"""Plant description, equilibrium solving and the proof coordinate systems.

A plant of relative degree n is the n-chain of integrators

    dx_i = x_{i+1} dt  (i < n),    dx_n = f(x; u) dt + g(x) dB,    y = x_1,

with x in R^(n*d), u in R^d and an m-dimensional Brownian motion.  The user
asserts the Lipschitz constants L (drift in x, uniform in u) and M
(diffusion, Hilbert-Schmidt norm) plus a lower bound b on the symmetrized
control gain matrix; these are inputs, not derived quantities, and can only
be refuted by sampling (see :func:`falsify_lipschitz`).

Drift and diffusion callables must be pure functions, vectorized over a
leading batch axis: drift(x, u) maps (..., n*d) x (..., d) -> (..., d) and
diffusion(x) maps (..., n*d) -> (..., d, m) (constant (d, m) returns are
broadcast).  All builtin plants satisfy this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PlantSpec",
    "Setpoint",
    "ShiftedState",
    "ZState",
    "NoConvergence",
    "NonFinite",
    "DegenerateBeta",
    "solve_equilibrium",
    "shifted_coordinates",
    "shifted_to_raw",
    "z_transform",
    "z_inverse",
    "falsify_lipschitz",
]


class NoConvergence(RuntimeError):
    """Equilibrium residual not reached within the iteration budget."""


class NonFinite(ValueError):
    """The plant returned NaN or Inf for a finite input."""


class DegenerateBeta(ValueError):
    """A coordinate-transform ratio is zero or negative."""


@dataclass(frozen=True)
class PlantSpec:
    """An uncertain nonlinear stochastic plant of relative degree n."""

    n: int
    d: int
    m: int
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    lipschitz_L: float
    lipschitz_M: float
    gain_lower_b: float = 1.0
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.m < 1:
            raise ValueError("n, d and m must be positive integers")
        if self.lipschitz_L < 0 or self.lipschitz_M < 0:
            raise ValueError("Lipschitz constants must be nonnegative")
        if self.gain_lower_b <= 0:
            raise ValueError("gain_lower_b must be positive")

    @property
    def state_dim(self) -> int:
        return self.n * self.d

    def eval_drift(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Evaluate f(x; u), broadcast to u's shape, NaN/Inf checked."""
        out = np.asarray(self.drift(x, u), dtype=float)
        out = np.broadcast_to(out, np.shape(u))
        return require_finite(out, "drift")

    def eval_diffusion(self, x: np.ndarray) -> np.ndarray:
        """Evaluate g(x), broadcast to batch + (d, m), NaN/Inf checked."""
        out = np.asarray(self.diffusion(x), dtype=float)
        batch = np.shape(x)[:-1]
        out = np.broadcast_to(out, batch + (self.d, self.m))
        return require_finite(out, "diffusion")


def require_finite(out: np.ndarray, what: str) -> np.ndarray:
    """Return ``out``, or raise :class:`NonFinite` naming ``what`` if it holds NaN/Inf."""
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"{what} returned a non-finite value")
    return out


@dataclass(frozen=True)
class Setpoint:
    """Setpoint y*, its lifted state z* = (y*, 0, ..., 0) and input u*.

    u* is the unique root of f(z*; u) = 0, which exists because the
    symmetrized control gain matrix is bounded below by a positive multiple
    of the identity.
    """

    y_star: np.ndarray
    z_star: np.ndarray
    u_star: np.ndarray
    residual: float


@dataclass(frozen=True)
class ShiftedState:
    """Equilibrium-shifted blocks (y0, y1, ..., yn), each in R^d.

    y0 is the output-error integral plus the u*/k0 offset, y1 the output
    deviation from the setpoint, and y2..yn the raw upper states.
    """

    blocks: np.ndarray  # (n + 1, d)


@dataclass(frozen=True)
class ZState:
    """Cascade-transformed blocks (z0, ..., zn), each in R^d."""

    blocks: np.ndarray  # (n + 1, d)


def _as_vec(v, dim: int, what: str) -> np.ndarray:
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.shape != (dim,):
        raise ValueError(f"{what} must have shape ({dim},), got {a.shape}")
    return a


def solve_equilibrium(
    plant: PlantSpec,
    y_star,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> Setpoint:
    """Solve f(z*; u) = 0 for the equilibrium input u*.

    For d = 1 the root is bracketed by expansion (monotonicity of f in u
    guarantees a sign change) and refined by bisection; for d > 1 a damped
    Newton iteration with a finite-difference Jacobian is used, which is
    safe because the symmetrized Jacobian is bounded below by b*I.
    Raises :class:`NoConvergence` when the residual tolerance is not met
    within the budget and :class:`NonFinite` on NaN/Inf plant output.
    """
    y = _as_vec(y_star, plant.d, "y_star")
    z = np.zeros(plant.state_dim)
    z[: plant.d] = y

    def f(u: np.ndarray) -> np.ndarray:
        return plant.eval_drift(z, u)

    if plant.d == 1:
        u = _bisect_scalar(f, plant.gain_lower_b, tol, max_iter)
    else:
        u = _damped_newton(f, plant.d, tol, max_iter)
    res = float(np.linalg.norm(f(u)))
    if res > tol:
        raise NoConvergence(f"equilibrium residual {res:.3e} above tolerance {tol:.1e}")
    return Setpoint(y_star=y, z_star=z, u_star=u, residual=res)


def _bisect_scalar(f, b_lower: float, tol: float, max_iter: int) -> np.ndarray:
    f0 = float(f(np.zeros(1))[0])
    if abs(f0) <= tol:
        return np.zeros(1)
    # slope >= b_lower puts the root within |f(0)|/b_lower of the origin
    reach = abs(f0) / b_lower
    lo, hi = (-reach - 1.0, 0.0) if f0 > 0 else (0.0, reach + 1.0)
    flo = float(f(np.array([lo]))[0])
    fhi = float(f(np.array([hi]))[0])
    for _ in range(max_iter):
        if flo <= 0.0 <= fhi:
            break
        lo, hi = lo - reach, hi + reach
        flo = float(f(np.array([lo]))[0])
        fhi = float(f(np.array([hi]))[0])
    else:
        raise NoConvergence("failed to bracket the equilibrium input")
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fm = float(f(np.array([mid]))[0])
        if abs(fm) <= tol:
            return np.array([mid])
        if fm > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    raise NoConvergence(f"bisection exhausted {max_iter} iterations")


def _fd_jacobian(f, u: np.ndarray) -> np.ndarray:
    d = u.size
    J = np.empty((d, d))
    fu = f(u)
    for j in range(d):
        h = math.sqrt(np.finfo(float).eps) * (1.0 + abs(u[j]))
        up = u.copy()
        up[j] += h
        J[:, j] = (f(up) - fu) / h
    return J


def _damped_newton(f, d: int, tol: float, max_iter: int) -> np.ndarray:
    u = np.zeros(d)
    fu = f(u)
    for _ in range(max_iter):
        norm = float(np.linalg.norm(fu))
        if norm <= tol:
            return u
        J = _fd_jacobian(f, u)
        try:
            step = np.linalg.solve(J, -fu)
        except np.linalg.LinAlgError:
            step = -fu  # gradient-like fallback; J >= b*I makes this a descent direction
        alpha = 1.0
        while alpha > 1e-12:
            cand = u + alpha * step
            fc = f(cand)
            if float(np.linalg.norm(fc)) < norm:
                u, fu = cand, fc
                break
            alpha *= 0.5
        else:
            raise NoConvergence("Newton line search stalled")
    if float(np.linalg.norm(fu)) <= tol:
        return u
    raise NoConvergence(f"Newton exhausted {max_iter} iterations")


def shifted_coordinates(x, integral, sp: Setpoint, k0: float) -> ShiftedState:
    """Shift a raw state into the equilibrium coordinates (y0, ..., yn).

    ``integral`` is the accumulated output error int (x1 - y*) dt (note the
    sign: output minus setpoint, the negative of the controller's error
    accumulator).  Then y0 = integral + u*/k0, y1 = x1 - y*, and yi = xi for
    i >= 2, so the controller output equals -sum(k_i * y_i) + u*.
    """
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    d = sp.y_star.size
    xa = np.asarray(x, dtype=float).reshape(-1, d)
    n = xa.shape[0]
    blocks = np.empty((n + 1, d))
    blocks[0] = _as_vec(integral, d, "integral") + sp.u_star / k0
    blocks[1] = xa[0] - sp.y_star
    blocks[2:] = xa[1:]
    return ShiftedState(blocks=blocks)


def shifted_to_raw(y: ShiftedState, sp: Setpoint, k0: float) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`shifted_coordinates`; returns (x, integral)."""
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    blocks = y.blocks
    x = blocks[1:].copy()
    x[0] = blocks[1] + sp.y_star
    return x.reshape(-1), blocks[0] - sp.u_star / k0


def _beta_prods(betas, n: int) -> np.ndarray:
    b = np.asarray(betas, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"expected {n} ratios, got shape {b.shape}")
    if np.any(b <= 0.0):
        raise DegenerateBeta(f"all ratios must be positive, got {b}")
    return np.cumprod(b)


def z_transform(y: ShiftedState, betas) -> ZState:
    """Cascade transform z0 = y0, z_i = z_{i-1} + (beta_1*...*beta_i) * y_i."""
    n = y.blocks.shape[0] - 1
    prods = _beta_prods(betas, n)
    z = np.empty_like(y.blocks)
    z[0] = y.blocks[0]
    for i in range(1, n + 1):
        z[i] = z[i - 1] + prods[i - 1] * y.blocks[i]
    return ZState(blocks=z)


def z_inverse(z: ZState, betas) -> ShiftedState:
    """Invert :func:`z_transform` exactly up to floating-point round-off."""
    n = z.blocks.shape[0] - 1
    prods = _beta_prods(betas, n)
    y = np.empty_like(z.blocks)
    y[0] = z.blocks[0]
    for i in range(1, n + 1):
        y[i] = (z.blocks[i] - z.blocks[i - 1]) / prods[i - 1]
    return ShiftedState(blocks=y)


def falsify_lipschitz(
    plant: PlantSpec,
    samples: int = 1000,
    radius: float = 10.0,
    seed: int = 0,
) -> Optional[dict]:
    """Try to refute the asserted L and M constants by random sampling.

    Draws pairs (x, y) uniformly in a box of the given radius (and a shared
    random input) and compares difference quotients against the asserted
    constants.  Returns None when no violation is found, otherwise a dict
    with the worst offending pair.  Absence of a counterexample proves
    nothing; the constants remain user assertions.
    """
    rng = np.random.default_rng(seed)
    nd, d = plant.state_dim, plant.d
    worst = None
    for _ in range(samples):
        x1 = rng.uniform(-radius, radius, nd)
        x2 = rng.uniform(-radius, radius, nd)
        u = rng.uniform(-radius, radius, d)
        dist = float(np.linalg.norm(x1 - x2))
        if dist == 0.0:
            continue
        df = float(np.linalg.norm(plant.eval_drift(x1, u) - plant.eval_drift(x2, u)))
        dg = float(np.linalg.norm(plant.eval_diffusion(x1) - plant.eval_diffusion(x2)))
        tol = 1e-9 * (1.0 + dist)
        if df > plant.lipschitz_L * dist + tol or dg > plant.lipschitz_M * dist + tol:
            ratio_f, ratio_g = df / dist, dg / dist
            if worst is None or max(ratio_f, ratio_g) > worst["ratio"]:
                worst = {
                    "x1": x1,
                    "x2": x2,
                    "u": u,
                    "drift_ratio": ratio_f,
                    "diffusion_ratio": ratio_g,
                    "ratio": max(ratio_f, ratio_g),
                }
    return worst

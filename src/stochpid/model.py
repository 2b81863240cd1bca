"""Plant description and equilibrium solving.

A plant of relative degree n is the n-chain of integrators

    dx_i = x_{i+1} dt  (i < n),    dx_n = f(x; u) dt + g(x) dB,    y = x_1,

with x in R^(n*d), u in R^d and an m-dimensional Brownian motion.  The user
asserts the Lipschitz constants L (drift in x, uniform in u) and M
(diffusion, Hilbert-Schmidt norm) plus a lower bound b on the symmetrized
control gain matrix; these are inputs, not derived quantities.  The bound b
makes the setpoint input u* unique for every d; :func:`solve_equilibrium`
finds it by one damped Newton iteration and rejects a root farther from the
origin than b allows.

The drift splits into an affine part given as data and a residual:
f(x; u) = W @ [1; x; u] + drift(x, u), with the weights W = ``affine`` of
shape (d, 1 + n*d + d) (absent means zero).  ``drift`` is None when f is
affine, a residual callable, or the residual as data: a tuple of terms
(ufunc, source, weights) for drift(x, u) = sum_k weights_k *
ufunc_k(z[source_k]) with z = [x; u] and d weights per term, which the
plant stores as a callable tuple that returns that sum.  The simulator folds
W and the terms' weights into its loop matrix, so per step it evaluates
only each term's ufunc in place, or else the residual callable;
:meth:`PlantSpec.eval_drift` returns the full f.
Drift and diffusion callables must be pure functions, vectorized over a
leading batch axis: drift(x, u) maps (..., n*d) x (..., d) -> (..., d) and
diffusion(x) maps (..., n*d) -> (..., d, m).  A diffusion that returns one
unbatched (d, m) matrix is constant: it is broadcast over the batch, and
the simulator evaluates it once per chunk of paths.  A drift of any other
type, or a diffusion that is not callable, is a ValueError naming the field
when the plant is built.  All builtin plants satisfy this.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "PlantSpec",
    "Setpoint",
    "NoConvergence",
    "NonFinite",
    "solve_equilibrium",
]


class NoConvergence(RuntimeError):
    """Equilibrium residual not reached within the iteration budget."""


class NonFinite(ValueError):
    """The plant returned NaN or Inf for a finite input."""


@dataclass(frozen=True)
class PlantSpec:
    """An uncertain nonlinear stochastic plant of relative degree n.

    ``drift`` is the residual of f beyond the affine part ``affine``: None,
    a callable or a tuple of terms (see the module docstring); no terms,
    ``()``, is None.
    """

    n: int
    d: int
    m: int
    drift: Union[None, Callable[[np.ndarray, np.ndarray], np.ndarray], tuple]
    diffusion: Callable[[np.ndarray], np.ndarray]
    lipschitz_L: float
    lipschitz_M: float
    gain_lower_b: float = 1.0
    affine: Optional[np.ndarray] = field(default=None, compare=False)  # == on arrays is elementwise

    def __post_init__(self):
        for name in ("n", "d", "m"):
            object.__setattr__(self, name, _require_count(name, getattr(self, name)))
        _require_constant("lipschitz_L", self.lipschitz_L)
        _require_constant("lipschitz_M", self.lipschitz_M)
        _require_constant("gain_lower_b", self.gain_lower_b, positive=True)
        if not (self.drift is None or callable(self.drift) or isinstance(self.drift, tuple)):
            raise ValueError(f"drift: expected None, a callable or a tuple of terms, "
                             f"got {self.drift!r}")
        if not callable(self.diffusion):
            raise ValueError(f"diffusion: expected a callable, got {self.diffusion!r}")
        if self.affine is not None:
            W = _as_floats(self.affine, "affine")
            shape = (self.d, 1 + self.state_dim + self.d)
            if W.shape != shape:
                raise ValueError(f"affine must have shape {shape}, got {W.shape}")
            if not np.all(np.isfinite(W)):
                raise ValueError(f"affine weights must be finite numbers, got {W}")
            W.flags.writeable = False
            object.__setattr__(self, "affine", W)
        if isinstance(self.drift, tuple):  # a _Terms too, so a replaced n is checked again
            terms = tuple(self._term(k, term) for k, term in enumerate(self.drift))
            object.__setattr__(self, "drift", _Terms(terms, self.state_dim) if terms else None)

    def _term(self, k: int, term) -> tuple:
        """Term k as (unary ufunc, source index into [x; u], d float weights), else
        ValueError starting with ``drift[k]``."""
        try:
            ufunc, source, weights = term
        except (TypeError, ValueError):
            raise ValueError(f"drift[{k}]: expected (ufunc, source, weights), "
                             f"got {term!r}") from None
        if not (isinstance(ufunc, np.ufunc) and ufunc.nin == ufunc.nout == 1):
            raise ValueError(f"drift[{k}]: expected a unary numpy ufunc, got {ufunc!r}")
        if not (_is_integer(source) and 0 <= source < self.state_dim + self.d):
            raise ValueError(f"drift[{k}]: source must be an index in "
                             f"[0, {self.state_dim + self.d}), got {source!r}")
        weights = _as_vec(weights, self.d, f"drift[{k}] weights")
        return ufunc, int(source), tuple(weights.tolist())

    @property
    def state_dim(self) -> int:
        return self.n * self.d

    def eval_drift(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Evaluate the full f(x; u), broadcast to u's shape, NaN/Inf checked."""
        u = np.asarray(u, dtype=float)
        out = 0.0 if self.drift is None else np.asarray(self.drift(x, u), dtype=float)
        if self.affine is not None:
            W, nd = self.affine, self.state_dim
            out = out + (W[:, 0] + np.asarray(x, dtype=float) @ W[:, 1:1 + nd].T
                         + u @ W[:, 1 + nd:].T)
        out = np.broadcast_to(out, u.shape)
        return require_finite(out, "drift")

    def eval_diffusion(self, x: np.ndarray) -> np.ndarray:
        """Evaluate g(x), broadcast to batch + (d, m), NaN/Inf checked."""
        out = np.asarray(self.diffusion(x), dtype=float)
        batch = np.shape(x)[:-1]
        out = np.broadcast_to(out, batch + (self.d, self.m))
        return require_finite(out, "diffusion")


class _Terms(tuple):
    """Checked terms (ufunc, source, weights) of a residual drift; calling it returns
    their sum sum_k weights_k * ufunc_k(z[source_k]), z = [x; u]."""

    def __new__(cls, terms: tuple, state_dim: int):
        self = super().__new__(cls, terms)
        self.state_dim = state_dim
        self._weights = [np.array(w) for _, _, w in terms]
        return self

    def __getnewargs__(self):  # what copies and pickles rebuild a _Terms from
        return tuple(self), self.state_dim

    def __call__(self, x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        nd, out = self.state_dim, None
        for (ufunc, source, _), w in zip(self, self._weights):
            z = x[..., source:source + 1] if source < nd else u[..., source - nd:source - nd + 1]
            out = w * ufunc(z) if out is None else out + w * ufunc(z)
        return out


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


def _is_real(value) -> bool:
    """A real number with a finite float value: not a bool, a string, NaN, inf or 10**400."""
    if isinstance(value, float):  # a fast path for the common case, np.float64 included
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(value, numbers.Integral):  # math.isfinite(10**400) raises OverflowError
        return abs(int(value)) <= sys.float_info.max
    try:
        return math.isfinite(value)
    except OverflowError:  # Fraction(10**400): too large for the float isfinite converts to
        return False


def _is_integer(value) -> bool:
    """An integral number of any size: 4.0 and numpy integers, not 4.7, true or "4"."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or _is_real(value) and float(value).is_integer())


def _require_constant(name: str, value, positive: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` satisfies :func:`_is_real`
    and is nonnegative (positive with ``positive``)."""
    if not (_is_real(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {kind} and finite, got {value!r}")


def _require_count(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless it satisfies
    :func:`_is_integer` and is at least 1."""
    if not (_is_integer(value) and value >= 1):
        raise ValueError(f"{name}: expected a positive integer, got {value!r}")
    return int(value)


def _as_vec(v, dim: Optional[int], what: str) -> np.ndarray:
    """``v`` (a scalar or a list) as a float vector of ``dim`` entries, any number when
    None; ValueError naming ``what`` unless every entry satisfies :func:`_is_real`."""
    a = np.atleast_1d(np.asarray(v, dtype=object))
    if a.ndim != 1 or dim not in (None, a.size) or not all(map(_is_real, a)):
        count = "" if dim is None else f"{dim} "
        raise ValueError(f"{what}: expected {count}finite number(s), got {v!r}")
    return a.astype(float)


def _as_floats(v, what: str) -> np.ndarray:
    """``v`` as a float array of any shape, read from numbers only: an int or float
    ndarray passes on its dtype alone, any other value when each entry is a float or
    satisfies :func:`_is_real`, else ValueError naming ``what``.  Text, bools and ints
    beyond float64 are refused; NaN and inf are left to the caller's own checks."""
    if isinstance(v, np.ndarray) and v.dtype.kind in "iuf":
        return v.astype(float)
    a = np.asarray(v, dtype=object)
    if not all(isinstance(x, float) or _is_real(x) for x in a.flat):
        raise ValueError(f"{what}: expected numbers, got {v!r}")
    return a.astype(float)


def _section(where: str, value, required, optional=()) -> dict:
    """``value`` if it is an object (a dict) with every ``required`` key and no other
    key than those and ``optional``; ValueError naming ``where`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {type(value).__name__}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{where}: missing {missing}")
    keys = [*required, *optional]
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}, expected keys from {keys}")
    return value


_EQUILIBRIUM_TOL = 1e-10  # residual |f(z*; u*)| that ends the Newton iteration
_EQUILIBRIUM_MAX_ITER = 200  # Newton steps before NoConvergence


def solve_equilibrium(plant: PlantSpec, y_star) -> Setpoint:
    """Solve f(z*; u) = 0 for the equilibrium input u* by one damped Newton iteration.

    The same iteration, with a finite-difference Jacobian and a halving line
    search from u = 0, serves every input dimension d; it is safe because the
    symmetrized Jacobian is bounded below by b*I.  It stops once the residual
    |f| is at most tol = 1e-10, within 200 Newton steps.  The bound b also
    confines the root: (f(u) - f(0))'u >= b|u|^2 puts every u with
    |f(u)| <= tol within (|f(0)| + tol)/b of the origin, so a converged u
    beyond that reach (up to a 1e-9 relative rounding allowance) refutes the
    plant's asserted b.  Raises :class:`NoConvergence` naming b in that case,
    or when 200 steps do not reach tol, and :class:`NonFinite` on NaN/Inf
    plant output.
    """
    y = _as_vec(y_star, plant.d, "y_star")
    z = np.zeros(plant.state_dim)
    z[: plant.d] = y

    def f(u: np.ndarray) -> np.ndarray:
        return plant.eval_drift(z, u)

    u = np.zeros(plant.d)
    fu = f(u)
    res = float(np.linalg.norm(fu))
    reach = (res + _EQUILIBRIUM_TOL) / plant.gain_lower_b
    for _ in range(_EQUILIBRIUM_MAX_ITER):
        if res <= _EQUILIBRIUM_TOL:
            break
        try:
            step = np.linalg.solve(_fd_jacobian(f, u, fu), -fu)
        except np.linalg.LinAlgError:
            step = -fu  # gradient-like fallback; J >= b*I makes this a descent direction
        alpha = 1.0
        while alpha > 1e-12:
            cand = u + alpha * step
            fc = f(cand)
            rc = float(np.linalg.norm(fc))
            if rc < res:
                u, fu, res = cand, fc, rc
                break
            alpha *= 0.5
        else:
            raise NoConvergence(f"Newton line search stalled at residual {res:.3e}")
    if res > _EQUILIBRIUM_TOL:
        raise NoConvergence(f"equilibrium residual {res:.3e} above tolerance "
                            f"{_EQUILIBRIUM_TOL:.1e} after {_EQUILIBRIUM_MAX_ITER} Newton steps")
    dist = float(np.linalg.norm(u))
    if dist > reach * (1.0 + 1e-9):
        raise NoConvergence(
            f"root |u| = {dist:.6g} lies beyond (|f(0)| + tol)/b = {reach:.6g}, so the plant "
            f"violates its asserted gain_lower_b b = {plant.gain_lower_b!r}")
    return Setpoint(y_star=y, z_star=z, u_star=u)


def _fd_jacobian(f, u: np.ndarray, fu: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of ``f`` at ``u``, given ``fu = f(u)``."""
    J = np.empty((u.size, u.size))
    for j in range(u.size):
        h = math.sqrt(np.finfo(float).eps) * (1.0 + abs(u[j]))
        up = u.copy()
        up[j] += h
        J[:, j] = (f(up) - fu) / h
    return J

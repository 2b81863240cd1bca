"""Shared test utilities: admissible-gain sampling, root oracle, RK4 reference and
the single-step Euler-Maruyama reference the simulator's kernel is tested against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stochpid import (Diverged, GainVector, PlantSpec, check_inequality, geometric_gains,
                      lambda_gains)
from stochpid.simulate import _DIVERGENCE_LIMIT

# polynomials whose extreme root real part is this close to zero are not
# classified by the oracle comparisons
INDETERMINATE_BAND = 1e-8


def max_real_root(coeffs_ascending) -> float:
    """Largest real part over the roots (numpy.roots as the independent oracle)."""
    roots = np.roots(np.asarray(coeffs_ascending, dtype=float)[::-1])
    return float(np.max(roots.real))


def certified_stability(coeffs_ascending, band: float = INDETERMINATE_BAND):
    """Oracle verdict with a first-order error bound per computed root.

    Returns True (all roots certifiably in the open left half plane), False
    (some root certifiably in the right half plane) or None when the
    polynomial is too ill-conditioned for float64 roots to decide --
    coefficient spans of many orders of magnitude make the sign of a real
    part meaningless, the same reason the near-marginal band exists.
    """
    a = np.asarray(coeffs_ascending, dtype=float)
    roots = np.roots(a[::-1])
    deriv = (a[1:] * np.arange(1, a.size))[::-1]
    # Newton-correction error estimate: |p(r)|/|p'(r)| plus the irreducible
    # coefficient-rounding level; companion eigenvalues of wildly scaled
    # polynomials can return points that are not roots at all, which the
    # residual exposes immediately
    residual = np.abs(np.polyval(a[::-1], roots))
    weight = np.polyval(np.abs(a)[::-1], np.abs(roots))
    dp = np.abs(np.polyval(deriv, roots))
    eps_eff = 16.0 * a.size * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        eta = residual / weight
        err = np.where(dp > 0.0, (residual + weight * eps_eff) / dp, np.inf)
    err = np.where(np.isfinite(err), err, np.inf)
    if not np.all(np.isfinite(eta)) or np.max(eta) > 1e-10:
        return None  # some computed point is not a root of any nearby polynomial
    if np.max(roots.real + err) < -band:
        return True
    if np.max(roots.real - err) > band:
        return False
    return None


def congruent_eigvalsh(S) -> np.ndarray:
    """Ascending eigenvalues of D@S@D, D the powers of two nearest 1/sqrt|S_ii|.

    Scaling by powers of two is exact, and a congruence keeps the number of
    positive, zero and negative eigenvalues (Sylvester's law of inertia), so
    these eigenvalues have the signs of S's.  ``eigvalsh`` is accurate only
    to about eps*||S||; evening out the graded scale of the Lyapunov matrices
    lets it decide signs far closer to zero than on S itself.
    """
    diag = np.abs(np.diag(S))
    diag[diag == 0.0] = 1.0
    d = np.exp2(-np.round(0.5 * np.log2(diag)))
    return np.linalg.eigvalsh(S * d[:, None] * d[None, :])


def sample_admissible(rng: np.random.Generator, n: int):
    """Random (gains, L, M) with L, M in [0, 1] passing check_inequality.

    Mixes the rate-design defaults, random ratio/scale overrides, the
    geometric pattern scaled above its threshold, and (for small n) plain
    rejection sampling, for variety across the admissible set.
    """
    L = float(rng.uniform(0.0, 1.0))
    M = float(rng.uniform(0.0, 1.0))
    style = int(rng.integers(0, 4))

    if style == 3 and n <= 3:
        for _ in range(300):
            gains = 10.0 ** rng.uniform(-0.5, 2.5, n + 1)
            g = GainVector("pid", gains)
            if check_inequality(g, L, M).admissible:
                return g, L, M
        style = 0  # rare: fall back to the constructive sampler

    if style == 0:
        lam = 10.0 ** rng.uniform(-1.0, 0.7)
        g, _ = lambda_gains(lam, L, M, n)
    elif style == 1:
        lam = 10.0 ** rng.uniform(-1.0, 0.7)
        bound = min(1.0, 1.0 / (n * (lam + 8.0 * M ** 2)))
        betas = []
        for i in range(n):
            hi = bound if i == 0 else betas[-1] / n
            betas.append(float(rng.uniform(0.05, 0.95)) * hi)
        g, _ = lambda_gains(lam, L, M, n, betas=np.asarray(betas))
        if not check_inequality(g, L, M).admissible:
            # overrides only guarantee the design condition; rescale upward
            # (admissibility of the ratio pattern is monotone in the scale)
            k = g.gains[0]
            while not check_inequality(g, L, M).admissible:
                k *= 2.0
                g, _ = lambda_gains(lam, L, M, n, betas=np.asarray(betas), k=k)
    else:
        k = 1.0
        # the geometric threshold grows like 9**(n*(n+1)/2); ~3e19 already at n=6
        while not check_inequality(geometric_gains(k, n), L, M).admissible:
            k *= 2.0
            assert k < 1e30, "geometric threshold search diverged"
        k *= float(rng.uniform(1.001, 8.0))
        g = geometric_gains(k, n)

    assert check_inequality(g, L, M).admissible
    return g, L, M


@dataclass(frozen=True)
class ClosedLoopState:
    """State of the closed loop: plant state, error integral, time.

    ``x`` has shape (..., n*d) and ``integral`` (..., d); a leading batch
    axis carries independent paths.  ``integral`` accumulates the regulation
    error e = y* - x1 (left-point rule).
    """

    x: np.ndarray
    integral: np.ndarray
    t: float


def check_finite_box(x: np.ndarray, integral: np.ndarray, t: float):
    """Raise Diverged, with the first offending path of a batch, if an entry of x
    or the integral leaves [-1e12, 1e12]."""
    ok_x = np.abs(x) <= _DIVERGENCE_LIMIT
    ok_i = np.abs(integral) <= _DIVERGENCE_LIMIT
    if np.all(ok_x) and np.all(ok_i):
        return
    if x.ndim == 1:
        raise Diverged(t)
    bad = ~(np.all(ok_x, axis=-1) & np.all(ok_i, axis=-1))
    raise Diverged(t, path=int(np.argmax(bad)))


def em_step(
    state: ClosedLoopState,
    plant: PlantSpec,
    u: np.ndarray,
    dW: np.ndarray,
    dt: float,
    y_star,
) -> ClosedLoopState:
    """One Euler-Maruyama step with left-point drift, diffusion and integral.

    ``dW`` must be N(0, dt*I_m) increments.  The integrator chain advances
    as x_i += x_{i+1}*dt (i < n) and x_n += f(x;u)*dt + g(x)*dW; the error
    integral accumulates (y* - x1)*dt evaluated before the update.  Raises
    :class:`Diverged` when any entry leaves [-1e12, 1e12].
    """
    d = plant.d
    x = state.x
    u = np.asarray(u, dtype=float)
    dW = np.asarray(dW, dtype=float)
    f_val = plant.eval_drift(x, u)
    g_val = plant.eval_diffusion(x)
    noise = np.einsum("...jk,...k->...j", g_val, dW)
    new_x = np.empty_like(x)
    head = x.shape[-1] - d
    new_x[..., :head] = x[..., :head] + dt * x[..., d:]
    new_x[..., head:] = x[..., head:] + dt * f_val + noise
    new_integral = state.integral + dt * (np.asarray(y_star, dtype=float) - x[..., :d])
    t_next = state.t + dt
    check_finite_box(new_x, new_integral, t_next)
    return ClosedLoopState(x=new_x, integral=new_integral, t=t_next)


def law_input(state) -> np.ndarray:
    """[1; integral; x] of a closed-loop state (batched over leading axes), the
    vector the control-law weights K act on: u = law_input(state) @ K.T."""
    x = state.x
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), state.integral, x], axis=-1)


def rk4_closed_loop_chain(kvec, y_star: float, x0, dt: float, steps: int, bias: float = 0.0):
    """Dense RK4 reference for the deterministic chain plant f = u + bias
    under extended PID.  Returns the (steps+1, n) state trajectory."""
    k = np.asarray(kvec, dtype=float)
    n = k.size - 1

    def deriv(s):
        x, integ = s[:-1], s[-1]
        u = k[0] * integ + k[1] * y_star - float(np.dot(k[1:], x))
        ds = np.empty(n + 1)
        ds[: n - 1] = x[1:]
        ds[n - 1] = u + bias
        ds[n] = y_star - x[0]
        return ds

    s = np.append(np.asarray(x0, dtype=float), 0.0)
    out = np.empty((steps + 1, n))
    out[0] = s[:-1]
    for i in range(steps):
        k1 = deriv(s)
        k2 = deriv(s + 0.5 * dt * k1)
        k3 = deriv(s + 0.5 * dt * k2)
        k4 = deriv(s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = s[:-1]
    return out

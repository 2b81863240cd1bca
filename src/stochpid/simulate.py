"""Monte Carlo simulation of the closed loop by Euler-Maruyama stepping.

Drift, diffusion and the error-integral accumulator all use the left
endpoint of each step, so the discrete controller matches the shifted
coordinate identity exactly at grid points.  :func:`em_step` is the
single-step reference; :func:`simulate_paths` runs a fused kernel that
keeps each chunk of paths as one (state, paths) buffer and advances it in
place.  Paths are processed in fixed chunks of 4096; each chunk draws its
noise from one counter-based Philox stream keyed by (seed, chunk index),
sequentially step by step, and chunk partial sums are reduced in chunk
order, which makes the resulting moments bitwise identical no matter how
many worker threads run the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import BoundConstants, GainVector
from .model import PlantSpec, Setpoint, require_finite

__all__ = [
    "SimConfig",
    "ClosedLoopState",
    "EnsembleStats",
    "EnvelopeReport",
    "DissipativityReport",
    "Diverged",
    "DimensionMismatch",
    "controller_pid",
    "controller_pd",
    "em_step",
    "simulate_paths",
    "bound_envelope",
    "dissipativity_probe",
    "generator_eval",
]

_CHUNK_PATHS = 4096  # fixed regardless of worker count (determinism contract)
_NOISE_BLOCK = 256  # steps of noise drawn per chunk at a time
_DIVERGENCE_LIMIT = 1e12
_WORKERS_ENV = "STOCHPID_WORKERS"

_CONTROLLERS = ("pid", "pd", "open_loop")


class Diverged(RuntimeError):
    """A state entry left [-1e12, 1e12]; carries the first offending path."""

    def __init__(self, t: float, path: Optional[int] = None):
        self.t = float(t)
        self.path = path
        where = f"path {path} " if path is not None else ""
        super().__init__(f"trajectory diverged ({where}at t={t:.6g})")


class DimensionMismatch(ValueError):
    """Operands of the generator evaluation have inconsistent shapes."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description.

    ``controller`` is one of ``"pid"``, ``"pd"`` or ``"open_loop"``;
    ``record_stride`` is the number of steps between recorded moments and
    ``x0`` the shared initial state (defaults to the setpoint z*).
    """

    dt: float
    horizon: float
    paths: int
    seed: int
    record_stride: int = 1
    controller: str = "pid"
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (self.dt > 0.0 and math.inf > self.horizon >= self.dt):
            raise ValueError("need 0 < dt <= horizon < inf")
        ratio = self.horizon / self.dt
        # a relative 1e-9 absorbs the rounding of decimal horizons and steps
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"horizon={self.horizon} is not an integer multiple of dt={self.dt}")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.controller not in _CONTROLLERS:
            raise ValueError(f"controller must be one of {_CONTROLLERS}")
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


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


@dataclass(frozen=True)
class EnsembleStats:
    """Across-path moment time series with standard-error bands.

    ``var_u`` is E|u|^2 - |E u|^2; its stderr column reuses the spread of
    |u|^2 as a conservative proxy.
    """

    times: np.ndarray
    mean_sq_error: np.ndarray
    stderr_sq_error: np.ndarray
    mean_sq_state_dev: np.ndarray
    stderr_sq_state_dev: np.ndarray
    mean_sq_u: np.ndarray
    stderr_sq_u: np.ndarray
    var_u: np.ndarray
    stderr_var_u: np.ndarray
    paths: int
    dt: float

    CSV_COLUMNS = (
        "t",
        "mean_sq_error",
        "stderr_sq_error",
        "mean_sq_state_dev",
        "stderr_sq_state_dev",
        "mean_sq_u",
        "stderr_sq_u",
        "var_u",
        "stderr_var_u",
    )

    def rows(self):
        """Yield CSV rows in the stable column order."""
        cols = (
            self.times,
            self.mean_sq_error,
            self.stderr_sq_error,
            self.mean_sq_state_dev,
            self.stderr_sq_state_dev,
            self.mean_sq_u,
            self.stderr_sq_u,
            self.var_u,
            self.stderr_var_u,
        )
        for i in range(self.times.size):
            yield tuple(float(c[i]) for c in cols)


def _control_law(g: GainVector, y_star) -> np.ndarray:
    """Weights K of the extended PID/PD law u = K @ [1; integral; x_1; ...; x_n].

    The blocks of K are k1*y*, k0*I, -k1*I, ..., -kn*I (PD gains have no k0
    and a zero integral block): u = k1*e + k0*integral(e) - k2*x2 - ... with
    e = y* - x1 and the derivatives e^(i) = -x_{i+1} of the chain.
    """
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    k = g.gains if g.kind == "pid" else np.concatenate([[0.0], g.gains])
    blocks = np.kron(np.concatenate([k[:1], -k[1:]]), np.eye(y_star.size))
    return np.hstack([(k[1] * y_star)[:, None], blocks])


def _apply_law(K: np.ndarray, state: ClosedLoopState) -> np.ndarray:
    x = np.asarray(state.x, dtype=float)
    batch = x.shape[:-1]
    integral = np.broadcast_to(state.integral, batch + (K.shape[0],))
    return np.concatenate([np.ones(batch + (1,)), integral, x], axis=-1) @ K.T


def controller_pid(state: ClosedLoopState, g: GainVector, y_star) -> np.ndarray:
    """Extended PID output u = k1*e + k0*integral(e) + k2*e' + ... + kn*e^(n-1).

    Derivatives come from the chain structure (e^(i) = -x_{i+1}), so no
    numerical differentiation is involved.  Works on batched states.
    """
    if g.kind != "pid":
        raise ValueError("controller_pid expects PID gains")
    return _apply_law(_control_law(g, y_star), state)


def controller_pd(state: ClosedLoopState, g: GainVector, y_star) -> np.ndarray:
    """Extended PD output u = k1*e + k2*e' + ... + kn*e^(n-1) (no integral)."""
    if g.kind != "pd":
        raise ValueError("controller_pd expects PD gains")
    return _apply_law(_control_law(g, y_star), state)


def _check_finite_box(x: np.ndarray, integral: np.ndarray, t: float):
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
    d, m = plant.d, plant.m
    x = state.x
    u = np.asarray(u, dtype=float)
    dW = np.asarray(dW, dtype=float)
    f_val = plant.eval_drift(x, u)
    g_val = plant.eval_diffusion(x)
    if m == 1:
        noise = g_val[..., 0] * dW
    else:
        noise = (g_val * dW[..., None, :]).sum(axis=-1)
    new_x = np.empty_like(x)
    head = x.shape[-1] - d
    new_x[..., :head] = x[..., :head] + dt * x[..., d:]
    new_x[..., head:] = x[..., head:] + dt * f_val + noise
    new_integral = state.integral + dt * (np.asarray(y_star, dtype=float) - x[..., :d])
    t_next = state.t + dt
    _check_finite_box(new_x, new_integral, t_next)
    return ClosedLoopState(x=new_x, integral=new_integral, t=t_next)


def _chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed % (2 ** 64), chunk % (2 ** 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        workers = int(os.environ.get(_WORKERS_ENV, "1"))
    return max(1, workers)


def _law_weights(controller: str, g: Optional[GainVector], plant: PlantSpec,
                 y_star) -> Optional[np.ndarray]:
    """Control-law weights for the configured controller; None for the open loop."""
    if controller == "open_loop":
        return None
    if g is None:
        raise ValueError(f"{controller} controller requires gains")
    expected_kind = "pid" if controller == "pid" else "pd"
    if g.kind != expected_kind:
        raise ValueError(f"{controller} controller requires {expected_kind} gains, got {g.kind}")
    if g.n != plant.n:
        raise ValueError(f"gains are for relative degree {g.n}, plant has {plant.n}")
    return _control_law(g, y_star)


def _step_matrix(n: int, d: int, dt: float, y_star: np.ndarray,
                 K: Optional[np.ndarray]) -> np.ndarray:
    """M with M @ [1; integral; x; u; f; w] = the next [1; integral; x] and, given
    the control-law weights K, the next u = K @ [1; integral; x].

    Blocks of d rows: integral += dt*(y* - x1), x_i += dt*x_{i+1} (i < n),
    x_n += dt*f + w, where f is the drift and w the noise term g(x) dW.
    """
    rows = 1 + (n + 1) * d
    A = np.eye(rows, rows + 3 * d)
    I = np.eye(d)

    def blk(j):  # block 0 is the integral, 1..n the chain, then u, f and w
        return slice(1 + j * d, 1 + (j + 1) * d)

    A[blk(0), 0] = dt * y_star
    A[blk(0), blk(1)] = -dt * I
    for j in range(1, n):
        A[blk(j), blk(j + 1)] = dt * I
    A[blk(n), blk(n + 2)] = dt * I
    A[blk(n), blk(n + 3)] = I
    return A if K is None else np.vstack([A, K @ A])


def _run_chunk(plant, sp, K, cfg: SimConfig, x0, chunk: int, size: int, rec_count: int):
    """Simulate one fixed chunk of paths; returns partial sums or a divergence marker.

    The chunk lives in two (rows, size) buffers [1; integral; x; u; f; w]
    that take turns as the current and the next state.  One matmul per step
    advances the integral and the chain and applies the control law to the
    result; plants see the transposed (size, n*d) view of x.  A non-finite
    drift or diffusion value reaches x_n at the same step, so the per-step
    box guard on the new state also finds it; the plant output is then
    checked to raise :class:`NonFinite` exactly where :func:`em_step` would.
    """
    steps, stride, dt = cfg.steps, cfg.record_stride, cfg.dt
    n, d, m = plant.n, plant.d, plant.m
    S = 1 + (n + 1) * d  # rows of [1; integral; x]
    M = _step_matrix(n, d, dt, sp.y_star, K)
    bufs = [np.zeros((S + 3 * d, size)) for _ in range(2)]
    # per buffer: the rows M writes, the guarded [integral; x], x, u, f and w
    views = [(B[: M.shape[0]], B[1:S], B[1 + d:S], B[S:S + d], B[S + d:S + 2 * d], B[S + 2 * d:])
             for B in bufs]
    bufs[0][0] = 1.0
    bufs[0][1 + d:S] = x0[:, None]
    if K is not None:
        np.matmul(K, bufs[0][:S], out=views[0][3])
    rng = _chunk_stream(cfg.seed, chunk)
    noise = np.empty((min(_NOISE_BLOCK, steps), m, size))

    sums = np.zeros((rec_count, 6))
    u_sums = np.zeros((rec_count, d))
    dev = np.empty((n * d, size))
    mom = np.empty((3, size))
    z_col = sp.z_star[:, None]

    def record(x, u, r: int):
        np.subtract(x, z_col, out=dev)
        np.multiply(dev, dev, out=dev)
        dev[:d].sum(axis=0, out=mom[0])  # |e|^2 with e = y* - x1
        dev.sum(axis=0, out=mom[1])  # |x - z*|^2
        (u * u).sum(axis=0, out=mom[2])
        sums[r, 0::2] += mom.sum(axis=1)
        np.multiply(mom, mom, out=mom)
        sums[r, 1::2] += mom.sum(axis=1)
        u_sums[r] += u.sum(axis=1)

    cur = 0
    for block_start in range(0, steps, _NOISE_BLOCK):
        dW = noise[: min(_NOISE_BLOCK, steps - block_start)]
        rng.standard_normal(out=dW)
        dW *= math.sqrt(dt)
        for j in range(dW.shape[0]):
            s = block_start + j
            _, _, x, u, f_row, w_row = views[cur]
            if s % stride == 0:
                record(x, u, s // stride)
            f = np.asarray(plant.drift(x.T, u.T), dtype=float)
            if f.shape != (size, d):
                f = np.broadcast_to(f, (size, d))
            f_row[...] = f.T
            g = np.asarray(plant.diffusion(x.T), dtype=float)
            if g.ndim > 2:  # one (d, m) matrix per path
                if g.shape != (size, d, m):
                    g = np.broadcast_to(g, (size, d, m))
                np.einsum("pjk,kp->jp", g, dW[j], out=w_row)
            else:  # one (d, m) matrix for every path
                if g.shape != (d, m):
                    g = np.broadcast_to(g, (d, m))
                (np.multiply if m == 1 else np.matmul)(g, dW[j], out=w_row)
            out, box = views[1 - cur][:2]
            np.matmul(M, bufs[cur], out=out)
            if not (box.max() <= _DIVERGENCE_LIMIT and box.min() >= -_DIVERGENCE_LIMIT):
                require_finite(f, "drift")
                require_finite(g, "diffusion")
                bad = ~np.all(np.abs(box) <= _DIVERGENCE_LIMIT, axis=0)
                return ("diverged", (s + 1) * dt, chunk * _CHUNK_PATHS + int(np.argmax(bad)))
            cur = 1 - cur
    if steps % stride == 0:
        record(views[cur][2], views[cur][3], rec_count - 1)
    return ("ok", sums, u_sums)


def simulate_paths(
    plant: PlantSpec,
    sp: Setpoint,
    g: Optional[GainVector],
    cfg: SimConfig,
    workers: Optional[int] = None,
) -> EnsembleStats:
    """Monte Carlo moments of the closed loop under the configured controller.

    Admissibility of the gains is not enforced; diverging runs raise
    :class:`Diverged` carrying the first offending path and time (diverged
    paths are never silently dropped, which would bias the moments).  For a
    fixed config the output is bitwise reproducible for any worker count;
    ``workers`` threads default to the STOCHPID_WORKERS environment
    variable.  Plant callables must be pure functions as they run on
    multiple workers concurrently.
    """
    K = _law_weights(cfg.controller, g, plant, sp.y_star)
    x0 = sp.z_star if cfg.x0 is None else cfg.x0
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (plant.state_dim,):
        raise ValueError(f"x0 must have shape ({plant.state_dim},), got {x0.shape}")

    steps = cfg.steps
    positions = np.arange(0, steps + 1, cfg.record_stride)
    rec_count = positions.size
    chunks = [(c, min(_CHUNK_PATHS, cfg.paths - c * _CHUNK_PATHS))
              for c in range(-(-cfg.paths // _CHUNK_PATHS))]

    nworkers = _resolve_workers(workers)
    if nworkers == 1 or len(chunks) == 1:
        results = [_run_chunk(plant, sp, K, cfg, x0, *chunk, rec_count) for chunk in chunks]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            futures = [pool.submit(_run_chunk, plant, sp, K, cfg, x0, *chunk, rec_count)
                       for chunk in chunks]
            results = [f.result() for f in futures]

    diverged = [(r[1], r[2]) for r in results if r[0] == "diverged"]
    if diverged:
        t, path = min(diverged)
        raise Diverged(t, path=path)

    sums = np.zeros((rec_count, 6))
    u_sums = np.zeros((rec_count, plant.d))
    for _, s_part, u_part in results:
        sums += s_part
        u_sums += u_part

    N = cfg.paths
    times = positions * cfg.dt

    def mean_and_stderr(idx_mean: int, idx_sq: int):
        mean = sums[:, idx_mean] / N
        if N > 1:
            var = np.maximum(sums[:, idx_sq] - sums[:, idx_mean] ** 2 / N, 0.0) / (N - 1)
            err = np.sqrt(var / N)
        else:
            err = np.zeros_like(mean)
        return mean, err

    mse, mse_err = mean_and_stderr(0, 1)
    dev, dev_err = mean_and_stderr(2, 3)
    usq, usq_err = mean_and_stderr(4, 5)
    u_mean = u_sums / N
    var_u = np.maximum(usq - np.einsum("ij,ij->i", u_mean, u_mean), 0.0)

    return EnsembleStats(
        times=times,
        mean_sq_error=mse,
        stderr_sq_error=mse_err,
        mean_sq_state_dev=dev,
        stderr_sq_state_dev=dev_err,
        mean_sq_u=usq,
        stderr_sq_u=usq_err,
        var_u=var_u,
        stderr_var_u=usq_err.copy(),
        paths=N,
        dt=cfg.dt,
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Pointwise upper-envelope check plus the asymptotic lower-floor check.

    ``tail_estimate`` averages E|x-z*|^2 over the trailing quarter of the
    recorded times as the long-run (liminf) estimate.
    """

    upper: np.ndarray
    upper_ok: bool
    violations: np.ndarray
    tail_estimate: float
    tail_start: float
    lower_bound: float
    lower_ok: bool


def bound_envelope(
    stats: EnsembleStats,
    bc: BoundConstants,
    initial_dev: float,
    u_star_norm: float,
    g_norm_at_zstar: float,
) -> EnvelopeReport:
    """Compare simulated moments against the tracking-error envelopes.

    Upper check (pointwise, 3-sigma statistical cushion):
        E|x-z*|^2(t) <= decay_coeff*(initial_dev^2 + |u*|^2)*exp(-rate*t)
                        + floor_coeff*|g(z*)|^2 + 3*stderr
    Lower check (asymptotic):
        tail estimate >= floor_lower_coeff*|g(z*)|^2 - 3*stderr.
    Never raises; violations are reported as time indices.
    """
    t = stats.times
    amp = initial_dev ** 2 + u_star_norm ** 2
    floor = bc.floor_coeff * g_norm_at_zstar ** 2
    upper = bc.decay_coeff * amp * np.exp(-bc.rate * t) + floor
    slack = upper + 3.0 * stats.stderr_sq_state_dev - stats.mean_sq_state_dev
    violations = np.nonzero(slack < 0.0)[0]

    tail = max(1, t.size // 4)
    tail_estimate = float(np.mean(stats.mean_sq_state_dev[-tail:]))
    tail_err = float(np.mean(stats.stderr_sq_state_dev[-tail:]))
    lower = bc.floor_lower_coeff * g_norm_at_zstar ** 2
    return EnvelopeReport(
        upper=upper,
        upper_ok=bool(violations.size == 0),
        violations=violations,
        tail_estimate=tail_estimate,
        tail_start=float(t[-tail]),
        lower_bound=float(lower),
        lower_ok=bool(tail_estimate >= lower - 3.0 * tail_err),
    )


@dataclass(frozen=True)
class DissipativityReport:
    """Sampled check of the transformed-coordinate drift inequality.

    ``margins`` holds z'b(z) + threshold*|z|^2 per sample; nonpositive
    margins everywhere support weak dissipativity at the sampled radii.
    """

    threshold: float
    radii: tuple
    worst_margin: float
    violations: int
    samples: int


def _z_drift(plant: PlantSpec, sp: Setpoint, k0: float, betas: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Closed-loop drift of the cascade coordinates, batched over rows of z."""
    n, d = plant.n, plant.d
    prods = np.cumprod(betas)
    zb = z.reshape(-1, n + 1, d)
    diffs = (zb[:, 1:] - zb[:, :-1]) / betas[None, :, None]  # term j: (z_{j+1}-z_j)/beta_{j+1}
    cum = np.cumsum(diffs, axis=1)
    x_arg = ((zb[:, 1:] - zb[:, :-1]) / prods[None, :, None]).reshape(-1, n * d)
    u_arg = -k0 * zb[:, n] + sp.u_star
    f_last = prods[-1] * plant.eval_drift(x_arg, u_arg)
    b = np.empty_like(zb)
    b[:, : n] = cum
    b[:, n] = cum[:, n - 1] + f_last
    return b.reshape(z.shape)


def dissipativity_probe(
    plant: PlantSpec,
    sp: Setpoint,
    g: GainVector,
    betas,
    lam: float,
    M: float,
    samples: int = 10000,
    radius: float = 1.0,
    seed: int = 0,
) -> DissipativityReport:
    """Sample the cascade-coordinate drift inequality z'b(z) <= -((lam+8M^2)/2)|z|^2.

    Points are drawn uniformly on spheres of the given radius and 10x that
    radius.  Gains must follow the ratio pattern k_i = (beta_1..beta_i)*k0;
    positive margins are reported, not raised (a failed probe is a
    diagnostic about the sampled region, not a disproof).
    """
    betas = np.asarray(betas, dtype=float)
    if betas.shape != (plant.n,) or np.any(betas <= 0.0):
        raise ValueError("betas must be positive with one entry per relative degree")
    k = g.gains
    expect = k[0] * np.concatenate([[1.0], np.cumprod(betas)])
    if not np.allclose(k, expect, rtol=1e-8, atol=0.0):
        raise ValueError("gains do not follow the supplied ratio pattern")

    threshold = 0.5 * (lam + 8.0 * M ** 2)
    dim = (plant.n + 1) * plant.d
    rng = np.random.default_rng(seed)
    per_radius = max(1, samples // 2)
    worst = -math.inf
    violations = 0
    total = 0
    radii = (radius, 10.0 * radius)
    for r in radii:
        pts = rng.standard_normal((per_radius, dim))
        pts *= r / np.linalg.norm(pts, axis=1, keepdims=True)
        b = _z_drift(plant, sp, k[0], betas, pts)
        zdot = np.einsum("ij,ij->i", pts, b)
        margins = zdot + threshold * r ** 2
        tol = 1e-9 * r ** 2 * max(1.0, threshold)
        violations += int(np.sum(margins > tol))
        worst = max(worst, float(margins.max()))
        total += per_radius
    return DissipativityReport(
        threshold=threshold,
        radii=radii,
        worst_margin=worst,
        violations=violations,
        samples=total,
    )


def generator_eval(V: np.ndarray, b: np.ndarray, sigma: np.ndarray, point: np.ndarray) -> float:
    """Ito generator of the quadratic form x'Vx at a point.

    Returns (dV/dx) b + 0.5*tr(sigma' (d^2V/dx^2) sigma)
    = 2*point'V b + tr(sigma' V sigma).
    """
    V = np.asarray(V, dtype=float)
    b = np.asarray(b, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    point = np.asarray(point, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise DimensionMismatch("V must be a square matrix")
    N = V.shape[0]
    if b.shape != (N,) or point.shape != (N,):
        raise DimensionMismatch("b and point must be length-N vectors")
    if sigma.ndim != 2 or sigma.shape[0] != N:
        raise DimensionMismatch("sigma must be an N x m matrix")
    if not np.allclose(V, V.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(V).max())):
        raise ValueError("V must be symmetric")
    return float(2.0 * point @ V @ b + np.sum(sigma * (V @ sigma)))

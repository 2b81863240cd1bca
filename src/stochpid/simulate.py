"""Monte Carlo simulation of the closed loop by Euler-Maruyama stepping.

Drift, diffusion and the error-integral accumulator all use the left
endpoint of each step, so the discrete controller matches the shifted
coordinate identity exactly at grid points.  Every path owns a counter-based
Philox substream keyed by (seed, path index); paths are processed in fixed
chunks and chunk partial sums are reduced in chunk order, which makes the
resulting moments bitwise identical no matter how many worker threads run
the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import BoundConstants, GainVector
from .model import PlantSpec, Setpoint

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
_NOISE_BLOCK = 1024  # steps of noise drawn per path at a time
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


def _gain_weights(g: GainVector, d: int) -> np.ndarray:
    """(n*d, d) matrix W with x @ W = sum_i k_i * x_i (blockwise)."""
    k = g.gains if g.kind == "pd" else g.gains[1:]
    return np.kron(k, np.eye(d)).reshape(k.size * d, d)


def _control_law(g: GainVector, y_star):
    """The extended PID/PD law as a function of a (batched) closed-loop state."""
    y_star = np.asarray(y_star, dtype=float)
    W = _gain_weights(g, np.atleast_1d(y_star).size)
    if g.kind == "pd":
        bias = g.gains[0] * y_star
        return lambda state: bias - state.x @ W
    k0, bias = g.gains[0], g.gains[1] * y_star
    return lambda state: k0 * state.integral + bias - state.x @ W


def controller_pid(state: ClosedLoopState, g: GainVector, y_star) -> np.ndarray:
    """Extended PID output u = k1*e + k0*integral(e) + k2*e' + ... + kn*e^(n-1).

    Derivatives come from the chain structure (e^(i) = -x_{i+1}), so no
    numerical differentiation is involved.  Works on batched states.
    """
    if g.kind != "pid":
        raise ValueError("controller_pid expects PID gains")
    return _control_law(g, y_star)(state)


def controller_pd(state: ClosedLoopState, g: GainVector, y_star) -> np.ndarray:
    """Extended PD output u = k1*e + k2*e' + ... + kn*e^(n-1) (no integral)."""
    if g.kind != "pd":
        raise ValueError("controller_pd expects PD gains")
    return _control_law(g, y_star)(state)


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


def _path_stream(seed: int, path: int) -> np.random.Generator:
    key = np.array([seed % (2 ** 64), path % (2 ** 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        workers = int(os.environ.get(_WORKERS_ENV, "1"))
    return max(1, workers)


def _make_u_fn(controller: str, g: Optional[GainVector], plant: PlantSpec, y_star: np.ndarray):
    if controller == "open_loop":
        d = plant.d

        def u_open(state):
            return np.zeros(state.x.shape[:-1] + (d,))

        return u_open
    if g is None:
        raise ValueError(f"{controller} controller requires gains")
    expected_kind = "pid" if controller == "pid" else "pd"
    if g.kind != expected_kind:
        raise ValueError(f"{controller} controller requires {expected_kind} gains, got {g.kind}")
    if g.n != plant.n:
        raise ValueError(f"gains are for relative degree {g.n}, plant has {plant.n}")
    return _control_law(g, y_star)


def _run_chunk(plant, sp, u_fn, cfg: SimConfig, x0, start: int, size: int, rec_count: int):
    """Simulate one fixed chunk of paths; returns partial sums or a divergence marker."""
    steps, stride, dt = cfg.steps, cfg.record_stride, cfg.dt
    d, m = plant.d, plant.m
    sqrt_dt = math.sqrt(dt)
    y_star, z_star = sp.y_star, sp.z_star

    state = ClosedLoopState(
        x=np.tile(x0, (size, 1)), integral=np.zeros((size, d)), t=0.0
    )
    streams = [_path_stream(cfg.seed, start + i) for i in range(size)]
    sums = np.zeros((rec_count, 6))
    u_sums = np.zeros((rec_count, d))
    rec = 0

    def record(st: ClosedLoopState, u: np.ndarray, r: int):
        e = y_star - st.x[:, :d]
        dev = st.x - z_star
        e2 = np.einsum("ij,ij->i", e, e)
        dev2 = np.einsum("ij,ij->i", dev, dev)
        u2 = np.einsum("ij,ij->i", u, u)
        sums[r, 0] += e2.sum()
        sums[r, 1] += (e2 * e2).sum()
        sums[r, 2] += dev2.sum()
        sums[r, 3] += (dev2 * dev2).sum()
        sums[r, 4] += u2.sum()
        sums[r, 5] += (u2 * u2).sum()
        u_sums[r] += u.sum(axis=0)

    noise = np.empty((size, _NOISE_BLOCK, m))
    try:
        for block_start in range(0, steps, _NOISE_BLOCK):
            nb = min(_NOISE_BLOCK, steps - block_start)
            for i, stream in enumerate(streams):
                noise[i, :nb] = stream.standard_normal((nb, m))
            for j in range(nb):
                s = block_start + j
                u = u_fn(state)
                if s % stride == 0:
                    record(state, u, rec)
                    rec += 1
                state = em_step(state, plant, u, sqrt_dt * noise[:, j], dt, y_star)
        if steps % stride == 0:
            record(state, u_fn(state), rec)
    except Diverged as exc:
        return ("diverged", exc.t, start + (exc.path or 0))
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
    y_star = sp.y_star
    u_fn = _make_u_fn(cfg.controller, g, plant, y_star)
    x0 = sp.z_star if cfg.x0 is None else cfg.x0
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (plant.state_dim,):
        raise ValueError(f"x0 must have shape ({plant.state_dim},), got {x0.shape}")

    steps = cfg.steps
    positions = np.arange(0, steps + 1, cfg.record_stride)
    rec_count = positions.size
    chunks = [(s, min(s + _CHUNK_PATHS, cfg.paths) - s) for s in range(0, cfg.paths, _CHUNK_PATHS)]

    nworkers = _resolve_workers(workers)
    if nworkers == 1 or len(chunks) == 1:
        results = [
            _run_chunk(plant, sp, u_fn, cfg, x0, start, size, rec_count)
            for start, size in chunks
        ]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            futures = [
                pool.submit(_run_chunk, plant, sp, u_fn, cfg, x0, start, size, rec_count)
                for start, size in chunks
            ]
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

"""Monte Carlo simulation of the closed loop by Euler-Maruyama stepping.

Drift, diffusion and the error-integral accumulator all use the left
endpoint of each step, so the discrete controller matches the shifted
coordinate identity exactly at grid points.  The controller is one linear
map, u = K @ [1; integral; x] with K from :func:`_control_law`; the open
loop is K = 0.  :func:`simulate_paths` runs one fused kernel for every
controller and every chunk width.  A chunk of paths lives in two
(state rows, block, paths) arrays that take turns, and one matmul per step
writes the next state slot in place.  The plant's affine drift part and a
constant diffusion are folded into the kernel's step matrix, so per step
it calls only the residual drift and a state-dependent diffusion.  The
block is as many steps as fit one 64 KB budget per array (``_BLOCK_BYTES``):
a few dozen for a narrow chunk, one for a full one.  Per block the kernel
makes one noise draw, one divergence check over every state the block
wrote, and one moment reduction of its recorded states.  Paths are
processed in fixed chunks of 4096; each chunk draws its noise from one
SFC64 stream seeded by ``SeedSequence(seed, spawn_key=(chunk index,))``,
sequentially in (step, noise dimension, path) order whatever the block,
and chunk moments are merged in chunk order, which makes the resulting
moments bitwise identical no matter how many worker threads run the
chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import BoundConstants, GainVector
from .model import (PlantSpec, Setpoint, _as_vec, _cascade_weights, _is_integer, _is_real,
                    _require_constant, _require_count, require_finite, shifted_to_raw, z_inverse)

__all__ = [
    "SimConfig",
    "EnsembleStats",
    "EnvelopeReport",
    "DissipativityReport",
    "Diverged",
    "DimensionMismatch",
    "simulate_paths",
    "bound_envelope",
    "dissipativity_probe",
    "generator_eval",
]

_CHUNK_PATHS = 4096  # fixed regardless of worker count (determinism contract)
_BLOCK_BYTES = 1 << 16  # budget of each of a chunk's two (rows, block, paths) arrays
_DIVERGENCE_LIMIT = 1e12

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
    ``record_stride`` is the number of steps between recorded moments (a
    divisor of ``steps``, so the last record is at the horizon) and
    ``x0`` the shared initial state (defaults to the setpoint z*).  Real
    fields are stored as floats and counts as ints, nothing rounded or read
    from text (see :func:`~stochpid.model._is_real` and ``_is_integer``).
    """

    dt: float
    horizon: float
    paths: int
    seed: int
    record_stride: int = 1
    controller: str = "pid"
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        # each message starts with its field name, so a caller can prefix its section
        for name in ("dt", "horizon"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name}: expected a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not _is_integer(self.seed):
            raise ValueError(f"seed: expected an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        for name in ("paths", "record_stride"):
            object.__setattr__(self, name, _require_count(name, getattr(self, name)))
        if not 0.0 < self.dt <= self.horizon:
            raise ValueError(f"dt: need 0 < dt <= horizon, got dt={self.dt}, "
                             f"horizon={self.horizon}")
        ratio = self.horizon / self.dt
        # above 2**53 every float is an integer, so the multiple check below could not fail
        if not ratio <= 2.0 ** 53:
            raise ValueError(f"horizon: {self.horizon} is more than 2**53 steps of dt={self.dt}")
        # a relative 1e-9 absorbs the rounding of decimal horizons and steps
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"horizon: {self.horizon} is not an integer multiple of dt={self.dt}")
        if self.steps % self.record_stride:  # the last record falls on the horizon
            raise ValueError(f"record_stride: {self.record_stride} does not divide "
                             f"{self.steps} steps")
        if not 0 <= self.seed < 2 ** 64:  # the run entropy of each chunk's SeedSequence
            raise ValueError(f"seed: {self.seed} is outside [0, 2**64)")
        if self.controller not in _CONTROLLERS:
            raise ValueError(f"controller: must be one of {_CONTROLLERS}, got {self.controller!r}")
        if self.x0 is not None:
            object.__setattr__(self, "x0", _as_vec(self.x0, None, "x0"))

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class EnsembleStats:
    """Across-path moment time series with standard-error bands.

    ``var_u`` is E|u|^2 - |E u|^2.  Its standard error is the delta-method
    one: the standard error of the mean of |u|^2 - 2 (E u).u over paths.
    :meth:`table` stacks the series as columns in ``CSV_COLUMNS`` order.
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

    def table(self) -> np.ndarray:
        """(records, columns) array, one row per recorded time, in ``CSV_COLUMNS`` order."""
        return np.column_stack([self.times] + [getattr(self, c) for c in self.CSV_COLUMNS[1:]])


def _control_law(g: GainVector, y_star) -> np.ndarray:
    """Weights K of the extended PID/PD law u = K @ [1; integral; x_1; ...; x_n].

    The one control law of the package.  The blocks of K are k1*y*, k0*I,
    -k1*I, ..., -kn*I (PD gains have no k0 and a zero integral block):
    u = k1*e + k0*integral(e) - k2*x2 - ... with e = y* - x1 and the
    derivatives e^(i) = -x_{i+1} of the chain, so no numerical
    differentiation is involved.
    """
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    k = g.gains if g.kind == "pid" else np.concatenate([[0.0], g.gains])
    blocks = np.kron(np.concatenate([k[:1], -k[1:]]), np.eye(y_star.size))
    return np.hstack([(k[1] * y_star)[:, None], blocks])


# names the generator and keying of _chunk_stream in run metadata
_NOISE_STREAM = f"SFC64 per chunk of {_CHUNK_PATHS} paths; SeedSequence(seed, spawn_key=(chunk,))"


def _chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    """SFC64 noise of one chunk, seeded like ``SeedSequence(seed).spawn(chunk + 1)[chunk]``.

    The chunk goes into the spawn key, not the entropy: ``SeedSequence([seed,
    chunk])`` would read seed 5 / chunk 7 and seed 5 + 7*2**32 / chunk 0 as
    the same words and draw the same normals.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk,))))


def _law_weights(controller: str, g: Optional[GainVector], plant: PlantSpec,
                 y_star) -> np.ndarray:
    """Control-law weights K for the configured controller; the open loop is K = 0."""
    if controller == "open_loop":
        return np.zeros((plant.d, 1 + (plant.n + 1) * plant.d))
    if g is None:
        raise ValueError(f"{controller} controller requires gains")
    expected_kind = "pid" if controller == "pid" else "pd"
    if g.kind != expected_kind:
        raise ValueError(f"{controller} controller requires {expected_kind} gains, got {g.kind}")
    if g.n != plant.n:
        raise ValueError(f"gains are for relative degree {g.n}, plant has {plant.n}")
    return _control_law(g, y_star)


def _step_matrix(plant: PlantSpec, dt: float, y_star: np.ndarray, K: np.ndarray,
                 noise_gain: np.ndarray) -> np.ndarray:
    """M with M @ [1; integral; x; u; f; w] = the next [1; integral; x] and the
    next u = K @ [1; integral; x] of the control-law weights K.

    Blocks of d rows: integral += dt*(y* - x1), x_i += dt*x_{i+1} (i < n) and
    x_n += dt*(W @ [1; x; u] + f) + sqrt(dt)*noise_gain @ w, where W is the
    plant's affine drift part and f its residual drift (no rows when it has
    none).  w holds either the step's m standard normals z, with the constant
    diffusion G as noise_gain, or the d-row term g(x) z, with noise_gain = I.
    """
    n, d = plant.n, plant.d
    S = 1 + (n + 1) * d
    f_rows = 0 if plant.drift is None else d
    A = np.eye(S, S + d + f_rows + noise_gain.shape[1])
    I = np.eye(d)

    def blk(j):  # block 0 is the integral, 1..n the chain
        return slice(1 + j * d, 1 + (j + 1) * d)

    A[blk(0), 0] = dt * y_star
    A[blk(0), blk(1)] = -dt * I
    for j in range(1, n):
        A[blk(j), blk(j + 1)] = dt * I
    if plant.affine is not None:  # W acts on [1; x; u], every column but the integral's
        A[blk(n), np.r_[0, 1 + d:S + d]] += dt * plant.affine
    if f_rows:
        A[blk(n), S + d:S + 2 * d] = dt * I
    A[blk(n), S + d + f_rows:] = math.sqrt(dt) * noise_gain
    return np.vstack([A, K @ A])


def _run_chunk(plant, sp, K, cfg: SimConfig, x0, chunk: int, size: int, rec_count: int):
    """Simulate one fixed chunk of paths; returns its moments or a divergence marker.

    The chunk lives in two (rows, block, size) arrays whose slots are states
    [1; integral; x; u; f; w], with block = max(1, ``_BLOCK_BYTES`` //
    (8*rows*size)) steps, at most the step count: a few dozen for a narrow
    chunk, one for a full 4096-path one, which so does exactly one step's
    work per block.  The arrays take turns: a block starts at slot 0 of one,
    each step's matmul writes the next slot, and the block's last step
    writes slot 0 of the other.  The matmul advances the integral and the
    chain, adds the affine drift and the noise and applies the control law
    to the result; plants see the transposed (size, n*d) view of a slot's x.
    The diffusion is evaluated once at x0 first: an unbatched (d, m) result
    G is constant and sqrt(dt)*G goes into the step matrix, so one draw per
    block writes the block's standard normals straight into its w rows,
    which are contiguous and in stream order when m = 1 or block = 1 (else
    they go through a (block, m, size) scratch; there is no draw at all when
    G is exactly zero: w stays zero, and M keeps its shape, so the matmul
    sums the same terms).  Otherwise g is evaluated every step, the block's
    normals z go to the scratch and w = g(x) z.

    After a block's steps one box guard covers the [integral; x] rows of its
    whole array, whose other states were guarded before (or are x0), and
    slot 0 of the other.  A non-finite residual drift or diffusion value
    reaches x_n at the same step, so the guard also finds it.  The first
    state the block wrote outside the box, and the first path in it, locate
    the divergence; the drift (its f row) and the diffusion (evaluated
    again, as w keeps g(x) z) at the step that produced that state are
    checked first, to raise :class:`NonFinite` where a step-by-step
    reference would.  Within a block a plant may see a state outside the
    box before the guard runs, so a plant error is raised only when the
    states the block wrote before it are all inside.

    Each block's recorded slots are reduced to moments at once, vectorized
    over the record axis: per record the chunk means of the rows
    mom = [|e|^2; |x - z*|^2; |u|^2; u] over its paths and their centred
    co-moment matrix C, the sums over paths of the products of the rows'
    deviations from those means.  Centring within the chunk keeps the
    spreads free of cancellation against the means.
    """
    steps, stride, dt = cfg.steps, cfg.record_stride, cfg.dt
    n, d, m = plant.n, plant.d, plant.m
    S = 1 + (n + 1) * d  # rows of [1; integral; x]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in the step loop
        g = np.asarray(plant.diffusion(x0[None, :]), dtype=float)
    constant = g.ndim <= 2
    if constant:
        g = require_finite(np.broadcast_to(g, (d, m)), "diffusion")
    M = _step_matrix(plant, dt, sp.y_star, K, g if constant else np.eye(d))
    Rm, R = M.shape  # the rows a step writes, the rows of a slot
    F = R - (m if constant else d)  # first row of w
    block = max(1, min(steps, _BLOCK_BYTES // (8 * R * size)))
    arrays = [np.zeros((R, block, size)) for _ in range(2)]
    # the first u from a contiguous [1; integral; x]: a narrow strided one rounds differently
    start = np.zeros((S, size))
    start[0] = 1.0
    start[1 + d:] = x0[:, None]
    arrays[0][:S, 0] = start
    np.matmul(K, start, out=arrays[0][S:S + d, 0])
    rng = _chunk_stream(cfg.seed, chunk)
    draw = not constant or bool(g.any())  # a zero G leaves w at zero: no draw
    # a block's w rows hold its normals in stream order (step, noise dimension, path) when
    # m = 1 or block = 1; otherwise, and for w = g(x) z, the normals are drawn into z
    z = None if constant and (m == 1 or block == 1 or not draw) else np.empty((block, m, size))

    def layout(k: int):
        """Views of a block that starts in arrays[k]: per slot x and u as the plant
        sees them, the f and w rows, the slot's normals (or None), the matmul input
        and output; the arrays the guard covers; where the block's normals are
        drawn, and the w rows they are then copied to (or None)."""
        A, B = arrays[k], arrays[1 - k]
        out = [A[:Rm, j] for j in range(1, block)] + [B[:Rm, 0]]
        slots = [(A[1 + d:S, j].T, A[S:S + d, j].T, A[S + d:F, j], A[F:, j],
                  None if z is None else z[j], A[:, j], out[j]) for j in range(block)]
        # every state in A but the ones the block writes is already guarded (or x0)
        box = [A[1:S], B[1:S, 0]] if block > 1 else [B[1:S, 0]]
        return slots, box, A[F:] if z is None else z, A[F:] if constant and z is not None else None

    def locate(k: int, s0: int, nb: int, written: int):
        """Divergence marker of the first of the ``written`` states after the start
        of the block (s0, arrays[k], nb steps) that is outside the box, else None."""
        A, B = arrays[k], arrays[1 - k]
        for j in range(1, written + 1):
            bad = ~np.all(np.abs(A[1:S, j] if j < nb else B[1:S, 0]) <= _DIVERGENCE_LIMIT, axis=0)
            if bad.any():
                if plant.drift is not None:
                    require_finite(A[S + d:F, j - 1], "drift")
                if not constant:  # w keeps g(x) z, not g
                    require_finite(np.asarray(plant.diffusion(A[1 + d:S, j - 1].T), dtype=float),
                                   "diffusion")
                return ("diverged", (s0 + j) * dt, chunk * _CHUNK_PATHS + int(np.argmax(bad)))
        return None

    means = np.empty((rec_count, 3 + d))
    C = np.empty((rec_count, 3 + d, 3 + d))
    z_col = sp.z_star[:, None, None]

    def reduce(A, rec: slice, r: int):
        """Moments of the states in slots ``rec`` of A, the first of which is record r."""
        x, u = A[1 + d:S, rec], A[S:S + d, rec]
        k = x.shape[1]
        dev = x - z_col
        dev *= dev
        mom = np.empty((k, 3 + d, size))
        dev[:d].sum(axis=0, out=mom[:, 0])  # |e|^2 with e = y* - x1
        dev.sum(axis=0, out=mom[:, 1])  # |x - z*|^2
        np.einsum("ikp,ikp->kp", u, u, out=mom[:, 2])
        mom[:, 3:] = u.transpose(1, 0, 2)
        rows = slice(r, r + k)
        np.divide(mom.sum(axis=2), size, out=means[rows])
        mom -= means[rows, :, None]
        np.matmul(mom, mom.transpose(0, 2, 1), out=C[rows])

    blocks = [layout(0), layout(1)]
    k = 0
    # overflow and NaN reach the box guard and require_finite; warnings would repeat them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s0 in range(0, steps, block):
            slots, box, normals, w_rows = blocks[k]
            nb = block
            if s0 + block > steps:  # the last block: its last step writes slot 0 of the other array
                nb = steps - s0
                *_, out = slots[-1]
                slots = slots[:nb - 1] + [slots[nb - 1][:-1] + (out,)]
                normals = normals[:nb] if z is not None else normals[:, :nb]
                w_rows = None if w_rows is None else w_rows[:, :nb]
            s = s0
            try:
                for x, u, f_row, w_row, z_j, state, out in slots:
                    if plant.drift is not None:
                        f = np.asarray(plant.drift(x, u), dtype=float)
                        if f.shape != (size, d):
                            f = np.broadcast_to(f, (size, d))
                        f_row[...] = f.T
                    # the block's normals come after its first drift call, as in a one-step
                    # loop: drawn before it, two workers on 2 vCPUs ran 8192 bench3 paths
                    # about 3% slower
                    if s == s0 and draw:
                        rng.standard_normal(out=normals)
                        if w_rows is not None:
                            w_rows[...] = normals.transpose(1, 0, 2)
                    if not constant:  # one (d, m) matrix per path
                        if s:
                            g = np.asarray(plant.diffusion(x), dtype=float)
                        if g.shape != (size, d, m):
                            g = np.broadcast_to(g, (size, d, m))
                        np.einsum("pjk,kp->jp", g, z_j, out=w_row)
                    np.matmul(M, state, out=out)
                    s += 1
            except Exception:  # an earlier state outside the box comes first
                marker = locate(k, s0, nb, s - s0)
                if marker is None:
                    raise
                return marker
            for v in box:
                if not (v.max() <= _DIVERGENCE_LIMIT and v.min() >= -_DIVERGENCE_LIMIT):
                    marker = locate(k, s0, nb, nb)
                    if marker is not None:
                        return marker
                    break  # only x0 is outside the box
            j = -s0 % stride  # the block's first recorded slot
            if j < nb:
                reduce(arrays[k], slice(j, nb, stride), (s0 + j) // stride)
            k = 1 - k
    reduce(arrays[k], slice(0, 1), rec_count - 1)
    return ("ok", means, C)


def simulate_paths(
    plant: PlantSpec,
    sp: Setpoint,
    g: Optional[GainVector],
    cfg: SimConfig,
    workers: int = 1,
) -> EnsembleStats:
    """Monte Carlo moments of the closed loop under the configured controller.

    Admissibility of the gains is not enforced; diverging runs raise
    :class:`Diverged` carrying the first offending path and time (diverged
    paths are never silently dropped, which would bias the moments).  For a
    fixed config the output is bitwise reproducible for any worker count;
    ``workers`` is the number of threads (a positive integer, else
    ValueError; default 1).  Plant callables must be pure functions as they
    run on multiple workers concurrently.
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

    nworkers = _require_count("workers", workers)
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

    # Chan, Golub and LeVeque's pairwise update merges the chunk moments in chunk order
    count, mean, C = chunks[0][1], *results[0][1:]
    for (_, size), (_, mean_c, C_c) in zip(chunks[1:], results[1:]):
        delta = mean_c - mean
        mean = mean + delta * (size / (count + size))
        C = C + C_c + (count * size / (count + size)) * delta[:, :, None] * delta[:, None, :]
        count += size

    N = cfg.paths
    times = positions * cfg.dt
    sq = np.diagonal(C, axis1=1, axis2=2)  # sums of squared deviations

    def stderr(sq_dev: np.ndarray) -> np.ndarray:
        """Standard error of a path mean from its sum of squared deviations."""
        if N == 1:
            return np.zeros_like(sq_dev)
        return np.sqrt(np.maximum(sq_dev, 0.0) / (N - 1) / N)

    # delta method: to first order var_u varies like the path mean of
    # h = |u|^2 - 2 (E u).u = v.mom with v = [0, 0, 1, -2 E u]
    v = np.zeros_like(mean)
    v[:, 2] = 1.0
    v[:, 3:] = -2.0 * mean[:, 3:]
    h_sq_dev = np.einsum("ri,rij,rj->r", v, C, v)

    return EnsembleStats(
        times=times,
        mean_sq_error=mean[:, 0],
        stderr_sq_error=stderr(sq[:, 0]),
        mean_sq_state_dev=mean[:, 1],
        stderr_sq_state_dev=stderr(sq[:, 1]),
        mean_sq_u=mean[:, 2],
        stderr_sq_u=stderr(sq[:, 2]),
        var_u=sq[:, 3:].sum(axis=1) / N,
        stderr_var_u=stderr(h_sq_dev),
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
    w = _cascade_weights(betas, n)
    zb = z.reshape(-1, n + 1, d)
    x, _ = shifted_to_raw(z_inverse(zb, betas), sp, k0)
    diffs = (zb[:, 1:] - zb[:, :-1]) / betas[None, :, None]  # term j: w_j*y_{j+1}
    cum = np.cumsum(diffs, axis=1)
    f_last = w[-1] * plant.eval_drift(x, -k0 * zb[:, n] + sp.u_star)
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
    radius, ``samples // 2`` on each.  Gains must follow the ratio pattern
    k_i = (beta_1..beta_i)*k0; positive margins are reported, not raised (a
    failed probe is a diagnostic about the sampled region, not a disproof).
    """
    samples = _require_count("samples", samples)
    if samples < 2:
        raise ValueError(f"samples must be at least 2 (one per radius), got {samples}")
    _require_constant("lam", lam, positive=True)
    _require_constant("M", M)
    _require_constant("radius", radius, positive=True)
    betas = np.asarray(betas, dtype=float)
    k = g.gains
    if not np.allclose(k, k[0] * _cascade_weights(betas, plant.n), rtol=1e-8, atol=0.0):
        raise ValueError("gains do not follow the supplied ratio pattern")

    threshold = 0.5 * (lam + 8.0 * M * M)  # a Python float ** 2 raises OverflowError
    if not threshold < math.inf:  # an infinite threshold would count no violation
        raise ValueError(f"threshold (lam + 8*M**2)/2 overflows float64 for lam={lam}, M={M}")
    if not 100.0 * radius * radius * max(1.0, threshold) < math.inf:  # margins at 10*radius
        raise ValueError(f"radius={radius!r}: the margins at 10*radius overflow float64")
    dim = (plant.n + 1) * plant.d
    rng = np.random.default_rng(seed)
    per_radius = samples // 2
    worst = -math.inf
    violations = 0
    total = 0
    radii = (radius, 10.0 * radius)
    for r in radii:
        pts = rng.standard_normal((per_radius, dim))
        pts *= r / np.linalg.norm(pts, axis=1, keepdims=True)
        b = _z_drift(plant, sp, k[0], betas, pts)
        zdot = np.einsum("ij,ij->i", pts, b)
        margins = zdot + threshold * (r * r)
        tol = 1e-9 * (r * r) * max(1.0, threshold)
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

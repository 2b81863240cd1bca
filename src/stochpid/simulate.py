"""Monte Carlo simulation of the closed loop by Euler-Maruyama stepping.

The controller is one linear map, u = K @ [1; integral; x] with K from
:func:`_control_law`; the open loop is K = 0.  :func:`_closed_loop`
describes the loop once in continuous time, with the plant's affine drift
part and a constant diffusion as data; the homogeneous part of the chain
loop under the law is the companion matrix ``lyapunov.companion(g)`` that
the certificate reads.  :func:`_euler_maruyama` discretizes it into the
one-step matrix M, with drift, diffusion and error integral all taken at
the left endpoint of the step; it is the only code that applies dt.
:func:`simulate_paths` runs one fused kernel for every controller and every
chunk width.  A chunk of paths lives in two (state rows, block, paths)
arrays that take turns, and one matmul by M per step writes the next state
slot in place, so per step the kernel evaluates only the residual drift,
as one in-place ufunc call per term of a drift given as terms or else one
call of the residual callable, and a state-dependent diffusion.  The block
is as many steps as fit one 64 KB budget per array (``_BLOCK_BYTES``): a
few dozen for a narrow chunk, one for a full one.  Per block the kernel makes
one noise draw, one divergence check over every state the block wrote, and
one moment reduction of its recorded states.  Paths are processed in fixed
chunks of 4096; each chunk draws its noise from one SFC64 stream seeded by
``SeedSequence(seed, spawn_key=(chunk index,))``, sequentially in (step,
noise dimension, path) order whatever the block, and chunk moments are
merged in chunk order, which makes the resulting moments bitwise identical
no matter how many worker threads run the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .design import BoundConstants, GainVector
from .model import (PlantSpec, Setpoint, _as_vec, _is_integer, _require_count, _require_number,
                    _Terms, require_finite)

__all__ = [
    "SimConfig",
    "EnsembleStats",
    "EnvelopeReport",
    "Diverged",
    "simulate_paths",
    "bound_envelope",
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


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description.

    ``controller`` is one of ``"pid"``, ``"pd"`` or ``"open_loop"``;
    ``record_stride`` is the number of steps between recorded moments (a
    divisor of ``steps``, so the last record is at the horizon) and
    ``x0`` the shared initial state (defaults to the setpoint z*).  Real
    fields are stored as floats and counts as ints, nothing rounded or read
    from text (see :func:`~stochpid.model._require_number` and ``_is_integer``).
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
            object.__setattr__(self, name, _require_number(name, getattr(self, name), ""))
        if not _is_integer(self.seed):
            raise ValueError(f"seed: expected an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        for name in ("paths", "record_stride"):
            object.__setattr__(self, name, _require_count(name, getattr(self, name)))
        if not 0.0 < self.dt <= self.horizon:
            raise ValueError(f"dt: expected 0 < dt <= horizon = {self.horizon}, got {self.dt}")
        ratio = self.horizon / self.dt
        # above 2**53 every float is an integer, so the multiple check below could not fail
        if not ratio <= 2.0 ** 53:
            raise ValueError(f"horizon: expected at most 2**53 steps of dt={self.dt}, "
                             f"got {self.horizon}")
        # a relative 1e-9 absorbs the rounding of decimal horizons and steps
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(f"horizon: expected an integer multiple of dt={self.dt}, "
                             f"got {self.horizon}")
        if self.steps % self.record_stride:  # the last record falls on the horizon
            raise ValueError(f"record_stride: expected a divisor of the {self.steps} steps, "
                             f"got {self.record_stride}")
        if not 0 <= self.seed < 2 ** 64:  # the run entropy of each chunk's SeedSequence
            raise ValueError(f"seed: expected an integer in [0, 2**64), got {self.seed}")
        if self.controller not in _CONTROLLERS:
            raise ValueError(f"controller: expected one of {_CONTROLLERS}, got {self.controller!r}")
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

    def table(self) -> np.ndarray:
        """(records, columns) array, one row per recorded time, in ``CSV_COLUMNS`` order."""
        return np.column_stack([self.times] + [getattr(self, c) for c in self.CSV_COLUMNS[1:]])

    def tail_mean(self, column: str) -> float:
        """Mean of the series ``column`` over the trailing quarter of the records
        (at least the last one): the long-run (liminf) estimate."""
        series = getattr(self, column)
        return float(np.mean(series[-max(1, series.size // 4):]))


# the CSV header: the field names in order, "t" for times
EnsembleStats.CSV_COLUMNS = tuple("t" if f.name == "times" else f.name
                                  for f in fields(EnsembleStats))


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
    """Control-law weights K for the configured controller; the open loop is K = 0.
    The one check that the gains fit the controller and the plant: each message
    starts with the field it names, ``gains``, ``gains.kind`` or ``gains.gains``."""
    if controller == "open_loop":
        return np.zeros((plant.d, 1 + (plant.n + 1) * plant.d))
    if g is None:
        raise ValueError("gains: required section for a closed-loop run")
    if g.kind != controller:
        raise ValueError(f"gains.kind: expected {controller} gains for the {controller} "
                         f"controller, got {g.kind}")
    if g.n != plant.n:
        raise ValueError(f"gains.gains: expected {plant.n + (g.kind == 'pid')} {g.kind} gains "
                         f"for relative degree {plant.n}, got {g.gains.size}")
    return _control_law(g, y_star)


def _closed_loop(plant: PlantSpec, y_star: np.ndarray, noise_gain: np.ndarray):
    """(A, G) of the loop d[1; integral; x] = A @ [1; integral; x; u; f] dt + G @ w.

    Row by row: the integral reads y* - x1, x_i reads x_{i+1} (i < n), and x_n
    reads W @ [1; x; u] + f, W the plant's affine drift part and f its
    residual drift, plus noise_gain @ w.  A plant whose drift is terms has
    one f column per term, holding the term's weights, so its rows are the
    terms' ufunc values; a residual callable has d columns of I; a zero
    residual none.  w is either m standard normals, with a constant
    diffusion as noise_gain, or the d-row term g(x) z, with noise_gain = I.
    """
    n, d = plant.n, plant.d
    S = 1 + (n + 1) * d
    if isinstance(plant.drift, _Terms):
        residual = np.array([w for _, _, w in plant.drift]).T
    else:
        residual = np.zeros((d, 0)) if plant.drift is None else np.eye(d)
    A = np.zeros((S, S + d + residual.shape[1]))
    A[1:1 + d, 0] = y_star
    A[1:1 + d, 1 + d:1 + 2 * d] = -np.eye(d)
    A[1 + d:S - d, 1 + 2 * d:S] = np.eye((n - 1) * d)
    if plant.affine is not None:  # W acts on [1; x; u], every column but the integral's
        A[S - d:, np.r_[0, 1 + d:S + d]] += plant.affine
    A[S - d:, S + d:] = residual
    G = np.zeros((S, noise_gain.shape[1]))
    G[S - d:] = noise_gain
    return A, G


def _euler_maruyama(A: np.ndarray, G: np.ndarray, K: np.ndarray, dt: float) -> np.ndarray:
    """M = [I + dt*A | sqrt(dt)*G] over K times itself: M @ [1; integral; x; u; f; w]
    is the next [1; integral; x] and its u = K @ [1; integral; x].  The 1.0 goes on
    the diagonal of dt*A alone, which keeps the -0.0 entries of dt*A."""
    step = np.hstack([dt * A, math.sqrt(dt) * G])
    diagonal = np.arange(A.shape[0])
    step[diagonal, diagonal] += 1.0
    return np.vstack([step, K @ step])


def _run_chunk(plant, sp, K, cfg: SimConfig, x0, chunk: int, size: int, rec_count: int):
    """Simulate one fixed chunk of paths; returns its moments (means, C) or a Diverged.

    The chunk lives in two (rows, block, size) arrays whose slots are states
    [1; integral; x; u; f; w], with block = max(1, ``_BLOCK_BYTES`` //
    (8*rows*size)) steps, at most the step count.  The arrays take turns: a
    block starts at slot 0 of one, each step's matmul by M writes the next
    slot, and the block's last step writes slot 0 of the other.  Before the
    matmul, a plant whose drift is terms has each term's ufunc write its f
    row from its source row of the slot in place; any other residual drift
    is a callable, which sees the transposed (size, n*d) view of a slot's x
    and has its result copied into the f rows.  The diffusion is evaluated
    at x0 first, and the noise takes one of two paths.  An
    unbatched (d, m) result is constant, the noise gain G, and each block's
    one draw writes its normals straight into the w rows (not at all when G
    is zero); with m > 1 columns a block is one step, so that the rows take
    them in stream order.  Otherwise g is evaluated every step, the block's
    normals z go to a (block, m, size) scratch and w = g(x) z.

    After a block's steps one box guard covers the [integral; x] rows of the
    states the block wrote, slots 1 on of its array and slot 0 of the other
    (x0 is never guarded); a non-finite residual drift or diffusion reaches
    x_n at the same step, so the guard finds it too.  The first state the block
    wrote outside the box, and the first path in it, locate the divergence;
    the drift (its f rows) and the diffusion (evaluated again, as w keeps
    g(x) z) at the step that produced it are checked first, to raise
    :class:`NonFinite` where a step-by-step reference would.  A plant may see
    a state outside the box before the guard runs, so a plant error is
    raised only when the states the block wrote before it are all inside.

    Each block's recorded slots are reduced at once, over the record axis,
    to the chunk means of the rows mom = [|e|^2; |x - z*|^2; |u|^2; u] and
    their co-moment matrix C, the sums over paths of the products of the
    rows' deviations from those means: centring within the chunk keeps the
    spreads free of cancellation.  The rounded mean sum/size is corrected by
    the mean of the centred rows, so equal paths give zero co-moments.
    """
    steps, stride, dt = cfg.steps, cfg.record_stride, cfg.dt
    n, d, m = plant.n, plant.d, plant.m
    S = 1 + (n + 1) * d  # rows of [1; integral; x]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in the step loop
        g = np.asarray(plant.diffusion(x0[None, :]), dtype=float)
    constant = g.ndim <= 2
    if constant:
        g = require_finite(np.broadcast_to(g, (d, m)), "diffusion")
    A, G = _closed_loop(plant, sp.y_star, g if constant else np.eye(d))
    M = _euler_maruyama(A, G, K, dt)
    Rm, R = M.shape  # the rows a step writes, the rows of a slot
    F = R - G.shape[1]  # first row of w
    # a constant diffusion with m > 1 steps one slot per block, so that each draw fills the
    # (m, 1, size) w rows in stream order (step, noise dimension, path), as for m = 1
    block = 1 if constant and m > 1 else max(1, min(steps, _BLOCK_BYTES // (8 * R * size)))
    arrays = [np.zeros((R, block, size)) for _ in range(2)]
    # the first u from a contiguous [1; integral; x]: a narrow strided one rounds differently
    start = np.zeros((S, size))
    start[0] = 1.0
    start[1 + d:] = x0[:, None]
    arrays[0][:S, 0] = start
    np.matmul(K, start, out=arrays[0][S:S + d, 0])
    rng = _chunk_stream(cfg.seed, chunk)
    draw = bool(G.any())  # a zero noise gain leaves w at zero: no draw
    # a constant diffusion draws its normals into the w rows, w = g(x) z draws them into z
    z = None if constant else np.empty((block, m, size))
    # a drift given as terms steps them in place, any other residual through its call
    terms, drift = (plant.drift, None) if isinstance(plant.drift, _Terms) else ((), plant.drift)

    def layout(k: int):
        """Views of a block that starts in arrays[k]: per slot x and u as the plant
        sees them, each term's ufunc with its source row and its f row, the f and w
        rows, the slot's normals (or None), the matmul input and output; the arrays
        the guard covers; where the block's normals are drawn."""
        A, B = arrays[k], arrays[1 - k]
        out = [A[:Rm, j] for j in range(1, block)] + [B[:Rm, 0]]
        slots = [(A[1 + d:S, j].T, A[S:S + d, j].T,
                  [(ufunc, A[1 + d + source, j], A[S + d + t, j])
                   for t, (ufunc, source, _) in enumerate(terms)],
                  A[S + d:F, j], A[F:, j], None if z is None else z[j], A[:, j], out[j])
                 for j in range(block)]
        box = [A[1:S, 1:], B[1:S, 0]] if block > 1 else [B[1:S, 0]]
        return slots, box, A[F:] if constant else z

    def locate(k: int, s0: int, nb: int, written: int):
        """:class:`Diverged` at the first of the ``written`` states after the start of
        the block (s0, arrays[k], nb steps) that is outside the box, else None."""
        A, B = arrays[k], arrays[1 - k]
        for j in range(1, written + 1):
            bad = ~np.all(np.abs(A[1:S, j] if j < nb else B[1:S, 0]) <= _DIVERGENCE_LIMIT, axis=0)
            if bad.any():
                if plant.drift is not None:
                    require_finite(A[S + d:F, j - 1], "drift")
                if not constant:  # w keeps g(x) z, not g
                    require_finite(np.asarray(plant.diffusion(A[1 + d:S, j - 1].T), dtype=float),
                                   "diffusion")
                return Diverged((s0 + j) * dt, chunk * _CHUNK_PATHS + int(np.argmax(bad)))
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
        mean = np.divide(mom.sum(axis=2), size, out=means[rows])
        mom -= mean[:, :, None]
        shift = mom.sum(axis=2) / size
        mean += shift
        mom -= shift[:, :, None]
        np.matmul(mom, mom.transpose(0, 2, 1), out=C[rows])

    blocks = [layout(0), layout(1)]
    k = 0
    # overflow and NaN reach the box guard and require_finite; warnings would repeat them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s0 in range(0, steps, block):
            slots, box, normals = blocks[k]
            nb = block
            if s0 + block > steps:  # the last block: its last step writes slot 0 of the other array
                nb = steps - s0
                *_, out = slots[-1]
                slots = slots[:nb - 1] + [slots[nb - 1][:-1] + (out,)]
                normals = normals[:, :nb] if constant else normals[:nb]
            s = s0
            try:
                for x, u, ufuncs, f_row, w_row, z_j, state, out in slots:
                    for ufunc, source, value in ufuncs:
                        ufunc(source, out=value)
                    if drift is not None:
                        f = np.asarray(drift(x, u), dtype=float)
                        if f.shape != (size, d):
                            f = np.broadcast_to(f, (size, d))
                        f_row[...] = f.T
                    # the block's normals come after its first drift call, as in a one-step
                    # loop: drawn before it, two workers on 2 vCPUs ran 8192 bench3 paths
                    # about 3% slower
                    if s == s0 and draw:
                        rng.standard_normal(out=normals)
                    if not constant:  # one (d, m) matrix per path
                        if s:
                            g = np.asarray(plant.diffusion(x), dtype=float)
                        if g.shape != (size, d, m):
                            g = np.broadcast_to(g, (size, d, m))
                        np.einsum("pjk,kp->jp", g, z_j, out=w_row)
                    np.matmul(M, state, out=out)
                    s += 1
            except Exception:  # an earlier state outside the box comes first
                diverged = locate(k, s0, nb, s - s0)
                if diverged is None:
                    raise
                return diverged
            for v in box:
                if not (v.max() <= _DIVERGENCE_LIMIT and v.min() >= -_DIVERGENCE_LIMIT):
                    return locate(k, s0, nb, nb)
            j = -s0 % stride  # the block's first recorded slot
            if j < nb:
                reduce(arrays[k], slice(j, nb, stride), (s0 + j) // stride)
            k = 1 - k
    reduce(arrays[k], slice(0, 1), rec_count - 1)
    return means, C


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
    if x0.shape != (plant.state_dim,):
        raise ValueError(f"x0: expected shape ({plant.state_dim},), got {x0.shape}")

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

    diverged = [r for r in results if isinstance(r, Diverged)]
    if diverged:
        raise min(diverged, key=lambda exc: (exc.t, exc.path))

    # Chan, Golub and LeVeque's pairwise update merges the chunk moments in chunk order
    count, (mean, C) = chunks[0][1], results[0]
    for (_, size), (mean_c, C_c) in zip(chunks[1:], results[1:]):
        delta = mean_c - mean
        mean = mean + delta * (size / (count + size))
        C = C + C_c + (count * size / (count + size)) * delta[:, :, None] * delta[:, None, :]
        count += size

    N = cfg.paths
    times = positions * cfg.dt
    sq = np.diagonal(C, axis1=1, axis2=2)  # sums of squared deviations

    def stderr(sq_dev: np.ndarray) -> np.ndarray:
        """Standard error of a path mean from its sum of squared deviations (exactly
        +0.0 for one path, whose centred deviations are +0.0)."""
        return np.sqrt(np.maximum(sq_dev, 0.0) / max(N - 1, 1) / N)

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
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Pointwise upper-envelope check plus the asymptotic lower-floor check.

    ``tail_estimate`` is the long-run estimate of E|x-z*|^2,
    :meth:`EnsembleStats.tail_mean` of ``mean_sq_state_dev``.
    """

    upper: np.ndarray
    upper_ok: bool
    violations: np.ndarray
    tail_estimate: float
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
    Violations are reported as time indices, not raised; a negative or
    non-finite norm, or one whose square overflows float64, raises
    ``ValueError`` naming it, and so does a term of the upper envelope
    that overflows float64.
    """
    amp = _square("initial_dev", initial_dev) + _square("u_star_norm", u_star_norm)
    g_sq = _square("g_norm_at_zstar", g_norm_at_zstar)
    decay, floor = bc.decay_coeff * amp, bc.floor_coeff * g_sq
    for name, term in (("decay_coeff*(initial_dev^2 + u_star_norm^2)", decay),
                       ("floor_coeff*g_norm_at_zstar^2", floor),
                       ("the upper envelope at t = 0", decay + floor)):
        if not math.isfinite(term):
            raise ValueError(f"{name} = {term} overflows float64")
    upper = decay * np.exp(-bc.rate * stats.times) + floor
    slack = upper + 3.0 * stats.stderr_sq_state_dev - stats.mean_sq_state_dev
    violations = np.nonzero(slack < 0.0)[0]

    tail_estimate = stats.tail_mean("mean_sq_state_dev")
    tail_err = stats.tail_mean("stderr_sq_state_dev")
    lower = bc.floor_lower_coeff * g_sq
    return EnvelopeReport(
        upper=upper,
        upper_ok=bool(violations.size == 0),
        violations=violations,
        tail_estimate=tail_estimate,
        lower_bound=float(lower),
        lower_ok=bool(tail_estimate >= lower - 3.0 * tail_err),
    )


def _square(name: str, v) -> float:
    """``float(v) ** 2``; ValueError naming ``name`` unless v >= 0 and both are finite."""
    v = _require_number(name, v)
    try:
        return v ** 2
    except OverflowError:
        raise ValueError(f"{name}: {v!r} squared overflows float64") from None

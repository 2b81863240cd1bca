"""The three benchmark workloads: seeded inputs, set-up, one op and its checks.

This module is imported after the set-up clock starts, so importing numpy
and stochpid counts as set-up time.  Inputs for op ``i`` come from
``numpy.random.default_rng([seed, i])`` and are made outside the op's timed
window; the op itself only calls public stochpid functions.

With a tracer, every call into stochpid and every plant callable the
benchmark passes in runs inside a span; without one the raw functions run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import oracles

import stochpid as sp

SIGMAS_Z = 5.0  # statistical agreement: |difference| <= 5 combined standard errors
BENCH3_GAINS = (8.6, 21.5, 21.5, 8.6)
BENCH3_L = math.sqrt(3.0) / 2.0
BENCH3_DRIFT = "0.4*sin(x1) - 0.3*x2 + 0.5*x3 + 6 + u + 5.2*tanh(u)"

# mc-wide: E|e(T)|^2 at T = 8 (the steady-state noise floor; the transient
# from x0 has decayed by t = 7) under the mc-wide configuration, frozen from
# 65536 paths with sim seed 20261017:
#   PYTHONPATH=src:perfbench python3 -c "import workloads as w; b = w.McWide(0, False);
#   b.setup(); b.paths = 65536; s = b.run_op(20261017);
#   print(repr(s.mean_sq_error[-1]), repr(s.stderr_sq_error[-1]))"
# Any correct engine, whatever its noise keying, must agree with it within
# the combined standard errors.
MC_REFERENCE = 1.817775504004198e-05
MC_REFERENCE_STDERR = 9.83940390538577e-08


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 64, i])


class Workload:
    """One workload: ``setup`` once, then ``make_input``/``run_op``/``check`` per op."""

    name = ""
    # reference kernel that tracks the host speed for these ops: (threads,
    # array rows, expressions per thread, reference time in ms); see run.py
    KERNEL = (1, 48, 50, 0.25)

    def __init__(self, seed: int, smoke: bool, tracer=None, workdir=None):
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.workdir = workdir

    def call(self, name, fn, tag=None):
        return self.tracer.wrap(name, fn, tag) if self.tracer else fn

    def simulate(self):
        """simulate_paths, spanned and counted in path-steps when traced."""
        if not self.tracer:
            return sp.simulate_paths
        traced = self.tracer.wrap("simulate", sp.simulate_paths)

        def counted(plant, setpoint, gains, cfg, workers=None):
            self.tracer.count("simulate.path_steps", cfg.paths * cfg.steps)
            return traced(plant, setpoint, gains, cfg, workers)

        return counted

    def certify(self, gains, L, M):
        """Design check, certificate and Hurwitz test of one gain vector."""
        check = sp.check_inequality if gains.kind == "pid" else sp.check_inequality_pd
        report = self.call("design.check", check)(gains, L, M)
        try:
            cert = self.call("lyapunov.verify", sp.verify_certificate, lambda g, *_: g.n)(gains, L, M)
        except sp.CertificateError:
            cert = None
            if self.tracer:
                self.tracer.count("lyapunov.rejected")
        hurwitz = self.call("stability.is_hurwitz", sp.is_hurwitz)(gains)
        return report, cert, hurwitz


class McWide(Workload):
    """bench3 PID at Monte Carlo scale: two 4096-path chunks on two threads."""

    name = "mc-wide"
    KERNEL = (2, 4096, 40, 1.5)  # ops run on two threads over 4096-path chunks
    SIGMA = 0.2
    X0 = (0.9, 0.0, 0.1)
    DT = 4e-3
    HORIZON = 8.0
    STRIDE = 50
    WORKERS = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paths = 256 if self.smoke else 8192

    def setup(self):
        plant = sp.bench3(sigma=self.SIGMA)
        if self.tracer:
            plant = self.tracer.wrap_plant(plant, "plants.drift", "plants.diffusion")
        self.plant = plant
        self.setpoint = self.call("model.solve_equilibrium", sp.solve_equilibrium)(plant, 1.0)
        self.gains = sp.GainVector("pid", np.array(BENCH3_GAINS))
        self.certify(self.gains, plant.lipschitz_L, plant.lipschitz_M)
        self._simulate = self.simulate()

    def config(self, sim_seed: int) -> sp.SimConfig:
        return sp.SimConfig(dt=self.DT, horizon=self.HORIZON, paths=self.paths, seed=sim_seed,
                            record_stride=self.STRIDE, controller="pid", x0=np.array(self.X0))

    def make_input(self, i: int) -> int:
        return int(_rng(self.seed, i).integers(0, 2 ** 62))

    def work(self, sim_seed) -> int:
        return self.paths * self.config(sim_seed).steps

    def run_op(self, sim_seed, workers=WORKERS):
        return self._simulate(self.plant, self.setpoint, self.gains, self.config(sim_seed), workers)

    def check(self, sim_seed, stats):
        errors = []
        columns = [getattr(stats, c) for c in stats.CSV_COLUMNS[1:]]
        if not all(np.all(np.isfinite(c)) for c in columns):
            errors.append("non-finite moment")
        m, se = float(stats.mean_sq_error[-1]), float(stats.stderr_sq_error[-1])
        tol = SIGMAS_Z * math.hypot(se, MC_REFERENCE_STDERR)
        if not abs(m - MC_REFERENCE) <= tol:
            errors.append(f"E|e(T)|^2 = {m!r} vs reference {MC_REFERENCE!r} (tolerance {tol:.3g})")
        return errors, (m, se)

    @staticmethod
    def time_to_1pct(walls, quality):
        """Mean op wall x (pooled stderr/mean of E|e(T)|^2 / 0.01)^2."""
        m, se = np.array(quality).T
        return float(np.mean(walls)) * float(np.mean(se ** 2)) / float(np.mean(m)) ** 2 * 1e4


def expression_bench3(sigma: float) -> dict:
    """Expression-plant config section equal to bench3 (the README's formula)."""
    return {"kind": "expression", "n": 3, "L": BENCH3_L, "M": 0.0,
            "drift": BENCH3_DRIFT, "diffusion": repr(float(sigma))}


class CliNarrow(Workload):
    """Many short in-process ``stochpid simulate`` runs on an expression plant."""

    name = "cli-narrow"
    DT = 1e-3
    MOMENTS = ("mean_sq_error", "mean_sq_state_dev", "mean_sq_u")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paths = 8 if self.smoke else 48
        self.horizon = 0.05 if self.smoke else 0.25

    def setup(self):
        from stochpid import cli

        self.cli = cli
        self.steps = sp.SimConfig(dt=self.DT, horizon=self.horizon, paths=1, seed=0).steps
        plant = self.plant_maker()(expression_bench3(0.2))
        self.call("model.solve_equilibrium", sp.solve_equilibrium)(plant, np.array([1.0]))
        self.call("design.check", sp.check_inequality)(
            sp.GainVector("pid", np.array(BENCH3_GAINS)), BENCH3_L, 0.0)
        self.main = self.call("cli.main", cli.main)
        self.config_path = self.workdir / "config.json"
        self.csv_path = self.workdir / "run.csv"

    def plant_maker(self):
        """build_plant, spanned as the parse, whose callables are spanned as evaluation."""
        if not self.tracer:
            return sp.build_plant
        parse = self.tracer.wrap("expr.parse", sp.build_plant)

        def build(spec, where="plant"):
            plant = parse(spec, where)
            if spec.get("kind") == "expression":
                plant = self.tracer.wrap_plant(plant, "expr.eval", "expr.eval")
            return plant

        return build

    @contextlib.contextmanager
    def _cli_spans(self):
        """Span the functions stochpid.cli looks up at call time."""
        saved = {n: getattr(self.cli, n) for n in ("build_plant", "solve_equilibrium", "simulate_paths")}
        self.cli.build_plant = self.plant_maker()
        self.cli.solve_equilibrium = self.call("model.solve_equilibrium", sp.solve_equilibrium)
        self.cli.simulate_paths = self.simulate()
        try:
            yield
        finally:
            for n, fn in saved.items():
                setattr(self.cli, n, fn)

    def make_input(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        # narrow ranges keep the stderr/mean of E|e(T)|^2, which scales like
        # sigma over the transient's distance from zero, comparable across ops
        sigma = float(rng.uniform(0.15, 0.25))
        scale = float(rng.uniform(1.0, 1.25))
        x0 = (np.array([0.9, 0.0, 0.1]) + rng.uniform(-0.02, 0.02, 3)).tolist()
        doc = {
            "plant": expression_bench3(sigma),
            "gains": {"kind": "pid", "gains": [scale * k for k in BENCH3_GAINS]},
            "sim": {"dt": self.DT, "horizon": self.horizon, "paths": self.paths,
                    "seed": int(rng.integers(0, 2 ** 62)), "record_stride": 1,
                    "controller": "pid", "x0": x0, "y_star": 1.0},
        }
        self.config_path.write_text(json.dumps(doc))
        return {"doc": doc, "sigma": sigma}

    def work(self, inp) -> int:
        return self.paths * self.steps

    def run_op(self, inp):
        argv = ["simulate", "--config", str(self.config_path), "--out", str(self.csv_path),
                "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            if not self.tracer:
                return self.main(argv)
            with self._cli_spans():
                code = self.main(argv)
        self.tracer.count("cli.csv_bytes", self.csv_path.stat().st_size)
        return code

    def check(self, inp, code):
        if code != 0:
            return [f"exit code {code}"], None
        lines = [ln for ln in self.csv_path.read_text().splitlines() if not ln.startswith("#")]
        header = tuple(lines[0].split(","))
        if header != sp.EnsembleStats.CSV_COLUMNS:
            return [f"CSV header {header}"], None
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        errors = []
        if rows.shape != (self.steps + 1, len(header)):
            errors.append(f"CSV has shape {rows.shape}, expected {(self.steps + 1, len(header))}")
        if not np.all(np.isfinite(rows)):
            errors.append("non-finite CSV value")
        final = dict(zip(header, rows[-1]))

        sim = inp["doc"]["sim"]
        plant = sp.bench3(sigma=inp["sigma"])
        cfg = sp.SimConfig(dt=sim["dt"], horizon=sim["horizon"], paths=sim["paths"],
                           seed=sim["seed"], record_stride=1, controller="pid",
                           x0=np.array(sim["x0"]))
        gains = sp.GainVector("pid", np.array(inp["doc"]["gains"]["gains"]))
        ref = sp.simulate_paths(plant, sp.solve_equilibrium(plant, np.array([1.0])), gains, cfg, 1)
        for name in self.MOMENTS:
            want = float(getattr(ref, name)[-1])
            se_ref = float(getattr(ref, "stderr_" + name[len("mean_"):])[-1])
            se = final["stderr_" + name[len("mean_"):]]
            tol = SIGMAS_Z * math.hypot(se, se_ref) + 1e-12 * abs(want)
            if not abs(final[name] - want) <= tol:
                errors.append(f"final {name} {final[name]!r} vs builtin bench3 {want!r}")
        return errors, (final["mean_sq_error"], final["stderr_sq_error"])

    @staticmethod
    def time_to_1pct(walls, quality):
        """Mean op wall x median over ops of (stderr/mean of the final E|e|^2 / 0.01)^2."""
        m, se = np.array(quality).T
        return float(np.mean(walls)) * float(np.median((se / m) ** 2)) * 1e4


def geometric_threshold(n: int, L: float, M: float) -> float:
    """Smallest k for which geometric_gains(k, n) is admissible (closed form).

    With ratios r_i = 3**(-i*(i+1)/2), kbar = s*k for s = L*sum(r) + r_n*M**2;
    the first term needs k > s, the middle terms (r_i**2 - 2*r_{i-1}*r_{i+1})*k > s
    and the last r_n**2*k - r_{n-1} > s.
    """
    r = 3.0 ** (-np.arange(n + 1) * (np.arange(n + 1) + 1) / 2.0)
    s = L * float(r.sum()) + r[-1] * M ** 2
    bounds = [s, (r[-2] + s) / r[-1] ** 2]
    bounds += [s / (r[i] ** 2 - 2.0 * r[i - 1] * r[i + 1]) for i in range(1, n)]
    return max(bounds)


class CertifyBatch(Workload):
    """Seeded PID/PD gain vectors of relative degree 1-8 through every check."""

    name = "certify-batch"
    # every fourth vector is rescaled to k0 = 10**U(-2, 1), far below its
    # family's admissibility threshold, so rejections run beside acceptances
    BELOW_EVERY = 4

    def setup(self):
        gains, _ = self.call("design.generate", sp.lambda_gains)(1.0, BENCH3_L, 0.0, 3)
        self.certify(gains, BENCH3_L, 0.0)

    def make_input(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        n = int(rng.integers(1, 9))
        kind = "pd" if rng.random() < 0.5 else "pid"
        L, M = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        below = i % self.BELOW_EVERY == self.BELOW_EVERY - 1
        k0 = 10.0 ** float(rng.uniform(-2.0, 1.0)) if below else None
        if rng.random() < 0.5:
            design = ("lambda", 10.0 ** float(rng.uniform(-1.0, 0.7)))
        else:
            design = ("geometric", geometric_threshold(n, L, M) * float(rng.uniform(1.001, 8.0)))
        return {"n": n, "kind": kind, "L": L, "M": M, "k0": k0, "design": design}

    def work(self, inp) -> int:
        return 1

    def run_op(self, inp):
        family, value = inp["design"]
        n, L, M = inp["n"], inp["L"], inp["M"]
        if family == "lambda":
            pid, _ = self.call("design.generate", sp.lambda_gains)(value, L, M, n)
        else:
            pid = self.call("design.generate", sp.geometric_gains)(value, n)
        k = pid.gains if inp["k0"] is None else pid.gains * (inp["k0"] / pid.gains[0])
        gains = sp.GainVector(inp["kind"], k if inp["kind"] == "pid" else k[1:])
        return (gains,) + self.certify(gains, L, M)

    def check(self, inp, out):
        gains, report, cert, hurwitz = out
        L, M = inp["L"], inp["M"]
        errors = []
        verdicts = (
            ("admissibility", oracles.admissible(gains.gains, L, M), report.admissible),
            ("certificate", oracles.certificate(gains.gains, L, M), cert is not None),
            ("hurwitz", oracles.hurwitz(np.append(gains.gains, 1.0)), hurwitz),
        )
        for what, oracle, got in verdicts:
            if oracle is not None and oracle != bool(got):
                errors.append(f"{what} verdict {got} but oracle {oracle} for {gains} (L={L}, M={M})")
        return errors, cert is not None

    @staticmethod
    def time_to_1pct(walls, quality):
        """Time to estimate the certified share p of the batch to 1% relative stderr."""
        p = float(np.mean(quality))
        return float(np.mean(walls)) * (1.0 - p) / p * 1e4


WORKLOADS = {w.name: w for w in (McWide, CliNarrow, CertifyBatch)}

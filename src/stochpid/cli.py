"""Command-line front end: gain design, certification, stability checks,
Monte Carlo simulation, bundled reproduction jobs and parameter sweeps.

Exit codes: 0 success, 1 usage/config error, 2 rejected design/certificate
(or unstable polynomial), 3 trajectory divergence.  All CSV outputs start
with '# key=value' metadata lines followed by a header row; reruns with the
same configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .design import (
    DesignReport,
    GainVector,
    bound_constants,
    check_inequality,
    check_inequality_pd,
    geometric_gains,
    lambda_gains,
)
from .lyapunov import CertificateError, verify_certificate
from .model import solve_equilibrium
from .plants import bench3, build_plant
from .simulate import Diverged, SimConfig, bound_envelope, simulate_paths
from .stability import IndeterminateStability, char_coeffs, determining_coeffs, is_hurwitz

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REJECTED = 2
EXIT_DIVERGED = 3

BENCH3_L = math.sqrt(3.0) / 2.0


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


# ---------------------------------------------------------------- helpers


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write_csv(path: Path, metadata: dict, header, rows) -> None:
    lines = [f"# {key}={metadata[key]}" for key in sorted(metadata)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _stats_csv(path: Path, metadata: dict, stats) -> None:
    _write_csv(path, metadata, stats.CSV_COLUMNS, stats.rows())


def _load_gains(args) -> GainVector:
    if getattr(args, "gains_file", None):
        try:
            doc = json.loads(Path(args.gains_file).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"gains file: {exc}") from None
        return _gains_from(doc, "gains file")
    if getattr(args, "gains", None):
        return _gains_from({"kind": args.kind, "gains": args.gains}, "--gains")
    raise ConfigError("provide --gains-file or --gains")


def _gains_from(doc, where: str) -> GainVector:
    if not isinstance(doc, dict) or "kind" not in doc or "gains" not in doc:
        raise ConfigError(f"{where}: expected an object with 'kind' and 'gains'")
    try:
        return GainVector(doc["kind"], np.asarray(doc["gains"], dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _save_gains(path: Path, g: GainVector) -> None:
    path.write_text(json.dumps({"kind": g.kind, "gains": [float(v) for v in g.gains]}) + "\n")


def _print_report(report) -> None:
    verdict = "admissible" if report.admissible else "NOT admissible"
    print(f"{verdict}: binding term {report.binding_term} = {report.binding_value:.6g}, "
          f"kbar = {report.kbar:.6g}, margin = {report.margin:.6g}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _sim_config(sim: dict, where: str = "sim") -> tuple[SimConfig, np.ndarray]:
    _require(isinstance(sim, dict), f"{where}: expected an object")
    for field in ("dt", "horizon", "paths", "seed"):
        _require(field in sim, f"{where}.{field}: required")
    y_star = np.atleast_1d(np.asarray(sim.get("y_star", 0.0), dtype=float))
    x0 = sim.get("x0")
    try:
        cfg = SimConfig(
            dt=float(sim["dt"]),
            horizon=float(sim["horizon"]),
            paths=int(sim["paths"]),
            seed=int(sim["seed"]),
            record_stride=int(sim.get("record_stride", 1)),
            controller=sim.get("controller", "pid"),
            x0=None if x0 is None else np.asarray(x0, dtype=float),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return cfg, y_star


def _run_config(doc: dict, workers: Optional[int]):
    _require(isinstance(doc, dict), "config: expected a JSON object")
    _require("plant" in doc, "plant: required section")
    _require("sim" in doc, "sim: required section")
    try:
        plant = build_plant(doc["plant"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg, y_star = _sim_config(doc["sim"])
    _require(y_star.shape == (plant.d,),
             f"sim.y_star: expected {plant.d} component(s), got {y_star.shape}")
    _require(cfg.x0 is None or cfg.x0.shape == (plant.state_dim,),
             f"sim.x0: expected {plant.state_dim} entries for this plant")
    gains = None
    if cfg.controller != "open_loop":
        _require("gains" in doc, "gains: required section for a closed-loop run")
        gains = _gains_from(doc["gains"], "gains")
    sp = solve_equilibrium(plant, y_star)
    stats = simulate_paths(plant, sp, gains, cfg, workers=workers)

    envelope = None
    if "bounds" in doc and gains is not None:
        bounds = doc["bounds"]
        _require(isinstance(bounds, dict), "bounds: expected an object")
        _require("lambda" in bounds, "bounds.lambda: required")
        lam = float(bounds["lambda"])
        R = float(bounds.get("R", 1.0))
        bc = bound_constants(gains, lam, plant.lipschitz_L, plant.lipschitz_M, R)
        x0 = sp.z_star if cfg.x0 is None else cfg.x0
        g_norm = float(np.linalg.norm(plant.eval_diffusion(sp.z_star)))
        envelope = bound_envelope(
            stats,
            bc,
            initial_dev=float(np.linalg.norm(x0 - sp.z_star)),
            u_star_norm=float(np.linalg.norm(sp.u_star)),
            g_norm_at_zstar=g_norm,
        )
    return plant, sp, gains, cfg, stats, envelope


# ------------------------------------------------------------ subcommands


def _design(args) -> tuple[GainVector, DesignReport]:
    if args.pattern == "bench3":
        _require(args.k is not None, "--k is required for the bench3 pattern")
        k = args.k
        g = GainVector("pid", np.array([k, 2.5 * k, 2.5 * k, k]))
        L = BENCH3_L if args.L is None else args.L
        report = check_inequality(g, L, args.M, args.b_lower)
    elif args.pattern == "geometric":
        _require(args.k is not None and args.n is not None,
                 "--k and --n are required for the geometric pattern")
        g = geometric_gains(args.k, args.n)
        L = args.L or 0.0
        report = check_inequality(g, L, args.M, args.b_lower)
    elif args.pattern == "lambda":
        _require(args.lam is not None and args.n is not None,
                 "--lam and --n are required for the lambda pattern")
        L = args.L or 0.0
        betas = np.asarray(args.betas, dtype=float) if args.betas else None
        g, used = lambda_gains(args.lam, L, args.M, args.n, args.b_lower, betas, args.k)
        print(f"ratios: {', '.join(f'{b:.6g}' for b in used)}")
        report = check_inequality(g, L, args.M, args.b_lower)
    else:
        g = _load_gains(args)
        L = args.L or 0.0
        if g.kind == "pid":
            report = check_inequality(g, L, args.M, args.b_lower)
        else:
            report = check_inequality_pd(g, L, args.M)
    return g, report


def _cmd_design(args) -> int:
    try:
        g, report = _design(args)
    except ValueError as exc:  # invalid pattern parameters, or gains that overflow float64
        raise ConfigError(str(exc)) from None
    print(f"gains ({g.kind}): {', '.join(f'{v:.10g}' for v in g.gains)}")
    _print_report(report)
    if args.out:
        _save_gains(Path(args.out), g)
        print(f"wrote {args.out}")
    return EXIT_OK if report.admissible else EXIT_REJECTED


def _cmd_certify(args) -> int:
    g = _load_gains(args)
    try:
        cert = verify_certificate(g, args.L, args.M)
    except CertificateError as exc:
        print(f"certificate rejected: {exc}")
        return EXIT_REJECTED
    except ValueError as exc:  # negative L or M, or gains that overflow float64
        raise ConfigError(str(exc)) from None
    print(f"certificate valid for (L={args.L:g}, M={args.M:g}), kbar={cert.kbar:.6g}")
    print(f"  min eig P        = {cert.min_eig_P:.6g}")
    print(f"  max eig P        = {cert.max_eig_P:.6g}")
    print(f"  min eig -(PA+A'P+2*kbar*I) = {cert.min_eig_negdef:.6g}")
    print(f"  Q diagonal       = {', '.join(f'{q:.6g}' for q in cert.Q)}")
    return EXIT_OK


def _cmd_hurwitz(args) -> int:
    g = _load_gains(args)
    coeffs = char_coeffs(g)
    print(f"characteristic coefficients (ascending): "
          f"{', '.join(f'{c:.10g}' for c in coeffs)}")
    if coeffs.size - 1 >= 3:
        alphas = determining_coeffs(coeffs)
        print(f"determining coefficients: {', '.join(f'{a:.6g}' for a in alphas)}")
    try:
        stable = is_hurwitz(g)
    except IndeterminateStability as exc:
        print(f"indeterminate: {exc}")
        return EXIT_REJECTED
    print(f"hurwitz: {stable}")
    return EXIT_OK if stable else EXIT_REJECTED


def _cmd_simulate(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from None
    plant, sp, gains, cfg, stats, envelope = _run_config(doc, args.workers)
    metadata = {
        "plant": plant.name or "custom",
        "controller": cfg.controller,
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "paths": cfg.paths,
        "seed": cfg.seed,
        "record_stride": cfg.record_stride,
        "y_star": ",".join(repr(float(v)) for v in sp.y_star),
        "u_star": ",".join(repr(float(v)) for v in sp.u_star),
    }
    if gains is not None:
        metadata["gains"] = ",".join(repr(float(v)) for v in gains.gains)
        metadata["gain_kind"] = gains.kind
    _stats_csv(Path(args.out), metadata, stats)
    print(f"wrote {args.out} ({stats.times.size} rows)")
    if envelope is not None:
        status = "ok" if envelope.upper_ok else f"{envelope.violations.size} violations"
        print(f"upper envelope: {status}")
        print(f"long-run estimate {envelope.tail_estimate:.6g} "
              f"(floor lower bound {envelope.lower_bound:.6g}, "
              f"{'ok' if envelope.lower_ok else 'VIOLATED'})")
    return EXIT_OK


# Reproduction jobs: parameter tuples are fixed, documented choices within
# the benchmark's uncertainty class; y* = 1 throughout.
FIG1_CASES = [
    {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0, "mu": 0.0, "sigma": 0.2},
    {"a": 0.4, "b": -0.3, "c": 0.5, "d": 6.0, "mu": 5.2, "sigma": 0.2},
    {"a": -0.5, "b": 0.5, "c": -0.5, "d": -3.0, "mu": 1.0, "sigma": 0.2},
    {"a": 0.25, "b": 0.1, "c": -0.2, "d": 10.0, "mu": 0.0, "sigma": 0.4},
]
FIG_GAINS = (8.6, 21.5, 21.5, 8.6)
FIG_SIGMAS = (0.0, 0.2, 0.4)
FIG2_PARAMS = {"a": 0.4, "b": -0.3, "c": 0.5, "d": 6.0, "mu": 5.2}
FIG1_X0 = (0.5, 0.5, 0.3)
FIG2_X0 = (0.9, 0.0, 0.1)
FIG3_X0 = (1.3, 0.0, 0.1)
FIG_YSTAR = 1.0


def _fig_run(params: dict, x0, args, controller: str = "pid"):
    plant = bench3(**params)
    g = GainVector("pid", np.asarray(FIG_GAINS))
    sp = solve_equilibrium(plant, FIG_YSTAR)
    cfg, _ = _sim_config({"dt": args.dt, "horizon": args.horizon, "paths": args.paths,
                          "seed": args.seed, "record_stride": args.stride,
                          "controller": controller, "x0": x0}, "reproduce")
    stats = simulate_paths(plant, sp, g, cfg, workers=args.workers)
    metadata = dict(params)
    metadata.update(
        dt=args.dt, horizon=args.horizon, paths=args.paths, seed=args.seed,
        record_stride=args.stride, x0=",".join(repr(float(v)) for v in x0),
        y_star=FIG_YSTAR, gains=",".join(repr(float(v)) for v in FIG_GAINS),
    )
    return stats, metadata


def _plot_script(path: Path, title: str, ylabel: str, curves, logscale: bool) -> None:
    lines = [
        "set datafile separator ','",
        "set grid",
        f"set title '{title}'",
        "set xlabel 't'",
        f"set ylabel '{ylabel}'",
    ]
    if logscale:
        lines.append("set logscale y")
    plot = ", ".join(
        f"'{fname}' using {cols} with lines title '{label}'" for fname, cols, label in curves
    )
    lines.append(f"plot {plot}")
    path.write_text("\n".join(lines) + "\n")


def _cmd_reproduce(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    job = args.job
    if job == "fig1":
        curves = []
        for i, params in enumerate(FIG1_CASES):
            stats, metadata = _fig_run(params, FIG1_X0, args)
            fname = f"fig1_case{i}.csv"
            _stats_csv(outdir / fname, metadata, stats)
            label = "abcd mu sigma = " + " ".join(
                f"{params[k]:g}" for k in ("a", "b", "c", "d", "mu", "sigma")
            )
            curves.append((fname, "1:2", label))
            print(f"wrote {outdir / fname}")
        _plot_script(outdir / "fig1.gp", "tracking error under parameter uncertainty",
                     "E|e(t)|^2", curves, logscale=False)
    elif job == "fig2":
        curves = []
        for sigma in FIG_SIGMAS:
            params = dict(FIG2_PARAMS, sigma=sigma)
            stats, metadata = _fig_run(params, FIG2_X0, args)
            fname = f"fig2_sigma{sigma:g}.csv"
            _stats_csv(outdir / fname, metadata, stats)
            curves.append((fname, "1:2", f"sigma={sigma:g}"))
            print(f"wrote {outdir / fname}")
        _plot_script(outdir / "fig2.gp", "tracking error under different noise intensities",
                     "E|e(t)|^2", curves, logscale=True)
    elif job == "fig3":
        u_curves, var_curves = [], []
        for sigma in FIG_SIGMAS:
            params = dict(FIG2_PARAMS, sigma=sigma)
            stats, metadata = _fig_run(params, FIG3_X0, args)
            fname = f"fig3_sigma{sigma:g}.csv"
            _stats_csv(outdir / fname, metadata, stats)
            u_curves.append((fname, "1:6", f"E|u|^2 sigma={sigma:g}"))
            var_curves.append((fname, "1:8", f"Var(u) sigma={sigma:g}"))
            print(f"wrote {outdir / fname}")
        _plot_script(outdir / "fig3_mean_sq_u.gp", "control input second moment",
                     "E|u(t)|^2", u_curves, logscale=False)
        _plot_script(outdir / "fig3_var_u.gp", "control input variance",
                     "Var(u(t))", var_curves, logscale=False)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown job {job!r}")
    print(f"gnuplot scripts written to {outdir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from None
    _require(isinstance(doc, dict), "config: expected a JSON object")
    rows = []
    for value in args.values:
        sweep_doc = json.loads(json.dumps(doc))  # deep copy
        if args.vary == "sigma":
            plant_sec = sweep_doc.get("plant", {})
            _require(plant_sec.get("kind") in ("bench3", "chain", "ou"),
                     "plant.kind: sigma sweeps need a builtin plant")
            plant_sec.setdefault("params", {})["sigma"] = value
        else:  # gain-scale
            _require("gains" in sweep_doc, "gains: required for a gain-scale sweep")
            sweep_doc["gains"]["gains"] = [value * g for g in sweep_doc["gains"]["gains"]]
        _, _, _, cfg, stats, _ = _run_config(sweep_doc, args.workers)
        tail = max(1, stats.times.size // 4)
        rows.append((
            value,
            float(np.mean(stats.mean_sq_error[-tail:])),
            float(np.mean(stats.stderr_sq_error[-tail:])),
            float(np.mean(stats.var_u[-tail:])),
        ))
        print(f"{args.vary}={value:g}: steady E|e|^2 = {rows[-1][1]:.6g} "
              f"(stderr {rows[-1][2]:.2g}), Var(u) = {rows[-1][3]:.6g}")
    metadata = {"vary": args.vary, "values": ",".join(f"{v:g}" for v in args.values)}
    _write_csv(Path(args.out), metadata,
               (args.vary, "steady_mean_sq_error", "stderr", "steady_var_u"), rows)
    print(f"wrote {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------- parser


def _add_gain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gains-file", help="JSON gains file ({'kind':..., 'gains':[...]})")
    p.add_argument("--gains", type=_float_list, help="comma-separated gain values")
    p.add_argument("--kind", choices=("pid", "pd"), default="pid",
                   help="gain kind when --gains is used")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochpid",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="generate/check gains; exit 2 when inadmissible")
    p.add_argument("--pattern", choices=("bench3", "geometric", "lambda"),
                   help="gain pattern; omit to check explicit --gains")
    p.add_argument("--k", type=float, help="scale parameter of the pattern")
    p.add_argument("--n", type=int, help="relative degree")
    p.add_argument("--L", type=float, default=None, help="drift Lipschitz constant")
    p.add_argument("--M", type=float, default=0.0, help="diffusion Lipschitz constant")
    p.add_argument("--b-lower", type=float, default=1.0, dest="b_lower",
                   help="lower bound on the symmetrized control gain matrix")
    p.add_argument("--lam", type=float, help="decay rate for the lambda pattern")
    p.add_argument("--betas", type=_float_list, help="ratio overrides for the lambda pattern")
    p.add_argument("--out", help="write the gains to this JSON file")
    _add_gain_args(p)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("certify", help="verify the Lyapunov certificate; exit 2 on rejection")
    _add_gain_args(p)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--M", type=float, default=0.0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("hurwitz", help="polynomial stability check; exit 2 when unstable")
    _add_gain_args(p)
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("simulate", help="Monte Carlo run from a JSON config; exit 3 on divergence")
    p.add_argument("--config", required=True, help="JSON config (plant/gains/sim[/bounds])")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads (default: STOCHPID_WORKERS or 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", help="bundled benchmark study jobs")
    p.add_argument("job", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--outdir", default="reproduce-out")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--stride", type=int, default=25)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("sweep", help="steady-state error grid over sigma or a gain scale")
    p.add_argument("--config", required=True)
    p.add_argument("--vary", choices=("sigma", "gain-scale"), required=True)
    p.add_argument("--values", type=_float_list, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Diverged as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())

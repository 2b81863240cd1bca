"""Command-line front end: gain design, certification, stability checks,
Monte Carlo simulation, bundled reproduction jobs and parameter sweeps.

`simulate`, `sweep` and `reproduce` run config documents through one path;
the reproduction jobs are bundled bench3 documents, one per curve.  Values
are checked by the library types that own them; this module checks each
section's keys with the one section rule (``model._section``: every
required key, no unknown one) and the values that span two sections, and
puts the section name in front of the library's message.

`main` parses with one parser per process, built on its first call: the
tree depends on nothing `main` is given, and each command looks up the
library functions it calls when it runs.  ``build_parser()`` builds a fresh
one.

Exit codes: 0 success, 1 usage/config error, 2 rejected design/certificate
(or unstable polynomial), 3 trajectory divergence or non-finite plant
output; `main` alone turns errors into these codes.  All CSV outputs start
with '# key=value' metadata lines followed by a header row; run CSVs record
the full run configuration.  Reruns with the same configuration produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .design import GainVector, bound_constants, check_inequality, geometric_gains, lambda_gains
from .lyapunov import CertificateError, q_diagonal, verify_certificate
from .model import (NoConvergence, NonFinite, _as_vec, _is_real, _require_constant, _section,
                    solve_equilibrium)
from .plants import BUILTIN_PLANTS, bench3, build_plant
from .simulate import (_NOISE_STREAM, Diverged, SimConfig, _law_weights, bound_envelope,
                       simulate_paths)
from .stability import char_coeffs, determining_coeffs, is_hurwitz

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REJECTED = 2
EXIT_DIVERGED = 3


# ---------------------------------------------------------------- helpers


def _float_list(text: str) -> list[float]:
    try:  # float("") raises, so an empty entry is an error, not a skipped one
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _write_csv(path: Path, metadata: dict, header, rows) -> None:
    lines = [f"# {key}={metadata[key]}" for key in sorted(metadata)]
    lines.append(",".join(header))
    lines.extend(",".join(map(repr, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _stats_csv(path: Path, metadata: dict, stats) -> None:
    _write_csv(path, metadata, stats.CSV_COLUMNS, stats.table().tolist())


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_json(path: str, where: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _load_gains(args) -> GainVector:
    if args.gains_file:
        _require(args.kind is None, "--kind: a gains file names its own kind")
        return _gains_from(_read_json(args.gains_file, "gains file"), "gains file")
    if args.gains:
        return _gains_from({"kind": args.kind or "pid", "gains": args.gains}, "--gains")
    raise ValueError("provide --gains-file or --gains")


def _gains_from(doc, where: str) -> GainVector:
    gains = _as_vec(_section(where, doc, ("kind", "gains"))["gains"], None, where)
    try:
        return GainVector(doc["kind"], gains)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _save_gains(path: Path, g: GainVector) -> None:
    path.write_text(json.dumps({"kind": g.kind, "gains": [float(v) for v in g.gains]}) + "\n")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _sim_config(sim: dict) -> SimConfig:
    """The sim section's SimConfig fields, checked by SimConfig itself."""
    fields = dataclasses.fields(SimConfig)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    _section("sim", sim, required, [f.name for f in fields if f.name not in required] + ["y_star"])
    try:
        return SimConfig(**{name: v for name, v in sim.items() if name != "y_star"})
    except ValueError as exc:  # SimConfig's messages start with the field name
        raise ValueError(f"sim.{exc}") from None


def _run_metadata(plant_doc: dict, sp, gains, cfg, x0) -> dict:
    """CSV metadata of a run: plant, builtin params, every SimConfig field, setpoint, noise."""
    metadata = dict(plant_doc.get("params", {})) if plant_doc["kind"] in BUILTIN_PLANTS else {}
    metadata.update({f.name: getattr(cfg, f.name) for f in dataclasses.fields(SimConfig)})
    metadata.update(plant=plant_doc["kind"], x0=_csv_list(x0), y_star=_csv_list(sp.y_star),
                    u_star=_csv_list(sp.u_star), noise=_NOISE_STREAM)
    if gains is not None:
        metadata.update(gains=_csv_list(gains.gains), gain_kind=gains.kind)
    return metadata


def _run_config(doc: dict, workers: int):
    """Run one config document; returns its stats, envelope report (or None) and CSV metadata."""
    _section("config", doc, ("plant", "sim"), ("gains", "bounds"))
    plant = build_plant(doc["plant"])
    cfg = _sim_config(doc["sim"])
    y_star = _as_vec(doc["sim"].get("y_star", 0.0), plant.d, "sim.y_star")
    _require(cfg.x0 is None or cfg.x0.shape == (plant.state_dim,),
             f"sim.x0: expected {plant.state_dim} entries for this plant")
    # an open-loop run checks a gains section it is given, then runs without it
    gains = _gains_from(doc["gains"], "gains") if "gains" in doc else None
    gains = None if cfg.controller == "open_loop" else gains
    _law_weights(cfg.controller, gains, plant, y_star)  # the gains fit controller and plant
    bc = None
    if "bounds" in doc:
        bounds = _section("bounds", doc["bounds"], ("lambda",), ("R",))
        # the gains fit the controller, so only the controller can be wrong here
        _require(cfg.controller == "pid", "bounds: the envelope constants are defined for the "
                 f"pid controller, not {cfg.controller}")
        lam, R = bounds["lambda"], bounds.get("R", 1.0)
        _require(_is_real(lam) and lam > 0,
                 f"bounds.lambda: expected a positive number, got {lam!r}")
        _require(_is_real(R) and R >= 0, f"bounds.R: expected a nonnegative number, got {R!r}")
        try:
            bc = bound_constants(gains, float(lam), plant.lipschitz_L, plant.lipschitz_M, float(R))
        except ValueError as exc:
            raise ValueError(f"bounds: {exc}") from None
    try:
        sp = solve_equilibrium(plant, y_star)
    except NoConvergence as exc:
        raise ValueError(f"sim.y_star: no equilibrium input: {exc}") from None
    stats = simulate_paths(plant, sp, gains, cfg, workers=workers)
    x0 = sp.z_star if cfg.x0 is None else cfg.x0

    envelope = None
    if bc is not None:
        g_norm = float(np.linalg.norm(plant.eval_diffusion(sp.z_star)))
        envelope = bound_envelope(
            stats,
            bc,
            initial_dev=float(np.linalg.norm(x0 - sp.z_star)),
            u_star_norm=float(np.linalg.norm(sp.u_star)),
            g_norm_at_zstar=g_norm,
        )
    return stats, envelope, _run_metadata(doc["plant"], sp, gains, cfg, x0)


# ------------------------------------------------------------ subcommands


def _cmd_design(args) -> int:
    # the flags each pattern reads besides --L, --M, --b-lower and --out; None: no --pattern
    reads = {"bench3": ("k",), "geometric": ("k", "n"), "lambda": ("lam", "n", "betas", "k"),
             None: ("gains", "gains_file", "kind")}
    pattern = f"the {args.pattern} pattern" if args.pattern else "design without --pattern"
    for name in sum(reads.values(), ()):
        _require(name in reads[args.pattern] or getattr(args, name) is None,
                 f"--{name.replace('_', '-')}: {pattern} does not read it")
    L = args.L or 0.0
    if args.pattern == "bench3":
        _require(args.k is not None, "--k is required for the bench3 pattern")
        _require_constant("k", args.k, positive=True)
        g = GainVector("pid", np.array([args.k, 2.5 * args.k, 2.5 * args.k, args.k]))
        L = bench3().lipschitz_L if args.L is None else args.L
    elif args.pattern == "geometric":
        _require(args.k is not None and args.n is not None,
                 "--k and --n are required for the geometric pattern")
        g = geometric_gains(args.k, args.n)
    elif args.pattern == "lambda":
        _require(args.lam is not None and args.n is not None,
                 "--lam and --n are required for the lambda pattern")
        betas = np.asarray(args.betas, dtype=float) if args.betas else None
        g, used = lambda_gains(args.lam, L, args.M, args.n, args.b_lower, betas, args.k)
        print(f"ratios: {', '.join(f'{b:.6g}' for b in used)}")
    else:
        g = _load_gains(args)
    report = check_inequality(g, L, args.M, args.b_lower)
    print(f"gains ({g.kind}): {', '.join(f'{v:.10g}' for v in g.gains)}")
    verdict = "admissible" if report.admissible else "NOT admissible"
    print(f"{verdict}: binding term {report.binding_term} = {report.binding_value:.6g}, "
          f"kbar = {report.kbar:.6g}, margin = {report.margin:.6g}")
    if args.out:
        _save_gains(Path(args.out), g)
        print(f"wrote {args.out}")
    return EXIT_OK if report.admissible else EXIT_REJECTED


def _cmd_certify(args) -> int:
    g = _load_gains(args)
    try:
        cert = verify_certificate(g, args.L, args.M)
    except CertificateError as exc:
        # condition (ii) is min(q) > 2*kbar, so both explain a rejection
        print(f"certificate rejected: {exc}")
        print(f"  Q diagonal       = {', '.join(f'{q:.6g}' for q in q_diagonal(g))}")
        print(f"  2*kbar           = {2.0 * g.kbar(args.L, args.M):.6g}")
        return EXIT_REJECTED
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
        try:
            alphas = determining_coeffs(coeffs)
            print(f"determining coefficients: {', '.join(f'{a:.6g}' for a in alphas)}")
        except ValueError as exc:  # they overflow; the exact verdict below does not
            print(exc)
    stable = is_hurwitz(g)
    print(f"hurwitz: {stable}")
    return EXIT_OK if stable else EXIT_REJECTED


def _cmd_simulate(args) -> int:
    doc = _read_json(args.config, "config")
    stats, envelope, metadata = _run_config(doc, args.workers)
    _stats_csv(Path(args.out), metadata, stats)
    print(f"wrote {args.out} ({stats.times.size} rows)")
    if envelope is not None:
        status = "ok" if envelope.upper_ok else f"{envelope.violations.size} violations"
        print(f"upper envelope: {status}")
        print(f"long-run estimate {envelope.tail_estimate:.6g} "
              f"(floor lower bound {envelope.lower_bound:.6g}, "
              f"{'ok' if envelope.lower_ok else 'VIOLATED'})")
    return EXIT_OK


def _bench3_doc(x0: list, params: dict) -> dict:
    return {"plant": {"kind": "bench3", "params": params},
            "gains": {"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]},
            "sim": {"x0": x0, "y_star": 1.0}}


def _sigma_curves(job: str, x0: list) -> list:
    return [(f"{job}_sigma{s:g}.csv", f"sigma={s:g}",
             _bench3_doc(x0, {"a": 0.4, "b": -0.3, "c": 0.5, "d": 6.0, "mu": 5.2, "sigma": s}))
            for s in (0.0, 0.2, 0.4)]


# Reproduction jobs: per curve a (CSV name, label, config document), then the
# gnuplot scripts as (name, title, ylabel, columns, label prefix, log y).  The
# fig1 parameter tuples are fixed, documented choices within the benchmark's
# uncertainty class.  The reproduce flags fill in the rest of each sim section.
JOBS = {
    "fig1": (
        [(f"fig1_case{i}.csv", "abcd mu sigma = " + " ".join(f"{v:g}" for v in params.values()),
          _bench3_doc([0.5, 0.5, 0.3], params))
         for i, params in enumerate([
             {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0, "mu": 0.0, "sigma": 0.2},
             {"a": 0.4, "b": -0.3, "c": 0.5, "d": 6.0, "mu": 5.2, "sigma": 0.2},
             {"a": -0.5, "b": 0.5, "c": -0.5, "d": -3.0, "mu": 1.0, "sigma": 0.2},
             {"a": 0.25, "b": 0.1, "c": -0.2, "d": 10.0, "mu": 0.0, "sigma": 0.4},
         ])],
        [("fig1.gp", "tracking error under parameter uncertainty", "E|e(t)|^2", "1:2", "", False)],
    ),
    "fig2": (
        _sigma_curves("fig2", [0.9, 0.0, 0.1]),
        [("fig2.gp", "tracking error under different noise intensities", "E|e(t)|^2", "1:2", "",
          True)],
    ),
    "fig3": (
        _sigma_curves("fig3", [1.3, 0.0, 0.1]),
        [("fig3_mean_sq_u.gp", "control input second moment", "E|u(t)|^2", "1:6", "E|u|^2 ",
          False),
         ("fig3_var_u.gp", "control input variance", "Var(u(t))", "1:8", "Var(u) ", False)],
    ),
}


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
    curves, scripts = JOBS[args.job]
    for fname, _, doc in curves:
        doc = copy.deepcopy(doc)
        doc["sim"].update(dt=args.dt, horizon=args.horizon, paths=args.paths, seed=args.seed,
                          record_stride=args.stride)
        stats, _, metadata = _run_config(doc, args.workers)
        outdir.mkdir(parents=True, exist_ok=True)  # a config error of the first run leaves none
        _stats_csv(outdir / fname, metadata, stats)
        print(f"wrote {outdir / fname}")
    for name, title, ylabel, cols, prefix, logscale in scripts:
        _plot_script(outdir / name, title, ylabel,
                     [(fname, cols, prefix + label) for fname, label, _ in curves], logscale)
    print(f"gnuplot scripts written to {outdir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = _read_json(args.config, "config")
    _section("config", doc, ("plant", "sim"), ("gains", "bounds"))
    _require(args.vary != "gain-scale" or _sim_config(doc["sim"]).controller != "open_loop",
             "sim.controller: an open_loop run ignores its gains, so it has no gain scale")
    rows = []
    for value in args.values:
        sweep_doc = copy.deepcopy(doc)
        if args.vary == "sigma":
            plant_sec = sweep_doc.get("plant", {})
            _require(isinstance(plant_sec, dict) and plant_sec.get("kind") in tuple(BUILTIN_PLANTS),
                     "plant.kind: sigma sweeps need a builtin plant")
            params = plant_sec.setdefault("params", {})
            _require(isinstance(params, dict), "plant.params: expected an object")
            params["sigma"] = value
        else:  # gain-scale
            _require("gains" in sweep_doc, "gains: required for a gain-scale sweep")
            gains = _gains_from(sweep_doc["gains"], "gains")
            sweep_doc["gains"]["gains"] = (value * gains.gains).tolist()
        stats, _, _ = _run_config(sweep_doc, args.workers)
        rows.append((value, *map(stats.tail_mean, ("mean_sq_error", "stderr_sq_error", "var_u"))))
        print(f"{args.vary}={value!r}: steady E|e|^2 = {rows[-1][1]:.6g} "
              f"(stderr {rows[-1][2]:.2g}), Var(u) = {rows[-1][3]:.6g}")
    metadata = {"vary": args.vary, "values": _csv_list(args.values)}
    _write_csv(Path(args.out), metadata,
               (args.vary, "steady_mean_sq_error", "stderr", "steady_var_u"), rows)
    print(f"wrote {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------- parser


def _add_gain_args(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()  # a second source would be ignored
    source.add_argument("--gains-file", help="JSON gains file ({'kind':..., 'gains':[...]})")
    source.add_argument("--gains", type=_float_list, help="comma-separated gain values")
    p.add_argument("--kind", choices=("pid", "pd"),
                   help="gain kind of --gains (default: pid)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, which means rejected or unstable here
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stochpid",
        description="Design, certify and simulate extended PID/PD control of stochastic systems.",
        epilog="exit codes: 0 success, 1 usage or config error, 2 rejected design, certificate "
               "or unstable polynomial, 3 diverged run or non-finite plant output",
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
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker threads (default: 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", help="bundled benchmark study jobs")
    p.add_argument("job", choices=("fig1", "fig2", "fig3"))
    p.add_argument("--outdir", default="reproduce-out")
    p.add_argument("--paths", type=_positive_int, default=20000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--stride", type=_positive_int, default=25)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("sweep", help="steady-state error grid over sigma or a gain scale")
    p.add_argument("--config", required=True)
    p.add_argument("--vary", choices=("sigma", "gain-scale"), required=True)
    p.add_argument("--values", type=_float_list, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_sweep)

    return parser


# the one parser `main` uses: the tree is the same for every argv
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (Diverged, NonFinite) as exc:  # before ValueError: NonFinite is one
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

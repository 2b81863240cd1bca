"""stochpid benchmark: one workload per invocation, seeded, checked.

    python3 perfbench/run.py --workload {mc-wide,cli-narrow,certify-batch}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the library is imported from
``src/``.  Every measurement runs in a child process that does only that
workload, so peak RSS belongs to it.  ``--trace 0`` prints the end-to-end
metrics: set-up time is the median over several fresh processes, and the
timed section runs ops for ``--seconds``, checking each output (op times are
scaled to a reference host speed; see perfbench/README.md).  ``--trace 1`` prints the per-layer metrics of a fixed
number of ops, each run once without spans and once with them, interleaved,
which also gives the tracing overhead.  The last line of standard output is the JSON result; results and
spans are also written to ``perfbench/out/``.  ``--smoke`` runs each
workload at a tiny size.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from spans import ROOTS, Tracer, exclusive_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SOURCE = ROOT / "src" / "stochpid"

WORKLOAD_NAMES = ("mc-wide", "cli-narrow", "certify-batch")
SETUP_CHILDREN = 6  # fresh processes timing set-up alone, besides the run itself
CHILD_TIMEOUT_S = 170
# End-to-end timings are scaled to the host speed at which the workload's
# reference kernel (_kernel_ms, Workload.KERNEL) takes its reference time;
# the kernel is re-timed at most every KERNEL_EVERY_S, since the host's speed
# drifts over seconds; the median of the last KERNEL_WINDOW timings damps
# the kernel's own jitter.
KERNEL_EVERY_S = 0.1
KERNEL_WINDOW = 5
# traced ops per second of --seconds: each op runs twice (plain and traced)
# plus its checks, so one traced run takes about --seconds
TRACE_OPS_PER_S = {"mc-wide": 0.2, "cli-narrow": 5.0, "certify-batch": 150.0}
SMOKE_OPS = {"mc-wide": 2, "cli-narrow": 4, "certify-batch": 40}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_ms_mean": "ms",
    "op_ms_p90": "ms",
    "work_per_s": "1/s",
    "time_to_1pct_s": "s",
    "peak_rss_mb": "MB",
}
# exclusive (self) time of each layer, by span name; the roots are other_s
SELF_TIMES = {
    "simulate.self_s": ("simulate",),
    "plants.drift_s": ("plants.drift",),
    "plants.diffusion_s": ("plants.diffusion",),
    "expr.eval_s": ("expr.eval",),
    "expr.parse_s": ("expr.parse",),
    "model.solve_equilibrium_s": ("model.solve_equilibrium",),
    "cli.self_s": ("cli.main",),
    "design.self_s": ("design.generate", "design.check"),
    "lyapunov.self_s": ("lyapunov.verify",),
    "stability.self_s": ("stability.is_hurwitz",),
    "other_s": ROOTS,
}
CALLS = {
    "simulate.calls": ("simulate",),
    "plants.drift_calls": ("plants.drift",),
    "plants.diffusion_calls": ("plants.diffusion",),
    "expr.eval_calls": ("expr.eval",),
    "model.solve_equilibrium_calls": ("model.solve_equilibrium",),
    "design.calls": ("design.generate", "design.check"),
}
COUNTERS = ("simulate.path_steps", "cli.csv_bytes", "lyapunov.rejected")
PERCENTILES_US = {  # name -> (span name, percentile, tag or None for all)
    "design.generate_us_p50": ("design.generate", 50, None),
    "design.check_us_p50": ("design.check", 50, None),
    "lyapunov.verify_us_p50": ("lyapunov.verify", 50, None),
    "lyapunov.verify_us_p99": ("lyapunov.verify", 99, None),
    **{f"lyapunov.verify_us_p50.n{n}": ("lyapunov.verify", 50, n) for n in range(1, 9)},
    "stability.is_hurwitz_us_p50": ("stability.is_hurwitz", 50, None),
    "stability.is_hurwitz_us_p99": ("stability.is_hurwitz", 99, None),
}
PER_LAYER = {  # name -> unit
    "simulate.calls": "count",
    "simulate.path_steps": "count",
    "simulate.self_s": "s",
    "simulate.thread_speedup": "x",
    "plants.drift_calls": "count",
    "plants.drift_s": "s",
    "plants.diffusion_calls": "count",
    "plants.diffusion_s": "s",
    "expr.eval_calls": "count",
    "expr.eval_s": "s",
    "expr.parse_s": "s",
    "model.solve_equilibrium_calls": "count",
    "model.solve_equilibrium_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "count",
    "design.generate_us_p50": "us",
    "design.check_us_p50": "us",
    "design.calls": "count",
    "design.self_s": "s",
    "lyapunov.verify_us_p50": "us",
    "lyapunov.verify_us_p99": "us",
    **{f"lyapunov.verify_us_p50.n{n}": "us" for n in range(1, 9)},
    "lyapunov.rejected": "count",
    "lyapunov.self_s": "s",
    "stability.is_hurwitz_us_p50": "us",
    "stability.is_hurwitz_us_p99": "us",
    "stability.self_s": "s",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


# ------------------------------------------------------------------ child


def _kernel_ms(arrays, reps: int, pool) -> float:
    """Best of three timings, in ms, of ``reps`` small numpy expressions on
    each array, the arrays on as many threads (inline for one)."""

    def body(a):
        for _ in range(reps):
            (a * 1.1 + a).sum()

    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        if pool is None:
            body(arrays[0])
        else:
            list(pool.map(body, arrays))
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def _ops_loop(wl, n_ops=None, seconds=None):
    """Run ops until ``n_ops`` are done or ``seconds`` have passed; time and check each.

    Returns per-op wall times, host-speed scales and work units, the check
    quality (None where a check failed), the errors and the op count.  The
    scale is the workload's reference kernel time over the median of the
    kernel's last KERNEL_WINDOW timings, the last taken at most
    KERNEL_EVERY_S before the op.
    """
    import numpy as np

    threads, rows, reps, ref_ms = wl.KERNEL
    arrays = [np.random.default_rng(t).random((rows, 3)) for t in range(threads)]
    # arrays, not lists of floats, so the benchmark's own memory does not
    # grow with the op count (which follows the host speed) and move peak RSS
    walls, scales, work = array("d"), array("d"), array("d")
    quality, errors = [], []
    attempted = 0
    kernel_ms = deque(maxlen=KERNEL_WINDOW)
    scale, scaled_at = 1.0, -float("inf")
    with ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
        start = time.perf_counter()
        while (attempted < n_ops) if n_ops is not None else (time.perf_counter() - start < seconds):
            inp = wl.make_input(attempted)
            attempted += 1
            if time.perf_counter() - scaled_at > KERNEL_EVERY_S:
                kernel_ms.append(_kernel_ms(arrays, reps, pool))
                scale, scaled_at = ref_ms / statistics.median(kernel_ms), time.perf_counter()
            t = time.perf_counter()
            try:
                out = wl.run_op(inp)
            except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
                errors.append(f"op {attempted - 1}: {type(exc).__name__}: {exc}")
                continue
            walls.append(time.perf_counter() - t)
            scales.append(scale)
            work.append(wl.work(inp))
            errs, q = wl.check(inp, out)
            if errs:
                errors.append(f"op {attempted - 1}: " + "; ".join(errs))
            quality.append(None if errs else q)
    return walls, scales, work, quality, errors, attempted


def _timings(wl, walls, work, quality) -> dict:
    import numpy as np

    checked = [(w, q) for w, q in zip(walls, quality) if q is not None]
    return {
        "op_ms_mean": float(np.mean(walls)) * 1e3,
        "op_ms_p90": float(np.percentile(walls, 90)) * 1e3,
        "work_per_s": float(np.sum(work) / np.sum(walls)),
        "time_to_1pct_s": wl.time_to_1pct(*zip(*checked)) if checked else 0.0,
    }


def _child_run(args, t0):
    import numpy as np

    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, None, Path(workdir))
        wl.setup()
        setup_s = time.perf_counter() - t0
        n_ops = SMOKE_OPS[args.workload] if args.smoke else None
        walls, scales, work, quality, errors, attempted = _ops_loop(wl, n_ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = np.asarray(walls)
    raw = _timings(wl, walls, work, quality)
    metrics = _timings(wl, walls * np.asarray(scales), work, quality)
    metrics["peak_rss_mb"] = peak_rss_mb
    return {"setup_s": setup_s, "metrics": metrics, "raw_timings": raw,
            "host_scale_median": float(np.median(scales)), "attempted": attempted,
            "failed": len(errors), "errors": errors[:10], "ops": int(walls.size),
            "numpy": np.__version__}


def _child_trace(args, t0):
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        with tracer.root("setup", "setup"):
            import numpy as np

            import workloads

            traced = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tracer, Path(workdir))
            traced.setup()
        plain = workloads.WORKLOADS[args.workload](args.seed, args.smoke, None, Path(workdir))
        plain.setup()

        if args.smoke:
            n_ops = SMOKE_OPS[args.workload]
        else:
            n_ops = max(2, round(args.seconds * TRACE_OPS_PER_S[args.workload]))
        plain_walls, traced_walls, errors = [], [], []
        first = None
        for i in range(n_ops):
            inp = plain.make_input(i)
            # alternate which pass goes first so neither gets the warmer caches
            for wl in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                try:
                    if wl is plain:
                        t = time.perf_counter()
                        out = wl.run_op(inp)
                        plain_walls.append(time.perf_counter() - t)
                    else:
                        with tracer.root("op", i):
                            out = wl.run_op(inp)
                        traced_walls.append((tracer.spans[-1][4] - tracer.spans[-1][3]) * 1e-9)
                except Exception as exc:  # counted as a failed op
                    errors.append(f"op {i}: {type(exc).__name__}: {exc}")
                    continue
                errs, _ = wl.check(inp, out)
                if errs:
                    errors.append(f"op {i}: " + "; ".join(errs))
                if wl is plain and i == 0:
                    first = out
        attempted = 2 * n_ops

        speedup = 0.0
        if args.workload == "mc-wide" and first is not None:
            # same op at one worker: moments must be bitwise identical
            attempted += 1
            t = time.perf_counter()
            serial = plain.run_op(plain.make_input(0), workers=1)
            speedup = (time.perf_counter() - t) / plain_walls[0]
            if not all(np.array_equal(getattr(serial, c), getattr(first, c))
                       for c in serial.CSV_COLUMNS[1:]):
                errors.append("moments differ between 1 and 2 workers")

    spans = tracer.spans
    roots = [s for s in spans if s[1] in ROOTS]
    wall = sum(s[4] - s[3] for s in roots) * 1e-9
    excl = exclusive_times(spans)
    durations = {}
    for s in spans:
        durations.setdefault(s[1], []).append((s[4] - s[3], s[2]))

    metrics = {name: sum(excl.get(n, 0.0) for n in names) for name, names in SELF_TIMES.items()}
    metrics.update({name: sum(len(durations.get(n, ())) for n in names) for name, names in CALLS.items()})
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNTERS})
    for name, (span, q, tag) in PERCENTILES_US.items():
        ns = [d for d, t in durations.get(span, ()) if tag is None or t == tag]
        metrics[name] = float(np.percentile(ns, q)) * 1e-3 if ns else 0.0
    metrics["simulate.thread_speedup"] = speedup
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_frac"] = sum(traced_walls) / sum(plain_walls) - 1.0
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    return {"metrics": metrics, "attempted": attempted, "failed": len(errors),
            "errors": errors[:10], "ops": n_ops, "numpy": np.__version__}


def _child_setup(args, t0):
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.smoke, None, OUT).setup()
    return {"setup_s": time.perf_counter() - t0}


def child_main(args) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    result = {"run": _child_run, "trace": _child_trace, "setup": _child_setup}[args.child](args, t0)
    print(json.dumps(result))


# ----------------------------------------------------------------- parent


def _spawn(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(args, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def parent_main(args) -> None:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    if args.trace:
        child = _spawn(args, "trace", deadline)
        units = PER_LAYER
    else:
        setups = [_spawn(args, "setup", deadline)["setup_s"]
                  for _ in range(1 if args.smoke else SETUP_CHILDREN)]
        child = _spawn(args, "run", deadline)
        child["metrics"]["setup_s"] = statistics.median(setups + [child["setup_s"]])
        units = END_TO_END
    metrics = {name: {"value": child["metrics"][name], "unit": unit} for name, unit in units.items()}
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}

    prov = provenance(args, child["numpy"])
    record = dict(result, provenance=prov, ops=child["ops"], errors=child["errors"],
                  failed_frac=child["failed"] / child["attempted"],
                  **{k: child[k] for k in ("raw_timings", "host_scale_median") if k in child})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# provenance {json.dumps(prov)}")
    print(f"# {args.workload}: {child['ops']} ops, failed_frac = {record['failed_frac']:g} "
          f"({child['failed']} of {child['attempted']})")
    for error in child["errors"]:
        print(f"# failed: {error}")
    for key, m in metrics.items():
        print(f"#   {key:32s} {m['value']:>16.6g} {m['unit']}")
    for key, value in child.get("raw_timings", {}).items():
        print(f"#   unscaled {key:23s} {value:>16.6g} (host scale {child['host_scale_median']:.4g})")
    print(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, few ops")
    parser.add_argument("--child", choices=("run", "trace", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SOURCE / "__init__.py").is_file():
        sys.exit(f"no stochpid sources under {SOURCE}: run from a source checkout")
    if args.child:
        child_main(args)
    else:
        parent_main(args)


if __name__ == "__main__":
    main()

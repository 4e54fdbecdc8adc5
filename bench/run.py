"""rabsde benchmark: one workload, closed loop, single process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each operation starts when the previous one ends (rabsde is a batch solver,
not a service) and repeats the whole `rabsde run` path on the config the seed
generates. Operations start until S seconds have passed, and at least
MIN_OPS of them run. Every result is checked after its timed region; an
exception, non-convergence or a missed check counts the operation as failed.

--trace 0 reports the end-to-end metrics, with nothing wrapped. --trace 1
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones, plus the tracing overhead: the gap between the traced
and the untraced median run_s.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it print every metric with its unit,
the sample count and, where at least 21 samples allow one, the highest
percentile that has ten samples beyond it. The run record (environment, every
sample) goes to .bench_out/<workload>/run-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_OPS = 3

# name -> unit; "B_computed" marks byte counts computed from array shapes
PER_LAYER = {
    "config.load_s": "s",
    "config.resolve_s": "s",
    "config.build_s": "s",
    "grids.sample_brownian_s": "s",
    "grids.path_bytes": "B_computed",
    "conditional.ce_builds": "count",
    "conditional.factorizations": "count",
    "conditional.fit_first_s": "s",
    "conditional.fit_calls": "count",
    "conditional.fit_s": "s",
    "conditional.design_bytes": "B_computed",
    "conditional.auto_ridge_steps": "count",
    "conditional.tree_ce_calls": "count",
    "conditional.tree_ce_s": "s",
    "sweep.calls": "count",
    "sweep.s": "s",
    "sweep.self_s": "s",
    "generators.eval_f_calls": "count",
    "generators.eval_f_s": "s",
    "generators.infconv_s": "s",
    "resistance.eval_G_calls": "count",
    "resistance.eval_G_s": "s",
    "picard.sweeps": "count",
    "picard.distance_calls": "count",
    "picard.distance_s": "s",
    "picard.self_s": "s",
    "io.write_s": "s",
    "io.bytes": "B",
    "io.rows": "count",
    "analysis.minimal_s": "s",
    "analysis.sandwich_s": "s",
    "analysis.levels": "count",
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def _layer_metrics(tracer, counts: dict) -> dict:
    agg = tracer.aggregate()

    def calls(*names):
        return sum(agg[n][0] for n in names if n in agg)

    def total(*names):
        return sum(agg[n][1] for n in names if n in agg)

    def own(name):
        return agg[name][2] if name in agg else 0.0

    fits = ("conditional.fit", "conditional.fit_first")
    return {
        "config.load_s": total("config.load_config"),
        "config.resolve_s": total("config.resolve_config"),
        "config.build_s": own("config.build_problem"),
        "grids.sample_brownian_s": total("grids.sample_brownian"),
        "grids.path_bytes": counts.get("grids.path_bytes", 0),
        "conditional.ce_builds": calls("conditional.RegressionCE"),
        "conditional.factorizations": calls("conditional.fit_first"),
        "conditional.fit_first_s": total("conditional.fit_first"),
        "conditional.fit_calls": calls(*fits),
        "conditional.fit_s": total(*fits),
        "conditional.design_bytes": tracer.design_bytes,
        "conditional.auto_ridge_steps": counts.get("conditional.auto_ridge_steps", 0),
        "conditional.tree_ce_calls": calls("conditional.tree_ce"),
        "conditional.tree_ce_s": total("conditional.tree_ce"),
        "sweep.calls": calls("sweep.sweep"),
        "sweep.s": total("sweep.sweep"),
        "sweep.self_s": own("sweep.sweep"),
        "generators.eval_f_calls": calls("generators.eval_f"),
        "generators.eval_f_s": total("generators.eval_f"),
        "generators.infconv_s": total("generators.InfConvolutionApprox"),
        "resistance.eval_G_calls": calls("resistance.eval_G"),
        "resistance.eval_G_s": total("resistance.eval_G"),
        "picard.sweeps": tracer.count_children("sweep.sweep", "picard.solve_rabsde"),
        "picard.distance_calls": calls("picard.weighted_distance"),
        "picard.distance_s": total("picard.weighted_distance"),
        "picard.self_s": own("picard.solve_rabsde"),
        "io.write_s": total("io.write"),
        "io.bytes": counts.get("io.bytes", 0),
        "io.rows": counts.get("io.rows", 0),
        "analysis.minimal_s": total("analysis.run_minimal_scheme"),
        "analysis.sandwich_s": total("analysis.run_sandwich"),
        "analysis.levels": counts.get("analysis.levels", 0),
        "trace.spans": len(tracer),
    }


def _tail(samples: list):
    """Highest whole percentile with at least ten samples beyond it, by
    nearest rank, or None when fewer than 21 samples leave none above the
    median."""
    n = len(samples)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p <= 50:
        return None
    ordered = sorted(samples)
    return p, ordered[math.ceil(p * n / 100) - 1]


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _describe(name: str, unit: str, samples: list) -> str:
    line = f"{name:<30} median={_median(samples):.6g} {unit}  n={len(samples)}"
    tail = _tail(samples)
    if tail is None:
        return line + "  (no tail percentile: fewer than 21 samples)"
    p, value = tail
    return line + f"  {name}.p{p}={value:.6g} {unit}"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rabsde", "__init__.py")):
        print(f"error: no rabsde package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    import envinfo

    envinfo.single_thread_blas()
    sys.path.insert(0, src)
    import rabsde

    if not os.path.abspath(rabsde.__file__).startswith(src + os.sep):
        print(f"error: rabsde imported from {rabsde.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    base = os.path.join(ROOT, ".bench_out", workload.name)
    art_dir = os.path.join(base, "artifacts")
    os.makedirs(base, exist_ok=True)
    config_path = os.path.join(base, f"config-seed{args.seed}.json")
    workloads.write_config(workload, args.seed, config_path)

    env = envinfo.environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    checker = workloads.Checker(workload)
    tracer = tracing.Tracer()
    ops: list = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        rec: dict = {"traced": traced, "failures": []}
        tracer.reset()
        try:
            if traced:
                with tracer.installed():
                    out = workloads.run_operation(workload, config_path, art_dir)
            else:
                out = workloads.run_operation(workload, config_path, art_dir)
            rec.update(run_s=out.run_s, setup_s=out.setup_s, solve_s=out.solve_s, write_s=out.write_s)
            rec["failures"], rec["counts"] = checker.check(out, art_dir)
            del out
            if traced:
                rec["layers"] = _layer_metrics(tracer, rec["counts"])
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc()
            rec["failures"].append(f"{type(exc).__name__}: {exc}")
        tracer.reset()
        # Unlinked files drop their dirty pages unwritten, so no operation
        # waits on disk writeback of an earlier one's artifacts.
        shutil.rmtree(art_dir, ignore_errors=True)
        gc.collect()
        for msg in rec["failures"]:
            print(f"check failed (op {len(ops)}): {msg}", file=sys.stderr)
        ops.append(rec)
        enough = len(ops) >= MIN_OPS and perf_counter() - start >= args.seconds
        if enough and (not args.trace or any(r["traced"] for r in ops)):
            break

    failed = sum(1 for r in ops if r["failures"])
    plain = [r for r in ops if not r["traced"] and "run_s" in r]
    traced_ops = [r for r in ops if "layers" in r]
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} ops={len(ops)}")
    if args.trace:
        untraced = _median([r["run_s"] for r in plain])
        traced_run = _median([r["run_s"] for r in traced_ops])
        extra = {
            "trace.run_s": traced_run,
            "trace.untraced_run_s": untraced,
            "trace.overhead_s": traced_run - untraced,
            "trace.overhead_frac": (traced_run - untraced) / untraced if untraced else 0.0,
        }
        metrics = {}
        for name, unit in PER_LAYER.items():
            samples = [r["layers"][name] for r in traced_ops] if name not in extra else [extra[name]]
            print(_describe(name, unit, samples))
            metrics[name] = {"value": _median(samples), "unit": unit}
    else:
        metrics = {}
        for name in ("run_s", "setup_s", "solve_s"):
            samples = [r[name] for r in plain]
            print(_describe(name, "s", samples))
            metrics[name] = {"value": _median(samples), "unit": "s"}
        print(_describe("write_s", "s", [r["write_s"] for r in plain]))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{'peak_rss_mb':<30} {peak:.6g} MB (process peak, checks included)")
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        counts = {k: v for r in reversed(plain) for k, v in r.get("counts", {}).items()}
        for key in sorted(counts):
            print(f"{key:<30} {counts[key]} (count per operation)")
    print(f"{'failed_frac':<30} {failed / len(ops):.6g} ({failed}/{len(ops)})")

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "ops": ops, "metrics": metrics}
    with open(os.path.join(base, f"run-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

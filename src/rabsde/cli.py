"""Batch front end.

    rabsde run CONFIG.json -o OUTDIR     execute the configured experiment
    rabsde replay OUTDIR                 re-run from the echoed config and
                                         byte-compare the artifacts

Exit codes: 0 success, 1 internal error, 2 configuration error,
3 precondition/validation failure, 4 non-convergence, 5 replay mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import analysis, fixtures
from .config import (
    build_problem, canonical_json, config_hash, load_config, picard_config, resistance_functional, resolve_config,
)
from .errors import ConfigurationError, GeneratorEvalError, NonConvergenceError, ValidationError
from .grids import build_grid
from .io import ensure_dir, write_report_json, write_solution_csv, write_trace_csv
from .picard import MARGIN_BOUND, compute_constants, solve_rabsde
from .resistance import check_L2_lipschitz, check_monotone, check_nonanticipation, check_sup_lipschitz

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_REPLAY_MISMATCH = 5


def _echo_config(resolved: dict, outdir: str) -> str:
    digest = config_hash(resolved)
    echo = dict(resolved)
    echo["config_hash"] = digest
    with open(os.path.join(outdir, "resolved_config.json"), "w") as fh:
        fh.write(canonical_json(echo) + "\n")
    return digest


def _solution_meta(resolved: dict, digest: str) -> dict:
    meta = {"config_hash": digest, "backend": resolved["backend"]["kind"]}
    meta.update({k: resolved["grid"][k] for k in ("T", "delta", "N", "M")})
    if "ensemble" in resolved:
        meta["seed"] = resolved["ensemble"]["seed"]
        meta["d"] = resolved["ensemble"]["d"]
    return meta


def run_experiment(config_path: str, outdir: str) -> int:
    raw = load_config(config_path)
    resolved = resolve_config(raw)
    ensure_dir(outdir)
    digest = _echo_config(resolved, outdir)
    mode = resolved["mode"]

    if mode == "constants":
        mp = resolved["mode_params"]
        params, margin = compute_constants(C=mp["C"], C1=mp["C1"], L=mp["L"], T=mp["T"], delta=mp["delta"])
        payload = {
            "lambda": params.lam,
            "beta": params.beta,
            "gamma": params.gamma,
            "margin": margin,
            "lambda_floored": params.lambda_floored,
            "overflowed": params.overflowed,
            "guarantee": "ok" if margin <= MARGIN_BOUND else "void",
        }
        write_report_json(os.path.join(outdir, "constants.json"), payload)
        print(
            f"constants lambda={params.lam} beta={params.beta} gamma={params.gamma} "
            f"margin={margin} guarantee={payload['guarantee']}"
        )
        return EXIT_OK

    if mode == "validate-G":
        g = resolved["grid"]
        grid = build_grid(T=g["T"], delta=g["delta"], N=g["N"], M=g["M"])
        G = resistance_functional(resolved)
        mp = resolved["mode_params"]
        trials, seed = mp["trials"], mp["seed"]
        checks = {
            "nonanticipation": check_nonanticipation(G, grid, trials=trials, seed=seed),
            "sup_lipschitz": check_sup_lipschitz(G, grid, trials=trials, seed=seed + 1),
            "l2_lipschitz": check_L2_lipschitz(G, grid, trials=trials, seed=seed + 3),
        }
        if G.declared_monotone:
            checks["monotone"] = check_monotone(G, grid, trials=trials, seed=seed + 2)
        payload = {
            name: {"passed": rep.passed, "trials": rep.trials, "worst_ratio": rep.worst_ratio, "detail": rep.detail}
            for name, rep in checks.items()
        }
        write_report_json(os.path.join(outdir, "g_checks.json"), payload)
        all_ok = all(rep.passed for rep in checks.values())
        print(f"validate-G functional={G.label()} checks={len(checks)} all_passed={all_ok}")
        return EXIT_OK if all_ok else EXIT_VALIDATION

    if mode == "compare":
        wanted = resolved["mode_params"]["fixture"]
        setups = fixtures.comparison_fixtures()
        if wanted != "all":
            setups = [s for s in setups if s.name == wanted]
            if not setups:
                raise ConfigurationError(
                    f"unknown comparison fixture {wanted!r}; shipped: "
                    f"{[s.name for s in fixtures.comparison_fixtures()]}"
                )
        reports = {}
        for setup in setups:
            rep = analysis.run_comparison(setup)
            reports[setup.name] = {
                "passed": rep.passed,
                "y_violations": rep.y_violations,
                "k_violations": rep.k_violations,
                "extension_violations": rep.extension_violations,
                "points_checked": rep.points_checked,
                "root_gap": rep.root_gap,
                "violation_coordinates": rep.coordinates,
            }
        write_report_json(os.path.join(outdir, "comparison_report.json"), reports)
        n_pass = sum(r["passed"] for r in reports.values())
        print(f"compare fixtures={len(reports)} passed={n_pass}")
        return EXIT_OK if n_pass == len(reports) else EXIT_VALIDATION

    cfg = picard_config(resolved)
    problem = build_problem(resolved)
    meta = _solution_meta(resolved, digest)

    if mode == "solve":
        try:
            sol, report = solve_rabsde(problem, config=cfg)
        except NonConvergenceError as exc:
            if exc.triple is not None:
                write_solution_csv(os.path.join(outdir, "solution.csv"), exc.triple, problem.grid, meta)
            if exc.report is not None:
                write_trace_csv(os.path.join(outdir, "picard_trace.csv"), exc.report)
            print(f"solve converged=False iterations={exc.report.iterations} guarantee="
                  f"{'void' if exc.report.guarantee_void else 'ok'}")
            return EXIT_NONCONVERGENCE
        write_solution_csv(os.path.join(outdir, "solution.csv"), sol, problem.grid, meta)
        write_trace_csv(os.path.join(outdir, "picard_trace.csv"), report)
        guarantee = "void" if report.guarantee_void else "ok"
        final_d = report.distances.get(report.iterations, 0.0)
        print(
            f"solve converged=True iterations={report.iterations} distance={final_d:.3e} "
            f"root={sol.root_value()!r} guarantee={guarantee}"
        )
        return EXIT_OK

    if mode == "sandwich":
        rep = analysis.run_sandwich(problem, config=cfg)
        payload = {
            "passed": rep.passed,
            "violations": rep.violations,
            "upper_margin": rep.upper_margin,
            "lower_margin": rep.lower_margin,
            "upper_guarantee_void": rep.upper_guarantee_void,
            "lower_guarantee_void": rep.lower_guarantee_void,
        }
        write_report_json(os.path.join(outdir, "sandwich_report.json"), payload)
        print(f"sandwich passed={rep.passed} violations={rep.violations}")
        return EXIT_OK if rep.passed else EXIT_VALIDATION

    # minimal
    mp = resolved["mode_params"]
    box = {k: tuple(v) for k, v in mp["box"].items()}
    result = analysis.run_minimal_scheme(problem, mp["n_list"], box, mp["step"], config=cfg)
    payload = {
        "passed": result.passed,
        "n_list": result.n_list,
        "y_monotone_violations": result.y_monotone_violations,
        "k_monotone_violations": result.k_monotone_violations,
        "successive_gaps": result.successive_gaps,
        "bound_statistic": result.bound_statistic,
        "statistic_spread": result.statistic_spread,
        "limit_root": result.limit_root,
        "sandwich_passed": result.sandwich.passed,
    }
    write_report_json(os.path.join(outdir, "minimal_report.json"), payload)
    largest = result.solutions[mp["n_list"][-1]]
    write_solution_csv(os.path.join(outdir, "solution.csv"), largest, problem.grid, meta)
    print(
        f"minimal passed={result.passed} levels={len(result.n_list)} "
        f"limit_root={result.limit_root!r} spread={result.statistic_spread:.3g}"
    )
    return EXIT_OK if result.passed else EXIT_VALIDATION


def run_replay(outdir: str) -> int:
    echo_path = os.path.join(outdir, "resolved_config.json")
    if not os.path.exists(echo_path):
        raise ConfigurationError(f"no resolved_config.json in {outdir}")
    with tempfile.TemporaryDirectory(prefix="rabsde-replay-") as tmp:
        code = run_experiment(echo_path, tmp)
        if code not in (EXIT_OK, EXIT_VALIDATION, EXIT_NONCONVERGENCE):
            print(f"replay: re-run failed with exit code {code}")
            return code
        originals = sorted(
            f for f in os.listdir(outdir) if os.path.isfile(os.path.join(outdir, f))
        )
        fresh = sorted(f for f in os.listdir(tmp) if os.path.isfile(os.path.join(tmp, f)))
        if originals != fresh:
            print(f"replay mismatch: artifact sets differ ({originals} vs {fresh})")
            return EXIT_REPLAY_MISMATCH
        for name in originals:
            with open(os.path.join(outdir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(tmp, name), "rb") as fh:
                b = fh.read()
            if a != b:
                line = _first_diff_line(a, b)
                print(f"replay mismatch in {name} at record {line}")
                return EXIT_REPLAY_MISMATCH
    print(f"replay ok: {len(originals)} artifacts identical")
    return EXIT_OK


def _first_diff_line(a: bytes, b: bytes) -> int:
    for idx, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if la != lb:
            return idx
    return min(len(a.splitlines()), len(b.splitlines())) + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rabsde", description="Reflected anticipated BSDE solver")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to the JSON configuration")
    p_run.add_argument("-o", "--outdir", required=True, help="output directory for artifacts")
    p_replay = sub.add_parser("replay", help="re-run from an echoed config and compare artifacts")
    p_replay.add_argument("outdir", help="directory produced by a previous run")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(args.config, args.outdir)
        return run_replay(args.outdir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValidationError, GeneratorEvalError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

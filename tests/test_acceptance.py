"""Acceptance suite: every shipped criterion at its stated tolerance and
runtime budget, one pass/fail line each (see conftest)."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import record_acceptance
from rabsde.analysis import run_comparison, run_minimal_scheme
from rabsde.conditional import BasisSpec
from rabsde.fixtures import (
    MINIMAL_SCHEME_BOX,
    MINIMAL_SCHEME_N_LIST,
    MINIMAL_SCHEME_STEP,
    comparison_fixtures,
    contraction_problem,
    minimal_scheme_problem,
)
from rabsde.generators import delay_linear_generator, make_fn, quadratic_y_generator, zero_generator
from rabsde.grids import build_grid, make_delays, sample_brownian
from rabsde.picard import PicardConfig, compute_constants, solve_rabsde
from rabsde.problems import (
    ProblemBundle,
    StateMap,
    TerminalSpec,
    constant_terminal,
    no_obstacle,
    payoff_terminal,
    put_obstacle,
)
from rabsde.resistance import (
    builtin_functionals,
    check_monotone,
    check_nonanticipation,
    check_sup_lipschitz,
    eval_G,
)
from rabsde.snell import path_tree_stopping_value, snell_tree_solve
from rabsde.sweep import sweep, warm_start_k


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_c01_constants_formula():
    compute_constants(C=1.0, C1=0.0, L=1.0, T=1.0, delta=0.0)  # warm up
    with Budget(1e-3) as b:
        params, margin = compute_constants(C=1.0, C1=0.0, L=1.0, T=1.0, delta=0.0)
    ok = params.lam == 48.0 and params.beta == 50.0 and b.elapsed < b.seconds
    record_acceptance(1, "constants-formula", ok, b.elapsed, f"lambda={params.lam} beta={params.beta}")
    assert params.lam == 48.0
    assert params.beta == 50.0
    assert b.elapsed < b.seconds


def test_c02_trivial_solution_oracle():
    grid = build_grid(T=1.0, delta=0.5, N=50, M=25)
    prob = ProblemBundle(
        grid=grid, delays=make_delays(grid), gen=zero_generator(),
        obstacle=no_obstacle(), terminal=constant_terminal(2.5),
        G=builtin_functionals(1.0)[4], backend="tree",
    )
    with Budget(1.0) as b:
        sol = sweep(prob, warm_start_k(prob))
        y_err = max(float(np.abs(sol.Y[i] - 2.5).max()) for i in range(grid.n_points))
        z_err = max(float(np.abs(sol.Z[i]).max()) for i in range(grid.N))
        k_err = float(np.abs(sol.K_mean).max())
    ok = y_err <= 1e-10 and z_err <= 1e-10 and k_err <= 1e-10 and b.elapsed < b.seconds
    record_acceptance(2, "trivial-solution-oracle", ok, b.elapsed, f"maxerr={max(y_err, z_err, k_err):.2e}")
    assert y_err <= 1e-10 and z_err <= 1e-10 and k_err <= 1e-10
    assert b.elapsed < b.seconds


def test_c03_delay_ode_oracle():
    T, delta, c = 1.0, 0.5, 0.5
    N = 200
    M = 100
    grid = build_grid(T=T, delta=delta, N=N, M=M)
    prob = ProblemBundle(
        grid=grid, delays=make_delays(grid, mu=lambda t: delta), gen=delay_linear_generator(c=c),
        obstacle=no_obstacle(), terminal=constant_terminal(1.0),
        G=builtin_functionals(1.0)[4], backend="tree",
    )
    with Budget(10.0) as b:
        sol = sweep(prob, warm_start_k(prob))
        # independent fine-step oracle: backward Euler at h/10 for -y' = c y(t+delta)
        refine = 10
        h_f = grid.h / refine
        m_f = int(round(delta / h_f))
        n_f = N * refine
        y_f = np.ones(n_f + m_f + 1)
        for i in range(n_f - 1, -1, -1):
            y_f[i] = y_f[i + 1] + h_f * c * y_f[i + m_f]
        worst = max(
            abs(float(sol.Y[i][0]) - y_f[i * refine]) / abs(y_f[i * refine]) for i in range(N + 1)
        )
    ok = worst <= 0.02 and b.elapsed < b.seconds
    record_acceptance(3, "delay-ode-oracle", ok, b.elapsed, f"max_rel_err={worst:.4%}")
    assert worst <= 0.02
    assert b.elapsed < b.seconds


def test_c04_snell_representation():
    cases = [(4, 0.0, 1.0), (8, 0.3, 0.7), (10, -0.2, 1.2), (12, 0.1, 1.0)]
    worst = 0.0
    with Budget(30.0) as b:
        for n, strike, sigma in cases:
            grid = build_grid(T=1.0, delta=0.0, N=n, M=0)
            payoff = lambda x, k=strike: np.maximum(k - x, 0.0)
            prob = ProblemBundle(
                grid=grid, delays=make_delays(grid), gen=zero_generator(),
                obstacle=put_obstacle(strike), terminal=payoff_terminal(payoff),
                G=builtin_functionals(1.0)[4], state_map=StateMap(0.0, sigma), backend="tree",
            )
            dp = snell_tree_solve(prob)
            oracle = path_tree_stopping_value(prob.tree, prob.obstacle, prob.terminal, n)
            worst = max(worst, abs(dp.root - oracle))
    ok = worst <= 1e-10 and b.elapsed < b.seconds
    record_acceptance(4, "snell-representation", ok, b.elapsed, f"max|dp-oracle|={worst:.2e}")
    assert worst <= 1e-10
    assert b.elapsed < b.seconds


def test_c05_contraction():
    with Budget(60.0) as b:
        prob = contraction_problem(c1=0.0015)
        sol, rep = solve_rabsde(prob, config=PicardConfig(tol=1e-26, max_iter=15))
        ratios_ok = len(rep.ratios) >= 1 and all(r <= 0.55 for r in rep.ratios.values())
        margin_ok = rep.margin <= 0.25
        prob0 = contraction_problem(c1=0.0)
        _, rep0 = solve_rabsde(prob0, config=PicardConfig(tol=1e-12, max_iter=10))
        exact_two = rep0.converged and rep0.iterations == 2 and rep0.distances[2] <= 1e-12
    ok = ratios_ok and margin_ok and exact_two and b.elapsed < b.seconds
    worst_ratio = max(rep.ratios.values()) if rep.ratios else 0.0
    record_acceptance(5, "picard-contraction", ok, b.elapsed,
                      f"margin={rep.margin:.3f} worst_ratio={worst_ratio:.2e}")
    assert margin_ok and ratios_ok
    assert exact_two
    assert b.elapsed < b.seconds


def test_c06_uniqueness_warm_starts():
    with Budget(120.0) as b:
        tree_prob = contraction_problem(c1=0.0015)
        sol_a, _ = solve_rabsde(tree_prob, config=PicardConfig(tol=1e-24, max_iter=15))
        user = np.linspace(0.0, 0.3, tree_prob.grid.n_points)
        sol_b, _ = solve_rabsde(
            tree_prob,
            config=PicardConfig(tol=1e-24, max_iter=15, warm_start="user-supplied", user_path=user),
        )
        tree_err = max(
            float(np.abs(sol_a.Y[i] - sol_b.Y[i]).max()) for i in range(tree_prob.grid.N + 1)
        )
        reg_prob = contraction_problem(backend="regression", P=100_000, seed=13, c1=0.0015)
        r_a, _ = solve_rabsde(reg_prob, config=PicardConfig(tol=1e-22, max_iter=15))
        r_b, _ = solve_rabsde(
            reg_prob,
            config=PicardConfig(tol=1e-22, max_iter=15, warm_start="user-supplied",
                                user_path=np.linspace(0.0, 0.3, reg_prob.grid.n_points)),
        )
        P = reg_prob.ensemble.P
        stderr = np.maximum(r_a.Y.std(axis=0) / np.sqrt(P), 0.0)
        reg_ok = all(
            float(np.abs(r_a.Y[:, i] - r_b.Y[:, i]).max()) <= 3 * stderr[i] + 1e-10
            for i in range(reg_prob.grid.N + 1)
        )
    ok = tree_err <= 1e-10 and reg_ok and b.elapsed < b.seconds
    record_acceptance(6, "uniqueness-warm-starts", ok, b.elapsed, f"tree_err={tree_err:.2e}")
    assert tree_err <= 1e-10
    assert reg_ok
    assert b.elapsed < b.seconds


def test_c07_comparison_ordering():
    with Budget(120.0) as b:
        reports = [run_comparison(s, config=PicardConfig(tol=1e-22, max_iter=15)) for s in comparison_fixtures()]
        all_pass = all(r.passed for r in reports)
        n_viol = sum(r.y_violations + r.k_violations + r.extension_violations for r in reports)
    ok = len(reports) >= 5 and all_pass and b.elapsed < b.seconds
    record_acceptance(7, "comparison-ordering", ok, b.elapsed,
                      f"fixtures={len(reports)} violations={n_viol}")
    assert len(reports) >= 5
    assert all_pass, [r.name for r in reports if not r.passed]
    assert b.elapsed < b.seconds


def test_c08_minimal_solution_scheme():
    with Budget(300.0) as b:
        prob = minimal_scheme_problem()
        res = run_minimal_scheme(
            prob, MINIMAL_SCHEME_N_LIST, MINIMAL_SCHEME_BOX, MINIMAL_SCHEME_STEP,
            config=PicardConfig(tol=1e-22, max_iter=15),
        )
        gaps = res.successive_gaps
        gaps_ok = gaps[0] > gaps[1] > gaps[2] > 0
        ok_all = (
            res.y_monotone_violations == 0
            and res.k_monotone_violations == 0
            and gaps_ok
            and res.sandwich.passed
            and res.statistic_spread <= 10.0
        )
    ok = ok_all and b.elapsed < b.seconds
    record_acceptance(8, "minimal-solution-scheme", ok, b.elapsed,
                      f"gaps={['%.3g' % g for g in gaps]} spread={res.statistic_spread:.2f}")
    assert res.y_monotone_violations == 0
    assert res.k_monotone_violations == 0
    assert gaps_ok
    assert res.sandwich.passed
    assert res.statistic_spread <= 10.0
    assert b.elapsed < b.seconds


def test_c09_resistance_functional_suite():
    grid = build_grid(T=1.0, delta=0.5, N=20, M=10)
    with Budget(10.0) as b:
        all_ok = True
        for G in builtin_functionals(grid.T, eps=0.15):
            zero = np.zeros(grid.n_points)
            zero_ok = all(eval_G(G, zero, i, grid) == 0.0 for i in range(grid.n_points))
            na = check_nonanticipation(G, grid, trials=1000, seed=31)
            sup = check_sup_lipschitz(G, grid, trials=1000, seed=32)
            mono = check_monotone(G, grid, trials=1000, seed=33)
            all_ok = all_ok and zero_ok and na.passed and sup.passed and mono.passed
            assert zero_ok and na.passed and mono.passed
            assert sup.passed and sup.worst_ratio <= 1.0 + 1e-12
    ok = all_ok and b.elapsed < b.seconds
    record_acceptance(9, "resistance-functional-suite", ok, b.elapsed, "5 builtins x 4 checks")
    assert b.elapsed < b.seconds


def test_c10_inf_convolution_oracle():
    with Budget(10.0) as b:
        base = quadratic_y_generator()
        step = 0.001
        worst = 0.0
        with pytest.warns(UserWarning):
            fns = {n: make_fn(base, n, {"y": (-6.0, 6.0)}, step) for n in (2.0, 4.0)}
        for n, fn in fns.items():
            for y in (-4.0, -1.0, 0.0, 0.7, 1.4, 2.5, 3.0, 5.0):
                got = float(fn(0.0, np.array([y]), np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
                expected = n * abs(y) - n * n / 4 if abs(y) >= n / 2 else y * y
                worst = max(worst, abs(got - expected))
                assert abs(got - expected) <= step * n
        lip = delay_linear_generator(c=0.5)
        fn_lip = make_fn(lip, 1.0, {"theta": (-5.0, 5.0)}, 0.01)
        lip_ok = all(
            abs(float(fn_lip(0.0, np.zeros(1), np.zeros((1, 1)), np.array([th]), 0.0, 0.0, 0.0)[0]) - 0.5 * th) <= 1e-12
            for th in (-4.0, -0.3, 0.0, 1.7, 4.5)
        )
    ok = lip_ok and b.elapsed < b.seconds
    record_acceptance(10, "inf-convolution-oracle", ok, b.elapsed, f"max_formula_err={worst:.2e}")
    assert lip_ok
    assert b.elapsed < b.seconds


def test_c11_determinism_replay(tmp_path):
    config = {
        "mode": "solve",
        "grid": {"T": 0.5, "delta": 0.25, "N": 20, "M": 10},
        "delays": {
            "mu": {"form": "constant", "value": 0.25},
            "nu": {"form": "constant", "value": 0.25},
            "eps": {"form": "constant", "value": 0.1},
        },
        "generator": {"name": "resistance_linear", "params": {"c": 0.3, "c1": 0.0015}},
        "resistance": {"kind": "lagged_value", "eps": 0.1},
        "obstacle": {"form": "affine", "params": {"a": 1.4, "b": -0.8}},
        "terminal": {"form": "constant", "params": {"value": 1.0}},
        "backend": {"kind": "regression", "basis": {"degree": 2}},
        "ensemble": {"paths": 2000, "d": 1, "seed": 17},
        "picard": {"tol": 1e-18, "max_iter": 12},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with Budget(120.0) as b:
        r1 = subprocess.run(
            [sys.executable, "-m", "rabsde.cli", "run", str(cfg_path), "-o", str(out)],
            capture_output=True, text=True,
        )
        r2 = subprocess.run(
            [sys.executable, "-m", "rabsde.cli", "replay", str(out)],
            capture_output=True, text=True,
        )
    ok = r1.returncode == 0 and r2.returncode == 0 and "replay ok" in r2.stdout and b.elapsed < b.seconds
    record_acceptance(11, "determinism-replay", ok, b.elapsed, "run vs replay, fresh processes")
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stdout + r2.stderr
    assert "replay ok" in r2.stdout
    assert b.elapsed < b.seconds


def test_c12_backend_consistency():
    grid = build_grid(T=1.0, delta=0.24, N=50, M=12)
    xi_smooth = TerminalSpec(xi=lambda t, x: 1.0 + x + 0.5 * x * x)
    gen = delay_linear_generator(c=0.25)
    G = builtin_functionals(1.0)[4]
    with Budget(300.0) as b:
        tree_prob = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=gen, obstacle=no_obstacle(),
            terminal=xi_smooth, G=G, backend="tree",
        )
        tsol, _ = solve_rabsde(tree_prob, config=PicardConfig(tol=1e-18, max_iter=10))
        reg_prob = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=gen, obstacle=no_obstacle(),
            terminal=xi_smooth, G=G, backend="regression",
            ensemble=sample_brownian(grid, P=200_000, d=1, seed=41),
            basis=BasisSpec(degree=3),
        )
        rsol, _ = solve_rabsde(reg_prob, config=PicardConfig(tol=1e-18, max_iter=10))
        tree_root = tsol.root_value()
        reg_root = float(rsol.Y[0, 0])
        stderr = rsol.diagnostics["root_stderr"]
        tol = max(0.005 * abs(tree_root), 3 * stderr)
        diff = abs(reg_root - tree_root)

        # obstacle-pinned variant: reflection active at every step, exact roots
        parab = lambda t, x: 1.0 - x * x
        pin_term = TerminalSpec(xi=parab)
        pin_obs = type(no_obstacle())(eval=parab)
        pin_tree = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=gen, obstacle=pin_obs,
            terminal=pin_term, G=G, backend="tree",
        )
        pin_reg = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=gen, obstacle=pin_obs,
            terminal=pin_term, G=G, backend="regression",
            ensemble=sample_brownian(grid, P=200_000, d=1, seed=42),
            basis=BasisSpec(degree=3),
        )
        pt, _ = solve_rabsde(pin_tree, config=PicardConfig(tol=1e-18, max_iter=10))
        pr, _ = solve_rabsde(pin_reg, config=PicardConfig(tol=1e-18, max_iter=10))
        pin_diff = abs(pt.root_value() - float(pr.Y[0, 0]))
    ok = diff <= tol and pin_diff <= 1e-10 and b.elapsed < b.seconds
    record_acceptance(12, "backend-consistency", ok, b.elapsed,
                      f"diff={diff:.2e} tol={tol:.2e} pinned_diff={pin_diff:.2e}")
    assert diff <= tol, (reg_root, tree_root, stderr)
    assert pin_diff <= 1e-10
    assert b.elapsed < b.seconds

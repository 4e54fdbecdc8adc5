"""Experiment harnesses: comparison of ordered problems, envelope (sandwich)
bounds, the monotone approximation scheme for continuous drivers, and the
minimality check against certified alternative solutions.

All coupled checks solve on the same backend data (common random numbers on
the ensemble; the same lattice on the tree), so pathwise orderings are
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .generators import (
    audit_fn_properties,
    eval_f,
    growth_bound_generator,
    make_fn,
)
from .picard import (
    PicardConfig,
    compute_constants,
    fixed_point_residual,
    solve_rabsde,
)
from .problems import LatticeSolution, ProblemBundle, SolutionTriple, validate_triple
from .resistance import check_monotone

TREE_SLACK = 1e-10


def _pointwise_violations(level_hi, level_lo, slack, sign: int = 1) -> tuple[int, int, list]:
    """Count points where sign * (hi - lo) < -slack[i] at each level i < len(slack).

    level_hi / level_lo map a level to its values per path (ensemble) or per
    node (lattice). Returns (violations, points checked, first coordinates).
    """
    coords = []
    total = 0
    bad = 0
    for i, s in enumerate(slack):
        diff = level_hi(i) - level_lo(i)
        total += diff.size
        mask = sign * diff < -s
        bad += int(mask.sum())
        for p in np.flatnonzero(mask)[:5]:
            coords.append((int(p), i, float(diff[p])))
    return bad, total, coords


def _slack(sol_a, sol_b, n_levels: int) -> np.ndarray:
    """Per-level slack of the ordering checks: TREE_SLACK on the exact lattice;
    on the ensemble 3 pointwise standard errors of the Y field, floored to keep
    deterministic fixtures comparable."""
    if isinstance(sol_a, LatticeSolution):
        return np.full(n_levels, TREE_SLACK)
    P = sol_a.Y.shape[0]
    sd = np.maximum(sol_a.Y[:, :n_levels].std(axis=0), sol_b.Y[:, :n_levels].std(axis=0))
    return 3.0 * sd / np.sqrt(P) + 1e-10


def _k_violations(sol_hi, sol_lo, slack) -> tuple[int, int, list]:
    """Points where the reflection of hi exceeds that of lo by more than the slack.

    The ensemble compares cumulative K per path on [0, T]. The lattice K is a
    mean path, so it compares the increments per (level, node) instead; their
    ordering implies the pathwise cumulative one.
    """
    if isinstance(sol_hi, LatticeSolution):
        return _pointwise_violations(sol_hi.dk, sol_lo.dk, slack[:-1], sign=-1)
    return _pointwise_violations(lambda i: sol_hi.K[:, i], lambda i: sol_lo.K[:, i], slack, sign=-1)


@dataclass
class ComparisonSetup:
    """Two problems sharing grid, backend data, obstacle, delays, and functional.

    Declared orderings: gen_hi >= gen_lo pointwise, xi_hi >= xi_lo,
    zeta_hi <= zeta_lo. The smaller problem's driver carries the monotonicity
    flags (increasing in the anticipated value, decreasing in both resistance
    arguments) and neither driver reads the anticipated Z.
    """

    hi: ProblemBundle
    lo: ProblemBundle
    name: str = "comparison"
    ordering_trials: int = 1000
    seed: int = 0

    def validate(self) -> None:
        a, b = self.hi, self.lo
        if a.grid is not b.grid:
            raise ValidationError("bundles must share the grid")
        if a.backend != b.backend:
            raise ValidationError("bundles must share the backend")
        if a.backend == "regression" and a.ensemble is not b.ensemble:
            raise ValidationError("bundles must share the ensemble (common random numbers)")
        if a.delays is not b.delays:
            raise ValidationError("bundles must share the delay maps")
        gen = b.gen
        if not (gen.monotone_in_theta and gen.antitone_in_m and gen.antitone_in_mbar):
            raise ValidationError("the smaller problem's driver lacks the monotonicity flags")
        if a.gen.uses_anticipated_z or b.gen.uses_anticipated_z:
            raise ValidationError("comparison drivers must not read the anticipated Z")
        if not check_monotone(a.G, a.grid, trials=100, seed=self.seed).passed:
            raise ValidationError("resistance functional must be monotone for comparisons")
        self._spot_check_generator_order()
        self._spot_check_data_order()

    def _spot_check_generator_order(self) -> None:
        rng = np.random.default_rng(self.seed)
        grid = self.hi.grid
        for _ in range(self.ordering_trials):
            t = float(rng.choice(grid.times[: grid.N + 1]))
            y, th, vt, m, mb = rng.uniform(-3, 3, size=5)
            z = rng.uniform(-3, 3, size=(1, 1))
            f_hi = float(eval_f(self.hi.gen, t, np.array([y]), z, np.array([th]), np.array([vt]), np.array([m]), np.array([mb]))[0])
            f_lo = float(eval_f(self.lo.gen, t, np.array([y]), z, np.array([th]), np.array([vt]), np.array([m]), np.array([mb]))[0])
            if f_hi < f_lo - 1e-12:
                raise ValidationError(
                    f"generator ordering violated at t={t}, y={y:.3f}: {f_hi} < {f_lo}"
                )

    def _spot_check_data_order(self) -> None:
        grid = self.hi.grid
        rng = np.random.default_rng(self.seed + 1)
        for i in range(grid.N, grid.n_points):
            x = rng.uniform(-3, 3, size=16)
            t = grid.times[i]
            xi_hi = np.asarray(self.hi.terminal.xi(t, x))
            xi_lo = np.asarray(self.lo.terminal.xi(t, x))
            if np.any(xi_hi < xi_lo - 1e-12):
                raise ValidationError(f"terminal ordering violated at t={t}")
            if i > grid.N:
                z_hi = _zeta_at(self.hi, t, x)
                z_lo = _zeta_at(self.lo, t, x)
                if np.any(z_hi > z_lo + 1e-12):
                    raise ValidationError(f"zeta ordering violated at t={t}")


def _zeta_at(problem: ProblemBundle, t: float, x: np.ndarray) -> np.ndarray:
    if problem.terminal.zeta is None:
        return np.zeros_like(np.asarray(x, dtype=np.float64))
    return np.asarray(problem.terminal.zeta(t, x), dtype=np.float64)


@dataclass
class ComparisonReport:
    name: str
    y_violations: int
    k_violations: int
    points_checked: int
    extension_violations: int
    passed: bool
    coordinates: list = field(default_factory=list)
    root_gap: float = 0.0


def run_comparison(setup: ComparisonSetup, params=None, config: PicardConfig | None = None) -> ComparisonReport:
    """Solve both problems on shared data and count ordering violations.

    Y must be ordered upward and the reflection increments downward; on the
    lattice the increment ordering per (level, node) implies the pathwise
    cumulative ordering. The extension segment is checked separately.
    """
    setup.validate()
    sol_hi, _ = solve_rabsde(setup.hi, params=params, config=config)
    sol_lo, _ = solve_rabsde(setup.lo, params=params, config=config)
    N = setup.hi.grid.N
    slack = _slack(sol_hi, sol_lo, N + 1)
    y_bad, total, coords = _pointwise_violations(sol_hi.y, sol_lo.y, slack)
    k_bad, _, k_coords = _k_violations(sol_hi, sol_lo, slack)
    coords += k_coords
    ext_bad = int(np.sum(sol_hi.k_paths[:, N + 1 :] - sol_lo.k_paths[:, N + 1 :] > 1e-12))
    root_gap = sol_hi.expect(0, sol_hi.y(0) - sol_lo.y(0))
    return ComparisonReport(
        name=setup.name,
        y_violations=y_bad,
        k_violations=k_bad,
        points_checked=total,
        extension_violations=ext_bad,
        passed=(y_bad == 0 and k_bad == 0 and ext_bad == 0),
        coordinates=coords,
        root_gap=root_gap,
    )


@dataclass
class SandwichReport:
    upper_margin: float
    lower_margin: float
    violations: int
    upper_guarantee_void: bool
    lower_guarantee_void: bool
    passed: bool
    upper_solution: object = None
    lower_solution: object = None


def run_sandwich(
    problem: ProblemBundle,
    solutions: list | None = None,
    params=None,
    config: PicardConfig | None = None,
) -> SandwichReport:
    """Solve the envelope problems driven by +/- the linear-growth bound and
    verify every provided solution lies between them pointwise.

    With no solutions given, the base problem itself is solved and checked.
    A margin violation in the envelope constants only voids the theoretical
    guarantee; the run proceeds empirically.
    """
    gen = problem.gen
    if not gen.continuous_linear_growth:
        raise ValidationError("sandwich bounds need a driver declared continuous with linear growth")

    def solve_bound(sign: int):
        bound = growth_bound_generator(C=gen.growth_constant, C1=gen.C1, h_proc=gen.h_proc, sign=sign)
        return solve_rabsde(replace(problem, gen=bound), config=config)

    sol_up, rep_up = solve_bound(+1)
    sol_lo, rep_lo = solve_bound(-1)
    if solutions is None:
        base_sol, _ = solve_rabsde(problem, params=params, config=config)
        solutions = [base_sol]
    grid = problem.grid
    total_bad = 0
    up_margin = np.inf
    lo_margin = np.inf
    slack = _slack(sol_up, sol_lo, grid.N + 1)
    for sol in solutions:
        bad_hi, _, _ = _pointwise_violations(sol_up.y, sol.y, slack)
        bad_lo, _, _ = _pointwise_violations(sol.y, sol_lo.y, slack)
        total_bad += bad_hi + bad_lo
        # strictness margins exclude t = T, where all solutions share xi
        for i in range(grid.N):
            up_margin = min(up_margin, float(np.min(sol_up.y(i) - sol.y(i))))
            lo_margin = min(lo_margin, float(np.min(sol.y(i) - sol_lo.y(i))))
    return SandwichReport(
        upper_margin=up_margin,
        lower_margin=lo_margin,
        violations=total_bad,
        upper_guarantee_void=rep_up.guarantee_void,
        lower_guarantee_void=rep_lo.guarantee_void,
        passed=total_bad == 0,
        upper_solution=sol_up,
        lower_solution=sol_lo,
    )


@dataclass
class MinimalSchemeResult:
    n_list: list
    solutions: dict
    y_monotone_violations: int
    k_monotone_violations: int
    violation_coordinates: list
    successive_gaps: list
    bound_statistic: dict
    statistic_spread: float
    sandwich: SandwichReport
    limit_root: float
    passed: bool


def run_minimal_scheme(
    problem: ProblemBundle,
    n_list: list,
    box: dict,
    step: float,
    params=None,
    config: PicardConfig | None = None,
    audit_samples: int = 120,
) -> MinimalSchemeResult:
    """Solve the regularized problems for each penalty level and verify the
    monotone approximation picture.

    Y must be pointwise nondecreasing and the reflection nonincreasing in n;
    the envelope bounds must box every level; the boundedness statistic
    mean[sup|Y|^2 + sup|K|^2 + sum h|Z|^2] must stay stable across levels. The
    limit is estimated by the largest level and successive gaps are reported.
    """
    if sorted(n_list) != list(n_list) or len(n_list) < 2:
        raise ValidationError("n_list must be increasing with at least two levels")
    gen = problem.gen
    if not (gen.continuous_linear_growth and gen.monotone_in_theta):
        raise ValidationError("minimal scheme needs a continuous, linear-growth, theta-monotone driver")
    approxes = [make_fn(gen, n, box, step) for n in n_list]
    audit = audit_fn_properties(approxes, samples=audit_samples, seed=11)
    if not audit.monotone_in_n:
        raise ValidationError("regularization grid too coarse: levels are not ordered in n")

    solutions = {}
    for approx in approxes:
        sol, _ = solve_rabsde(replace(problem, gen=approx.as_generator()), config=config)
        solutions[approx.n] = sol

    grid = problem.grid
    n_levels = grid.N + 1
    y_bad = 0
    k_bad = 0
    coords: list = []
    gaps: list = []
    for n_prev, n_next in zip(n_list, n_list[1:]):
        lo, hi = solutions[n_prev], solutions[n_next]
        slack = _slack(hi, lo, n_levels)
        bad, _, cc = _pointwise_violations(hi.y, lo.y, slack)
        y_bad += bad
        coords.extend((n_next,) + c for c in cc)
        k_bad += _k_violations(hi, lo, slack)[0]
        gaps.append(max(float(np.abs(hi.y(i) - lo.y(i)).max()) for i in range(n_levels)))

    # envelope bounds computed once, each level checked against them
    sandwich = run_sandwich(problem, solutions=list(solutions.values()), config=config)
    _check_box_covers(box, sandwich, grid.n_points)

    stats = {n: _bound_statistic(sol, grid) for n, sol in solutions.items()}
    vals = list(stats.values())
    spread = max(vals) / max(min(vals), 1e-300)
    limit_root = solutions[n_list[-1]].root_value()
    return MinimalSchemeResult(
        n_list=list(n_list),
        solutions=solutions,
        y_monotone_violations=y_bad,
        k_monotone_violations=k_bad,
        violation_coordinates=coords,
        successive_gaps=gaps,
        bound_statistic=stats,
        statistic_spread=spread,
        sandwich=sandwich,
        limit_root=limit_root,
        passed=(y_bad == 0 and k_bad == 0 and sandwich.passed),
    )


def _bound_statistic(sol, grid) -> float:
    """mean over paths of sup_t |Y|^2 + sup_t |K|^2 + sum_{t<T} h |Z|^2."""
    if isinstance(sol, SolutionTriple):
        y_sup = (sol.Y ** 2).max(axis=1)
        k_sup = (sol.K ** 2).max(axis=1)
        z_int = grid.h * (sol.Z[:, : grid.N, :] ** 2).sum(axis=(1, 2))
        return float((y_sup + k_sup + z_int).mean())
    probs = sol.tree.level_probs
    # per-level expectations; the sup over time of nodewise maxima bounds the
    # pathwise sup and collapses to it for deterministic fixtures
    y_sup = max(float(np.max(sol.Y[i] ** 2)) for i in range(grid.n_points))
    k_sup = float(np.max(sol.K_mean ** 2))
    z_int = sum(grid.h * float(np.dot(probs[i], sol.Z[i] ** 2)) for i in range(grid.N))
    return y_sup + k_sup + z_int


def _check_box_covers(box: dict, sandwich: SandwichReport, n_points: int) -> None:
    if "y" not in box:
        return
    lo, hi = box["y"]
    y_max = max(float(sandwich.upper_solution.y(i).max()) for i in range(n_points))
    y_min = min(float(sandwich.lower_solution.y(i).min()) for i in range(n_points))
    if y_min < lo or y_max > hi:
        raise ValidationError(
            f"search box y-range [{lo}, {hi}] does not cover the envelope range [{y_min:.3f}, {y_max:.3f}]"
        )


@dataclass
class MinimalityReport:
    residual: float
    certified: bool
    violations: int
    passed: bool


def check_minimality(
    problem: ProblemBundle,
    alternative,
    n_list: list,
    box: dict,
    step: float,
    config: PicardConfig | None = None,
    residual_tol: float = 1e-8,
) -> MinimalityReport:
    """Certify the alternative by its fixed-point residual, then check that the
    monotone-scheme limit sits below it pointwise."""
    params, _ = compute_constants(
        problem.gen.C, problem.gen.C1, problem.delays.L, problem.grid.T, problem.grid.delta
    )
    residual = fixed_point_residual(problem, alternative, params)
    structural = validate_triple(alternative, problem)
    certified = residual <= residual_tol and structural["reflection_ok"] and structural["k_monotone_ok"]
    if not certified:
        return MinimalityReport(residual=residual, certified=False, violations=-1, passed=False)
    scheme = run_minimal_scheme(problem, n_list, box, step, config=config)
    limit = scheme.solutions[n_list[-1]]
    bad, _, _ = _pointwise_violations(alternative.y, limit.y, _slack(alternative, limit, problem.grid.N + 1))
    return MinimalityReport(residual=residual, certified=True, violations=bad, passed=bad == 0)

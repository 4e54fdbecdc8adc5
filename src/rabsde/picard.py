"""Outer fixed point over the frozen resistance path.

The solve map takes a resistance path k, runs the backward reflected sweep
with k frozen, and returns the reflection process K of the result. Distances
between successive iterates are measured in exponentially weighted norms
(time-integrated for Y and Z, a gamma-scaled pathwise supremum for K) under
which the map is a strict contraction with ratio 1/2 whenever the resistance
Lipschitz coefficient is small enough; the margin quantifying "small enough"
is computed alongside the weights and re-checked empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NonConvergenceError, ValidationError
from .grids import TimeGrid
from .problems import ProblemBundle
from .sweep import estimator, sweep, warm_start_k

MARGIN_BOUND = 0.25
LAMBDA_FLOOR = 1e-8


@dataclass(frozen=True)
class WeightedNormParams:
    """Exponential-norm weights (lam, beta, gamma) plus bookkeeping flags."""

    lam: float
    beta: float
    gamma: float
    lambda_floored: bool = False
    overflowed: bool = False

    @property
    def usable(self) -> bool:
        return not self.overflowed and math.isfinite(self.gamma)


def compute_constants(C: float, C1: float, L: float, T: float, delta: float):
    """Contraction weights and the smallness margin for the resistance coefficient.

        lam   = 4 * (6C^2 + 6C^2 L)
        beta  = lam + 2
        gamma = 4 * [(4T e^{beta T} + 16T e^{beta T}(1 + e^{beta T})) (6C^2 + 6C^2 L) + 4 e^{beta T}]

    The guarantee (ratio <= 1/2) needs
        6 * (4T e^{beta T} + 16T e^{beta T}(1 + e^{beta T}) + gamma/lam)
          * (C1^2 T + C1^2 (T + delta) L)  <=  1/4.

    lam = 0 (C = 0) is floored at 1e-8 because the margin divides by it;
    exp overflow reports an infinite margin with the overflow flag set, leaving
    the empirical contraction check as the remaining evidence.
    """
    if C < 0 or L < 0 or T < 0 or delta < 0:
        raise ValidationError("constants must be nonnegative")
    block = 6.0 * C * C + 6.0 * C * C * L
    lam = 4.0 * block
    floored = lam < LAMBDA_FLOOR
    if floored:
        lam = LAMBDA_FLOOR
    beta = lam + 2.0
    c1_factor = C1 * C1 * T + C1 * C1 * (T + delta) * L
    try:
        ebt = math.exp(beta * T)
    except OverflowError:
        ebt = math.inf
    if not math.isfinite(ebt):
        params = WeightedNormParams(lam=lam, beta=beta, gamma=math.inf, lambda_floored=floored, overflowed=True)
        return params, 0.0 if c1_factor == 0.0 else math.inf
    bdg_factor = 4.0 * T * ebt + 16.0 * T * ebt * (1.0 + ebt)
    gamma = 4.0 * (bdg_factor * block + 4.0 * ebt)
    if not math.isfinite(gamma):
        params = WeightedNormParams(lam=lam, beta=beta, gamma=math.inf, lambda_floored=floored, overflowed=True)
        return params, 0.0 if c1_factor == 0.0 else math.inf
    margin = 6.0 * (bdg_factor + gamma / lam) * c1_factor
    params = WeightedNormParams(lam=lam, beta=beta, gamma=gamma, lambda_floored=floored)
    return params, margin


def _measure_params(params: WeightedNormParams) -> WeightedNormParams:
    """Weights actually used for distance measurement.

    When the theoretical gamma overflows, distances fall back to unweighted
    norms (beta = 0, gamma = 1): ratios stay meaningful, the guarantee does not.
    """
    if params.usable:
        return params
    return WeightedNormParams(lam=1.0, beta=0.0, gamma=1.0, lambda_floored=params.lambda_floored, overflowed=True)


def weighted_distance(a, b, params: WeightedNormParams, grid: TimeGrid) -> float:
    """Squared weighted distance between two solutions on the same backend.

      E[(1/gamma) max_{i<=N} e^{beta t_i} |dK_i|^2]
      + sum_{i<N} h e^{beta t_i} E[|dY_i|^2 + |dZ_i|^2],
    with E the solutions' own level expectation (the mean over paths on the
    ensemble, the binomial weights on the lattice, whose K is a mean path).
    The extension segment is pinned to the terminal data and contributes 0.
    """
    if type(a) is not type(b) or a.K.shape != b.K.shape:
        raise ValidationError("distance needs two solutions of the same backend and shape")
    p = _measure_params(params)
    N, h = grid.N, grid.h
    w = np.exp(p.beta * grid.times[: N + 1])
    y_term = 0.0
    z_term = 0.0
    for i in range(N):
        dy = a.y(i) - b.y(i)
        dz = a.z(i) - b.z(i)
        y_term += h * w[i] * a.expect(i, dy * dy)
        z_term += h * w[i] * a.expect(i, (dz * dz).sum(axis=1))
    # level-major (transposed) K: one contiguous row per level on the ensemble
    dk = a.K.T[: N + 1] - b.K.T[: N + 1]
    k_term = float(((w[:, None] * dk * dk).max(axis=0) / p.gamma).mean())
    return k_term + y_term + z_term


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-12
    max_iter: int = 25
    warm_start: str = "zeta-extension-only"
    user_path: np.ndarray | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ConfigurationError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass
class PicardReport:
    """Iteration trace of the outer loop.

    distances[j] is the weighted distance between the iterates of sweeps j and
    j-1 (defined from j = 2); ratios[j] = distances[j] / distances[j-1] from
    j = 3. The theoretical guarantee is void when the margin exceeds 1/4 or
    the constants overflowed; the solver still runs and reports empirically.
    """

    params: WeightedNormParams
    margin: float
    guarantee_void: bool
    converged: bool = False
    iterations: int = 0
    distances: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def trace_rows(self):
        rows = []
        for it in sorted(self.distances):
            rows.append(
                {
                    "iteration": it,
                    "distance": self.distances[it],
                    "ratio": self.ratios.get(it, ""),
                    "margin": self.margin,
                }
            )
        return rows


def solve_rabsde(
    problem: ProblemBundle,
    params: WeightedNormParams | None = None,
    config: PicardConfig | None = None,
):
    """Iterate the frozen-resistance solve map to its fixed point.

    Returns (solution, report). When the driver ignores the resistance
    arguments the second sweep reproduces the first one exactly and the loop
    stops at iteration 2. Raises NonConvergenceError (carrying the report and
    the last iterate) if max_iter sweeps do not bring successive iterates
    within tol.
    """
    config = config or PicardConfig()
    constants, margin = compute_constants(
        problem.gen.C, problem.gen.C1, problem.delays.L, problem.grid.T, problem.grid.delta
    )
    params = constants if params is None else params
    report = PicardReport(
        params=params,
        margin=margin,
        guarantee_void=bool(margin > MARGIN_BOUND),
    )
    k = warm_start_k(problem, rule=config.warm_start, user_path=config.user_path)
    ce = estimator(problem)  # one per solve: every sweep projects onto the same levels
    prev = None
    sol = None
    for it in range(1, config.max_iter + 1):
        sol = sweep(problem, k, ce=ce)
        report.iterations = it
        if prev is not None:
            d = weighted_distance(sol, prev, params, problem.grid)
            report.distances[it] = d
            if it - 1 in report.distances and report.distances[it - 1] > 0:
                report.ratios[it] = d / report.distances[it - 1]
            if d <= config.tol:
                report.converged = True
                break
        k = sol.k_path()
        prev = sol
    report.diagnostics = dict(sol.diagnostics)
    if not report.converged:
        raise NonConvergenceError(
            f"no convergence after {config.max_iter} sweeps "
            f"(last distance {report.distances.get(report.iterations, float('nan')):.3e})",
            report=report,
            triple=sol,
        )
    return sol, report


def fixed_point_residual(problem: ProblemBundle, sol, params: WeightedNormParams) -> float:
    """Weighted distance between a solution and one more sweep frozen at its own K.

    The residual certifies that a triple actually solves the equation; it is
    the acceptance gate for externally supplied "alternative solutions".
    """
    resweep = sweep(problem, sol.k_path())
    return weighted_distance(sol, resweep, params, problem.grid)

"""Non-anticipating path functionals of the reflection process ("resistance").

A functional G_t reads a discrete path only up to index i and feeds back into
the generator. Built-in kinds cover windowed integrals and averages of the
positive part, a running supremum over [t/2, t], and lagged (positive-part or
raw) values. Randomized property checks certify non-anticipation, the sup-norm
Lipschitz bound, monotonicity, and an empirical L2 Lipschitz constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .grids import TimeGrid

KINDS = (
    "windowed_integral_positive",
    "running_sup_window",
    "lagged_positive",
    "windowed_average_positive",
    "lagged_value",
    "custom",
)


@dataclass(frozen=True)
class ResistancePath:
    """A discrete path on the full grid, typically a reflection (K) path."""

    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"path length {v.shape} does not match grid with {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("path values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ResistanceFunctional:
    """A named path functional with declared properties.

    eps is the window / lag length in time units (used by the lagged and
    averaged kinds). custom_eval(values, i, grid) implements the "custom" kind
    and must only read values[: i + 1].
    """

    kind: str
    eps: float = 0.0
    declared_monotone: bool = True
    declared_L2_lipschitz_C1: float | None = None
    custom_eval: Callable[[np.ndarray, int, TimeGrid], float] | None = None
    name: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown resistance kind {self.kind!r}")
        if self.eps < 0:
            raise ConfigurationError(f"eps must be >= 0, got {self.eps}")
        if self.kind == "windowed_average_positive" and self.eps <= 0:
            raise ConfigurationError("windowed_average_positive needs eps > 0")
        if self.kind == "custom" and self.custom_eval is None:
            raise ConfigurationError("custom kind needs custom_eval")

    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind in ("lagged_positive", "lagged_value", "windowed_average_positive"):
            return f"{self.kind}(eps={self.eps})"
        return self.kind


def builtin_functionals(eps: float = 0.1) -> list[ResistanceFunctional]:
    """The five built-in kinds with a common lag parameter."""
    return [
        ResistanceFunctional("windowed_integral_positive"),
        ResistanceFunctional("running_sup_window"),
        ResistanceFunctional("lagged_positive", eps=eps),
        ResistanceFunctional("windowed_average_positive", eps=eps),
        ResistanceFunctional("lagged_value", eps=eps),
    ]


def _half_window_start(grid: TimeGrid, i: int) -> int:
    # start of [t/2, t]; earlier ties keep the window inside the past
    return grid.index_of(grid.times[i] / 2.0, ties="earlier")


def _lag_index(grid: TimeGrid, i: int, eps: float) -> int:
    t = max(grid.times[i] - eps, 0.0)
    j = grid.index_of(t, ties="earlier")
    return min(j, i)


def eval_G(G: ResistanceFunctional, path: ResistancePath | np.ndarray, i: int, grid: TimeGrid | None = None) -> float:
    """Value of the functional at grid index i, reading only path[0..i]: one row of eval_G_matrix."""
    if isinstance(path, ResistancePath):
        path, grid = path.values, path.grid
    elif grid is None:
        raise ConfigurationError("grid required when passing a bare array")
    if not (0 <= i <= grid.N + grid.M):
        raise ConfigurationError(f"index {i} out of range")
    return float(eval_G_matrix(G, np.asarray(path, dtype=np.float64)[None, :], grid, (i,))[0, 0])


def eval_G_matrix(G: ResistanceFunctional, paths: np.ndarray, grid: TimeGrid, indices: Sequence[int]) -> np.ndarray:
    """Evaluation over a path matrix [P, n_points] at the given indices.

    Integrals use left-endpoint rectangles with step h; window suprema are
    maxima over grid points; lagged indices round to the nearest grid point
    with ties toward the earlier index. Returns [P, len(indices)], a transposed
    view of level-major storage, so each index's column is contiguous.
    """
    levels = np.asarray(paths, dtype=np.float64).T  # [n_points, P]; contiguous for level-major paths
    out = np.empty((len(indices), levels.shape[1]), dtype=np.float64)
    kind = G.kind
    for col, i in enumerate(indices):
        i = int(i)
        if kind == "windowed_integral_positive":  # an empty window sums to 0.0
            out[col] = np.maximum(levels[_half_window_start(grid, i) : i], 0.0).sum(axis=0) * grid.h
        elif kind == "windowed_average_positive":
            out[col] = np.maximum(levels[_lag_index(grid, i, G.eps) : i], 0.0).sum(axis=0) * grid.h / G.eps
        elif kind == "running_sup_window":
            out[col] = levels[_half_window_start(grid, i) : i + 1].max(axis=0)
        elif kind == "lagged_positive":
            out[col] = np.maximum(levels[_lag_index(grid, i, G.eps)], 0.0)
        elif kind == "lagged_value":
            out[col] = levels[_lag_index(grid, i, G.eps)]
        else:
            out[col] = [G.custom_eval(path, i, grid) for path in levels.T]
    return out.T


# ---------------------------------------------------------------------------
# Randomized property checks
# ---------------------------------------------------------------------------


def _random_paths(grid: TimeGrid, rng: np.random.Generator, n: int, anchor_zero: bool = False) -> np.ndarray:
    """Random rough paths for the checks: mixed jumps and random-walk segments."""
    L = grid.n_points
    steps = rng.standard_normal((n, L)) * rng.uniform(0.2, 2.0, size=(n, 1))
    walks = np.cumsum(steps, axis=1)
    jumps = rng.uniform(-3, 3, size=(n, L)) * (rng.random((n, L)) < 0.15)
    paths = walks + jumps
    if anchor_zero:
        paths -= paths[:, :1]
    return paths


@dataclass
class CheckReport:
    passed: bool
    trials: int
    detail: str = ""
    worst_ratio: float | None = None
    counterexample: tuple | None = None


def check_nonanticipation(G: ResistanceFunctional, grid: TimeGrid, trials: int = 1000, seed: int = 0) -> CheckReport:
    """Pairs agreeing on [0, t_i] but differing after must evaluate identically at i."""
    rng = np.random.default_rng(seed)
    top = grid.N + grid.M
    for trial in range(trials):
        i = int(rng.integers(0, top + 1))
        a = _random_paths(grid, rng, 1)[0]
        b = a.copy()
        if i < top:
            b[i + 1 :] += rng.uniform(0.5, 3.0, size=top - i)
        va = eval_G(G, a, i, grid)
        vb = eval_G(G, b, i, grid)
        if va != vb:
            return CheckReport(False, trials, f"trial {trial}: index {i}: {va} != {vb}", counterexample=(a, b, i))
    return CheckReport(True, trials)


def check_sup_lipschitz(G: ResistanceFunctional, grid: TimeGrid, trials: int = 1000, seed: int = 0) -> CheckReport:
    """Max over random pairs of |G(y) - G(y')| / sup_{s<=t} |y_s - y'_s|; pass iff <= 1 + 1e-12."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    top = grid.N + grid.M
    for _ in range(trials):
        i = int(rng.integers(0, top + 1))
        a, b = _random_paths(grid, rng, 2)
        denom = np.abs(a[: i + 1] - b[: i + 1]).max()
        if denom == 0:
            continue
        num = abs(eval_G(G, a, i, grid) - eval_G(G, b, i, grid))
        worst = max(worst, num / denom)
    return CheckReport(worst <= 1.0 + 1e-12, trials, worst_ratio=worst)


def check_monotone(G: ResistanceFunctional, grid: TimeGrid, trials: int = 1000, seed: int = 0) -> CheckReport:
    """Pointwise-ordered path pairs must produce ordered values at every index."""
    rng = np.random.default_rng(seed)
    top = grid.N + grid.M
    indices = range(0, top + 1, max(1, top // 8))
    for trial in range(trials):
        lower = _random_paths(grid, rng, 1)[0]
        upper = lower + rng.uniform(0.0, 2.0, size=lower.shape)
        values = eval_G_matrix(G, np.stack((upper, lower)), grid, indices).tolist()
        for i, vu, vl in zip(indices, *values):
            if vu < vl - 1e-12:
                return CheckReport(False, trials, f"trial {trial}: index {i}: {vu} < {vl}", counterexample=(upper, lower, i))
    return CheckReport(True, trials)


def check_L2_lipschitz(G: ResistanceFunctional, grid: TimeGrid, trials: int = 1000, seed: int = 0) -> CheckReport:
    """Empirical ratio of time-integrated squared differences over random pairs.

    Paths are anchored at zero like reflection paths. The running-sup kind has
    no uniform constant on general data; the ratio is reported, and the pass
    flag compares against the declared constant when one is present.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    n_used = 0
    for _ in range(trials):
        a, b = _random_paths(grid, rng, 2, anchor_zero=True)
        ga, gb = eval_G_matrix(G, np.stack((a, b)), grid, range(grid.N + 1)).tolist()
        diff2 = 0.0
        gdiff2 = 0.0
        for i in range(grid.N + 1):
            gdiff2 += (ga[i] - gb[i]) ** 2 * grid.h
            diff2 += (a[i] - b[i]) ** 2 * grid.h
        if diff2 == 0:
            continue
        n_used += 1
        worst = max(worst, gdiff2 / diff2)
    declared = G.declared_L2_lipschitz_C1
    passed = True if declared is None else worst <= declared + 1e-9
    return CheckReport(passed, n_used, worst_ratio=worst)


def check_monotone_continuity(G: ResistanceFunctional, grid: TimeGrid, levels: int = 5, seed: int = 0) -> CheckReport:
    """Decreasing path sequences y^(n) -> y must give nonincreasing values converging to G(y)."""
    rng = np.random.default_rng(seed)
    base = _random_paths(grid, rng, 1)[0]
    bump = rng.uniform(0.1, 1.0, size=base.shape)
    scales = [2.0 ** (-k) for k in range(levels)]
    top = grid.N + grid.M
    for i in range(0, top + 1, max(1, top // 6)):
        limit = eval_G(G, base, i, grid)
        prev = None
        for s in scales:
            v = eval_G(G, base + s * bump, i, grid)
            if prev is not None and v > prev + 1e-12:
                return CheckReport(False, levels, f"values increased along a decreasing sequence at index {i}")
            if v < limit - 1e-12:
                return CheckReport(False, levels, f"value dropped below the limit at index {i}")
            prev = v
        final = eval_G(G, base + scales[-1] * bump, i, grid)
        if abs(final - limit) > np.abs(bump).max() * scales[-1] + 1e-12:
            return CheckReport(False, levels, f"no convergence to the limit at index {i}")
    return CheckReport(True, levels)

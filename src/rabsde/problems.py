"""Problem bundles and solution containers for the reflected backward solver.

A problem couples the grid, delay maps, driver, lower obstacle, terminal data
(value, martingale density, and reflection extension on [T, T+delta]), the
resistance functional, and one of two backends: a Monte Carlo ensemble with
regression conditional expectations, or an exact recombining lattice.

The model state is one-dimensional, x = x0 + sigma * W (first Brownian
component); obstacle and terminal callables receive (t, x).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conditional import BasisSpec, TreeModel
from .errors import ConfigurationError
from .grids import DelaySpec, PathEnsemble, TimeGrid
from .resistance import ResistanceFunctional
from .generators import GeneratorSpec


@dataclass(frozen=True)
class StateMap:
    """Affine map from the driving Brownian motion to the model state."""

    x0: float = 0.0
    sigma: float = 1.0

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w)
        first = w[..., 0] if w.ndim > 1 else w
        return self.x0 + self.sigma * first


@dataclass(frozen=True)
class ObstacleSpec:
    """Lower obstacle S(t, x); terminal compatibility S_T <= xi_T is checked at solve time."""

    eval: Callable[[float, np.ndarray], np.ndarray]


def no_obstacle() -> ObstacleSpec:
    return ObstacleSpec(eval=lambda t, x: np.full_like(np.asarray(x, dtype=np.float64), -1e9))


def constant_obstacle(level: float) -> ObstacleSpec:
    return ObstacleSpec(eval=lambda t, x: np.full_like(np.asarray(x, dtype=np.float64), level))


def affine_obstacle(a: float, b: float) -> ObstacleSpec:
    """S(t) = a + b * t, state-independent."""
    return ObstacleSpec(eval=lambda t, x: np.full_like(np.asarray(x, dtype=np.float64), a + b * t))


def put_obstacle(strike: float) -> ObstacleSpec:
    return ObstacleSpec(eval=lambda t, x: np.maximum(strike - np.asarray(x, dtype=np.float64), 0.0))


OBSTACLE_CATALOG = {
    "none": no_obstacle,
    "constant": constant_obstacle,
    "affine": affine_obstacle,
    "put": put_obstacle,
}


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal data as callables of (t, x).

    xi gives Y on [T, T+delta]; eta gives Z there (placed in the first
    component, remaining components zero); zeta gives the reflection-path
    extension on (T, T+delta] and must be nondecreasing in t pathwise.
    """

    xi: Callable[[float, np.ndarray], np.ndarray]
    eta: Callable[[float, np.ndarray], np.ndarray] | None = None
    zeta: Callable[[float, np.ndarray], np.ndarray] | None = None


def constant_terminal(value: float, zeta_rate: float = 0.0, T: float | None = None) -> TerminalSpec:
    """xi = value, eta = 0, zeta = zeta_rate * (t - T) (zero when rate is 0)."""

    def _zeta(t, x):
        base = 0.0 if T is None else T
        return np.full_like(np.asarray(x, dtype=np.float64), zeta_rate * max(t - base, 0.0))

    return TerminalSpec(
        xi=lambda t, x: np.full_like(np.asarray(x, dtype=np.float64), value),
        zeta=_zeta if zeta_rate != 0.0 else None,
    )


def payoff_terminal(payoff: Callable[[np.ndarray], np.ndarray]) -> TerminalSpec:
    """xi(t, x) = payoff(x); the natural choice when the obstacle is the same payoff."""
    return TerminalSpec(xi=lambda t, x: payoff(np.asarray(x, dtype=np.float64)))


@dataclass
class ProblemBundle:
    """Everything a solve needs. Exactly one backend is populated."""

    grid: TimeGrid
    delays: DelaySpec
    gen: GeneratorSpec
    obstacle: ObstacleSpec
    terminal: TerminalSpec
    G: ResistanceFunctional
    state_map: StateMap = field(default_factory=StateMap)
    backend: str = "tree"
    tree: TreeModel | None = None
    ensemble: PathEnsemble | None = None
    basis: BasisSpec | None = None

    def __post_init__(self):
        if self.backend == "tree":
            if self.tree is None:
                self.tree = TreeModel(grid=self.grid, x0=self.state_map.x0, sigma=self.state_map.sigma)
        elif self.backend == "regression":
            if self.ensemble is None:
                raise ConfigurationError("regression backend needs a path ensemble")
            if self.basis is None:
                self.basis = BasisSpec(degree=2)
        else:
            raise ConfigurationError(f"unknown backend {self.backend!r}")

    def states(self, i: int) -> np.ndarray:
        """Model state at grid index i: per node on the lattice, per path on the ensemble."""
        if self.backend == "tree":
            return self.tree.state_nodes(i)
        return self.state_map(self.ensemble.W[:, i])


class _LevelReads:
    """Read protocol shared by both solution containers.

    y(i), z(i) and dk(i) give the level-i values, one row per path on the
    ensemble and per node on the lattice (z as [rows, d]); K holds the
    reflection paths as [k_rows, L] rows (P pathwise rows, or the lattice's
    one mean row), which k_path() returns as the next frozen path;
    expect(i, v) is the expectation of a level-i array under the level's
    weights (1/P per path, binomial per node).
    """

    def root_value(self) -> float:
        """Y at t = 0; F_0 is trivial, so every path (node) there holds this value."""
        return float(self.y(0)[0])

    def k_path(self) -> np.ndarray:
        return self.K


@dataclass
class SolutionTriple(_LevelReads):
    """Per-path solution arrays on the ensemble backend.

    Y: [P, L]; Z: [P, L-1, d]; K: [P, L] with K[:, 0] = 0, nondecreasing on
    [0, T], and equal to the zeta extension beyond T. dK holds the reflection
    increments attributed to steps 0..N-1.
    """

    Y: np.ndarray
    Z: np.ndarray
    K: np.ndarray
    dK: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    kind = "ensemble"  # a class attribute, not a field

    def y(self, i: int) -> np.ndarray:
        return self.Y[:, i]

    def z(self, i: int) -> np.ndarray:
        return self.Z[:, i, :]

    def dk(self, i: int) -> np.ndarray:
        return self.dK[:, i]

    def expect(self, i: int, v: np.ndarray) -> float:
        return float(v.mean())


@dataclass
class LatticeSolution(_LevelReads):
    """Node-valued solution on the recombining lattice.

    Y[i] and dK[i] are arrays over the i+1 nodes of level i; Z[i] likewise for
    i < L-1. The reflection process is collapsed to its exact mean path, the
    one row of K: [1, L] (a recombining lattice cannot carry pathwise
    reflection history); K carries the zeta extension beyond T.
    """

    Y: list
    Z: list
    dK: list
    K: np.ndarray
    tree: TreeModel
    diagnostics: dict = field(default_factory=dict)

    kind = "lattice"  # a class attribute, not a field

    def y(self, i: int) -> np.ndarray:
        return self.Y[i]

    def z(self, i: int) -> np.ndarray:
        return self.Z[i][:, None]

    def dk(self, i: int) -> np.ndarray:
        return self.dK[i]

    def expect(self, i: int, v: np.ndarray) -> float:
        return float(np.dot(self.tree.level_probs[i], v))


def validate_triple(sol, problem: ProblemBundle, tol: float = 1e-12) -> dict:
    """Check the structural invariants of a computed solution.

    Returns a report dict; raises nothing. Reflection: Y >= S - tol on [0, T].
    K starts at 0 and is nondecreasing there. The discrete reflection-residual
    sum  sum_i (Y_i - S_i) * dK_i is zero by construction and is reported.
    """
    grid = problem.grid
    N = grid.N
    refl = 0.0
    skorokhod = 0.0
    for i in range(N + 1):
        gap = sol.y(i) - problem.obstacle.eval(grid.times[i], problem.states(i))
        refl = min(refl, float(gap.min()))
        if i < N:
            skorokhod = max(skorokhod, float(np.abs(gap * sol.dk(i)).max()))
    K = sol.K[:, : N + 1]
    dk_min = float(np.diff(K, axis=1).min()) if N > 0 else 0.0
    return {
        "min_reflection_gap": refl,
        "reflection_ok": refl >= -tol,
        "skorokhod_max": skorokhod,
        "k_monotone_ok": dk_min >= -tol and float(np.abs(K[:, 0]).max()) == 0.0,
        "skorokhod_ok": skorokhod <= tol,
    }

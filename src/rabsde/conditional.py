"""Conditional expectation estimators.

Two backends realize E[X | F_{t_i}] on simulated data:

* regression on a polynomial basis in the Brownian state (general, statistical);
* a recombining binomial lattice with exact one-step averaging (1-D Markovian
  oracle, used for cross-checks and deterministic fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import ConfigurationError, ValidationError
from .grids import PathEnsemble, TimeGrid

BASIS_KINDS = ("state",)


@dataclass(frozen=True)
class BasisSpec:
    """Polynomial regression basis.

    kind "state" uses the Brownian components at the query time. degree is the
    total polynomial degree; ridge >= 0 is the Tikhonov weight (0 means plain
    least squares with an automatic minimal fallback on rank deficiency).
    """

    kind: str = "state"
    degree: int = 2
    ridge: float = 0.0

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ConfigurationError(f"unknown basis kind {self.kind!r}, expected one of {BASIS_KINDS}")
        if self.degree < 0:
            raise ConfigurationError(f"degree must be >= 0, got {self.degree}")
        if self.ridge < 0:
            raise ConfigurationError(f"ridge must be >= 0, got {self.ridge}")


def _monomials(variables: np.ndarray, degree: int) -> np.ndarray:
    """Design matrix of all monomials with total degree <= degree.

    variables: [P, v]. Column order is fixed (degree-major, lexicographic), so
    repeated calls are bit-identical.
    """
    P, v = variables.shape
    cols = [np.ones(P)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(v), deg):
            col = variables[:, combo[0]].copy()
            for idx in combo[1:]:
                col *= variables[:, idx]
            cols.append(col)
    return np.column_stack(cols)


class RegressionCE:
    """Least-squares projection onto basis functions of the time-t_i state.

    At i = 0 the filtration is trivial and the fitted value is the plain sample
    mean. The design at level i depends on W_i only, so one estimator serves a
    whole solve: each level's Cholesky factor of X^T X (+ ridge I) is computed
    once and kept, while the design itself is rebuilt once per step, because
    keeping every level's design would cost P * n_basis floats per level.
    """

    def __init__(self, ensemble: PathEnsemble, basis: BasisSpec):
        self.ensemble = ensemble
        self.basis = basis
        n_basis = 1
        for deg in range(1, basis.degree + 1):
            n_basis += comb(ensemble.d + deg - 1, deg)
        if n_basis > ensemble.P / 10:
            raise ConfigurationError(
                f"{n_basis} basis functions for {ensemble.P} paths exceeds the P/10 cap"
            )
        self.n_basis = n_basis
        self._design_i: int | None = None
        self._design = None
        self._factors: dict = {}  # level -> lower Cholesky factor of the Gram matrix
        self.auto_ridge_steps: set[int] = set()

    def _factorize(self, i: int, X: np.ndarray) -> np.ndarray:
        gram = X.T @ X
        if self.basis.ridge > 0:
            return np.linalg.cholesky(gram + self.basis.ridge * np.eye(len(gram)))
        try:
            factor = np.linalg.cholesky(gram)
            # pivot k over the norm of column k is the sine of that column's
            # angle to the earlier columns, so the test does not depend on scale
            singular = bool(np.any(np.diag(factor) <= 1e-6 * np.sqrt(np.diag(gram))))
        except np.linalg.LinAlgError:
            singular = True
        if singular:
            # Singular normal equations: fall back to a minimal ridge so the
            # sweep stays alive, and flag the step.
            eps = 1e-10 * float(np.trace(gram)) / len(gram)
            factor = np.linalg.cholesky(gram + eps * np.eye(len(gram)))
            self.auto_ridge_steps.add(i)
        return factor

    def fit(self, i: int, targets: np.ndarray) -> np.ndarray:
        """Fitted conditional expectation per path. targets: [P] or [P, k]."""
        targets = np.asarray(targets, dtype=np.float64)
        if not np.all(np.isfinite(targets)):
            raise ValidationError(f"non-finite regression targets at step {i}")
        if i == 0:
            mean = targets.mean(axis=0)
            return np.broadcast_to(mean, targets.shape).copy()
        if self._design_i != i:
            self._design = _monomials(self.ensemble.W[:, i, :], self.basis.degree)
            self._design_i = i
        X = self._design
        factor = self._factors.get(i)
        if factor is None:
            factor = self._factors[i] = self._factorize(i, X)
        coef = np.linalg.solve(factor.T, np.linalg.solve(factor, X.T @ targets))
        return X @ coef


@dataclass(frozen=True)
class TreeModel:
    """Recombining binomial lattice for the 1-D state X_t = x0 + sigma * W_t.

    Level i has i+1 nodes; node k carries W = sqrt(h) * (2k - i), each branch
    with probability 1/2. One-step expectations are exact averages, so the
    lattice serves as the exact oracle backend.
    """

    grid: TimeGrid
    x0: float = 0.0
    sigma: float = 1.0

    @property
    def levels(self) -> int:
        return self.grid.N + self.grid.M

    def w_nodes(self, level: int) -> np.ndarray:
        k = np.arange(level + 1, dtype=np.float64)
        return np.sqrt(self.grid.h) * (2.0 * k - level)

    def state_nodes(self, level: int) -> np.ndarray:
        return self.x0 + self.sigma * self.w_nodes(level)

    @cached_property
    def level_probs(self) -> list:
        """Exact reach probabilities of every level, built in one forward pass of
        halving. Computed once per lattice and shared, so the arrays are read-only."""
        probs = [np.array([1.0])]
        for _ in range(self.levels):
            p = probs[-1]
            nxt = np.zeros(p.size + 1)
            nxt[1:] += 0.5 * p
            nxt[:-1] += 0.5 * p
            probs.append(nxt)
        for p in probs:
            p.flags.writeable = False
        return probs


def tree_ce(tree: TreeModel, level: int, values_next: np.ndarray) -> np.ndarray:
    """Exact one-step expectation: average of the up and down children."""
    if not (0 <= level < tree.levels):
        raise ConfigurationError(f"level {level} out of range [0, {tree.levels})")
    values_next = np.asarray(values_next, dtype=np.float64)
    if values_next.shape[0] != level + 2:
        raise ConfigurationError(
            f"expected {level + 2} node values at level {level + 1}, got {values_next.shape[0]}"
        )
    return 0.5 * (values_next[1:] + values_next[:-1])


def tree_rollback(tree: TreeModel, from_level: int, to_level: int, values: np.ndarray) -> np.ndarray:
    """Repeated one-step averaging from from_level down to to_level inclusive: the Snell
    oracle's level-by-level path, independent on purpose (the sweep does not use it)."""
    out = np.asarray(values, dtype=np.float64)
    for lvl in range(from_level - 1, to_level - 1, -1):
        out = tree_ce(tree, lvl, out)
    return out

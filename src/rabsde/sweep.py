"""Backward reflected sweep with a frozen reflection path.

The discrete step is written once (sweep): walking the grid from T
down to 0, the solution takes a predictor step with the driver (anticipated
arguments read from already-computed future values through the conditional
expectation E_i) and is then projected onto the obstacle. The projection makes
the discrete reflection condition exact: the increment dK is positive only
where Y sits on the obstacle, so sum (Y - S) dK = 0 identically.

The backends differ only in how E_i is estimated. Each supplies a per-sweep
object with four hooks:

* level storage: Y, Z and dK, indexed by level first, each level a writable array;
* ce(i, values, from_level): E_i of values living on level from_level;
* z(i, y_next, cont): the Z estimator;
* finish(zeta): the solution container, given the zeta extension per level.

Only the reflection path k is frozen, as [k_rows, L] rows: P pathwise rows on
the ensemble, one exact mean row on the lattice. The resistance G reads it
once per sweep; no inner fixed point over (Y, Z) is needed because the sweep
is backward.
"""

from __future__ import annotations

import numpy as np

from .conditional import RegressionCE, tree_ce
from .errors import ValidationError
from .generators import eval_f
from .grids import cumsum_levels
from .problems import LatticeSolution, ProblemBundle, SolutionTriple
from .resistance import eval_G, eval_G_matrix  # eval_G is unused here; bench/tracing.py wraps sweep.eval_G

# the rules a config can name; "user-supplied" also needs a path, so only library calls use it
WARM_STARTS = ("zero", "zeta-extension-only")


class _EnsembleLevels:
    """Regression backend: per-path levels, least-squares E_i.

    The Z estimator regresses the centred martingale increment
    (Y_{i+1} - E_i[Y_{i+1}]) * dW_i / h, which is exact for constant data.
    """

    def __init__(self, problem: ProblemBundle, ce: RegressionCE | None):
        grid, ens = problem.grid, problem.ensemble
        N, L = grid.N, grid.n_points
        self.h, self.dW = grid.h, ens.dW
        # level-major storage: each level is one contiguous row
        self.Y = np.zeros((L, ens.P))
        self.Z = np.zeros((L - 1, ens.P, ens.d))
        self.dK = np.zeros((N, ens.P))
        self.est = estimator(problem) if ce is None else ce

    def ce(self, i: int, values: np.ndarray, from_level: int) -> np.ndarray:
        return self.est.fit(i, values)

    def z(self, i: int, y_next: np.ndarray, cont: np.ndarray) -> np.ndarray:
        return self.est.fit(i, (y_next - cont)[:, None] * self.dW[:, i, :]) / self.h

    def finish(self, zeta: list) -> SolutionTriple:
        N = len(self.dK)
        K = np.zeros_like(self.Y)
        cumsum_levels(self.dK, K[1 : N + 1])
        for j, vals in enumerate(zeta):
            K[N + 1 + j] = vals
        diagnostics = {
            "root_stderr": float(self.Y[1].std() / np.sqrt(K.shape[1])),
            "auto_ridge_steps": sorted(self.est.auto_ridge_steps),
        }
        return SolutionTriple(
            Y=self.Y.T, Z=self.Z.transpose(1, 0, 2), K=K.T, dK=self.dK.T, diagnostics=diagnostics
        )


class _LatticeLevels:
    """Tree backend: per-node levels, exact one-step E_i.

    The lattice state recombines, so pathwise reflection histories are not
    representable: the frozen path is one row, [1, L], and the fixed-point
    loop refreezes the exact mean path.
    """

    def __init__(self, problem: ProblemBundle, frozen_k: np.ndarray):
        grid = problem.grid
        N, L = grid.N, grid.n_points
        if frozen_k.shape != (1, L):
            raise ValidationError(
                f"lattice sweep needs one deterministic reflection path of shape (1, {L}), got {frozen_k.shape}"
            )
        self.problem, self.tree = problem, problem.tree
        self.Y = [np.zeros(i + 1) for i in range(L)]
        self.Z = [np.zeros(i + 1) for i in range(L - 1)]
        self.dK = [np.zeros(i + 1) for i in range(N)]

    def ce(self, i: int, values: np.ndarray, from_level: int) -> np.ndarray:
        for lvl in range(from_level - 1, i - 1, -1):
            values = tree_ce(self.tree, lvl, values)
        return values

    def z(self, i: int, y_next: np.ndarray, cont: np.ndarray) -> np.ndarray:
        return (y_next[1:] - y_next[:-1]) / (2.0 * np.sqrt(self.problem.grid.h))

    def finish(self, zeta: list) -> LatticeSolution:
        N = len(self.dK)
        K = np.zeros((1, len(self.Y)))
        K[0, 1 : N + 1] = np.cumsum([float(np.dot(self.tree.level_probs[i], self.dK[i])) for i in range(N)])
        for j, vals in enumerate(zeta):
            if vals.size > 1 and float(np.ptp(vals)) > 1e-12:
                raise ValidationError("tree backend needs a deterministic (state-free) zeta extension")
            K[0, N + 1 + j] = vals.flat[0]
        return LatticeSolution(
            Y=self.Y, Z=self.Z, dK=self.dK, K=K, tree=self.tree, diagnostics={"root_stderr": 0.0},
        )


def sweep(problem: ProblemBundle, frozen_k: np.ndarray, ce: RegressionCE | None = None):
    """One backward sweep of the reflected scheme with the reflection path frozen at frozen_k.

    frozen_k is [k_rows, L]: one row on the tree backend, P rows on the
    regression backend. ce is the regression estimator to reuse (one is built
    when None). Returns a LatticeSolution or a SolutionTriple.
    """
    frozen_k = np.asarray(frozen_k, dtype=np.float64)
    lv = _LatticeLevels(problem, frozen_k) if problem.backend == "tree" else _EnsembleLevels(problem, ce)
    grid, gen, delays, terminal = problem.grid, problem.gen, problem.delays, problem.terminal
    N, M, h = grid.N, grid.M, grid.h
    L = grid.n_points
    Y, Z, dK = lv.Y, lv.Z, lv.dK
    for i in range(N, L):
        Y[i][...] = terminal.xi(grid.times[i], problem.states(i))
    if terminal.eta is not None:
        for i in range(N, L - 1):
            # a scalar eta fills the first Z component; the others stay zero
            vals = np.asarray(terminal.eta(grid.times[i], problem.states(i)), dtype=np.float64)
            vals = vals.reshape(len(vals), -1)
            Z[i].reshape(len(vals), -1)[:, : vals.shape[1]] = vals
    zeta = []
    if terminal.zeta is not None:
        zeta = [np.asarray(terminal.zeta(grid.times[i], problem.states(i)), dtype=np.float64) for i in range(N + 1, L)]

    s_T = problem.obstacle.eval(grid.times[N], problem.states(N))
    bad = np.flatnonzero(Y[N] < s_T - 1e-12)
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"terminal value below the obstacle at T on path/node {k}: xi={Y[N][k]} < S={s_T[k]}")

    use_theta = gen.reads("theta")
    G_at = {}
    if gen.reads("m") or gen.reads("mbar"):
        # G at every step and look-ahead index, read once per sweep
        needed = sorted(set(range(N)) | {int(delays.eps_idx[i]) for i in range(N)})
        G_at = dict(zip(needed, eval_G_matrix(problem.G, frozen_k, grid, needed).T))
    for i in range(N - 1, -1, -1):
        t_i = grid.times[i]
        cont = lv.ce(i, Y[i + 1], i + 1)
        Z[i][...] = lv.z(i, Y[i + 1], cont)
        z = Z[i].reshape(len(cont), -1)
        theta = vartheta = m = mbar = np.zeros_like(cont)
        if use_theta:
            j = int(delays.mu_idx[i])
            if j <= i:
                # degenerate (delta = 0) anticipation collapses onto the current
                # value; the explicit scheme proxies it by the continuation
                theta = np.abs(cont) if gen.anticipate_abs_y else cont
            else:
                theta = lv.ce(i, np.abs(Y[j]) if gen.anticipate_abs_y else Y[j], j)
        if gen.uses_anticipated_z:
            j = min(int(delays.nu_idx[i]), L - 2)  # Z has one fewer index than Y
            zj = Z[j]
            if gen.anticipate_abs_z:
                zj = np.sqrt((zj.reshape(len(zj), -1) ** 2).sum(axis=1))
            vartheta = lv.ce(i, zj, j)
        if G_at:
            m, ei = G_at[i], int(delays.eps_idx[i])
            # a deterministic (one-row) G is its own conditional expectation
            mbar = m if ei == i else G_at[ei] if len(frozen_k) == 1 else lv.ce(i, G_at[ei], ei)

        ytilde = cont + h * eval_f(gen, t_i, cont, z, theta, vartheta, m, mbar)
        Y[i][...] = np.maximum(ytilde, problem.obstacle.eval(t_i, problem.states(i)))
        dK[i][...] = Y[i] - ytilde

    sol = lv.finish(zeta)
    K = sol.K
    if M > 1 and float(np.diff(K[:, N + 1 :], axis=1).min()) < -1e-12:
        raise ValidationError("zeta extension must be nondecreasing in t")
    sol.diagnostics.update(
        dk_mean=np.array([sol.expect(i, sol.dk(i)) for i in range(N)]),
        dk_max=np.array([float(sol.dk(i).max()) for i in range(N)]),
        k_terminal_gap=float(np.abs(K[:, N] - K[:, N + 1]).mean()) if M > 0 else 0.0,
    )
    return sol


def estimator(problem: ProblemBundle) -> RegressionCE | None:
    """The conditional-expectation estimator one solve shares across its sweeps
    (None on the lattice, whose rollback needs no state)."""
    return None if problem.backend == "tree" else RegressionCE(problem.ensemble, problem.basis)


def warm_start_k(problem: ProblemBundle, rule: str = "zeta-extension-only", user_path=None) -> np.ndarray:
    """Initial frozen reflection path: zeros on [0, T], optionally the zeta extension beyond.

    Returns the [k_rows, L] rows sweep() takes: one on the tree backend, P on
    the regression backend. A user-supplied path is either length L (shared by
    every row) or [k_rows, L].
    """
    if rule not in (*WARM_STARTS, "user-supplied"):
        raise ValidationError(f"unknown warm start rule {rule!r}")
    grid = problem.grid
    L = grid.n_points
    # level-major, like the sweep's storage
    rows = np.zeros((L, 1 if problem.backend == "tree" else problem.ensemble.P))
    if rule == "user-supplied":
        if user_path is None:
            raise ValidationError("user-supplied warm start needs a path")
        path = np.asarray(user_path, dtype=np.float64)
        if path.shape not in ((L,), rows.T.shape):
            raise ValidationError(f"user warm start path must have shape ({L},) or {rows.T.shape}, got {path.shape}")
        rows.T[...] = path
    elif rule == "zeta-extension-only" and problem.terminal.zeta is not None:
        for i in range(grid.N + 1, L):
            # the lattice keeps one row: the sweep requires a state-free zeta there
            rows[i] = np.ravel(problem.terminal.zeta(grid.times[i], problem.states(i)))[: rows.shape[1]]
    return rows.T

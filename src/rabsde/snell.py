"""Optimal-stopping view of the reflected solution on the lattice.

snell_tree_solve computes the dynamic-programming value
    Y(i, node) = max(S(t_i, x), E[Y(i+1, .) | node] + h * f(...))
independently of the main sweep code, and on small trees the value is
cross-checked against an exhaustive maximization over adapted stopping rules
evaluated on the full (non-recombining) binary path tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .conditional import TreeModel, tree_ce, tree_rollback
from .errors import ValidationError
from .generators import eval_f
from .problems import ObstacleSpec, ProblemBundle, TerminalSpec
from .resistance import eval_G

ENUMERATION_CAP = 12


@dataclass
class SnellResult:
    values: list  # per-level node arrays of the DP value
    stop_region: list  # per-level boolean arrays: stopping optimal at the node
    root: float
    oracle_root: float | None = None  # exhaustive stopping value, small trees only


def snell_tree_solve(
    problem: ProblemBundle,
    frozen_k: np.ndarray | None = None,
    brute_force: bool = False,
) -> SnellResult:
    """Dynamic-programming value and stopping region on the lattice.

    Markovian data only: driver, obstacle, and terminal value must be
    functions of (t, state); the frozen reflection path must be one
    deterministic row, [1, L] (or None for zero). Anything else is rejected as
    an unsupported configuration.

    brute_force additionally evaluates the exhaustive maximum over adapted
    stopping rules on the full binary path tree (N+M <= 12, and only for
    drivers without state/solution dependence, where the stopped value is a
    plain running reward).
    """
    grid, tree, gen = problem.grid, problem.tree, problem.gen
    if problem.backend != "tree" or tree is None:
        raise ValidationError("snell_tree_solve needs the tree backend")
    N, M, h = grid.N, grid.M, grid.h
    L = grid.n_points
    if frozen_k is None:
        frozen_k = np.zeros((1, L))
    frozen_k = np.asarray(frozen_k, dtype=np.float64)
    if frozen_k.shape != (1, L):
        raise ValidationError(f"unsupported configuration: frozen_k must be one deterministic path of shape (1, {L})")
    sqrt_h = np.sqrt(h)

    values: list = [None] * L
    stop: list = [None] * L
    for i in range(N, L):
        values[i] = np.asarray(problem.terminal.xi(grid.times[i], tree.state_nodes(i)), dtype=np.float64)
        stop[i] = np.zeros(values[i].shape, dtype=bool)

    use_theta = gen.reads("theta")
    use_m = gen.reads("m") or gen.reads("mbar")
    z_levels: list = [None] * (L - 1)
    for i in range(N, L - 1):
        z_levels[i] = np.zeros(i + 1)

    for i in range(N - 1, -1, -1):
        t_i = grid.times[i]
        cont = tree_ce(tree, i, values[i + 1])
        z = (values[i + 1][1:] - values[i + 1][:-1]) / (2.0 * sqrt_h)
        z_levels[i] = z
        if use_theta:
            j = int(problem.delays.mu_idx[i])
            if j <= i:
                theta = np.abs(cont) if gen.anticipate_abs_y else cont
            else:
                tgt = np.abs(values[j]) if gen.anticipate_abs_y else values[j]
                theta = tree_rollback(tree, j, i, tgt)
        else:
            theta = np.zeros(i + 1)
        if gen.uses_anticipated_z:
            j = min(int(problem.delays.nu_idx[i]), L - 2)  # Z has one fewer index than Y
            ztgt = np.abs(z_levels[j]) if gen.anticipate_abs_z else z_levels[j]
            vartheta = tree_rollback(tree, j, i, ztgt)
        else:
            vartheta = np.zeros(i + 1)
        if use_m:
            m = eval_G(problem.G, frozen_k[0], i, grid)
            mbar = eval_G(problem.G, frozen_k[0], int(problem.delays.eps_idx[i]), grid)
        else:
            m = mbar = 0.0
        f = eval_f(gen, t_i, cont, z[:, None], theta, vartheta, m, mbar)
        continuation = cont + h * f
        s = problem.obstacle.eval(t_i, tree.state_nodes(i))
        values[i] = np.maximum(continuation, s)
        stop[i] = s >= continuation

    oracle_root = None
    if brute_force:
        if gen.depends_on is None or gen.depends_on:
            raise ValidationError(
                "brute-force verification needs a driver without state or solution dependence"
            )

        def reward(i, x):
            return h * float(
                eval_f(gen, grid.times[i], np.zeros(1), np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0]
            )

        # stopping lives on [0, T]: the path tree runs N steps with xi at T
        oracle_root = path_tree_stopping_value(
            tree, problem.obstacle, problem.terminal, N, running_reward=reward
        )
    return SnellResult(values=values, stop_region=stop, root=float(values[0][0]), oracle_root=oracle_root)


def path_tree_stopping_value(
    tree: TreeModel,
    obstacle: ObstacleSpec,
    terminal: TerminalSpec,
    n_steps: int,
    running_reward=None,
) -> float:
    """Exhaustive optimal-stopping value on the full binary path tree.

    Works on the non-recombining tree (2^n leaves), so it is an independent
    oracle for the lattice DP: it never assumes the value recombines.
    running_reward(t_index, x) is an optional per-step reward earned while
    continuing (used for deterministic time-dependent drivers).
    """
    if n_steps > ENUMERATION_CAP:
        raise ValidationError(f"path-tree oracle capped at {ENUMERATION_CAP} steps, got {n_steps}")
    grid = tree.grid
    sqrt_h = np.sqrt(grid.h)

    def x_nodes(level: int) -> np.ndarray:
        # history h at a level is an integer with bit j = up-move at step j
        ups = np.array([bin(h).count("1") for h in range(1 << level)], dtype=np.float64)
        return tree.x0 + tree.sigma * sqrt_h * (2.0 * ups - level)

    values = np.asarray(terminal.xi(grid.times[n_steps], x_nodes(n_steps)), dtype=np.float64)
    for i in range(n_steps - 1, -1, -1):
        half = 1 << i
        # children of history h: h (down at step i) and h + 2^i (up)
        cont = 0.5 * (values[:half] + values[half : 2 * half])
        x_here = x_nodes(i)
        if running_reward is not None:
            cont = cont + running_reward(i, x_here)
        s = np.asarray(obstacle.eval(grid.times[i], x_here), dtype=np.float64)
        values = np.maximum(cont, s)
    return float(values[0])


def enumerate_stopping_rules_value(
    tree: TreeModel,
    obstacle: ObstacleSpec,
    terminal: TerminalSpec,
    n_steps: int,
) -> float:
    """Literal maximum over every adapted stopping rule on a tiny tree.

    A rule assigns stop/continue to each history node at levels 0..n-1; the
    stopping time is the first stop decision along the path, else n. Only
    feasible for n <= 3 (2^(2^n - 1) rules); used to certify the path-tree
    backward induction.
    """
    if n_steps > 3:
        raise ValidationError("rule enumeration is exponential in 2^n; use n <= 3")
    grid = tree.grid
    sqrt_h = np.sqrt(grid.h)
    n_leaves = 1 << n_steps
    # history nodes: (level, path prefix as bits)
    nodes = [(lvl, pre) for lvl in range(n_steps) for pre in range(1 << lvl)]
    best = -np.inf
    for decisions in product([False, True], repeat=len(nodes)):
        rule = dict(zip(nodes, decisions))
        total = 0.0
        for leaf in range(n_leaves):
            w = 0.0
            stopped = False
            for lvl in range(n_steps):
                pre = leaf & ((1 << lvl) - 1)
                if rule[(lvl, pre)]:
                    x = tree.x0 + tree.sigma * w
                    total += float(np.asarray(obstacle.eval(grid.times[lvl], np.array([x])))[0])
                    stopped = True
                    break
                w += sqrt_h if (leaf >> lvl) & 1 else -sqrt_h
            if not stopped:
                x = tree.x0 + tree.sigma * w
                total += float(np.asarray(terminal.xi(grid.times[n_steps], np.array([x])))[0])
        best = max(best, total / n_leaves)
    return float(best)

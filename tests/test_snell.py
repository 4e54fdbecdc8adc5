import pathlib

import numpy as np
import pytest

from rabsde import config
from rabsde.errors import ValidationError
from rabsde.generators import constant_generator, zero_generator
from rabsde.grids import build_grid, make_delays
from rabsde.picard import solve_rabsde
from rabsde.problems import (
    ProblemBundle,
    StateMap,
    constant_terminal,
    no_obstacle,
    payoff_terminal,
    put_obstacle,
)
from rabsde.resistance import ResistanceFunctional
from rabsde.snell import (
    enumerate_stopping_rules_value,
    path_tree_stopping_value,
    snell_tree_solve,
)
from rabsde.sweep import sweep, warm_start_k

CONFIGS = pathlib.Path(__file__).parents[1] / "configs"


def make_problem(grid, gen, obstacle, terminal, sigma=1.0, x0=0.0):
    return ProblemBundle(
        grid=grid,
        delays=make_delays(grid),
        gen=gen,
        obstacle=obstacle,
        terminal=terminal,
        G=ResistanceFunctional("lagged_value", eps=0.0),
        state_map=StateMap(x0=x0, sigma=sigma),
        backend="tree",
    )


class TestDpValue:
    def test_american_dominates_european(self):
        grid = build_grid(T=1.0, delta=0.0, N=10, M=0)
        payoff = lambda x: np.maximum(0.2 - x, 0.0)
        prob = make_problem(grid, zero_generator(), put_obstacle(0.2), payoff_terminal(payoff))
        dp = snell_tree_solve(prob)
        # European value: same terminal, no obstacle
        eur = snell_tree_solve(make_problem(grid, zero_generator(), no_obstacle(), payoff_terminal(payoff)))
        assert dp.root >= eur.root - 1e-14

    def test_obstacle_below_continuation_gives_rollback(self):
        grid = build_grid(T=1.0, delta=0.0, N=8, M=0)
        prob = make_problem(grid, zero_generator(), no_obstacle(), constant_terminal(2.0))
        dp = snell_tree_solve(prob)
        assert dp.root == pytest.approx(2.0, abs=1e-12)
        for lvl in range(grid.N):
            assert not dp.stop_region[lvl].any()

    def test_matches_lattice_sweep(self):
        # the DP and the main sweep are independent code paths for the same recursion
        grid = build_grid(T=1.0, delta=0.0, N=12, M=0)
        payoff = lambda x: np.maximum(0.4 - x, 0.0)
        prob = make_problem(grid, constant_generator(0.3), put_obstacle(0.4), payoff_terminal(payoff), sigma=0.8)
        dp = snell_tree_solve(prob)
        sol = sweep(prob, warm_start_k(prob))
        for i in range(grid.N + 1):
            assert np.abs(dp.values[i] - sol.Y[i]).max() <= 1e-10

    def test_lattice_mbar_matches_snell_on_shipped_config(self):
        # solve_tree.json anticipates the resistance eps = 0.1 ahead, 4 steps of
        # h = 0.025, so mbar reads a later row of the frozen path's G
        resolved = config.resolve_config(config.load_config(str(CONFIGS / "solve_tree.json")))
        prob = config.build_problem(resolved)
        grid = prob.grid
        assert all(int(prob.delays.eps_idx[i]) > i for i in range(grid.N))
        sol, _ = solve_rabsde(prob, config=config.picard_config(resolved))
        assert sol.K.shape == (1, grid.n_points) and sol.K[0, grid.N] > 0
        resweep = sweep(prob, sol.k_path())
        dp = snell_tree_solve(prob, sol.k_path())
        for i in range(grid.n_points):
            assert np.abs(resweep.Y[i] - dp.values[i]).max() <= 1e-12

    def test_rejects_pathwise_frozen_k(self):
        grid = build_grid(T=1.0, delta=0.0, N=5, M=0)
        prob = make_problem(grid, zero_generator(), no_obstacle(), constant_terminal(1.0))
        with pytest.raises(ValidationError, match="unsupported"):
            snell_tree_solve(prob, frozen_k=np.zeros((3, grid.n_points)))


class TestExhaustiveOracle:
    @pytest.mark.parametrize("n,strike,sigma", [(4, 0.0, 1.0), (8, 0.3, 0.7), (12, -0.2, 1.2)])
    def test_dp_equals_path_tree_maximum(self, n, strike, sigma):
        grid = build_grid(T=1.0, delta=0.0, N=n, M=0)
        payoff = lambda x: np.maximum(strike - x, 0.0)
        prob = make_problem(grid, zero_generator(), put_obstacle(strike), payoff_terminal(payoff), sigma=sigma)
        dp = snell_tree_solve(prob)
        oracle = path_tree_stopping_value(prob.tree, prob.obstacle, prob.terminal, n)
        assert abs(dp.root - oracle) <= 1e-10

    def test_path_tree_equals_literal_rule_enumeration(self):
        # n = 3: all 2^7 adapted stopping rules enumerated literally
        grid = build_grid(T=1.0, delta=0.0, N=3, M=0)
        payoff = lambda x: np.maximum(0.1 - x, 0.0)
        prob = make_problem(grid, zero_generator(), put_obstacle(0.1), payoff_terminal(payoff))
        by_tree = path_tree_stopping_value(prob.tree, prob.obstacle, prob.terminal, 3)
        by_rules = enumerate_stopping_rules_value(prob.tree, prob.obstacle, prob.terminal, 3)
        assert by_tree == pytest.approx(by_rules, abs=1e-12)
        dp = snell_tree_solve(prob)
        assert dp.root == pytest.approx(by_rules, abs=1e-12)

    def test_running_reward_representation(self):
        # deterministic time-dependent driver: the stopping representation earns
        # h*f while continuing; the DP with the same driver must agree
        grid = build_grid(T=1.0, delta=0.0, N=8, M=0)
        c = 0.4
        payoff = lambda x: np.maximum(0.3 - x, 0.0)
        prob = make_problem(grid, constant_generator(c), put_obstacle(0.3), payoff_terminal(payoff))
        dp = snell_tree_solve(prob)
        oracle = path_tree_stopping_value(
            prob.tree, prob.obstacle, prob.terminal, 8,
            running_reward=lambda i, x: grid.h * c,
        )
        assert abs(dp.root - oracle) <= 1e-10

    def test_oracle_cap(self):
        grid = build_grid(T=1.0, delta=0.0, N=13, M=0)
        prob = make_problem(grid, zero_generator(), no_obstacle(), constant_terminal(1.0))
        with pytest.raises(ValidationError):
            path_tree_stopping_value(prob.tree, prob.obstacle, prob.terminal, 13)

    def test_solver_attaches_oracle_root(self):
        grid = build_grid(T=1.0, delta=0.0, N=8, M=0)
        payoff = lambda x: np.maximum(0.2 - x, 0.0)
        prob = make_problem(grid, constant_generator(0.3), put_obstacle(0.2), payoff_terminal(payoff))
        dp = snell_tree_solve(prob, brute_force=True)
        assert dp.oracle_root is not None
        assert abs(dp.root - dp.oracle_root) <= 1e-10

    def test_oracle_rejected_for_state_dependent_driver(self):
        from rabsde.generators import delay_linear_generator

        grid = build_grid(T=1.0, delta=0.5, N=6, M=3)
        prob = make_problem(grid, delay_linear_generator(c=0.5), no_obstacle(), constant_terminal(1.0))
        with pytest.raises(ValidationError, match="brute-force"):
            snell_tree_solve(prob, brute_force=True)

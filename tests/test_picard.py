import numpy as np
import pytest

from rabsde.conditional import BasisSpec
from rabsde.errors import NonConvergenceError, ValidationError
from rabsde.generators import (
    delay_linear_generator,
    resistance_linear_generator,
)
from rabsde.grids import build_grid, make_delays, sample_brownian
from rabsde.picard import (
    PicardConfig,
    WeightedNormParams,
    compute_constants,
    fixed_point_residual,
    solve_rabsde,
    weighted_distance,
)
from rabsde.problems import (
    ProblemBundle,
    StateMap,
    affine_obstacle,
    constant_terminal,
    no_obstacle,
    validate_triple,
)
from rabsde.resistance import ResistanceFunctional


def contraction_fixture(backend="tree", P=4000, seed=3, c=0.3, c1=0.0015):
    """Resistance-coupled problem with an active obstacle and margin <= 1/4."""
    grid = build_grid(T=0.5, delta=0.25, N=20, M=10)
    gen = resistance_linear_generator(c=c, c1=c1)
    obstacle = affine_obstacle(a=1.4, b=-0.8)  # S = 1.4 - 0.8 t, S(T) = 1.0 = xi
    terminal = constant_terminal(1.0)
    G = ResistanceFunctional("lagged_value", eps=0.1)
    kw = dict(
        grid=grid, delays=make_delays(grid), gen=gen, obstacle=obstacle,
        terminal=terminal, G=G, state_map=StateMap(0.0, 1.0), backend=backend,
    )
    if backend == "regression":
        kw["ensemble"] = sample_brownian(grid, P=P, d=1, seed=seed)
        kw["basis"] = BasisSpec(degree=2)
    return ProblemBundle(**kw)


class TestComputeConstants:
    def test_unit_constants(self):
        params, margin = compute_constants(C=1.0, C1=0.0, L=1.0, T=1.0, delta=0.0)
        assert params.lam == 48.0
        assert params.beta == 50.0
        assert margin == 0.0

    def test_gamma_formula(self):
        C, L, T = 0.5, 1.0, 0.5
        params, _ = compute_constants(C=C, C1=0.1, L=L, T=T, delta=0.0)
        block = 6 * C * C * (1 + L)
        lam = 4 * block
        beta = lam + 2
        ebt = np.exp(beta * T)
        bdg = 4 * T * ebt + 16 * T * ebt * (1 + ebt)
        assert params.gamma == pytest.approx(4 * (bdg * block + 4 * ebt), rel=1e-14)

    def test_zero_c1_margin_zero(self):
        _, margin = compute_constants(C=3.0, C1=0.0, L=2.0, T=1.0, delta=0.5)
        assert margin == 0.0

    def test_lambda_floor(self):
        params, margin = compute_constants(C=0.0, C1=0.1, L=0.0, T=1.0, delta=0.0)
        assert params.lambda_floored
        assert params.lam == 1e-8
        assert np.isfinite(margin)

    def test_overflow_reports_infinite_margin(self):
        params, margin = compute_constants(C=10.0, C1=0.1, L=1.0, T=1.0, delta=0.0)
        assert params.overflowed
        assert margin == np.inf

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            compute_constants(C=-1.0, C1=0.0, L=0.0, T=1.0, delta=0.0)


@pytest.mark.parametrize("kind", ["ensemble", "lattice"])
class TestWeightedDistance:
    def _triples(self, grid, kind, P=5, d=1):
        from rabsde.conditional import TreeModel
        from rabsde.problems import LatticeSolution, SolutionTriple

        L = grid.n_points
        if kind == "ensemble":
            mk = lambda: SolutionTriple(
                Y=np.zeros((P, L)), Z=np.zeros((P, L - 1, d)), K=np.zeros((P, L)), dK=np.zeros((P, grid.N))
            )
        else:
            tree = TreeModel(grid=grid)
            levels = lambda n: [np.zeros(i + 1) for i in range(n)]
            mk = lambda: LatticeSolution(
                Y=levels(L), Z=levels(L - 1), dK=levels(grid.N), K=np.zeros((1, L)), tree=tree
            )
        return mk(), mk()

    def test_identical_is_zero(self, kind):
        grid = build_grid(T=1.0, delta=0.0, N=10, M=0)
        a, b = self._triples(grid, kind)
        params = WeightedNormParams(lam=1.0, beta=0.0, gamma=1.0)
        assert weighted_distance(a, b, params, grid) == 0.0

    def test_unit_y_difference_beta_zero(self, kind):
        grid = build_grid(T=1.0, delta=0.0, N=50, M=0)
        a, b = self._triples(grid, kind)
        for i in range(grid.N):
            a.y(i)[:] = 1.0
        params = WeightedNormParams(lam=1.0, beta=0.0, gamma=1.0)
        assert weighted_distance(a, b, params, grid) == pytest.approx(1.0, abs=1e-12)

    def test_k_sup_term(self, kind):
        grid = build_grid(T=1.0, delta=0.0, N=100, M=0)
        a, b = self._triples(grid, kind)
        c, beta, gamma = 0.7, 2.0, 3.0
        a.K[:, 1:] = c
        params = WeightedNormParams(lam=1.0, beta=beta, gamma=gamma)
        # max over i >= 1 of e^{beta t_i} c^2 / gamma, attained at t = T
        expected = np.exp(beta * 1.0) * c * c / gamma
        assert weighted_distance(a, b, params, grid) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self, kind):
        g1 = build_grid(T=1.0, delta=0.0, N=10, M=0)
        g2 = build_grid(T=1.0, delta=0.0, N=20, M=0)
        a, _ = self._triples(g1, kind)
        _, b = self._triples(g2, kind)
        params = WeightedNormParams(lam=1.0, beta=0.0, gamma=1.0)
        with pytest.raises(ValidationError):
            weighted_distance(a, b, params, g1)


class TestSolve:
    def test_c1_zero_fixed_at_iteration_two(self):
        prob = contraction_fixture(c1=0.0)
        sol, rep = solve_rabsde(prob, config=PicardConfig(tol=1e-12, max_iter=10))
        assert rep.converged
        assert rep.iterations == 2
        assert rep.distances[2] <= 1e-12
        assert rep.margin == 0.0 and not rep.guarantee_void

    def test_contraction_ratios_small(self):
        prob = contraction_fixture(c1=0.0015)
        sol, rep = solve_rabsde(prob, config=PicardConfig(tol=1e-26, max_iter=12))
        assert rep.converged
        assert rep.margin <= 0.25
        assert not rep.guarantee_void
        assert len(rep.ratios) >= 1
        for it, ratio in rep.ratios.items():
            assert ratio <= 0.55
        # obstacle genuinely active: reflection mass present
        assert sol.K[0][prob.grid.N] > 0

    def test_solution_invariants_after_convergence(self):
        prob = contraction_fixture(c1=0.0015)
        sol, rep = solve_rabsde(prob, config=PicardConfig(tol=1e-24, max_iter=12))
        checks = validate_triple(sol, prob)
        assert checks["reflection_ok"] and checks["skorokhod_ok"] and checks["k_monotone_ok"]

    def test_fixed_point_residual_small(self):
        prob = contraction_fixture(c1=0.0015)
        sol, rep = solve_rabsde(prob, config=PicardConfig(tol=1e-24, max_iter=12))
        assert fixed_point_residual(prob, sol) <= 1e-24

    def test_warm_start_independence(self):
        prob = contraction_fixture(c1=0.0015)
        sol_a, _ = solve_rabsde(prob, config=PicardConfig(tol=1e-24, max_iter=15))
        user = np.full(prob.grid.n_points, 0.3)
        user[: prob.grid.N + 1] = np.linspace(0.0, 0.3, prob.grid.N + 1)
        sol_b, _ = solve_rabsde(
            prob, config=PicardConfig(tol=1e-24, max_iter=15, warm_start="user-supplied", user_path=user)
        )
        for i in range(prob.grid.N + 1):
            assert np.abs(sol_a.Y[i] - sol_b.Y[i]).max() <= 1e-10

    def test_warm_start_independence_regression(self):
        prob = contraction_fixture(backend="regression", P=20_000, c1=0.0015)
        sol_a, _ = solve_rabsde(prob, config=PicardConfig(tol=1e-22, max_iter=15))
        user = np.linspace(0.0, 0.4, prob.grid.n_points)
        sol_b, _ = solve_rabsde(
            prob, config=PicardConfig(tol=1e-22, max_iter=15, warm_start="user-supplied", user_path=user)
        )
        # same ensemble, same fixed point: agreement at statistical noise scale
        stderr = np.maximum(sol_a.Y.std(axis=0) / np.sqrt(prob.ensemble.P), 1e-12)
        for i in range(prob.grid.N + 1):
            assert np.abs(sol_a.Y[:, i] - sol_b.Y[:, i]).max() <= 3 * stderr[i] + 1e-10

    def test_nonconvergence_carries_trace(self):
        prob = contraction_fixture(c1=0.0015)
        with pytest.raises(NonConvergenceError) as exc:
            solve_rabsde(prob, config=PicardConfig(tol=1e-300, max_iter=3))
        assert exc.value.report is not None
        assert 2 in exc.value.report.distances
        assert exc.value.triple is not None

    def test_guarantee_void_flag(self):
        # large C1 violates the margin; the loop still runs and converges here
        prob = contraction_fixture(c1=0.05)
        sol, rep = solve_rabsde(prob, config=PicardConfig(tol=1e-20, max_iter=20))
        assert rep.margin > 0.25
        assert rep.guarantee_void
        assert rep.converged

    def test_anticipated_resistance_on_regression_backend(self):
        # eps > 0 routes the anticipated functional value through the
        # conditional-expectation estimator on pathwise reflection paths
        grid = build_grid(T=0.5, delta=0.25, N=20, M=10)
        prob = ProblemBundle(
            grid=grid,
            delays=make_delays(grid, eps=lambda t: 0.1),
            gen=resistance_linear_generator(c=0.3, c1=0.0015),
            obstacle=affine_obstacle(a=1.4, b=-0.8),
            terminal=constant_terminal(1.0),
            G=ResistanceFunctional("lagged_value", eps=0.05),
            backend="regression",
            ensemble=sample_brownian(grid, P=8000, d=1, seed=19),
            basis=BasisSpec(degree=2),
        )
        assert np.all(prob.delays.eps_idx[: grid.N] > np.arange(grid.N))
        sol, rep = solve_rabsde(prob, config=PicardConfig(tol=1e-20, max_iter=15))
        assert rep.converged
        checks = validate_triple(sol, prob)
        assert checks["reflection_ok"] and checks["skorokhod_ok"] and checks["k_monotone_ok"]
        assert sol.K[:, grid.N].mean() > 0

    def test_delay_generator_two_sweeps(self):
        grid = build_grid(T=1.0, delta=0.5, N=20, M=10)
        prob = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=delay_linear_generator(c=0.5),
            obstacle=no_obstacle(), terminal=constant_terminal(1.0),
            G=ResistanceFunctional("lagged_value", eps=0.0), backend="tree",
        )
        sol, rep = solve_rabsde(prob)
        assert rep.iterations == 2
        assert sol.Y[0][0] > 1.0

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from rabsde.conditional import (
    BasisSpec,
    RegressionCE,
    TreeModel,
    tree_ce,
    tree_rollback,
)
from rabsde.errors import ConfigurationError, ValidationError
from rabsde.grids import PathEnsemble, build_grid, sample_brownian


@pytest.fixture(scope="module")
def ensemble():
    g = build_grid(T=1.0, delta=0.0, N=10, M=0)
    return g, sample_brownian(g, P=40_000, d=1, seed=17)


class TestRegression:
    def test_constant_targets_fit_exactly(self, ensemble):
        g, ens = ensemble
        targets = np.full(ens.P, 3.25)
        fitted = RegressionCE(ens, BasisSpec(degree=2)).fit(4, targets)
        assert np.allclose(fitted, 3.25, atol=1e-12)

    def test_martingale_identity(self, ensemble):
        # Oracle: E[W_T | F_t] = W_t analytically. A two-parameter fit deviates
        # from the truth by at most ~(1 + |w|/sd) coefficient noise.
        g, ens = ensemble
        i = 5
        w_i = ens.W[:, i, 0]
        targets = ens.W[:, g.N, 0]
        fitted = RegressionCE(ens, BasisSpec(degree=1)).fit(i, targets)
        resid_sd = (targets - fitted).std()
        stderr = resid_sd / np.sqrt(ens.P)
        leverage = 1.0 + np.abs(w_i).max() / w_i.std()
        assert np.abs(fitted - w_i).max() <= 5 * stderr * leverage

    def test_conditional_second_moment(self, ensemble):
        # Oracle: E[W_T^2 | F_t] = W_t^2 + (T - t) analytically.
        g, ens = ensemble
        i = 6
        t_i = g.times[i]
        targets = ens.W[:, g.N, 0] ** 2
        fitted = RegressionCE(ens, BasisSpec(degree=2)).fit(i, targets)
        truth = ens.W[:, i, 0] ** 2 + (g.T - t_i)
        # compare on the bulk of the state distribution
        bulk = np.abs(ens.W[:, i, 0]) <= 2.0 * np.sqrt(t_i)
        rel = np.abs(fitted[bulk] - truth[bulk]) / (1.0 + truth[bulk])
        assert np.quantile(rel, 0.95) < 0.05

    def test_mean_at_time_zero(self, ensemble):
        g, ens = ensemble
        targets = ens.W[:, 3, 0] ** 2
        fitted = RegressionCE(ens, BasisSpec(degree=3)).fit(0, targets)
        assert np.allclose(fitted, targets.mean())

    def test_linearity(self, ensemble):
        g, ens = ensemble
        x = ens.W[:, g.N, 0] ** 2
        y = np.sin(ens.W[:, g.N, 0])
        basis = BasisSpec(degree=3)
        ce = RegressionCE(ens, basis)
        combo = ce.fit(5, 2.0 * x - 3.0 * y)
        parts = 2.0 * ce.fit(5, x) - 3.0 * ce.fit(5, y)
        assert np.allclose(combo, parts, atol=1e-9)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_linearity_property(self, ensemble, a, b):
        g, ens = ensemble
        x = ens.W[:, 8, 0]
        y = ens.W[:, 9, 0] ** 2
        ce = RegressionCE(ens, BasisSpec(degree=2))
        lhs = ce.fit(4, a * x + b * y)
        rhs = a * ce.fit(4, x) + b * ce.fit(4, y)
        assert np.allclose(lhs, rhs, atol=1e-8)

    def test_tower_property_statistical(self, ensemble):
        g, ens = ensemble
        ce = RegressionCE(ens, BasisSpec(degree=2))
        x = ens.W[:, g.N, 0] ** 2
        inner = ce.fit(6, x)
        lhs = ce.fit(3, inner)
        rhs = ce.fit(3, x)
        stderr = x.std() / np.sqrt(ens.P)
        assert np.abs(lhs - rhs).mean() <= 5 * stderr * 10

    def test_nan_targets_rejected(self, ensemble):
        g, ens = ensemble
        bad = np.full(ens.P, np.nan)
        with pytest.raises(ValidationError):
            RegressionCE(ens, BasisSpec(degree=1)).fit(2, bad)

    def test_basis_cap(self):
        g = build_grid(T=1.0, delta=0.0, N=4, M=0)
        ens = sample_brownian(g, P=30, d=1, seed=1)
        with pytest.raises(ConfigurationError):
            RegressionCE(ens, BasisSpec(degree=5))

    def test_collinear_design_falls_back_to_ridge(self):
        # every +-sqrt(h) walk of N = 8 steps, enumerated: at i = 1 the state is
        # W_1 = +-sqrt(h), so the degree-2 column W_1^2 = h is collinear with 1.
        # At i = 2 it takes three values, so the four degree-3 columns are
        # dependent; at T = 0.5 that Cholesky factor still exists, with a last
        # pivot 1.5e-8 of its column's norm.
        signs = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0
        for T, degree, step in ((1.0, 2, 1), (0.5, 3, 2)):
            g = build_grid(T=T, delta=0.0, N=8, M=0)
            ens = PathEnsemble(P=256, d=1, seed=0, h=g.h, dW=(np.sqrt(g.h) * signs)[:, :, None])
            ce = RegressionCE(ens, BasisSpec(degree=degree))
            fitted = ce.fit(step, ens.W[:, 3, 0])
            assert np.all(np.isfinite(fitted))
            assert step in ce.auto_ridge_steps


class TestTree:
    def test_one_step_examples(self):
        g = build_grid(T=1.0, delta=0.0, N=2, M=0)
        tree = TreeModel(grid=g)
        assert tree_ce(tree, 0, np.array([1.0, 1.0]))[0] == 1.0
        assert tree_ce(tree, 0, np.array([2.0, 0.0]))[0] == 1.0

    def test_level_out_of_range(self):
        g = build_grid(T=1.0, delta=0.0, N=2, M=0)
        tree = TreeModel(grid=g)
        with pytest.raises(ConfigurationError):
            tree_ce(tree, 2, np.array([1.0, 1.0, 1.0, 1.0]))

    def test_rollback_matches_full_expansion(self):
        # Exactness oracle: the rolled-back root equals the probability-weighted
        # sum over terminal nodes (binomial weights) to near machine precision.
        g = build_grid(T=1.0, delta=0.0, N=16, M=0)
        tree = TreeModel(grid=g, x0=0.3, sigma=0.8)
        x = tree.state_nodes(16)
        payoff = np.cos(3.0 * x) + x**2
        root = tree_rollback(tree, 16, 0, payoff)[0]
        probs = tree.level_probs[16]
        full = float(np.dot(probs, payoff))
        assert abs(root - full) <= 1e-12 * max(1.0, abs(full))

    def test_level_probs_sum_to_one(self):
        g = build_grid(T=1.0, delta=0.0, N=12, M=0)
        tree = TreeModel(grid=g)
        for lvl in (0, 1, 5, 12):
            assert tree.level_probs[lvl].sum() == pytest.approx(1.0, abs=1e-14)

    def test_european_put_converges_to_gaussian_value(self):
        # Quadrature oracle: X_T ~ N(x0, sigma^2 T); put value by integrating
        # the payoff against the density.
        x0, sigma, strike, T = 0.1, 0.7, 0.0, 1.0
        sd = sigma * np.sqrt(T)
        oracle, _ = integrate.quad(
            lambda x: max(strike - x, 0.0) * stats.norm.pdf(x, loc=x0, scale=sd),
            x0 - 10 * sd,
            x0 + 10 * sd,
        )
        errors = []
        for n in (50, 100, 200, 400):
            g = build_grid(T=T, delta=0.0, N=n, M=0)
            tree = TreeModel(grid=g, x0=x0, sigma=sigma)
            payoff = np.maximum(strike - tree.state_nodes(n), 0.0)
            root = tree_rollback(tree, n, 0, payoff)[0]
            errors.append(abs(root - oracle))
        assert errors[-1] < 2e-3 * max(oracle, 0.1)
        assert errors[-1] < errors[0]

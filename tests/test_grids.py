import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabsde.errors import ConfigurationError, ValidationError
from rabsde.grids import (
    build_grid,
    check_condition_ii,
    make_delays,
    resolve_delay,
    sample_brownian,
)


class TestBuildGrid:
    def test_unit_grid_with_extension(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        assert g.h == pytest.approx(0.1)
        assert g.times[10] == pytest.approx(1.0)
        assert g.times[15] == pytest.approx(1.5)
        assert g.n_points == 16
        assert np.all(np.diff(g.times) > 0)
        assert np.allclose(np.diff(g.times), g.h)

    def test_degenerate_extension(self):
        g = build_grid(T=1.0, delta=0.0, N=4, M=0)
        assert g.n_points == 5
        assert g.times[-1] == pytest.approx(1.0)

    def test_nonuniform_spacing_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(T=1.0, delta=0.3, N=10, M=5)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(T=0.0, delta=0.0, N=1, M=0)
        with pytest.raises(ConfigurationError):
            build_grid(T=-1.0, delta=0.0, N=1, M=0)

    def test_m_zero_requires_delta_zero(self):
        with pytest.raises(ConfigurationError):
            build_grid(T=1.0, delta=0.5, N=10, M=0)


class TestResolveDelay:
    def test_constant_delta_shifts_by_m(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        a = resolve_delay(g, lambda t: 0.5)
        assert np.array_equal(a, np.arange(11) + 5)

    def test_half_remaining_delay_at_origin(self):
        g = build_grid(T=1.0, delta=1.0, N=10, M=10)
        a = resolve_delay(g, lambda t: (2.0 - t) / 2.0)
        assert a[0] == 10

    def test_small_delay_rounds_to_next_index(self):
        # Oracle: exhaustive rounding table. t_i + 1.05h is nearest to index i+1
        # for every i, tie-free.
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        a = resolve_delay(g, lambda t: 1.05 * g.h)
        expected = np.array(
            [min(round((i + 1.05)), 15) for i in range(11)], dtype=np.int64
        )
        assert np.array_equal(a, expected)
        assert np.array_equal(a, np.arange(11) + 1)

    def test_tie_rounds_later(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        a = resolve_delay(g, lambda t: 1.5 * g.h)
        assert np.array_equal(a, np.minimum(np.arange(11) + 2, 15))

    def test_condition_i_violation_names_offender(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        with pytest.raises(ValidationError, match="t_10"):
            resolve_delay(g, lambda t: 0.6)

    def test_nonpositive_delay_rejected(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        with pytest.raises(ValidationError):
            resolve_delay(g, lambda t: 0.0)
        a = resolve_delay(g, lambda t: 0.0, allow_zero=True)
        assert np.array_equal(a, np.arange(11))

    def test_exact_boundary_accepted(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        a = resolve_delay(g, lambda t: 1.5 - t)
        assert np.all(a == 15)

    @given(
        frac=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(4, 16),
        m=st.integers(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_rounding_matches_table_oracle(self, frac, n, m):
        # Oracle: nearest-index table in exact arithmetic, skipping the tie
        # zone (tie policy is pinned by test_tie_rounds_later).
        mult = 0.55 + frac * (m - 0.6)
        if abs((mult % 1.0) - 0.5) < 1e-6:
            return
        g = build_grid(T=1.0, delta=m / n, N=n, M=m)
        d = mult * g.h
        a = resolve_delay(g, lambda t: d)
        top = g.N + g.M
        for i in range(g.N + 1):
            j = int(np.floor(i + mult + 0.5))
            assert a[i] == min(max(j, i + 1), top)


class TestConditionII:
    def _brute_force_L(self, a, grid):
        # Indicator brute force: for every start t and every indicator g = 1_j,
        # the smallest admissible L is the count of hits on j from s >= t.
        best = 0
        for t in range(grid.N + 1):
            for j in range(grid.N + grid.M + 1):
                hits = int(np.sum(a[t : grid.N] == j))
                best = max(best, hits)
        return best

    def test_constant_shift_gives_one(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        a = np.arange(11) + 5
        assert check_condition_ii(a, g) == 1
        assert self._brute_force_L(a, g) == 1

    def test_all_terminal_gives_n(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        a = np.full(11, 15, dtype=np.int64)
        assert check_condition_ii(a, g) == 10
        assert self._brute_force_L(a, g) == 10

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_on_random_maps(self, seed):
        g = build_grid(T=1.0, delta=0.5, N=8, M=4)
        rng = np.random.default_rng(seed)
        a = np.array([rng.integers(i + 1, 13) for i in range(9)], dtype=np.int64)
        assert check_condition_ii(a, g) == self._brute_force_L(a, g)

    def test_randomized_inequality_certificate(self):
        # The returned L must satisfy the inequality for arbitrary nonnegative g
        # and every start index; the right-hand side runs over the whole
        # remaining grid including the terminal point.
        g = build_grid(T=1.0, delta=0.5, N=8, M=4)
        rng = np.random.default_rng(7)
        a = np.array([rng.integers(i + 1, 13) for i in range(9)], dtype=np.int64)
        L = check_condition_ii(a, g)
        for _ in range(1000):
            gfun = rng.random(13)
            for t in range(9):
                lhs = gfun[a[t:8]].sum() * g.h
                rhs = L * gfun[t:13].sum() * g.h
                assert lhs <= rhs + 1e-12


class TestBrownian:
    def test_terminal_moments(self):
        g = build_grid(T=1.0, delta=0.0, N=20, M=0)
        ens = sample_brownian(g, P=100_000, d=1, seed=11)
        wT = ens.W[:, g.N, 0]
        assert abs(wT.mean()) <= 4.0 * np.sqrt(g.T / ens.P)
        assert abs(wT.var() - g.T) <= 0.05 * g.T

    def test_cumsum_identity_exact(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        ens = sample_brownian(g, P=50, d=2, seed=3)
        for i in range(g.N + g.M):
            assert np.array_equal(ens.W[:, i + 1], ens.W[:, i] + ens.dW[:, i])

    def test_same_seed_reproduces_bit_exactly(self):
        g = build_grid(T=1.0, delta=0.0, N=10, M=0)
        a = sample_brownian(g, P=64, d=1, seed=123)
        b = sample_brownian(g, P=64, d=1, seed=123)
        assert np.array_equal(a.dW, b.dW)

    def test_prefix_stability_in_path_count(self):
        g = build_grid(T=1.0, delta=0.0, N=10, M=0)
        small = sample_brownian(g, P=100, d=2, seed=42)
        big = sample_brownian(g, P=200, d=2, seed=42)
        assert np.array_equal(small.dW, big.dW[:100])

    def test_increment_independence(self):
        g = build_grid(T=1.0, delta=0.0, N=10, M=0)
        ens = sample_brownian(g, P=100_000, d=1, seed=5)
        i, j = 3, 7
        wi = ens.W[:, i, 0]
        incr = ens.W[:, j, 0] - ens.W[:, i, 0]
        cov = np.mean(wi * incr) - wi.mean() * incr.mean()
        stderr = np.std(wi * incr) / np.sqrt(ens.P)
        assert abs(cov) <= 4 * stderr


class TestMakeDelays:
    def test_default_constant_delays(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        d = make_delays(g)
        assert np.array_equal(d.mu_idx, np.arange(11) + 5)
        assert np.array_equal(d.nu_idx, np.arange(11) + 5)
        assert np.array_equal(d.eps_idx, np.arange(11))
        assert d.L == 1

    def test_degenerate_grid_clamps_to_terminal(self):
        g = build_grid(T=1.0, delta=0.0, N=4, M=0)
        d = make_delays(g)
        assert np.array_equal(d.mu_idx, np.arange(5))
        assert d.L == 1

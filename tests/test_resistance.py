import numpy as np
import pytest

from rabsde.errors import ConfigurationError
from rabsde.grids import build_grid
from rabsde.resistance import (
    ResistanceFunctional,
    ResistancePath,
    builtin_functionals,
    check_L2_lipschitz,
    check_monotone,
    check_monotone_continuity,
    check_nonanticipation,
    check_sup_lipschitz,
    eval_G,
    eval_G_matrix,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(T=1.0, delta=0.5, N=20, M=10)


BUILTINS = builtin_functionals(1.0, eps=0.15)


def _reference_G(G, values, i, grid):
    """The per-path formulas eval_G used before it became one row of eval_G_matrix."""
    h = grid.h
    half = grid.index_of(grid.times[i] / 2.0, ties="earlier")
    lag = min(grid.index_of(max(grid.times[i] - G.eps, 0.0), ties="earlier"), i)
    if G.kind == "windowed_integral_positive":
        return 0.0 if half >= i else float(np.maximum(values[half:i], 0.0).sum() * h)
    if G.kind == "running_sup_window":
        return float(values[half : i + 1].max())
    if G.kind == "lagged_positive":
        return float(max(values[lag], 0.0))
    if G.kind == "windowed_average_positive":
        return 0.0 if lag >= i else float(np.maximum(values[lag:i], 0.0).sum() * h / G.eps)
    assert G.kind == "lagged_value"
    return float(values[lag])


class TestEval:
    @pytest.mark.parametrize("G", BUILTINS, ids=lambda G: G.label())
    def test_zero_path_gives_zero(self, grid, G):
        zero = np.zeros(grid.n_points)
        for i in range(grid.n_points):
            assert eval_G(G, zero, i, grid) == 0.0

    def test_running_sup_small_example(self):
        g = build_grid(T=1.0, delta=0.0, N=2, M=0)
        G = ResistanceFunctional("running_sup_window")
        y = np.array([0.0, 1.0, 0.5])
        assert eval_G(G, y, 2, g) == 1.0

    def test_lagged_positive_clamps_negative(self, grid):
        G = ResistanceFunctional("lagged_positive", eps=2.0)
        y = np.full(grid.n_points, -3.0)
        for i in range(grid.n_points):
            assert eval_G(G, y, i, grid) == 0.0

    def test_lagged_value_keeps_sign(self, grid):
        G = ResistanceFunctional("lagged_value", eps=0.0)
        y = np.linspace(-1, 1, grid.n_points)
        assert eval_G(G, y, 3, grid) == y[3]

    def test_windowed_integral_left_rectangles(self, grid):
        # explicit hand computation on a ramp
        G = ResistanceFunctional("windowed_integral_positive")
        y = np.arange(grid.n_points, dtype=float)
        i = 10
        lo = grid.index_of(grid.times[i] / 2, ties="earlier")
        expected = y[lo:i].sum() * grid.h
        assert eval_G(G, y, i, grid) == pytest.approx(expected, abs=1e-14)

    def test_empty_window_conventions(self, grid):
        Gint = ResistanceFunctional("windowed_average_positive", eps=grid.h / 4)
        y = np.ones(grid.n_points)
        assert eval_G(Gint, y, 0, grid) == 0.0
        Gsup = ResistanceFunctional("running_sup_window")
        assert eval_G(Gsup, y, 0, grid) == 1.0

    def test_average_eps_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            ResistanceFunctional("windowed_average_positive", eps=0.0)

    @pytest.mark.parametrize("shape", [(1.0, 0.5, 20, 10), (1.0, 0.2, 50, 10), (1.0, 0.1, 1000, 100)])
    def test_scalar_eval_matches_reference_bit_for_bit(self, shape):
        g = build_grid(*shape)
        rng = np.random.default_rng(shape[2])
        for eps in (0.1, 0.15, 0.37):
            for G in builtin_functionals(1.0, eps=eps):
                for path in rng.standard_normal((4, g.n_points)).cumsum(axis=1):
                    for i in rng.integers(0, g.n_points, size=25):
                        assert eval_G(G, path, int(i), g) == _reference_G(G, path, int(i), g)

    def test_matrix_eval_matches_scalar(self, grid):
        rng = np.random.default_rng(0)
        paths = rng.standard_normal((7, grid.n_points)).cumsum(axis=1)
        indices = np.array([0, 3, 11, 25, 30])
        for G in BUILTINS:
            mat = eval_G_matrix(G, paths, grid, indices)
            for p in range(7):
                scalar = [eval_G(G, paths[p], int(i), grid) for i in indices]
                # one row is exactly eval_G; many rows may sum a window in another order
                assert eval_G_matrix(G, paths[p : p + 1], grid, indices)[0].tolist() == scalar
                assert mat[p] == pytest.approx(scalar, rel=1e-12, abs=1e-12)

    def test_path_container_validates(self, grid):
        with pytest.raises(ConfigurationError):
            ResistancePath(values=np.zeros(3), grid=grid)
        with pytest.raises(ConfigurationError):
            ResistancePath(values=np.full(grid.n_points, np.nan), grid=grid)


class TestChecks:
    @pytest.mark.parametrize("G", BUILTINS, ids=lambda G: G.label())
    def test_builtins_nonanticipating(self, grid, G):
        assert check_nonanticipation(G, grid, trials=1000, seed=1).passed

    @pytest.mark.parametrize("G", BUILTINS, ids=lambda G: G.label())
    def test_builtins_sup_lipschitz(self, grid, G):
        rep = check_sup_lipschitz(G, grid, trials=1000, seed=2)
        assert rep.passed
        assert rep.worst_ratio <= 1.0 + 1e-12

    @pytest.mark.parametrize("G", BUILTINS, ids=lambda G: G.label())
    def test_builtins_monotone(self, grid, G):
        assert G.declared_monotone
        assert check_monotone(G, grid, trials=300, seed=3).passed

    @pytest.mark.parametrize("G", BUILTINS, ids=lambda G: G.label())
    def test_builtins_monotone_continuity(self, grid, G):
        assert check_monotone_continuity(G, grid, levels=5, seed=4).passed

    def test_peeking_functional_fails_nonanticipation(self, grid):
        broken = ResistanceFunctional(
            "custom",
            custom_eval=lambda v, i, g: float(v[min(i + 1, len(v) - 1)]),
            declared_monotone=False,
            name="peek-ahead",
        )
        rep = check_nonanticipation(broken, grid, trials=500, seed=5)
        assert not rep.passed
        assert rep.counterexample is not None

    def test_scaled_functional_fails_sup_lipschitz(self, grid):
        doubled = ResistanceFunctional(
            "custom",
            custom_eval=lambda v, i, g: 2.0 * float(v[i]),
            name="doubled",
        )
        rep = check_sup_lipschitz(doubled, grid, trials=500, seed=6)
        assert not rep.passed
        assert rep.worst_ratio == pytest.approx(2.0, abs=1e-9)

    def test_negation_fails_monotone(self, grid):
        neg = ResistanceFunctional(
            "custom",
            custom_eval=lambda v, i, g: -float(v[i]),
            name="negated",
        )
        assert not check_monotone(neg, grid, trials=200, seed=7).passed

    def test_l2_lagged_value_within_one(self, grid):
        G = ResistanceFunctional("lagged_value", eps=0.15, declared_L2_lipschitz_C1=1.0)
        rep = check_L2_lipschitz(G, grid, trials=300, seed=8)
        assert rep.passed
        assert rep.worst_ratio <= 1.0 + 1e-9

    def test_l2_windowed_average_within_one(self, grid):
        G = ResistanceFunctional("windowed_average_positive", eps=0.15, declared_L2_lipschitz_C1=1.0)
        rep = check_L2_lipschitz(G, grid, trials=300, seed=9)
        assert rep.passed

    def test_l2_doubled_identity_ratio_four(self, grid):
        doubled = ResistanceFunctional(
            "custom",
            custom_eval=lambda v, i, g: 2.0 * float(v[i]),
            name="doubled",
            declared_L2_lipschitz_C1=4.0,
        )
        rep = check_L2_lipschitz(doubled, grid, trials=300, seed=10)
        assert rep.worst_ratio == pytest.approx(4.0, abs=1e-9)
        assert rep.passed

    def test_l2_running_sup_reported_not_asserted(self, grid):
        G = ResistanceFunctional("running_sup_window")
        rep = check_L2_lipschitz(G, grid, trials=300, seed=11)
        # no declared constant: the check reports and passes vacuously
        assert rep.passed
        assert rep.worst_ratio is not None

import numpy as np
import pytest

from rabsde.conditional import BasisSpec, tree_rollback
from rabsde.errors import ValidationError
from rabsde.generators import delay_linear_generator, make_generator, zero_generator
from rabsde.grids import build_grid, make_delays, sample_brownian
from rabsde.problems import (
    ProblemBundle,
    StateMap,
    constant_obstacle,
    constant_terminal,
    no_obstacle,
    payoff_terminal,
    put_obstacle,
    validate_triple,
)
from rabsde.resistance import ResistanceFunctional
from rabsde.sweep import _LatticeLevels, sweep, warm_start_k


def tree_problem(grid, gen, obstacle, terminal, G=None, x0=0.0, sigma=1.0, mu=None):
    return ProblemBundle(
        grid=grid,
        delays=make_delays(grid, mu=mu),
        gen=gen,
        obstacle=obstacle,
        terminal=terminal,
        G=G or ResistanceFunctional("lagged_value", eps=0.0),
        state_map=StateMap(x0=x0, sigma=sigma),
        backend="tree",
    )


def regression_problem(grid, gen, obstacle, terminal, P=20_000, d=1, seed=7, degree=2, G=None):
    ens = sample_brownian(grid, P=P, d=d, seed=seed)
    return ProblemBundle(
        grid=grid,
        delays=make_delays(grid),
        gen=gen,
        obstacle=obstacle,
        terminal=terminal,
        G=G or ResistanceFunctional("lagged_value", eps=0.0),
        backend="regression",
        ensemble=ens,
        basis=BasisSpec(degree=degree),
    )


def delay_ode_oracle(T, delta, c, refine):
    """Fine-step backward integration of -y'(t) = c * y(t + delta), y = 1 beyond T.

    Returns (times, values) on the fine grid covering [0, T + delta].
    """
    n_fine = refine
    h_f = T / n_fine
    m_fine = int(round(delta / h_f))
    L = n_fine + m_fine + 1
    y = np.ones(L)
    for i in range(n_fine - 1, -1, -1):
        y[i] = y[i + 1] + h_f * c * y[i + m_fine]
    return np.arange(L) * h_f, y


class TestConstantFixture:
    def test_tree_constant_is_exact(self):
        grid = build_grid(T=1.0, delta=0.5, N=50, M=25)
        prob = tree_problem(grid, zero_generator(), no_obstacle(), constant_terminal(2.5))
        k0 = warm_start_k(prob)
        sol = sweep(prob, k0)
        for i in range(grid.n_points):
            assert np.abs(sol.Y[i] - 2.5).max() <= 1e-10
        for i in range(grid.N):
            assert np.abs(sol.Z[i]).max() <= 1e-10
        assert np.abs(sol.K[0]).max() <= 1e-10

    def test_regression_constant_is_exact(self):
        grid = build_grid(T=1.0, delta=0.0, N=20, M=0)
        prob = regression_problem(grid, zero_generator(), no_obstacle(), constant_terminal(2.5), P=5000)
        sol = sweep(prob, warm_start_k(prob))
        assert np.abs(sol.Y - 2.5).max() <= 1e-10
        assert np.abs(sol.Z).max() <= 1e-10
        assert np.abs(sol.K).max() <= 1e-10

    def test_obstacle_pins_constant(self):
        # terminal equal to a constant obstacle: Y sits on the obstacle, K = 0
        grid = build_grid(T=1.0, delta=0.0, N=30, M=0)
        prob = tree_problem(grid, zero_generator(), constant_obstacle(0.7), constant_terminal(0.7))
        sol = sweep(prob, warm_start_k(prob))
        for i in range(grid.N + 1):
            assert np.abs(sol.Y[i] - 0.7).max() <= 1e-12
        assert np.abs(sol.K[0]).max() <= 1e-12


class TestDelayOde:
    def test_tree_matches_fine_ode(self):
        T, delta, c = 1.0, 0.5, 0.5
        N, M = 200, 100
        grid = build_grid(T=T, delta=delta, N=N, M=M)
        prob = tree_problem(
            grid, delay_linear_generator(c=c), no_obstacle(), constant_terminal(1.0),
            mu=lambda t: delta,
        )
        sol = sweep(prob, warm_start_k(prob))
        times_f, y_f = delay_ode_oracle(T, delta, c, refine=N * 10)
        worst = 0.0
        for i in range(N + 1):
            y_num = sol.Y[i][0] if len(sol.Y[i]) else sol.Y[i]
            oracle = y_f[i * 10]
            worst = max(worst, abs(float(np.max(sol.Y[i])) - oracle) / abs(oracle))
            # deterministic data: all nodes carry the same value
            assert float(np.ptp(sol.Y[i])) <= 1e-12
        assert worst <= 0.02

    def test_segment_values(self):
        # on [T - delta, T] the solution is exactly 1 + c (T - t)
        T, delta, c = 1.0, 0.5, 0.5
        grid = build_grid(T=T, delta=delta, N=40, M=20)
        prob = tree_problem(
            grid, delay_linear_generator(c=c), no_obstacle(), constant_terminal(1.0),
            mu=lambda t: delta,
        )
        sol = sweep(prob, warm_start_k(prob))
        for i in range(20, 41):
            t = grid.times[i]
            assert sol.Y[i][0] == pytest.approx(1 + c * (T - t), rel=5e-3)


class TestReflection:
    def test_skorokhod_exact_and_k_monotone(self):
        grid = build_grid(T=1.0, delta=0.0, N=40, M=0)
        prob = tree_problem(
            grid, zero_generator(), put_obstacle(0.4),
            payoff_terminal(lambda x: np.maximum(0.4 - x, 0.0)),
            sigma=0.8,
        )
        sol = sweep(prob, warm_start_k(prob))
        rep = validate_triple(sol, prob)
        assert rep["reflection_ok"]
        assert rep["skorokhod_ok"]
        assert rep["k_monotone_ok"]
        assert sol.K[0][grid.N] > 0  # obstacle genuinely active

    def test_regression_reflection_invariants(self):
        grid = build_grid(T=1.0, delta=0.0, N=20, M=0)
        prob = regression_problem(
            grid, zero_generator(), put_obstacle(0.2),
            payoff_terminal(lambda x: np.maximum(0.2 - x, 0.0)),
            P=20_000, degree=3,
        )
        sol = sweep(prob, warm_start_k(prob))
        rep = validate_triple(sol, prob)
        assert rep["reflection_ok"]
        assert rep["skorokhod_ok"]
        assert rep["k_monotone_ok"]

    def test_terminal_incompatibility_names_offender(self):
        grid = build_grid(T=1.0, delta=0.0, N=10, M=0)
        prob = tree_problem(grid, zero_generator(), constant_obstacle(2.0), constant_terminal(1.0))
        with pytest.raises(ValidationError, match="node"):
            sweep(prob, warm_start_k(prob))


class TestExtension:
    def test_extension_copied_exactly(self):
        grid = build_grid(T=1.0, delta=0.5, N=20, M=10)
        term = constant_terminal(1.0, zeta_rate=0.3, T=1.0)
        prob = tree_problem(grid, zero_generator(), no_obstacle(), term)
        sol = sweep(prob, warm_start_k(prob))
        for j, i in enumerate(range(grid.N + 1, grid.n_points)):
            assert sol.K[0][i] == pytest.approx(0.3 * (grid.times[i] - 1.0), abs=1e-14)
        assert sol.diagnostics["k_terminal_gap"] >= 0.0

    def test_monotone_zeta_required(self):
        grid = build_grid(T=1.0, delta=0.5, N=10, M=5)
        term = constant_terminal(1.0)
        bad = ProblemBundle(
            grid=grid,
            delays=make_delays(grid),
            gen=zero_generator(),
            obstacle=no_obstacle(),
            terminal=type(term)(
                xi=term.xi,
                zeta=lambda t, x: np.full_like(np.asarray(x, dtype=float), -t),
            ),
            G=ResistanceFunctional("lagged_value", eps=0.0),
            backend="tree",
        )
        with pytest.raises(ValidationError, match="nondecreasing"):
            sweep(bad, warm_start_k(bad, rule="zero"))


class TestBackendConsistency:
    def test_tree_vs_regression_smooth_anticipated(self):
        # Markovian fixture with smooth (polynomial) data: binomial and Gaussian
        # moments coincide up to degree 3, so the two backends estimate the same
        # quantity and must agree at statistical precision.
        grid = build_grid(T=1.0, delta=0.24, N=50, M=12)
        xi = lambda t, x: 1.0 + x + 0.5 * x * x
        term = type(constant_terminal(0.0))(xi=xi)
        gen = delay_linear_generator(c=0.25)
        tp = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=gen, obstacle=no_obstacle(),
            terminal=term, G=ResistanceFunctional("lagged_value", eps=0.0), backend="tree",
        )
        tsol = sweep(tp, warm_start_k(tp))
        rp = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=gen, obstacle=no_obstacle(),
            terminal=term, G=ResistanceFunctional("lagged_value", eps=0.0),
            backend="regression",
            ensemble=sample_brownian(grid, P=100_000, d=1, seed=21),
            basis=BasisSpec(degree=3),
        )
        rsol = sweep(rp, warm_start_k(rp))
        tree_root = tsol.root_value()
        reg_root = float(rsol.Y[0, 0])
        stderr = rsol.diagnostics["root_stderr"]
        assert abs(reg_root - tree_root) <= max(0.005 * abs(tree_root), 3 * stderr)

    def test_tree_vs_regression_pinned_obstacle(self):
        # concave parabola obstacle: the exact solution sits on the obstacle at
        # every step, so both backends must return the root value exactly.
        grid = build_grid(T=1.0, delta=0.24, N=50, M=12)
        parab = lambda t, x: 1.0 - x * x
        term = type(constant_terminal(0.0))(xi=parab)
        obstacle = type(no_obstacle())(eval=parab)
        gen = delay_linear_generator(c=0.25)
        tp = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=gen, obstacle=obstacle,
            terminal=term, G=ResistanceFunctional("lagged_value", eps=0.0), backend="tree",
        )
        tsol = sweep(tp, warm_start_k(tp))
        rp = ProblemBundle(
            grid=grid, delays=make_delays(grid), gen=gen, obstacle=obstacle,
            terminal=term, G=ResistanceFunctional("lagged_value", eps=0.0),
            backend="regression",
            ensemble=sample_brownian(grid, P=50_000, d=1, seed=22),
            basis=BasisSpec(degree=3),
        )
        rsol = sweep(rp, warm_start_k(rp))
        assert tsol.root_value() == pytest.approx(1.0, abs=1e-12)
        assert float(rsol.Y[0, 0]) == pytest.approx(1.0, abs=1e-10)
        assert tsol.K[0][grid.N] > 0.5 * grid.T  # reflection mass ~ sigma^2 T

    def test_put_value_iteration_bias_is_characterized(self):
        # Value-iteration regression on a kinked obstacle is biased high with a
        # global cubic basis; this pins the known behavior so regressions in
        # accuracy get noticed. The exact American value equals the European
        # one here (martingale state, convex payoff).
        grid = build_grid(T=1.0, delta=0.0, N=50, M=0)
        payoff = lambda x: np.maximum(-x, 0.0)
        tp = tree_problem(grid, zero_generator(), put_obstacle(0.0), payoff_terminal(payoff))
        tsol = sweep(tp, warm_start_k(tp))
        rp = regression_problem(
            grid, zero_generator(), put_obstacle(0.0), payoff_terminal(payoff),
            P=50_000, degree=3, seed=23,
        )
        rsol = sweep(rp, warm_start_k(rp))
        rel = (float(rsol.Y[0, 0]) - tsol.root_value()) / tsol.root_value()
        assert 0.0 <= rel <= 0.35

    def test_monotone_in_terminal_data(self):
        grid = build_grid(T=1.0, delta=0.0, N=25, M=0)
        payoff = lambda x: np.maximum(0.3 - x, 0.0)
        lo = tree_problem(grid, zero_generator(), put_obstacle(0.3), payoff_terminal(payoff))
        hi = tree_problem(
            grid, zero_generator(), put_obstacle(0.3),
            payoff_terminal(lambda x: payoff(x) + 0.5),
        )
        sol_lo = sweep(lo, warm_start_k(lo))
        sol_hi = sweep(hi, warm_start_k(hi))
        for i in range(grid.N + 1):
            assert np.all(sol_hi.Y[i] >= sol_lo.Y[i] - 1e-12)


class TestAnticipatedZ:
    @staticmethod
    def z_future_problem(terminal):
        # f = 0.5 * E_t[Z_{t+nu}], declared only through depends_on
        import dataclasses

        gen = dataclasses.replace(
            make_generator("zero"),
            name="z_future",
            eval=lambda t, y, z, th, vt, m, mb: 0.5 * np.asarray(vt, dtype=np.float64),
            depends_on=frozenset({"vartheta"}),
        )
        grid = build_grid(T=1.0, delta=0.5, N=20, M=10)
        return tree_problem(grid, gen, no_obstacle(), terminal)

    def test_z_feedback_runs_and_matches_oracle(self):
        # with constant terminal xi the solution stays constant and Z-feedback contributes nothing
        prob = self.z_future_problem(constant_terminal(3.0))
        sol = sweep(prob, warm_start_k(prob))
        assert sol.Y[0][0] == pytest.approx(3.0, abs=1e-12)

    def test_depends_on_alone_enables_z_feedback(self):
        # xi = x gives Z = 1 on [0, T) and Z = 0 on the extension (no eta), so
        # Y_0 = 0.5 * h * #{i < N : t_i + nu < T} = 0.5 * 0.5
        prob = self.z_future_problem(payoff_terminal(lambda x: x))
        sol = sweep(prob, warm_start_k(prob))
        assert sol.Y[0][0] == pytest.approx(0.25, abs=1e-12)


class TestDispatchAndWarmStart:
    def test_dispatch(self):
        grid = build_grid(T=1.0, delta=0.0, N=10, M=0)
        tp = tree_problem(grid, zero_generator(), no_obstacle(), constant_terminal(1.0))
        rp = regression_problem(grid, zero_generator(), no_obstacle(), constant_terminal(1.0), P=2000)
        for prob, kind in ((tp, "lattice"), (rp, "ensemble")):
            sol = sweep(prob, warm_start_k(prob))
            assert sol.kind == kind
            assert sol.root_value() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("backend", ["tree", "regression"])
    def test_warm_start_rules(self, backend):
        grid = build_grid(T=1.0, delta=0.5, N=10, M=5)
        L, P = grid.n_points, 500
        term = constant_terminal(1.0, zeta_rate=0.2, T=1.0)
        if backend == "tree":
            prob = tree_problem(grid, zero_generator(), no_obstacle(), term)
        else:
            # a state-dependent extension: every path gets its own row
            term = type(term)(xi=term.xi, zeta=lambda t, x: 0.2 * (t - 1.0) * (1.0 + x * x))
            prob = regression_problem(grid, zero_generator(), no_obstacle(), term, P=P)
        shape = (1, L) if backend == "tree" else (P, L)
        k_zero = warm_start_k(prob, rule="zero")
        assert k_zero.shape == shape and np.all(k_zero == 0)
        k_def = np.atleast_2d(warm_start_k(prob))
        assert np.all(k_def[:, : grid.N + 1] == 0)
        for i in range(grid.N + 1, L):
            # the lattice's one row stands for every node of its state-free zeta
            assert np.all(k_def[:, i] == term.zeta(grid.times[i], prob.states(i)))
        user = np.linspace(0.0, 1.0, L)
        k_user = warm_start_k(prob, rule="user-supplied", user_path=user)
        assert k_user.shape == shape and np.all(np.atleast_2d(k_user) == user)
        for bad in (np.zeros(3), np.zeros((2, L + 1))):
            with pytest.raises(ValidationError):
                warm_start_k(prob, rule="user-supplied", user_path=bad)
        with pytest.raises(ValidationError):
            warm_start_k(prob, rule="user-supplied")
        with pytest.raises(ValidationError):
            warm_start_k(prob, rule="bogus")

    @pytest.mark.parametrize("backend", ["tree", "regression"])
    @pytest.mark.parametrize(
        "bad_shape",
        [lambda rows, L: (3, L), lambda rows, L: (L,), lambda rows, L: (rows, L + 1)],
        ids=["3xL", "L", "k_rows x L+1"],
    )
    def test_frozen_path_shape_is_checked(self, backend, bad_shape):
        # the zero generator reads no resistance, so nothing downstream would trip on the shape
        grid = build_grid(T=1.0, delta=0.5, N=10, M=5)
        args = (grid, zero_generator(), no_obstacle(), constant_terminal(1.0))
        prob = tree_problem(*args) if backend == "tree" else regression_problem(*args, P=500)
        with pytest.raises(ValidationError, match="frozen reflection path of shape"):
            sweep(prob, np.zeros(bad_shape(prob.k_rows, grid.n_points)))


@pytest.fixture(scope="module")
def deep_lattice():
    # N + M = 1300 levels: the binomial weights past about 55 steps are rounded
    grid = build_grid(T=1.0, delta=0.3, N=1000, M=300)
    return _LatticeLevels(tree_problem(grid, zero_generator(), no_obstacle(), constant_terminal(1.0)))


@pytest.mark.parametrize("steps", [1, 2, 57, 240, 300])
def test_lattice_ce_matches_rollback_within_derived_bound(deep_lattice, steps):
    """The sweep's E_i (one convolution with level_probs[n], n = j - i) against
    the level-by-level average tree_rollback, for v of magnitudes 1e-8 to 1e8.

    With unit roundoff u = eps / 2 and every intermediate bounded by max|v|:
    the loop rounds once per level, so its error is <= n u max|v|; each
    weight comes from n halvings and sums of positive terms, so it carries
    <= n u relative error, worth <= n u max|v| since the weights sum to one;
    the dot product of n + 1 terms adds <= (n + 1) u max|v|. In total
    |conv - loop| <= (1.5 n + 0.5) eps max|v| <= 2 n eps max|v|. At n = 1
    the weights are [0.5, 0.5] and halving is exact, so both give the same bits.
    """
    rng = np.random.default_rng(steps)
    top = deep_lattice.tree.levels
    for i in (0, 400, top - steps):
        j = i + steps
        v = rng.standard_normal(j + 1) * 10.0 ** rng.uniform(-8, 8, j + 1)
        conv = deep_lattice.ce(i, v, j)
        loop = tree_rollback(deep_lattice.tree, j, i, v)
        assert conv.shape == loop.shape == (i + 1,)
        if steps == 1:
            assert np.array_equal(conv, loop)
        else:
            assert np.abs(conv - loop).max() <= 2 * steps * np.finfo(float).eps * np.abs(v).max()

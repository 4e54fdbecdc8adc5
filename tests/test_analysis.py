import dataclasses

import numpy as np
import pytest

from rabsde.analysis import (
    ComparisonSetup,
    check_minimality,
    run_comparison,
    run_minimal_scheme,
    run_sandwich,
)
from rabsde.errors import ValidationError
from rabsde.fixtures import (
    MINIMAL_SCHEME_BOX,
    MINIMAL_SCHEME_N_LIST,
    MINIMAL_SCHEME_STEP,
    comparison_fixtures,
    contraction_problem,
    minimal_scheme_problem,
)
from rabsde.generators import zero_generator
from rabsde.picard import PicardConfig, solve_rabsde
from rabsde.problems import ProblemBundle, no_obstacle, constant_terminal


CFG = PicardConfig(tol=1e-22, max_iter=15)


class TestComparison:
    @pytest.mark.parametrize("setup", comparison_fixtures(), ids=lambda s: s.name)
    def test_fixture_passes(self, setup):
        rep = run_comparison(setup, config=CFG)
        assert rep.passed, f"{rep.name}: {rep.y_violations} Y / {rep.k_violations} K violations"
        assert rep.y_violations == 0 and rep.k_violations == 0 and rep.extension_violations == 0

    def test_identical_bundles_equal(self):
        setup = comparison_fixtures()[0]
        rep = run_comparison(setup, config=CFG)
        assert rep.root_gap == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift_gap_equals_horizon(self):
        # oracle: f_hi = f_lo + 1 with inactive obstacle shifts the root by
        # exactly T (left-rectangle integral of the constant driver)
        setup = comparison_fixtures()[1]
        rep = run_comparison(setup, config=CFG)
        assert rep.root_gap == pytest.approx(setup.hi.grid.T, abs=1e-10)

    def test_terminal_shift_gap_is_one(self):
        setup = comparison_fixtures()[2]
        rep = run_comparison(setup, config=CFG)
        assert rep.root_gap == pytest.approx(1.0, abs=1e-10)

    def test_regression_backend_fixtures(self):
        for setup in comparison_fixtures(backend="regression", P=4000, seed=9)[:3]:
            rep = run_comparison(setup, config=PicardConfig(tol=1e-18, max_iter=12))
            assert rep.passed, rep.name

    def test_misordered_generators_rejected(self):
        base = comparison_fixtures()[1]
        swapped = ComparisonSetup(hi=base.lo, lo=base.hi, name="swapped")
        with pytest.raises(ValidationError, match="ordering"):
            run_comparison(swapped, config=CFG)

    def test_missing_flags_rejected(self):
        base = comparison_fixtures()[1]
        base.lo.gen = dataclasses.replace(base.lo.gen, monotone_in_theta=False)
        with pytest.raises(ValidationError, match="monotonicity"):
            run_comparison(ComparisonSetup(hi=base.hi, lo=base.lo, name="noflags"), config=CFG)


class TestSandwich:
    def test_degenerate_bounds_coincide(self):
        # f = 0 with C = C1 = 0 and h = 0: both envelopes equal the solution
        prob = ProblemBundle(
            grid=contraction_problem().grid,
            delays=contraction_problem().delays,
            gen=zero_generator(),
            obstacle=no_obstacle(),
            terminal=constant_terminal(1.0),
            G=contraction_problem().G,
            backend="tree",
        )
        rep = run_sandwich(prob, config=CFG)
        assert rep.passed
        assert rep.upper_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.lower_margin == pytest.approx(0.0, abs=1e-12)

    def test_strict_sandwich_for_delay_driver(self):
        import rabsde.generators as gens

        grid = contraction_problem().grid
        prob = ProblemBundle(
            grid=grid,
            delays=contraction_problem().delays,
            gen=gens.delay_linear_generator(c=0.1),
            obstacle=no_obstacle(),
            terminal=constant_terminal(1.0),
            G=contraction_problem().G,
            backend="tree",
        )
        rep = run_sandwich(prob, config=CFG)
        assert rep.passed
        assert rep.upper_margin > 0.0  # dominating driver differs from f
        assert rep.lower_margin > 0.0

    def test_bounds_ordered_against_each_other(self):
        prob = minimal_scheme_problem()
        rep = run_sandwich(prob, config=CFG)
        assert rep.passed
        up, lo = rep.upper_solution, rep.lower_solution
        for i in range(prob.grid.N + 1):
            assert np.all(up.Y[i] >= lo.Y[i] - 1e-10)

    def test_nonlinear_growth_driver_rejected(self):
        import rabsde.generators as gens

        prob = contraction_problem()
        prob.gen = gens.quadratic_y_generator()
        with pytest.raises(ValidationError, match="linear growth"):
            run_sandwich(prob, config=CFG)


@pytest.fixture(scope="module")
def scheme_result():
    prob = minimal_scheme_problem()
    return run_minimal_scheme(
        prob, MINIMAL_SCHEME_N_LIST, MINIMAL_SCHEME_BOX, MINIMAL_SCHEME_STEP, config=CFG
    )


class TestMinimalScheme:

    def test_monotone_in_penalty_level(self, scheme_result):
        result = scheme_result
        assert result.passed
        assert result.y_monotone_violations == 0
        assert result.k_monotone_violations == 0

    def test_gaps_strictly_decreasing(self, scheme_result):
        result = scheme_result
        gaps = result.successive_gaps
        assert len(gaps) == 3
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_obstacle_active_and_reflection_ordered(self, scheme_result):
        result = scheme_result
        sols = result.solutions
        k_small = sols[2.0].K[0]
        k_big = sols[16.0].K[0]
        assert k_small[-1] >= k_big[-1] - 1e-12
        assert k_small.max() > 0

    def test_bound_statistic_stable(self, scheme_result):
        result = scheme_result
        assert result.statistic_spread <= 10.0

    def test_sandwich_boxes_every_level(self, scheme_result):
        result = scheme_result
        assert result.sandwich.passed

    def test_lipschitz_levels_match_direct_solve(self):
        # for n >= Lipschitz constant the regularization is exact: the solve
        # with f_16 equals the direct solve with f
        prob = minimal_scheme_problem()
        direct, _ = solve_rabsde(prob, config=CFG)
        scheme = run_minimal_scheme(
            prob, [8.0, 16.0], MINIMAL_SCHEME_BOX, MINIMAL_SCHEME_STEP, config=CFG
        )
        sol16 = scheme.solutions[16.0]
        for i in range(prob.grid.N + 1):
            assert np.abs(sol16.Y[i] - direct.Y[i]).max() <= 1e-10

    def test_resistance_coupled_scheme(self):
        prob = minimal_scheme_problem(c1=0.002)
        res = run_minimal_scheme(prob, [4.0, 8.0], MINIMAL_SCHEME_BOX, MINIMAL_SCHEME_STEP, config=CFG)
        assert res.y_monotone_violations == 0

    def test_decreasing_n_list_rejected(self):
        prob = minimal_scheme_problem()
        with pytest.raises(ValidationError):
            run_minimal_scheme(prob, [4.0, 2.0], MINIMAL_SCHEME_BOX, MINIMAL_SCHEME_STEP, config=CFG)

    def test_uncovering_box_rejected(self):
        prob = minimal_scheme_problem()
        with pytest.raises(ValidationError, match="cover"):
            run_minimal_scheme(prob, [8.0, 16.0], {"y": (-2.0, 2.0)}, 0.005, config=CFG)


class TestMinimality:
    def test_direct_solve_certified_and_equal(self):
        prob = minimal_scheme_problem()
        direct, _ = solve_rabsde(prob, config=CFG)
        rep = check_minimality(
            prob, direct, [8.0, 16.0], MINIMAL_SCHEME_BOX, MINIMAL_SCHEME_STEP, config=CFG
        )
        assert rep.certified
        assert rep.passed
        assert rep.violations == 0

    def test_alternative_from_other_warm_start(self):
        prob = contraction_problem(c1=0.0015)
        user = np.linspace(0.0, 0.2, prob.grid.n_points)
        alt, _ = solve_rabsde(
            prob, config=PicardConfig(tol=1e-24, max_iter=15, warm_start="user-supplied", user_path=user)
        )
        rep = check_minimality(prob, alt, [2.0, 4.0], {"theta": (-3.0, 8.0)}, 0.01, config=CFG)
        assert rep.certified
        assert rep.passed

    def test_corrupted_solution_rejected(self):
        prob = minimal_scheme_problem()
        corrupted, _ = solve_rabsde(prob, config=CFG)
        corrupted.Y[0] = corrupted.Y[0] - 5.0  # push the root below the obstacle
        rep = check_minimality(
            prob, corrupted, [8.0, 16.0], MINIMAL_SCHEME_BOX, MINIMAL_SCHEME_STEP, config=CFG
        )
        assert not rep.certified
        assert not rep.passed

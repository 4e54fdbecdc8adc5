import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rabsde.errors import ConfigurationError, GeneratorEvalError
from rabsde.generators import (
    audit_fn_properties,
    audit_generator,
    delay_linear_generator,
    eval_f,
    growth_bound_generator,
    linear_generator,
    make_fn,
    make_generator,
    quadratic_y_generator,
    resistance_linear_generator,
    truncated_quadratic_generator,
    zero_generator,
)
from rabsde.grids import build_grid


def _scalar(gen, t, y=0.0, z=0.0, theta=0.0, vartheta=0.0, m=0.0, mbar=0.0):
    out = eval_f(
        gen, t,
        np.array([y]), np.array([[z]]), np.array([theta]),
        np.array([vartheta]), np.array([m]), np.array([mbar]),
    )
    return float(out[0])


def brute_force_fn_1d(f, n, y, lo, hi, step):
    """Independent dense-grid oracle for a y-only inf-convolution."""
    a = np.arange(lo, hi + step / 2, step)
    cand = np.append(a, y)
    return float(np.min(f(cand) + n * np.abs(y - cand)))


class TestEval:
    def test_linear_example(self):
        gen = linear_generator(a=1.0, b=1.0, c=-1.0)
        assert _scalar(gen, 0.0, y=1.0, theta=2.0, m=3.0) == 0.0

    def test_zero_everywhere(self):
        gen = zero_generator()
        assert _scalar(gen, 0.5, y=3.0, theta=-2.0, m=1.0, mbar=4.0) == 0.0

    def test_delay_linear(self):
        gen = delay_linear_generator(c=0.5)
        assert _scalar(gen, 0.0, theta=1.0) == 0.5

    def test_nonfinite_carries_arguments(self):
        gen = make_generator("linear", a=1.0, b=0.0, c=0.0)
        bad = gen.eval

        def exploding(t, y, z, th, vt, m, mb):
            out = np.asarray(bad(t, y, z, th, vt, m, mb)).copy()
            out[...] = np.inf
            return out

        import dataclasses

        broken = dataclasses.replace(gen, eval=exploding)
        with pytest.raises(GeneratorEvalError) as exc:
            _scalar(broken, 0.0, y=2.0)
        assert exc.value.arguments[1] == 2.0

    def test_unknown_catalog_name(self):
        with pytest.raises(ConfigurationError):
            make_generator("nope")

    def test_growth_bound_signs(self):
        up = growth_bound_generator(C=1.0, C1=0.5, h_proc=2.0, sign=+1)
        lo = growth_bound_generator(C=1.0, C1=0.5, h_proc=2.0, sign=-1)
        v = _scalar(up, 0.0, y=-1.0, z=2.0, theta=3.0, m=1.0, mbar=1.0)
        assert v == pytest.approx(2.0 + 1.0 + 2.0 + 3.0 + 0.5 * 2.0)
        assert _scalar(lo, 0.0, y=-1.0, z=2.0, theta=3.0, m=1.0, mbar=1.0) == pytest.approx(-v)


class TestAuditGenerator:
    def test_declared_constants_hold(self):
        g = build_grid(T=1.0, delta=0.5, N=10, M=5)
        rep = audit_generator(resistance_linear_generator(c=0.4, c1=0.05), g, trials=300, seed=1)
        assert rep["C_ok"] and rep["C1_ok"]
        assert rep["square_integrability_ok"]
        assert rep["observed_C"] <= 0.4 + 1e-9
        assert rep["observed_C1"] <= 0.1 + 1e-9

    def test_understated_constant_detected(self):
        g = build_grid(T=1.0, delta=0.0, N=5, M=0)
        import dataclasses

        lying = dataclasses.replace(delay_linear_generator(c=1.0), C=0.1)
        rep = audit_generator(lying, g, trials=300, seed=2)
        assert not rep["C_ok"]


class TestInfConvolution:
    def test_quadratic_matches_closed_form(self):
        # f(y) = y^2: the exact regularization is n*y - n^2/4 for y >= n/2
        # and f itself below; compare against both the formula and a dense
        # independent oracle.
        base = quadratic_y_generator()
        box = {"y": (-6.0, 6.0)}
        step = 0.001
        for n in (2.0, 4.0):
            with pytest.warns(UserWarning):
                fn = make_fn(base, n, box, step)
            for y in (-3.0, -1.0, 0.0, 0.3, 1.0, 2.5, 3.0, 5.0):
                got = float(fn(0.0, np.array([y]), np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
                if abs(y) >= n / 2:
                    expected = n * abs(y) - n * n / 4
                else:
                    expected = y * y
                assert abs(got - expected) <= step * n
                oracle = brute_force_fn_1d(lambda a: a**2, n, y, -6.0, 6.0, step / 4)
                assert abs(got - oracle) <= step * n

    def test_quadratic_named_values(self):
        base = quadratic_y_generator()
        with pytest.warns(UserWarning):
            f2 = make_fn(base, 2.0, {"y": (-6.0, 6.0)}, 0.0005)
        v3 = float(f2(0.0, np.array([3.0]), np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
        v0 = float(f2(0.0, np.array([0.0]), np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
        assert v3 == pytest.approx(5.0, abs=0.002)
        assert v0 == pytest.approx(0.0, abs=1e-12)

    def test_lipschitz_base_unchanged_for_large_n(self):
        base = delay_linear_generator(c=0.5)  # Lipschitz constant 0.5
        fn = make_fn(base, 1.0, {"theta": (-5.0, 5.0)}, 0.01)
        for th in (-4.0, -0.7, 0.0, 2.3):
            got = float(fn(0.0, np.zeros(1), np.zeros((1, 1)), np.array([th]), 0.0, 0.0, 0.0)[0])
            assert got == pytest.approx(0.5 * th, abs=1e-12)

    def test_monotone_in_n_and_below_base(self):
        base = quadratic_y_generator()
        with pytest.warns(UserWarning):
            fns = [make_fn(base, n, {"y": (-6.0, 6.0)}, 0.001) for n in (2.0, 4.0)]
        y = np.array([3.0])
        v2 = float(fns[0](0.0, y, np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
        v4 = float(fns[1](0.0, y, np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
        assert v2 == pytest.approx(5.0, abs=0.01)
        assert v4 == pytest.approx(8.0, abs=0.01)
        assert v2 <= v4 <= 9.0 + 1e-12

    def test_gap_shrinks_in_n(self):
        # at y = 3 the gap to the base is n^2/4 - 3n + 9, decreasing up to n = 6
        base = quadratic_y_generator()
        gaps = []
        for n in (2.0, 4.0, 6.0):
            with pytest.warns(UserWarning):
                fn = make_fn(base, n, {"y": (-6.0, 6.0)}, 0.001)
            v = float(fn(0.0, np.array([3.0]), np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
            gaps.append(9.0 - v)
            assert 9.0 - v == pytest.approx(n * n / 4 - 3 * n + 9, abs=0.01)
        assert gaps[0] > gaps[1] > gaps[2] - 0.01

    def test_oversized_search_grid_rejected(self):
        base = quadratic_y_generator()
        with pytest.raises(ConfigurationError):
            with pytest.warns(UserWarning):
                make_fn(base, 2.0, {"y": (-1e6, 1e6)}, 1e-4)

    def test_audit_report(self):
        base = truncated_quadratic_generator(cap=10.0, c1=0.05)
        box = {"y": (-8.0, 8.0)}
        fns = [make_fn(base, n, box, 0.01) for n in (2.0, 4.0, 8.0)]
        rep = audit_fn_properties(fns, samples=150, seed=3)
        assert rep.passed
        assert rep.monotone_in_n and rep.below_base
        assert rep.lipschitz_ok and rep.c1_lipschitz_ok
        # gaps shrink toward zero as n passes the Lipschitz constant 2*sqrt(10)
        assert rep.sup_gap_by_n[8.0] <= rep.sup_gap_by_n[2.0] + 1e-9

    @given(y=st.floats(-5.5, 5.5), m=st.floats(0, 3), mbar=st.floats(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_dominated_and_ordered_property(self, y, m, mbar):
        # structural invariants at arbitrary query points: every level sits at
        # or below the base and the levels are ordered in n
        base = truncated_quadratic_generator(cap=12.0, c1=0.1)
        fns = [make_fn(base, n, {"y": (-8.0, 8.0)}, 0.05) for n in (2.0, 5.0)]
        args = (np.array([y]), np.zeros((1, 1)), np.zeros(1), 0.0, np.array([m]), np.array([mbar]))
        f_val = float(eval_f(base, 0.0, *args)[0])
        lo = float(fns[0](0.0, *args)[0])
        hi = float(fns[1](0.0, *args)[0])
        assert lo <= hi + 1e-12
        assert hi <= f_val + 1e-12

    def test_lipschitz_audit_two_points(self):
        base = quadratic_y_generator()
        with pytest.warns(UserWarning):
            f2 = make_fn(base, 2.0, {"y": (-6.0, 6.0)}, 0.001)
        a = float(f2(0.0, np.array([3.0]), np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
        b = float(f2(0.0, np.array([4.0]), np.zeros((1, 1)), np.zeros(1), 0.0, 0.0, 0.0)[0])
        assert abs(b - a) <= 2.0 * 1.0 + 1e-9
        assert b - a == pytest.approx(2.0, abs=0.01)


def _rows(box, count, seed):
    """count random query rows strictly inside box; m and mbar vary per row."""
    rng = np.random.default_rng(seed)

    def draw(name):
        lo, hi = box.get(name, (-2.0, 2.0))
        return rng.uniform(0.9 * lo, 0.9 * hi, size=count)

    y, z, theta = draw("y"), draw("z")[:, None], draw("theta")
    vartheta, m, mbar = rng.uniform(-2, 2, size=count), rng.uniform(0, 2, size=count), rng.uniform(0, 2, size=count)
    return y, z, theta, vartheta, m, mbar


MULTI_AXIS = {
    "linear-y-theta": (linear_generator(a=0.5, b=0.7, c=0.0), {"y": (-10.0, 10.0), "theta": (-5.0, 5.0)}, 0.05),
    "growth-y-z-theta": (
        growth_bound_generator(C=0.4, C1=0.0, h_proc=0.0, sign=-1),
        {"y": (-3.0, 3.0), "z": (-3.0, 3.0), "theta": (-3.0, 3.0)},
        0.1,
    ),
}


class TestMultiAxisInfConvolution:
    @pytest.mark.parametrize("case, n", [
        ("linear-y-theta", 1.0), ("linear-y-theta", 2.0), ("growth-y-z-theta", 0.5), ("growth-y-z-theta", 1.0),
    ])
    def test_exact_once_n_exceeds_each_axis_constant(self, case, n):
        # the query point is then the minimizer, and it is always a candidate
        base, box, step = MULTI_AXIS[case]
        fn = make_fn(base, n, box, step)
        assert fn.active_axes() == tuple(box)
        rows = _rows(box, 12, seed=5)
        assert np.array_equal(fn(0.0, *rows), eval_f(base, 0.0, *rows))

    @pytest.mark.parametrize(
        "base, box, step, levels, query_box",
        [
            # the shipped minimal_tree search; queries where min(y^2, 30) is not capped
            pytest.param(truncated_quadratic_generator(cap=30.0, c1=0.05), {"y": (-150.0, 150.0)}, 0.02,
                         [2.0, 4.0, 8.0, 16.0], {"y": (-8.0, 8.0)}, id="truncated-quadratic"),
            pytest.param(*MULTI_AXIS["linear-y-theta"], [0.1, 0.3, 0.6, 1.0], None, id="linear-y-theta"),
            pytest.param(*MULTI_AXIS["growth-y-z-theta"], [0.05, 0.2, 0.5], None, id="growth-y-z-theta"),
        ],
    )
    def test_levels_ordered_without_slack(self, base, box, step, levels, query_box):
        # levels sharing box and step search one candidate grid, and n * d, a + b
        # and min are nondecreasing in floating point, so f_n <= f_n' holds bit for bit
        rows = _rows(query_box or box, 12, seed=7)
        vals = [make_fn(base, n, box, step)(0.0, *rows) for n in levels]
        assert not np.array_equal(vals[0], vals[-1])
        for lo, hi in zip(vals, vals[1:]):
            assert np.all(lo <= hi)
        assert np.all(vals[-1] <= eval_f(base, 0.0, *rows))

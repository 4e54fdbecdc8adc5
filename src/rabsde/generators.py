"""Drivers f(t, y, z, theta, vartheta, m, mbar) and their Lipschitz regularizations.

Anticipated arguments enter in reduced form: theta is the conditional
expectation of the anticipated Y (optionally of its absolute value), vartheta
the conditional expectation of the anticipated Z (componentwise or of its
norm), and (m, mbar) are the current and anticipated values of the resistance
functional on the reflection path.

The inf-convolution f_n replaces f by the infimum of f(a, b, q) plus n times
the distance to the query in the (y, z, theta) arguments, evaluated by brute
force on a declared search grid with the query point always included as a
candidate (so f_n <= f holds exactly and f_n is nondecreasing in n pointwise).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, GeneratorEvalError
from .grids import TimeGrid

ARG_NAMES = ("y", "z", "theta", "vartheta", "m", "mbar")
PENALIZED = ("y", "z", "theta")

MAX_SEARCH_POINTS = 10_000_000


@dataclass(frozen=True)
class GeneratorSpec:
    """A driver with declared constants and structural flags.

    eval must be numpy-vectorized: y, theta, vartheta, m, mbar broadcast as
    1-D arrays, z as [n, d]. C bounds the Lipschitz constant in
    (y, z, theta, vartheta); C1 the one in (m, mbar). h_proc is the
    nonnegative growth process for the linear-growth bound.
    """

    name: str
    eval: Callable
    C: float = 0.0
    C1: float = 0.0
    h_proc: float | Callable[[float], float] = 0.0
    growth_C: float | None = None  # growth-bound constant; defaults to the Lipschitz C
    uses_anticipated_z: bool = False
    anticipate_abs_y: bool = False
    anticipate_abs_z: bool = False
    monotone_in_theta: bool = False
    antitone_in_m: bool = False
    antitone_in_mbar: bool = False
    continuous_linear_growth: bool = False
    depends_on: frozenset | None = None  # None: unspecified, assume all arguments

    @property
    def growth_constant(self) -> float:
        return self.C if self.growth_C is None else self.growth_C

    def reads(self, arg: str) -> bool:
        return self.depends_on is None or arg in self.depends_on


def eval_f(gen: GeneratorSpec, t, y, z, theta, vartheta, m, mbar):
    """Evaluate the driver, rejecting non-finite results with the offending arguments."""
    out = np.asarray(gen.eval(t, y, z, theta, vartheta, m, mbar), dtype=np.float64)
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(out)))
        idx = int(bad[0][0]) if bad.size else 0

        def _pick(v):
            a = np.atleast_1d(np.asarray(v))
            return a[min(idx, a.shape[0] - 1)]

        raise GeneratorEvalError(
            f"driver {gen.name!r} returned a non-finite value",
            arguments=(t, _pick(y), _pick(z), _pick(theta), _pick(vartheta), _pick(m), _pick(mbar)),
        )
    return out


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def zero_generator() -> GeneratorSpec:
    return GeneratorSpec(
        name="zero",
        eval=lambda t, y, z, th, vt, m, mb: np.zeros_like(np.asarray(y, dtype=np.float64)),
        monotone_in_theta=True,
        antitone_in_m=True,
        antitone_in_mbar=True,
        continuous_linear_growth=True,
        depends_on=frozenset(),
    )


def constant_generator(value: float) -> GeneratorSpec:
    return GeneratorSpec(
        name=f"constant({value})",
        eval=lambda t, y, z, th, vt, m, mb: np.full_like(np.asarray(y, dtype=np.float64), value),
        h_proc=abs(value),
        C=0.0,
        monotone_in_theta=True,
        antitone_in_m=True,
        antitone_in_mbar=True,
        continuous_linear_growth=True,
        depends_on=frozenset(),
    )


def linear_generator(a: float, b: float, c: float) -> GeneratorSpec:
    """f = a*y + b*theta + c*m."""
    return GeneratorSpec(
        name=f"linear(a={a},b={b},c={c})",
        eval=lambda t, y, z, th, vt, m, mb: a * np.asarray(y, dtype=np.float64) + b * th + c * m,
        C=abs(a) + abs(b),
        C1=abs(c),
        monotone_in_theta=b >= 0,
        antitone_in_m=c <= 0,
        antitone_in_mbar=True,
        continuous_linear_growth=True,
        depends_on=frozenset({"y", "theta", "m"}),
    )


def delay_linear_generator(c: float) -> GeneratorSpec:
    """f = c * theta; the delayed linear driver with an ODE oracle."""
    return GeneratorSpec(
        name=f"delay_linear(c={c})",
        eval=lambda t, y, z, th, vt, m, mb: c * np.asarray(th, dtype=np.float64),
        C=abs(c),
        monotone_in_theta=c >= 0,
        antitone_in_m=True,
        antitone_in_mbar=True,
        continuous_linear_growth=True,
        depends_on=frozenset({"theta"}),
    )


def resistance_linear_generator(c: float, c1: float) -> GeneratorSpec:
    """f = c * theta - c1 * (m + mbar); the minimal resistance-coupled driver."""
    return GeneratorSpec(
        name=f"resistance_linear(c={c},c1={c1})",
        eval=lambda t, y, z, th, vt, m, mb: c * np.asarray(th, dtype=np.float64) - c1 * (m + mb),
        C=abs(c),
        C1=abs(c1),
        monotone_in_theta=c >= 0,
        antitone_in_m=c1 >= 0,
        antitone_in_mbar=c1 >= 0,
        continuous_linear_growth=True,
        depends_on=frozenset({"theta", "m", "mbar"}),
    )


def quadratic_y_generator() -> GeneratorSpec:
    """f = y^2; continuous but not globally Lipschitz, for regularization demos."""
    return GeneratorSpec(
        name="quadratic_y",
        eval=lambda t, y, z, th, vt, m, mb: np.asarray(y, dtype=np.float64) ** 2,
        monotone_in_theta=True,
        antitone_in_m=True,
        antitone_in_mbar=True,
        continuous_linear_growth=False,
        depends_on=frozenset({"y"}),
    )


def truncated_quadratic_generator(cap: float = 10.0, c1: float = 0.0) -> GeneratorSpec:
    """f = min(y^2, cap) - c1*(m + mbar); bounded, Lipschitz 2*sqrt(cap)."""
    if cap < 0:
        raise ConfigurationError(f"truncated_quadratic needs cap >= 0, got {cap}")
    lip = 2.0 * math.sqrt(cap)

    def _eval(t, y, z, th, vt, m, mb):
        return np.minimum(np.asarray(y, dtype=np.float64) ** 2, cap) - c1 * (np.asarray(m) + np.asarray(mb))

    deps = {"y"} | ({"m", "mbar"} if c1 != 0 else set())
    return GeneratorSpec(
        name=f"truncated_quadratic(cap={cap},c1={c1})",
        eval=_eval,
        C=lip,
        C1=abs(c1),
        h_proc=cap,
        growth_C=1.0,  # |f| <= cap = 1 * h_t; the Lipschitz constant is much larger
        monotone_in_theta=True,
        antitone_in_m=c1 >= 0,
        antitone_in_mbar=c1 >= 0,
        continuous_linear_growth=True,
        depends_on=frozenset(deps),
    )


def growth_bound_generator(C: float, C1: float, h_proc, sign: int) -> GeneratorSpec:
    """The upper (+1) / lower (-1) envelope driver
    sign * [C*(h_t + |y| + |z|) + C*E[|Y_anticipated|] + C1*(m + mbar)].

    The anticipated argument is the conditional expectation of the absolute
    value, requested through the anticipate_abs_y flag.
    """
    if sign not in (1, -1):
        raise ConfigurationError("sign must be +1 or -1")

    def _eval(t, y, z, th, vt, m, mb):
        y = np.asarray(y, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        znorm = np.sqrt((z * z).sum(axis=-1)) if z.ndim > 1 else np.abs(z)
        h_t = h_proc(t) if callable(h_proc) else float(h_proc)
        return sign * (C * (h_t + np.abs(y) + znorm + np.asarray(th)) + C1 * (np.asarray(m) + np.asarray(mb)))

    label = "upper" if sign == 1 else "lower"
    return GeneratorSpec(
        name=f"growth_bound_{label}(C={C},C1={C1})",
        eval=_eval,
        C=C,
        C1=C1,
        h_proc=h_proc,
        anticipate_abs_y=True,
        antitone_in_m=sign < 0,
        antitone_in_mbar=sign < 0,
        continuous_linear_growth=True,
        depends_on=frozenset({"y", "z", "theta", "m", "mbar"}),
    )


GENERATOR_CATALOG: dict[str, Callable[..., GeneratorSpec]] = {
    "zero": zero_generator,
    "constant": constant_generator,
    "linear": linear_generator,
    "delay_linear": delay_linear_generator,
    "resistance_linear": resistance_linear_generator,
    "quadratic_y": quadratic_y_generator,
    "truncated_quadratic": truncated_quadratic_generator,
    "growth_bound_upper": lambda C, C1, h_proc=0.0: growth_bound_generator(C, C1, h_proc, +1),
    "growth_bound_lower": lambda C, C1, h_proc=0.0: growth_bound_generator(C, C1, h_proc, -1),
}


def make_generator(name: str, **params) -> GeneratorSpec:
    if name not in GENERATOR_CATALOG:
        raise ConfigurationError(f"unknown generator {name!r}; catalog: {sorted(GENERATOR_CATALOG)}")
    return GENERATOR_CATALOG[name](**params)


# ---------------------------------------------------------------------------
# Declared-constant audits
# ---------------------------------------------------------------------------


def audit_generator(gen: GeneratorSpec, grid: TimeGrid, trials: int = 200, seed: int = 0, box: float = 5.0) -> dict:
    """Randomized audit of the declared constants.

    Checks the square-integrability proxy sum_i h*|f(t_i, 0, ..., 0)|^2 and
    samples finite differences against C and C1. Constants are user-declared
    and trusted after this audit.
    """
    rng = np.random.default_rng(seed)
    zero_vals = []
    for t in grid.times[: grid.N + 1]:
        v = float(eval_f(gen, t, np.zeros(1), np.zeros((1, 1)), np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1))[0])
        zero_vals.append(v)
    sq_proxy = float(np.sum(np.square(zero_vals)) * grid.h)
    worst_c = 0.0
    worst_c1 = 0.0
    for _ in range(trials):
        t = float(rng.choice(grid.times[: grid.N + 1]))
        base = rng.uniform(-box, box, size=6)
        pert = rng.uniform(-box, box, size=6)

        def _f(v):
            return float(
                eval_f(
                    gen, t,
                    np.array([v[0]]), np.array([[v[1]]]), np.array([v[2]]),
                    np.array([v[3]]), np.array([v[4]]), np.array([v[5]]),
                )[0]
            )

        lip_args = base.copy()
        lip_args[:4] = pert[:4]
        denom = float(np.abs(base[:4] - pert[:4]).sum())
        if denom > 1e-9:
            worst_c = max(worst_c, abs(_f(base) - _f(lip_args)) / denom)
        res_args = base.copy()
        res_args[4:] = pert[4:]
        denom1 = float(np.abs(base[4:] - pert[4:]).sum())
        if denom1 > 1e-9:
            worst_c1 = max(worst_c1, abs(_f(base) - _f(res_args)) / denom1)
    return {
        "square_integrability_proxy": sq_proxy,
        "square_integrability_ok": math.isfinite(sq_proxy),
        "observed_C": worst_c,
        "observed_C1": worst_c1,
        "C_ok": worst_c <= gen.C + 1e-9,
        "C1_ok": worst_c1 <= gen.C1 + 1e-9,
    }


# ---------------------------------------------------------------------------
# Inf-convolution regularization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfConvolutionApprox:
    """Brute-force inf-convolution of a driver at penalty level n.

    search_box maps penalized argument names the base actually depends on to
    (lo, hi) ranges; grid_step is the search resolution. Arguments the base
    ignores are optimized out exactly (the penalty vanishes at the query).
    """

    base: GeneratorSpec
    n: float
    search_box: dict
    grid_step: float
    _grids: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigurationError(f"penalty level n must be positive, got {self.n}")
        if self.grid_step <= 0:
            raise ConfigurationError("grid_step must be positive")
        active = self.active_axes()
        total = 1
        ranges = {}
        for name in active:
            if name not in self.search_box:
                raise ConfigurationError(f"search_box missing range for {name!r}")
            lo, hi = self.search_box[name]
            if hi <= lo:
                raise ConfigurationError(f"empty search range for {name!r}")
            count = int(np.floor((hi - lo) / self.grid_step + 0.5)) + 1
            ranges[name] = (lo, hi, count)
            total *= count
        if total > MAX_SEARCH_POINTS:
            raise ConfigurationError(
                f"search grid has {total} points, above the {MAX_SEARCH_POINTS} cap"
            )
        grids = {
            name: np.arange(lo, hi + self.grid_step / 2, self.grid_step)
            for name, (lo, hi, _) in ranges.items()
        }
        object.__setattr__(self, "_grids", grids)

    def active_axes(self) -> tuple:
        deps = self.base.depends_on if self.base.depends_on is not None else frozenset(ARG_NAMES)
        return tuple(name for name in PENALIZED if name in deps)

    def __call__(self, t, y, z, theta, vartheta, m, mbar) -> np.ndarray:
        """Vectorized evaluation at query rows; z arrives as [n_queries, d]."""
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[:, None] if z.shape[0] == y.shape[0] else z[None, :]
        nq = y.shape[0]
        best = np.asarray(
            eval_f(self.base, t, y, z, theta, vartheta, m, mbar), dtype=np.float64
        ).copy()  # query point is always a candidate, so f_n <= f exactly
        active = self.active_axes()
        if not active:
            return best
        mesh = np.meshgrid(*(self._grids[name] for name in active), indexing="ij")
        cand = {name: grid.ravel() for name, grid in zip(active, mesh)}
        nc = next(iter(cand.values())).size
        a, b, q = cand.get("y"), cand.get("z"), cand.get("theta")
        for row in range(nq):
            y_row = np.full(nc, y[row]) if a is None else a
            th_row = np.full(nc, theta[row]) if q is None else q
            if b is None:
                z_row = np.broadcast_to(z[row], (nc, z.shape[1]))
            else:
                # the search penalizes the first z component; extra components ride along
                z_row = np.column_stack([b] + [np.full(nc, z[row, j]) for j in range(1, z.shape[1])])
            vals = eval_f(
                self.base, t, y_row, z_row, th_row,
                np.full(nc, _row_of(vartheta, row)),
                np.full(nc, _row_of(m, row)),
                np.full(nc, _row_of(mbar, row)),
            )
            penalty = np.zeros(nc)
            if a is not None:
                penalty += self.n * np.abs(y[row] - a)
            if b is not None:
                penalty += self.n * np.abs(z[row, 0] - b)
            if q is not None:
                penalty += self.n * np.abs(theta[row] - q)
            best[row] = min(best[row], float(np.min(vals + penalty)))
        return best

    def as_generator(self) -> GeneratorSpec:
        """Wrap as a driver with the regularized constants and inherited flags."""
        return GeneratorSpec(
            name=f"{self.base.name}|n={self.n}",
            eval=lambda t, y, z, th, vt, m, mb: self(t, y, z, th, vt, m, mb),
            C=float(self.n),
            C1=self.base.C1,
            h_proc=self.base.h_proc,
            uses_anticipated_z=self.base.uses_anticipated_z,
            anticipate_abs_y=self.base.anticipate_abs_y,
            anticipate_abs_z=self.base.anticipate_abs_z,
            monotone_in_theta=self.base.monotone_in_theta,
            antitone_in_m=self.base.antitone_in_m,
            antitone_in_mbar=self.base.antitone_in_mbar,
            continuous_linear_growth=True,
            depends_on=self.base.depends_on,
        )


def _row_of(v, row: int):
    arr = np.atleast_1d(np.asarray(v, dtype=np.float64))
    return arr[row] if arr.shape[0] > row else arr[0]


def make_fn(base: GeneratorSpec, n: float, box: dict, step: float) -> InfConvolutionApprox:
    """Build the penalty-n regularization of a continuous driver.

    The caller keeps the box wide enough that the infimum over the region of
    interest is interior (margin of order max|f|/n beyond the solution range).
    """
    if not base.continuous_linear_growth:
        warnings.warn(
            f"driver {base.name!r} is not declared continuous with linear growth; "
            "the regularized sequence may not converge",
            stacklevel=2,
        )
    return InfConvolutionApprox(base=base, n=float(n), search_box=dict(box), grid_step=float(step))


@dataclass
class FnAuditReport:
    growth_constant: float
    monotone_in_n: bool
    monotone_in_theta: bool
    antitone_in_m: bool
    antitone_in_mbar: bool
    lipschitz_ok: bool
    worst_lipschitz_excess: float
    c1_lipschitz_ok: bool
    below_base: bool
    sup_gap_by_n: dict
    passed: bool


def audit_fn_properties(approxes: Sequence[InfConvolutionApprox], samples: int = 200, seed: int = 0) -> FnAuditReport:
    """Randomized audit of the regularized family: ordering in n, monotonicities,
    the n-Lipschitz bound (with grid-resolution slack), the C1 bound in (m, mbar),
    domination by the base, and the shrinking gap to the base."""
    if len(approxes) < 2:
        raise ConfigurationError("need at least two penalty levels to audit")
    approxes = sorted(approxes, key=lambda a: a.n)
    base = approxes[0].base
    rng = np.random.default_rng(seed)
    active = approxes[0].active_axes()
    box = approxes[0].search_box

    def _sample_point():
        pt = {}
        for name in ("y", "theta"):
            if name in active:
                lo, hi = box[name]
                pt[name] = rng.uniform(lo, hi)
            else:
                pt[name] = rng.uniform(-2, 2)
        if "z" in active:
            lo, hi = box["z"]
            pt["z"] = rng.uniform(lo, hi)
        else:
            pt["z"] = rng.uniform(-2, 2)
        pt["vartheta"] = rng.uniform(-2, 2)
        pt["m"] = rng.uniform(0, 2)
        pt["mbar"] = rng.uniform(0, 2)
        return pt

    def _val(fn, pt):
        return float(
            fn(
                0.0,
                np.array([pt["y"]]), np.array([[pt["z"]]]), np.array([pt["theta"]]),
                np.array([pt["vartheta"]]), np.array([pt["m"]]), np.array([pt["mbar"]]),
            )[0]
        )

    base_fn = partial(eval_f, base)

    monotone_n = True
    below = True
    growth = 0.0
    gaps = {a.n: 0.0 for a in approxes}
    mono_theta = True
    anti_m = True
    anti_mbar = True
    lip_excess = 0.0
    c1_ok = True
    for _ in range(samples):
        pt = _sample_point()
        vals = [_val(a, pt) for a in approxes]
        fv = _val(base_fn, pt)
        for lo, hi in zip(vals, vals[1:]):
            if hi < lo - 1e-12:
                monotone_n = False
        for a, v in zip(approxes, vals):
            if v > fv + 1e-12:
                below = False
            gaps[a.n] = max(gaps[a.n], fv - v)
        denom = abs(pt["y"]) + abs(pt["z"]) + abs(pt["theta"]) + 1.0
        growth = max(growth, (abs(vals[0]) - base.C1 * (abs(pt["m"]) + abs(pt["mbar"]))) / denom)
        # monotonicity flags inherited from the base
        if base.monotone_in_theta and "theta" in active:
            hi_pt = dict(pt, theta=pt["theta"] + 0.5)
            if _val(approxes[0], hi_pt) < vals[0] - 1e-12:
                mono_theta = False
        if base.antitone_in_m:
            hi_pt = dict(pt, m=pt["m"] + 0.5)
            if _val(approxes[0], hi_pt) > vals[0] + 1e-12:
                anti_m = False
        if base.antitone_in_mbar:
            hi_pt = dict(pt, mbar=pt["mbar"] + 0.5)
            if _val(approxes[0], hi_pt) > vals[0] + 1e-12:
                anti_mbar = False
        # n-Lipschitz in the penalized arguments, up to grid resolution
        a0 = approxes[0]
        pert = _sample_point()
        moved = dict(pt)
        dist = 0.0
        for name in ("y", "z", "theta"):
            if name in active:
                moved[name] = pert[name]
                dist += abs(pt[name] - pert[name])
        if dist > 1e-9:
            excess = abs(_val(a0, moved) - _val(a0, pt)) - a0.n * dist - a0.n * a0.grid_step
            lip_excess = max(lip_excess, excess)
        # exact C1 Lipschitz in (m, mbar): penalty never involves them
        moved_m = dict(pt, m=pert["m"], mbar=pert["mbar"])
        dm = abs(pt["m"] - pert["m"]) + abs(pt["mbar"] - pert["mbar"])
        if dm > 1e-9:
            if abs(_val(a0, moved_m) - _val(a0, pt)) > base.C1 * dm + 1e-9:
                c1_ok = False
    gap_values = [gaps[a.n] for a in approxes]
    passed = (
        monotone_n
        and below
        and mono_theta
        and anti_m
        and anti_mbar
        and lip_excess <= 1e-9
        and c1_ok
    )
    return FnAuditReport(
        growth_constant=growth,
        monotone_in_n=monotone_n,
        monotone_in_theta=mono_theta,
        antitone_in_m=anti_m,
        antitone_in_mbar=anti_mbar,
        lipschitz_ok=lip_excess <= 1e-9,
        worst_lipschitz_excess=lip_excess,
        c1_lipschitz_ok=c1_ok,
        below_base=below,
        sup_gap_by_n={a.n: g for a, g in zip(approxes, gap_values)},
        passed=passed,
    )

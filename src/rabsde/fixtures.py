"""Shipped test problems: ordered comparison pairs, the contraction fixture,
and the monotone-scheme fixture. Used by the test suite and the CLI compare
mode."""

from __future__ import annotations

import dataclasses

import numpy as np

from .analysis import ComparisonSetup
from .conditional import BasisSpec
from .generators import (
    GeneratorSpec,
    constant_generator,
    resistance_linear_generator,
    truncated_quadratic_generator,
    zero_generator,
)
from .grids import build_grid, make_delays, sample_brownian
from .problems import (
    ProblemBundle,
    StateMap,
    affine_obstacle,
    constant_terminal,
    no_obstacle,
    payoff_terminal,
    put_obstacle,
    TerminalSpec,
)
from .resistance import ResistanceFunctional


def shifted_generator(base: GeneratorSpec, shift: float) -> GeneratorSpec:
    """base + shift: same constants and flags, pointwise dominates base for shift >= 0."""
    base_eval = base.eval
    return dataclasses.replace(
        base,
        name=f"{base.name}+{shift}",
        eval=lambda t, y, z, th, vt, m, mb: base_eval(t, y, z, th, vt, m, mb) + shift,
    )


def _pair(grid, delays, gen_hi, gen_lo, obstacle, term_hi, term_lo, G, name, backend="tree", ensemble=None, basis=None):
    common = dict(grid=grid, delays=delays, obstacle=obstacle, G=G, backend=backend,
                  state_map=StateMap(0.0, 1.0), ensemble=ensemble, basis=basis)
    hi = ProblemBundle(gen=gen_hi, terminal=term_hi, **common)
    lo = ProblemBundle(gen=gen_lo, terminal=term_lo, tree=hi.tree, **common)  # share the lattice
    return ComparisonSetup(hi=hi, lo=lo, name=name)


def comparison_fixtures(backend: str = "tree", P: int = 8000, seed: int = 5) -> list[ComparisonSetup]:
    """Six ordered pairs spanning: identical data, generator ordering alone,
    terminal ordering alone, both with an active obstacle, resistance-coupled
    ordering, and extension ordering alone."""
    grid = build_grid(T=0.5, delta=0.25, N=20, M=10)
    delays = make_delays(grid, eps=lambda t: 0.25)
    G = ResistanceFunctional("lagged_value", eps=0.1)
    ensemble = sample_brownian(grid, P=P, d=1, seed=seed) if backend == "regression" else None
    basis = BasisSpec(degree=2) if backend == "regression" else None

    def pair(gen_hi, gen_lo, obstacle, term_hi, term_lo, name):
        return _pair(grid, delays, gen_hi, gen_lo, obstacle, term_hi, term_lo, G, name,
                     backend=backend, ensemble=ensemble, basis=basis)

    fixtures = []

    fixtures.append(pair(
        zero_generator(), zero_generator(), no_obstacle(),
        constant_terminal(1.0), constant_terminal(1.0),
        "identical-bundles",
    ))

    fixtures.append(pair(
        constant_generator(1.0), zero_generator(), no_obstacle(),
        constant_terminal(1.0), constant_terminal(1.0),
        "generator-ordering-only",
    ))

    fixtures.append(pair(
        zero_generator(), zero_generator(), no_obstacle(),
        constant_terminal(2.0), constant_terminal(1.0),
        "terminal-ordering-only",
    ))

    payoff = lambda x: np.maximum(0.3 - x, 0.0)
    fixtures.append(pair(
        constant_generator(0.2), zero_generator(), put_obstacle(0.3),
        TerminalSpec(xi=lambda t, x: payoff(x) + 0.3), payoff_terminal(payoff),
        "both-orderings-active-obstacle",
    ))

    res = resistance_linear_generator(c=0.3, c1=0.002)
    ramp = constant_terminal(1.0, zeta_rate=0.2, T=grid.T)
    flat = constant_terminal(1.0)
    fixtures.append(pair(
        shifted_generator(res, 0.1), res, affine_obstacle(a=1.4, b=-0.8),
        flat, ramp,
        "resistance-coupled-ordering",
    ))

    fixtures.append(pair(
        res, res, affine_obstacle(a=1.4, b=-0.8),
        flat, ramp,
        "extension-ordering-only",
    ))

    return fixtures


def contraction_problem(backend: str = "tree", P: int = 4000, seed: int = 3,
                        c: float = 0.3, c1: float = 0.0015) -> ProblemBundle:
    """Resistance-coupled problem with an active obstacle whose constants
    satisfy the smallness margin (for c1 <= ~0.0018)."""
    grid = build_grid(T=0.5, delta=0.25, N=20, M=10)
    kw = dict(
        grid=grid,
        delays=make_delays(grid),
        gen=resistance_linear_generator(c=c, c1=c1),
        obstacle=affine_obstacle(a=1.4, b=-0.8),
        terminal=constant_terminal(1.0),
        G=ResistanceFunctional("lagged_value", eps=0.1),
        state_map=StateMap(0.0, 1.0),
        backend=backend,
    )
    if backend == "regression":
        kw["ensemble"] = sample_brownian(grid, P=P, d=1, seed=seed)
        kw["basis"] = BasisSpec(degree=2)
    return ProblemBundle(**kw)


def minimal_scheme_problem(c1: float = 0.0, cap: float = 30.0) -> ProblemBundle:
    """Truncated-quadratic driver with an obstacle binding near t = 0.

    The solution climbs from 1 to ~9 backward in time, so its local slope 2y
    sweeps past every penalty level in {2, 4, 8, 16}: each level's solution
    sits strictly below the next, with shrinking increments (level 16 exceeds
    the Lipschitz constant 2*sqrt(30) and reproduces the driver exactly).
    """
    grid = build_grid(T=0.8, delta=0.4, N=20, M=10)
    return ProblemBundle(
        grid=grid,
        delays=make_delays(grid),
        gen=truncated_quadratic_generator(cap=cap, c1=c1),
        obstacle=affine_obstacle(a=3.5, b=-3.2),
        terminal=constant_terminal(1.0),
        G=ResistanceFunctional("lagged_value", eps=0.1),
        state_map=StateMap(0.0, 1.0),
        backend="tree",
    )


MINIMAL_SCHEME_BOX = {"y": (-150.0, 150.0)}
MINIMAL_SCHEME_STEP = 0.02
MINIMAL_SCHEME_N_LIST = [2.0, 4.0, 8.0, 16.0]

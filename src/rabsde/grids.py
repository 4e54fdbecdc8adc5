"""Uniform time grid over [0, T+delta], delay-to-index maps, and seeded Brownian ensembles.

The grid is uniform with h = T/N = delta/M so that constant delays land exactly
on grid points and anticipated values need no interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ValidationError

_REL_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Discrete time axis: N steps on [0, T] plus M steps on the extension [T, T+delta]."""

    T: float
    delta: float
    N: int
    M: int
    h: float
    times: np.ndarray  # length N+M+1, times[0]=0, times[N]=T, times[N+M]=T+delta

    @property
    def n_points(self) -> int:
        return self.N + self.M + 1

    def index_of(self, t: float, ties: str = "later") -> int:
        """Nearest grid index for time t; ties round later or earlier as requested.

        A 1e-9 fuzz guard keeps exact ties stable under float roundoff
        (0.15/0.1 evaluates just below 1.5).
        """
        x = t / self.h
        if ties == "later":
            j = int(np.floor(x + 0.5 + 1e-9))
        else:
            j = int(np.ceil(x - 0.5 - 1e-9))
        return min(max(j, 0), self.N + self.M)


def build_grid(T: float, delta: float, N: int, M: int) -> TimeGrid:
    """Build the uniform grid, rejecting any (T, delta, N, M) with T/N != delta/M.

    M must be 0 exactly when delta is 0.
    """
    if T <= 0:
        raise ConfigurationError(f"horizon T must be positive, got {T}")
    if N < 1:
        raise ConfigurationError(f"N must be >= 1, got {N}")
    if delta < 0:
        raise ConfigurationError(f"extension delta must be >= 0, got {delta}")
    h = T / N
    if delta == 0:
        if M != 0:
            raise ConfigurationError(f"delta = 0 requires M = 0, got M = {M}")
    else:
        if M < 1:
            raise ConfigurationError(f"delta > 0 requires M >= 1, got M = {M}")
        h_ext = delta / M
        if abs(h - h_ext) > _REL_TOL * max(h, h_ext):
            raise ConfigurationError(
                f"non-uniform spacing: T/N = {h} but delta/M = {h_ext}; "
                "choose N, M with T/N = delta/M"
            )
    times = np.arange(N + M + 1, dtype=np.float64) * h
    return TimeGrid(T=float(T), delta=float(delta), N=N, M=M, h=h, times=times)


def resolve_delay(
    grid: TimeGrid,
    delay: Callable[[float], float],
    *,
    allow_zero: bool = False,
) -> np.ndarray:
    """Map each grid index i <= N to the index of t_i + delay(t_i).

    Rounds to the nearest grid point with ties toward the later index, then clamps
    to [i+1, N+M] (or [i, N+M] when zero delay is allowed, as for the resistance
    look-ahead). Raises if the delay leaves [0, T+delta] or has the wrong sign.
    """
    top = grid.N + grid.M
    slack = _REL_TOL * max(grid.T + grid.delta, 1.0)
    out = np.empty(grid.N + 1, dtype=np.int64)
    for i in range(grid.N + 1):
        t = grid.times[i]
        d = float(delay(t))
        if allow_zero:
            if d < 0:
                raise ValidationError(f"delay must be >= 0, got {d} at t = {t}")
        else:
            if d <= 0:
                raise ValidationError(f"delay must be > 0, got {d} at t = {t}")
        if t + d > grid.T + grid.delta + slack:
            raise ValidationError(
                f"delay violates t + delay(t) <= T + delta at t_{i} = {t}: "
                f"{t} + {d} > {grid.T + grid.delta}"
            )
        j = int(np.floor((t + d) / grid.h + 0.5 + 1e-9))  # ties later
        lo = i if allow_zero else i + 1
        out[i] = min(max(j, lo), top)
    return out


def check_condition_ii(a: np.ndarray, grid: TimeGrid) -> int:
    """Smallest L bounding sums of g(a[s]) by L times sums of g over the remaining grid.

    For every start index t and every nonnegative grid function g,
        sum_{s=t}^{N-1} g(a[s]) * h  <=  L * sum_{s=t}^{N+M} g(s) * h.
    Both sides are linear in g, so indicators are the worst case and the exact
    answer is the largest multiplicity of any target index: L = max_j #{s < N : a[s] = j}.
    """
    if grid.N == 0:
        return 0
    targets = np.asarray(a[: grid.N], dtype=np.int64)
    if targets.size == 0:
        return 0
    counts = np.bincount(targets, minlength=grid.N + grid.M + 1)
    return int(counts.max())


@dataclass(frozen=True)
class DelaySpec:
    """Resolved delay maps for the anticipated Y, Z, and resistance arguments."""

    mu_idx: np.ndarray
    nu_idx: np.ndarray
    eps_idx: np.ndarray
    L: int

    def __post_init__(self):
        n = len(self.mu_idx)
        if len(self.nu_idx) != n or len(self.eps_idx) != n:
            raise ConfigurationError("delay index arrays must share length N+1")


def make_delays(
    grid: TimeGrid,
    mu: Callable[[float], float] | None = None,
    nu: Callable[[float], float] | None = None,
    eps: Callable[[float], float] | None = None,
) -> DelaySpec:
    """Resolve the three delay functions and certify the change-of-variables constant L.

    Defaults: mu = nu = constant delta (clamped identity when delta = 0), eps = 0.
    mu and nu must be strictly positive except on a degenerate grid (delta = 0),
    where every look-ahead clamps to the terminal index anyway.
    """
    degenerate = grid.delta == 0

    def _const(c: float) -> Callable[[float], float]:
        return lambda t: c

    if mu is None:
        mu = _const(grid.delta)
    if nu is None:
        nu = _const(grid.delta)
    if eps is None:
        eps = _const(0.0)
    mu_idx = resolve_delay(grid, mu, allow_zero=degenerate)
    nu_idx = resolve_delay(grid, nu, allow_zero=degenerate)
    eps_idx = resolve_delay(grid, eps, allow_zero=True)
    L = max(
        check_condition_ii(mu_idx, grid),
        check_condition_ii(nu_idx, grid),
        check_condition_ii(eps_idx, grid),
    )
    return DelaySpec(mu_idx=mu_idx, nu_idx=nu_idx, eps_idx=eps_idx, L=L)


def cumsum_levels(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.cumsum(x, axis=0, out=out), bit for bit, as one whole-level add per level:
    on a [62, 200k] array (2-core x86-64, numpy 2.4) 35 ms against np.cumsum's 125 ms."""
    out[0] = x[0]
    for j in range(1, len(x)):
        np.add(out[j - 1], x[j], out=out[j])
    return out


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded Brownian increment ensemble; path p depends on (seed, p) only, never on P.

    Storage is level-major ([steps, P, d]), so one time level of every path is
    contiguous; dW and W are the [P, steps(+1), d] transposed views of it.
    """

    P: int
    d: int
    seed: int
    h: float
    dW: np.ndarray  # [P, steps, d], N(0, h) i.i.d.
    W: np.ndarray = field(init=False)  # [P, steps+1, d], cumulative, W[:, 0] = 0

    def __post_init__(self):
        # no copy when dW already views level-major storage
        dW = np.ascontiguousarray(np.asarray(self.dW, dtype=np.float64).transpose(1, 0, 2))
        W = np.zeros((dW.shape[0] + 1, self.P, self.d))
        cumsum_levels(dW, W[1:])
        object.__setattr__(self, "dW", dW.transpose(1, 0, 2))
        object.__setattr__(self, "W", W.transpose(1, 0, 2))


_FILL_BLOCK = 256


def _fill_paths(dW: np.ndarray, seed: int, scale: float) -> None:
    """Fill the level-major dW [steps, P, d], a block of paths at a time:
    each path is drawn into a small path-major buffer, which is copied transposed."""
    steps, P, d = dW.shape
    buf = np.empty((_FILL_BLOCK, steps, d))
    for start in range(0, P, _FILL_BLOCK):
        stop = min(start + _FILL_BLOCK, P)
        for p in range(start, stop):
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, p))))
            buf[p - start] = scale * gen.standard_normal((steps, d))
        dW[:, start:stop] = buf[: stop - start].transpose(1, 0, 2)


def sample_brownian(grid: TimeGrid, P: int, d: int, seed: int) -> PathEnsemble:
    """Generate P paths of d-dimensional Brownian increments over the full grid.

    Each path gets its own counter-based generator keyed by (seed, path index),
    so enlarging P never changes existing paths.
    """
    if P < 1 or d < 1:
        raise ConfigurationError(f"need P >= 1 and d >= 1, got P={P}, d={d}")
    dW = np.empty((grid.N + grid.M, P, d), dtype=np.float64)
    _fill_paths(dW, seed, np.sqrt(grid.h))
    return PathEnsemble(P=P, d=d, seed=seed, h=grid.h, dW=dW.transpose(1, 0, 2))

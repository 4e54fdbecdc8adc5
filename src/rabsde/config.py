"""Experiment configuration: a strict JSON schema, defaulting, canonical
hashing, and construction of the solver objects.

Each section is walked through one schema table that states every key's
parser and default once; unknown keys, missing required keys and values of
the wrong JSON type are rejected at every level, and nothing is coerced. The
resolved form (defaults applied) is echoed next to the results with a
content hash, and re-parsing the echo reproduces it identically.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
from typing import Any

import numpy as np

from .conditional import BasisSpec
from .errors import ConfigurationError
from .generators import GENERATOR_CATALOG, make_generator
from .grids import build_grid, make_delays, sample_brownian
from .picard import PicardConfig
from .problems import (
    OBSTACLE_CATALOG,
    ProblemBundle,
    StateMap,
    TerminalSpec,
    constant_terminal,
)
from .resistance import KINDS as RESISTANCE_KINDS
from .resistance import ResistanceFunctional
from .sweep import WARM_STARTS

MODES = ("solve", "compare", "minimal", "sandwich", "validate-G", "constants")

# Schema tables map each key of a section to (parser, default). A parser takes
# the JSON value and returns the resolved one, or raises ConfigurationError
# saying what it expected. A default is the resolved value itself, _REQUIRED,
# or _OPTIONAL (an absent key stays absent from the resolved form).
_REQUIRED = object()
_OPTIONAL = object()


def _number(value):
    """A finite number that is not a bool, kept as given (an int stays an int)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigurationError(f"must be a finite number, got {value!r}")


def _num(value) -> float:
    return float(_number(value))


def _int(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"must be an integer, got {value!r}")
    return value


def _at_least(parse, lo):
    """parse, then require the value to be >= lo."""

    def check(value):
        v = parse(value)
        if v < lo:
            raise ConfigurationError(f"must be >= {lo}, got {value!r}")
        return v

    return check


def _typed(cls, what: str):
    def parse(value):
        if isinstance(value, cls):
            return value
        raise ConfigurationError(f"must be {what}, got {value!r}")

    return parse


_bool, _str, _obj = _typed(bool, "true or false"), _typed(str, "a string"), _typed(dict, "an object")


def _nums(value) -> list:
    """A list of finite numbers, as floats."""
    if isinstance(value, list):
        try:
            return [_num(v) for v in value]
        except ConfigurationError:
            pass
    raise ConfigurationError(f"must be a list of finite numbers, got {value!r}")


def _levels(value) -> list:
    """The minimal scheme's penalty levels: at least two numbers, sorted ascending."""
    levels = _nums(value)
    if len(levels) < 2 or levels != sorted(levels):
        raise ConfigurationError(f"must list at least two levels in ascending order, got {value!r}")
    return levels


def _one_of(*choices):
    def parse(value):
        if isinstance(value, str) and value in choices:
            return value
        raise ConfigurationError(f"must be one of {list(choices)}, got {value!r}")

    return parse


def _basis_kind(value):
    if value == "state+running":
        raise ConfigurationError(
            "'state+running' was removed: its two running features are one column "
            "(K is nondecreasing), so every step fell back to an automatic ridge; use 'state'"
        )
    return _one_of("state")(value)


def _box(value) -> dict:
    """The minimal scheme's search box: one [lo, hi] pair per penalized argument."""
    if isinstance(value, dict) and all(isinstance(v, list) and len(v) == 2 for v in value.values()):
        return {k: _nums(v) for k, v in value.items()}
    raise ConfigurationError(f"must be an object of [lo, hi] pairs, got {value!r}")


def _section(raw, spec: dict, where: str) -> dict:
    """Walk one config section through its schema table."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where} must be an object, got {raw!r}")
    unknown = raw.keys() - spec.keys()
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in {where}")
    out = {}
    for key, (parse, default) in spec.items():
        if key in raw:
            try:
                out[key] = parse(raw[key])
            except ConfigurationError as exc:
                raise ConfigurationError(f"{where}.{key} {exc}") from None
        elif default is _REQUIRED:
            raise ConfigurationError(f"missing required key {key!r} in {where}")
        elif default is not _OPTIONAL:
            out[key] = list(default) if isinstance(default, list) else default
    return out


@functools.cache
def _params_table(fn, parse) -> dict:
    """The params table of a catalog entry: one key per argument of its signature."""
    return {
        p.name: (parse, _REQUIRED if p.default is p.empty else _OPTIONAL)
        for p in inspect.signature(fn).parameters.values()
    }


_SECTIONS = ("mode_params", "grid", "delays", "generator", "resistance", "obstacle", "terminal", "state", "backend", "picard")
_TOP = {
    "mode": (_one_of(*MODES), _REQUIRED),
    **dict.fromkeys(_SECTIONS, (_obj, {})),
    "ensemble": (_obj, _OPTIONAL),
    "config_hash": (_str, _OPTIONAL),  # present in echoed configs; ignored and recomputed
}
_MODE_PARAMS = {
    # the library's rules: C, L, T and delta are nonnegative (compute_constants)
    "constants": {k: (_num if k == "C1" else _at_least(_num, 0), _REQUIRED) for k in ("C", "C1", "L", "T", "delta")},
    "compare": {"fixture": (_str, "all")},
    "validate-G": {"trials": (_at_least(_int, 1), 1000), "seed": (_at_least(_int, 0), 0)},
    "minimal": {"n_list": (_levels, _REQUIRED), "box": (_box, _REQUIRED), "step": (_num, 0.01)},
    **dict.fromkeys(("solve", "sandwich"), {}),
}
_GRID = {"T": (_num, _REQUIRED), "delta": (_num, 0.0), "N": (_int, _REQUIRED), "M": (_int, 0)}
_ENSEMBLE = {"paths": (_int, _REQUIRED), "d": (_int, 1), "seed": (_at_least(_int, 0), 0)}
_DELAYS = dict.fromkeys(("mu", "nu", "eps"), (_obj, _OPTIONAL))
_DELAY_FORM = _one_of("constant", "affine")
_DELAY_CONSTANT = {"form": (_DELAY_FORM, "constant"), "value": (_num, 0.0)}
_DELAY_AFFINE = {"form": (_DELAY_FORM, "affine"), "a": (_num, 0.0), "b": (_num, 0.0)}
_GENERATOR = {"name": (_one_of(*GENERATOR_CATALOG), _REQUIRED), "params": (_obj, {})}
_RESISTANCE = {
    "kind": (_one_of(*(k for k in RESISTANCE_KINDS if k != "custom")), "lagged_value"),
    "eps": (_num, 0.0),
    "declared_monotone": (_bool, True),
    "declared_L2_lipschitz_C1": (lambda v: v if v is None else _number(v), None),
}
_OBSTACLE = {"form": (_one_of(*OBSTACLE_CATALOG), "none"), "params": (_obj, {})}
_TERMINAL_PARAMS = {
    "constant": {"value": (_num, 0.0), "zeta_rate": (_num, 0.0)},
    "state-poly": {"coeffs": (_nums, [0.0])},
}
_TERMINAL = {"form": (_one_of(*_TERMINAL_PARAMS), "constant"), "params": (_obj, {})}
_STATE = {"x0": (_num, 0.0), "sigma": (_num, 1.0)}
_BACKEND = {"kind": (_one_of("tree", "regression"), "tree"), "basis": (_obj, {})}
_BASIS = {"kind": (_basis_kind, "state"), "degree": (_int, 2), "ridge": (_num, 0.0)}
_PICARD = {"tol": (_num, 1e-12), "max_iter": (_int, 25), "warm_start": (_one_of(*WARM_STARTS), "zeta-extension-only")}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"config numbers must be finite, got {text}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}")
    except ConfigurationError:
        raise
    except ValueError as exc:  # not JSON, or an integer literal past the interpreter's digit limit
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    return raw


def resolve_config(raw: dict) -> dict:
    """Validate and fill defaults, returning the canonical resolved form."""
    top = _section(raw, _TOP, "config")
    mode = top["mode"]
    out: dict[str, Any] = {"mode": mode}
    if mode not in ("constants", "compare"):
        out["grid"] = _section(top["grid"], _GRID, "grid")
        out["resistance"] = _section(top["resistance"], _RESISTANCE, "resistance")
    if mode in ("constants", "compare", "validate-G"):
        out["mode_params"] = _section(top["mode_params"], _MODE_PARAMS[mode], "mode_params")
        return out

    # solve / sandwich / minimal share the full problem description
    delays = _section(top["delays"], _DELAYS, "delays")
    out["delays"] = {}
    for name in ("mu", "nu", "eps"):
        d = delays.get(name, {"value": 0.0 if name == "eps" else out["grid"]["delta"]})
        spec = _DELAY_AFFINE if d.get("form") == "affine" else _DELAY_CONSTANT
        out["delays"][name] = _section(d, spec, "delays." + name)

    out["generator"] = gen = _section(top["generator"], _GENERATOR, "generator")
    gen["params"] = _section(gen["params"], _params_table(GENERATOR_CATALOG[gen["name"]], _number), "generator.params")
    out["obstacle"] = obs = _section(top["obstacle"], _OBSTACLE, "obstacle")
    obs["params"] = _section(obs["params"], _params_table(OBSTACLE_CATALOG[obs["form"]], _num), "obstacle.params")
    out["terminal"] = term = _section(top["terminal"], _TERMINAL, "terminal")
    term["params"] = _section(term["params"], _TERMINAL_PARAMS[term["form"]], "terminal.params")

    out["state"] = _section(top["state"], _STATE, "state")

    backend = _section(top["backend"], _BACKEND, "backend")
    basis = backend.pop("basis")
    if backend["kind"] == "regression":
        backend["basis"] = _section(basis, _BASIS, "backend.basis")
        out["ensemble"] = _section(top.get("ensemble", {}), _ENSEMBLE, "ensemble")
    elif "ensemble" in top:
        raise ConfigurationError("ensemble section is only valid with the regression backend")
    out["backend"] = backend

    out["picard"] = _section(top["picard"], _PICARD, "picard")
    out["mode_params"] = _section(top["mode_params"], _MODE_PARAMS[mode], "mode_params")
    return out


def canonical_json(resolved: dict) -> str:
    return json.dumps(resolved, sort_keys=True, separators=(",", ":"))


def config_hash(resolved: dict) -> str:
    stripped = {k: v for k, v in resolved.items() if k != "config_hash"}
    return hashlib.sha256(canonical_json(stripped).encode()).hexdigest()


def _delay_fn(spec: dict):
    if spec["form"] == "constant":
        v = spec["value"]
        return lambda t: v
    a, b = spec["a"], spec["b"]
    return lambda t: a + b * t


def build_problem(resolved: dict) -> ProblemBundle:
    """Instantiate the solver objects for solve / sandwich / minimal configs."""
    g = resolved["grid"]
    grid = build_grid(T=g["T"], delta=g["delta"], N=g["N"], M=g["M"])
    d = resolved["delays"]
    delays = make_delays(
        grid,
        mu=_delay_fn(d["mu"]),
        nu=_delay_fn(d["nu"]),
        eps=_delay_fn(d["eps"]),
    )
    gen = make_generator(resolved["generator"]["name"], **resolved["generator"]["params"])
    obstacle = OBSTACLE_CATALOG[resolved["obstacle"]["form"]](**resolved["obstacle"]["params"])
    terminal = _terminal_spec(resolved["terminal"], grid.T)
    G = resistance_functional(resolved)
    state_map = StateMap(x0=resolved["state"]["x0"], sigma=resolved["state"]["sigma"])
    backend = resolved["backend"]["kind"]
    kwargs = dict(
        grid=grid, delays=delays, gen=gen, obstacle=obstacle, terminal=terminal,
        G=G, state_map=state_map, backend=backend,
    )
    if backend == "regression":
        ens_cfg = resolved["ensemble"]
        kwargs["ensemble"] = sample_brownian(grid, P=ens_cfg["paths"], d=ens_cfg["d"], seed=ens_cfg["seed"])
        b = resolved["backend"]["basis"]
        kwargs["basis"] = BasisSpec(kind=b["kind"], degree=b["degree"], ridge=b["ridge"])
    return ProblemBundle(**kwargs)


def resistance_functional(resolved: dict) -> ResistanceFunctional:
    """The resistance functional G of a resolved config (solve modes and validate-G)."""
    return ResistanceFunctional(**resolved["resistance"])


def _terminal_spec(cfg: dict, T: float) -> TerminalSpec:
    if cfg["form"] == "constant":
        return constant_terminal(cfg["params"]["value"], cfg["params"]["zeta_rate"], T)
    coeffs = cfg["params"]["coeffs"]

    def _xi(t, x):
        x = np.asarray(x, dtype=np.float64)
        acc = np.zeros_like(x)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return TerminalSpec(xi=_xi)


def picard_config(resolved: dict) -> PicardConfig:
    p = resolved["picard"]
    return PicardConfig(tol=p["tol"], max_iter=p["max_iter"], warm_start=p["warm_start"])

"""Experiment configuration: a strict JSON schema, defaulting, canonical
hashing, and construction of the solver objects.

Unknown keys are rejected at every level; the fully-resolved configuration
(defaults applied) is echoed next to the results with a content hash, and
re-parsing the echo reproduces the identical resolved form.
"""

from __future__ import annotations

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

_GRID_KEYS = {"T", "delta", "N", "M"}
_ENSEMBLE_KEYS = {"paths", "d", "seed"}
_DELAY_FORM_KEYS = {"form", "value", "a", "b"}
_GENERATOR_KEYS = {"name", "params"}
_RESISTANCE_KEYS = {"kind", "eps", "declared_monotone", "declared_L2_lipschitz_C1"}
_OBSTACLE_KEYS = {"form", "params"}
_TERMINAL_KEYS = {"form", "params"}
_STATE_KEYS = {"x0", "sigma"}
_BACKEND_KEYS = {"kind", "basis"}
_BASIS_KEYS = {"kind", "degree", "ridge"}
_PICARD_KEYS = {"tol", "max_iter", "warm_start"}
_TOP_KEYS = {
    "mode", "grid", "ensemble", "delays", "generator", "resistance",
    "obstacle", "terminal", "state", "backend", "picard", "mode_params",
    "config_hash",  # present in echoed configs; ignored and recomputed
}

TERMINAL_FORMS = ("constant", "state-poly")
DELAY_FORMS = ("constant", "affine")


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys {sorted(unknown)} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"missing required key {key!r} in {where}")
    return section[key]


def _int(value, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return value


def _check_params(fn, params: dict, where: str) -> None:
    try:
        inspect.signature(fn).bind(**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad params for {where}: {exc}")


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
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    return raw


def resolve_config(raw: dict) -> dict:
    """Validate and fill defaults, returning the canonical resolved form."""
    _check_keys(raw, _TOP_KEYS, "top level")
    mode = _require(raw, "mode", "top level")
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; expected one of {MODES}")
    out: dict[str, Any] = {"mode": mode}
    mp = raw.get("mode_params", {})
    if not isinstance(mp, dict):
        raise ConfigurationError("mode_params must be an object")

    if mode == "constants":
        allowed = {"C", "C1", "L", "T", "delta"}
        _check_keys(mp, allowed, "mode_params")
        out["mode_params"] = {k: float(_require(mp, k, "mode_params")) for k in sorted(allowed)}
        return out

    if mode == "compare":
        _check_keys(mp, {"fixture"}, "mode_params")
        out["mode_params"] = {"fixture": str(mp.get("fixture", "all"))}
        return out

    grid = dict(raw.get("grid", {}))
    _check_keys(grid, _GRID_KEYS, "grid")
    out["grid"] = {
        "T": float(_require(grid, "T", "grid")),
        "delta": float(grid.get("delta", 0.0)),
        "N": _int(_require(grid, "N", "grid"), "grid.N"),
        "M": _int(grid.get("M", 0), "grid.M"),
    }

    res = dict(raw.get("resistance", {"kind": "lagged_value", "eps": 0.0}))
    _check_keys(res, _RESISTANCE_KEYS, "resistance")
    kind = res.get("kind", "lagged_value")
    if kind not in RESISTANCE_KINDS or kind == "custom":
        raise ConfigurationError(f"resistance kind {kind!r} not addressable from config")
    out["resistance"] = {
        "kind": kind,
        "eps": float(res.get("eps", 0.0)),
        "declared_monotone": bool(res.get("declared_monotone", True)),
        "declared_L2_lipschitz_C1": res.get("declared_L2_lipschitz_C1", None),
    }

    if mode == "validate-G":
        allowed = {"trials", "seed"}
        _check_keys(mp, allowed, "mode_params")
        out["mode_params"] = {
            "trials": _int(mp.get("trials", 1000), "mode_params.trials"),
            "seed": _int(mp.get("seed", 0), "mode_params.seed"),
        }
        return out

    # solve / sandwich / minimal share the full problem description
    delays = dict(raw.get("delays", {}))
    _check_keys(delays, {"mu", "nu", "eps"}, "delays")
    out["delays"] = {}
    for name in ("mu", "nu", "eps"):
        d = dict(delays.get(name, {"form": "constant", "value": out["grid"]["delta"] if name != "eps" else 0.0}))
        _check_keys(d, _DELAY_FORM_KEYS, f"delays.{name}")
        form = d.get("form", "constant")
        if form not in DELAY_FORMS:
            raise ConfigurationError(f"unknown delay form {form!r}")
        if form == "constant":
            out["delays"][name] = {"form": "constant", "value": float(d.get("value", 0.0))}
        else:
            out["delays"][name] = {"form": "affine", "a": float(d.get("a", 0.0)), "b": float(d.get("b", 0.0))}

    gen = dict(_require(raw, "generator", "top level"))
    _check_keys(gen, _GENERATOR_KEYS, "generator")
    gname = _require(gen, "name", "generator")
    if gname not in GENERATOR_CATALOG:
        raise ConfigurationError(f"unknown generator {gname!r}; catalog: {sorted(GENERATOR_CATALOG)}")
    params = dict(gen.get("params", {}))
    _check_params(GENERATOR_CATALOG[gname], params, f"generator {gname!r}")
    out["generator"] = {"name": gname, "params": {k: params[k] for k in sorted(params)}}

    obs = dict(raw.get("obstacle", {"form": "none"}))
    _check_keys(obs, _OBSTACLE_KEYS, "obstacle")
    oform = obs.get("form", "none")
    if oform not in OBSTACLE_CATALOG:
        raise ConfigurationError(f"unknown obstacle form {oform!r}")
    oparams = dict(obs.get("params", {}))
    _check_params(OBSTACLE_CATALOG[oform], oparams, f"obstacle {oform!r}")
    out["obstacle"] = {"form": oform, "params": {k: float(oparams[k]) for k in sorted(oparams)}}

    term = dict(raw.get("terminal", {"form": "constant", "params": {"value": 0.0}}))
    _check_keys(term, _TERMINAL_KEYS, "terminal")
    tform = term.get("form", "constant")
    if tform not in TERMINAL_FORMS:
        raise ConfigurationError(f"unknown terminal form {tform!r}")
    tparams = dict(term.get("params", {}))
    if tform == "constant":
        out["terminal"] = {
            "form": "constant",
            "params": {
                "value": float(tparams.get("value", 0.0)),
                "zeta_rate": float(tparams.get("zeta_rate", 0.0)),
            },
        }
    else:
        coeffs = [float(c) for c in tparams.get("coeffs", [0.0])]
        out["terminal"] = {"form": "state-poly", "params": {"coeffs": coeffs}}

    state = dict(raw.get("state", {}))
    _check_keys(state, _STATE_KEYS, "state")
    out["state"] = {"x0": float(state.get("x0", 0.0)), "sigma": float(state.get("sigma", 1.0))}

    backend = dict(raw.get("backend", {"kind": "tree"}))
    _check_keys(backend, _BACKEND_KEYS, "backend")
    bkind = backend.get("kind", "tree")
    if bkind not in ("tree", "regression"):
        raise ConfigurationError(f"unknown backend {bkind!r}")
    out["backend"] = {"kind": bkind}
    if bkind == "regression":
        basis = dict(backend.get("basis", {}))
        _check_keys(basis, _BASIS_KEYS, "backend.basis")
        bk = basis.get("kind", "state")
        if bk == "state+running":
            raise ConfigurationError(
                "basis kind 'state+running' was removed: its two running features are one column "
                "(K is nondecreasing), so every step fell back to an automatic ridge; use 'state'"
            )
        if bk != "state":
            raise ConfigurationError(f"unknown basis kind {bk!r}")
        out["backend"]["basis"] = {
            "kind": bk,
            "degree": _int(basis.get("degree", 2), "backend.basis.degree"),
            "ridge": float(basis.get("ridge", 0.0)),
        }
        ens = dict(raw.get("ensemble", {}))
        _check_keys(ens, _ENSEMBLE_KEYS, "ensemble")
        out["ensemble"] = {
            "paths": _int(_require(ens, "paths", "ensemble"), "ensemble.paths"),
            "d": _int(ens.get("d", 1), "ensemble.d"),
            "seed": _int(ens.get("seed", 0), "ensemble.seed"),
        }
    elif "ensemble" in raw:
        raise ConfigurationError("ensemble section is only valid with the regression backend")

    pic = dict(raw.get("picard", {}))
    _check_keys(pic, _PICARD_KEYS, "picard")
    warm = pic.get("warm_start", "zeta-extension-only")
    if warm not in WARM_STARTS:
        raise ConfigurationError(f"unknown picard.warm_start {warm!r}; expected one of {WARM_STARTS}")
    out["picard"] = {
        "tol": float(pic.get("tol", 1e-12)),
        "max_iter": _int(pic.get("max_iter", 25), "picard.max_iter"),
        "warm_start": warm,
    }

    if mode == "minimal":
        _check_keys(mp, {"n_list", "box", "step"}, "mode_params")
        n_list = [float(n) for n in _require(mp, "n_list", "mode_params")]
        box = {str(k): [float(v[0]), float(v[1])] for k, v in _require(mp, "box", "mode_params").items()}
        out["mode_params"] = {"n_list": n_list, "box": box, "step": float(mp.get("step", 0.01))}
    else:
        _check_keys(mp, set(), "mode_params")
        out["mode_params"] = {}
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

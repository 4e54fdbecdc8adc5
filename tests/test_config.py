"""Properties of the config schema: every edit of a shipped config is either
rejected as a configuration error or resolves to a form whose echo
re-resolves identically."""

import copy
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabsde.config import canonical_json, config_hash, load_config, resolve_config
from rabsde.errors import ConfigurationError

CONFIGS = pathlib.Path(__file__).parents[1] / "configs"
SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.json"))

# config_hash of each shipped config; a change here changes every echoed
# resolved_config.json and breaks replay of earlier runs.
GOLDEN_HASHES = {
    "constants": "90e811e037dec6c019da04fd85d2fdeeb9966e3152f575840f492752731a1720",
    "minimal_tree": "45cf09055600588cc86bc2f65f024ed73d85a7f77a67bf2a6f7c0a9873834b3e",
    "solve_regression": "5664c3cf1094b958f011234fa74e2b15248b2da4baae39e1c38e4d4cf5e42ba2",
    "solve_tree": "fb5d59bf6948869956d452b5ada7f844fb7e4b349b7aa4e1ccb9e02a341e91bc",
    "validate_g": "06f379265cbe3dc366486f40e6efcf6410cf28085c0d4f12b308548571c42365",
}

# Small JSON values; the keys include names of the other forms and sections.
KEYS = st.sampled_from(["value", "a", "b", "form", "params", "coeffs", "kind", "y", "valu"]) | st.text(max_size=3)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.floats(-10, 10, allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["constant", "affine", "state-poly", "regression", "tree", "zero", "put", "nan", "1"])
)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3), max_leaves=6
)


def _paths(node, prefix=()):
    """Every key path below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(raw, data):
    """raw with one node replaced or deleted, or one key added to an object."""
    raw = copy.deepcopy(raw)
    path = data.draw(st.sampled_from(list(_paths(raw))))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        parent[path[-1]] = data.draw(VALUES)
    elif op == "delete":
        del parent[path[-1]]
    else:
        target = parent[path[-1]] if isinstance(parent[path[-1]], dict) else parent
        if isinstance(target, dict):
            target[data.draw(KEYS)] = data.draw(VALUES)
    return raw


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_hash_is_pinned(name):
    assert config_hash(resolve_config(load_config(str(CONFIGS / f"{name}.json")))) == GOLDEN_HASHES[name]


@pytest.mark.parametrize("name", SHIPPED)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_edit_is_rejected_or_round_trips(name, data):
    raw = _mutate(load_config(str(CONFIGS / f"{name}.json")), data)
    try:
        resolved = resolve_config(raw)
    except ConfigurationError:
        return
    echo = json.loads(canonical_json(dict(resolved, config_hash=config_hash(resolved))))
    again = resolve_config(echo)
    assert again == resolved
    assert config_hash(again) == echo["config_hash"]

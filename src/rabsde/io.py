"""Artifact writers: columnar solution files, convergence traces, and JSON
reports. All floats use shortest round-trip decimal form (repr), so equal
values always write equal bytes."""

from __future__ import annotations

import json
import os

import numpy as np

from .problems import SolutionTriple


def _fmt(v) -> str:
    return repr(float(v))


def write_solution_csv(path: str, sol, grid, header_meta: dict) -> None:
    """Columns (path, time_index, Y, Z_1..Z_d, K).

    On the tree backend the "path" column is the node index within the level
    and K is the collapsed mean path. Each array is read once through tolist()
    and written a path (or level) at a time, so no full copy of the file is held.
    """
    d = sol.z(0).shape[1]
    meta = " ".join(f"{k}={v}" for k, v in header_meta.items())
    cols = ["path", "time_index", "Y"] + [f"Z_{j + 1}" for j in range(d)] + ["K"]
    L = grid.n_points
    with open(path, "w") as fh:
        fh.write("\n".join(["# rabsde-solution v1", f"# {meta}", ",".join(cols)]) + "\n")
        if isinstance(sol, SolutionTriple):
            blank = ",".join([""] * d)
            for p in range(sol.Y.shape[0]):
                y, k = sol.Y[p].tolist(), sol.K[p].tolist()
                z = [",".join(map(repr, row)) for row in sol.Z[p].tolist()] + [blank]
                fh.write("".join(f"{p},{i},{y[i]!r},{z[i]},{k[i]!r}\n" for i in range(L)))
        else:
            for i in range(L):
                k = repr(float(sol.K[0, i]))
                z = list(map(repr, sol.Z[i].tolist())) if i < L - 1 else []
                z += [""] * (len(sol.Y[i]) - len(z))
                fh.write("".join(f"{node},{i},{y!r},{z[node]},{k}\n" for node, y in enumerate(sol.Y[i].tolist())))


def write_trace_csv(path: str, report) -> None:
    lines = ["iteration,distance,ratio,margin"]
    for row in report.trace_rows():
        ratio = _fmt(row["ratio"]) if row["ratio"] != "" else ""
        lines.append(f"{row['iteration']},{_fmt(row['distance'])},{ratio},{_fmt(row['margin'])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def write_report_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=1)
        fh.write("\n")


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)

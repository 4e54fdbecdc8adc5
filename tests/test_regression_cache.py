"""The regression hot path: one estimator per solve, one factorization per
level, level-major storage behind [P, L] views, and the artifact writer."""

import copy
import json

import numpy as np
import pytest

from rabsde import config, io, picard
from rabsde.cli import main
from rabsde.conditional import BasisSpec, RegressionCE, _monomials
from rabsde.grids import build_grid, sample_brownian
from rabsde.problems import SolutionTriple
from rabsde.sweep import sweep, warm_start_k

# the benchmark's solve problem at a small ensemble; Picard needs 7 sweeps
BENCH_SHAPE = {
    "mode": "solve",
    "grid": {"T": 1.0, "delta": 0.24, "N": 50, "M": 12},
    "generator": {"name": "resistance_linear", "params": {"c": 0.3, "c1": 0.05}},
    "resistance": {"kind": "lagged_value", "eps": 0.1},
    "obstacle": {"form": "affine", "params": {"a": 1.75, "b": -1.1}},
    "terminal": {"form": "state-poly", "params": {"coeffs": [1.0, 0.5, 0.25]}},
    "backend": {"kind": "regression", "basis": {"kind": "state", "degree": 3, "ridge": 0.0}},
    "ensemble": {"paths": 2000, "d": 2, "seed": 3},
    "picard": {"tol": 1e-18, "max_iter": 25},
}


def _resolved(**ensemble):
    cfg = copy.deepcopy(BENCH_SHAPE)
    cfg["ensemble"].update(ensemble)
    return config.resolve_config(cfg)


@pytest.fixture(scope="module")
def bench_problem():
    return config.build_problem(_resolved())


def test_shared_estimator_matches_fresh_per_sweep(bench_problem):
    shared = RegressionCE(bench_problem.ensemble, bench_problem.basis)
    k_shared = k_fresh = warm_start_k(bench_problem)
    for _ in range(3):
        a = sweep(bench_problem, k_shared, ce=shared)
        b = sweep(bench_problem, k_fresh)
        for name in ("Y", "Z", "K", "dK"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        k_shared, k_fresh = a.k_path(), b.k_path()


def test_solve_factorizes_once_per_level(bench_problem, monkeypatch):
    calls = []
    factorize = RegressionCE._factorize

    def counting(self, i, X):
        calls.append(i)
        return factorize(self, i, X)

    monkeypatch.setattr(RegressionCE, "_factorize", counting)
    resolved = _resolved()
    _, report = picard.solve_rabsde(bench_problem, config=config.picard_config(resolved))
    N = bench_problem.grid.N
    assert report.iterations == 7
    assert sorted(calls) == list(range(1, N))


def test_level_reads_are_contiguous_and_shapes_unchanged(bench_problem):
    ens, grid = bench_problem.ensemble, bench_problem.grid
    P, d, N, L = ens.P, ens.d, grid.N, grid.n_points
    sol = sweep(bench_problem, warm_start_k(bench_problem))
    assert ens.dW.shape == (P, L - 1, d) and ens.W.shape == (P, L, d)
    assert sol.Y.shape == (P, L) and sol.Z.shape == (P, L - 1, d)
    assert sol.K.shape == (P, L) and sol.dK.shape == (P, N)
    for i in (0, 1, N - 1):
        for level in (ens.W[:, i], ens.dW[:, i], sol.y(i), sol.z(i), sol.dk(i), sol.K[:, i]):
            assert level.flags.c_contiguous


def test_ridge_matches_closed_form():
    grid = build_grid(T=1.0, delta=0.0, N=6, M=0)
    ens = sample_brownian(grid, P=3000, d=2, seed=11)
    basis = BasisSpec(degree=2, ridge=0.5)
    i = 3
    y = np.sin(ens.W[:, grid.N, 0]) + ens.W[:, grid.N, 1] ** 2
    X = _monomials(ens.W[:, i, :], basis.degree)
    closed = X @ np.linalg.solve(X.T @ X + basis.ridge * np.eye(X.shape[1]), X.T @ y)
    fitted = RegressionCE(ens, basis).fit(i, y)
    assert np.abs(fitted - closed).max() <= 1e-12 * np.abs(closed).max()


@pytest.mark.parametrize("d", [1, 2])
def test_level_major_paths_keep_each_path_stream(d):
    # path p is still drawn from its own (seed, p) stream, bit for bit, across
    # the 256-path fill blocks, in one and in two dimensions
    grid = build_grid(T=1.0, delta=0.2, N=10, M=2)
    P, seed = 600, 5
    ens = sample_brownian(grid, P=P, d=d, seed=seed)
    ref = np.empty((P, grid.N + grid.M, d))
    for p in range(P):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, p))))
        ref[p] = np.sqrt(grid.h) * gen.standard_normal((grid.N + grid.M, d))
    assert np.array_equal(ens.dW, ref)
    assert np.array_equal(ens.W[:, 1:], np.cumsum(ref, axis=1))


def _reference_csv(sol, grid, header_meta) -> str:
    """The per-element writer the tolist() writer replaced."""
    fmt = lambda v: repr(float(v))  # noqa: E731
    d = sol.z(0).shape[1]
    meta = " ".join(f"{k}={v}" for k, v in header_meta.items())
    cols = ["path", "time_index", "Y"] + [f"Z_{j + 1}" for j in range(d)] + ["K"]
    lines = ["# rabsde-solution v1", f"# {meta}", ",".join(cols)]
    L = grid.n_points
    if isinstance(sol, SolutionTriple):
        for p in range(sol.Y.shape[0]):
            for i in range(L):
                z = [fmt(sol.Z[p, i, j]) for j in range(d)] if i < L - 1 else [""] * d
                lines.append(",".join([str(p), str(i), fmt(sol.Y[p, i])] + z + [fmt(sol.K[p, i])]))
    else:
        for i in range(L):
            for node in range(len(sol.Y[i])):
                z = [fmt(sol.Z[i][node])] if i < L - 1 and node < len(sol.Z[i]) else [""]
                lines.append(",".join([str(node), str(i), fmt(sol.Y[i][node])] + z + [fmt(sol.K_mean[i])]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("backend", ["regression", "tree"])
def test_solution_csv_matches_per_element_writer(tmp_path, backend):
    cfg = copy.deepcopy(BENCH_SHAPE)
    cfg["grid"] = {"T": 1.0, "delta": 0.24, "N": 25, "M": 6}
    if backend == "tree":
        cfg["backend"] = {"kind": "tree"}
        del cfg["ensemble"]
    else:
        cfg["ensemble"]["paths"] = 300
    resolved = config.resolve_config(cfg)
    problem = config.build_problem(resolved)
    sol, _ = picard.solve_rabsde(problem, config=config.picard_config(resolved))
    meta = {"backend": backend, "N": 25}
    path = tmp_path / "solution.csv"
    io.write_solution_csv(str(path), sol, problem.grid, meta)
    assert path.read_text() == _reference_csv(sol, problem.grid, meta)


def test_removed_basis_kind_exits_two(tmp_path, capsys):
    cfg = copy.deepcopy(BENCH_SHAPE)
    cfg["backend"]["basis"]["kind"] = "state+running"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
    assert "'state+running' was removed" in capsys.readouterr().err

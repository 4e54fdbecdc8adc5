"""In-memory spans around the public functions of each rabsde module.

The program is not edited: a wrapper is installed on the module attribute
through which each caller looks a function up, so it sees exactly the calls
that caller makes. `sweep.tree_ce` and `conditional.tree_ce` are separate
attributes; only the first is wrapped, because the lattice sweep is the caller
being measured (the Snell oracle in the correctness checks also calls
`tree_ce`, through `snell.tree_ce`, and stays untraced).

A span has a name, a start, an end and a parent id; its id is its position
in the tracer's arrays and the parent id is -1 at the root. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import weakref
from array import array
from contextlib import contextmanager
from time import perf_counter


def _targets():
    """(owner, attribute, span name) for every wrapped lookup."""
    from rabsde import analysis, conditional, config, generators, io, picard

    sweep = importlib.import_module("rabsde.sweep")  # rabsde.sweep is the function

    return [
        (config, "load_config", "config.load_config"),
        (config, "resolve_config", "config.resolve_config"),
        (config, "build_problem", "config.build_problem"),
        # build_problem looks path generation up in its own module
        (config, "sample_brownian", "grids.sample_brownian"),
        # the benchmark calls picard.solve_rabsde; the minimal scheme and the
        # sandwich bounds call it through analysis
        (picard, "solve_rabsde", "picard.solve_rabsde"),
        (analysis, "solve_rabsde", "picard.solve_rabsde"),
        (picard, "sweep", "sweep.sweep"),
        (picard, "weighted_distance", "picard.weighted_distance"),
        (sweep, "RegressionCE", "conditional.RegressionCE"),
        (conditional.RegressionCE, "fit", None),  # named per call, see _fit_name
        (sweep, "tree_ce", "conditional.tree_ce"),
        (sweep, "eval_f", "generators.eval_f"),
        (generators.InfConvolutionApprox, "__call__", "generators.InfConvolutionApprox"),
        (sweep, "eval_G", "resistance.eval_G"),
        (sweep, "eval_G_matrix", "resistance.eval_G"),
        (io, "write_solution_csv", "io.write"),
        (io, "write_trace_csv", "io.write"),
        (io, "write_report_json", "io.write"),
        (analysis, "run_minimal_scheme", "analysis.run_minimal_scheme"),
        (analysis, "run_sandwich", "analysis.run_sandwich"),
    ]


class Tracer:
    """Collects spans for one operation at a time.

    Spans are stored column-wise in typed arrays: a list of per-span objects
    would be traversed by every garbage collection and slow the very code
    being measured (the io writer allocates millions of small objects).
    """

    def __init__(self):
        self._codes: dict = {}  # span name -> code, in order of first use
        self.reset()

    def reset(self) -> None:
        self.name_code = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.current = -1
        self.design_bytes = 0
        self._fitted_steps = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self.name_code)

    def _code(self, name: str) -> int:
        return self._codes.setdefault(name, len(self._codes))

    def _wrap(self, fn, name):
        tracer = self
        code = None if name is None else self._code(name)

        def wrapper(*args, **kwargs):
            parent = tracer.current
            idx = tracer.current = len(tracer.name_code)
            tracer.name_code.append(tracer._code(tracer._fit_name(*args)) if code is None else code)
            tracer.parent.append(parent)
            tracer.end.append(0.0)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.current = parent

        return wrapper

    def _fit_name(self, ce, i, *_):
        """First fit of an estimator at a step i >= 1 builds the design matrix
        and factorizes it; at i = 0 the fit is a plain sample mean."""
        steps = self._fitted_steps.setdefault(ce, set())
        if i == 0 or i in steps:
            return "conditional.fit"
        steps.add(i)
        self.design_bytes += ce.ensemble.P * ce.n_basis * 8
        return "conditional.fit_first"

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def count_children(self, name: str, parent_name: str) -> int:
        """Spans called `name` whose direct parent is called `parent_name`."""
        code, pcode = self._codes.get(name), self._codes.get(parent_name)
        return sum(
            1 for c, p in zip(self.name_code, self.parent)
            if c == code and p >= 0 and self.name_code[p] == pcode
        )

    def aggregate(self) -> dict:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for idx, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[idx]
        names = list(self._codes)
        agg: dict = {}
        for idx, c in enumerate(self.name_code):
            name = names[c]
            calls, total, own = agg.get(name, (0, 0.0, 0.0))
            agg[name] = (calls + 1, total + dur[idx], own + dur[idx] - child[idx])
        return agg

"""Spans around the library calls that ``solve_additive_dp`` makes.

``instrumented(trace)`` replaces, for the length of a ``with`` block, the
names that ``treepack.rounding`` and ``treepack.apps.paths`` look up when
they run: ``validate_instance``, ``reduce_chain``, ``build_state_lp``,
``solve_lp``, ``boost``, ``lift_labeling``, ``path_dp`` and the others in
``HOOKS``.  Each replacement times its call into ``trace`` and calls the
original.  The solve itself is the library's own ``solve_additive_dp`` or
``robust_shortest_path``, so the trace always measures the program as it
stands.  ``run.py`` also checks that traced witnesses equal untraced ones.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from treepack import rounding
import treepack.apps.paths as paths

# (module, name, span) for every call the trace times.  A call made while
# another hooked call is open is not timed again, so spans never overlap.
# ``rounding`` spans are named after the rounding mode of the solve.
HOOKS = (
    (paths, "path_dp", "apps.model"),
    (rounding, "validate_instance", "core.preprocess"),
    (rounding, "preprocess_instance", "core.preprocess"),
    (rounding, "reduce_chain", "reduce.reduce"),
    (rounding, "normalize_epsilon", "lp.pad"),
    (rounding, "build_state_lp", "lp.relax"),
    (rounding, "solve_lp", "lp.solve"),
    (rounding, "attach_solution", "lp.cert"),
    (rounding, "compact_to_recursive", "lp.cert"),
    (rounding, "productive_table", "rounding"),
    (rounding, "boost", "rounding"),
    (rounding, "lift_labeling", "reduce.lift"),
    (rounding, "make_witness", "reduce.lift"),
    (rounding, "check_packing", "reduce.lift"),
)


class Trace:
    """Spans and counts of one traced run, kept in memory.

    A span is (name, parent, request, start, end), with times in seconds
    since the trace began; spans of one solve share ``request``, which the
    caller sets.  ``times`` and ``counts`` accumulate per name over the
    run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.request = None
        self.mode = None
        self.spans = []
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []

    def span(self, name):
        return _Span(self, name)

    def count(self, name, n):
        self.counts[name] += n


class _Span:
    def __init__(self, trace, name):
        self.trace, self.name = trace, name

    def __enter__(self):
        tr = self.trace
        self.parent = tr._open[-1] if tr._open else None
        tr._open.append(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.trace
        tr._open.pop()
        tr.times[self.name] += end - self.start
        tr.spans.append((self.name, self.parent, tr.request,
                         self.start - tr.t0, end - tr.t0))
        return False


def _count_sizes(trace, name, args, out):
    """Sizes recorded at a hook's boundary."""
    if name == "reduce_chain":
        sh = out.shallow
        trace.count("reduce.shallow_labels", len(sh.labels))
        trace.count("reduce.pbtl_labels", len(out.pbtl.labels))
        trace.count("reduce.pbtl_triples", len(out.pbtl.triples))
        trace.count("reduce.candidate_triples",
                    out.H * (len(sh.pairs) + len(sh.base) + 1))
    elif name == "build_state_lp":
        model = out.model
        trace.count("lp.vars", model.n)
        trace.count("lp.rows", len(model.rows))
        trace.count("lp.nnz", sum(len(c) for c, _, _ in model.rows))
    elif name == "boost":
        trace.count("rounding.trials", args[2])


def _hook(trace, fn, name, span):
    @functools.wraps(fn)
    def timed(*args, **kw):
        if any(s != "solve" for s in trace._open):
            return fn(*args, **kw)
        if span == "rounding":
            label = "rounding." + trace.mode.replace("-", "_")
        else:
            label = span
        with trace.span(label):
            out = fn(*args, **kw)
        _count_sizes(trace, name, args, out)
        return out
    return timed


@contextmanager
def instrumented(trace):
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in HOOKS]
    try:
        for (mod, name, span), (_, _, fn) in zip(HOOKS, saved):
            setattr(mod, name, _hook(trace, fn, name, span))
        yield trace
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def solve(trace, params, call):
    """Run ``call()`` (a library solve with rounding ``params``) with every
    hook in place, inside one ``solve`` span."""
    trace.mode = params.mode
    with instrumented(trace), trace.span("solve"):
        return call()

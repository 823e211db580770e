"""Checks of every solve against computations made outside the pipeline.

Each check raises ``CheckError`` with a reason; ``run.py`` counts an
operation as failed when its solve raises or one of these checks does.
Witnesses are re-walked here with the benchmark's own code, not with
``treepack.core.evaluate_witness``, so a fault in the library's evaluator
cannot hide a wrong witness.
"""

from __future__ import annotations

from collections import Counter

TOL = 1e-6      # LP residual allowance on objectives
EXACT = 1e-9    # re-summed floats may differ from the library's in last bits


class CheckError(Exception):
    pass


def walk_witness(inst, node):
    """(vector, size) of a witness tree, checking every choice index and
    every child multiset against the instance."""
    vec, size = {}, 0
    stack = [node]
    while stack:
        nd = stack.pop()
        size += 1
        if not inst.has_problem(nd.problem_id):
            raise CheckError("unknown problem %r" % (nd.problem_id,))
        p = inst.problem(nd.problem_id)
        if p.base:
            if nd.children or nd.choice_index is not None:
                raise CheckError("base %r has a choice or children" % p.id)
            if p.x is None:
                raise CheckError("witness uses infeasible base %r" % p.id)
            part = p.x
        else:
            ci = nd.choice_index
            if ci is None or not 0 <= ci < len(p.choices):
                raise CheckError("choice index %r invalid at %r" % (ci, p.id))
            ch = p.choices[ci]
            if (Counter(c.problem_id for c in nd.children)
                    != Counter(ch.children)):
                raise CheckError("children of %r do not match choice %d"
                                 % (p.id, ci))
            part = ch.fixed
            stack.extend(nd.children)
        for i, v in part.items():
            vec[i] = vec.get(i, 0) + v
    return {i: v for i, v in vec.items() if v}, size


def packing_rows(inst, vec):
    for i in vec:
        if not 0 <= i < inst.d:
            raise CheckError("vector index %r out of range" % (i,))
    return [sum(a * vec.get(i, 0) for i, a in row.items())
            for row in inst.packing]


def check_solve(inst, delta, res, mode):
    """Witness rooted at the instance's root, its validity, size, cached
    vector, packing diagnostics and, in cost-preserving mode, rounded cost
    against the LP objective.  Returns the witness's largest packing-row
    value."""
    if res.status != "ok":
        raise CheckError("solve status %r" % res.status)
    if res.witness.root.problem_id != inst.root:
        raise CheckError("witness is rooted at %r, not at the root %r"
                         % (res.witness.root.problem_id, inst.root))
    vec, size = walk_witness(inst, res.witness.root)
    if size > delta:
        raise CheckError("witness size %d exceeds delta %d" % (size, delta))
    cached = {i: v for i, v in res.witness.vector.items() if v}
    if set(cached) != set(vec) or any(abs(cached[i] - vec[i]) > EXACT
                                      for i in vec):
        raise CheckError("cached witness vector %r, re-summed %r"
                         % (cached, vec))
    rows = packing_rows(inst, vec)
    got = res.diagnostics.per_row_packing
    if len(got) != len(rows) or any(abs(a - b) > EXACT
                                    for a, b in zip(got, rows)):
        raise CheckError("per_row_packing %r, recomputed %r" % (got, rows))
    if mode == "cost-preserving":
        cost = sum(inst.cost[i] * v for i, v in vec.items())
        check_cost(cost, res.lp_objective)
    return max(rows, default=0.0)


def check_cost(cost, lp_objective):
    if not cost <= lp_objective + TOL:
        raise CheckError("rounded cost %r exceeds LP objective %r"
                         % (cost, lp_objective))


def check_lower_bound(lp_objective, optimum):
    """The LP relaxes the problem, so its optimum may not exceed the best
    solution that meets every row."""
    if optimum is None:
        raise CheckError("no reference optimum to bound")
    if not lp_objective <= optimum + TOL * max(1.0, abs(optimum)):
        raise CheckError("LP objective %r exceeds optimum %r"
                         % (lp_objective, optimum))


def check_st_path(graph, edges, s="s", t="t"):
    """The edge ids form one directed s-t path."""
    if not edges:
        raise CheckError("empty path")
    at = s
    seen = {s}
    for i in edges:
        if not 0 <= i < len(graph.edges):
            raise CheckError("edge id %r out of range" % (i,))
        e = graph.edges[i]
        if e.u != at:
            raise CheckError("edge %d leaves %r, path is at %r" % (i, e.u, at))
        if e.v in seen:
            raise CheckError("path revisits %r" % (e.v,))
        seen.add(e.v)
        at = e.v
    if at != t:
        raise CheckError("path ends at %r, not %r" % (at, t))


def cheapest_within_budget(graph, paths):
    """Brute-force optimum: the cheapest listed path whose every length row
    stays at most 1."""
    best = None
    rows = len(graph.edges[0].lengths) if graph.edges else 0
    for p in paths:
        if all(sum(graph.edges[i].lengths[j] for i in p) <= 1.0 + EXACT
               for j in range(rows)):
            c = sum(graph.edges[i].cost for i in p)
            if best is None or c < best:
                best = c
    return best

"""The benchmark's checks reject wrong outputs, and a traced solve returns
what the same library call returns without the trace."""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from treepack import RoundingParams, solve_additive_dp  # noqa: E402
from treepack.apps import robust_shortest_path  # noqa: E402
from treepack.core import (WitnessNode, check_packing,  # noqa: E402
                           make_witness)

MODES = ("cost-free", "cost-preserving")


def small_case():
    return workloads.dp_case(random.Random("test"), 0, "small")


def solved(mode="cost-preserving"):
    case = small_case()
    res = solve_additive_dp(case.inst, case.delta,
                            params=RoundingParams(mode=mode, seed=3))
    return case, res


@pytest.mark.parametrize("mode", MODES)
def test_valid_solve_passes(mode):
    case, res = solved(mode)
    viol = checks.check_solve(case.inst, case.delta, res, mode)
    assert viol == pytest.approx(res.diagnostics.max_violation)


def with_root(res, root):
    w = dataclasses.replace(res.witness, root=root)
    return dataclasses.replace(res, witness=w)


def test_wrong_choice_index_is_rejected():
    case, res = solved()
    root = res.witness.root
    n = len(case.inst.problem(root.problem_id).choices)
    for bad in (n, -1, None):
        broken = with_root(res, dataclasses.replace(root, choice_index=bad))
        with pytest.raises(checks.CheckError, match="choice index"):
            checks.check_solve(case.inst, case.delta, broken,
                               "cost-preserving")


def test_wrong_children_are_rejected():
    case, res = solved()
    root = res.witness.root
    broken = with_root(res, dataclasses.replace(
        root, children=root.children + (WitnessNode(problem_id="p1"),)))
    with pytest.raises(checks.CheckError):
        checks.check_solve(case.inst, case.delta, broken, "cost-preserving")


def test_witness_of_a_subproblem_is_rejected():
    case, res = solved()
    child = res.witness.root.children[0]
    # a self-consistent witness of the child: cached vector and packing
    # diagnostics are those of its own subtree
    sub = make_witness(case.inst, child)
    rows, viol = check_packing(case.inst, sub.vector)
    diag = dataclasses.replace(res.diagnostics, per_row_packing=rows,
                               max_violation=viol)
    broken = dataclasses.replace(res, witness=sub, diagnostics=diag)
    with pytest.raises(checks.CheckError, match="rooted at"):
        checks.check_solve(case.inst, case.delta, broken, "cost-free")


def test_oversized_witness_is_rejected():
    case, res = solved()
    size = checks.walk_witness(case.inst, res.witness.root)[1]
    with pytest.raises(checks.CheckError, match="exceeds delta"):
        checks.check_solve(case.inst, size - 1, res, "cost-preserving")


def test_wrong_packing_diagnostics_are_rejected():
    case, res = solved()
    rows = list(res.diagnostics.per_row_packing)
    rows[0] += 1e-3
    diag = dataclasses.replace(res.diagnostics, per_row_packing=rows)
    with pytest.raises(checks.CheckError, match="per_row_packing"):
        checks.check_solve(case.inst, case.delta,
                           dataclasses.replace(res, diagnostics=diag),
                           "cost-preserving")


def test_cost_above_lp_objective_is_rejected():
    case, res = solved()
    vec, _ = checks.walk_witness(case.inst, res.witness.root)
    cost = sum(case.inst.cost[i] * v for i, v in vec.items())
    low = dataclasses.replace(res, lp_objective=cost - 1e-3)
    with pytest.raises(checks.CheckError, match="exceeds LP objective"):
        checks.check_solve(case.inst, case.delta, low, "cost-preserving")
    # cost-free rounding promises no cost bound
    checks.check_solve(case.inst, case.delta, low, "cost-free")


def test_lp_objective_above_optimum_is_rejected():
    checks.check_lower_bound(2.0, 2.0)
    with pytest.raises(checks.CheckError):
        checks.check_lower_bound(2.001, 2.0)
    with pytest.raises(checks.CheckError):
        checks.check_lower_bound(1.0, None)


def small_dag():
    rng = random.Random("test")
    return workloads.dag_case(rng, 2, 2, "small")


def test_broken_paths_are_rejected():
    case = small_dag()
    g = case.graph
    path = case.paths[0]
    checks.check_st_path(g, path)
    for broken in (path[:-1], path[1:], [path[0], path[0]] + path[1:],
                   [path[0], path[-1]], [], [len(g.edges)]):
        with pytest.raises(checks.CheckError):
            checks.check_st_path(g, broken)


def test_dag_reference_and_solve():
    case = small_dag()
    assert len(case.paths) == 2 ** 2
    out = robust_shortest_path(case.graph, "s", "t")
    best = checks.cheapest_within_budget(case.graph, case.paths)
    checks.check_st_path(case.graph, out.edges)
    checks.check_lower_bound(out.solve.lp_objective, best)


def test_bind_makes_rows_bind():
    case = small_dag()
    g = case.graph
    price = [sum(g.edges[i].cost for i in p) for p in case.paths]
    cheapest = case.paths[price.index(min(price))]
    rows = [sum(g.edges[i].lengths[j] for i in cheapest) for j in range(2)]
    assert max(rows) == pytest.approx(workloads.BIND)
    assert checks.cheapest_within_budget(g, case.paths) is not None


@pytest.mark.parametrize("mode", MODES)
def test_traced_solve_matches_library(mode):
    case = small_case()
    params = RoundingParams(mode=mode, seed=5)
    want = solve_additive_dp(case.inst, case.delta, params=params)
    trace = traced.Trace()
    got = traced.solve(trace, params, lambda: solve_additive_dp(
        case.inst, case.delta, params=params))
    assert got.witness == want.witness
    assert got.lp_objective == want.lp_objective
    assert got.diagnostics == want.diagnostics
    assert trace.counts["rounding.trials"] == want.diagnostics.trials_run
    assert trace.counts["reduce.pbtl_triples"] == len(
        want.reduction.pbtl.triples)
    assert trace.times["lp.solve"] > 0
    assert trace.times["rounding." + mode.replace("-", "_")] > 0
    names = [s[0] for s in trace.spans]
    assert names.index("core.preprocess") < names.index("reduce.reduce") \
        < names.index("lp.relax") < names.index("reduce.lift")
    # hooks never nest, and every one sits inside the solve span
    assert all(s[1] == "solve" for s in trace.spans if s[0] != "solve")
    # the library's own functions are back in place afterwards
    for mod, name, _ in traced.HOOKS:
        assert not hasattr(getattr(mod, name), "__wrapped__")


def test_traced_path_solve_times_the_model():
    case = small_dag()
    params = RoundingParams(mode="cost-preserving", seed=5)
    want = robust_shortest_path(case.graph, "s", "t", params=params)
    trace = traced.Trace()
    got = traced.solve(trace, params, lambda: robust_shortest_path(
        case.graph, "s", "t", params=params))
    assert got.edges == want.edges
    assert got.solve.witness == want.solve.witness
    assert trace.times["apps.model"] > 0
    assert trace.times["rounding.cost_preserving"] > 0

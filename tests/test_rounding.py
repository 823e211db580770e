import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepack import lp, oracle, rounding
from treepack.apps.paths import path_dp
from treepack.core import (AdditiveDpInstance, check_packing,
                           evaluate_witness, instance_phi, row_value,
                           vec_dot, vec_key, witness_size)
from treepack.decomp import DeadEnd
from treepack.reduce import BOT
from treepack.rounding import (RoundingParams, default_k_bits,
                               fill_canonical, solve_additive_dp,
                               violation_bound)

from conftest import layered_dag, random_instance, tiny_instance
from reference_oracle import pbtl_vector_set
from reference_rounding import reference_fill_canonical, semi_random_round
from test_lp import LP_CASES


def _random_partition(r, n):
    groups, lam, i = [], [], 0
    while i < n:
        g = list(range(i, min(n, i + r.randint(1, 4))))
        w = [r.random() + 1e-9 for _ in g]
        s = sum(w)
        lam.extend(x / s for x in w)
        groups.append(g)
        i = g[-1] + 1
    return groups, lam


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_semi_random_round_properties(seed):
    r = random.Random(seed)
    n = r.randint(2, 10)
    groups, lam = _random_partition(r, n)
    cost = [r.uniform(-2, 2) for _ in range(n)]
    rng = np.random.default_rng(seed)
    mu = semi_random_round(lam, groups, 12, cost, rng)
    assert all(m >= 0 for m in mu)
    for g in groups:
        assert sum(mu[i] for i in g) == 1
    assert sum(m * c for m, c in zip(mu, cost)) <= \
        sum(l * c for l, c in zip(lam, cost)) + 1e-7


def test_semi_random_round_rejects_fractional_group():
    with pytest.raises(ValueError):
        semi_random_round([0.4], [[0]], 8, [0.0], np.random.default_rng(0))


def test_default_k_bits():
    assert 1 << default_k_bits(1, 1) >= 16
    assert 1 << default_k_bits(7, 13) >= 16 * 7 * 13


def test_violation_bound_value():
    # the soft regression ceiling used by the violation criterion
    assert violation_bound(16, 0.5, 8) == pytest.approx(
        64 * (16 ** 0.5 / 0.5) * math.log(10))


def test_pipeline_tiny_instance_cost_free():
    inst = tiny_instance()
    res = solve_additive_dp(inst, 5, eps=0.5,
                            params=RoundingParams(trials=5, seed=1))
    assert res.status == "ok"
    # the only packing-feasible solution
    assert res.witness.vector == {1: 2}
    assert res.diagnostics.max_violation == pytest.approx(1.0)


def test_pipeline_infeasible_reports_status():
    # every solution has x0 + x1 >= 2, so a unit row over both is hopeless
    inst = tiny_instance()
    inst.packing = [{0: 1.0, 1: 1.0}]
    res = solve_additive_dp(inst, 5, eps=0.5)
    assert res.status == "lp-infeasible"


def test_witness_indices_refer_to_the_caller_instance():
    # preprocessing strips dead choices and renumbers the rest; the returned
    # witness must still evaluate against the instance the caller passed in
    from treepack.core import (AdditiveDpInstance, Choice, Problem,
                               evaluate_witness)
    base = tiny_instance()
    probs = []
    for p in base.problems:
        if p.id == "s":
            dead = Choice(fixed={0: 1}, children=("gone",))
            p = Problem(id="s", base=False, choices=(dead,) + p.choices)
        probs.append(p)
    probs.append(Problem(id="gone", base=True, x=None))
    inst = AdditiveDpInstance(d=base.d, m=base.m, root=base.root,
                              problems=probs, packing=base.packing,
                              cost=base.cost)
    res = solve_additive_dp(inst, 5, params=RoundingParams(seed=1, trials=3))
    assert res.status == "ok"
    assert evaluate_witness(inst, res.witness.root) == res.witness.vector


def test_pipeline_reproducible_from_seed():
    inst = tiny_instance()
    a = solve_additive_dp(inst, 5, params=RoundingParams(seed=3, trials=7))
    b = solve_additive_dp(inst, 5, params=RoundingParams(seed=3, trials=7))
    assert a.witness.vector == b.witness.vector
    assert a.diagnostics.to_json() == b.diagnostics.to_json()


BAD_PARAMS = {"mode": {"mode": "bogus"}, "trials0": {"trials": 0},
              "trials-1": {"trials": -1}, "trials-float": {"trials": 2.0},
              "trials-bool": {"trials": True}, "seed": {"seed": -1}}


@pytest.mark.parametrize("bad", list(BAD_PARAMS.values()), ids=list(BAD_PARAMS))
def test_bad_params_fail_before_the_reduction(monkeypatch, bad):
    """An unknown rounding mode, a trial count that is not a positive int,
    or a negative seed is a ValueError before the reduction runs."""
    def reduce_chain(*args, **kw):
        raise AssertionError("the reduction ran")
    monkeypatch.setattr(rounding, "reduce_chain", reduce_chain)
    with pytest.raises(ValueError):
        solve_additive_dp(tiny_instance(), 5, params=RoundingParams(**bad))
    # the good values of the same fields pass the check
    for good in ({"mode": "cost-preserving"}, {"trials": 1}, {"seed": 0}):
        RoundingParams(**good).check()


@pytest.mark.parametrize("mode", ["cost-free", "cost-preserving"])
def test_pipeline_random_instances_verify(mode):
    done = 0
    for seed in range(14):
        rng = random.Random(900 + seed)
        inst = random_instance(rng, n_max=5, d_max=4, m_max=3)
        delta = rng.randint(1, 4)
        res = solve_additive_dp(inst, delta, eps=0.5,
                                params=RoundingParams(mode=mode, trials=3,
                                                      seed=seed))
        if res.status != "ok":
            continue
        done += 1
        w = res.witness
        rows, worst = check_packing(inst, w.vector)
        assert res.diagnostics.max_violation == pytest.approx(worst)
        if mode == "cost-preserving":
            assert vec_dot(inst.cost, w.vector) <= res.lp_objective + 1e-6
    assert done >= 5


# largest row value of the cheapest row-blind solution after binding
BIND = 1.25


def _bound_draw(structure, draw):
    """Random structure ``structure`` (n_max=8, d_max=6, m_max=3) with its
    packing rows and costs redrawn from ``draw`` until the rows bind: scaled
    so that the cheapest solution that ignores them reaches BIND on its
    largest row, with entries in [0, 1] and some solution meeting every
    row."""
    base = random_instance(random.Random(structure), 8, 6, 3)
    delta = instance_phi(base)
    table = oracle.enumerate_solutions(base, delta)
    solutions = [dict(vk) for vk in table.root_vectors(base)]
    rng = random.Random(draw)
    while True:
        raw = [{j: round(rng.random(), 3)
                for j in rng.sample(range(base.d), rng.randint(1, base.d))}
               for _ in range(base.m)]
        cost = [round(rng.uniform(-2, 2), 3) for _ in range(base.d)]
        cheapest = min(solutions,
                       key=lambda x: (vec_dot(cost, x), sorted(x.items())))
        top = max(row_value(row, cheapest) for row in raw)
        if top <= 0:
            continue
        rows = [{i: a * BIND / top for i, a in row.items()} for row in raw]
        inst = AdditiveDpInstance(d=base.d, m=base.m, root=base.root,
                                  problems=base.problems, packing=rows,
                                  cost=cost)
        if all(a <= 1 for row in rows for a in row.values()) and any(
                check_packing(inst, x)[1] <= 1 for x in solutions):
            return inst, delta


# Each draw broke the promise at epsilon 1/2 or 1/3 (or both) when
# several parent states could route a cheaper vector into one state.
@pytest.mark.parametrize("structure,draw", [(22, 1), (22, 5), (3, 0),
                                            (22, 2)])
def test_cost_preserving_solve_stays_within_lp_objective(structure, draw):
    inst, delta = _bound_draw(structure, draw)
    for eps in (0.5, 1 / 3):
        res = solve_additive_dp(inst, delta, eps=eps,
                                params=RoundingParams(mode="cost-preserving",
                                                      seed=0))
        assert res.status == "ok"
        cost = vec_dot(inst.cost, res.witness.vector)
        assert cost <= res.lp_objective + 1e-6, (eps, cost, res.lp_objective)


def test_pipeline_solution_is_in_reachable_set():
    # whatever comes out must be a vector the DP can actually produce
    for seed in (901, 905, 908):
        rng = random.Random(seed)
        inst = random_instance(rng, n_max=5, d_max=4, m_max=3)
        res = solve_additive_dp(inst, 3, params=RoundingParams(seed=0,
                                                               trials=2))
        if res.status != "ok":
            continue
        red = res.reduction
        assert vec_key(res.witness.vector) in pbtl_vector_set(red.pbtl)


def _result_bytes(res):
    """A solve's status, witness, labeling, detail, LP objective and
    diagnostics, as bytes."""
    return repr((res.status, res.witness, res.labeling, res.detail,
                 res.lp_objective,
                 res.diagnostics and res.diagnostics.to_json())).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.sampled_from(("cost-free",
                                                 "cost-preserving")),
       st.sampled_from((0.5, 1 / 3)))
def test_solve_properties(seed, mode, eps):
    """Over random instances: a seed gives the same bytes twice, every
    witness verifies (valid, reachable within the reduction's size bound,
    diagnostics as re-checked), and in cost-preserving mode the witness
    costs at most the LP objective."""
    rng = random.Random(seed)
    inst = random_instance(rng, n_max=5, d_max=4, m_max=3)
    delta = rng.randint(1, 6)
    params = RoundingParams(mode=mode, trials=3, seed=seed)
    res = solve_additive_dp(inst, delta, eps=eps, params=params)
    again = solve_additive_dp(inst, delta, eps=eps, params=params)
    assert _result_bytes(res) == _result_bytes(again)
    if res.status != "ok":
        return
    w = res.witness
    assert w.root.problem_id == inst.root
    assert evaluate_witness(inst, w.root) == w.vector
    assert witness_size(w.root) == w.size
    reachable = oracle.enumerate_solutions(inst, res.reduction.delta2,
                                           metric="normalized")
    assert vec_key(w.vector) in set(reachable.root_vectors(inst))
    assert res.diagnostics.max_violation == check_packing(inst, w.vector)[1]
    if mode == "cost-preserving":
        assert vec_dot(inst.cost, w.vector) <= res.lp_objective + 1e-6


# δ bounds the solution size in the paper, but the reduction sizes its
# labels by δ2 (up to 4δ), so witnesses of these draws exceed δ
@pytest.mark.xfail(strict=True, reason="witnesses can have up to 4δ nodes")
@pytest.mark.parametrize("seed", [5, 9, 25])
def test_witness_has_at_most_delta_nodes(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, n_max=5, d_max=4, m_max=3)
    delta = rng.randint(1, 6)
    res = solve_additive_dp(inst, delta, eps=0.5,
                            params=RoundingParams(mode="cost-free", trials=3,
                                                  seed=seed))
    assert res.status == "ok"
    assert res.witness.size <= delta, (delta, res.witness.size)


@pytest.mark.parametrize("name", sorted(LP_CASES))
def test_memoized_completion_matches_reference(name):
    """Below every label at the depth of its height, ``fill_canonical``
    writes what the stack walk writes, in its order, after what the
    assignment already holds; the second pass reads the memo.  A dummy
    writes nothing, and a label without a triple is a dead end in both."""
    coll, pb = LP_CASES[name]()
    triples = lp.ProductiveTriples(pb)
    cases = [(pb.H - lab[0], lab) for lab in pb.labels]
    cases += [(d, lab) for d in range(pb.H + 1)
              for lab in ((pb.H - d, BOT), "not a label")]
    written = 0
    for _ in range(2):
        for depth, label in cases:
            index = (1 << depth) - 1
            got, want = {(0, 0): "x"}, {(0, 0): "x"}
            try:
                reference_fill_canonical(pb, triples, want, depth, index,
                                         label)
            except DeadEnd:
                with pytest.raises(DeadEnd):
                    fill_canonical(pb, triples, got, depth, index, label)
                continue
            fill_canonical(pb, triples, got, depth, index, label)
            assert list(got.items()) == list(want.items()), (depth, label)
            written += len(want) > 2
    # structure 0's root is unproductive at height 2
    assert written or name == "random0-h2"


def test_layer_states_hold_plain_floats():
    inst = random_instance(random.Random(20), n_max=8, d_max=6, m_max=3)
    res = solve_additive_dp(inst, instance_phi(inst),
                            params=RoundingParams(mode="cost-preserving",
                                                  seed=0))
    assert res.detail["layers"]
    for st in res.detail["layers"]:
        values = [st.cost_before, st.cost_after, *st.pack_before]
        assert all(type(v) is float for v in values), st


def test_solve_decomposes_each_certificate_once(monkeypatch):
    """The boost trials of one cost-preserving solve share decompositions
    and one table of productive triples, and give what a fresh
    certificate source per trial gives."""
    inst = random_instance(random.Random(20), n_max=8, d_max=6, m_max=3)
    params = RoundingParams(mode="cost-preserving", seed=3)
    decomposed, tables = [], []

    def counting_decompose(cert, *args, **kw):
        decomposed.append(cert.key)
        return decompose_chi(cert, *args, **kw)

    class CountingTriples(lp.ProductiveTriples):
        def __init__(self, pbtl):
            tables.append(pbtl)
            super().__init__(pbtl)

    decompose_chi = rounding.decompose_chi
    monkeypatch.setattr(rounding, "decompose_chi", counting_decompose)
    monkeypatch.setattr(lp, "ProductiveTriples", CountingTriples)
    shared = solve_additive_dp(inst, instance_phi(inst), params=params)
    assert shared.status == "ok" and shared.diagnostics.trials_run > 1
    assert len(decomposed) == len(set(decomposed)) > 0
    assert len(tables) == 1

    round_with_cost = rounding.round_with_cost

    def fresh_cache(source, *args):
        return round_with_cost(lp.compact_to_recursive(source.sol), *args)

    monkeypatch.setattr(rounding, "round_with_cost", fresh_cache)
    fresh = solve_additive_dp(inst, instance_phi(inst), params=params)
    assert fresh.witness == shared.witness
    assert fresh.diagnostics == shared.diagnostics
    assert fresh.detail == shared.detail


@pytest.mark.parametrize("mode", ["cost-free", "cost-preserving"])
def test_no_certificate_is_built_inside_boost(monkeypatch, mode):
    """Every certificate of a solve is snapped before rounding starts: the
    boost trials make no ``_snap_phi`` call."""
    calls, inside = [], []
    snap, boost = lp._snap_phi, rounding.boost

    def counting_snap(*args):
        calls.append(bool(inside))
        return snap(*args)

    def marked_boost(*args):
        inside.append(True)
        try:
            return boost(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(lp, "_snap_phi", counting_snap)
    monkeypatch.setattr(rounding, "boost", marked_boost)
    inst, delta = path_dp(layered_dag(4, 5), "s", "t")
    res = solve_additive_dp(inst, delta, params=RoundingParams(mode=mode))
    assert res.status == "ok"
    assert calls and not any(calls)


def _solve_digest(res):
    """sha256 of a solve's witness, labeling assignment, detail and LP
    objective; the assignment is sorted, so its write order is free."""
    return hashlib.sha256(repr((
        res.witness, sorted(res.labeling.assignment.items()), res.detail,
        res.lp_objective)).encode()).hexdigest()


SOLVE_CASES = {
    "dag4x5": lambda: path_dp(layered_dag(4, 5), "s", "t"),
    "random20": lambda: (lambda inst: (inst, instance_phi(inst)))(
        random_instance(random.Random(20), n_max=8, d_max=6, m_max=3)),
}

# digests of fixed-seed solves (seed 5, default trials)
SOLVE_DIGESTS = {
    ("dag4x5", "cost-free"):
        "e05bda490217c9a81cfdd5d2029f9b33ea2ee54ed753a960b8d1a26efc3851d6",
    ("dag4x5", "cost-preserving"):
        "c9df8b566221610d705c6c24e0ae0c81fde1df0b2b4d7a9eff6e15bbc3c7301f",
    ("random20", "cost-free"):
        "e1c4d01ee8eacbb8c4db212f440eae675fc4b05a1102977c6a1afc81bbf0bba4",
    ("random20", "cost-preserving"):
        "7f2d15e1512335cb7ca5fe9c8089f85424ea97b4df54c04531a6516b715814ef",
}


@pytest.mark.parametrize("case,mode", sorted(SOLVE_DIGESTS))
def test_solve_is_unchanged(case, mode):
    """A fixed-seed solve gives the recorded witness, labeling, per-trial
    detail and LP objective."""
    inst, delta = SOLVE_CASES[case]()
    res = solve_additive_dp(inst, delta,
                            params=RoundingParams(mode=mode, seed=5))
    assert res.status == "ok"
    assert _solve_digest(res) == SOLVE_DIGESTS[(case, mode)]

import hashlib
import io
import math
import os
import random
import stat
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse

from treepack import oracle
from treepack.apps.paths import path_dp
from treepack.core import (check_packing, instance_phi, preprocess_instance,
                           vec_dot, vec_from_key)
from treepack.lp import (CollapsedTree, LpModel, build_compact_lp,
                         build_convex_hull_system, build_state_lp, dump_lp,
                         highs_arrays, normalize_epsilon, null_table,
                         productive_table, solve_lp)
from treepack.reduce import BOT, PbtlInstance, fast_height, reduce_chain

from conftest import layered_dag, random_instance


def one_label_pbtl():
    """One label, one triple, H=2: exactly one labeling (all a's, vector 4)."""
    return PbtlInstance(H=2, labels=["a"], root="a", vectors={"a": {0: 1}},
                        triples=[("a", "a", "a")], packing=[{0: 0.25}],
                        cost=[1.0], d=1, m=1)


def test_seven_vertex_paths_and_objective():
    pb = one_label_pbtl()
    pb2, eps2, coll, unpad = normalize_epsilon(pb, 0.5)
    assert pb2 is pb and coll.step == 1 and coll.layers == 2
    sol = build_compact_lp(coll, pb2, with_cost=True)
    assert len(sol.paths) == 7  # root + 2 children + 4 grandchildren
    res = solve_lp(sol.model, "highs")
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0, abs=1e-8)


def test_highs_and_exact_agree():
    pb = one_label_pbtl()
    _, _, coll, _ = normalize_epsilon(pb, 0.5)
    sol = build_compact_lp(coll, pb, with_cost=True)
    r1 = solve_lp(sol.model, "highs")
    r2 = solve_lp(sol.model, "exact")
    assert r1.objective == pytest.approx(4.0, abs=1e-8)
    assert r2.objective == Fraction(4)


def test_simplex_handles_infeasible_and_unbounded():
    m = LpModel()
    a = m.add_var(obj=1.0)
    m.add_row([a], [1.0], "<=", -1.0)
    assert solve_lp(m, "exact").status == "infeasible"
    m2 = LpModel()
    b = m2.add_var(obj=-1.0)
    m2.add_row([b], [0.0], "<=", 1.0)
    assert solve_lp(m2, "exact").status == "unbounded"


def test_dump_lp_and_external_solver(tmp_path):
    m = LpModel()
    a = m.add_var(obj=1.0)
    b = m.add_var(obj=0.0)
    m.add_row([a, b], [1.0, 1.0], "==", 1.0)
    buf = io.StringIO()
    dump_lp(m, buf)
    text = buf.getvalue()
    assert "Minimize" in text and "x0" in text and "= 1" in text

    script = tmp_path / "fake_solver"
    script.write_text("#!/bin/sh\n"
                      "echo status optimal\n"
                      "echo objective 0\n"
                      "echo x0 0\n"
                      "echo x1 1\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    res = solve_lp(m, "external:%s" % script)
    assert res.status == "optimal"
    assert res.x == [0.0, 1.0]


def test_productive_and_null_tables():
    pb = one_label_pbtl()
    prod = productive_table(pb)
    assert "a" in prod[0] and "a" in prod[2]
    null = null_table(pb)
    assert "a" not in null[2]  # its only vector is nonzero


def test_normalize_epsilon_pads_to_multiple():
    pb = one_label_pbtl()  # H=2
    pb2, eps2, coll, unpad = normalize_epsilon(pb, 1.0 / 3)
    assert eps2 == Fraction(1, 3)
    assert coll.H == 3 and coll.step == 1
    # the padded instance still has exactly the original vector set
    vecs = oracle.pbtl_vector_set(pb2)
    assert vecs == oracle.pbtl_vector_set(pb)


def test_hull_block_structure():
    pb = one_label_pbtl()
    _, _, coll, _ = normalize_epsilon(pb, 0.5)
    blk = build_convex_hull_system(coll, pb, "a", pb.H)
    assert blk.feasible
    assert sum(1 for _ in blk.root_keys) >= 1
    # child expressions cover both slots
    assert {s for (s, _) in blk.child_exprs} == {0, 1}


@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_leaf_that_overfills_a_row_gets_no_mass(eps):
    """Leaf a alone fills row 0 twice over.  The root row would allow half
    the mass on it, but a's own row allows none, in both LPs."""
    pb = PbtlInstance(H=1, labels=["r", "a", "b", "n"], root="r",
                      vectors={"a": {0: 2}, "b": {1: 1}},
                      triples=[("r", "a", "n"), ("r", "b", "n")],
                      packing=[{0: 1.0}], cost=[-1.0, 0.0], d=2, m=1)
    pb2, _, coll, _ = normalize_epsilon(pb, eps)
    for build in (build_state_lp, build_compact_lp):
        res = solve_lp(build(coll, pb2).model, "highs")
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)


def _integer_optimum(inst, red):
    best = None
    for vk in oracle.pbtl_vector_set(red.pbtl):
        x = vec_from_key(vk)
        _, worst = check_packing(inst, x)
        if worst <= 1 + 1e-9:
            c = vec_dot(inst.cost, x)
            best = c if best is None else min(best, c)
    return best


@pytest.mark.parametrize("seed", range(10))
def test_compact_lp_lower_bounds_integer_optimum(seed):
    rng = random.Random(500 + seed)
    inst = random_instance(rng, n_max=5, d_max=4, m_max=3)
    delta = rng.randint(1, 4)
    red = reduce_chain(inst, delta, height_fn=fast_height)
    pb2, _, coll, _ = normalize_epsilon(red.pbtl, Fraction(1, red.pbtl.H))
    sol = build_compact_lp(coll, pb2, with_cost=True)
    res = solve_lp(sol.model, "highs")
    sols = build_state_lp(coll, pb2, with_cost=True)
    ress = solve_lp(sols.model, "highs")
    best = _integer_optimum(inst, red)
    if best is None:
        assert res.status == "infeasible"
        assert ress.status == "infeasible"
    else:
        assert res.status == "optimal" and ress.status == "optimal"
        assert res.objective <= best + 1e-6
        # merging same-labeled siblings is exact
        assert abs(ress.objective - res.objective) <= 1e-9


def _pipeline_pbtl(inst, delta, height=None, eps=0.5):
    """The padded PBTL and super-layers solve_additive_dp relaxes at
    ``eps`` (or at a forced height)."""
    inst2, _ = preprocess_instance(inst)
    k = math.ceil(1 / eps)
    hfn = (lambda d2: height) if height else \
        (lambda d2: k * math.ceil(fast_height(d2) / k))
    red = reduce_chain(inst2, delta, height_fn=hfn)
    pb, _, coll, _ = normalize_epsilon(red.pbtl, eps)
    return coll, pb


def _model_digest(sol):
    m = sol.model
    return hashlib.sha256(
        repr((m.meta, m.rows, m.objective)).encode()).hexdigest()


def _random_case(structure, height=None, eps=0.5):
    inst = random_instance(random.Random(structure), n_max=6, d_max=6,
                           m_max=3)
    return _pipeline_pbtl(inst, instance_phi(inst), height, eps)


def _dag_case(width, layers):
    return _pipeline_pbtl(*path_dp(layered_dag(width, layers), "s", "t"))


# The DAGs and random structure 20 exercise every row kind but the
# label-path LP's overfilled-leaf row, structure 21's root is a null
# (zero-vector) subtree, and at height 2 structure 0's root is
# unproductive.  The paths LP of the 4x5 DAG has 918k variables, so the
# paths shape runs on 3x4.
LP_CASES = {
    "dag4x5": lambda: _dag_case(4, 5),
    "dag3x4": lambda: _dag_case(3, 4),
    "random20": lambda: _random_case(20),
    "random21": lambda: _random_case(21),
    "random0-h2": lambda: _random_case(0, height=2),
}

# sha256 of repr((meta, rows, objective)) of each emitted model
LP_DIGESTS = {
    ("dag4x5", "states"):
        "2a2ee61a0aec7c23a8cdd2e771ace8fe32b7cb33ef5d17c287d7d1c4e92acd5b",
    ("dag3x4", "paths"):
        "a153ee5bc69bd202a4ad3633185973da4df05abc331f7350f0b695fadb9146d4",
    ("random20", "states"):
        "3e65ac05677220a873ec278602e51268f4daeadeb30b6af8bf6352565e26e201",
    ("random20", "paths"):
        "e28c2ad3d17e6bb29f445a640ace33b06bca3019021bbf5bd094ae4321f562f6",
    ("random21", "states"):
        "8c56f0b4b031265deb718302593d88cb8b0722ee3090ca1faa8d95d57da27beb",
    ("random21", "paths"):
        "88138868a66555aa131d28386829d8954e653ab77804c663999fe493c16df4f6",
    ("random0-h2", "states"):
        "a5a1b0475032ad4c57ef15a1e80a01a7d5fd8948d39af66d5b0925b149f1af89",
    ("random0-h2", "paths"):
        "daf019a564f0b484c7a59e9546e363625be672b050ba67b6bfae54253cab4291",
}


@pytest.mark.parametrize("case,shape", sorted(LP_DIGESTS))
def test_emitted_lp_is_unchanged(case, shape):
    """Both LP shapes emit exactly the recorded models, rows in order."""
    coll, pb = LP_CASES[case]()
    build = build_state_lp if shape == "states" else build_compact_lp
    assert _model_digest(build(coll, pb)) == LP_DIGESTS[(case, shape)]


# (rows, nonzeros) of each emitted model
LP_SIZES = {
    ("dag4x5", "states"): (24326, 63094),
    ("dag3x4", "paths"): (102597, 220641),
    ("random20", "states"): (1190, 2519),
    ("random20", "paths"): (7463, 15157),
    ("random21", "states"): (1, 1),
    ("random21", "paths"): (1, 1),
    ("random0-h2", "states"): (2, 2),
    ("random0-h2", "paths"): (8, 15),
}


def _reference_highs_arrays(model):
    """The HiGHS input packed row by row from ``model.rows``: rows split by
    sense in model order, one COO entry per coefficient, then CSR."""
    rows_eq, rows_ub = [], []
    for coefs, sense, rhs in model.rows:
        (rows_eq if sense == "==" else rows_ub).append((coefs, rhs))

    def pack(rows):
        data, ri, ci, b = [], [], [], []
        for r, (coefs, rhs) in enumerate(rows):
            for v, c in coefs.items():
                data.append(float(c))
                ri.append(r)
                ci.append(v)
            b.append(float(rhs))
        mat = scipy.sparse.coo_matrix((data, (ri, ci)),
                                      shape=(len(rows), model.n))
        return mat.tocsr(), np.array(b)

    c = np.zeros(model.n)
    for v, coef in model.objective.items():
        c[v] = float(coef)
    kw = {}
    if rows_eq:
        kw["A_eq"], kw["b_eq"] = pack(rows_eq)
    if rows_ub:
        kw["A_ub"], kw["b_ub"] = pack(rows_ub)
    return c, kw


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case,shape", sorted(LP_DIGESTS))
def test_packer_matches_row_by_row_reference(case, shape):
    """HiGHS gets the same CSR arrays and right-hand sides as when rows were
    packed one coefficient at a time, and the rows keep their sizes."""
    coll, pb = LP_CASES[case]()
    build = build_state_lp if shape == "states" else build_compact_lp
    model = build(coll, pb).model
    assert (len(model.rows),
            sum(len(c) for c, _, _ in model.rows)) == LP_SIZES[(case, shape)]
    c, kw = highs_arrays(model)
    ref_c, ref_kw = _reference_highs_arrays(model)
    assert _same_array(c, ref_c)
    assert sorted(kw) == sorted(ref_kw)
    for name in ("eq", "ub"):
        if "A_" + name not in kw:
            continue
        got, ref = kw["A_" + name], ref_kw["A_" + name]
        assert got.shape == ref.shape
        for part in ("data", "indices", "indptr"):
            assert _same_array(getattr(got, part), getattr(ref, part)), part
        assert _same_array(kw["b_" + name], ref_kw["b_" + name])


def _reference_productive_table(pbtl):
    byp = pbtl.triples_by_parent()
    prod = [set(pbtl.labels)]
    for r in range(1, pbtl.H + 1):
        prod.append({l for l in pbtl.labels
                     if any(t[1] in prod[r - 1] and t[2] in prod[r - 1]
                            for t in byp.get(l, ()))})
    return prod


def _reference_hull_block(collapsed, pbtl, ell, rem, prod):
    """The hull block as the dict-based builder made it: keys (local,
    triple), each (local, label)'s triples filtered by the set-based
    productive table ``prod`` and sorted by repr, each local's labels by
    repr."""
    byp = pbtl.triples_by_parent()
    rank = {l: i for i, l in enumerate(sorted(pbtl.labels, key=repr))}

    def triples(r, label):
        return sorted((t for t in byp.get(label, ())
                       if t[1] in prod[r - 1] and t[2] in prod[r - 1]),
                      key=repr)

    g = collapsed.step
    B = 1 << g
    keys, tri_at, cons_pos, child_pos = [], {}, [], {}
    labels_at = {1: [ell]}
    span, inflow = {}, {}
    for u in range(1, B):
        r = rem - (u.bit_length() - 1)
        tri = tri_at[u] = {}
        kids = ({}, {})
        for L in labels_at.get(u, ()):
            ts = tri[L] = triples(r, L)
            span[(u, L)] = range(len(keys), len(keys) + len(ts))
            for j, t in enumerate(ts, len(keys)):
                kids[0].setdefault(t[1], []).append(j)
                kids[1].setdefault(t[2], []).append(j)
            keys.extend([(u, t) for t in ts])
        for side in (0, 1):
            v = 2 * u + side
            labels_at[v] = sorted(kids[side], key=rank.__getitem__)
            for L, pos in kids[side].items():
                inflow[(v, L)] = pos
    root_keys = keys[:len(tri_at[1][ell])]
    if root_keys:
        for u in range(2, B):
            for L in labels_at.get(u, ()):
                cons_pos.append((span[(u, L)], inflow[(u, L)]))
        for v in range(B, 2 * B):
            for L in labels_at.get(v, ()):
                child_pos[(v - B, L)] = inflow[(v, L)]
    merged = {}     # child label -> {position: multiplicity}, first seen
    for (_, L), pos in child_pos.items():
        dst = merged.setdefault(L, {})
        for j in pos:
            dst[j] = dst.get(j, 0) + 1
    return {"phi_keys": keys, "root_keys": root_keys, "tri_at": tri_at,
            "cons_rows": [([keys[j] for j in o], [keys[j] for j in i])
                          for o, i in cons_pos],
            "child_exprs": {sl: [keys[j] for j in pos]
                            for sl, pos in child_pos.items()},
            "inflow": [(L, list(merged[L]), list(merged[L].values()))
                       for L in sorted(merged, key=rank.__getitem__)],
            "feasible": bool(root_keys)}


def _hull_cases():
    cases = [pytest.param(name, make, id=name)
             for name, make in sorted(LP_CASES.items())]
    for structure in range(37):
        for k in (2, 3):
            cases.append(pytest.param(
                "random%d" % structure,
                lambda s=structure, e=1 / k: _random_case(s, eps=e),
                id="random%d-eps1/%d" % (structure, k)))
    return cases


@pytest.mark.parametrize("name,make", _hull_cases())
def test_hull_blocks_match_dict_reference(name, make):
    """Every block the label-path LP builds, and the root's block, shows
    the keys, rows, child masses, per-local triples and per-label merged
    inflow of the dict-based builder, and the productive table is the
    set-based one."""
    coll, pb = make()
    prod = _reference_productive_table(pb)
    assert productive_table(pb) == prod
    sol = build_state_lp(coll, pb)
    blocks = {(b.rem, b.ell): b for b in
              (rec.block for rec in sol.records.values()) if b is not None}
    root = build_convex_hull_system(coll, pb, pb.root, pb.H, sol.triples)
    blocks[(pb.H, pb.root)] = root
    if name == "random0-h2":
        assert not root.feasible
    for (rem, ell), blk in blocks.items():
        ref = _reference_hull_block(coll, pb, ell, rem, prod)
        assert blk.feasible == ref["feasible"]
        for view in ("phi_keys", "root_keys", "cons_rows", "child_exprs",
                     "tri_at"):
            assert getattr(blk, view) == ref[view], (rem, ell, view)
        assert [(L, pos.tolist(), n) for L, pos, n in blk.inflow] == \
            ref["inflow"], (rem, ell)

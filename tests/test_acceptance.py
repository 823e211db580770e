"""End-to-end acceptance checks, one test per criterion.

These are slower than the unit tests: they sweep hundreds of random
instances against the brute-force oracles and repeat the randomized
stages enough times for the statistical claims to bind.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from treepack import apps, oracle
from treepack.apps import (BipartiteGraph, DirectedGraph, Edge,
                           check_naive_lp, gap_instance, perfect_matchings)
from treepack.apps.flows import check_conservation, flow_dp
from treepack.apps.paths import path_dp
from treepack.core import (check_packing, instance_phi, preprocess_instance,
                           vec_add, vec_dot)
from treepack.decomp import Sampler, decompose_chi
from treepack.lp import (attach_solution, build_state_lp,
                         compact_to_recursive, normalize_epsilon, solve_lp)
from treepack.reduce import (PbtlInstance, fast_height, layered_height,
                             reduce_chain)
from treepack.rounding import (RoundingParams, round_with_cost,
                               round_without_cost, violation_bound)

from conftest import layered_dag, random_instance
from reference_lp import build_compact_lp, child_masses, cons_rows, keyed_phi
from reference_oracle import assert_matches_dense
from reference_rounding import semi_random_round


# ---------------------------------------------------------------------------
# shared random-instance sweep (criteria 1 and 2 use the same 200 draws)

N_SWEEP = 200
_sweep_cache = None


def sweep():
    global _sweep_cache
    if _sweep_cache is None:
        out = []
        for seed in range(N_SWEEP):
            rng = random.Random(1000 + seed)
            inst = random_instance(rng, n_max=6, d_max=6, m_max=4)
            delta = rng.randint(1, 8)
            out.append((inst, delta))
        _sweep_cache = out
    return _sweep_cache


def test_criterion_01_reduction_equivalence():
    t0 = time.monotonic()
    for inst, delta in sweep():
        red = reduce_chain(inst, delta, height_fn=fast_height)
        vecs = oracle.pbtl_vector_set(red.pbtl)
        tab = oracle.enumerate_solutions(inst, red.delta2,
                                         metric="normalized")
        assert not tab.truncated
        assert vecs == set(tab.root_vectors(inst))
    assert time.monotonic() - t0 < 300


# --- criterion 2: inject every enumerable labeling into the label-path LP --


def _model_matrices(model):
    data, ri, ci = [], [], []
    rhs = np.zeros(len(model.rows))
    iseq = np.zeros(len(model.rows), dtype=bool)
    for r, (coefs, s, b) in enumerate(model.rows):
        for v, c in coefs.items():
            ri.append(r)
            ci.append(v)
            data.append(float(c))
        rhs[r] = b
        iseq[r] = s == "=="
    A = sparse.csr_matrix((data, (ri, ci)),
                          shape=(len(model.rows), model.n))
    return A, rhs, iseq


def _inject_labeling(sol, labeling):
    """Variable assignment induced by one full labeling: each label-path
    record gets, summed over the super-vertices its path realizes, psi = 1,
    X = their subtree vectors and phi = their chosen triples, per (depth,
    triple).  Zero-vector subtrees have no record.  Subtree vectors are
    summed bottom-up over the assigned vertices; a dummy subtree's is
    empty."""
    pbtl, coll = sol.pbtl, sol.collapsed
    g, B = coll.step, coll.arity
    sub = {}
    for depth, i in sorted(labeling.assignment, reverse=True):
        if depth == pbtl.H:
            sub[(depth, i)] = dict(pbtl.vector(labeling.label_at(depth, i)))
        else:
            sub[(depth, i)] = vec_add(sub.get((depth + 1, 2 * i), {}),
                                      sub.get((depth + 1, 2 * i + 1), {}))
    vals = np.zeros(sol.model.n)
    stack = [((pbtl.root,), 0)]
    while stack:
        path, pos = stack.pop()
        rec = sol.records.get(path)
        if rec is None:
            continue
        vals[rec.psi] += 1.0
        if rec.null:
            continue
        depth0 = rec.layer * g
        inner = rec.layer + 1 < coll.layers
        if inner:
            for i, v in sub.get((depth0, pos), {}).items():
                (var,) = rec.x[i]
                vals[var] += float(v)
        phi = rec.phi           # built on each read
        for u in range(1, B):
            lev = u.bit_length() - 1
            dp = depth0 + lev
            idx = pos * (1 << lev) + (u - (1 << lev))
            t = (labeling.label_at(dp, idx),
                 labeling.label_at(dp + 1, 2 * idx),
                 labeling.label_at(dp + 1, 2 * idx + 1))
            # merged phi: the number of depth-lev locals that choose t
            vals[phi[(lev, t)]] += 1.0
        if not inner:
            continue
        for slot in range(B):
            lab = labeling.label_at(depth0 + g, pos * B + slot)
            stack.append((path + (lab,), pos * B + slot))
    return vals


# enumeration cap: instances whose tree admits more labelings than this
# are skipped for the injection half (still checked for the lower bound);
# the coverage floor below keeps the skip honest
ENUM_CAP = 300


def test_criterion_02_labeling_enumeration_matches_dense_walk():
    """On every criterion-2 instance under the cap, the sparse enumeration
    lists the dense walk's labelings, in its order, dummies left out."""
    checked = 0
    for inst, delta in sweep():
        pb = reduce_chain(inst, delta, height_fn=fast_height).pbtl
        if oracle.count_labelings(pb) <= ENUM_CAP:
            assert_matches_dense(pb, ENUM_CAP)
            checked += 1
    assert checked >= 150


def test_criterion_02_relaxation_validity_and_lower_bound():
    injected_instances = injected_labelings = compared = matched = 0
    for inst, delta in sweep():
        red = reduce_chain(inst, delta, height_fn=fast_height)
        pb = red.pbtl
        coll = normalize_epsilon(pb, 0.5)
        sol = build_state_lp(coll, pb)
        res = solve_lp(sol.model)
        # the vertex LP is the reference: both have the same optimum
        ref = solve_lp(build_compact_lp(coll, pb).model)
        assert res.status == ref.status
        if res.status == "optimal":
            assert abs(res.objective - ref.objective) <= 1e-9
            matched += 1
        try:
            w, opt, _ = oracle.solve_exact(inst, delta)
        except RuntimeError:
            w = None
        if w is not None:
            assert res.status == "optimal"
            assert res.objective <= opt + 1e-6
            compared += 1
        if oracle.count_labelings(pb) > ENUM_CAP:
            continue
        A, rhs, iseq = _model_matrices(sol.model)
        used = 0
        for lab in oracle.enumerate_labelings(pb, count_cap=ENUM_CAP):
            _, worst = check_packing(inst, lab.vector)
            if worst > 1 + 1e-9:
                continue
            vals = _inject_labeling(sol, lab)
            r = A @ vals - rhs
            resid = max(np.abs(r[iseq]).max(initial=0.0),
                        r[~iseq].max(initial=0.0), 0.0)
            assert resid <= 1e-7
            assert res.status == "optimal"
            assert res.objective <= vec_dot(inst.cost, lab.vector) + 1e-6
            used += 1
        injected_labelings += used
        injected_instances += 1
    assert compared >= 50
    assert matched >= 100
    assert injected_instances >= 150
    assert injected_labelings >= 200


# --- criterion 3: hull decomposition exactness ------------------------------


def _harvest_certificates(n_wanted):
    certs = []
    seed = 0
    while len(certs) < n_wanted and seed < 400:
        rng = random.Random(3000 + seed)
        seed += 1
        inst = random_instance(rng, n_max=5, d_max=5, m_max=3)
        red = reduce_chain(inst, rng.randint(1, 4), height_fn=fast_height)
        pb = red.pbtl
        coll = normalize_epsilon(pb, 0.5)
        sol = build_state_lp(coll, pb)
        res = solve_lp(sol.model)
        if res.status != "optimal":
            continue
        attach_solution(sol, res)
        src = compact_to_recursive(sol)
        queue, seen = [src.root()], set()
        while queue and len(certs) < n_wanted:
            c = queue.pop(0)
            if c is None or c.key in seen:
                continue
            seen.add(c.key)
            certs.append((c, pb))
            if len(c.key) < coll.layers:        # not the leaf layer
                for lab in child_masses(c):
                    queue.append(src.child(c, lab))
    return certs


def test_criterion_03_hull_exactness():
    certs = _harvest_certificates(100)
    assert len(certs) == 100
    for cert, _ in certs:
        # a term counts once per inner local of depth d that takes t
        terms = decompose_chi(cert, exact=True)
        acc = {}
        for lam, leaves, chosen in terms:
            for u, t in chosen.items():
                k = (u.bit_length() - 1, t)
                acc[k] = acc.get(k, Fraction(0)) + Fraction(lam)
        for k, v in keyed_phi(cert).items():
            assert acc.get(k, Fraction(0)) == Fraction(v)  # error exactly 0
        terms = decompose_chi(cert)
        chir = {}
        for lam, leaves, chosen in terms:
            for lab in leaves:
                chir[lab] = chir.get(lab, 0.0) + lam
        for k, v in child_masses(cert).items():
            assert abs(chir.get(k, 0.0) - v) <= 1e-9
        assert len(terms) <= np.count_nonzero(cert.phi)


# --- criterion 4: sampling marginals ----------------------------------------


def test_criterion_04_sampling_marginals():
    # two triples with a packing/cost tension that pins phi at 1/2 each
    pb = PbtlInstance(H=1, labels=["r", "a", "b"], root="r",
                      vectors={"a": {0: 1}, "b": {1: 1}},
                      triples=[("r", "a", "a"), ("r", "b", "b")],
                      packing=[{0: 1.0}], cost=[0.0, 1.0], d=2, m=1)
    coll = normalize_epsilon(pb, 1.0)
    sol = build_state_lp(coll, pb)
    res = solve_lp(sol.model)
    assert res.status == "optimal"
    attach_solution(sol, res)
    cert = compact_to_recursive(sol).root()
    smp = Sampler(cert)
    rng = np.random.default_rng(4)
    n = 10 ** 4
    counts = {}
    for _ in range(n):
        leaves, _ = smp.spell_out(smp.draw(rng)[1])
        for lab in leaves:
            counts[lab] = counts.get(lab, 0) + 1
    # the mass into L is the expected number of child slots labeled L; the
    # share of slots labeled L in one draw lies in [0, 1] with mean p, so
    # its variance is at most p (1 - p)
    for key, mass in child_masses(cert).items():
        p = mass / coll.arity
        got = counts.get(key, 0) / (n * coll.arity)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(got - p) <= 4 * max(sigma, 1e-4)


# --- criterion 5: grid rounding exactness -----------------------------------


def test_criterion_05_grid_rounding_exactness():
    rng0 = random.Random(5)
    for run in range(10 ** 4):
        n = rng0.randint(2, 10)
        groups, lam, i = [], [], 0
        while i < n:
            g = list(range(i, min(n, i + rng0.randint(1, 4))))
            w = [rng0.random() + 1e-9 for _ in g]
            s = sum(w)
            lam.extend(x / s for x in w)
            groups.append(g)
            i = g[-1] + 1
        cost = [rng0.uniform(-2, 2) for _ in range(n)]
        mu = semi_random_round(lam, groups, 12, cost,
                               np.random.default_rng(run))
        assert all(m in (0, 1) for m in mu)
        for g in groups:
            assert sum(mu[i] for i in g) == 1
        assert sum(m * c for m, c in zip(mu, cost)) <= \
            sum(l * c for l, c in zip(lam, cost)) + 1e-7


def _grid_case_dag():
    return path_dp(layered_dag(4, 5), "s", "t")


def _grid_case_dp():
    # the reduce-prune benchmark's DP structure 2; its raw packing rows
    # admit no solution, so they are halved
    inst = random_instance(random.Random(2), n_max=8, d_max=6, m_max=3)
    inst.packing = [{i: a / 2 for i, a in row.items()}
                    for row in inst.packing]
    return inst, instance_phi(inst)


@pytest.mark.parametrize("make,step", [(_grid_case_dag, 8),
                                       (_grid_case_dp, 10)],
                         ids=["step8", "step10"])
def test_criterion_05_merged_phi_grid_is_exact(make, step):
    """Certificates at the benchmark steps snap phi onto a grid where every
    flow-row side and child mass sums exactly in floats: as the LP solves
    it, and with each phi value scaled by 1 + U[0, 1e-3), which uses every
    bit of the grid (the snap restores flow)."""
    inst, delta = make()
    inst2, _ = preprocess_instance(inst)
    red = reduce_chain(inst2, delta,
                       height_fn=lambda d2: layered_height(d2, eps=0.5))
    coll = normalize_epsilon(red.pbtl, 0.5)
    assert coll.step == step
    sol = build_state_lp(coll, red.pbtl)
    res = solve_lp(sol.model)
    assert res.status == "optimal"
    rng = np.random.default_rng(5)
    for noise in (0.0, 1e-3):
        x = np.array(res.x)
        for rec in sol.records.values():
            if rec.phi_first is not None:
                a, b = rec.phi_first, rec.phi_first + rec.block.n
                x[a:b] *= 1 + noise * rng.random(b - a)
        attach_solution(sol, res)
        sol.values = x.tolist()
        src = compact_to_recursive(sol)
        sums = 0
        for cert in src.certs.values():
            blk, phi = cert.block, keyed_phi(cert)
            keys = blk.phi_keys
            for outk, ink in cons_rows(blk):
                out = sum(phi.get(k, 0.0) for k in outk)
                assert out == sum(Fraction(phi.get(k, 0.0)) for k in outk)
                assert sum(phi.get(k, 0.0) for k in ink) == \
                    sum(Fraction(phi.get(k, 0.0)) for k in ink) == out
                sums += out > 8
            for L, pos, counts in blk.inflow:
                ks = [keys[j] for j in pos.tolist()]
                mass = sum(n * phi.get(k, 0.0) for n, k in zip(counts, ks))
                assert mass == sum(n * Fraction(phi.get(k, 0.0))
                                   for n, k in zip(counts, ks))
                sums += mass > 8
        assert sums > 10      # sums above 8 would round on a 2^-50 grid


# --- criterion 6: end-to-end cost preservation ------------------------------


def test_criterion_06_cost_preservation_end_to_end():
    runs_per_instance = 50
    done = 0
    seed = 0
    while done < 20 and seed < 120:
        rng = random.Random(6000 + seed)
        seed += 1
        inst = random_instance(rng, n_max=5, d_max=4, m_max=3)
        red = reduce_chain(inst, rng.randint(1, 3), height_fn=fast_height)
        pb = red.pbtl
        coll = normalize_epsilon(pb, 0.5)
        sol = build_state_lp(coll, pb)
        res = solve_lp(sol.model)
        if res.status != "optimal":
            continue
        attach_solution(sol, res)
        src = compact_to_recursive(sol)
        if src.root() is None:
            continue
        ss = np.random.SeedSequence(6000 + seed)
        for _ in range(runs_per_instance):
            rng2 = np.random.Generator(np.random.PCG64(ss.spawn(1)[0]))
            lab, _, _ = round_with_cost(src, coll, pb, rng2)
            assert vec_dot(inst.cost, lab.vector) <= res.objective + 1e-6
        done += 1
    assert done == 20      # 20 x 50 = 1000 runs, all cost-preserving


# --- criterion 8: violation regression on a fixed tree ----------------------


def test_criterion_08_violation_regression():
    t0 = time.monotonic()
    # 16 leaves, two leaf meanings spanning 4 coordinates each; the row
    # capacities (7 and 9) sit between the reachable even leaf counts, so
    # the optimum is genuinely fractional and the rounding has to gamble
    rows = [{i: 1.0 / 7} for i in range(4)] + \
           [{i: 1.0 / 9} for i in range(4, 8)]
    pb = PbtlInstance(H=4, labels=["r", "n", "a", "b"], root="r",
                      vectors={"a": {i: 1 for i in range(4)},
                               "b": {i: 1 for i in range(4, 8)}},
                      triples=[("r", "n", "n"), ("n", "n", "n"),
                               ("n", "a", "a"), ("n", "b", "b"),
                               ("a", "a", "a"), ("b", "b", "b")],
                      packing=rows, cost=[0.0] * 8, d=8, m=8)
    coll = normalize_epsilon(pb, 0.5)
    sol = build_state_lp(coll, pb)
    res = solve_lp(sol.model)
    assert res.status == "optimal"       # LP packing <= 1 is satisfiable
    attach_solution(sol, res)
    src = compact_to_recursive(sol)
    ss = np.random.SeedSequence(8)
    viols = []
    for _ in range(10 ** 3):
        rng = np.random.Generator(np.random.PCG64(ss.spawn(1)[0]))
        lab, _, _ = round_without_cost(src, coll, pb, rng)
        worst = max(sum(a * lab.vector.get(i, 0) for i, a in row.items())
                    for row in rows)
        viols.append(worst)
    viols.sort()
    p99 = viols[int(math.ceil(0.99 * len(viols))) - 1]
    assert p99 <= violation_bound(16, 0.5, 8)
    assert time.monotonic() - t0 < 600


# --- criterion 9: integrality gap family ------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_criterion_09_integrality_gap(k):
    bg, frac = gap_instance(k)
    assert all(isinstance(v, Fraction) for v in frac.values())
    assert check_naive_lp(bg, frac) == []
    matchings = perfect_matchings(bg)
    assert matchings
    for m in matchings:
        rows = [sum(bg.edges[j].lengths[jj] for j in m) for jj in range(k)]
        assert max(rows) == k


# --- criterion 10: adapters vs brute force ----------------------------------


def _p(seed, mode="cost-preserving"):
    return RoundingParams(mode=mode, trials=3, seed=seed)


def _cheapest_walk(g, s, t, max_edges):
    dist = {v: math.inf for v in g.vertices}
    dist[s] = 0.0
    best = 0.0 if s == t else math.inf
    for _ in range(max_edges):
        nd = dict(dist)
        for e in g.edges:
            nd[e.v] = min(nd[e.v], dist[e.u] + e.cost)
        dist = nd
        best = min(best, dist[t])
    return best


def _random_path_graph(rng):
    verts = ["s", "m", "n", "t"][:rng.randint(3, 4)]
    verts[-1] = "t"
    edges = [Edge(u, v, cost=round(rng.uniform(0.1, 2), 2))
             for u in verts for v in verts
             if u != v and v != "s" and u != "t" and rng.random() < 0.6]
    return DirectedGraph(verts, edges)


def _check_path_fixtures():
    for i in range(20):
        rng = random.Random(100 + i)
        g = _random_path_graph(rng)
        opt = _cheapest_walk(g, "s", "t", len(g.vertices))
        r = apps.robust_shortest_path(g, "s", "t", params=_p(i))
        if math.isinf(opt):
            assert r.status == "infeasible"
            continue
        assert r.status == "ok"
        at, cost = "s", 0.0
        for j in r.edges:
            assert g.edges[j].u == at
            at = g.edges[j].v
            cost += g.edges[j].cost
        assert at == "t"
        assert cost == pytest.approx(r.cost)
        assert abs(r.cost - opt) <= 1e-6      # beat-or-match, no slack rows


def _is_subseq(s, t):
    it = iter(t)
    return all(c in it for c in s)


def _lcs_opt(a, b, C):
    best = 0
    for mask in range(1 << len(a)):
        s = "".join(a[i] for i in range(len(a)) if mask >> i & 1)
        if _is_subseq(s, b) and all(s.count(c) <= C for c in set(s)):
            best = max(best, len(s))
    return best


def _check_lcs_fixtures():
    for i in range(20):
        rng = random.Random(200 + i)
        a = "".join(rng.choice("ab") for _ in range(rng.randint(2, 4)))
        b = "".join(rng.choice("ab") for _ in range(rng.randint(2, 4)))
        C = rng.randint(1, 2)
        opt = _lcs_opt(a, b, C)
        r = apps.bounded_rep_lcs(a, b, C, params=_p(i))
        assert r.length >= opt
        assert _is_subseq(r.subsequence, a) and _is_subseq(r.subsequence, b)


def _random_flow_graph(rng):
    verts = ["s", "a", "b"]
    edges = []
    for u, v in (("s", "a"), ("s", "b"), ("a", "b"), ("a", "s"), ("b", "a")):
        if rng.random() < 0.7:
            edges.append(Edge(u, v, cost=round(rng.uniform(0, 1), 2),
                              gain=rng.randint(0, 2), cap=rng.randint(1, 2)))
    return DirectedGraph(verts, edges)


def _check_flow_fixtures():
    done = 0
    i = 0
    while done < 20 and i < 200:
        rng = random.Random(300 + i)
        i += 1
        g = _random_flow_graph(rng)
        W = 4
        inst, delta = flow_dp(g, "s", 1, W)
        try:
            w, opt, _ = oracle.solve_exact(inst, delta)
        except RuntimeError:
            continue
        if w is None:
            continue
        r = apps.generalized_flow(g, "s", 1, W, params=_p(i))
        assert r.status == "ok"
        assert check_conservation(g, "s", 1, r.flow) == {}
        assert r.cost <= opt + 1e-6
        done += 1
    assert done == 20


def _arborescence_cover(g, r, terms, subset):
    reached = {r}
    indeg = {}
    frontier = True
    for j in subset:
        indeg[g.edges[j].v] = indeg.get(g.edges[j].v, 0) + 1
    if any(v > 1 for v in indeg.values()) or r in indeg:
        return None
    while frontier:
        frontier = False
        for j in subset:
            e = g.edges[j]
            if e.u in reached and e.v not in reached:
                reached.add(e.v)
                frontier = True
    if any(g.edges[j].u not in reached for j in subset):
        return None
    return len(set(terms) & reached)


def _steiner_opt(g, r, terms, B):
    best = len(set(terms) & {r})
    for n_pick in range(1, len(g.edges) + 1):
        for subset in itertools.combinations(range(len(g.edges)), n_pick):
            if sum(g.edges[j].cost for j in subset) > B + 1e-9:
                continue
            cov = _arborescence_cover(g, r, terms, subset)
            if cov is not None:
                best = max(best, cov)
    return best


def _check_steiner_fixtures():
    for i in range(20):
        rng = random.Random(400 + i)
        verts = ["r", "x", "y"]
        edges = [Edge(u, v, cost=round(rng.uniform(0.2, 1), 2))
                 for u in verts for v in verts
                 if u != v and v != "r" and rng.random() < 0.7]
        g = DirectedGraph(verts, edges)
        terms = rng.sample(["x", "y"], rng.randint(1, 2))
        B = round(rng.uniform(0.5, 2), 2)
        opt = _steiner_opt(g, "r", terms, B)
        r = apps.steiner_cover(g, "r", terms, B, params=_p(i))
        if opt >= 1:
            assert r.status == "ok"
            assert r.guessed >= opt
            assert r.cost <= B + 1e-9
            cov = _arborescence_cover(g, "r", terms, r.tree)
            assert cov is not None       # decodes to a real arborescence
            viol = max(r.diagnostics.max_violation, 1.0)
            assert r.covered >= r.guessed / viol - 1e-9
        elif r.status == "ok":
            assert r.cost <= B + 1e-9


def _orient_opt(g, s, t, B, levels):
    best = -1
    outs = g.out_edges()
    stack = [(s, 0.0, frozenset(), 0)]
    while stack:
        v, c, cols, k = stack.pop()
        if v == t:
            best = max(best, len(cols))
        if k == levels:
            continue
        for j in outs[v]:
            e = g.edges[j]
            if c + e.cost <= B + 1e-9:
                nc = cols | {e.color} if e.color is not None else cols
                stack.append((e.v, c + e.cost, nc, k + 1))
    return best


def _check_orienteering_fixtures():
    for i in range(20):
        rng = random.Random(500 + i)
        verts = ["s", "m", "t"]
        edges = [Edge(u, v, cost=round(rng.uniform(0.2, 1), 2),
                      color=rng.randint(1, 2))
                 for u in verts for v in verts
                 if u != v and v != "s" and u != "t" and rng.random() < 0.8]
        g = DirectedGraph(verts, edges)
        B = round(rng.uniform(0.5, 2.5), 2)
        levels = 3
        opt = _orient_opt(g, "s", "t", B, levels)
        r = apps.colorful_orienteering(g, "s", "t", B, levels=levels,
                                       params=_p(i))
        if opt >= 1:
            assert r.status == "ok"
            assert r.guessed >= opt
            assert r.cost <= B + 1e-9
            at = "s"
            for j in r.walk:
                assert g.edges[j].u == at
                at = g.edges[j].v
            assert at == "t"
            viol = max(r.diagnostics.max_violation, 1.0)
            assert r.colors >= r.guessed / viol - 1e-9


def _planted_matching(rng, n):
    left = ["u%d" % i for i in range(n)]
    right = ["v%d" % i for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [Edge(left[i], right[perm[i]], lengths=(0.0,))
             for i in range(n)]
    for i in range(n):
        for j in range(n):
            if j != perm[i] and rng.random() < 0.4:
                edges.append(Edge(left[i], right[j],
                                  lengths=(round(rng.random(), 2),)))
    return BipartiteGraph(left, right, edges)


def _check_matching_planted():
    sizes = [1] * 20 + [2] * 25 + [3] * 5
    for i, n in enumerate(sizes):
        rng = random.Random(600 + i)
        bg = _planted_matching(rng, n)
        r = apps.robust_perfect_matching(bg, params=_p(i))
        assert r.status == "ok"
        assert len(r.matching) == n
        assert {bg.edges[j].u for j in r.matching} == set(bg.left)
        assert {bg.edges[j].v for j in r.matching} == set(bg.right)


def test_criterion_10_adapter_correctness():
    _check_path_fixtures()
    _check_lcs_fixtures()
    _check_flow_fixtures()
    _check_steiner_fixtures()
    _check_orienteering_fixtures()
    _check_matching_planted()

import dataclasses
import hashlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.optimize._highspy import _core as _highs

from treepack import lp
from treepack.apps.paths import path_dp
from treepack.core import (check_packing, instance_phi, preprocess_instance,
                           vec_dot, vec_from_key)
from treepack.lp import (NULL_MASS, CollapsedTree, LpModel, LpResult,
                         ProductiveTriples, attach_solution,
                         build_hull_blocks, build_state_lp,
                         compact_to_recursive, dump_lp, highs_arrays,
                         normalize_epsilon, productive_table, solve_lp)
from treepack.decomp import decompose_chi
from treepack.reduce import (BOT, PbtlInstance, fast_height, layered_height,
                             reduce_chain)

from conftest import layered_dag, random_instance
from exact_lp import simplex
from reference_lp import (DictHull, TaggedLpModel, build_compact_lp,
                          child_masses, cons_rows, inflow, keyed_phi,
                          model_meta, record_phi, reference_productive_table,
                          reference_state_lp, reference_triple_ids,
                          reference_triple_table, root_keys)
from reference_oracle import pbtl_vector_set


def one_label_pbtl():
    """One label, one triple, H=2: exactly one labeling (all a's, vector 4)."""
    return PbtlInstance(H=2, labels=["a"], root="a", vectors={"a": {0: 1}},
                        triples=[("a", "a", "a")], packing=[{0: 0.25}],
                        cost=[1.0], d=1, m=1)


def test_seven_vertex_paths_and_objective():
    pb = one_label_pbtl()
    coll = normalize_epsilon(pb, 0.5)
    assert coll.step == 1 and coll.layers == 2
    sol = build_compact_lp(coll, pb)
    assert len(sol.paths) == 7  # root + 2 children + 4 grandchildren
    res = solve_lp(sol.model)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0, abs=1e-8)


def test_highs_and_exact_agree():
    pb = one_label_pbtl()
    coll = normalize_epsilon(pb, 0.5)
    sol = build_compact_lp(coll, pb)
    r1 = solve_lp(sol.model)
    r2 = simplex(sol.model)
    assert r1.objective == pytest.approx(4.0, abs=1e-8)
    assert r2.objective == Fraction(4)


def _infeasible_model():
    m = LpModel()
    a = m.add_var()
    m.objective[a] = 1.0
    m.add_row([a], [1.0], "<=", -1.0)
    return m


def _unbounded_model():
    m = LpModel()
    b = m.add_var()
    m.objective[b] = -1.0
    m.add_row([b], [0.0], "<=", 1.0)
    return m


def test_simplex_handles_infeasible_and_unbounded():
    assert simplex(_infeasible_model()).status == "infeasible"
    assert simplex(_unbounded_model()).status == "unbounded"


def test_highs_reports_infeasible_and_unbounded_as_linprog_did():
    for model, status in ((_infeasible_model(), "infeasible"),
                          (_unbounded_model(), "unbounded")):
        res = solve_lp(model)
        assert res == _reference_solve_highs(model) == LpResult(status)


class _FakeHighs:
    """Stands in for HiGHS: every model is solved to optimality at the
    given column values, row activities (HiGHS row order) and objective."""
    solution = None

    def passOptions(self, opts):
        pass

    def passModel(self, *model):
        return _highs.HighsStatus.kOk

    def run(self):
        return _highs.HighsStatus.kOk

    def getModelStatus(self):
        return _highs.HighsModelStatus.kOptimal

    def getSolution(self):
        x, rows, _ = self.solution
        return SimpleNamespace(col_value=x, row_value=rows)

    def getInfo(self):
        return SimpleNamespace(objective_function_value=self.solution[2])


NAN = float("nan")


# (x, HiGHS row activities: the "<=" row, then the "==" row, objective);
# linprog's tolerance is sqrt(1e-9) * 10, about 3.2e-4
CHECKED_SOLUTIONS = [
    ([0.0, 1.0], [0.5, 1.0], 0.0),                # exact
    ([-3e-4, 1.0], [0.5 + 3e-4, 1.0 - 3e-4], 0.0),  # every kind, within
    ([-4e-4, 1.0], [0.5, 1.0], 0.0),              # bound
    ([0.0, 1.0], [0.5 + 4e-4, 1.0], 0.0),         # "<=" row
    ([0.0, 1.0], [0.5, 1.0 + 4e-4], 0.0),         # "==" row, above
    ([0.0, 1.0], [0.5, 1.0 - 4e-4], 0.0),         # "==" row, below
    ([0.0, 1.0], [-7.0, 1.0], 0.0),               # slack is no violation
    ([NAN, 1.0], [0.5, 1.0], 0.0),
    ([0.0, 1.0], [NAN, 1.0], 0.0),
    ([0.0, 1.0], [0.5, 1.0], NAN),
]


@pytest.mark.parametrize("solution", CHECKED_SOLUTIONS)
def test_highs_optimum_is_checked_as_linprog_checked_it(monkeypatch,
                                                         solution):
    """An optimum HiGHS reports is an error exactly when linprog's own
    check (``_check_result``) turned it into one, and ``residual`` is its
    largest bound, "<=" and "==" violation."""
    from scipy.optimize._linprog_util import _check_result
    model = LpModel()
    a, b = model.add_var(), model.add_var()
    model.add_row([a, b], [1, 1], "==", 1)
    model.add_row([a], [1], "<=", 0.5)
    monkeypatch.setattr(_FakeHighs, "solution", solution)
    monkeypatch.setattr(_highs, "_Highs", _FakeHighs)
    res = solve_lp(model)
    x, rows, fun = (np.array(v, dtype=float) for v in solution)
    slack = np.array([0.5, 1.0]) - rows
    status, _ = _check_result(x, fun, 0, slack[:1], slack[1:],
                              np.array([[0, np.inf]] * 2), 1e-9, "", None)
    assert res.status == {0: "optimal", 4: "error"}[status]
    want = np.max([0.0, -x.min(), -slack[0], abs(slack[1])])
    assert res.residual == pytest.approx(want, rel=1e-9, nan_ok=True)
    assert (res.x is None) == (status != 0)


def test_dump_lp():
    m = LpModel()
    a, b = m.add_var(), m.add_var()
    m.objective[a] = 1.0
    m.add_row([a, b], [1.0, 1.0], "==", 1.0)
    buf = io.StringIO()
    dump_lp(m, buf)
    text = buf.getvalue()
    assert "Minimize" in text and "x0" in text and "= 1" in text


# the solve's one use of scipy's private HiGHS module is inside solve_lp:
# the LP module imports, builds models and hands them to another solver
# (here the tests' exact simplex) without it
NO_HIGHS_CORE_PROBE = """
import sys
sys.modules["scipy.optimize._highspy._core"] = None   # import fails
from treepack.lp import LpModel, solve_lp
from exact_lp import simplex
m = LpModel()
a, b = m.add_var(), m.add_var()
m.objective.update({a: 1, b: 2})
m.add_row([a, b], [1, 1], "==", 1)
print(simplex(m).objective)
try:
    solve_lp(m)
except ImportError:
    print("highs needs the module")
"""


def _probe(code):
    """stdout lines of ``code`` run in a fresh interpreter, with src/ and
    tests/ on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lp.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, here, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_other_solvers_run_without_scipys_highs_core():
    assert _probe(NO_HIGHS_CORE_PROBE) == ["1", "highs needs the module"]


# a two-variable LP solved by HiGHS, recording the module the solve used
HIGHS_CORE_SETUP = """
import sys
from treepack import lp
name = "scipy.optimize._highspy._core"
used = []
load = lp._highs_core
lp._highs_core = lambda: used.append(load()) or used[-1]
m = lp.LpModel()
a, b = m.add_var(), m.add_var()
m.objective.update({a: 1, b: 2})
m.add_row([a, b], [1, 1], "==", 1)
def solve():
    res = lp.solve_lp(m)
    return res.status, res.objective
"""

SOLVED = "('optimal', 1.0)"

# (probe, its stdout lines)
HIGHS_CORE_PROBES = {
    # a solve loads the extension alone, and registers the module it ran
    "alone": ("""
print(solve())
print("scipy.optimize" in sys.modules)
print(used[0] is sys.modules[name])
""", [SOLVED, "False", "True"]),
    # scipy.optimize imported after a solve reuses the module it loaded
    "treepack-first": ("""
print(solve())
import scipy.optimize
from scipy.optimize._highspy import _core
print(scipy.optimize.linprog([1, 2], A_eq=[[1, 1]], b_eq=[1],
                             method="highs").fun)
print(_core is used[0] is sys.modules[name])
""", [SOLVED, "1.0", "True"]),
    # a solve after scipy.optimize uses scipy's own module
    "scipy-first": ("""
import scipy.optimize
from scipy.optimize._highspy import _core
print(solve())
print(scipy.optimize.linprog([1, 2], A_eq=[[1, 1]], b_eq=[1],
                             method="highs").fun)
print(_core is used[0] is sys.modules[name])
""", [SOLVED, "1.0", "True"]),
}


@pytest.mark.parametrize("order", sorted(HIGHS_CORE_PROBES))
def test_highs_core_is_loaded_without_scipy_optimize(order):
    """HiGHS runs without ``scipy.optimize`` being imported, and the one
    extension module is shared with scipy in either import order."""
    probe, want = HIGHS_CORE_PROBES[order]
    assert _probe(HIGHS_CORE_SETUP + probe) == want


def test_highs_core_load_failure_leaves_no_module(tmp_path, monkeypatch):
    """A HiGHS extension that cannot be found is an ImportError naming it,
    and one that fails while it runs raises its own error; neither leaves
    an entry in ``sys.modules``.  While it runs, it is registered under its
    dotted name: a stand-in scipy directory holds a source ``_core`` that
    checks this and then fails."""
    name = "scipy.optimize._highspy._core"
    core = tmp_path / "optimize" / "_highspy" / "_core.py"
    core.parent.mkdir(parents=True)
    core.write_text("import sys\n"
                    "assert sys.modules[__name__].__file__ == __file__\n"
                    "raise RuntimeError('bad extension')\n")
    monkeypatch.delitem(sys.modules, name)
    scipy = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(lp.importlib.util, "find_spec", lambda top: scipy)
    with pytest.raises(ImportError, match=name):
        lp._highs_core()                # no file with an extension suffix
    assert name not in sys.modules
    monkeypatch.setattr(lp.importlib.machinery, "EXTENSION_SUFFIXES",
                        [".py"])
    with pytest.raises(RuntimeError, match="bad extension"):
        lp._highs_core()
    assert name not in sys.modules


def test_productive_and_null_tables():
    pb = one_label_pbtl()
    prod = productive_table(pb)
    assert "a" in prod[0] and "a" in prod[2]
    coll = normalize_epsilon(pb, 0.5)
    assert lp._Emitter(pb).support(2, 0) == 1   # a's vector is nonzero
    assert not build_compact_lp(coll, pb).paths[0].null
    # without vectors, every subtree of a sums to zero: a is null
    pb.vectors = {}
    assert lp._Emitter(pb).support(2, 0) == 0
    assert build_compact_lp(coll, pb).paths[0].null


def test_productive_masks_skip_triples_of_unknown_labels():
    """Triples that name a label outside ``labels`` make nothing
    productive, in the table and in the LP's masks."""
    pb = one_label_pbtl()
    pb.triples = pb.triples + [("z", "a", "a"), ("a", "a", "y")]
    tri = ProductiveTriples(pb)
    assert not tri.ok[:, -1].any()
    assert [{tri.labels[i] for i in np.flatnonzero(ok)} for ok in tri.ok] \
        == productive_table(pb) == [{"a"}] * 3


def test_normalize_epsilon_rejects_a_height_off_the_layers():
    """H = 2 splits into 1 or 2 super-layers, not into 3."""
    pb = one_label_pbtl()
    assert normalize_epsilon(pb, 0.5) == CollapsedTree(
        eps=Fraction(1, 2), H=2, step=1, layers=2, arity=2)
    with pytest.raises(ValueError, match="not a multiple"):
        normalize_epsilon(pb, 1.0 / 3)


def test_hull_block_structure():
    pb = one_label_pbtl()
    coll = normalize_epsilon(pb, 0.5)
    blk, = build_hull_blocks(coll, ProductiveTriples(pb), [0], pb.H)
    assert blk.feasible
    assert sum(1 for _ in root_keys(blk)) >= 1
    # one child group per label: (a, a, a) leads into a from both slots
    assert [(L, pos.tolist(), n) for L, pos, n in inflow(blk)] == \
        [("a", [0], [2])]


@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_leaf_that_overfills_a_row_gets_no_mass(eps):
    """Leaf a alone fills row 0 twice over.  The root row would allow half
    the mass on it, but a's own row allows none, in both LPs.  The tree has
    one level per super-layer: at eps = 1/2, a, b and n are carried down
    one more level."""
    triples = [("r", "a", "n"), ("r", "b", "n")]
    if eps == 0.5:
        triples += [("a", "a", "n"), ("b", "b", "n"), ("n", "n", "n")]
    pb = PbtlInstance(H=round(1 / eps), labels=["r", "a", "b", "n"],
                      root="r", vectors={"a": {0: 2}, "b": {1: 1}},
                      triples=triples, packing=[{0: 1.0}], cost=[-1.0, 0.0],
                      d=2, m=1)
    coll = normalize_epsilon(pb, eps)
    for build in (build_state_lp, build_compact_lp):
        res = solve_lp(build(coll, pb).model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_overfilling_leaf_mixed_into_a_layer_one_label_gets_no_mass():
    """At eps = 1/2 the layer-1 label c takes leaf a, which alone fills row
    0 twice over, or the harmless leaf b.  c's own packing row allows half
    its mass on a, and cost pulls it there; only the row on the leaf
    inflow into a keeps it at zero."""
    pb = PbtlInstance(H=2, labels=["r", "c", "a", "b", "n"], root="r",
                      vectors={"a": {0: 2}, "b": {1: 1}},
                      triples=[("r", "c", "n"), ("c", "a", "n"),
                               ("c", "b", "n"), ("n", "n", "n")],
                      packing=[{0: 1.0}], cost=[-1.0, 0.0], d=2, m=1)
    coll = normalize_epsilon(pb, 0.5)
    for build in (build_state_lp, build_compact_lp):
        res = solve_lp(build(coll, pb).model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)


def _integer_optimum(inst, red):
    best = None
    for vk in pbtl_vector_set(red.pbtl):
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
    coll = normalize_epsilon(red.pbtl, Fraction(1, red.pbtl.H))
    sol = build_compact_lp(coll, red.pbtl)
    res = solve_lp(sol.model)
    sols = build_state_lp(coll, red.pbtl)
    ress = solve_lp(sols.model)
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
    """The super-layers and PBTL solve_additive_dp relaxes at ``eps`` (or
    at a forced height)."""
    inst2, _ = preprocess_instance(inst)
    hfn = (lambda d2: height) if height else partial(layered_height, eps=eps)
    red = reduce_chain(inst2, delta, height_fn=hfn)
    return normalize_epsilon(red.pbtl, eps), red.pbtl


def _model_digest(sol):
    """sha256 of repr((tags, rows, objective)): a reference model's own
    tags, and for ``build_state_lp`` the tags ``model_meta`` rebuilds from
    its records."""
    m = sol.model
    meta = m.meta if isinstance(m, TaggedLpModel) else model_meta(sol)
    return hashlib.sha256(
        repr((meta, m.rows, m.objective)).encode()).hexdigest()


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

BUILDERS = {"states": build_state_lp, "paths": build_compact_lp,
            "per-local": reference_state_lp}

# sha256 of repr((meta, rows, objective)) of each emitted model; the
# per-local digests are those the label-path LP had before it merged the
# locals of one depth
LP_DIGESTS = {
    ("dag4x5", "per-local"):
        "2a2ee61a0aec7c23a8cdd2e771ace8fe32b7cb33ef5d17c287d7d1c4e92acd5b",
    ("random20", "per-local"):
        "3e65ac05677220a873ec278602e51268f4daeadeb30b6af8bf6352565e26e201",
    ("random21", "per-local"):
        "8c56f0b4b031265deb718302593d88cb8b0722ee3090ca1faa8d95d57da27beb",
    ("random0-h2", "per-local"):
        "a5a1b0475032ad4c57ef15a1e80a01a7d5fd8948d39af66d5b0925b149f1af89",
    ("dag4x5", "states"):
        "8b9e19058dfad200af19eb90189887673512bbeddff9e0ce648cd5649ccd1ae8",
    ("dag3x4", "paths"):
        "a153ee5bc69bd202a4ad3633185973da4df05abc331f7350f0b695fadb9146d4",
    ("random20", "states"):
        "b99d60e7b9c8d89c6a0d656b55c95d4d12d822bf70997cf233cd69b51c017243",
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
    """Both LP shapes, and the per-local reference, emit exactly the
    recorded models, rows in order."""
    coll, pb = LP_CASES[case]()
    assert _model_digest(BUILDERS[shape](coll, pb)) == \
        LP_DIGESTS[(case, shape)]


# (rows, nonzeros) of each emitted model
LP_SIZES = {
    ("dag4x5", "per-local"): (24326, 63094),
    ("random20", "per-local"): (1190, 2519),
    ("random21", "per-local"): (1, 1),
    ("random0-h2", "per-local"): (2, 2),
    ("dag4x5", "states"): (2268, 10720),
    ("dag3x4", "paths"): (102597, 220641),
    ("random20", "states"): (123, 342),
    ("random20", "paths"): (7463, 15157),
    ("random21", "states"): (1, 1),
    ("random21", "paths"): (1, 1),
    ("random0-h2", "states"): (2, 2),
    ("random0-h2", "paths"): (8, 15),
}


def _reference_highs_arrays(model):
    """The linprog input packed row by row from ``model.rows``: the cost
    vector and the A_ub/b_ub and A_eq/b_eq of the rows of each sense, in
    model order, one COO entry per coefficient, then CSR (a sense without
    rows gets an empty matrix)."""
    rows = {"==": [], "<=": []}
    for coefs, sense, rhs in model.rows:
        rows[sense].append((coefs, rhs))

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
        return mat.tocsr(), np.array(b, dtype=float)

    c = np.zeros(model.n)
    for v, coef in model.objective.items():
        c[v] = float(coef)
    a_ub, b_ub = pack(rows["<="])
    a_eq, b_eq = pack(rows["=="])
    return c, {"A_ub": a_ub, "b_ub": b_ub, "A_eq": a_eq, "b_eq": b_eq}


def _reference_solve_highs(model):
    """The HiGHS solve as linprog made it, on the row-by-row packing."""
    c, kw = _reference_highs_arrays(model)
    res = scipy.optimize.linprog(c, bounds=(0, None), method="highs", **kw)
    if res.status == 0:
        return LpResult("optimal", list(res.x), float(res.fun))
    return LpResult({2: "infeasible", 3: "unbounded"}.get(res.status,
                                                          "error"))


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case,shape", sorted(LP_DIGESTS))
def test_packer_matches_row_by_row_reference(case, shape):
    """HiGHS gets the CSC arrays, row bounds and costs that linprog made
    from the row-by-row packing (A_ub stacked over A_eq, then CSC), and
    the rows keep their sizes."""
    coll, pb = LP_CASES[case]()
    model = BUILDERS[shape](coll, pb).model
    assert (len(model.rows),
            sum(len(c) for c, _, _ in model.rows)) == LP_SIZES[(case, shape)]
    got = highs_arrays(model)
    c, kw = _reference_highs_arrays(model)
    ref = scipy.sparse.csc_array(scipy.sparse.vstack((kw["A_ub"],
                                                      kw["A_eq"])))
    assert _same_array(got.cost, c)
    for part in ("indptr", "indices", "data"):
        theirs = getattr(ref, part)     # scipy's indices are int32 here
        assert _same_array(getattr(got, part).astype(theirs.dtype),
                           theirs), part
    assert got.n_ub == len(kw["b_ub"])
    assert _same_array(got.lower, np.concatenate(
        (np.full(len(kw["b_ub"]), -np.inf), kw["b_eq"])))
    assert _same_array(got.upper, np.concatenate((kw["b_ub"], kw["b_eq"])))


def _residual(model, x):
    """Largest bound, "<=" and "==" violation of x, row by row."""
    out = max(0.0, -min(x, default=0.0))
    for coefs, sense, rhs in model.rows:
        lhs = sum(c * x[v] for v, c in coefs.items())
        out = max(out, abs(lhs - rhs) if sense == "==" else lhs - rhs)
    return out


# random structures 0-36 at epsilon 1/2 and 1/3
RANDOM_CASES = {"random%d-eps1/%d" % (s, k):
                (lambda s=s, e=1 / k: _random_case(s, eps=e))
                for s in range(37) for k in (2, 3)}


def _highs_cases():
    return [pytest.param(make, build, id="%s-%s" % (name, shape))
            for name, make in sorted(LP_CASES.items())
            for shape, build in (("states", build_state_lp),
                                 ("paths", build_compact_lp))
            if (name, shape) != ("dag4x5", "paths")] + \
        [pytest.param(make, build_state_lp, id=name)
         for name, make in RANDOM_CASES.items()]


@pytest.mark.parametrize("make,build", _highs_cases())
def test_highs_matches_linprog_bitwise(make, build):
    """The HiGHS driver gives linprog's status, the same x bytes and the
    same objective; ``residual`` is the largest primal violation.  The
    paths LP of the 4x5 DAG (918k variables) is left out."""
    coll, pb = make()
    model = build(coll, pb).model
    res = solve_lp(model)
    ref = _reference_solve_highs(model)
    assert res.status == ref.status
    if ref.x is None:
        assert res.x is None and res.objective is None
        return
    assert np.array(res.x).tobytes() == np.array(ref.x).tobytes()
    assert res.objective == ref.objective
    assert res.residual == pytest.approx(_residual(model, res.x), abs=1e-12)


def _hull_cases():
    return [pytest.param(name, make, id=name) for name, make in
            [*sorted(LP_CASES.items()), *RANDOM_CASES.items()]]


def _merged_reference(ref, rank, g):
    """A dict-reference block's keys, flow rows and per-label inflow with
    the locals of one depth merged: keys (depth, triple), and a parent key
    listed once per side that leads into a node."""
    keys = sorted({(u.bit_length() - 1, t) for u, t in ref["phi_keys"]},
                  key=lambda k: (k[0], rank[k[1][0]], repr(k[1])))

    def into(d, L):
        return [k for k in keys if k[0] == d - 1
                for side in (1, 2) if k[1][side] == L]

    def labels(d):
        return sorted({t[0] for e, t in keys if e == d} if d < g else
                      {t[s] for e, t in keys if e == g - 1 for s in (1, 2)},
                      key=rank.__getitem__)

    rows = [([k for k in keys if k[0] == d and k[1][0] == L], into(d, L))
            for d in range(1, g) for L in labels(d)]
    levels = [0]
    for d in range(1, g):
        levels.append(levels[-1] + len(labels(d)))
    inflow = []
    for L in labels(g):
        ks = into(g, L)
        inflow.append((L, list(dict.fromkeys(ks)),
                       [ks.count(k) for k in dict.fromkeys(ks)]))
    return {"phi_keys": keys, "cons_rows": rows, "flow_levels": levels,
            "inflow": inflow}


@pytest.mark.parametrize("name,make", _hull_cases())
def test_hull_blocks_match_dict_reference(name, make):
    """For every record of the label-path LP, and for the root: its block
    shows the keys, flow rows and per-label inflow of the dict-based
    per-local builder merged by depth, and the productive table and the
    LP's productive masks are the set-based table."""
    coll, pb = make()
    prod = reference_productive_table(pb)
    assert productive_table(pb) == prod
    sol = build_state_lp(coll, pb)
    tri = sol.triples
    assert not tri.ok[:, -1].any()
    assert [{tri.labels[i] for i in np.flatnonzero(ok)} for ok in tri.ok] \
        == prod
    merged = {(b.rem, b.ell): b for b in
              (rec.block for rec in sol.records.values()) if b is not None}
    root = (pb.H, pb.root)
    merged[root], = build_hull_blocks(coll, tri, [tri.rank[pb.root]], pb.H)
    if name == "random0-h2":
        assert not merged[root].feasible
    hull = DictHull(pb, prod)
    for (rem, ell), mblk in merged.items():
        ref = hull.block(coll.step, ell, rem)
        assert mblk.feasible == ref["feasible"], (rem, ell)
        mref = _merged_reference(ref, tri.rank, coll.step)
        keys = mblk.phi_keys
        assert keys == mref["phi_keys"], (rem, ell)
        assert cons_rows(mblk) == mref["cons_rows"], (rem, ell)
        if mblk.feasible:
            assert mblk.flow_levels == mref["flow_levels"], (rem, ell)
            assert mblk.n_root == len([k for k in keys if k[0] == 0])
        assert [(L, [keys[j] for j in pos], n) for L, pos, n in
                inflow(mblk)] == mref["inflow"], (rem, ell)


@pytest.mark.parametrize("name,make", _hull_cases())
def test_rebuilt_tags_cover_the_model(name, make):
    """``model_meta`` names every variable of the label-path LP once.  On
    the cases without a recorded digest, a variable it missed or named
    twice would otherwise go unseen."""
    sol = build_state_lp(*make())
    meta = model_meta(sol)
    assert len(meta) == sol.model.n
    assert None not in meta
    assert len(set(meta)) == len(meta)


@pytest.mark.parametrize("name,make", _hull_cases())
def test_triple_table_is_repr_order_grouped_by_parent(name, make):
    """The lexsort over label ids orders the triples as a repr sort grouped
    stably by parent does, and the id arrays name their labels."""
    coll, pb = make()
    tri = ProductiveTriples(pb)
    assert tri.decode(slice(None)) == reference_triple_table(pb)
    assert [tuple(tri.labels[i] for i in ids) for ids in
            zip(tri.parent.tolist(), tri.left.tolist(),
                tri.right.tolist())] == tri.decode(slice(None))


def _with_unknown_labels():
    pb = one_label_pbtl()
    pb.triples = pb.triples + [("z", "a", "a"), ("a", "a", "y")]
    return pb


def _hand_built_strings():
    return PbtlInstance(H=2, labels=["r", "b", "a", "y", "x"], root="r",
                        vectors={"x": {0: 1}, "y": {1: 1}},
                        triples=[("r", "b", "a"), ("a", "y", "x"),
                                 ("r", "a", "a"), ("b", "x", "x"),
                                 ("a", "x", "x")],
                        packing=[], cost=[0.0, 0.0], d=2, m=0)


PBTL_TABLE_CASES = {
    **{name: (lambda make=make: make()[1])
       for name, make in sorted(LP_CASES.items())},
    **{name + "-copy": (lambda make=make: dataclasses.replace(make()[1]))
       for name, make in sorted(LP_CASES.items())},
    "unknown-labels": _with_unknown_labels,
    "strings": _hand_built_strings,
}


@pytest.mark.parametrize("name", sorted(PBTL_TABLE_CASES))
def test_triple_table_matches_the_one_built_from_tuples(name):
    """``ProductiveTriples`` takes the walk's label ids and id arrays as
    they are, and derives them for a hand-built instance or a copy; either
    way its labels and triple ids are those it had when it sorted the
    label tuples by repr and looked every triple up in their ranks."""
    pb = PBTL_TABLE_CASES[name]()
    tri = ProductiveTriples(pb)
    labels, ids = reference_triple_ids(pb)
    assert tri.labels == labels
    assert tri.rank == {l: i for i, l in enumerate(labels)}
    assert np.array_equal(np.stack((tri.parent, tri.left, tri.right)), ids)


@pytest.mark.parametrize("name", sorted(LP_CASES))
def test_first_triple_is_the_first_productive_one(name):
    """``first(r, label)`` is the repr-first triple of ``label`` whose
    children both finish a subtree of height r - 1, or None; a label
    outside the table has none."""
    coll, pb = LP_CASES[name]()
    tri, hull = ProductiveTriples(pb), DictHull(pb)
    for r in range(1, pb.H + 1):
        for label in pb.labels:
            assert tri.first(r, label) == \
                next(iter(hull.triples(r, label)), None), (r, label)
    assert tri.first(pb.H, "not a label") is None


@pytest.mark.parametrize("name", sorted(LP_CASES))
def test_block_nodes_start_at_their_first_triple(name):
    """In every block of the LP, each (depth, label) node's triples come in
    repr order, its labels in repr order within a depth, and its first
    position holds ``first(rem - depth, label)``: the triple a local
    without mass takes."""
    coll, pb = LP_CASES[name]()
    sol = build_state_lp(coll, pb)
    tri, nodes = sol.triples, 0
    for rec in sol.records.values():
        blk = rec.block
        if blk is None or not blk.feasible:
            continue
        start, keys = blk.node_start.tolist(), blk.phi_keys
        labels = [keys[a] for a in start[:-1]]
        assert labels == sorted(labels, key=lambda k: (k[0], repr(k[1][0])))
        for a, b in zip(start, start[1:]):
            d, t = keys[a]
            ts = [k[1] for k in keys[a:b]]
            assert {k[0] for k in keys[a:b]} == {d}
            assert {t[0] for t in ts} == {t[0]}
            assert ts == sorted(ts, key=repr)
            assert t == tri.first(blk.rem - d, t[0])
            nodes += 1
    assert nodes or name in ("random21", "random0-h2")   # no feasible block


@pytest.mark.parametrize("name,make", _hull_cases())
def test_support_masks_match_the_recursive_definition(name, make):
    """Every label's support mask at every height, built one level at a
    time from word arrays, is the recursively defined one; the DAGs have
    72 coordinates, so masks span two words."""
    coll, pb = make()
    em = lp._Emitter(pb)
    hull = DictHull(pb)
    for rem in range(pb.H, -1, -1):
        for i, label in enumerate(em.triples.labels):
            assert em.support(rem, i) == hull.support(rem, label), \
                (rem, label)


@pytest.mark.parametrize("name,make", _hull_cases())
def test_merged_state_lp_matches_per_local_reference(name, make):
    """Merging the locals of one depth keeps the label-path LP's status and
    optimum."""
    coll, pb = make()
    res = solve_lp(build_state_lp(coll, pb).model)
    ref = solve_lp(reference_state_lp(coll, pb).model)
    assert res.status == ref.status
    if ref.status == "optimal":
        assert abs(res.objective - ref.objective) <= 1e-9


@pytest.mark.parametrize("name", ["dag4x5", "dag3x4", "random20"])
def test_split_certificates_conserve_per_local_flow(name):
    """Every record with mass gets the merged block the LP holds for it,
    and phi that balances each of its merged flow rows exactly (an inflow
    key counted once per side that leads into the node), peels completely,
    and is the record's own LP phi per unit of its mass; its child masses
    are the merged inflow groups, exactly as summed from that phi."""
    coll, pb = LP_CASES[name]()
    sol = build_state_lp(coll, pb)
    attach_solution(sol, solve_lp(sol.model))
    src = compact_to_recursive(sol)
    val = np.asarray(sol.values)
    checked = 0
    for rec in sol.records.values():
        cert = src.certs.get(rec.path)
        scale = val[rec.psi]
        if scale <= NULL_MASS:
            assert cert is None
            continue
        blk, first, phi = cert.block, rec.phi_first, keyed_phi(cert)
        assert blk is rec.block
        for outk, ink in cons_rows(blk):
            assert sum(map(Fraction, (phi.get(k, 0) for k in outk))) \
                == sum(map(Fraction, (phi.get(k, 0) for k in ink)))
        decompose_chi(cert, exact=True)
        for k, v in record_phi(rec).items():
            assert phi.get(k, 0.0) == pytest.approx(val[v] / scale, abs=1e-9)
        masses, want_masses = child_masses(cert), {}
        for L, pos, counts in inflow(blk):
            keys = [blk.phi_keys[j] for j in pos.tolist()]
            got = sum(n * Fraction(phi.get(k, 0))
                      for n, k in zip(counts, keys))
            assert Fraction(masses.get(L, 0)) == got, L
            want = float(np.dot(counts, val[pos + first])) / scale
            assert masses.get(L, 0.0) == pytest.approx(want, abs=1e-9), L
            if got:
                want_masses[L] = got
        assert set(masses) == set(want_masses)
        checked += 1
    assert checked > 1


@pytest.mark.parametrize("name", sorted(LP_CASES))
def test_certificates_are_the_records_with_mass(name):
    """``compact_to_recursive`` builds, before any rounding, one certificate
    per record with mass above NULL_MASS and a block, keyed by its label
    path; each has that block and a phi array over its positions that is
    not all zero."""
    coll, pb = LP_CASES[name]()
    sol = build_state_lp(coll, pb)
    res = solve_lp(sol.model)
    if res.status != "optimal":
        assert name == "random0-h2"
        return
    src = compact_to_recursive(attach_solution(sol, res))
    want = [path for path, rec in sol.records.items()
            if sol.values[rec.psi] > NULL_MASS and rec.block is not None]
    assert list(src.certs) == want
    for path, cert in src.certs.items():
        rec = sol.records[path]
        assert cert.key == path and cert.block is rec.block
        assert cert.phi.shape == (rec.block.n,) and cert.phi.any()


@pytest.mark.parametrize("n", [2 ** 31 - 1, 2 ** 31])
def test_highs_indices_are_checked_int32(n):
    """Start and index arrays reach HiGHS as int32; one that does not fit
    is an OverflowError, not a wrapped index."""
    a = np.array([0, n], dtype=np.intp)
    if n < 2 ** 31:
        assert lp._int32(a).dtype == np.int32
        assert lp._int32(a).tolist() == [0, n]
    else:
        with pytest.raises(OverflowError):
            lp._int32(a)

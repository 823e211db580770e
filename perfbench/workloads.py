"""Seeded instances for the three benchmark workloads.

Every workload fixes the *shape* of its instances (graph layout or DP
structure), because shape sets the size of the reduction and of the LP, and
draws the *numbers* (edge costs and lengths, DP costs and packing rows) from
``--seed``.  All numbers then go through one rule, ``bind``: the packing rows
are scaled by one factor so that the cheapest solution that ignores them
reaches ``BIND`` on its largest row, and the draw is kept only when the
scaled rows stay in [0, 1] and some solution meets every row.  So the rows
always bind, the LP always has a solution to bound, and every instance has a
brute-force optimum to check that bound against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from treepack import oracle
from treepack.apps.graphs import DirectedGraph, Edge
from treepack.core import AdditiveDpInstance, Choice, Problem, instance_phi

# largest row value of the cheapest row-blind solution after scaling
BIND = 1.25
# number draws tried per instance before the seed is declared unusable
MAX_DRAWS = 500

# dag-path: (width, layers) of each layered s-t DAG in one round
DAG_SHAPES = ((4, 5),) * 5
DAG_ROWS = 2

# Structure seeds of the random_instance family (n_max=8, d_max=6, m_max=3);
# see README.md for the rules that picked them.
RANDOM_DP_STRUCTURES = (4, 5, 16, 17, 20, 25, 33, 36, 38, 45, 47, 61)
REDUCE_PRUNE_STRUCTURES = (2, 158)


def random_instance(rng, n_max=6, d_max=6, m_max=4):
    """The test suite's random DP family: acyclic by construction (children
    always have a later id), base vectors and fixed vectors with tiny
    entries."""
    n = rng.randint(2, n_max)
    d = rng.randint(1, d_max)
    ids = ["p%d" % i for i in range(n)]
    probs = []
    n_base = rng.randint(1, n - 1)
    base_ids = ids[n - n_base:]
    for i, pid in enumerate(ids):
        if pid in base_ids:
            x = {j: rng.randint(0, 2)
                 for j in rng.sample(range(d), rng.randint(0, min(2, d)))}
            x = {j: v for j, v in x.items() if v}
            probs.append(Problem(id=pid, base=True, x=x))
        else:
            ch = []
            for _ in range(rng.randint(1, 3)):
                pool = ids[i + 1:]
                kids = tuple(rng.choice(pool)
                             for _ in range(rng.randint(1, 3)))
                fixed = {}
                if rng.random() < 0.5:
                    fixed = {rng.randrange(d): rng.randint(1, 2)}
                ch.append(Choice(fixed=fixed, children=kids))
            probs.append(Problem(id=pid, base=False, choices=tuple(ch)))
    m = rng.randint(1, m_max)
    packing = _draw_packing(rng, d, m)
    cost = [round(rng.uniform(-2, 2), 3) for _ in range(d)]
    return AdditiveDpInstance(d=d, m=m, root=ids[0], problems=probs,
                              packing=packing, cost=cost)


def _draw_packing(rng, d, m):
    return [{j: round(rng.random(), 3)
             for j in rng.sample(range(d), rng.randint(1, d))}
            for _ in range(m)]


def family_structure(structure_seed):
    return random_instance(random.Random(structure_seed),
                           n_max=8, d_max=6, m_max=3)


# ---------------------------------------------------------------------------
# the binding rule


def row_values(rows, x):
    return [sum(a * x.get(i, 0) for i, a in row.items()) for row in rows]


def bind(rows, cost, solutions):
    """Scale ``rows`` so that the cheapest of ``solutions`` (sparse vectors)
    reaches BIND on its largest row.  Returns the scaled rows, or None when
    the draw cannot bind: the cheapest solution touches no row, a scaled
    entry leaves [0, 1], or no solution meets every row."""
    def price(x):
        return sum(cost[i] * v for i, v in x.items())
    cheapest = min(solutions, key=lambda x: (price(x), sorted(x.items())))
    top = max(row_values(rows, cheapest), default=0.0)
    if top <= 0:
        return None
    factor = BIND / top
    scaled = [{i: a * factor for i, a in row.items()} for row in rows]
    if any(a > 1.0 for row in scaled for a in row.values()):
        return None
    if not any(max(row_values(scaled, x)) <= 1.0 for x in solutions):
        return None
    return scaled


# ---------------------------------------------------------------------------
# dag-path


@dataclass
class DagCase:
    name: str
    graph: DirectedGraph
    paths: list          # every s-t path as a list of edge ids


def layered_shape(width, layers):
    """Vertices and (u, v) edges of the complete layered s-t DAG."""
    verts = ["s"] + ["v%d_%d" % (l, w) for l in range(layers)
                     for w in range(width)] + ["t"]
    arcs = [("s", "v0_%d" % w) for w in range(width)]
    for l in range(layers - 1):
        arcs += [("v%d_%d" % (l, a), "v%d_%d" % (l + 1, b))
                 for a in range(width) for b in range(width)]
    arcs += [("v%d_%d" % (layers - 1, w), "t") for w in range(width)]
    return verts, arcs


def st_paths(verts, arcs, s="s", t="t"):
    """Every s-t path of a DAG, by brute force, as lists of arc ids."""
    out = {v: [] for v in verts}
    for i, (u, _) in enumerate(arcs):
        out[u].append(i)
    found = []
    stack = [(s, [])]
    while stack:
        v, path = stack.pop()
        if v == t:
            found.append(path)
            continue
        for i in out[v]:
            stack.append((arcs[i][1], path + [i]))
    return sorted(found)


def dag_case(rng, width, layers, name):
    """Costs in [1, 10]; each length row is anti-correlated with cost, so
    cheap edges are long and the rows trade against the objective."""
    verts, arcs = layered_shape(width, layers)
    paths = st_paths(verts, arcs)
    span = 2.0 / (layers + 1)
    for _ in range(MAX_DRAWS):
        costs, raw = [], [dict() for _ in range(DAG_ROWS)]
        for i in range(len(arcs)):
            r = rng.random()
            costs.append(round(1 + 9 * r, 3))
            for j in range(DAG_ROWS):
                raw[j][i] = round(span * (1 - r) * rng.uniform(0.5, 1.5), 3)
        rows = bind(raw, costs, [dict.fromkeys(p, 1) for p in paths])
        if rows is None:
            continue
        edges = [Edge(u, v, cost=costs[i],
                      lengths=tuple(rows[j].get(i, 0.0)
                                    for j in range(DAG_ROWS)))
                 for i, (u, v) in enumerate(arcs)]
        return DagCase(name=name, graph=DirectedGraph(verts, edges),
                       paths=paths)
    raise RuntimeError("no binding draw for %s" % name)


def dag_cases(seed):
    rng = random.Random("dag-path:%d" % seed)
    return [dag_case(rng, w, l, "dag-%dx%d-%d" % (w, l, k))
            for k, (w, l) in enumerate(DAG_SHAPES)]


# ---------------------------------------------------------------------------
# random-dp and reduce-prune


@dataclass
class DpCase:
    name: str
    inst: AdditiveDpInstance
    delta: int


def dp_case(rng, structure_seed, name):
    """The family structure of ``structure_seed`` with its packing rows and
    costs redrawn from ``rng`` in the family's own distribution, then
    bound."""
    base = family_structure(structure_seed)
    delta = instance_phi(base)
    table = oracle.enumerate_solutions(base, delta)
    solutions = [dict(vk) for vk in table.root_vectors(base)]
    for _ in range(MAX_DRAWS):
        raw = _draw_packing(rng, base.d, base.m)
        cost = [round(rng.uniform(-2, 2), 3) for _ in range(base.d)]
        rows = bind(raw, cost, solutions)
        if rows is None:
            continue
        inst = AdditiveDpInstance(d=base.d, m=base.m, root=base.root,
                                  problems=base.problems, packing=rows,
                                  cost=cost)
        return DpCase(name=name, inst=inst, delta=delta)
    raise RuntimeError("no binding draw for %s" % name)


def dp_cases(workload, seed):
    rng = random.Random("%s:%d" % (workload, seed))
    seeds = (RANDOM_DP_STRUCTURES if workload == "random-dp"
             else REDUCE_PRUNE_STRUCTURES)
    return [dp_case(rng, s, "%s-%d" % (workload, s)) for s in seeds]

import random

import pytest

from treepack.apps import DirectedGraph, Edge
from treepack.core import AdditiveDpInstance, Choice, Problem


def random_instance(rng, n_max=6, d_max=6, m_max=4):
    """Small random DP instance; acyclic by construction (children always
    have a later id), base vectors and fixed vectors with tiny entries."""
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
    packing = [{j: round(rng.random(), 3)
                for j in rng.sample(range(d), rng.randint(1, d))}
               for _ in range(m)]
    cost = [round(rng.uniform(-2, 2), 3) for _ in range(d)]
    return AdditiveDpInstance(d=d, m=m, root=ids[0], problems=probs,
                              packing=packing, cost=cost)


@pytest.fixture
def rng():
    return random.Random(0)


def tiny_instance():
    """s -> {a, b}; a -> base pair; b is a base.  Two distinct solutions."""
    probs = [
        Problem(id="s", base=False, choices=(
            Choice(fixed={0: 1}, children=("a",)),
            Choice(fixed={}, children=("b",)),
        )),
        Problem(id="a", base=False, choices=(
            Choice(fixed={}, children=("x", "y")),
        )),
        Problem(id="b", base=True, x={1: 2}),
        Problem(id="x", base=True, x={0: 1}),
        Problem(id="y", base=True, x={1: 1}),
    ]
    return AdditiveDpInstance(d=2, m=1, root="s", problems=probs,
                              packing=[{0: 0.5, 1: 0.5}],
                              cost=[1.0, 1.0])


def layered_dag(width, layers):
    """s, then ``layers`` layers of ``width`` vertices with every arc
    between consecutive layers, then t; one length row."""
    verts = ["s"] + ["v%d_%d" % (l, w) for l in range(layers)
                     for w in range(width)] + ["t"]
    arcs = [("s", "v0_%d" % w) for w in range(width)]
    for l in range(layers - 1):
        arcs += [("v%d_%d" % (l, a), "v%d_%d" % (l + 1, b))
                 for a in range(width) for b in range(width)]
    arcs += [("v%d_%d" % (layers - 1, w), "t") for w in range(width)]
    edges = [Edge(u, v, cost=1.0 + i % 7, lengths=(0.1 * (i % 3),))
             for i, (u, v) in enumerate(arcs)]
    return DirectedGraph(verts, edges)

import random

import pytest

from treepack import oracle
from treepack.core import vec_key
from treepack.reduce import BOT, PbtlInstance, fast_height, reduce_chain

from conftest import random_instance, tiny_instance
from reference_oracle import assert_matches_dense


def test_enumerate_solutions_tiny_by_hand():
    # solutions: choice 0 -> {0:1} + x + y = {0:2, 1:1} (4 nodes);
    #            choice 1 -> b = {1:2} (2 nodes)
    inst = tiny_instance()
    tab = oracle.enumerate_solutions(inst, 10, metric="nodes")
    got = {vk: tab.vectors[inst.root][vk] for vk in tab.root_vectors(inst)}
    assert got == {vec_key({0: 2, 1: 1}): 4, vec_key({1: 2}): 2}


def test_size_cap_prunes():
    inst = tiny_instance()
    tab = oracle.enumerate_solutions(inst, 2, metric="nodes")
    assert set(tab.root_vectors(inst)) == {vec_key({1: 2})}
    tab = oracle.enumerate_solutions(inst, 1, metric="nodes")
    assert set(tab.root_vectors(inst)) == set()


def test_solve_exact_picks_cheapest_feasible():
    inst = tiny_instance()
    # packing row 0.5*(x0+x1): {0:2,1:1} -> 1.5 infeasible; {1:2} -> 1.0 ok
    w, cost, _ = oracle.solve_exact(inst, 10)
    assert w.vector == {1: 2}
    assert cost == pytest.approx(2.0)


def test_solve_exact_reports_infeasibility_as_none():
    inst = tiny_instance()
    w, cost, _ = oracle.solve_exact(inst, 1)
    assert w is None and cost is None


def test_reconstruct_round_trips_every_vector():
    for seed in range(15):
        rng = random.Random(seed)
        inst = random_instance(rng, n_max=5, d_max=4)
        tab = oracle.enumerate_solutions(inst, 6, metric="nodes")
        for vk in tab.root_vectors(inst):
            node = oracle.reconstruct_witness(inst, tab, inst.root, vk)
            from treepack.core import evaluate_witness, witness_size
            assert vec_key(evaluate_witness(inst, node)) == vk
            assert witness_size(node) <= tab.vectors[inst.root][vk]


def test_normalized_metric_counts_fixed_vectors():
    # a single choice with a nonzero fixed vector and two base children:
    # normalized size = max(3-1,1) + 1 (fixed) = 3
    from treepack.core import AdditiveDpInstance, Choice, Problem
    inst = AdditiveDpInstance(
        d=1, m=0, root="r",
        problems=[Problem(id="r", base=False,
                          choices=(Choice(fixed={0: 1},
                                          children=("a", "b")),)),
                  Problem(id="a", base=True, x={0: 1}),
                  Problem(id="b", base=True, x={})],
        packing=[], cost=[0.0])
    tab3 = oracle.enumerate_solutions(inst, 5, metric="normalized")
    assert set(tab3.root_vectors(inst)) == {vec_key({0: 2})}
    assert tab3.vectors["r"][vec_key({0: 2})] == 3 + 2  # + the two leaves


def test_truncation_is_flagged_and_raises_in_solve_exact():
    rng = random.Random(3)
    inst = random_instance(rng, n_max=6, d_max=6)
    tab = oracle.enumerate_solutions(inst, 8, count_cap=1, metric="nodes")
    assert tab.truncated
    with pytest.raises(RuntimeError):
        oracle.solve_exact(inst, 8, count_cap=1)


def test_pbtl_enumeration_agrees_with_height_dp():
    # explicit labeling enumeration and the memoized vector-set DP must see
    # the same root vectors on small reduced instances
    for seed in range(6):
        rng = random.Random(40 + seed)
        inst = random_instance(rng, n_max=4, d_max=3, m_max=2)
        red = reduce_chain(inst, rng.randint(1, 3), height_fn=fast_height)
        vecs = oracle.pbtl_vector_set(red.pbtl)
        labs = oracle.enumerate_labelings(red.pbtl, count_cap=20000)
        got = {vec_key(l.vector) for l in labs}
        assert got == vecs


def test_labeling_enumeration_skips_dummy_subtrees_in_dense_order():
    """Root r takes (a, dummy), (a, a) or (b, dummy); a takes (x, dummy)
    or (x, y), and b takes (y, y).  Dummies sit at depths 1 and 2, and
    whether vertex (1, 1) picks a triple depends on the root's triple."""
    dummy = [(h, BOT) for h in range(2)]
    r, a, b, x, y = (2, "r"), (1, "a"), (1, "b"), (0, "x"), (0, "y")
    pb = PbtlInstance(H=2, labels=[r, a, b, x, y, *dummy], root=r,
                      vectors={x: {0: 1}, y: {1: 1}},
                      triples=[(r, a, dummy[1]), (r, a, a), (r, b, dummy[1]),
                               (a, x, dummy[0]), (a, x, y), (b, y, y),
                               (dummy[1], dummy[0], dummy[0])],
                      packing=[], cost=[0.0, 0.0], d=2, m=0)
    assert assert_matches_dense(pb, count_cap=7) == 7
    first = oracle.enumerate_labelings(pb)[0]
    assert first.assignment == {(0, 0): r, (1, 0): a, (2, 0): x}

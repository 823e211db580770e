import random

import pytest
from hypothesis import given, strategies as st

from treepack.core import (AdditiveDpInstance, Choice, Problem, check_packing,
                           evaluate_witness, instance_from_json,
                           instance_phi, make_witness,
                           preprocess_instance, validate_instance, vec_add,
                           vec_dot, vec_from_key, vec_key, witness_size)
from treepack.oracle import solve_exact

from conftest import random_instance, tiny_instance
from reference_core import dumps_instance, loads_instance, vec_sum

sparse = st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=4)


@given(sparse, sparse)
def test_vec_add_matches_dense(a, b):
    s = vec_add(a, b)
    for i in set(a) | set(b):
        assert s.get(i, 0) == a.get(i, 0) + b.get(i, 0)
    assert 0 not in s.values()


@given(st.lists(sparse, max_size=5))
def test_vec_sum_is_folded_add(vs):
    acc = {}
    for v in vs:
        acc = vec_add(acc, v)
    assert vec_sum(vs) == acc


@given(sparse)
def test_vec_key_round_trip(a):
    assert vec_from_key(vec_key(a)) == a


def test_vec_dot():
    assert vec_dot([2.0, 0.5, -1.0], {0: 1, 2: 3}) == pytest.approx(-1.0)
    assert vec_dot([1.0], {}) == 0


def test_tiny_instance_validates():
    inst = tiny_instance()
    assert validate_instance(inst) == []


def test_phi_counts_bases_and_choice_sizes():
    inst = tiny_instance()
    # bases x, y, b; choices: s has two (1 child each -> 2 apiece), a has one
    # with 2 children -> 3
    assert instance_phi(inst) == 3 + 2 + 2 + 3


def test_validate_catches_structural_problems():
    bad = AdditiveDpInstance(
        d=1, m=0, root="r",
        problems=[Problem(id="r", base=False,
                          choices=(Choice(fixed={0: 1}, children=("r",)),))],
        packing=[], cost=[0.0])
    errs = validate_instance(bad)
    assert any("cycle" in e for e in errs)

    bad2 = AdditiveDpInstance(
        d=1, m=0, root="r",
        problems=[Problem(id="r", base=False,
                          choices=(Choice(fixed={0: -1}, children=("b",)),)),
                  Problem(id="b", base=True, x={})],
        packing=[], cost=[0.0])
    assert any("nonnegative" in e for e in errs + validate_instance(bad2))


def test_witness_evaluation_and_size():
    inst = tiny_instance()
    w, cost, _ = solve_exact(inst, 5)
    assert w is not None
    assert witness_size(w.root) == w.size
    assert evaluate_witness(inst, w.root) == w.vector


def test_evaluate_rejects_wrong_child_count():
    inst = tiny_instance()
    from treepack.core import WitnessNode
    node = WitnessNode(problem_id="s", choice_index=0, children=())
    with pytest.raises(ValueError):
        evaluate_witness(inst, node)


def test_check_packing_values():
    inst = tiny_instance()
    rows, worst = check_packing(inst, {0: 1, 1: 1})
    assert rows == [pytest.approx(1.0)]
    assert worst == pytest.approx(1.0)
    with pytest.raises(ValueError):
        check_packing(inst, {7: 1})


def test_preprocess_strips_dead_branches():
    probs = [
        Problem(id="r", base=False, choices=(
            Choice(fixed={}, children=("dead",)),
            Choice(fixed={}, children=("ok",)),
        )),
        Problem(id="dead", base=True, x=None),
        Problem(id="ok", base=True, x={0: 1}),
    ]
    inst = AdditiveDpInstance(d=1, m=0, root="r", problems=probs,
                              packing=[], cost=[0.0])
    inst2, feasible = preprocess_instance(inst)
    assert feasible
    ids = {p.id for p in inst2.problems}
    assert "dead" not in ids
    assert len(inst2.problem("r").choices) == 1


def test_preprocess_detects_dead_root():
    probs = [
        Problem(id="r", base=False,
                choices=(Choice(fixed={}, children=("dead",)),)),
        Problem(id="dead", base=True, x=None),
    ]
    inst = AdditiveDpInstance(d=1, m=0, root="r", problems=probs,
                              packing=[], cost=[0.0])
    _, feasible = preprocess_instance(inst)
    assert not feasible


@pytest.mark.parametrize("cost", [float("nan"), float("inf"),
                                  -float("inf"), "1", None, True])
def test_validate_rejects_a_cost_that_is_not_a_finite_number(cost):
    inst = tiny_instance()
    inst.cost = [cost] + inst.cost[1:]
    assert validate_instance(inst) == [
        "cost entry 0: %r is not a finite number" % (cost,)]


@pytest.mark.parametrize("path", ["packing.rows[0]", "problems[1].x",
                                  "problems[0].choices[1].fixed"])
def test_json_vector_that_names_an_index_twice_is_rejected(path):
    """A sparse vector with two pairs for one index is an error that names
    the vector's JSON path, not a vector that keeps the last pair."""
    doc = {"d": 2, "m": 1, "root": "s",
           "problems": [{"id": "s", "choices": [
               {"fixed": [], "children": ["x"]},
               {"fixed": [[0, 1]], "children": ["x"]}]},
               {"id": "x", "base": True, "x": [[1, 1]]}],
           "packing": {"rows": [[[0, 0.5], [1, 0.25]]]}, "cost": [1.0, 1.0]}
    assert instance_from_json(doc).packing == [{0: 0.5, 1: 0.25}]
    vec = {"packing.rows[0]": doc["packing"]["rows"][0],
           "problems[1].x": doc["problems"][1]["x"],
           "problems[0].choices[1].fixed":
               doc["problems"][0]["choices"][1]["fixed"]}[path]
    vec.append([vec[0][0], 0.5])
    with pytest.raises(ValueError) as err:
        instance_from_json(doc)
    assert str(err.value) == "invalid instance: %s: coordinate %d given " \
        "twice" % (path, vec[0][0])


def test_json_round_trip_on_random_instances():
    for seed in range(25):
        inst = random_instance(random.Random(seed))
        back = loads_instance(dumps_instance(inst))
        assert back.d == inst.d and back.m == inst.m and back.root == inst.root
        assert dumps_instance(back) == dumps_instance(inst)
        assert validate_instance(back) == []


def test_topo_order_children_first():
    inst = tiny_instance()
    order = inst.topo_order()
    pos = {pid: i for i, pid in enumerate(order)}
    for p in inst.problems:
        for ch in p.choices:
            for c in ch.children:
                assert pos[c] < pos[p.id]

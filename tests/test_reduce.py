import dataclasses
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import treepack
from treepack import oracle
from treepack.apps.paths import path_dp
from treepack.core import (instance_phi, make_witness, preprocess_instance,
                           vec_key)
from treepack.reduce import (BOT, ROOT_MARK, FtlInstance, Labeling,
                             PbtlInstance, TripleIds, check_labeling,
                             dp_to_ftl, binarize_pairs, fast_height,
                             ftl_to_pbtl, labeling_vector, layered_height,
                             lift_labeling, reduce_chain)

from conftest import layered_dag, random_instance, tiny_instance
from reference_core import vec_sum
from reference_reduce import reference_shallow, reference_walk_pbtl
from forward_map import (check_shallow_tree, decompose_witness,
                         normalized_size, tree_height, witness_to_labeling)


def test_dp_to_ftl_moves_fixed_vectors_to_leaves():
    ftl = dp_to_ftl(tiny_instance())
    # the fixed vector of s's first choice became a base label
    fixes = [l for l in ftl.base if isinstance(l, tuple) and l[0] == "fix"]
    assert len(fixes) == 1
    assert ftl.base[fixes[0]] == {0: 1}
    # pairs keep the fix label after the sorted children
    pair = next(p for p in ftl.pairs if fixes[0] in p[1])
    assert pair[1][-1] == fixes[0]


def test_delta_doubling_rules():
    inst = tiny_instance()
    red = reduce_chain(inst, 4, height_fn=fast_height)
    # tiny instance has a nonzero fixed vector -> delta1 doubles; its pairs
    # all have <= 2 children -> no second doubling
    assert red.delta1 == 8
    assert red.delta2 == 8


def test_binarize_splits_wide_pairs():
    inst = random_instance(random.Random(5))
    ftl = dp_to_ftl(inst)
    ftl2 = binarize_pairs(ftl)
    assert all(len(kids) <= 2 for _, kids in ftl2.pairs)
    # every original label survives
    assert set(ftl.labels) <= set(ftl2.labels)


def test_heights():
    assert fast_height(16) == 12
    assert fast_height(1) == 6
    # fast_height rounded up to a multiple of ceil(1/eps)
    assert layered_height(16, 0.5) == 12
    assert layered_height(16, 1 / 3) == 12
    assert layered_height(1, 0.25) == 8
    assert layered_height(1, 0.2) == 10


def test_pbtl_vector_set_matches_normalized_oracle():
    # the load-bearing equivalence, on a smaller budget than the acceptance
    # run: labelings of the reduced tree produce exactly the vectors whose
    # cheapest witness fits the normalized budget
    for seed in range(12):
        rng = random.Random(seed)
        inst = random_instance(rng, n_max=5, d_max=4, m_max=3)
        delta = rng.randint(1, 6)
        red = reduce_chain(inst, delta, height_fn=fast_height)
        tab = oracle.enumerate_solutions(inst, red.delta2,
                                         metric="normalized")
        assert not tab.truncated
        assert set(tab.root_vectors(inst)) == oracle.pbtl_vector_set(red.pbtl)


def test_witness_labeling_round_trip():
    for seed in range(12):
        rng = random.Random(100 + seed)
        inst = random_instance(rng, n_max=5, d_max=4, m_max=3)
        delta = rng.randint(1, 6)
        red = reduce_chain(inst, delta, height_fn=fast_height)
        tab = oracle.enumerate_solutions(inst, delta, metric="nodes")
        for vk in tab.root_vectors(inst):
            node = oracle.reconstruct_witness(inst, tab, inst.root, vk)
            assert normalized_size(red, node) <= red.delta2
            lab = witness_to_labeling(red, node)
            assert not check_labeling(red.pbtl, lab)
            assert vec_key(lab.vector) == vk
            back = lift_labeling(red, lab)
            assert vec_key(back.vector) == vk


def test_decompose_witness_pieces_are_shallow():
    rng = random.Random(7)
    for _ in range(10):
        inst = random_instance(rng, n_max=6, d_max=4, m_max=2)
        delta = rng.randint(2, 8)
        red = reduce_chain(inst, delta, height_fn=fast_height)
        tab = oracle.enumerate_solutions(inst, delta, metric="nodes")
        for vk in tab.root_vectors(inst):
            node = oracle.reconstruct_witness(inst, tab, inst.root, vk)
            tree = decompose_witness(red, node)
            assert check_shallow_tree(red, tree) == []
            assert tree_height(tree) <= red.H


def test_labeling_vector_ignores_inner_labels():
    inst = tiny_instance()
    red = reduce_chain(inst, 4, height_fn=fast_height)
    pbtl = red.pbtl
    tab = oracle.enumerate_solutions(inst, 4, metric="nodes")
    vk = next(iter(tab.root_vectors(inst)))
    node = oracle.reconstruct_witness(inst, tab, inst.root, vk)
    lab = witness_to_labeling(red, node)
    assert labeling_vector(pbtl, lab.assignment) == lab.vector


def test_labeling_vector_drops_a_cancelled_entry_and_adds_it_back():
    """Leaf p puts 1 on coordinates 0 and 1, n takes coordinate 0 back to
    zero, which drops it, and q brings it back after coordinate 1.  The
    inner label r and the leaf z without a vector add nothing.  The sum
    has vec_sum's keys, values and insertion order."""
    pbtl = PbtlInstance(H=2, labels=["n", "p", "q", "r", "z"], root="r",
                        vectors={"p": {0: 1, 1: 1}, "n": {0: -1},
                                 "q": {0: 2}, "r": {0: 5}},
                        triples=[], packing=[], cost=[0.0, 0.0], d=2, m=0)
    asg = {(0, 0): "r", (2, 0): "p", (2, 1): "n", (2, 2): "z", (2, 3): "q"}
    x = labeling_vector(pbtl, asg)
    assert list(x.items()) == [(1, 1), (0, 2)]
    assert list(x.items()) == list(vec_sum(
        [pbtl.vector(asg[(2, i)]) for i in range(4)]).items())


def test_check_labeling_rejects_broken_assignments():
    inst = tiny_instance()
    red = reduce_chain(inst, 4, height_fn=fast_height)
    tab = oracle.enumerate_solutions(inst, 4, metric="nodes")
    vk = next(iter(tab.root_vectors(inst)))
    node = oracle.reconstruct_witness(inst, tab, inst.root, vk)
    lab = witness_to_labeling(red, node)
    # truncate: drop one assigned vertex that has an assigned parent
    deep = max(lab.assignment, key=lambda di: di[0])
    broken = dict(lab.assignment)
    del broken[deep]
    bad = Labeling(H=lab.H, assignment=broken, vector=lab.vector)
    with pytest.raises(ValueError):
        check_labeling(red.pbtl, bad)


def test_root_mark_and_bot_are_reserved():
    inst = tiny_instance()
    red = reduce_chain(inst, 4, height_fn=fast_height)
    assert red.shallow.root == ROOT_MARK
    assert all(l[1] == BOT for l in red.pbtl.labels
               if isinstance(l, tuple) and l[1] == BOT)


def test_lift_rejects_truncated_labeling():
    inst = tiny_instance()
    red = reduce_chain(inst, 4, height_fn=fast_height)
    lab = Labeling(H=red.H, assignment={(0, 0): red.pbtl.root}, vector={})
    with pytest.raises(ValueError):
        lift_labeling(red, lab)


def reference_pbtl(shallow, H):
    """The candidate-then-prune builder: every pair at every height, then
    drop the labels that cannot finish a subtree or are not reachable from
    the root.  ``ftl_to_pbtl`` must return exactly what this returns."""
    base_set = set(shallow.base)
    triples = []
    labels = set()

    def lab(h, l):
        out = (h, l)
        labels.add(out)
        return out

    for h in range(1, H + 1):
        for parent, children in shallow.pairs:
            if h == 1 and any(c not in base_set for c in children):
                continue  # children would need labels (0, non-base)
            if len(children) == 1:
                triples.append((lab(h, parent), lab(h - 1, children[0]),
                                lab(h - 1, BOT)))
            else:
                triples.append((lab(h, parent), lab(h - 1, children[0]),
                                lab(h - 1, children[1])))
        for b in shallow.base:
            triples.append((lab(h, b), lab(h - 1, b), lab(h - 1, BOT)))
        triples.append((lab(h, BOT), lab(h - 1, BOT), lab(h - 1, BOT)))
    labels.add((0, BOT))
    for b in shallow.base:
        labels.add((0, b))

    root = (H, shallow.root)
    labels.add(root)
    vectors = {}
    for b, x in shallow.base.items():
        if any(x.values()):
            vectors[(0, b)] = dict(x)

    productive = {(0, l) for (h, l) in labels if h == 0}
    by_parent = {}
    for t in triples:
        by_parent.setdefault(t[0], []).append(t)
    for h in range(1, H + 1):
        for parent in [p for p in by_parent if p[0] == h]:
            for t in by_parent[parent]:
                if t[1] in productive and t[2] in productive:
                    productive.add(parent)
                    break
    reach = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for p in frontier:
            for t in by_parent.get(p, ()):
                if t[1] in productive and t[2] in productive:
                    for c in (t[1], t[2]):
                        if c not in reach:
                            reach.add(c)
                            nxt.append(c)
        frontier = nxt
    keep = reach & (productive | {root})
    if root not in productive:
        keep = {root}   # degenerate: no valid labeling at all
    triples = [t for t in triples
               if t[0] in keep and t[1] in keep and t[2] in keep]
    vectors = {l: v for l, v in vectors.items() if l in keep}
    return PbtlInstance(H=H, labels=sorted(keep, key=repr), root=root,
                        vectors=vectors, triples=triples,
                        packing=shallow.packing, cost=shallow.cost,
                        d=shallow.d, m=shallow.m)


# Structures of the random family (n_max=8, d_max=6, m_max=3): the first 37,
# and three with 700-2,000 shallow pairs.  Structures 37, 42 and 56 also have
# phi <= 45, but the reference takes over a second each on them.
PBTL_STRUCTURES = (*range(37), 40, 44, 48)


def _family_cases(structures):
    cases = []
    for s in structures:
        inst = random_instance(random.Random(s), n_max=8, d_max=6, m_max=3)
        if instance_phi(inst) <= 45:
            cases.append((preprocess_instance(inst)[0], instance_phi(inst)))
    return cases


def test_pbtl_builder_matches_reference():
    cases = _family_cases(PBTL_STRUCTURES)
    cases.append(path_dp(layered_dag(4, 5), "s", "t"))
    assert len(cases) >= 30
    for inst, delta in cases:
        # the height solve_additive_dp uses at epsilon 1/2
        red = reduce_chain(inst, delta, height_fn=fast_height)
        for H in (red.H, red.H + 3, 2):
            got = ftl_to_pbtl(red.shallow, H)
            want = reference_pbtl(red.shallow, H)
            assert got.triples == want.triples
            assert got.labels == want.labels
            assert got.vectors == want.vectors
            assert got.root == want.root and got.H == H
        assert red.pbtl.triples    # the pipeline height admits a labeling


def test_walk_numbers_its_labels_in_repr_order():
    """The walk's label ids are the positions of its labels in
    ``sorted(labels, key=repr)``, and its id triples are the ones a copy
    derives from its labels and triples, as a hand-built instance does."""
    cases = _family_cases(PBTL_STRUCTURES)
    cases.append(path_dp(layered_dag(4, 5), "s", "t"))
    for inst, delta in cases:
        red = reduce_chain(inst, delta, height_fn=fast_height)
        for H in (red.H, red.H + 3, 2):
            got = ftl_to_pbtl(red.shallow, H)
            view = got.int_view()
            named = {label for t in got.triples for label in t}
            assert view.labels == sorted(named | {got.root}, key=repr)
            assert view.rank == {l: i for i, l in enumerate(view.labels)}
            copy = dataclasses.replace(got)
            assert copy.int_view() is not view
            derived = TripleIds.of(copy)
            assert derived.labels == view.labels
            for side in ("parent", "left", "right"):
                assert np.array_equal(getattr(derived, side),
                                      getattr(view, side)), side


def _same_pbtl(got, want):
    assert repr(got.labels) == repr(want.labels)
    assert repr(got.triples) == repr(want.triples)
    assert repr(list(got.vectors.items())) == repr(list(want.vectors.items()))
    assert got.root == want.root and got.H == want.H


def test_int_core_matches_string_reference():
    """The int-label closure and walk give the string-label references'
    shallow instance and PBTL byte for byte, order included.  The cases are
    PBTL_STRUCTURES, the benchmark's reduce-prune structures 2 and 158 (the
    first at its full phi of 49), and a 4x5 layered path DP."""
    cases = _family_cases(PBTL_STRUCTURES + (158,))
    inst = random_instance(random.Random(2), n_max=8, d_max=6, m_max=3)
    cases.append((preprocess_instance(inst)[0], instance_phi(inst)))
    cases.append(path_dp(layered_dag(4, 5), "s", "t"))
    for inst, delta in cases:
        red = reduce_chain(inst, delta, height_fn=fast_height)
        got = red.shallow
        want = reference_shallow(red.ftl2, red.delta2)
        assert repr(got.labels) == repr(want.labels)
        assert repr(got.pairs) == repr(want.pairs)
        assert repr(list(got.base.items())) == repr(list(want.base.items()))
        assert got.root == want.root
        bare = dataclasses.replace(got)   # derives its own ids
        for H in (red.H, 2):
            ref = reference_walk_pbtl(want, H)
            _same_pbtl(ftl_to_pbtl(got, H), ref)
            _same_pbtl(ftl_to_pbtl(bare, H), ref)


def test_hand_built_shallow_instance_gets_an_int_view():
    """An FtlInstance built by hand, with a label that only a pair names
    and a pair whose two children coincide, walks as the reference does."""
    ftl = FtlInstance(labels=["r", "a", "b", "c"], root="r",
                      base={"a": {0: 1}, "b": {}},
                      pairs=[("r", ("c",)), ("r", ("a", "b")),
                             ("c", ("e", "a")), ("e", ("b",)),
                             ("c", ("a", "a"))],
                      packing=[], cost=[1.0], d=1, m=0)
    for H in range(5):
        _same_pbtl(ftl_to_pbtl(ftl, H), reference_walk_pbtl(ftl, H))


def test_replaced_pbtl_recomputes_its_triple_caches():
    """A ``dataclasses.replace`` copy with other triples does not read the
    original's triples per parent or triple ids, and neither does the
    instance once its triples are set."""
    pb = reduce_chain(tiny_instance(), 4, height_fn=fast_height).pbtl
    assert len(oracle.pbtl_vector_set(pb)) == 2 and len(pb.int_view().parent)
    rootless = dataclasses.replace(
        pb, triples=[t for t in pb.triples if t[0] != pb.root])
    assert oracle.pbtl_vector_set(rootless) == set()
    assert rootless.int_view().decode() == rootless.triples
    pb.triples = rootless.triples
    assert oracle.pbtl_vector_set(pb) == set()
    assert pb.int_view().decode() == rootless.triples


def test_replaced_shallow_instance_gets_its_own_int_view():
    """A ``dataclasses.replace`` copy of ``ftl_shallow``'s output derives
    its ids from its own pairs, not from the view the closure ran on."""
    red = reduce_chain(tiny_instance(), 4, height_fn=fast_height)
    shallow = red.shallow
    assert len(ftl_to_pbtl(shallow, red.H).triples) == 51
    no_pairs = dataclasses.replace(shallow, pairs=[])
    assert no_pairs.int_view().pairs == []
    assert ftl_to_pbtl(no_pairs, red.H).triples == []


HASH_PROBE = """
import hashlib, json, random, sys
sys.path.insert(0, %r)
from conftest import random_instance
from treepack.core import instance_phi
from treepack.rounding import RoundingParams, solve_additive_dp
inst = random_instance(random.Random(20), n_max=8, d_max=6, m_max=3)
res = solve_additive_dp(inst, instance_phi(inst),
                        params=RoundingParams(mode="cost-preserving", seed=5))
print(repr(res.reduction.pbtl.triples))
print(hashlib.sha256(repr(res.reduction.shallow.pairs).encode()).hexdigest())
print(repr(res.witness.root))
print(json.dumps(res.diagnostics.to_json(), sort_keys=True))
res = solve_additive_dp(inst, instance_phi(inst),
                        params=RoundingParams(mode="cost-free", seed=5))
print(repr(res.witness.root))
print(json.dumps(res.diagnostics.to_json(), sort_keys=True))
""" % os.path.dirname(os.path.abspath(__file__))


def test_pbtl_and_solve_do_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        treepack.__file__)))
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", HASH_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout.splitlines())
    assert len(outs[0]) == 6
    assert outs[0] == outs[1]

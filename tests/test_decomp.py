import math
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from treepack.decomp import DeadEnd, Sampler, decompose_chi
from treepack.lp import (ProductiveTriples, RecursiveCertificate, _snap_phi,
                         attach_solution, build_hull_blocks, build_state_lp,
                         compact_to_recursive, normalize_epsilon, solve_lp)
from treepack.reduce import PbtlInstance, fast_height, reduce_chain

from conftest import random_instance
from reference_lp import child_masses, cons_rows, keyed_phi, root_keys
from reference_rounding import reference_sample_labeling
from test_lp import LP_CASES


def two_triple_pbtl():
    """Root label r with two triples.  The packing row caps the a-branch at
    half the mass while the cost pushes toward it, so the LP optimum puts
    phi = 1/2 on each triple -- a genuinely mixed certificate."""
    return PbtlInstance(H=1, labels=["r", "a", "b"], root="r",
                        vectors={"a": {0: 1}, "b": {1: 1}},
                        triples=[("r", "a", "a"), ("r", "b", "b")],
                        packing=[{0: 1.0}], cost=[0.0, 1.0], d=2, m=1)


def two_level_pbtl():
    """The two-triple instance one level deeper: r -> a a | b b, then
    a -> x x and b -> y y.  The packing row caps the a-branch at a quarter
    of the mass, so the root mixes, and locals 2 and 3 share the label a
    (and b), whose depth-1 flow rows count each root triple twice."""
    return PbtlInstance(H=2, labels=["r", "a", "b", "x", "y"], root="r",
                        vectors={"x": {0: 1}, "y": {1: 1}},
                        triples=[("r", "a", "a"), ("r", "b", "b"),
                                 ("a", "x", "x"), ("b", "y", "y")],
                        packing=[{0: 1.0}], cost=[0.0, 1.0], d=2, m=1)


def _solved(pbtl, eps=1.0):
    coll = normalize_epsilon(pbtl, eps)
    sol = build_state_lp(coll, pbtl)
    res = solve_lp(sol.model)
    assert res.status == "optimal"
    attach_solution(sol, res)
    return sol, coll


def _solved_root(pbtl, eps=1.0):
    sol, coll = _solved(pbtl, eps)
    return compact_to_recursive(sol).root(), coll


def _sample(smp, rng):
    """One draw of the Sampler ``smp``: (leaf_labels, chosen)."""
    return smp.spell_out(smp.draw(rng)[1])


def _rebuilt(terms):
    """sum_j lam_j * c_d(t): each term's lam once per inner local that
    chose t, summed per (depth, triple)."""
    acc = {}
    for lam, _, chosen in terms:
        for u, t in chosen.items():
            k = (u.bit_length() - 1, t)
            acc[k] = acc.get(k, Fraction(0)) + Fraction(lam)
    return acc


def test_decompose_reconstructs_phi_exactly():
    cert, _ = _solved_root(two_triple_pbtl())
    terms = decompose_chi(cert, exact=True)
    assert _rebuilt(terms) == {k: Fraction(v)
                               for k, v in keyed_phi(cert).items()}


def test_decompose_and_sample_follow_triple_order():
    """Both walk a node's triples in position order, which is repr order:
    decomposition peels the smallest positive triple first, and a draw r in
    [0, 1) picks the first triple whose cumulative mass reaches r."""
    cert, _ = _solved_root(two_triple_pbtl())
    small, large = ("r", "a", "a"), ("r", "b", "b")
    assert list(keyed_phi(cert)) == [(0, small), (0, large)]
    terms = decompose_chi(cert, exact=True)
    assert [chosen[1] for _, _, chosen in terms] == [small, large]
    for r, want in ((0.25, small), (0.75, large)):
        # the sampler draws a depth's uniforms in one call
        draw = SimpleNamespace(random=lambda size, r=r: np.full(size, r))
        assert _sample(Sampler(cert), draw)[1] == {1: want}


def _flows(phi, keys):
    return sum(Fraction(phi.get(k, 0.0)) for k in keys)


@pytest.mark.parametrize("bump", [None, 2.0 ** -40],
                         ids=["one-ulp", "above-grid"])
def test_certificate_phi_conserves_flow_after_snap(bump):
    # raise the root's a-branch triple by one ulp (absorbed by the grid) or
    # by 2^-40 (kept by the grid, so the flow rows below must follow it);
    # phi is keyed by (depth, triple), in the LP and in the certificate
    sol, _ = _solved(two_level_pbtl())
    rec = sol.records[(sol.pbtl.root,)]
    var = rec.phi[root_keys(rec.block)[0]]
    raw = sol.values[var]
    sol.values[var] = np.nextafter(raw, 2.0) if bump is None else raw + bump
    scale = sol.values[rec.psi]
    raw_phi = {k: Fraction(sol.values[v]) / Fraction(scale)
               for k, v in rec.phi.items()}
    blk = rec.block
    assert any(_flows(raw_phi, ink) != _flows(raw_phi, outk)
               for outk, ink in cons_rows(blk))
    cert = compact_to_recursive(sol).root()
    assert cert.block is blk
    phi = keyed_phi(cert)
    for outk, ink in cons_rows(blk):
        assert _flows(phi, outk) == _flows(phi, ink)
    for k, w in raw_phi.items():
        assert abs(Fraction(phi.get(k, 0)) - w) <= 1e-9
    keys, masses = blk.phi_keys, child_masses(cert)
    for L, pos, counts in blk.inflow:
        assert Fraction(masses.get(L, 0.0)) == sum(
            n * _flows(phi, [keys[j]]) for n, j in zip(counts, pos))
    terms = decompose_chi(cert, exact=True)
    assert sum(Fraction(l) for l, _, _ in terms) == _flows(
        phi, root_keys(blk))


def _shared_label_certificate():
    """A hand-built merged certificate whose depth-1 label a sits at both
    locals 2 and 3 (root triple (r, a, a)) and at local 2 alone ((r, a,
    b)), so In_1(a) = 2 * 1/2 + 1/2 = 3/2, and both a-labeled locals carry
    mass over three positive triples of a."""
    pb = PbtlInstance(H=2, labels=["r", "a", "b", "x", "y"], root="r",
                      vectors={"x": {0: 1}, "y": {1: 1}},
                      triples=[("r", "a", "a"), ("r", "a", "b"),
                               ("a", "x", "x"), ("a", "x", "y"),
                               ("a", "y", "y"), ("b", "x", "x"),
                               ("b", "y", "y")],
                      packing=[], cost=[0.0, 0.0], d=2, m=0)
    coll = normalize_epsilon(pb, 1.0)
    tri = ProductiveTriples(pb)
    blk, = build_hull_blocks(coll, tri, [tri.rank["r"]], 2)
    phi = {(0, ("r", "a", "a")): 0.5, (0, ("r", "a", "b")): 0.5,
           (1, ("a", "x", "x")): 0.25, (1, ("a", "x", "y")): 0.5,
           (1, ("a", "y", "y")): 0.75, (1, ("b", "x", "x")): 0.25,
           (1, ("b", "y", "y")): 0.25}
    assert sorted(phi) == sorted(blk.phi_keys)
    for outk, ink in cons_rows(blk):
        assert _flows(phi, outk) == _flows(phi, ink)
    return RecursiveCertificate(x={}, phi=np.array([phi[k] for k in
                                                    blk.phi_keys]),
                                block=blk, key=("r",))


def _without_node(cert, depth):
    """cert with no phi on the first node at ``depth`` that has some: the
    locals that carry that node's label there have no mass.  Returns the
    certificate and the node's first position."""
    blk, phi = cert.block, cert.phi.copy()
    start = blk.node_start.tolist()
    a, b = next((a, b) for a, b in zip(start, start[1:])
                if blk.depth[a] == depth and phi[a:b].any())
    phi[a:b] = 0
    return replace(cert, phi=phi), a


def _sampled_certificates(name):
    """Every certificate with mass of the LP_CASES model ``name`` (or the
    shared-label certificate), and one copy of the largest with a massless
    node at depth 1."""
    if name == "shared-label":
        certs = [_shared_label_certificate()]
    else:
        coll, pb = LP_CASES[name]()
        sol = build_state_lp(coll, pb)
        res = solve_lp(sol.model)
        certs = []
        if res.status == "optimal":
            certs = list(compact_to_recursive(
                attach_solution(sol, res)).certs.values())
        if not certs:
            return [], None
    hollow, _ = _without_node(max(certs, key=lambda c:
                                  np.count_nonzero(c.phi)), 1)
    return certs, hollow


@pytest.mark.parametrize("name", [*sorted(LP_CASES), "shared-label"])
def test_sampler_matches_scalar_reference(name):
    """The per-certificate sampling table with one draw call per depth
    gives the scalar sampler's leaves and chosen triples, in order, draw
    after draw, and leaves the generator in the scalar sampler's state.
    A local without mass takes ``ProductiveTriples.first`` of its height
    and label, and draws nothing."""
    certs, hollow = _sampled_certificates(name)
    if not certs:       # a null or unproductive root: nothing is sampled
        assert name in ("random21", "random0-h2")
        return
    fell = []

    def first(rem, lab):
        fell.append(lab)
        return hollow.block.table.first(rem, lab)

    for cert in [*certs, hollow]:
        smp = Sampler(cert)
        for seed in range(4):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                leaves, chosen = _sample(smp, rng)
                want_leaves, want = reference_sample_labeling(cert, ref,
                                                              first)
                assert leaves == want_leaves
                assert list(chosen.items()) == list(want.items())
                assert rng.bit_generator.state == ref.bit_generator.state
    assert fell


def _merged_certificates():
    return [pytest.param(lambda: _solved_root(two_level_pbtl())[0],
                         id="two-level"),
            pytest.param(_shared_label_certificate, id="shared-label")]


@pytest.mark.parametrize("make", _merged_certificates())
def test_exact_decompose_rebuilds_merged_phi(make):
    """The terms give every depth-d local labeled L one triple, and
    sum_j lam_j * c_d(t) rebuilds phi_d(t) exactly, with no more terms than
    positive entries."""
    cert = make()
    phi = {k: Fraction(v) for k, v in keyed_phi(cert).items()}
    terms = decompose_chi(cert, exact=True)
    assert _rebuilt(terms) == phi
    assert len(terms) <= len(phi)
    half = 1 << cert.block.step
    for _, leaves, chosen in terms:
        labels = cert.block.labels_of(chosen)
        picked = {}
        for u, t in chosen.items():
            key = (u.bit_length() - 1, labels[u])
            assert picked.setdefault(key, t) == t
        assert leaves == tuple(labels[half + s] for s in range(half))


def test_shared_label_decomposition_peels_in_repr_order():
    """Where both a-labeled locals carry mass, a term gives them one
    triple: c_1(t) = 2 while the root takes (r, a, a), and the bottleneck
    is phi_1(t) / 2."""
    terms = decompose_chi(_shared_label_certificate(), exact=True)
    got = [(lam, chosen[1], chosen[2], chosen[3])
           for lam, _, chosen in terms]
    raa, rab = ("r", "a", "a"), ("r", "a", "b")
    axx, axy, ayy = ("a", "x", "x"), ("a", "x", "y"), ("a", "y", "y")
    assert got == [(Fraction(1, 8), raa, axx, axx),
                   (Fraction(1, 4), raa, axy, axy),
                   (Fraction(1, 8), raa, ayy, ayy),
                   (Fraction(1, 4), rab, ayy, ("b", "x", "x")),
                   (Fraction(1, 4), rab, ayy, ("b", "y", "y"))]


@pytest.mark.parametrize("make", _merged_certificates())
def test_sampling_draws_merged_conditionals(make):
    """Among the sampled depth-d locals labeled L, triple t is drawn with
    frequency phi_d(t) / In_d(L), within criterion 4's bound."""
    cert = make()
    smp, phi = Sampler(cert), keyed_phi(cert)
    rng = np.random.default_rng(4)
    n = 10 ** 4
    seen, drawn = {}, {}
    for _ in range(n):
        _, chosen = _sample(smp, rng)
        for u, t in chosen.items():
            d = u.bit_length() - 1
            seen[(d, t[0])] = seen.get((d, t[0]), 0) + 1
            drawn[(d, t)] = drawn.get((d, t), 0) + 1
    inflow = {}
    for (d, t), w in phi.items():
        inflow[(d, t[0])] = inflow.get((d, t[0]), 0.0) + w
    for (d, t), w in phi.items():
        p = w / inflow[(d, t[0])]
        m = seen[(d, t[0])]
        sigma = math.sqrt(p * (1 - p) / m)
        assert abs(drawn.get((d, t), 0) / m - p) <= 4 * max(sigma, 1e-4)


_G = 2.0 ** -50     # one step of the phi grid of a step-0 block


@pytest.mark.parametrize("phi, want", [
    ({"R": 0.5 + 2 ** -45, "A": 0.25, "B": 0.25},
     {"R": 0.5 + 2 ** -45, "A": 0.25 + 2 ** -45, "B": 0.25}),
    ({"R": 0.5, "A": 0.25, "B": 0.25 + 2 ** -45},
     {"R": 0.5, "A": 0.25, "B": 0.25}),
    ({"R": _G, "A": 2 * _G, "B": 2 * _G}, {"R": _G, "B": _G}),
    ({"A": 0.3, "B": 0.1}, {}),
], ids=["tie-to-first", "largest", "borrow-from-next", "no-inflow"])
def test_snap_moves_remainder_onto_largest_triple(phi, want):
    # positions R (the root's triple), then A and B (the triples of the one
    # child node); its flow row is A + B - R == 0
    names = ("R", "A", "B")
    block = SimpleNamespace(step=0, node_start=np.array([0, 1, 3]),
                            flow_pos=np.array([1, 2, 0]),
                            flow_start=np.array([0, 3]),
                            flow_coef=np.array([1, 1, -1]), flow_levels=[0, 1])
    got = _snap_phi(np.array([phi.get(k, 0.0) for k in names]), block)
    assert {k: w for k, w in zip(names, got.tolist()) if w} == want


@pytest.mark.parametrize("local", [2, 3])
@pytest.mark.parametrize("shift", [-2.0 ** -30, 2.0 ** -30],
                         ids=["outflow-short", "outflow-over"])
def test_exact_decompose_rejects_point_outside_hull(local, shift):
    # too little outflow at a local strands root mass; too much leaves phi
    # over once the root mass is spent -- either way no exact decomposition.
    # Locals 2 and 3 share the merged phi of depth 1, which is shifted.
    cert, _ = _solved_root(two_level_pbtl())
    phi = cert.phi.copy()
    at = np.flatnonzero(cert.block.depth == local.bit_length() - 1)
    phi[at[np.argmax(phi[at])]] += shift
    with pytest.raises(DeadEnd, match="not in the hull"):
        decompose_chi(replace(cert, phi=phi), exact=True)
    terms = decompose_chi(replace(cert, phi=phi))
    assert sum(l for l, _, _ in terms) == pytest.approx(1.0)


def test_decompose_float_mode_normalizes():
    cert, _ = _solved_root(two_triple_pbtl())
    terms = decompose_chi(cert)
    assert sum(l for l, _, _ in terms) == pytest.approx(1.0)
    assert len(terms) <= np.count_nonzero(cert.phi)


def test_decompose_dead_end_on_empty_certificate():
    cert, _ = _solved_root(two_triple_pbtl())
    hollow = replace(cert, phi=np.zeros_like(cert.phi))
    with pytest.raises(DeadEnd):
        decompose_chi(hollow)


def test_sampling_marginals_match_phi():
    cert, _ = _solved_root(two_triple_pbtl())
    smp = Sampler(cert)
    rng = np.random.default_rng(7)
    counts = {}
    n = 4000
    for _ in range(n):
        leaves, chosen = _sample(smp, rng)
        counts[leaves] = counts.get(leaves, 0) + 1
    for (u, t), p in keyed_phi(cert).items():
        got = counts.get((t[1], t[2]), 0) / n
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(got - p) <= 4 * max(sigma, 1e-3)


def test_sampler_takes_first_triple_without_mass():
    """A certificate with no mass at all draws its root's first triple,
    (r, a, a), and no uniform."""
    cert, _ = _solved_root(two_triple_pbtl())
    hollow = replace(cert, phi=np.zeros_like(cert.phi))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert _sample(Sampler(hollow), rng) == (("a", "a"),
                                             {1: ("r", "a", "a")})
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", [*sorted(LP_CASES), "shared-label"])
def test_emptied_node_draws_its_first_triple(name):
    """A certificate whose first depth-1 node with mass is emptied: every
    local that carries its label takes the node's first position, which is
    ``ProductiveTriples.first`` of its height and label.  The decomposition
    never passes through a node without mass: exactly, the point is not in
    the hull; in floats, no term takes the emptied label's triples."""
    certs, _ = _sampled_certificates(name)
    certs = [cert for cert in certs if cert.block.step > 1]
    seen = 0
    for cert in certs:
        hollow, a = _without_node(cert, 1)
        blk = hollow.block
        first = blk.table.all[blk.tri[a]]
        assert first == blk.table.first(blk.rem - 1, first[0])
        smp, rng = Sampler(hollow), np.random.default_rng(1)
        for _ in range(20):
            _, chosen = _sample(smp, rng)
            for u in (2, 3):
                if chosen[1][u - 1] == first[0]:
                    assert chosen[u] == first
                    seen += 1
        with pytest.raises(DeadEnd, match="not in the hull"):
            decompose_chi(hollow, exact=True)
        try:
            terms = decompose_chi(hollow)
        except DeadEnd:
            continue
        for _, _, chosen in terms:
            assert chosen[2][0] != first[0] and chosen[3][0] != first[0]
    assert seen or not certs


def test_decompose_on_random_reduced_instances():
    done = 0
    for seed in range(20):
        rng = random.Random(700 + seed)
        inst = random_instance(rng, n_max=4, d_max=3, m_max=2)
        red = reduce_chain(inst, rng.randint(1, 3), height_fn=fast_height)
        try:
            cert, coll = _solved_root(red.pbtl, eps=0.5)
        except AssertionError:
            continue  # LP infeasible under packing; not this test's concern
        if cert is None:
            continue
        terms = decompose_chi(cert)
        assert sum(l for l, _, _ in terms) == pytest.approx(1.0)
        for lam, leaves, chosen in terms:
            assert lam > 0
            assert len(leaves) == coll.arity
        done += 1
    assert done >= 5

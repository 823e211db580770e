"""Randomized rounding of compact LP solutions, and the end-to-end solver.

Two rounding modes:

* cost-free: walk the super-tree from the root, sampling each block
  independently from its certificate's marginals;
* cost-preserving: per super-layer, decompose every vertex's certificate
  into a convex combination of partial labelings and round all of them
  simultaneously with a bit-by-bit pairing scheme whose every move weakly
  decreases the linear cost -- so the final cost never exceeds the LP cost
  (up to LP solver residuals).

``boost`` repeats a rounding and keeps the attempt with the smallest packing
violation.  ``solve_additive_dp`` runs the whole pipeline: reduce, build and
solve the LP, round, and lift the best labeling back to a DP witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (DiagnosticsReport, WitnessNode, check_packing,
                   instance_phi, make_witness, preprocess_instance,
                   validate_instance, vec_dot)
from .decomp import DeadEnd, decompose_chi, sample_labeling
from .lp import (ProductiveTriples, attach_solution, build_state_lp,
                 compact_to_recursive, dump_lp, lp_solver, normalize_epsilon,
                 solve_lp)
# not called here; perfbench/traced.py times rounding.productive_table
from .lp import productive_table  # noqa: F401
from .reduce import (Labeling, check_epsilon, check_labeling, is_dummy,
                     layered_height, lift_labeling, reduce_chain)


# ---------------------------------------------------------------------------
# violation ceiling


def violation_bound(n, eps, m):
    """Soft empirical ceiling for cost-free rounding violations."""
    return 64.0 * (n ** eps / eps) * math.log(m + 2)


# ---------------------------------------------------------------------------
# the pairing rounding (works on any partitioned fractional vector)


def semi_random_round(lam, groups, K, cost, rng):
    """Round lam (>= 0, integral sums within each group) to integers.

    Scaled to the grid 1/2^K, then K passes: at pass k the coordinates whose
    current value is an odd multiple of 2^(K-k-1) are paired within their
    groups in index order, and each pair moves +-2^(K-k-1) in the orientation
    with non-positive cost change (random when both orientations cost the
    same, via a random proposal that is flipped when it costs).

    Guarantees: group sums never change and cost never increases; the result
    is a nonnegative integer vector.
    """
    n = len(lam)
    scale = 1 << K
    mu = [0] * n
    for grp in groups:
        tot = float(sum(lam[i] for i in grp))
        tgt = round(tot)
        if abs(tot - tgt) > 1e-6:
            raise ValueError("group sum %r is not integral" % tot)
        units = tgt * scale
        frac = {}
        for i in grp:
            v = lam[i] * scale
            b = int(math.floor(v + 1e-9))
            mu[i] = b
            frac[i] = float(v) - b
        deficit = units - sum(mu[i] for i in grp)
        if deficit < 0:
            raise ValueError("negative rounding deficit")
        # hand the remaining units to the cheapest fractional coordinates;
        # the result is the cost-minimal vertex of the floor/ceil polytope,
        # which cannot cost more than lam itself
        order = sorted((i for i in grp if frac[i] > 1e-9),
                       key=lambda i: (cost[i], i))
        if deficit > len(order):        # numerical corner: allow any coord
            order = sorted(grp, key=lambda i: (cost[i], i))
        for i in order[:deficit]:
            mu[i] += 1
    for k in range(K - 1, -1, -1):
        q = 1 << (K - k - 1)
        for grp in groups:
            odd = [i for i in grp if (mu[i] // q) % 2 == 1]
            for a, b in zip(odd[0::2], odd[1::2]):
                sgn = 1 if rng.random() < 0.5 else -1
                if (cost[a] - cost[b]) * sgn > 0:
                    sgn = -sgn
                mu[a] += sgn * q
                mu[b] -= sgn * q
    out = []
    for i in range(n):
        if mu[i] % scale:
            raise AssertionError("non-integral result")
        if mu[i] < 0:
            raise AssertionError("negative result")
        out.append(mu[i] // scale)
    return out


def default_k_bits(support, n_items):
    """Smallest K with 2^K >= 16 * support * n."""
    k = 0
    need = 16 * max(1, support) * max(1, n_items)
    while (1 << k) < need:
        k += 1
    return k


# ---------------------------------------------------------------------------
# writing sampled blocks into a sparse labeling


def fill_canonical(pbtl, triples, asg, depth, index, label):
    """Write the first valid completion in ``triples`` order below (depth,
    index); used for zero-vector subtrees the LP does not model and for
    numerical dead ends.  Dummy subtrees are not written down."""
    stack = [(depth, index, label)]
    while stack:
        d, i, lab = stack.pop()
        if is_dummy(pbtl.H, d, lab):
            continue
        asg[(d, i)] = lab
        if d == pbtl.H:
            continue
        t = triples.first(pbtl.H - d, lab)
        if t is None:
            raise DeadEnd("label %r is a dead end at depth %d" % (lab, d))
        stack.append((d + 1, 2 * i, t[1]))
        stack.append((d + 1, 2 * i + 1, t[2]))


def _write_block(pbtl, asg, k, v, chosen, block):
    """Inner labels of one sampled block at super-vertex (layer k, index v)."""
    g = block.step
    labels = block.labels_of(chosen)
    for u, lab in labels.items():
        lev = u.bit_length() - 1
        if 0 < lev < g:
            d = k * g + lev
            i = v * (1 << lev) + (u - (1 << lev))
            if not is_dummy(pbtl.H, d, lab):
                asg[(d, i)] = lab


def _write_picks(pbtl, labeling, picks):
    """Write the inner labels of the sampled blocks ``picks``, (layer k,
    index v, chosen triples, block) each, into ``labeling``.  They never
    reach depth H, so the labeling's vector stays as it is."""
    for k, v, chosen, block in picks:
        _write_block(pbtl, labeling.assignment, k, v, chosen, block)


# ---------------------------------------------------------------------------
# cost-free rounding


def round_without_cost(source, collapsed, pbtl, rng, triples=None):
    """Sample one labeling from the LP marginals, block by block.

    Returns (labeling, picks).  The labeling lacks the inner labels of the
    sampled blocks ``picks``; ``boost`` writes them (``_write_picks``) for
    the one sample it keeps.  The vector is complete."""
    if triples is None:
        triples = ProductiveTriples(pbtl)
    g, K = collapsed.step, collapsed.layers
    asg = {}
    root = source.root()
    queue = [(0, 0, pbtl.root, root)]
    picks = []
    while queue:
        k, v, lab, cert = queue.pop()
        depth = k * g
        if not is_dummy(pbtl.H, depth, lab):
            asg[(depth, v)] = lab
        if k == K:
            continue
        if cert is None or cert.null or not cert.phi or cert.block is None:
            fill_canonical(pbtl, triples, asg, depth, v, lab)
            continue
        leaves, chosen = sample_labeling(cert, rng, fallback=triples.first)
        picks.append((k, v, chosen, cert.block))
        for slot in range(collapsed.arity):
            lc = leaves[slot]
            if is_dummy(pbtl.H, depth + g, lc):
                continue
            queue.append((k + 1, v * collapsed.arity + slot, lc,
                          source.child(cert, lc)))
    return Labeling.of(pbtl, asg), picks


# ---------------------------------------------------------------------------
# cost-preserving rounding


@dataclass
class LayerState:
    """Bookkeeping of one rounded super-layer."""
    layer: int
    k_bits: int
    cost_before: float            # sum over vertices of lam . ctilde
    cost_after: float             # cost of the selected tuples
    pack_before: list             # same aggregation per packing row
    vertices: int = 0


def round_with_cost(source, collapsed, pbtl, rng, triples=None,
                    decomp_cache=None):
    """Layer-by-layer rounding that never increases the LP cost.

    Every super-vertex of the current layer contributes the convex
    decomposition of its certificate; all tuples of the layer are rounded at
    once by ``semi_random_round`` with the tuple costs as the objective.
    Decompositions are kept in ``decomp_cache`` (certificate key -> terms
    as ``_priced_terms`` gives them); ``decompose_chi`` is deterministic,
    so the trials of one solve share one cache over the same ``source``.

    Returns (labeling, [LayerState...], picks), the labeling and picks as in
    ``round_without_cost``.
    """
    if triples is None:
        triples = ProductiveTriples(pbtl)
    g, K = collapsed.step, collapsed.layers
    asg = {}
    root = source.root()
    if not is_dummy(pbtl.H, 0, pbtl.root):
        asg[(0, 0)] = pbtl.root
    if root is None or root.null or not root.phi:
        fill_canonical(pbtl, triples, asg, 0, 0, pbtl.root)
        return Labeling.of(pbtl, asg), [], []

    layer = [(0, pbtl.root, root)]
    states, picks = [], []
    if decomp_cache is None:
        decomp_cache = {}
    for k in range(K):
        if not layer:       # everything below was filled canonically
            break
        depth = k * g

        def child_vector(cert, lc):
            if k + 1 == K:
                return pbtl.vector(lc)
            return source.child(cert, lc).x

        lams, costs, rowvals, groups, items = [], [], [], [], []
        for v, lab, cert in layer:
            ckey = cert.key if cert.key is not None else id(cert)
            if ckey not in decomp_cache:
                decomp_cache[ckey] = _priced_terms(
                    decompose_chi(cert), cert, depth + g, child_vector, pbtl)
            grp = []
            for lam, chosen, kids, c, rows in decomp_cache[ckey]:
                grp.append(len(lams))
                lams.append(lam)
                costs.append(c)
                rowvals.append(rows)
                items.append((chosen, kids))
            groups.append(grp)
        kb = default_k_bits(max(len(grpp) for grpp in groups), len(groups))
        sel = semi_random_round(lams, groups, kb, costs, rng)
        st = LayerState(
            layer=k, k_bits=kb,
            cost_before=float(sum(l * c for l, c in zip(lams, costs))),
            cost_after=float(sum(c for c, p in zip(costs, sel) if p)),
            pack_before=[float(sum(l * rows[r]
                                   for l, rows in zip(lams, rowvals)))
                         for r in range(len(pbtl.packing))],
            vertices=len(layer))
        states.append(st)
        nxt = []
        for (v, lab, cert), grp in zip(layer, groups):
            picked = [j for j in grp if sel[j]]
            if len(picked) != 1:
                raise AssertionError("rounding selected %d tuples"
                                     % len(picked))
            chosen, kids = items[picked[0]]
            picks.append((k, v, chosen, cert.block))
            for slot, lc in kids:
                cd, ci = depth + g, v * collapsed.arity + slot
                asg[(cd, ci)] = lc
                if k + 1 == K:
                    continue
                ch = source.child(cert, lc)
                if ch is None or ch.null or not ch.phi or ch.block is None:
                    fill_canonical(pbtl, triples, asg, cd, ci, lc)
                else:
                    nxt.append((ci, lc, ch))
        layer = nxt
    return Labeling.of(pbtl, asg), states, picks


def _priced_terms(terms, cert, depth, child_vector, pbtl):
    """Each decomposition term as (lam, chosen, kids, cost, rows): kids are
    its (slot, label) children at ``depth`` that are not dummies, and cost
    and rows are the cost and the packing-row values of their summed
    vectors.  Child vectors depend only on the certificate and the child
    label, so the trials of a solve share these."""
    out = []
    for lam, leaves, chosen in terms:
        kids = [(slot, lc) for slot, lc in enumerate(leaves)
                if not is_dummy(pbtl.H, depth, lc)]
        acc = {}
        for _, lc in kids:
            for i, w in child_vector(cert, lc).items():
                acc[i] = acc.get(i, 0.0) + w
        rows = [sum(a.get(i, 0) * acc.get(i, 0.0) for i in acc)
                for a in pbtl.packing]
        out.append((lam, chosen, kids, vec_dot(pbtl.cost, acc), rows))
    return out


# ---------------------------------------------------------------------------
# boosting


def boost(round_fn, pbtl, trials, seed_seq):
    """Run round_fn(rng) several times; keep the labeling with the smallest
    maximum packing row value (ties: smaller cost, then earlier trial).

    round_fn returns (labeling, layer states or None, picks), the labeling
    and picks as ``round_without_cost`` gives them; the inner labels are
    written for the kept labeling only."""
    best = None
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(seed_seq.spawn(1)[0]))
        labeling, layers, picks = round_fn(rng)
        rows = [sum(a.get(i, 0) * w for i, w in labeling.vector.items())
                for a in pbtl.packing]
        viol = max(rows) if rows else 0.0
        cval = vec_dot(pbtl.cost, labeling.vector)
        key = (viol, cval, trial)
        if best is None or key < best[0]:
            best = (key, labeling, rows, layers, picks)
    key, labeling, rows, layers, picks = best
    _write_picks(pbtl, labeling, picks)
    return labeling, {"maxViolation": key[0], "cost": key[1],
                      "perRow": rows, "trial": key[2], "layers": layers}


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class RoundingParams:
    mode: str = "cost-free"            # or "cost-preserving"
    trials: int | None = None          # None: default_trials
    seed: int = 0
    solver: str = "highs"              # an LP method of lp.lp_solver
    dump_lp_path: str | None = None

    def check(self):
        """ValueError on an unknown mode or LP method, a trial count that
        is not a positive int, or a negative seed."""
        if self.mode not in ("cost-free", "cost-preserving"):
            raise ValueError("unknown rounding mode %r" % (self.mode,))
        if self.trials is not None and (type(self.trials) is not int
                                        or self.trials < 1):
            raise ValueError("trials must be a positive integer, not %r"
                             % (self.trials,))
        lp_solver(self.solver)
        np.random.SeedSequence(self.seed)


@dataclass
class SolveResult:
    status: str                        # "ok" | "lp-infeasible" | "no-solution"
    witness: object = None
    labeling: object = None
    diagnostics: DiagnosticsReport | None = None
    lp_objective: object = None
    reduction: object = None
    detail: dict = field(default_factory=dict)


def default_trials(mode, eps, m):
    if mode == "cost-preserving":
        return 20 * math.ceil(1 + math.log(1 / eps) / math.log(max(m, 2)))
    return 20


def _reindex_choices(inst, inst2, node):
    """Map a witness over a preprocessed instance back to the original:
    preprocessing only deletes choices, so each surviving choice appears
    verbatim in the original problem at a possibly larger index."""
    p2 = inst2.problem(node.problem_id)
    if p2.base:
        return node
    ci = inst.problem(node.problem_id).choices.index(p2.choices[node.choice_index])
    kids = tuple(_reindex_choices(inst, inst2, c) for c in node.children)
    return WitnessNode(problem_id=node.problem_id, choice_index=ci,
                       children=kids)


def prepare_instance(inst):
    """The instance a solve reduces and whether its root survives, as
    ``preprocess_instance`` gives them; ValueError for an invalid one."""
    errs = validate_instance(inst)
    if errs:
        raise ValueError("invalid instance: " + "; ".join(errs))
    return preprocess_instance(inst)


def solve_additive_dp(inst, delta, eps=0.5, params=None):
    """Reduce, relax, round, lift.  The returned witness (if any) is always
    verified against the instance; packing rows may exceed 1 by design.
    ``eps`` and ``params`` are checked before any work (ValueError)."""
    check_epsilon(eps)
    params = params or RoundingParams()
    params.check()
    inst2, ok = prepare_instance(inst)
    if not ok:
        return SolveResult(status="no-solution")

    # the height is a multiple of the LP's 1/eps super-layers
    red = reduce_chain(inst2, delta,
                       height_fn=partial(layered_height, eps=eps))
    pbtl = red.pbtl
    coll = normalize_epsilon(pbtl, eps)

    sol = build_state_lp(coll, pbtl)
    if params.dump_lp_path:
        with open(params.dump_lp_path, "w") as fh:
            dump_lp(sol.model, fh)
    res = solve_lp(sol.model, params.solver)
    if res.status == "infeasible":
        return SolveResult(status="lp-infeasible", reduction=red)
    if res.status != "optimal":
        raise RuntimeError("LP solver returned %s" % res.status)
    attach_solution(sol, res)
    source = compact_to_recursive(sol)

    trials = params.trials or default_trials(params.mode, float(coll.eps),
                                             inst.m)
    seed_seq = np.random.SeedSequence(params.seed)
    if params.mode == "cost-preserving":
        decomp_cache = {}
        fn = lambda rng: round_with_cost(source, coll, pbtl, rng,
                                         triples=sol.triples,
                                         decomp_cache=decomp_cache)
    else:
        def fn(rng):
            labeling, picks = round_without_cost(source, coll, pbtl, rng,
                                                 triples=sol.triples)
            return labeling, None, picks

    labeling, info = boost(fn, pbtl, trials, seed_seq)

    check_labeling(pbtl, labeling)
    witness = lift_labeling(red, labeling)
    if inst2 is not inst:
        witness = make_witness(inst, _reindex_choices(inst, inst2,
                                                      witness.root))
    rows, viol = check_packing(inst, witness.vector)
    diag = DiagnosticsReport(
        per_row_packing=rows, max_violation=viol,
        cost_value=vec_dot(inst.cost, witness.vector),
        lp_cost=res.objective, phi=instance_phi(inst), delta_used=delta,
        seed=params.seed, trials_run=trials)
    return SolveResult(status="ok", witness=witness, labeling=labeling,
                       diagnostics=diag, lp_objective=res.objective,
                       reduction=red, detail=info)

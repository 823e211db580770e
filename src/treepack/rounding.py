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
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (DiagnosticsReport, WitnessNode, check_packing,
                   instance_phi, make_witness, preprocess_instance,
                   validate_instance, vec_dot)
from .decomp import DeadEnd, Sampler, decompose_chi
from .lp import (attach_solution, build_state_lp, compact_to_recursive,
                 dump_lp, normalize_epsilon, solve_lp)
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


def _grid_start(lam, groups, K, cost):
    """The start of the pairing rounding, which rounds lam (>= 0, integral
    sums within each group) to integers: lam scaled to the grid 1/2^K and
    rounded within each group to the cost-minimal vertex of the floor/ceil
    polytope with the group's sum.  Group sums do not change, cost does not
    increase, and no random draw is made.  ``_pair_off`` finishes."""
    scale = 1 << K
    mu = [0] * len(lam)
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
    return mu


def _pair_off(mu, groups, K, cost, rng):
    """The K pairing passes on the grid start mu (updated in place) of
    ``_grid_start``; returns the integer result.  At pass k the coordinates
    whose current value is an odd multiple of 2^(K-k-1) are paired within
    their groups in index order, and each pair moves +-2^(K-k-1) in the
    orientation with non-positive cost change (random when both orientations
    cost the same, via a random proposal that is flipped when it costs).

    Guarantees: group sums never change and cost never increases; the
    result is a nonnegative integer vector.  A group whose start lies on the
    integer grid never pairs, so ``groups`` may leave it out."""
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
    scale = 1 << K
    out = []
    for m in mu:
        if m % scale:
            raise AssertionError("non-integral result")
        if m < 0:
            raise AssertionError("negative result")
        out.append(m // scale)
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


def _completion(pbtl, triples, depth, label):
    """``triples.completion`` below a depth-``depth`` vertex; DeadEnd when
    there is none."""
    got = triples.completion(pbtl.H - depth, label)
    if got is None:
        raise DeadEnd("label %r is a dead end at depth %d" % (label, depth))
    return got


def fill_canonical(pbtl, triples, asg, depth, index, label):
    """Write the first valid completion in ``triples`` order below (depth,
    index); used for zero-vector subtrees the LP does not model and for
    numerical dead ends.  Dummy subtrees are not written down.  The
    completion is memoized per (height, label) on ``triples``
    (``ProductiveTriples.completion``) and written with its index shift, in
    the order of a stack walk that pops the right child first."""
    for d, o, lab in _completion(pbtl, triples, depth, label):
        asg[(depth + d, (index << d) + o)] = lab


def _write_block(pbtl, asg, k, v, labels, g):
    """Inner labels of one sampled block at super-vertex (layer k, index v),
    from the labels of its locals (heap numbered), level by level."""
    for lev in range(1, g):
        d = k * g + lev
        first = 1 << lev
        for u in range(first, 2 * first):
            lab = labels[u]
            if not is_dummy(pbtl.H, d, lab):
                asg[(d, (v << lev) + u - first)] = lab


def _write_picks(pbtl, labeling, picks):
    """Write the inner labels of the sampled blocks ``picks``, (layer k,
    index v, block, chosen) each with chosen() giving every inner local's
    triple, into ``labeling``.  They never reach depth H, so the labeling's
    vector stays as it is."""
    for k, v, block, chosen in picks:
        _write_block(pbtl, labeling.assignment, k, v,
                     block.labels_of(chosen()), block.step)


# ---------------------------------------------------------------------------
# cost-free rounding


def round_without_cost(source, collapsed, pbtl, rng):
    """Sample one labeling from the LP marginals, block by block.

    Returns (labeling, None, picks), as ``round_with_cost`` does, with no
    layer states.  The labeling lacks the inner labels of the sampled
    blocks ``picks``; ``boost`` writes them (``_write_picks``) for the one
    sample it keeps.  The vector is complete.  Each certificate's
    ``Sampler`` is kept in ``source.samplers``, so the trials of a solve
    over one ``source`` build it once; a super-vertex without a certificate
    takes the canonical completion from the LP's own label table,
    ``source.sol.triples``."""
    triples = source.sol.triples
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
        if cert is None:
            fill_canonical(pbtl, triples, asg, depth, v, lab)
            continue
        smp = source.samplers.get(cert.key)
        if smp is None:
            smp = source.samplers[cert.key] = Sampler(cert)
        kids, picked = smp.draw(rng)
        picks.append((k, v, cert.block, partial(smp.chosen, picked)))
        for slot, lc in kids:
            queue.append((k + 1, v * collapsed.arity + slot, lc,
                          source.child(cert, lc)))
    return Labeling.of(pbtl, asg), None, picks


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


class _Term:
    """One decomposition term of a layer-k certificate, priced: its weight
    ``lam``, its ``chosen`` triples, its non-dummy children ``kids`` as
    (slot, label), and the ``cost`` and packing-row values ``rows`` of
    their summed vectors.  ``writes`` and ``nexts`` are filled when a trial
    first selects it: the labels it writes, as (depth, offset, label)
    relative to its super-vertex (a child's label, or the canonical
    completion of a child without a certificate), and its (slot, child
    certificate) pairs for layer k + 1."""
    __slots__ = ("lam", "chosen", "kids", "cost", "rows", "writes", "nexts")

    def __init__(self, lam, chosen, kids, cost, rows):
        self.lam, self.chosen, self.kids = lam, chosen, kids
        self.cost, self.rows = cost, rows
        self.writes = self.nexts = None


class _LayerPlan:
    """What rounding one layer reads that its draws do not decide, for one
    sequence of certificates: the flat ``costs`` of their terms, one group
    of indices per certificate, ``k_bits``, the grid start ``mu``
    (``_grid_start``), the groups that can still move (``moving``; a group
    on the integer grid never pairs) and ``LayerState``'s LP-side sums,
    taken over the terms in layer order.  ``terms`` holds each certificate's
    ``_Term`` list."""

    def __init__(self, terms, pbtl):
        lams, rowvals, self.costs, self.groups = [], [], [], []
        for ts in terms:
            self.groups.append(list(range(len(lams), len(lams) + len(ts))))
            for t in ts:
                lams.append(t.lam)
                self.costs.append(t.cost)
                rowvals.append(t.rows)
        self.terms = terms
        self.k_bits = default_k_bits(max(len(grp) for grp in self.groups),
                                     len(self.groups))
        self.mu = _grid_start(lams, self.groups, self.k_bits, self.costs)
        self.moving = [grp for grp in self.groups
                       if any(self.mu[i] % (1 << self.k_bits) for i in grp)]
        self.cost_before = float(sum(l * c for l, c in zip(lams,
                                                           self.costs)))
        self.pack_before = [float(sum(l * rows[r]
                                      for l, rows in zip(lams, rowvals)))
                            for r in range(len(pbtl.packing))]


def round_with_cost(source, collapsed, pbtl, rng):
    """Layer-by-layer rounding that never increases the LP cost.

    Every super-vertex of the current layer contributes the convex
    decomposition of its certificate; all tuples of the layer are rounded at
    once by the pairing rounding (``_grid_start``, then ``_pair_off``) with
    the tuple costs as the objective.  A super-vertex without a certificate
    takes the canonical completion.

    ``source`` keeps what a trial reads that its draws do not decide: per
    certificate key, its priced terms (``_priced_terms``, with what a
    selected term writes) in ``source.terms``; per layer, keyed by its
    certificates in order, its ``_LayerPlan`` in ``source.plans``.  They are
    deterministic, so a fresh ``source`` gives the same result.

    Returns (labeling, [LayerState...], picks), the labeling and picks as in
    ``round_without_cost``.
    """
    triples = source.sol.triples
    g, K = collapsed.step, collapsed.layers
    asg = {}
    root = source.root()
    if not is_dummy(pbtl.H, 0, pbtl.root):
        asg[(0, 0)] = pbtl.root
    if root is None:
        fill_canonical(pbtl, triples, asg, 0, 0, pbtl.root)
        return Labeling.of(pbtl, asg), [], []

    layer = [(0, root)]
    states, picks = [], []
    for k in range(K):
        if not layer:       # everything below was filled canonically
            break
        depth = k * g
        keys = tuple(cert.key for _, cert in layer)
        plan = source.plans.get(keys)
        if plan is None:
            terms = [_priced_terms(source, cert, k, collapsed, pbtl)
                     for _, cert in layer]
            plan = source.plans[keys] = _LayerPlan(terms, pbtl)
        sel = _pair_off(list(plan.mu), plan.moving, plan.k_bits, plan.costs,
                        rng)
        states.append(LayerState(
            layer=k, k_bits=plan.k_bits, cost_before=plan.cost_before,
            cost_after=float(sum(c for c, p in zip(plan.costs, sel) if p)),
            pack_before=list(plan.pack_before), vertices=len(layer)))
        nxt = []
        for (v, cert), grp, terms in zip(layer, plan.groups, plan.terms):
            picked = [j for j in grp if sel[j]]
            if len(picked) != 1:
                raise AssertionError("rounding selected %d tuples"
                                     % len(picked))
            term = terms[picked[0] - grp[0]]
            if term.writes is None:
                _expand_term(term, cert, depth + g, k + 1 == K, pbtl,
                             source, triples)
            picks.append((k, v, cert.block, partial(dict, term.chosen)))
            for d, o, lab in term.writes:
                asg[(depth + d, (v << d) + o)] = lab
            for slot, ch in term.nexts:
                nxt.append(((v << g) + slot, ch))
        layer = nxt
    return Labeling.of(pbtl, asg), states, picks


def _priced_terms(source, cert, k, collapsed, pbtl):
    """The certificate's decomposition terms as ``_Term``s, made once per
    ``source``: its children sit at depth (k + 1) * step, and cost and rows
    are the cost and the packing-row values of their summed vectors.  Child
    vectors depend only on the certificate and the child label; a child
    without a certificate adds nothing."""
    if cert.key in source.terms:
        return source.terms[cert.key]
    depth = (k + 1) * collapsed.step
    last = k + 1 == collapsed.layers
    out = []
    for lam, leaves, chosen in decompose_chi(cert):
        kids = [(slot, lc) for slot, lc in enumerate(leaves)
                if not is_dummy(pbtl.H, depth, lc)]
        acc = {}
        for _, lc in kids:
            if last:
                vec = pbtl.vector(lc)
            else:
                ch = source.child(cert, lc)
                vec = {} if ch is None else ch.x
            for i, w in vec.items():
                acc[i] = acc.get(i, 0.0) + w
        rows = [sum(a.get(i, 0) * acc.get(i, 0.0) for i in acc)
                for a in pbtl.packing]
        out.append(_Term(lam, chosen, kids, vec_dot(pbtl.cost, acc), rows))
    source.terms[cert.key] = out
    return out


def _expand_term(term, cert, depth, last, pbtl, source, triples):
    """Fill ``term.writes`` and ``term.nexts``; its children sit at
    ``depth``, which is the leaf depth H when ``last``."""
    g = cert.block.step
    writes, nexts = [], []
    for slot, lc in term.kids:
        if not last:
            ch = source.child(cert, lc)
            if ch is None:
                # the completion starts with the child's own label
                writes.extend((g + d, (slot << d) + o, lab) for d, o, lab in
                              _completion(pbtl, triples, depth, lc))
                continue
            nexts.append((slot, ch))
        writes.append((g, slot, lc))
    term.writes, term.nexts = writes, nexts


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
    dump_lp_path: str | None = None

    def check(self):
        """ValueError on an unknown mode, a trial count that is not a
        positive int, or a negative seed."""
        if self.mode not in ("cost-free", "cost-preserving"):
            raise ValueError("unknown rounding mode %r" % (self.mode,))
        if self.trials is not None and (type(self.trials) is not int
                                        or self.trials < 1):
            raise ValueError("trials must be a positive integer, not %r"
                             % (self.trials,))
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
    ``eps`` and ``params`` are checked (ValueError), and the file
    ``params.dump_lp_path`` is opened (OSError), before any work."""
    check_epsilon(eps)
    params = params or RoundingParams()
    params.check()
    with (open(params.dump_lp_path, "w") if params.dump_lp_path
          else nullcontext()) as dump:
        return _solve(inst, delta, eps, params, dump)


def _solve(inst, delta, eps, params, dump):
    """``solve_additive_dp`` after its checks, writing the LP to ``dump``."""
    inst2, ok = prepare_instance(inst)
    if not ok:
        return SolveResult(status="no-solution")

    # the height is a multiple of the LP's 1/eps super-layers
    red = reduce_chain(inst2, delta,
                       height_fn=partial(layered_height, eps=eps))
    pbtl = red.pbtl
    coll = normalize_epsilon(pbtl, eps)

    sol = build_state_lp(coll, pbtl)
    if dump is not None:
        dump_lp(sol.model, dump)
        dump.flush()        # all on disk before HiGHS runs
    res = solve_lp(sol.model)
    if res.status == "infeasible":
        return SolveResult(status="lp-infeasible", reduction=red)
    if res.status != "optimal":
        raise RuntimeError("LP solver returned %s" % res.status)
    attach_solution(sol, res)
    source = compact_to_recursive(sol)

    trials = params.trials or default_trials(params.mode, float(coll.eps),
                                             inst.m)
    seed_seq = np.random.SeedSequence(params.seed)
    round_fn = (round_with_cost if params.mode == "cost-preserving"
                else round_without_cost)
    labeling, info = boost(partial(round_fn, source, coll, pbtl), pbtl,
                           trials, seed_seq)

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

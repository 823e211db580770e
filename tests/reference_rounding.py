"""Scalar references for the rounding.

``reference_sample_labeling`` is ``decomp.Sampler`` as it drew one
``rng.random()`` per local, walking every local in heap order, and
``reference_fill_canonical`` is ``rounding.fill_canonical`` as it walked
each completion anew.  The library builds a sampling table per certificate
and memoizes completions per (height, label); the tests check that it
gives these functions' picks, writes and random stream, order included.
``semi_random_round`` is the pairing rounding the cost-preserving mode
runs a layer at a time, ``_grid_start`` and then ``_pair_off``."""

from treepack.decomp import DeadEnd
from treepack.reduce import is_dummy
from treepack.rounding import _grid_start, _pair_off


def semi_random_round(lam, groups, K, cost, rng):
    """Round lam (>= 0, integral sums within each group) to integers."""
    return _pair_off(_grid_start(lam, groups, K, cost), groups, K, cost, rng)


def reference_sample_labeling(cert, rng, first):
    """One draw: a local labeled L at depth d takes triple t with
    probability phi_d(t) / In_d(L), with the triples of (d, L) in repr
    order; where In_d(L) is zero it takes ``first(rem - d, L)`` and draws
    nothing.  Returns (leaf_labels, chosen)."""
    block = cert.block
    chosen = {}
    labels = {1: block.ell}
    # per (depth, label): its triples with their weights, and In_d(L)
    at = {}
    for (d, t), w in zip(block.phi_keys, cert.phi.tolist()):
        if w > 0:
            at.setdefault((d, t[0]), []).append((t, w))
    cands = {}
    for key, cs in at.items():
        cs.sort(key=lambda c: repr(c[0]))
        cands[key] = cs, sum(w for _, w in cs)
    for u in range(1, 1 << block.step):
        d, lab = u.bit_length() - 1, labels[u]
        cs, tot = cands.get((d, lab), ((), 0))
        if tot <= 0:
            pick = first(block.rem - d, lab)
        else:
            r = rng.random() * tot
            pick = cs[-1][0]
            for t, w in cs:
                r -= w
                if r <= 0:
                    pick = t
                    break
        chosen[u] = pick
        labels[2 * u] = pick[1]
        labels[2 * u + 1] = pick[2]
    half = 1 << block.step
    return tuple(labels[half + s] for s in range(half)), chosen


def reference_fill_canonical(pbtl, triples, asg, depth, index, label):
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

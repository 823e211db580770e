"""Scalar references for the cost-free sampler and the canonical completion.

``reference_sample_labeling`` is ``decomp.sample_labeling`` as it drew one
``rng.random()`` per local, walking every local in heap order, and
``reference_fill_canonical`` is ``rounding.fill_canonical`` as it walked
each completion anew.  The library builds a sampling table per certificate
and memoizes completions per (height, label); the tests check that it
gives these functions' picks, writes and random stream, order included."""

from treepack.decomp import DeadEnd
from treepack.reduce import is_dummy


def reference_sample_labeling(cert, rng, fallback=None):
    block = cert.block
    if block is None:
        raise ValueError("certificate has no hull block")
    chosen = {}
    labels = {1: block.ell}
    # per (depth, label): its triples with their weights, and In_d(L)
    at = {}
    for d, t in cert.phi:
        at.setdefault((d, t[0]), []).append(t)
    cands = {}
    for (d, lab), ts in at.items():
        cs = [(t, cert.phi[(d, t)]) for t in sorted(ts, key=repr)]
        cands[(d, lab)] = cs, sum(w for _, w in cs)
    for u in range(1, 1 << block.step):
        d, lab = u.bit_length() - 1, labels[u]
        cs, tot = cands.get((d, lab), ((), 0))
        if tot <= 0:
            if fallback is None:
                raise DeadEnd("no mass at local %d label %r" % (u, lab))
            pick = fallback(block.rem - d, lab)
            if pick is None:
                raise DeadEnd("fallback failed at local %d" % u)
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

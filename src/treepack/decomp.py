"""Turning hull-block variables back into distributions over labelings.

A certificate's phi values describe, for one super-vertex, a point in the
convex hull of partial labelings of its little subtree.  ``decompose_chi``
peels that point into an explicit convex combination (greedy top-down
stripping: follow the lexicographically smallest positive triple at every
inner vertex, subtract the bottleneck, repeat).  ``sample_labeling`` draws
one partial labeling at random with the marginals the LP prescribes.
"""

from __future__ import annotations

from fractions import Fraction


# Float decompositions treat phi mass at most this as numerical dust.
DUST = 1e-12


class DeadEnd(Exception):
    """No positive-mass continuation at some inner vertex (numerical noise
    or a zero-mass certificate)."""


def _walk_order(block):
    """Inner locals of a block in top-down heap order."""
    return range(1, 1 << block.step)


def _triples_at(phi):
    """(local, label) -> the triples of the phi keys there, in the hull
    block's order (repr order)."""
    at = {}
    for u, t in phi:
        at.setdefault((u, t[0]), []).append(t)
    for ts in at.values():
        if len(ts) > 1:
            ts.sort(key=repr)
    return at


def decompose_chi(cert, exact=False):
    """Express cert.phi as sum_j lam_j * (indicator of a partial labeling).

    Returns a list of (lam, leaf_labels, chosen) where leaf_labels is the
    tuple of labels of the block's 2^step child slots and chosen maps every
    inner local to its triple.  The number of terms never exceeds the number
    of positive phi entries.  With exact=True all arithmetic is fractional
    and the terms sum to the certificate mass exactly; a phi that does not
    conserve flow is not in the hull and raises DeadEnd.  Otherwise floats
    are used, mass left as numerical dust (entries of at most ``DUST``) is
    dropped, and the lam values are renormalized to sum to one.
    """
    block = cert.block
    if block is None:
        raise ValueError("certificate has no hull block")
    if exact:
        phi = {k: (v if isinstance(v, Fraction) else Fraction(v))
               for k, v in cert.phi.items() if v > 0}
        eps = Fraction(0)
    else:
        phi = {k: float(v) for k, v in cert.phi.items() if v > DUST}
        eps = DUST
    terms = []
    at = _triples_at(phi)
    while True:
        root_mass = sum(phi.get((1, t), 0) for t in at.get((1, block.ell), ()))
        if root_mass <= eps:
            break
        chosen = {}
        labels = {1: block.ell}
        stuck = False
        for u in _walk_order(block):
            lab = labels.get(u)
            if lab is None:
                continue
            pick = None
            for t in at.get((u, lab), ()):
                if phi.get((u, t), 0) > eps:
                    pick = t
                    break
            if pick is None:
                stuck = True
                break
            chosen[u] = pick
            labels[2 * u] = pick[1]
            labels[2 * u + 1] = pick[2]
        if stuck:
            if exact:
                raise DeadEnd("certificate is not in the hull: mass %s "
                              "left at the root" % root_mass)
            break   # leftover numerical dust
        lam = min(phi[(u, t)] for u, t in chosen.items())
        for u, t in chosen.items():
            left = phi[(u, t)] - lam
            if left > eps:
                phi[(u, t)] = left
            else:
                del phi[(u, t)]
        half = 1 << block.step
        leaves = tuple(labels[half + s] for s in range(half))
        terms.append([lam, leaves, chosen])
    if not terms:
        raise DeadEnd("no positive mass at the block root")
    if exact and phi:
        raise DeadEnd("certificate is not in the hull: %d phi entries left "
                      "after the root mass ran out" % len(phi))
    if not exact:
        tot = sum(t[0] for t in terms)
        for t in terms:
            t[0] = t[0] / tot
    return [tuple(t) for t in terms]


def sample_labeling(cert, rng, fallback=None):
    """Draw one partial labeling of the certificate's block: at each inner
    vertex choose a triple with probability proportional to its phi mass.

    Returns (leaf_labels, chosen).  When some vertex has no positive mass
    left (numerical dust), ``fallback(u, label)`` supplies a triple; without
    a fallback DeadEnd is raised.
    """
    block = cert.block
    if block is None:
        raise ValueError("certificate has no hull block")
    chosen = {}
    labels = {1: block.ell}
    at = _triples_at(cert.phi)
    for u in _walk_order(block):
        lab = labels.get(u)
        if lab is None:
            continue
        cands = [(t, cert.phi[(u, t)]) for t in at.get((u, lab), ())]
        tot = sum(w for _, w in cands)
        if tot <= 0:
            if fallback is None:
                raise DeadEnd("no mass at local %d label %r" % (u, lab))
            pick = fallback(block.rem - (u.bit_length() - 1), lab)
            if pick is None:
                raise DeadEnd("fallback failed at local %d" % u)
        else:
            r = rng.random() * tot
            pick = cands[-1][0]
            for t, w in cands:
                r -= w
                if r <= 0:
                    pick = t
                    break
        chosen[u] = pick
        labels[2 * u] = pick[1]
        labels[2 * u + 1] = pick[2]
    half = 1 << block.step
    return tuple(labels[half + s] for s in range(half)), chosen

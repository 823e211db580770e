"""Turning hull-block variables back into distributions over labelings.

A certificate's phi values describe, for one super-vertex, a point in the
convex hull of partial labelings of its little subtree.  Its block is
merged: phi_d(t) is the mass of triple t summed over the depth-d locals, so
the depth-d locals labeled L share the inflow In_d(L) = sum_t phi_d(t) over
L's triples.  ``decompose_chi`` peels that point into an explicit convex
combination (greedy top-down stripping: every (depth, label) that the term
reaches follows its lexicographically smallest positive triple, subtract
the bottleneck, repeat).  ``sample_labeling`` draws one partial labeling at
random with the marginals the LP prescribes, P(t | local at depth d labeled
L) = phi_d(t) / In_d(L).  Both return the chosen triple of every inner
local, in heap order (1 = the super-vertex, children 2u / 2u+1).
"""

from __future__ import annotations

from fractions import Fraction


# Float decompositions treat phi mass at most this as numerical dust.
DUST = 1e-12


class DeadEnd(Exception):
    """No positive-mass continuation at some inner vertex (numerical noise
    or a zero-mass certificate)."""


def _triples_at(phi):
    """(depth, label) -> the triples of the phi keys there, in the hull
    block's order (repr order)."""
    at = {}
    for d, t in phi:
        at.setdefault((d, t[0]), []).append(t)
    for ts in at.values():
        if len(ts) > 1:
            ts.sort(key=repr)
    return at


def _leaves(block, labels):
    half = 1 << block.step
    return tuple(labels[half + s] for s in range(half))


def _pick_term(block, phi, at, eps):
    """The partial labeling of one decomposition term: walking the locals
    top-down, every (depth, label) takes its first triple with phi above
    eps.  Returns (chosen, leaf_labels, count), count[(d, t)] being the
    number of depth-d locals that take t, or None when a (depth, label)
    the walk reaches has no such triple."""
    chosen, pick, count = {}, {}, {}
    labels = {1: block.ell}
    for u in range(1, 1 << block.step):
        d, lab = u.bit_length() - 1, labels[u]
        t = pick.get((d, lab))
        if t is None:
            t = next((t for t in at.get((d, lab), ())
                      if phi.get((d, t), 0) > eps), None)
            if t is None:
                return None
            pick[(d, lab)] = t
        chosen[u] = t
        count[(d, t)] = count.get((d, t), 0) + 1
        labels[2 * u] = t[1]
        labels[2 * u + 1] = t[2]
    return chosen, _leaves(block, labels), count


def decompose_chi(cert, exact=False):
    """Express cert.phi as sum_j lam_j * (per-depth triple counts of a
    partial labeling).

    Returns a list of (lam, leaf_labels, chosen) where leaf_labels is the
    tuple of labels of the block's 2^step child slots and chosen maps every
    inner local to its triple.  A term gives every depth-d local labeled L
    the same triple t, and c_d(t) counts those locals; lam is the smallest
    phi_d(t) / c_d(t), and lam * c_d(t) is subtracted.  The remainder still
    conserves flow and loses at least one entry, so the number of terms
    never exceeds the number of positive phi entries.  With exact=True all
    arithmetic is fractional and the terms rebuild phi exactly; a phi that
    does not conserve flow is not in the hull and raises DeadEnd.
    Otherwise floats are used, mass left as numerical dust (entries of at
    most ``DUST``) is dropped, and the lam values are renormalized to sum
    to one.
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
        root_mass = sum(phi.get((0, t), 0) for t in at.get((0, block.ell), ()))
        if root_mass <= eps:
            break
        term = _pick_term(block, phi, at, eps)
        if term is None:
            if exact:
                raise DeadEnd("certificate is not in the hull: mass %s "
                              "left at the root" % root_mass)
            break   # leftover numerical dust
        chosen, leaves, count = term
        lam = min(phi[k] / c for k, c in count.items())
        for k, c in count.items():
            left = phi[k] - lam * c
            if left > eps:
                phi[k] = left
            else:
                del phi[k]
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
    """Draw one partial labeling of the certificate's block: a depth-d
    local labeled L takes triple t with probability phi_d(t) / In_d(L).

    Returns (leaf_labels, chosen).  When some vertex has no positive mass
    (numerical dust), ``fallback(rem, label)`` supplies a triple; without
    a fallback DeadEnd is raised.
    """
    block = cert.block
    if block is None:
        raise ValueError("certificate has no hull block")
    chosen = {}
    labels = {1: block.ell}
    # per (depth, label): its triples with their weights, and In_d(L)
    cands = {}
    for (d, lab), ts in _triples_at(cert.phi).items():
        cs = [(t, cert.phi[(d, t)]) for t in ts]
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
    return _leaves(block, labels), chosen

"""Turning hull-block variables back into distributions over labelings.

A certificate's phi values describe, for one super-vertex, a point in the
convex hull of partial labelings of its little subtree.  Its block is
merged: phi_d(t) is the mass of triple t summed over the depth-d locals, so
the depth-d locals labeled L share the inflow In_d(L) = sum_t phi_d(t) over
L's triples.  Both functions below return the chosen triple of every inner
local, in heap order (1 = the super-vertex, children 2u / 2u+1).

* ``decompose_chi`` peels that point into an explicit convex combination
  (greedy top-down stripping: every (depth, label) that the term reaches
  follows its lexicographically smallest positive triple, subtract the
  bottleneck, repeat).  A term is found by walking (depth, label) nodes,
  each once, and only then spelled out per local.
* ``sample_labeling`` draws one partial labeling at random with the
  marginals the LP prescribes, P(t | local at depth d labeled L) =
  phi_d(t) / In_d(L).  What does not depend on the draw is a ``Sampler``
  (rounding keeps one per certificate of a solve): per (depth, label) its
  triples, weights and inflow, and which subtrees have one triple at every
  node.  A draw walks the block a depth at a time and takes that depth's
  uniforms in one ``rng.random(n)`` call, which gives the doubles n scalar
  calls give.
"""

from __future__ import annotations

from fractions import Fraction

from .reduce import is_dummy


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


def _pick_term(block, phi, at, eps):
    """The partial labeling of one decomposition term, walked over (depth,
    label) nodes top-down: every node the term reaches takes its first
    triple with phi above eps.  Returns (pick, count), pick[d][L] being
    the triple of node (d, L) and count[(d, t)] the number of depth-d
    locals that take t, or None when a node the walk reaches has no such
    triple."""
    pick, count = [], {}
    reach = {block.ell: 1}          # label -> its locals at this depth
    for d in range(block.step):
        here, below = {}, {}
        for lab, c in reach.items():
            t = next((t for t in at.get((d, lab), ())
                      if phi.get((d, t), 0) > eps), None)
            if t is None:
                return None
            here[lab] = t
            count[(d, t)] = count.get((d, t), 0) + c
            below[t[1]] = below.get(t[1], 0) + c
            below[t[2]] = below.get(t[2], 0) + c
        pick.append(here)
        reach = below
    return pick, count


def _spell_out(block, pick):
    """(leaf_labels, chosen) of the term whose node triples are ``pick``:
    every inner local takes its node's triple, a depth at a time."""
    chosen, labels = {}, [block.ell]
    for d, here in enumerate(pick):
        ts = [here[lab] for lab in labels]
        chosen.update(zip(range(1 << d, 2 << d), ts))
        labels = [lab for t in ts for lab in (t[1], t[2])]
    return tuple(labels), chosen


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
        pick, count = term
        lam = min(phi[k] / c for k, c in count.items())
        for k, c in count.items():
            left = phi[k] - lam * c
            if left > eps:
                phi[k] = left
            else:
                del phi[k]
        terms.append([lam, *_spell_out(block, pick)])
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
    (numerical dust), ``fallback(rem, label)`` supplies a triple and no
    uniform is drawn for it; without a fallback DeadEnd is raised.  The
    draws are those of one ``rng.random()`` per local with mass, in heap
    order."""
    smp = Sampler(cert)
    return smp.spell_out(smp.draw(rng, fallback)[1])


class Sampler:
    """What every draw from one certificate shares.

    Labels get local ids, the block's root label first (``labels``,
    ``ids``).  ``nodes[d]`` maps the id of a label L with In_d(L) > 0 to
    (triples in repr order, their phi, In_d(L), each triple's child ids).
    A node is *forced* when it has one triple and so has every node below
    it: the subtree of a depth-d local labeled L is then the same in every
    draw, and each of its locals draws a uniform that decides nothing.
    ``forced[d]`` maps such a label's id to the non-dummy leaves of that
    subtree, as (slot, label) with slots counted from its first leaf."""

    def __init__(self, cert):
        self.block = block = cert.block
        self.labels, self.ids = [], {}
        self.id(block.ell)
        g = block.step
        self.nodes = [{} for _ in range(g)]
        for (d, lab), ts in _triples_at(cert.phi).items():
            ws = [cert.phi[(d, t)] for t in ts]
            tot = sum(ws)
            if tot > 0:
                self.nodes[d][self.id(lab)] = (
                    ts, ws, tot, [(self.id(t[1]), self.id(t[2])) for t in ts])
        self.forced = [{} for _ in range(g)] + [
            {i: self._leaf(lab) for lab, i in self.ids.items()}]
        for d in range(g - 1, -1, -1):
            below, width = self.forced[d + 1], 1 << (g - d - 1)
            for i, (ts, _, _, kids) in self.nodes[d].items():
                left, right = kids[0]
                if len(ts) == 1 and left in below and right in below:
                    self.forced[d][i] = below[left] + tuple(
                        (width + s, lab) for s, lab in below[right])

    def id(self, label):
        """The local id of ``label``, given on first sight."""
        i = self.ids.get(label)
        if i is None:
            i = self.ids[label] = len(self.labels)
            self.labels.append(label)
        return i

    def _leaf(self, label):
        """A leaf's entry in ``forced``: itself, unless it is a dummy."""
        block = self.block
        return () if is_dummy(block.rem, block.step, label) else ((0, label),)

    def _enter(self, d, u, i, row, kids):
        """Local u at depth d is labeled with id i: a forced subtree or a
        leaf adds its leaves to ``kids``, any other local joins ``row``."""
        g = self.block.step
        got = self.forced[d].get(i)
        if got is None:
            if d < g:
                row.append((u, i))
                return
            got = self._leaf(self.labels[i])    # a fallback's child
        first = (u << (g - d)) - (1 << g)
        kids.extend((first + s, lab) for s, lab in got)

    def draw(self, rng, fallback=None):
        """One draw: (kids, picked).  ``kids`` are the non-dummy leaves as
        (slot, label), in slot order; ``picked`` holds the triple of every
        local outside the forced subtrees, which ``spell_out`` completes.

        Depth by depth, the locals outside forced subtrees are walked in
        heap order; every local with mass, forced or not, owns the next
        uniform of its depth.  The uniforms of depths where no walked local
        has mass are drawn together with the next ones that are needed."""
        g, rem = self.block.step, self.block.rem
        kids, picked, row = [], {}, []
        self._enter(0, 1, 0, row, kids)
        pending = 0
        for d in range(g):
            if not row:
                pending += (1 << g) - (1 << d)
                break
            nodes = self.nodes[d]
            ents = [nodes.get(i) for _, i in row]
            massless = ents.count(None)
            n = (1 << d) - massless
            if massless == len(row):
                pending += n
            else:
                rs = rng.random(pending + n).tolist()
                # local u's uniform, with m massless locals before it
                # at this depth, is rs[base + u - m]
                base, pending = pending - (1 << d), 0
            nxt, m = [], 0
            for (u, i), ent in zip(row, ents):
                if ent is None:
                    lab = self.labels[i]
                    if fallback is None:
                        raise DeadEnd("no mass at local %d label %r"
                                      % (u, lab))
                    t = fallback(rem - d, lab)
                    if t is None:
                        raise DeadEnd("fallback failed at local %d" % u)
                    left, right = self.id(t[1]), self.id(t[2])
                    m += 1
                else:
                    ts, ws, tot, kid = ent
                    j = len(ts) - 1
                    if j:
                        r = rs[base + u - m] * tot
                        for k, w in enumerate(ws):
                            r -= w
                            if r <= 0:
                                j = k
                                break
                    t = ts[j]
                    left, right = kid[j]
                picked[u] = t
                self._enter(d + 1, 2 * u, left, nxt, kids)
                self._enter(d + 1, 2 * u + 1, right, nxt, kids)
            row = nxt
        if pending:
            rng.random(pending)
        kids.sort()
        return kids, picked

    def chosen(self, picked):
        """The triple of every inner local of a draw (``spell_out``)."""
        return self.spell_out(picked)[1]

    def spell_out(self, picked):
        """(leaf_labels, chosen) of a draw: the locals that ``picked``
        leaves out lie in forced subtrees and take their one triple."""
        g = self.block.step
        ids, chosen = [0] * (2 << g), {}
        for u in range(1, 1 << g):
            t = picked.get(u)
            if t is None:
                t = self.nodes[u.bit_length() - 1][ids[u]][0][0]
            chosen[u] = t
            ids[2 * u] = self.id(t[1])
            ids[2 * u + 1] = self.id(t[2])
        half = 1 << g
        return tuple(self.labels[ids[half + s]] for s in range(half)), chosen

"""Turning hull-block variables back into distributions over labelings.

A certificate's phi is an array over its block's positions (see
``lp.HullBlock``): per unit of its record's mass, the point of the convex
hull of partial labelings of one super-vertex's little subtree.  The block
is merged: phi_d(t) is the mass of triple t summed over the depth-d locals,
so the depth-d locals labeled L share the inflow In_d(L) = sum_t phi_d(t)
over the positions of the block's (d, L) node.  Both functions below walk
those nodes by index, each node's positions in block order, and decode
triples and labels only for what they return: the chosen triple of every
inner local, in heap order (1 = the super-vertex, children 2u / 2u+1), and
the labels of the leaf slots.

* ``decompose_chi`` peels that point into an explicit convex combination
  (greedy top-down stripping: every node that the term reaches follows its
  first position with positive mass, subtract the bottleneck, repeat).  A
  term is found by walking nodes, each once, and only then spelled out per
  local.
* ``Sampler`` draws partial labelings at random with the marginals the LP
  prescribes, P(t | local at depth d labeled L) = phi_d(t) / In_d(L).  It
  keeps what does not depend on the draw (rounding keeps one per
  certificate of a solve): per node its positions with mass, their weights
  and its inflow, and which subtrees have one triple at every node.  A
  local whose node has no mass takes the node's first position, which is
  ``ProductiveTriples.first`` of its height and label, and draws nothing.
  A draw walks the block a depth at a time and takes that depth's uniforms
  in one ``rng.random(n)`` call, which gives the doubles n scalar calls
  give.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .reduce import is_dummy


# Float decompositions treat phi mass at most this as numerical dust.
DUST = 1e-12


class DeadEnd(Exception):
    """No positive-mass continuation at some inner vertex (numerical noise
    or a zero-mass certificate)."""


class _Children(dict):
    """The children of a block's positions, by id: ``self[p]`` is (left id,
    right id, triple) of position p's triple, computed on first use.
    Node i of the block is id i, and its child groups at depth ``step``
    follow, in ``kid_label`` order (``leaf`` holds their labels).  Nodes
    of one depth, and the child groups, come in label-id order, so (depth,
    label id) sorts the ids and one ``searchsorted`` finds them."""

    def __init__(self, block):
        super().__init__()
        self.block = block
        tab, first = block.table, block.node_start[:-1]
        self.n = len(first)
        self.leaf = [tab.labels[L] for L in block.kid_label.tolist()]
        self.key = (np.concatenate((block.depth[first],
                                    np.full(len(block.kid_label), block.step)))
                    * len(tab.labels)
                    + np.concatenate((tab.parent[block.tri[first]],
                                      block.kid_label)))

    def _fill(self, ps):
        blk, tab = self.block, self.block.table
        t, up = blk.tri[ps], (blk.depth[ps] + 1) * len(tab.labels)
        self.update(zip(ps.tolist(), zip(
            np.searchsorted(self.key, up + tab.left[t]).tolist(),
            np.searchsorted(self.key, up + tab.right[t]).tolist(),
            tab.decode(t))))

    def __missing__(self, p):
        self._fill(np.array([p]))
        return self[p]

    def at(self, keep):
        """Every node with positions where ``keep`` holds, mapped to those
        positions in order; their children are computed at once."""
        ps = np.flatnonzero(keep)
        self._fill(ps)
        node = np.searchsorted(self.block.node_start, ps, side="right") - 1
        out = {}
        for i, p in zip(node.tolist(), ps.tolist()):
            out.setdefault(i, []).append(p)
        return out

    def spell_out(self, node, local=None):
        """(leaf_labels, chosen) of the partial labeling in which local u
        takes local[u], or else node[i], i being the id of u's node; both
        give a position as its entry in ``self``.  A depth at a time, in
        heap order."""
        n = self.n
        ids, chosen = [0], {}
        for d in range(self.block.step):
            if local is None:
                got = [node[i] for i in ids]
            else:
                got = [local[u] if u in local else node[i]
                       for u, i in enumerate(ids, 1 << d)]
            chosen.update(zip(range(1 << d, 2 << d),
                              [t for _, _, t in got]))
            ids = [j for left, right, _ in got for j in (left, right)]
        return tuple([self.leaf[i - n] for i in ids]), chosen


def _pick_term(child, phi, at, eps):
    """The partial labeling of one decomposition term, walked over nodes
    top-down: every node the term reaches takes its first position with
    phi above eps.  Returns (pick, count), pick[i] being the entry in
    ``child`` of node i's position and count[p] the number of locals that
    take position p, or None when a node the walk reaches has no such
    position."""
    pick, count = {}, {}
    reach = {0: 1}          # node id -> its locals at this depth
    for _ in range(child.block.step):
        below = {}
        for i, c in reach.items():
            p = next((p for p in at.get(i, ()) if phi.get(p, 0) > eps),
                     None)
            if p is None:
                return None
            pick[i] = child[p]
            count[p] = c
            for kid in pick[i][:2]:
                below[kid] = below.get(kid, 0) + c
        reach = below
    return pick, count


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
    child = _Children(cert.block)
    conv, eps = (Fraction, 0) if exact else (float, DUST)
    at = child.at(cert.phi > eps)
    ps = [p for node in at.values() for p in node]
    phi = dict(zip(ps, map(conv, cert.phi[ps].tolist())))
    terms = []
    while True:
        root_mass = sum(phi.get(p, 0) for p in at.get(0, ()))
        if root_mass <= eps:
            break
        term = _pick_term(child, phi, at, eps)
        if term is None:
            if exact:
                raise DeadEnd("certificate is not in the hull: mass %s "
                              "left at the root" % root_mass)
            break   # leftover numerical dust
        pick, count = term
        lam = min(phi[p] / c for p, c in count.items())
        for p, c in count.items():
            left = phi[p] - lam * c
            if left > eps:
                phi[p] = left
            else:
                del phi[p]
        terms.append([lam, *child.spell_out(pick)])
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


class Sampler:
    """What every draw from one certificate shares.

    ``nodes`` maps the id of a node with mass to (its positions with mass,
    their phi, In_d(L)), positions in block order; a node without mass
    takes its first position.  A node is *forced* when it has mass on one
    position only and so has every node below it: the subtree of a local
    with that node is then the same in every draw, and each of its locals
    draws a uniform that decides nothing.  ``forced`` maps such a node's
    id, and every child group's, to the non-dummy leaves of that subtree,
    as (slot, label) with slots counted from its first leaf."""

    def __init__(self, cert):
        self.block = block = cert.block
        self.child = child = _Children(block)
        self.nodes = {}
        for i, ps in child.at(cert.phi > 0).items():
            ws = cert.phi[ps].tolist()
            self.nodes[i] = (ps, ws, sum(ws))
        g = block.step
        self.forced = forced = {
            i: () if is_dummy(block.rem, g, lab) else ((0, lab),)
            for i, lab in enumerate(child.leaf, child.n)}
        self.only = {}      # forced node id -> its one position's entry
        for i, (ps, _, _) in reversed(self.nodes.items()):  # deepest first
            left, right, _ = child[ps[0]]
            if len(ps) == 1 and left in forced and right in forced:
                width = 1 << (g - int(block.depth[ps[0]]) - 1)
                forced[i] = forced[left] + tuple(
                    (width + s, lab) for s, lab in forced[right])
                self.only[i] = child[ps[0]]

    def _enter(self, d, u, i, row, kids):
        """Local u at depth d has id i: a forced subtree or a leaf adds its
        leaves to ``kids``, any other local joins ``row``."""
        got = self.forced.get(i)
        if got is None:
            row.append((u, i))
            return
        g = self.block.step
        first = (u << (g - d)) - (1 << g)
        kids.extend((first + s, lab) for s, lab in got)

    def draw(self, rng):
        """One draw: (kids, picked).  ``kids`` are the non-dummy leaves as
        (slot, label), in slot order; ``picked`` holds the position of every
        local outside the forced subtrees, as its entry in ``child``, which
        ``spell_out`` completes.

        Depth by depth, the locals outside forced subtrees are walked in
        heap order; every local with mass, forced or not, owns the next
        uniform of its depth.  The uniforms of depths where no walked local
        has mass are drawn together with the next ones that are needed."""
        g, child = self.block.step, self.child
        kids, picked, row = [], {}, []
        self._enter(0, 1, 0, row, kids)
        pending = 0
        for d in range(g):
            if not row:
                pending += (1 << g) - (1 << d)
                break
            ents = [self.nodes.get(i) for _, i in row]
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
                if ent is None:     # no mass: the node's first position
                    p = int(self.block.node_start[i])
                    m += 1
                else:
                    ps, ws, tot = ent
                    j = len(ps) - 1
                    if j:
                        r = rs[base + u - m] * tot
                        for k, w in enumerate(ws):
                            r -= w
                            if r <= 0:
                                j = k
                                break
                    p = ps[j]
                left, right, _ = picked[u] = child[p]
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
        leaves out lie in forced subtrees and take their one position."""
        return self.child.spell_out(self.only, picked)

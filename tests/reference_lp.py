"""The LP references of the tests, built with per-local hull blocks.

A per-local block has one variable per (local, triple): locals are the
inner vertices of a super-vertex's depth-``step`` subtree in heap order (1 =
the super-vertex, children 2u / 2u+1), and its leaf slots are the locals
``step`` levels down, slot = local - 2^step.  ``DictHull`` builds such blocks
with dicts and sets, and two LPs are emitted from them:

* ``reference_state_lp`` -- the label-path LP as ``build_state_lp`` emitted
  it before its blocks merged the locals of one depth;
* ``build_compact_lp`` -- the explicit vertex LP, one record per super-tree
  path, whose size grows with the tree.

Both have the optimum of ``build_state_lp``.  Their rows and packing rows
are written as ``treepack.lp._Emitter`` writes them, so the models match the
recorded digests of the tests.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from treepack.core import row_value
from treepack.lp import CompactLpSolution, LabelRec, LpModel, _Emitter


def root_keys(blk):
    """The (depth, triple) keys of a ``HullBlock`` whose sum is its mass."""
    return blk.phi_keys[:blk.n_root]


def keyed_phi(cert):
    """A certificate's positive phi keyed by (depth, triple), in the block's
    position order."""
    return {k: w for k, w in zip(cert.block.phi_keys, cert.phi.tolist())
            if w > 0}


def child_masses(cert):
    """A certificate's mass per child label: the multiplicity-weighted sum
    of its snapped phi over the label's inflow group of the block.  Labels
    without mass are left out."""
    phi = cert.phi.tolist()
    out = {}
    for L, pos, counts in cert.block.inflow:
        w = sum(n * phi[j] for n, j in zip(counts, pos.tolist()))
        if w > 0:
            out[L] = w
    return out


def cons_rows(blk):
    """A ``HullBlock``'s flow rows as (outflow keys, inflow keys), an
    inflow key listed once per side that leads into the node."""
    keys = blk.phi_keys
    pos, start = blk.flow_pos.tolist(), blk.flow_start.tolist()
    coef = blk.flow_coef.tolist()
    nout = np.diff(blk.node_start)[1:].tolist()
    return [([keys[j] for j in pos[a:a + k]],
             [keys[j] for j, c in zip(pos[a + k:b], coef[a + k:b])
              for _ in range(-c)])
            for a, b, k in zip(start, start[1:], nout)]


def reference_productive_table(pbtl):
    """prod[r] = labels that admit some valid perfect subtree of height r,
    from sets."""
    byp = pbtl.triples_by_parent()
    prod = [set(pbtl.labels)]
    for r in range(1, pbtl.H + 1):
        prod.append({l for l in pbtl.labels
                     if any(t[1] in prod[r - 1] and t[2] in prod[r - 1]
                            for t in byp.get(l, ()))})
    return prod


def reference_triple_table(pbtl):
    """The triples that name only labels, sorted by repr and then grouped
    stably by parent, parents in the repr order of labels: the order
    ``ProductiveTriples.all`` keeps."""
    rank = {l: i for i, l in enumerate(sorted(pbtl.labels, key=repr))}
    ts = [t for t in sorted(pbtl.triples, key=repr)
          if all(l in rank for l in t)]
    return sorted(ts, key=lambda t: rank[t[0]])


def reference_triple_ids(pbtl):
    """The labels and the (3, n) triple id array of a ``ProductiveTriples``
    as it was built from label tuples: labels sorted by repr, every label
    of every triple looked up in their ranks (a label outside ``labels``
    gets ``len(labels)``), and the triples that name only labels lexsorted
    by (parent, left, right) id."""
    labels = sorted(pbtl.labels, key=repr)
    rank = {l: i for i, l in enumerate(labels)}
    nl = len(labels)
    ids = np.array([[rank.get(l, nl) for l in t] for t in pbtl.triples],
                   dtype=np.intp).reshape(-1, 3)
    keep = np.flatnonzero((ids < nl).all(axis=1))
    return labels, ids[keep[np.lexsort(ids[keep, ::-1].T)]].T


class DictHull:
    """Per-local hull blocks of one PBTL, built with dicts: each (local,
    label)'s triples are filtered by the set-based productive table and
    sorted by repr, each local's labels by repr.  Triples are memoized per
    (height, label) and blocks per (step, label, height).

    ``support(rem, label)`` is the recursive definition of a subtree's
    support: the bitmask of the coordinates that some height-rem subtree
    of label can make nonzero.

    A block is a dict: ``phi_keys`` ((local, triple) per position),
    ``n_root`` (the root's triples come first), ``feasible``, ``cons_pos``
    (per node below the root, in heap then label order: its outflow and its
    inflow positions), ``child_pos`` ((slot, label) -> inflow positions, in
    slot then label order) and ``inflow`` (per child label in rank order:
    the positions that lead into it over all slots, first seen first, and
    their multiplicities)."""

    def __init__(self, pbtl, prod=None):
        self.pbtl = pbtl
        self.byp = pbtl.triples_by_parent()
        self.rank = {l: i for i, l in
                     enumerate(sorted(pbtl.labels, key=repr))}
        self.prod = prod if prod is not None else \
            reference_productive_table(pbtl)
        self._triples = {}
        self._blocks = {}
        self._support = {}

    def support(self, rem, label):
        mask = self._support.get((rem, label))
        if mask is None:
            if rem == 0:
                mask = sum(1 << i for i, v in self.pbtl.vector(label).items()
                           if v)
            else:
                mask = 0
                for t in self.triples(rem, label):
                    mask |= self.support(rem - 1, t[1]) | \
                        self.support(rem - 1, t[2])
            self._support[(rem, label)] = mask
        return mask

    def triples(self, r, label):
        ts = self._triples.get((r, label))
        if ts is None:
            ok = self.prod[r - 1]
            ts = self._triples[(r, label)] = sorted(
                (t for t in self.byp.get(label, ())
                 if t[1] in ok and t[2] in ok), key=repr)
        return ts

    def block(self, step, ell, rem):
        bkey = (step, ell, rem)
        if bkey not in self._blocks:
            self._blocks[bkey] = self._build(step, ell, rem)
        return self._blocks[bkey]

    def _build(self, g, ell, rem):
        rank = self.rank.__getitem__
        B = 1 << g
        keys, span, inflow = [], {}, {}
        labels_at = {1: [ell]}
        n_root = 0
        for u in range(1, B):
            r = rem - (u.bit_length() - 1)
            kids = ({}, {})
            for L in labels_at.get(u, ()):
                ts = self.triples(r, L)
                span[(u, L)] = list(range(len(keys), len(keys) + len(ts)))
                for j, t in enumerate(ts, len(keys)):
                    kids[0].setdefault(t[1], []).append(j)
                    kids[1].setdefault(t[2], []).append(j)
                keys.extend([(u, t) for t in ts])
            if u == 1:
                n_root = len(keys)
            for side in (0, 1):
                v = 2 * u + side
                labels_at[v] = sorted(kids[side], key=rank)
                for L, pos in kids[side].items():
                    inflow[(v, L)] = pos
        cons_pos, child_pos = [], {}
        if n_root:
            for u in range(2, B):
                for L in labels_at.get(u, ()):
                    cons_pos.append((span[(u, L)], inflow[(u, L)]))
            for v in range(B, 2 * B):
                for L in labels_at.get(v, ()):
                    child_pos[(v - B, L)] = inflow[(v, L)]
        merged = {}     # child label -> {position: multiplicity}, first seen
        for (_, L), pos in child_pos.items():
            dst = merged.setdefault(L, {})
            for j in pos:
                dst[j] = dst.get(j, 0) + 1
        return {"phi_keys": keys, "n_root": n_root, "feasible": bool(n_root),
                "cons_pos": cons_pos, "child_pos": child_pos,
                "inflow": [(L, list(merged[L]), list(merged[L].values()))
                           for L in sorted(merged, key=rank)]}


def _emit_hull(model, blk, mass, tag):
    """phi variables (tagged tag + (key,)) of one per-local block, the row
    that gives its root triples the mass, and its flow rows, in the order
    ``_Emitter.hull`` writes them.  Returns the phi variables; an infeasible
    block gets mass == 0 instead, and None is returned."""
    if not blk["feasible"]:
        model.add_row([mass], [1], "==", 0)
        return None
    ids = model.add_vars([tag + (key,) for key in blk["phi_keys"]])
    nroot = blk["n_root"]
    model.add_row([*ids[:nroot], mass], [1] * nroot + [-1], "==", 0)
    for out, inn in blk["cons_pos"]:
        model.add_row([ids[j] for j in out + inn],
                      [1] * len(out) + [-1] * len(inn), "==", 0)
    return ids


# ---------------------------------------------------------------------------
# the label-path LP with per-local blocks


def reference_state_lp(collapsed, pbtl):
    """The label-path LP with per-local hull blocks, one phi per (local,
    triple), as ``build_state_lp`` emitted it before its blocks merged the
    locals of one depth; both have the same optimum."""
    em = _Emitter(pbtl)
    hull = DictHull(pbtl)
    model = em.model
    g, K, H = collapsed.step, collapsed.layers, pbtl.H
    records = {}

    def new_record(path, mask):
        rec = records[path] = LabelRec(path=path, null=not mask,
                                       psi=model.add_var(("psi", path)))
        if mask and len(path) < K:
            coords = [i for i in range(pbtl.d) if mask >> i & 1]
            ids = model.add_vars([("X", path, i) for i in coords])
            rec.x = {i: {v: 1} for i, v in zip(coords, ids)}
        return rec

    root = new_record((pbtl.root,), hull.support(H, pbtl.root))
    model.add_row([root.psi], [1], "==", 1)
    tri = em.triples
    if not tri.ok[H, tri.rank.get(pbtl.root, -1)]:
        model.add_row([root.psi], [1], "==", 0)
    layer = [] if root.null else [root]
    for k in range(K):
        rem = H - k * g
        for rec in layer:
            blk = hull.block(g, rec.label, rem)
            first = _emit_hull(model, blk, rec.psi, ("phi", rec.path)).start
            if k + 1 == K:
                rec.x = {}
                for L, pos, counts in blk["inflow"]:
                    cols, vec = [j + first for j in pos], pbtl.vector(L)
                    if any(row_value(a, vec) > 1 for a in pbtl.packing):
                        model.add_row(cols, [1] * len(cols), "==", 0)
                        continue
                    for i, c in vec.items():
                        dst = rec.x.setdefault(i, {})
                        for v, n in zip(cols, counts):
                            dst[v] = dst.get(v, 0) + n * c
                continue
            for L, pos, counts in blk["inflow"]:
                mask = hull.support(rem - g, L)
                if mask:
                    kid = new_record(rec.path + (L,), mask)
                    model.add_row([*(j + first for j in pos), kid.psi],
                                  [*counts, -1], "==", 0)
                    rec.kids.append(kid)
        layer = [kid for rec in layer for kid in rec.kids]

    for rec in records.values():
        if rec.kids:
            for i, own in rec.x.items():
                terms = [(v, c) for kid in rec.kids
                         for v, c in kid.x.get(i, {}).items()]
                model.add_row([*own, *(v for v, _ in terms)],
                              [1, *(-c for _, c in terms)], "==", 0)
        if not rec.null:
            em.packing(rec.x, rec.psi)

    if not root.null:
        obj = model.objective
        for i, expr in root.x.items():
            c = float(pbtl.cost[i])
            if c:
                for v, n in expr.items():
                    obj[v] = obj.get(v, 0) + c * n
    return CompactLpSolution(model=model, collapsed=collapsed, pbtl=pbtl,
                             triples=em.triples, records=records)


# ---------------------------------------------------------------------------
# the vertex LP


@dataclass
class PathRec:
    idx: int
    layer: int
    label: object
    chi: int
    null: bool = False
    x: list | None = None
    children: dict = field(default_factory=dict)   # (slot,label) -> path idx


@dataclass
class PathLp:
    model: LpModel
    paths: list                 # PathRec, root first


def build_compact_lp(collapsed, pbtl):
    """The explicit vertex LP, one chi/x block per path of the super-tree.
    Records of null (zero-vector) labels keep their mass but no detail."""
    em = _Emitter(pbtl)
    hull = DictHull(pbtl)
    model = em.model
    ok, rank = em.triples.ok, em.triples.rank
    g, K, d = collapsed.step, collapsed.layers, pbtl.d
    paths = []

    def new_path(layer, label):
        rec = PathRec(idx=len(paths), layer=layer, label=label,
                      chi=model.add_var(("chi", len(paths))))
        rem = pbtl.H - layer * g
        # null: productive at this height, and every subtree sums to zero
        rec.null = bool(ok[rem, rank.get(label, -1)]) and \
            not hull.support(rem, label)
        paths.append(rec)
        return rec

    def vector(rec):
        rec.x = model.add_vars([(("x", rec.idx), i) for i in range(d)])

    root = new_path(0, pbtl.root)
    model.add_row([root.chi], [1], "==", 1)
    queue = deque([root])
    while queue:
        rec = queue.popleft()
        if rec.null:
            continue
        if rec.x is None:   # parents allocate children's x ahead of time
            vector(rec)
        em.packing({i: {v: 1} for i, v in enumerate(rec.x)}, rec.chi)
        if rec.layer == K:
            xl = pbtl.vector(rec.label)
            for i in range(d):
                model.add_row([rec.x[i], rec.chi], [1, -xl.get(i, 0)],
                              "==", 0)
            continue
        blk = hull.block(g, rec.label, pbtl.H - rec.layer * g)
        ids = _emit_hull(model, blk, rec.chi, ("phi", rec.idx))
        if ids is None:     # only an unproductive root
            for i in range(d):
                model.add_row([rec.x[i]], [1], "==", 0)
            continue
        # child_pos is in slot, then label rank order
        for (slot, L), pos in blk["child_pos"].items():
            q = new_path(rec.layer + 1, L)
            rec.children[(slot, L)] = q.idx
            model.add_row([q.chi] + [ids[j] for j in pos],
                          [1] + [-1] * len(pos), "==", 0)
            queue.append(q)
        # vector conservation once the children exist
        kids = [paths[q] for q in rec.children.values() if not paths[q].null]
        for qr in kids:
            if qr.x is None:
                vector(qr)
        for i in range(d):
            model.add_row([rec.x[i]] + [qr.x[i] for qr in kids],
                          [1] + [-1] * len(kids), "==", 0)

    if root.x is not None:
        for i, c in enumerate(pbtl.cost):
            if c:
                model.objective[root.x[i]] = float(c)
    return PathLp(model=model, paths=paths)

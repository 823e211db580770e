"""Reduction chain: additive DP -> flexible tree labeling -> binarized ->
shallow (separator) labels -> perfect binary tree labeling.

The chain preserves achievable solution vectors while trading tree shape for
label structure:

1. ``dp_to_ftl``    moves every choice's fixed vector into a fresh base label
                    so that internal vertices carry no vectors.
2. ``binarize_pairs`` replaces wide parent/children rules by binary trees of
                    intermediate labels.
3. ``ftl_shallow``  re-labels by pieces of a balanced separator decomposition:
                    a label (l, s, D) stands for "a piece rooted at label l,
                    of s vertices, whose dangling cut points carry the labels
                    in the multiset D (at most 3)".  Every tree of size <= Delta
                    now has an equivalent derivation of logarithmic height.
                    The closure runs on ints: the binarized labels are
                    numbered in ``repr`` order, so D is a sorted int tuple
                    that lists its labels in the order a ``repr`` sort
                    would, and every shallow label gets a dense id.  The
                    labels are decoded once, at the end.
4. ``ftl_to_pbtl``  pads derivations onto the perfect binary tree of height H
                    with height-indexed labels (h, l) and a dummy label.  It
                    ranks each shallow label by the least height at which it
                    finishes a subtree, then walks down from the root and
                    keeps only the labels and triples a labeling can use.
                    Ranks and walk run on the shallow ids (``IntView``); the
                    kept labels are numbered once, in ``repr`` order, and
                    the triples kept as id arrays (``TripleIds``).

``lift_labeling`` is the inverse the solver runs: it turns a tree labeling
back into a DP witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .core import AdditiveDpInstance, WitnessNode, make_witness

BOT = "#bot"          # dummy label of the perfect-binary padding
ROOT_MARK = "#root"   # the extra root label sitting above (l_root, s, {})


def _label_sort_key(label):
    return repr(label)


# ---------------------------------------------------------------------------
# instance types


@dataclass
class FtlInstance:
    """Flexible tree labeling: choose any tree and a labeling obeying
    (parent, children-multiset) rules; the solution vector is the sum of the
    leaf labels' vectors.  Only base labels may appear on leaves.

    ``int_view()`` numbers the labels for ``ftl_to_pbtl``.  ``ftl_shallow``
    stores the view its closure ran on; any other instance, a
    ``dataclasses.replace`` copy included, derives one from ``labels`` and
    ``pairs`` on first use."""
    labels: list
    root: object
    base: dict                 # base label -> sparse vector
    pairs: list                # (parent, tuple-of-children); order canonical
    packing: list
    cost: list
    d: int
    m: int
    _ints: IntView | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def int_view(self):
        if self._ints is None:
            self._ints = IntView.of(self)
        return self._ints


@dataclass
class IntView:
    """Dense int ids for the labels of an ``FtlInstance``: ``names[i]`` is
    the label with id i, ``pairs`` are the instance's pairs as (parent id,
    tuple of child ids) in the same order, ``base`` the ids of the base
    labels in ``FtlInstance.base`` order, and ``root`` and ``bot`` the ids
    of the root and of ``BOT``."""
    names: list
    pairs: list
    base: list
    root: int
    bot: int

    @classmethod
    def of(cls, ftl):
        ids = {}
        for lab in (*ftl.base, *ftl.labels, ftl.root, BOT):
            ids.setdefault(lab, len(ids))
        pairs = [(ids.setdefault(p, len(ids)),
                  tuple(ids.setdefault(c, len(ids)) for c in kids))
                 for p, kids in ftl.pairs]
        return cls(names=list(ids), pairs=pairs,
                   base=[ids[b] for b in ftl.base], root=ids[ftl.root],
                   bot=ids[BOT])


@dataclass
class PbtlInstance:
    """Perfect binary tree labeling: the tree is fixed (height H, 2^H
    leaves); a labeling is valid when the root carries ``root`` and every
    internal vertex's (label, left, right) triple is in ``triples``.  The
    solution vector is the sum of x(label) over the leaves.

    ``int_view()`` gives the labels' ids and the triples as id arrays
    (``TripleIds``).  ``ftl_to_pbtl`` builds that view and no triple
    tuples: its instance decodes ``triples`` from the view when they are
    first read.  Any other instance, a ``dataclasses.replace`` copy
    included, derives the view from ``labels`` and ``triples`` on first use;
    setting ``triples`` drops the view and the triples per parent."""
    H: int
    labels: list
    root: object
    vectors: dict              # label -> sparse vector (zero entries omitted)
    triples: list              # (parent, left, right)
    packing: list
    cost: list
    d: int
    m: int
    # caches, made on first use; a dataclasses.replace copy starts without
    _by_parent: dict | None = field(default=None, init=False, repr=False,
                                    compare=False)
    _ids: TripleIds | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def triples_by_parent(self):
        if self._by_parent is None:
            out = {}
            for t in self.triples:
                out.setdefault(t[0], []).append(t)
            self._by_parent = out
        return self._by_parent

    def vector(self, label):
        return self.vectors.get(label, {})

    def int_view(self):
        if self._ids is None:
            self._ids = TripleIds.of(self)
        return self._ids


def _get_triples(pbtl):
    if pbtl._triples is None:          # ftl_to_pbtl's: decoded when read
        pbtl._triples = pbtl._ids.decode()
    return pbtl._triples


def _set_triples(pbtl, triples):
    pbtl._triples = triples
    pbtl._ids = pbtl._by_parent = None


# a property set after the dataclass is made, so that ``triples`` stays an
# ordinary field of __init__, ==, repr and dataclasses.replace
PbtlInstance.triples = property(_get_triples, _set_triples)


class TripleIds:
    """Dense ids of a ``PbtlInstance``'s labels, and its triples as three id
    arrays: ``labels[i]`` is the label with id i, in ``repr`` order, and
    ``rank`` maps a label to its id.  Triple j is (``parent[j]``,
    ``left[j]``, ``right[j]``), in the instance's triple order; a label
    outside ``labels`` has the id ``len(labels)``."""

    def __init__(self, labels, parent, left, right):
        self.labels = labels
        self.parent, self.left, self.right = parent, left, right

    @cached_property
    def rank(self):
        return {l: i for i, l in enumerate(self.labels)}

    @classmethod
    def of(cls, pbtl):
        """The view of a hand-built instance: its labels sorted by repr,
        and its triples mapped through them."""
        view = cls(sorted(pbtl.labels, key=repr), None, None, None)
        ts = pbtl.triples
        ids = np.fromiter(map(view.rank.get, chain.from_iterable(ts),
                              repeat(len(view.labels))),
                          dtype=np.intp, count=3 * len(ts)).reshape(-1, 3)
        view.parent, view.left, view.right = ids.T.copy()
        return view

    def decode(self):
        """The triples as (parent, left, right) label tuples."""
        return decode_triples(self.labels, self.parent, self.left, self.right)


def decode_triples(labels, parent, left, right):
    """The triples of the label-id arrays as label tuples."""
    get = labels.__getitem__
    return list(zip(*(map(get, a.tolist()) for a in (parent, left, right))))


def is_dummy(H, depth, label):
    """True when ``label`` is the dummy label (H - depth, BOT) of a vertex at
    ``depth`` of the height-H tree."""
    return label == (H - depth, BOT)


@dataclass
class Labeling:
    """Labels for vertices of the perfect binary tree, addressed as
    (depth, index) with index < 2^depth, plus the induced solution vector.

    The tree has 2^H leaves, so a labeling lists only its non-dummy
    vertices: a vertex it leaves out carries the dummy label (H - depth,
    BOT), and whole dummy subtrees are not written down.  ``of`` builds one
    from an assignment and sums its vector."""
    H: int
    assignment: dict           # (depth, index) -> label
    vector: dict

    @classmethod
    def of(cls, pbtl, assignment):
        return cls(H=pbtl.H, assignment=assignment,
                   vector=labeling_vector(pbtl, assignment))

    def label_at(self, depth, i):
        lab = self.assignment.get((depth, i))
        return (self.H - depth, BOT) if lab is None else lab


def labeling_vector(pbtl, assignment):
    """Solution vector of an assignment; unassigned leaves are dummies and
    contribute nothing."""
    x = {}
    for (depth, _), lab in assignment.items():
        vec = pbtl.vectors.get(lab) if depth == pbtl.H else None
        if vec:     # summed in place, zero entries dropped as vec_add does
            for i, v in vec.items():
                w = x.get(i, 0) + v
                if w:
                    x[i] = w
                else:
                    x.pop(i, None)
    return x


def check_labeling(pbtl, labeling):
    """Raise ValueError if the labeling is not valid.  Triples are checked
    as ids (``int_view``); a label outside ``pbtl.labels`` makes any triple
    invalid.  Dummy subtrees are checked once per height."""
    asg = labeling.assignment
    H = pbtl.H
    if labeling.label_at(0, 0) != pbtl.root:
        raise ValueError("root label mismatch")
    view = pbtl.int_view()
    rank, nl = view.rank, len(view.labels)
    m = nl + 1
    known = (view.parent < nl) & (view.left < nl) & (view.right < nl)
    codes = set(((view.parent * m + view.left) * m
                 + view.right)[known].tolist())

    def code(t):
        p, left, right = (rank.get(l, nl) for l in t)
        return (p * m + left) * m + right

    bot_heights = set()
    for (depth, i), lab in asg.items():
        if depth > 0 and (depth - 1, i // 2) not in asg:
            raise ValueError("vertex (%d,%d) has no assigned parent"
                             % (depth, i))
        if depth == H:
            continue
        left, right = (depth + 1, 2 * i), (depth + 1, 2 * i + 1)
        if left not in asg or right not in asg:
            bot_heights.update(range(1, H - depth))
        t = (lab, labeling.label_at(*left), labeling.label_at(*right))
        if code(t) not in codes:
            raise ValueError("invalid triple at vertex (%d,%d): %r"
                             % (depth, i, t))
    for h in bot_heights:
        if code(((h, BOT), (h - 1, BOT), (h - 1, BOT))) not in codes:
            raise ValueError("dummy copy triple missing at height %d" % h)


# ---------------------------------------------------------------------------
# step 1: DP -> FTL (fixed vectors pushed into new base labels)


@dataclass
class Reduction:
    """Carries every stage of the chain plus the bookkeeping needed to invert
    a labeling back into a witness."""
    inst: AdditiveDpInstance
    delta: int
    delta1: int = 0            # bound after fixed-vector removal
    delta2: int = 0            # bound after binarization (used downstream)
    ftl1: FtlInstance | None = None
    ftl2: FtlInstance | None = None
    shallow: FtlInstance | None = None
    pbtl: PbtlInstance | None = None
    H: int = 0
    pair_choice: dict = field(default_factory=dict)   # (pid, children) -> choice idx


def dp_to_ftl(inst, reduction=None):
    """Labels are problem ids; every choice with a nonzero fixed vector gets
    an extra base label ("fix", pid, ci) carrying that vector, appended to the
    choice's children.  Achievable vector sets are unchanged."""
    red = reduction if reduction is not None else Reduction(inst=inst, delta=0)
    labels = [p.id for p in inst.problems]
    base = {p.id: dict(p.x) for p in inst.problems if p.base and p.x is not None}
    pairs = []
    any_fixed = False
    for p in inst.problems:
        if p.base:
            continue
        for ci, ch in enumerate(p.choices):
            children = list(ch.children)
            if any(v for v in ch.fixed.values()):
                lab = ("fix", p.id, ci)
                labels.append(lab)
                base[lab] = dict(ch.fixed)
                children.append(lab)
                any_fixed = True
            children = tuple(sorted(children, key=_label_sort_key))
            key = (p.id, children)
            # identical (parent, children) pairs collapse; remember the first
            # choice index, the vector sets coincide anyway
            if key not in red.pair_choice:
                red.pair_choice[key] = ci
                pairs.append(key)
    ftl = FtlInstance(labels=labels, root=inst.root, base=base, pairs=pairs,
                      packing=inst.packing, cost=inst.cost, d=inst.d, m=inst.m)
    red.ftl1 = ftl
    red.delta1 = 2 * red.delta if any_fixed else red.delta
    return ftl


def binarize_pairs(ftl, reduction=None):
    """Split every pair with more than two children into a balanced binary
    tree of fresh intermediate labels; a pair with k children creates k-2 new
    labels.  One- and two-child pairs pass through unchanged."""
    red = reduction
    labels = list(ftl.labels)
    pairs = []
    widened = False

    def split(parent, kids, pair_idx, counter):
        # kids: list of labels; emit pairs building a balanced binary tree
        if len(kids) <= 2:
            pairs.append((parent, tuple(kids)))
            return
        half = (len(kids) + 1) // 2
        left, right = kids[:half], kids[half:]
        subs = []
        for part in (left, right):
            if len(part) == 1:
                subs.append(part[0])
            else:
                lab = ("bin", pair_idx, counter[0])
                counter[0] += 1
                labels.append(lab)
                subs.append(lab)
        pairs.append((parent, tuple(subs)))
        for sub, part in zip(subs, (left, right)):
            if len(part) > 1:
                split(sub, part, pair_idx, counter)

    for idx, (parent, children) in enumerate(ftl.pairs):
        if len(children) > 2:
            widened = True
        split(parent, list(children), idx, [0])

    out = FtlInstance(labels=labels, root=ftl.root, base=dict(ftl.base),
                      pairs=pairs, packing=ftl.packing, cost=ftl.cost,
                      d=ftl.d, m=ftl.m)
    if red is not None:
        red.ftl2 = out
        red.delta2 = 2 * red.delta1 if widened else red.delta1
    return out


# ---------------------------------------------------------------------------
# step 3: shallow labels (l, s, D)


def ftl_shallow(ftl, delta, reduction=None):
    """Build the shallow instance over labels (l, s, D) for the binarized
    input.  Labels are generated bottom-up as a closure, so only derivable
    (reachable from some actual subtree combination) labels materialize:

      * base: (l, 1, ()) for base l with x(l); (l, 1, (l,)) with zero vector
        for every other l (a marked leaf standing for a cut point);
      * leaf rules: a 1- or 2-child pair whose piece has one level of edges;
      * split rule: (l, s', D') above + (l'', s'', D'') below a cut point
        l'' in D' combine to (l, s'+s''-1, (D' - l'') + D'').

    The multiset D never exceeds 3 entries; sizes stay <= delta.

    The closure runs on ints, and it is the closure over the labels
    themselves, step for step.  The binarized labels get ids in ``repr``
    order, so a D kept as a sorted id tuple lists its labels as a ``repr``
    sort of them would.  Each shallow label gets a dense id when it is
    first derived, and a pair is keyed by ids.  The work list is LIFO and
    each partner list grows in derivation order, as they would over the
    labels, so the pairs come out in the same order.  ``labels`` is sorted by
    ``repr``, ``base`` follows ``ftl.labels``, ``pairs`` the derivation
    order; the ids stay on the result as its ``int_view()``.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    names = sorted(ftl.labels, key=_label_sort_key)
    lid = {lab: i for i, lab in enumerate(names)}
    is_base = [lab in ftl.base for lab in names]
    keys = []               # shallow id -> (l, s, D) over binarized ids
    sid = {}                # (l, s, D) -> shallow id
    by_root = [[] for _ in names]   # l -> shallow ids rooted at l (s >= 2)
    by_cut = [[] for _ in names]    # l -> shallow ids with l in D (s >= 2)

    def new_label(key):
        i = len(keys)
        keys.append(key)
        sid[key] = i
        if key[1] >= 2:
            by_root[key[0]].append(i)
            for cut in set(key[2]):
                by_cut[cut].append(i)
        return i

    leaf = [0] * len(names)         # l -> id of the one-vertex piece of l
    for lab in ftl.labels:
        i = lid[lab]
        leaf[i] = new_label((i, 1, ()) if is_base[i] else (i, 1, (i,)))

    pairs = []              # (parent id, child ids)
    seen = set()            # leaf rules: (parent, kids); splits: (top, bottom)
    work = []
    # leaf-piece rules from the underlying pairs
    for parent, children in ftl.pairs:
        s = 1 + len(children)
        if s > delta:
            continue
        ids = [lid[c] for c in children]
        key = (lid[parent], s, tuple(sorted(c for c in ids if not is_base[c])))
        kids = tuple(leaf[c] for c in ids)
        p = sid.get(key)
        if p is None:
            p = new_label(key)
            work.append(p)
        elif (p, kids) in seen:
            continue
        seen.add((p, kids))
        pairs.append((p, kids))

    def combine(top, bottom):
        # top = (l, s', D') with bottom's root in D'; glue below the cut point
        tl, ts, td = keys[top]
        bl, bs, bd = keys[bottom]
        s = ts + bs - 1
        if s > delta or len(td) + len(bd) > 4:
            return
        k = td.index(bl)
        key = (tl, s, tuple(sorted(td[:k] + td[k + 1:] + bd)))
        kids = (top, bottom)
        p = sid.get(key)
        if p is None:
            p = new_label(key)
            work.append(p)
        elif kids in seen:
            return
        seen.add(kids)
        pairs.append((p, kids))

    while work:
        t = work.pop()
        l, s, d = keys[t]
        if s < 2:
            continue
        # as the upper piece: partners rooted at any of its cut labels
        for cut in dict.fromkeys(d):
            bottoms = by_root[cut]
            for j in range(len(bottoms)):
                combine(t, bottoms[j])
        # as the lower piece: partners holding this root in their multiset
        tops = by_cut[l]
        for j in range(len(tops)):
            combine(tops[j], t)

    # root attachment: the whole tree is a portal-free piece of any size.
    # The root mark and BOT take the two ids after the shallow labels.
    root_mark = len(keys)
    root = lid.get(ftl.root)
    for s in range(1, delta + 1):
        cand = sid.get((root, s, ()))
        if cand is not None:
            pairs.append((root_mark, (cand,)))

    objs = [(names[l], s, tuple(names[c] for c in d)) for l, s, d in keys]
    base = {objs[i]: dict(ftl.base.get(lab, {}))
            for i, lab in enumerate(ftl.labels)}
    objs += (ROOT_MARK, BOT)
    out = FtlInstance(labels=sorted(objs[:-1], key=_label_sort_key),
                      root=ROOT_MARK, base=base,
                      pairs=[(objs[p], tuple(map(objs.__getitem__, kids)))
                             for p, kids in pairs],
                      packing=ftl.packing, cost=ftl.cost, d=ftl.d, m=ftl.m)
    out._ints = IntView(names=objs, pairs=pairs, base=list(range(len(base))),
                        root=root_mark, bot=root_mark + 1)
    if reduction is not None:
        reduction.shallow = out
    return out


# ---------------------------------------------------------------------------
# step 4: perfect binary tree instance with labels (h, l)


def fast_height(delta2):
    """Empirically calibrated height bound; the separator decomposition of a
    size-s tree never came close to this in randomized stress runs (the
    tests' forward map, ``decompose_witness``, checks it)."""
    return 2 * math.ceil(math.log2(max(2, delta2))) + 4


def check_epsilon(eps):
    """ValueError unless eps is a finite number > 0."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("epsilon must be finite and > 0, not %r" % (eps,))


def layered_height(delta2, eps):
    """``fast_height`` rounded up to a multiple of ceil(1/eps).  The LP
    groups the tree into ceil(1/eps) super-layers of equal height, so a
    solve at eps reduces at this height; ``lp.normalize_epsilon`` rejects
    any other."""
    k = math.ceil(1 / eps)
    return k * math.ceil(fast_height(delta2) / k)


def _shallow_ranks(view, H):
    """Least height at which each shallow label finishes a valid subtree,
    and at which each pair fires, as lists over ``view``'s ids; H + 1 stands
    for "not within H".

    Base labels and BOT have rank 0.  A pair fires once all its children are
    ranked, at one more than the largest child rank, and gives its parent
    that rank if the parent has none yet.  Labels are ranked level by level,
    so each label and each pair is handled once."""
    pairs = view.pairs
    none = H + 1
    waiting = []
    by_child = [[] for _ in view.names]
    for i, (_, kids) in enumerate(pairs):
        kids = set(kids)
        waiting.append(len(kids))
        for c in kids:
            by_child[c].append(i)
    rank = [none] * len(view.names)
    pair_rank = [none] * len(pairs)
    level = list(dict.fromkeys([*view.base, view.bot]))
    for c in level:
        rank[c] = 0
    for h in range(1, H + 1):
        nxt = []
        for c in level:
            for i in by_child[c]:
                waiting[i] -= 1
                if waiting[i] == 0:
                    pair_rank[i] = h
                    parent = pairs[i][0]
                    if rank[parent] == none:
                        rank[parent] = h
                        nxt.append(parent)
        if not nxt:
            break
        level = nxt
    return rank, pair_rank


def ftl_to_pbtl(shallow, H, reduction=None):
    """Height-indexed labels (h, l); derivation trees of the shallow instance
    embed with the dummy label filling unused slots and base labels extended
    downward by copy triples.  Labels (0, l) exist only for base l, so a valid
    labeling can never cut a derivation short.

    Only labels that can appear under the root and can finish a valid subtree
    of their height are built.  A label's rank is the least height at which
    it finishes one (``_shallow_ranks``); base labels copy down and BOT pads
    at every height, so (h, l) can finish exactly when rank(l) <= h.  A walk
    from (H, root) then keeps, at each height h, the pairs of the kept
    parents whose children all have rank <= h - 1, plus the base and BOT
    copy triples of the kept base labels and BOT.  Triples are listed by
    height; within a height, pairs in ``shallow.pairs`` order, then base
    copies in ``shallow.base`` order, then the BOT copy.  When the root's
    rank exceeds H no labeling exists: the only label is the root and there
    are no triples.

    Ranks and walk run on the ids of ``shallow.int_view()``, whose pairs
    and base ids are in ``shallow.pairs`` and ``shallow.base`` order, so
    they list the triples in that order too.  The kept labels are then
    numbered once, in repr order, and the triples kept as id arrays: the
    result's ``int_view()``.  Its ``triples`` are decoded only when read."""
    view = shallow.int_view()
    names, pairs, bot = view.names, view.pairs, view.bot
    rank, pair_rank = _shallow_ranks(view, H)
    fired = [[] for _ in names]     # id -> its pairs that fire within H
    for i, (parent, _) in enumerate(pairs):
        if pair_rank[i] <= H:
            fired[parent].append(i)

    kept = [set() for _ in range(H + 1)]    # h -> the kept shallow ids
    kept[H].add(view.root)
    levels = []     # (h, the rules of its triples as (parent, children))
    if rank[view.root] <= H:
        for h in range(H, 0, -1):
            up = kept[h]
            rules = [pairs[i] for i in sorted(i for l in up for i in fired[l]
                                              if pair_rank[i] <= h)]
            # base and BOT copies are one-child rules: BOT fills the right
            rules += [(b, (b,)) for b in view.base if b in up]
            if bot in up:
                rules.append((bot, (bot,)))
            kept[h - 1].update(chain.from_iterable(k for _, k in rules))
            if any(len(k) == 1 for _, k in rules):
                kept[h - 1].add(bot)
            levels.append((h, rules))

    # The kept labels (h, l) by (h, l id), and their ids in repr order.  The
    # repr of (h, l) is "(" + repr(h) + ", " + repr(l) + ")".  Heights are
    # digits, and "," sorts before every digit, so labels of two heights
    # compare as the reprs of the heights do; labels of one height compare
    # as repr(l) + ")" does.  So one lexsort over those two ranks numbers
    # the labels as sorted(labels, key=repr) lists them.
    sizes = [len(k) for k in kept]
    hs = np.repeat(np.arange(H + 1), sizes)
    ls = np.fromiter(chain.from_iterable(map(sorted, kept)), dtype=np.intp,
                     count=len(hs))
    key = hs * len(names) + ls                 # ascending
    h_rank = np.empty(H + 1, dtype=np.intp)
    h_rank[sorted(range(H + 1), key=repr)] = np.arange(H + 1)
    used = sorted(set(ls.tolist()), key=lambda l: repr(names[l]) + ")")
    l_rank = np.empty(len(names), dtype=np.intp)
    l_rank[used] = np.arange(len(used))
    order = np.lexsort((l_rank[ls], h_rank[hs]))
    pid = np.empty(len(order), dtype=np.intp)
    pid[order] = np.arange(len(order))
    labels = [(h, names[l])
              for h, l in zip(hs[order].tolist(), ls[order].tolist())]

    def ids(h, shallow_ids):
        """The label ids of (h[j], shallow_ids[j])."""
        return pid[np.searchsorted(
            key, h * len(names) + np.asarray(shallow_ids, dtype=np.intp))]

    levels.reverse()
    rules = [r for _, level in levels for r in level]
    up = np.repeat(np.array([h for h, _ in levels], dtype=np.intp),
                   [len(level) for _, level in levels])
    base = [(b, x) for b, x in zip(view.base, shallow.base.values())
            if any(x.values()) and b in kept[0]]
    vectors = {labels[i]: dict(x) for i, (_, x) in
               zip(ids(0, [b for b, _ in base]).tolist(), base)}

    out = PbtlInstance(H=H, labels=labels,
                       root=labels[int(ids(H, [view.root])[0])],
                       vectors=vectors, triples=None,
                       packing=shallow.packing, cost=shallow.cost,
                       d=shallow.d, m=shallow.m)
    out._ids = TripleIds(labels, ids(up, [p for p, _ in rules]),
                         ids(up - 1, [k[0] for _, k in rules]),
                         ids(up - 1, [k[-1] if len(k) == 2 else bot
                                      for _, k in rules]))
    if reduction is not None:
        reduction.pbtl = out
        reduction.H = H
    return out


def reduce_chain(inst, delta, height_fn):
    """Run the whole forward chain, at height ``height_fn(delta2)``; returns
    a Reduction.  A solve at eps reduces at ``layered_height(delta2, eps)``."""
    red = Reduction(inst=inst, delta=delta)
    ftl1 = dp_to_ftl(inst, red)
    ftl2 = binarize_pairs(ftl1, red)
    shallow = ftl_shallow(ftl2, red.delta2, red)
    ftl_to_pbtl(shallow, height_fn(red.delta2), red)
    return red


# ---------------------------------------------------------------------------
# inverse: labeling -> witness


class LTree:
    """Plain labeled tree: a derivation of the binarized FTL or of the
    shallow instance."""
    __slots__ = ("label", "children")

    def __init__(self, label, children=()):
        self.label = label
        self.children = list(children)


def lift_labeling(red, labeling):
    """Turn a valid labeling of the reduced instance back into a witness of
    the original DP.  Stages: strip heights and dummies to recover the
    shallow derivation tree, reassemble the pieces bottom-up into a binarized
    derivation, contract the binarization labels, and read off choices."""
    H = red.pbtl.H
    base_set = set(red.shallow.base)

    def strip(depth, i):
        lab = labeling.label_at(depth, i)
        if is_dummy(H, depth, lab):
            return None   # a dummy subtree
        h, lab = lab
        if h != H - depth:
            raise ValueError("height index mismatch at (%d,%d)" % (depth, i))
        node = LTree(lab)
        if depth == H:
            return node
        left = strip(depth + 1, 2 * i)
        right = strip(depth + 1, 2 * i + 1)
        if lab in base_set:
            # copy chain: child repeats the same label; nothing to keep
            if right is not None or (left is not None and left.label != lab):
                raise ValueError("bad base extension at (%d,%d)" % (depth, i))
            return node
        node.children = [c for c in (left, right) if c is not None]
        if not node.children:
            raise ValueError("non-base label %r cut off at (%d,%d)"
                             % (lab, depth, i))
        return node

    root = strip(0, 0)
    if root is None or root.label != ROOT_MARK:
        raise ValueError("labeling does not start at the root mark")
    if len(root.children) != 1:
        raise ValueError("root mark must have exactly one piece below")
    ftl_tree = _reassemble(red, root.children[0])
    witness_node = _ftl_tree_to_witness(red, _contract_bin(red, ftl_tree))
    return make_witness(red.inst, witness_node)


def _reassemble(red, snode):
    """Shallow derivation -> binarized FTL tree (bottom-up gluing).

    Returns an LTree whose marked leaves (cut points) are LTree nodes with a
    special 'marked' flag encoded by storing label tuples ("cut", l)."""
    lab = snode.label
    l, s, d = lab
    if not snode.children:
        if lab in red.shallow.base:
            if d:
                return LTree(("cut", l))
            return LTree(l)
        raise ValueError("shallow leaf %r is not a base label" % (lab,))
    kids = [_reassemble(red, c) for c in snode.children]
    svals = [c.label[1] for c in snode.children]
    if all(v == 1 for v in svals):
        # one level of edges: children are real leaves / cut points
        return LTree(l, kids)
    # split rule: the child sharing our root label is the upper piece
    upper = None
    lower = None
    for c, k in zip(snode.children, kids):
        if c.label[0] == l and upper is None and c.label[1] >= 2:
            upper = (c, k)
        else:
            lower = (c, k)
    if upper is None or lower is None:
        raise ValueError("split pair under %r cannot be oriented" % (lab,))
    cut_label = lower[0].label[0]
    target = _find_cut(upper[1], cut_label)
    if target is None:
        raise ValueError("no cut point labeled %r in upper piece" % (cut_label,))
    parent, pos = target
    if parent is None:
        return lower[1]
    parent.children[pos] = lower[1]
    return upper[1]


def _find_cut(tree, cut_label, parent=None, pos=None):
    if tree.label == ("cut", cut_label) and not tree.children:
        return (parent, pos)
    for i, c in enumerate(tree.children):
        hit = _find_cut(c, cut_label, tree, i)
        if hit is not None:
            return hit
    return None


def _contract_bin(red, tree):
    """Remove binarization labels by splicing their children upward."""
    out = LTree(tree.label)
    stack = [(out, c) for c in reversed(tree.children)]
    while stack:
        parent, node = stack.pop()
        if isinstance(node.label, tuple) and node.label and node.label[0] == "bin":
            for c in reversed(node.children):
                stack.append((parent, c))
        else:
            sub = _contract_bin(red, node)
            parent.children.append(sub)
    return out


def _ftl_tree_to_witness(red, tree):
    lab = tree.label
    if isinstance(lab, tuple) and lab and lab[0] == "cut":
        raise ValueError("dangling cut point %r" % (lab,))
    p = red.inst.problem(lab)
    if p.base:
        if tree.children:
            raise ValueError("base label %r has children" % (lab,))
        return WitnessNode(problem_id=lab)
    names = []
    real_kids = []
    for c in tree.children:
        names.append(c.label)
        if not (isinstance(c.label, tuple) and c.label and c.label[0] == "fix"):
            real_kids.append(c)
    key = (lab, tuple(sorted(names, key=_label_sort_key)))
    if key not in red.pair_choice:
        raise ValueError("no choice matches %r" % (key,))
    ci = red.pair_choice[key]
    kids = tuple(_ftl_tree_to_witness(red, c) for c in real_kids)
    return WitnessNode(problem_id=lab, choice_index=ci, children=kids)

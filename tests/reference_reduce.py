"""String-label references for steps 3 and 4 of the reduction.

``reference_shallow`` and ``reference_walk_pbtl`` are ``ftl_shallow`` and
``ftl_to_pbtl`` as they ran on the labels themselves, with every multiset
sorted by ``repr``.  The library runs both steps on interned int labels;
the tests check that it gives these functions' bytes, order included."""

from treepack.reduce import BOT, ROOT_MARK, FtlInstance, PbtlInstance


def _leaf_label(ftl, label):
    """Shallow base label of a tree leaf: base labels keep an empty multiset,
    everything else is a marked cut point carrying itself."""
    if label in ftl.base:
        return (label, 1, ())
    return (label, 1, (label,))


def _merge_multisets(d1, d2):
    return tuple(sorted(list(d1) + list(d2), key=repr))


def _remove_once(d, item):
    lst = list(d)
    lst.remove(item)
    return tuple(lst)


def reference_shallow(ftl, delta):
    """The shallow instance over labels (l, s, D), closed bottom-up from the
    leaf-piece rules by the split rule, then topped by the root mark."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    base = {}
    for lab in ftl.labels:
        if lab in ftl.base:
            base[(lab, 1, ())] = dict(ftl.base[lab])
        else:
            base[(lab, 1, (lab,))] = {}

    labels = set(base)
    pairs = []
    pair_seen = set()
    by_root = {}            # ftl label -> shallow labels rooted there (s >= 2)
    by_cut = {}             # ftl label -> shallow labels with it in D (s >= 2)

    def note(label):
        if label[1] >= 2:
            by_root.setdefault(label[0], []).append(label)
            for cut in dict.fromkeys(label[2]):
                by_cut.setdefault(cut, []).append(label)

    def add_pair(parent, children):
        key = (parent, children)
        if key in pair_seen:
            return None
        pair_seen.add(key)
        pairs.append(key)
        if parent not in labels:
            labels.add(parent)
            note(parent)
            return parent
        return None

    work = []
    for parent, children in ftl.pairs:
        s = 1 + len(children)
        if s > delta:
            continue
        cut = tuple(sorted((c for c in children if c not in ftl.base),
                           key=repr))
        kid_labels = tuple(_leaf_label(ftl, c) for c in children)
        new = add_pair((parent, s, cut), kid_labels)
        if new is not None:
            work.append(new)

    def combine(top, bottom):
        s = top[1] + bottom[1] - 1
        if s > delta:
            return
        d = _merge_multisets(_remove_once(top[2], bottom[0]), bottom[2])
        if len(d) > 3:
            return
        new = add_pair((top[0], s, d), (top, bottom))
        if new is not None:
            work.append(new)

    while work:
        lab = work.pop()
        if lab[1] < 2:
            continue
        for cut in dict.fromkeys(lab[2]):
            for bottom in list(by_root.get(cut, ())):
                combine(lab, bottom)
        for top in list(by_cut.get(lab[0], ())):
            combine(top, lab)

    labels.add(ROOT_MARK)
    for s in range(1, delta + 1):
        cand = (ftl.root, s, ())
        if cand in labels:
            add_pair(ROOT_MARK, (cand,))

    return FtlInstance(labels=sorted(labels, key=repr), root=ROOT_MARK,
                       base=base, pairs=pairs, packing=ftl.packing,
                       cost=ftl.cost, d=ftl.d, m=ftl.m)


def _shallow_ranks(shallow, H):
    """Least height at which each shallow label finishes a valid subtree
    (at most H), and the rank of each pair that fires."""
    pairs = shallow.pairs
    waiting = []
    by_child = {}
    for i, (_, children) in enumerate(pairs):
        kids = dict.fromkeys(children)
        waiting.append(len(kids))
        for c in kids:
            by_child.setdefault(c, []).append(i)
    rank = dict.fromkeys(shallow.base, 0)
    rank[BOT] = 0
    pair_rank = {}
    level = list(rank)
    for h in range(1, H + 1):
        nxt = []
        for c in level:
            for i in by_child.get(c, ()):
                waiting[i] -= 1
                if waiting[i] == 0:
                    pair_rank[i] = h
                    parent = pairs[i][0]
                    if parent not in rank:
                        rank[parent] = h
                        nxt.append(parent)
        if not nxt:
            break
        level = nxt
    return rank, pair_rank


def reference_walk_pbtl(shallow, H):
    """Ranks, then the top-down walk from (H, root), on the labels."""
    rank, pair_rank = _shallow_ranks(shallow, H)
    root = (H, shallow.root)
    pairs = shallow.pairs
    pairs_of = {}
    for i, (parent, _) in enumerate(pairs):
        pairs_of.setdefault(parent, []).append(i)

    keep = {root}
    levels = []
    if rank.get(shallow.root, H + 1) <= H:
        kept = {shallow.root}
        for h in range(H, 0, -1):
            idx = sorted(i for l in kept for i in pairs_of.get(l, ())
                         if pair_rank.get(i, H + 1) <= h)
            bases = [b for b in shallow.base if b in kept]
            bot = BOT in kept
            below = set(bases)
            for i in idx:
                below.update(pairs[i][1])
            if bases or bot or any(len(pairs[i][1]) == 1 for i in idx):
                below.add(BOT)
            levels.append((h, idx, bases, bot))
            keep.update((h - 1, l) for l in below)
            kept = below

    triples = []
    for h, idx, bases, bot in reversed(levels):
        for i in idx:
            parent, children = pairs[i]
            right = children[1] if len(children) == 2 else BOT
            triples.append(((h, parent), (h - 1, children[0]), (h - 1, right)))
        triples.extend(((h, b), (h - 1, b), (h - 1, BOT)) for b in bases)
        if bot:
            triples.append(((h, BOT), (h - 1, BOT), (h - 1, BOT)))
    vectors = {(0, b): dict(x) for b, x in shallow.base.items()
               if any(x.values()) and (0, b) in keep}
    return PbtlInstance(H=H, labels=sorted(keep, key=repr), root=root,
                        vectors=vectors, triples=triples,
                        packing=shallow.packing, cost=shallow.cost,
                        d=shallow.d, m=shallow.m)

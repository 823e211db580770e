"""The forward map of the tests: a DP witness -> its binarized FTL
derivation tree -> a shallow label tree (recursive balanced separator with
portal control) -> a labeling of the perfect binary tree.  The solver runs
only the inverse, ``reduce.lift_labeling``; the tests use this map to show
that every witness within the size budget has a labeling.  Labels and
multisets are ordered by repr, as the reduction orders them."""

import math

from treepack.core import WitnessNode
from treepack.reduce import ROOT_MARK, Labeling, LTree


def tree_size(tree):
    return 1 + sum(tree_size(c) for c in tree.children)


def tree_height(tree):
    if not tree.children:
        return 0
    return 1 + max(tree_height(c) for c in tree.children)


def walk(tree):
    yield tree
    for c in tree.children:
        yield from walk(c)


def witness_to_ftl_tree(red, node):
    """DP witness -> binarized FTL derivation tree (labels of red.ftl2)."""
    if not isinstance(node, WitnessNode):
        node = node.root
    p = red.inst.problem(node.problem_id)
    if p.base:
        return LTree(node.problem_id)
    ch = p.choices[node.choice_index]
    kids = {c.problem_id: [] for c in node.children}
    for c in node.children:
        kids[c.problem_id].append(witness_to_ftl_tree(red, c))
    ordered = []
    names = list(ch.children)
    if any(v for v in ch.fixed.values()):
        names.append(("fix", node.problem_id, node.choice_index))
    names.sort(key=repr)
    for name in names:
        if isinstance(name, tuple) and name and name[0] == "fix":
            ordered.append(LTree(name))
        else:
            ordered.append(kids[name].pop())
    # replay the binarization's balanced split so labels line up with ftl2
    pair_key = (node.problem_id, tuple(names))
    return _binarize_tree(red, node.problem_id, ordered, pair_key)


def _binarize_tree(red, parent_label, kid_trees, pair_key):
    idx = None
    for i, (par, children) in enumerate(red.ftl1.pairs):
        if (par, children) == pair_key:
            idx = i
            break
    if idx is None:
        raise ValueError("unknown pair %r" % (pair_key,))

    counter = [0]

    def build_inner(lab, kids):
        # label allocation order must replay binarize_pairs exactly
        node = LTree(lab)
        if len(kids) <= 2:
            node.children = list(kids)
            return node
        half = (len(kids) + 1) // 2
        parts = (kids[:half], kids[half:])
        subs = []
        for part in parts:
            if len(part) == 1:
                subs.append(None)
            else:
                subs.append(("bin", idx, counter[0]))
                counter[0] += 1
        for sub, part in zip(subs, parts):
            if sub is None:
                node.children.append(part[0])
            else:
                node.children.append(build_inner(sub, part))
        return node

    return build_inner(parent_label, kid_trees)


def normalized_size(red, node):
    """Size of the witness's image in the binarized FTL (what delta2 bounds)."""
    return tree_size(witness_to_ftl_tree(red, node))


# ---------------------------------------------------------------------------
# Algorithm: separator decomposition of a derivation tree


def decompose_witness(red, witness_root):
    """Decompose the binarized derivation tree of a witness into a shallow
    label tree (root carries the extra root label).

    Pieces are split either at a vertex whose subtree holds between a third
    and two thirds of the piece (first such vertex in DFS preorder), or, when
    three cut points have accumulated, at the deepest vertex separating
    exactly two of them."""
    t = witness_to_ftl_tree(red, witness_root)

    # index the tree: ids, parents, children within the full tree
    nodes = []

    def collect(n):
        nodes.append(n)
        for c in n.children:
            collect(c)
    collect(t)
    idx = {id(n): i for i, n in enumerate(nodes)}
    children = {i: [idx[id(c)] for c in n.children] for i, n in enumerate(nodes)}
    label = {i: n.label for i, n in enumerate(nodes)}
    is_tree_leaf = {i: not children[i] for i in children}

    def piece_node(root, verts):
        kids = lambda v: [c for c in children[v] if c in verts]

        def subtree(v):
            out = [v]
            for c in kids(v):
                out.extend(subtree(c))
            return out

        portals = [v for v in verts if not kids(v) and not is_tree_leaf[v]]
        s = len(verts)
        dmulti = tuple(sorted((label[v] for v in portals), key=repr))
        me = (label[root], s, dmulti)
        if s == 1:
            return LTree(me)
        lvl1 = all(not kids(c) for c in kids(root))
        if lvl1:
            subs = [piece_node(c, {c}) for c in kids(root)]
            return LTree(me, subs)
        if len(portals) <= 2:
            v = _size_split(root, verts, kids, subtree, s)
        else:
            v = _portal_split(root, verts, kids, set(portals))
        below = set(subtree(v))
        top = (verts - below) | {v}
        return LTree(me, [piece_node(root, top), piece_node(v, below)])

    def _size_split(root, verts, kids, subtree, s):
        lo, hi = s // 3, math.ceil(2 * s / 3)
        order = []

        def dfs(v):
            order.append(v)
            for c in kids(v):
                dfs(c)
        dfs(root)
        for v in order[1:]:
            if kids(v) and lo <= len(subtree(v)) <= hi:
                return v
        raise AssertionError("no separator vertex found (size %d)" % s)

    def _portal_split(root, verts, kids, portals):
        best = None

        def dfs(v, depth):
            nonlocal best
            cnt = 1 if v in portals else 0
            for c in kids(v):
                cnt += dfs(c, depth + 1)
            if v != root and cnt == 2:
                if best is None or depth > best[0]:
                    best = (depth, v)
            return cnt
        dfs(root, 0)
        if best is None:
            raise AssertionError("no two-portal separator found")
        return best[1]

    body = piece_node(idx[id(t)], set(range(len(nodes))))
    return LTree(ROOT_MARK, [body])


def check_shallow_tree(red, tree):
    """Verify that a shallow label tree only uses pairs of the shallow
    instance (root mark included).  Returns a list of violations."""
    shallow = red.shallow
    pair_set = set((p, c) for p, c in shallow.pairs)
    errs = []
    for node in walk(tree):
        if not node.children:
            if node.label not in shallow.base:
                errs.append("leaf %r is not a base label" % (node.label,))
            continue
        kids = tuple(c.label for c in node.children)
        if (node.label, kids) not in pair_set and \
           (node.label, tuple(reversed(kids))) not in pair_set:
            errs.append("pair (%r -> %r) not allowed" % (node.label, kids))
    return errs


# ---------------------------------------------------------------------------
# embedding a shallow tree into the perfect binary tree


def shallow_tree_to_labeling(red, tree):
    """Place a shallow derivation tree onto the perfect binary tree: pieces
    keep their parent/child arrangement, leaves repeat downward via the base
    copy rule, every unused slot holds the dummy label."""
    pbtl = red.pbtl
    H = pbtl.H
    asg = {}

    def place(node, depth, i):
        lab = node.label
        asg[(depth, i)] = (H - depth, lab)
        if depth == H:
            if node.children:
                raise ValueError("shallow tree deeper than H=%d" % H)
            return
        kids = node.children
        if not kids:
            # extend the base label downward; the right slot stays dummy
            place(node, depth + 1, 2 * i)
        elif len(kids) == 1:
            place(kids[0], depth + 1, 2 * i)
        else:
            place(kids[0], depth + 1, 2 * i)
            place(kids[1], depth + 1, 2 * i + 1)

    place(tree, 0, 0)
    return Labeling.of(pbtl, asg)


def witness_to_labeling(red, witness_root):
    return shallow_tree_to_labeling(red, decompose_witness(red, witness_root))

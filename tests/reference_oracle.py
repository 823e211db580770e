"""The PBTL labeling enumerators the tests check the pipeline against.

``pbtl_vector_set`` lists the solution vectors of every valid labeling,
``count_labelings`` counts the labelings and ``enumerate_labelings`` lists
them, sparse, with the dummy vertices left out; each memoizes on the
remaining height, since all subtrees of a perfect binary tree at one depth
admit the same labelings.  ``dense_labelings`` is ``enumerate_labelings``
as it ran before labelings were sparse: it walks every inner vertex of the
perfect binary tree, dummies included, and writes every vertex down.  The
sparse walk must give the same labelings in the same order, with the
dummy vertices left out (``strip_dummies``)."""

from treepack.core import vec_add, vec_from_key, vec_key
from treepack.reduce import BOT, Labeling, is_dummy


def triples_by_parent(pbtl):
    """The PBTL's triples per parent label, in triple order."""
    out = {}
    for t in pbtl.triples:
        out.setdefault(t[0], []).append(t)
    return out


def pbtl_vector_set(pbtl, cap=2000000):
    """All solution vectors of valid labelings, as a set of vector keys."""
    byp = triples_by_parent(pbtl)
    memo = {}

    def f(h, label):
        key = (h, label)
        if key in memo:
            return memo[key]
        if h == 0:
            out = {vec_key(pbtl.vector(label))}
        else:
            out = set()
            for _, a, b in byp.get(label, ()):
                fa, fb = f(h - 1, a), f(h - 1, b)
                for ka in fa:
                    xa = vec_from_key(ka)
                    for kb in fb:
                        out.add(vec_key(vec_add(xa, vec_from_key(kb))))
                        if len(out) > cap:
                            raise RuntimeError("vector set exceeds cap")
        memo[key] = out
        return out

    return f(pbtl.H, pbtl.root)


def count_labelings(pbtl):
    byp = triples_by_parent(pbtl)
    memo = {}

    def f(h, label):
        if (h, label) in memo:
            return memo[(h, label)]
        if h == 0:
            n = 1
        else:
            n = sum(f(h - 1, a) * f(h - 1, b)
                    for _, a, b in byp.get(label, ()))
        memo[(h, label)] = n
        return n

    return f(pbtl.H, pbtl.root)


def enumerate_labelings(pbtl, count_cap=20000):
    """Every valid labeling, explicitly.  Raises RuntimeError when there are
    more than count_cap of them.

    Labelings are sparse (``Labeling``), and a dummy vertex has only its
    copy triple, as ``reduce.ftl_to_pbtl`` builds them: the walk picks a
    triple at the non-dummy inner vertices alone.  It visits them in
    breadth-first order, so the labelings come out ordered by their triple
    choices in that order, as a walk over every inner vertex would give
    them."""
    if count_labelings(pbtl) > count_cap:
        raise RuntimeError("more than %d labelings" % count_cap)
    H, byp = pbtl.H, triples_by_parent(pbtl)
    asg = {}
    todo = []       # the non-dummy inner vertices so far, breadth first

    def put(d, i, label):
        if not is_dummy(H, d, label):
            asg[(d, i)] = label
            if d < H:
                todo.append((d, i))

    put(0, 0, pbtl.root)
    out = []
    # iterative backtracking along todo: the vertex at position pos tries
    # its label's triples in turn, and each try appends the non-dummy inner
    # children it labels; pick[pos] is the next try, size[pos] the length
    # of todo before it
    pick, size = [], []
    pos = 0
    while pos >= 0:
        if pos == len(todo):
            out.append(Labeling.of(pbtl, dict(sorted(asg.items()))))
            pos -= 1
            continue
        if pos == len(pick):
            pick.append(0)
            size.append(len(todo))
        d, i = todo[pos]
        del todo[size[pos]:]
        asg.pop((d + 1, 2 * i), None)
        asg.pop((d + 1, 2 * i + 1), None)
        cands = byp.get(asg[(d, i)], ())
        if pick[pos] < len(cands):
            _, a, b = cands[pick[pos]]
            pick[pos] += 1
            put(d + 1, 2 * i, a)
            put(d + 1, 2 * i + 1, b)
            pos += 1
        else:
            pick.pop()
            size.pop()
            pos -= 1
    return out


def dense_labelings(pbtl):
    """Every valid labeling, with all 2^(H + 1) - 1 vertices assigned."""
    byp = triples_by_parent(pbtl)
    out = []
    asg = {(0, 0): pbtl.root}
    # iterative backtracking over the internal vertices in BFS order; the
    # label of each vertex is fixed by its parent's triple choice
    verts = [(d, i) for d in range(pbtl.H) for i in range(1 << d)]
    pick = [0] * len(verts)
    pos = 0
    while pos >= 0:
        if pos == len(verts):
            out.append(Labeling.of(pbtl, dict(asg)))
            pos -= 1
            continue
        d, i = verts[pos]
        cands = byp.get(asg[(d, i)], ())
        if pick[pos] < len(cands):
            _, a, b = cands[pick[pos]]
            pick[pos] += 1
            asg[(d + 1, 2 * i)] = a
            asg[(d + 1, 2 * i + 1)] = b
            pos += 1
        else:
            pick[pos] = 0
            pos -= 1
    return out


def strip_dummies(labeling):
    """The labeling's assignment without its dummy vertices, the vertices
    at depth d labeled (H - d, BOT), as a list of (vertex, label) in
    assignment order."""
    dummy = [(labeling.H - d, BOT) for d in range(labeling.H + 1)]
    return [(v, lab) for v, lab in labeling.assignment.items()
            if lab != dummy[v[0]]]


def assert_matches_dense(pbtl, count_cap):
    """``enumerate_labelings`` lists the dense walk's labelings in its
    order, dummies left out and vectors equal, as many as
    ``count_labelings`` counts; returns how many."""
    got = enumerate_labelings(pbtl, count_cap=count_cap)
    want = dense_labelings(pbtl)
    assert len(got) == count_labelings(pbtl)
    assert [list(lab.assignment.items()) for lab in got] == \
        [strip_dummies(lab) for lab in want]
    assert [list(lab.vector.items()) for lab in got] == \
        [list(lab.vector.items()) for lab in want]
    return len(got)

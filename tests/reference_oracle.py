"""The dense labeling enumerator: ``oracle.enumerate_labelings`` as it ran
before labelings were sparse.  It walks every inner vertex of the perfect
binary tree, dummies included, and writes every vertex down.  The library's
walk must give the same labelings in the same order, with the dummy
vertices left out (``strip_dummies``)."""

from treepack import oracle
from treepack.reduce import BOT, Labeling


def dense_labelings(pbtl):
    """Every valid labeling, with all 2^(H + 1) - 1 vertices assigned."""
    byp = pbtl.triples_by_parent()
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
    got = oracle.enumerate_labelings(pbtl, count_cap=count_cap)
    want = dense_labelings(pbtl)
    assert len(got) == oracle.count_labelings(pbtl)
    assert [list(lab.assignment.items()) for lab in got] == \
        [strip_dummies(lab) for lab in want]
    assert [list(lab.vector.items()) for lab in got] == \
        [list(lab.vector.items()) for lab in want]
    return len(got)

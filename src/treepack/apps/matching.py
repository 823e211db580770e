"""Robust bipartite perfect matching via repeated path augmentation, and the
integrality-gap generator for the naive matching LP.

The matching is grown from empty.  Each round builds the residual network of
the current matching, chains F = (missing flow) copies of it, and asks the
robust path solver for one s-to-t walk through all copies under two families
of budgets: each residual edge may be used once across all copies, and every
original length constraint is carried over to the forward edge copies.  A
plain max flow restricted to the support of that walk then augments the
matching.  Reverse (residual) edges never appear in length rows and
unmatching an edge does not refund its length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import math

from .graphs import BipartiteGraph, DirectedGraph, Edge, max_flow
from .paths import robust_shortest_path


def matching_network(bg):
    """The unit-capacity flow network whose integral flows are matchings."""
    verts = ["#s"] + list(bg.left) + list(bg.right) + ["#t"]
    edges = [Edge("#s", u) for u in bg.left]
    first = len(edges)
    edges += [Edge(e.u, e.v) for e in bg.edges]
    edges += [Edge(v, "#t") for v in bg.right]
    return DirectedGraph(verts, edges), first


def _residual_chain(net, matched, F, bg, first):
    """F chained copies of the residual network of the current matching.

    Returns (graph, meta) where meta maps each chained edge id to
    (net edge id, forward?) or None for copy connectors.  Length vectors:
    one budget row per residual edge (its copies sum to at most one), then
    the original per-constraint rows on forward copies of matching edges.
    """
    k = max((len(e.lengths) for e in bg.edges), default=0)
    residual = []                      # (net edge id, forward?)
    for i, e in enumerate(net.edges):
        residual.append((i, i not in matched))
    nrows = len(residual) + k
    verts, edges, meta = [], [], []
    for c in range(F):
        for v in net.vertices:
            verts.append("%s#%d" % (v, c))
        for r, (i, fwd) in enumerate(residual):
            e = net.edges[i]
            u, v = (e.u, e.v) if fwd else (e.v, e.u)
            lengths = [0.0] * nrows
            lengths[r] = 1.0
            j = i - first
            if fwd and 0 <= j < len(bg.edges):
                for jj, a in enumerate(bg.edges[j].lengths):
                    lengths[len(residual) + jj] = a
            edges.append(Edge("%s#%d" % (u, c), "%s#%d" % (v, c),
                              lengths=tuple(lengths)))
            meta.append((i, fwd))
        if c + 1 < F:
            edges.append(Edge("#t#%d" % c, "#s#%d" % (c + 1),
                              lengths=(0.0,) * nrows))
            meta.append(None)
    return DirectedGraph(verts, edges), meta


@dataclass
class MatchingResult:
    status: str
    matching: list = field(default_factory=list)   # bipartite edge ids
    length_sums: list = field(default_factory=list)
    iterations: list = field(default_factory=list)  # missing flow per round
    alpha: float = 1.0                               # worst observed violation
    detail: str = ""


def robust_perfect_matching(bg, eps=0.5, params=None, iteration_cap=None):
    """Perfect matching found by augmentation; per-constraint sums reported
    (they can exceed 1 by the accumulated per-round violations)."""
    if len(bg.left) != len(bg.right):
        raise ValueError("perfect matching needs |U| = |V|")
    n = len(bg.left)
    net, first = matching_network(bg)
    matched = set()                       # net edge ids carrying flow
    trace = []
    alpha = 1.0
    rounds = 0
    while True:
        mbits = {i - first for i in matched
                 if first <= i < first + len(bg.edges)}
        F = n - len(mbits)
        trace.append(F)
        if F == 0:
            sums = [sum(bg.edges[j].lengths[jj] for j in mbits
                        if jj < len(bg.edges[j].lengths))
                    for jj in range(max((len(e.lengths)
                                         for e in bg.edges), default=0))]
            return MatchingResult(status="ok", matching=sorted(mbits),
                                  length_sums=sums, iterations=trace,
                                  alpha=alpha)
        cap = iteration_cap if iteration_cap is not None else \
            math.ceil(50 * max(alpha, 1.0) * math.log(n + 2))
        if rounds >= cap:
            return MatchingResult(status="stalled", matching=sorted(mbits),
                                  iterations=trace, alpha=alpha,
                                  detail="iteration cap %d reached" % cap)
        rounds += 1
        chain, meta = _residual_chain(net, matched, F, bg, first)
        res = robust_shortest_path(chain, "#s#0", "#t#%d" % (F - 1),
                                   eps=eps, params=params)
        if res.status != "ok":
            return MatchingResult(
                status="infeasible", matching=sorted(mbits),
                iterations=trace, alpha=alpha,
                detail="no feasible perfect matching under constraints "
                       "at this witness-size budget")
        if res.diagnostics is not None:
            alpha = max(alpha, res.diagnostics.max_violation)
        # restrict the residual network to the walk's support, then push
        # as much flow as fits
        support = {meta[i] for i in res.edges if meta[i] is not None}
        rg_edges, back = [], []
        for i, fwd in support:
            e = net.edges[i]
            u, v = (e.u, e.v) if fwd else (e.v, e.u)
            rg_edges.append(Edge(u, v))
            back.append((i, fwd))
        rg = DirectedGraph(net.vertices, rg_edges)
        gained, flow = max_flow(rg, "#s", "#t")
        if gained == 0:
            return MatchingResult(status="stalled", matching=sorted(mbits),
                                  iterations=trace, alpha=alpha,
                                  detail="augmentation stalled at zero flow")
        for r, units in flow.items():
            if units <= 0:
                continue
            i, fwd = back[r]
            if fwd:
                matched.add(i)
            else:
                matched.discard(i)


# ---------------------------------------------------------------------------
# integrality gap of the naive matching LP


def gap_instance(k):
    """The k-path construction where every perfect matching pays k on some
    length row while a fractional point pays at most 1 on all of them.

    Returns (BipartiteGraph with k length functions, {edge id: Fraction}).
    """
    if k < 2:
        raise ValueError("k must be at least 2")

    def v(j, i):
        return "v%d_%d" % (j, i)

    left = ["s"] + [v(j, 2 * i) for j in range(k) for i in range(1, k + 1)] \
        + ["t%d" % l for l in range(1, k)]
    right = [v(j, 2 * i + 1) for j in range(k) for i in range(k + 1)]
    edges = []
    frac = {}
    inv_k = Fraction(1, k)
    for j in range(k):
        edges.append(Edge("s", v(j, 1), lengths=(0,) * k))
        frac[len(edges) - 1] = inv_k
        for i in range(1, k + 1):
            # the path edge into an even vertex, oriented left-to-right part
            edges.append(Edge(v(j, 2 * i), v(j, 2 * i - 1),
                              lengths=(0,) * k))
            frac[len(edges) - 1] = 1 - inv_k
            lengths = [0] * k
            lengths[j] = 1
            edges.append(Edge(v(j, 2 * i), v(j, 2 * i + 1),
                              lengths=tuple(lengths)))
            frac[len(edges) - 1] = inv_k
        for l in range(1, k):
            edges.append(Edge("t%d" % l, v(j, 2 * k + 1), lengths=(0,) * k))
            frac[len(edges) - 1] = (1 - inv_k) / (k - 1)
    return BipartiteGraph(left=left, right=right, edges=edges), frac


def check_naive_lp(bg, x, budgets=None):
    """Violations of the naive matching LP at the (possibly fractional)
    point x: degree rows must equal one, length rows must fit the budgets
    (default 1).  Exact arithmetic when x holds Fractions."""
    errs = []
    deg = {u: 0 for u in list(bg.left) + list(bg.right)}
    for j, e in enumerate(bg.edges):
        deg[e.u] += x.get(j, 0)
        deg[e.v] += x.get(j, 0)
    for u, s in deg.items():
        if s != 1:
            errs.append("degree at %s is %s" % (u, s))
    k = max((len(e.lengths) for e in bg.edges), default=0)
    for jj in range(k):
        tot = sum(e.lengths[jj] * x.get(j, 0)
                  for j, e in enumerate(bg.edges) if jj < len(e.lengths))
        lim = budgets[jj] if budgets is not None else 1
        if tot > lim:
            errs.append("length row %d is %s > %s" % (jj, tot, lim))
    return errs


def perfect_matchings(bg):
    """All perfect matchings of a small bipartite graph (edge-id tuples)."""
    byleft = {u: [] for u in bg.left}
    for j, e in enumerate(bg.edges):
        byleft[e.u].append(j)
    order = list(bg.left)
    out = []

    def go(idx, used, acc):
        if idx == len(order):
            out.append(tuple(acc))
            return
        for j in byleft[order[idx]]:
            v = bg.edges[j].v
            if v not in used:
                used.add(v)
                acc.append(j)
                go(idx + 1, used, acc)
                acc.pop()
                used.discard(v)

    go(0, set(), [])
    return out

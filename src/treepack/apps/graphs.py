"""Graph containers shared by the application adapters, plus a small
integral max-flow routine used by the matching augmentation loop."""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core import json_kind


@dataclass
class Edge:
    u: str
    v: str
    cost: float = 0.0
    lengths: tuple = ()          # a^j values, one per packing constraint
    gain: int = 0
    cap: int = 1
    color: int | None = None


@dataclass
class DirectedGraph:
    vertices: list
    edges: list                   # Edge records; edge id == list position

    def __post_init__(self):
        vs = set(self.vertices)
        for e in self.edges:
            if e.u not in vs or e.v not in vs:
                raise ValueError("edge %s->%s uses undeclared vertex"
                                 % (e.u, e.v))
            for a in e.lengths:
                if not (0 <= a <= 1):
                    raise ValueError("length %r outside [0,1]" % (a,))

    def out_edges(self):
        out = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            out[e.u].append(i)
        return out

    def in_edges(self):
        inc = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            inc[e.v].append(i)
        return inc


@dataclass
class BipartiteGraph:
    left: list
    right: list
    edges: list                   # Edge records with u in left, v in right

    def __post_init__(self):
        L, R = set(self.left), set(self.right)
        if L & R:
            raise ValueError("left and right parts overlap")
        for e in self.edges:
            if e.u not in L or e.v not in R:
                raise ValueError("edge %s-%s crosses the bipartition wrong"
                                 % (e.u, e.v))


def topo_sort(g):
    """Topological order of a DirectedGraph; ValueError on a cycle."""
    out = g.out_edges()
    indeg = {v: 0 for v in g.vertices}
    for e in g.edges:
        indeg[e.v] += 1
    stack = [v for v in g.vertices if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for i in out[v]:
            w = g.edges[i].v
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(order) != len(g.vertices):
        raise ValueError("graph has a cycle")
    return order


# ---------------------------------------------------------------------------
# JSON interchange


def _edge_to_json(e):
    out = {"u": e.u, "v": e.v, "cost": e.cost}
    if e.lengths:
        out["lengths"] = list(e.lengths)
    if e.gain:
        out["gain"] = e.gain
    if e.cap != 1:
        out["cap"] = e.cap
    if e.color is not None:
        out["color"] = e.color
    return out


def _edge_from_json(d):
    return Edge(u=d["u"], v=d["v"], cost=d.get("cost", 0.0),
                lengths=tuple(d.get("lengths", ())), gain=d.get("gain", 0),
                cap=d.get("cap", 1), color=d.get("color"))


def graph_to_json(g):
    if isinstance(g, BipartiteGraph):
        return {"left": list(g.left), "right": list(g.right),
                "edges": [_edge_to_json(e) for e in g.edges]}
    return {"vertices": list(g.vertices),
            "edges": [_edge_to_json(e) for e in g.edges]}


def graph_from_json(d):
    """The graph a decoded JSON document describes; ValueError when the
    document is not an object."""
    if not isinstance(d, dict):
        raise ValueError("invalid graph: expected a JSON object, not %s"
                         % json_kind(d))
    edges = [_edge_from_json(e) for e in d["edges"]]
    if "left" in d:
        return BipartiteGraph(left=list(d["left"]), right=list(d["right"]),
                              edges=edges)
    return DirectedGraph(vertices=list(d["vertices"]), edges=edges)


def graph_loads(s):
    return graph_from_json(json.loads(s))


def graph_dumps(g):
    return json.dumps(graph_to_json(g), indent=2)


# ---------------------------------------------------------------------------
# max flow (shortest augmenting paths; integral capacities)


def max_flow(g, source, sink, capacities=None):
    """Integral max flow on a DirectedGraph.  Returns (value, flow dict
    edge-id -> units).  Deterministic: augmenting paths are found by BFS in
    input edge order."""
    cap = {i: (capacities[i] if capacities is not None else e.cap)
           for i, e in enumerate(g.edges)}
    flow = {i: 0 for i in cap}
    out = g.out_edges()
    inc = g.in_edges()
    total = 0
    while True:
        # BFS over the residual graph; parent[v] = (edge id, forward?)
        parent = {source: None}
        queue = [source]
        qi = 0
        while qi < len(queue) and sink not in parent:
            v = queue[qi]
            qi += 1
            for i in out[v]:
                w = g.edges[i].v
                if w not in parent and flow[i] < cap[i]:
                    parent[w] = (i, True)
                    queue.append(w)
            for i in inc[v]:
                w = g.edges[i].u
                if w not in parent and flow[i] > 0:
                    parent[w] = (i, False)
                    queue.append(w)
        if sink not in parent:
            return total, flow
        # bottleneck along the path, then push
        path = []
        v = sink
        while parent[v] is not None:
            i, fwd = parent[v]
            path.append((i, fwd))
            v = g.edges[i].u if fwd else g.edges[i].v
        push = min((cap[i] - flow[i]) if fwd else flow[i] for i, fwd in path)
        for i, fwd in path:
            flow[i] += push if fwd else -push
        total += push

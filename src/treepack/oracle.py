"""Brute-force reference solvers over the DP itself.

Everything here favors clarity over speed: exhaustive enumeration of the
DP's witness vectors with explicit size caps (``enumerate_solutions``) and
the exact optimum it gives (``solve_exact``).  ``treepack oracle`` and the
benchmark's lower-bound check run them; the tests use them to pin down
expected values and to cross-check the LP/rounding pipeline on small
instances.  The enumerators of PBTL labelings, which only the tests need,
live in ``tests/reference_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (WitnessNode, check_packing, make_witness, vec_add,
                   vec_dot, vec_from_key, vec_key)


# ---------------------------------------------------------------------------
# DP enumeration


@dataclass
class OracleTable:
    metric: str
    size_cap: int
    truncated: bool
    vectors: dict                  # per problem id: {vec_key: min metric}
    back: dict = field(repr=False, default_factory=dict)

    def root_vectors(self, inst):
        return self.vectors.get(inst.root, {})


def _node_weight(metric, n_children, fixed_nonzero):
    """Metric contribution of one internal witness node.

    nodes:      plain node count.
    normalized: node count of the image after fixed-vector removal and
                binarization -- the fixed vector becomes an extra leaf and a
                parent of k slots costs max(k-1, 1) inner vertices.
    """
    if metric == "nodes":
        return 1
    k = n_children + (1 if fixed_nonzero else 0)
    return max(k - 1, 1) + (1 if fixed_nonzero else 0)


def enumerate_solutions(inst, size_cap, count_cap=200000, metric="nodes"):
    """Bottom-up sumset enumeration.

    Returns an OracleTable mapping, per problem, each achievable vector to the
    minimum witness size (per the chosen metric) not exceeding size_cap.
    When any intermediate table outgrows count_cap the result is flagged
    truncated (kept entries are the smallest ones) rather than raising.
    """
    if metric not in ("nodes", "normalized"):
        raise ValueError("unknown metric %r" % metric)
    table = {}
    back = {}
    truncated = False

    def trim(d):
        nonlocal truncated
        if len(d) <= count_cap:
            return d
        truncated = True
        keep = sorted(d.items(), key=lambda kv: (kv[1][0], kv[0]))[:count_cap]
        return dict(keep)

    for pid in inst.topo_order():
        p = inst.problem(pid)
        if p.base:
            if p.x is None:
                table[pid] = {}
            else:
                vk = vec_key(p.x)
                table[pid] = {vk: (1, None)} if 1 <= size_cap else {}
            continue
        best = {}
        for ci, ch in enumerate(p.choices):
            fixed_nz = any(v for v in ch.fixed.values())
            w = _node_weight(metric, len(ch.children), fixed_nz)
            partial = {vec_key(ch.fixed): (w, ())}
            ok = True
            for child in ch.children:
                sub = table.get(child, {})
                if not sub:
                    ok = False
                    break
                new = {}
                for vk, (s, kids) in partial.items():
                    xv = vec_from_key(vk)
                    for cvk, (cs, _) in sub.items():
                        tot = s + cs
                        if tot > size_cap:
                            continue
                        nk = vec_key(vec_add(xv, vec_from_key(cvk)))
                        cur = new.get(nk)
                        if cur is None or tot < cur[0]:
                            new[nk] = (tot, kids + ((child, cvk),))
                partial = trim(new)
            if not ok:
                continue
            for vk, (s, kids) in partial.items():
                cur = best.get(vk)
                if cur is None or s < cur[0]:
                    best[vk] = (s, ci, kids)
        table[pid] = {vk: (s, (ci, kids)) for vk, (s, ci, kids) in best.items()}

    vectors = {pid: {vk: sv[0] for vk, sv in t.items()} for pid, t in table.items()}
    out = OracleTable(metric=metric, size_cap=size_cap, truncated=truncated,
                      vectors=vectors)
    for pid, t in table.items():
        for vk, (s, bp) in t.items():
            out.back[(pid, vk)] = bp
    return out


def reconstruct_witness(inst, table, pid, vk):
    """Rebuild one minimum witness node from the enumeration back pointers."""
    bp = table.back[(pid, vk)]
    if bp is None:
        return WitnessNode(problem_id=pid)
    ci, kids = bp
    children = tuple(reconstruct_witness(inst, table, cpid, cvk)
                     for cpid, cvk in kids)
    return WitnessNode(problem_id=pid, choice_index=ci, children=children)


def solve_exact(inst, size_cap, count_cap=200000, tol=1e-9):
    """Exhaustive optimum: cheapest root vector of size <= size_cap whose
    packing rows all stay <= 1 + tol.

    Returns (witness or None, optimum cost or None, table).  Raises
    RuntimeError when enumeration was truncated -- a truncated table cannot
    certify optimality.
    """
    table = enumerate_solutions(inst, size_cap, count_cap, metric="nodes")
    if table.truncated:
        raise RuntimeError("oracle enumeration truncated; raise count_cap")
    feas = []
    for vk in table.root_vectors(inst):
        x = vec_from_key(vk)
        _, worst = check_packing(inst, x)
        if worst <= 1 + tol:
            feas.append((vec_dot(inst.cost, x), vk))
    if not feas:
        return None, None, table
    feas.sort(key=lambda t: (t[0], t[1]))
    cost, vk = feas[0]
    node = reconstruct_witness(inst, table, inst.root, vk)
    return make_witness(inst, node), cost, table

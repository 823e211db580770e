"""Data model for additive dynamic programs with packing constraints.

An instance is a family of problems.  Base problems contribute a fixed
nonnegative integer vector; every other problem offers one or more choices,
each pairing a fixed vector with a nonempty list of child problems.  The
solution set of a problem is the union over its choices of the sumset of the
children's solution sets shifted by the choice's fixed vector.  On top of the
combinatorics sits a packing system ``A x <= 1`` (entries of ``A`` in [0,1])
and a linear cost ``c`` to minimize.

Vectors are sparse maps index -> value; ``d`` is the ambient dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real


# ---------------------------------------------------------------------------
# sparse vector helpers


def vec_add(a, b):
    """Sum of two sparse vectors (dicts), zero entries dropped."""
    out = dict(a)
    for i, v in b.items():
        w = out.get(i, 0) + v
        if w:
            out[i] = w
        else:
            out.pop(i, None)
    return out


def vec_key(a):
    """Canonical hashable form of a sparse vector."""
    return tuple(sorted((i, v) for i, v in a.items() if v))


def vec_from_key(key):
    return {i: v for i, v in key}


def vec_dot(dense, sparse):
    return sum(dense[i] * v for i, v in sparse.items())


def row_value(row, x):
    """Value of one packing row (sparse) against a sparse solution vector."""
    if len(row) < len(x):
        return sum(c * x.get(i, 0) for i, c in row.items())
    return sum(x[i] * row.get(i, 0) for i in x)


# ---------------------------------------------------------------------------
# instance model


@dataclass(frozen=True)
class Choice:
    fixed: dict            # sparse fixed vector x of the choice
    children: tuple        # nonempty tuple of child problem ids


@dataclass(frozen=True)
class Problem:
    id: str
    base: bool
    x: dict | None = None          # base vector; None marks an infeasible base
    choices: tuple = ()            # Choice tuple for non-base problems

    @property
    def infeasible(self):
        return self.base and self.x is None


@dataclass
class AdditiveDpInstance:
    d: int
    m: int
    root: str
    problems: list                 # list[Problem], order is significant
    packing: list                  # list of sparse rows, entries in [0,1]
    cost: list                     # dense length-d list
    _by_id: dict = field(default_factory=dict, repr=False)
    _topo: list | None = field(default=None, repr=False)

    def __post_init__(self):
        self._by_id = {p.id: p for p in self.problems}

    def problem(self, pid):
        return self._by_id[pid]

    def has_problem(self, pid):
        return pid in self._by_id

    def topo_order(self):
        """Topological order, children before parents.  Cached.

        Raises ValueError on a cycle.
        """
        if self._topo is not None:
            return self._topo
        state = {}  # 0 visiting, 1 done
        order = []
        for start in self._by_id:
            if state.get(start) == 1:
                continue
            stack = [(start, iter(self._children_of(start)))]
            state[start] = 0
            while stack:
                pid, it = stack[-1]
                advanced = False
                for child in it:
                    if child not in self._by_id:
                        continue
                    st = state.get(child)
                    if st == 0:
                        raise ValueError("cycle through problem %r" % child)
                    if st is None:
                        state[child] = 0
                        stack.append((child, iter(self._children_of(child))))
                        advanced = True
                        break
                if not advanced:
                    state[pid] = 1
                    order.append(pid)
                    stack.pop()
        self._topo = order
        return order

    def _children_of(self, pid):
        p = self._by_id[pid]
        for ch in p.choices:
            for c in ch.children:
                yield c


def validate_instance(inst):
    """Check all structural invariants.  Returns a list of violation strings
    (empty means the instance is well formed).  Violations are data, not
    exceptions."""
    errs = []
    seen = set()
    for p in inst.problems:
        if p.id in seen:
            errs.append("duplicate problem id %r" % p.id)
        seen.add(p.id)
    if inst.root not in seen:
        errs.append("root %r is not a declared problem" % inst.root)
        return errs
    rootp = inst.problem(inst.root)
    if rootp.base:
        errs.append("root %r must not be a base problem" % inst.root)
    for p in inst.problems:
        if p.base:
            if p.choices:
                errs.append("base problem %r has choices" % p.id)
            if p.x is not None:
                for i, v in p.x.items():
                    if not (0 <= i < inst.d):
                        errs.append("problem %r: vector index %d out of range"
                                    % (p.id, i))
                    if not isinstance(v, int) or v < 0:
                        errs.append("problem %r: vector entry %r not a "
                                    "nonnegative integer" % (p.id, v))
        else:
            if not p.choices:
                errs.append("non-base problem %r has no choices" % p.id)
            for ci, ch in enumerate(p.choices):
                if not ch.children:
                    errs.append("problem %r choice %d has no children"
                                % (p.id, ci))
                for c in ch.children:
                    if c not in inst._by_id:
                        errs.append("problem %r choice %d references unknown "
                                    "child %r" % (p.id, ci, c))
                for i, v in ch.fixed.items():
                    if not (0 <= i < inst.d):
                        errs.append("problem %r choice %d: fixed index %d out "
                                    "of range" % (p.id, ci, i))
                    if not isinstance(v, int) or v < 0:
                        errs.append("problem %r choice %d: fixed entry %r not "
                                    "a nonnegative integer" % (p.id, ci, v))
    if not errs:
        try:
            inst.topo_order()
        except ValueError as e:
            errs.append("cycle: %s" % e)
    if len(inst.packing) != inst.m:
        errs.append("packing has %d rows, m=%d" % (len(inst.packing), inst.m))
    for j, row in enumerate(inst.packing):
        for i, v in row.items():
            if not (0 <= i < inst.d):
                errs.append("packing row %d: index %d out of range" % (j, i))
            if not (0.0 <= v <= 1.0):
                errs.append("packing row %d: entry %r out of [0,1]" % (j, v))
    if len(inst.cost) != inst.d:
        errs.append("cost has length %d, d=%d" % (len(inst.cost), inst.d))
    for i, c in enumerate(inst.cost):
        if isinstance(c, bool) or not isinstance(c, Real) \
                or not math.isfinite(c):
            errs.append("cost entry %d: %r is not a finite number" % (i, c))
    return errs


def preprocess_instance(inst):
    """Strip infeasible base problems (and anything that becomes childless
    as a result).  Choices mentioning a removed problem are deleted; a
    non-base problem losing all its choices is removed too.

    Returns (instance', root_feasible).  When the root itself dies the
    original instance is returned with root_feasible=False.
    """
    dead = {p.id for p in inst.problems if p.infeasible}
    changed = True
    alive = {p.id: p for p in inst.problems if p.id not in dead}
    while changed:
        changed = False
        for pid in list(alive):
            p = alive[pid]
            if p.base:
                continue
            kept = tuple(ch for ch in p.choices
                         if all(c in alive for c in ch.children))
            if not kept:
                del alive[pid]
                changed = True
            elif len(kept) != len(p.choices):
                alive[pid] = replace(p, choices=kept)
    if inst.root not in alive:
        return inst, False
    if len(alive) == len(inst.problems):
        return inst, True
    probs = [alive[p.id] for p in inst.problems if p.id in alive]
    out = AdditiveDpInstance(d=inst.d, m=inst.m, root=inst.root,
                             problems=probs, packing=inst.packing,
                             cost=inst.cost)
    return out, True


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class WitnessNode:
    problem_id: str
    choice_index: int | None = None     # None for base leaves
    children: tuple = ()


@dataclass
class SolutionWitness:
    root: WitnessNode
    vector: dict       # cached sum of all fixed + base vectors
    size: int          # cached node count


def witness_size(node):
    """Number of nodes of a witness tree (the solution's size)."""
    if isinstance(node, SolutionWitness):
        node = node.root
    return 1 + sum(witness_size(c) for c in node.children)


def evaluate_witness(inst, node):
    """Sum of all fixed and base vectors along the witness tree.

    Raises ValueError when the witness does not structurally match the
    instance (unknown choice index, wrong child multiset).
    """
    if isinstance(node, SolutionWitness):
        node = node.root
    p = inst.problem(node.problem_id)
    if p.base:
        if node.children or node.choice_index is not None:
            raise ValueError("base node %r has children" % p.id)
        if p.x is None:
            raise ValueError("witness uses infeasible base %r" % p.id)
        return dict(p.x)
    if node.choice_index is None or not (0 <= node.choice_index < len(p.choices)):
        raise ValueError("bad choice index on %r" % p.id)
    ch = p.choices[node.choice_index]
    got = sorted(c.problem_id for c in node.children)
    if got != sorted(ch.children):
        raise ValueError("child multiset mismatch at %r choice %d"
                         % (p.id, node.choice_index))
    x = dict(ch.fixed)
    for c in node.children:
        x = vec_add(x, evaluate_witness(inst, c))
    return x


def make_witness(inst, node):
    """Wrap a witness node, computing the cached vector and size."""
    return SolutionWitness(root=node, vector=evaluate_witness(inst, node),
                           size=witness_size(node))


def check_packing(inst, x):
    """Exact per-row packing values for a solution vector.

    Returns (perRowPacking list, maxViolation)."""
    for i in x:
        if not (0 <= i < inst.d):
            raise ValueError("vector index %d out of range" % i)
    rows = [row_value(row, x) for row in inst.packing]
    return rows, (max(rows) if rows else 0.0)


# ---------------------------------------------------------------------------
# JSON interchange


def _vec_to_json(v):
    return [[i, val] for i, val in sorted(v.items()) if val]


def _vec_from_json(pairs, path):
    """A sparse vector from its [index, value] pairs; ValueError, naming
    the vector's JSON ``path``, when it is not an array of such pairs or
    when an index comes twice."""
    _expect(isinstance(pairs, list), pairs, path,
            "an array of [index, value] pairs")
    out = {}
    for k, pair in enumerate(pairs):
        i, val = _expect(isinstance(pair, list) and len(pair) == 2, pair,
                         "%s[%d]" % (path, k), "an [index, value] pair")
        i = int(i)
        if i in out:
            raise ValueError("invalid instance: %s: coordinate %d given twice"
                             % (path, i))
        out[i] = val
    return out


def _expect(ok, value, path, want):
    """``value`` if ``ok``; else a ValueError naming its JSON ``path``,
    the kind of value wanted there and the kind that came."""
    if not ok:
        raise ValueError("invalid instance: %s: expected %s, not %s"
                         % (path, want, json_kind(value)))
    return value


def _array(value, path):
    return _expect(isinstance(value, list), value, path, "an array")


def _id(value, path):
    """A problem id, which is a string or an integer."""
    return _expect(isinstance(value, (str, int))
                   and not isinstance(value, bool), value, path,
                   "a string or an integer")


def json_kind(obj):
    """The JSON name of a decoded value's type, for error messages."""
    return {dict: "an object", list: "an array", str: "a string",
            bool: "a boolean", type(None): "null"}.get(type(obj), "a number")


def instance_to_json(inst):
    probs = []
    for p in inst.problems:
        rec = {"id": p.id}
        if p.base:
            rec["base"] = True
            if p.x is None:
                rec["infeasible"] = True
            else:
                rec["x"] = _vec_to_json(p.x)
        else:
            rec["choices"] = [{"fixed": _vec_to_json(ch.fixed),
                               "children": list(ch.children)}
                              for ch in p.choices]
        probs.append(rec)
    return {
        "d": inst.d,
        "m": inst.m,
        "root": inst.root,
        "problems": probs,
        "packing": {"rows": [_vec_to_json(r) for r in inst.packing]},
        "cost": list(inst.cost),
    }


def instance_from_json(obj):
    """The instance a decoded JSON document describes.  ValueError, naming
    the JSON path, when the document or a field of it has the wrong shape
    (``_expect``), or when a sparse vector names one index twice."""
    if not isinstance(obj, dict):
        raise ValueError("invalid instance: expected a JSON object, not %s"
                         % json_kind(obj))
    probs = []
    for k, rec in enumerate(_array(obj["problems"], "problems")):
        at = "problems[%d]" % k
        _expect(isinstance(rec, dict), rec, at, "an object")
        pid = _id(rec["id"], at + ".id")
        if rec.get("base"):
            x = None if rec.get("infeasible") else \
                _vec_from_json(rec.get("x", []), at + ".x")
            probs.append(Problem(id=pid, base=True, x=x))
            continue
        choices = []
        for j, c in enumerate(_array(rec["choices"], at + ".choices")):
            cat = "%s.choices[%d]" % (at, j)
            _expect(isinstance(c, dict), c, cat, "an object")
            kids = _array(c["children"], cat + ".children")
            choices.append(Choice(
                fixed=_vec_from_json(c.get("fixed", []), cat + ".fixed"),
                children=tuple(_id(kid, "%s.children[%d]" % (cat, n))
                               for n, kid in enumerate(kids))))
        probs.append(Problem(id=pid, base=False, choices=tuple(choices)))
    return AdditiveDpInstance(
        d=obj["d"], m=obj["m"], root=_id(obj["root"], "root"),
        problems=probs,
        packing=[_vec_from_json(r, "packing.rows[%d]" % j)
                 for j, r in enumerate(obj["packing"]["rows"])],
        cost=list(obj["cost"]))


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class DiagnosticsReport:
    per_row_packing: list
    max_violation: float
    cost_value: float
    lp_cost: float
    phi: int
    delta_used: int
    seed: int
    trials_run: int

    def to_json(self):
        return {
            "perRowPacking": list(self.per_row_packing),
            "maxViolation": self.max_violation,
            "costValue": self.cost_value,
            "lpCost": float(self.lp_cost),
            "phi": self.phi,
            "deltaUsed": self.delta_used,
            "seed": self.seed,
            "trialsRun": self.trials_run,
        }


def instance_phi(inst):
    """Size parameter: number of base problems plus, over all choices,
    the child count plus one."""
    phi = 0
    for p in inst.problems:
        if p.base:
            phi += 1
        else:
            for ch in p.choices:
                phi += len(ch.children) + 1
    return phi

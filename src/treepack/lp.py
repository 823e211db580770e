"""The label-path LP over perfect-binary-tree labelings.

The height-H tree is cut into 1/eps super-layers of ``step`` = eps * H
levels; the reduction picks H as a multiple of 1/eps
(``reduce.layered_height``) and ``normalize_epsilon`` checks it.  For a
super-vertex carrying label l, the distribution over the 2^step descendant
labels lives in the convex hull of valid partial labelings of the little
depth-``step`` tree below it (``hull blocks``).  The triples an inner vertex
may take depend only on its label and height, so the vertices of one depth
that carry one label share their variables: a block has one variable per
(depth, triple), and its flow rows count a parent triple once per side that
carries the child's label.

``build_state_lp`` builds the LP the pipeline solves: one record per *label
path* from the root, each with its own block.  The same-labeled children of
one parent are merged, which is exact by symmetry.  The leaf layer is
substituted out, vectors keep only the coordinates their subtrees can
touch, and labels that cannot finish a subtree are dropped.  ``_Emitter``
writes its rows: each block's hull rows and the packing rows.

An ``LpModel`` keeps its rows as numpy chunks, each a run of rows (columns
and coefficients, row lengths, sense flags, right-hand sides), and HiGHS
gets them concatenated once and packed by numpy into one CSC matrix.  One
build shares one ``ProductiveTriples`` table: the PBTL's labels with the
ids of its ``int_view()``, which the reduction numbered in repr order,
triples in label-id order (a lexsort of the PBTL's id arrays, which is
their repr order grouped by parent), the labels that can finish a subtree
per height, and per height each label's triples whose children can finish
one.  The LP is built a layer at a time, on label ids.  All records of a
layer share one height, so ``build_hull_blocks`` builds the blocks of all
the layer's distinct labels in one numpy pass, one level at a time, and
cuts them apart at the end.  A block is stored as int arrays over its
variables' positions: the depth and the triple of each position, its flow
rows as one flat position list with their coefficients, and its child
masses as position groups of label ids (see ``HullBlock``).  The emitter
appends a block's flow rows to the model as one chunk of the block's own
arrays, offset by the block's first variable, and reads its child groups
and the leaf labels' vectors by label id.  An LP variable is just its id.
A block's ``phi_keys`` and the model's ``rows`` decode ids only when
read; neither the LP build nor rounding reads them.  Which coordinates a
subtree can touch (``_Emitter.support``) is computed for every label at
once, one height at a time, as rows of 64-bit words.

``compact_to_recursive`` builds the certificates of a solved LP in one
pass, before any rounding (``CertificateSource``): every record with mass
gets its own slice of the LP's phi on its block, per unit of that mass,
snapped onto a dyadic grid where it conserves flow exactly.  That slice
stays an array over the block's positions; rounding samples and
decomposes the merged point on the block's own nodes and positions
(``decomp``), and takes the canonical completion where a super-vertex has
no certificate.

The one LP solver, ``solve_lp``, is the HiGHS copy scipy bundles, driven
through scipy's private extension module ``scipy.optimize._highspy._core``
with the options and the result checks of
``scipy.optimize.linprog(method="highs")``, whose results it reproduces bit
for bit; the tests keep linprog as the reference.  The model reaches HiGHS
as numpy arrays in one ``passModel`` call, with its indices checked into
int32.  The extension is loaded from its file in scipy's package directory
only when HiGHS runs (``_highs_core``), and ``scipy.optimize`` itself is
never imported.  That file's name and place are private to scipy, which is
why scipy is pinned to one release series.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import row_value
from .reduce import PbtlInstance, decode_triples, is_dummy


# ---------------------------------------------------------------------------
# generic model container


class _Rows(NamedTuple):
    """A run of LP rows as arrays: row i of the run has the coefficients
    ``coefs[o_i:o_i + sizes[i]]`` on the columns ``cols[...]``, o_i being
    the sum of the sizes before it, sense "==" where ``is_eq[i]`` and "<="
    otherwise, and right-hand side ``rhs[i]``."""
    cols: np.ndarray
    coefs: np.ndarray
    sizes: np.ndarray
    is_eq: np.ndarray
    rhs: np.ndarray


def _exact(values):
    """``values`` (a list) as an array whose ``tolist()`` gives them back:
    ints and floats keep their types, and a list that mixes them is kept
    as objects."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        a = np.array(values, dtype=None if values else np.int64)
        if a.dtype.kind in "iuO":
            return a
    elif kinds == {float}:
        return np.array(values, dtype=np.float64)
    return np.array(values, dtype=object)


@dataclass
class LpModel:
    """min c.x  s.t. rows, x >= 0.

    The rows are kept as numpy chunks, each a run of rows (``_Rows``).
    ``add_rows`` appends a run given as arrays, as it is.  ``add_row``
    collects single rows, which become one chunk when the next run is
    appended or when the rows are read; a chunk's coefficients and
    right-hand sides keep their Python types (``_exact``).  ``rows`` shows
    the rows as (coefs dict, sense, rhs) tuples.  A variable is its id:
    ``add_var`` returns the next one, ``add_vars`` a range of them."""
    n: int = 0
    objective: dict = field(default_factory=dict)
    _chunks: list = field(default_factory=list, repr=False)
    _open: list = field(default_factory=list, repr=False)

    def add_var(self):
        self.n += 1
        return self.n - 1

    def add_vars(self, n):
        """n variables, numbered consecutively; returns their ids."""
        self.n += n
        return range(self.n - n, self.n)

    def add_row(self, cols, coefs, sense, rhs):
        """Append sum_j coefs[j] * x[cols[j]] (sense) rhs.  The columns must
        be distinct; zero coefficients are dropped."""
        if sense not in ("==", "<="):
            raise ValueError(sense)
        if 0 in coefs:
            kept = [(v, c) for v, c in zip(cols, coefs) if c]
            cols, coefs = [v for v, _ in kept], [c for _, c in kept]
        self._open.append((cols, coefs, sense == "==", rhs))

    def add_rows(self, cols, coefs, sizes, sense, rhs):
        """Append the rows of ``sizes`` (arrays, kept as they are), each
        with the one sense and right-hand side: as in ``_Rows``.  The
        columns of a row must be distinct, and no coefficient is zero."""
        self._close()
        n = len(sizes)
        self._chunks.append(_Rows(cols, coefs, sizes,
                                  np.full(n, sense == "=="),
                                  np.full(n, rhs)))

    def _close(self):
        """Turn the rows ``add_row`` collected into one chunk."""
        if self._open:
            cols, coefs, is_eq, rhs = zip(*self._open)
            self._open = []
            self._chunks.append(_Rows(
                np.fromiter(chain.from_iterable(cols), dtype=np.intp),
                _exact(list(chain.from_iterable(coefs))),
                np.fromiter(map(len, cols), dtype=np.intp, count=len(cols)),
                np.array(is_eq, dtype=bool), _exact(list(rhs))))

    def chunks(self):
        """The row chunks, in row order."""
        self._close()
        return self._chunks

    @property
    def rows(self):
        """Read-only view of the rows as (coefs dict, sense, rhs)."""
        return _RowView(self)


class _RowView:
    """The rows of an LpModel as (coefs dict, sense, rhs) tuples, built as
    they are iterated, a chunk at a time; it prints like the list of those
    tuples."""

    def __init__(self, model):
        self._m = model

    def __len__(self):
        return sum(len(c.sizes) for c in self._m.chunks())

    def __iter__(self):
        for c in self._m.chunks():
            cols, coefs = c.cols.tolist(), c.coefs.tolist()
            ends = np.cumsum(c.sizes).tolist()
            for a, b, eq, rhs in zip([0, *ends], ends, c.is_eq.tolist(),
                                     c.rhs.tolist()):
                yield (dict(zip(cols[a:b], coefs[a:b])),
                       "==" if eq else "<=", rhs)

    def __repr__(self):
        return repr(list(self))


@dataclass
class LpResult:
    status: str                 # "optimal" | "infeasible" | "unbounded" | "error"
    x: list | None = None
    objective: object = None
    residual: float | None = None   # HiGHS: largest primal violation


class HighsArrays(NamedTuple):
    """An LpModel as HiGHS gets it: the cost vector, the rows as one CSC
    matrix (``indptr``, ``indices``, ``data``) with the "<=" rows first
    and the "==" rows after them, each in model order, and the row bounds
    ``lower`` <= row <= ``upper``; the first ``n_ub`` rows are "<=".  This
    is the layout ``linprog(method="highs")`` gave HiGHS."""
    cost: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_ub: int


def highs_arrays(model):
    """Pack ``model``'s row chunks into HighsArrays with numpy."""
    cost = np.zeros(model.n)
    for v, coef in model.objective.items():
        cost[v] = float(coef)
    chunks = model.chunks()

    def cat(part, dtype):
        return np.concatenate([np.zeros(0, dtype)] + [
            getattr(c, part).astype(dtype, copy=False) for c in chunks])

    is_eq, rhs = cat("is_eq", bool), cat("rhs", float)
    # the model rows in HiGHS order: "<=" rows first, then "==" rows
    order = np.argsort(is_eq, kind="stable")
    n_ub = len(is_eq) - int(is_eq.sum())
    sizes = cat("sizes", np.intp)
    size = sizes[order]
    # entries in HiGHS row order, then stably by column: each column's
    # rows ascend, as in a CSR-to-CSC conversion
    ent = _ranges(_offsets(sizes)[:-1][order], size)
    cols = cat("cols", np.intp)[ent]
    by_col = np.argsort(cols, kind="stable")
    row_of = np.repeat(np.arange(len(order)), size)
    upper = rhs[order]
    lower = upper.copy()
    lower[:n_ub] = -np.inf                  # HiGHS's kHighsInf is inf
    return HighsArrays(
        cost=cost,
        indptr=_offsets(np.bincount(cols, minlength=model.n)),
        indices=row_of[by_col],
        data=cat("coefs", float)[ent[by_col]],
        lower=lower, upper=upper, n_ub=n_ub)


# linprog's feasibility tolerance on optimal solutions: sqrt(tol) * 10 at
# its default tol of 1e-9
_FEAS_TOL = math.sqrt(1e-9) * 10


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's private HiGHS extension module, loaded alone from its file
    in scipy's package directory: ``scipy.optimize``'s package ``__init__``
    loads some 320 modules a solve never uses.  As the import system does,
    the module is registered under its dotted name before it runs, so a
    later ``import scipy.optimize`` reuses it; an entry already in
    ``sys.modules`` is used as it is, and ``None`` blocks the load.  A
    parent package imported later lacks the ``_core`` attribute; ``from``
    imports, as scipy's own, find the module in ``sys.modules``."""
    if _HIGHS_CORE in sys.modules:
        mod = sys.modules[_HIGHS_CORE]
        if mod is None:
            raise ImportError("import of %s halted; None in sys.modules"
                              % _HIGHS_CORE, name=_HIGHS_CORE)
        return mod
    scipy = importlib.util.find_spec("scipy")    # does not import scipy
    tops = scipy.submodule_search_locations if scipy else []
    files = [os.path.join(top, "optimize", "_highspy", "_core" + suffix)
             for top in tops
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, files), None)
    if path is None:
        raise ImportError("no extension file for %s" % _HIGHS_CORE,
                          name=_HIGHS_CORE)
    spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_CORE] = mod
    try:
        spec.loader.exec_module(mod)
    except BaseException:
        del sys.modules[_HIGHS_CORE]
        raise
    return mod


def _int32(a):
    """Non-negative ints as int32 HiGHS indices; OverflowError, not a wrap."""
    if a.size and a.max() > np.iinfo(np.int32).max:
        raise OverflowError("%d does not fit an int32 HiGHS index" % a.max())
    return a.astype(np.int32)


def solve_lp(model):
    """HiGHS on ``model``, with linprog's options and result checks: an
    optimal solution with a NaN, or with a bound, "<=" or "==" violation
    above _FEAS_TOL, is an error.  ``residual`` is the largest of those
    violations."""
    _highs = _highs_core()
    a = highs_arrays(model)
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = \
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = opts.log_to_console = False
    solver = _highs._Highs()
    solver.passOptions(opts)
    # num_col, num_row, num_nz, a_format, sense, offset, the column and
    # row arrays, the CSC matrix and an all-continuous integrality
    if solver.passModel(
            model.n, len(a.lower), len(a.data),
            int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize),
            0.0, a.cost, np.zeros(model.n), np.full(model.n, np.inf),
            a.lower, a.upper, _int32(a.indptr), _int32(a.indices), a.data,
            np.zeros(model.n, dtype=np.int32)) == _highs.HighsStatus.kError:
        return LpResult("infeasible")           # linprog: kModelError
    ran = solver.run() != _highs.HighsStatus.kError
    status = solver.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        # linprog's mapping: the rest (time or iteration limits,
        # kUnboundedOrInfeasible, ...) are errors
        return LpResult({
            _highs.HighsModelStatus.kInfeasible: "infeasible",
            _highs.HighsModelStatus.kModelError: "infeasible",
            _highs.HighsModelStatus.kUnbounded: "unbounded",
        }.get(status, "error"))
    if not ran:
        return LpResult("error")
    sol = solver.getSolution()
    x, fun = sol.col_value, solver.getInfo().objective_function_value
    act = np.array(sol.row_value) - a.upper
    residual = float(np.concatenate(
        ([0.0], -np.array(x), act[:a.n_ub], np.abs(act[a.n_ub:]))).max())
    if not residual <= _FEAS_TOL or math.isnan(fun):
        return LpResult("error", residual=residual)
    return LpResult("optimal", x, fun, residual)


# ---------------------------------------------------------------------------
# LP-format dump


def dump_lp(model, fh):
    """Write ``model`` to ``fh`` in LP format: one ``r<i>:`` line per row
    and one bound line per variable."""
    names = ["x%d" % i for i in range(model.n)]

    def expr(coefs):
        parts = []
        for v in sorted(coefs):
            c = float(coefs[v])
            sign = "+" if c >= 0 else "-"
            parts.append("%s %.17g %s" % (sign, abs(c), names[v]))
        return " ".join(parts) if parts else "0 x0"

    fh.write("Minimize\n obj: %s\n" % expr(model.objective))
    fh.write("Subject To\n")
    for i, (coefs, sense, rhs) in enumerate(model.rows):
        op = "=" if sense == "==" else "<="
        fh.write(" r%d: %s %s %.17g\n" % (i, expr(coefs), op, float(rhs)))
    fh.write("Bounds\n")
    for nm in names:
        fh.write(" 0 <= %s\n" % nm)
    fh.write("End\n")


# ---------------------------------------------------------------------------
# label tables


def productive_table(pbtl):
    """prod[r] = labels that admit some valid perfect subtree of height r."""
    tri = ProductiveTriples(pbtl)
    return [{tri.labels[i] for i in np.flatnonzero(ok).tolist()}
            for ok in tri.ok]


# ---------------------------------------------------------------------------
# epsilon normalization


@dataclass
class CollapsedTree:
    """Super-layer structure: the height-H tree cut into ``layers``
    super-layers of ``step`` levels each (H = layers * step)."""
    eps: Fraction
    H: int
    step: int         # eps * H, integral
    layers: int       # 1/eps
    arity: int        # 2**step


def normalize_epsilon(pbtl, eps):
    """The super-layers of pbtl at eps rounded to eps' = 1/ceil(1/eps):
    1/eps' layers of eps' * H levels each.  H must be a multiple of 1/eps'
    (``reduce.layered_height`` picks such a height); ValueError otherwise."""
    k = math.ceil(1 / eps)
    if pbtl.H % k:
        raise ValueError("height %d is not a multiple of %d super-layers"
                         % (pbtl.H, k))
    step = pbtl.H // k
    return CollapsedTree(eps=Fraction(1, k), H=pbtl.H, step=step, layers=k,
                         arity=1 << step)


# ---------------------------------------------------------------------------
# hull blocks


class HullBlock:
    """Equality description of the label distribution over one super-vertex's
    depth-``step`` subtree, with one variable per (depth, triple).  The
    inner vertices (locals) of one depth that carry one label share their
    variables, which is exact because the triples a local may take depend
    only on its label and height.  Certificates sample and decompose the
    block as it is, walking its locals in heap order (1 = the super-vertex,
    children 2u / 2u+1).

    The block is stored as int arrays over *positions*, the order of its LP
    variables: by depth, then label rank, then triple (repr order, so
    ``tri`` ids ascend).  ``build_hull_blocks`` builds the blocks of one
    layer together; each gets its own arrays in this layout, and an
    infeasible one (no root triple) keeps them empty.

    * ``depth[p]``, ``tri[p]``: the depth and the triple id (in ``table``)
      of position p.
    * Nodes are the (inner depth, label) pairs, root first, in position
      order: node i owns positions ``node_start[i]:node_start[i + 1]``.
      The first ``n_root`` positions are the root's triples.
    * Flow rows, one per node below the root (row i is node i + 1): row i
      is ``flow_pos[flow_start[i]:flow_start[i + 1]]``, the node's own
      positions (outflow, coefficient +1 in ``flow_coef``) and then the
      parent triples that lead into it (inflow), each once with minus the
      number of its sides that lead there (-1 or -2).  The rows of depth d
      are ``flow_levels[d - 1]:flow_levels[d]``.
    * Child masses, one group per label at depth ``step``, in rank order:
      ``kid_label`` (label ids), and the positions
      ``kid_pos[kid_start[j]:kid_start[j + 1]]`` with the multiplicities
      ``kid_cnt``.

    ``ell`` is the block's label.  ``phi_keys`` decodes the positions to
    (depth, triple) keys when read."""

    def __init__(self, ell, step, rem, table):
        self.ell, self.step, self.rem, self.table = ell, step, rem, table
        self.feasible = False
        none = np.zeros(0, dtype=np.intp)
        self.depth = self.tri = none
        self.node_start = np.zeros(1, dtype=np.intp)
        self.n_root = 0
        self.flow_pos = self.flow_coef = none
        self.flow_start = np.zeros(1, dtype=np.intp)
        self.flow_levels = [0]
        self.kid_label = self.kid_pos = self.kid_cnt = none
        self.kid_start = np.zeros(1, dtype=np.intp)

    @property
    def n(self):
        return len(self.tri)

    @property
    def phi_keys(self):
        """(depth, triple) of each position."""
        return list(zip(self.depth.tolist(), self.table.decode(self.tri)))

    def labels_of(self, assignment_triples):
        """Labels of every local given a triple choice per inner local."""
        out = {1: self.ell}
        for u in sorted(assignment_triples):
            t = assignment_triples[u]
            out[2 * u] = t[1]
            out[2 * u + 1] = t[2]
        return out


class ProductiveTriples:
    """Lookups the hull blocks of one LP share.

    Labels have the ids of the PBTL's ``int_view()``, which are in repr
    order (``labels``, ``rank``).  Triples get ids in (parent, left, right)
    label-id order: the label-id arrays ``parent``, ``left`` and ``right``,
    decoded by ``decode``.  That is one ``np.lexsort`` over the view's id
    arrays, and it equals ``sorted(triples, key=repr)`` grouped stably by
    parent: the reduction's labels are tuples (hand-built ones may be
    strings), and the repr of a tuple or a string is never a proper prefix
    of another's, so two triples' reprs first differ inside the reprs of
    the first labels that differ, and compare as those do.  Triples that
    name a label outside ``labels`` are left out: they make nothing
    productive.

    ``ok[r]`` marks the labels that admit some valid perfect subtree of
    height r (``productive_table``'s ``prod[r]``); its last column, for ids
    that are not labels, is False.  ``level(r)`` lists, per parent, the
    triples whose children both finish a subtree of height r - 1, and
    ``first(r, label)`` gives the first of them; both are computed once per
    r and (r, label), and so is ``completion(r, label)``, which follows
    ``first`` down to the leaves."""

    def __init__(self, pbtl):
        view = pbtl.int_view()
        self.labels, self.rank = view.labels, view.rank
        nl = len(self.labels)                  # nl: not a label
        ids = np.stack((view.parent, view.left, view.right))
        keep = np.flatnonzero((ids < nl).all(axis=0))
        self.parent, self.left, self.right = \
            ids[:, keep[np.lexsort(ids[::-1, keep])]]
        self.ok = np.zeros((pbtl.H + 1, nl + 1), dtype=bool)
        self.ok[0, :nl] = True
        for r in range(1, pbtl.H + 1):
            ok = self.ok[r - 1]
            self.ok[r, self.parent[ok[self.left] & ok[self.right]]] = True
        self._levels = {}
        self._first = {}
        self._completions = {}

    def decode(self, ids):
        """The triples with the given ids, as label tuples."""
        return decode_triples(self.labels, self.parent[ids], self.left[ids],
                              self.right[ids])

    def level(self, r):
        """(ids, start): label id i owns the triple ids
        ``ids[start[i]:start[i + 1]]``."""
        got = self._levels.get(r)
        if got is None:
            ok = self.ok[r - 1]
            ids = np.flatnonzero(ok[self.left] & ok[self.right])
            start = np.searchsorted(self.parent[ids],
                                    np.arange(len(self.labels) + 2))
            got = self._levels[r] = (ids, start)
        return got

    def first(self, r, label):
        """The first triple of ``label`` in ``level(r)``, or None."""
        key = (r, label)
        if key not in self._first:
            i = self.rank.get(label)
            ids, start = self.level(r)
            self._first[key] = (None if i is None or start[i] == start[i + 1]
                                else self.decode([ids[start[i]]])[0])
        return self._first[key]

    def completion(self, r, label):
        """The first valid completion below a height-r vertex labeled
        ``label``, as (depth, offset, label) entries relative to that
        vertex: the vertex at depth d and index i gets entry (d', o, L) at
        (d + d', i * 2^d' + o).  Every vertex takes its ``first`` triple;
        dummy subtrees are left out.  The entries come in the order of a
        stack walk that pops the right child first.  None when some vertex
        has no triple."""
        key = (r, label)
        if key not in self._completions:
            self._completions[key] = self._complete(r, label)
        return self._completions[key]

    def _complete(self, r, label):
        if is_dummy(r, 0, label):
            return ()
        if not r:
            return ((0, 0, label),)
        t = self.first(r, label)
        if t is None:
            return None
        right, left = self.completion(r - 1, t[2]), self.completion(r - 1,
                                                                    t[1])
        if right is None or left is None:
            return None
        return ((0, 0, label),
                *((d + 1, (1 << d) + o, lab) for d, o, lab in right),
                *((d + 1, o, lab) for d, o, lab in left))


def _ranges(lo, n):
    """The concatenation of range(lo[i], lo[i] + n[i]) over i."""
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _offsets(sizes):
    """Start offsets of consecutive runs of the given sizes, and the end."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))


def _runs(key):
    """Where each run of equal values in ``key`` starts, and len(key)."""
    cut = np.flatnonzero(key[1:] != key[:-1]) + 1
    return np.concatenate(([0], cut, [len(key)]) if len(key) else ([0],))


def _split(a, bounds):
    """The slices a[bounds[b]:bounds[b + 1]]."""
    bounds = bounds.tolist()
    return [a[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _split_offsets(sizes, counts):
    """Block b owns ``counts[b]`` consecutive runs of ``sizes``; per block,
    the ``_offsets`` of its own runs."""
    first = _offsets(counts)
    ends = np.cumsum(sizes, dtype=np.intp)
    before = np.concatenate(([0], ends))[first[:-1]]
    flat = np.insert(ends - np.repeat(before, counts), first[:-1], 0)
    return _split(flat, first + np.arange(len(first)))


def build_hull_blocks(collapsed, triples, labels, rem):
    """Hull blocks for super-vertices labeled ``labels`` (distinct label
    ids of ``triples``, the LP's ProductiveTriples), each with rem levels of
    the big tree below it, in that order.  Triples whose children cannot
    finish a subtree of the right height are left out (their variables
    would be forced to zero).

    All blocks are built in one pass, one depth at a time: a node is a
    (block, label) pair, and the nodes of a depth are sorted, so each
    block's triples, child groups and flow rows come out as one run of the
    layer's arrays, and the blocks are cut from them at the end."""
    g, nl = collapsed.step, len(triples.labels)
    blocks = [HullBlock(triples.labels[i], g, rem, triples) for i in labels]
    node_lab = np.array(labels, dtype=np.intp)
    levels = []
    for lev in range(g):
        ids, start = triples.level(rem - lev)
        lo = start[node_lab]
        cnt = start[node_lab + 1] - lo
        if lev == 0:        # a block whose root has no triple is infeasible
            live = np.flatnonzero(cnt)
            if not len(live):
                return blocks
            nb, lo, cnt = len(live), lo[live], cnt[live]
            node_blk = np.arange(nb)
        tri = ids[_ranges(lo, cnt)]
        tri_blk = np.repeat(node_blk, cnt)
        # the children's (block, label) pairs, sorted, are the next depth's
        # nodes, each with its inflow (indices j into this depth's triples)
        # ascending; a triple whose two children share a label leads into
        # that node twice
        # (keys stay below nl * nl * n: far inside int64 for any layer that
        # fits in memory)
        n = len(tri)
        j = np.arange(n)
        pair, in_cnt = np.unique(
            (np.concatenate((tri_blk, tri_blk)) * nl
             + np.concatenate((triples.left[tri], triples.right[tri]))) * n
            + np.concatenate((j, j)), return_counts=True)
        key, in_j = np.divmod(pair, n)
        in_start = _runs(key)
        levels.append((tri, tri_blk, node_blk, cnt, in_j, in_cnt, in_start))
        node_blk, node_lab = np.divmod(key[in_start[:-1]], nl)
    kid_blk, kid_lab = node_blk, node_lab

    # per depth and block: positions and nodes.  A block's positions, and
    # its nodes, run by depth and within one depth in the layer's order.
    npos = np.array([np.bincount(lv[1], minlength=nb) for lv in levels])
    nnode = np.array([np.bincount(lv[2], minlength=nb) for lv in levels])
    pos_first = _offsets(npos.sum(axis=0))
    node_first = _offsets(nnode.sum(axis=0))
    pos_shift = np.cumsum(npos, axis=0) - npos
    node_shift = np.cumsum(nnode, axis=0) - nnode + node_first[:-1]
    depth = np.empty(pos_first[-1], dtype=np.intp)
    tri_at = np.empty(pos_first[-1], dtype=np.intp)
    node_size = np.empty(node_first[-1], dtype=np.intp)
    row_len = np.empty(node_first[-1] - nb, dtype=np.intp)
    local, rows = [], []
    for lev, (tri, tri_blk, node_blk, cnt, in_j, in_cnt, in_start) in \
            enumerate(levels):
        # each triple's position in its block, and in all blocks' arrays
        loc = np.arange(len(tri)) + (pos_shift[lev]
                                     - _offsets(npos[lev])[:-1])[tri_blk]
        local.append(loc)
        glob = loc + pos_first[tri_blk]
        depth[glob] = lev
        tri_at[glob] = tri
        node = np.arange(len(cnt)) + (node_shift[lev]
                                      - _offsets(nnode[lev])[:-1])[node_blk]
        node_size[node] = cnt
        if lev:             # a flow row per node below the root
            row = node - node_blk - 1
            nin = np.diff(up_start)
            row_len[row] = cnt + nin
            rows.append((row, cnt, loc, nin, local[-2][up_j], up_cnt))
        up_j, up_cnt, up_start = in_j, in_cnt, in_start
    row_first = node_first - np.arange(nb + 1)
    entry_first = _offsets(row_len)
    flow_pos = np.empty(entry_first[-1], dtype=np.intp)
    flow_coef = np.ones(entry_first[-1], dtype=np.intp)
    for row, cnt, loc, nin, in_pos, in_cnt in rows:
        flow_pos[_ranges(entry_first[row], cnt)] = loc
        ins = _ranges(entry_first[row] + cnt, nin)
        flow_pos[ins] = in_pos
        flow_coef[ins] = -in_cnt
    flow_levels = np.vstack((np.zeros(nb, dtype=np.intp),
                             np.cumsum(nnode[1:], axis=0))).T.tolist()

    # the last depth's inflow groups are the child groups
    nkid = np.bincount(kid_blk, minlength=nb)
    kid_first = _offsets(nkid)
    kid_entry = up_start[kid_first]
    split = zip(
        live.tolist(), _split(depth, pos_first), _split(tri_at, pos_first),
        _split_offsets(node_size, nnode.sum(axis=0)),
        _split(flow_pos, entry_first[row_first]),
        _split(flow_coef, entry_first[row_first]),
        _split_offsets(row_len, np.diff(row_first)), flow_levels,
        _split(kid_lab, kid_first),
        _split(local[-1][up_j], kid_entry), _split(up_cnt, kid_entry),
        _split_offsets(np.diff(up_start), nkid))
    for b, *parts in split:
        blk = blocks[b]
        (blk.depth, blk.tri, blk.node_start, blk.flow_pos, blk.flow_coef,
         blk.flow_start, blk.flow_levels, blk.kid_label, blk.kid_pos,
         blk.kid_cnt, blk.kid_start) = parts
        blk.feasible = True
        blk.n_root = int(blk.node_start[1])
    return blocks


# ---------------------------------------------------------------------------
# the emitter


class _Emitter:
    """One LP under construction, and the rows it is made of: hull blocks
    and packing rows.  A record's vector is given per coordinate as {var:
    coef}.  ``vectors`` holds the PBTL's vectors by label id."""

    def __init__(self, pbtl):
        self.model = LpModel()
        self.pbtl = pbtl
        self.triples = ProductiveTriples(pbtl)
        rank = self.triples.rank
        self.vectors = {rank[l]: vec for l, vec in pbtl.vectors.items()
                        if l in rank}
        self._masks = []
        # each packing row with the position of each of its coordinates
        self._rows = [(arow, {i: p for p, i in enumerate(arow)})
                      for arow in pbtl.packing]

    def support(self, rem, i):
        """Bitmask of the coordinates that some height-rem subtree of the
        label with id i can make nonzero; 0 for zero-vector (null) subtrees
        and for the id of no label, ``len(triples.labels)``."""
        while len(self._masks) <= rem:
            self._masks.append(self._support_level(len(self._masks)))
        return int.from_bytes(self._masks[rem][i].astype("<u8").tobytes(),
                              "little")

    def _support_level(self, r):
        """The masks of every label id at height r, as rows of 64-bit words
        (coordinate i is bit i % 64 of word i // 64): at height 0 a label's
        own vector, above that the or of its level(r) triples' children's
        masks one height down."""
        tri = self.triples
        if r == 0:
            nwords = max(1, -(-self.pbtl.d // 64))
            words = np.zeros((len(tri.labels) + 1, nwords), dtype=np.uint64)
            for i, vec in self.vectors.items():
                for c in (c for c, v in vec.items() if v):
                    words[i, c >> 6] |= np.uint64(1) << np.uint64(c & 63)
            return words
        below = self._masks[r - 1]
        ids, start = tri.level(r)
        words = np.zeros_like(below)
        owns = np.flatnonzero(np.diff(start))
        if len(owns):
            kids = np.take(below, tri.left[ids], axis=0) | \
                np.take(below, tri.right[ids], axis=0)
            words[owns] = np.bitwise_or.reduceat(kids, start[owns])
        return words

    def hull(self, blk, mass):
        """phi variables of one block, the row that gives its root triples
        the record's mass, and its flow rows, which are appended as the
        block's own arrays, offset by its first variable.  Returns the phi
        variables in position order.  An infeasible block gets mass == 0
        instead, and None is returned."""
        model = self.model
        if not blk.feasible:
            model.add_row([mass], [1], "==", 0)
            return None
        ids = model.add_vars(blk.n)
        nroot = blk.n_root
        model.add_row([*ids[:nroot], mass], [1] * nroot + [-1], "==", 0)
        # a flow row's columns are distinct: outflow sits at one depth,
        # inflow one level up, each position once
        model.add_rows(blk.flow_pos + ids.start, blk.flow_coef,
                       np.diff(blk.flow_start), "==", 0)
        return ids

    def packing(self, x, mass):
        """a . x <= mass for every packing row a that meets x.  The terms
        are added in the row's coordinate order, walking the row or, when
        it is shorter, the coordinates of x that the row has."""
        for arow, at in self._rows:
            if len(x) < len(arow):
                coords = sorted((i for i in x if i in at), key=at.__getitem__)
            else:
                coords = arow
            row = {}
            for i in coords:
                a = arow[i]
                for v, c in x.get(i, {}).items():
                    row[v] = row.get(v, 0) + a * c
            if row:
                self.model.add_row([*row, mass], [*row.values(), -1],
                                   "<=", 0)


# ---------------------------------------------------------------------------
# the label-path LP


@dataclass
class LabelRec:
    """The super-vertices of one layer whose ancestors, root first, carry
    the labels ``path``, as one record with mass psi.  Its hull block is
    merged: its phi variables, ``block.n`` of them from ``phi_first`` on,
    are keyed by (depth, triple), and their values sum over the record's
    super-vertices and over the locals of that depth."""
    path: tuple
    psi: int
    null: bool = False
    x: dict | None = None                  # coordinate -> {var: coef}
    phi_first: int | None = None           # the block's first phi var
    block: HullBlock | None = None
    kids: list = field(default_factory=list)


@dataclass
class CompactLpSolution:
    model: LpModel
    collapsed: CollapsedTree
    pbtl: PbtlInstance
    triples: ProductiveTriples     # the table the hull blocks share
    records: dict                  # label path -> LabelRec
    values: list | None = None
    objective: object = None


def build_state_lp(collapsed, pbtl):
    """The LP over label paths; its optimum is the vertex LP's.

    A record merges the super-vertices of one layer whose own labels and
    ancestors' labels agree.  That is exact: what lies below a vertex depends
    only on its label and height, so merged same-labeled siblings split
    back in proportion to their mass.  Each record gets a merged hull block
    (one phi per (depth, triple): the same argument one level down), whose
    flow rows read sum_t phi_d(t) = sum_t' (sides of t' labeled L) *
    phi_{d-1}(t') per (depth d, label L), and its vector is the sum of its
    children's.  The leaf layer has no records: a layer-(K-1) record's
    vector is sum_L vector(L) * (phi inflow into L), written into the rows
    in place of variables, and a leaf label that alone overfills a packing
    row gets no inflow.  Vectors above get one variable per coordinate that
    some leaf below can touch.  Records of zero-vector subtrees are left
    out, but for the root."""
    em = _Emitter(pbtl)
    model = em.model
    g, K, H = collapsed.step, collapsed.layers, pbtl.H
    tri = em.triples
    records = {}

    def new_record(path, mask):
        rec = records[path] = LabelRec(path=path, null=not mask,
                                       psi=model.add_var())
        if mask and len(path) < K:
            coords = [i for i in range(pbtl.d) if mask >> i & 1]
            ids = model.add_vars(len(coords))
            rec.x = {i: {v: 1} for i, v in zip(coords, ids)}
        return rec

    top = tri.rank.get(pbtl.root, len(tri.labels))
    root = new_record((pbtl.root,), em.support(H, top))
    model.add_row([root.psi], [1], "==", 1)
    if not tri.ok[H, top]:          # no valid labeling
        model.add_row([root.psi], [1], "==", 0)
    layer = [] if root.null else [(root, top)]     # (record, label id)
    for k in range(K):
        rem = H - k * g
        lids = list(dict.fromkeys(L for _, L in layer))
        blocks = dict(zip(lids, build_hull_blocks(collapsed, tri, lids,
                                                  rem)))
        below = []
        for rec, L in layer:
            rec.block = blk = blocks[L]
            rec.phi_first = first = em.hull(blk, rec.psi).start
            # the child groups: label id, positions and multiplicities
            start = blk.kid_start.tolist()
            pos, cnt = (blk.kid_pos + first).tolist(), blk.kid_cnt.tolist()
            groups = zip(blk.kid_label.tolist(), start, start[1:])
            if k + 1 == K:      # the leaf layer, substituted
                rec.x = {}
                for L, a, b in groups:
                    cols, vec = pos[a:b], em.vectors.get(L, {})
                    if any(row_value(row, vec) > 1 for row in pbtl.packing):
                        model.add_row(cols, [1] * len(cols), "==", 0)
                        continue
                    for i, c in vec.items():
                        dst = rec.x.setdefault(i, {})
                        for v, n in zip(cols, cnt[a:b]):
                            dst[v] = dst.get(v, 0) + n * c
                continue
            for L, a, b in groups:
                mask = em.support(rem - g, L)
                if mask:
                    kid = new_record(rec.path + (tri.labels[L],), mask)
                    model.add_row([*pos[a:b], kid.psi], [*cnt[a:b], -1],
                                  "==", 0)
                    rec.kids.append(kid)
                    below.append((kid, L))
        layer = below

    for rec in records.values():
        if rec.kids:        # its vector is the sum of its children's
            parts = {}      # coordinate -> the kids' expressions, in order
            for kid in rec.kids:
                for i, expr in kid.x.items():
                    parts.setdefault(i, []).append(expr)
            for i, own in rec.x.items():
                terms = [(v, c) for expr in parts.get(i, ())
                         for v, c in expr.items()]
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
                             triples=tri, records=records)


def attach_solution(sol, result):
    sol.values = result.x
    sol.objective = result.objective
    return sol


# ---------------------------------------------------------------------------
# certificates


@dataclass
class RecursiveCertificate:
    """Per-unit view of one super-vertex: the per-unit vector x, and its
    record's merged hull block with the per-unit phi, the snapped array
    over the block's positions (``_snap_phi``).  phi_d(t) sums over the
    block's depth-d locals; ``key`` is the record's label path."""
    x: dict                  # per-unit subtree vector (sparse over 0..d-1)
    phi: np.ndarray          # per-unit value of each block position
    block: HullBlock
    key: tuple


# A merged block's per-unit phi is snapped to multiples of 2^-(PHI_GRID_BITS
# - step).  Its values are at most about 2^(step - 1), and its flow-row sides
# and child masses about 2^step, so all of them, and every partial sum of
# snapped values that makes them up, are integer multiples of the grid below
# 2^53: exact in binary64, so float sums of snapped phi equal their rational
# sums, and far inside int64.
PHI_GRID_BITS = 50


def _grid_units(w, bits):
    """round(w * 2^bits) where w > 0, else 0, as int64."""
    return np.rint(np.ldexp(np.where(w > 0, w, 0.0), bits)).astype(np.int64)


def _snap_phi(phi, block):
    """Move per-unit phi (an array over the block's positions) onto the
    dyadic grid of 2^-(PHI_GRID_BITS - block.step) and make it conserve
    flow exactly; returns the snapped array.  HiGHS meets the block's
    equality rows only to its tolerance; a point that misses them by even
    one ulp is outside the hull, and no convex combination of partial
    labelings reproduces it.

    Flow rows are walked top-down, one level at a time: a row's inflow
    comes from the level above, so it is final when the row is reached,
    and the rows of one level touch disjoint outflows.  The outflow is set
    equal to the inflow by giving the remainder to the largest outgoing
    triple (ties to the first in lex order), taking from the next largest
    while one would go negative.  A zero inflow zeroes the outgoing
    triples."""
    bits = PHI_GRID_BITS - block.step
    units = _grid_units(phi, bits)
    pos, start, nstart = block.flow_pos, block.flow_start, block.node_start
    levels = block.flow_levels
    for a, b in zip(levels, levels[1:]):
        lo, hi = start[a], start[b]
        acc = _offsets(-block.flow_coef[lo:hi] * units[pos[lo:hi]])
        diff = acc[start[a + 1:b + 1] - lo] - acc[start[a:b] - lo]
        for i in np.flatnonzero(diff).tolist():
            d = int(diff[i])
            i += a
            for k in sorted(range(nstart[i + 1], nstart[i + 2]),
                            key=lambda k: -units[k]):
                if d == 0:
                    break
                old = int(units[k])
                units[k] = max(old + d, 0)
                d -= int(units[k]) - old
    return np.ldexp(units.astype(np.float64), -bits)


# A record whose LP mass psi is at most this gets no certificate.
NULL_MASS = 1e-9


class CertificateSource:
    """The per-unit certificates of a solved label-path LP, all built at
    once and keyed by label path (``certs``): every record with mass psi
    above ``NULL_MASS`` and a block gets its slice of the LP's phi, divided
    by psi and snapped (``_snap_phi``), and kept as that array, unless it
    is all zero.  ``root`` and ``child`` give None where there is no
    certificate.  The rounding trials of one solve also keep here what they
    share: ``samplers`` and priced ``terms`` per certificate key, and layer
    ``plans`` per key sequence.

    Invariant: every certificate's phi conserves flow exactly -- each of its
    block's merged flow rows balances in rational arithmetic -- so phi is a
    point of the merged hull and ``decompose_chi(exact=True)`` peels it
    completely."""

    def __init__(self, sol):
        if sol.values is None:
            raise ValueError("LP solution not attached")
        self.sol = sol
        vals, arr = sol.values, np.asarray(sol.values, dtype=float)
        self.certs = {}
        for rec in sol.records.values():
            scale, blk = vals[rec.psi], rec.block
            if scale <= NULL_MASS or blk is None:
                continue
            a = rec.phi_first
            snapped = _snap_phi(arr[a:a + blk.n] / scale, blk)
            if not snapped.any():
                continue
            x = {}
            for i, expr in rec.x.items():
                w = sum(c * vals[v] for v, c in expr.items()) / scale
                if w:
                    x[i] = w
            self.certs[rec.path] = RecursiveCertificate(
                x=x, phi=snapped, block=blk, key=rec.path)
        self.samplers, self.terms, self.plans = {}, {}, {}

    def root(self):
        return self.certs.get((self.sol.pbtl.root,))

    def child(self, cert, label):
        return self.certs.get(cert.key + (label,))


def compact_to_recursive(sol):
    return CertificateSource(sol)

"""The exact LP reference of the tests: a dense two-phase simplex over
fractions with Bland's rule.  It certifies optima, and it is far too slow
for the LPs a solve builds."""

from fractions import Fraction

from treepack.lp import LpResult


def simplex(model):
    """Dense two-phase simplex with Bland's rule over fractions: no
    tolerances, no cycling, and the optimum it returns is exact."""
    zero = Fraction(0)

    n = model.n
    nslack = sum(1 for _, s, _ in model.rows if s == "<=")
    nrows = len(model.rows)
    total = n + nslack
    ncols = total + nrows      # one artificial per row keeps phase 1 trivial

    tab = []
    basis = []
    si = 0
    for i, (coefs, sense, rhs) in enumerate(model.rows):
        row = [zero] * (ncols + 1)
        for v, c in coefs.items():
            row[v] = Fraction(c)
        if sense == "<=":
            row[n + si] = Fraction(1)
            si += 1
        row[-1] = Fraction(rhs)
        if row[-1] < zero:
            row = [-v for v in row]
        row[total + i] = Fraction(1)
        tab.append(row)
        basis.append(total + i)

    def pivot(pr, pc):
        prow = tab[pr]
        pv = prow[pc]
        tab[pr] = [v / pv for v in prow]
        prow = tab[pr]
        for i, row in enumerate(tab):
            if i != pr and row[pc] != zero:
                f = row[pc]
                tab[i] = [a - f * b for a, b in zip(row, prow)]
        basis[pr] = pc

    def run_phase(costs, limit):
        # minimize costs.x over columns [0, limit); Bland's rule: the
        # entering column is the first with negative reduced cost, the
        # leaving row breaks ratio ties by smallest basis column
        while True:
            lam = [costs[b] for b in basis]
            entering = -1
            for j in range(limit):
                if j in basis:
                    continue
                rc = costs[j] - sum(lam[i] * tab[i][j]
                                    for i in range(nrows) if tab[i][j] != zero)
                if rc < zero:
                    entering = j
                    break
            if entering < 0:
                return True
            pr, best = -1, None
            for i, row in enumerate(tab):
                a = row[entering]
                if a > zero:
                    ratio = row[-1] / a
                    if best is None or ratio < best or \
                       (ratio == best and basis[i] < basis[pr]):
                        pr, best = i, ratio
            if pr < 0:
                return False
            pivot(pr, entering)

    costs1 = [zero] * ncols + [zero]
    for j in range(total, ncols):
        costs1[j] = Fraction(1)
    run_phase(costs1, ncols)
    obj1 = sum(tab[i][-1] for i in range(nrows) if basis[i] >= total)
    if obj1 > zero:
        return LpResult("infeasible")
    # pivot leftover (zero-valued) artificials out where possible
    for i in range(nrows):
        if basis[i] >= total:
            for j in range(total):
                if tab[i][j] != zero:
                    pivot(i, j)
                    break

    costs2 = [zero] * ncols + [zero]
    for v, c in model.objective.items():
        costs2[v] = Fraction(c)
    if not run_phase(costs2, total):
        return LpResult("unbounded")
    x = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    obj = sum(costs2[v] * x[v] for v in range(n) if x[v] != zero)
    return LpResult("optimal", x, obj)


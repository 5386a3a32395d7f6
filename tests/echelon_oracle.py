"""The column echelon, sparse row product and matrix conversions that
``intlinalg`` replaced with C-iterator and shortcut versions, kept as a
test oracle: the same pivot rule and the same arithmetic, written out
entry by entry in Python."""

from typing import Sequence

from dense_snf import smith_normal_form
from galmod.intlinalg import SparseRow, _axpy


def freeze(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def zeros(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def shape(m):
    rows = len(m)
    return rows, (len(m[0]) if rows else 0)


def transpose(m):
    rows, cols = shape(m)
    return tuple(tuple(m[i][j] for i in range(rows)) for j in range(cols))


def columns(m):
    rows, cols = shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def from_columns(cols, nrows=None):
    if not cols:
        return zeros(nrows or 0, 0)
    n = len(cols[0])
    return tuple(tuple(c[i] for c in cols) for i in range(n))


def block_diag(*mats):
    rows = sum(shape(m)[0] for m in mats)
    cols = sum(shape(m)[1] for m in mats)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        mr, mc = shape(m)
        for i in range(mr):
            out[r0 + i][c0:c0 + mc] = [int(x) for x in m[i]]
        r0 += mr
        c0 += mc
    return freeze(out)


def sparse(row: Sequence[int]) -> SparseRow:
    return tuple((j, x) for j, x in enumerate(row) if x)


def column_echelon(cols, track=0):
    return sparse_echelon(
        [{i: int(x) for i, x in enumerate(col) if x != 0} for col in cols],
        track)


def sparse_echelon(sp, track=0):
    """Every active column of a row is sorted by (|entry|, index) before
    each round; the first reduces the rest.  A ``frozen`` set keeps the
    pivots out of later rows."""
    n = len(sp)
    combos = [{j: 1} if j < track else {} for j in range(n)] if track \
        else [None] * n
    rowmap = {}
    for j, col in enumerate(sp):
        for r in col:
            rowmap.setdefault(r, set()).add(j)
    pivots = []
    frozen = set()

    def addmul(dst, src, k):
        sd = sp[src]
        dd = sp[dst]
        for r, val in sd.items():
            nv = dd.get(r, 0) + k * val
            if nv:
                if r not in dd:
                    rowmap.setdefault(r, set()).add(dst)
                dd[r] = nv
            elif r in dd:
                del dd[r]
                rowmap[r].discard(dst)
        if track:
            sc = combos[src]
            dc = combos[dst]
            for r, val in sc.items():
                nv = dc.get(r, 0) + k * val
                if nv:
                    dc[r] = nv
                elif r in dc:
                    del dc[r]

    for row in sorted(rowmap):
        cands = [j for j in rowmap.get(row, ()) if j not in frozen]
        if not cands:
            continue
        while len(cands) > 1:
            cands.sort(key=lambda j: (abs(sp[j][row]), j))
            a = cands[0]
            for b in cands[1:]:
                q = sp[b][row] // sp[a][row]
                addmul(b, a, -q)
            cands = [j for j in cands if row in sp[j]]
        piv = cands[0]
        if sp[piv][row] < 0:
            sp[piv] = {r: -v for r, v in sp[piv].items()}
            if track:
                combos[piv] = {r: -v for r, v in combos[piv].items()}
        frozen.add(piv)
        pivots.append((row, piv))
    echelon = [(r, sp[j]) for r, j in pivots]
    if not track:
        return echelon, [], []
    return (echelon, [combos[j] for _, j in pivots],
            [combos[j] for j in range(n) if j not in frozen and not sp[j]])


def along(echelon, vec):
    """Walks every pivot, into a growing list, even once the residual is
    empty."""
    resid = dict(vec) if isinstance(vec, dict) else {
        i: int(x) for i, x in enumerate(vec) if x != 0}
    coeffs = []
    for row, col in echelon:
        q, r = divmod(resid.get(row, 0), col[row])
        if r:
            return None
        coeffs.append(q)
        if q:
            for i, x in col.items():
                nv = resid.get(i, 0) - q * x
                if nv:
                    resid[i] = nv
                else:
                    del resid[i]
    return None if resid else coeffs


def rows_mul(a, b):
    """Every row through a dict and a sort, monomial or not."""
    out = []
    for arow in a:
        acc = {}
        for k, x in arow:
            for j, y in b[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append(tuple(sorted((j, y) for j, y in acc.items() if y)))
    return tuple(out)


def subquotient_parts(num_cols, den_cols, ambient_dim):
    """(factors, generators, rows) of ``abgroup_from_subquotient`` read
    off the dense U and U^{-1} that the oracle ``dense_snf`` builds."""
    echelon = column_echelon([list(c) for c in num_cols])[0]
    k = len(echelon)
    x = [along(echelon, c) for c in den_cols]
    res = smith_normal_form(from_columns(x, k) if x else zeros(k, 0),
                            inverse=True)
    diag = list(res.diagonal) + [0] * (k - len(res.diagonal))
    keep = [i for i, d in enumerate(diag) if d != 1]
    generators = []
    for i in keep:
        g = {}
        for (_, col), urow in zip(echelon, res.Uinv):
            if urow[i]:
                _axpy(g, col, urow[i])
        generators.append(tuple(g.get(r, 0) for r in range(ambient_dim)))
    return (tuple(diag[i] for i in keep), tuple(generators),
            tuple(sparse(res.U[i]) for i in keep))

"""The dense Smith normal form that ``intlinalg._smith`` replaced, kept
as a test oracle: the same pivot rule and operation sequence on full
row lists, with U, V and W = (U^{-1})^T as dense matrices."""

from dataclasses import dataclass
from typing import Sequence

from galmod.intlinalg import (IntMatrix, SnfResult, _round_div, freeze,
                              identity, shape, thaw, transpose)


@dataclass(frozen=True)
class DenseSnfResult(SnfResult):
    """U A V = D as ``SnfResult``, with V None when not tracked, and
    U^{-1} when asked for."""

    Uinv: IntMatrix | None = None


def smith_normal_form(a: Sequence[Sequence[int]], inverse: bool = False,
                      track_v: bool = True) -> DenseSnfResult:
    """Smith normal form with transformation matrices.

    Pivot choice is deterministic: the smallest nonzero entry in absolute
    value, ties broken in row-major order.  With ``inverse`` the result
    also carries U^{-1}, built alongside U (see ``_add_row``).  Without
    ``track_v`` no column operation is recorded and V is None, for the
    callers that read only U and D; U and D are the same either way.
    """
    m = thaw(a)
    rows, cols = shape(m)
    u = thaw(identity(rows))
    v = thaw(identity(cols)) if track_v else None
    # W = (U^{-1})^T, so that column operations on U^{-1} are row
    # operations on W
    w = thaw(identity(rows)) if inverse else None
    _eliminate(m, u, w, v, 0, rows, cols)
    # second pass: fix divisibility chain
    r = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            if m[t][t] == 0:
                continue
            for i in range(t + 1, r):
                if m[i][i] % m[t][t] != 0:
                    # bring the offending entry into reach and eliminate again
                    _add_col(m, v, i, t, 1)
                    _eliminate(m, u, w, v, t, rows, cols)
                    changed = True
    for t in range(r):
        if m[t][t] < 0:
            for j in range(cols):
                m[t][j] = -m[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
            if w is not None:
                w[t] = [-x for x in w[t]]
    return DenseSnfResult(freeze(u), freeze(m),
                          freeze(v) if v is not None else None,
                          transpose(w) if w is not None else None)


def _swap_rows(m, u, w, i, j):
    """Swap rows i and j of m and U; the inverse swaps columns of U^{-1},
    i.e. rows of W = (U^{-1})^T."""
    if i != j:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        if w is not None:
            w[i], w[j] = w[j], w[i]


def _swap_cols(m, v, i, j):
    """Swap columns i and j of m and of V, unless V is None."""
    if i != j:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v or ():
            row[i], row[j] = row[j], row[i]


def _add_row(m, u, w, src, dst, k):
    """row[dst] += k * row[src] in m and in U.

    On U^{-1} this is col[src] -= k * col[dst], i.e. W[src] -= k * W[dst]
    for W = (U^{-1})^T when W is tracked.
    """
    mr = m[src]
    md = m[dst]
    for j in range(len(md)):
        md[j] += k * mr[j]
    ur = u[src]
    ud = u[dst]
    for j in range(len(ud)):
        ud[j] += k * ur[j]
    if w is not None:
        ws = w[src]
        wd = w[dst]
        for j in range(len(ws)):
            ws[j] -= k * wd[j]


def _add_col(m, v, src, dst, k):
    """col[dst] += k * col[src] in m and in V, unless V is None."""
    for row in m:
        row[dst] += k * row[src]
    for row in v or ():
        row[dst] += k * row[src]


def _eliminate(m, u, w, v, start, rows, cols):
    """Diagonalize m from row/column ``start`` on by pivot-and-clear,
    recording row operations in U (and their inverses in W, unless it is
    None) and column operations in V (unless it is None)."""
    t = start
    while t < rows and t < cols:
        # locate pivot: smallest |entry| != 0, row-major tie-break
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            return
        _swap_rows(m, u, w, t, piv[0])
        _swap_cols(m, v, t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = _round_div(m[i][t], m[t][t])
                    if q:
                        _add_row(m, u, w, t, i, -q)
                    if m[i][t] != 0:
                        _swap_rows(m, u, w, t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = _round_div(m[t][j], m[t][t])
                    if q:
                        _add_col(m, v, t, j, -q)
                    if m[t][j] != 0:
                        _swap_cols(m, v, t, j)
                        dirty = True
            if dirty:
                continue
            break
        t += 1

"""Exact integer linear algebra: Smith normal form, column echelons
and finitely generated abelian group presentations.

All matrices are row-major sequences of rows with Python ``int`` entries,
so intermediate values never overflow.  Frozen (tuple-of-tuples) matrices
are used in public data types; plain lists are accepted everywhere.  A
matrix with few nonzeros per row may instead be kept as sparse rows.
The library has one sparse format: a ``SparseRow`` is a dict {index:
nonzero entry}, and so are the sparse columns of an echelon and the rows
of a presentation.  Equal matrices have equal rows, whatever order the
keys were added in.  Two invariants hold:

- A row holds no zero entry.  Code that sums into a row deletes an
  entry that cancels, since ``ColumnSpan`` copies dict columns as given
  and a zero there would reach its pivot choice.
- A cached row is never mutated.  ``rows_mul`` hands back a row of its
  right factor itself, and the element rows of a lattice share rows, so
  a reader that changes a row copies it first (``ColumnSpan``,
  ``spans``, ``_smith`` and ``_along`` all do).

Each sparse primitive has one body, which every caller uses:

- ``_axpy`` (dst += k src, deleting the entries that cancel) for the
  combinations of ``_sparse_echelon``, the residual of ``_along`` and
  the U, V and W of ``_smith``; ``_axpy_indexed`` is the same update
  that also keeps an index (entry -> keys) in step, for ``_smith``'s
  rows and the columns of ``_sparse_echelon`` and ``spans``.  They are
  two, not one with an optional index, so neither branches on its
  caller.
- ``rows_apply`` for a matrix times a vector: ``reduce``'s check, pull
  and coordinate rows and the Cayley -> bar cochain map.
- ``rows_mul`` for a product or a sparse combination of rows, and
  ``dense_lists`` for a dense copy, as lists (``ColumnSpan.kernel``,
  ``serialize``'s dumps) or frozen by ``dense_rows`` (``mat_mul`` and
  the generators of ``abgroup_from_subquotient`` and
  ``torsion_cokernel``).

A few loops stay inline on purpose.  ``rows_mul``'s accumulator is the
product itself.  ``cohomology._rows`` writes at a block offset, and
sharing a primitive would copy a shifted row per face in the hottest
cohomology builder.  ``cohomology._rank_mod`` works mod p.
``_smith``'s ``add_col`` is a column operation on row storage, and
``ColumnSpan.solve`` accumulates into a dense x.

Two loops answer span questions, because a basis fixes the row order
and a yes/no question does not.  The column echelon ``_sparse_echelon``
takes rows in increasing order, and that order fixes every kernel and
basis the library returns; it is read only through ``ColumnSpan``
(membership, rank, a basis, kernels and so preimages, solutions), and
``kernel_basis`` and ``solve_columns`` are one-line faces of it.
``spans`` only says whether columns span Z^n: it keeps no basis, so it
takes rows in a fill-reducing order and stops at the first row that
decides, and every such question that reads no echelon goes to it.
The library reads the Smith form ``_smith`` directly;
``smith_normal_form`` builds dense U, D and V for ``galmod snf`` and
the tests.

The conversions between these forms run in C iterators: a sparse row is
``dict(compress(enumerate(row), row))`` (``_sparse``), a transpose is
``zip(*m, strict=True)`` (so a ragged matrix raises ValueError instead
of being cut to its shortest row; sums, products and stacks refuse one
too), and ``freeze`` maps ``int`` over each row.  ``rows_mul`` takes a
monomial row, the kind a permutation or coset action is made of, as a
row of the right factor, scaled.  The column echelon drops each pivot
column from its row map, so later rows never filter it out, and
``abgroup_from_subquotient`` reads the few rows of U and W =
(U^{-1})^T it keeps straight off ``_smith`` instead of dense U and
U^{-1}.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable, NamedTuple, Sequence

from .frozen import Frozen

IntMatrix = tuple[tuple[int, ...], ...]
SparseRow = dict[int, int]  # {column: nonzero entry}


class SolveError(Exception):
    """No exact integer solution exists."""


def freeze(rows: Iterable[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(map(int, row)) for row in rows)


def zeros(rows: int, cols: int) -> IntMatrix:
    return tuple((0,) * cols for _ in range(rows))


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    rows = len(m)
    return rows, (len(m[0]) if rows else 0)


def transpose(m: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(zip(*m, strict=True))


def transpose_shaped(m: Sequence[Sequence[int]], rows: int,
                     cols: int) -> IntMatrix:
    """Transpose with an explicit result shape, for empty matrices whose
    column count the row-tuple representation cannot carry."""
    t = transpose(m)
    if len(t) != rows:
        return zeros(rows, cols)
    return t


def _check_rows(*mats: Sequence[Sequence[int]]) -> None:
    """Raise ValueError on a ragged matrix, whose rows differ in length."""
    for m in mats:
        if len(set(map(len, m))) > 1:
            raise ValueError("rows of a matrix differ in length")


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    """Product a @ b, dense, through the sparse product ``rows_mul``."""
    _check_rows(a, b)
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        # row-tuple matrices cannot encode 0 x k shapes faithfully; an
        # empty factor always yields a zero product
        if ca == 0 or rb == 0:
            return tuple((0,) * cb for _ in range(ra))
        raise ValueError(f"dimension mismatch {ra}x{ca} @ {rb}x{cb}")
    return dense_rows(rows_mul(sparse_rows(a), sparse_rows(b)), cb)


def mat_add(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb, strict=True))
                 for ra, rb in zip(a, b, strict=True))


def mat_neg(a: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(-x for x in row) for row in a)


def is_zero(a: Sequence[Sequence[int]]) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def hstack(*mats: Sequence[Sequence[int]]) -> IntMatrix:
    _check_rows(*mats)
    wide = [m for m in mats if shape(m)[1] > 0]
    if not wide:
        rows = max((len(m) for m in mats), default=0)
        return tuple(() for _ in range(rows))
    return tuple(tuple(x for row in rows for x in row)
                 for rows in zip(*wide, strict=True))


def vstack(*mats: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(row) for m in mats for row in m)


def columns(m: Sequence[Sequence[int]],
            ncols: int = 0) -> list[list[int]]:
    """Matrix as a list of column vectors.  A matrix with no rows cannot
    carry its column count, so it has ``ncols`` empty columns."""
    if not m:
        return [[] for _ in range(ncols)]
    return list(map(list, zip(*m, strict=True)))


def from_columns(cols: Sequence[Sequence[int]], nrows: int | None = None) -> IntMatrix:
    if not cols:
        return zeros(nrows or 0, 0)
    return tuple(zip(*cols, strict=True))


class SnfResult(NamedTuple):
    """Decomposition U @ A @ V = D with U, V unimodular and D diagonal
    satisfying the divisibility chain d1 | d2 | ... (nonzero entries
    positive)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        r = min(shape(self.D))
        return tuple(self.D[i][i] for i in range(r))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)


def _round_div(x: int, d: int) -> int:
    """Quotient leaving the remainder of least absolute value.

    Keeps the entries of the transformation matrices from blowing up on
    dense inputs, where floor division lets them grow by a factor of the
    pivot at every step.
    """
    q, r = divmod(x, d)
    if 2 * abs(r) > abs(d):
        q += 1
    return q


def smith_normal_form(a: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form with dense transformation matrices, for
    ``galmod snf`` and the tests; the library reads ``_smith`` directly.

    Pivot choice is deterministic: the smallest nonzero entry in absolute
    value, ties broken in row-major order.  The work is done by
    ``_smith`` on the nonzeros of ``a``.
    """
    rows, cols = shape(a)
    diagonal, u, v, _ = _smith(sparse_rows(a), cols)
    d = [[0] * cols for _ in range(rows)]
    for t, x in enumerate(diagonal):
        d[t][t] = x
    return SnfResult(dense_rows(u, rows), freeze(d),
                     transpose_shaped(dense_rows(v, cols), cols, cols))


def _dense(rows: Sequence[SparseRow], ncols: int):
    """Each sparse row {column: entry} as a new dense list, one at a
    time."""
    for row in rows:
        vec = [0] * ncols
        for j, x in row.items():
            vec[j] = x
        yield vec


def dense_lists(rows: Sequence[SparseRow], ncols: int) -> list[list[int]]:
    """Sparse rows {column: entry} as dense rows, each a new list."""
    return list(_dense(rows, ncols))


def dense_rows(rows: Sequence[SparseRow], ncols: int) -> IntMatrix:
    """Sparse rows {column: entry} as a frozen dense matrix."""
    return tuple(map(tuple, _dense(rows, ncols)))


def _smith(rows: Sequence[dict], ncols: int, track_u: bool = True,
           track_v: bool = True, inverse: bool = False):
    """Smith normal form of the matrix with these rows {column: entry}
    and ``ncols`` columns, by pivot-and-clear on sparse rows.

    Returns ``(diagonal, u, v, w)``: the min(rows, cols) diagonal entries
    of D, the rows of U, the columns of V and the rows of
    W = (U^{-1})^T, each as {index: entry}, or None when not tracked.

    Pivot: the smallest |entry| of the part not yet diagonalized, ties
    broken in row-major order.  Column t is cleared first, row by row,
    by the quotient that leaves the least remainder (``_round_div``); a
    nonzero remainder is swapped into the pivot.  Then row t, column by
    column, the same way; both repeat until neither swaps.  Once the
    matrix is diagonal, a pair d_t, d_i with d_t not dividing d_i gets
    col t += col i and is eliminated again from t on, until the
    divisibility chain holds; last, negative entries flip their row.

    Swaps only permute the maps position -> row (``rperm``) and
    position -> column (``cperm``), so U and W keep their rows, and V
    its columns, under the row's or column's original index.
    ``colrows`` lists, per column, the rows it is nonzero in.  U, V and
    W are built only when asked for.  Since everything finished lies in
    rows and columns before t, the rows from t on hold entries only in
    columns from t on.
    """
    nrows = len(rows)
    m = [{j: x for j, x in row.items() if x} for row in rows]
    colrows: list[set] = [set() for _ in range(ncols)]
    for i, row in enumerate(m):
        for j in row:
            colrows[j].add(i)
    rperm, rpos = list(range(nrows)), list(range(nrows))
    cperm, cpos = list(range(ncols)), list(range(ncols))
    u = [{i: 1} for i in range(nrows)] if track_u else None
    w = [{i: 1} for i in range(nrows)] if inverse else None
    v = [{j: 1} for j in range(ncols)] if track_v else None

    def swap(perm, pos, i, j):
        a, b = perm[i], perm[j]
        perm[i], perm[j] = b, a
        pos[a], pos[b] = j, i

    def add_row(src, dst, k):
        # row[dst] += k * row[src]; on U^{-1}, W[src] -= k * W[dst]
        a, b = rperm[src], rperm[dst]
        _axpy_indexed(m[b], m[a], k, colrows, b)
        if u is not None:
            _axpy(u[b], u[a], k)
        if w is not None:
            _axpy(w[a], w[b], -k)

    def add_col(src, dst, k):
        # col[dst] += k * col[src]
        p, q = cperm[src], cperm[dst]
        hit = colrows[q]
        for i in colrows[p]:
            row = m[i]
            y = row.get(q, 0) + k * row[p]
            if y:
                row[q] = y
                hit.add(i)
            elif q in row:
                del row[q]
                hit.discard(i)
        if v is not None:
            _axpy(v[q], v[p], k)

    def entry(i, j):
        return m[rperm[i]].get(cperm[j], 0)

    def eliminate(t):
        while t < nrows and t < ncols:
            # pivot: least (|entry|, position, column position)
            best = piv = None
            for i in range(t, nrows):
                row = m[rperm[i]]
                if row:
                    x, j = min((abs(x), cpos[j]) for j, x in row.items())
                    if best is None or x < best:
                        best, piv = x, (i, j)
                        if x == 1:
                            break
            if piv is None:
                return
            swap(rperm, rpos, t, piv[0])
            swap(cperm, cpos, t, piv[1])
            while True:
                # clear column t; each step touches only row i and row t,
                # so the rows to visit are known from the start
                dirty = False
                for i in sorted(rpos[r] for r in colrows[cperm[t]]
                                if rpos[r] > t):
                    q = _round_div(entry(i, t), entry(t, t))
                    if q:
                        add_row(t, i, -q)
                    if cperm[t] in m[rperm[i]]:
                        swap(rperm, rpos, t, i)
                        dirty = True
                if dirty:
                    continue
                for j in sorted(cpos[c] for c in m[rperm[t]]
                                if cpos[c] > t):
                    q = _round_div(entry(t, j), entry(t, t))
                    if q:
                        add_col(t, j, -q)
                    if cperm[j] in m[rperm[t]]:
                        swap(cperm, cpos, t, j)
                        dirty = True
                if not dirty:
                    break
            t += 1

    eliminate(0)
    r = min(nrows, ncols)
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            if entry(t, t) == 0:
                continue
            for i in range(t + 1, r):
                if entry(i, i) % entry(t, t) != 0:
                    # bring the offending entry into reach, eliminate again
                    add_col(i, t, 1)
                    eliminate(t)
                    changed = True
    diagonal = []
    for t in range(r):
        x = entry(t, t)
        if x < 0:
            i = rperm[t]
            for mat in (m, u, w):
                if mat is not None:
                    mat[i] = {j: -y for j, y in mat[i].items()}
            x = -x
        diagonal.append(x)
    return (diagonal,
            [u[i] for i in rperm] if u is not None else None,
            [v[j] for j in cperm] if v is not None else None,
            [w[i] for i in rperm] if w is not None else None)


def _axpy(dst: dict, src: dict, k: int) -> None:
    """dst += k * src on sparse vectors {index: nonzero entry}, k != 0,
    deleting the entries that cancel."""
    for j, x in src.items():
        y = dst.get(j, 0) + k * x
        if y:
            dst[j] = y
        else:
            del dst[j]


def _axpy_indexed(dst: dict, src: dict, k: int, index, key) -> None:
    """``_axpy`` that keeps ``index`` (index -> set of keys) in step:
    ``key`` joins index[j] when dst gains entry j and leaves it when dst
    loses j.  ``_smith``'s rows with their column map and the columns
    of ``_sparse_echelon`` and ``spans`` with their row map are kept
    so."""
    for j, x in src.items():
        y = dst.get(j)
        if y is None:
            dst[j] = k * x
            index[j].add(key)
        elif y + k * x:
            dst[j] = y + k * x
        else:
            del dst[j]
            index[j].discard(key)


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    """Whether ``a`` is square with determinant ±1, that is, square with
    columns that span Z^n (``spans``)."""
    n, c = shape(a)
    return n == c and spans(columns(a), n)


def mat_inverse_unimodular(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Inverse of an integer matrix with determinant ±1: column j solves
    a x = e_j on one echelon of the columns of ``a``, which must span
    Z^n (``ColumnSpan.spans``).

    Only for matrices that come with no factorization: the change of
    basis in ``lattice.conjugate_lattice`` and the random unimodular
    matrices of ``galbench/inputs.py``.  ``lattice.dual_lattice`` reads
    M(s)^{-1} = M(s^{-1}) off the element matrices.
    """
    n, c = shape(a)
    span = ColumnSpan(columns(a), track=c)
    if n != c or not span.spans(n):
        raise ValueError("matrix is not unimodular")
    return from_columns([span.solve({j: 1}) for j in range(n)], n)


# ---------------------------------------------------------------------------
# Sparse column elimination.  Used for the large, sparse cochain matrices,
# where a dense SNF would be too slow, and the one place where a vector is
# reduced against a span: kernels, solves, span membership and the
# subquotient presentations all read a stored echelon through
# ``ColumnSpan`` or ``_along``; "do these columns span Z^n" alone is
# ``spans``, which stores nothing.

def _sparse_echelon(sp: list[dict], track: int = 0):
    """Reduce columns given as {row: entry}, in place, to column echelon
    form.

    Returns ``(echelon, combos, kernel)``.  ``echelon`` lists the reduced
    nonzero columns as (pivot row, {row: entry}) with strictly increasing
    pivot rows; each column is zero above its pivot row, and its pivot
    entry is positive.  With ``track`` > 0, ``combos[i]`` is the
    unimodular combination {input column: coefficient} giving echelon
    column i, and ``kernel`` holds the combinations of the columns that
    vanished (they span the kernel), each cut to the input columns below
    ``track``: the cut is linear, so the columns past it need not be
    recorded.  With ``track`` 0 both are empty.  The pivots never depend
    on ``track``.

    Rows are taken in increasing order.  While a row has more than one
    active column, the one of least (|entry|, index) is subtracted from
    the others by floor quotient; the last one left is the row's pivot
    and leaves the row map ``rowmap`` (row -> active columns touching
    it), so later rows never see it."""
    n = len(sp)
    combos = [{j: 1} if j < track else {} for j in range(n)] if track \
        else [None] * n
    rowmap: dict[int, set[int]] = {}
    for j, col in enumerate(sp):
        for r in col:
            rowmap.setdefault(r, set()).add(j)
    pivots = []
    for row in sorted(rowmap):
        cands = rowmap[row]
        if not cands:
            continue
        while len(cands) > 1:
            a = min(cands, key=lambda j: (abs(sp[j][row]), j))
            sa = sp[a]
            xa = sa[row]
            ca = combos[a]
            for b in tuple(cands):
                if b == a:
                    continue
                # col[b] -= q * col[a]; the row map follows col[b]'s support
                k = -(sp[b][row] // xa)
                _axpy_indexed(sp[b], sa, k, rowmap, b)
                if track:
                    _axpy(combos[b], ca, k)
        (piv,) = cands
        col = sp[piv]
        if col[row] < 0:
            col = sp[piv] = {r: -x for r, x in col.items()}
            if track:
                combos[piv] = {r: -x for r, x in combos[piv].items()}
        for r in col:
            rowmap[r].discard(piv)
        pivots.append((row, piv))
    echelon = [(r, sp[j]) for r, j in pivots]
    if not track:
        return echelon, [], []
    # a pivot column keeps its pivot entry, so the empty columns are
    # exactly the vanished ones
    return (echelon, [combos[j] for _, j in pivots],
            [combos[j] for j in range(n) if not sp[j]])


def _along(echelon, vec: Sequence[int]) -> list[int] | None:
    """Coefficients of ``vec`` on the columns of a stored ``echelon``
    (pivot row, {row: entry}), or None when ``vec`` is not in their
    integer span.  ``vec`` is a dense vector or a sparse one {index:
    nonzero entry}.  Pivots are taken in order of their rows, each column
    being zero above its own, so each coefficient is fixed by one entry.
    The coefficients fill a list of zeros, and the walk stops as soon as
    the residual is empty."""
    resid = dict(vec) if isinstance(vec, dict) else _sparse(vec)
    coeffs = [0] * len(echelon)
    for t, (row, col) in enumerate(echelon):
        if not resid:
            return coeffs
        x = resid.get(row)
        if not x:
            continue
        q, r = divmod(x, col[row])
        if r:
            return None
        coeffs[t] = q
        _axpy(resid, col, -q)
    return None if resid else coeffs


def spans(cols: Iterable, n: int) -> bool:
    """Whether the columns, dense or {row: entry} with rows below ``n``,
    span Z^n.  A yes/no question keeps no basis, so unlike
    ``_sparse_echelon`` it takes rows in a fill-reducing order and stops
    at the first row that decides it.

    The rows are taken once, in increasing order of how many columns
    meet them, ties by row.  At each row the active columns that meet
    it are cleared by the one of least (|entry|, length, index): the
    unit entry of the shortest column when there is one, otherwise
    floor-quotient Euclid until one column is left, as in
    ``_sparse_echelon``.  That column is frozen: it leaves the row map,
    so no later row touches it.  The answer is False at the first row
    that no active column meets, or whose last column there has an
    entry other than ±1.

    Proof.  Every step adds a multiple of one column to another, so the
    span never changes.  When row r_t is reached, each active column is
    zero on r_0..r_(t-1): it was cleared on each of them, and only
    active columns were added to it since.  So a frozen column is zero
    on the rows frozen before it.  If all n rows freeze a ±1 pivot, the
    frozen columns, with their rows in the order r_0..r_(n-1), form a
    triangular matrix with ±1 on its diagonal: a basis of Z^n inside
    the span.  If no active column meets row r_t, or only one does,
    with entry x, |x| > 1, project the span onto the rows r_0..r_t.
    The other active columns project to zero, so the projection is
    spanned by the t frozen columns and that one column: a triangular
    matrix with diagonal ±1, .., ±1, x, or only t columns.  Either way
    it is not Z^(t+1), so the span is not Z^n."""
    sp = [dict(c) if isinstance(c, dict) else _sparse(c) for c in cols]
    rowmap: dict[int, set[int]] = {}
    for j, col in enumerate(sp):
        for r in col:
            rowmap.setdefault(r, set()).add(j)
    if len(rowmap) != n or (n and max(rowmap) != n - 1):
        # a row below n that no column meets, or a row past n
        return False
    for row in sorted(rowmap, key=lambda r: (len(rowmap[r]), r)):
        cands = rowmap[row]
        if not cands:
            return False
        while len(cands) > 1:
            a = min(cands, key=lambda j: (abs(sp[j][row]), len(sp[j]), j))
            sa = sp[a]
            xa = sa[row]
            for b in tuple(cands):
                if b != a:
                    _axpy_indexed(sp[b], sa, -(sp[b][row] // xa), rowmap, b)
        (piv,) = cands
        col = sp[piv]
        if col[row] not in (1, -1):
            return False
        for r in col:
            rowmap[r].discard(piv)
    return True


class ColumnSpan:
    """The integer span of a list of columns, read off one column echelon:
    the one face of the echelon that the library reads.

    The columns are dense vectors or {index: entry} (copied, not
    reduced in place).  ``contains`` reduces vectors, dense or {index:
    entry}, along its pivots; ``rank`` counts them; ``spans(n)`` says
    whether the columns span all of Z^n: the echelon is lower triangular
    with positive pivots and spans what the columns span, so they do iff
    it has n pivots, each is 1 and no column has an entry past row n - 1
    (asked where the echelon is read as well; the question alone goes
    to ``spans``).
    ``basis(rows)`` lists the echelon columns, a basis of the span, as
    dense vectors.  With ``track`` = k the echelon also records the
    kernel of the matrix the columns form, cut to its first k
    coordinates: ``kernel()`` lists that basis as dense vectors and
    ``sparse_kernel()`` as {index: entry}.  So one elimination of
    [a | rel] answers both "is this in span([a | rel])" and "what is the
    preimage of span(rel) under a", and only the k coordinates of a are
    recorded.  ``solve(vec)`` gives the coefficients of ``vec`` on the
    first k columns, which must be independent."""

    def __init__(self, cols: Iterable, track: int = 0):
        self.track = track
        self.echelon, self._combos, self._kernel = _sparse_echelon(
            [dict(c) if isinstance(c, dict) else _sparse(c) for c in cols],
            track)

    @property
    def rank(self) -> int:
        return len(self.echelon)

    def contains(self, vecs: Iterable[Sequence[int]]) -> bool:
        return all(_along(self.echelon, v) is not None for v in vecs)

    def spans(self, n: int) -> bool:
        return len(self.echelon) == n and all(
            col[row] == 1 and max(col) < n for row, col in self.echelon)

    def basis(self, rows: int) -> list[list[int]]:
        return dense_lists([c for _, c in self.echelon], rows)

    def kernel(self) -> list[list[int]]:
        return dense_lists(self._kernel, self.track)

    def sparse_kernel(self) -> list[dict]:
        return self._kernel

    def solve(self, vec) -> list[int]:
        """The x with cols @ x = vec, when ``track`` covers every column:
        the coefficients of ``vec`` on the echelon, turned back into
        coefficients on the columns.  Raises SolveError when ``vec`` is
        not in the span and ValueError when the columns are dependent."""
        if self._kernel:
            raise ValueError("columns are linearly dependent")
        y = _along(self.echelon, vec)
        if y is None:
            raise SolveError("vector is not in the integer span")
        x = [0] * self.track
        for yi, combo in zip(y, self._combos):
            if yi:
                for j, v in combo.items():
                    x[j] += yi * v
        return x


def kernel_basis(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis (as column vectors) of the integer kernel {x : a @ x = 0},
    a saturated sublattice of Z^cols: the dense face of ``ColumnSpan``'s
    kernel for tests and demos; the library reads ``ColumnSpan``."""
    return ColumnSpan(columns(a), track=shape(a)[1]).kernel()


def solve_columns(basis_cols: Sequence[Sequence[int]],
                  b_cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """Solve basis @ X = B exactly over Z, columnwise (``ColumnSpan.solve``
    of each column of B on independent ``basis_cols``)."""
    return list(map(ColumnSpan(basis_cols, track=len(basis_cols)).solve,
                    b_cols))


# ---------------------------------------------------------------------------
# Finitely generated abelian groups presented as subquotients of Z^n.

class AbGroupPresentation(Frozen):
    """Subquotient span(num) / span(den) of Z^n, reduced to invariant
    factors.

    ``factors`` lists the invariant factors in divisibility order; 1s are
    dropped and 0 encodes a free summand (listed last).  ``generators``
    holds one ambient vector per listed factor.

    ``reduce`` reads a class off stored rows and a stored echelon; it
    eliminates nothing.  The check rows must vanish on ``vec``.  The pull
    rows, when there are any, then map it into the coordinates of the
    echelon (bar -> Cayley cochains, for cohomology).  That vector has
    coordinates y on the echelon, by reduction along its pivots, which
    fails off the echelon's span; with no echelon, y is the vector itself
    and the check rows alone stand for span(num).  Row i gives the class
    as row_i . y mod factor_i: a row of the Smith form's U for
    ``abgroup_from_subquotient``, and for ``torsion_cokernel`` the
    coefficient of g_i in each echelon column.
    """

    # _rows: one per factor.  _basis: the echelon (pivot row, {row:
    # entry}) of span(num).  _checks: the rows that must vanish on
    # span(num), or a callable that builds them on the first ``reduce``.
    # _pull: the rows mapping an ambient vector into the coordinates of
    # _basis.
    _fields = ("ambient_dim", "factors", "generators", "_rows", "_basis",
               "_checks", "_pull")

    def __init__(self, ambient_dim: int, factors: tuple[int, ...],
                 generators: tuple[tuple[int, ...], ...],
                 _rows: tuple[SparseRow, ...], _basis: list | None,
                 _checks: tuple[SparseRow, ...]
                 | Callable[[], Iterable[SparseRow]] = (),
                 _pull: tuple[SparseRow, ...] | None = None):
        vars(self).update(ambient_dim=ambient_dim, factors=factors,
                          generators=generators, _rows=_rows, _basis=_basis,
                          _checks=_checks, _pull=_pull)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        n = 1
        for f in self.factors:
            if f == 0:
                return None
            n *= f
        return n

    def check_rows(self) -> tuple[SparseRow, ...]:
        """The rows that must vanish on span(num), built here once when
        they were deferred."""
        if callable(self._checks):
            object.__setattr__(self, "_checks", tuple(self._checks()))
        return self._checks

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of the class of ``vec`` on the stored generators.

        Raises ValueError unless ``vec`` has ``ambient_dim`` entries, and
        SolveError unless it lies in span(num)."""
        if len(vec) != self.ambient_dim:
            raise ValueError(f"vector of length {len(vec)} in ambient "
                             f"dimension {self.ambient_dim}")
        if any(rows_apply(self.check_rows(), vec)):
            raise SolveError("vector fails a check row of span(num)")
        if self._pull is not None:
            vec = rows_apply(self._pull, vec)
        y = vec if self._basis is None else _along(self._basis, vec)
        if y is None:
            raise SolveError("vector is not in span(num)")
        return tuple(z % d if d else z
                     for z, d in zip(rows_apply(self._rows, y), self.factors))


def _sparse(row: Sequence[int]) -> SparseRow:
    return dict(compress(enumerate(row), row))


def sparse_rows(m: Sequence[Sequence[int]]) -> tuple[SparseRow, ...]:
    return tuple(map(_sparse, m))


def rows_mul(a: Sequence[SparseRow],
             b: Sequence[SparseRow]) -> tuple[SparseRow, ...]:
    """Product a @ b of two matrices given as sparse rows: row i adds x
    times row k of b for each entry {k: x} of row i of a, and drops the
    entries that cancel.

    A monomial row {k: x}, as in a permutation or coset action, is row k
    of b itself, not a copy, or that row scaled by x: it is already free
    of zeros, so it needs no accumulator."""
    out = []
    for arow in a:
        if len(arow) == 1:
            ((k, x),) = arow.items()
            out.append(b[k] if x == 1 else {j: x * y
                                            for j, y in b[k].items()})
            continue
        acc: dict[int, int] = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: y for j, y in acc.items() if y})
    return tuple(out)


def rows_transpose(rows: Sequence[SparseRow],
                   ncols: int) -> list[SparseRow]:
    """The transpose, as new sparse rows, of the matrix with these sparse
    rows and ``ncols`` columns: its columns, each {row: entry}."""
    out: list[SparseRow] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def rows_apply(rows: Sequence[SparseRow],
               v: Sequence[int]) -> tuple[int, ...]:
    """The matrix with these sparse rows times the vector v."""
    out = []
    for row in rows:
        y = 0
        for j, x in row.items():
            y += x * v[j]
        out.append(y)
    return tuple(out)


def abgroup_from_subquotient(num_cols: Sequence[Sequence[int]],
                             den_cols: Sequence[Sequence[int]],
                             ambient_dim: int) -> AbGroupPresentation:
    """The group span(num)/span(den); den must lie inside span(num).

    den is written on the echelon basis of span(num).  When the columns
    of that k x j matrix X span Z^k (``spans``), den spans
    span(num) and the group is trivial: the Smith form would give only
    d_i = 1, so none runs.  Otherwise ``_smith`` gives U X V = D on the
    rows of X, with no V and with the rows of W = (U^{-1})^T.  The
    factors are the d_i other than 1; for each, generator i is the basis
    times column i of U^{-1}, that is row i of W, and row i of U is what
    ``reduce`` applies to a vector's coordinates on the basis.  Only
    those kept rows are read; no dense U or U^{-1} is built."""
    echelon = ColumnSpan(num_cols).echelon
    k = len(echelon)
    x = [_along(echelon, c) for c in den_cols]
    if any(y is None for y in x):
        raise SolveError("den is not inside span(num)")
    if spans(x, k):
        return AbGroupPresentation(ambient_dim, (), (), (), echelon)
    diagonal, u, _, w = _smith(sparse_rows(from_columns(x, k)), len(x),
                               track_v=False, inverse=True)
    # the diagonal is already in divisibility order (1s, then larger
    # factors, then 0s for free summands)
    diag = diagonal + [0] * (k - len(diagonal))
    keep = [i for i, d in enumerate(diag) if d != 1]
    generators = dense_rows(rows_mul([w[i] for i in keep],
                                     [col for _, col in echelon]), ambient_dim)
    return AbGroupPresentation(
        ambient_dim, tuple(diag[i] for i in keep), generators,
        tuple(u[i] for i in keep), echelon)


def torsion_cokernel(rows: Sequence[SparseRow],
                     ncols: int) -> AbGroupPresentation:
    """The torsion subgroup of coker(A), A the matrix with these rows
    {column: entry} and ``ncols`` columns, read from U A V = D with only
    V tracked (``_smith``).

    In the coordinates z = U x the image of A is {z_i in d_i Z for
    i < rank, z_j = 0 for j >= rank} and its saturation drops the d_i, so
    the torsion is the sum of the Z/d_i with d_i > 1.  Column i of U^{-1}
    is g_i = (A V)_i / d_i, and g_0..g_{rank-1} are a basis of the
    saturation on which a vector's coordinates are its z_i.  The
    generators are the g_i with d_i > 1.  The presentation's echelon is
    one of all rank g_i, so ``reduce`` raises SolveError off the
    saturation, and its rows turn echelon coordinates into the kept
    z_i."""
    diagonal, _, v, _ = _smith(rows, ncols, track_u=False)
    rank = sum(map(bool, diagonal))
    gens = [{r: x // d for r, x in g.items()} for d, g in
            zip(diagonal, rows_mul(v[:rank], rows_transpose(rows, ncols)))]
    keep = [i for i, d in enumerate(diagonal) if d > 1]
    span = ColumnSpan(gens, track=rank)
    coeffs = rows_transpose(span._combos, rank)
    return AbGroupPresentation(
        len(rows), tuple(diagonal[i] for i in keep),
        dense_rows([gens[i] for i in keep], len(rows)),
        tuple(coeffs[i] for i in keep), span.echelon)


def relation_columns(factors: Sequence[int], dim: int) -> list[list[int]]:
    """Columns of the relation lattice of a group given by invariant factors
    on standard coordinates (one coordinate per factor)."""
    cols = []
    for i, f in enumerate(factors):
        if f > 0:
            col = [0] * dim
            col[i] = f
            cols.append(col)
    return cols


def hom_kernel(matrix: Sequence[Sequence[int]],
               src_factors: Sequence[int],
               tgt_factors: Sequence[int]) -> AbGroupPresentation:
    """Kernel of a homomorphism of f.g. abelian groups in generator
    coordinates."""
    sc = len(src_factors)
    proj = ColumnSpan(
        columns(matrix, sc) + relation_columns(tgt_factors, len(tgt_factors)),
        track=sc).kernel()
    src_rel = relation_columns(src_factors, sc)
    return abgroup_from_subquotient(proj + src_rel, src_rel, sc)


def hom_cokernel(matrix: Sequence[Sequence[int]],
                 tgt_factors: Sequence[int]) -> AbGroupPresentation:
    """Cokernel of a homomorphism into the group with ``tgt_factors``:
    Z^rows modulo the columns of ``matrix`` and the relations.  With no
    factors, ``_smith`` runs on the rows of ``matrix`` itself."""
    tr, _ = shape(matrix)
    tgt_rel = relation_columns(tgt_factors, tr)
    full = [{i: 1} for i in range(tr)]
    return abgroup_from_subquotient(full, columns(matrix) + tgt_rel, tr)


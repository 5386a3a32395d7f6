"""Exact integer linear algebra: Smith normal form, kernels, preimages
and finitely generated abelian group presentations.

All matrices are row-major sequences of rows with Python ``int`` entries,
so intermediate values never overflow.  Frozen (tuple-of-tuples) matrices
are used in public data types; plain lists are accepted everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]


class SolveError(Exception):
    """No exact integer solution exists."""


def freeze(rows: Iterable[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def thaw(m: Iterable[Sequence[int]]) -> list[list[int]]:
    return [list(row) for row in m]


def zeros(rows: int, cols: int) -> IntMatrix:
    return tuple((0,) * cols for _ in range(rows))


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    rows = len(m)
    return rows, (len(m[0]) if rows else 0)


def transpose(m: Sequence[Sequence[int]]) -> IntMatrix:
    rows, cols = shape(m)
    return tuple(tuple(m[i][j] for i in range(rows)) for j in range(cols))


def transpose_shaped(m: Sequence[Sequence[int]], rows: int,
                     cols: int) -> IntMatrix:
    """Transpose with an explicit result shape, for empty matrices whose
    column count the row-tuple representation cannot carry."""
    t = transpose(m)
    if len(t) != rows:
        return zeros(rows, cols)
    return t


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    """Product a @ b, skipping zero entries: row i of the result adds
    a[i][k] times the nonzero entries of row k of b."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        # row-tuple matrices cannot encode 0 x k shapes faithfully; an
        # empty factor always yields a zero product
        if ca == 0 or rb == 0:
            return tuple((0,) * cb for _ in range(ra))
        raise ValueError(f"dimension mismatch {ra}x{ca} @ {rb}x{cb}")
    bsparse = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for arow in a:
        acc = [0] * cb
        for x, brow in zip(arow, bsparse):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_add(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_eq(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    return shape(a) == shape(b) and all(
        all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def is_zero(a: Sequence[Sequence[int]]) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def hstack(*mats: Sequence[Sequence[int]]) -> IntMatrix:
    wide = [m for m in mats if shape(m)[1] > 0]
    if not wide:
        rows = max((len(m) for m in mats), default=0)
        return tuple(() for _ in range(rows))
    mats = wide
    rows = len(mats[0])
    return tuple(tuple(x for m in mats for x in m[i]) for i in range(rows))


def vstack(*mats: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(row) for m in mats for row in m)


def block_diag(*mats: Sequence[Sequence[int]]) -> IntMatrix:
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


def columns(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Matrix as a list of column vectors."""
    rows, cols = shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def from_columns(cols: Sequence[Sequence[int]], nrows: int | None = None) -> IntMatrix:
    if not cols:
        return zeros(nrows or 0, 0)
    n = len(cols[0])
    return tuple(tuple(c[i] for c in cols) for i in range(n))


@dataclass(frozen=True)
class SnfResult:
    """Decomposition U @ A @ V = D with U, V unimodular and D diagonal
    satisfying the divisibility chain d1 | d2 | ... (nonzero entries
    positive)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    # U^{-1}, built only when smith_normal_form(a, inverse=True) asks
    Uinv: IntMatrix | None = None

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


def smith_normal_form(a: Sequence[Sequence[int]],
                      inverse: bool = False) -> SnfResult:
    """Smith normal form with transformation matrices.

    Pivot choice is deterministic: the smallest nonzero entry in absolute
    value, ties broken in row-major order.  With ``inverse`` the result
    also carries U^{-1}, built alongside U (see ``_add_row``).
    """
    m = thaw(a)
    rows, cols = shape(m)
    u = thaw(identity(rows))
    v = thaw(identity(cols))
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
    return SnfResult(freeze(u), freeze(m), freeze(v),
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
    if i != j:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
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
    """col[dst] += k * col[src] in m and in V."""
    for row in m:
        row[dst] += k * row[src]
    for row in v:
        row[dst] += k * row[src]


def _eliminate(m, u, w, v, start, rows, cols):
    """Diagonalize m from row/column ``start`` on by pivot-and-clear,
    recording row operations in U (and their inverses in W, unless it is
    None) and column operations in V."""
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


def invariant_factors(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return smith_normal_form(a).invariant_factors


def _det_pm1(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    m = thaw(a)
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * (m[n - 1][n - 1] if n else 1)


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    n, c = shape(a)
    if n != c:
        return False
    return abs(_det_pm1(a)) == 1


def mat_inverse_unimodular(a: Sequence[Sequence[int]]) -> IntMatrix:
    """Inverse of an integer matrix with determinant ±1, by a full SNF.

    Only for matrices that come with no factorization: the change of
    basis in ``lattice.conjugate_lattice`` and the random unimodular
    matrices of ``galbench/inputs.py``.  Callers that have just run an
    SNF ask it for U^{-1} instead, and ``lattice.dual_lattice`` reads
    M(s)^{-1} = M(s^{-1}) off the element matrices.
    """
    res = smith_normal_form(a)
    n, c = shape(a)
    if n != c or res.rank != n or any(d != 1 for d in res.diagonal):
        raise ValueError("matrix is not unimodular")
    return mat_mul(res.V, res.U)


# ---------------------------------------------------------------------------
# Sparse column elimination.  Used for the large, sparse cochain matrices,
# where a dense SNF would be too slow.

def _column_echelon(cols: list[list[int]], track: bool = False):
    """Reduce a list of column vectors to column echelon form.

    Returns ``(pivots, echelon_cols, combos)``: pivots is a list of
    (row, column-index-into-echelon_cols) with strictly increasing rows;
    echelon_cols the reduced nonzero columns; combos (if ``track``) the
    unimodular combinations expressing each output column, including the
    ones that vanished (those span the kernel).
    """
    n = len(cols)
    sp = []
    for j, col in enumerate(cols):
        d = {i: int(x) for i, x in enumerate(col) if x != 0}
        sp.append(d)
    combos = [{j: 1} for j in range(n)] if track else [None] * n
    active = list(range(n))
    # row -> active columns touching it
    rowmap: dict[int, set[int]] = {}
    for j in active:
        for r in sp[j]:
            rowmap.setdefault(r, set()).add(j)
    pivots = []
    frozen: set[int] = set()

    def addmul(dst, src, k):
        # col[dst] += k * col[src]
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
    echelon = [(r, sp[j], combos[j]) for r, j in pivots]
    kernel_combos = [combos[j] for j in range(n)
                     if j not in frozen and not sp[j]] if track else []
    return pivots, sp, (echelon, kernel_combos)


def kernel_basis(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis (as column vectors) of the integer kernel {x : a @ x = 0}.

    The basis spans a saturated sublattice of Z^cols.
    """
    rows, cols = shape(a)
    _, _, (_, kernel_combos) = _column_echelon(columns(a), track=True)
    out = []
    for combo in kernel_combos:
        vec = [0] * cols
        for j, v in combo.items():
            vec[j] = v
        out.append(vec)
    return out


def preimage(a: Sequence[Sequence[int]], rel_cols: Sequence[Sequence[int]],
             ncols: int) -> list[list[int]]:
    """Generators (columns) of {x in Z^ncols : a @ x in span(rel_cols)}.

    ``ncols`` is explicit because a matrix with no rows cannot carry its
    column count; its preimage is all of Z^ncols.
    """
    if not a:
        return columns(identity(ncols))
    if not rel_cols:
        return kernel_basis(a)
    kb = kernel_basis(hstack(a, from_columns(rel_cols, len(a))))
    return [v[:ncols] for v in kb]


def in_relation_span(relations: Sequence[Sequence[int]],
                     cols: Sequence[Sequence[int]]) -> bool:
    """Whether every column of ``cols`` lies in the integer span of the
    columns of ``relations``: one echelon of the span, one solve."""
    if not cols:
        return True
    basis = image_basis(relations) if shape(relations)[1] else []
    try:
        solve_columns(basis, cols)
    except SolveError:
        return False
    return True


def image_basis(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis (columns) of the lattice spanned by the columns of ``a``.

    Not saturated: spans exactly the integer column span.
    """
    rows, _ = shape(a)
    pivots, sp, _ = _column_echelon(columns(a))
    out = []
    for row, j in pivots:
        vec = [0] * rows
        for r, v in sp[j].items():
            vec[r] = v
        out.append(vec)
    return out


def solve_columns(basis_cols: Sequence[Sequence[int]],
                  b_cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """Solve basis @ X = B exactly over Z, columnwise.

    ``basis_cols`` must be linearly independent.  Raises SolveError when a
    column of B is not in the integer span.
    """
    k = len(basis_cols)
    if k == 0:
        for b in b_cols:
            if any(x != 0 for x in b):
                raise SolveError("nonzero target with empty basis")
        return [[] for _ in b_cols]
    pivots, sp, (echelon, kernel_combos) = _column_echelon(
        [list(c) for c in basis_cols], track=True)
    if kernel_combos:
        raise ValueError("basis columns are linearly dependent")
    sols = []
    for b in b_cols:
        resid = {i: int(x) for i, x in enumerate(b) if x != 0}
        y = [0] * k  # coefficients in echelon columns
        for idx, (row, col_dict, _) in enumerate(echelon):
            val = resid.get(row, 0)
            if val == 0:
                continue
            pivval = col_dict[row]
            if val % pivval != 0:
                raise SolveError("column not in integer span")
            q = val // pivval
            y[idx] = q
            for r, v in col_dict.items():
                nv = resid.get(r, 0) - q * v
                if nv:
                    resid[r] = nv
                elif r in resid:
                    del resid[r]
        if resid:
            raise SolveError("column not in span")
        # convert echelon coefficients back to original basis coefficients
        x = [0] * k
        for idx, (_, _, combo) in enumerate(echelon):
            if y[idx]:
                for j, v in combo.items():
                    x[j] += y[idx] * v
        sols.append(x)
    return sols


# ---------------------------------------------------------------------------
# Finitely generated abelian groups presented as subquotients of Z^n.

@dataclass(frozen=True)
class AbGroupPresentation:
    """Subquotient L_num / L_den of Z^n, reduced to invariant factors.

    ``factors`` lists the invariant factors in divisibility order; 1s are
    dropped and 0 encodes a free summand (listed last).  ``generators``
    holds one ambient vector per listed factor.
    """

    ambient_dim: int
    factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    _basis: tuple[tuple[int, ...], ...]  # columns: basis of L_num
    _uinv_cols: tuple[tuple[int, ...], ...]  # adapted basis coords in _basis
    _diag: tuple[int, ...]  # full diagonal incl. 1s, aligned with _uinv_cols

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

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of the class of ``vec`` on the stored generators."""
        if self.ambient_dim == 0 or not self._basis:
            return (0,) * len(self.factors)
        y = solve_columns([list(c) for c in self._basis], [list(vec)])[0]
        # adapted coordinates: z = U @ y, but we stored columns of U^{-1};
        # solve U^{-1} z = y
        z = solve_columns([list(c) for c in self._uinv_cols], [list(y)])[0]
        coords = []
        for zi, d in zip(z, self._diag):
            if d == 1:
                continue
            coords.append(zi % d if d > 1 else zi)
        return tuple(coords)

    def contains_class_zero(self, vec: Sequence[int]) -> bool:
        return all(c == 0 for c in self.reduce(vec))


def abgroup_from_subquotient(num_cols: Sequence[Sequence[int]],
                             den_cols: Sequence[Sequence[int]],
                             ambient_dim: int) -> AbGroupPresentation:
    """The group span(num)/span(den); den must lie inside span(num)."""
    basis = image_basis(from_columns(list(num_cols), ambient_dim)) if num_cols else []
    k = len(basis)
    if k == 0:
        return AbGroupPresentation(ambient_dim, (), (), (), (), ())
    x = solve_columns(basis, [list(c) for c in den_cols]) if den_cols else []
    xmat = from_columns(x, k) if x else zeros(k, 0)
    res = smith_normal_form(xmat, inverse=True)
    uinv = res.Uinv
    diag = list(res.diagonal) + [0] * (k - len(res.diagonal))
    basis_mat = from_columns(basis, ambient_dim)
    adapted = mat_mul(basis_mat, uinv)  # ambient vectors of adapted basis
    # SNF diagonal is already in divisibility order (1s, then larger
    # factors, then 0s for free summands)
    factors = []
    gens = []
    for i, d in enumerate(diag):
        if d == 1:
            continue
        factors.append(d)
        gens.append(tuple(adapted[r][i] for r in range(ambient_dim)))
    return AbGroupPresentation(
        ambient_dim,
        tuple(factors),
        tuple(gens),
        tuple(tuple(c) for c in basis),
        transpose(uinv),
        tuple(diag),
    )


def trivial_subquotient(basis_cols: Sequence[Sequence[int]],
                        ambient_dim: int) -> AbGroupPresentation:
    """The zero group span(basis)/span(basis) for linearly independent
    ``basis_cols``; its ``reduce`` still raises SolveError on a vector
    outside span(basis)."""
    k = len(basis_cols)
    return AbGroupPresentation(ambient_dim, (), (),
                               tuple(tuple(c) for c in basis_cols),
                               identity(k), (1,) * k)


@dataclass(frozen=True)
class TorsionCokernel:
    """Torsion subgroup of Z^m / span(A), read from U @ A @ V = D.

    In the coordinates y = U x the image of A is {y_i in d_i Z for
    i < rank, y_j = 0 for j >= rank} and its saturation drops the d_i, so
    the torsion is the sum of the Z/d_i with d_i > 1.  Generator i is
    U^{-1} e_i = (A @ V[:, i]) / d_i.  Same surface as
    AbGroupPresentation; every class has finite order.  (Cohomology
    builds one in other coordinates, with its own rows and generators.)
    """

    ambient_dim: int
    factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    # reduction rows as nonzero (column, entry) pairs: here the rows of U
    # at the factors > 1, then at the positions j >= rank
    _rows: tuple[tuple[tuple[int, int], ...], ...]
    # d_i for a coordinate row; 0 for a row whose value must vanish
    _moduli: tuple[int, ...]
    # more rows whose value must vanish, built by the first ``reduce``
    # and then appended to _rows
    _checks: Callable[[], Sequence[tuple[tuple[int, int], ...]]] | None = \
        field(default=None, compare=False, repr=False)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of the class of ``vec`` on the stored generators.

        Raises SolveError unless ``vec`` lies in the saturation of the
        image, i.e. unless some multiple of it is in span(A).
        """
        rows, moduli = self.reduction_rows()
        coords = []
        for row, d in zip(rows, moduli):
            y = sum(x * vec[j] for j, x in row)
            if d:
                coords.append(y % d)
            elif y:
                raise SolveError("vector is not in the saturated image")
        return tuple(coords)

    def contains_class_zero(self, vec: Sequence[int]) -> bool:
        return all(c == 0 for c in self.reduce(vec))

    def reduction_rows(self) -> tuple[tuple, tuple[int, ...]]:
        """Every reduction row with its modulus, the deferred rows of
        ``_checks`` included (built here once, then kept)."""
        if self._checks is not None:
            extra = tuple(self._checks())
            object.__setattr__(self, "_rows", self._rows + extra)
            object.__setattr__(self, "_moduli",
                               self._moduli + (0,) * len(extra))
            object.__setattr__(self, "_checks", None)
        return self._rows, self._moduli


def torsion_cokernel(a: Sequence[Sequence[int]]) -> TorsionCokernel:
    """The torsion subgroup of coker(a), with generators and reduction."""
    res = smith_normal_form(a)
    m, n = shape(a)
    diag = res.diagonal
    rank = res.rank
    keep = [i for i in range(rank) if diag[i] > 1]
    gens = []
    for i in keep:
        col = [res.V[j][i] for j in range(n)]
        d = diag[i]
        gens.append(tuple(sum(x * y for x, y in zip(row, col) if x) // d
                          for row in a))
    rows = [tuple((j, x) for j, x in enumerate(res.U[i]) if x)
            for i in keep + list(range(rank, m))]
    moduli = [diag[i] for i in keep] + [0] * (m - rank)
    return TorsionCokernel(m, tuple(diag[i] for i in keep), tuple(gens),
                           tuple(rows), tuple(moduli))


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
    proj = preimage(matrix, relation_columns(tgt_factors, len(tgt_factors)),
                    sc)
    src_rel = relation_columns(src_factors, sc)
    return abgroup_from_subquotient(proj + src_rel, src_rel, sc)


def hom_cokernel(matrix: Sequence[Sequence[int]],
                 tgt_factors: Sequence[int]) -> AbGroupPresentation:
    tr, _ = shape(matrix)
    tgt_rel = relation_columns(tgt_factors, tr)
    full = columns(identity(tr))
    return abgroup_from_subquotient(full, columns(matrix) + tgt_rel, tr)


"""Exact integer linear algebra: Smith normal form, kernels, images,
and subquotient presentations."""

import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_snf
from matvec import mat_vec
from galmod import intlinalg as la
from lattice_strategies import unimodular_matrices


def random_matrix(rng, rows, cols, bound=100):
    return la.freeze([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


def check_snf(a):
    res = la.smith_normal_form(a)
    rows, cols = la.shape(a)
    assert la.shape(res.U) == (rows, rows)
    assert la.shape(res.V) == (cols, cols)
    assert la.is_unimodular(res.U)
    assert la.is_unimodular(res.V)
    d = la.mat_mul(la.mat_mul(res.U, a), res.V)
    for i in range(rows):
        for j in range(cols):
            expected = res.D[i][j]
            assert d[i][j] == expected
            if i != j:
                assert expected == 0
    diag = res.diagonal
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0


def test_snf_small_cases():
    check_snf(la.freeze([[1, 0], [0, 1]]))
    check_snf(la.freeze([[2, 4], [6, 8]]))
    check_snf(la.freeze([[0, 0], [0, 0]]))
    check_snf(la.freeze([[6]]))
    check_snf(la.zeros(3, 0))
    check_snf(la.zeros(0, 0))


def test_snf_known_factors():
    res = la.smith_normal_form(la.freeze([[2, 0], [0, 3]]))
    assert res.invariant_factors == (1, 6)
    res = la.smith_normal_form(la.freeze([[2, 0], [0, 4]]))
    assert res.invariant_factors == (2, 4)


def test_snf_random_battery():
    rng = random.Random(12345)
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        check_snf(random_matrix(rng, rows, cols))


def snf_battery():
    """The random battery above, then near-diagonal matrices on which the
    divisibility-chain fix runs often."""
    rng = random.Random(12345)
    for _ in range(120):
        yield random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 5)
        yield la.freeze([[rng.choice([0, 0, 2, 3, 4, 6, -2, -3, 9])
                          if i == j or rng.random() < 0.2 else 0
                          for j in range(n)] for i in range(n)])


def test_snf_transforms_unchanged():
    """U, D and V on the battery hash to the value the earlier
    implementation gave, when the chain fix ran its own copy of the
    elimination loop; pivot order, and so every transform, is kept."""
    h = hashlib.sha256()
    for a in snf_battery():
        res = la.smith_normal_form(a)
        h.update(repr((res.U, res.D, res.V)).encode())
    assert h.hexdigest() == (
        "62b983c78a1e01dd5c3a576e867677dbe536b6bcaee3864fbef6a43bef328689")


@given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda m: len({len(r) for r in m}) == 1))
@settings(max_examples=60, deadline=None)
def test_snf_property(m):
    check_snf(la.freeze(m))


def _smith_dense(a, track_v=True, inverse=False):
    """``_smith`` on the rows of ``a``: the diagonal, and U, V and U^{-1}
    as dense matrices (None when not tracked)."""
    rows, cols = la.shape(a)
    diagonal, u, v, w = la._smith([dict(la._sparse(row)) for row in a],
                                  cols, track_v=track_v, inverse=inverse)
    return (tuple(diagonal), la.dense_rows(u, rows),
            None if v is None else
            la.transpose_shaped(la.dense_rows(v, cols), cols, cols),
            None if w is None else
            la.transpose_shaped(la.dense_rows(w, rows), rows, rows))


def check_snf_inverse(a):
    """The U^{-1} that ``_smith`` builds alongside U inverts it, and
    asking for it changes none of U, D and V; leaving V out changes none
    of U, D and U^{-1}.  ``smith_normal_form`` gives the same U, D and
    V."""
    diagonal, u, v, uinv = _smith_dense(a, inverse=True)
    plain = _smith_dense(a)
    assert plain[3] is None
    assert (diagonal, u, v) == plain[:3]
    res = la.smith_normal_form(a)
    assert (res.diagonal, res.U, res.V) == (diagonal, u, v)
    no_v = _smith_dense(a, track_v=False, inverse=True)
    assert no_v[2] is None
    assert (no_v[0], no_v[1], no_v[3]) == (diagonal, u, uinv)
    n = len(u)
    assert la.shape(uinv) == (n, n)
    assert la.mat_mul(u, uinv) == la.identity(n)
    assert la.mat_mul(uinv, u) == la.identity(n)


def test_snf_inverse_on_battery():
    for a in snf_battery():
        check_snf_inverse(a)
    check_snf_inverse(la.zeros(3, 0))
    check_snf_inverse(la.zeros(0, 0))


@given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=6),
                min_size=1, max_size=6).filter(
                    lambda m: len({len(r) for r in m}) == 1))
@settings(max_examples=60, deadline=None)
def test_snf_inverse_property(m):
    check_snf_inverse(la.freeze(m))


def _sparse_rows(draw, rows, cols):
    """A rows x cols list of lists, mostly zeros; no rows gives []."""
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mat_mul_is_sum_of_products(data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = _sparse_rows(data.draw, r, k)
    b = _sparse_rows(data.draw, k, c)
    if data.draw(st.booleans()):
        a, b = la.freeze(a), la.freeze(b)
    # the column count of b as the row-tuple form carries it: a k x 0
    # or 0 x c factor gives a zero product of the shape that survives
    cb = la.shape(b)[1]
    expected = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k))
                           for j in range(cb)) for i in range(r))
    assert la.mat_mul(a, b) == expected


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_mat_mul_shape_mismatch(r, k, k2, c):
    assume(k != k2)
    with pytest.raises(ValueError):
        la.mat_mul([[1] * k] * r, [[1] * c] * k2)


def test_mat_mul_empty_factors():
    assert la.mat_mul(la.zeros(2, 0), ()) == ((), ())
    assert la.mat_mul(la.zeros(2, 0), la.zeros(3, 4)) == la.zeros(2, 4)
    assert la.mat_mul((), la.zeros(3, 4)) == ()
    assert la.mat_mul(la.zeros(2, 3), la.zeros(3, 0)) == ((), ())


@st.composite
def shaped_matrices(draw):
    """Tall, wide and square matrices, mostly zeros and small entries
    with common factors, so that the divisibility-chain fix runs; a wide
    one has a row, since a matrix without rows cannot carry its width."""
    kind = draw(st.sampled_from(("tall", "wide", "square")))
    k = draw(st.integers(int(kind == "wide"), 6))
    extra = draw(st.integers(1, 8))
    rows, cols = {"tall": (k + extra, k), "wide": (k, k + extra),
                  "square": (k, k)}[kind]
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -9])
    return la.freeze([[draw(entry) for _ in range(cols)]
                      for _ in range(rows)])


@given(shaped_matrices(), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_sparse_smith_matches_dense_oracle(a, track_u, track_v, inverse):
    """The sparse-row kernel, for every choice of what it tracks, gives
    the dense oracle's D, U, V and U^{-1} entry for entry, and so does
    ``smith_normal_form`` built on it; U A V = D."""
    rows, cols = la.shape(a)
    want = dense_snf.smith_normal_form(a, inverse=True)
    diagonal, u, v, w = la._smith([dict(la._sparse(row)) for row in a],
                                  cols, track_u=track_u, track_v=track_v,
                                  inverse=inverse)
    assert tuple(diagonal) == want.diagonal
    assert (la.dense_rows(u, rows) if track_u else u) == \
        (want.U if track_u else None)
    assert (la.transpose_shaped(la.dense_rows(v, cols), cols, cols)
            if track_v else v) == (want.V if track_v else None)
    assert (la.transpose_shaped(la.dense_rows(w, rows), rows, rows)
            if inverse else w) == (want.Uinv if inverse else None)
    res = la.smith_normal_form(a)
    assert (res.U, res.D, res.V) == (want.U, want.D, want.V)
    assert la.mat_mul(la.mat_mul(res.U, a), want.V) == res.D


def _torsion_battery():
    """snf_battery() plus tall and rank-deficient matrices, so that both
    torsion rows and vanishing rows occur."""
    yield from snf_battery()
    rng = random.Random(77)
    for _ in range(40):
        rows, cols = rng.randint(2, 7), rng.randint(1, 4)
        base = random_matrix(rng, rows, cols, bound=6)
        scale = [rng.choice([1, 2, 3, 4]) for _ in range(cols)]
        yield la.freeze([[x * s for x, s in zip(row, scale)] for row in base])


def test_torsion_cokernel_reduce_on_sparse_rows():
    rng = random.Random(5)
    seen_torsion = seen_free = 0
    for a in _torsion_battery():
        m, n = la.shape(a)
        tc = la.torsion_cokernel(la.sparse_rows(a), n)
        assert all(x for row in tc._rows for x in row.values())
        # generator i reduces to the i-th unit vector
        for i, g in enumerate(tc.generators):
            assert tc.reduce(g) == tuple(int(j == i)
                                         for j in range(len(tc.factors)))
        # random vectors of the saturated image: A z plus generators
        res = la.smith_normal_form(a)
        rank = res.rank
        keep = [i for i in range(rank) if res.diagonal[i] > 1]
        for _ in range(5):
            z = [rng.randint(-5, 5) for _ in range(n)]
            vec = list(mat_vec(a, z))
            for g in tc.generators:
                c = rng.randint(-3, 3)
                vec = [x + c * y for x, y in zip(vec, g)]
            y = mat_vec(res.U, vec)
            assert all(y[j] == 0 for j in range(rank, m))
            assert tc.reduce(vec) == tuple(y[i] % res.diagonal[i]
                                           for i in keep)
        # a vector outside the Q-span of A
        if rank < m:
            seen_free += 1
            t = next(t for t in range(m) if la.smith_normal_form(
                la.hstack(a, [[int(i == t)] for i in range(m)])).rank > rank)
            with pytest.raises(la.SolveError):
                tc.reduce([int(i == t) for i in range(m)])
        seen_torsion += bool(tc.factors)
    assert seen_torsion and seen_free


def test_kernel_and_image():
    a = la.freeze([[1, 2, 3], [2, 4, 6]])
    for v in la.kernel_basis(a):
        assert all(x == 0 for x in mat_vec(a, v))
    img = la.ColumnSpan(la.columns(a)).basis(len(a))
    assert len(img) == 1
    b = la.freeze([[2, 4]])
    kb = la.kernel_basis(b)
    assert len(kb) == 1
    assert mat_vec(b, kb[0]) == (0,)


def test_kernel_is_saturated():
    # 2x = 0 over Z has kernel {0}; the rational kernel trap
    a = la.freeze([[2]])
    assert la.kernel_basis(a) == []
    a = la.freeze([[2, 2]])
    kb = la.kernel_basis(a)
    assert len(kb) == 1
    assert kb[0] in ([1, -1], [-1, 1])


def test_preimage():
    """{x : a x in span(rel)} is the kernel of [a | rel], recorded on the
    coordinates of a."""
    def preimage(a, rel_cols, n):
        return la.ColumnSpan(la.columns(a, n) + rel_cols, track=n).kernel()

    # {x : 2x in span(4)} = 2Z, {x : 2x = 0} = 0
    assert preimage(la.freeze([[2]]), [[4]], 1) in ([[2]], [[-2]])
    assert preimage(la.freeze([[2]]), [], 1) == []
    # a matrix with no rows maps everything into Z^0
    assert la.ColumnSpan(la.columns((), 2), track=2).kernel() == \
        [[1, 0], [0, 1]]
    a = la.freeze([[1, 1, 0], [0, 2, 2]])
    for x in preimage(a, [[0, 4]], 3):
        y = mat_vec(a, x)
        assert y[0] == 0 and y[1] % 4 == 0


def test_solve_columns():
    basis = [[2, 0], [0, 3]]
    sols = la.solve_columns(basis, [[4, 3]])
    assert sols == [[2, 1]]
    with pytest.raises(la.SolveError):
        la.solve_columns(basis, [[1, 0]])
    # the coefficients are unique only on independent columns
    with pytest.raises(ValueError):
        la.solve_columns([[1, 0], [2, 0]], [[1, 0]])
    # a sparse right-hand side, and columns given as {row: entry}
    span = la.ColumnSpan([{0: 2}, {1: 3}], track=2)
    assert span.solve({0: 4, 1: 3}) == [2, 1]
    assert span.basis(2) == [[2, 0], [0, 3]]


def test_subquotient_presentations():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    pres = la.abgroup_from_subquotient(
        la.columns(la.identity(2)), [[2, 0], [0, 3]], 2)
    assert pres.factors == (6,)
    # span{(2,0),(0,1)} / span{(4,0)} = Z/2 + Z
    pres = la.abgroup_from_subquotient([[2, 0], [0, 1]], [[4, 0]], 2)
    assert pres.factors == (2, 0)
    assert pres.order is None


def test_presentation_reduce():
    pres = la.abgroup_from_subquotient(
        la.columns(la.identity(1)), [[5]], 1)
    assert pres.factors == (5,)
    assert pres.reduce([7]) == pres.reduce([2])
    assert pres.reduce([10]) == (0,)
    assert pres.reduce([3]) != (0,)


def test_empty_span_reduce_refuses_nonzero_vectors():
    """span(num) = 0: only the zero vector has a class."""
    pres = la.abgroup_from_subquotient([], [], 3)
    assert pres.is_trivial and pres.reduce([0, 0, 0]) == ()
    with pytest.raises(la.SolveError):
        pres.reduce([1, 0, 0])


_sparse_vectors = st.dictionaries(st.integers(0, 7),
                                  st.integers(-4, 4).filter(bool), max_size=8)


@given(_sparse_vectors, _sparse_vectors, st.integers(-3, 3).filter(bool))
@settings(max_examples=300, deadline=None)
def test_axpys_match_the_dense_update(dst, src, k):
    """Both sparse axpys leave the dense dst + k src, with no zero entry;
    ``_axpy_indexed`` also keeps ``key`` in index[j] exactly where dst
    has an entry, and leaves every other key where it was."""
    want = [dst.get(j, 0) + k * src.get(j, 0) for j in range(8)]
    key, other = "b", "c"
    index = [{key, other} if j in dst else {other} for j in range(8)]
    plain, indexed = dict(dst), dict(dst)
    la._axpy(plain, src, k)
    la._axpy_indexed(indexed, src, k, index, key)
    for out in (plain, indexed):
        assert [out.get(j, 0) for j in range(8)] == want
        assert 0 not in out.values()
    assert [key in keys for keys in index] == [j in indexed for j in range(8)]
    assert all(other in keys for keys in index)


def _snf_unimodular(a):
    rows, cols = la.shape(a)
    res = la.smith_normal_form(a)
    return rows == cols and res.rank == rows \
        and all(d == 1 for d in res.invariant_factors)


def _snf_in_span(rel, vec):
    """Membership in the column span of ``rel`` by its Smith form: with
    U rel V = D, the coordinates U vec must be multiples of the d_i up to
    the rank and zero after it."""
    res = la.smith_normal_form(rel)
    z = mat_vec(res.U, vec)
    d = res.diagonal
    return all(z[i] % d[i] == 0 if i < res.rank else z[i] == 0
               for i in range(len(z)))


@given(st.integers(0, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_is_unimodular_matches_smith_form(n, data):
    """Products of elementary operations are unimodular; with one entry
    moved, the echelon test agrees with the Smith form."""
    u = data.draw(unimodular_matrices(n))
    assert la.is_unimodular(u)
    if n:
        m = [list(row) for row in u]
        i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        m[i][j] += data.draw(st.integers(-3, 3).filter(bool))
        assert la.is_unimodular(m) == _snf_unimodular(m)
    if n > 1:
        assert not la.is_unimodular(u[1:])


@st.composite
def _span_questions(draw):
    """(cols, n): columns with entries from -4 to 4 and rows below n.
    They start from a row-permuted triangular matrix with ±1 on its
    diagonal, so that many of them span Z^n, plus random columns; then
    maybe a repeated column, an empty one, a row that no column meets or
    one whose entries are all even, and a column dropped.  Each column
    is dense or {row: entry}."""
    n = draw(st.integers(0, 6))
    entries = st.integers(-4, 4)
    cols = []
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        for j in range(n):
            col = [0] * n
            col[order[j]] = draw(st.sampled_from([1, -1]))
            for i in range(j + 1, n):
                col[order[i]] = draw(entries)
            cols.append(col)
    cols += draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                          max_size=3))
    if cols and draw(st.booleans()):
        cols.append(list(draw(st.sampled_from(cols))))
    if draw(st.booleans()):
        cols.append([0] * n)
    if n and cols and draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        even = st.sampled_from([0] * 4 + [-4, -2, 2, 4])
        for col in cols:
            col[r] = draw(even) if draw(st.booleans()) else 0
    if cols and draw(st.booleans()):
        del cols[draw(st.integers(0, len(cols) - 1))]
    cols = draw(st.permutations(cols))
    return [la._sparse(c) if draw(st.booleans()) else c for c in cols], n


@given(_span_questions())
@settings(max_examples=400, deadline=None)
def test_spans_matches_the_column_echelon(question):
    """``spans``, which freezes rows in a fill-reducing order, answers as
    the echelon ``ColumnSpan(cols).spans(n)`` does, and leaves its input
    as it was."""
    cols, n = question
    given_cols = [dict(c) if isinstance(c, dict) else list(c) for c in cols]
    assert la.spans(cols, n) == la.ColumnSpan(cols).spans(n)
    assert cols == given_cols


def test_spans_refuses_a_pivot_of_two_and_a_row_left_empty():
    """The two exits of ``spans``: a last pivot of ±2, and a row that
    elimination leaves with no column (a repeated column, cleared by its
    twin), besides a row that no column meets to begin with; and a row
    past n."""
    assert la.spans([[2, 1], [1, 1]], 2)
    assert la.spans([{1: -1}, {0: 1, 1: 3}], 2)
    assert not la.spans([[2, 0], [0, 1]], 2)
    assert not la.spans([[2, 0], [0, 1], [0, 3]], 2)
    assert not la.spans([{0: -2}, {0: 4}], 1)
    assert not la.spans([{0: 1, 1: 1}, {0: 1, 1: 1}], 2)
    assert not la.spans([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1]], 3)
    assert not la.spans([[1, 0], [1, 0]], 2)
    assert not la.spans([{0: 1, 2: 1}, {1: 1}], 2)
    assert la.spans([], 0) and la.spans([[]], 0)
    assert not la.spans([], 1)


@given(st.integers(0, 4), st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_both_span_faces_refuse_columns_reaching_past_n(n, extra, data):
    """Columns with an entry in a row at or past n are not in Z^n, so
    neither face says they span it: ``ColumnSpan([{0: 1, 1: 1}])
    .spans(1)`` is False as ``spans`` is.  Drawn: n unit columns with
    noise below the diagonal and a few more columns, all zero past row
    n - 1, which span Z^n, and one column, put among them, with a
    nonzero entry in a row from n to n + extra - 1; dense or {row:
    entry}."""
    assert not la.ColumnSpan([{0: 1, 1: 1}]).spans(1)
    assert not la.ColumnSpan([[1, 1]]).spans(1)
    height = n + extra

    def column(entries):
        return entries + [0] * (height - len(entries))

    cols = [column([int(i == j) + (i > j) * data.draw(st.integers(-2, 2))
                    for i in range(n)]) for j in range(n)]
    for _ in range(data.draw(st.integers(0, 2))):
        cols.append(column([data.draw(st.integers(-2, 2))
                            for _ in range(n)]))
    reach = [data.draw(st.integers(-2, 2)) for _ in range(height)]
    reach[data.draw(st.integers(n, height - 1))] = data.draw(
        st.sampled_from([-2, -1, 1, 2]))
    at = data.draw(st.integers(0, len(cols)))
    cols.insert(at, reach)
    if data.draw(st.booleans()):
        cols = [{i: x for i, x in enumerate(c) if x} for c in cols]
    assert not la.spans(cols, n)
    assert not la.ColumnSpan(cols).spans(n)
    short = cols[:at] + cols[at + 1:]
    assert la.spans(short, n) and la.ColumnSpan(short).spans(n)


@given(st.integers(1, 5), st.integers(0, 5), st.data())
@settings(max_examples=120, deadline=None)
def test_in_relation_span_matches_smith_form(m, k, data):
    rel = _sparse_rows(data.draw, m, k)
    cols = []
    for _ in range(data.draw(st.integers(1, 3))):
        x = [data.draw(st.integers(-3, 3)) for _ in range(k)]
        noise = [data.draw(st.sampled_from([0, 0, 1, -1, 2]))
                 for _ in range(m)]
        cols.append([a + b for a, b in zip(mat_vec(rel, x), noise)])
    want = [_snf_in_span(rel, c) for c in cols]
    span = la.ColumnSpan(la.columns(rel))
    for c, w in zip(cols, want):
        assert span.contains([c]) == w
    assert span.contains(cols) == all(want)


def _two_solve_reduce(num, den, dim, vec):
    """The earlier ``reduce``: coordinates y on an image basis of num by
    one solve, then z with U^{-1} z = y by a second."""
    basis = la.ColumnSpan(num).basis(dim)
    if not basis:
        return ()
    k = len(basis)
    x = la.solve_columns(basis, den) if den else []
    diagonal, _, _, uinv = _smith_dense(
        la.from_columns(x, k) if x else la.zeros(k, 0), inverse=True)
    diag = list(diagonal) + [0] * (k - len(diagonal))
    y = la.solve_columns(basis, [vec])[0]
    z = la.solve_columns(la.columns(uinv), [y])[0]
    return tuple(zi % d if d else zi for zi, d in zip(z, diag) if d != 1)


def _smith_route(num, den, dim):
    """The earlier ``abgroup_from_subquotient``, which ran the Smith form
    also when den spans span(num): the fields of its presentation."""
    span = la.ColumnSpan(num)
    echelon = span.echelon
    k = len(echelon)
    x = [la._along(echelon, c) for c in den]
    if not k:
        return (dim, (), (), (), echelon, ())
    diagonal, u, _, uinv = _smith_dense(
        la.from_columns(x, k) if x else la.zeros(k, 0), inverse=True)
    diag = list(diagonal) + [0] * (k - len(diagonal))
    adapted = la.mat_mul(la.from_columns(span.basis(dim), dim), uinv)
    keep = [i for i, d in enumerate(diag) if d != 1]
    return (dim, tuple(diag[i] for i in keep),
            tuple(tuple(adapted[r][i] for r in range(dim)) for i in keep),
            tuple(la._sparse(u[i]) for i in keep), echelon, ())


@given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 4),
       st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_subquotient_reduce_matches_two_solve_route(dim, k, j, spans, data):
    """On random span(num)/span(den), where den spans span(num) when
    ``spans`` holds and mostly does not otherwise: the presentation is
    field for field the Smith route's, ``reduce`` agrees with the
    two-solve route on vectors of span(num) and raises off it, generator
    i reduces to e_i and every den column to 0."""
    def draw_vec(n, bound):
        return [data.draw(st.integers(-bound, bound)) for _ in range(n)]

    num = [draw_vec(dim, 4) for _ in range(k)]
    num_mat = la.from_columns(num, dim)
    den = [list(mat_vec(num_mat, draw_vec(k, 3))) for _ in range(j)]
    if spans:
        den = [[a - b for a, b in zip(c, d)] for c, d in zip(num, den)] \
            + num[len(den):] + den
    pres = la.abgroup_from_subquotient(num, den, dim)
    assert (pres.ambient_dim, pres.factors, pres.generators, pres._rows,
            pres._basis, pres._checks) == _smith_route(num, den, dim)
    if spans:
        assert pres.is_trivial
    f = len(pres.factors)
    for i, g in enumerate(pres.generators):
        assert pres.reduce(g) == tuple(int(t == i) for t in range(f))
    for c in den:
        assert not any(pres.reduce(c))
    for _ in range(3):
        vec = list(mat_vec(num_mat, draw_vec(k, 5)))
        assert pres.reduce(vec) == _two_solve_reduce(num, den, dim, vec)
    off = draw_vec(dim, 2)
    if num and _snf_in_span(num_mat, off):
        assert pres.reduce(off) == _two_solve_reduce(num, den, dim, off)
    elif any(off):
        with pytest.raises(la.SolveError):
            pres.reduce(off)


def test_hom_kernel_cokernel():
    # multiplication by 2: Z/4 -> Z/4, kernel and cokernel both Z/2
    m = la.freeze([[2]])
    ker = la.hom_kernel(m, (4,), (4,))
    cok = la.hom_cokernel(m, (4,))
    assert ker.factors == (2,)
    assert cok.factors == (2,)
    # maps into the zero group have no matrix rows; all is kernel
    assert la.hom_kernel((), (0,), ()).factors == (0,)
    assert la.hom_kernel((), (3, 0), ()).factors == (3, 0)


def test_unimodular_inverse():
    u = la.freeze([[1, 1], [1, 2]])
    ui = la.mat_inverse_unimodular(u)
    assert la.mat_mul(u, ui) == la.identity(2)


@given(st.integers(0, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_unimodular_inverse_matches_smith_route(n, data):
    """The inverse solved on one echelon is V U from the Smith form (the
    route it replaced); with one entry moved, a matrix that is not
    unimodular is refused, and so is a matrix that is not square."""
    u = data.draw(unimodular_matrices(n))
    res = la.smith_normal_form(u)
    assert la.mat_inverse_unimodular(u) == la.mat_mul(res.V, res.U)
    if n:
        m = [list(row) for row in u]
        i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        m[i][j] += data.draw(st.integers(-3, 3).filter(bool))
        if _snf_unimodular(m):
            res = la.smith_normal_form(m)
            assert la.mat_inverse_unimodular(m) == la.mat_mul(res.V, res.U)
        else:
            with pytest.raises(ValueError):
                la.mat_inverse_unimodular(m)
    if n > 1:
        with pytest.raises(ValueError):
            la.mat_inverse_unimodular(u[1:])


def test_transpose_shaped_keeps_empty_rows():
    m = la.zeros(0, 3)  # 0x3 collapses to () when transposed naively
    t = la.transpose_shaped(m, 3, 0)
    assert la.shape(t) == (3, 0)

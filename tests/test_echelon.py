"""The column echelon, ``_along``, ``rows_mul``, the subquotient
presentation and the matrix conversions, compared entry for entry (and
dict for dict, in insertion order) with the Python versions kept in
``echelon_oracle``."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echelon_oracle as oracle
from galmod import intlinalg as la

ENTRIES = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9])


@st.composite
def column_lists(draw, max_rows=7, max_cols=8):
    """Columns of one length, mostly zeros, with small entries that share
    factors, so that rows need several rounds and kernels occur."""
    rows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    return [[draw(ENTRIES) for _ in range(rows)] for _ in range(ncols)]


def _ordered(echelon, combos, kernel):
    """An echelon result with every dict as its list of items, so that
    the comparison also sees insertion order."""
    return ([(r, list(c.items())) for r, c in echelon],
            [list(c.items()) for c in combos],
            [list(c.items()) for c in kernel])


@given(column_lists(), st.data())
@settings(max_examples=300, deadline=None)
def test_echelon_matches_oracle(cols, data):
    """Pivots, echelon columns, combinations and kernel, with ``track``
    0, partial and full, from dense columns and from {row: entry}, as
    ``ColumnSpan`` keeps them; it leaves {row: entry} input as it was."""
    n = len(cols)
    track = data.draw(st.sampled_from(sorted({0, n // 2, n})))
    want = _ordered(*oracle.column_echelon(cols, track))
    sp = [{i: x for i, x in enumerate(c) if x} for c in cols]
    for given_cols in (cols, sp):
        span = la.ColumnSpan(given_cols, track)
        assert _ordered(span.echelon, span._combos,
                        span.sparse_kernel()) == want
    assert sp == [{i: x for i, x in enumerate(c) if x} for c in cols]
    assert _ordered(*la._sparse_echelon(copy.deepcopy(sp), track)) == \
        _ordered(*oracle.sparse_echelon(copy.deepcopy(sp), track)) == want


@given(column_lists(), st.data())
@settings(max_examples=300, deadline=None)
def test_along_matches_oracle(cols, data):
    """Members (integer combinations of the columns) and vectors that are
    not members, dense and as {index: entry}."""
    rows = len(cols[0]) if cols else data.draw(st.integers(0, 4))
    echelon = la.ColumnSpan(cols).echelon
    coeffs = [data.draw(st.integers(-3, 3)) for _ in cols]
    member = [sum(c * col[i] for c, col in zip(coeffs, cols))
              for i in range(rows)]
    other = [data.draw(ENTRIES) for _ in range(rows)]
    for vec in (member, other, [x + y for x, y in zip(member, other)]):
        want = oracle.along(echelon, vec)
        assert la._along(echelon, vec) == want
        assert la._along(echelon, {i: x for i, x in enumerate(vec) if x}) \
            == want
    assert la._along(echelon, member) is not None


@st.composite
def sparse_row_products(draw):
    """(a, b) as sparse rows: the rows of a are empty, monomial with
    entry +-1 or +-k, or general."""
    k, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    b = tuple(la._sparse([draw(ENTRIES) for _ in range(c)])
              for _ in range(k))
    a = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["empty", "unit", "scaled", "general"]))
        if kind == "empty" or not k:
            a.append(())
        elif kind == "general":
            a.append(la._sparse([draw(ENTRIES) for _ in range(k)]))
        else:
            x = draw(st.sampled_from([1, -1] if kind == "unit"
                                     else [2, -2, 3, -5]))
            a.append(((draw(st.integers(0, k - 1)), x),))
    return tuple(a), b


@given(sparse_row_products())
@settings(max_examples=300, deadline=None)
def test_rows_mul_matches_oracle(ab):
    a, b = ab
    assert la.rows_mul(a, b) == oracle.rows_mul(a, b)


def test_rows_mul_monomial_rows():
    b = (((0, 2), (2, -1)), (), ((1, 3),))
    a = (((0, 1),), ((0, -1),), ((2, 4),), ((1, -3),), ((0, 1), (2, 1)), ())
    assert la.rows_mul(a, b) == oracle.rows_mul(a, b) == (
        ((0, 2), (2, -1)), ((0, -2), (2, 1)), ((1, 12),), (),
        ((0, 2), (1, 3), (2, -1)), ())


@given(column_lists(max_rows=5, max_cols=5), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_subquotient_matches_oracle(num, j, data):
    """Factors, generators and rows of span(num)/span(den), den a few
    integer combinations of num, against a dense U and U^{-1}."""
    dim = len(num[0]) if num else 0
    coeffs = [[data.draw(st.integers(-3, 3)) for _ in num] for _ in range(j)]
    den = [[sum(c * col[i] for c, col in zip(cs, num)) for i in range(dim)]
           for cs in coeffs]
    got = la.abgroup_from_subquotient(num, den, dim)
    assert (got.factors, got.generators, got._rows) == \
        oracle.subquotient_parts(num, den, dim)


SHAPES = [(), ((),), ((), (), ()), ((1, -2, 0),), ((0,), (3,)),
          ((1, 0, 2), (0, 0, 0), (-4, 5, 6)), ((0, 0), (0, 0))]


@pytest.mark.parametrize("m", SHAPES)
def test_conversions_match_oracle(m):
    """Empty, 0-column and 0-row shapes included."""
    assert la.transpose(m) == oracle.transpose(m)
    assert la.columns(m) == oracle.columns(m)
    cols = oracle.columns(m)
    assert la.from_columns(cols) == oracle.from_columns(cols)
    assert la.from_columns(cols, len(m)) == oracle.from_columns(cols, len(m))
    assert la.freeze([list(row) for row in m]) == oracle.freeze(m)
    assert la.block_diag(m, ((7,),), m) == oracle.block_diag(m, ((7,),), m)
    assert la.sparse_rows(m) == tuple(map(oracle.sparse, m))
    for row in m:
        assert la._sparse(row) == oracle.sparse(row)
    # 0 x 3, which only a list of columns can carry
    assert la.from_columns([[], [], []], 0) == \
        oracle.from_columns([[], [], []], 0) == ()


def test_ragged_matrices_raise():
    """A ragged matrix was cut to its shortest row in one order and
    raised IndexError in the other; both now raise ValueError, also in
    sums, products and side-by-side stacks."""
    for ragged in ([[1], [2, 3]], [[2, 3], [1]]):
        for convert in (la.from_columns, la.transpose, la.columns):
            with pytest.raises(ValueError):
                convert(ragged)
        with pytest.raises(ValueError):
            la.mat_add(ragged, [[1], [2]])
        with pytest.raises(ValueError):
            la.hstack(ragged, [[4], [5]])
        with pytest.raises(ValueError):
            la.mat_mul([[1, 1]], ragged)
    with pytest.raises(ValueError):
        la.hstack([[], [1]], [[4], [5]])
    with pytest.raises(ValueError):
        la.hstack([[1], [2]], [[4], [5], [6]])

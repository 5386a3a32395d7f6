"""G-lattices, duality, induction, and finitely generated modules."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from echelon_oracle import block_diag
from lattice_strategies import S4_LATTICES, s4_lattices, small_lattices, \
    unimodular_matrices

from galmod import fixtures
from galmod import intlinalg as la
from galmod.cohomology import group_cohomology
from galmod.groups import (coset_action, cyclic_group, dihedral_group_4,
                           enumerate_subgroups, group_from_table, subgroup,
                           symmetric_group_3, trivial_subgroup,
                           whole_subgroup)
from galmod.lattice import (EquivarianceError, FgModule, GLattice,
                            LatticeMap, conjugate_lattice, direct_sum,
                            dual_lattice, dual_map, fixed_points, induce,
                            induced_action_on_sublattice,
                            make_permutation_lattice,
                            regular_lattice, restrict_lattice,
                            sign_lattice, trivial_lattice, zero_lattice)


def test_lattice_validation():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    sign.validate()
    with pytest.raises(Exception):
        GLattice(z2, 1, (((2,),),)).validate()  # not unimodular


def test_ragged_matrices_are_refused():
    """Every row of a matrix is read: an action or map matrix with one
    row of another length is refused when it is built, as
    ``serialize.load_lattice`` refuses it when it is loaded; a module
    refuses ragged relations and a ragged action when it is built."""
    z2 = cyclic_group(2)
    t = trivial_lattice(z2, 2)
    for bad in (((0, 1), (1,)), ((0, 1), (1, 0, 1))):
        with pytest.raises(ValueError, match="wrong shape"):
            GLattice(z2, 2, (bad,))
        with pytest.raises(ValueError, match="wrong shape"):
            LatticeMap(t, t, bad)
        with pytest.raises(ValueError, match="wrong shape"):
            FgModule(z2, 2, ((), ()), (bad,)).validate()
        with pytest.raises(ValueError, match="wrong shape"):
            FgModule(z2, 2, bad, (la.identity(2),))


def test_module_refuses_a_ragged_action_when_built():
    """A module's action is checked, and read into sparse rows, when the
    module is built: no ``validate`` call is needed to refuse it."""
    z2 = cyclic_group(2)
    for bad in (((0, 1), (1,)), ((0, 1), (1, 0, 1)), ((0, 1),)):
        with pytest.raises(ValueError, match="wrong shape"):
            FgModule(z2, 2, ((), ()), (bad,))
    with pytest.raises(ValueError, match="one action matrix per generator"):
        FgModule(z2, 2, ((), ()), ())


def test_from_rows_refuses_a_column_outside_the_rank():
    """A sparse action row that names a column outside 0..rank-1 is
    refused when the lattice is built, before ``validate`` or ``action``
    could index with it; an empty row is a row, so it is accepted, and
    then ``validate`` refuses the action as not unimodular."""
    z2 = cyclic_group(2)
    for rows in ((({1: 1}, {5: 1}),), (({1: 1}, {0: 1, 2: 1}),),
                 (({-1: 1}, {0: 1}),)):
        with pytest.raises(ValueError, match="outside 0..1"):
            GLattice.from_rows(z2, 2, rows)
    with pytest.raises(ValueError, match="outside 0..0"):
        GLattice.from_rows(z2, 1, (({1: -1},),))
    assert GLattice.from_rows(z2, 0, ((),)).action == ((),)
    swap = GLattice.from_rows(z2, 2, (({1: 1}, {0: 1}),))
    swap.validate()
    assert swap.action == (((0, 1), (1, 0)),)
    hollow = GLattice.from_rows(z2, 2, (({}, {1: 1}),))
    with pytest.raises(EquivarianceError, match="not unimodular"):
        hollow.validate()
    assert hollow.action == (((0, 0), (0, 1)),)


def test_module_from_rows_shares_the_lattice_row_checks():
    """``FgModule.from_rows`` refuses what ``GLattice.from_rows`` refuses,
    with the same messages, and a relation matrix of the wrong shape as
    ``FgModule`` does; the rows it keeps are the ones it was given."""
    z2 = cyclic_group(2)
    with pytest.raises(ValueError, match="outside 0..1"):
        FgModule.from_rows(z2, 2, ((), ()), (({1: 1}, {5: 1}),))
    with pytest.raises(ValueError, match="one rank x rank action matrix"):
        FgModule.from_rows(z2, 2, ((), ()), ())
    with pytest.raises(ValueError, match="relations matrix has wrong shape"):
        FgModule.from_rows(z2, 2, ((2,),), (({1: 1}, {0: 1}),))
    rows = (({1: 1}, {0: 1}),)
    m = FgModule.from_rows(z2, 2, ((2,), (2,)), rows)
    assert m.action_rows() is rows and "action" not in vars(m)
    m.validate()
    assert m.invariant_factors == (2, 0)


def _respects_full_table(lat: GLattice) -> bool:
    """The exhaustive check M(a) M(b) = M(ab) over all pairs."""
    mats = lat.element_matrices()
    g = lat.group
    return all(la.mat_mul(mats[a], mats[b]) == mats[g.mul(a, b)]
               for a in g.elements() for b in g.elements())


def test_validate_on_generators_matches_full_table():
    s3 = symmetric_group_3()
    lats = list(fixtures.lattice_catalog().values()) + [
        GLattice(cyclic_group(3), 2, (((0, 1), (1, 0)),)),
        GLattice(cyclic_group(2), 1, (((3,),),)),
        GLattice(s3, 1, (((-1,),), ((-1,),))),  # (1 2 3) of order 3
        # a rotation of order 4 for the reflection generator of D4; only
        # products with the second generator expose it
        GLattice(dihedral_group_4(), 2,
                 (la.identity(2), ((0, -1), (1, 0)))),
    ]
    verdicts = []
    for lat in lats:
        try:
            lat.validate()
            ok = True
        except EquivarianceError:
            ok = False
        assert ok == _respects_full_table(lat)
        verdicts.append(ok)
    assert verdicts.count(False) == 4


def test_validate_checks_repeated_and_identity_generators():
    """A generator listed twice, or the identity listed as a generator,
    labels an edge off the tree, so its matrix is still checked."""
    z2 = cyclic_group(2)
    twice = group_from_table(z2.table, [1, 1])
    GLattice(twice, 1, (((-1,),), ((-1,),))).validate()
    with pytest.raises(EquivarianceError):
        GLattice(twice, 1, (((-1,),), ((1,),))).validate()
    with_identity = group_from_table(z2.table, [1, 0])
    GLattice(with_identity, 1, (((-1,),), ((1,),))).validate()
    with pytest.raises(EquivarianceError):
        GLattice(with_identity, 1, (((-1,),), ((-1,),))).validate()


def _dense_equivariant(f: LatticeMap) -> bool:
    """The check on dense products: M'(s) f = f M(s) per generator."""
    return all(la.mat_mul(mt, f.matrix) == la.mat_mul(f.matrix, ms)
               for ms, mt in zip(f.source.action, f.target.action))


def test_map_validation_matches_dense_products():
    """Every map with entries in {-1, 0, 1} between lattices of rank 0 to
    2 over Z2 and S3 is refused exactly when the dense products differ."""
    z2, s3 = cyclic_group(2), symmetric_group_3()
    a3 = next(h for h in enumerate_subgroups(s3)[0] if h.order == 3)
    verdicts = []
    for lats in ([zero_lattice(z2), trivial_lattice(z2),
                  sign_lattice(z2, [-1]), regular_lattice(z2)],
                 [trivial_lattice(s3), sign_lattice(s3, [-1, 1]),
                  make_permutation_lattice(s3, [a3])]):
        for src in lats:
            for tgt in lats:
                r, c = tgt.rank, src.rank
                for vals in itertools.product((-1, 0, 1), repeat=r * c):
                    f = LatticeMap(src, tgt, tuple(
                        tuple(vals[i * c:(i + 1) * c]) for i in range(r)))
                    try:
                        f.validate()
                        ok = True
                    except EquivarianceError:
                        ok = False
                    assert ok == _dense_equivariant(f)
                    verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_permutation_lattice_is_certified():
    s3 = symmetric_group_3()
    a3 = next(h for h in enumerate_subgroups(s3)[0] if h.order == 3)
    lat = make_permutation_lattice(s3, [a3])
    lat.validate()
    assert lat.rank == 2
    assert lat.is_permutation_certified
    for m in lat.element_matrices():
        assert all(sum(row) == 1 for row in m)


PERMUTATION_CATALOG = ("z2-trivial", "z2-regular", "z3-regular",
                       "z4-regular", "z4-coset2", "v4-regular", "v4-coset",
                       "s3-coset", "s3-regular", "z6-coset", "z12-coset6")


@pytest.mark.parametrize("name", PERMUTATION_CATALOG + (
    "sign", "v4-character", "s3-sign"))
def test_permutation_property_is_read_off_the_rows(name):
    """A lattice is a permutation lattice exactly when every generator
    permutes its basis: the coset lattices of the catalog and Z = Z[G/G]
    are, the sign characters are not, and a matrix -1 is not, whatever
    built it."""
    lat = fixtures.lattice_catalog()[name]
    assert lat.is_permutation_certified == (name in PERMUTATION_CATALOG)
    copy = GLattice(lat.group, lat.rank, lat.action)
    assert copy.is_permutation_certified == lat.is_permutation_certified
    assert not GLattice(cyclic_group(2), 1, (((-1,),),)) \
        .is_permutation_certified


def test_dense_action_is_a_view_built_on_first_read():
    """A lattice or module built from dense matrices keeps only their
    sparse rows; ``action`` is read off them on first read and equals
    the input."""
    d4 = dihedral_group_4()
    regular = regular_lattice(d4).action
    swap = fixtures.lattice_catalog()["z4-coset2"].action
    for make, mats in (
            (lambda m: GLattice(d4, 8, m), regular),
            (lambda m: FgModule(d4, 8, la.zeros(8, 0), m), regular),
            (lambda m: FgModule(cyclic_group(4), 2, ((2, 0), (0, 2)), m),
             swap)):
        obj = make(mats)
        assert "action" not in vars(obj)
        assert obj.action_rows() == tuple(map(la.sparse_rows, mats))
        assert obj.action == mats
        assert "action" in vars(obj)


def test_regular_lattice_rank():
    g = cyclic_group(4)
    assert regular_lattice(g).rank == 4


def test_dual_involution():
    s3 = symmetric_group_3()
    lat = make_permutation_lattice(s3, [subgroup(s3, (0, 1))])
    dd = dual_lattice(dual_lattice(lat))
    assert dd.action == lat.action


def _dual_by_inversion(lat: GLattice):
    """The contragredient action by inverting each generator matrix."""
    return tuple(la.transpose(la.mat_inverse_unimodular(m)) if lat.rank
                 else m for m in lat.action)


def test_dual_lattice_matches_inversion():
    for lat in fixtures.lattice_catalog().values():
        assert dual_lattice(lat).action == _dual_by_inversion(lat)


@given(small_lattices())
@settings(max_examples=30, deadline=None)
def test_dual_lattice_matches_inversion_property(lat):
    assert dual_lattice(lat).action == _dual_by_inversion(lat)


@given(small_lattices())
@settings(max_examples=15, deadline=None)
def test_double_dual_has_same_cohomology(lat):
    dd = dual_lattice(dual_lattice(lat))
    for h in enumerate_subgroups(lat.group)[0]:
        for n in (1, 2):
            assert group_cohomology(h, dd, n).invariant_factors == \
                group_cohomology(h, lat, n).invariant_factors


def test_dual_of_permutation_is_itself():
    # permutation matrices are orthogonal, so the contragredient action
    # is the same permutation action
    g = cyclic_group(3)
    lat = regular_lattice(g)
    assert dual_lattice(lat).action == lat.action


def test_dual_map_reverses_and_involutes():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    reg = regular_lattice(z2)
    f = LatticeMap(sign, reg, ((1,), (-1,)))
    f.validate()
    fd = dual_map(f)
    fd.validate()
    assert fd.source.rank == reg.rank and fd.target.rank == sign.rank
    fdd = dual_map(fd)
    assert fdd.matrix == f.matrix


def test_duality_exactness_property():
    # dualizing a short exact sequence of lattices keeps compositions
    # zero and ranks complementary: Z --norm--> Z[Z/2] --(1,-1)--> Z_sign
    z2 = cyclic_group(2)
    reg = regular_lattice(z2)
    sign = sign_lattice(z2, [-1])
    triv = trivial_lattice(z2)
    inc = LatticeMap(triv, reg, ((1,), (1,)))
    quo = LatticeMap(reg, sign, ((1, -1),))
    inc.validate()
    quo.validate()
    assert la.is_zero(la.mat_mul(quo.matrix, inc.matrix))
    dq, di = dual_map(quo), dual_map(inc)
    assert la.is_zero(la.mat_mul(di.matrix, dq.matrix))
    assert len(la.kernel_basis(di.matrix)) == len(
        la.ColumnSpan(la.columns(dq.matrix)).basis(len(dq.matrix)))


def test_module_relations_need_one_row_per_generator():
    """A relation matrix with no columns still has a row per generator,
    so ``invariant_factors`` counts every free summand."""
    z2 = cyclic_group(2)
    with pytest.raises(ValueError):
        FgModule(z2, 2, (), (la.identity(2),))
    assert FgModule(z2, 2, la.zeros(2, 0),
                    (la.identity(2),)).invariant_factors == (0, 0)


def test_lattice_map_refuses_lattices_over_different_groups():
    """A map from a Z2-lattice to a Z4-lattice is refused, so no two-term
    complex pairs them (its hypercohomology would read Z4's element
    matrices for Z2's elements); a group with the same table but another
    generator list is refused too, and a twin with the same presentation
    is accepted."""
    z2, z4 = cyclic_group(2), cyclic_group(4)
    sgn, reg = sign_lattice(z2, [-1]), regular_lattice(z4)
    with pytest.raises(ValueError, match="different groups"):
        LatticeMap(sgn, reg, ((0,),) * 4)
    s3 = symmetric_group_3()
    swapped = group_from_table(s3.table, tuple(reversed(s3.generators)))
    twin = group_from_table(s3.table, s3.generators)
    with pytest.raises(ValueError, match="different groups"):
        LatticeMap(trivial_lattice(s3), trivial_lattice(swapped),
                   la.identity(1))
    LatticeMap(trivial_lattice(s3), trivial_lattice(twin),
               la.identity(1)).validate()


def test_module_validate_checks_the_group_action():
    """Z with the generator of Z3 acting by 2 is no Z3-module (2^3 = 8),
    though 2 preserves the relations; modulo 7 it is one (2^3 = 8 = 1).
    A relation the action moves out of span(relations) is still
    refused."""
    z3 = cyclic_group(3)
    with pytest.raises(EquivarianceError, match="quotient"):
        FgModule(z3, 1, ((0,),), (((2,),),)).validate()
    FgModule(z3, 1, ((7,),), (((2,),),)).validate()
    with pytest.raises(EquivarianceError, match="preserve the relations"):
        FgModule(cyclic_group(2), 2, ((2,), (0,)),
                 (((0, 1), (1, 0)),)).validate()
    d4 = dihedral_group_4()
    for mod in (FgModule(d4, 2, ((2, 0), (0, 2)),
                         (((1, 0), (0, -1)), ((0, -1), (1, 0)))),
                FgModule(symmetric_group_3(), 2, ((3,), (0,)),
                         (((-1, 0), (0, 1)), la.identity(2))),
                FgModule(d4, 0, (), (la.zeros(0, 0),) * 2)):
        mod.validate()


def test_fixed_points():
    z2 = cyclic_group(2)
    assert len(fixed_points(sign_lattice(z2, [-1]), whole_subgroup(z2))) == 0
    assert len(fixed_points(regular_lattice(z2), whole_subgroup(z2))) == 1
    assert len(fixed_points(regular_lattice(z2), trivial_subgroup(z2))) == 2


def _fixed_points_all_members(lat, h):
    """The earlier route: the kernel of M(h) - 1 stacked over every
    non-identity member of H."""
    mats = lat.element_matrices()
    ident = la.identity(lat.rank)
    blocks = [la.mat_add(mats[m], la.mat_neg(ident))
              for m in h.members if m]
    return la.ColumnSpan(la.columns(la.vstack(*blocks), lat.rank),
                         track=lat.rank).kernel()


@given(st.sampled_from(list(S4_LATTICES.values())
                       + list(fixtures.lattice_catalog().values())),
       st.data())
@settings(max_examples=40, deadline=None)
def test_fixed_points_match_all_members_stack(lat, data):
    """Stopping the stack at H's largest minimal generator gives the same
    basis as stacking every member, for every subgroup."""
    lat = conjugate_lattice(lat, data.draw(unimodular_matrices(lat.rank)))
    for h in enumerate_subgroups(lat.group)[0]:
        assert fixed_points(lat, h) == _fixed_points_all_members(lat, h)


def test_induce_rank_and_shapiro_shape():
    s3 = symmetric_group_3()
    a3 = next(h for h in enumerate_subgroups(s3)[0] if h.order == 3)
    lat = trivial_lattice(a3.as_group())
    ind = induce(lat, a3)
    ind.validate()
    assert ind.rank == a3.index * lat.rank


def test_restrict_lattice():
    s3 = symmetric_group_3()
    lat = make_permutation_lattice(s3, [subgroup(s3, (0, 1))])
    h = subgroup(s3, (0, 2, 5))
    res = restrict_lattice(lat, h)
    res.validate()
    assert res.rank == lat.rank


def test_direct_sum():
    z2 = cyclic_group(2)
    s = direct_sum(sign_lattice(z2, [-1]), trivial_lattice(z2))
    s.validate()
    assert s.rank == 2


def test_direct_sum_refuses_reordered_generators():
    """Action matrices are paired by generator index, so one table with
    its generators in another order is another group here."""
    s3 = symmetric_group_3()
    s3b = group_from_table(s3.table, tuple(reversed(s3.generators)))
    with pytest.raises(ValueError):
        direct_sum(sign_lattice(s3, [-1, 1]), sign_lattice(s3b, [1, -1]))


def test_zero_lattice():
    z2 = cyclic_group(2)
    z = zero_lattice(z2)
    assert z.rank == 0
    assert FgModule(z2, z.rank, la.zeros(0, 0), z.action).ngens == 0


def _word_products(obj, dim):
    """M(e) rebuilt from the identity along the whole BFS word of e."""
    out = []
    for e in obj.group.elements():
        m = la.identity(dim)
        for gi in obj.group.word(e):
            m = la.mat_mul(m, obj.action[gi])
        out.append(m)
    return tuple(out)


def _assert_rows_match_dense(obj, dim):
    """Sparse element rows against the dense products along the BFS
    words, the dense view with them, and for a lattice the generator
    rows against its ``action``."""
    dense = _word_products(obj, dim)
    assert obj.element_rows() == tuple(la.sparse_rows(m) for m in dense)
    assert obj.element_matrices() == dense
    if isinstance(obj, GLattice):
        assert obj.action_rows() == tuple(la.sparse_rows(m)
                                          for m in obj.action)


def test_element_matrices_match_word_products():
    d4 = dihedral_group_4()
    s3 = symmetric_group_3()
    for lat in fixtures.lattice_catalog().values():
        _assert_rows_match_dense(lat, lat.rank)
    rot = ((0, -1), (1, 0))
    mods = [
        FgModule(cyclic_group(2), 1, ((2,),), (la.identity(1),)),
        FgModule(cyclic_group(4), 2, ((4, 0), (0, 2)), (((1, 0), (0, 3)),)),
        FgModule(s3, 2, ((3,), (0,)), (((-1, 0), (0, 1)), la.identity(2))),
        FgModule(d4, 2, ((2, 0), (0, 2)), (((1, 0), (0, -1)), rot)),
    ]
    for lat in (regular_lattice(d4), zero_lattice(d4)):
        mods.append(FgModule(d4, lat.rank, la.zeros(lat.rank, 0), lat.action))
    for mod in mods:
        _assert_rows_match_dense(mod, mod.ngens)


@given(st.one_of(small_lattices(), s4_lattices()))
@settings(max_examples=40, deadline=None)
def test_element_matrices_property(lat):
    """Direct sums, duals and rebases of small lattices, and of S4
    permutation and augmentation lattices."""
    _assert_rows_match_dense(lat, lat.rank)


# ---------------------------------------------------------------------------
# Each builder keeps the sparse rows it makes; its dense ``action`` must be
# the matrix the dense formula gives.

def _oracle_lattices():
    return (list(fixtures.lattice_catalog().values())
            + list(S4_LATTICES.values()))


def _permutation_dense(group, subgroups):
    """The permutation action as rank x rank matrices with a 1 at
    (off + gen c, off + c) per coset c of each summand."""
    spaces = [coset_action(group, h) for h in subgroups]
    rank = sum(cs.size for cs in spaces)
    action = []
    for gen in group.generators:
        m = [[0] * rank for _ in range(rank)]
        off = 0
        for cs in spaces:
            for c in range(cs.size):
                m[off + cs.act(gen, c)][off + c] = 1
            off += cs.size
        action.append(la.freeze(m))
    return tuple(action)


def _induced_dense(lat, basis_cols):
    """The induced action by solving each column of the dense product
    M(s) B on the basis columns B."""
    k = len(basis_cols)
    b = la.from_columns(basis_cols, lat.rank)
    x = la.solve_columns(basis_cols, [
        img for m in lat.action for img in la.columns(la.mat_mul(m, b), k)])
    return tuple(la.from_columns(x[i * k:(i + 1) * k], k)
                 for i in range(len(lat.action)))


def test_permutation_lattice_matches_dense_formula():
    groups = {id(lat.group): lat.group for lat in _oracle_lattices()}
    for g in groups.values():
        reps = enumerate_subgroups(g)[1]
        for h in reps:
            lat = make_permutation_lattice(g, [h])
            assert "action" not in vars(lat)
            assert lat.action == _permutation_dense(g, [h])
        pair = [reps[0], reps[-1]]
        assert make_permutation_lattice(g, pair).action \
            == _permutation_dense(g, pair)


def test_dual_lattice_matches_dense_formula():
    """M*(s) = M(s^{-1})^T, transposed dense."""
    for lat in _oracle_lattices():
        g = lat.group
        mats = lat.element_matrices()
        dual = dual_lattice(lat)
        assert "action" not in vars(dual)
        assert dual.action == tuple(la.transpose_shaped(
            mats[g.inverses[s]], lat.rank, lat.rank) for s in g.generators)


def test_direct_sum_matches_block_diag():
    lats = _oracle_lattices()
    for a in lats:
        for b in lats:
            if a.group is b.group and a.rank + b.rank <= 30:
                s = direct_sum(a, b)
                assert "action" not in vars(s)
                assert s.action == tuple(
                    block_diag(ma, mb)
                    for ma, mb in zip(a.action, b.action))


def test_restrict_lattice_matches_dense_formula():
    for lat in _oracle_lattices():
        mats = lat.element_matrices()
        for h in enumerate_subgroups(lat.group)[1]:
            res = restrict_lattice(lat, h)
            assert res.action == tuple(
                mats[h.to_parent(g)] for g in h.as_group().generators)


def test_induce_matches_dense_formula():
    """Induction from each subgroup class of S3 and D4: the block of
    M(hh) at (coset gen.j, coset j), gen reps[j] = reps[gen.j] hh."""
    for gamma in (symmetric_group_3(), dihedral_group_4()):
        for h in enumerate_subgroups(gamma)[1]:
            sub = h.as_group()
            for lat in (regular_lattice(sub), trivial_lattice(sub, 2)):
                cs = coset_action(gamma, h)
                reps, r, n = cs.representatives, lat.rank, cs.size
                mats = lat.element_matrices()
                want = []
                for gen in gamma.generators:
                    m = [[0] * (n * r) for _ in range(n * r)]
                    for j in range(n):
                        tgt = cs.act(gen, j)
                        hh = gamma.mul(gamma.inv(reps[tgt]),
                                       gamma.mul(gen, reps[j]))
                        for a in range(r):
                            for b in range(r):
                                m[tgt * r + a][j * r + b] = \
                                    mats[h.from_parent(hh)][a][b]
                    want.append(la.freeze(m))
                assert induce(lat, h).action == tuple(want)


def _invariant_bases(lat):
    """Bases of G-invariant sublattices of ``lat``, each as (dense
    columns, the same as {index: entry}): L^G, the whole lattice on a
    basis other than the standard one, and for a permutation lattice the
    augmentation kernel."""
    whole = la.columns(la.identity(lat.rank))
    if lat.rank > 1:
        whole[0][1] = 1
    bases = [fixed_points(lat, whole_subgroup(lat.group)), whole]
    if lat.is_permutation_certified:
        bases.append(la.kernel_basis([[1] * lat.rank]))
    return [(basis, [{i: x for i, x in enumerate(c) if x} for c in basis])
            for basis in bases]


def test_induced_action_matches_dense_solve():
    """Dense and {index: entry} basis columns give the action the dense
    images, solved column by column, give."""
    for lat in _oracle_lattices():
        for dense, sparse in _invariant_bases(lat):
            want = _induced_dense(lat, dense)
            for basis in (dense, sparse):
                sub = induced_action_on_sublattice(lat, basis)
                assert "action" not in vars(sub)
                assert sub.rank == len(dense)
                assert sub.action == want

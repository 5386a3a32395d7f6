"""G-lattices, duality, induction, and finitely generated modules."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_strategies import S4_LATTICES, s4_lattices, small_lattices, \
    unimodular_matrices

from galmod import fixtures
from galmod import intlinalg as la
from galmod.cohomology import group_cohomology
from galmod.groups import (cyclic_group, dihedral_group_4,
                           enumerate_subgroups, subgroup,
                           symmetric_group_3, trivial_subgroup,
                           whole_subgroup)
from galmod.lattice import (EquivarianceError, FgModule, GLattice,
                            LatticeMap, conjugate_lattice, direct_sum,
                            dual_lattice, dual_map, fixed_points, induce,
                            lattice_as_module, make_permutation_lattice,
                            regular_lattice, restrict_lattice,
                            sign_lattice, trivial_lattice, zero_lattice)


def test_lattice_validation():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    sign.validate()
    with pytest.raises(Exception):
        GLattice(z2, 1, (((2,),),)).validate()  # not unimodular


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
    assert la.is_zero(quo.compose(inc).matrix)
    dq, di = dual_map(quo), dual_map(inc)
    assert la.is_zero(di.compose(dq).matrix)
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


def test_zero_lattice():
    z2 = cyclic_group(2)
    z = zero_lattice(z2)
    assert z.rank == 0
    assert lattice_as_module(z).ngens == 0


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
        lattice_as_module(regular_lattice(d4)),
        lattice_as_module(zero_lattice(d4)),
    ]
    for mod in mods:
        _assert_rows_match_dense(mod, mod.ngens)


@given(st.one_of(small_lattices(), s4_lattices()))
@settings(max_examples=40, deadline=None)
def test_element_matrices_property(lat):
    """Direct sums, duals and rebases of small lattices, and of S4
    permutation and augmentation lattices."""
    _assert_rows_match_dense(lat, lat.rank)

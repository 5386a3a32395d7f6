"""Group, Tate, and hypercohomology against textbook values and the
unnormalized-complex oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_strategies import S4_LATTICES, s4_lattices, small_lattices

from galmod import fixtures
from galmod import intlinalg as la
from galmod.cohomology import (UnsupportedDegreeError, _cayley, _dense,
                               _rank_mod, _Sparse, _total_rows,
                               bar_differential,
                               cochain_dim, group_cohomology,
                               hyper_restriction, hypercohomology,
                               restriction, shapiro_compare,
                               tate_cohomology, total_differential)
from galmod.complexes import (TwoTermComplex, classify,
                              coflasque_resolution, flasque_resolution)
from galmod.groups import (build_group, cyclic_group, enumerate_subgroups,
                           subgroup, symmetric_group_3, whole_subgroup)
from galmod.lattice import (FgModule, LatticeMap, dual_lattice,
                            induced_action_on_sublattice, regular_lattice,
                            restrict_lattice, sign_lattice, trivial_lattice,
                            zero_lattice)


def both(h, a, n):
    """Normalized and unnormalized answers, which must agree."""
    norm = group_cohomology(h, a, n, normalized=True)
    raw = group_cohomology(h, a, n, normalized=False)
    assert norm.invariant_factors == raw.invariant_factors
    return norm.invariant_factors


def test_classical_values():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    assert both(z2, sign, 0) == ()
    assert both(z2, sign, 1) == (2,)
    for n in (2, 3, 4):
        zn = cyclic_group(n)
        assert both(zn, trivial_lattice(zn), 2) == (n,)
    s3 = symmetric_group_3()
    assert both(s3, trivial_lattice(s3), 1) == ()
    assert both(s3, trivial_lattice(s3), 2) == (2,)


def test_h0_is_fixed_points():
    z2 = cyclic_group(2)
    assert both(z2, trivial_lattice(z2), 0) == (0,)
    assert both(z2, regular_lattice(z2), 0) == (0,)


def test_permutation_lattice_h1_vanishes():
    s3 = symmetric_group_3()
    lat = regular_lattice(s3)
    for h in enumerate_subgroups(s3)[1]:
        assert group_cohomology(h, lat, 1).invariant_factors == ()


def test_module_coefficients():
    z2 = cyclic_group(2)
    mod = FgModule(z2, 1, ((2,),), (la.identity(1),))  # Z/2 trivial
    assert both(z2, mod, 0) == (2,)
    assert both(z2, mod, 1) == (2,)
    assert both(z2, mod, 2) == (2,)


def test_differential_squares_to_zero():
    s3 = symmetric_group_3()
    lat = sign_lattice(s3, [-1, 1])
    mats = lat.element_matrices()
    for n in (0, 1):
        d_n = bar_differential(s3, mats, lat.rank, n)
        d_n1 = bar_differential(s3, mats, lat.rank, n + 1)
        assert la.is_zero(la.mat_mul(d_n1, d_n))


def test_tate_cohomology():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    assert tate_cohomology(z2, sign, -1).invariant_factors == (2,)
    assert tate_cohomology(z2, sign, 0).invariant_factors == ()
    triv = trivial_lattice(z2)
    assert tate_cohomology(z2, triv, -1).invariant_factors == ()
    assert tate_cohomology(z2, triv, 0).invariant_factors == (2,)


def test_degree_errors():
    z2 = cyclic_group(2)
    with pytest.raises(UnsupportedDegreeError):
        group_cohomology(z2, trivial_lattice(z2), 3)
    with pytest.raises(UnsupportedDegreeError):
        tate_cohomology(z2, trivial_lattice(z2), 1)


def test_restriction_surjective_z4_to_z2():
    z4 = cyclic_group(4)
    h = subgroup(z4, (0, 2))
    triv = trivial_lattice(z4)
    rmap = restriction(z4, h, triv, 2)
    assert rmap.source.invariant_factors == (4,)
    assert rmap.target.invariant_factors == (2,)
    # the class of order 4 restricts to the generator of H^2(Z/2)
    assert rmap.matrix[0][0] % 2 == 1


def test_restriction_to_whole_group_is_identity_sized():
    s3 = symmetric_group_3()
    lat = trivial_lattice(s3)
    rmap = restriction(s3, whole_subgroup(s3), lat, 2)
    assert (rmap.source.invariant_factors
            == rmap.target.invariant_factors == (2,))


def test_restriction_is_transitive():
    """res_{G->H} = res_{K->H} o res_{G->K} on class coordinates, modulo
    the invariant factors of H^n(H), for every chain H <= K <= G."""
    cases = [(a, (1, 2)) for a in fixtures.lattice_catalog().values()]
    cases += [(trivial_lattice(g), (1, 2))
              for g in fixtures.group_catalog().values()]
    cases += [(t, (-1, 0, 1)) for t in fixtures.complex_catalog().values()]
    checked = 0
    for a, degrees in cases:
        gamma = a.group
        subs = enumerate_subgroups(gamma)[0]
        for k in subs:
            for h in subs:
                if not set(h.members) <= set(k.members):
                    continue
                for n in degrees:
                    direct = restriction(gamma, h, a, n)
                    g_to_k = restriction(gamma, k, a, n).matrix
                    k_to_h = restriction(k, h, a, n).matrix
                    nk = len(g_to_k)
                    for i, f in enumerate(direct.target.invariant_factors):
                        for j in range(len(direct.source.invariant_factors)):
                            d = direct.matrix[i][j] - sum(
                                k_to_h[i][m] * g_to_k[m][j]
                                for m in range(nk))
                            assert (d % f if f else d) == 0, \
                                (a, k.members, h.members, n)
                    checked += 1
    assert checked > 500


def test_total_differential_squares_to_zero():
    s3 = symmetric_group_3()
    l1 = sign_lattice(s3, [-1, 1])
    l2 = trivial_lattice(s3)
    m1 = l1.element_matrices()
    m2 = l2.element_matrices()
    diff = la.zeros(1, 1)
    for n in (-1, 0):
        d_n = total_differential(s3, m1, m2, 1, 1, diff, n)
        d_n1 = total_differential(s3, m1, m2, 1, 1, diff, n + 1)
        assert la.is_zero(la.mat_mul(d_n1, d_n))


def test_hypercohomology_of_multiplication_by_two():
    # [Z --2--> Z] over Z/2 with trivial action
    z2 = cyclic_group(2)
    triv = trivial_lattice(z2)
    t = TwoTermComplex(triv, triv, LatticeMap(triv, triv, ((2,),)))
    assert hypercohomology(z2, t, -1).invariant_factors == ()
    assert hypercohomology(z2, t, 0).invariant_factors == (2,)
    assert hypercohomology(z2, t, 1).invariant_factors == (2,)


def test_hyper_restriction_runs():
    z4 = cyclic_group(4)
    triv = trivial_lattice(z4)
    t = TwoTermComplex(triv, triv, LatticeMap(triv, triv, ((2,),)))
    h = subgroup(z4, (0, 2))
    rmap = hyper_restriction(z4, h, t, 0)
    assert la.shape(rmap.matrix)[0] == len(rmap.target.invariant_factors)


def test_shapiro():
    s3 = symmetric_group_3()
    a3 = next(h for h in enumerate_subgroups(s3)[0] if h.order == 3)
    lat = trivial_lattice(a3.as_group())
    for n in (0, 1, 2):
        verdict = shapiro_compare(s3, a3, lat, n)
        assert verdict.isomorphic


def test_cochain_dim():
    assert cochain_dim(3, 2, 0) == 2
    assert cochain_dim(3, 2, 1) == 4
    assert cochain_dim(3, 2, 2, normalized=False) == 18


def test_generators_are_cocycles():
    z4 = cyclic_group(4)
    triv = trivial_lattice(z4)
    cg = group_cohomology(z4, triv, 2)
    d2 = bar_differential(z4, triv.element_matrices(), 1, 2)
    for gen in cg.generators:
        assert all(x == 0 for x in la.mat_vec(d2, gen))


def _check_torsion_reduce(cg, order):
    """reduce is the identity on generators and kills |H| times each."""
    assert isinstance(cg.presentation, la.AbGroupPresentation)
    k = len(cg.invariant_factors)
    for i, gen in enumerate(cg.generators):
        assert cg.reduce(gen) == tuple(int(j == i) for j in range(k))
        assert cg.reduce([order * x for x in gen]) == (0,) * k


def test_finite_cohomology_matches_kernel_oracle():
    """H^1 and H^2 of lattices come from SNF(d^{n-1}) and H^0 from the
    kernel of d^0, which has no rows over the trivial subgroup; the
    unnormalized kernel route must give the same groups."""
    for lat in fixtures.lattice_catalog().values():
        subgroups = enumerate_subgroups(lat.group)[0]
        assert min(h.order for h in subgroups) == 1
        for h in subgroups:
            for n in (0, 1, 2):
                cg = group_cohomology(h, lat, n)
                raw = group_cohomology(h, lat, n, normalized=False)
                assert cg.invariant_factors == raw.invariant_factors
                if n:
                    _check_torsion_reduce(cg, h.order)


def test_finite_hypercohomology_matches_kernel_oracle():
    """Degree 1 comes from SNF of the total d^0; degrees -1 and 0 take
    kernels, including the row-less ones over the trivial subgroup."""
    for t in fixtures.complex_catalog().values():
        subgroups = enumerate_subgroups(t.group)[0]
        assert min(h.order for h in subgroups) == 1
        for h in subgroups:
            for n in (-1, 0, 1):
                cg = hypercohomology(h, t, n)
                raw = hypercohomology(h, t, n, normalized=False)
                assert cg.invariant_factors == raw.invariant_factors
                if n == 1:
                    _check_torsion_reduce(cg, h.order)


def test_torsion_reduce_rejects_non_cocycles():
    s3 = symmetric_group_3()
    for lat in (trivial_lattice(s3), sign_lattice(s3, [-1, 1]),
                regular_lattice(s3)):
        mats = lat.element_matrices()
        for n in (1, 2):
            cg = group_cohomology(s3, lat, n)
            d_n = bar_differential(s3, mats, lat.rank, n)
            dim = cochain_dim(s3.order, lat.rank, n)
            for k, image in enumerate(la.columns(d_n)):
                unit = [int(j == k) for j in range(dim)]
                if not any(image):
                    cg.reduce(unit)
                else:
                    with pytest.raises(la.SolveError):
                        cg.reduce(unit)


@given(small_lattices())
@settings(max_examples=10, deadline=None)
def test_finite_cohomology_property(lat):
    lat.validate()
    for n in (1, 2):
        cg = group_cohomology(lat.group, lat, n)
        raw = group_cohomology(lat.group, lat, n, normalized=False)
        assert cg.invariant_factors == raw.invariant_factors
        _check_torsion_reduce(cg, lat.group.order)


def test_group_cohomology_is_hypercohomology_of_zero_to_a():
    """A lattice A is the complex [0 -> A]: both entry points give the
    same factors and the same generator cochains."""
    for lat in fixtures.lattice_catalog().values():
        zero = zero_lattice(lat.group)
        t = TwoTermComplex(zero, lat,
                           LatticeMap(zero, lat, la.zeros(lat.rank, 0)))
        for h in enumerate_subgroups(lat.group)[0]:
            for n in (0, 1):
                cg = group_cohomology(h, lat, n)
                hc = hypercohomology(h, t, n)
                assert hc.invariant_factors == cg.invariant_factors
                assert hc.generators == cg.generators


def test_unnormalized_hypercohomology_says_so():
    t = fixtures.complex_catalog()["z2-mult2"]
    assert hypercohomology(t.group, t, 0, normalized=False).normalized \
        is False
    assert hypercohomology(t.group, t, 0).normalized is True


def test_cayley_cochain_maps_round_trip():
    """On every catalog lattice (and Z over every catalog group) and
    subgroup, in degrees 1 and 2: the Cayley -> bar map sends each
    generator of the Cayley torsion cokernel to a bar cocycle, and
    bar -> Cayley brings it back to its own class.  On bar cochains,
    every coboundary reduces to 0, and the cocycle check of ``reduce``
    (its modulus-0 rows) has the same kernel as the bar d^n."""
    lattices = list(fixtures.lattice_catalog().values())
    lattices += [trivial_lattice(g) for g in fixtures.group_catalog().values()]
    checked = 0
    for lat in lattices:
        r = lat.rank
        for h in enumerate_subgroups(lat.group)[0]:
            sub = h.as_group()
            mats = [lat.element_matrices()[g] for g in h.members_bfs()]
            cay = _cayley(sub)
            for n in (1, 2):
                d = _dense(_total_rows(cay, (0, ()), (r, _Sparse(mats)),
                                       None, n - 1), cay.cells(n - 1) * r)
                tc = la.torsion_cokernel(d)
                bar_d = bar_differential(sub, mats, r, n)
                for c in tc.generators:
                    f = cay.to_bar(n, c, _Sparse(mats), r)
                    assert not any(la.mat_vec(bar_d, f))
                    back = [0] * len(c)
                    for cell, terms in enumerate(cay.from_bar(n)):
                        for j, x in terms.items():
                            for a in range(r):
                                back[cell * r + a] += x * f[j * r + a]
                    assert tc.reduce(back) == tc.reduce(c)
                    checked += 1
                cg = group_cohomology(h, lat, n)
                for col in la.columns(bar_differential(sub, mats, r, n - 1)):
                    assert not any(cg.reduce(col))
                pres = cg.presentation
                dim = cochain_dim(sub.order, r, n)
                checks = pres.check_rows()
                dense = _dense([dict(row) for row in checks], dim)
                for v in la.preimage(dense, [], dim):
                    assert not any(la.mat_vec(bar_d, v))
    assert checked > 60


@st.composite
def _restricted_lattices(draw):
    """A random small lattice restricted to one of its group's
    subgroups, with that subgroup."""
    lat = draw(small_lattices())
    h = draw(st.sampled_from(enumerate_subgroups(lat.group)[0]))
    return h, restrict_lattice(lat, h)


@given(_restricted_lattices())
@settings(max_examples=15, deadline=None)
def test_shapiro_through_induce_property(case):
    """H^n(Gamma, Ind_H^Gamma L) = H^n(H, L) for n = 1, 2."""
    h, lat = case
    for n in (1, 2):
        verdict = shapiro_compare(h.parent, h, lat, n)
        assert verdict.isomorphic, (h.members, n)


def test_h2_of_s4_with_regular_coefficients_vanishes():
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    assert group_cohomology(s4, regular_lattice(s4), 2).invariant_factors \
        == ()


# ---------------------------------------------------------------------------
# Vanishing of H^1 and Tate H^-1 by ranks mod p, against the Smith route.

@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([2, 3, 5]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_rank_mod_matches_smith_form(rows, cols, p, data):
    """The rank mod p is the number of Smith invariant factors prime to
    p, for p = 2 (bit rows) and odd p alike; ``stop`` caps the count."""
    m = [data.draw(st.lists(st.integers(-6, 6), min_size=cols,
                            max_size=cols)) for _ in range(rows)]
    want = sum(1 for d in la.smith_normal_form(m).invariant_factors
               if d % p)
    assert _rank_mod(m, p, min(rows, cols)) == want
    assert _rank_mod(m, p, 1) == min(1, want)


def _minus_one(h, lat):
    """The matrices M(s) - 1 over the generators s of H."""
    mats = lat.element_matrices()
    minus = la.mat_neg(la.identity(lat.rank))
    return [la.mat_add(mats[h.to_parent(s)], minus)
            for s in h.as_group().generators]


def _smith_h1(h, lat):
    """Torsion of coker(d^0), d^0 the stacked M(s) - 1, by a Smith
    form."""
    return la.torsion_cokernel(la.vstack(*_minus_one(h, lat))).factors


def _smith_tate(h, lat):
    """ker N / I_H L by a subquotient presentation, I_H L spanned by the
    columns of the M(s) - 1."""
    mats = lat.element_matrices()
    norm = la.zeros(lat.rank, lat.rank)
    for g in h.members:
        norm = la.mat_add(norm, mats[g])
    den = [c for b in _minus_one(h, lat) for c in la.columns(b)]
    return la.abgroup_from_subquotient(la.kernel_basis(norm), den,
                                       lat.rank).factors


def _check_vanishing(lattices, h1_oracle):
    """Compare the H^1 and Tate H^-1 factors with the oracles on every
    subgroup class representative; return the primes that divide some
    factor and the number of vanishing groups."""
    primes, vanishing = set(), 0
    for lat in lattices:
        for h in enumerate_subgroups(lat.group)[1]:
            for got, want in (
                    (group_cohomology(h, lat, 1), h1_oracle(h, lat)),
                    (tate_cohomology(h, lat, -1), _smith_tate(h, lat))):
                assert got.invariant_factors == want, (lat, h.members)
                primes |= {p for p in (2, 3) for f in want if f % p == 0}
                vanishing += not want
    return primes, vanishing


def test_vanishing_matches_smith_route_on_catalog():
    """Catalog lattices; the regular, trivial and dual regular lattices
    and the augmentation kernel with its dual of every catalog group;
    both sides of every catalog resolution.  H^1 against the
    unnormalized bar complex."""
    lattices = list(fixtures.lattice_catalog().values())
    for g in fixtures.group_catalog().values():
        reg = regular_lattice(g)
        aug = induced_action_on_sublattice(
            reg, la.kernel_basis([[1] * reg.rank]))
        lattices += [reg, trivial_lattice(g), dual_lattice(reg), aug,
                     dual_lattice(aug)]
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            resolved, _ = resolve(t)
            lattices += [resolved.l1, resolved.l2]
    primes, vanishing = _check_vanishing(
        lattices, lambda h, lat: group_cohomology(
            h, lat, 1, normalized=False).invariant_factors)
    assert primes == {2, 3} and vanishing > 500


def test_vanishing_matches_smith_route_on_s4():
    """The S4 lattices of ``lattice_strategies``; H^1 against the Smith
    form of the stacked M(s) - 1 (the unnormalized bar complex of S4
    takes seconds per case)."""
    primes, vanishing = _check_vanishing(S4_LATTICES.values(), _smith_h1)
    assert primes == {2, 3} and vanishing > 300


@given(s4_lattices())
@settings(max_examples=10, deadline=None)
def test_classify_matches_smith_route_on_s4_property(lat):
    """On rebased S4 lattices, the classify tables are the Smith route's
    per-subgroup factors."""
    reps = enumerate_subgroups(lat.group)[1]
    for mode, oracle in (("coflasque", _smith_h1), ("flasque", _smith_tate)):
        verdict = classify(lat, mode)
        assert verdict.table == tuple((h.members, oracle(h, lat))
                                      for h in reps)


def test_vanishing_reduce_still_checks():
    """On the Z3 regular lattice H^1 and Tate H^-1 vanish.  reduce still
    refuses a non-cocycle, and a vector outside ker N; the cocycle check
    rows are built on the first reduce."""
    z3 = cyclic_group(3)
    lat = regular_lattice(z3)
    h1 = group_cohomology(z3, lat, 1)
    assert h1.is_trivial and callable(h1.presentation._checks)
    with pytest.raises(la.SolveError):
        h1.reduce([1, 0, 0, 0, 0, 0])
    assert not callable(h1.presentation._checks) \
        and h1.presentation._checks
    coboundary = la.columns(bar_differential(z3, lat.element_matrices(),
                                             3, 0))[0]
    assert h1.reduce(coboundary) == ()
    tate = tate_cohomology(z3, lat, -1)
    assert tate.is_trivial
    with pytest.raises(la.SolveError):
        tate.reduce([1, 0, 0])
    assert tate.reduce([1, -1, 0]) == ()


def test_h0_reduce_refuses_non_cocycles():
    """H^0(Z2, Z with the sign action) = 0: its cocycles are 0 alone, so
    reduce refuses the cochain [1]."""
    z2 = cyclic_group(2)
    h0 = group_cohomology(z2, sign_lattice(z2, [-1]), 0)
    assert h0.is_trivial and h0.reduce([0]) == ()
    with pytest.raises(la.SolveError):
        h0.reduce([1])

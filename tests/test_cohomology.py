"""Group, Tate, and hypercohomology against textbook values and the
unnormalized-complex oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_strategies import S4_LATTICES, s4_lattices, small_lattices
from matvec import mat_vec

from galmod import fixtures
from galmod import intlinalg as la
from galmod.cohomology import (UnsupportedCoefficientsError,
                               UnsupportedDegreeError, _acting, _Bar,
                               _cayley, _layout, _rank_mod, _total_rows,
                               _view,
                               bar_differential,
                               cochain_dim, group_cohomology,
                               hyper_restriction, hypercohomology,
                               restriction, shapiro_compare,
                               tate_cohomology, total_differential)
from galmod.complexes import (TwoTermComplex, classify,
                              coflasque_resolution, flasque_resolution)
from galmod.groups import (MembershipError, build_group, cyclic_group,
                           dihedral_group_4, direct_product,
                           enumerate_subgroups, group_from_table, subgroup,
                           symmetric_group_3, whole_subgroup)
from galmod.lattice import (FgModule, GLattice, LatticeMap, dual_lattice,
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
    mats = lat.element_rows()
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


def test_group_cohomology_refuses_a_complex():
    """A two-term complex has hypercohomology, not group cohomology: it
    is refused in every degree before the cache is read."""
    t = fixtures.complex_catalog()["z2-aug"]
    for n in (0, 1, 2):
        with pytest.raises(UnsupportedCoefficientsError):
            group_cohomology(t.group, t, n)


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
    m1 = l1.element_rows()
    m2 = l2.element_rows()
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
    d2 = bar_differential(z4, triv.element_rows(), 1, 2)
    for gen in cg.generators:
        assert not any(mat_vec(d2, gen))


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
        mats = lat.element_rows()
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
            mats = [lat.element_rows()[g] for g in h.members_bfs()]
            cay = _cayley(sub)
            for n in (1, 2):
                tc = la.torsion_cokernel(
                    _total_rows(cay, (0, ()), (r, mats), None,
                                n - 1), cay.cells(n - 1) * r)
                bar_d = bar_differential(sub, mats, r, n)
                for c in tc.generators:
                    f = cay.to_bar(n, c, mats, r)
                    assert not any(mat_vec(bar_d, f))
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
                dense = la.dense_rows([dict(row) for row in checks], dim)
                for v in la.ColumnSpan(la.columns(dense, dim),
                                       track=dim).kernel():
                    assert not any(mat_vec(bar_d, v))
    assert checked > 60


def test_cayley_maps_are_cochain_maps():
    """On every catalog lattice (and Z over every catalog group) and
    subgroup, in degrees n = 0 and 1: bar d^n to_bar = to_bar Cayley d^n
    on every Cayley basis cochain, Cayley d^n from_bar = from_bar bar d^n
    on every bar basis cochain, and the Cayley d^1 d^0 is 0.  Unlike the
    round trip above, this covers cochains that are not cocycles.  The
    trivial subgroup's 1-cell has boundary s v - v = 0, as its one
    generator is the identity."""
    lattices = list(fixtures.lattice_catalog().values())
    lattices += [trivial_lattice(g) for g in fixtures.group_catalog().values()]
    checked = 0
    for lat in lattices:
        r = lat.rank
        for h in enumerate_subgroups(lat.group)[0]:
            sub = h.as_group()
            mats = [lat.element_rows()[g] for g in h.members_bfs()]
            cay = _cayley(sub)

            def cay_d(n, c):
                return tuple(sum(x * c[j] for j, x in row.items())
                             for row in _total_rows(cay, (0, ()), (r, mats),
                                                    None, n))

            def from_bar(n, f):
                return tuple(sum(x * f[j * r + a] for j, x in terms.items())
                             for terms in cay.from_bar(n) for a in range(r))

            def units(dim):
                return [tuple(int(i == j) for j in range(dim))
                        for i in range(dim)]

            for n in (0, 1):
                bar_d = bar_differential(sub, mats, r, n)
                for c in units(cay.cells(n) * r):
                    assert mat_vec(bar_d, cay.to_bar(n, c, mats, r)) \
                        == tuple(cay.to_bar(n + 1, cay_d(n, c), mats, r))
                    if n == 0:
                        assert not any(cay_d(1, cay_d(0, c)))
                    checked += 1
                for f in units(cochain_dim(sub.order, r, n)):
                    assert cay_d(n, from_bar(n, f)) \
                        == from_bar(n + 1, mat_vec(bar_d, f))
                    checked += 1
    assert checked > 900


def test_cayley_two_cells_are_the_edges_outside_the_tree():
    """One 2-cell per edge (x, s_t) outside ``FiniteGroup.tree()``, its
    ``loop_edges()``, |G|(k-1)+1 in all, in ascending (x, t) order:
    exactly the edges along which word(x) + (t,) is not the word of
    x s_t.  Each word chain walks word(x) letter by letter from the
    identity."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    groups = list(fixtures.group_catalog().values()) + [
        s4, direct_product(s4, cyclic_group(2))]
    groups += [h.as_group() for h in enumerate_subgroups(s4)[1]]
    for g in groups:
        cay = _cayley(g)
        k = len(g.generators)
        assert cay.edges == g.loop_edges()
        assert len(cay.edges) == g.order * (k - 1) + 1
        assert list(cay.edges) == sorted(cay.edges)
        assert cay.edges == tuple(
            (x, t) for x in g.elements() for t, s in enumerate(g.generators)
            if g.word(g.mul(x, s)) != g.word(x) + (t,))
        for x in g.elements():
            p = 0
            for (q, u), letter in zip(cay.steps[x], g.word(x)):
                assert (q, u) == (p, letter)
                p = g.mul(p, g.generators[u])
            assert len(cay.steps[x]) == len(g.word(x)) and p == x


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


def test_h2_of_s4_x_c2_with_regular_coefficients_vanishes():
    """Z[G] is induced from the trivial group, so H^2(G, Z[G]) = 0; here
    the Cayley d^1 has 4656 rows and 144 columns."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    g = direct_product(s4, cyclic_group(2))
    assert group_cohomology(g, regular_lattice(g), 2).invariant_factors \
        == ()


def _u_row_route(h, a, n):
    """H^n (n >= 1) as it was presented before the Smith form tracked V
    alone: the Smith form of the dense Cayley d^{n-1} with its full U,
    the generators (A V)_i / d_i taken Cayley -> bar, and the factor rows
    of U read through bar -> Cayley.  Returns the factors, the
    generators and that ``reduce`` on cocycles."""
    sub, ids = _acting(h)
    (r1, mats1, _), (r2, mats2, _), diff, _ = _view(a, ids)
    cay = _cayley(sub)
    cay_blocks, _ = _layout(cay, r1, r2, n)
    bar_blocks, _ = _layout(_Bar(sub.order), r1, r2, n)
    d = la.dense_rows(_total_rows(cay, (r1, mats1), (r2, mats2), diff,
                                  n - 1), _layout(cay, r1, r2, n - 1)[1])
    res = la.smith_normal_form(d)
    keep = [i for i in range(res.rank) if res.diagonal[i] > 1]
    factors = tuple(res.diagonal[i] for i in keep)
    gens = []
    for i in keep:
        c = [sum(x * res.V[j][i] for j, x in enumerate(row))
             // res.diagonal[i] for row in d]
        out = []
        for (m, r, start, size), mats in zip(cay_blocks, (mats1, mats2)):
            if size:
                out += cay.to_bar(m, c[start:start + size], mats, r)
        gens.append(tuple(out))
    pull = []
    for m, r, start, _ in bar_blocks:
        for terms in (cay.from_bar(m) if r else ()):
            pull += [[(start + cell * r + b, x) for cell, x in terms.items()]
                     for b in range(r)]
    rows = []
    for i in keep:
        row: dict = {}
        for j, x in enumerate(res.U[i]):
            for b, c in pull[j]:
                row[b] = row.get(b, 0) + x * c
        rows.append(row)

    def reduce(vec):
        return tuple(sum(x * vec[b] for b, x in row.items()) % f
                     for row, f in zip(rows, factors))
    return factors, tuple(gens), reduce


def _u_row_cases():
    """(subgroup, coefficient, degree, cohomology) for every catalog
    lattice in degrees 1 and 2 and every catalog complex in degree 1,
    over every subgroup; then H^2(S4, Z) and H^2(D4, Z[D4])."""
    for lat in fixtures.lattice_catalog().values():
        for h in enumerate_subgroups(lat.group)[0]:
            for n in (1, 2):
                yield h, lat, n, group_cohomology
    for t in fixtures.complex_catalog().values():
        for h in enumerate_subgroups(t.group)[0]:
            yield h, t, 1, hypercohomology
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    yield s4, trivial_lattice(s4), 2, group_cohomology
    d4 = dihedral_group_4()
    yield d4, regular_lattice(d4), 2, group_cohomology


def test_presentations_match_u_row_route():
    """Factors, generators, and the ``reduce`` of every generator and of
    random cocycles (generators plus coboundaries) are the U-row route's;
    ``reduce`` refuses a non-cocycle."""
    rng = random.Random(11)
    cases = torsion = 0
    for h, a, n, coh in _u_row_cases():
        got = coh(h, a, n)
        factors, gens, reduce = _u_row_route(h, a, n)
        assert (got.invariant_factors, got.generators) == (factors, gens)
        sub, ids = _acting(h)
        (r1, mats1, _), (r2, mats2, _), diff, _ = _view(a, ids)
        d_prev, d_n = (la.columns(total_differential(
            sub, mats1, mats2, r1, r2, diff, m)) for m in (n - 1, n))
        for i, g in enumerate(gens):
            assert got.reduce(g) == reduce(g) \
                == tuple(int(j == i) for j in range(len(gens)))
        for _ in range(3):
            vec = [0] * len(d_n)
            for col in gens + tuple(rng.sample(d_prev, min(3, len(d_prev)))):
                c = rng.randint(-4, 4)
                vec = [x + c * y for x, y in zip(vec, col)]
            assert got.reduce(vec) == reduce(vec)
        # a unit cochain off the cocycles; the trivial subgroup has none
        j = next((j for j, col in enumerate(d_n) if any(col)), None)
        if j is not None:
            with pytest.raises(la.SolveError):
                got.reduce([int(i == j) for i in range(len(d_n))])
        cases += 1
        torsion += bool(factors)
    assert cases > 150 and torsion > 40


# ---------------------------------------------------------------------------
# Vanishing of H^1 and Tate H^-1 by ranks mod p, against the Smith route.

@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([2, 3, 5]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_rank_mod_matches_smith_form(rows, cols, p, data):
    """The rank mod p is the number of Smith invariant factors prime to
    p, for p = 2 (bit rows) and odd p alike; ``stop`` caps the count.
    The matrix goes in as its rows {column: entry}."""
    m = [data.draw(st.lists(st.integers(-6, 6), min_size=cols,
                            max_size=cols)) for _ in range(rows)]
    want = sum(1 for d in la.smith_normal_form(m).invariant_factors
               if d % p)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    assert _rank_mod(sparse, p, min(rows, cols)) == want
    assert _rank_mod(sparse, p, 1) == min(1, want)


def _minus_one(h, lat):
    """The matrices M(s) - 1 over the generators s of H."""
    mats = lat.element_matrices()
    minus = la.mat_neg(la.identity(lat.rank))
    return [la.mat_add(mats[h.to_parent(s)], minus)
            for s in h.as_group().generators]


def _smith_h1(h, lat):
    """Torsion of coker(d^0), d^0 the stacked M(s) - 1, by a Smith
    form."""
    rows = [dict(la._sparse(row)) for m in _minus_one(h, lat) for row in m]
    return la.torsion_cokernel(rows, lat.rank).factors


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
    coboundary = la.columns(bar_differential(z3, lat.element_rows(),
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


def test_reduce_refuses_a_vector_of_the_wrong_length():
    """A vector longer or shorter than the cochain space is refused by
    name, on a torsion presentation (H^2(V4, Z), ambient 9) and on a
    vanishing one (H^1(V4, Z[V4]), ambient 12), not reduced as if its
    extra entries were not there or failed with an IndexError."""
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    h2 = group_cohomology(v4, trivial_lattice(v4), 2)
    assert h2.presentation.ambient_dim == 9 and h2.invariant_factors == (2, 2)
    gen = h2.generators[0]
    assert h2.reduce(gen) == (1, 0)
    h1 = group_cohomology(v4, fixtures.lattice_catalog()["v4-regular"], 1)
    assert h1.presentation.ambient_dim == 12 and h1.is_trivial
    for cg, vec, n in ((h2, gen + (7, 7), 9), (h2, gen[:-1], 9),
                       (h1, (0,) * 5, 12)):
        with pytest.raises(ValueError, match=f"length {len(vec)}.*{n}"):
            cg.reduce(vec)


def test_cohomology_refuses_a_foreign_acting_group():
    """A group, or a subgroup handle, whose table is not the coefficient's
    is refused before the cache is read, so it cannot leave a wrong
    answer there: H^1(S3, sign) stays Z/2 after C3 was asked to act on
    the sign lattice.  A separately built group with the same table is
    accepted and shares the cache."""
    s3 = symmetric_group_3()
    sgn = sign_lattice(s3, [-1, 1])
    t = TwoTermComplex(sgn, sgn, LatticeMap(sgn, sgn, la.identity(1)))
    c3 = cyclic_group(3)
    for h in (c3, whole_subgroup(c3)):
        with pytest.raises(MembershipError):
            group_cohomology(h, sgn, 1)
        with pytest.raises(MembershipError):
            tate_cohomology(h, sgn, -1)
        with pytest.raises(MembershipError):
            hypercohomology(h, t, 0)
    assert group_cohomology(s3, sgn, 1).invariant_factors == (2,)
    twin = group_from_table(s3.table, s3.generators)
    assert twin is not s3
    assert group_cohomology(twin, sgn, 1) is group_cohomology(s3, sgn, 1)
    assert group_cohomology(whole_subgroup(twin), sgn, 1).invariant_factors \
        == (2,)


def test_cache_keeps_generator_lists_apart():
    """Two groups with one table but different generator lists have
    different Cayley complexes, so generators on different cochains:
    each gets its own answer, and the second query does not return the
    first one's."""
    for name in ("v4-character", "s3-coset"):
        g = fixtures.lattice_catalog()[name].group
        alt = group_from_table(g.table, tuple(reversed(g.generators)))

        def fresh():  # a copy with an empty cache
            lat = fixtures.lattice_catalog()[name]
            return GLattice(lat.group, lat.rank, lat.action)

        lat = fresh()
        first = group_cohomology(alt, lat, 2)
        second = group_cohomology(g, lat, 2)
        assert first.generators == group_cohomology(alt, fresh(), 2).generators
        assert second.generators == group_cohomology(g, fresh(), 2).generators
        assert second.generators != first.generators

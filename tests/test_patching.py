"""Patching graphs: Mayer-Vietoris columns, sha kernels against a brute
force oracle, exactness reports, and refinement."""

from itertools import product as iproduct

import pytest
from matvec import mat_vec

from galmod import intlinalg as la
from galmod import fixtures
from galmod import complexes
from galmod import patching as pa
from galmod.cohomology import group_cohomology, restriction
from galmod.complexes import TwoTermComplex, flasque_resolution
from galmod.crossed import identity_crossed, trivial_galois_action
from galmod.groups import (SizeLimitError, coset_action, cyclic_group,
                           enumerate_subgroups, klein_four, subgroup,
                           symmetric_group_3, trivial_subgroup,
                           whole_subgroup)
from galmod.lattice import (LatticeMap, regular_lattice, sign_lattice,
                            trivial_lattice)


def _a3(s3):
    return next(h for h in enumerate_subgroups(s3)[0] if h.order == 3)


def test_build_validation():
    z2 = cyclic_group(2)
    g = pa.build_patching_graph(z2, [whole_subgroup(z2)], [])
    assert g.n_vertices == 1 and g.n_edges == 0


def _refusals():
    """(vertices, edges, message) for each refusal of
    build_patching_graph, over Z2 or S3."""
    z2, z3, s3 = cyclic_group(2), cyclic_group(3), symmetric_group_3()
    w2, t2 = whole_subgroup(z2), trivial_subgroup(z2)
    ws3, ts3 = whole_subgroup(s3), trivial_subgroup(s3)
    return [
        (z2, [], [], "a patching graph needs at least one vertex"),
        (z2, [whole_subgroup(z3)], [],
         "vertex 0 subgroup is not a subgroup of the ambient group"),
        (z2, [w2], [(0, 0, w2)], "edge 0 is a loop"),
        (z2, [w2, w2], [(0, 1, t2), (0, 2, t2)],
         "edge 1 endpoint out of range"),
        (z2, [w2, w2], [(0, 1, trivial_subgroup(z3))],
         "edge 0 subgroup is not a subgroup of the ambient group"),
        (s3, [ts3, ws3], [(0, 1, ws3)],
         "edge 0 subgroup not contained in its head vertex subgroup"),
        (s3, [ws3, ts3], [(0, 1, ws3)],
         "edge 0 subgroup not contained in its tail vertex subgroup"),
        (z2, [w2, w2], [], "patching graph is not connected"),
    ]


@pytest.mark.parametrize("case", range(8))
def test_build_refusals(case):
    gamma, vertices, edges, message = _refusals()[case]
    with pytest.raises(pa.ModelError) as err:
        pa.build_patching_graph(gamma, vertices, edges)
    assert str(err.value) == message


def test_mv_columns_single_vertex():
    g = fixtures.graph_catalog()["single-whole"]
    sgn = fixtures.lattice_catalog()["sign"]
    cols = pa.mv_columns(g, sgn, 1)
    assert cols.right == () and cols.right_dim == 0
    assert la.shape(cols.difference_matrix)[0] == 0


def test_mv_columns_two_vertex_difference():
    g = fixtures.graph_catalog()["two-vertex-whole"]
    sgn = fixtures.lattice_catalog()["sign"]
    cols = pa.mv_columns(g, sgn, 1)
    assert [m.invariant_factors for m in cols.middle] == [(2,), (2,)]
    # identical restriction targets, so the difference map is x - y
    assert cols.difference_matrix == ((1, -1),)


def test_mv_columns_trivial_vertex_h1_vanishes():
    g = fixtures.graph_catalog()["single-trivial-vertex"]
    sgn = fixtures.lattice_catalog()["sign"]
    cols = pa.mv_columns(g, sgn, 1)
    assert all(m.is_trivial for m in cols.middle)


def test_unsupported_degrees():
    g = fixtures.graph_catalog()["single-whole"]
    sgn = fixtures.lattice_catalog()["sign"]
    with pytest.raises(pa.UnsupportedDegreeError):
        pa.mv_columns(g, sgn, 3)
    z2 = cyclic_group(2)
    c = identity_crossed(cyclic_group(2), z2,
                         trivial_galois_action(z2, cyclic_group(2)))
    with pytest.raises(pa.UnsupportedDegreeError):
        pa.mv_columns(g, c, 1)


def _brute_sha_order(graph, lat, r):
    """Count classes whose restriction to every vertex vanishes, by
    walking all of H^r(Gamma) coordinate by coordinate."""
    left = group_cohomology(graph.gamma, lat, r)
    mats = [restriction(graph.gamma, h, lat, r).matrix
            for h in graph.vertices]
    mids = [group_cohomology(h, lat, r) for h in graph.vertices]
    count = 0
    ranges = [range(f) if f else range(1) for f in left.invariant_factors]
    for coords in iproduct(*ranges):
        ok = True
        for rows, mid in zip(mats, mids):
            for i, row in enumerate(rows):
                f = mid.invariant_factors[i]
                v = sum(a * c for a, c in zip(row, coords))
                if (v % f if f else v) != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_sha_generators_reduce_to_unit_vectors():
    lattices = list(fixtures.lattice_catalog().values())
    complexes = list(fixtures.complex_catalog().values())
    checked = 0
    for name, g in fixtures.graph_catalog().items():
        same = [a for a in lattices + complexes
                if a.group.table == g.gamma.table]
        for a in same + [regular_lattice(g.gamma)]:
            degrees = (-1, 0, 1) if isinstance(a, TwoTermComplex) \
                else (0, 1, 2)
            for r in degrees:
                s = pa.sha(g, a, r)
                k = len(s.generators)
                for i, gen in enumerate(s.generators):
                    unit = tuple(int(i == j) for j in range(k))
                    assert s.reduce(gen) == unit, (name, a, r, i)
                    checked += 1
    assert checked >= 10


def test_sha_with_whole_group_vertex_is_trivial():
    g = fixtures.graph_catalog()["two-vertex-whole"]
    sgn = fixtures.lattice_catalog()["sign"]
    assert pa.sha(g, sgn, 1).is_trivial


def test_sha_trivial_vertex_keeps_everything():
    g = fixtures.graph_catalog()["single-trivial-vertex"]
    sgn = fixtures.lattice_catalog()["sign"]
    assert pa.sha(g, sgn, 1).invariant_factors == (2,)


def test_sha_klein_four_matches_brute_force():
    v4 = klein_four()
    g = fixtures.graph_catalog()["klein-triple"]
    for lat in (regular_lattice(v4), sign_lattice(v4, [-1, -1])):
        s = pa.sha(g, lat, 1)
        assert (s.presentation.order or 0) == _brute_sha_order(g, lat, 1)


def test_sha_brute_force_across_catalog():
    for name, g in fixtures.graph_catalog().items():
        lat = regular_lattice(g.gamma)
        for r in (1, 2):
            s = pa.sha(g, lat, r)
            assert (s.presentation.order or 0) \
                == _brute_sha_order(g, lat, r), (name, r)


def test_nine_term_report_flags():
    z2 = cyclic_group(2)
    sgn = sign_lattice(z2, [-1])
    zt = trivial_lattice(z2)
    t = TwoTermComplex(sgn, zt, LatticeMap(sgn, zt, ((0,),)))
    rep = pa.nine_term_report(fixtures.graph_catalog()["two-vertex-whole"],
                              t)
    assert rep.all_compositions_zero
    # only the degree -1 junction admits a direct kernel test
    assert rep.exact_at_left[0] is not None
    assert rep.exact_at_left[1] is None and rep.exact_at_left[2] is None
    assert len(rep.sha_groups) == 3
    rep1 = pa.nine_term_report(fixtures.graph_catalog()["single-whole"], t)
    assert rep1.all_compositions_zero


def test_remark_compare_agreement():
    z2 = cyclic_group(2)
    sgn = sign_lattice(z2, [-1])
    zt = trivial_lattice(z2)
    t = TwoTermComplex(sgn, zt, LatticeMap(sgn, zt, ((0,),)))
    rc = pa.remark_compare(fixtures.graph_catalog()["single-whole"], t)
    assert rc.sha1_complex.is_trivial and rc.sha2_flasque.is_trivial
    assert rc.cokernel_factors == ()
    assert rc.hypotheses_hold
    rc2 = pa.remark_compare(fixtures.graph_catalog()["two-vertex-whole"], t)
    assert rc2.all_agree


def test_remark_compare_reads_the_cached_flasque_resolution(monkeypatch):
    """remark_compare on a complex already resolved flasque runs no
    second resolution: no embedding into a coflasque lattice."""
    t = fixtures.complex_catalog()["s3-coset-aug"]
    flasque_resolution(t)
    calls = []
    real = complexes.cts_embed_coflasque

    def counted(lat):
        calls.append(lat)
        return real(lat)

    monkeypatch.setattr(complexes, "cts_embed_coflasque", counted)
    rc = pa.remark_compare(fixtures.graph_catalog()["s3-two-vertex"], t)
    assert calls == []
    assert rc.flasque_lattice is flasque_resolution(t)[0].l2


def test_remark_compare_refuses_before_resolving(monkeypatch):
    """A complex over another group is refused before any flasque
    resolution runs."""
    def unreachable(t):
        raise AssertionError("resolved a complex that is refused")

    monkeypatch.setattr(pa, "flasque_resolution", unreachable)
    with pytest.raises(pa.ModelError):
        pa.remark_compare(fixtures.graph_catalog()["two-vertex-whole"],
                          fixtures.complex_catalog()["s3-coset-aug"])


def test_remark_compare_reports_disagreement():
    # a model whose local family is too poor for the comparison: the
    # disagreement itself is the reported fact
    z2 = cyclic_group(2)
    sgn = sign_lattice(z2, [-1])
    zt = trivial_lattice(z2)
    t = TwoTermComplex(sgn, zt, LatticeMap(sgn, zt, ((0,),)))
    rc = pa.remark_compare(
        fixtures.graph_catalog()["single-trivial-vertex"], t)
    assert rc.sha1_complex.invariant_factors == ()
    assert not rc.sha2_flasque.is_trivial
    assert not rc.all_agree


def test_crossed_columns_and_report():
    z2 = cyclic_group(2)
    c = identity_crossed(cyclic_group(2), z2,
                         trivial_galois_action(z2, cyclic_group(2)))
    g = pa.build_patching_graph(
        z2, [whole_subgroup(z2), trivial_subgroup(z2)],
        [(0, 1, trivial_subgroup(z2))])
    cols = pa.mv_columns(g, c, -1)
    assert len(cols.middle) == 2
    cols0 = pa.mv_columns(g, c, 0)
    assert len(cols0.vertex_maps) == 2
    rep = pa.crossed_six_term_report(g, c)
    assert all(rep.composition_zero)
    csha = pa.sha(g, c, 0)
    assert hasattr(csha, "classes")


def test_crossed_enumeration_bound_reaches_h_zero():
    # Gamma = Z2: every H^0 of [S3 -> S3] tries 6 maps, and the single
    # vertex product has one element, so only the enumeration can refuse
    g = fixtures.graph_catalog()["single-whole"]
    c = fixtures.crossed_catalog()["s3-identity"]
    with pytest.raises(SizeLimitError, match="^6 candidate maps exceed"):
        pa.crossed_six_term_report(g, c, bound=1)
    with pytest.raises(SizeLimitError, match="^6 candidate maps exceed"):
        pa.mv_columns(g, c, 0, bound=5)
    with pytest.raises(SizeLimitError, match="^6 candidate maps exceed"):
        pa.sha(g, c, 0, bound=5)
    assert pa.crossed_six_term_report(g, c, bound=6).sha_groups[1].is_trivial


# Every catalog graph with every complex and crossed module over its
# group: (composition zero, exact at left, exact at middle, sha) per row
# of the report, sha as invariant factors (complexes) or class counts
# (crossed modules).  Recorded from the separate nine-term and six-term
# loops that `_report` replaced, so the table does not depend on it.
PINNED_REPORTS = {
    ("single-whole", "sign-deg0"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("single-whole", "sign-deg-1"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("single-whole", "z2-norm"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("single-whole", "z2-aug"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("single-whole", "z2-mult2"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("single-whole", "z2-sign-embed"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("single-whole", "z2-z2-order4"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("single-whole", "z3-flip"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("single-whole", "s3-identity"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("single-whole", "s3-degenerate"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("single-whole", "z2-id"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("single-trivial-vertex", "sign-deg0"): (
        (True, True, True), (True, None, None), (True, False, True),
        ((), (), (2,))),
    # H^-1 is 0 over Gamma and Z at the vertex; H^0 = Z/2 dies there
    ("single-trivial-vertex", "sign-deg-1"): (
        (True, True, True), (True, None, None), (False, True, True),
        ((), (2,), ())),
    ("single-trivial-vertex", "z2-norm"): (
        (True, True, True), (True, None, None), (True, False, True),
        ((), (), (2,))),
    ("single-trivial-vertex", "z2-aug"): (
        (True, True, True), (True, None, None), (False, True, True),
        ((), (2,), ())),
    ("single-trivial-vertex", "z2-mult2"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), (2,))),
    ("single-trivial-vertex", "z2-sign-embed"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    # H^0 of order 4 maps onto a vertex group of order 2
    ("single-trivial-vertex", "z2-z2-order4"):
        ((True, True), (True, None), (True, True), (1, 2)),
    # H^-1: the trivial vertex keeps all of Z/3, Gamma only its fixed 0
    ("single-trivial-vertex", "z3-flip"):
        ((True, True), (True, None), (False, True), (1, 1)),
    ("single-trivial-vertex", "s3-identity"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("single-trivial-vertex", "s3-degenerate"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("single-trivial-vertex", "z2-id"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-whole", "sign-deg0"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("two-vertex-whole", "sign-deg-1"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("two-vertex-whole", "z2-norm"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("two-vertex-whole", "z2-aug"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("two-vertex-whole", "z2-mult2"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("two-vertex-whole", "z2-sign-embed"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("two-vertex-whole", "z2-z2-order4"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-whole", "z3-flip"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-whole", "s3-identity"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-whole", "s3-degenerate"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-whole", "z2-id"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-trivial-edges", "sign-deg0"): (
        (True, True, True), (True, None, None), (True, True, False),
        ((), (), ())),
    ("two-vertex-trivial-edges", "sign-deg-1"): (
        (True, True, True), (True, None, None), (True, False, True),
        ((), (), ())),
    ("two-vertex-trivial-edges", "z2-norm"): (
        (True, True, True), (True, None, None), (True, True, False),
        ((), (), ())),
    ("two-vertex-trivial-edges", "z2-aug"): (
        (True, True, True), (True, None, None), (True, False, True),
        ((), (), ())),
    ("two-vertex-trivial-edges", "z2-mult2"): (
        (True, True, True), (True, None, None), (True, True, False),
        ((), (), ())),
    ("two-vertex-trivial-edges", "z2-sign-embed"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    # H^0: 8 of the 16 vertex pairs agree on both edges, 4 come from Gamma
    ("two-vertex-trivial-edges", "z2-z2-order4"):
        ((True, True), (True, None), (True, False), (1, 1)),
    ("two-vertex-trivial-edges", "z3-flip"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-trivial-edges", "s3-identity"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-trivial-edges", "s3-degenerate"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("two-vertex-trivial-edges", "z2-id"):
        ((True, True), (True, None), (True, True), (1, 1)),
    ("klein-triple", "v4-aug"): (
        (True, True, True), (True, None, None), (True, False, True),
        ((), (2,), ())),
    ("klein-triple", "v4-coset-aug"): (
        (True, True, True), (True, None, None), (True, False, True),
        ((), (), ())),
    # degree 1: Z/2 from Gamma inside the Z/2 x Z/2 of the vertices
    ("klein-triple", "v4-char-deg0"): (
        (True, True, True), (True, None, None), (True, True, False),
        ((), (), ())),
    ("s3-transposition-vertex", "s3-coset-aug"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), (3,))),
    ("s3-transposition-vertex", "s3-coset-norm"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("s3-transposition-vertex", "s3-sign-deg0"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("s3-transposition-vertex", "s3-zero"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("s3-two-vertex", "s3-coset-aug"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("s3-two-vertex", "s3-coset-norm"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("s3-two-vertex", "s3-sign-deg0"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
    ("s3-two-vertex", "s3-zero"): (
        (True, True, True), (True, None, None), (True, True, True),
        ((), (), ())),
}


def _catalog_reports():
    for gname, g in fixtures.graph_catalog().items():
        for cname, t in fixtures.complex_catalog().items():
            if t.group.table == g.gamma.table:
                yield gname, cname, g, t, pa.nine_term_report(g, t)
        for cname, c in fixtures.crossed_catalog().items():
            if c.galois.table == g.gamma.table:
                yield gname, cname, g, c, pa.crossed_six_term_report(g, c)


def test_reports_match_pinned_table():
    seen = {}
    for gname, cname, _g, _coeff, rep in _catalog_reports():
        seen[gname, cname] = (
            rep.composition_zero, rep.exact_at_left,
            tuple(ok for ok, _ in rep.exact_at_middle),
            tuple(len(s.classes) if isinstance(s, pa.ShaCrossed)
                  else s.invariant_factors for s in rep.sha_groups))
    assert seen == PINNED_REPORTS


def _reduce(vec, factors) -> tuple:
    return tuple(v % f if f else v for v, f in zip(vec, factors))


def test_non_exact_witnesses_are_real():
    """Each witness of a non-exact middle junction lies in the kernel of
    the difference map and outside the image of the restriction, checked
    from the row's maps by enumerating the (finite) global group."""
    witnesses = 0
    for gname, cname, _g, _coeff, rep in _catalog_reports():
        for cols, (exact, w) in zip(rep.columns, rep.exact_at_middle):
            if exact:
                assert w is None
                continue
            witnesses += 1
            where = (gname, cname, cols.degree)
            if isinstance(cols, pa.CrossedMvColumns):
                # a b^-1 is neutral exactly when head and tail images agree
                for k, (head, tail, _h) in enumerate(cols.edges):
                    assert (cols.edge_head_maps[k][w[head]]
                            == cols.edge_tail_maps[k][w[tail]]), where
                for c in range(cols.left.order):
                    assert tuple(vm[c] for vm in cols.vertex_maps) != w
                continue
            zero = (0,) * cols.right_dim
            assert _reduce(mat_vec(cols.difference_matrix, w),
                           cols.right_factors) == zero, where
            target = _reduce(w, cols.middle_factors)
            assert 0 not in cols.left.invariant_factors, where
            for x in iproduct(*(range(f)
                                for f in cols.left.invariant_factors)):
                assert _reduce(mat_vec(cols.restriction_matrix, x),
                               cols.middle_factors) != target, where
    assert witnesses == 14


def test_reports_build_each_row_once(monkeypatch):
    """A report calls mv_columns once per degree and reads sha from the
    row it built: the same answer as the public sha."""
    degrees = []
    real = pa.mv_columns

    def counted(graph, coeff, r, *rest):
        degrees.append(r)
        return real(graph, coeff, r, *rest)

    monkeypatch.setattr(pa, "mv_columns", counted)
    for gname, cname, g, coeff, rep in _catalog_reports():
        crossed = isinstance(rep.columns[0], pa.CrossedMvColumns)
        expected = [-1, 0] if crossed else [-1, 0, 1]
        assert degrees == expected, (gname, cname)
        for r, s in zip(rep.degrees, rep.sha_groups):
            alone = pa.sha(g, coeff, r)
            if crossed:
                assert alone.classes == s.classes
            else:
                assert alone.invariant_factors == s.invariant_factors
        degrees.clear()


def test_walk_computes_each_column_and_map_once(monkeypatch):
    """mv_columns computes 1 + |V| + |E| columns and |V| + 2|E|
    restriction maps, for every kind of coefficient."""
    columns, maps = [], []

    def counted(name, calls):
        real = getattr(pa, name)
        monkeypatch.setattr(pa, name, lambda *a: calls.append(a) or real(*a))

    for name in ("group_cohomology", "hypercohomology", "h_minus_one",
                 "h_zero"):
        counted(name, columns)
    counted("restriction", maps)
    for gname, cname, g, coeff, _rep in _catalog_reports():
        crossed = isinstance(coeff, pa.FiniteCrossedModule)
        for r in (-1, 0):
            columns.clear()
            maps.clear()
            cols = pa.mv_columns(g, coeff, r)
            assert len(columns) == 1 + g.n_vertices + g.n_edges, (gname, r)
            if crossed:
                tables = (cols.vertex_maps + cols.edge_head_maps
                          + cols.edge_tail_maps)
                assert maps == [] and len(tables) == \
                    g.n_vertices + 2 * g.n_edges, (gname, cname, r)
            else:
                assert len(maps) == g.n_vertices + 2 * g.n_edges, (gname, r)


def test_refine_s3_by_a3():
    s3 = symmetric_group_3()
    g = pa.build_patching_graph(s3, [subgroup(s3, (0, 1))], [])
    a3 = _a3(s3)
    ref = pa.refine_graph(g, a3)
    assert ref.n_vertices == 1
    # an order-2 vertex acting on three cosets of A3 has free orbits
    assert ref.vertices[0].order == 1
    assert sum(sz for _, sz in ref.refinement.vertex_orbits[0]) == a3.index


def test_refine_by_whole_group_is_identity():
    g = fixtures.graph_catalog()["two-vertex-whole"]
    ref = pa.refine_graph(g, whole_subgroup(g.gamma))
    assert ref.n_vertices == 2 and ref.n_edges == 1
    assert ref.vertices[0].members == g.vertices[0].members


def test_refine_keeps_edge_containment():
    s3 = symmetric_group_3()
    a3 = _a3(s3)
    g = pa.build_patching_graph(
        s3, [whole_subgroup(s3), whole_subgroup(s3)], [(0, 1, a3)])
    ref = pa.refine_graph(g, a3)
    assert ref.n_vertices == 2
    for hd, tl, h in ref.edges:
        assert set(h.members) <= set(ref.vertices[hd].members)
        assert set(h.members) <= set(ref.vertices[tl].members)


def test_refinement_pairs_bookkeeping():
    for name, graph, h in fixtures.refinement_pairs():
        ref = pa.refine_graph(graph, h)
        assert ref.refinement is not None, name
        # one orbit record per original vertex; refined vertices come
        # one per orbit, so the refined graph can only grow
        assert len(ref.refinement.vertex_orbits) == graph.n_vertices
        assert ref.n_vertices == sum(
            len(o) for o in ref.refinement.vertex_orbits)
        for orbits in ref.refinement.vertex_orbits:
            assert sum(sz for _, sz in orbits) == h.index, name


SPLIT_CASES = {("s3-transposition-vertex", (0,)),
               ("s3-transposition-vertex", (0, 1)),
               ("s3-transposition-vertex", (0, 3)),
               ("s3-transposition-vertex", (0, 4)),
               ("single-trivial-vertex", (0,))}


def test_refine_split_is_a_verdict():
    """Refining a catalog graph either gives a connected graph or raises
    GraphSplitError (not a ModelError) with components and witnesses;
    exactly the five SPLIT_CASES split."""
    split = set()
    for name, graph in fixtures.graph_catalog().items():
        for h in enumerate_subgroups(graph.gamma)[0]:
            try:
                pa.refine_graph(graph, h)
                continue
            except pa.GraphSplitError as e:
                err = e
            assert not isinstance(err, pa.ModelError)
            split.add((name, h.members))
            ids = sorted(i for comp in err.components for i in comp)
            assert len(err.components) > 1
            assert ids == list(range(len(err.witnesses)))
            cs = coset_action(graph.gamma, h)
            for v, coset in err.witnesses:
                assert coset in [o[0] for o in
                                 cs.orbits(graph.vertices[v].members)]
    assert split == SPLIT_CASES


def test_refine_split_witnesses():
    g = fixtures.graph_catalog()["s3-transposition-vertex"]
    with pytest.raises(pa.GraphSplitError) as info:
        pa.refine_graph(g, subgroup(g.gamma, (0,)))
    # three free orbits of the transposition on the six cosets
    assert info.value.components == [[0], [1], [2]]
    assert info.value.witnesses == ((0, 0), (0, 2), (0, 4))

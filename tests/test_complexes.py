"""Two-term complexes: homology, vanishing classification, covers,
resolutions, and certificates."""

import copy
import gc
import json
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from echelon_oracle import block_diag
from lattice_strategies import (S4_LATTICES, small_lattices,
                                unimodular_matrices)

from galmod import intlinalg as la
from galmod import complexes, fixtures, serialize
from galmod.cohomology import group_cohomology, hypercohomology, \
    tate_cohomology
from galmod.complexes import (ClassificationVerdict, GroupMismatchError,
                              MoveEvidence, PreconditionError,
                              TwoTermComplex, classify,
                              coflasque_resolution, cts_cover_coflasque,
                              cts_embed_coflasque, flasque_resolution,
                              homology, pullback_square, pushout_square,
                              r_equivalence_invariant, replay_certificate,
                              subgroup_table, uniqueness_invariants,
                              verify_square)
from galmod.groups import build_group, cyclic_group, enumerate_subgroups
from galmod.lattice import (FgModule, LatticeMap, conjugate_lattice,
                            direct_sum, fixed_points, regular_lattice,
                            sign_lattice, trivial_lattice, zero_lattice)


def _cx(l1, l2, rows):
    return TwoTermComplex(l1, l2, LatticeMap(l1, l2, la.freeze(rows)))


def test_homology_of_multiplication():
    z2 = cyclic_group(2)
    triv = trivial_lattice(z2)
    t = _cx(triv, triv, ((2,),))
    hminus, h0 = homology(t)
    assert hminus.rank == 0
    assert h0.invariant_factors == (2,)


def test_homology_of_augmentation_kernel():
    z2 = cyclic_group(2)
    reg = regular_lattice(z2)
    sign = sign_lattice(z2, [-1])
    t = _cx(reg, sign, ((1, -1),))
    hminus, h0 = homology(t)
    assert hminus.rank == 1  # the norm element e + s
    assert h0.invariant_factors == ()


def test_homology_builds_h0_from_the_rows_of_l2():
    """H^0 of every catalog complex is built on L2's generator rows: no
    dense ``action`` is left on L2, and its invariant factors and
    element rows are those of the module built from L2's dense
    matrices.  Each complex is a loaded copy, so no other reader of the
    catalog's lattices has built their dense view."""
    for name, cat in fixtures.complex_catalog().items():
        t = serialize.load_complex(serialize.dump_complex(cat))
        h0 = homology(t)[1]
        assert "action" not in vars(t.l2), name
        dense = FgModule(t.group, t.l2.rank, t.differential.matrix,
                         [la.dense_rows(m, t.l2.rank)
                          for m in t.l2.action_rows()])
        assert h0.invariant_factors == dense.invariant_factors, name
        assert h0.element_rows() == dense.element_rows(), name


def test_classify_modes():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    assert not classify(sign, "coflasque").ok
    assert not classify(sign, "flasque").ok
    reg = regular_lattice(z2)
    assert classify(reg, "coflasque").ok
    assert classify(reg, "flasque").ok
    with pytest.raises(ValueError):
        classify(sign, "other")


def test_classify_past_order_64():
    """A group's order is bounded once, where it is built: S5 built with
    a limit of 120 classifies over its 19 subgroup classes."""
    s5 = build_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], size_limit=120)
    for mode in ("flasque", "coflasque"):
        verdict = classify(regular_lattice(s5), mode)
        assert verdict.ok and len(verdict.table) == 19, mode


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_classify_is_invariant_under_conjugation(data):
    lat = data.draw(small_lattices())
    conj = conjugate_lattice(lat, data.draw(unimodular_matrices(lat.rank)))
    for mode in ("coflasque", "flasque"):
        before, after = classify(lat, mode), classify(conj, mode)
        assert (after.ok, after.table) == (before.ok, before.table)
        assert (after.witness is None) == (before.witness is None)
        if before.witness is not None:
            assert after.witness[:2] == before.witness[:2]


def test_cover_of_sign_lattice():
    z2 = cyclic_group(2)
    cover = cts_cover_coflasque(sign_lattice(z2, [-1]))
    assert classify(cover.c, "coflasque").ok
    assert cover.q.is_permutation_certified
    assert cover.q.rank == cover.c.rank + 1


def test_embed_of_sign_lattice():
    z2 = cyclic_group(2)
    emb = cts_embed_coflasque(sign_lattice(z2, [-1]))
    assert classify(emb.c1, "coflasque").ok
    assert emb.q1.is_permutation_certified
    # rank additivity in 0 -> L -> C1 -> Q1 -> 0
    assert emb.c1.rank == emb.l.rank + emb.q1.rank


def test_coflasque_resolution_small():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    t = _cx(zero_lattice(z2), sign, ((),))
    resolved, cert = coflasque_resolution(t)
    assert classify(resolved.l1, "coflasque").ok
    assert resolved.l2.is_permutation_certified
    assert cert.valid
    assert replay_certificate(cert)


def test_flasque_resolution_small():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    t = _cx(sign, zero_lattice(z2), ())
    resolved, cert = flasque_resolution(t)
    assert classify(resolved.l2, "flasque").ok
    assert resolved.l1.is_permutation_certified
    assert replay_certificate(cert)


def test_flasque_is_dual_of_coflasque_of_dual():
    t = fixtures.complex_catalog()["z2-aug"]
    resolved, _ = flasque_resolution(t)
    cof, _ = coflasque_resolution(t.dual())
    again = cof.dual()
    assert resolved.l1.action == again.l1.action
    assert resolved.l2.action == again.l2.action
    assert resolved.differential.matrix == again.differential.matrix


def test_resolution_preserves_hypercohomology():
    t = fixtures.complex_catalog()["s3-coset-aug"]
    cof, _ = coflasque_resolution(t)
    fla, _ = flasque_resolution(t)
    _, reps = enumerate_subgroups(t.group)
    for h in reps:
        for n in (-1, 0, 1):
            want = hypercohomology(h, t, n).invariant_factors
            assert hypercohomology(h, cof, n).invariant_factors == want
            assert hypercohomology(h, fla, n).invariant_factors == want


def test_pushout_requires_mono():
    z2 = cyclic_group(2)
    triv = trivial_lattice(z2)
    zero_map = LatticeMap(triv, triv, ((0,),))
    with pytest.raises(PreconditionError):
        pushout_square(zero_map, LatticeMap(triv, triv, ((1,),)))


def test_pullback_requires_epi():
    z2 = cyclic_group(2)
    triv = trivial_lattice(z2)
    doubling = LatticeMap(triv, triv, ((2,),))
    with pytest.raises(PreconditionError):
        pullback_square(doubling, LatticeMap(triv, triv, ((1,),)))


def test_verify_square_h0_decisions():
    """H^0 of [0 -> B] is B: x1 and x-1 are units of Z and x2 is not;
    Z -> 0 is onto but not one-to-one (its matrix has no rows)."""
    z2 = cyclic_group(2)
    zero = zero_lattice(z2)
    z = _cx(zero, trivial_lattice(z2), ((),))
    for k, want in ((1, MoveEvidence(True, True)),
                    (-1, MoveEvidence(True, True)),
                    (2, MoveEvidence(True, False))):
        assert verify_square(z, z, (), ((k,),)) == want
    nothing = _cx(zero, zero, ())
    assert verify_square(z, nothing, (), ()) == MoveEvidence(True, False)


def _misshapen(m):
    """A matrix with a column or a row too many or too few, or ragged:
    its last row cut short, or lengthened by a nonzero entry."""
    rows = [list(row) for row in m]
    return [la.freeze(bad) for bad in (
        [row + [0] for row in rows], [row[:-1] for row in rows],
        rows + [[0] * len(rows[0])], rows[:-1],
        rows[:-1] + [rows[-1][:-1]], rows[:-1] + [rows[-1] + [1]])]


def test_verify_square_refuses_a_misshapen_comp_minus1():
    """A map A -> A', or a map B -> B', with a column or a row too many
    or too few, or with a row of another length than the others, is no
    map of the square: the evidence is negative, not an error."""
    move = coflasque_resolution(fixtures.complex_catalog()["z3-aug"])[1] \
        .moves[-1]
    assert move.src.l1.rank and move.tgt.l1.rank
    assert move.src.l2.rank and move.tgt.l2.rank
    assert verify_square(move.src, move.tgt, move.comp_minus1,
                         move.comp0).ok
    for bad in _misshapen(move.comp_minus1):
        assert verify_square(move.src, move.tgt, bad,
                             move.comp0) == MoveEvidence(False, False)
    for bad in _misshapen(move.comp0):
        assert verify_square(move.src, move.tgt, move.comp_minus1,
                             bad) == MoveEvidence(False, False)


def test_pushout_refuses_a_torsion_quotient():
    """Pushing x2 out along x2 on Z would give Z^2 / (2, -2), which has
    torsion: no square of lattices, so the move is refused."""
    triv = trivial_lattice(cyclic_group(2))
    doubling = LatticeMap(triv, triv, ((2,),))
    with pytest.raises(PreconditionError, match="torsion"):
        pushout_square(doubling, doubling)


def test_pullback_accepts_epi():
    z2 = cyclic_group(2)
    z = trivial_lattice(z2)
    g = LatticeMap(trivial_lattice(z2, 2), z, ((2, 3),))  # onto, gcd 1
    pb = pullback_square(g, LatticeMap(z, z, ((1,),)))
    assert pb.fibre.rank == 2
    assert pb.move.evidence.ok


def _ab(t):
    """A complex [L1 -> L2] as the oracles read a side: its A = L1, its
    d, and its B = L2 as a module with no relations."""
    b = FgModule(t.group, t.l2.rank, la.zeros(t.l2.rank, 0), t.l2.action)
    return SimpleNamespace(a=t.l1, d=t.differential.matrix, b=b)


def _preimage(a, rel_cols, n):
    """{x in Z^n : a x in span(rel_cols)}: the kernel of [a | rel], cut
    to the coordinates of a."""
    return la.ColumnSpan(la.columns(a, n) + rel_cols, track=n).kernel()


def _h0_iso_by_smith_form(src, tgt, comp0):
    """The Smith-form route: the cokernel and the kernel of the H^0 map
    presented as subquotients, each trivial."""
    m, n = src.b.ngens, tgt.b.ngens
    s = la.columns(la.hstack(src.d, src.b.relations))
    t = la.columns(la.hstack(tgt.d, tgt.b.relations))
    coker = la.abgroup_from_subquotient(
        la.columns(la.identity(n)), la.columns(comp0) + t, n)
    ker = la.abgroup_from_subquotient(_preimage(comp0, t, m) + s, s, m)
    return coker.is_trivial and ker.is_trivial


def _verify_square_by_separate_solves(src, tgt, comp_minus1, comp0):
    """The earlier ``verify_square``: each question eliminates its own
    matrix, so [comp0 | T] and S are echeloned twice and each side's
    cycle basis comes from its own preimage."""
    if not all(la.mat_mul(comp_minus1, ms) == la.mat_mul(mt, comp_minus1)
               for ms, mt in zip(src.a.action, tgt.a.action)):
        return MoveEvidence(False, False)
    # a product whose right factor has no rows is zero, of the width
    # that factor cannot carry
    comm = la.mat_add(
        la.mat_mul(comp0, src.d) if src.d else la.zeros(len(comp0),
                                                        src.a.rank),
        la.mat_neg(la.mat_mul(tgt.d, comp_minus1) if comp_minus1
                   else la.zeros(len(tgt.d), src.a.rank)))
    equi = [la.mat_add(la.mat_mul(comp0, ms),
                       la.mat_neg(la.mat_mul(mt, comp0)))
            for ms, mt in zip(src.b.action, tgt.b.action)]
    if not la.ColumnSpan(la.columns(tgt.b.relations)).contains(
            la.columns(la.hstack(comm, la.mat_mul(comp0, src.b.relations),
                                 *equi))):
        return MoveEvidence(False, False)

    def cycle_basis(h):
        rel = la.columns(h.b.relations)
        proj = _preimage(h.d, rel, h.a.rank)
        if rel and proj:
            return la.ColumnSpan(proj).basis(h.a.rank)
        return proj

    ks, kt = cycle_basis(src), cycle_basis(tgt)
    imgs = la.columns(la.mat_mul(comp_minus1,
                                 la.from_columns(ks, src.a.rank)))
    try:
        mat = la.from_columns(la.solve_columns(kt, imgs), len(kt))
        hminus_ok = len(ks) == len(kt) and la.is_unimodular(mat)
    except la.SolveError:
        hminus_ok = False
    s = la.hstack(src.d, src.b.relations)
    t = la.hstack(tgt.d, tgt.b.relations)
    h0_ok = la.ColumnSpan(la.columns(la.hstack(comp0, t))).contains(
        la.columns(la.identity(tgt.b.ngens))) \
        and la.ColumnSpan(la.columns(s)).contains(
            _preimage(comp0, la.columns(t), src.b.ngens))
    return MoveEvidence(hminus_ok, h0_ok)


def _square_moves():
    """The pushout and pullback moves of both resolutions of every
    catalog complex."""
    return [move for t in fixtures.complex_catalog().values()
            for resolve in (coflasque_resolution, flasque_resolution)
            for move in resolve(t)[1].moves if move.kind != "duality"]


def _scaled_squares():
    """Each of ``_square_moves`` with both maps scaled by 1, -1, 2 and 0
    (the square still commutes), as (src, tgt, comp_minus1, comp0)."""
    return [(move.src, move.tgt) + tuple(
        tuple(tuple(k * x for x in row) for row in m)
        for m in (move.comp_minus1, move.comp0))
        for move in _square_moves() for k in (1, -1, 2, 0)]


def test_h0_span_solves_match_smith_form_on_catalog_moves():
    """Every pushout and pullback move of the catalog resolutions, with
    both maps scaled by 1, -1, 2 and 0 (the square still commutes): the
    H^0 verdict agrees with the Smith form, and the whole evidence with
    the route that solves each question separately."""
    squares = _scaled_squares()
    assert len(squares) == 432
    verdicts = []
    for src, tgt, cm1, c0 in squares:
        got = verify_square(src, tgt, cm1, c0)
        assert got == _verify_square_by_separate_solves(_ab(src), _ab(tgt),
                                                        cm1, c0)
        assert got.h0_ok == _h0_iso_by_smith_form(_ab(src), _ab(tgt), c0)
        verdicts.append(got)
    assert {v.h0_ok for v in verdicts} == {True, False}
    assert {v.hminus_ok for v in verdicts} == {True, False}


def _moved(m, i, k):
    """``m`` with one entry, picked by ``i``, moved by ``k``."""
    rows = [list(row) for row in m]
    r = i % len(rows)
    c = (i // len(rows)) % len(rows[r])
    rows[r][c] += k
    return la.freeze(rows)


def _forged_squares():
    """Each of ``_square_moves`` with one entry of comp0, and separately
    one of comp_minus1, moved by 1 and by -1, as (src, tgt, comp_minus1,
    comp0)."""
    squares = []
    for i, move in enumerate(_square_moves()):
        cm1, c0 = move.comp_minus1, move.comp0
        for k in (1, -1):
            if c0 and c0[0]:
                squares.append((move.src, move.tgt, cm1, _moved(c0, i, k)))
            if cm1 and cm1[0]:
                squares.append((move.src, move.tgt, _moved(cm1, i, k), c0))
    return squares


def test_forged_squares_match_the_dense_oracle():
    """Every pushout and pullback move of the catalog resolutions, with
    one entry of comp0, and separately one of comp_minus1, moved by 1 and
    by -1: the evidence equals the dense route that solves each question
    separately.  Some forged squares fail on their maps, others pass them
    and fail only on H^0."""
    squares = _forged_squares()
    verdicts = set()
    for src, tgt, cm1_f, c0_f in squares:
        got = verify_square(src, tgt, cm1_f, c0_f)
        assert got == _verify_square_by_separate_solves(
            _ab(src), _ab(tgt), cm1_f, c0_f)
        verdicts.add(got)
    assert len(squares) > 300
    assert verdicts == {MoveEvidence(False, False), MoveEvidence(True, False)}


def test_mapping_cone_decides_as_the_separate_solves(monkeypatch):
    """On the scaled and the forged catalog squares, the mapping cone
    alone (the split route answering (False, False) unasked) accepts
    exactly the squares that the route solving each question separately
    finds ``ok``: it accepts some and refuses others."""
    squares = _scaled_squares() + _forged_squares()
    monkeypatch.setattr(complexes, "_split_evidence",
                        lambda *args: MoveEvidence(False, False))
    verdicts = []
    for src, tgt, cm1, c0 in squares:
        got = verify_square(src, tgt, cm1, c0).ok
        assert got == _verify_square_by_separate_solves(
            _ab(src), _ab(tgt), cm1, c0).ok
        verdicts.append(got)
    assert set(verdicts) == {True, False}


def _cone_columns(src, tgt, cm1, c0):
    """The columns of the two span tests of ``verify_square``, each with
    the n of the Z^n they must span: (a) the rows of d and of
    comp_minus1, (b) the columns of [comp0 | d']."""
    d_src = la.sparse_rows(src.differential.matrix)
    d_tgt = la.sparse_rows(tgt.differential.matrix)
    return ((d_src + la.sparse_rows(cm1), src.l1.rank),
            (la.rows_transpose(la.sparse_rows(c0), src.l2.rank)
             + la.rows_transpose(d_tgt, tgt.l1.rank), tgt.l2.rank))


def test_cone_span_tests_match_the_column_echelon():
    """The (a) and (b) columns of every pushout and pullback move of both
    resolutions of every catalog complex, and of the scaled and forged
    squares: ``spans`` answers as the echelon ``ColumnSpan.spans`` does,
    and both answers occur for each test."""
    verdicts = [set(), set()]
    for square in _scaled_squares() + _forged_squares():
        for side, (cols, n) in enumerate(_cone_columns(*square)):
            got = la.spans(cols, n)
            assert got == la.ColumnSpan(cols).spans(n)
            verdicts[side].add(got)
    assert verdicts == [{True, False}, {True, False}]


def test_no_catalog_move_reaches_the_split_code(monkeypatch):
    """Every pushout and pullback move of both resolutions of every
    catalog complex, built afresh and replayed after a JSON round trip,
    is decided by its mapping cone: H^-1 and H^0 are never taken
    apart."""
    def unreachable(*args):
        raise AssertionError("a catalog move reached the split code")

    real, squares = verify_square, []
    monkeypatch.setattr(complexes, "_split_evidence", unreachable)
    monkeypatch.setattr(complexes, "verify_square",
                        lambda *args: squares.append(args) or real(*args))
    for name, t in fixtures.complex_catalog().items():
        for resolve in (coflasque_resolution, flasque_resolution):
            cert = resolve(_copy(t))[1]
            back = serialize.load_certificate(json.loads(serialize.to_json(
                serialize.dump_certificate(cert))))
            assert cert.valid and replay_certificate(back), name
    # 108 moves, each verified when it is built and when it is replayed
    assert len(squares) == 2 * 108


def test_pushout_pullback_identity_squares():
    z2 = cyclic_group(2)
    reg = regular_lattice(z2)
    ident = LatticeMap(reg, reg, la.identity(2))
    po = pushout_square(ident, ident)
    assert po.move.evidence.ok
    pb = pullback_square(ident, ident)
    assert pb.move.evidence.ok


def _copy(t):
    """A complex with t's content, built from fresh objects."""
    return serialize.load_complex(serialize.dump_complex(t))


def test_uniqueness_invariants_agree_for_same_input():
    """Two separately built copies, each resolved on its own: one complex
    resolved twice would return its cached resolution."""
    t = fixtures.complex_catalog()["z2-aug"]
    r1, _ = flasque_resolution(_copy(t))
    r2, _ = flasque_resolution(_copy(t))
    assert r1 is not r2
    report = uniqueness_invariants(r1, r2)
    assert report.agree


def test_uniqueness_invariants_flag_mismatch():
    z2 = cyclic_group(2)
    sign = sign_lattice(z2, [-1])
    triv = trivial_lattice(z2)
    r1, _ = flasque_resolution(_cx(sign, zero_lattice(z2), ()))
    r2, _ = flasque_resolution(_cx(triv, zero_lattice(z2), ()))
    report = uniqueness_invariants(r1, r2)
    assert not report.agree


def test_uniqueness_group_mismatch():
    """Another table, or the same table with its generators (and the
    action matrices with them) in another order: action matrices are
    summed by generator index, so both are another group here."""
    a = fixtures.complex_catalog()["z2-aug"]
    b = fixtures.complex_catalog()["z3-aug"]
    ra, _ = flasque_resolution(a)
    rb, _ = flasque_resolution(b)
    with pytest.raises(GroupMismatchError):
        uniqueness_invariants(ra, rb)
    t = fixtures.complex_catalog()["s3-coset-aug"]
    obj = serialize.dump_complex(t)
    obj["group"]["generators"].reverse()
    for part in ("l1", "l2"):
        obj[part]["action"].reverse()
    tb = serialize.load_complex(obj)
    tb.validate()
    with pytest.raises(GroupMismatchError):
        uniqueness_invariants(flasque_resolution(tb)[0],
                              flasque_resolution(t)[0])


def test_r_equivalence_invariant():
    t = fixtures.complex_catalog()["sign-deg0"]
    data = r_equivalence_invariant(t)
    assert classify(data.flasque_lattice, "flasque").ok
    _, reps = enumerate_subgroups(t.group)
    assert len(data.table) == len(reps)
    for (members, tate, h1), h in zip(data.table, reps):
        assert members == h.members
        assert tate == tate_cohomology(
            h, data.flasque_lattice, -1).invariant_factors
        assert h1 == group_cohomology(
            h, data.flasque_lattice, 1).invariant_factors


def _classify_by_loop(lat, mode):
    """``classify`` as its own loop over the class representatives, the
    way it ran before ``subgroup_table``."""
    _, reps = enumerate_subgroups(lat.group)
    table = []
    witness = None
    for h in reps:
        if mode == "coflasque":
            cg = group_cohomology(h, lat, 1)
        else:
            cg = tate_cohomology(h, lat, -1)
        table.append((h.members, cg.invariant_factors))
        if cg.invariant_factors and witness is None:
            witness = (h.members, cg.invariant_factors, cg.generators[0])
    return ClassificationVerdict(witness is None, mode, tuple(table), witness)


def _uniqueness_rows_by_loop(res, resp):
    """The rows of ``uniqueness_invariants`` by their own loop."""
    x = direct_sum(res.l2, resp.l1)
    y = direct_sum(resp.l2, res.l1)
    _, reps = enumerate_subgroups(res.group)
    rows = []
    for h in reps:
        fx = len(fixed_points(x, h))
        fy = len(fixed_points(y, h))
        h1x = group_cohomology(h, x, 1).invariant_factors
        h1y = group_cohomology(h, y, 1).invariant_factors
        tx = tate_cohomology(h, x, -1).invariant_factors
        ty = tate_cohomology(h, y, -1).invariant_factors
        rows.append((h.members, (("fixed_rank", fx, fy, fx == fy),
                                 ("h1", h1x, h1y, h1x == h1y),
                                 ("tate_minus1", tx, ty, tx == ty))))
    return tuple(rows)


def test_subgroup_table_matches_per_class_loops():
    """``classify`` (table and witness) in both modes on every catalog
    lattice, every S4 lattice and both sides of every catalog
    resolution; the rows of ``uniqueness_invariants`` for the coflasque
    against the flasque resolution of each catalog complex; the table
    of ``r_equivalence_invariant``; and on every one of those lattices
    the "fixed_rank" column, read off traces, against the length of the
    ``fixed_points`` basis: each as the loops over the class
    representatives computed them."""
    lattices = list(fixtures.lattice_catalog().values())
    lattices += list(S4_LATTICES.values())
    witnesses = 0
    for t in fixtures.complex_catalog().values():
        res_c = coflasque_resolution(t)[0]
        res_f = flasque_resolution(t)[0]
        lattices += [res_c.l1, res_c.l2, res_f.l1, res_f.l2]
        for a, b in ((res_c, res_f), (res_f, res_c)):
            assert uniqueness_invariants(a, b).rows \
                == _uniqueness_rows_by_loop(a, b)
        data = r_equivalence_invariant(t)
        f = data.flasque_lattice
        assert data.table == tuple(
            (h.members, tate_cohomology(h, f, -1).invariant_factors,
             group_cohomology(h, f, 1).invariant_factors)
            for h in enumerate_subgroups(t.group)[1])
    pairs = 0
    for lat in lattices:
        for mode in ("flasque", "coflasque"):
            verdict = classify(lat, mode)
            assert verdict == _classify_by_loop(lat, mode)
            witnesses += verdict.witness is not None
        reps = enumerate_subgroups(lat.group)[1]
        assert subgroup_table(lat, "fixed_rank") == tuple(
            (h.members, len(fixed_points(lat, h))) for h in reps)
        pairs += len(reps)
    assert witnesses > 10
    assert pairs > 600


def test_battery_resolutions_replay():
    for name, t in fixtures.complex_catalog().items():
        resolved, cert = coflasque_resolution(t)
        assert cert.valid, name
        assert replay_certificate(cert), name


def test_acyclic_stays_acyclic():
    z2 = cyclic_group(2)
    reg = regular_lattice(z2)
    t = _cx(reg, reg, la.identity(2))
    resolved, cert = coflasque_resolution(t)
    hminus, h0 = homology(resolved)
    assert hminus.rank == 0
    assert h0.invariant_factors == ()


def test_resolutions_are_kept_on_the_complex():
    """A repeated call returns the same resolved complex and moves, in a
    new certificate whose original is the complex; a flasque
    certificate's duality move is rebuilt too, from the complex."""
    t = fixtures.complex_catalog()["z3-aug"]
    for resolve in (coflasque_resolution, flasque_resolution):
        r1, c1 = resolve(t)
        r2, c2 = resolve(t)
        assert r2 is r1 and c2.resolved is r1 and c2 is not c1
        assert c1.original is t and c2.original is t
        assert all(a is b for a, b in zip(c1.moves[:3], c2.moves[:3]))
        assert all(m.src is t for m in c2.moves[3:])
        assert replay_certificate(c2)


def test_a_separate_copy_resolves_afresh():
    """The cache belongs to one complex object: a copy with the same
    content computes its own moves, with the same certificate JSON."""
    t = fixtures.complex_catalog()["z3-aug"]
    for resolve in (coflasque_resolution, flasque_resolution):
        resolved, cert = resolve(t)
        copy_resolved, copy_cert = resolve(_copy(t))
        assert copy_resolved is not resolved
        assert not any(a is b for a, b in zip(cert.moves, copy_cert.moves))
        assert serialize.to_json(serialize.dump_certificate(copy_cert)) \
            == serialize.to_json(serialize.dump_certificate(cert))


def test_resolution_cache_makes_no_reference_cycle():
    """With the cyclic collector off, a resolved complex is freed as soon
    as the last reference to it goes: nothing cached on it refers back."""
    z2 = cyclic_group(2)
    gc.disable()
    try:
        t = _cx(regular_lattice(z2), trivial_lattice(z2), ((1, 1),))
        ref = weakref.ref(t)
        results = [coflasque_resolution(t), flasque_resolution(t)]
        del t, results
        assert ref() is None
    finally:
        gc.enable()


def _zero_free(rows) -> bool:
    return all(all(row.values()) for row in rows)


def test_sparse_rows_stay_zero_free_and_unmutated():
    """The two invariants of the sparse format, through both resolutions
    of a catalog complex, a replay after a JSON round trip, ``classify``
    in both modes and H^1 and H^2: the cached element and action rows of
    the lattices read are as they were before, and no row that
    ``rows_mul``, ``sparse_rows`` or a presentation built holds a zero.
    H^2(S4, Z) checks rows where bar faces cancel, as at [s|s|s]."""
    t = serialize.load_complex(serialize.dump_complex(
        fixtures.complex_catalog()["z4-coset-aug"]))
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    lattices = (t.l1, t.l2, regular_lattice(s4), trivial_lattice(s4))
    snapshot = copy.deepcopy(
        [(lat.element_rows(), lat.action_rows()) for lat in lattices])
    built = list(lattices)
    for resolve in (coflasque_resolution, flasque_resolution):
        resolved, cert = resolve(t)
        back = serialize.load_certificate(json.loads(serialize.to_json(
            serialize.dump_certificate(cert))))
        assert replay_certificate(back)
        built += [resolved.l1, resolved.l2]
    presentations = []
    for lat in lattices:
        for mode in ("flasque", "coflasque"):
            classify(lat, mode)
        for n in (1, 2):
            pres = group_cohomology(lat.group, lat, n).presentation
            presentations.append(pres)
            assert _zero_free(pres._rows) and _zero_free(pres.check_rows()) \
                and _zero_free(pres._pull or ())
    assert any(pres.check_rows() for pres in presentations)
    assert [(lat.element_rows(), lat.action_rows())
            for lat in lattices] == snapshot
    for lat in built:
        for rows in lat.element_rows() + lat.action_rows():
            assert _zero_free(rows)


def _pushouts():
    """The pushout of ``coflasque_resolution`` of each catalog complex
    and of its dual, along the embedding of its L1."""
    out = []
    for t in fixtures.complex_catalog().values():
        for c in (t, t.dual()):
            out.append(pushout_square(cts_embed_coflasque(c.l1).inclusion,
                                      c.differential))
    return out


def test_pushout_quotient_matches_dense_formula():
    """The quotient's action is pr M(s) sec with M(s) the block-diagonal
    action on A' + B, pr = [d' | comp0] the projection and sec the
    section, as dense products."""
    for po in _pushouts():
        aprime, b = po.move.tgt.l1, po.move.src.l2
        pr = la.hstack(po.tgt_differential.matrix, po.move.comp0)
        assert "action" not in vars(po.quotient)
        assert po.quotient.action == tuple(
            la.mat_mul(la.mat_mul(pr, block_diag(ma, mb)), po.section)
            for ma, mb in zip(aprime.action, b.action))


def test_resolution_builds_no_dense_action():
    """No dense round trip: after the coflasque resolution of a fresh
    copy of each catalog complex, no lattice its moves hold other than
    the complex's own holds a dense ``action``, nor do the lattices Q and
    C of a permutation cover, which no certificate dumps.  The same holds
    after a flasque resolution of another fresh copy: its duality move
    reads the cokernel factors of H^0 without building the module."""
    built = []
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            t = serialize.load_complex(serialize.dump_complex(t))
            cert = resolve(t)[1]
            built += [x for m in cert.moves for side in (m.src, m.tgt)
                      for x in (side.l1, side.l2) if x not in (t.l1, t.l2)]
        cover = cts_cover_coflasque(t.l2)
        built += [cover.q, cover.c]
    assert len(built) > 100
    assert [x for x in built if "action" in vars(x)] == []

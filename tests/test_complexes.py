"""Two-term complexes: homology, vanishing classification, covers,
resolutions, and certificates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_strategies import (S4_LATTICES, small_lattices,
                                unimodular_matrices)

from galmod import intlinalg as la
from galmod import fixtures
from galmod.cohomology import group_cohomology, hypercohomology, \
    tate_cohomology
from galmod.complexes import (ClassificationVerdict, GroupMismatchError,
                              HalfComplex, MoveEvidence, PreconditionError,
                              TwoTermComplex, classify,
                              coflasque_resolution, cts_cover_coflasque,
                              cts_embed_coflasque, flasque_resolution,
                              homology, pullback_square, pushout_square,
                              r_equivalence_invariant, replay_certificate,
                              uniqueness_invariants, verify_square)
from galmod.groups import cyclic_group, enumerate_subgroups
from galmod.lattice import (FgModule, LatticeMap, conjugate_lattice,
                            direct_sum, fixed_points, lattice_as_module,
                            regular_lattice, sign_lattice, trivial_lattice,
                            zero_lattice)


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
    """H^0 of [0 -> B] is B: x3 is a unit mod 4 and x2 is not; Z -> 0 is
    onto but not one-to-one (its matrix has no rows)."""
    z2 = cyclic_group(2)
    zero = zero_lattice(z2)
    z4 = HalfComplex(zero, ((),), FgModule(z2, 1, ((4,),), (la.identity(1),)))
    for k, want in ((1, MoveEvidence(True, True)),
                    (3, MoveEvidence(True, True)),
                    (2, MoveEvidence(True, False))):
        assert verify_square(z4, z4, (), ((k,),)) == want
    z = HalfComplex(zero, ((),), lattice_as_module(trivial_lattice(z2)))
    nothing = HalfComplex(zero, (), lattice_as_module(zero))
    assert verify_square(z, z, (), la.identity(1)).ok
    assert verify_square(z, nothing, (), ()) == MoveEvidence(True, False)


def _misshapen(m):
    """A matrix with a column or a row too many or too few."""
    rows = la.thaw(m)
    return [la.freeze(bad) for bad in (
        [row + [0] for row in rows], [row[:-1] for row in rows],
        rows + [[0] * len(rows[0])], rows[:-1])]


def test_verify_square_refuses_a_misshapen_comp_minus1():
    """A map A -> A', or a map B -> B', with a column or a row too many
    or too few is no map of the square: the evidence is negative, not an
    error."""
    move = coflasque_resolution(fixtures.complex_catalog()["z3-aug"])[1] \
        .moves[-1]
    assert move.src.a.rank and move.tgt.a.rank
    assert move.src.b.ngens and move.tgt.b.ngens
    assert verify_square(move.src, move.tgt, move.comp_minus1,
                         move.comp0).ok
    for bad in _misshapen(move.comp_minus1):
        assert verify_square(move.src, move.tgt, bad,
                             move.comp0) == MoveEvidence(False, False)
    for bad in _misshapen(move.comp0):
        assert verify_square(move.src, move.tgt, move.comp_minus1,
                             bad) == MoveEvidence(False, False)


def test_pushout_with_torsion_quotient():
    """Pushing x2 out along x2 on Z gives Z^2 / (2, -2): torsion, so the
    quotient is a module and the move has no lattice square."""
    triv = trivial_lattice(cyclic_group(2))
    doubling = LatticeMap(triv, triv, ((2,),))
    po = pushout_square(doubling, doubling)
    assert isinstance(po.quotient, FgModule) and po.tgt_differential is None
    assert po.quotient.invariant_factors == (2, 0)
    assert po.move.evidence.ok


def test_pullback_accepts_epi():
    z2 = cyclic_group(2)
    z = trivial_lattice(z2)
    g = LatticeMap(trivial_lattice(z2, 2), z, ((2, 3),))  # onto, gcd 1
    pb = pullback_square(g, LatticeMap(z, z, ((1,),)))
    assert pb.fibre.rank == 2
    assert pb.move.evidence.ok


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


def test_h0_span_solves_match_smith_form_on_catalog_moves():
    """Every pushout and pullback move of the catalog resolutions, with
    both maps scaled by 1, -1, 2 and 0 (the square still commutes), and
    the torsion pushout: the H^0 verdict agrees with the Smith form, and
    the whole evidence with the route that solves each question
    separately."""
    squares = []
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            for move in resolve(t)[1].moves:
                if move.kind == "duality":
                    continue
                for k in (1, -1, 2, 0):
                    squares.append((move.src, move.tgt) + tuple(
                        tuple(tuple(k * x for x in row) for row in m)
                        for m in (move.comp_minus1, move.comp0)))
    assert len(squares) == 432
    triv = trivial_lattice(cyclic_group(2))
    doubling = LatticeMap(triv, triv, ((2,),))
    move = pushout_square(doubling, doubling).move
    squares.append((move.src, move.tgt, move.comp_minus1, move.comp0))
    verdicts = []
    for src, tgt, cm1, c0 in squares:
        got = verify_square(src, tgt, cm1, c0)
        assert got == _verify_square_by_separate_solves(src, tgt, cm1, c0)
        assert got.h0_ok == _h0_iso_by_smith_form(src, tgt, c0)
        verdicts.append(got)
    assert {v.h0_ok for v in verdicts} == {True, False}
    assert {v.hminus_ok for v in verdicts} == {True, False}


def _moved(m, i, k):
    """``m`` with one entry, picked by ``i``, moved by ``k``."""
    rows = la.thaw(m)
    r = i % len(rows)
    c = (i // len(rows)) % len(rows[r])
    rows[r][c] += k
    return la.freeze(rows)


def test_forged_squares_match_the_dense_oracle():
    """Every pushout and pullback move of the catalog resolutions, whose
    targets are lattices, and the torsion pushout, whose target has
    relations, with one entry of comp0, and separately one of
    comp_minus1, moved by 1 and by -1: the evidence equals the dense
    route that solves each question separately.  Some forged squares
    fail on their maps, others pass them and fail only on H^0."""
    moves = [move for t in fixtures.complex_catalog().values()
             for resolve in (coflasque_resolution, flasque_resolution)
             for move in resolve(t)[1].moves if move.kind != "duality"]
    triv = trivial_lattice(cyclic_group(2))
    doubling = LatticeMap(triv, triv, ((2,),))
    moves.append(pushout_square(doubling, doubling).move)
    assert la.shape(moves[-1].tgt.b.relations)[1]
    verdicts, forged = set(), 0
    for i, move in enumerate(moves):
        cm1, c0 = move.comp_minus1, move.comp0
        squares = []
        for k in (1, -1):
            if c0 and c0[0]:
                squares.append((cm1, _moved(c0, i, k)))
            if cm1 and cm1[0]:
                squares.append((_moved(cm1, i, k), c0))
        for cm1_f, c0_f in squares:
            got = verify_square(move.src, move.tgt, cm1_f, c0_f)
            assert got == _verify_square_by_separate_solves(
                move.src, move.tgt, cm1_f, c0_f)
            verdicts.add(got)
            forged += 1
    assert forged > 300
    assert verdicts == {MoveEvidence(False, False), MoveEvidence(True, False)}


def test_pushout_pullback_identity_squares():
    z2 = cyclic_group(2)
    reg = regular_lattice(z2)
    ident = LatticeMap(reg, reg, la.identity(2))
    po = pushout_square(ident, ident)
    assert po.move.evidence.ok
    pb = pullback_square(ident, ident)
    assert pb.move.evidence.ok


def test_uniqueness_invariants_agree_for_same_input():
    t = fixtures.complex_catalog()["z2-aug"]
    r1, _ = flasque_resolution(t)
    r2, _ = flasque_resolution(t)
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
    a = fixtures.complex_catalog()["z2-aug"]
    b = fixtures.complex_catalog()["z3-aug"]
    ra, _ = flasque_resolution(a)
    rb, _ = flasque_resolution(b)
    with pytest.raises(GroupMismatchError):
        uniqueness_invariants(ra, rb)


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
    against the flasque resolution of each catalog complex; and the table
    of ``r_equivalence_invariant``: each as the loops over the class
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
    for lat in lattices:
        for mode in ("flasque", "coflasque"):
            verdict = classify(lat, mode)
            assert verdict == _classify_by_loop(lat, mode)
            witnesses += verdict.witness is not None
    assert witnesses > 10


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

"""Two-term complexes of G-lattices and their flasque / coflasque
resolutions.

A two-term complex [L1 -> L2] places L1 in degree -1 and L2 in degree 0.
Resolutions are built from two elementary quasi-isomorphism moves (pushout
along a monomorphism, pullback along an epimorphism) plus dualization.
Every term is a lattice, as in Colliot-Thelene--Sansuc: a pushout whose
quotient would carry torsion is refused.  Each move is a square of
complexes, re-verified on the spot by ``verify_square`` and kept once, in
its ``CertificateMove``; a pushout or pullback result adds only what the
next step reads.  The square's mapping cone decides it: two span tests
(``intlinalg.spans``, which keeps no echelon) and a rank count say
whether the cone is acyclic, that is whether the square is a
quasi-isomorphism.  Only a square that fails is taken apart into its
maps on H^-1 and H^0, to say which of them it fails on.  The full chain
of moves is returned as a replayable certificate; replay also checks
that the moves lead from the original complex to the resolved one, the
embedding move included: its target lattice must be the dual of the
lattice the next pushout embeds into, and that the resolved permutation
lattice is one (``GLattice.is_permutation_certified``, read off its
rows).
Each complex keeps its two resolutions, computed once, as
``cached_property`` values; the certificate, which refers back to the
complex, is built on each call, so the cache makes no reference cycle.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional

from . import intlinalg as la
from .cohomology import group_cohomology, tate_cohomology
from .frozen import Frozen
from .groups import coset_action, enumerate_subgroups, subgroup
from .intlinalg import IntMatrix
from .lattice import (FgModule, GLattice, LatticeMap, Rows, direct_sum,
                      dual_lattice, dual_map, fixed_points, fixed_rank,
                      has_shape, induced_action_on_sublattice,
                      is_equivariant, make_permutation_lattice)


class PreconditionError(Exception):
    """A map fails the mono / epi precondition of an elementary move."""


class GroupMismatchError(Exception):
    pass


class TwoTermComplex(Frozen):
    """[L1 -> L2] with L1 in degree -1 and L2 in degree 0."""

    _fields = ("l1", "l2", "differential")

    def __init__(self, l1: GLattice, l2: GLattice, differential: LatticeMap):
        if differential.source is not l1 or differential.target is not l2:
            raise ValueError("differential must map l1 to l2")
        vars(self).update(l1=l1, l2=l2, differential=differential)

    @property
    def group(self):
        return self.l1.group

    def validate(self) -> None:
        """Check that both lattices carry a group action and that the
        differential is equivariant."""
        self.l1.validate()
        self.l2.validate()
        self.differential.validate()

    @cached_property
    def _coflasque(self) -> tuple:
        """``_coflasque_parts``, computed once per complex."""
        return _coflasque_parts(self)

    @cached_property
    def _flasque(self) -> tuple:
        """``_flasque_parts``, computed once per complex."""
        return _flasque_parts(self)

    def dual(self) -> "TwoTermComplex":
        d = dual_map(self.differential)
        return TwoTermComplex(d.source, d.target, d)

    def __repr__(self):
        return f"TwoTermComplex([{self.l1.rank} -> {self.l2.rank}])"


def _cycles(d: Rows, n: int):
    """The columns of the differential d with these sparse rows on an
    L1 of rank n, their echelon, tracked, and the basis of H^-1 = ker d
    it gives, each column {index: entry}."""
    cols = la.rows_transpose(d, n)
    span = la.ColumnSpan(cols, track=n)
    return cols, span, span.sparse_kernel()


def homology(t: TwoTermComplex) -> tuple[GLattice, FgModule]:
    """(H^-1, H^0): the saturated kernel lattice and the cokernel module."""
    return _hminus_one(t), FgModule.from_rows(
        t.group, t.l2.rank, t.differential.matrix, t.l2.action_rows())


def _hminus_one(t: TwoTermComplex) -> GLattice:
    """H^-1, the saturated kernel lattice of the differential."""
    return induced_action_on_sublattice(t.l1, _cycles(
        la.sparse_rows(t.differential.matrix), t.l1.rank)[2])


# ---------------------------------------------------------------------------
# Quasi-isomorphism verification.

class MoveEvidence(NamedTuple):
    """The verdict on a square: whether it induces isomorphisms on H^-1
    and on H^0.  ``verify_square`` decides a square by its mapping cone
    and gives (True, True) for an acyclic one; only a failing square is
    taken apart, so its two fields say which homology group it fails
    on."""

    hminus_ok: bool
    h0_ok: bool

    @property
    def ok(self) -> bool:
        return self.hminus_ok and self.h0_ok


def verify_square(src: TwoTermComplex, tgt: TwoTermComplex,
                  comp_minus1: IntMatrix, comp0: IntMatrix) -> MoveEvidence:
    """Check that a square [L1 -> L2] -> [L1' -> L2'] is a
    quasi-isomorphism of complexes of G-lattices: that its maps are
    G-equivariant, that it commutes, and that its mapping cone is
    acyclic.

    All four lattices must be over one group table and generators, so
    that generator index s means the same element on both sides.
    comp_minus1 must be a map L1 -> L1' and comp0 a map L2 -> L2' by
    shape, every row read (``lattice.has_shape``), each equivariant
    (``lattice.is_equivariant``), and comp0 d = d' comp_minus1 must hold
    exactly, all on sparse rows: each map is converted to them once, and
    its columns are their transpose.  Any of these failing gives
    (False, False).

    With n, m, n', m' the ranks of L1, L2, L1', L2', the cone is
    Z^n -> Z^m + Z^n' -> Z^m', with x -> (-d x, comp_minus1 x) and
    (y, z) -> comp0 y + d' z; the square commutes, so it is a complex.
    Lemma: the cone is acyclic iff (a) the rows of d and of comp_minus1
    span Z^n, (b) the columns of [comp0 | d'] span Z^m', and (c)
    n + m' = m + n'.  Proof: (a) says the first map has a left inverse,
    so it is one-to-one with a saturated image I of rank n; (b) says the
    last map is onto Z^m', which is free, so its kernel K is a direct
    summand, saturated, of rank m + n' - m'.  The composite is zero, so
    I lies in K, and by (c) they have one rank; I is saturated, so K / I
    is torsion-free of rank 0, that is I = K.  Conversely an acyclic
    cone is split exact (its terms are free), which gives (a) and (b),
    and its ranks alternate to zero, which is (c).  By the long exact
    sequence of the cone, H^k(src) -> H^k(tgt) -> H^k(cone) ->
    H^(k+1)(src), the square is a quasi-isomorphism iff its cone is
    acyclic.  (a) and (b) are one ``la.spans`` call each, a yes/no test
    in a fill-reducing row order that keeps no echelon, and no Smith
    form runs.

    A square whose cone is not acyclic is taken apart by
    ``_split_evidence``, which says whether it fails on H^-1, on H^0 or
    on both."""
    if not all(src.l1.group.same_presentation(x.group)
               for x in (src.l2, tgt.l1, tgt.l2)):
        return MoveEvidence(False, False)
    n, m, n_t, m_t = src.l1.rank, src.l2.rank, tgt.l1.rank, tgt.l2.rank
    if not (has_shape(comp_minus1, n_t, n) and has_shape(comp0, m_t, m)):
        return MoveEvidence(False, False)
    cm1, c0 = la.sparse_rows(comp_minus1), la.sparse_rows(comp0)
    d_src = la.sparse_rows(src.differential.matrix)
    d_tgt = la.sparse_rows(tgt.differential.matrix)
    if not (is_equivariant(cm1, src.l1, tgt.l1)
            and is_equivariant(c0, src.l2, tgt.l2)
            and la.rows_mul(c0, d_src) == la.rows_mul(d_tgt, cm1)):
        return MoveEvidence(False, False)
    if n + m_t == m + n_t and la.spans(d_src + cm1, n) \
            and la.spans(la.rows_transpose(c0, m)
                         + la.rows_transpose(d_tgt, n_t), m_t):
        return MoveEvidence(True, True)
    return _split_evidence(src, tgt, cm1, c0, d_src, d_tgt)


def _split_evidence(src: TwoTermComplex, tgt: TwoTermComplex, cm1: Rows,
                    c0: Rows, d_src: Rows, d_tgt: Rows) -> MoveEvidence:
    """The evidence of a commuting square of equivariant maps, given as
    sparse rows, with H^-1 and H^0 taken apart: ``verify_square`` calls
    it only when the mapping cone is not acyclic, to say where the
    square fails.

    H^-1 is free on the cycle bases, so its map is an isomorphism iff its
    matrix on them is square and unimodular.  H^0 is
    Z^m / span(d) -> Z^m' / span(d'): it is onto iff the columns of
    [comp0 | d'] span Z^m', and one-to-one iff the preimage of span(d')
    under comp0 lies in span(d).  The echelon of d gives the cycle basis
    of H^-1 (its kernel) and answers membership in span(d); one tracked
    echelon of [comp0 | d'] answers "onto" (its pivots) and gives the
    preimage (its kernel, recorded on the first m coordinates)."""
    _, s, ks = _cycles(d_src, src.l1.rank)
    t_cols, _, kt = _cycles(d_tgt, tgt.l1.rank)
    imgs = la.rows_transpose(la.rows_mul(
        cm1, la.rows_transpose(ks, src.l1.rank)), len(ks))
    try:
        mat = la.from_columns(la.solve_columns(kt, imgs), len(kt))
        hminus_ok = len(ks) == len(kt) and la.is_unimodular(mat)
    except la.SolveError:
        hminus_ok = False
    h0 = la.ColumnSpan(la.rows_transpose(c0, src.l2.rank) + t_cols,
                       track=src.l2.rank)
    h0_ok = h0.spans(tgt.l2.rank) and s.contains(h0.sparse_kernel())
    return MoveEvidence(hminus_ok, h0_ok)


def _homology_stats(t: TwoTermComplex):
    """Observable homology data preserved by quasi-isomorphism: cokernel
    invariant factors, kernel rank, and per-subgroup fixed ranks of the
    kernel lattice.  The cokernel factors are those of H^0, read without
    building its module, which would densify L2's action."""
    hminus = _hminus_one(t)
    fixed_ranks = tuple(r for _, r in subgroup_table(hminus, "fixed_rank"))
    h0_factors = la.hom_cokernel(t.differential.matrix, ()).factors
    return h0_factors, hminus.rank, fixed_ranks


class CertificateMove(NamedTuple):
    """One elementary step of a resolution, with replay data: the one
    record of a move's square."""

    kind: str  # pushout-mono | pullback-epi | duality
    src: TwoTermComplex
    tgt: TwoTermComplex
    comp_minus1: Optional[IntMatrix]
    comp0: Optional[IntMatrix]
    evidence: MoveEvidence


def _square_move(kind: str, src: TwoTermComplex, tgt: TwoTermComplex,
                 comp_minus1: IntMatrix, comp0: IntMatrix) -> CertificateMove:
    """A pushout or pullback move, its square certified on the spot."""
    return CertificateMove(kind, src, tgt, comp_minus1, comp0,
                           verify_square(src, tgt, comp_minus1, comp0))


def replay_move(move: CertificateMove) -> MoveEvidence:
    """Recompute a move's evidence from scratch."""
    if move.kind == "duality":
        return MoveEvidence(*_duality_evidence(move.src, move.tgt))
    return verify_square(move.src, move.tgt, move.comp_minus1, move.comp0)


def _duality_evidence(a: TwoTermComplex, b: TwoTermComplex):
    sa = _homology_stats(a)
    sb = _homology_stats(b)
    # kernel side: rank and fixed ranks; cokernel side: invariant factors
    return (sa[1] == sb[1] and sa[2] == sb[2], sa[0] == sb[0])


# ---------------------------------------------------------------------------
# Elementary moves.

class PushoutResult(NamedTuple):
    """The quotient lattice B', the certified move, the section
    B' -> A' + B and the differential A' -> B'."""

    quotient: GLattice
    move: CertificateMove
    section: IntMatrix  # quotient coords -> A'+B coords
    tgt_differential: LatticeMap  # A' -> quotient


def pushout_square(f: LatticeMap, d: LatticeMap) -> PushoutResult:
    """B' = A' + B modulo the antidiagonal image of A, for f: A -> A' mono
    and d: A -> B; the square [A -> B] -> [A' -> B'] is certified a
    quasi-isomorphism.  B' must be a lattice: the antidiagonal image must
    be saturated."""
    if f.source is not d.source:
        raise GroupMismatchError("moves must share the corner lattice")
    a, aprime, b = f.source, f.target, d.target
    if la.ColumnSpan(la.columns(f.matrix, a.rank)).rank != a.rank:
        raise PreconditionError("pushout requires a monomorphism")
    n = aprime.rank + b.rank
    coker = la.hom_cokernel(la.vstack(f.matrix, la.mat_neg(d.matrix)), ())
    if any(coker.factors):
        raise PreconditionError("pushout quotient has torsion")
    # B' is free of rank k.  pr: A' + B -> B', the rows ``reduce``
    # applies (rows of the Smith form's U past the rank); sec: the
    # generators, columns of U^{-1} past it.  pr times each injection is
    # a slice of pr.
    k = len(coker.factors)
    pr_rows = coker._rows
    sec = la.transpose_shaped(coker.generators, n, k)
    sec_rows = la.sparse_rows(sec)
    quo = GLattice.from_rows(a.group, k, tuple(
        la.rows_mul(la.rows_mul(pr_rows, m), sec_rows)
        for m in direct_sum(aprime, b).action_rows()))
    pr = la.dense_rows(pr_rows, n)  # for the two maps' matrices
    d_tgt = LatticeMap(aprime, quo, tuple(row[:aprime.rank] for row in pr))
    move = _square_move("pushout-mono", TwoTermComplex(a, b, d),
                        TwoTermComplex(aprime, quo, d_tgt),
                        f.matrix, tuple(row[aprime.rank:] for row in pr))
    return PushoutResult(quo, move, sec, d_tgt)


class PullbackResult(NamedTuple):
    """The complex [A -> B'] over the fibre A, and the certified move
    from it to [A' -> B]."""

    source: TwoTermComplex
    move: CertificateMove

    @property
    def fibre(self) -> GLattice:
        return self.source.l1


def pullback_square(g: LatticeMap, dprime: LatticeMap) -> PullbackResult:
    """A = B' x_B A' for g: B' -> B epi and d': A' -> B; the square
    [A -> B'] -> [A' -> B] is certified a quasi-isomorphism."""
    if g.target is not dprime.target:
        raise GroupMismatchError("moves must share the corner lattice")
    bprime, b, aprime = g.source, g.target, dprime.source
    if not la.spans(la.columns(g.matrix), b.rank):
        raise PreconditionError("pullback requires an epimorphism")
    amb = direct_sum(bprime, aprime)
    diff = la.hstack(g.matrix, la.mat_neg(dprime.matrix))
    kb = la.ColumnSpan(la.columns(diff, amb.rank),
                       track=amb.rank).sparse_kernel()
    fibre = induced_action_on_sublattice(amb, kb)
    # the fibre basis in B' + A' coordinates, cut into its two parts
    incl = la.dense_rows(la.rows_transpose(kb, amb.rank), len(kb))
    top, bottom = incl[:bprime.rank], incl[bprime.rank:]
    src = TwoTermComplex(fibre, bprime, LatticeMap(fibre, bprime, top))
    return PullbackResult(src, _square_move(
        "pullback-epi", src, TwoTermComplex(aprime, b, dprime), bottom,
        g.matrix))


# ---------------------------------------------------------------------------
# The subgroup-class walk and the classification predicates.

def _cohomology(kind: str, h, lat: GLattice):
    if kind == "h1":
        return group_cohomology(h, lat, 1)
    return tate_cohomology(h, lat, -1)


_TABLE_KINDS = {
    "fixed_rank": lambda h, lat: fixed_rank(
        [lat.element_rows()[m] for m in h.members], h.order),
    "h1": lambda h, lat: _cohomology("h1", h, lat).invariant_factors,
    "tate_minus1":
        lambda h, lat: _cohomology("tate_minus1", h, lat).invariant_factors,
}


def subgroup_table(lat: GLattice, *kinds: str) -> tuple:
    """One row per subgroup conjugacy representative H of ``lat.group``,
    in the order of ``enumerate_subgroups``: H's members, then for each
    kind in turn rank L^H ("fixed_rank"), or the invariant factors of
    H^1(H, L) ("h1") or of Tate H^-1(H, L) ("tate_minus1")."""
    _, reps = enumerate_subgroups(lat.group)
    return tuple((h.members,) + tuple(_TABLE_KINDS[k](h, lat) for k in kinds)
                 for h in reps)


class ClassificationVerdict(NamedTuple):
    ok: bool
    mode: str
    table: tuple  # ((subgroup members, invariant factors), ...)
    witness: Optional[tuple]  # (members, factors, cocycle vector)


def classify(lat: GLattice, mode: str) -> ClassificationVerdict:
    """Exhaustive vanishing check over subgroup conjugacy representatives:
    flasque means Tate H^-1(H, L) = 0 for all H, coflasque means
    H^1(H, L) = 0 for all H.

    Vanishing is decided inside ``group_cohomology`` and
    ``tate_cohomology``, by ranks mod p (cohomology module docstring);
    a Smith form runs only for a group that does not vanish, which gives
    the factors and the witness."""
    if mode not in ("flasque", "coflasque"):
        raise ValueError(f"unknown mode {mode!r}")
    kind = "h1" if mode == "coflasque" else "tate_minus1"
    table = subgroup_table(lat, kind)
    witness = next((row for row in table if row[1]), None)
    if witness is not None:
        # a cache hit: the table's own answer for that subgroup
        cg = _cohomology(kind, subgroup(lat.group, witness[0]), lat)
        witness += (cg.generators[0],)
    return ClassificationVerdict(witness is None, mode, table, witness)


def _require(lat: GLattice, mode: str, what: str) -> ClassificationVerdict:
    """``classify`` a lattice that a construction guarantees to pass."""
    verdict = classify(lat, mode)
    if not verdict.ok:
        raise RuntimeError(f"{what} failed the {mode} check")
    return verdict


# ---------------------------------------------------------------------------
# The cover / embedding exact sequences.

class CoverSequence(NamedTuple):
    """0 -> C -> Q -> M -> 0 with Q permutation and C coflasque."""

    q: GLattice
    c: GLattice
    inclusion: LatticeMap  # C -> Q
    projection: LatticeMap  # Q -> M


def cts_cover_coflasque(m: GLattice) -> CoverSequence:
    """Permutation cover 0 -> C -> Q -> M -> 0 whose fixed points
    surject onto M^H for every subgroup H.

    Conjugacy representatives are processed in decreasing order; a
    summand Z[G/H] is added only for generators of M^H not already hit
    by the partial cover, which keeps the rank small.
    """
    group = m.group
    rows = m.element_rows()
    _, reps = enumerate_subgroups(group)
    # (handle, coset space, images M(rep_c) gen of the generator per coset)
    summands = []
    for k in sorted(reps, key=lambda h: (-h.order, h.members)):
        fix = fixed_points(m, k)
        if not fix:
            continue
        image_cols = []
        for _, cs, images in summands:
            for orbit in cs.orbits(k.members):
                vec = [0] * m.rank
                for c in orbit:
                    for i, x in enumerate(images[c]):
                        vec[i] += x
                image_cols.append(vec)
        gap = la.abgroup_from_subquotient(fix, image_cols, m.rank)
        cs = coset_action(group, k) if gap.generators else None
        for gen in gap.generators:
            summands.append((k, cs, [la.rows_apply(rows[rep], gen)
                                     for rep in cs.representatives]))
    q = make_permutation_lattice(group, [h for h, _, _ in summands])
    images = [img for _, _, images in summands for img in images]
    # the kernel C of Q -> M, eliminated straight from the image columns
    cb = la.ColumnSpan(images, track=q.rank).sparse_kernel()
    c = induced_action_on_sublattice(q, cb)
    inclusion = LatticeMap(c, q, la.dense_rows(
        la.rows_transpose(cb, q.rank), len(cb)))
    proj_mat = la.from_columns(images, m.rank)
    _require(c, "coflasque", "cover kernel")
    return CoverSequence(q, c, inclusion, LatticeMap(q, m, proj_mat))


class EmbedSequence(NamedTuple):
    """0 -> L -> C1 -> Q1 -> 0 with C1 coflasque and Q1 permutation."""

    l: GLattice
    c1: GLattice
    q1: GLattice
    inclusion: LatticeMap  # L -> C1
    projection: LatticeMap  # C1 -> Q1
    moves: tuple[CertificateMove, ...]


def cts_embed_coflasque(lat: GLattice) -> EmbedSequence:
    """Embed a lattice into a coflasque lattice with permutation quotient.

    Built from two permutation covers and a pushout: cover the dual,
    cover the dual of its kernel, push the two out over the kernel, and
    dualize the resulting sequence.
    """
    ldual = dual_lattice(lat)
    cov1 = cts_cover_coflasque(ldual)  # 0 -> C -> Q -> L* -> 0
    cdual = dual_lattice(cov1.c)
    cov2 = cts_cover_coflasque(cdual)  # 0 -> C2 -> P -> C* -> 0
    p1 = dual_lattice(cov2.q)
    # dual of P -> C* is the embedding C -> P1 with torsion-free quotient
    iota = LatticeMap(cov1.c, p1, la.transpose_shaped(
        cov2.projection.matrix, p1.rank, cov1.c.rank))
    po = pushout_square(iota, cov1.inclusion)
    e = po.quotient
    # E -> L*: kill P1, project Q; factors through the quotient
    zero_part = la.zeros(ldual.rank, p1.rank)
    e_to_ldual = LatticeMap(e, ldual, la.mat_mul(
        la.hstack(zero_part, cov1.projection.matrix), po.section))
    c1 = dual_lattice(e)
    q1 = dual_lattice(p1)
    inclusion = LatticeMap(lat, c1, la.transpose_shaped(
        e_to_ldual.matrix, c1.rank, lat.rank))
    projection = LatticeMap(c1, q1, la.transpose_shaped(
        po.tgt_differential.matrix, q1.rank, c1.rank))
    if not la.is_zero(la.mat_mul(projection.matrix, inclusion.matrix)):
        raise RuntimeError("embedding sequence is not a complex")
    if c1.rank != lat.rank + q1.rank:
        raise RuntimeError("embedding sequence rank mismatch")
    _require(c1, "coflasque", "embedding target")
    return EmbedSequence(lat, c1, q1, inclusion, projection, (po.move,))


# ---------------------------------------------------------------------------
# Theorem-level resolutions with certificates.

class ResolutionCertificate(NamedTuple):
    """Replayable evidence that ``resolved`` is quasi-isomorphic to
    ``original`` and satisfies the vanishing conditions."""

    mode: str  # flasque | coflasque
    original: TwoTermComplex
    resolved: TwoTermComplex
    moves: tuple[CertificateMove, ...]
    vanishing_table: tuple

    @property
    def valid(self) -> bool:
        return all(m.evidence.ok for m in self.moves)


def _content(t: TwoTermComplex) -> tuple:
    """A complex by value: a loaded certificate holds fresh objects, so
    its complexes are compared by content."""
    return (t.group.table, t.group.generators, t.l1.rank,
            t.l1.action_rows(), tuple(map(tuple, t.differential.matrix)),
            t.l2.rank, t.l2.action_rows())


def _contragredient(e: GLattice, c1: GLattice) -> bool:
    """Whether ``c1`` is the dual of ``e``: the same group table and
    generators, the same rank, and M_C1(s)^T M_E(s) = 1 for every
    generator index s, on sparse rows."""
    if not e.group.same_presentation(c1.group) or e.rank != c1.rank:
        return False
    ident = tuple({i: 1} for i in range(c1.rank))
    return all(
        la.rows_mul(la.rows_transpose(mc, c1.rank), me) == ident
        for mc, me in zip(c1.action_rows(), e.action_rows()))


def _connects(cert: ResolutionCertificate) -> bool:
    """Whether the moves lead from ``original`` to ``resolved``.  A
    coflasque certificate has three moves.  The first, the pushout of
    ``cts_embed_coflasque``, ends at a lattice E whose dual is the
    coflasque lattice C1 the second pushout embeds the original's L1
    into; that pushout starts at the original complex, the pullback
    after it at the resolved one, and the two end at one complex.  A
    flasque certificate does this for the duals, then ends with the
    duality move from the original to the resolved complex."""
    moves, original, resolved = cert.moves, cert.original, cert.resolved
    if cert.mode == "flasque":
        if not moves or moves[-1].kind != "duality" \
                or _content(moves[-1].src) != _content(original) \
                or _content(moves[-1].tgt) != _content(resolved):
            return False
        moves, original, resolved = moves[:-1], original.dual(), \
            resolved.dual()
    if len(moves) != 3:
        return False
    embed, po, pb = moves
    return (embed.kind, po.kind, pb.kind) \
        == ("pushout-mono", "pushout-mono", "pullback-epi") \
        and _contragredient(embed.tgt.l2, po.tgt.l1) \
        and _content(po.src) == _content(original) \
        and _content(pb.src) == _content(resolved) \
        and _content(po.tgt) == _content(pb.tgt)


def replay_certificate(cert: ResolutionCertificate) -> bool:
    """Check that the moves connect ``original`` to ``resolved``, that
    the permutation side (Q of [C -> Q], P of [P -> F]) permutes its
    basis, re-verify every move and recompute the vanishing table of the
    other side."""
    perm, side = (cert.resolved.l2, cert.resolved.l1) \
        if cert.mode == "coflasque" else (cert.resolved.l1, cert.resolved.l2)
    if not (_connects(cert) and perm.is_permutation_certified):
        return False
    for move in cert.moves:
        if not replay_move(move).ok:
            return False
    verdict = classify(side, cert.mode)
    return verdict.ok and verdict.table == cert.vanishing_table


def _coflasque_parts(t: TwoTermComplex) -> tuple:
    """(resolved, moves, vanishing table) of the coflasque resolution.
    The moves hold t's lattices and differential but not t itself, so
    caching the parts on t makes no reference cycle."""
    embed = cts_embed_coflasque(t.l1)
    po = pushout_square(embed.inclusion, t.differential)
    cover = cts_cover_coflasque(po.quotient)
    pb = pullback_square(cover.projection, po.tgt_differential)
    resolved = pb.source
    verdict = _require(resolved.l1, "coflasque", "resolved complex")
    return resolved, embed.moves + (po.move, pb.move), verdict.table


def _flasque_parts(t: TwoTermComplex) -> tuple:
    """(resolved, moves on the dual side, duality evidence, vanishing
    table) of the flasque resolution: the entrywise dual of the
    coflasque resolution of the dual complex.  The duality move, whose
    source is t, is left out, so caching the parts on t makes no
    reference cycle."""
    cof, cert_dual = coflasque_resolution(t.dual())
    resolved = cof.dual()
    verdict = _require(resolved.l2, "flasque", "resolved complex")
    dual_ev = MoveEvidence(*_duality_evidence(t, resolved))
    return resolved, cert_dual.moves, dual_ev, verdict.table


def coflasque_resolution(t: TwoTermComplex) -> tuple[TwoTermComplex,
                                                     ResolutionCertificate]:
    """Quasi-isomorphic [C -> Q] with C coflasque and Q permutation.

    The moves are computed once per complex and kept on it; each call
    returns the same resolved complex and moves in a new certificate."""
    resolved, moves, table = t._coflasque
    return resolved, ResolutionCertificate("coflasque", t, resolved, moves,
                                           table)


def flasque_resolution(t: TwoTermComplex) -> tuple[TwoTermComplex,
                                                   ResolutionCertificate]:
    """Quasi-isomorphic [P -> F] with P permutation and F flasque,
    computed as the entrywise dual of the coflasque resolution of the
    dual complex.

    As for ``coflasque_resolution``, the resolution is computed once per
    complex; the duality move and the certificate are built on each
    call."""
    resolved, moves, dual_ev, table = t._flasque
    duality_move = CertificateMove("duality", t, resolved, None, None,
                                   dual_ev)
    return resolved, ResolutionCertificate(
        "flasque", t, resolved, moves + (duality_move,), table)


# ---------------------------------------------------------------------------
# Uniqueness invariants and the R-equivalence avatar.

class UniquenessReport(NamedTuple):
    agree: bool
    rank_pair: tuple[int, int]
    rows: tuple  # per subgroup rep: (members, per-invariant (x, y, agree))


def uniqueness_invariants(res: TwoTermComplex,
                          resp: TwoTermComplex) -> UniquenessReport:
    """Necessary conditions for F + P' and F' + P to be isomorphic,
    compared over every subgroup conjugacy representative."""
    if not res.group.same_presentation(resp.group):
        raise GroupMismatchError("resolutions over different groups")
    x = direct_sum(res.l2, resp.l1)
    y = direct_sum(resp.l2, res.l1)
    kinds = ("fixed_rank", "h1", "tate_minus1")
    rows = tuple(
        (members, tuple((k, a, b, a == b) for k, a, b in zip(kinds, vx, vy)))
        for (members, *vx), (_, *vy) in zip(subgroup_table(x, *kinds),
                                            subgroup_table(y, *kinds)))
    agree = x.rank == y.rank and all(c[3] for _, cells in rows
                                     for c in cells)
    return UniquenessReport(agree, (x.rank, y.rank), rows)


class REquivalenceData(NamedTuple):
    flasque_lattice: GLattice
    table: tuple  # per subgroup rep: (members, tate^-1 factors, h1 factors)
    certificate: ResolutionCertificate


def r_equivalence_invariant(t: TwoTermComplex) -> REquivalenceData:
    """The flasque lattice controlling R-equivalence classes, with its
    per-subgroup cohomology table."""
    resolved, cert = flasque_resolution(t)
    f = resolved.l2
    return REquivalenceData(f, subgroup_table(f, "tate_minus1", "h1"), cert)

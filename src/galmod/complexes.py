"""Two-term complexes of G-lattices and their flasque / coflasque
resolutions.

A two-term complex [L1 -> L2] places L1 in degree -1 and L2 in degree 0.
Resolutions are built from two elementary quasi-isomorphism moves (pushout
along a monomorphism, pullback along an epimorphism) plus dualization, and
every move is re-verified on the spot by ``verify_square``.  Its maps
must have the shapes of the square's sides.  They must be G-equivariant
(comp0 modulo the target's relations), and the square must commute
modulo those relations.  Both are residuals formed as products of
sparse rows, on the sides' cached ``action_rows``, whose columns must
lie in the relation span: {0} for a lattice target.  The induced map on
H^-1 must have a square unimodular matrix on the cycle bases, and the
induced map on H^0 must be onto and one-to-one (read off one echelon of
[comp0 | T] and the echelon of S that also gives the cycles; each
records only the kernel coordinates it returns; every span question
goes through ``intlinalg.ColumnSpan``).  The pushout reads its quotient
off ``intlinalg.hom_cokernel`` of the antidiagonal map and forms the
quotient action pr M sec on sparse rows too.
Each square is kept once, in its ``CertificateMove``, which holds both
sides and both maps; a pushout or pullback result adds only what the
next step reads.  The full chain of moves is returned as a replayable
certificate; replay also checks that the moves lead from the original
complex to the resolved one, the embedding move included: its target
lattice must be the dual of the lattice the next pushout embeds into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import intlinalg as la
from .cohomology import group_cohomology, tate_cohomology
from .groups import coset_action, enumerate_subgroups, subgroup
from .intlinalg import IntMatrix
from .lattice import (FgModule, GLattice, LatticeMap, Rows, direct_sum,
                      dual_lattice, fixed_points,
                      induced_action_on_sublattice, is_equivariant,
                      lattice_as_module, make_permutation_lattice)


class PreconditionError(Exception):
    """A map fails the mono / epi precondition of an elementary move."""


class GroupMismatchError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class TwoTermComplex:
    """[L1 -> L2] with L1 in degree -1 and L2 in degree 0."""

    l1: GLattice
    l2: GLattice
    differential: LatticeMap

    def __post_init__(self):
        if self.differential.source is not self.l1 \
                or self.differential.target is not self.l2:
            raise ValueError("differential must map l1 to l2")

    @property
    def group(self):
        return self.l1.group

    def validate(self) -> None:
        """Check that both lattices carry a group action and that the
        differential is equivariant."""
        self.l1.validate()
        self.l2.validate()
        self.differential.validate()

    def dual(self) -> "TwoTermComplex":
        d1 = dual_lattice(self.l2)
        d2 = dual_lattice(self.l1)
        return TwoTermComplex(d1, d2, LatticeMap(
            d1, d2, la.transpose_shaped(self.differential.matrix,
                                        d2.rank, d1.rank)))

    def __repr__(self):
        return f"TwoTermComplex([{self.l1.rank} -> {self.l2.rank}])"


def homology(t: TwoTermComplex) -> tuple[GLattice, FgModule]:
    """(H^-1, H^0): the saturated kernel lattice and the cokernel module."""
    n = t.l1.rank
    kb = la.ColumnSpan(la.columns(t.differential.matrix, n), track=n).kernel()
    hminus = induced_action_on_sublattice(t.l1, kb)
    h0 = FgModule(t.group, t.l2.rank, t.differential.matrix, t.l2.action)
    return hminus, h0


# ---------------------------------------------------------------------------
# Quasi-isomorphism verification.

@dataclass(frozen=True)
class MoveEvidence:
    hminus_ok: bool
    h0_ok: bool

    @property
    def ok(self) -> bool:
        return self.hminus_ok and self.h0_ok


@dataclass(frozen=True, eq=False)
class HalfComplex:
    """Internal: a complex [A -> B] where B may carry torsion."""

    a: GLattice
    d: IntMatrix  # b.ngens x a.rank
    b: FgModule


def _half(t: TwoTermComplex) -> HalfComplex:
    return HalfComplex(t.l1, t.differential.matrix, lattice_as_module(t.l2))


def _relation_span(h: HalfComplex):
    """The columns of S = [d | relations], their echelon, and the basis
    of H^-1 = {a : d(a) lies in span(relations)} it gives: the kernel of
    S cut to A (the only coordinates the echelon records), made a basis
    when B has relations."""
    cols = la.columns(h.d, h.a.rank) + la.columns(h.b.relations)
    span = la.ColumnSpan(cols, track=h.a.rank)
    cycles = span.kernel()
    if la.shape(h.b.relations)[1] and cycles:
        cycles = la.ColumnSpan(cycles).basis(h.a.rank)
    return cols, span, cycles


def _residual(a: Rows, b: Rows) -> list[dict]:
    """The nonzero columns {row: entry} of a - b, two matrices of one
    shape given as sparse rows."""
    cols: dict[int, dict] = {}
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra == rb:
            continue
        acc = dict(ra)
        for j, x in rb:
            acc[j] = acc.get(j, 0) - x
        for j, x in acc.items():
            if x:
                cols.setdefault(j, {})[i] = x
    return list(cols.values())


def _shaped(m: IntMatrix, rows: int, cols: int) -> bool:
    """Whether ``m`` is rows x cols; one with no rows cannot carry its
    column count."""
    r, c = la.shape(m)
    return r == rows and (not r or c == cols)


def verify_square(src: HalfComplex, tgt: HalfComplex,
                  comp_minus1: IntMatrix, comp0: IntMatrix) -> MoveEvidence:
    """Check that a square is a quasi-isomorphism of complexes of
    G-modules: that its maps are G-equivariant, that it commutes modulo
    the relations of the target's B, and that the induced kernel and
    cokernel maps are isomorphisms.

    comp_minus1 must be a map A -> A' and comp0 a map B -> B' by shape
    (and each side's d a map A -> B), and comp_minus1 M(s) =
    M'(s) comp_minus1 must hold exactly for every generator index s
    (``lattice.is_equivariant``).  The residuals
    comp0 M_B(s) - M_B'(s) comp0 (equivariance), comp0 d - d' comp_minus1
    (commutation) and comp0 times the relations of B (well defined on B)
    are products of sparse rows, the sides' cached ``action_rows``; their
    nonzero columns must lie in the span of the relations of B'.  For a
    B' with no relations that span is {0}, so every residual must
    vanish.  H^-1 is free on the cycle bases, so its map is an
    isomorphism iff its matrix on them is square and unimodular.  H^0 is
    Z^m / span(S) -> Z^n / span(T), with S and T the differential and
    relations of each side: it is onto iff the columns of [comp0 | T]
    span Z^n, and one-to-one iff the preimage of span(T) under comp0 lies
    in span(S).  Each matrix is eliminated once: the echelon of S gives
    the cycle basis of H^-1 (its kernel, recorded on the first
    ``a.rank`` coordinates) and answers membership in span(S), that of T
    the cycle basis of H^-1 on the target, and that of [comp0 | T] both
    "onto" (its pivots) and the preimage (its kernel, recorded on the
    first m coordinates and reduced along S as sparse vectors).  No
    Smith form runs."""
    if not all(_shaped(m, rows, cols) for m, rows, cols in (
            (comp_minus1, tgt.a.rank, src.a.rank),
            (comp0, tgt.b.ngens, src.b.ngens),
            (src.d, src.b.ngens, src.a.rank),
            (tgt.d, tgt.b.ngens, tgt.a.rank))) \
            or not is_equivariant(comp_minus1, src.a, tgt.a):
        return MoveEvidence(False, False)
    c0 = la.sparse_rows(comp0)
    cm1 = la.sparse_rows(comp_minus1)
    residuals = _residual(la.rows_mul(c0, la.sparse_rows(src.d)),
                          la.rows_mul(la.sparse_rows(tgt.d), cm1))
    residuals += _residual(
        la.rows_mul(c0, la.sparse_rows(src.b.relations)), ((),) * len(c0))
    for ms, mt in zip(src.b.action_rows(), tgt.b.action_rows()):
        residuals += _residual(la.rows_mul(c0, ms), la.rows_mul(mt, c0))
    if residuals and not la.ColumnSpan(
            la.columns(tgt.b.relations)).contains(residuals):
        return MoveEvidence(False, False)
    _, s, ks = _relation_span(src)
    t_cols, _, kt = _relation_span(tgt)
    imgs = [la.rows_apply(cm1, k) for k in ks]
    try:
        mat = la.from_columns(la.solve_columns(kt, imgs), len(kt))
        hminus_ok = len(ks) == len(kt) and la.is_unimodular(mat)
    except la.SolveError:
        hminus_ok = False
    h0 = la.ColumnSpan(la.columns(comp0, src.b.ngens) + t_cols,
                       track=src.b.ngens)
    h0_ok = h0.spans(tgt.b.ngens) and s.contains(h0.sparse_kernel())
    return MoveEvidence(hminus_ok, h0_ok)


def _homology_stats(t: TwoTermComplex):
    """Observable homology data preserved by quasi-isomorphism: cokernel
    invariant factors, kernel rank, and per-subgroup fixed ranks of the
    kernel lattice."""
    hminus, h0 = homology(t)
    fixed_ranks = tuple(r for _, r in subgroup_table(hminus, "fixed_rank"))
    return h0.invariant_factors, hminus.rank, fixed_ranks


@dataclass(frozen=True, eq=False)
class CertificateMove:
    """One elementary step of a resolution, with replay data: the one
    record of a move's square."""

    kind: str  # pushout-mono | pullback-epi | duality
    src: Union[HalfComplex, TwoTermComplex]
    tgt: Union[HalfComplex, TwoTermComplex]
    comp_minus1: Optional[IntMatrix]
    comp0: Optional[IntMatrix]
    evidence: MoveEvidence


def _square_move(kind: str, src: HalfComplex, tgt: HalfComplex,
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

@dataclass(frozen=True, eq=False)
class PushoutResult:
    """The quotient B', the certified move, and, when B' is a lattice,
    the section B' -> A' + B and the differential A' -> B'."""

    quotient: Union[GLattice, FgModule]
    move: CertificateMove
    section: Optional[IntMatrix]  # quotient coords -> A'+B coords
    tgt_differential: Optional[LatticeMap]  # A' -> quotient


def pushout_square(f: LatticeMap, d: LatticeMap) -> PushoutResult:
    """B' = A' + B modulo the antidiagonal image of A, for f: A -> A' mono
    and d: A -> B; the square [A -> B] -> [A' -> B'] is certified a
    quasi-isomorphism."""
    if f.source is not d.source:
        raise GroupMismatchError("moves must share the corner lattice")
    a, aprime, b = f.source, f.target, d.target
    if la.ColumnSpan(la.columns(f.matrix, a.rank)).rank != a.rank:
        raise PreconditionError("pushout requires a monomorphism")
    n = aprime.rank + b.rank
    anti = la.vstack(f.matrix, la.mat_neg(d.matrix))
    amb = direct_sum(aprime, b)
    coker = la.hom_cokernel(anti, ())
    src = _half(TwoTermComplex(a, b, d))
    if not any(coker.factors):
        # saturated: B' is free of rank k.  pr: A' + B -> B', the rows
        # ``reduce`` applies (rows of the Smith form's U past the rank);
        # sec: the generators, columns of U^{-1} past it.  pr times each
        # injection is a slice of pr.
        k = len(coker.factors)
        pr_rows = coker._rows
        pr = la.dense_rows(map(dict, pr_rows), n)
        sec = la.transpose_shaped(coker.generators, n, k)
        sec_rows = la.sparse_rows(sec)
        action = tuple(
            la.dense_rows(map(dict, la.rows_mul(la.rows_mul(pr_rows, m),
                                                sec_rows)), k)
            for m in amb.action_rows())
        quo = GLattice(a.group, k, action)
        d_tgt = LatticeMap(aprime, quo,
                           tuple(row[:aprime.rank] for row in pr))
        move = _square_move("pushout-mono", src,
                            _half(TwoTermComplex(aprime, quo, d_tgt)),
                            f.matrix, tuple(row[aprime.rank:] for row in pr))
        return PushoutResult(quo, move, sec, d_tgt)
    # torsion in the quotient: present it as a module, with the
    # injections A' -> A' + B and B -> A' + B
    ident = la.identity(n)
    quo = FgModule(a.group, n, anti, amb.action)
    move = _square_move("pushout-mono", src, HalfComplex(
        aprime, tuple(row[:aprime.rank] for row in ident), quo),
        f.matrix, tuple(row[aprime.rank:] for row in ident))
    return PushoutResult(quo, move, None, None)


@dataclass(frozen=True, eq=False)
class PullbackResult:
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
    if not la.ColumnSpan(la.columns(g.matrix)).spans(b.rank):
        raise PreconditionError("pullback requires an epimorphism")
    amb = direct_sum(bprime, aprime)
    diff = la.hstack(g.matrix, la.mat_neg(dprime.matrix))
    kb = la.ColumnSpan(la.columns(diff, amb.rank), track=amb.rank).kernel()
    fibre = induced_action_on_sublattice(amb, kb)
    # the fibre basis in B' + A' coordinates, cut into its two parts
    incl = la.from_columns(kb, amb.rank)
    top, bottom = incl[:bprime.rank], incl[bprime.rank:]
    src = TwoTermComplex(fibre, bprime, LatticeMap(fibre, bprime, top))
    return PullbackResult(src, _square_move(
        "pullback-epi", _half(src), _half(TwoTermComplex(aprime, b, dprime)),
        bottom, g.matrix))


# ---------------------------------------------------------------------------
# The subgroup-class walk and the classification predicates.

def _cohomology(kind: str, h, lat: GLattice):
    if kind == "h1":
        return group_cohomology(h, lat, 1)
    return tate_cohomology(h, lat, -1)


_TABLE_KINDS = {
    "fixed_rank": lambda h, lat: len(fixed_points(lat, h)),
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


@dataclass(frozen=True)
class ClassificationVerdict:
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

@dataclass(frozen=True, eq=False)
class CoverSequence:
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
    proj_mat = la.from_columns(
        [img for _, _, images in summands for img in images], m.rank)
    cb = la.kernel_basis(proj_mat)
    c = induced_action_on_sublattice(q, cb)
    inclusion = LatticeMap(c, q, la.from_columns(cb, q.rank))
    _require(c, "coflasque", "cover kernel")
    return CoverSequence(q, c, inclusion, LatticeMap(q, m, proj_mat))


@dataclass(frozen=True, eq=False)
class EmbedSequence:
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
    if not isinstance(po.quotient, GLattice):
        raise RuntimeError("pushout in the embedding step acquired torsion")
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

@dataclass(frozen=True, eq=False)
class ResolutionCertificate:
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


def _content(side: Union[HalfComplex, TwoTermComplex]) -> tuple:
    """A complex by value, read as a half complex: a loaded certificate
    holds fresh objects, so its complexes are compared by content."""
    h = _half(side) if isinstance(side, TwoTermComplex) else side

    def rows(m):  # a tuple of tuples is returned as it is, not copied
        return tuple(map(tuple, m))

    return (h.a.group.table, h.a.group.generators, h.a.rank,
            tuple(map(rows, h.a.action)), rows(h.d), h.b.ngens,
            rows(h.b.relations), tuple(map(rows, h.b.action)))


def _contragredient(e: FgModule, c1: GLattice) -> bool:
    """Whether ``c1`` is the dual of the lattice ``e``: the same group
    table and generators, the same rank, no relations on ``e``, and
    M_C1(s)^T M_E(s) = 1 for every generator index s, on sparse rows."""
    if (e.group.table, e.group.generators) \
            != (c1.group.table, c1.group.generators) \
            or e.ngens != c1.rank or la.shape(e.relations)[1] \
            or len(e.action) != len(c1.action):
        return False
    ident = tuple(((i, 1),) for i in range(c1.rank))
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
        and _contragredient(embed.tgt.b, po.tgt.a) \
        and _content(po.src) == _content(original) \
        and _content(pb.src) == _content(resolved) \
        and _content(po.tgt) == _content(pb.tgt)


def replay_certificate(cert: ResolutionCertificate) -> bool:
    """Check that the moves connect ``original`` to ``resolved``,
    re-verify every move and recompute the vanishing table."""
    if not _connects(cert):
        return False
    for move in cert.moves:
        if not replay_move(move).ok:
            return False
    side = cert.resolved.l1 if cert.mode == "coflasque" else cert.resolved.l2
    verdict = classify(side, cert.mode)
    return verdict.ok and verdict.table == cert.vanishing_table


def coflasque_resolution(t: TwoTermComplex) -> tuple[TwoTermComplex,
                                                     ResolutionCertificate]:
    """Quasi-isomorphic [C -> Q] with C coflasque and Q permutation."""
    embed = cts_embed_coflasque(t.l1)
    po = pushout_square(embed.inclusion, t.differential)
    if not isinstance(po.quotient, GLattice):
        raise RuntimeError("resolution pushout acquired torsion")
    cover = cts_cover_coflasque(po.quotient)
    pb = pullback_square(cover.projection, po.tgt_differential)
    resolved = pb.source
    verdict = _require(resolved.l1, "coflasque", "resolved complex")
    cert = ResolutionCertificate(
        "coflasque", t, resolved,
        embed.moves + (po.move, pb.move), verdict.table)
    return resolved, cert


def flasque_resolution(t: TwoTermComplex) -> tuple[TwoTermComplex,
                                                   ResolutionCertificate]:
    """Quasi-isomorphic [P -> F] with P permutation and F flasque,
    computed as the entrywise dual of the coflasque resolution of the
    dual complex."""
    cof, cert_dual = coflasque_resolution(t.dual())
    resolved = cof.dual()
    verdict = _require(resolved.l2, "flasque", "resolved complex")
    dual_ev = MoveEvidence(*_duality_evidence(t, resolved))
    duality_move = CertificateMove("duality", t, resolved, None, None,
                                   dual_ev)
    cert = ResolutionCertificate(
        "flasque", t, resolved,
        cert_dual.moves + (duality_move,), verdict.table)
    return resolved, cert


# ---------------------------------------------------------------------------
# Uniqueness invariants and the R-equivalence avatar.

@dataclass(frozen=True)
class UniquenessReport:
    agree: bool
    rank_pair: tuple[int, int]
    rows: tuple  # per subgroup rep: (members, per-invariant (x, y, agree))


def uniqueness_invariants(res: TwoTermComplex,
                          resp: TwoTermComplex) -> UniquenessReport:
    """Necessary conditions for F + P' and F' + P to be isomorphic,
    compared over every subgroup conjugacy representative."""
    if res.group.table != resp.group.table:
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


@dataclass(frozen=True, eq=False)
class REquivalenceData:
    flasque_lattice: GLattice
    table: tuple  # per subgroup rep: (members, tate^-1 factors, h1 factors)
    certificate: ResolutionCertificate


def r_equivalence_invariant(t: TwoTermComplex) -> REquivalenceData:
    """The flasque lattice controlling R-equivalence classes, with its
    per-subgroup cohomology table."""
    resolved, cert = flasque_resolution(t)
    f = resolved.l2
    return REquivalenceData(f, subgroup_table(f, "tate_minus1", "h1"), cert)

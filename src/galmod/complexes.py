"""Two-term complexes of G-lattices and their flasque / coflasque
resolutions.

A two-term complex [L1 -> L2] places L1 in degree -1 and L2 in degree 0.
Resolutions are built from two elementary quasi-isomorphism moves (pushout
along a monomorphism, pullback along an epimorphism) plus dualization, and
every move is re-verified on the spot by ``verify_square``: its maps
must be G-equivariant (comp0 modulo the target's relations) and the
square must commute modulo those relations (one span solve), the induced
map on H^-1 must have a square unimodular matrix on the cycle bases, and
the induced map on H^0 must be onto and one-to-one (two span solves).
The full chain of moves is returned as a replayable certificate; replay
also checks that the moves lead from the original complex to the
resolved one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import intlinalg as la
from .cohomology import group_cohomology, tate_cohomology
from .groups import enumerate_subgroups, coset_action
from .intlinalg import IntMatrix
from .lattice import (FgModule, GLattice, LatticeMap, direct_sum,
                      dual_lattice, fixed_points,
                      induced_action_on_sublattice, lattice_as_module,
                      make_permutation_lattice)


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
        self.differential.validate()

    def dual(self) -> "TwoTermComplex":
        d1 = dual_lattice(self.l2)
        d2 = dual_lattice(self.l1)
        return TwoTermComplex(d1, d2, LatticeMap(
            d1, d2, la.transpose_shaped(self.differential.matrix,
                                        d2.rank, d1.rank)))

    def __repr__(self):
        return f"TwoTermComplex([{self.l1.rank} -> {self.l2.rank}])"


@dataclass(frozen=True, eq=False)
class ComplexMap:
    """Commuting square between two-term complexes."""

    source: TwoTermComplex
    target: TwoTermComplex
    comp_minus1: LatticeMap
    comp0: LatticeMap


def homology(t: TwoTermComplex) -> tuple[GLattice, FgModule]:
    """(H^-1, H^0): the saturated kernel lattice and the cokernel module."""
    kb = la.preimage(t.differential.matrix, [], t.l1.rank)
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


def _cycle_basis(h: HalfComplex) -> list[list[int]]:
    """Basis of H^-1 = {a : d(a) lies in the relation span of B}."""
    rel = la.columns(h.b.relations)
    proj = la.preimage(h.d, rel, h.a.rank)
    if rel and proj:
        return la.image_basis(la.from_columns(proj, h.a.rank))
    return proj


def verify_square(src: HalfComplex, tgt: HalfComplex,
                  comp_minus1: IntMatrix, comp0: IntMatrix) -> MoveEvidence:
    """Check that a square is a quasi-isomorphism of complexes of
    G-modules: that its maps are G-equivariant, that it commutes modulo
    the relations of the target's B, and that the induced kernel and
    cokernel maps are isomorphisms.

    comp_minus1 M(s) = M'(s) comp_minus1 must hold exactly for every
    generator s.  comp0 being equivariant modulo the relations of B',
    commuting with the differentials modulo them, and being well defined
    on B are one span check.  H^-1 is free on the cycle bases, so its map
    is an isomorphism iff its matrix on them is square and unimodular.
    H^0 is Z^m / span(S) -> Z^n / span(T), with S and T the differential
    and relations of each side: it is onto iff every unit vector lies in
    span(comp0 | T), and one-to-one iff the preimage of span(T) under
    comp0 lies in span(S).  Both are span solves; no Smith form runs."""
    if not all(la.mat_eq(la.mat_mul(comp_minus1, ms),
                         la.mat_mul(mt, comp_minus1))
               for ms, mt in zip(src.a.action, tgt.a.action)):
        return MoveEvidence(False, False)
    comm = la.mat_add(la.mat_mul(comp0, src.d),
                      la.mat_neg(la.mat_mul(tgt.d, comp_minus1)))
    equi = [la.mat_add(la.mat_mul(comp0, ms),
                       la.mat_neg(la.mat_mul(mt, comp0)))
            for ms, mt in zip(src.b.action, tgt.b.action)]
    if not la.in_relation_span(tgt.b.relations, la.columns(la.hstack(
            comm, la.mat_mul(comp0, src.b.relations), *equi))):
        return MoveEvidence(False, False)
    ks = _cycle_basis(src)
    kt = _cycle_basis(tgt)
    imgs = la.columns(la.mat_mul(comp_minus1,
                                 la.from_columns(ks, src.a.rank)))
    try:
        mat = la.from_columns(la.solve_columns(kt, imgs), len(kt))
        hminus_ok = len(ks) == len(kt) and la.is_unimodular(mat)
    except la.SolveError:
        hminus_ok = False
    s = la.hstack(src.d, src.b.relations)
    t = la.hstack(tgt.d, tgt.b.relations)
    h0_ok = la.in_relation_span(
        la.hstack(comp0, t), la.columns(la.identity(tgt.b.ngens))) \
        and la.in_relation_span(
            s, la.preimage(comp0, la.columns(t), src.b.ngens))
    return MoveEvidence(hminus_ok, h0_ok)


def _homology_stats(t: TwoTermComplex):
    """Observable homology data preserved by quasi-isomorphism: cokernel
    invariant factors, kernel rank, and per-subgroup fixed ranks of the
    kernel lattice."""
    hminus, h0 = homology(t)
    _, reps = enumerate_subgroups(t.group)
    fixed_ranks = tuple(len(fixed_points(hminus, h)) for h in reps)
    return h0.invariant_factors, hminus.rank, fixed_ranks


@dataclass(frozen=True, eq=False)
class CertificateMove:
    """One elementary step of a resolution, with replay data."""

    kind: str  # pushout-mono | pullback-epi | duality
    src: Union[HalfComplex, TwoTermComplex]
    tgt: Union[HalfComplex, TwoTermComplex]
    comp_minus1: Optional[IntMatrix]
    comp0: Optional[IntMatrix]
    evidence: MoveEvidence


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
    quotient: Union[GLattice, FgModule]
    square: Optional[ComplexMap]  # present when the quotient is a lattice
    move: CertificateMove
    projection: IntMatrix  # (A'+B coords) -> quotient coords
    section: IntMatrix
    tgt_differential: Optional[LatticeMap]  # A' -> quotient
    b_to_quotient: Optional[LatticeMap]


def pushout_square(f: LatticeMap, d: LatticeMap) -> PushoutResult:
    """B' = A' + B modulo the antidiagonal image of A, for f: A -> A' mono
    and d: A -> B; the square [A -> B] -> [A' -> B'] is certified a
    quasi-isomorphism."""
    if f.source is not d.source:
        raise GroupMismatchError("moves must share the corner lattice")
    a, aprime, b = f.source, f.target, d.target
    if la.preimage(f.matrix, [], a.rank):
        raise PreconditionError("pushout requires a monomorphism")
    n = aprime.rank + b.rank
    anti = la.vstack(f.matrix, la.mat_neg(d.matrix)) if n else la.zeros(0, a.rank)
    amb = direct_sum(aprime, b)
    snf = la.smith_normal_form(anti, inverse=True)
    r = snf.rank
    saturated = all(x == 1 for x in snf.invariant_factors)
    src = TwoTermComplex(a, b, d)
    # the injections A' -> A' + B and B -> A' + B
    ident = la.identity(n)
    ap_in = la.freeze([row[:aprime.rank] for row in ident])
    b_in = la.freeze([row[aprime.rank:] for row in ident])
    if saturated:
        uinv = snf.Uinv
        pr = la.freeze([list(snf.U[i]) for i in range(r, n)])
        sec = la.freeze([[uinv[i][j] for j in range(r, n)] for i in range(n)])
        amb_mats = amb.action
        action = tuple(la.mat_mul(la.mat_mul(pr, m), sec) for m in amb_mats)
        quo = GLattice(a.group, n - r, action)
        d_tgt = LatticeMap(aprime, quo, la.mat_mul(pr, ap_in))
        b_to_q = LatticeMap(b, quo, la.mat_mul(pr, b_in))
        tgt = TwoTermComplex(aprime, quo, d_tgt)
        square = ComplexMap(src, tgt, f, b_to_q)
        tgt_half = _half(tgt)
        ev = verify_square(_half(src), tgt_half, f.matrix, b_to_q.matrix)
        move = CertificateMove("pushout-mono", _half(src), tgt_half,
                               f.matrix, b_to_q.matrix, ev)
        return PushoutResult(quo, square, move, pr, sec, d_tgt, b_to_q)
    # torsion in the quotient: present it as a module
    quo = FgModule(a.group, n, anti, amb.action)
    tgt_half = HalfComplex(aprime, ap_in, quo)
    ev = verify_square(_half(src), tgt_half, f.matrix, b_in)
    move = CertificateMove("pushout-mono", _half(src), tgt_half,
                           f.matrix, b_in, ev)
    return PushoutResult(quo, None, move, la.identity(n), la.identity(n),
                         None, None)


@dataclass(frozen=True, eq=False)
class PullbackResult:
    fibre: GLattice
    square: ComplexMap  # [A -> B'] -> [A' -> B]
    move: CertificateMove
    inclusion: IntMatrix  # fibre basis in B' + A' coordinates


def pullback_square(g: LatticeMap, dprime: LatticeMap) -> PullbackResult:
    """A = B' x_B A' for g: B' -> B epi and d': A' -> B; the square
    [A -> B'] -> [A' -> B] is certified a quasi-isomorphism."""
    if g.target is not dprime.target:
        raise GroupMismatchError("moves must share the corner lattice")
    bprime, b, aprime = g.source, g.target, dprime.source
    if not la.in_relation_span(g.matrix, la.columns(la.identity(b.rank))):
        raise PreconditionError("pullback requires an epimorphism")
    amb = direct_sum(bprime, aprime)
    diff = la.hstack(g.matrix, la.mat_neg(dprime.matrix))
    kb = la.preimage(diff, [], amb.rank)
    fibre = induced_action_on_sublattice(amb, kb)
    incl = la.from_columns(kb, amb.rank)
    top = la.freeze([[incl[i][j] for j in range(fibre.rank)]
                     for i in range(bprime.rank)])
    bottom = la.freeze([[incl[bprime.rank + i][j]
                         for j in range(fibre.rank)]
                        for i in range(aprime.rank)])
    d_src = LatticeMap(fibre, bprime, top)
    src = TwoTermComplex(fibre, bprime, d_src)
    tgt = TwoTermComplex(aprime, b, dprime)
    square = ComplexMap(src, tgt, LatticeMap(fibre, aprime, bottom), g)
    ev = verify_square(_half(src), _half(tgt), bottom, g.matrix)
    move = CertificateMove("pullback-epi", _half(src), _half(tgt),
                           bottom, g.matrix, ev)
    return PullbackResult(fibre, square, move, incl)


# ---------------------------------------------------------------------------
# Classification predicates.

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


# ---------------------------------------------------------------------------
# The cover / embedding exact sequences.

@dataclass(frozen=True, eq=False)
class CoverSequence:
    """0 -> C -> Q -> M -> 0 with Q permutation and C coflasque."""

    m: GLattice
    q: GLattice
    c: GLattice
    inclusion: LatticeMap  # C -> Q
    projection: LatticeMap  # Q -> M
    c_verdict: ClassificationVerdict


def cts_cover_coflasque(m: GLattice) -> CoverSequence:
    """Permutation cover 0 -> C -> Q -> M -> 0 whose fixed points
    surject onto M^H for every subgroup H.

    Conjugacy representatives are processed in decreasing order; a
    summand Z[G/H] is added only for generators of M^H not already hit
    by the partial cover, which keeps the rank small.
    """
    group = m.group
    mats = m.element_matrices()
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
            summands.append((k, cs, [la.mat_vec(mats[rep], gen)
                                     for rep in cs.representatives]))
    q = make_permutation_lattice(group, [h for h, _, _ in summands])
    proj_mat = la.from_columns(
        [img for _, _, images in summands for img in images], m.rank)
    cb = la.kernel_basis(proj_mat)
    c = induced_action_on_sublattice(q, cb)
    inclusion = LatticeMap(c, q, la.from_columns(cb, q.rank))
    verdict = classify(c, "coflasque")
    if not verdict.ok:
        raise RuntimeError("cover kernel failed the coflasque check")
    return CoverSequence(m, q, c, inclusion, LatticeMap(q, m, proj_mat),
                         verdict)


@dataclass(frozen=True, eq=False)
class EmbedSequence:
    """0 -> L -> C1 -> Q1 -> 0 with C1 coflasque and Q1 permutation."""

    l: GLattice
    c1: GLattice
    q1: GLattice
    inclusion: LatticeMap  # L -> C1
    projection: LatticeMap  # C1 -> Q1
    c1_verdict: ClassificationVerdict
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
    verdict = classify(c1, "coflasque")
    if not verdict.ok:
        raise RuntimeError("embedding target failed the coflasque check")
    return EmbedSequence(lat, c1, q1, inclusion, projection, verdict,
                         (po.move,))


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


def _connects(cert: ResolutionCertificate) -> bool:
    """Whether the moves lead from ``original`` to ``resolved``: the last
    pushout starts at the original complex, the pullback after it at the
    resolved one, and the two end at one complex.  A flasque certificate
    does this for the duals, then ends with the duality move from the
    original to the resolved complex."""
    moves, original, resolved = cert.moves, cert.original, cert.resolved
    if cert.mode == "flasque":
        if not moves or moves[-1].kind != "duality" \
                or _content(moves[-1].src) != _content(original) \
                or _content(moves[-1].tgt) != _content(resolved):
            return False
        moves, original, resolved = moves[:-1], original.dual(), \
            resolved.dual()
    if len(moves) < 2:
        return False
    po, pb = moves[-2:]
    return (po.kind, pb.kind) == ("pushout-mono", "pullback-epi") \
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
    resolved = pb.square.source
    verdict = classify(resolved.l1, "coflasque")
    if not verdict.ok:
        raise RuntimeError("resolved complex failed the coflasque check")
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
    verdict = classify(resolved.l2, "flasque")
    if not verdict.ok:
        raise RuntimeError("resolved complex failed the flasque check")
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
    _, reps = enumerate_subgroups(res.group)
    rows = []
    agree = x.rank == y.rank
    for h in reps:
        fx = len(fixed_points(x, h))
        fy = len(fixed_points(y, h))
        h1x = group_cohomology(h, x, 1).invariant_factors
        h1y = group_cohomology(h, y, 1).invariant_factors
        tx = tate_cohomology(h, x, -1).invariant_factors
        ty = tate_cohomology(h, y, -1).invariant_factors
        cells = (("fixed_rank", fx, fy, fx == fy),
                 ("h1", h1x, h1y, h1x == h1y),
                 ("tate_minus1", tx, ty, tx == ty))
        rows.append((h.members, cells))
        agree = agree and all(c[3] for c in cells)
    return UniquenessReport(agree, (x.rank, y.rank), tuple(rows))


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
    _, reps = enumerate_subgroups(t.group)
    table = tuple(
        (h.members,
         tate_cohomology(h, f, -1).invariant_factors,
         group_cohomology(h, f, 1).invariant_factors)
        for h in reps)
    return REquivalenceData(f, table, cert)

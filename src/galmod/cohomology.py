"""Group cohomology by explicit cochain linear algebra.

H^n (n = 0, 1, 2) and Tate H^-1/H^0 for lattices, hypercohomology of
two-term complexes in degrees -1..1, restriction maps, and a Shapiro
comparator.  Cochains are normalized (they vanish whenever an argument is
the identity), cutting C^n from |H|^n to (|H|-1)^n coordinate blocks.

Group cohomology and hypercohomology take one route: every coefficient
is a two-term complex [A1 -> A2], A1 in degree -1, with total complex
Tot^n = C^{n+1}(A1) + C^n(A2), and a lattice or module A is [0 -> A],
whose total complex is the bar complex C(A).

For lattices, H^n(H, L) is killed by |H| when n >= 1 (Brown, Cohomology
of Groups, III.10.2), and hypercohomology in degree 1 sits between
H^1(L2) and H^2(L1).  So Z^n is the saturation of B^n and H^n is the
torsion of Tot^n / B^n, read from the Smith form of d^{n-1} alone
(intlinalg.torsion_cokernel); d^n is never built.  Degree 0,
hypercohomology in degrees -1 and 0, FgModule coefficients (whose
cochains carry torsion of their own) and the unnormalized complex
(normalized=False, kept as an oracle for tests) take the kernel route:
ker d^n / im d^{n-1}, with the module relations added to both.

Results are cached on the coefficient object (lattice, module or
complex), keyed by the kind of cohomology, the subgroup's members, the
degree and ``normalized``; they live as long as the coefficient does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Union

from . import intlinalg as la
from .groups import FiniteGroup, SubgroupHandle
from .intlinalg import AbGroupPresentation, IntMatrix, TorsionCokernel
from .lattice import FgModule, GLattice, induce


class UnsupportedDegreeError(Exception):
    pass


class UnsupportedCoefficientsError(Exception):
    pass


Coefficient = Union[GLattice, FgModule]


@dataclass(frozen=True, eq=False)
class CohomologyGroup:
    """Invariant factors plus explicit generator cochains.

    ``generators[i]`` is a cocycle vector in cochain coordinates whose
    class has order ``invariant_factors[i]`` (0 for a free generator).
    """

    degree: int
    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    presentation: Union[AbGroupPresentation, TorsionCokernel]
    coeff_dim: int
    normalized: bool = True

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self):
        return self.presentation.order

    def reduce(self, cochain: Sequence[int]) -> tuple[int, ...]:
        """Class coordinates of a cocycle on the stored generators."""
        return self.presentation.reduce(cochain)

    def __repr__(self):
        return (f"CohomologyGroup(degree={self.degree}, "
                f"factors={list(self.invariant_factors)})")


@dataclass(frozen=True, eq=False)
class CohMap:
    source: CohomologyGroup
    target: CohomologyGroup
    matrix: IntMatrix  # target coords x source generators


def _acting(h) -> tuple[FiniteGroup, list[int]]:
    """Resolve a FiniteGroup or SubgroupHandle to a standalone group plus
    the parent ids of its elements in BFS order."""
    if isinstance(h, SubgroupHandle):
        sub = h.as_group()
        return sub, list(h.members_bfs())
    return h, list(h.elements())


def _view(a, parent_ids: Sequence[int]):
    """A coefficient as a two-term complex [A1 -> A2], A1 in degree -1.

    Returns (rank, element matrices of ``parent_ids``, relation columns as
    a matrix) for A1 and for A2, the differential A1 -> A2 (None for a
    lattice or module A, which is [0 -> A]), and whether every part is a
    lattice, i.e. whether the cochains are free of torsion of their own.
    """
    def part(x):
        if x is None:
            return 0, (), la.zeros(0, 0)
        mats = x.element_matrices()
        sel = tuple(mats[g] for g in parent_ids)
        if isinstance(x, GLattice):
            return x.rank, sel, la.zeros(x.rank, 0)
        return x.ngens, sel, x.relations

    if isinstance(a, (GLattice, FgModule)):
        parts, diff = (None, a), None
    else:
        parts, diff = (a.l1, a.l2), a.differential.matrix
    return (part(parts[0]), part(parts[1]), diff,
            not any(isinstance(x, FgModule) for x in parts))


def cochain_dim(order: int, rank: int, n: int, normalized: bool = True) -> int:
    if n < 0:
        return 0
    q = order - 1 if normalized else order
    return (q ** n) * rank


def _letters(order: int, normalized: bool) -> list[int]:
    return list(range(1, order)) if normalized else list(range(order))


def _tuple_index(tup: tuple[int, ...], order: int, normalized: bool) -> int:
    q = order - 1 if normalized else order
    idx = 0
    for g in tup:
        idx = idx * q + (g - 1 if normalized else g)
    return idx


def bar_differential(group: FiniteGroup, mats: Sequence[IntMatrix],
                     rank: int, n: int,
                     normalized: bool = True) -> IntMatrix:
    """Matrix of the bar-complex differential C^n -> C^{n+1}.

    (df)(g1..g_{n+1}) = g1.f(g2..) + sum (-1)^i f(.. g_i g_{i+1} ..)
    + (-1)^{n+1} f(g1..gn); normalized cochains drop any term whose
    argument tuple contains the identity.  C^n = 0 for n < 0.
    """
    order = group.order
    src_dim = cochain_dim(order, rank, n, normalized)
    tgt_dim = cochain_dim(order, rank, n + 1, normalized)
    if n < 0:
        return la.zeros(tgt_dim, 0)
    letters = _letters(order, normalized)
    rows = [[0] * src_dim for _ in range(tgt_dim)]

    def src_base(tup):
        if normalized and any(g == 0 for g in tup):
            return None
        return _tuple_index(tup, order, normalized) * rank

    for tcount, tup in enumerate(itertools.product(letters, repeat=n + 1)):
        tbase = tcount * rank
        # face 0: g1 acts on the coefficient
        sb = src_base(tup[1:])
        if sb is not None:
            m = mats[tup[0]]
            for a in range(rank):
                row = rows[tbase + a]
                ma = m[a]
                for b in range(rank):
                    if ma[b]:
                        row[sb + b] += ma[b]
        # inner faces
        sign = -1
        for i in range(n):
            merged = tup[:i] + (group.mul(tup[i], tup[i + 1]),) + tup[i + 2:]
            sb = src_base(merged)
            if sb is not None:
                for a in range(rank):
                    rows[tbase + a][sb + a] += sign
            sign = -sign
        # last face drops g_{n+1}
        sb = src_base(tup[:n])
        if sb is not None:
            for a in range(rank):
                rows[tbase + a][sb + a] += sign
    return la.freeze(rows)


def total_differential(group: FiniteGroup, mats1, mats2, r1: int, r2: int,
                       diff: IntMatrix, n: int,
                       normalized: bool = True) -> IntMatrix:
    """Differential Tot^n -> Tot^{n+1} of the total complex
    Tot^n = C^{n+1}(L1) + C^n(L2), D(x, y) = (dx, (-1)^n diff*x + dy)."""
    order = group.order
    d1 = bar_differential(group, mats1, r1, n + 1, normalized)
    d2 = (bar_differential(group, mats2, r2, n, normalized) if n >= 0
          else la.zeros(cochain_dim(order, r2, n + 1, normalized), 0))
    blocks1 = cochain_dim(order, 1, n + 1, normalized)
    diff_block = la.block_diag(*([diff] * blocks1)) if blocks1 else la.zeros(0, 0)
    if n % 2:
        diff_block = la.mat_neg(diff_block)
    top = la.hstack(d1, la.zeros(la.shape(d1)[0], la.shape(d2)[1]))
    bottom = la.hstack(diff_block, d2)
    return la.vstack(top, bottom)


def _cohomology(h, a, n: int, normalized: bool) -> CohomologyGroup:
    """H^n of the total complex of ``a`` seen as [A1 -> A2] (``_view``):
    Tot^m = C^{m+1}(A1) + C^m(A2)."""
    sub, parent_ids = _acting(h)
    (r1, mats1, rel1), (r2, mats2, rel2), diff, lattices = _view(
        a, parent_ids)
    order = sub.order

    def d(m):
        if not r1:  # the total complex of [0 -> A2] is C(A2)
            return bar_differential(sub, mats2, r2, m, normalized)
        return total_differential(sub, mats1, mats2, r1, r2, diff, m,
                                  normalized)

    if normalized and n >= 1 and lattices:
        # finite, so Z^n is the saturation of B^n: d^n is never needed
        pres = la.torsion_cokernel(d(n - 1))
    else:
        def rel(m):  # A1's relations per (m+1)-tuple, A2's per m-tuple
            return la.columns(la.block_diag(
                *[rel1] * cochain_dim(order, 1, m + 1, normalized),
                *[rel2] * cochain_dim(order, 1, m, normalized)))

        dim = (cochain_dim(order, r1, n + 1, normalized)
               + cochain_dim(order, r2, n, normalized))
        # Tot^{n-1} is zero below degree -1, or below 0 when A1 = 0
        im = la.columns(d(n - 1)) if n > (-1 if r1 else 0) else []
        rel_n = rel(n)
        num = la.preimage(d(n), rel(n + 1), dim) + rel_n
        pres = la.abgroup_from_subquotient(num, im + rel_n, dim)
    return CohomologyGroup(n, pres.factors, pres.generators, pres, r1 + r2,
                           normalized)


def _cached(coeff, kind: str, h, n: int, normalized: bool, compute):
    """Look a result up in, or add it to, the cache stored on ``coeff``.

    The key holds the subgroup's members, not the identity of its parent
    group: callers may pass handles into a different group object with
    the same multiplication table, and answers depend only on the table.
    """
    cache = getattr(coeff, "_coh_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(coeff, "_coh_cache", cache)
    key = (kind, h.members if isinstance(h, SubgroupHandle) else None, n,
           normalized)
    out = cache.get(key)
    if out is None:
        out = cache[key] = compute()
    return out


def group_cohomology(h, a: Coefficient, n: int,
                     normalized: bool = True) -> CohomologyGroup:
    """H^n(H, A) from the (normalized) bar-resolution cochain complex."""
    if n not in (0, 1, 2):
        raise UnsupportedDegreeError(f"degree {n} not in {{0, 1, 2}}")
    return _cached(a, "group", h, n, normalized,
                   lambda: _cohomology(h, a, n, normalized))


def hypercohomology(h, t, n: int, normalized: bool = True) -> CohomologyGroup:
    """Hypercohomology of a two-term complex of lattices, degrees -1..1."""
    if n not in (-1, 0, 1):
        raise UnsupportedDegreeError(f"degree {n} not in {{-1, 0, 1}}")
    return _cached(t, "hyper", h, n, normalized,
                   lambda: _cohomology(h, t, n, normalized))


def tate_cohomology(h, lat: GLattice, n: int) -> CohomologyGroup:
    """Tate cohomology in degrees -1 and 0 for lattice coefficients."""
    if n not in (-1, 0):
        raise UnsupportedDegreeError(f"Tate degree {n} not in {{-1, 0}}")
    if not isinstance(lat, GLattice):
        raise UnsupportedCoefficientsError("Tate cohomology needs a lattice")
    return _cached(lat, "tate", h, n, True,
                   lambda: _tate_cohomology(h, lat, n))


def _tate_cohomology(h, lat: GLattice, n: int) -> CohomologyGroup:
    _, parent_ids = _acting(h)
    _, (rank, mats, _), _, _ = _view(lat, parent_ids)
    norm = la.zeros(rank, rank)
    for m in mats:
        norm = la.mat_add(norm, m)
    ident = la.identity(rank)
    if n == -1:
        num = la.kernel_basis(norm)
        den = []
        for m in mats[1:]:
            den.extend(la.columns(la.mat_add(m, la.mat_neg(ident))))
    else:
        blocks = [la.mat_add(m, la.mat_neg(ident)) for m in mats[1:]]
        num = la.preimage(la.vstack(*blocks), [], rank)
        den = la.columns(norm)
    pres = la.abgroup_from_subquotient(num, den, rank)
    return CohomologyGroup(n, pres.factors, pres.generators, pres, rank)


def restriction(src, h: SubgroupHandle, a, n: int,
                normalized: bool = True) -> CohMap:
    """Restriction H^n(S, A) -> H^n(H, A) along H <= S.

    ``src`` is the parent group of ``h`` or a SubgroupHandle containing
    ``h``.  ``a`` is a lattice or module (group cohomology) or a two-term
    complex [L1 -> L2] (hypercohomology); cochains are a C^{n+1}(L1)
    block followed by a C^n(L2) block, with L1 = 0 for a lattice or module.
    """
    (r1, _, _), (r2, _, _), diff, _ = _view(a, ())
    coh = group_cohomology if diff is None else hypercohomology
    source = coh(src, a, n, normalized)
    target = coh(h, a, n, normalized)
    elem_map = h.ids_in(src)
    cols = []
    for gen in source.generators:
        vec: list[int] = []
        start = 0
        for m, rank in ((n + 1, r1), (n, r2)):
            size = cochain_dim(src.order, rank, m, normalized)
            if size:  # empty: the C^{n+1}(0) block, or C^{-1}(L2)
                vec += cochain_pullback(gen[start:start + size], src.order,
                                        elem_map, rank, m, normalized)
            start += size
        cols.append(list(target.reduce(vec)))
    matrix = la.from_columns(cols, len(target.invariant_factors))
    return CohMap(source, target, matrix)


hyper_restriction = restriction  # one map for both kinds of coefficient


def cochain_pullback(vec: Sequence[int], src_order: int,
                     elem_map: Sequence[int], rank: int, n: int,
                     normalized: bool = True) -> list[int]:
    """Pull an n-cochain back along a group inclusion; ``elem_map[i]`` is
    the source id of target element i (so the identity maps to 0)."""
    letters = _letters(len(elem_map), normalized)
    out = [0] * cochain_dim(len(elem_map), rank, n, normalized)
    for tcount, tup in enumerate(itertools.product(letters, repeat=n)):
        src_tup = tuple(elem_map[g] for g in tup)
        sbase = _tuple_index(src_tup, src_order, normalized) * rank
        for aidx in range(rank):
            out[tcount * rank + aidx] = vec[sbase + aidx]
    return out


@dataclass(frozen=True)
class ShapiroVerdict:
    isomorphic: bool
    induced_side: CohomologyGroup
    subgroup_side: CohomologyGroup


def shapiro_compare(gamma: FiniteGroup, h: SubgroupHandle, lat: GLattice,
                    n: int) -> ShapiroVerdict:
    """Compare H^n(Gamma, Ind L) with H^n(H, L) (Shapiro's lemma)."""
    ind = induce(lat, h)
    big = group_cohomology(gamma, ind, n)
    small = group_cohomology(lat.group, lat, n)
    return ShapiroVerdict(big.invariant_factors == small.invariant_factors,
                          big, small)

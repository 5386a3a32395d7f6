"""Group cohomology by explicit cochain linear algebra.

H^n (n = 0, 1, 2) and Tate H^-1/H^0 for lattices, hypercohomology of
two-term complexes in degrees -1..1, restriction maps, and a Shapiro
comparator.

Group cohomology and hypercohomology take one route: every coefficient
is a two-term complex [A1 -> A2], A1 in degree -1, with total complex
Tot^n = C^{n+1}(A1) + C^n(A2), and a lattice or module A is [0 -> A].
Answers are given on normalized bar cochains, which vanish whenever an
argument is the identity: (|H|-1)^n coordinate blocks in degree n.
Generators, ``reduce``, restriction and patching all use them.

When every part is a lattice, the work is done on the Cayley complex of
H on its generators s_1..s_k (Holt, JSC 1985; Brown, Cohomology of
Groups, II.5).  The BFS spanning tree ``FiniteGroup.tree()`` of the
Cayley graph gives each x its word(x), and each of the |H|(k-1)+1 edges
(x, s) outside the tree bounds a 2-cell, so C^0 = L, C^1 = L^k and
C^2 = L^cells, with d^0 the stacked M(s) - 1 and (d^1 c)(x, s) =
J_x c + M(x) c_s - J_{xs} c.  Here J_x c sums M(p_{i-1}) c_{t_i} along
word(x) = t_1..t_m, p_i its prefixes.  Two cochain maps translate:

* Cayley -> bar: f(g) = J_g c; f(g, h) sums c over the 2-cells met on
  the walk from g along word(h).
* bar -> Cayley: c_t = f(s_t); c(x, s) = f(x, s) + A_x - A_{xs}, A_x the
  sum of f(p_{i-1}, s_{t_i}) along word(x).

For n >= 1, H^n(H, L) is killed by |H| (Brown III.10.2), and
hypercohomology in degree 1 sits between H^1(L2) and H^2(L1).  So Z^n is
the saturation of B^n, and H^n is the torsion of Tot^n / B^n, read from
the Smith form U A V = D of the Cayley d^{n-1} alone, on its sparse rows
(intlinalg.torsion_cokernel).  Only V is tracked: the columns
g_i = (A V)_i / d_i of U^{-1}, i below the rank, are a basis of the
saturation, and a Cayley cocycle's coordinates on them, read off an
echelon of the g_i, are the z_i = (U c)_i.  H^n is returned in bar
coordinates as an ``AbGroupPresentation``: the generators are the g_i
with d_i > 1 taken Cayley -> bar; ``reduce`` takes a bar cocycle
bar -> Cayley (its pull rows), writes it on that echelon and reads each
kept z_i mod d_i; and its check rows, the rows of the bar d^n at the
argument tuples that end in a generator, test first that a cochain is a
cocycle.  A vanishing H^n keeps only the check rows.  That check is
complete: if phi = d v vanishes at every (.., s), then
(d phi)(.., c, s) = 0 gives phi(.., cs) = phi(.., c), and phi = 0 by
induction on the length of word(c).  Its rows are built by the first
``reduce`` and kept, not with the presentation: the vanishing checks of
``complexes.classify`` never reduce.

Whether H^1(H, L) or Tate H^-1(H, L) vanishes is decided by ranks mod p,
before any Smith form.  Let A be the matrix of the M(s) - 1: stacked for
H^1, the torsion of coker(d^0); side by side for Tate H^-1 = ker N /
I_H L, the torsion of Z^r / I_H L, since I_H L is spanned by A's columns
and ker N is saturated of the same rank.  Two facts make that torsion
cheap to test:

* it is killed by |H| (Brown III.10.2), so it vanishes iff A has the
  same rank mod p, for every prime p | |H|, as over Q;
* the rank over Q is r - rank L^H, and rank L^H = (1/|H|) sum_h tr M(h),
  the trace of the projection onto the fixed points.

``_rank_mod`` reads the rows of A as {column: entry}, as they are
built, so no vanishing test makes A dense; for p = 2 it packs each row's
odd entries into the bits of a Python int.  When the ranks agree, H^1 is
the presentation with no factors, no echelon and only the cocycle check
rows, and Tate H^-1 the one with no factors on an echelon of ker N; the
``reduce`` of either still refuses a non-cocycle or a vector outside
ker N.  When a rank drops, the Smith form runs as above, and only then
are the Tate blocks made dense.

For n <= 0 (H^0, hypercohomology in degrees -1 and 0) the kernel of the
Cayley d^n, taken Cayley -> bar, plus the image of the bar d^{n-1}
(small: it lives on C^0 and C^1) is the bar Z^n, presented as Z^n / B^n.

FgModule coefficients, whose cochains carry torsion of their own so that
the saturation argument fails, and the unnormalized complex
(normalized=False, kept as an oracle for tests) stay on the bar complex
and take the kernel route: ker d^n / im d^{n-1}, with the module
relations added to both.

Results are cached on the coefficient object (lattice, module or
complex), keyed by the kind of cohomology, the subgroup's members, the
degree and ``normalized``; they live as long as the coefficient does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Union

from . import intlinalg as la
from .groups import FiniteGroup, SubgroupHandle, prime_factors
from .intlinalg import AbGroupPresentation, IntMatrix, dense_rows
from .lattice import FgModule, GLattice, Rows, common_fixed_points, induce


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
    presentation: AbGroupPresentation
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

    Returns (rank, element matrices of ``parent_ids`` as the part's
    cached sparse rows (``GLattice.element_rows``), relation columns as a
    matrix) for A1 and for A2, the differential A1 -> A2 (None for a
    lattice or module A, which is [0 -> A]), and whether every part is a
    lattice, i.e. whether the cochains are free of torsion of their own.
    """
    def part(x):
        if x is None:
            return 0, (), la.zeros(0, 0)
        rows = x.element_rows()
        sel = tuple(rows[g] for g in parent_ids)
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


def _rows(boundary, mats, rank: int, offset: int = 0) -> list[dict]:
    """The ``rank`` cochain rows at a cell with boundary {(face, g): c}:
    the row at coordinate a adds c * M(g)[a] (``mats`` element matrices
    as sparse rows, as ``_view`` gives them) into the face's coordinate
    block, shifted by ``offset``."""
    rows: list[dict] = [{} for _ in range(rank)]
    for (face, g), c in boundary.items():
        if not c:
            continue
        base = offset + face * rank
        for row, mrow in zip(rows, mats[g]):
            for b, x in mrow:
                row[base + b] = row.get(base + b, 0) + c * x
    return rows


class _Bar:
    """The (normalized) bar resolution: its m-cells are the tuples
    [g1|..|gm] of (non-identity) elements, in ``itertools.product``
    order."""

    def __init__(self, group: FiniteGroup, normalized: bool = True):
        self.group = group
        self.normalized = normalized

    def cells(self, m: int) -> int:
        return cochain_dim(self.group.order, 1, m, self.normalized)

    def boundaries(self, m: int, last=None):
        """Yield (index, {(face index, g): coefficient}) per m-cell; with
        ``last``, only the cells whose last entry is in ``last``.

        d[g1|..|gm] = g1[g2|..] + sum (-1)^i [..|g_i g_{i+1}|..]
        + (-1)^m [g1|..|g_{m-1}]; normalized chains drop any face with an
        identity entry.
        """
        group, normalized = self.group, self.normalized
        order = group.order
        letters = _letters(order, normalized)
        if m < 1:
            if m == 0:
                yield 0, {}
            return
        tails = [g for g in letters if last is None or g in last]
        for head in itertools.product(letters, repeat=m - 1):
            for g in tails:
                tup = head + (g,)
                faces = [(tup[1:], tup[0])]
                faces += [(tup[:i] + (group.mul(tup[i], tup[i + 1]),)
                           + tup[i + 2:], 0) for i in range(m - 1)]
                faces.append((tup[:-1], 0))
                boundary: dict = {}
                for i, (face, elem) in enumerate(faces):
                    if normalized and 0 in face:
                        continue
                    key = (_tuple_index(face, order, normalized), elem)
                    boundary[key] = boundary.get(key, 0) + (-1) ** i
                yield _tuple_index(tup, order, normalized), boundary


class _Cayley:
    """The Cayley complex of a group on its generators s_1..s_k, as a free
    resolution of Z truncated after degree 2 (module docstring).

    ``FiniteGroup.tree()`` spans the Cayley graph.  Each edge (x, s_t)
    outside it closes a loop, word(x) then s_t then word(x s_t) backwards,
    that bounds one 2-cell.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        gens = group.generators
        # steps[x]: the (prefix p_{i-1}, letter t_i) pairs along word(x)
        self.steps = [()] * group.order
        for x, p, t in group.tree():
            self.steps[x] = self.steps[p] + ((p, t),)
        in_tree = {(p, t) for _, p, t in group.tree()}
        self.edges = [(x, t) for x in group.elements()
                      for t in range(len(gens)) if (x, t) not in in_tree]
        # each loop as signed edges (y, letter): the 2-cell's boundary is
        # their Fox derivative J_x + x e_t - J_{x s_t}
        self.loops = [[(x, t, 1)] + [(p, u, 1) for p, u in self.steps[x]]
                      + [(p, u, -1) for p, u in
                         self.steps[group.mul(x, gens[t])]]
                      for x, t in self.edges]
        cell_of = {e: i for i, e in enumerate(self.edges)}
        # the 2-cells met on the walk from g along word(h), g, h != 1
        self.paths = [[cell_of[(group.mul(g, p), t)] for p, t in self.steps[h]
                       if (group.mul(g, p), t) in cell_of]
                      for g in range(1, group.order)
                      for h in range(1, group.order)]

    def cells(self, m: int) -> int:
        return (1, len(self.group.generators), len(self.edges))[m] \
            if m >= 0 else 0

    def boundaries(self, m: int, last=None):
        """As ``_Bar.boundaries``, for m <= 2; ``last`` must be None."""
        if m == 0:
            yield 0, {}
            return
        # a 1-cell t has boundary s_t v - v, v the one 0-cell
        cells = self.loops if m == 2 else [
            [(s, 0, 1), (0, 0, -1)] for s in self.group.generators]
        for i, cell in enumerate(cells):
            boundary: dict = {}
            for y, u, sign in cell:
                boundary[(u, y)] = boundary.get((u, y), 0) + sign
            yield i, boundary

    def to_bar(self, m: int, vec: Sequence[int], mats, rank: int) -> list:
        """Cochain map Cayley -> normalized bar in degree m: f(g) = J_g c
        in degree 1; in degree 2, f(g, h) sums c over ``paths``."""
        group = self.group
        if m == 0:
            return list(vec)
        if m == 1:
            f = [[0] * rank for _ in group.elements()]
            for x, p, t in group.tree():
                ct = vec[t * rank:(t + 1) * rank]
                f[x] = [y + sum(e * ct[b] for b, e in mrow)
                        for y, mrow in zip(f[p], mats[p])]
            return [y for x in range(1, group.order) for y in f[x]]
        out = []
        for cells in self.paths:
            acc = [0] * rank
            for i in cells:
                for a in range(rank):
                    acc[a] += vec[i * rank + a]
            out += acc
        return out

    def from_bar(self, m: int) -> list[dict]:
        """Cochain map normalized bar -> Cayley in degree m, per m-cell as
        {bar cell: coefficient}: c_t = f(s_t); at a 2-cell, the signed sum
        of f(y, s_u) over its loop, i.e. f(x, s) + A_x - A_{xs}."""
        gens = self.group.generators
        q = self.group.order - 1
        if m == 0:
            return [{0: 1}]
        if m == 1:
            return [{s - 1: 1} if s else {} for s in gens]
        out = []
        for loop in self.loops:
            terms: dict = {}
            for y, u, sign in loop:
                if y and gens[u]:
                    k = (y - 1) * q + gens[u] - 1
                    terms[k] = terms.get(k, 0) + sign
            out.append(terms)
        return out


def _cayley(group: FiniteGroup) -> _Cayley:
    cached = getattr(group, "_cayley_cache", None)
    if cached is None:
        cached = _Cayley(group)
        object.__setattr__(group, "_cayley_cache", cached)
    return cached


def _total_rows(res, part1, part2, diff, n: int, last=None) -> list[dict]:
    """Rows, as {column: entry} dicts, of the total differential
    Tot^n -> Tot^{n+1} on the cochains of the resolution ``res``:
    Tot^n = C^{n+1}(A1) + C^n(A2), D(x, y) = (dx, (-1)^n diff*x + dy).
    Each part is (rank, element matrices as sparse rows); ``last`` as in
    ``_Bar.boundaries``."""
    (r1, mats1), (r2, mats2) = part1, part2
    rows = []
    if r1:
        for _, boundary in res.boundaries(n + 2, last):
            rows += _rows(boundary, mats1, r1)
    offset = res.cells(n + 1) * r1
    sign = -1 if n % 2 else 1
    for i, boundary in res.boundaries(n + 1, last):
        for a, row in enumerate(_rows(boundary, mats2, r2, offset)):
            if r1:
                for b, x in enumerate(diff[a]):
                    if x:
                        row[i * r1 + b] = sign * x
            rows.append(row)
    return rows


def bar_differential(group: FiniteGroup, mats: Sequence[Rows],
                     rank: int, n: int,
                     normalized: bool = True) -> IntMatrix:
    """Matrix of the bar-complex differential C^n -> C^{n+1}, the total
    differential of [0 -> A]; C^n = 0 for n < 0.  ``mats`` holds the
    element matrices as sparse rows (``GLattice.element_rows``)."""
    return total_differential(group, (), mats, 0, rank, None, n, normalized)


def total_differential(group: FiniteGroup, mats1, mats2, r1: int, r2: int,
                       diff: IntMatrix, n: int,
                       normalized: bool = True) -> IntMatrix:
    """Differential Tot^n -> Tot^{n+1} of the total complex
    Tot^n = C^{n+1}(L1) + C^n(L2), D(x, y) = (dx, (-1)^n diff*x + dy),
    element matrices given as sparse rows."""
    rows = _total_rows(_Bar(group, normalized), (r1, mats1), (r2, mats2),
                       diff, n)
    return dense_rows(rows, cochain_dim(group.order, r1, n + 1, normalized)
                      + cochain_dim(group.order, r2, n, normalized))


def _cayley_cohomology(group: FiniteGroup, part1, part2, diff, n: int):
    """H^n of the total complex of lattice parts from Cayley cochains,
    presented in normalized bar coordinates (module docstring)."""
    cay, bar = _cayley(group), _Bar(group)
    parts = (part1, part2)
    # (cochain degree, rank, matrices) of the two blocks of Tot^n
    blocks = ((n + 1,) + parts[0], (n,) + parts[1])

    def dim(res, m):
        return res.cells(m + 1) * parts[0][0] + res.cells(m) * parts[1][0]

    def to_bar(vec):
        out, start = [], 0
        for m, r, mats in blocks:
            size = r and cay.cells(m) * r
            if size:
                out += cay.to_bar(m, vec[start:start + size], mats, r)
            start += size
        return tuple(out)

    if n <= 0:
        # Z_bar = Q(Z_Cayley) + B_bar; B_bar lives on C^0 and C^1
        width = dim(cay, n)
        z = la.ColumnSpan(la.columns(dense_rows(
            _total_rows(cay, *parts, diff, n), width), width),
            track=width).kernel()
        im = (la.columns(dense_rows(_total_rows(bar, *parts, diff, n - 1),
                                    dim(bar, n - 1)))
              if n > (-1 if parts[0][0] else 0) else [])
        return la.abgroup_from_subquotient(
            [to_bar(v) for v in z] + im, im, dim(bar, n))
    def sparse(items):
        out: dict = {}
        for j, x in items:
            out[j] = out.get(j, 0) + x
        return tuple(sorted((j, x) for j, x in out.items() if x))

    def checks():
        # a bar cochain is a cocycle iff its coboundary vanishes at the
        # tuples that end in a generator (module docstring)
        return [sparse(row.items()) for row in _total_rows(
            bar, *parts, diff, n, set(group.generators) - {0})]

    d, ncols = _total_rows(cay, *parts, diff, n - 1), dim(cay, n - 1)
    if n == 1 and not part1[0] and _torsion_free(
            d, part2[0] - _fixed_rank(part2[1], group.order), group.order):
        tc = None
    else:
        tc = la.torsion_cokernel(d, ncols)
    # a vanishing H^n needs only the cocycle check
    if tc is None or tc.is_trivial:
        return la.AbGroupPresentation(dim(bar, n), (), (), (), None, checks)
    # bar -> Cayley on Tot^n, one row per Cayley coordinate
    pull, start = [], 0
    for m, r, _ in blocks:
        for terms in (cay.from_bar(m) if r else ()):
            pull += [sparse((start + cell * r + a, c)
                            for cell, c in terms.items()) for a in range(r)]
        start += bar.cells(m) * r
    return la.AbGroupPresentation(
        dim(bar, n), tc.factors, tuple(to_bar(g) for g in tc.generators),
        tc._rows, tc._basis, checks, tuple(pull))


def _fixed_rank(mats: Sequence[Rows], order: int) -> int:
    """rank L^H = (1/|H|) sum_h tr M(h), ``mats`` the sparse rows of all
    of H's elements."""
    trace = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, x in row:
                if j == i:
                    trace += x
    return trace // order


def _rank_mod(rows: Sequence[dict], p: int, stop: int) -> int:
    """Rank mod the prime p of the matrix with these rows {column:
    entry}, counted up to ``stop``.  For p = 2 each row becomes a Python
    int, one bit per odd entry."""
    if stop <= 0:
        return 0
    if p == 2:
        basis: dict[int, int] = {}  # leading bit -> row
        for row in rows:
            x = 0
            for j, v in row.items():
                if v & 1:
                    x |= 1 << j
            while x:
                lead = x.bit_length() - 1
                if lead not in basis:
                    basis[lead] = x
                    break
                x ^= basis[lead]
            if len(basis) == stop:
                break
        return len(basis)
    # pivot column -> row, 1 there and 0 at the columns of earlier pivots
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        v = {j: x % p for j, x in row.items() if x % p}
        for c, prow in pivots.items():
            f = v.get(c)
            if f:
                for j, y in prow.items():
                    x = (v.get(j, 0) - f * y) % p
                    if x:
                        v[j] = x
                    else:
                        v.pop(j, None)
        if v:
            lead = min(v)
            inv = pow(v[lead], -1, p)
            pivots[lead] = {j: x * inv % p for j, x in v.items()}
            if len(pivots) == stop:
                break
    return len(pivots)


def _torsion_free(rows: Sequence[dict], rank: int, order: int) -> bool:
    """Whether the cokernel of an integer matrix of rank ``rank`` over Q
    is torsion-free, given that its torsion is killed by ``order``: iff
    the matrix keeps that rank mod every prime p | order."""
    return all(_rank_mod(rows, p, rank) == rank for p in prime_factors(order))


def _cohomology(h, a, n: int, normalized: bool) -> CohomologyGroup:
    """H^n of the total complex of ``a`` seen as [A1 -> A2] (``_view``):
    Tot^m = C^{m+1}(A1) + C^m(A2)."""
    sub, parent_ids = _acting(h)
    (r1, mats1, rel1), (r2, mats2, rel2), diff, lattices = _view(
        a, parent_ids)
    order = sub.order
    if normalized and lattices:
        pres = _cayley_cohomology(sub, (r1, mats1), (r2, mats2), diff, n)
    else:
        def d(m):
            return total_differential(sub, mats1, mats2, r1, r2, diff, m,
                                      normalized)

        def rel(m):  # A1's relations per (m+1)-tuple, A2's per m-tuple
            return la.columns(la.block_diag(
                *[rel1] * cochain_dim(order, 1, m + 1, normalized),
                *[rel2] * cochain_dim(order, 1, m, normalized)))

        dim = (cochain_dim(order, r1, n + 1, normalized)
               + cochain_dim(order, r2, n, normalized))
        # Tot^{n-1} is zero below degree -1, or below 0 when A1 = 0
        im = la.columns(d(n - 1)) if n > (-1 if r1 else 0) else []
        rel_n = rel(n)
        num = la.ColumnSpan(la.columns(d(n), dim) + rel(n + 1),
                            track=dim).kernel() + rel_n
        pres = la.abgroup_from_subquotient(num, im + rel_n, dim)
    return CohomologyGroup(n, pres.factors, pres.generators, pres, normalized)


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
    """H^n(H, A) on (normalized) bar cochains (module docstring)."""
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
    sub, parent_ids = _acting(h)
    _, (rank, mats, _), _, _ = _view(lat, parent_ids)
    norm = [[0] * rank for _ in range(rank)]
    for m in mats:
        for i, row in enumerate(m):
            for j, x in row:
                norm[i][j] += x
    # the generators s alone give I_H L and L^H, since
    # (gs - 1)x = (g - 1)(sx) + (s - 1)x
    if n == -1:
        num = la.kernel_basis(norm)
        # I_H L is spanned by the columns of the blocks M(s) - 1 side by
        # side
        rows = _minus_one_rows([mats[s] for s in sub.generators], rank)
        if _torsion_free(rows, rank - _fixed_rank(mats, sub.order),
                         sub.order):
            # the zero group span(num)/span(num): ``reduce`` still
            # refuses a vector off span(num)
            pres = la.AbGroupPresentation(rank, (), (), (),
                                          la.ColumnSpan(num).echelon)
            return CohomologyGroup(n, (), (), pres)
        den = la.columns(dense_rows(rows, len(sub.generators) * rank))
    else:
        num = common_fixed_points([mats[s] for s in sub.generators], rank)
        den = la.columns(norm)
    pres = la.abgroup_from_subquotient(num, den, rank)
    return CohomologyGroup(n, pres.factors, pres.generators, pres)


def _minus_one_rows(mats: Sequence[Rows], rank: int) -> list[dict]:
    """The rows {column: entry} of the blocks M - 1 side by side, each M
    given as sparse rows."""
    out: list[dict] = [{} for _ in range(rank)]
    for k, m in enumerate(mats):
        base = k * rank
        for i, row in enumerate(m):
            out_row = out[i]
            for j, x in row:
                out_row[base + j] = x
            x = out_row.get(base + i, 0) - 1
            if x:
                out_row[base + i] = x
            else:
                del out_row[base + i]
    return out


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

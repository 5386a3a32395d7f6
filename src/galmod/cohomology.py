"""Group cohomology by explicit cochain linear algebra.

H^n (n = 0, 1, 2) and Tate H^-1/H^0 for lattices, hypercohomology of
two-term complexes in degrees -1..1, restriction maps, and a Shapiro
comparator.

Every coefficient is a two-term complex [A1 -> A2], A1 in degree -1,
with total complex Tot^n = C^{n+1}(A1) + C^n(A2) (``_layout`` places the
blocks), and a lattice or module A is [0 -> A].  Answers are given on
normalized bar cochains, which vanish whenever an argument is the
identity: (|H|-1)^n coordinate blocks in degree n.  Generators,
``reduce``, restriction and patching all use them.

``_cohomology`` is the one route.  It works on one free resolution of Z,
which answers ``cells(m)``, ``boundaries(m, last)`` and ``to_bar``, its
cochain map into the bar complex:

* ``_Bar``, the bar resolution (normalized or not), whose ``to_bar`` is
  the identity.  It alone numbers the bar cells, for ``cochain_dim``,
  ``cochain_pullback`` and the Cayley maps.  FgModule coefficients, whose
  cochains carry torsion of their own, and ``normalized=False`` (the
  oracle for tests) use it.
* ``_Cayley``, used when every part is a lattice: the Cayley complex of
  H on its generators s_1..s_k (Holt, JSC 1985; Brown, Cohomology of
  Groups, II.5).  The BFS spanning tree ``FiniteGroup.tree()`` gives each
  x its word(x), and each of the |H|(k-1)+1 ``loop_edges()`` (x, s)
  bounds a 2-cell, so C^0 = L, C^1 = L^k and C^2 = L^cells, with d^0 the
  stacked M(s) - 1 and (d^1 c)(x, s) = J_x c + M(x) c_s - J_{xs} c.  Here
  J_x c sums M(p_{i-1}) c_{t_i} along word(x) = t_1..t_m, p_i its
  prefixes.  Cayley -> bar: f(g) = J_g c; f(g, h) sums c over the
  2-cells met on the walk from g along word(h).  Bar -> Cayley
  (``from_bar``): c_t = f(s_t); c(x, s) = f(x, s) + A_x - A_{xs}, A_x the
  sum of f(p_{i-1}, s_{t_i}) along word(x).  All of it is read off two
  lists indexed by the degree m: ``faces[m]``, each m-cell's boundary as
  signed terms (g, face, sign), and ``chains[m]``, each bar m-cell's
  image in the Cayley chains as terms (g, cell).  ``to_bar`` sums
  M(g) c_cell over ``chains``; ``from_bar`` is dual to the chain map
  that sends the 0-cell to [] and a cell to the signed sum of [g | the
  image of the face] over its ``faces``.

The kernel route runs for n <= 0, or for any n on ``_Bar``.  With Z the
kernel of the resolution's d^n plus the relations, B the image of the
bar d^{n-1} and R the relations on bar Tot^n, H^n is
(to_bar(Z) + B + R) / (B + R).

The torsion route runs for n >= 1 on ``_Cayley``.  There H^n(H, L) is
killed by |H| (Brown III.10.2), and hypercohomology in degree 1 sits
between H^1(L2) and H^2(L1).  So Z^n is the saturation of B^n, and H^n
is the torsion of Tot^n / B^n, read from the Smith form U A V = D of the
Cayley d^{n-1} alone, on its sparse rows (intlinalg.torsion_cokernel).
Only V is tracked: the columns g_i = (A V)_i / d_i of U^{-1}, i below
the rank, are a basis of the saturation, and a Cayley cocycle's
coordinates on them, read off an echelon of the g_i, are the z_i =
(U c)_i.  The generators are the g_i with d_i > 1 taken Cayley -> bar;
``reduce`` takes a bar cocycle bar -> Cayley (its pull rows), writes it
on that echelon and reads each kept z_i mod d_i; and its check rows, the
rows of the bar d^n at the argument tuples that end in a generator, test
first that a cochain is a cocycle.  A vanishing H^n keeps only the check
rows.  That check is complete, by the induction on len(word(y)) of
``FiniteGroup.loop_edges``: phi = d v is a cocycle, so if phi(.., s) = 0
at each generator s, (d phi)(.., c, s) = 0 gives phi(.., cs) =
phi(.., c), and phi(.., y) = phi(.., 1) = 0.  Its rows are built by the
first ``reduce`` and kept: the vanishing checks of ``complexes.classify``
never reduce.

Whether H^1(H, L) or Tate H^-1(H, L) of a lattice vanishes is decided in
one place, ``_vanishing``, by ranks mod p, before any Smith form and
before ``_acting`` or ``_cayley`` runs.  It reads H's members and
generators as ids of the group L lives over (``SubgroupHandle.members``
and ``.generators``) and the rows of L's element matrices
(``GLattice.element_rows``), so a subgroup that vanishes never gets a
standalone group or a Cayley complex.  Let A be the matrix of the
M(s) - 1, s over H's generators: stacked for H^1, the Cayley d^0, whose
cokernel's torsion is H^1; side by side for Tate H^-1 = ker N / I_H L,
the torsion of Z^r / I_H L, since I_H L is spanned by A's columns and
ker N is saturated of the same rank.  (Mod p the two layouts are not
interchangeable: their cokernels are H^1 of L and of L^*.)  That torsion
is killed by |H|, so it vanishes iff A has the same rank mod p, for
every prime p | |H|, as over Q; and the rank over Q is r - rank L^H,
with rank L^H = (1/|H|) sum_h tr M(h).  ``_rank_mod`` reads the rows of
A as {column: entry}, as they are built (for p = 2, bits packed from the
odd entries), so no vanishing test makes A dense.  When the ranks agree,
the zero group keeps only deferred check rows, so its ``reduce`` still
refuses a non-cocycle or a vector outside ker N: for H^1 the cocycle
check rows, built with H's standalone group on the first ``reduce``; for
Tate H^-1 the rows of the norm N, which vanish exactly on ker N, so no
kernel of N is computed.  The closures hold element rows, not L: L's
cache holds the presentation, and a closure holding L would close a
reference cycle.  A group that does not vanish, ``normalized=False``
and module or complex coefficients take the routes above.

Results are cached on the coefficient object (lattice, module or
complex), keyed by the kind of cohomology, the subgroup's members (a
whole group's generator list), the degree and ``normalized``; they live
as long as the coefficient does.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence, Union

from . import intlinalg as la
from .groups import (FiniteGroup, MembershipError, SubgroupHandle,
                     prime_factors)
from .intlinalg import AbGroupPresentation, IntMatrix, dense_rows
from .lattice import (FgModule, GLattice, Rows, _minus_one_entries,
                      common_fixed_points, fixed_rank, induce)


class UnsupportedDegreeError(Exception):
    pass


class UnsupportedCoefficientsError(Exception):
    pass


Coefficient = Union[GLattice, FgModule]
HYPER_DEGREES = (-1, 0, 1)


class CohomologyGroup(NamedTuple):
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


class CohMap(NamedTuple):
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


def _in_parent(h) -> tuple[Sequence[int], tuple[int, ...]]:
    """The members and generators of a FiniteGroup or SubgroupHandle as
    ids of the group it lives in, without a standalone group."""
    if isinstance(h, SubgroupHandle):
        return h.members, h.generators
    return h.elements(), h.generators


def _view(a, parent_ids: Sequence[int]):
    """A coefficient as a two-term complex [A1 -> A2], A1 in degree -1.

    Returns (rank, element matrices of ``parent_ids`` as the part's
    cached sparse rows (``GLattice.element_rows``), relation columns as
    {row: entry}) for A1 and for A2, the differential A1 -> A2 (None for a
    lattice or module A, which is [0 -> A]), and whether every part is a
    lattice, i.e. whether the cochains are free of torsion of their own.
    """
    def part(x):
        if x is None:
            return 0, (), []
        rows = x.element_rows()
        sel = tuple(rows[g] for g in parent_ids)
        if isinstance(x, GLattice):
            return x.rank, sel, []
        return x.ngens, sel, la.rows_transpose(
            la.sparse_rows(x.relations), la.shape(x.relations)[1])

    if isinstance(a, (GLattice, FgModule)):
        parts, diff = (None, a), None
    else:
        parts, diff = (a.l1, a.l2), a.differential.matrix
    return (part(parts[0]), part(parts[1]), diff,
            not any(isinstance(x, FgModule) for x in parts))


def cochain_dim(order: int, rank: int, n: int, normalized: bool = True) -> int:
    return _Bar(order, normalized).cells(n) * rank


def _layout(res, r1: int, r2: int, n: int):
    """Where the blocks of Tot^n = C^{n+1}(A1) + C^n(A2) sit on the
    cochains of the resolution ``res``, A1 and A2 of ranks r1 and r2:
    one (cochain degree, rank, offset, size) per block, then the
    dimension of Tot^n.  A block of rank 0 is empty in every degree."""
    blocks, start = [], 0
    for m, r in ((n + 1, r1), (n, r2)):
        size = r and res.cells(m) * r
        blocks.append((m, r, start, size))
        start += size
    return blocks, start


def _rows(boundary, mats, rank: int, offset: int = 0) -> list[dict]:
    """The ``rank`` cochain rows at a cell with boundary {(face, g): c}:
    the row at coordinate a adds c * M(g)[a] (``mats`` element matrices
    as sparse rows, as ``_view`` gives them) into the face's coordinate
    block, shifted by ``offset``.  An entry that cancels is deleted, so
    the rows hold no zero."""
    rows: list[dict] = [{} for _ in range(rank)]
    for (face, g), c in boundary.items():
        if not c:
            continue
        base = offset + face * rank
        for row, mrow in zip(rows, mats[g]):
            for b, x in mrow.items():
                y = row.get(base + b, 0) + c * x
                if y:
                    row[base + b] = y
                else:
                    del row[base + b]
    return rows


def _collect(terms) -> dict:
    """{key: summed coefficient} of (key, coefficient) pairs."""
    out: dict = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return out


class _Bar:
    """The (normalized) bar resolution of a group of order ``order`` with
    multiplication ``mul`` (needed only by ``boundaries``).  Its m-cells
    are the tuples [g1|..|gm] of (non-identity) elements, numbered in
    ``itertools.product`` order: ``tuples`` lists them in that order and
    ``index`` numbers one.  No other code knows the numbering."""

    def __init__(self, order: int, normalized: bool = True, mul=None):
        self.normalized = normalized
        self.mul = mul
        self.skip = int(normalized)  # letters start past the identity
        self.letters = range(self.skip, order)

    def cells(self, m: int) -> int:
        return len(self.letters) ** m if m >= 0 else 0

    def tuples(self, m: int):
        return itertools.product(self.letters, repeat=m)

    def index(self, tup: tuple[int, ...]) -> int | None:
        """The number of the cell [g1|..|gm]; None when normalized chains
        drop it, i.e. when an entry is the identity."""
        if self.normalized and 0 in tup:
            return None
        idx, q = 0, len(self.letters)
        for g in tup:
            idx = idx * q + g - self.skip
        return idx

    def boundaries(self, m: int, last=None):
        """Yield (index, {(face index, g): coefficient}) per m-cell; with
        ``last``, only the cells whose last entry is in ``last``.

        d[g1|..|gm] = g1[g2|..] + sum (-1)^i [..|g_i g_{i+1}|..]
        + (-1)^m [g1|..|g_{m-1}]; normalized chains drop any face with an
        identity entry.
        """
        if m < 1:
            if m == 0:
                yield 0, {}
            return
        tails = [g for g in self.letters if last is None or g in last]
        for head in self.tuples(m - 1):
            for g in tails:
                tup = head + (g,)
                faces = [(tup[1:], tup[0])]
                faces += [(tup[:i] + (self.mul(tup[i], tup[i + 1]),)
                           + tup[i + 2:], 0) for i in range(m - 1)]
                faces.append((tup[:-1], 0))
                keys = [(self.index(face), elem) for face, elem in faces]
                yield self.index(tup), _collect(
                    (key, (-1) ** i) for i, key in enumerate(keys)
                    if key[0] is not None)

    def to_bar(self, m: int, vec: Sequence[int], mats, rank: int):
        """The identity: its cochains are the bar cochains."""
        return vec


class _Cayley:
    """The Cayley complex of a group on its generators s_1..s_k, as a free
    resolution of Z truncated after degree 2 (module docstring), with
    cochain maps to and from the normalized bar complex ``bar``.

    ``FiniteGroup.tree()`` spans the Cayley graph.  Each edge (x, s_t)
    outside it (``loop_edges()``) closes a loop, word(x) then s_t then
    word(x s_t) backwards, that bounds one 2-cell.  The methods read only
    the per-degree ``faces`` and ``chains`` (module docstring).
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.bar = bar = _Bar(group.order)
        gens = group.generators
        # steps[x]: the (prefix p_{i-1}, letter t_i) pairs along word(x)
        self.steps = [()] * group.order
        for x, p, t in group.tree():
            self.steps[x] = self.steps[p] + ((p, t),)
        self.edges = group.loop_edges()
        # the 1-cell t bounds s_t v - v; the 2-cell (x, t) its loop's Fox
        # derivative J_x + x e_t - J_{x s_t}
        self.faces = [[[]], [[(s, 0, 1), (0, 0, -1)] for s in gens],
                      [[(x, t, 1)] + [(p, u, 1) for p, u in self.steps[x]]
                       + [(p, u, -1) for p, u in
                          self.steps[group.mul(x, gens[t])]]
                       for x, t in self.edges]]
        # [] goes to the 0-cell, [x] to the path word(x), and [g|h] to the
        # 2-cells met on the walk from g along word(h)
        term = {e: (0, i) for i, e in enumerate(self.edges)}  # 1 * cell i
        self.chains = [[[(0, 0)]], [self.steps[x] for (x,) in bar.tuples(1)],
                       [[term[(group.mul(g, p), t)] for p, t in self.steps[h]
                         if (group.mul(g, p), t) in term]
                        for g, h in bar.tuples(2)]]

    def cells(self, m: int) -> int:
        return len(self.faces[m]) if m >= 0 else 0

    def boundaries(self, m: int, last=None):
        """As ``_Bar.boundaries``, for m <= 2; ``last`` must be None."""
        if m < 0:
            return
        for i, cell in enumerate(self.faces[m]):
            yield i, _collect(((face, g), sign) for g, face, sign in cell)

    def to_bar(self, m: int, vec: Sequence[int], mats, rank: int) -> list:
        """Cochain map Cayley -> normalized bar in degree m: at each bar
        m-cell, the sum of M(g) c_cell over its ``chains`` terms.  Each
        distinct term is one sparse product, kept for the call: in degree
        1 the paths word(x) share their tree edges."""
        out = []
        images: dict = {}  # (g, cell) -> M(g) c_cell
        for terms in self.chains[m]:
            acc = [0] * rank
            for term in terms:
                image = images.get(term)
                if image is None:
                    g, cell = term
                    image = vec[cell * rank:(cell + 1) * rank]
                    if g:  # else M(1) c = c
                        image = la.rows_apply(mats[g], image)
                    images[term] = image
                acc = [x + y for x, y in zip(acc, image)]
            out += acc
        return out

    def from_bar(self, m: int) -> list[dict]:
        """Cochain map normalized bar -> Cayley in degree m, per m-cell as
        {bar cell: coefficient}.  It is dual to the chain map that sends
        the 0-cell to [] and an m-cell to the sum of sign [g | the bar
        chain of face] over its ``faces``, dropping g = 1."""
        images = [{(): 1}]
        for cells in self.faces[1:m + 1]:
            images = [_collect(((g,) + tup, sign * c)
                               for g, face, sign in cell if g
                               for tup, c in images[face].items())
                      for cell in cells]
        return [{self.bar.index(tup): c for tup, c in image.items()}
                for image in images]


def _cayley(group: FiniteGroup) -> _Cayley:
    cached = getattr(group, "_cayley_cache", None)
    if cached is None:
        cached = _Cayley(group)
        object.__setattr__(group, "_cayley_cache", cached)
    return cached


def _total_rows(res, part1, part2, diff, n: int, last=None) -> list[dict]:
    """Rows, as {column: entry} dicts, of the total differential
    Tot^n -> Tot^{n+1} on the cochains of the resolution ``res``:
    D(x, y) = (dx, (-1)^n diff*x + dy) (``_layout``).  Each part is
    (rank, element matrices as sparse rows); ``last`` as in
    ``_Bar.boundaries``."""
    (r1, mats1), (r2, mats2) = part1, part2
    ((m1, _, o1, _), (m2, _, o2, _)), _ = _layout(res, r1, r2, n)
    rows = []
    if r1:
        for _, boundary in res.boundaries(m1 + 1, last):
            rows += _rows(boundary, mats1, r1, o1)
    sign = -1 if n % 2 else 1
    for i, boundary in res.boundaries(m2 + 1, last):
        for a, row in enumerate(_rows(boundary, mats2, r2, o2)):
            if r1:
                for b, x in enumerate(diff[a]):
                    if x:
                        row[o1 + i * r1 + b] = sign * x
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
    bar = _Bar(group.order, normalized, group.mul)
    return dense_rows(_total_rows(bar, (r1, mats1), (r2, mats2), diff, n),
                      _layout(bar, r1, r2, n)[1])


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


def _cocycle_checks(sub: FiniteGroup, parts, diff, n: int) -> list[dict]:
    """The rows of the normalized bar d^n at the tuples that end in a
    generator of ``sub``: a bar cochain is a cocycle iff they vanish on
    it (module docstring).  ``parts`` and ``diff`` as in
    ``_total_rows``."""
    return _total_rows(_Bar(sub.order, True, sub.mul), *parts, diff, n,
                       set(sub.generators) - {0})


def _norm_rows(mats: Sequence[Rows], rank: int) -> list[dict]:
    """The rows {column: entry} of the norm N, the sum of ``mats``."""
    norm: list[dict] = [{} for _ in range(rank)]
    for m in mats:
        for out, row in zip(norm, m):
            for j, x in row.items():
                out[j] = out.get(j, 0) + x
    return [{j: x for j, x in row.items() if x} for row in norm]


def _vanishing(h, lat: GLattice, stacked: bool):
    """The zero presentation of H^1(H, L) (``stacked``) or of Tate
    H^-1(H, L) when that group vanishes, else None.

    Decided by ranks mod p on the blocks M(s) - 1, s over H's
    generators, stacked or side by side, read off the lattice's element
    rows in parent ids (module docstring).  The check rows are deferred:
    the bar cocycle rows, whose standalone group ``_acting`` builds on
    the first ``reduce``, or the rows of N.  The closures hold element
    rows, not ``lat``, whose cache holds the presentation."""
    members, gens = _in_parent(h)
    rows, rank, order = lat.element_rows(), lat.rank, len(members)
    blocks = _minus_one_rows([rows[s] for s in gens], rank, stacked)
    if not _torsion_free(blocks, rank - fixed_rank(
            [rows[m] for m in members], order), order):
        return None
    if not stacked:
        return la.AbGroupPresentation(rank, (), (), (), None, lambda: (
            _norm_rows([rows[m] for m in members], rank)))

    def checks():
        sub, ids = _acting(h)
        return _cocycle_checks(
            sub, ((0, ()), (rank, tuple(rows[g] for g in ids))), None, 1)
    return la.AbGroupPresentation(cochain_dim(order, rank, 1), (), (), (),
                                  None, checks)


def _cohomology(h, a, n: int, normalized: bool) -> CohomologyGroup:
    """H^n of the total complex of ``a`` seen as [A1 -> A2] (``_view``),
    computed on one resolution and presented on bar cochains (module
    docstring).  A vanishing H^1 of a lattice is answered by
    ``_vanishing`` before any of them is built."""
    if n == 1 and normalized and isinstance(a, GLattice):
        pres = _vanishing(h, a, stacked=True)
        if pres is not None:
            return CohomologyGroup(n, (), (), pres)
    sub, parent_ids = _acting(h)
    (r1, mats1, rel1), (r2, mats2, rel2), diff, lattices = _view(
        a, parent_ids)
    parts = ((r1, mats1), (r2, mats2))
    bar = _Bar(sub.order, normalized, sub.mul)
    res = _cayley(sub) if normalized and lattices else bar

    def tot(res, m, last=None):  # rows of d^m, and the width of Tot^m
        return _total_rows(res, *parts, diff, m, last), \
            _layout(res, r1, r2, m)[1]

    def to_bar(vec):
        out = []
        for (m, r, start, size), mats in zip(_layout(res, r1, r2, n)[0],
                                             (mats1, mats2)):
            if size:
                out += res.to_bar(m, vec[start:start + size], mats, r)
        return tuple(out)

    blocks, dim = _layout(bar, r1, r2, n)
    if n <= 0 or res is bar:  # the kernel route
        def rel(res, m):  # each part's relations on each of its cells
            return [{off + i: x for i, x in c.items()}
                    for (_, r, start, size), part in zip(
                        _layout(res, r1, r2, m)[0], (rel1, rel2))
                    for off in range(start, start + size, r or 1)
                    for c in part]

        rows, width = tot(res, n)
        z = la.ColumnSpan(la.rows_transpose(rows, width) + rel(res, n + 1),
                          track=width).kernel()
        den = la.rows_transpose(*tot(bar, n - 1)) + rel(bar, n)
        pres = la.abgroup_from_subquotient(
            [to_bar(v) for v in z] + den, den, dim)
    else:  # the torsion route
        def checks():
            return _cocycle_checks(sub, parts, diff, n)

        tc = la.torsion_cokernel(*tot(res, n - 1))
        # a vanishing H^n needs only the cocycle check
        if tc.is_trivial:
            pres = la.AbGroupPresentation(dim, (), (), (), None, checks)
        else:
            # bar -> Cayley on Tot^n, one row per Cayley coordinate
            pull = []
            for m, r, start, _ in blocks:
                for terms in (res.from_bar(m) if r else ()):
                    pull += [{start + cell * r + b: c
                              for cell, c in terms.items() if c}
                             for b in range(r)]
            pres = la.AbGroupPresentation(
                dim, tc.factors, tuple(map(to_bar, tc.generators)),
                tc._rows, tc._basis, checks, tuple(pull))
    return CohomologyGroup(n, pres.factors, pres.generators, pres, normalized)


def _cached(coeff, kind: str, h, n: int, normalized: bool, compute):
    """Look a result up in, or add it to, the cache stored on ``coeff``.

    The key holds a subgroup's members, or a whole group's generator
    list, not the identity of a group object: callers may pass another
    group object with the same multiplication table, and answers depend
    only on the table and the generators, which build the Cayley complex
    and so fix the generator cochains (a handle's members fix those of
    ``as_group()``).  A group with another table is refused before the
    cache is read: its element ids do not index the coefficient's element
    matrices.
    """
    g = h.parent if isinstance(h, SubgroupHandle) else h
    if not g.same_table(coeff.group):
        raise MembershipError("acting group is not the coefficient's group")
    cache = getattr(coeff, "_coh_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(coeff, "_coh_cache", cache)
    key = (kind, ("members", h.members) if isinstance(h, SubgroupHandle)
           else ("generators", h.generators), n, normalized)
    out = cache.get(key)
    if out is None:
        out = cache[key] = compute()
    return out


def group_cohomology(h, a: Coefficient, n: int,
                     normalized: bool = True) -> CohomologyGroup:
    """H^n(H, A) on (normalized) bar cochains (module docstring)."""
    if n not in (0, 1, 2):
        raise UnsupportedDegreeError(f"degree {n} not in {{0, 1, 2}}")
    if not isinstance(a, (GLattice, FgModule)):
        raise UnsupportedCoefficientsError(
            "group cohomology needs a lattice or a module")
    return _cached(a, "group", h, n, normalized,
                   lambda: _cohomology(h, a, n, normalized))


def hypercohomology(h, t, n: int, normalized: bool = True) -> CohomologyGroup:
    """Hypercohomology of a two-term complex of lattices, degrees -1..1."""
    if n not in HYPER_DEGREES:
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
    if n == -1:
        pres = _vanishing(h, lat, stacked=False)
        if pres is not None:
            return CohomologyGroup(n, (), (), pres)
    members, gens = _in_parent(h)
    rows, rank = lat.element_rows(), lat.rank
    # the columns of the norm N, each {row: entry}
    norm = la.rows_transpose(
        _norm_rows([rows[m] for m in members], rank), rank)
    # the generators s alone give I_H L and L^H, since
    # (gs - 1)x = (g - 1)(sx) + (s - 1)x
    if n == -1:
        num = la.ColumnSpan(norm, track=rank).sparse_kernel()
        # I_H L is spanned by the columns of the blocks M(s) - 1 side by
        # side
        den = la.rows_transpose(
            _minus_one_rows([rows[s] for s in gens], rank, stacked=False),
            len(gens) * rank)
    else:
        num = common_fixed_points([rows[s] for s in gens], rank)
        den = norm
    pres = la.abgroup_from_subquotient(num, den, rank)
    return CohomologyGroup(n, pres.factors, pres.generators, pres)


def _minus_one_rows(mats: Sequence[Rows], rank: int,
                    stacked: bool) -> list[dict]:
    """The rows {column: entry} of the blocks M - 1, each M given as
    sparse rows: stacked, the Cayley d^0 whose cokernel's torsion is
    H^1, or side by side, whose columns span I_H L."""
    if stacked:
        out: list[dict] = [{} for _ in range(len(mats) * rank)]
        for k, i, j, x in _minus_one_entries(mats):
            out[k * rank + i][j] = x
    else:
        out = [{} for _ in range(rank)]
        for k, i, j, x in _minus_one_entries(mats):
            out[i][k * rank + j] = x
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
    blocks, _ = _layout(_Bar(src.order, normalized), r1, r2, n)
    cols = []
    for gen in source.generators:
        vec: list[int] = []
        for m, rank, start, size in blocks:
            if size:  # empty: the C^{n+1}(0) block, or C^{-1}(L2)
                vec += cochain_pullback(gen[start:start + size], src.order,
                                        elem_map, rank, m, normalized)
        cols.append(list(target.reduce(vec)))
    matrix = la.from_columns(cols, len(target.invariant_factors))
    return CohMap(source, target, matrix)


hyper_restriction = restriction  # one map for both kinds of coefficient


def cochain_pullback(vec: Sequence[int], src_order: int,
                     elem_map: Sequence[int], rank: int, n: int,
                     normalized: bool = True) -> list[int]:
    """Pull an n-cochain back along a group inclusion; ``elem_map[i]`` is
    the source id of target element i (so the identity maps to 0)."""
    source, target = _Bar(src_order, normalized), _Bar(len(elem_map),
                                                       normalized)
    out = []
    for tup in target.tuples(n):
        start = source.index(tuple(elem_map[g] for g in tup)) * rank
        out += vec[start:start + rank]
    return out


class ShapiroVerdict(NamedTuple):
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

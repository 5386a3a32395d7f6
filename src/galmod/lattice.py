"""G-lattices and equivariant maps: exact integer modules with a group
action by unimodular matrices.

A GLattice or FgModule stores one form of its action: one matrix per
group generator as sparse rows, each a dict {column: nonzero entry}
(``intlinalg.SparseRow``).  The builders here and in ``complexes`` make
those rows (``GLattice.from_rows``, and ``FgModule.from_rows`` for the
H^0 of ``complexes.homology``, through one row check); a lattice or
module given dense matrices, loaded ones included, is checked
(``check_action``) and reads its rows off them once, when built.
``action``, the dense matrices, is a view built on first read; the
library reads it nowhere (``serialize`` renders its JSON rows from the
sparse rows and keeps none).  Whether a lattice is a permutation lattice is
read off the same rows (``GLattice.is_permutation_certified``), so a
loaded lattice answers as the one dumped.  The matrices of all elements
are kept once per lattice (or module) as sparse rows too: fixed points,
permutation covers, squares and cohomology all read them in that form.
The rows come from sparse products along the BFS spanning tree
``FiniteGroup.tree()``.  They are shared, not copied (a generator's rows
are an element's, a summand's are the direct sum's, and a monomial row
of a product is a row of the right factor), so no reader mutates one.
Dense element matrices (``element_matrices``) are read off the rows on
request and not kept.
A sublattice basis may be dense or {index: entry} columns, such as
``ColumnSpan.sparse_kernel()``.  FgModule is the only torsion-capable
type (cokernels live there); lattices are always free.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Sequence

from . import intlinalg as la
from .frozen import Frozen
from .groups import (FiniteGroup, MembershipError, SubgroupHandle,
                     coset_action)
from .intlinalg import IntMatrix, SparseRow

Rows = tuple[SparseRow, ...]  # one matrix as sparse rows


class EquivarianceError(Exception):
    """A map or action fails an equivariance / well-definedness check."""


def has_shape(m: Sequence[Sequence[int]], rows: int, cols: int) -> bool:
    """Whether ``m`` is rows x cols, every row read: a ragged matrix is
    no matrix.  One with no rows cannot carry its column count."""
    return len(m) == rows and all(len(row) == cols for row in m)


def check_action(group: FiniteGroup, rank: int,
                 action: Sequence[Sequence[Sequence[int]]]) -> None:
    """Refuse, with ValueError, anything but one rank x rank matrix per
    generator of ``group``: ``GLattice`` and ``FgModule`` on their dense
    matrices, loaded ones included."""
    if len(action) != len(group.generators):
        raise ValueError("one action matrix per generator required")
    if not all(has_shape(m, rank, rank) for m in action):
        raise ValueError("action matrix has wrong shape")


class _ElementRows(Frozen):
    """The matrices of a GLattice or FgModule as sparse rows: the
    generators', stored, and every group element's, built once."""

    def action_rows(self) -> tuple[Rows, ...]:
        """The generator matrices as sparse rows, by generator index."""
        return self._action_rows

    def element_rows(self) -> tuple[Rows, ...]:
        return self._element_rows

    def element_matrices(self) -> tuple[IntMatrix, ...]:
        return tuple(la.dense_rows(m, self._dim) for m in self.element_rows())

    @cached_property
    def action(self) -> tuple[IntMatrix, ...]:
        """The dense generator matrices, read off the rows on first read."""
        return tuple(la.dense_rows(m, self._dim) for m in self._action_rows)

    @classmethod
    def _from_rows(cls, group: FiniteGroup, dim: int, rows: Sequence[Rows],
                   **fields):
        """The object with these sparse generator rows, kept as
        ``action_rows()`` (not copied: zero-free, and never mutated), and
        the other ``fields``.  Every row must name only columns in
        0..dim-1: the columns all rows name are gathered into one set in
        C, and its least and largest are read."""
        if len(rows) != len(group.generators) \
                or any(len(m) != dim for m in rows):
            raise ValueError("one rank x rank action matrix per generator")
        named = set().union(*chain.from_iterable(rows))
        if named and (min(named) < 0 or max(named) >= dim):
            raise ValueError(
                f"action row names a column outside 0..{dim - 1}")
        obj = cls.__new__(cls)
        vars(obj).update(group=group, _action_rows=tuple(rows), **fields)
        return obj

    @cached_property
    def _element_rows(self) -> tuple[Rows, ...]:
        """Each entry (x, p, t) of ``FiniteGroup.tree()`` has x = p s_t, so
        M(x) = M(p) M(s_t) costs one sparse product per element x with
        p != 1."""
        gens = self.action_rows()
        rows = [tuple({i: 1} for i in range(self._dim))] * self.group.order
        for x, p, t in self.group.tree():
            rows[x] = la.rows_mul(rows[p], gens[t]) if p else gens[t]
        return tuple(rows)


class GLattice(_ElementRows):
    """Free Z-module of finite rank with a group action by unimodular
    matrices (one per generator)."""

    _fields = ("group", "rank", "action")

    def __init__(self, group: FiniteGroup, rank: int,
                 action: tuple[IntMatrix, ...]):
        check_action(group, rank, action)
        vars(self).update(group=group, rank=rank,
                          _action_rows=tuple(map(la.sparse_rows, action)))

    @classmethod
    def from_rows(cls, group: FiniteGroup, rank: int,
                  rows: Sequence[Rows]) -> "GLattice":
        """The lattice with these sparse generator rows, checked and kept
        as ``_ElementRows._from_rows`` says."""
        return cls._from_rows(group, rank, rows, rank=rank)

    def validate(self) -> None:
        """Check unimodularity and that the action respects the full
        multiplication table.

        M(a) M(s_t) = M(a s_t) is tested on sparse rows only at the
        ``FiniteGroup.loop_edges()`` (a, t).  ``element_rows`` builds
        M(x) = M(p) M(s_t) at each tree step, so by the lemma there
        M(a) M(c) = M(a c) for all a, c.  A repeated generator is still
        checked: its edge lies off the tree.
        """
        gens = self.action_rows()
        for m in gens:
            # the rows of M are the columns of M^T, unimodular iff M is
            if not la.spans(m, self.rank):
                raise EquivarianceError("action matrix is not unimodular")
        rows = self.element_rows()
        g = self.group
        for a, t in g.loop_edges():
            s = g.generators[t]
            if la.rows_mul(rows[a], gens[t]) != rows[g.mul(a, s)]:
                raise EquivarianceError(
                    f"action violates the relation {a}*{s}")

    @property
    def _dim(self) -> int:
        return self.rank

    @property
    def is_permutation_certified(self) -> bool:
        """Whether every generator permutes the basis: each of its rows
        holds one entry, 1, and no two rows name one column.  Then the
        group permutes the basis, so this is a permutation lattice."""
        for m in self._action_rows:
            cols = set()
            for row in m:
                if len(row) != 1 or 1 not in row.values():
                    return False
                cols.update(row)
            if len(cols) != self.rank:
                return False
        return True

    def __repr__(self):
        return f"GLattice(rank={self.rank}, group={self.group.name or self.group.order})"


class LatticeMap(Frozen):
    """Equivariant map of G-lattices; ``matrix`` is target.rank x
    source.rank acting on column coordinate vectors.  Both lattices must
    be over one group presentation, as in ``direct_sum``."""

    _fields = ("source", "target", "matrix")

    def __init__(self, source: GLattice, target: GLattice, matrix: IntMatrix):
        if not source.group.same_presentation(target.group):
            raise ValueError("source and target over different groups")
        if not has_shape(matrix, target.rank, source.rank):
            raise ValueError("map matrix has wrong shape")
        vars(self).update(source=source, target=target, matrix=matrix)

    def validate(self) -> None:
        if not is_equivariant(la.sparse_rows(self.matrix), self.source,
                              self.target):
            raise EquivarianceError("map is not equivariant")


class FgModule(_ElementRows):
    """Finitely generated abelian group Z^n / span(relations) with a group
    action descending to the quotient."""

    _fields = ("group", "ngens", "relations", "action")

    def __init__(self, group: FiniteGroup, ngens: int,
                 relations: IntMatrix,  # ngens x nrel, columns are relations
                 action: tuple[IntMatrix, ...]):
        _check_relations(relations, ngens)
        check_action(group, ngens, action)
        vars(self).update(group=group, ngens=ngens, relations=relations,
                          _action_rows=tuple(map(la.sparse_rows, action)))

    @classmethod
    def from_rows(cls, group: FiniteGroup, ngens: int, relations: IntMatrix,
                  rows: Sequence[Rows]) -> "FgModule":
        """The module with these relations and sparse generator rows,
        checked and kept as ``GLattice.from_rows`` keeps its rows."""
        _check_relations(relations, ngens)
        return cls._from_rows(group, ngens, rows, ngens=ngens,
                              relations=relations)

    def validate(self) -> None:
        """Check that each generator maps span(relations) into itself and
        that the action on the quotient respects the multiplication
        table: M(a) M(s_t) - M(a s_t) maps into span(relations) at each
        ``FiniteGroup.loop_edges()`` (a, t), which suffices by the lemma
        there, as in ``GLattice.validate``."""
        n = self.ngens
        rel = la.sparse_rows(self.relations)
        nrel = la.shape(self.relations)[1]
        span = la.ColumnSpan(la.rows_transpose(rel, nrel))
        gens, rows, g = self.action_rows(), self.element_rows(), self.group
        if not span.contains(col for m in gens for col in
                             la.rows_transpose(la.rows_mul(m, rel), nrel)):
            raise EquivarianceError("action does not preserve the relations")
        for a, t in g.loop_edges():
            s = g.generators[t]
            # [M(a) | -1] [M(s); M(a s)] = M(a) M(s) - M(a s)
            diff = la.rows_mul(
                [{**row, n + i: -1} for i, row in enumerate(rows[a])],
                gens[t] + rows[g.mul(a, s)])
            if not span.contains(la.rows_transpose(diff, n)):
                raise EquivarianceError(
                    f"action violates the relation {a}*{s} on the quotient")

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Canonical invariant factors (1s dropped, 0 per free summand)."""
        return la.hom_cokernel(self.relations, ()).factors

    @property
    def _dim(self) -> int:
        return self.ngens


def _check_relations(relations: IntMatrix, ngens: int) -> None:
    # a relation matrix with no columns still has one row per generator
    if not has_shape(relations, ngens, len(relations[0]) if relations else 0):
        raise ValueError("relations matrix has wrong shape")


def is_equivariant(comp: Rows, source: GLattice, target: GLattice) -> bool:
    """Whether the map C with the sparse rows ``comp`` has C M(s) =
    M'(s) C for every generator index s, with M and M' the actions of
    ``source`` and ``target``, on sparse rows."""
    return all(la.rows_mul(comp, ms) == la.rows_mul(mt, comp)
               for ms, mt in zip(source.action_rows(), target.action_rows()))


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    ident = la.identity(rank)
    return GLattice(group, rank, tuple(ident for _ in group.generators))


def zero_lattice(group: FiniteGroup) -> GLattice:
    return GLattice(group, 0, tuple(la.zeros(0, 0) for _ in group.generators))


def make_permutation_lattice(group: FiniteGroup,
                             subgroups: Sequence[SubgroupHandle]) -> GLattice:
    """Direct sum of coset lattices Z[G/H]; basis permuted by the group."""
    spaces = []
    for h in subgroups:
        if not h.parent.same_table(group):
            raise MembershipError("subgroup from a different group")
        spaces.append(coset_action(group, h))
    rank = sum(cs.size for cs in spaces)
    action = []
    for gen in group.generators:
        m: list = [None] * rank
        off = 0
        for cs in spaces:
            for c in range(cs.size):
                m[off + cs.act(gen, c)] = {off + c: 1}
            off += cs.size
        action.append(tuple(m))
    return GLattice.from_rows(group, rank, action)


def regular_lattice(group: FiniteGroup) -> GLattice:
    from .groups import trivial_subgroup
    return make_permutation_lattice(group, [trivial_subgroup(group)])


def sign_lattice(group: FiniteGroup, values: Sequence[int]) -> GLattice:
    """Rank-1 lattice where generator i acts by values[i] (each +-1)."""
    if any(v not in (1, -1) for v in values):
        raise ValueError("sign action must be +-1 per generator")
    return GLattice(group, 1, tuple(((int(v),),) for v in values))


def dual_lattice(lat: GLattice) -> GLattice:
    """Hom(L, Z) with the contragredient action (inverse transpose).

    For a group action M(s)^{-1} = M(s^{-1}), an element matrix, so
    nothing is inverted: the rows of M(s)^{-T} are the columns of
    M(s^{-1}).
    """
    g = lat.group
    rows = lat.element_rows()
    action = tuple(tuple(la.rows_transpose(rows[g.inverses[s]], lat.rank))
                   for s in g.generators)
    return GLattice.from_rows(g, lat.rank, action)


def dual_map(f: LatticeMap) -> LatticeMap:
    """The transposed map between dual lattices (direction reversed)."""
    return LatticeMap(dual_lattice(f.target), dual_lattice(f.source),
                      la.transpose_shaped(f.matrix, f.source.rank,
                                          f.target.rank))


def direct_sum(a: GLattice, b: GLattice) -> GLattice:
    """A + B: the rows of A's matrices, then those of B's shifted past
    A's rank."""
    if not a.group.same_presentation(b.group):
        raise ValueError("summands over different groups")
    k = a.rank
    action = tuple(ma + tuple({k + j: x for j, x in row.items()} for row in mb)
                   for ma, mb in zip(a.action_rows(), b.action_rows()))
    return GLattice.from_rows(a.group, a.rank + b.rank, action)


def induced_action_on_sublattice(lat: GLattice,
                                 basis_cols: Sequence) -> GLattice:
    """Action on an invariant sublattice in terms of the given basis,
    whose columns are all dense or all {index: entry}: M(s) B is one
    sparse product per generator on the rows of B, and each of its
    columns is solved on one echelon of B."""
    k = len(basis_cols)
    cols = basis_cols
    if cols and not isinstance(cols[0], dict):
        cols = la.sparse_rows(cols)
    brows = la.rows_transpose(cols, lat.rank)
    span = la.ColumnSpan(cols, track=k)
    action = []
    for m in lat.action_rows():
        images = la.rows_transpose(la.rows_mul(m, brows), k)
        action.append(tuple(la.rows_transpose(
            la.sparse_rows(map(span.solve, images)), k)))
    return GLattice.from_rows(lat.group, k, action)


def fixed_points(lat: GLattice, h: SubgroupHandle) -> list[list[int]]:
    """Saturated basis (columns) of the H-fixed sublattice: the kernel of
    the blocks M(h) - 1 stacked in the order of H's sorted members, up to
    the largest of its minimal generators (``SubgroupHandle.generators``).

    The blocks of the later members would not change the basis.  The
    column echelon behind the kernel walks rows in order, and after each
    row every column it has not frozen as a pivot is zero on that row
    and on all rows before it.  Each such column is the image of a
    combination x of the basis, so once the members seen so far generate
    H, (M(h) - 1) x = 0 for them and so x is H-fixed: those columns are
    zero on every later row too.  The frozen columns are never touched
    again, so the later rows find no column to eliminate, and the
    kernel is the same as that of the full stack."""
    rows = lat.element_rows()
    last = max(h.generators)
    return common_fixed_points(
        [rows[m] for m in h.members if 0 < m <= last], lat.rank)


def fixed_rank(mats: Sequence[Rows], order: int) -> int:
    """rank L^H = (1/|H|) sum_h tr M(h), ``mats`` the sparse rows of all
    of H's elements: the trace of the projection onto L^H (x) Q."""
    trace = 0
    for m in mats:
        for i, row in enumerate(m):
            trace += row.get(i, 0)
    return trace // order


def _minus_one_entries(mats: Sequence[Rows]):
    """Yield (k, i, j, x) for each nonzero entry x at row i, column j of
    M_k - 1, with M_k the k-th of ``mats`` given as sparse rows, row by
    row."""
    for k, m in enumerate(mats):
        for i, row in enumerate(m):
            for j, x in row.items():
                if j == i:
                    x -= 1
                if x:
                    yield k, i, j, x
            if i not in row:
                yield k, i, i, -1


def common_fixed_points(mats: Sequence[Rows], rank: int) -> list[list[int]]:
    """Saturated basis (columns) of the vectors every M in ``mats``
    fixes, each M given as sparse rows: the kernel of the blocks M - 1
    stacked in that order.  The stack goes to the echelon as the
    {row: entry} columns ``kernel_basis`` would build from its dense
    form, each filled in ascending row order."""
    cols: list[dict] = [{} for _ in range(rank)]
    for k, i, j, x in _minus_one_entries(mats):
        cols[j][k * rank + i] = x
    return la.ColumnSpan(cols, track=rank).kernel()


def restrict_lattice(lat: GLattice, h: SubgroupHandle) -> GLattice:
    """The same lattice viewed over a subgroup of its group."""
    sub = h.as_group()
    rows = lat.element_rows()
    return GLattice.from_rows(sub, lat.rank, tuple(
        rows[h.to_parent(g)] for g in sub.generators))


def induce(lat: GLattice, h: SubgroupHandle) -> GLattice:
    """Induction from a subgroup to its parent.

    ``lat`` must live over ``h.as_group()``.  Basis is (coset, source
    basis) pairs; coset representatives are the minimal element per left
    coset.
    """
    gamma = h.parent
    if h.is_whole_group() and lat.group.same_table(gamma):
        to_sub = lambda g: g
    elif lat.group.same_table(h.as_group()):
        to_sub = h.from_parent
    else:
        raise MembershipError("lattice group does not match the subgroup")
    cs = coset_action(gamma, h)
    reps = cs.representatives
    r = lat.rank
    n = cs.size
    sub_rows = lat.element_rows()
    action = []
    for gen in gamma.generators:
        m: list = [None] * (n * r)
        for j in range(n):
            tgt = cs.act(gen, j)
            # gen * reps[j] = reps[tgt] * hh with hh in H
            hh = gamma.mul(gamma.inv(reps[tgt]), gamma.mul(gen, reps[j]))
            for a, row in enumerate(sub_rows[to_sub(hh)]):
                m[tgt * r + a] = {j * r + b: x for b, x in row.items()}
        action.append(tuple(m))
    return GLattice.from_rows(gamma, n * r, tuple(action))


def conjugate_lattice(lat: GLattice, u: IntMatrix) -> GLattice:
    """Change of basis by a unimodular matrix: M(s) -> u M(s) u^-1, on
    sparse rows."""
    urows = la.sparse_rows(u)
    uinv = la.sparse_rows(la.mat_inverse_unimodular(u))
    return GLattice.from_rows(lat.group, lat.rank, tuple(
        la.rows_mul(la.rows_mul(urows, m), uinv) for m in lat.action_rows()))

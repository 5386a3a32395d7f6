"""G-lattices and equivariant maps: exact integer modules with a group
action by unimodular matrices.

A GLattice stores one matrix per group generator.  The matrices of all
elements are kept once per lattice (or module) as sparse rows
(``intlinalg.SparseRow``): element matrices of lattices have few
nonzeros per row, and fixed points, permutation covers, squares and
cohomology all read them in that form.  The rows come from sparse
products along the BFS spanning tree ``FiniteGroup.tree()``.  Dense
element matrices (``element_matrices``) are read off the rows on request
and not kept.
FgModule is the only torsion-capable type (cokernels live there);
lattices are always free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from . import intlinalg as la
from .groups import (FiniteGroup, MembershipError, SubgroupHandle,
                     coset_action)
from .intlinalg import IntMatrix, SparseRow

Rows = tuple[SparseRow, ...]  # one matrix as sparse rows


class EquivarianceError(Exception):
    """A map or action fails an equivariance / well-definedness check."""


class _ElementRows:
    """The matrices of a GLattice or FgModule as sparse rows, built once:
    the generators' (``action``) and every group element's."""

    def action_rows(self) -> tuple[Rows, ...]:
        """The generator matrices ``action`` as sparse rows, by generator
        index."""
        return self._action_rows

    def element_rows(self) -> tuple[Rows, ...]:
        return self._element_rows

    def element_matrices(self) -> tuple[IntMatrix, ...]:
        return tuple(_dense(m, self._dim) for m in self.element_rows())

    @cached_property
    def _action_rows(self) -> tuple[Rows, ...]:
        return tuple(la.sparse_rows(m) for m in self.action)

    @cached_property
    def _element_rows(self) -> tuple[Rows, ...]:
        """Each entry (x, p, t) of ``FiniteGroup.tree()`` has x = p s_t, so
        M(x) = M(p) M(s_t) costs one sparse product per element x with
        p != 1."""
        gens = self.action_rows()
        rows = [tuple(((i, 1),) for i in range(self._dim))] * self.group.order
        for x, p, t in self.group.tree():
            rows[x] = la.rows_mul(rows[p], gens[t]) if p else gens[t]
        return tuple(rows)


@dataclass(frozen=True, eq=False)
class GLattice(_ElementRows):
    """Free Z-module of finite rank with a group action by unimodular
    matrices (one per generator)."""

    group: FiniteGroup
    rank: int
    action: tuple[IntMatrix, ...]
    permutation_subgroups: Optional[tuple[SubgroupHandle, ...]] = None

    def __post_init__(self):
        if len(self.action) != len(self.group.generators):
            raise ValueError("one action matrix per generator required")
        for m in self.action:
            if la.shape(m) != (self.rank, self.rank):
                raise ValueError("action matrix has wrong shape")

    def validate(self) -> None:
        """Check unimodularity and that the action respects the full
        multiplication table.

        Only M(a) M(s) = M(a s) is tested, for every element a and
        generator s, on sparse rows.  That suffices: each c != 1 is
        c = b s with word(c) = word(b) + (s,), so M(c) = M(b) M(s), and by
        induction on the length of word(c), M(a) M(c) = M(a b) M(s) =
        M(a c).
        """
        for m in self.action:
            if self.rank and not la.is_unimodular(m):
                raise EquivarianceError("action matrix is not unimodular")
        rows = self.element_rows()
        g = self.group
        for a in g.elements():
            for m, s in zip(self.action_rows(), g.generators):
                if la.rows_mul(rows[a], m) != rows[g.mul(a, s)]:
                    raise EquivarianceError(
                        f"action violates the relation {a}*{s}")

    @property
    def _dim(self) -> int:
        return self.rank

    @property
    def is_permutation_certified(self) -> bool:
        return self.permutation_subgroups is not None

    def __repr__(self):
        return f"GLattice(rank={self.rank}, group={self.group.name or self.group.order})"


@dataclass(frozen=True, eq=False)
class LatticeMap:
    """Equivariant map of G-lattices; ``matrix`` is target.rank x
    source.rank acting on column coordinate vectors."""

    source: GLattice
    target: GLattice
    matrix: IntMatrix

    def __post_init__(self):
        r, c = la.shape(self.matrix)
        # zero-row matrices cannot carry a column count
        if r != self.target.rank or (r > 0 and c != self.source.rank):
            raise ValueError("map matrix has wrong shape")

    def validate(self) -> None:
        if not is_equivariant(self.matrix, self.source, self.target):
            raise EquivarianceError("map is not equivariant")

    def is_zero(self) -> bool:
        return la.is_zero(self.matrix)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        return LatticeMap(other.source, self.target,
                          la.mat_mul(self.matrix, other.matrix))


@dataclass(frozen=True, eq=False)
class FgModule(_ElementRows):
    """Finitely generated abelian group Z^n / span(relations) with a group
    action descending to the quotient."""

    group: FiniteGroup
    ngens: int
    relations: IntMatrix  # ngens x nrel, columns are relations
    action: tuple[IntMatrix, ...]

    def __post_init__(self):
        # a relation matrix with no columns still has one row per generator
        if len(self.relations) != self.ngens:
            raise ValueError("relations matrix has wrong shape")

    def validate(self) -> None:
        for m in self.action:
            if la.shape(m) != (self.ngens, self.ngens):
                raise ValueError("action matrix has wrong shape")
        if not la.ColumnSpan(la.columns(self.relations)).contains(
                col for m in self.action
                for col in la.columns(la.mat_mul(m, self.relations))):
            raise EquivarianceError("action does not preserve the relations")

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Canonical invariant factors (1s dropped, 0 per free summand)."""
        return la.hom_cokernel(self.relations, ()).factors

    @property
    def _dim(self) -> int:
        return self.ngens


def _dense(rows: Rows, ncols: int) -> IntMatrix:
    return la.dense_rows(map(dict, rows), ncols)


def is_equivariant(matrix: IntMatrix, source, target) -> bool:
    """Whether ``matrix`` M(s) = M'(s) ``matrix`` for every generator
    index s, with M and M' the actions of ``source`` and ``target``
    (GLattice or FgModule), on sparse rows."""
    comp = la.sparse_rows(matrix)
    return all(la.rows_mul(comp, ms) == la.rows_mul(mt, comp)
               for ms, mt in zip(source.action_rows(), target.action_rows()))


def lattice_as_module(lat: GLattice) -> FgModule:
    return FgModule(lat.group, lat.rank, la.zeros(lat.rank, 0), lat.action)


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    ident = la.identity(rank)
    return GLattice(group, rank, tuple(ident for _ in group.generators))


def zero_lattice(group: FiniteGroup) -> GLattice:
    return GLattice(group, 0, tuple(la.zeros(0, 0) for _ in group.generators))


def make_permutation_lattice(group: FiniteGroup,
                             subgroups: Sequence[SubgroupHandle]) -> GLattice:
    """Direct sum of coset lattices Z[G/H]; basis permuted by the group,
    carrying a permutation certificate."""
    spaces = []
    for h in subgroups:
        if h.parent is not group and h.parent.table != group.table:
            raise MembershipError("subgroup from a different group")
        spaces.append(coset_action(group, h))
    rank = sum(cs.size for cs in spaces)
    action = []
    for gen in group.generators:
        m = [[0] * rank for _ in range(rank)]
        off = 0
        for cs in spaces:
            for c in range(cs.size):
                m[off + cs.act(gen, c)][off + c] = 1
            off += cs.size
        action.append(la.freeze(m))
    return GLattice(group, rank, tuple(action),
                    permutation_subgroups=tuple(subgroups))


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
    nothing is inverted.
    """
    g = lat.group
    rows = lat.element_rows()
    action = tuple(la.transpose(_dense(rows[g.inverses[s]], lat.rank))
                   for s in g.generators)
    perm = lat.permutation_subgroups
    return GLattice(lat.group, lat.rank, action,
                    permutation_subgroups=perm)


def dual_map(f: LatticeMap) -> LatticeMap:
    """The transposed map between dual lattices (direction reversed)."""
    return LatticeMap(dual_lattice(f.target), dual_lattice(f.source),
                      la.transpose_shaped(f.matrix, f.source.rank,
                                          f.target.rank))


def direct_sum(a: GLattice, b: GLattice) -> GLattice:
    if a.group is not b.group and a.group.table != b.group.table:
        raise ValueError("summands over different groups")
    action = tuple(la.block_diag(ma, mb)
                   for ma, mb in zip(a.action, b.action))
    perm = None
    if a.permutation_subgroups is not None and b.permutation_subgroups is not None:
        perm = a.permutation_subgroups + b.permutation_subgroups
    return GLattice(a.group, a.rank + b.rank, action, perm)


def induced_action_on_sublattice(lat: GLattice,
                                 basis_cols: Sequence[Sequence[int]]) -> GLattice:
    """Action on an invariant sublattice in terms of the given basis: the
    images of the basis under every generator, in one solve."""
    k = len(basis_cols)
    x = la.solve_columns(basis_cols, [
        la.rows_apply(m, b) for m in lat.action_rows() for b in basis_cols])
    return GLattice(lat.group, k, tuple(
        la.from_columns(x[i * k:(i + 1) * k], k)
        for i in range(len(lat.action))))


def fixed_points(lat: GLattice, h: SubgroupHandle) -> list[list[int]]:
    """Saturated basis (columns) of the H-fixed sublattice: the kernel of
    the blocks M(h) - 1 stacked in the order of H's sorted members, up to
    the largest of its minimal generators (``SubgroupHandle.as_group``).

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
    last = max(h.to_parent(g) for g in h.as_group().generators)
    return common_fixed_points(
        [rows[m] for m in h.members if 0 < m <= last], lat.rank)


def common_fixed_points(mats: Sequence[Rows], rank: int) -> list[list[int]]:
    """Saturated basis (columns) of the vectors every M in ``mats``
    fixes, each M given as sparse rows: the kernel of the blocks M - 1
    stacked in that order.  The stack goes to the echelon as the
    {row: entry} columns ``kernel_basis`` would build from its dense
    form, each filled in ascending row order."""
    cols: list[dict] = [{} for _ in range(rank)]
    r = 0
    for m in mats:
        for i, row in enumerate(m):
            diagonal = False
            for j, x in row:
                if j == i:
                    x -= 1
                    diagonal = True
                if x:
                    cols[j][r] = x
            if not diagonal:
                cols[i][r] = -1
            r += 1
    return la.ColumnSpan(cols, track=rank).kernel()


def restrict_lattice(lat: GLattice, h: SubgroupHandle) -> GLattice:
    """The same lattice viewed over a subgroup of its group."""
    sub = h.as_group()
    rows = lat.element_rows()
    action = tuple(_dense(rows[h.to_parent(g)], lat.rank)
                   for g in sub.generators)
    return GLattice(sub, lat.rank, action, permutation_subgroups=None)


def induce(lat: GLattice, h: SubgroupHandle) -> GLattice:
    """Induction from a subgroup to its parent.

    ``lat`` must live over ``h.as_group()``.  Basis is (coset, source
    basis) pairs; coset representatives are the minimal element per left
    coset.
    """
    gamma = h.parent
    if h.is_whole_group() and lat.group.table == gamma.table:
        to_sub = lambda g: g
    elif lat.group.table == h.as_group().table:
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
        m = [[0] * (n * r) for _ in range(n * r)]
        for j in range(n):
            tgt = cs.act(gen, j)
            # gen * reps[j] = reps[tgt] * hh with hh in H
            hh = gamma.mul(gamma.inv(reps[tgt]), gamma.mul(gen, reps[j]))
            for a, row in enumerate(sub_rows[to_sub(hh)]):
                for b, x in row:
                    m[tgt * r + a][j * r + b] = x
        action.append(la.freeze(m))
    return GLattice(gamma, n * r, tuple(action))


def conjugate_lattice(lat: GLattice, u: IntMatrix) -> GLattice:
    """Change of basis by a unimodular matrix: action -> u a u^-1."""
    uinv = la.mat_inverse_unimodular(u)
    action = tuple(la.mat_mul(la.mat_mul(u, m), uinv) for m in lat.action)
    return GLattice(lat.group, lat.rank, action)

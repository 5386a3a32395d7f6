"""G-lattices and equivariant maps: exact integer modules with a group
action by unimodular matrices.

A GLattice stores one matrix per group generator; matrices for all
elements are derived from the BFS generator words and cached.  FgModule is
the only torsion-capable type (cokernels live there); lattices are always
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import intlinalg as la
from .groups import (FiniteGroup, MembershipError, SubgroupHandle,
                     coset_action)
from .intlinalg import IntMatrix


class EquivarianceError(Exception):
    """A map or action fails an equivariance / well-definedness check."""


@dataclass(frozen=True, eq=False)
class GLattice:
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
        generator s.  That suffices: each c != 1 is c = b s with
        word(c) = word(b) + (s,), so M(c) = M(b) M(s), and by induction
        on the length of word(c), M(a) M(c) = M(a b) M(s) = M(a c).
        """
        for m in self.action:
            if self.rank and not la.is_unimodular(m):
                raise EquivarianceError("action matrix is not unimodular")
        mats = self.element_matrices()
        g = self.group
        for a in g.elements():
            for m, s in zip(self.action, g.generators):
                if not la.mat_eq(la.mat_mul(mats[a], m), mats[g.mul(a, s)]):
                    raise EquivarianceError(
                        f"action violates the relation {a}*{s}")

    def element_matrices(self) -> tuple[IntMatrix, ...]:
        return _element_matrices(self, self.rank)

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
        for ms, mt in zip(self.source.action, self.target.action):
            if not la.mat_eq(la.mat_mul(mt, self.matrix),
                             la.mat_mul(self.matrix, ms)):
                raise EquivarianceError("map is not equivariant")

    def is_zero(self) -> bool:
        return la.is_zero(self.matrix)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        return LatticeMap(other.source, self.target,
                          la.mat_mul(self.matrix, other.matrix))


@dataclass(frozen=True, eq=False)
class FgModule:
    """Finitely generated abelian group Z^n / span(relations) with a group
    action descending to the quotient."""

    group: FiniteGroup
    ngens: int
    relations: IntMatrix  # ngens x nrel, columns are relations
    action: tuple[IntMatrix, ...]

    def validate(self) -> None:
        for m in self.action:
            if la.shape(m) != (self.ngens, self.ngens):
                raise ValueError("action matrix has wrong shape")
        if not la.in_relation_span(self.relations, [
                col for m in self.action
                for col in la.columns(la.mat_mul(m, self.relations))]):
            raise EquivarianceError("action does not preserve the relations")

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Canonical invariant factors (1s dropped, 0 per free summand)."""
        pres = la.abgroup_from_subquotient(
            la.columns(la.identity(self.ngens)), la.columns(self.relations),
            self.ngens)
        return pres.factors

    def element_matrices(self) -> tuple[IntMatrix, ...]:
        return _element_matrices(self, self.ngens)


def _element_matrices(obj, dim: int) -> tuple[IntMatrix, ...]:
    """Matrices of all group elements for a GLattice or FgModule, cached
    on the object.

    The BFS words satisfy word(e s) = word(e) + (s,), so M(e s) =
    M(e) M(s) costs one product per non-identity element.
    """
    cached = getattr(obj, "_elem_mats", None)
    if cached is None:
        group = obj.group
        words = [group.word(e) for e in group.elements()]
        by_word = {w: e for e, w in enumerate(words)}
        mats = [la.identity(dim)] * group.order
        for e in sorted(group.elements(), key=lambda e: len(words[e])):
            w = words[e]
            if w:
                mats[e] = la.mat_mul(mats[by_word[w[:-1]]], obj.action[w[-1]])
        cached = tuple(mats)
        object.__setattr__(obj, "_elem_mats", cached)
    return cached


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
    mats = lat.element_matrices()
    action = tuple(la.transpose(mats[g.inv(s)]) for s in g.generators)
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
    basis = la.from_columns(basis_cols, lat.rank)
    x = la.solve_columns(basis_cols, [
        c for m in lat.action for c in la.columns(la.mat_mul(m, basis))])
    return GLattice(lat.group, k, tuple(
        la.from_columns(x[i * k:(i + 1) * k], k)
        for i in range(len(lat.action))))


def fixed_points(lat: GLattice, h: SubgroupHandle) -> list[list[int]]:
    """Saturated basis (columns) of the H-fixed sublattice."""
    mats = lat.element_matrices()
    blocks = []
    ident = la.identity(lat.rank)
    for m in h.members:
        if m == 0:
            continue
        blocks.append(la.mat_add(mats[m], la.mat_neg(ident)))
    return la.preimage(la.vstack(*blocks), [], lat.rank)


def restrict_lattice(lat: GLattice, h: SubgroupHandle) -> GLattice:
    """The same lattice viewed over a subgroup of its group."""
    sub = h.as_group()
    mats = lat.element_matrices()
    action = tuple(mats[h.to_parent(g)] for g in sub.generators)
    return GLattice(sub, lat.rank, action,
                    permutation_subgroups=None)


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
    sub_mats = lat.element_matrices()
    action = []
    for gen in gamma.generators:
        m = [[0] * (n * r) for _ in range(n * r)]
        for j in range(n):
            tgt = cs.act(gen, j)
            # gen * reps[j] = reps[tgt] * hh with hh in H
            hh = gamma.mul(gamma.inv(reps[tgt]), gamma.mul(gen, reps[j]))
            block = sub_mats[to_sub(hh)]
            for a in range(r):
                for b in range(r):
                    m[tgt * r + a][j * r + b] = block[a][b]
        action.append(la.freeze(m))
    return GLattice(gamma, n * r, tuple(action))


def conjugate_lattice(lat: GLattice, u: IntMatrix) -> GLattice:
    """Change of basis by a unimodular matrix: action -> u a u^-1."""
    uinv = la.mat_inverse_unimodular(u)
    action = tuple(la.mat_mul(la.mat_mul(u, m), uinv) for m in lat.action)
    return GLattice(lat.group, lat.rank, action)

"""Finite-group models of field patching diagrams.

A patching graph carries one subgroup of a fixed finite group per vertex
and per edge (vertex subgroup = Galois group of the vertex field).  The
module assembles Mayer-Vietoris columns with their restriction and
difference maps, measures exactness instead of assuming it, computes Sha
as the kernel of the joint restriction, compares the three candidate
obstruction groups of the flasque-resolution remark, and refines a graph
along a finite extension (a subgroup H, vertices split into orbits on
the coset space).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Union

from . import intlinalg as la
from .cohomology import (HYPER_DEGREES, CohomologyGroup,
                         UnsupportedDegreeError, group_cohomology,
                         hypercohomology, restriction)
from .complexes import TwoTermComplex, flasque_resolution
from .crossed import (DEFAULT_ENUMERATION_BOUND, FiniteCrossedModule,
                      HMinusOne, HZero, h_minus_one, h_zero)
from .groups import (FiniteGroup, MembershipError, SizeLimitError,
                     SubgroupHandle, coset_action, group_from_table)
from .intlinalg import AbGroupPresentation, IntMatrix
from .lattice import GLattice


class ModelError(Exception):
    """The graph data does not describe a valid patching model."""


class GraphSplitError(Exception):
    """A refinement computed a disconnected graph: the extension splits
    the patching problem.  This is a verdict, not bad input.

    ``components`` lists the refined vertex ids of each connected
    component; ``witnesses[i]`` is (original vertex, representative
    coset) of refined vertex i.
    """

    def __init__(self, components: list[list[int]],
                 witnesses: tuple[tuple[int, int], ...]):
        super().__init__(f"the refined graph splits into "
                         f"{len(components)} connected components")
        self.components = components
        self.witnesses = witnesses


Coefficient = Union[GLattice, TwoTermComplex, FiniteCrossedModule]
CROSSED_DEGREES = (-1, 0)

class Refinement(NamedTuple):
    """Orbit bookkeeping kept alongside a refined graph."""

    subgroup: SubgroupHandle
    coset_count: int
    # per original vertex: ((representative coset, orbit size), ...)
    vertex_orbits: tuple[tuple[tuple[int, int], ...], ...]
    edge_orbits: tuple[tuple[tuple[int, int], ...], ...]


class PatchingGraph(NamedTuple):
    """Vertices and oriented edges decorated with subgroups of gamma.

    Edge k is (head l(k), tail r(k), subgroup), with the edge subgroup
    contained in both endpoint subgroups.
    """

    gamma: FiniteGroup
    vertices: tuple[SubgroupHandle, ...]
    edges: tuple[tuple[int, int, SubgroupHandle], ...]
    refinement: Optional[Refinement] = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __repr__(self):
        return (f"PatchingGraph(vertices={self.n_vertices}, "
                f"edges={self.n_edges})")


def _components(n_vertices: int, edges) -> list[list[int]]:
    """Connected components of the vertices under (head, tail, _) edges,
    each sorted, listed by least vertex (union-find)."""
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for head, tail, _ in edges:
        parent[find(head)] = find(tail)
    comps: dict[int, list[int]] = {}
    for i in range(n_vertices):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def build_patching_graph(gamma: FiniteGroup, vertices, edges,
                         refinement: Optional[Refinement] = None
                         ) -> PatchingGraph:
    """Validate vertex/edge decorations and connectivity.

    ``vertices`` is a sequence of SubgroupHandles of gamma; ``edges`` a
    sequence of (head index, tail index, SubgroupHandle).  Loops are
    rejected, parallel edges are fine.
    """
    verts = tuple(vertices)
    if not verts:
        raise ModelError("a patching graph needs at least one vertex")
    for i, h in enumerate(verts):
        if not isinstance(h, SubgroupHandle) or not h.parent.same_table(gamma):
            raise ModelError(f"vertex {i} subgroup is not a subgroup of "
                             "the ambient group")
    edge_list = []
    for k, (head, tail, h) in enumerate(edges):
        if head == tail:
            raise ModelError(f"edge {k} is a loop")
        if not (0 <= head < len(verts) and 0 <= tail < len(verts)):
            raise ModelError(f"edge {k} endpoint out of range")
        if not isinstance(h, SubgroupHandle) or not h.parent.same_table(gamma):
            raise ModelError(f"edge {k} subgroup is not a subgroup of "
                             "the ambient group")
        mem = set(h.members)
        if not mem <= set(verts[head].members):
            raise ModelError(f"edge {k} subgroup not contained in its "
                             "head vertex subgroup")
        if not mem <= set(verts[tail].members):
            raise ModelError(f"edge {k} subgroup not contained in its "
                             "tail vertex subgroup")
        edge_list.append((head, tail, h))
    if len(_components(len(verts), edge_list)) != 1:
        raise ModelError("patching graph is not connected")
    return PatchingGraph(gamma, verts, tuple(edge_list), refinement)


# ---------------------------------------------------------------------------
# Mayer-Vietoris columns: mv_columns walks the graph once for every kind
# of coefficient, and the kind supplies only its columns, restriction
# maps and row record.  group_cohomology and hypercohomology refuse the
# degrees they do not support, mv_columns those of a crossed module.

class MvColumns(NamedTuple):
    """One row of the Mayer-Vietoris diagram in a fixed degree.

    ``restriction_matrix`` stacks the per-vertex restriction blocks;
    ``difference_matrix`` maps the vertex product to the edge product by
    (x_i) -> (x_{l(k)}|_k - x_{r(k)}|_k).  All matrices are written on
    the invariant-factor generators of the groups involved.
    """

    degree: int
    left: CohomologyGroup
    middle: tuple[CohomologyGroup, ...]
    right: tuple[CohomologyGroup, ...]
    restriction_matrix: IntMatrix
    difference_matrix: IntMatrix

    @property
    def middle_factors(self) -> tuple[int, ...]:
        return tuple(f for cg in self.middle for f in cg.invariant_factors)

    @property
    def right_factors(self) -> tuple[int, ...]:
        return tuple(f for cg in self.right for f in cg.invariant_factors)

    @property
    def mid_dim(self) -> int:
        return len(self.middle_factors)

    @property
    def right_dim(self) -> int:
        return len(self.right_factors)

    def composition_zero(self) -> bool:
        """Whether difference o restriction vanishes modulo the edge
        factors."""
        prod = la.mat_mul(self.difference_matrix, self.restriction_matrix)
        return all((v % f if f else v) == 0
                   for row, f in zip(prod, self.right_factors) for v in row)

    def exact_at_middle(self) -> tuple[bool, Optional[tuple]]:
        """Compare ker(difference) with im(restriction) inside the vertex
        product; returns (exact, witness coordinates or None)."""
        mid_dim = self.mid_dim
        if mid_dim == 0:
            return True, None
        mid_rel = la.relation_columns(self.middle_factors, mid_dim)
        right_rel = la.relation_columns(self.right_factors, self.right_dim)
        ker_cols = la.ColumnSpan(
            la.columns(self.difference_matrix, mid_dim) + right_rel,
            track=mid_dim).kernel()
        im_cols = la.columns(self.restriction_matrix)
        quot = la.abgroup_from_subquotient(ker_cols + mid_rel,
                                           im_cols + mid_rel, mid_dim)
        if quot.is_trivial:
            return True, None
        return False, quot.generators[0]

    def sha(self) -> CohomologyGroup:
        """Kernel of the joint restriction, generated by honest
        cocycles."""
        left = self.left
        pres = la.hom_kernel(self.restriction_matrix, left.invariant_factors,
                             self.middle_factors)
        return CohomologyGroup(self.degree, pres.factors,
                               la.mat_mul(pres.generators, left.generators),
                               _KernelPresentation(left, pres))


def mv_columns(graph: PatchingGraph, coeff: Coefficient, r: int,
               bound: int = DEFAULT_ENUMERATION_BOUND):
    """One walk for every kind of coefficient: the columns of gamma, of
    each vertex and of each edge, then the maps gamma -> vertex and head,
    tail -> edge, each once.  The kind supplies only the column, the
    restriction map and the row.  ``bound`` caps the cocycle enumeration
    behind each crossed-module H^0."""
    crossed = isinstance(coeff, FiniteCrossedModule)
    if not crossed and not isinstance(coeff, (GLattice, TwoTermComplex)):
        raise TypeError(
            f"unsupported coefficient type {type(coeff).__name__}")
    if not (coeff.galois if crossed else coeff.group).same_table(graph.gamma):
        raise ModelError("coefficient lives over a different group")
    if crossed and r not in CROSSED_DEGREES:
        raise UnsupportedDegreeError(
            f"crossed degree {r} not in {CROSSED_DEGREES}")
    column, restrict, row = (_crossed_kind if crossed
                             else _abelian_kind)(coeff, r, bound)
    gamma, verts, edges = graph.gamma, graph.vertices, graph.edges
    left = column(gamma)
    middle = tuple(column(h) for h in verts)
    right = tuple(column(h) for _, _, h in edges)
    vertex_maps = tuple(restrict(gamma, left, h, col)
                        for h, col in zip(verts, middle))
    head_maps = tuple(restrict(verts[v], middle[v], h, col)
                      for (v, _, h), col in zip(edges, right))
    tail_maps = tuple(restrict(verts[v], middle[v], h, col)
                      for (_, v, h), col in zip(edges, right))
    return row(r, left, middle, right, vertex_maps, head_maps, tail_maps,
               edges)


def _abelian_kind(coeff: Union[GLattice, TwoTermComplex], r: int, _bound):
    """Columns are H^r of the lattice or the complex, restrictions the
    matrices of ``cohomology.restriction``."""
    coh = group_cohomology if isinstance(coeff, GLattice) else hypercohomology
    return ((lambda h: coh(h, coeff, r)),
            (lambda src, _, h, __: restriction(src, h, coeff, r).matrix),
            _abelian_row)


def _abelian_row(r, left, middle, right, vertex_maps, head_maps, tail_maps,
                 edges) -> MvColumns:
    """Stack the vertex blocks; the difference is (x_i) -> (x_{l(k)}|_k -
    x_{r(k)}|_k) on the vertex product."""
    offset = [0]
    for cg in middle:
        offset.append(offset[-1] + len(cg.invariant_factors))
    diff_rows: list[list[int]] = []
    for (head, tail, _), head_map, tail_map in zip(edges, head_maps,
                                                   tail_maps):
        for head_row, tail_row in zip(head_map, tail_map):
            row = [0] * offset[-1]
            for j, v in enumerate(head_row):
                row[offset[head] + j] += v
            for j, v in enumerate(tail_row):
                row[offset[tail] + j] -= v
            diff_rows.append(row)
    return MvColumns(r, left, middle, right, la.vstack(*vertex_maps),
                     la.freeze(diff_rows))


class _KernelPresentation(NamedTuple):
    """A subgroup of ``whole`` presented in the coordinates of its
    generators; cochains are reduced through ``whole`` first."""

    whole: CohomologyGroup
    sub: AbGroupPresentation

    @property
    def order(self):
        return self.sub.order

    def reduce(self, cochain) -> tuple[int, ...]:
        return self.sub.reduce(self.whole.reduce(cochain))


def sha(graph: PatchingGraph, coeff: Coefficient, r: int,
        bound: int = DEFAULT_ENUMERATION_BOUND):
    """Kernel of the joint restriction H^r(Gamma, .) -> prod_i H^r(G_i, .).

    Abelian coefficients give a CohomologyGroup whose generators are
    honest cocycles; crossed modules give a ShaCrossed subgroup, with
    ``bound`` passed to their H^0 enumeration.
    """
    return mv_columns(graph, coeff, r, bound).sha()


# ---------------------------------------------------------------------------
# Mayer-Vietoris reports: nine terms for a two-term complex, six for a
# crossed module.

class MvReport(NamedTuple):
    """Recomputed facts about every Mayer-Vietoris row of a coefficient;
    nothing here is assumed from the field theory.

    Exactness at the edge products and at the global term of degree >= 0
    would need connecting maps, which the finite model does not
    construct; those junctions are listed in ``not_evaluated``.
    """

    degrees: tuple[int, ...]
    columns: tuple[Union[MvColumns, CrossedMvColumns], ...]
    composition_zero: tuple[bool, ...]
    # exactness at the left term: only degree -1 starts the sequence, so
    # only there does the flag make sense without a connecting map
    exact_at_left: tuple[Optional[bool], ...]
    exact_at_middle: tuple[tuple[bool, Optional[tuple]], ...]
    sha_groups: tuple[Union[CohomologyGroup, ShaCrossed], ...]
    not_evaluated: tuple[tuple[int, str], ...]

    @property
    def all_compositions_zero(self) -> bool:
        return all(self.composition_zero)


def _report(graph: PatchingGraph, coeff: Coefficient,
            degrees: tuple[int, ...], bound: int) -> MvReport:
    """Build each row once and evaluate its junctions."""
    columns = []
    comp_zero = []
    at_middle = []
    shas = []
    for r in degrees:
        cols = mv_columns(graph, coeff, r, bound)
        columns.append(cols)
        comp_zero.append(cols.composition_zero())
        shas.append(cols.sha())
        at_middle.append(cols.exact_at_middle())
    return MvReport(
        degrees, tuple(columns), tuple(comp_zero),
        tuple(s.is_trivial if r == -1 else None
              for r, s in zip(degrees, shas)),
        tuple(at_middle), tuple(shas),
        tuple((r, side) for r in degrees
              for side in (("right",) if r == -1 else ("left", "right"))))


def nine_term_report(graph: PatchingGraph, t: TwoTermComplex) -> MvReport:
    """The degree -1..1 rows of a two-term complex."""
    return _report(graph, t, HYPER_DEGREES, DEFAULT_ENUMERATION_BOUND)


def crossed_six_term_report(graph: PatchingGraph, c: FiniteCrossedModule,
                            bound: int = DEFAULT_ENUMERATION_BOUND
                            ) -> MvReport:
    """The H^-1 and H^0 rows of a crossed module; ``bound`` caps the H^0
    enumeration and the vertex product."""
    return _report(graph, c, CROSSED_DEGREES, bound)


# ---------------------------------------------------------------------------
# The flasque-resolution comparison (three candidate obstruction groups).

class RemarkReport(NamedTuple):
    """Sha^1 of the complex, Sha^2 of its flasque lattice, and the
    cokernel of the degree-0 difference map, with pairwise comparison
    and the permutation-part hypothesis checks."""

    sha1_complex: CohomologyGroup
    sha2_flasque: CohomologyGroup
    cokernel_factors: tuple[int, ...]
    agree_sha1_sha2: bool
    agree_sha1_coker: bool
    agree_sha2_coker: bool
    perm_h1_factors: tuple[tuple[int, ...], ...]  # per vertex
    perm_h1_vanishes: bool
    perm_sha2: CohomologyGroup
    hypotheses_hold: bool
    flasque_lattice: GLattice
    permutation_lattice: GLattice

    @property
    def all_agree(self) -> bool:
        return (self.agree_sha1_sha2 and self.agree_sha1_coker
                and self.agree_sha2_coker)


def remark_compare(graph: PatchingGraph, t: TwoTermComplex) -> RemarkReport:
    sha1 = sha(graph, t, 1)  # refuses a complex over another group
    resolved, _cert = flasque_resolution(t)
    perm, flasque = resolved.l1, resolved.l2
    sha2 = sha(graph, flasque, 2)
    cols0 = mv_columns(graph, t, 0)
    coker_factors = la.hom_cokernel(cols0.difference_matrix,
                                    cols0.right_factors).factors
    perm_h1 = tuple(
        group_cohomology(h, perm, 1).invariant_factors
        for h in graph.vertices)
    perm_h1_ok = all(not f for f in perm_h1)
    perm_sha2 = sha(graph, perm, 2)
    s1 = sha1.invariant_factors
    s2 = sha2.invariant_factors
    return RemarkReport(
        sha1, sha2, coker_factors,
        s1 == s2, s1 == coker_factors, s2 == coker_factors,
        perm_h1, perm_h1_ok, perm_sha2,
        perm_h1_ok and perm_sha2.is_trivial,
        flasque, perm)


# ---------------------------------------------------------------------------
# Crossed-module columns (set-level maps, groups by enumeration).

class CrossedMvColumns(NamedTuple):
    """Mayer-Vietoris row for a crossed module in degree -1 or 0.

    Maps are index tables: ``vertex_maps[i][c]`` is the class of the
    restriction of left class c in ``middle[i]``, and the edge tables map
    the head/tail vertex groups into the edge group of ``edges[k]``.
    ``bound`` caps the enumeration of the vertex product.
    """

    degree: int
    left: Union[HMinusOne, HZero]
    middle: tuple
    right: tuple
    vertex_maps: tuple[tuple[int, ...], ...]
    edge_head_maps: tuple[tuple[int, ...], ...]
    edge_tail_maps: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, SubgroupHandle], ...]
    bound: int

    def restrict(self, idx: int) -> tuple[int, ...]:
        """Image of left class ``idx`` in the vertex product."""
        return tuple(vm[idx] for vm in self.vertex_maps)

    def difference(self, assignment: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a vertex-product element under the difference map."""
        out = []
        for k, (head, tail, _h) in enumerate(self.edges):
            g = self.right[k].group
            a = self.edge_head_maps[k][assignment[head]]
            b = self.edge_tail_maps[k][assignment[tail]]
            out.append(g.mul(a, g.inv(b)))
        return tuple(out)

    def composition_zero(self) -> bool:
        """Whether every restricted left class has neutral difference."""
        return all(v == 0 for idx in range(self.left.order)
                   for v in self.difference(self.restrict(idx)))

    def exact_at_middle(self) -> tuple[bool, Optional[tuple]]:
        """Enumerate the vertex product and compare ker(difference) with
        the image of the joint restriction."""
        sizes = [m.order for m in self.middle]
        total = math.prod(sizes)
        if total > self.bound:
            raise SizeLimitError(
                f"vertex product of size {total} exceeds the bound "
                f"{self.bound}")
        image = {self.restrict(c) for c in range(self.left.order)}
        for assignment in itertools.product(*[range(s) for s in sizes]):
            if any(v != 0 for v in self.difference(assignment)):
                continue
            if assignment not in image:
                return False, assignment
        return True, None

    def sha(self) -> ShaCrossed:
        """The left classes restricting to the neutral class at every
        vertex, with the group law of ``left``."""
        kernel = [idx for idx in range(self.left.order)
                  if all(v == 0 for v in self.restrict(idx))]
        pos = {c: i for i, c in enumerate(kernel)}
        mul = self.left.group.mul
        table = tuple(tuple(pos[mul(a, b)] for b in kernel) for a in kernel)
        return ShaCrossed(self.degree, tuple(kernel),
                          group_from_table(table), self.left)


def restrict_crossed(c: FiniteCrossedModule,
                     h: SubgroupHandle) -> FiniteCrossedModule:
    """The same crossed module with the outer action restricted to a
    subgroup of the acting group."""
    sub = h.as_group()
    on_g = tuple(c.galois_on_g[h.to_parent(s)] for s in sub.elements())
    on_h = tuple(c.galois_on_h[h.to_parent(s)] for s in sub.elements())
    return FiniteCrossedModule(c.g, c.h, c.boundary, c.h_action,
                               sub, on_g, on_h)


def _crossed_kind(c: FiniteCrossedModule, r: int, bound: int):
    """Columns are H^r of ``c`` restricted to each subgroup, restrictions
    index tables source class -> target class."""
    def column(h):
        mod = restrict_crossed(c, h) if isinstance(h, SubgroupHandle) else c
        return h_minus_one(mod) if r == -1 else h_zero(mod, bound)

    def restrict(src, src_col, h, tgt_col) -> tuple[int, ...]:
        if r == -1:
            return tuple(tgt_col.members.index(x) for x in src_col.members)
        ids = h.ids_in(src)
        return tuple(tgt_col.class_of[(tuple(alpha[s] for s in ids), hval)]
                     for alpha, hval in src_col.representatives)

    return column, restrict, lambda *row: CrossedMvColumns(*row, bound)


class ShaCrossed(NamedTuple):
    """Kernel of the joint restriction for a crossed module: the classes
    of the global group restricting to the neutral class everywhere."""

    degree: int
    classes: tuple[int, ...]
    group: FiniteGroup
    left: Union[HMinusOne, HZero]

    @property
    def is_trivial(self) -> bool:
        return len(self.classes) == 1


# ---------------------------------------------------------------------------
# Refinement along a finite extension (a subgroup H of gamma).

def refine_graph(graph: PatchingGraph, h: SubgroupHandle) -> PatchingGraph:
    """Split every vertex and edge into the orbits of its subgroup on
    the coset space of ``h``.

    Refined subgroups are orbit stabilizers at the minimal coset of each
    orbit.  Stabilizers at different points of an orbit are conjugate,
    so an edge stabilizer need not literally sit inside the stabilizers
    chosen for its endpoints; edge subgroups are intersected with both
    endpoint subgroups to keep the containment invariant (for a normal
    ``h`` all base points give the same stabilizer and nothing is lost).

    Raises GraphSplitError when the refined graph is not connected.
    """
    gamma = graph.gamma
    if not h.parent.same_table(gamma):
        raise MembershipError("refinement subgroup belongs to a "
                              "different group")
    cs = coset_action(gamma, h)

    def split(handle: SubgroupHandle):
        """Per orbit of ``handle`` on the cosets: the orbit, its
        stabilizer at the minimal coset, and the book entry (coset,
        orbit size)."""
        return [(orbit, tuple(g for g in handle.members
                              if cs.act(g, orbit[0]) == orbit[0]),
                 (orbit[0], len(orbit)))
                for orbit in cs.orbits(handle.members)]

    new_vertices: list[SubgroupHandle] = []
    vertex_ids: list[dict[int, int]] = []  # per vertex: coset -> new id
    vertex_books = []
    witnesses = []  # per refined vertex: (original vertex, coset)
    for v, handle in enumerate(graph.vertices):
        ids: dict[int, int] = {}
        orbits = split(handle)
        for orbit, stab, (rep, _) in orbits:
            ids.update((c, len(new_vertices)) for c in orbit)
            new_vertices.append(SubgroupHandle(gamma, stab))
            witnesses.append((v, rep))
        vertex_ids.append(ids)
        vertex_books.append(tuple(entry for *_, entry in orbits))

    new_edges = []
    edge_books = []
    for (head, tail, handle) in graph.edges:
        orbits = split(handle)
        for _, stab, (rep, _) in orbits:
            head_id = vertex_ids[head][rep]
            tail_id = vertex_ids[tail][rep]
            members = (set(stab) & set(new_vertices[head_id].members)
                       & set(new_vertices[tail_id].members))
            new_edges.append((head_id, tail_id,
                              SubgroupHandle(gamma, tuple(members))))
        edge_books.append(tuple(entry for *_, entry in orbits))
    components = _components(len(new_vertices), new_edges)
    if len(components) > 1:
        raise GraphSplitError(components, tuple(witnesses))
    refinement = Refinement(h, cs.size, tuple(vertex_books),
                            tuple(edge_books))
    return build_patching_graph(gamma, new_vertices, new_edges, refinement)

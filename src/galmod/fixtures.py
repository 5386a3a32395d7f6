"""Built-in catalog of named groups, lattices, complexes, crossed
modules, patching graphs, and test batteries.

Catalog objects are constructed once per process and cached, so repeated
lookups share the cohomology results cached on each object, and a catalog
complex shares its flasque and coflasque resolutions for the whole
process.
"""

from __future__ import annotations

import functools
import random

from . import intlinalg as la
from .crossed import (FiniteCrossedModule, conjugation_h_action,
                      degenerate_crossed, identity_crossed,
                      trivial_galois_action, trivial_h_action)
from .groups import (FiniteGroup, SubgroupHandle, cyclic_group,
                     dihedral_group_4, direct_product, enumerate_subgroups,
                     klein_four, subgroup, symmetric_group_3,
                     trivial_subgroup, whole_subgroup)
from .lattice import (GLattice, LatticeMap, make_permutation_lattice,
                      regular_lattice, sign_lattice, trivial_lattice,
                      zero_lattice)
from .complexes import TwoTermComplex
from .patching import PatchingGraph, build_patching_graph


@functools.cache
def group_catalog() -> dict[str, FiniteGroup]:
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    return {
        "Z2": z2,
        "Z3": z3,
        "Z4": cyclic_group(4),
        "Z6": cyclic_group(6),
        "Z8": cyclic_group(8),
        "Z12": cyclic_group(12),
        "Z2xZ2": klein_four(),
        "S3": symmetric_group_3(),
        "D4": dihedral_group_4(),
        "Z2xZ3": direct_product(z2, z3, name="Z2xZ3"),
    }


def _subgroup_of_order(g: FiniteGroup, order: int) -> SubgroupHandle:
    subs, _ = enumerate_subgroups(g)
    return next(h for h in subs if h.order == order)


@functools.cache
def lattice_catalog() -> dict[str, GLattice]:
    gs = group_catalog()
    z2, z4, v4, s3 = gs["Z2"], gs["Z4"], gs["Z2xZ2"], gs["S3"]
    a3 = _subgroup_of_order(s3, 3)
    return {
        "sign": sign_lattice(z2, [-1]),
        "z2-trivial": trivial_lattice(z2),
        "z2-regular": regular_lattice(z2),
        "z3-regular": regular_lattice(gs["Z3"]),
        "z4-regular": regular_lattice(z4),
        "z4-coset2": make_permutation_lattice(
            z4, [_subgroup_of_order(z4, 2)]),
        "v4-regular": regular_lattice(v4),
        "v4-coset": make_permutation_lattice(
            v4, [_subgroup_of_order(v4, 2)]),
        "v4-character": sign_lattice(v4, [-1, -1]),
        # generators of S3 are (1 2) and (1 2 3)
        "s3-sign": sign_lattice(s3, [-1, 1]),
        "s3-coset": make_permutation_lattice(s3, [a3]),
        "s3-regular": regular_lattice(s3),
        "z6-coset": make_permutation_lattice(
            gs["Z6"], [_subgroup_of_order(gs["Z6"], 3)]),
        "z12-coset6": make_permutation_lattice(
            gs["Z12"], [_subgroup_of_order(gs["Z12"], 6)]),
    }


def _cx(l1: GLattice, l2: GLattice, matrix) -> TwoTermComplex:
    return TwoTermComplex(l1, l2, LatticeMap(l1, l2, la.freeze(matrix)))


@functools.cache
def complex_catalog() -> dict[str, TwoTermComplex]:
    """Two-term complexes over Z2, Z3, Z4, Z2xZ2, and S3 with lattice
    ranks at most 4; the resolution battery runs over all of them."""
    gs = group_catalog()
    ls = lattice_catalog()
    z2, z3, z4, v4, s3 = (gs["Z2"], gs["Z3"], gs["Z4"], gs["Z2xZ2"],
                          gs["S3"])
    sign = ls["sign"]
    out = {
        "sign-deg0": _cx(zero_lattice(z2), sign, ((),)),
        "sign-deg-1": _cx(sign, zero_lattice(z2), ()),
        "z2-norm": _cx(trivial_lattice(z2), ls["z2-regular"],
                       ((1,), (1,))),
        "z2-aug": _cx(ls["z2-regular"], trivial_lattice(z2), ((1, 1),)),
        "z2-mult2": _cx(trivial_lattice(z2), trivial_lattice(z2),
                        ((2,),)),
        "z2-sign-embed": _cx(sign, ls["z2-regular"], ((1,), (-1,))),
        "z3-aug": _cx(ls["z3-regular"], trivial_lattice(z3),
                      ((1, 1, 1),)),
        "z3-norm": _cx(trivial_lattice(z3), ls["z3-regular"],
                       ((1,), (1,), (1,))),
        "z4-aug": _cx(ls["z4-regular"], trivial_lattice(z4),
                      ((1, 1, 1, 1),)),
        "z4-coset-aug": _cx(ls["z4-coset2"], trivial_lattice(z4),
                            ((1, 1),)),
        "z4-mult3": _cx(trivial_lattice(z4), trivial_lattice(z4),
                        ((3,),)),
        "v4-aug": _cx(ls["v4-regular"], trivial_lattice(v4),
                      ((1, 1, 1, 1),)),
        "v4-coset-aug": _cx(ls["v4-coset"], trivial_lattice(v4),
                            ((1, 1),)),
        "v4-char-deg0": _cx(zero_lattice(v4), ls["v4-character"],
                            ((),)),
        "s3-coset-aug": _cx(ls["s3-coset"], trivial_lattice(s3),
                            ((1, 1),)),
        "s3-coset-norm": _cx(trivial_lattice(s3), ls["s3-coset"],
                             ((1,), (1,))),
        "s3-sign-deg0": _cx(zero_lattice(s3), ls["s3-sign"], ((),)),
        "s3-zero": _cx(zero_lattice(s3), zero_lattice(s3), ()),
    }
    return out


@functools.cache
def crossed_catalog() -> dict[str, FiniteCrossedModule]:
    gs = group_catalog()
    z2, z3, s3 = gs["Z2"], gs["Z3"], gs["S3"]
    # Z/2 -> 0 -> Z/2 with everything trivial; H^0 has order 4
    order4 = FiniteCrossedModule(
        z2, z2, (0, 0), trivial_h_action(z2, z2),
        z2, trivial_galois_action(z2, z2),
        trivial_galois_action(z2, z2))
    # Z/3 kernel flipped by the Galois involution
    flip = ((0, 1, 2), (0, 2, 1))
    flipped = FiniteCrossedModule(
        z3, cyclic_group(1), (0, 0, 0), trivial_h_action(
            cyclic_group(1), z3),
        z2, flip, ((0,), (0,)))
    return {
        "z2-z2-order4": order4,
        "z3-flip": flipped,
        "s3-identity": identity_crossed(s3, z2),
        "s3-degenerate": degenerate_crossed(s3, z2),
        "z2-id": FiniteCrossedModule(
            z2, z2, (0, 1), conjugation_h_action(z2),
            z2, trivial_galois_action(z2, z2),
            trivial_galois_action(z2, z2)),
    }


@functools.cache
def graph_catalog() -> dict[str, PatchingGraph]:
    gs = group_catalog()
    z2, v4, s3 = gs["Z2"], gs["Z2xZ2"], gs["S3"]
    w2 = whole_subgroup(z2)
    t2 = trivial_subgroup(z2)
    order2 = [h for h in enumerate_subgroups(v4)[0] if h.order == 2]
    return {
        "single-whole": build_patching_graph(z2, [w2], []),
        "single-trivial-vertex": build_patching_graph(z2, [t2], []),
        "two-vertex-whole": build_patching_graph(
            z2, [w2, w2], [(0, 1, w2)]),
        "two-vertex-trivial-edges": build_patching_graph(
            z2, [w2, w2], [(0, 1, t2), (0, 1, t2)]),
        "klein-triple": build_patching_graph(
            v4, order2,
            [(0, 1, trivial_subgroup(v4)), (1, 2, trivial_subgroup(v4))]),
        "s3-transposition-vertex": build_patching_graph(
            s3, [subgroup(s3, (0, 1))], []),
        "s3-two-vertex": build_patching_graph(
            s3, [whole_subgroup(s3), _subgroup_of_order(s3, 3)],
            [(0, 1, _subgroup_of_order(s3, 3))]),
    }


@functools.cache
def refinement_pairs() -> list[tuple[str, PatchingGraph, SubgroupHandle]]:
    """(name, graph, H) pairs exercised by the refinement checks."""
    gs = group_catalog()
    graphs = graph_catalog()
    s3, v4, z2 = gs["S3"], gs["Z2xZ2"], gs["Z2"]
    a3 = _subgroup_of_order(s3, 3)
    return [
        ("s3-transposition/A3", graphs["s3-transposition-vertex"], a3),
        ("s3-two-vertex/A3", graphs["s3-two-vertex"], a3),
        ("two-vertex-whole/whole", graphs["two-vertex-whole"],
         whole_subgroup(z2)),
        ("klein-triple/order2", graphs["klein-triple"],
         _subgroup_of_order(v4, 2)),
    ]


@functools.cache
def shapiro_triples() -> list[tuple[str, FiniteGroup, SubgroupHandle,
                                    GLattice]]:
    """(name, Gamma, H, lattice over H) triples with |Gamma| <= 12."""
    gs = group_catalog()
    out = []

    def add(name, gamma, h, lat):
        out.append((name, gamma, h, lat))

    z4 = gs["Z4"]
    h = _subgroup_of_order(z4, 2)
    add("Z4/Z2 trivial", z4, h, trivial_lattice(h.as_group()))
    add("Z4/Z2 sign", z4, h,
        sign_lattice(h.as_group(), [-1] * len(h.as_group().generators)))
    s3 = gs["S3"]
    a3 = _subgroup_of_order(s3, 3)
    t = subgroup(s3, (0, 1))
    add("S3/A3 trivial", s3, a3, trivial_lattice(a3.as_group()))
    add("S3/<(12)> sign", s3, t,
        sign_lattice(t.as_group(), [-1] * len(t.as_group().generators)))
    v4 = gs["Z2xZ2"]
    h2 = _subgroup_of_order(v4, 2)
    add("V4/Z2 trivial", v4, h2, trivial_lattice(h2.as_group()))
    z6 = gs["Z6"]
    h3 = _subgroup_of_order(z6, 3)
    add("Z6/Z3 trivial", z6, h3, trivial_lattice(h3.as_group()))
    z8 = gs["Z8"]
    h4 = _subgroup_of_order(z8, 4)
    add("Z8/Z4 trivial", z8, h4, trivial_lattice(h4.as_group()))
    d4 = gs["D4"]
    h4d = _subgroup_of_order(d4, 4)
    add("D4/H4 trivial", d4, h4d, trivial_lattice(h4d.as_group()))
    z12 = gs["Z12"]
    h6 = _subgroup_of_order(z12, 6)
    add("Z12/Z6 trivial", z12, h6, trivial_lattice(h6.as_group()))
    return out


def random_complexes(count: int = 20,
                     seed: int = 20240815) -> list[TwoTermComplex]:
    """Randomized two-term complexes of permutation lattices with
    equivariant differentials (random matrices symmetrized over the
    group), deterministic for a fixed seed."""
    rng = random.Random(seed)
    gs = group_catalog()
    pool = [gs["Z2"], gs["Z3"], gs["Z4"], gs["Z2xZ2"], gs["S3"]]
    out = []
    while len(out) < count:
        g = rng.choice(pool)
        subs, _ = enumerate_subgroups(g)
        small = [h for h in subs if h.index <= 3]
        l1 = make_permutation_lattice(g, [rng.choice(small)])
        l2 = make_permutation_lattice(g, [rng.choice(small)])
        raw = [[rng.randint(-2, 2) for _ in range(l1.rank)]
               for _ in range(l2.rank)]
        m1 = l1.element_matrices()
        m2 = l2.element_matrices()
        acc = la.zeros(l2.rank, l1.rank)
        for e in g.elements():
            term = la.mat_mul(m2[e], la.mat_mul(la.freeze(raw),
                                                m1[g.inv(e)]))
            acc = la.mat_add(acc, term)
        out.append(TwoTermComplex(l1, l2, LatticeMap(l1, l2, acc)))
    return out


def catalog_listing() -> list[tuple[str, str, str]]:
    """(kind, name, description) rows for every named fixture."""
    rows = []
    for name, g in group_catalog().items():
        rows.append(("group", name, f"order {g.order}"))
    for name, lat in lattice_catalog().items():
        rows.append(("lattice", name,
                     f"rank {lat.rank} over {lat.group.name or 'group'}"))
    for name, t in complex_catalog().items():
        rows.append(("complex", name,
                     f"[{t.l1.rank} -> {t.l2.rank}] over "
                     f"{t.group.name or 'group'}"))
    for name, c in crossed_catalog().items():
        rows.append(("crossed", name,
                     f"|G|={c.g.order} |H|={c.h.order} "
                     f"|Gamma|={c.galois.order}"))
    for name, gr in graph_catalog().items():
        rows.append(("graph", name,
                     f"{gr.n_vertices} vertices, {gr.n_edges} edges"))
    return rows


def lookup(kind: str, name: str):
    """Resolve a fixtures:name reference of the given kind."""
    catalogs = {
        "group": group_catalog,
        "lattice": lattice_catalog,
        "complex": complex_catalog,
        "crossed": crossed_catalog,
        "graph": graph_catalog,
    }
    if kind not in catalogs:
        raise KeyError(f"unknown fixture kind {kind!r}")
    cat = catalogs[kind]()
    if name not in cat:
        raise KeyError(f"no {kind} fixture named {name!r}")
    return cat[name]

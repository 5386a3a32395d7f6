"""Seeded input generation and validation for the benchmark workloads.

Every generated object is stored as its JSON dump.  Jobs load fresh
objects from these dumps, so no object (and no cache keyed on one) is
shared between two jobs.  The seed changes only things the answers do
not depend on: point labels of the permutation generators, and the basis
of the small lattices (a random unimodular change of basis).
"""

from __future__ import annotations

import random

from galmod import complexes as cx
from galmod import crossed as cr
from galmod import groups as gr
from galmod import intlinalg as la
from galmod import lattice as lt
from galmod import serialize as se

S3_GENS = ((1, 0, 2), (1, 2, 0))
S4_GENS = ((1, 0, 2, 3), (1, 2, 3, 0))
D4_GENS = ((1, 2, 3, 0), (1, 0, 3, 2))
D5_GENS = ((1, 2, 3, 4, 0), (0, 4, 3, 2, 1))
Z6_GENS = ((1, 2, 3, 4, 5, 0),)
Z10_GENS = (tuple((i + 1) % 10 for i in range(10)),)

# Elementary steps per unit of rank in a seeded change of basis.  A few
# steps already change the cost of H^2 a lot (see README.md), so only
# small lattices get one.
BASIS_STEPS_PER_RANK = 1


def relabelled_group(gens, rng: random.Random,
                     name: str) -> gr.FiniteGroup:
    """The group generated by ``gens`` after a random relabelling of the
    points.  Conjugating every generator by the same permutation keeps
    the breadth-first element order, so the multiplication table (and
    the cost of every computation on it) is the same for every seed;
    only the generator permutations and element labels change."""
    n = len(gens[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    inv = [0] * n
    for i, s in enumerate(sigma):
        inv[s] = i
    perms = [tuple(sigma[p[inv[j]]] for j in range(n)) for p in gens]
    return gr.build_group(perms, name=name)


def random_unimodular(n: int, rng: random.Random) -> la.IntMatrix:
    """A product of ``BASIS_STEPS_PER_RANK * n`` elementary +-1 row
    operations and one random row permutation."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(BASIS_STEPS_PER_RANK * n):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((1, -1))
            rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return la.freeze(rows)


def rebase_lattice(lat: lt.GLattice, rng: random.Random) -> lt.GLattice:
    return lt.conjugate_lattice(lat, random_unimodular(lat.rank, rng)) \
        if lat.rank else lat


def rebase_complex(t: cx.TwoTermComplex,
                   rng: random.Random) -> cx.TwoTermComplex:
    """The same complex in random bases of both terms: d -> u2 d u1^-1."""
    u1 = random_unimodular(t.l1.rank, rng)
    u2 = random_unimodular(t.l2.rank, rng)
    l1 = lt.conjugate_lattice(t.l1, u1) if t.l1.rank else t.l1
    l2 = lt.conjugate_lattice(t.l2, u2) if t.l2.rank else t.l2
    d = t.differential.matrix
    if t.l1.rank and t.l2.rank:
        d = la.mat_mul(la.mat_mul(u2, d), la.mat_inverse_unimodular(u1))
    return cx.TwoTermComplex(l1, l2, lt.LatticeMap(l1, l2, d))


def augmentation(lat: lt.GLattice) -> cx.TwoTermComplex:
    """[L -> Z] sending every basis vector to 1 (L a permutation lattice)."""
    z = lt.trivial_lattice(lat.group)
    return cx.TwoTermComplex(lat, z,
                             lt.LatticeMap(lat, z, ((1,) * lat.rank,)))


def order2_reps(g: gr.FiniteGroup) -> list[gr.SubgroupHandle]:
    _, reps = gr.enumerate_subgroups(g)
    return [h for h in reps if h.order == 2]


def subgroup_of_order(g: gr.FiniteGroup, order: int) -> gr.SubgroupHandle:
    subs, _ = gr.enumerate_subgroups(g)
    return next(h for h in subs if h.order == order)


def involution_action(gal: gr.FiniteGroup, target: gr.FiniteGroup,
                      auto: tuple[int, ...], gen_parity: tuple[int, ...]
                      ) -> tuple[tuple[int, ...], ...]:
    """Gamma acting on ``target`` through the homomorphism Gamma -> Z/2
    that sends generator i to ``gen_parity[i]``, and the involutive
    automorphism ``auto``."""
    ident = tuple(target.elements())
    return tuple(auto if sum(gen_parity[i] for i in gal.word(s)) % 2
                 else ident for s in gal.elements())


def identity_crossed(g: gr.FiniteGroup, gal: gr.FiniteGroup,
                     auto: tuple[int, ...], gen_parity: tuple[int, ...]
                     ) -> cr.FiniteCrossedModule:
    """[G -> G] with Gamma acting through ``auto`` (see involution_action)."""
    return cr.identity_crossed(
        g, gal, involution_action(gal, g, auto, gen_parity))


def abelian_to_one(g: gr.FiniteGroup, gal: gr.FiniteGroup,
                   auto: tuple[int, ...], gen_parity: tuple[int, ...]
                   ) -> cr.FiniteCrossedModule:
    """[G -> 1] for abelian G; its H^0 is H^1(Gamma, G)."""
    one = gr.cyclic_group(1)
    return cr.FiniteCrossedModule(
        g, one, (0,) * g.order, cr.trivial_h_action(one, g), gal,
        involution_action(gal, g, auto, gen_parity),
        tuple((0,) for _ in gal.elements()))


# ---------------------------------------------------------------------------
# Validation of dumps, before anything is timed.  The library's loaders
# do not validate, so every object is loaded and checked here.

class InvalidInput(Exception):
    pass


def validate(kind: str, obj: dict) -> None:
    if kind == "lattice":
        se.load_lattice(obj).validate()
    elif kind == "complex":
        t = se.load_complex(obj)
        t.l1.validate()
        t.l2.validate()
        t.differential.validate()
    elif kind == "crossed":
        verdict = cr.validate_crossed_module(se.load_crossed(obj))
        if not verdict.ok:
            raise InvalidInput(f"crossed module: {verdict.failure}")
    elif kind == "graph":
        se.load_graph(obj)  # build_patching_graph checks the model
    else:
        raise InvalidInput(f"unknown input kind {kind!r}")

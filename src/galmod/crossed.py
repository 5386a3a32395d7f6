"""Finite crossed modules and their nonabelian H^-1 / H^0.

A crossed module is a homomorphism d: G -> H of finite groups with a left
H-action on G satisfying g g' g^-1 = d(g).g' and d(h.g) = h d(g) h^-1,
plus an outer action of a finite group Gamma on both G and H.  H^0 is
computed by exhaustive enumeration of 0-cocycles (alpha: Gamma -> G,
h in H) modulo coboundaries, with the cochain group law
(alpha, h)(beta, h') = ((h . beta) alpha, h h').  A cocycle is fixed
by its values on the generators of Gamma and extends along the BFS
spanning tree ``FiniteGroup.tree()``, so the enumeration tries
|G|^#generators maps, not |G|^|Gamma|.  Every multiplicative identity,
the axioms and the cocycle conditions alike, is checked on generators
only, by the lemma in ``FiniteGroup.loop_edges``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .frozen import Frozen
from .groups import FiniteGroup, SizeLimitError, bad_ids, group_from_table

DEFAULT_ENUMERATION_BOUND = 10 ** 6


class FiniteCrossedModule(Frozen):
    """d: G -> H with an H-action on G and a Gamma-action on both.  The
    constructor refuses (ValueError) a table that is not one map of ids
    per acting element; ``validate_crossed_module`` checks the axioms."""

    _fields = ("g", "h", "boundary", "h_action", "galois", "galois_on_g",
               "galois_on_h")

    def __init__(self, g: FiniteGroup, h: FiniteGroup,
                 boundary: tuple[int, ...],  # value table G -> H
                 h_action: tuple[tuple[int, ...], ...],  # h_action[h][g]
                 galois: FiniteGroup,
                 galois_on_g: tuple[tuple[int, ...], ...],  # per Gamma element
                 galois_on_h: tuple[tuple[int, ...], ...]):
        for what, rows, n_rows, src, tgt in (
                ("boundary", (boundary,), 1, g, h),
                ("H-action", h_action, h.order, g, g),
                ("Galois action on G", galois_on_g, galois.order, g, g),
                ("Galois action on H", galois_on_h, galois.order, h, h)):
            if len(rows) != n_rows or any(len(r) != src.order for r in rows):
                raise ValueError(f"{what} table must be {n_rows} rows of "
                                 f"{src.order} ids")
            bad = bad_ids(itertools.chain.from_iterable(rows), tgt.order)
            if bad:
                raise ValueError(f"{what} table names {bad[0]!r}, not an "
                                 f"element id in 0..{tgt.order - 1}")
        vars(self).update(g=g, h=h, boundary=boundary, h_action=h_action,
                          galois=galois, galois_on_g=galois_on_g,
                          galois_on_h=galois_on_h)

    def act_h(self, h: int, g: int) -> int:
        return self.h_action[h][g]

    def act_gal_g(self, s: int, g: int) -> int:
        return self.galois_on_g[s][g]

    def act_gal_h(self, s: int, h: int) -> int:
        return self.galois_on_h[s][h]

    def kernel_elements(self) -> tuple[int, ...]:
        return tuple(x for x in self.g.elements() if self.boundary[x] == 0)


class CrossedVerdict(NamedTuple):
    ok: bool
    failure: Optional[tuple]  # (description, witness tuple)


def _hom_failure(f, src: FiniteGroup, tgt: FiniteGroup):
    """The first (a, s), s a generator of ``src``, with f(a s) !=
    f(a) f(s) for the value table ``f``; None if there is none, and then
    f is a homomorphism (``FiniteGroup.loop_edges``)."""
    return next(((a, s) for a in src.elements() for s in src.generators
                 if f[src.mul(a, s)] != tgt.mul(f[a], f[s])), None)


def _action_failure(acting: FiniteGroup, tables, n: int):
    """Where ``tables``, one map of range(n) per element of ``acting``,
    fails to be an action: (0,) if tables[0] is not the identity, else
    the first (x, t), t a generator, with tables[x t] != tables[x] o
    tables[t]; None if it is an action (``FiniteGroup.loop_edges``)."""
    if tables[0] != tuple(range(n)):
        return (0,)
    return next(((x, t) for x in acting.elements() for t in acting.generators
                 if tables[acting.mul(x, t)]
                 != tuple(tables[x][i] for i in tables[t])), None)


def validate_crossed_module(c: FiniteCrossedModule) -> CrossedVerdict:
    """Check the crossed-module axioms; returns the first violating
    tuple on failure.

    Every check reads generators (``FiniteGroup.loop_edges``).  A table
    is a homomorphism once f(a s) = f(a) f(s) at each a and generator s,
    an action once the identity acts as the identity and x t as x after
    t, and an action by automorphisms once the generators' maps are
    homomorphisms.  These come first, the boundary before the rest.
    Each later axiom equates two homomorphisms or two actions in every
    slot, so generators in each slot suffice: d(s.a) = s.d(a) at
    generators s, t gives d(st.a) = s.d(t.a) = st.d(a).  That ker d is
    central follows from the conjugation identity: z b z^-1 = d(z).b = b.
    """
    failure = next(((what, witness) for what, witness in _axioms(c)
                    if witness), None)
    return CrossedVerdict(failure is None, failure)


def _axioms(c: FiniteCrossedModule):
    """(description, witness or None) per axiom, in the order checked.
    Being a generator, it runs a check only once every earlier one has
    passed, as the reductions to generators need."""
    g, h, gal = c.g, c.h, c.galois
    d, act = c.boundary, c.h_action
    yield "boundary not a homomorphism", _hom_failure(d, g, h)
    yield "H tables not an action on G", _action_failure(h, act, g.order)
    for x in h.generators:
        witness = _hom_failure(act[x], g, g)
        yield "action not by automorphisms", witness and (x,) + witness
    # Peiffer identities
    yield "conjugation identity fails", next(
        ((a, b) for a in g.generators for b in g.generators
         if g.conj(a, b) != act[d[a]][b]), None)
    yield "boundary twist fails", next(
        ((x, a) for x in h.generators for a in g.generators
         if d[act[x][a]] != h.conj(x, d[a])), None)
    # Galois acts by automorphisms compatible with everything
    rg, rh = c.galois_on_g, c.galois_on_h
    for side, tables, target in (("G", rg, g), ("H", rh, h)):
        yield (f"Galois tables not an action on {side}",
               _action_failure(gal, tables, target.order))
        for s in gal.generators:
            witness = _hom_failure(tables[s], target, target)
            yield (f"Galois not by automorphisms on {side}",
                   witness and (s,) + witness)
    yield "Galois does not commute with boundary", next(
        ((s, a) for s in gal.generators for a in g.generators
         if d[rg[s][a]] != rh[s][d[a]]), None)
    yield "Galois incompatible with H-action", next(
        ((s, x, a) for s in gal.generators for x in h.generators
         for a in g.generators
         if rg[s][act[x][a]] != act[rh[s][x]][rg[s][a]]), None)


class HMinusOne(NamedTuple):
    """Gamma-fixed points of ker d, as an abelian group."""

    members: tuple[int, ...]  # element ids in G
    group: FiniteGroup

    @property
    def order(self) -> int:
        return len(self.members)


def h_minus_one(c: FiniteCrossedModule) -> HMinusOne:
    """The kernel elements fixed by the generators of Gamma, hence by
    Gamma; ``c`` must be a validated module."""
    members = tuple(
        x for x in c.kernel_elements()
        if all(c.act_gal_g(s, x) == x for s in c.galois.generators))
    index = {x: i for i, x in enumerate(members)}
    # fixed kernel elements form a subgroup; reorder so identity is 0
    assert members and members[0] == 0
    table = tuple(tuple(index[c.g.mul(a, b)] for b in members)
                  for a in members)
    return HMinusOne(members, group_from_table(table))


Cocycle = tuple[tuple[int, ...], int]  # (alpha value table over Gamma, h)


class HZero(NamedTuple):
    """H^0 of a crossed module: cocycle classes with their group law."""

    cocycles: tuple[Cocycle, ...]
    class_of: dict  # cocycle -> class index
    representatives: tuple[Cocycle, ...]  # lexicographic minimum per class
    table: tuple[tuple[int, ...], ...]
    group: FiniteGroup

    @property
    def order(self) -> int:
        return len(self.representatives)


def _cocycle_product(c: FiniteCrossedModule, z1: Cocycle,
                     z2: Cocycle) -> Cocycle:
    """(alpha, h)(beta, h') = (s -> (h . beta_s) alpha_s, h h')."""
    (alpha, h), (beta, hp) = z1, z2
    vals = tuple(c.g.mul(c.act_h(h, beta[s]), alpha[s])
                 for s in c.galois.elements())
    return (vals, c.h.mul(h, hp))


def _coboundary_transform(c: FiniteCrossedModule, z: Cocycle,
                          g: int) -> Cocycle:
    """The equivalent cocycle (s -> g alpha_s (s.g)^-1, d(g) h)."""
    alpha, h = z
    gg = c.g
    vals = tuple(
        gg.mul(gg.mul(g, alpha[s]), gg.inv(c.act_gal_g(s, g)))
        for s in c.galois.elements())
    return (vals, c.h.mul(c.boundary[g], h))


def enumerate_cocycles(c: FiniteCrossedModule,
                       bound: int = DEFAULT_ENUMERATION_BOUND
                       ) -> tuple[Cocycle, ...]:
    """All 0-cocycles in lexicographic (alpha, h) order; ``c`` must be a
    validated module.

    A cocycle is fixed by its values on the generators of Gamma, since
    alpha(xs) = alpha(x) x.alpha(s).  Each assignment of values on the
    distinct non-identity generators, the children of the identity in
    ``gal.tree()``, is extended along that tree and kept if the cocycle
    identity holds on ``gal.loop_edges()``, hence everywhere by the lemma
    there; ``bound`` caps the |G|^#generators assignments tried.  An h
    is kept with it if d(alpha(s)) s.h = h at the generators s, which
    extends to st as d(alpha(st)) st.h = d(alpha(s)) s.(d(alpha(t)) t.h).
    """
    gal, g, h = c.galois, c.g, c.h
    gens = [x for x, p, _ in gal.tree() if not p]
    steps = [(x, p, gal.generators[t]) for x, p, t in gal.tree() if p]
    loops = [(x, gal.mul(x, gal.generators[t]), gal.generators[t])
             for x, t in gal.loop_edges()]
    total = g.order ** len(gens)
    if total > bound:
        raise SizeLimitError(
            f"{total} candidate maps exceed the bound {bound}")
    out = []
    alpha = [0] * gal.order
    for values in itertools.product(range(g.order), repeat=len(gens)):
        for s, v in zip(gens, values):
            alpha[s] = v
        for x, p, s in steps:
            alpha[x] = g.mul(alpha[p], c.act_gal_g(p, alpha[s]))
        if any(alpha[xs] != g.mul(alpha[x], c.act_gal_g(x, alpha[s]))
               for x, xs, s in loops):
            continue
        for x in h.elements():
            if all(h.mul(c.boundary[alpha[s]], c.act_gal_h(s, x)) == x
                   for s in gal.generators):
                out.append((tuple(alpha), x))
    return tuple(sorted(out))


def h_zero(c: FiniteCrossedModule,
           bound: int = DEFAULT_ENUMERATION_BOUND) -> HZero:
    """Cocycle classes with the induced group law, verified well-defined
    here and a group by ``group_from_table``."""
    cocycles = enumerate_cocycles(c, bound)
    cocycle_set = set(cocycles)
    class_of: dict = {}
    classes: list[list[Cocycle]] = []
    for z in cocycles:
        if z in class_of:
            continue
        orbit = sorted({_coboundary_transform(c, z, g)
                        for g in c.g.elements()})
        for w in orbit:
            if w not in cocycle_set:
                raise RuntimeError("coboundary left the cocycle set")
            class_of[w] = len(classes)
        classes.append(orbit)
    reps = [cls[0] for cls in classes]
    neutral = ((0,) * c.galois.order, 0)
    order_key = sorted(range(len(reps)),
                       key=lambda i: (reps[i] != neutral, reps[i]))
    relabel = {old: new for new, old in enumerate(order_key)}
    class_of = {z: relabel[i] for z, i in class_of.items()}
    reps = [reps[i] for i in order_key]
    n = len(reps)
    table = tuple(
        tuple(class_of[_cocycle_product(c, reps[i], reps[j])]
              for j in range(n))
        for i in range(n))
    # well-definedness: products of arbitrary representatives agree
    for z1 in cocycles:
        for z2 in cocycles:
            prod = _cocycle_product(c, z1, z2)
            if class_of[prod] != table[class_of[z1]][class_of[z2]]:
                raise RuntimeError("group law not well defined on classes")
    group = group_from_table(table)
    return HZero(cocycles, class_of, tuple(reps), table, group)


# ---------------------------------------------------------------------------
# Convenience constructors.

def trivial_galois_action(gal: FiniteGroup,
                          target: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    row = tuple(target.elements())
    return tuple(row for _ in gal.elements())


def trivial_h_action(h: FiniteGroup,
                     g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    row = tuple(g.elements())
    return tuple(row for _ in h.elements())


def conjugation_h_action(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(g.conj(x, a) for a in g.elements())
                 for x in g.elements())


def identity_crossed(g: FiniteGroup, gal: FiniteGroup,
                     gal_action: Optional[tuple] = None
                     ) -> FiniteCrossedModule:
    """[G -> id -> G] with the conjugation action."""
    act = gal_action if gal_action is not None \
        else trivial_galois_action(gal, g)
    return FiniteCrossedModule(g, g, tuple(g.elements()),
                               conjugation_h_action(g), gal, act, act)


def degenerate_crossed(h: FiniteGroup, gal: FiniteGroup,
                       gal_action: Optional[tuple] = None
                       ) -> FiniteCrossedModule:
    """[1 -> H]: H^0 reduces to the Gamma-fixed points of H."""
    from .groups import cyclic_group
    one = cyclic_group(1)
    act = gal_action if gal_action is not None \
        else trivial_galois_action(gal, h)
    return FiniteCrossedModule(
        one, h, (0,), tuple((0,) for _ in h.elements()), gal,
        tuple((0,) for _ in gal.elements()), act)

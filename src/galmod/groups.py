"""Finite groups with enumerable elements, subgroup lattices, and coset
actions.

Elements are integers 0..n-1 with 0 the identity.  Groups are built by
breadth-first closure from generating permutations, so element ordering is
deterministic and reproducible.  The same closure (``_bfs``) generates
every subgroup from its generators, numbers the elements of a subgroup's
standalone group and gives each group its BFS spanning tree,
``FiniteGroup.tree()``, along which the lattice, cohomology and
crossed-module code walk the elements.  A ``SubgroupHandle`` gives its
members and generators as ids of its parent; it builds its standalone
group (``as_group``) and its coset space (``coset_action``) only when
first asked, and keeps them.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .frozen import Frozen

DEFAULT_SIZE_LIMIT = 64


class SizeLimitError(Exception):
    """Closure exceeded the configured size bound."""


class MembershipError(Exception):
    """An element or subgroup does not belong where required."""


class FiniteGroup(Frozen):
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the product a*b.  Labels are display names for the
    elements (permutation tuples when built from permutations).
    """

    _fields = ("table", "generators", "labels", "name")

    def __init__(self, table: tuple[tuple[int, ...], ...],
                 generators: tuple[int, ...], labels: tuple[str, ...],
                 name: str = ""):
        vars(self).update(table=table, generators=generators, labels=labels,
                          name=name)

    @property
    def order(self) -> int:
        return len(self.table)

    def same_table(self, other: "FiniteGroup") -> bool:
        """Element ids of one group index the elements of the other."""
        return self is other or self.table == other.table

    def same_presentation(self, other: "FiniteGroup") -> bool:
        """Same table and generator list, so action matrices listed by
        generator index describe one action."""
        return self.same_table(other) and self.generators == other.generators

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        """The inverse of each element, read off the table once."""
        return tuple(row.index(0) for row in self.table)

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def word(self, a: int) -> tuple[int, ...]:
        """Expression of ``a`` as generator indices, along ``tree()``."""
        return self._words[a]

    def tree(self) -> tuple[tuple[int, int, int], ...]:
        """The BFS spanning tree of the Cayley graph on ``generators``.

        One entry (x, p, t) per non-identity element x, in BFS order, with
        x = p * generators[t] and word(x) = word(p) + (t,); p is 0 or an
        earlier entry.
        """
        return self._tree

    @cached_property
    def _tree(self) -> tuple[tuple[int, int, int], ...]:
        reached = _bfs(0, self.generators, self.mul)
        if len(reached) != self.order:
            raise ValueError("generators do not generate the group")
        return tuple((x, *step) for x, step in reached.items() if step)

    @cached_property
    def _words(self) -> tuple[tuple[int, ...], ...]:
        words = [()] * self.order
        for x, p, t in self.tree():
            words[x] = words[p] + (t,)
        return tuple(words)

    def loop_edges(self) -> tuple[tuple[int, int], ...]:
        """The |G|(k-1)+1 edges (x, t), from x to x * generators[t], of
        the Cayley graph that are not steps of ``tree()``, ascending.

        Lemma: an identity f(a y) = f(a) a.f(y), with f(1) = 1 and .
        an action by automorphisms (trivial for a homomorphism), holds
        for all a, y once it holds at (a, s) for each element a and
        generator s, by induction on len(word(y)): with y = p s,
        f(a y) = f(a p) (a p).f(s) = f(a) a.(f(p) p.f(s)) = f(a) a.f(y).
        When f is built along the tree, f(x) from f(p) and generators[t]
        at each step (x, p, t), the identity holds at the steps by
        construction and needs checking on these edges only."""
        return self._loop_edges

    @cached_property
    def _loop_edges(self) -> tuple[tuple[int, int], ...]:
        steps = {(p, t) for _, p, t in self.tree()}
        return tuple((x, t) for x in self.elements()
                     for t in range(len(self.generators))
                     if (x, t) not in steps)

    @cached_property
    def _subgroups(self):
        return _all_subgroups(self)

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise.  That suffices: the
        centralizer of a generator is a subgroup that holds every
        generator, so it is the whole group."""
        table = self.table
        return all(table[a][b] == table[b][a]
                   for a in self.generators for b in self.generators)

    def verify(self) -> None:
        """Check the group axioms; raises ValueError.

        An empty table is refused first.
        Generators and rows are refused unless they are ``int`` ids,
        before anything indexes with them.  Associativity is tested only
        in the middle generators (Light's test): (a s) c = a (s c) for
        every a, c and generator s, n^2 k products.  That suffices: let T
        be the set of elements b with (a b) c = a (b c) for all a, c.  T
        holds 0 and every generator.  If p and s are in T, so is p s:
        (a (p s)) c = ((a p) s) c = (a p) (s c) = a (p (s c)) = a ((p s) c).
        ``tree()`` reaches every element from 0 by right multiplication by
        the generators, so T is the whole table."""
        n = self.order
        if not n:
            raise ValueError("group table is empty")
        bad = bad_ids(self.generators, n)
        if bad:
            raise ValueError(f"generator {bad[0]!r} is not an element id "
                             f"in 0..{n - 1}")
        for a, row in enumerate(self.table):
            bad = bad_ids(row, n)
            if bad:
                raise ValueError(f"row {a} names {bad[0]!r}, not an element "
                                 f"id in 0..{n - 1}")
            if len(row) != n or len(set(row)) != n:
                raise ValueError(f"row {a} is not a permutation")
            if row[0] != a or self.table[0][a] != a:
                raise ValueError("0 is not an identity")
        self.tree()  # raises unless the generators generate the group
        table = self.table
        for s in self.generators:
            s_row = table[s]
            for a, row in enumerate(table):
                as_row = table[row[s]]
                for c in range(n):
                    if as_row[c] != row[s_row[c]]:
                        raise ValueError(f"associativity fails at {(a, s, c)}")

    def __repr__(self):
        label = self.name or f"group{self.order}"
        return f"FiniteGroup({label}, order={self.order})"


def bad_ids(values, n: int) -> list:
    """The entries of ``values``, in order, that are not an ``int`` (a
    ``bool`` is not one) in 0..n-1, such as the ids of a group's elements."""
    return [x for x in values if type(x) is not int or not 0 <= x < n]


def _bfs(start, gens, mul, size_limit=None) -> dict:
    """Breadth-first closure of ``start`` under right multiplication by
    ``gens``: first in, first out, generators in the given order.

    Maps each element reached, in order of discovery, to the step (p, t)
    that first reached it, x = mul(p, gens[t]); ``start`` maps to None.
    Raises SizeLimitError on finding an element past ``size_limit``.
    """
    reached = {start: None}
    queue = [start]
    for p in queue:
        for t, s in enumerate(gens):
            x = mul(p, s)
            if x not in reached:
                if size_limit is not None and len(reached) >= size_limit:
                    raise SizeLimitError(
                        f"closure exceeds size limit {size_limit}")
                reached[x] = (p, t)
                queue.append(x)
    return reached


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p*q)(i) = p(q(i)): apply q first."""
    return tuple(p[x] for x in q)


def build_group(generator_permutations, size_limit: int = DEFAULT_SIZE_LIMIT,
                name: str = "") -> FiniteGroup:
    """Closure of permutations under composition, breadth-first from the
    identity with generators in the given order."""
    perms = [tuple(p) for p in generator_permutations]
    if not perms:
        raise ValueError("need at least one generator permutation")
    return _permutation_group(perms, size_limit, name,
                              range(len(perms[0])))


def group_from_cycles(texts, degree: int,
                      size_limit: int = DEFAULT_SIZE_LIMIT,
                      name: str = "") -> FiniteGroup:
    """The group generated by permutations of the points 1..degree, each
    in one-line cycle notation.  It is built on the points the cycles
    name, renumbered in increasing order: every other point is fixed by
    every element and changes neither the table nor the labels, which
    keep the original point numbers."""
    cycles = [_cycles(text, degree) for text in texts]
    points = sorted({p for cs in cycles for c in cs for p in c}) or [0]
    index = {p: i for i, p in enumerate(points)}
    perms = [_permutation([[index[p] for p in c] for c in cs], len(points))
             for cs in cycles]
    return _permutation_group(perms, size_limit, name, points)


def _permutation_group(perms, size_limit: int, name: str,
                       points) -> FiniteGroup:
    """The closure of ``perms``, permutations of 0..k-1 for k =
    len(points), with i printed as the point points[i] + 1 in the
    labels."""
    deg = len(points)
    if any(len(p) != deg for p in perms):
        raise ValueError("permutations act on different sets")
    for p in perms:
        if sorted(p) != list(range(deg)):
            raise ValueError(f"not a permutation of 0..{deg - 1}: {p}")
    elems = list(_bfs(tuple(range(deg)), perms, _compose, size_limit))
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[_compose(a, b)] for b in elems) for a in elems)
    gens = tuple(index[p] for p in perms)
    labels = tuple(_cycle_notation(p, points) for p in elems)
    return FiniteGroup(table, gens, labels, name)


def group_from_table(table, generators=None, name: str = "",
                     labels=None) -> FiniteGroup:
    """A checked group from its multiplication table; generators default
    to every non-identity element and labels to "0".."n-1"; ``verify``
    refuses an entry that is not an id."""
    tbl = tuple(map(tuple, table))
    n = len(tbl)
    if generators is None:
        generators = tuple(range(1, n)) or (0,)
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    g = FiniteGroup(tbl, tuple(generators), tuple(labels), name)
    g.verify()
    return g


def _cycle_notation(p: tuple[int, ...], points) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(points[x] + 1) for x in cyc) + ")")
    return "".join(parts) or "e"


def _cycles(text: str, degree: int) -> list[list[int]]:
    """The cycles of one-line cycle notation like "(1 2)(3 4)" on points
    1..degree, each as its 0-based points; none for the identity ("e",
    "()" or "")."""
    body = text.strip()
    if body in ("e", "()", ""):
        return []
    if body.count("(") == 0:
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in body.replace(")(", ")|(").split("|"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"bad cycle notation: {text!r}")
        cycles.append([int(t) - 1
                       for t in chunk[1:-1].replace(",", " ").split()])
    if any(not 0 <= p < degree for pts in cycles for p in pts):
        raise ValueError(f"point out of range in {text!r}")
    return cycles


def _permutation(cycles: list[list[int]], degree: int) -> tuple[int, ...]:
    """The permutation of 0..degree-1 that sends each point of a cycle to
    the next, the cycles applied in turn as given."""
    perm = list(range(degree))
    for pts in cycles:
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse one-line cycle notation like "(1 2)(3 4)" on points 1..degree."""
    return _permutation(_cycles(text, degree), degree)


class SubgroupHandle(Frozen):
    """A subgroup of ``parent`` given by its sorted member ids, each an
    ``int`` in 0..order-1; the constructor checks them (MembershipError)."""

    _fields = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        members = tuple(members)
        bad = bad_ids(members, parent.order)
        if bad:
            raise MembershipError(f"subgroup members {bad} are not elements "
                                  f"of a group of order {parent.order}")
        vars(self).update(parent=parent, members=tuple(sorted(members)))
        mem = set(self.members)
        if len(mem) != len(self.members):
            raise MembershipError("subgroup members must not repeat")
        if 0 not in mem:
            raise MembershipError("subgroup must contain the identity")
        for a in self.members:
            for b in self.members:
                if self.parent.mul(a, b) not in mem:
                    raise MembershipError(
                        f"members not closed under multiplication: {a}*{b}")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def is_cyclic(self) -> bool:
        return any(self.parent.element_order(a) == self.order
                   for a in self.members)

    @property
    def generators(self) -> tuple[int, ...]:
        """The subgroup's minimal generators (``minimal_generators``), as
        parent ids, like ``members``: ``as_group().generators`` are
        their standalone ids, in the same order."""
        return self._generators

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup, built on the first
        call and kept.

        Element i corresponds to parent id ``self.members_bfs()[i]``;
        ordering is BFS from the identity over ``generators``, so the
        standalone identity is 0.
        """
        return self._group

    def members_bfs(self) -> tuple[int, ...]:
        return self._bfs_order

    def to_parent(self, i: int) -> int:
        return self._bfs_order[i]

    def from_parent(self, g: int) -> int:
        return self._parent_index[g]

    def ids_in(self, src) -> tuple[int, ...]:
        """Element map of the inclusion into ``src``: entry i is the id,
        in ``src``, of element i of ``as_group()``.  ``src`` is the parent
        group or a SubgroupHandle of it that contains this subgroup."""
        if isinstance(src, SubgroupHandle):
            return tuple(src.from_parent(g) for g in self.members_bfs())
        return self.members_bfs()

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        return minimal_generators(self.parent, self.members)

    @cached_property
    def _bfs_order(self) -> tuple[int, ...]:
        return tuple(_bfs(0, self._generators, self.parent.mul))

    @cached_property
    def _parent_index(self) -> dict[int, int]:
        return {g: i for i, g in enumerate(self._bfs_order)}

    @cached_property
    def _cosets(self) -> "CosetSpace":
        """The space ``coset_action`` returns, built once."""
        g, mem = self.parent, set(self.members)
        coset_of: dict[int, int] = {}
        cosets: list[tuple[int, ...]] = []
        for x in g.elements():
            if x in coset_of:
                continue
            cos = tuple(sorted(g.mul(x, m) for m in mem))
            idx = len(cosets)
            cosets.append(cos)
            for y in cos:
                coset_of[y] = idx
        reps = tuple(c[0] for c in cosets)
        action = tuple(tuple(coset_of[g.mul(a, r)] for r in reps)
                       for a in g.elements())
        return CosetSpace(tuple(cosets), reps, action)

    @cached_property
    def _group(self) -> FiniteGroup:
        p, order, index = self.parent, self._bfs_order, self._parent_index
        table = tuple(tuple(index[p.mul(a, b)] for b in order) for a in order)
        labels = tuple(p.labels[g] for g in order)
        return FiniteGroup(table, tuple(index[g] for g in self._generators),
                           labels)

    def __repr__(self):
        return f"SubgroupHandle(order={self.order}, members={self.members})"


def minimal_generators(g: FiniteGroup, members) -> tuple[int, ...]:
    """A small deterministic generating set for a subgroup (greedy)."""
    mem = sorted(members)
    gens: list[int] = []
    span = {0}
    for x in mem:
        if x in span:
            continue
        gens.append(x)
        span = _bfs(0, gens, g.mul)
        if len(span) == len(mem):
            break
    return tuple(gens) or (0,)


def enumerate_subgroups(g: FiniteGroup):
    """All subgroups of ``g`` plus conjugacy-class representatives.

    Returns ``(subgroups, representatives)``.  Both lists are sorted by
    (order, member tuple); each subgroup appears exactly once.  The
    order of ``g`` was bounded once, when it was built or loaded.
    """
    return g._subgroups


def _all_subgroups(g: FiniteGroup):
    # Every subgroup is generated by cyclic subgroups, one after another,
    # so it is reached from a cyclic subgroup by adjoining the first
    # generator found for each cyclic subgroup.  Each subgroup is
    # extended once, when it is first found, from the generators it was
    # found from.
    cyclic: dict[tuple[int, ...], int] = {}
    for a in g.elements():
        cyclic.setdefault(tuple(sorted(_bfs(0, (a,), g.mul))), a)
    found = set(cyclic)
    worklist = [(m, (a,)) for m, a in cyclic.items()]
    while worklist:
        members, gens = worklist.pop()
        memset = set(members)
        for c in cyclic.values():
            if c in memset:
                continue
            new = tuple(sorted(_bfs(0, gens + (c,), g.mul)))
            if new not in found:
                found.add(new)
                worklist.append((new, gens + (c,)))
    ordered = sorted(found, key=lambda m: (len(m), m))
    subgroups = [SubgroupHandle(g, m) for m in ordered]
    # conjugacy classes
    reps = []
    seen: set[tuple[int, ...]] = set()
    for h in subgroups:
        if h.members in seen:
            continue
        reps.append(h)
        for a in g.elements():
            seen.add(tuple(sorted(g.conj(a, x) for x in h.members)))
    return subgroups, reps


def subgroup(g: FiniteGroup, members) -> SubgroupHandle:
    return SubgroupHandle(g, tuple(members))


def trivial_subgroup(g: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle(g, (0,))


def whole_subgroup(g: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle(g, tuple(g.elements()))


class CosetSpace(NamedTuple):
    """Left cosets of a subgroup, each sorted, with the left-translation
    action."""

    cosets: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]  # the least member of each coset
    action: tuple[tuple[int, ...], ...]  # action[g][c] -> coset index

    @property
    def size(self) -> int:
        return len(self.cosets)

    def act(self, g: int, c: int) -> int:
        return self.action[g][c]

    def orbits(self, members) -> list[list[int]]:
        """Orbits of the subgroup with elements ``members`` on the cosets,
        each sorted, listed by minimal coset."""
        seen: set[int] = set()
        out = []
        for start in range(self.size):
            if start not in seen:
                orbit = sorted({self.action[g][start] for g in members})
                seen.update(orbit)
                out.append(orbit)
        return out


def coset_action(g: FiniteGroup, h: SubgroupHandle) -> CosetSpace:
    """Left cosets xH with g . xH = (gx)H; coset 0 is H itself.  ``g``
    must have the table of ``h.parent``; the space is built once per
    handle and kept on it."""
    if not h.parent.same_table(g):
        raise MembershipError("subgroup belongs to a different group")
    return h._cosets


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def sylow_all_cyclic(g: FiniteGroup) -> bool:
    """True iff every Sylow subgroup of ``g`` is cyclic."""
    subgroups, _ = enumerate_subgroups(g)
    n = g.order
    for p in prime_factors(n):
        pk = 1
        m = n
        while m % p == 0:
            pk *= p
            m //= p
        sylow = next(h for h in subgroups if h.order == pk)
        if not sylow.is_cyclic():
            return False
    return True


# Handy constructors for common groups.

def cyclic_group(n: int, name: str = "") -> FiniteGroup:
    perm = tuple((i + 1) % n for i in range(n))
    return build_group([perm], name=name or f"Z{n}")


def symmetric_group_3(name: str = "S3") -> FiniteGroup:
    return build_group([(1, 0, 2), (1, 2, 0)], name=name)


def klein_four(name: str = "Z2xZ2") -> FiniteGroup:
    return build_group([(1, 0, 2, 3), (0, 1, 3, 2)], name=name)


def dihedral_group_4(name: str = "D4") -> FiniteGroup:
    # symmetries of a square on vertices 0..3
    rot = (1, 2, 3, 0)
    flip = (1, 0, 3, 2)
    return build_group([rot, flip], name=name)


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str = "") -> FiniteGroup:
    """Direct product realized on the disjoint union of permutation
    domains of regular representations."""
    na, nb = a.order, b.order
    perms = []
    for gen in a.generators:
        p = tuple(a.mul(gen, x) for x in range(na)) + tuple(
            na + i for i in range(nb))
        perms.append(p)
    for gen in b.generators:
        p = tuple(range(na)) + tuple(na + b.mul(gen, x) for x in range(nb))
        perms.append(p)
    return build_group(perms, size_limit=max(DEFAULT_SIZE_LIMIT, na * nb),
                       name=name or f"{a.name}x{b.name}")

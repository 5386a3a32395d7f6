"""Finite groups, subgroup enumeration, and coset actions."""

from itertools import permutations, product

import pytest

from galmod import fixtures
from galmod.groups import (MembershipError, SizeLimitError, SubgroupHandle,
                           build_group, coset_action, cyclic_group,
                           dihedral_group_4, direct_product,
                           enumerate_subgroups, group_from_table, klein_four,
                           minimal_generators, parse_cycles, subgroup,
                           sylow_all_cyclic, symmetric_group_3,
                           trivial_subgroup, whole_subgroup)


def closure_of(g, seed):
    """The two-sided closure that generated subgroups before ``_bfs``:
    each new element times everything found so far, on both sides."""
    out = set(seed) | {0}
    queue = list(out)
    while queue:
        a = queue.pop()
        for b in list(out):
            for p in (g.mul(a, b), g.mul(b, a)):
                if p not in out:
                    out.add(p)
                    queue.append(p)
    return out


def test_cyclic_group_structure():
    for n in (1, 2, 3, 6):
        g = cyclic_group(n)
        g.verify()
        assert g.order == n
        assert g.is_abelian()


def test_symmetric_group_3():
    s3 = symmetric_group_3()
    s3.verify()
    assert s3.order == 6
    assert not s3.is_abelian()
    orders = sorted(s3.element_order(a) for a in s3.elements())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_build_group_rejects_bad_permutation():
    with pytest.raises(ValueError):
        build_group([(0, 0, 1)])


def test_size_limit():
    with pytest.raises(SizeLimitError):
        build_group([tuple((i + 1) % 10 for i in range(10))], size_limit=5)
    # the closure raises on the first element past the limit, not before
    s4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
    assert build_group(s4, size_limit=24).order == 24
    with pytest.raises(SizeLimitError):
        build_group(s4, size_limit=23)


def _level_closure(mul, gens):
    """The level-by-level closure that numbered elements before ``_bfs``:
    each level extends the previous one, element by element, generator by
    generator.  Maps each element, in order of discovery, to its word."""
    words = {0: ()}
    level = [0]
    while level:
        nxt = []
        for e in level:
            for t, s in enumerate(gens):
                x = mul(e, s)
                if x not in words:
                    words[x] = words[e] + (t,)
                    nxt.append(x)
        level = nxt
    return words


def _level_words(g):
    """Words by the closure that built them before ``FiniteGroup.tree()``."""
    words = _level_closure(g.mul, g.generators)
    return [words[x] for x in g.elements()]


def _relabelled(g):
    """``g`` from its table with the non-identity ids reversed, so that
    the ids are not in BFS order."""
    n = g.order
    new = [0] + list(range(n - 1, 0, -1))
    old = {y: x for x, y in enumerate(new)}
    table = [[new[g.mul(old[a], old[b])] for b in range(n)]
             for a in range(n)]
    return group_from_table(table, [new[s] for s in g.generators])


def test_tree_spans_the_cayley_graph():
    """Each non-identity element appears once, as x = p * s_t after its
    parent p, with word(x) = word(p) + (t,) and the words of the
    level-by-level closure; a group built by closure (from permutations
    or as a subgroup) numbers its elements in the tree's order."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    built = list(fixtures.group_catalog().values()) + [
        s4, direct_product(s4, cyclic_group(2)),
        enumerate_subgroups(s4)[0][-2].as_group()]
    tabled = _relabelled(dihedral_group_4())
    for g in built + [tabled]:
        tree = g.tree()
        xs = [x for x, _, _ in tree]
        assert sorted(xs) == list(range(1, g.order)), g.name
        position = {0: -1, **{x: i for i, (x, _, _) in enumerate(tree)}}
        for x, p, t in tree:
            assert x == g.mul(p, g.generators[t])
            assert position[p] < position[x]
            assert g.word(x) == g.word(p) + (t,)
        assert [g.word(x) for x in g.elements()] == _level_words(g)
        assert (xs == list(range(1, g.order))) == (g is not tabled)
    assert enumerate_subgroups(s4)[0][-2].order == 12
    # a tree that misses elements: the generators do not generate
    with pytest.raises(ValueError, match="do not generate"):
        group_from_table(cyclic_group(4).table, [2])


def test_loop_edges_and_is_abelian_read_generators():
    """``loop_edges()`` holds the |G|(k-1)+1 Cayley edges off the tree,
    also for repeated generators or the identity among them, and
    ``is_abelian`` on generator pairs agrees with the check on every
    pair."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    groups = list(fixtures.group_catalog().values()) + [
        s4, _relabelled(dihedral_group_4()),
        group_from_table(cyclic_group(4).table, [1, 0, 1, 3]),
        group_from_table(s4.table, [0] + list(s4.generators))]
    groups += [h.as_group() for h in enumerate_subgroups(s4)[0]]
    for g in groups:
        steps = {(p, t) for _, p, t in g.tree()}
        edges = g.loop_edges()
        assert len(edges) == g.order * (len(g.generators) - 1) + 1
        assert set(edges) | steps == {
            (x, t) for x in g.elements() for t in range(len(g.generators))}
        assert g.is_abelian() == all(
            g.mul(a, b) == g.mul(b, a)
            for a in g.elements() for b in g.elements())
    assert [g.is_abelian() for g in groups].count(False) > 5


def _cubic_failure(table):
    """The first triple (a, b, c) with (a b) c != a (b c), by the cubic
    check over every triple; None for an associative table."""
    n = len(table)
    return next(((a, b, c) for a in range(n) for b in range(n)
                 for c in range(n)
                 if table[table[a][b]][c] != table[a][table[b][c]]), None)


def _reduced_latin_squares(n):
    """Every Latin square on 0..n-1 with its first row and first column
    in order, so that 0 is a two-sided identity."""
    def extend(rows):
        if len(rows) == n:
            yield tuple(rows)
            return
        i = len(rows)
        for rest in permutations([x for x in range(n) if x != i]):
            row = (i,) + rest
            if all(row[j] != r[j] for r in rows for j in range(1, n)):
                yield from extend(rows + [row])
    return list(extend([tuple(range(n))]))


def _reaches_all(table, gens):
    """Whether right multiplication by gens reaches every element from 0."""
    seen, queue = {0}, [0]
    for p in queue:
        for s in gens:
            if table[p][s] not in seen:
                seen.add(table[p][s])
                queue.append(table[p][s])
    return len(seen) == len(table)


def test_verify_agrees_with_the_cubic_check():
    """On every reduced Latin square of order 5 and every generating list
    of one or two elements, the generator-only associativity check
    refuses the table exactly when some triple fails to associate."""
    squares = _reduced_latin_squares(5)
    assert len(squares) == 56
    groups = 0
    for table in squares:
        associative = _cubic_failure(table) is None
        groups += associative
        gen_lists = [g for k in (1, 2) for g in product(range(5), repeat=k)
                     if _reaches_all(table, g)]
        assert gen_lists
        for gens in gen_lists:
            if associative:
                assert group_from_table(table, gens).order == 5
            else:
                with pytest.raises(ValueError, match="associativity"):
                    group_from_table(table, gens)
    assert groups == 6


def test_parse_cycles_round_trip():
    s3 = symmetric_group_3()
    for e in s3.elements():
        perm = parse_cycles(s3.labels[e], 3)
        rebuilt = build_group([perm, (1, 2, 0)])
        assert rebuilt.order in (1, 2, 3, 6)
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("e", 4) == (0, 1, 2, 3)


def test_subgroup_enumeration_counts():
    subs, reps = enumerate_subgroups(symmetric_group_3())
    assert len(subs) == 6
    assert len(reps) == 4  # 1, <(12)> class, A3, S3
    subs, _ = enumerate_subgroups(klein_four())
    assert len(subs) == 5


def _saturated_subgroups(g):
    """The earlier route: the closures of single elements, then every
    known subgroup extended by every element until nothing changes; the
    representatives are the first subgroup of each conjugacy class in
    (order, members) order."""
    found = {tuple(sorted(closure_of(g, {a}))) for a in g.elements()}
    changed = True
    while changed:
        changed = False
        for mem in list(found):
            for a in g.elements():
                if a not in mem:
                    new = tuple(sorted(closure_of(g, set(mem) | {a})))
                    if new not in found:
                        found.add(new)
                        changed = True
    subgroups = sorted(found, key=lambda m: (len(m), m))
    reps, seen = [], set()
    for mem in subgroups:
        if mem not in seen:
            reps.append(mem)
            seen.update(tuple(sorted(g.conj(a, x) for x in mem))
                        for a in g.elements())
    return subgroups, reps


def test_enumerate_subgroups_matches_saturating_route():
    """The worklist finds the same sorted subgroups and representatives
    on every catalog group, on S4, and on (Z2)^3, which needs three
    generators."""
    groups = list(fixtures.group_catalog().values()) + [
        direct_product(klein_four(), cyclic_group(2)),
        build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")]
    for g in groups:
        subs, reps = enumerate_subgroups(g)
        assert ([h.members for h in subs], [h.members for h in reps]) \
            == _saturated_subgroups(g), g.name
    assert len(subs) == 30 and len(reps) == 11


def test_enumerate_subgroups_of_s5():
    s5 = build_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], size_limit=120)
    subs, reps = enumerate_subgroups(s5)
    assert (len(subs), len(reps)) == (156, 19)


def test_inverse_table_on_s4():
    """``inv`` reads the inverse table built once from the
    multiplication table, and ``conj`` agrees with g x g^-1."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert s4.order == 24
    for a in s4.elements():
        assert s4.mul(a, s4.inv(a)) == 0 == s4.mul(s4.inv(a), a)
        assert s4.inv(s4.inv(a)) == a
        assert s4.inv(a) == s4.table[a].index(0)
        for x in s4.elements():
            assert s4.conj(a, x) == s4.mul(s4.mul(a, x), s4.inv(a))


def _greedy_generators(g, members):
    """The greedy loop of ``minimal_generators`` on the two-sided closure."""
    mem = sorted(members)
    gens, span = [], {0}
    for x in mem:
        if x not in span:
            gens.append(x)
            span = closure_of(g, span | {x})
            if len(span) == len(mem):
                break
    return tuple(gens) or (0,)


def test_minimal_generators_match_the_two_sided_closure():
    """On every subgroup of the catalog groups, S4 and S4 x C2 the greedy
    generators, the standalone group's generators and the BFS order of
    the members are those the two-sided closure gives."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    groups = list(fixtures.group_catalog().values()) + [
        s4, direct_product(s4, cyclic_group(2))]
    for g in groups:
        for h in enumerate_subgroups(g)[0]:
            gens = _greedy_generators(g, h.members)
            assert minimal_generators(g, h.members) == gens, g.name
            assert tuple(h.to_parent(s) for s in h.as_group().generators) \
                == gens
            assert h.members_bfs() == tuple(_level_closure(g.mul, gens))


def test_subgroup_handle_checks():
    s3 = symmetric_group_3()
    with pytest.raises(MembershipError):
        subgroup(s3, (1, 2))  # no identity
    h = subgroup(s3, (0, 1))
    assert h.order == 2
    assert h.index == 3
    assert h.is_cyclic()


def test_as_group_round_trip():
    s3 = symmetric_group_3()
    _, reps = enumerate_subgroups(s3)
    for h in reps:
        sub = h.as_group()
        sub.verify()
        assert sub.order == h.order
        for e in range(sub.order):
            assert h.from_parent(h.to_parent(e)) == e
        # the embedding is a homomorphism
        for a in range(sub.order):
            for b in range(sub.order):
                assert h.to_parent(sub.mul(a, b)) == s3.mul(
                    h.to_parent(a), h.to_parent(b))
    # ids_in: the same element, written in a larger subgroup or the group
    for h in enumerate_subgroups(s3)[0]:
        assert h.ids_in(s3) == h.members_bfs()
        for k in enumerate_subgroups(s3)[0]:
            if set(h.members) <= set(k.members):
                assert [k.to_parent(x) for x in h.ids_in(k)] \
                    == list(h.members_bfs())


def test_subgroup_members_must_be_element_ids():
    """A member that is not an int in 0..order-1 is refused before the
    closure check reads the table: -1 would index the table from its end
    and 9 past it."""
    z4 = cyclic_group(4)
    for members in ((0, 1, 2, 3, -1), (0, 9), (0, 2.0), (0, True)):
        with pytest.raises(MembershipError,
                           match=r"not elements of a group of order 4"):
            SubgroupHandle(z4, members)
    assert SubgroupHandle(z4, (2, 0)).members == (0, 2)


def test_group_table_ids_are_checked():
    """A generator or table entry that is not an int in 0..n-1 is refused
    by ``verify``, naming the value, before the tree or the identity
    check indexes with it: -1 would index the table from its end and 5
    past it.  An empty table is refused first, as the loader refuses it,
    not by the generator its default list names."""
    for gens in (None, (), (0,)):
        with pytest.raises(ValueError, match="^group table is empty$"):
            group_from_table([], gens)
    z2 = ((0, 1), (1, 0))
    for gen in (-1, 2, 1.0, True):
        with pytest.raises(ValueError, match=rf"generator {gen!r} is not"):
            group_from_table(z2, (gen,))
    with pytest.raises(ValueError, match=r"row 1 names 5, not an element"):
        group_from_table(((0, 1, 2), (1, 5, 0), (2, 0, 1)))
    assert group_from_table(z2, (1,)).generators == (1,)


def test_coset_action():
    s3 = symmetric_group_3()
    a3 = next(h for h in enumerate_subgroups(s3)[0] if h.order == 3)
    cs = coset_action(s3, a3)
    assert cs.size == 2
    # the action is by permutations and transitive
    for g in s3.elements():
        assert sorted(cs.action[g]) == [0, 1]
    assert any(cs.act(g, 0) == 1 for g in s3.elements())


def test_coset_space_keeps_its_representatives():
    """A coset space holds its sorted cosets, the least member of each
    and the action, and nothing that points back at its subgroup."""
    d4 = dihedral_group_4()
    for h in enumerate_subgroups(d4)[0]:
        cs = coset_action(d4, h)
        assert cs._fields == ("cosets", "representatives", "action")
        assert cs.representatives == tuple(min(c) for c in cs.cosets)
        assert all(list(c) == sorted(c) for c in cs.cosets)


def test_coset_orbits():
    d4 = dihedral_group_4()
    subs = enumerate_subgroups(d4)[0]
    for h in subs:
        cs = coset_action(d4, h)
        for k in subs:
            orbits = cs.orbits(k.members)
            assert sorted(c for o in orbits for c in o) == list(range(cs.size))
            assert [o[0] for o in orbits] == sorted(min(o) for o in orbits)
            for o in orbits:
                assert o == sorted(o)
                assert {cs.act(g, o[0]) for g in k.members} == set(o)


def test_sylow_all_cyclic():
    assert sylow_all_cyclic(cyclic_group(12))
    assert sylow_all_cyclic(symmetric_group_3())
    assert not sylow_all_cyclic(klein_four())
    assert not sylow_all_cyclic(dihedral_group_4())


def test_direct_product():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    g.verify()
    assert g.order == 6
    assert g.is_abelian()


def test_whole_and_trivial():
    g = cyclic_group(4)
    assert whole_subgroup(g).is_whole_group()
    assert trivial_subgroup(g).order == 1

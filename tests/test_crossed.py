"""Crossed modules: axiom checking, H^-1, and nonabelian H^0 against a
direct enumeration oracle."""

import itertools
import random

import pytest

from galmod import fixtures
from galmod.crossed import (CrossedVerdict, FiniteCrossedModule,
                            conjugation_h_action, degenerate_crossed,
                            enumerate_cocycles, h_minus_one, h_zero,
                            identity_crossed, trivial_galois_action,
                            trivial_h_action, validate_crossed_module)
from galmod.groups import (SizeLimitError, build_group, cyclic_group,
                           dihedral_group_4, enumerate_subgroups,
                           group_from_table, klein_four, symmetric_group_3)
from galmod.patching import restrict_crossed


def test_catalog_modules_are_valid():
    for name, c in fixtures.crossed_catalog().items():
        verdict = validate_crossed_module(c)
        assert verdict.ok, (name, verdict.failure)


def test_validation_rejects_bad_boundary():
    z2 = cyclic_group(2)
    bad = FiniteCrossedModule(
        z2, z2, (1, 1), trivial_h_action(z2, z2),
        z2, trivial_galois_action(z2, z2), trivial_galois_action(z2, z2))
    verdict = validate_crossed_module(bad)
    assert not verdict.ok
    assert verdict.failure[0] == "boundary not a homomorphism"


def test_validation_rejects_noncentral_kernel():
    """A noncentral kernel breaks the conjugation identity, which gives
    z b z^-1 = d(z).b = b for z in ker d."""
    s3 = symmetric_group_3()
    one = cyclic_group(1)
    bad = FiniteCrossedModule(
        s3, one, (0,) * 6, trivial_h_action(one, s3),
        one, (tuple(range(6)),), ((0,),))
    verdict = validate_crossed_module(bad)
    assert not verdict.ok
    assert verdict.failure == ("conjugation identity fails", (1, 2))


def test_h_minus_one_examples():
    cat = fixtures.crossed_catalog()
    assert h_minus_one(cat["z2-z2-order4"]).group.order == 2
    # the Galois flip on the Z/3 kernel leaves only the identity fixed
    assert h_minus_one(cat["z3-flip"]).group.order == 1
    assert h_minus_one(cat["s3-identity"]).group.order == 1
    assert h_minus_one(cat["z2-id"]).group.order == 1


def test_h_minus_one_members_form_subgroup():
    c = fixtures.crossed_catalog()["z2-z2-order4"]
    hm = h_minus_one(c)
    assert hm.members[0] == 0
    for a in hm.members:
        for b in hm.members:
            assert c.g.mul(a, b) in hm.members


def test_h_zero_order_four_example():
    c = fixtures.crossed_catalog()["z2-z2-order4"]
    hz = h_zero(c)
    assert hz.order == 4
    assert hz.group.is_abelian()
    assert all(hz.group.element_order(x) in (1, 2)
               for x in hz.group.elements())


def test_h_zero_small_examples():
    cat = fixtures.crossed_catalog()
    # identity boundary kills every class
    assert h_zero(cat["z2-id"]).order == 1
    assert h_zero(cat["s3-identity"]).order == 1
    assert h_zero(cat["z3-flip"]).order == 1
    # degenerate module: fixed points of H, here all of S3
    hz = h_zero(cat["s3-degenerate"])
    assert hz.group.order == 6
    assert not hz.group.is_abelian()


def test_neutral_class_is_zero():
    for name, c in fixtures.crossed_catalog().items():
        hz = h_zero(c)
        neutral = ((0,) * c.galois.order, 0)
        assert hz.class_of[neutral] == 0, name


def _brute_force_cocycles(c):
    """All 0-cocycles by direct definition: filter every one of the
    |G|^|Gamma| maps alpha, paired with every h, with the cocycle
    equations; lexicographic (alpha, h) order."""
    gal, g, h = c.galois, c.g, c.h
    cocycles = []
    for alpha in itertools.product(range(g.order), repeat=gal.order):
        if any(alpha[gal.mul(s, t)]
               != g.mul(alpha[s], c.act_gal_g(s, alpha[t]))
               for s in gal.elements() for t in gal.elements()):
            continue
        for x in h.elements():
            if all(h.mul(c.boundary[alpha[s]], c.act_gal_h(s, x)) == x
                   for s in gal.elements()):
                cocycles.append((alpha, x))
    return tuple(cocycles)


def _oracle_classes(c):
    """Class count by direct definition: the brute-force cocycles merged
    along every coboundary transform with union-find."""
    g, h, gal = c.g, c.h, c.galois
    cocycles = _brute_force_cocycles(c)
    index = {z: i for i, z in enumerate(cocycles)}
    parent = list(range(len(cocycles)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for z in cocycles:
        alpha, x = z
        for gg in g.elements():
            moved = (tuple(g.mul(g.mul(gg, alpha[s]),
                                 g.inv(c.act_gal_g(s, gg)))
                           for s in gal.elements()),
                     h.mul(c.boundary[gg], x))
            a, b = find(index[z]), find(index[moved])
            if a != b:
                parent[a] = b
    return len(cocycles), len({find(i) for i in range(len(cocycles))})


def test_h_zero_against_enumeration_oracle():
    for name, c in fixtures.crossed_catalog().items():
        hz = h_zero(c)
        ncocycles, nclasses = _oracle_classes(c)
        assert len(hz.cocycles) == ncocycles, name
        assert hz.order == nclasses, name


def _oracle_cases():
    """Catalog modules restricted to every subgroup of Gamma, and
    [S3 -> S3] under conjugation by Gamma = S3, over every subgroup and
    with Gamma rebuilt from its table (every non-identity element a
    generator)."""
    cases = []
    for name, c in fixtures.crossed_catalog().items():
        for sub in enumerate_subgroups(c.galois)[0]:
            cases.append((name, sub.members, restrict_crossed(c, sub)))
    s3 = symmetric_group_3()
    conj = identity_crossed(s3, s3, conjugation_h_action(s3))
    for sub in enumerate_subgroups(s3)[0]:
        cases.append(("s3-conj", sub.members, restrict_crossed(conj, sub)))
    from_table = group_from_table(s3.table)
    assert from_table.generators == tuple(range(1, 6))
    cases.append(("s3-conj-table", None, FiniteCrossedModule(
        s3, s3, conj.boundary, conj.h_action, from_table,
        conj.galois_on_g, conj.galois_on_h)))
    return cases


def test_enumerate_cocycles_matches_brute_force():
    cases = _oracle_cases()
    assert len(cases) == 17
    for name, members, c in cases:
        assert enumerate_cocycles(c) == _brute_force_cocycles(c), \
            (name, members)


def test_enumerate_cocycles_bound():
    # Gamma = Z2 has one generator, so [S3 -> S3] tries 6^1 = 6 maps
    c = fixtures.crossed_catalog()["s3-identity"]
    with pytest.raises(SizeLimitError, match="^6 candidate maps exceed"):
        enumerate_cocycles(c, bound=5)
    with pytest.raises(SizeLimitError, match="^6 candidate maps exceed"):
        h_zero(c, bound=5)
    assert len(enumerate_cocycles(c, bound=6)) == 6


def test_identity_crossed_d4_is_admitted():
    # D4 has two generators: 8^2 = 64 candidates instead of 8^8
    d4 = dihedral_group_4()
    c = identity_crossed(d4, d4)
    with pytest.raises(SizeLimitError, match="^64 candidate maps"):
        enumerate_cocycles(c, bound=63)
    hz = h_zero(c, bound=64)
    assert len(hz.cocycles) == 8
    assert hz.order == 1


def test_constructors_produce_valid_modules():
    s3 = symmetric_group_3()
    z2 = cyclic_group(2)
    assert validate_crossed_module(identity_crossed(s3, z2)).ok
    assert validate_crossed_module(degenerate_crossed(s3, z2)).ok
    assert conjugation_h_action(z2) == trivial_h_action(z2, z2)


def _zero_map_module():
    """Trivial Gamma acting on G = H = Z/2 by the zero map: every axiom
    holds except that the identity of Gamma must act as the identity."""
    z2, one = cyclic_group(2), cyclic_group(1)
    return FiniteCrossedModule(z2, z2, (0, 0), trivial_h_action(z2, z2),
                               one, ((0, 0),), ((0, 0),))


def test_galois_identity_must_act_as_identity():
    # the zero map is idempotent, so s.(t.a) = (st).a holds at every
    # pair; H^0 of this module meets a coboundary outside the cocycles
    verdict = validate_crossed_module(_zero_map_module())
    assert verdict == CrossedVerdict(
        False, ("Galois tables not an action on G", (0,)))
    assert not _all_pairs_valid(_zero_map_module())


def _all_pairs_valid(c):
    """The crossed-module axioms checked on every pair and triple of
    elements, as the validator did before it read generators only, plus
    the condition that the identity of Gamma acts as the identity."""
    g, h, gal, d = c.g, c.h, c.galois, c.boundary
    for a in g.elements():
        for b in g.elements():
            if d[g.mul(a, b)] != h.mul(d[a], d[b]):
                return False
    for x in h.elements():
        row = c.h_action[x]
        if row[0] != 0:
            return False
        for a in g.elements():
            for b in g.elements():
                if row[g.mul(a, b)] != g.mul(row[a], row[b]):
                    return False
    for x in h.elements():
        for y in h.elements():
            for a in g.elements():
                if c.act_h(h.mul(x, y), a) != c.act_h(x, c.act_h(y, a)):
                    return False
    for a in g.elements():
        for b in g.elements():
            if g.mul(g.mul(a, b), g.inv(a)) != c.act_h(d[a], b):
                return False
    for x in h.elements():
        for a in g.elements():
            if d[c.act_h(x, a)] != h.mul(h.mul(x, d[a]), h.inv(x)):
                return False
    if c.galois_on_g[0] != tuple(g.elements()) \
            or c.galois_on_h[0] != tuple(h.elements()):
        return False
    for s in gal.elements():
        rg, rh = c.galois_on_g[s], c.galois_on_h[s]
        for a in g.elements():
            for b in g.elements():
                if rg[g.mul(a, b)] != g.mul(rg[a], rg[b]):
                    return False
        for x in h.elements():
            for y in h.elements():
                if rh[h.mul(x, y)] != h.mul(rh[x], rh[y]):
                    return False
        for a in g.elements():
            if d[rg[a]] != rh[d[a]]:
                return False
        for x in h.elements():
            for a in g.elements():
                if rg[c.act_h(x, a)] != c.act_h(rh[x], rg[a]):
                    return False
    for s in gal.elements():
        for t in gal.elements():
            st = gal.mul(s, t)
            for a in g.elements():
                if c.galois_on_g[s][c.galois_on_g[t][a]] \
                        != c.galois_on_g[st][a]:
                    return False
            for x in h.elements():
                if c.galois_on_h[s][c.galois_on_h[t][x]] \
                        != c.galois_on_h[st][x]:
                    return False
    for z in c.kernel_elements():
        for a in g.elements():
            if g.mul(z, a) != g.mul(a, z):
                return False
    return True


def _involution(g):
    """An automorphism of order at most 2: inversion for an abelian
    group, else conjugation by its first generator of order 2."""
    if g.is_abelian():
        return tuple(g.inv(x) for x in g.elements())
    r = next(s for s in g.generators if g.element_order(s) == 2)
    return tuple(g.conj(r, x) for x in g.elements())


def _fuzz_bases():
    """The catalog modules, and [G -> G] and [1 -> G] for G in Z2, Z3,
    S3, V4 and D4, over Gamma = 1 and over Gamma = Z2 acting trivially
    and through an involution of G."""
    bases = list(fixtures.crossed_catalog().values())
    one, z2 = cyclic_group(1), cyclic_group(2)
    for g in (z2, cyclic_group(3), symmetric_group_3(), klein_four(),
              dihedral_group_4()):
        flip = _involution(g)
        for gal, act in ((one, None), (z2, None),
                         (z2, (tuple(g.elements()), flip))):
            bases.append(identity_crossed(g, gal, act))
            bases.append(degenerate_crossed(g, gal, act))
    return bases


def _forged(c, rng):
    """``c`` with its boundary, H-action and Galois actions each kept or
    swapped for a homomorphism or action of the same shape (trivial, or
    twisted by an involution), then with up to two table entries
    replaced by random ids in range."""
    g, h = c.g, c.h
    fg, fh = _involution(g), _involution(h)
    ident_g, ident_h = tuple(g.elements()), tuple(h.elements())
    tables = {
        "boundary": [rng.choice((c.boundary, (0,) * g.order,
                                 tuple(fh[y] for y in c.boundary)))],
        "h_action": rng.choice((c.h_action, (ident_g,) * h.order,
                                tuple(c.h_action[fh[x]] for x in ident_h))),
        "galois_on_g": c.galois_on_g, "galois_on_h": c.galois_on_h}
    if c.galois.order == 2:
        tables["galois_on_g"] = rng.choice(
            (c.galois_on_g, (ident_g, ident_g), (ident_g, fg)))
        tables["galois_on_h"] = rng.choice(
            (c.galois_on_h, (ident_h, ident_h), (ident_h, fh)))
    tables = {name: [list(row) for row in rows]
              for name, rows in tables.items()}
    bounds = {"boundary": h.order, "h_action": g.order,
              "galois_on_g": g.order, "galois_on_h": h.order}
    entries = [(name, i, j) for name, rows in tables.items()
               for i, row in enumerate(rows) for j in range(len(row))]
    for name, i, j in rng.sample(entries, rng.choice((0, 1, 2))):
        tables[name][i][j] = rng.randrange(bounds[name])
    rows = {name: tuple(map(tuple, rows)) for name, rows in tables.items()}
    return FiniteCrossedModule(
        g, h, rows["boundary"][0], rows["h_action"], c.galois,
        rows["galois_on_g"], rows["galois_on_h"])


def _refused_modules():
    """One module per axiom, each failing first at that axiom, at
    generators: (expected description, witness, module)."""
    one, z2, z3 = cyclic_group(1), cyclic_group(2), cyclic_group(3)
    s3, v4 = symmetric_group_3(), klein_four()
    ids = {n: tuple(range(n)) for n in (1, 2, 3, 4, 6)}
    swap01 = (1, 0, 2)  # a permutation of Z3 that moves the identity
    swap_ab = (0, 2, 1, 3)  # (1 2) <-> (3 4) on V4
    shear = (0, 1, 3, 2)  # (3 4) -> (1 2)(3 4) on V4

    module = FiniteCrossedModule  # g, h, d, H-action, Gamma, on G, on H

    return [
        # respects products with (1 2) but not with (1 2 3)
        ("boundary not a homomorphism", (1, 2), module(
            s3, z2, (0, 0, 0, 1, 0, 1), (ids[6],) * 2, one, (ids[6],),
            (ids[2],))),
        ("H tables not an action on G", (0,), module(
            z2, z2, (0, 0), ((0, 0), ids[2]), one, (ids[2],), (ids[2],))),
        ("action not by automorphisms", (1, 0, 1), module(
            z3, z2, (0, 0, 0), (ids[3], swap01), one, (ids[3],),
            (ids[2],))),
        # (1 2) acts trivially, (3 4) by a permutation that moves 0
        ("action not by automorphisms", (2, 0, 1), module(
            z3, v4, (0, 0, 0), (ids[3], ids[3], swap01, swap01), one,
            (ids[3],), (ids[4],))),
        ("boundary twist fails", (2, 1), module(
            z2, s3, (0, 1), (ids[2],) * 6, one, (ids[2],), (ids[6],))),
        ("Galois tables not an action on G", (0,),
         _zero_map_module()),
        ("Galois tables not an action on H", (0,), module(
            one, z3, (0,), ((0,),) * 3, one, ((0,),), ((0, 0, 0),))),
        # (1 2) acts trivially, (3 4) by a permutation that moves 0
        ("Galois not by automorphisms on G", (2, 0, 1), module(
            z3, one, (0, 0, 0), (ids[3],), v4,
            (ids[3], ids[3], swap01, swap01), (ids[1],) * 4)),
        ("Galois not by automorphisms on H", (1, 0, 1), module(
            one, z3, (0,), ((0,),) * 3, z2, (ids[1],) * 2,
            (ids[3], swap01))),
        ("Galois does not commute with boundary", (1, 1), module(
            z3, z3, ids[3], (ids[3],) * 3, z2, (ids[3], (0, 2, 1)),
            (ids[3],) * 2)),
        ("Galois incompatible with H-action", (1, 1, 1), module(
            v4, z2, (0,) * 4, (ids[4], swap_ab), z2, (ids[4], shear),
            (ids[2],) * 2)),
    ]


@pytest.mark.parametrize("what, witness, c", _refused_modules(),
                         ids=lambda case: case if isinstance(case, str)
                         else "")
def test_each_axiom_is_refused_at_generators(what, witness, c):
    assert validate_crossed_module(c) == CrossedVerdict(False,
                                                        (what, witness))
    assert not _all_pairs_valid(c)


def test_validation_agrees_with_the_all_pairs_check():
    """Forged modules near valid ones: checking on generators accepts
    exactly those that the all-pairs check accepts."""
    rng = random.Random(20261019)
    bases = _fuzz_bases()
    for c in bases:
        assert validate_crossed_module(c).ok and _all_pairs_valid(c)
    accepted = 0
    for trial in range(20000):
        forged = _forged(rng.choice(bases), rng)
        ok = validate_crossed_module(forged).ok
        assert ok == _all_pairs_valid(forged), trial
        accepted += ok
    assert 0 < accepted < 20000


def _all_pairs_cocycles(c):
    """The 0-cocycles as they were enumerated before the checks read
    generators only: each assignment on the generators of Gamma extended
    along its tree and kept if the cocycle identity holds at every pair
    (s, t), with each h such that d(alpha(s)) s.h = h at every s."""
    gal, g, h = c.galois, c.g, c.h
    gens = [x for x, p, _ in gal.tree() if not p]
    steps = [(x, p, gal.generators[t]) for x, p, t in gal.tree() if p]
    out = []
    alpha = [0] * gal.order
    for values in itertools.product(range(g.order), repeat=len(gens)):
        for s, v in zip(gens, values):
            alpha[s] = v
        for x, p, s in steps:
            alpha[x] = g.mul(alpha[p], c.act_gal_g(p, alpha[s]))
        if any(alpha[gal.mul(s, t)]
               != g.mul(alpha[s], c.act_gal_g(s, alpha[t]))
               for s in gal.elements() for t in gal.elements()):
            continue
        for x in h.elements():
            if all(h.mul(c.boundary[alpha[s]], c.act_gal_h(s, x)) == x
                   for s in gal.elements()):
                out.append((tuple(alpha), x))
    return tuple(sorted(out))


def _through_parity(gal, target, auto, parity):
    """Gamma acting on ``target`` by the involution ``auto`` through the
    homomorphism Gamma -> Z/2 sending generator i to parity[i]."""
    ident = tuple(target.elements())
    return tuple(auto if sum(parity[i] for i in gal.word(s)) % 2 else ident
                 for s in gal.elements())


def _six_term_modules():
    """[D5 -> D5] under conjugation by a reflection and [Z10 -> 1] under
    inversion, with S3 acting through its sign and Z6 through Z6 -> Z2,
    as in the crossed-module six-term benchmark jobs."""
    d5 = build_group([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)], name="D5")
    z10, one = cyclic_group(10), cyclic_group(1)
    conj = tuple(d5.conj(d5.generators[1], x) for x in d5.elements())
    inversion = tuple(z10.inv(x) for x in z10.elements())
    out = []
    for gal, parity in ((symmetric_group_3(), (1, 0)),
                        (cyclic_group(6), (1,))):
        out.append(identity_crossed(
            d5, gal, _through_parity(gal, d5, conj, parity)))
        out.append(FiniteCrossedModule(
            z10, one, (0,) * 10, trivial_h_action(one, z10), gal,
            _through_parity(gal, z10, inversion, parity),
            tuple((0,) for _ in gal.elements())))
    return out


def test_enumerate_cocycles_matches_the_all_pairs_filter():
    """The catalog modules restricted to each vertex and edge subgroup of
    the catalog graphs over their Gamma, and the six-term benchmark
    modules restricted to every subgroup of Gamma."""
    cases = []
    for c in fixtures.crossed_catalog().values():
        for graph in fixtures.graph_catalog().values():
            if graph.gamma.same_table(c.galois):
                handles = list(graph.vertices) + [e[2] for e in graph.edges]
                cases += [restrict_crossed(c, sub) for sub in handles]
    for c in _six_term_modules():
        assert validate_crossed_module(c).ok
        cases += [restrict_crossed(c, sub)
                  for sub in enumerate_subgroups(c.galois)[0]]
    assert len(cases) == 5 * 9 + 2 * (6 + 4)
    found = 0
    for c in cases:
        cocycles = enumerate_cocycles(c)
        assert cocycles == _all_pairs_cocycles(c)
        found += len(cocycles)
    assert found > len(cases)

"""Crossed modules: axiom checking, H^-1, and nonabelian H^0 against a
direct enumeration oracle."""

import itertools

import pytest

from galmod import fixtures
from galmod.crossed import (FiniteCrossedModule, conjugation_h_action,
                            degenerate_crossed, enumerate_cocycles,
                            h_minus_one, h_zero, identity_crossed,
                            trivial_galois_action,
                            trivial_h_action, validate_crossed_module)
from galmod.groups import (SizeLimitError, cyclic_group, dihedral_group_4,
                           enumerate_subgroups, group_from_table,
                           symmetric_group_3)
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
    s3 = symmetric_group_3()
    one = cyclic_group(1)
    bad = FiniteCrossedModule(
        s3, one, (0,) * 6, trivial_h_action(one, s3),
        one, (tuple(range(6)),), ((0,),))
    verdict = validate_crossed_module(bad)
    assert not verdict.ok
    assert verdict.failure is not None


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

"""JSON round-trips for groups, lattices, complexes, crossed modules,
patching graphs, and resolution certificates."""

import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galmod import fixtures, groups
from galmod import intlinalg as la
from galmod import serialize as se
from galmod.complexes import (CertificateMove, MoveEvidence,
                              ResolutionCertificate, TwoTermComplex,
                              classify, coflasque_resolution,
                              flasque_resolution, replay_certificate,
                              replay_move, verify_square)
from galmod.groups import (build_group, cyclic_group, parse_cycles,
                           symmetric_group_3)
from galmod.lattice import (LatticeMap, conjugate_lattice, regular_lattice,
                            trivial_lattice)


def test_group_round_trip():
    s3 = symmetric_group_3()
    obj = se.dump_group(s3)
    back = se.load_group(json.loads(se.to_json(obj)))
    assert back.table == s3.table
    assert back.generators == s3.generators
    assert back.labels == s3.labels


def test_table_group_without_generators_keeps_its_labels():
    obj = {"format": se.GROUP_FORMAT, "table": [[0, 1], [1, 0]],
           "labels": ["e", "a"]}
    g = se.load_group(obj)
    assert g.labels == ("e", "a")
    dump = json.loads(se.to_json(se.dump_group(g)))
    assert dump["labels"] == ["e", "a"]
    back = se.load_group(dump)
    assert (back.table, back.generators, back.labels) == \
        (g.table, g.generators, g.labels)
    assert se.dump_group(back) == dump


def test_group_from_cycles():
    g = se.load_group({"format": se.GROUP_FORMAT, "degree": 3,
                       "cycles": ["(1 2)", "(1 2 3)"]})
    assert g.order == 6 and not g.is_abelian()


def test_group_from_cycles_is_bounded(monkeypatch):
    """A cycle-notation group is built on the points it names: degree
    10^12 loads the S3 of degree 3, and no permutation is built on more
    than 3 points (the stand-in builder refuses before anything is
    allocated).  A point past the degree is still refused, and so are a
    degree below 1 and cycles that are not a non-empty list of
    strings."""
    def load(degree, cycles=("(1 2)", "(1 2 3)")):
        return se.load_group({"format": se.GROUP_FORMAT, "degree": degree,
                              "cycles": cycles if isinstance(cycles, str)
                              else list(cycles)})

    def permutation(cycles, degree, build=groups._permutation):
        assert degree <= 3, degree
        return build(cycles, degree)

    want = load(3)
    monkeypatch.setattr(groups, "_permutation", permutation)
    got = load(10 ** 12)
    assert (got.table, got.generators, got.labels) == \
        (want.table, want.generators, want.labels)
    with pytest.raises(ValueError, match="out of range"):
        load(3, ["(1 4)"])
    for degree, cycles in ((0, ["e"]), (-3, ["e"]), (3, "e"), (3, []),
                           (3, ["(1 2)", 1])):
        with pytest.raises(se.FormatError):
            load(degree, cycles)


def test_group_from_cycles_allocates_only_the_named_points():
    """Points 1 and 10^6 of degree 10^6 give the group of order 2 within
    1 MB of allocations, its label in the original numbering.  Named
    points 2 and 5 act as 1 and 2 would: the same table and generators,
    the labels renumbered back.  Named points 1..4 give exactly the group
    built from the permutations of 1..4."""
    def load(degree, cycles):
        return se.load_group({"format": se.GROUP_FORMAT, "degree": degree,
                              "cycles": cycles})

    tracemalloc.start()
    try:
        far = load(10 ** 6, ["(1 1000000)"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert far.order == 2 and far.labels == ("e", "(1 1000000)")
    sparse, dense = load(5, ["(2 5)", "(2 5 4)"]), load(3, ["(1 3)",
                                                            "(1 3 2)"])
    assert (sparse.table, sparse.generators) == \
        (dense.table, dense.generators)
    assert sparse.labels == tuple(
        label.translate(str.maketrans("123", "245")) for label in dense.labels)
    texts = ["(1 2)(3 4)", "(1 2 3 4)", "(2 4)"]
    got, want = load(4, texts), build_group(
        [parse_cycles(text, 4) for text in texts])
    assert (got.table, got.generators, got.labels) == \
        (want.table, want.generators, want.labels)


def test_group_fixture_reference():
    g = se.load_group("fixtures:S3")
    assert g.order == 6


def test_format_errors():
    with pytest.raises(se.FormatError):
        se.load_group({"format": "galmod-lattice-1", "table": [[0]]})
    with pytest.raises(se.FormatError):
        se.load_group({"format": se.GROUP_FORMAT})
    with pytest.raises(se.FormatError):
        se.load_group("not-a-reference")


def test_lattice_round_trip():
    lat = fixtures.lattice_catalog()["s3-coset"]
    back = se.load_lattice(json.loads(se.to_json(se.dump_lattice(lat))))
    back.validate()
    assert back.rank == lat.rank
    assert back.action == lat.action


def test_complex_round_trip():
    t = fixtures.complex_catalog()["s3-coset-aug"]
    back = se.load_complex(json.loads(se.to_json(se.dump_complex(t))))
    back.validate()
    assert back.differential.matrix == t.differential.matrix
    assert back.l1.action == t.l1.action
    assert back.l2.action == t.l2.action


def test_crossed_round_trip():
    c = fixtures.crossed_catalog()["s3-identity"]
    back = se.load_crossed(json.loads(se.to_json(se.dump_crossed(c))))
    assert back.boundary == c.boundary
    assert back.h_action == c.h_action
    assert back.galois_on_g == c.galois_on_g
    assert back.galois_on_h == c.galois_on_h


def test_graph_round_trip():
    g = fixtures.graph_catalog()["s3-two-vertex"]
    back = se.load_graph(json.loads(se.to_json(se.dump_graph(g))))
    assert back.n_vertices == g.n_vertices
    assert back.n_edges == g.n_edges
    assert [h.members for h in back.vertices] \
        == [h.members for h in g.vertices]
    assert [(a, b, h.members) for a, b, h in back.edges] \
        == [(a, b, h.members) for a, b, h in g.edges]


def test_certificate_round_trip_and_replay():
    t = fixtures.complex_catalog()["z2-aug"]
    _, cert = flasque_resolution(t)
    obj = json.loads(se.to_json(se.dump_certificate(cert)))
    back = se.load_certificate(obj)
    assert back.mode == cert.mode
    assert len(back.moves) == len(cert.moves)
    assert back.vanishing_table == cert.vanishing_table
    assert replay_certificate(back)


def test_replay_refuses_a_square_that_does_not_commute():
    """Negating comp0 in any move of a loaded certificate breaks
    comp0 d = d' comp_minus1, though the negated maps still induce
    isomorphisms on H^-1 and H^0."""
    _, cert = coflasque_resolution(fixtures.complex_catalog()["z3-aug"])
    back = se.load_certificate(json.loads(se.to_json(
        se.dump_certificate(cert))))
    assert replay_certificate(back) and len(back.moves) == 3
    for i, move in enumerate(back.moves):
        negated = move._replace(comp0=la.mat_neg(move.comp0))
        moves = back.moves[:i] + (negated,) + back.moves[i + 1:]
        assert not replay_certificate(back._replace(moves=moves))


def test_replay_refuses_moves_that_do_not_connect():
    """Swapping in another certificate's resolved complex (with its
    vanishing table), or its original complex, leaves every move valid,
    but the moves no longer lead from original to resolved."""
    catalog = fixtures.complex_catalog()
    for resolve in (coflasque_resolution, flasque_resolution):
        own, other = (se.load_certificate(json.loads(se.to_json(
            se.dump_certificate(resolve(catalog[name])[1]))))
            for name in ("z2-aug", "z2-norm"))
        assert replay_certificate(own)
        assert not replay_certificate(own._replace(
            resolved=other.resolved,
            vanishing_table=other.vanishing_table))
        assert not replay_certificate(own._replace(
            original=other.original))


def test_replay_refuses_a_swapped_embedding_move():
    """Swap the first move, the pushout that embeds L1 into a coflasque
    lattice, for another certificate's.  Every move still verifies, but
    its target lattice E is no longer the dual of the lattice C1 the
    next pushout embeds into.  The pairs give E of another rank; of the
    same rank, over as many generators, with another action; and, for
    (z2-aug, z4-coset-aug), the same matrices over another group.  A
    flasque certificate is checked inside its dual chain."""
    catalog = fixtures.complex_catalog()
    for resolve, pairs in (
            (coflasque_resolution, (("z2-aug", "z2-norm"),
                                    ("v4-coset-aug", "s3-coset-aug"),
                                    ("z2-aug", "z4-coset-aug"))),
            (flasque_resolution, (("z2-aug", "z2-norm"),
                                  ("v4-char-deg0", "s3-sign-deg0")))):
        for pair in pairs:
            own, other = (se.load_certificate(json.loads(se.to_json(
                se.dump_certificate(resolve(catalog[name])[1]))))
                for name in pair)
            assert replay_certificate(own) and replay_certificate(other)
            e_own, e_other = own.moves[0].tgt.l2, other.moves[0].tgt.l2
            assert len(e_own.action) == len(e_other.action)
            assert (e_own.group.table, e_own.action) \
                != (e_other.group.table, e_other.action)
            forged = own._replace(
                moves=(other.moves[0],) + own.moves[1:])
            assert all(replay_move(m).ok for m in forged.moves)
            assert not replay_certificate(forged)


def test_catalog_certificates_unchanged():
    """The JSON of the coflasque and flasque certificates of all 18
    catalog complexes hashes to the value computed before the moves'
    span checks shared their eliminations: no change of route may change
    a certificate."""
    h = hashlib.sha256()
    count = 0
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            h.update(se.to_json(se.dump_certificate(resolve(t)[1])).encode())
            count += 1
    assert count == 36
    assert h.hexdigest() == (
        "80060c29d448c13b03528bc76153235565c1180cac87f7e17a9fc9564eac8108")


def test_s4_augmentation_certificate_unchanged():
    """The flasque resolution of [Z[S4] -> Z] (regular lattice,
    augmentation) runs echelons and Smith forms of rank near 100, which
    no catalog complex reaches; its certificate's JSON hashes to the
    value computed before the echelon loop and the matrix conversions
    were rewritten."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    reg, triv = regular_lattice(s4), trivial_lattice(s4)
    aug = TwoTermComplex(reg, triv, LatticeMap(reg, triv, ((1,) * 24,)))
    resolved, cert = flasque_resolution(aug)
    assert (resolved.l1.rank, resolved.l2.rank) == (105, 82)
    assert hashlib.sha256(se.to_json(se.dump_certificate(cert)).encode()
                          ).hexdigest() == (
        "82e07e6a9785bcc07946d9c78747fe8d40f9e0b1ff832f45868b0afad0d51e2d")


def _load_each_side_alone(obj):
    """The earlier ``load_certificate``: every complex loads and checks
    its own copy of its group."""
    def side(x):
        return se._load_side(x, se.load_group)

    moves = tuple(CertificateMove(
        m["kind"], side(m["src"]), side(m["tgt"]),
        None if m["comp_minus1"] is None
        else se.parse_matrix(m["comp_minus1"], "comp_minus1"),
        None if m["comp0"] is None else se.parse_matrix(m["comp0"], "comp0"),
        MoveEvidence(*m["evidence"])) for m in obj["moves"])
    return ResolutionCertificate(
        obj["mode"], se.load_complex(obj["original"]),
        se.load_complex(obj["resolved"]), moves,
        se.deep_tuple(obj["vanishing_table"]))


def _sides(cert) -> list:
    return [cert.original, cert.resolved] + [
        x for m in cert.moves for x in (m.src, m.tgt)]


def _groups(cert) -> set:
    """The ids of the groups of a certificate's complexes."""
    return {id(x.group) for x in _sides(cert)}


def _lattices(cert) -> list:
    """The lattices of a certificate's complexes, one per place."""
    return [lat for x in _sides(cert) for lat in (x.l1, x.l2)]


def _lattice_bodies(cert) -> dict:
    """The ids of the lattices of ``cert`` by (group id, rank, dense
    action matrices), the content a lattice body dumps."""
    bodies: dict = {}
    for lat in _lattices(cert):
        key = (id(lat.group), lat.rank,
               tuple(la.dense_rows(m, lat.rank) for m in lat.action_rows()))
        bodies.setdefault(key, set()).add(id(lat))
    return bodies


def _group_dump(side):
    return side["value"]["group"] if side["type"] == "complex" \
        else side["group"]


def _relabel(g):
    """Swap the labels 1 and n-1 of a dumped group's elements."""
    n = len(g["table"])
    swap = list(range(n))
    swap[1], swap[n - 1] = n - 1, 1
    g["table"] = [[swap[g["table"][swap[a]][swap[b]]] for b in range(n)]
                  for a in range(n)]
    g["generators"] = [swap[x] for x in g["generators"]]


def test_load_certificate_shares_one_group_per_dump():
    """A loaded certificate holds one FiniteGroup, checked once, for all
    its complexes.  A side whose group dump differs gets its own group,
    and the replay verdict is the one of loading every side alone.  A
    first move's side given another group name still replays.  One given
    a relabelled table does not, as a square's sides must share one
    table and generators, and neither does a resolved complex over a
    relabelled table (the moves no longer connect)."""
    verdicts = []
    for text, forged in _forgeries():
        assert len(_groups(se.load_certificate(json.loads(text)))) == 1
        for obj in forged:
            got = replay_certificate(se.load_certificate(obj))
            assert got == replay_certificate(_load_each_side_alone(obj))
            verdicts.append(got)
        assert len(_groups(se.load_certificate(forged[1]))) == 2
    assert verdicts == [True, True, False, False] * 4


def _forgeries():
    """(JSON text, four loaded copies) of the coflasque and flasque
    certificates of z3-aug and s3-coset-aug.  The first copy is as
    dumped; in the second a first move's side names its group "other",
    in the third that side's group table is relabelled, and in the
    fourth the resolved complex's."""
    catalog = fixtures.complex_catalog()
    for name in ("z3-aug", "s3-coset-aug"):
        for resolve in (coflasque_resolution, flasque_resolution):
            text = se.to_json(se.dump_certificate(resolve(catalog[name])[1]))
            forged = [json.loads(text) for _ in range(4)]
            _group_dump(forged[1]["moves"][0]["tgt"])["name"] = "other"
            _relabel(_group_dump(forged[2]["moves"][0]["src"]))
            _relabel(forged[3]["resolved"]["group"])
            yield text, forged


def test_forged_certificates_share_lattices_and_keep_their_verdict():
    """Each forged certificate of ``_forgeries`` loads one GLattice per
    distinct (group, rank, action) body, fewer than its places, and
    replays with the verdict of loading every side alone: a side over
    another group gets its own lattices."""
    verdicts = []
    for _, forged in _forgeries():
        for obj in forged:
            cert = se.load_certificate(obj)
            bodies = _lattice_bodies(cert)
            assert all(len(ids) == 1 for ids in bodies.values())
            assert len(bodies) < len(_lattices(cert))
            got = replay_certificate(cert)
            assert got == replay_certificate(_load_each_side_alone(obj))
            verdicts.append(got)
    assert verdicts == [True, True, False, False] * 4


def test_load_certificate_shares_one_lattice_per_body():
    """A loaded certificate of every catalog complex holds one GLattice
    per distinct (group, rank, action) body: the resolved complex's
    lattices are those of the move that starts or ends at it, and a
    lattice repeated across sides is one object, so replay fills its
    caches once.  Over the 36 certificates the 648 places hold 173
    lattices."""
    places = distinct = 0
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            cert = _round_trip(resolve(t)[1])
            bodies = _lattice_bodies(cert)
            assert all(len(ids) == 1 for ids in bodies.values())
            places += len(_lattices(cert))
            distinct += len(bodies)
            if cert.mode == "coflasque":
                assert cert.resolved.l1 is cert.moves[2].src.l1
                assert cert.resolved.l2 is cert.moves[2].src.l2
            assert replay_certificate(cert)
    assert (places, distinct) == (648, 173)


def test_dump_certificate_builds_no_dense_action():
    """A dump renders each lattice's JSON rows from its sparse rows and
    keeps no dense copy on it: after dumping the certificates of every
    catalog complex, resolved from a loaded copy so that no other reader
    of the catalog has touched its lattices, none of their lattices
    holds ``action``.  A lattice in several places of one certificate
    puts one list in each."""
    for t in fixtures.complex_catalog().values():
        t = se.load_complex(se.dump_complex(t))
        for resolve in (coflasque_resolution, flasque_resolution):
            cert = resolve(t)[1]
            obj = se.dump_certificate(cert)
            assert not [lat for lat in _lattices(cert)
                        if "action" in vars(lat)]
            if cert.mode == "coflasque":
                assert cert.resolved.l1 is cert.moves[2].src.l1
                assert obj["resolved"]["l1"]["action"] \
                    is obj["moves"][2]["src"]["a"]["action"]
            assert se.to_json(obj) == json.dumps(
                obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("forge", [
    lambda obj: obj.update(mode="bogus"),
    lambda obj: obj["moves"][0].update(kind="pushout"),
    lambda obj: obj["moves"][0]["src"].update(type="lattice"),
    lambda obj: obj["moves"][0].update(kind="duality"),
    lambda obj: obj["moves"][-1].update(kind="pushout-mono"),
    lambda obj: obj["moves"][0].update(comp0=None),
    lambda obj: obj["moves"][0].update(evidence=["no", 0]),
    lambda obj: obj["moves"][0].update(evidence=[True, True, True]),
], ids=["mode-bogus", "kind-unknown", "side-type-unknown", "half-as-duality",
        "duality-as-pushout", "map-missing", "evidence-not-bool",
        "evidence-three"])
def test_load_certificate_refuses_forged_structure(forge):
    """A certificate with an unknown mode, move kind or side type, a kind
    whose sides or maps do not match it, or evidence that is not two
    booleans is refused on load, before replay reads it."""
    t = fixtures.complex_catalog()["z2-aug"]
    obj = json.loads(se.to_json(se.dump_certificate(
        flasque_resolution(t)[1])))
    forge(obj)
    with pytest.raises(se.FormatError):
        se.load_certificate(obj)


def test_load_certificate_refuses_a_module_short_of_action_matrices():
    """Drop the second action matrix of the middle module B' of the
    coflasque certificate of s3-coset-aug, in the pushout and the
    pullback that end at it.  Its squares would then be checked on one
    generator of S3's two and pass; the module is refused on load."""
    t = fixtures.complex_catalog()["s3-coset-aug"]
    obj = json.loads(se.to_json(se.dump_certificate(
        coflasque_resolution(t)[1])))
    for move in obj["moves"][1:]:
        del move["tgt"]["b"]["action"][1]
    with pytest.raises(ValueError, match="one action matrix per generator"):
        se.load_certificate(obj)


def test_load_certificate_refuses_a_half_side_with_relations():
    """Every side of a square is a complex of lattices: a half side whose
    B carries a relation, or whose relation rows do not match its
    generators, is refused on load."""
    t = fixtures.complex_catalog()["z3-aug"]
    obj = json.loads(se.to_json(se.dump_certificate(
        coflasque_resolution(t)[1])))
    assert replay_certificate(se.load_certificate(obj))
    for forge in (lambda rows: [[2 * (i == 0)] for i in range(len(rows))],
                  lambda rows: rows[1:]):
        for move in range(3):
            forged = json.loads(se.to_json(obj))
            b = forged["moves"][move]["tgt"]["b"]
            assert b["relations"] == [[]] * b["ngens"] and b["ngens"]
            b["relations"] = forge(b["relations"])
            with pytest.raises(se.FormatError, match="relations"):
                se.load_certificate(forged)


def test_catalog_certificates_load_and_replay():
    """The coflasque and flasque certificates of all 18 catalog complexes
    pass the load-time checks and replay."""
    count = 0
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            obj = json.loads(se.to_json(se.dump_certificate(resolve(t)[1])))
            assert replay_certificate(se.load_certificate(obj))
            count += 1
    assert count == 36


def test_loaded_lattices_hold_no_dense_action():
    """The loader reads each action matrix straight into sparse rows, and
    replay reads only those: after load and replay of the coflasque and
    flasque certificates of all 18 catalog complexes, none of their 648
    lattices has built its dense ``action`` (648 places, fewer
    lattices).  A dump of the loaded certificate writes the text it was
    loaded from."""
    lattices = []
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            obj = json.loads(se.to_json(se.dump_certificate(resolve(t)[1])))
            cert = se.load_certificate(obj)
            assert replay_certificate(cert)
            lattices += _lattices(cert)
    assert len(lattices) == 648
    assert not [lat for lat in lattices if "action" in vars(lat)]
    t = fixtures.complex_catalog()["s3-coset-aug"]
    obj = json.loads(se.to_json(se.dump_certificate(
        coflasque_resolution(t)[1])))
    assert se.to_json(se.dump_certificate(se.load_certificate(obj))) \
        == se.to_json(obj)


def test_lattice_loader_keeps_the_dense_refusals():
    """A lattice read into sparse rows is refused as a dense one was:
    a non-integer entry, ragged rows, a matrix short and a matrix of the
    wrong shape, with the same messages."""
    obj = json.loads(se.to_json(se.dump_lattice(
        fixtures.lattice_catalog()["s3-coset"])))
    good = obj["action"]
    assert obj["rank"] == 2 and len(good) == 2
    for message, first in (("must be an integer", [[1.0, 0], [0, 1]]),
                           ("rows of different lengths", [[1, 0], [0]]),
                           ("one action matrix per generator", None),
                           ("wrong shape", [[1, 0, 0], [0, 1, 0]]),
                           ("wrong shape", [[1], [0]]),
                           ("wrong shape", [[1, 0]])):
        action = good[1:] if first is None else [first, good[1]]
        with pytest.raises((se.FormatError, ValueError), match=message):
            se.load_lattice({**obj, "action": action})
    assert se.load_lattice(obj).action_rows() == tuple(
        map(la.sparse_rows, good))


def _trivialize(side):
    """Set every action matrix of a dumped complex to the identity."""
    for part in side.get("value", side).values():
        if isinstance(part, dict) and "action" in part:
            part["action"] = [[[int(i == j) for j in range(len(m))]
                               for i in range(len(m))]
                              for m in part["action"]]


def test_replay_refuses_moves_that_are_not_equivariant():
    """Give the resolved complex of a coflasque certificate, and the
    complexes of its last pushout and pullback, the trivial action.  The
    moves still connect, commute and induce isomorphisms of the
    underlying groups, and the resolved kernel still passes its vanishing
    table, but the pushout's maps are no longer G-equivariant.  Where
    every action was trivial already, the forgery is the genuine
    certificate and replays."""
    forged = 0
    for t in fixtures.complex_catalog().values():
        obj = json.loads(se.to_json(se.dump_certificate(
            coflasque_resolution(t)[1])))
        genuine = se.to_json(obj)
        po, pb = obj["moves"][-2:]
        for side in (obj["resolved"], po["tgt"], pb["src"], pb["tgt"]):
            _trivialize(side)
        changed = se.to_json(obj) != genuine
        assert replay_certificate(se.load_certificate(obj)) != changed
        forged += changed
    assert forged == 15


def _round_trip(cert):
    return se.load_certificate(json.loads(se.to_json(
        se.dump_certificate(cert))))


def _forge_permutation_side(cert, k):
    """``cert`` with its permutation lattice, Q of [C -> Q] or P of
    [P -> F], conjugated by U = I + E_(0,k), or for k = None by the U
    that negates the first basis vector a generator moves, which makes
    it a signed permutation lattice: the differential and the
    pullback square's map out of it follow U, and the square is
    re-verified.  In flasque mode the pullback square is on the dual
    side, where P^* is conjugated by U^-T, and the duality move ends at
    the new resolved complex."""
    resolved, pb = cert.resolved, cert.moves[-1]
    if cert.mode == "flasque":
        pb = cert.moves[-2]
    perm = resolved.l2 if cert.mode == "coflasque" else resolved.l1
    u = [[int(i == j) for j in range(perm.rank)] for i in range(perm.rank)]
    if k is None:
        moved = next(i for m in perm.action_rows()
                     for i, row in enumerate(m) if row != {i: 1})
        u[moved][moved] = -1
    else:
        u[0][k] = 1
    uinv = la.mat_inverse_unimodular(u)
    new = conjugate_lattice(perm, u)
    d = resolved.differential.matrix
    if cert.mode == "coflasque":
        res = TwoTermComplex(resolved.l1, new, LatticeMap(
            resolved.l1, new, la.mat_mul(u, d)))
        src, comp0 = res, la.mat_mul(pb.comp0, uinv)
    else:
        res = TwoTermComplex(new, resolved.l2, LatticeMap(
            new, resolved.l2, la.mat_mul(d, uinv)))
        src, comp0 = res.dual(), la.mat_mul(pb.comp0, la.transpose(u))
    square = CertificateMove(pb.kind, src, pb.tgt, pb.comp_minus1, comp0,
                             verify_square(src, pb.tgt, pb.comp_minus1,
                                           comp0))
    assert square.evidence.ok
    moves = cert.moves[:2] + (square,)
    if cert.mode == "flasque":
        dual = cert.moves[-1]
        moves += (dual._replace(tgt=res),)
    return cert._replace(resolved=res, moves=moves)


@pytest.mark.parametrize("name, k", [("v4-aug", 8), ("z3-aug", 5),
                                     ("v4-aug", None), ("z3-aug", None)])
@pytest.mark.parametrize("resolve", [coflasque_resolution,
                                     flasque_resolution])
def test_replay_refuses_a_permutation_side_that_permutes_no_basis(
        resolve, name, k):
    """Conjugate the permutation lattice of a loaded certificate by
    I + E_(0,k), or by a diagonal U that negates one moved basis vector
    (k = None), and re-verify the pullback square.  The lattice is
    isomorphic to a permutation lattice, every move verifies, the
    certificate connects and the other side keeps its vanishing table;
    but no generator's matrix needs to be a permutation any more, and a
    loaded certificate records the permutation basis nowhere but in
    those matrices.  Replay refuses the forgery after a JSON round trip,
    and still passes the genuine certificate."""
    back = _round_trip(resolve(fixtures.complex_catalog()[name])[1])
    assert replay_certificate(back)
    forged = _round_trip(_forge_permutation_side(back, k))
    assert all(replay_move(m).ok for m in forged.moves)
    side = forged.resolved.l1 if forged.mode == "coflasque" \
        else forged.resolved.l2
    assert classify(side, forged.mode).table == forged.vanishing_table
    assert not replay_certificate(forged)


def test_permutation_side_is_a_permutation_lattice_after_a_load():
    """The permutation side of every catalog complex's coflasque (Q of
    [C -> Q]) and flasque (P of [P -> F]) certificate is one, read off
    its rows, in memory and after a JSON round trip."""
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            cert = resolve(t)[1]
            for c in (cert, _round_trip(cert)):
                perm = c.resolved.l2 if c.mode == "coflasque" \
                    else c.resolved.l1
                assert perm.is_permutation_certified


def test_replay_builds_no_standalone_subgroup():
    """Replaying a loaded coflasque and a loaded flasque certificate of
    every catalog complex decides each subgroup class's vanishing on the
    loaded group's own element rows: no class representative builds its
    standalone group (``SubgroupHandle.as_group``) and no Cayley complex
    is kept on the group."""
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            cert = _round_trip(resolve(t)[1])
            assert replay_certificate(cert)
            g = cert.resolved.l1.group
            reps = groups.enumerate_subgroups(g)[1]
            assert len(reps) > 1
            assert [h.members for h in reps if "_group" in vars(h)] == []
            assert "_cayley_cache" not in vars(g)


_KEYS = st.text() | st.sampled_from(
    ["", "a\"b", "\\", "\n\t\x00", "\u00e9t\u00e9", "\u2603", "\U0001f600"])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=2 ** 64, max_value=2 ** 200)
            | st.integers(max_value=-2 ** 64, min_value=-2 ** 200)
            | st.floats() | _KEYS)


def _json_values(children):
    return (st.lists(children, max_size=4)
            | st.dictionaries(_KEYS, children, max_size=4)
            | st.lists(st.dictionaries(_KEYS, children, max_size=3),
                       max_size=3)
            | st.lists(st.lists(st.lists(st.integers(), max_size=3),
                                max_size=3), max_size=3)
            | st.dictionaries(st.integers() | st.booleans(), children,
                              max_size=3)
            | st.dictionaries(st.integers() | _KEYS, children, max_size=3))


def _dumps_or_error(dumps, x):
    try:
        return dumps(x)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


@given(st.recursive(_SCALARS, _json_values, max_leaves=40))
def test_to_json_writes_the_bytes_of_json_dumps(x):
    """``to_json`` writes ``json.dumps`` with sorted keys and fixed
    separators byte for byte, whatever it walks in pieces: str keys with
    escapes and non-ASCII characters, empty dicts and lists, lists
    mixing dicts and scalars, lists of matrices, big ints, bools, None
    and floats; an int-keyed or mixed-key dict gives the same bytes or
    raises the same exception."""
    assert _dumps_or_error(se.to_json, x) == _dumps_or_error(
        lambda v: json.dumps(v, sort_keys=True, separators=(",", ":")), x)


def test_to_json_is_deterministic():
    lat = fixtures.lattice_catalog()["sign"]
    a = se.to_json(se.dump_lattice(lat))
    b = se.to_json(se.dump_lattice(lat))
    assert a == b
    # key order in the input dict must not leak into the output
    obj = se.dump_group(cyclic_group(2))
    shuffled = dict(reversed(list(obj.items())))
    assert se.to_json(obj) == se.to_json(shuffled)


def test_write_and_read_file(tmp_path):
    path = str(tmp_path / "graph.json")
    g = fixtures.graph_catalog()["klein-triple"]
    with open(path, "w") as fh:
        fh.write(se.to_json(se.dump_graph(g)) + "\n")
    back = se.load_graph(se.read_file(path))
    assert back.n_vertices == 3

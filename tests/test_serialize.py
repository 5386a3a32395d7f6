"""JSON round-trips for groups, lattices, complexes, crossed modules,
patching graphs, and resolution certificates."""

import hashlib
import json
import tracemalloc

import pytest

import certificate_v1
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


def _catalog_certificates():
    """The coflasque and flasque certificates of all 18 catalog
    complexes."""
    for t in fixtures.complex_catalog().values():
        for resolve in (coflasque_resolution, flasque_resolution):
            yield resolve(t)[1]


@pytest.fixture(scope="module")
def s4_certificate():
    """The flasque certificate of [Z[S4] -> Z] (regular lattice,
    augmentation), whose echelons and Smith forms reach rank near 100,
    which no catalog complex does."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    reg, triv = regular_lattice(s4), trivial_lattice(s4)
    aug = TwoTermComplex(reg, triv, LatticeMap(reg, triv, ((1,) * 24,)))
    resolved, cert = flasque_resolution(aug)
    assert (resolved.l1.rank, resolved.l2.rank) == (105, 82)
    return cert


def _v1_round_trip_text(cert) -> str:
    """The format-1 text of ``cert`` after a format-2 JSON round trip."""
    return certificate_v1.text(_round_trip(cert))


def test_catalog_certificates_unchanged():
    """The format-1 JSON of the coflasque and flasque certificates of all
    18 catalog complexes hashes to the value computed before the moves'
    span checks shared their eliminations: no change of route or of
    format may change a certificate.  A format-2 round trip gives back
    the same format-1 bytes."""
    h = hashlib.sha256()
    count = 0
    for cert in _catalog_certificates():
        text = certificate_v1.text(cert)
        h.update(text.encode())
        assert _v1_round_trip_text(cert) == text
        count += 1
    assert count == 36
    assert h.hexdigest() == (
        "80060c29d448c13b03528bc76153235565c1180cac87f7e17a9fc9564eac8108")


def test_catalog_certificates_format_2_pinned():
    """The format-2 JSON of the 36 catalog certificates hashes to the
    value computed when the format was introduced."""
    h = hashlib.sha256()
    for cert in _catalog_certificates():
        h.update(se.to_json(se.dump_certificate(cert)).encode())
    assert h.hexdigest() == (
        "d79bf558baacd9fb12064014257e8b63791849eb3e987a7c5d88a0cd55e36fad")


def test_s4_augmentation_certificate_unchanged(s4_certificate):
    """The format-1 JSON of the flasque certificate of [Z[S4] -> Z]
    hashes to the value computed before the echelon loop and the matrix
    conversions were rewritten, and again after a format-2 round
    trip."""
    text = certificate_v1.text(s4_certificate)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "82e07e6a9785bcc07946d9c78747fe8d40f9e0b1ff832f45868b0afad0d51e2d")
    assert _v1_round_trip_text(s4_certificate) == text


def test_s4_augmentation_certificate_format_2_pinned(s4_certificate):
    """The format-2 JSON of the flasque certificate of [Z[S4] -> Z]
    hashes to the value computed when the format was introduced.  Its
    format-1 text, of rank-105 dense matrices, loads, dumps that same
    format-2 text and replays."""
    text = se.to_json(se.dump_certificate(s4_certificate))
    assert len(text) == 38987
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3807ac82b0bf3aa5462a9ffd849e865f030785c07985f154436430b030b818c8")
    back = se.load_certificate(json.loads(certificate_v1.text(s4_certificate)))
    assert se.to_json(se.dump_certificate(back)) == text
    assert replay_certificate(back)


def test_format_2_round_trip_writes_the_same_text():
    """Each catalog certificate's format-2 text loads and dumps back to
    itself, and its format-1 text, loaded, dumps the same format-2
    text."""
    for cert in _catalog_certificates():
        text = se.to_json(se.dump_certificate(cert))
        for loaded in (text, certificate_v1.text(cert)):
            back = se.load_certificate(json.loads(loaded))
            assert se.to_json(se.dump_certificate(back)) == text


def test_dump_certificate_refuses_two_group_presentations():
    """Format 2 writes one group: a certificate whose complexes are over
    another generator list of the same table, or over another table, is
    refused with ValueError."""
    t = fixtures.complex_catalog()["s3-coset-aug"]
    cert = coflasque_resolution(t)[1]
    obj = se.dump_complex(t)
    obj["group"]["generators"].reverse()
    for part in ("l1", "l2"):
        obj[part]["action"].reverse()
    other = se.load_complex(obj)
    z3 = coflasque_resolution(fixtures.complex_catalog()["z3-aug"])[1]
    for original in (other, z3.original):
        with pytest.raises(ValueError, match="one group"):
            se.dump_certificate(cert._replace(original=original))


def _load_each_side_alone(obj):
    """The earlier ``load_certificate``: every complex of a format-1
    certificate loads and checks its own copy of its group
    (``load_complex``)."""
    def side(x):
        if x["type"] == "complex":
            return se.load_complex(x["value"])
        b = x["b"]
        return se.load_complex({
            "format": se.COMPLEX_FORMAT, "group": x["group"], "l1": x["a"],
            "l2": {"rank": b["ngens"], "action": b["action"]},
            "differential": x["d"]})

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
    its complexes, and a first move's side given another group name
    loads into that group and replays, as it does when every side loads
    alone.  A side given a relabelled table, or a resolved complex over
    one, is refused on load: format 2 holds one group, and loading every
    side alone fails replay (a square's sides must share one table and
    generators, and the moves no longer connect)."""
    verdicts = []
    for text, forged in _forgeries():
        assert len(_groups(se.load_certificate(json.loads(text)))) == 1
        for obj in forged[:2]:
            cert = se.load_certificate(obj)
            assert len(_groups(cert)) == 1
            got = replay_certificate(cert)
            assert got == replay_certificate(_load_each_side_alone(obj))
            verdicts.append(got)
        for obj in forged[2:]:
            with pytest.raises(se.FormatError, match="one group"):
                se.load_certificate(obj)
            assert not replay_certificate(_load_each_side_alone(obj))
    assert verdicts == [True, True] * 4


def _forgeries():
    """(format-1 JSON text, four loaded copies) of the coflasque and
    flasque certificates of z3-aug and s3-coset-aug.  The first copy is as
    dumped; in the second a first move's side names its group "other",
    in the third that side's group table is relabelled, and in the
    fourth the resolved complex's."""
    catalog = fixtures.complex_catalog()
    for name in ("z3-aug", "s3-coset-aug"):
        for resolve in (coflasque_resolution, flasque_resolution):
            text = certificate_v1.text(resolve(catalog[name])[1])
            forged = [json.loads(text) for _ in range(4)]
            _group_dump(forged[1]["moves"][0]["tgt"])["name"] = "other"
            _relabel(_group_dump(forged[2]["moves"][0]["src"]))
            _relabel(forged[3]["resolved"]["group"])
            yield text, forged


def test_forged_certificates_share_lattices_and_keep_their_verdict():
    """The first two forged certificates of ``_forgeries`` load one
    GLattice per distinct (group, rank, action) body, fewer than their
    places, and replay with the verdict of loading every side alone; the
    two over a relabelled table are refused on load."""
    verdicts = []
    for _, forged in _forgeries():
        for obj in forged[:2]:
            cert = se.load_certificate(obj)
            bodies = _lattice_bodies(cert)
            assert all(len(ids) == 1 for ids in bodies.values())
            assert len(bodies) < len(_lattices(cert))
            got = replay_certificate(cert)
            assert got == replay_certificate(_load_each_side_alone(obj))
            verdicts.append(got)
        for obj in forged[2:]:
            with pytest.raises(se.FormatError, match="one group"):
                se.load_certificate(obj)
    assert verdicts == [True, True] * 4


def test_load_certificate_shares_one_lattice_per_body():
    """A certificate of every catalog complex, loaded from format 1, holds
    one GLattice per distinct (group, rank, action) body: the resolved
    complex's lattices are those of the move that starts or ends at it,
    and a lattice repeated across sides is one object, so replay fills
    its caches once.  Over the 36 certificates the 648 places hold 173
    lattices; the format-2 tables list the same 173, and a format-2 load
    shares them as a format-1 load does."""
    places = distinct = listed = 0
    for cert in _catalog_certificates():
        listed += len(se.dump_certificate(cert)["lattices"])
        for back in (se.load_certificate(json.loads(
                certificate_v1.text(cert))), _round_trip(cert)):
            bodies = _lattice_bodies(back)
            assert all(len(ids) == 1 for ids in bodies.values())
            places += len(_lattices(back))
            distinct += len(bodies)
            if back.mode == "coflasque":
                assert back.resolved.l1 is back.moves[2].src.l1
                assert back.resolved.l2 is back.moves[2].src.l2
            assert replay_certificate(back)
    assert (places, distinct, listed) == (2 * 648, 2 * 173, 173)


def test_dump_certificate_builds_no_dense_action():
    """A dump renders each lattice's JSON rows from its sparse rows and
    keeps no dense copy on it: after dumping the certificates of every
    catalog complex, resolved from a loaded copy so that no other reader
    of the catalog has touched its lattices, none of their lattices
    holds ``action``.  A lattice in several places of one certificate
    is listed once in the format-2 table, and each place names its
    index."""
    for t in fixtures.complex_catalog().values():
        t = se.load_complex(se.dump_complex(t))
        for resolve in (coflasque_resolution, flasque_resolution):
            cert = resolve(t)[1]
            obj = se.dump_certificate(cert)
            assert not [lat for lat in _lattices(cert)
                        if "action" in vars(lat)]
            if cert.mode == "coflasque":
                assert cert.resolved.l1 is cert.moves[2].src.l1
                assert obj["resolved"]["l1"] == obj["moves"][2]["src"]["l1"]
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
    lambda obj: obj["original"].update(differential=[
        row[:-1] for row in obj["original"]["differential"]]),
    lambda obj: obj["moves"][0].update(comp0=obj["moves"][0]["comp0"][1:]),
    lambda obj: obj.update(moves=1),
    lambda obj: obj["moves"][0].update(src=[]),
    lambda obj: obj["moves"][0]["tgt"].update(b=1),
    lambda obj: obj["moves"][0]["src"]["group"]["table"][1].__setitem__(
        0, True),
    lambda obj: obj["resolved"]["group"].update(generators=[1, 1]),
], ids=["mode-bogus", "kind-unknown", "side-type-unknown", "half-as-duality",
        "duality-as-pushout", "map-missing", "evidence-not-bool",
        "evidence-three", "rows-short", "map-short", "moves-not-list",
        "side-not-object", "b-not-object", "group-entry-bool",
        "group-other-generators"])
def test_load_certificate_refuses_forged_structure(forge):
    """A format-1 certificate with an unknown mode, move kind or side
    type, a kind whose sides or maps do not match it, evidence that is
    not two booleans, a dense matrix short of a column or a row (not read
    as zeros), a container of the wrong type, a group entry that is a
    bool equal to its int, or complexes over two generator lists is
    refused on load, before replay reads it."""
    t = fixtures.complex_catalog()["z2-aug"]
    obj = json.loads(certificate_v1.text(flasque_resolution(t)[1]))
    forge(obj)
    with pytest.raises(se.FormatError):
        se.load_certificate(obj)


def _set_row(rows, row):
    rows[0] = row


@pytest.mark.parametrize("forge", [
    lambda obj: _set_row(obj["lattices"][0]["action"][0], [1]),
    lambda obj: _set_row(obj["moves"][2]["comp0"], [0, 1, 0, 1]),
    lambda obj: _set_row(obj["original"]["differential"], [1, 1, 0, 1]),
    lambda obj: _set_row(obj["lattices"][0]["action"][0], [1, 0]),
    lambda obj: _set_row(obj["lattices"][0]["action"][0], [2, 1]),
    lambda obj: _set_row(obj["lattices"][0]["action"][0], [-1, 1]),
    lambda obj: _set_row(obj["original"]["differential"], [0, 1, 2, 1]),
    lambda obj: _set_row(obj["lattices"][0]["action"][0], [True, 1]),
    lambda obj: _set_row(obj["lattices"][0]["action"][0], [1, 1.0]),
    lambda obj: obj["original"].update(l2=True),
    lambda obj: obj["original"].update(l2=1.0),
    lambda obj: obj["original"].update(l2=5),
    lambda obj: obj["original"].update(l2=-1),
    lambda obj: obj["original"].update(differential=[]),
    lambda obj: obj["moves"][1].update(comp_minus1=[]),
    lambda obj: obj["lattices"][0]["action"][0].pop(),
    lambda obj: obj["lattices"][0]["action"].append([[1, 1], [0, 1]]),
    lambda obj: obj["moves"][0].update(comp0=None),
    lambda obj: obj["moves"][3].update(comp0=[[0, 1]]),
    lambda obj: obj["moves"][0].update(evidence=["no", 0]),
    lambda obj: obj["moves"][0].update(evidence=[True]),
    lambda obj: obj["moves"][0].update(kind="pushout"),
    lambda obj: obj.update(mode="bogus"),
    lambda obj: obj["group"]["table"].extend([[0, 1]] * 63),
    lambda obj: obj.update(lattices=1),
    lambda obj: obj.update(moves={}),
    lambda obj: _set_row(obj["lattices"], 1),
    lambda obj: _set_row(obj["moves"], [1]),
    lambda obj: obj.update(original=1),
    lambda obj: obj.update(resolved=[0, 1]),
    lambda obj: obj["moves"][0].update(src=1),
    lambda obj: obj["moves"][0].update(tgt=None),
], ids=["row-odd-length", "column-repeated", "column-decreasing",
        "value-zero", "column-at-rank", "column-negative",
        "column-at-source-rank", "entry-bool", "entry-float", "index-bool",
        "index-float", "index-past-table", "index-negative",
        "differential-rows", "map-rows", "action-rows",
        "action-past-generators", "map-missing",
        "duality-with-map", "evidence-not-bool", "evidence-one",
        "kind-unknown", "mode-bogus", "group-past-size-limit",
        "lattices-not-list", "moves-not-list", "lattice-not-object",
        "move-not-object", "original-not-object", "resolved-not-object",
        "src-not-object", "tgt-not-object"])
def test_load_certificate_2_refuses_off_grammar(forge):
    """A format-2 certificate off the grammar is refused on load with
    FormatError, before replay reads it: a row of odd length, a repeated
    or decreasing column, a zero value, a column out of 0..rank-1 (or
    0..source rank-1 for a map), a bool or float entry or lattice index,
    an index out of the table, a matrix with the wrong row count, a
    lattice with more action matrices than generators, a square move
    short of a map or a duality move with one, evidence that
    is not two booleans, an unknown kind or mode, a ``lattices`` or
    ``moves`` that is not a list, a table entry, move or complex that is
    not an object.  A group past the size limit raises SizeLimitError."""
    t = fixtures.complex_catalog()["z2-aug"]
    obj = json.loads(se.to_json(se.dump_certificate(
        flasque_resolution(t)[1])))
    assert [m["kind"] for m in obj["moves"]] == [
        "pushout-mono", "pushout-mono", "pullback-epi", "duality"]
    assert (obj["original"]["l1"], obj["original"]["l2"]) == (0, 1)
    assert replay_certificate(se.load_certificate(obj))
    forge(obj)
    with pytest.raises((se.FormatError, groups.SizeLimitError)) as err:
        se.load_certificate(obj)
    assert (err.type is groups.SizeLimitError) \
        == (len(obj["group"]["table"]) > groups.DEFAULT_SIZE_LIMIT)


def test_load_certificate_refuses_a_module_short_of_action_matrices():
    """Drop the second action matrix of the middle module B' of the
    format-1 coflasque certificate of s3-coset-aug, in the pushout and the
    pullback that end at it.  Its squares would then be checked on one
    generator of S3's two and pass; the module is refused on load."""
    t = fixtures.complex_catalog()["s3-coset-aug"]
    obj = json.loads(certificate_v1.text(coflasque_resolution(t)[1]))
    for move in obj["moves"][1:]:
        del move["tgt"]["b"]["action"][1]
    with pytest.raises(se.FormatError,
                       match="one action matrix per group generator"):
        se.load_certificate(obj)


def test_load_certificate_refuses_a_half_side_with_relations():
    """Every side of a square is a complex of lattices: a format-1 half
    side whose B carries a relation, or whose relation rows do not match its
    generators, is refused on load."""
    t = fixtures.complex_catalog()["z3-aug"]
    obj = json.loads(certificate_v1.text(coflasque_resolution(t)[1]))
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
    """Set every action matrix of a complex dumped in format 1 to the
    identity."""
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
        obj = json.loads(certificate_v1.text(coflasque_resolution(t)[1]))
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

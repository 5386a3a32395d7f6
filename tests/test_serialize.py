"""JSON round-trips for groups, lattices, complexes, crossed modules,
patching graphs, and resolution certificates."""

import dataclasses
import json

import pytest

from galmod import fixtures
from galmod import intlinalg as la
from galmod import serialize as se
from galmod.complexes import (coflasque_resolution, flasque_resolution,
                              replay_certificate)
from galmod.groups import cyclic_group, symmetric_group_3


def test_group_round_trip():
    s3 = symmetric_group_3()
    obj = se.dump_group(s3)
    back = se.load_group(json.loads(se.to_json(obj)))
    assert back.table == s3.table
    assert back.generators == s3.generators
    assert back.labels == s3.labels


def test_group_from_cycles():
    g = se.load_group({"format": se.GROUP_FORMAT, "degree": 3,
                       "cycles": ["(1 2)", "(1 2 3)"]})
    assert g.order == 6 and not g.is_abelian()


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
        negated = dataclasses.replace(move, comp0=la.mat_neg(move.comp0))
        moves = back.moves[:i] + (negated,) + back.moves[i + 1:]
        assert not replay_certificate(dataclasses.replace(back, moves=moves))


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
        assert not replay_certificate(dataclasses.replace(
            own, resolved=other.resolved,
            vanishing_table=other.vanishing_table))
        assert not replay_certificate(dataclasses.replace(
            own, original=other.original))


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
    se.write_file(path, se.dump_graph(g))
    back = se.load_graph(se.read_file(path))
    assert back.n_vertices == 3

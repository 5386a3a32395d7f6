"""Command-line interface: outputs and the exit-code contract."""

import hashlib
import io
import json

import pytest

from galmod import cli, fixtures, serialize
from galmod import intlinalg as la
from galmod.cli import main
from galmod.complexes import TwoTermComplex
from galmod.crossed import (FiniteCrossedModule, conjugation_h_action,
                            trivial_galois_action)
from galmod.groups import cyclic_group, group_from_table
from galmod.lattice import GLattice, LatticeMap, trivial_lattice


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohomology_text_output(capsys):
    code, out, _ = run(capsys, "cohomology", "--group", "fixtures:Z2",
                       "--lattice", "fixtures:sign", "--degree", "1")
    assert code == 0
    assert out.strip() == "invariant factors: [2]"


def test_cohomology_json_output(capsys):
    code, out, _ = run(capsys, "cohomology", "--lattice", "fixtures:sign",
                       "--degree", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant_factors"] == [2]
    assert payload["format"] == "galmod-report-1"


def test_cohomology_with_subgroup(capsys):
    code, out, _ = run(capsys, "cohomology", "--lattice",
                       "fixtures:s3-sign", "--degree", "1",
                       "--subgroup", "0,2,5")
    assert code == 0
    # the sign character is trivial on A3
    assert out.strip() == "invariant factors: []"


def test_tate_and_hyper(capsys):
    code, out, _ = run(capsys, "tate", "--lattice", "fixtures:sign",
                       "--degree", "-1")
    assert code == 0 and out.strip() == "invariant factors: [2]"
    code, out, _ = run(capsys, "hyper", "--complex", "fixtures:z2-mult2",
                       "--degree", "1")
    assert code == 0 and out.strip() == "invariant factors: [2]"


def test_classify_verdicts(capsys):
    code, out, _ = run(capsys, "classify", "--lattice",
                       "fixtures:z2-regular", "--mode", "coflasque")
    assert code == 0
    assert out.splitlines()[0] == "coflasque: yes"
    code, out, _ = run(capsys, "classify", "--lattice", "fixtures:sign",
                       "--mode", "flasque")
    assert code == 1
    assert out.splitlines()[0] == "flasque: no"


def test_resolve_with_certificate_replay(capsys):
    code, out, _ = run(capsys, "resolve-coflasque", "--complex",
                       "fixtures:sign-deg0", "--verify-certificate")
    assert code == 0
    assert "replay: ok" in out
    code, out, _ = run(capsys, "resolve-flasque", "--complex",
                       "fixtures:z2-aug", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    cert = serialize.load_certificate(payload["certificate"])
    assert cert.mode == "flasque"


def test_crossed_h0(capsys):
    code, out, _ = run(capsys, "crossed-h0", "--crossed",
                       "fixtures:z2-z2-order4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h_zero_order"] == 4
    assert payload["h_minus_one_order"] == 2


def test_sha_and_mv_report(capsys):
    code, out, _ = run(capsys, "sha", "--graph",
                       "fixtures:single-trivial-vertex",
                       "--lattice", "fixtures:sign", "--degree", "1")
    assert code == 0 and out.strip() == "invariant factors: [2]"
    code, out, _ = run(capsys, "mv-report", "--graph",
                       "fixtures:two-vertex-whole",
                       "--complex", "fixtures:sign-deg-1")
    assert code == 0
    assert "degree -1" in out


def test_remark_compare(capsys):
    code, out, _ = run(capsys, "remark-compare", "--graph",
                       "fixtures:two-vertex-whole",
                       "--complex", "fixtures:sign-deg-1")
    assert code == 0
    assert "all agree: True" in out


def test_refine(capsys):
    code, out, _ = run(capsys, "refine", "--graph",
                       "fixtures:s3-transposition-vertex",
                       "--subgroup", "0 2 5")
    assert code == 0
    assert out.splitlines()[0].startswith("refined: 1 vertices")


def test_shapiro_exit_codes(capsys):
    code, out, _ = run(capsys, "shapiro", "--group", "fixtures:S3",
                       "--subgroup", "0,2,5", "--degree", "1")
    assert code == 0
    assert "isomorphic: True" in out


def test_sylow_cyclic(capsys):
    code, _, _ = run(capsys, "sylow-cyclic", "--group", "fixtures:S3")
    assert code == 0
    code, _, _ = run(capsys, "sylow-cyclic", "--group", "fixtures:Z2xZ2")
    assert code == 1


def test_snf_from_file(capsys, tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"matrix": [[2, 0], [0, 3]]}))
    code, out, _ = run(capsys, "snf", "--matrix", str(path))
    assert code == 0
    assert "invariant factors: [1, 6]" in out


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "sign" in out and "S3" in out


def test_input_errors_exit_two(capsys):
    code, _, err = run(capsys, "cohomology", "--lattice",
                       "fixtures:no-such-thing", "--degree", "1")
    assert code == 2
    code, _, err = run(capsys, "cohomology", "--lattice", "fixtures:sign",
                       "--degree", "9")
    assert code == 2
    code, _, _ = run(capsys, "cohomology", "--degree", "1")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, err = run(capsys, "shapiro", "--group", "fixtures:S3",
                       "--subgroup", "1,2", "--degree", "1")
    assert code == 2
    for members in ("0 99", "0,-1"):
        code, _, err = run(capsys, "cohomology", "--lattice",
                           "fixtures:s3-sign", "--subgroup", members,
                           "--degree", "1")
        assert code == 2 and "not elements" in err
    code, _, err = run(capsys, "refine", "--graph",
                       "fixtures:s3-transposition-vertex")
    assert code == 2 and "--subgroup" in err
    code, _, err = run(capsys, "shapiro", "--group", "fixtures:S3",
                       "--degree", "1")
    assert code == 2 and "--subgroup" in err
    # only the resolve commands read --verify-certificate
    code, _, _ = run(capsys, "tate", "--lattice", "fixtures:sign",
                     "--degree", "0", "--verify-certificate")
    assert code == 2


def test_size_limit_exit_three(capsys):
    # [S3 -> S3] over Gamma = Z2 enumerates 6^1 = 6 generator values
    code, _, err = run(capsys, "crossed-h0", "--crossed",
                       "fixtures:s3-identity", "--size-limit", "5")
    assert code == 3
    assert "size limit exceeded: 6 candidate maps exceed the bound 5" in err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_size_limit_not_positive_is_input_error(capsys, limit):
    """A limit of 0 does not fall back to the defaults, and a negative one
    is not taken as a bound: both are refused before any work."""
    code, out, err = run(capsys, "crossed-h0", "--crossed",
                         "fixtures:s3-identity", "--size-limit", limit)
    assert code == 2 and not out
    assert f"--size-limit must be positive, got {limit}" in err


@pytest.mark.parametrize("argv", [
    ("mv-report", "--graph", "fixtures:single-whole"),
    ("sha", "--graph", "fixtures:single-whole", "--degree", "0"),
])
def test_crossed_size_limit_reaches_patching(capsys, argv):
    args = argv + ("--crossed", "fixtures:s3-identity")
    code, _, err = run(capsys, *args, "--size-limit", "5")
    assert code == 3
    assert "size limit exceeded: 6 candidate maps exceed the bound 5" in err
    code, _, _ = run(capsys, *args, "--size-limit", "6")
    assert code == 0


def test_group_table_mismatch(capsys):
    code, _, err = run(capsys, "cohomology", "--group", "fixtures:Z3",
                       "--lattice", "fixtures:sign", "--degree", "1")
    assert code == 2
    assert "does not match" in err



# Matrices that are not a group action: an involution for the generator
# of Z3, and a non-unimodular matrix for the generator of Z2.
NOT_AN_ACTION = {
    "z3-swap": (cyclic_group(3), 2, (((0, 1), (1, 0)),)),
    "z2-triple": (cyclic_group(2), 1, (((3,),),)),
}


@pytest.mark.parametrize("name", sorted(NOT_AN_ACTION))
def test_lattice_not_a_group_action_exit_two(capsys, tmp_path, name):
    lat = GLattice(*NOT_AN_ACTION[name])
    path = tmp_path / "lattice.json"
    path.write_text(serialize.to_json(serialize.dump_lattice(lat)))
    for degree in ("1", "2"):
        code, _, err = run(capsys, "cohomology", "--lattice", str(path),
                           "--degree", degree)
        assert code == 2
        assert "input error" in err


def test_complex_with_bad_lattice_exit_two(capsys, tmp_path):
    swap = GLattice(*NOT_AN_ACTION["z3-swap"])
    triv = trivial_lattice(swap.group)
    t = TwoTermComplex(swap, triv, LatticeMap(swap, triv, ((1, 1),)))
    path = tmp_path / "complex.json"
    path.write_text(serialize.to_json(serialize.dump_complex(t)))
    code, _, err = run(capsys, "hyper", "--complex", str(path),
                       "--degree", "1")
    assert code == 2
    assert "input error" in err


def test_crossed_module_breaking_an_axiom_exit_two(capsys, tmp_path):
    z2 = cyclic_group(2)
    # the boundary sends the identity to the generator: not a homomorphism
    bad = FiniteCrossedModule(z2, z2, (1, 0), conjugation_h_action(z2), z2,
                              trivial_galois_action(z2, z2),
                              trivial_galois_action(z2, z2))
    path = tmp_path / "crossed.json"
    path.write_text(serialize.to_json(serialize.dump_crossed(bad)))
    code, _, err = run(capsys, "crossed-h0", "--crossed", str(path))
    assert code == 2
    assert "invalid crossed module" in err


def test_galois_identity_acting_by_zero_exits_two(capsys, tmp_path):
    """The trivial Galois group acting on G = H = Z/2 by the zero map is
    refused at load time, before H^0 could meet a coboundary outside the
    cocycle set; the message names the witness, the identity (0,)."""
    z2, one = cyclic_group(2), cyclic_group(1)
    zero_map = FiniteCrossedModule(z2, z2, (0, 0), conjugation_h_action(z2),
                                   one, ((0, 0),), ((0, 0),))
    path = tmp_path / "crossed.json"
    path.write_text(serialize.to_json(serialize.dump_crossed(zero_map)))
    code, out, err = run(capsys, "crossed-h0", "--crossed", str(path))
    assert code == 2
    assert out == ""
    assert "invalid crossed module: Galois tables not an action on G" in err
    assert "(0,)" in err


# Malformed files and stdin are input errors (exit 2), even when the
# loader meets them as a TypeError, a KeyError or a short row.
MALFORMED = {
    "lattice-rank-null": ("lattice", {"rank": None}),
    "lattice-action-not-a-list": ("lattice", {"action": 5}),
    "lattice-ragged-action": ("lattice",
                              {"rank": 2, "action": [[[1, 0], [0]]]}),
    "lattice-action-wrong-shape": ("lattice",
                                   {"rank": 1, "action": [[[1, 0], [0, 1]]]}),
    "snf-ragged-stdin": ("snf", [[1, 2], [3]]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exit_two(capsys, monkeypatch, tmp_path, name):
    kind, data = MALFORMED[name]
    if kind == "snf":
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        argv = ("snf",)
    else:
        obj = json.loads(serialize.to_json(
            serialize.dump_lattice(trivial_lattice(cyclic_group(2)))))
        obj.update(data)
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(obj))
        argv = ("cohomology", "--lattice", str(path), "--degree", "1")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("data", [{"action": [[[1.5]]]}, {"rank": 1.5},
                                  {"action": [[[True]]]}],
                         ids=["float-entry", "float-rank", "bool-entry"])
def test_non_integer_lattice_exit_two(capsys, tmp_path, data):
    """A float or bool is refused on load, not truncated to an integer."""
    obj = json.loads(serialize.to_json(serialize.dump_lattice(
        GLattice(cyclic_group(2), 1, (((-1,),),)))))
    obj.update(data)
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "cohomology", "--lattice", str(path),
                         "--degree", "1")
    assert code == 2
    assert out == ""
    assert "must be an integer" in err


@pytest.mark.parametrize("exc", [RuntimeError, la.SolveError, ValueError,
                                 KeyError])
def test_internal_failure_exit_four(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc("unexpected")

    monkeypatch.setattr(cli, "group_cohomology", broken)
    code, out, err = run(capsys, "cohomology", "--lattice", "fixtures:sign",
                         "--degree", "1")
    assert code == 4
    assert out == ""
    assert err.strip() == f"internal error: {exc.__name__}: unexpected"


def _group_file(tmp_path, change):
    obj = json.loads(serialize.to_json(serialize.dump_group(
        cyclic_group(3))))
    change(obj)
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("change", [
    lambda obj: obj["table"][1].__setitem__(1, 7),
    lambda obj: obj["generators"].__setitem__(0, 5),
    lambda obj: obj["table"][1].append(0),
    lambda obj: obj.update(table=[], generators=None),
], ids=["table-entry-7", "generator-5", "table-row-too-long",
        "empty-table"])
def test_group_ids_out_of_range_exit_two(capsys, tmp_path, change):
    """A Z3 table naming an element outside 0..2, or an empty table, is
    refused on load, before the group axioms index with it."""
    code, out, err = run(capsys, "sylow-cyclic", "--group",
                         _group_file(tmp_path, change))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")


def test_non_associative_group_table_exits_two(capsys, tmp_path):
    """A loop of order 5 whose generators 1 and 2 reach every element is
    refused by the associativity check, at (1, 1, 2)."""
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({
        "format": "galmod-group-1", "generators": [1, 2],
        "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}))
    code, out, err = run(capsys, "sylow-cyclic", "--group", str(path))
    assert code == 2
    assert out == ""
    assert "(1, 1, 2)" in err


def _crossed_file(tmp_path, change):
    obj = json.loads(serialize.to_json(serialize.dump_crossed(
        fixtures.lookup("crossed", "s3-identity"))))
    change(obj)
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("change", [
    lambda obj: obj.update(boundary=[99] * len(obj["boundary"])),
    lambda obj: obj.update(boundary=obj["boundary"][:-1]),
    lambda obj: obj.update(h_action=[row[:-1] for row in obj["h_action"]]),
    lambda obj: obj.update(h_action=obj["h_action"][:-1]),
    lambda obj: obj["galois_on_g"][1].__setitem__(0, 6),
    lambda obj: obj.update(galois_on_h=[row[:-1]
                                        for row in obj["galois_on_h"]]),
], ids=["boundary-99", "boundary-short", "h-action-rows-short",
        "h-action-row-missing", "galois-on-g-id-6", "galois-on-h-rows-short"])
def test_crossed_tables_of_wrong_shape_exit_two(capsys, tmp_path, change):
    code, out, err = run(capsys, "crossed-h0", "--crossed",
                         _crossed_file(tmp_path, change))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")


def test_graph_member_out_of_range_exit_two(capsys, tmp_path):
    obj = json.loads(serialize.to_json(serialize.dump_graph(
        fixtures.lookup("graph", "two-vertex-whole"))))
    obj["vertices"][0] = [0, 7]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "sha", "--graph", str(path), "--lattice",
                       "fixtures:sign", "--degree", "1")
    assert code == 2
    assert err.strip() == ("input error: subgroup member 7 is not an "
                           "element id in 0..1")


@pytest.mark.parametrize("labels", [["e"], [1, 2]],
                         ids=["one-label", "int-labels"])
def test_group_labels_not_n_strings_exit_two(capsys, tmp_path, labels):
    """A Z2 table whose labels are not two strings is refused on load,
    before a subgroup copies its labels."""
    obj = json.loads(serialize.to_json(serialize.dump_lattice(
        fixtures.lookup("lattice", "sign"))))
    obj["group"]["labels"] = labels
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(obj))
    for argv in (("classify", "--lattice", str(path), "--mode", "flasque"),
                 ("cohomology", "--lattice", str(path), "--degree", "1",
                  "--subgroup", "0,1")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() == "input error: labels must be a list of 2 strings"


def test_repeated_subgroup_members_exit_two(capsys, tmp_path):
    """A subgroup that names an element twice is refused, from a graph
    file and from --subgroup alike."""
    obj = json.loads(serialize.to_json(serialize.dump_graph(
        fixtures.lookup("graph", "two-vertex-whole"))))
    obj["vertices"][0] = [0, 0, 1]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(obj))
    for argv in (("mv-report", "--graph", str(path),
                  "--complex", "fixtures:z2-aug"),
                 ("cohomology", "--lattice", "fixtures:sign", "--degree", "1",
                  "--subgroup", "0,0,1")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() == "input error: subgroup members must not repeat"


def test_group_table_bounded_by_size_limit(capsys, tmp_path):
    """A table of order 65 exceeds the default limit of 64 before its
    axioms are checked; --size-limit 100 admits it, and nothing past the
    loader bounds its order again."""
    z65 = group_from_table([[(a + b) % 65 for b in range(65)]
                            for a in range(65)], (1,))
    lat = trivial_lattice(z65)
    path = tmp_path / "z65.json"
    path.write_text(serialize.to_json(serialize.dump_lattice(lat)))
    refusal = "size limit exceeded: group order 65 exceeds size limit 64"
    argv = ("cohomology", "--lattice", str(path), "--degree", "1")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.strip() == refusal
    code, out, _ = run(capsys, *argv, "--size-limit", "100")
    assert code == 0
    assert out.strip() == "invariant factors: []"
    argv = ("classify", "--lattice", str(path), "--mode", "flasque")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.strip() == refusal
    code, out, _ = run(capsys, *argv, "--size-limit", "100")
    assert code == 0
    assert out.splitlines() == ["flasque: yes"] + [
        f"  subgroup {list(range(0, 65, step))}: factors []"
        for step in (65, 13, 5, 1)]


def test_snf_dict_without_matrix_exit_two(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"rows": []})))
    code, _, err = run(capsys, "snf")
    assert code == 2
    assert err.strip() == "input error: matrix must be a list of rows"


def test_refine_split_exits_one(capsys):
    code, out, _ = run(capsys, "refine", "--graph",
                       "fixtures:single-trivial-vertex", "--subgroup", "0")
    assert code == 1
    assert out.splitlines() == [
        "the refined graph splits into 2 connected components",
        "  component 0: refined vertices 0 (vertex 0, coset 0)",
        "  component 1: refined vertices 1 (vertex 0, coset 1)"]
    code, out, _ = run(capsys, "refine", "--graph",
                       "fixtures:s3-transposition-vertex", "--subgroup", "0",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["connected"] is False
    assert payload["components"] == [[0], [1], [2]]
    assert payload["witnesses"] == [[0, 0], [0, 2], [0, 4]]


def _sweep_commands(matrix_path: str) -> list[tuple[str, ...]]:
    """Every subcommand on catalog fixtures, with verdicts true and false,
    input errors, a size-limit error and three usage errors."""
    lattices = ("sign", "z2-trivial", "z2-regular", "z3-regular",
                "z4-regular", "z4-coset2", "v4-regular", "v4-coset",
                "v4-character", "s3-sign", "s3-coset", "s3-regular",
                "z6-coset", "z12-coset6")
    complexes = ("sign-deg0", "sign-deg-1", "z2-norm", "z2-aug", "z2-mult2",
                 "z2-sign-embed", "z3-aug", "z3-norm", "z4-aug",
                 "z4-coset-aug", "z4-mult3", "v4-aug", "v4-coset-aug",
                 "v4-char-deg0", "s3-coset-aug", "s3-coset-norm",
                 "s3-sign-deg0", "s3-zero")
    crossed = ("z2-z2-order4", "z3-flip", "s3-identity", "s3-degenerate",
               "z2-id")
    cmds = [("fixtures",)]
    cmds += [("cohomology", "--lattice", f"fixtures:{name}", "--degree", "1")
             for name in lattices]
    cmds += [("cohomology", "--lattice", f"fixtures:{name}", "--degree", d)
             for name in ("sign", "v4-character", "s3-sign", "z4-coset2")
             for d in ("0", "2")]
    cmds += [("cohomology", "--group", "fixtures:Z2", "--lattice",
              "fixtures:sign", "--degree", "1"),
             ("cohomology", "--lattice", "fixtures:s3-sign", "--degree", "1",
              "--subgroup", "0,2,5")]
    cmds += [("tate", "--lattice", f"fixtures:{name}", "--degree", d)
             for name in ("sign", "z2-regular", "v4-character", "s3-coset")
             for d in ("-1", "0")]
    cmds += [("hyper", "--complex", f"fixtures:{name}", "--degree", "1")
             for name in complexes]
    cmds += [("hyper", "--complex", "fixtures:z2-mult2", "--degree", d)
             for d in ("-1", "0")]
    cmds += [("classify", "--lattice", f"fixtures:{name}", "--mode", mode)
             for name in ("sign", "z2-regular", "v4-coset", "s3-coset",
                          "z12-coset6")
             for mode in ("flasque", "coflasque")]
    cmds += [(f"resolve-{mode}", "--complex", f"fixtures:{name}") + extra
             for mode in ("coflasque", "flasque")
             for name, extra in (("sign-deg0", ("--verify-certificate",)),
                                 ("z2-aug", ()), ("z3-norm", ()))]
    cmds += [("invariants", "--complex", f"fixtures:{name}")
             for name in ("z2-aug", "z2-norm", "s3-coset-aug")]
    cmds += [("crossed-h0", "--crossed", f"fixtures:{name}")
             for name in crossed]
    cmds += [("mv-report", "--graph", "fixtures:two-vertex-whole",
              "--complex", "fixtures:sign-deg-1"),
             ("mv-report", "--graph", "fixtures:two-vertex-trivial-edges",
              "--complex", "fixtures:z2-aug"),
             ("mv-report", "--graph", "fixtures:single-whole",
              "--crossed", "fixtures:z2-z2-order4"),
             ("mv-report", "--graph", "fixtures:two-vertex-whole",
              "--crossed", "fixtures:z2-id")]
    cmds += [("sha", "--graph", "fixtures:single-trivial-vertex",
              "--lattice", "fixtures:sign", "--degree", "1"),
             ("sha", "--graph", "fixtures:klein-triple",
              "--lattice", "fixtures:v4-character", "--degree", "2"),
             ("sha", "--graph", "fixtures:two-vertex-whole",
              "--complex", "fixtures:z2-norm", "--degree", "1"),
             ("sha", "--graph", "fixtures:single-whole",
              "--crossed", "fixtures:z2-id", "--degree", "0")]
    cmds += [("remark-compare", "--graph", f"fixtures:{graph}",
              "--complex", f"fixtures:{name}")
             for graph, name in (("two-vertex-whole", "sign-deg-1"),
                                 ("two-vertex-trivial-edges", "z2-aug"))]
    cmds += [("refine", "--graph", "fixtures:s3-transposition-vertex",
              "--subgroup", "0 2 5"),
             ("refine", "--graph", "fixtures:klein-triple",
              "--subgroup", "0,1"),
             ("refine", "--graph", "fixtures:single-trivial-vertex",
              "--subgroup", "0")]
    cmds += [("shapiro", "--group", "fixtures:S3", "--subgroup", "0,2,5",
              "--degree", "1"),
             ("shapiro", "--group", "fixtures:Z4", "--subgroup", "0,2",
              "--degree", "2"),
             ("shapiro", "--group", "fixtures:Z2", "--subgroup", "0,1",
              "--lattice", "fixtures:sign", "--degree", "1")]
    cmds += [("sylow-cyclic", "--group", f"fixtures:{name}")
             for name in ("S3", "Z2xZ2", "D4", "Z12")]
    cmds += [("snf", "--matrix", matrix_path)]
    # input errors (exit 2) and a size-limit error (exit 3)
    cmds += [("cohomology", "--lattice", "fixtures:no-such-thing",
              "--degree", "1"),
             ("cohomology", "--lattice", "fixtures:sign", "--degree", "9"),
             ("tate", "--lattice", "fixtures:sign", "--degree", "1"),
             ("cohomology", "--lattice", "fixtures:s3-sign", "--subgroup",
              "0 99", "--degree", "1"),
             ("cohomology", "--lattice", "fixtures:s3-sign", "--subgroup",
              "0 x", "--degree", "1"),
             ("cohomology", "--group", "fixtures:Z3", "--lattice",
              "fixtures:sign", "--degree", "1"),
             ("shapiro", "--group", "fixtures:S3", "--subgroup", "1,2",
              "--degree", "1"),
             ("mv-report", "--graph", "fixtures:single-whole"),
             ("sha", "--graph", "fixtures:single-whole", "--degree", "1"),
             ("sha", "--graph", "fixtures:two-vertex-whole",
              "--lattice", "fixtures:s3-sign", "--degree", "1"),
             ("shapiro", "--group", "fixtures:Z2", "--subgroup", "0",
              "--lattice", "fixtures:sign", "--degree", "1"),
             ("crossed-h0", "--crossed", "fixtures:s3-identity",
              "--size-limit", "5")]
    # usage errors
    cmds += [("cohomology", "--degree", "1"),
             ("cohomology", "--lattice", "fixtures:sign", "--degree", "x"),
             ("tate", "--lattice", "fixtures:sign", "--degree", "0",
              "--verify-certificate")]
    return cmds


def test_cli_sweep_output_pinned(capsys, monkeypatch, tmp_path):
    """stdout, stderr and exit code of every sweep command, in text and in
    JSON, hash to the value computed before the command table was
    introduced: a change of structure must not change what is printed."""
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"matrix": [[2, 4, 4], [-6, 6, 12],
                                           [10, -4, -16]]}))
    h = hashlib.sha256()
    cmds = _sweep_commands(str(path))
    for argv in cmds:
        for fmt in ("text", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            h.update(json.dumps([code, out, err.replace(str(path), "MAT")]
                                ).encode())
    assert len(cmds) == 113
    assert h.hexdigest() == (
        "b1a3cc901675e790176b10e79d9d515d59bf2d147e18448a39d24aeec8dc9ea6")

"""Command-line interface: outputs and the exit-code contract."""

import io
import json

import pytest

from galmod import cli, serialize
from galmod import intlinalg as la
from galmod.cli import main
from galmod.complexes import TwoTermComplex
from galmod.crossed import (FiniteCrossedModule, conjugation_h_action,
                            trivial_galois_action)
from galmod.groups import cyclic_group
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


# Malformed files and stdin are input errors (exit 2), even when the
# loader meets them as a TypeError, a KeyError or a short row.
MALFORMED = {
    "lattice-rank-null": ("lattice", {"rank": None}),
    "lattice-action-not-a-list": ("lattice", {"action": 5}),
    "lattice-ragged-action": ("lattice",
                              {"rank": 2, "action": [[[1, 0], [0]]]}),
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


@pytest.mark.parametrize("exc", [RuntimeError, la.SolveError])
def test_internal_failure_exit_four(capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc("unexpected")

    monkeypatch.setattr(cli, "group_cohomology", broken)
    code, out, err = run(capsys, "cohomology", "--lattice", "fixtures:sign",
                         "--degree", "1")
    assert code == 4
    assert out == ""
    assert err.strip() == f"internal error: {exc.__name__}: unexpected"


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

"""Command-line interface.

Every object flag takes either a file path or a ``fixtures:NAME``
reference into the built-in catalog.  Exit codes: 0 success, 1 a check
computed the verdict "false" (for ``refine``: the refined graph splits
into several connected components, which are printed), 2 input found
wrong while it was loaded or parsed, 3 size-limit exceeded, 4 internal
error (any failure during a computation).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures, serialize
from .cohomology import (group_cohomology, hypercohomology, shapiro_compare,
                         tate_cohomology, UnsupportedCoefficientsError,
                         UnsupportedDegreeError)
from .complexes import (classify, coflasque_resolution, flasque_resolution,
                        r_equivalence_invariant, replay_certificate)
from .crossed import (DEFAULT_ENUMERATION_BOUND, h_minus_one, h_zero,
                      validate_crossed_module)
from .groups import (DEFAULT_SIZE_LIMIT, MembershipError, SizeLimitError,
                     SubgroupHandle, sylow_all_cyclic)
from . import intlinalg as la
from .lattice import EquivarianceError, trivial_lattice
from .patching import (GraphSplitError, ModelError, crossed_six_term_report,
                       nine_term_report, refine_graph, remark_compare, sha)
from .serialize import FormatError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_SIZE = 3
EXIT_INTERNAL = 4


class CliInputError(Exception):
    pass


def _read_json(path: str):
    try:
        return serialize.read_file(path)
    except (OSError, json.JSONDecodeError) as e:
        raise CliInputError(f"cannot read {path}: {e}")


def _load(args, kind: str):
    """The object that the --KIND flag names, rejected unless it is what it
    claims to be: the cohomology code relies on a genuine group action."""
    value = getattr(args, kind)
    if value.startswith("fixtures:"):
        try:
            obj = fixtures.lookup(kind, value[len("fixtures:"):])
        except KeyError as e:
            raise CliInputError(str(e))
    else:
        data = _read_json(value)
        try:
            obj = getattr(serialize, f"load_{kind}")(data, args.size_limit)
        except (TypeError, ValueError, KeyError) as e:
            raise CliInputError(f"malformed {kind} in {value}: "
                                f"{type(e).__name__}: {e}")
    if kind == "crossed":
        verdict = validate_crossed_module(obj)
        if not verdict.ok:
            what, witness = verdict.failure
            raise CliInputError(f"invalid crossed module: {what} at {witness}")
    elif kind in ("lattice", "complex"):
        obj.validate()
    return obj


def _coefficient(args, *kinds):
    """The object of the first of the --KIND flags that was given."""
    for kind in kinds:
        if getattr(args, kind, None):
            return _load(args, kind)
    flags = [f"--{k}" for k in ("lattice", "complex", "crossed")
             if k in kinds]
    raise CliInputError(f"{args.command} needs {', '.join(flags[:-1])} "
                        f"or {flags[-1]}")


def _subgroup(text: str, group) -> SubgroupHandle:
    """The subgroup of ``group`` named by a --subgroup member list;
    ``SubgroupHandle`` refuses members that are not its element ids."""
    try:
        members = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise CliInputError(f"bad subgroup member list {text!r}")
    return SubgroupHandle(group, members)


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        print(serialize.to_json({**payload, "command": args.command,
                                 "format": "galmod-report-1"}))
    else:
        for line in text_lines:
            print(line)


def _acting(args, group):
    """The acting group: ``group``, or its subgroup given by --subgroup."""
    if args.subgroup is None:
        return group
    return _subgroup(args.subgroup, group)


def cmd_cohomology(args):
    """H^n (``cohomology``), Tate H^n (``tate``) or hypercohomology H^n
    (``hyper``) of the coefficient object."""
    compute = {"cohomology": group_cohomology, "tate": tate_cohomology,
               "hyper": hypercohomology}[args.command]
    coeff = _coefficient(args, "lattice", "complex")
    if getattr(args, "group", None):
        grp = _load(args, "group")
        if not grp.same_table(coeff.group):
            raise CliInputError("--group does not match the lattice group")
    factors = list(compute(_acting(args, coeff.group), coeff,
                           args.degree).invariant_factors)
    _emit(args, [f"invariant factors: {factors}"],
          {"degree": args.degree, "invariant_factors": factors})
    return EXIT_OK


def cmd_classify(args):
    lat = _load(args, "lattice")
    verdict = classify(lat, args.mode)
    lines = [f"{args.mode}: {'yes' if verdict.ok else 'no'}"]
    for members, factors in verdict.table:
        lines.append(f"  subgroup {list(members)}: factors {list(factors)}")
    _emit(args, lines,
          {"mode": args.mode, "ok": verdict.ok,
           "table": [[list(m), list(f)] for m, f in verdict.table]})
    return EXIT_OK if verdict.ok else EXIT_FALSE


def cmd_resolve(args):
    """``resolve-coflasque`` or ``resolve-flasque``, by command."""
    t = _load(args, "complex")
    resolved, cert = (coflasque_resolution(t)
                      if args.command == "resolve-coflasque"
                      else flasque_resolution(t))
    cert_obj = serialize.dump_certificate(cert)
    replay_ok = None
    if args.verify_certificate:
        replay_ok = replay_certificate(
            serialize.load_certificate(cert_obj, args.size_limit))
    lines = [
        f"resolved: [{resolved.l1.rank} -> {resolved.l2.rank}]",
        "differential:",
    ]
    for row in resolved.differential.matrix:
        lines.append("  " + " ".join(str(x) for x in row))
    lines.append(f"moves: {len(cert.moves)} "
                 f"({', '.join(m.kind for m in cert.moves)})")
    lines.append(f"certificate valid: {'yes' if cert.valid else 'no'}")
    if replay_ok is not None:
        lines.append(f"replay: {'ok' if replay_ok else 'FAILED'}")
    _emit(args, lines,
          {"resolved": serialize.dump_complex(resolved),
           "certificate": cert_obj,
           "replay": replay_ok})
    if not cert.valid or replay_ok is False:
        return EXIT_FALSE
    return EXIT_OK


def cmd_invariants(args):
    data = r_equivalence_invariant(_load(args, "complex"))
    lines = [f"flasque lattice rank: {data.flasque_lattice.rank}"]
    table = []
    for members, tate, h1 in data.table:
        lines.append(f"  subgroup {list(members)}: tate^-1 {list(tate)} "
                     f"h1 {list(h1)}")
        table.append([list(members), list(tate), list(h1)])
    _emit(args, lines,
          {"flasque_rank": data.flasque_lattice.rank, "table": table})
    return EXIT_OK


def cmd_crossed_h0(args):
    c = _load(args, "crossed")
    hz = h_zero(c, args.bound)
    hm = h_minus_one(c)
    lines = [f"H^-1 order: {hm.order}",
             f"H^0 order: {hz.order}",
             f"H^0 class representatives: {list(hz.representatives)}"]
    _emit(args, lines,
          {"h_minus_one_order": hm.order,
           "h_zero_order": hz.order,
           "representatives": serialize.deep_list(hz.representatives)})
    return EXIT_OK


def cmd_mv_report(args):
    graph = _load(args, "graph")
    coeff = _coefficient(args, "crossed", "complex")
    if args.crossed:
        rep = crossed_six_term_report(graph, coeff, args.bound)
        sha_sizes = [len(s.classes) for s in rep.sha_groups]
    else:
        rep = nine_term_report(graph, coeff)
        sha_sizes = [list(s.invariant_factors) for s in rep.sha_groups]
    lines = []
    for i, r in enumerate(rep.degrees):
        mid = rep.exact_at_middle[i]
        lines.append(
            f"degree {r}: composition zero {rep.composition_zero[i]}, "
            f"exact at left "
            f"{rep.exact_at_left[i] if rep.exact_at_left[i] is not None else 'not evaluated'}, "
            f"exact at middle {mid[0]}, sha {sha_sizes[i]}")
    lines.append(f"not evaluated: {list(rep.not_evaluated)}")
    _emit(args, lines,
          {"degrees": list(rep.degrees),
           "composition_zero": list(rep.composition_zero),
           "exact_at_left": list(rep.exact_at_left),
           "exact_at_middle": [[m[0], serialize.deep_list(m[1])]
                               for m in rep.exact_at_middle],
           "sha": sha_sizes,
           "not_evaluated": [list(x) for x in rep.not_evaluated]})
    return EXIT_OK


def cmd_sha(args):
    graph = _load(args, "graph")
    coeff = _coefficient(args, "lattice", "complex", "crossed")
    result = sha(graph, coeff, args.degree, args.bound)
    if hasattr(result, "invariant_factors"):
        lines = [f"invariant factors: {list(result.invariant_factors)}"]
        payload = {"degree": args.degree,
                   "invariant_factors": list(result.invariant_factors)}
    else:
        lines = [f"kernel classes: {list(result.classes)} "
                 f"(order {len(result.classes)})"]
        payload = {"degree": args.degree, "classes": list(result.classes)}
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_remark_compare(args):
    graph = _load(args, "graph")
    rep = remark_compare(graph, _load(args, "complex"))
    lines = [
        f"sha1(complex): {list(rep.sha1_complex.invariant_factors)}",
        f"sha2(flasque): {list(rep.sha2_flasque.invariant_factors)}",
        f"cokernel: {list(rep.cokernel_factors)}",
        f"all agree: {rep.all_agree}",
        f"permutation H1 vanishes: {rep.perm_h1_vanishes}",
        f"permutation sha2: {list(rep.perm_sha2.invariant_factors)}",
        f"hypotheses hold: {rep.hypotheses_hold}",
    ]
    _emit(args, lines,
          {"sha1": list(rep.sha1_complex.invariant_factors),
           "sha2_flasque": list(rep.sha2_flasque.invariant_factors),
           "cokernel": list(rep.cokernel_factors),
           "all_agree": rep.all_agree,
           "perm_h1_vanishes": rep.perm_h1_vanishes,
           "perm_sha2": list(rep.perm_sha2.invariant_factors),
           "hypotheses_hold": rep.hypotheses_hold})
    return EXIT_OK


def cmd_refine(args):
    graph = _load(args, "graph")
    try:
        refined = refine_graph(graph, _subgroup(args.subgroup, graph.gamma))
    except GraphSplitError as split:
        lines = [str(split)]
        for k, comp in enumerate(split.components):
            where = ", ".join("{} (vertex {}, coset {})".format(
                i, *split.witnesses[i]) for i in comp)
            lines.append(f"  component {k}: refined vertices {where}")
        _emit(args, lines,
              {"connected": False, "components": split.components,
               "witnesses": [list(w) for w in split.witnesses]})
        return EXIT_FALSE
    lines = [f"refined: {refined.n_vertices} vertices, "
             f"{refined.n_edges} edges"]
    for i, v in enumerate(refined.vertices):
        lines.append(f"  vertex {i}: subgroup {list(v.members)}")
    for head, tail, e in refined.edges:
        lines.append(f"  edge {head} -> {tail}: subgroup {list(e.members)}")
    _emit(args, lines, serialize.dump_graph(refined))
    return EXIT_OK


def cmd_shapiro(args):
    gamma = _load(args, "group")
    h = _subgroup(args.subgroup, gamma)
    # induce refuses a lattice over another group (MembershipError)
    lat = (_load(args, "lattice") if args.lattice
           else trivial_lattice(h.as_group()))
    verdict = shapiro_compare(gamma, h, lat, args.degree)
    lines = [
        f"induced side: {list(verdict.induced_side.invariant_factors)}",
        f"subgroup side: {list(verdict.subgroup_side.invariant_factors)}",
        f"isomorphic: {verdict.isomorphic}",
    ]
    _emit(args, lines,
          {"degree": args.degree,
           "induced": list(verdict.induced_side.invariant_factors),
           "subgroup": list(verdict.subgroup_side.invariant_factors),
           "isomorphic": verdict.isomorphic})
    return EXIT_OK if verdict.isomorphic else EXIT_FALSE


def cmd_sylow_cyclic(args):
    ok = sylow_all_cyclic(_load(args, "group"))
    _emit(args, [f"all Sylow subgroups cyclic: {ok}"], {"result": ok})
    return EXIT_OK if ok else EXIT_FALSE


def cmd_snf(args):
    if args.matrix:
        obj = _read_json(args.matrix)
    else:
        try:
            obj = json.load(sys.stdin)
        except json.JSONDecodeError as e:
            raise CliInputError(f"bad matrix on stdin: {e}")
    rows = obj.get("matrix") if isinstance(obj, dict) else obj
    res = la.smith_normal_form(serialize.parse_matrix(rows, "matrix"))
    lines = [f"diagonal: {list(res.diagonal)}",
             f"invariant factors: {list(res.invariant_factors)}"]
    _emit(args, lines,
          {"diagonal": list(res.diagonal),
           "invariant_factors": list(res.invariant_factors),
           "U": [list(r) for r in res.U],
           "V": [list(r) for r in res.V]})
    return EXIT_OK


def cmd_fixtures(args):
    rows = fixtures.catalog_listing()
    lines = [f"{kind:8s} {name:28s} {desc}" for kind, name, desc in rows]
    _emit(args, lines, {"entries": [list(r) for r in rows]})
    return EXIT_OK


# Each subcommand: its handler, then its flags in the order --help lists
# them; a trailing "!" marks a required flag.
COMMANDS = {
    "cohomology": (cmd_cohomology, "group", "lattice!", "subgroup",
                   "degree!"),
    "tate": (cmd_cohomology, "lattice!", "subgroup", "degree!"),
    "hyper": (cmd_cohomology, "complex!", "subgroup", "degree!"),
    "classify": (cmd_classify, "lattice!", "mode!"),
    "resolve-coflasque": (cmd_resolve, "complex!", "verify-certificate"),
    "resolve-flasque": (cmd_resolve, "complex!", "verify-certificate"),
    "invariants": (cmd_invariants, "complex!"),
    "crossed-h0": (cmd_crossed_h0, "crossed!"),
    "mv-report": (cmd_mv_report, "graph!", "complex", "crossed"),
    "sha": (cmd_sha, "graph!", "lattice", "complex", "crossed", "degree!"),
    "remark-compare": (cmd_remark_compare, "graph!", "complex!"),
    "refine": (cmd_refine, "graph!", "subgroup!"),
    "shapiro": (cmd_shapiro, "group!", "subgroup!", "lattice", "degree!"),
    "sylow-cyclic": (cmd_sylow_cyclic, "group!"),
    "snf": (cmd_snf, "matrix"),
    "fixtures": (cmd_fixtures,),
}

# argparse options beyond a plain string value
_FLAG_OPTIONS = {
    "degree": {"type": int},
    "mode": {"choices": ["flasque", "coflasque"]},
    "verify-certificate": {"action": "store_true"},
}

# Input found wrong while it was loaded or parsed: exit 2.  Any other
# exception, a ValueError or KeyError from a computation included, is an
# internal error.
_INPUT_ERRORS = (CliInputError, FormatError, ModelError, MembershipError,
                 EquivarianceError, UnsupportedDegreeError,
                 UnsupportedCoefficientsError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galmod",
        description="Galois-module cohomology workbench")
    sub = parser.add_subparsers(dest="command")
    for command, (_, *flags) in COMMANDS.items():
        p = sub.add_parser(command)
        for flag in flags:
            name = flag.rstrip("!")
            p.add_argument(f"--{name}", required=flag.endswith("!"),
                           **_FLAG_OPTIONS.get(name, {}))
        p.add_argument("--format", choices=["text", "json"],
                       default="text")
        p.add_argument("--size-limit", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage()
        return EXIT_INPUT
    # --size-limit bounds group closure and crossed-module enumeration,
    # each with its own default
    if args.size_limit is not None and args.size_limit <= 0:
        print(f"input error: --size-limit must be positive, got "
              f"{args.size_limit}", file=sys.stderr)
        return EXIT_INPUT
    args.bound = args.size_limit or DEFAULT_ENUMERATION_BOUND
    args.size_limit = args.size_limit or DEFAULT_SIZE_LIMIT
    try:
        return COMMANDS[args.command][0](args)
    except SizeLimitError as e:
        print(f"size limit exceeded: {e}", file=sys.stderr)
        return EXIT_SIZE
    except _INPUT_ERRORS as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        # never let a failure pass for the negative verdict of exit 1;
        # the message alone, since str() of a KeyError quotes it
        detail = e.args[0] if len(e.args) == 1 else e
        print(f"internal error: {type(e).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

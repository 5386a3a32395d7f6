"""Command-line interface.

Every object flag takes either a file path or a ``fixtures:NAME``
reference into the built-in catalog.  Exit codes: 0 success, 1 a check
computed the verdict "false" (for ``refine``: the refined graph splits
into several connected components, which are printed), 2 input error, 3
size-limit exceeded, 4 internal error.
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
from .lattice import EquivarianceError
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


def _read(flag_value: str, kind: str, size_limit: int):
    if flag_value.startswith("fixtures:"):
        try:
            return fixtures.lookup(kind, flag_value[len("fixtures:"):])
        except KeyError as e:
            raise CliInputError(str(e))
    try:
        obj = serialize.read_file(flag_value)
    except (OSError, json.JSONDecodeError) as e:
        raise CliInputError(f"cannot read {flag_value}: {e}")
    loaders = {
        "group": serialize.load_group,
        "lattice": serialize.load_lattice,
        "complex": serialize.load_complex,
        "crossed": serialize.load_crossed,
        "graph": serialize.load_graph,
    }
    try:
        return loaders[kind](obj, size_limit)
    except (TypeError, ValueError, KeyError) as e:
        raise CliInputError(f"malformed {kind} in {flag_value}: "
                            f"{type(e).__name__}: {e}")


def _load(flag_value: str, kind: str, size_limit: int):
    """Read an object and reject it unless it is what it claims to be:
    the cohomology code relies on a genuine group action."""
    obj = _read(flag_value, kind, size_limit)
    if kind == "lattice":
        obj.validate()
    elif kind == "complex":
        obj.l1.validate()
        obj.l2.validate()
        obj.differential.validate()
    elif kind == "crossed":
        verdict = validate_crossed_module(obj)
        if not verdict.ok:
            raise CliInputError(
                f"invalid crossed module: {verdict.failure[0]}")
    return obj


def _subgroup(text: str, group) -> SubgroupHandle:
    """The subgroup of ``group`` named by a --subgroup member list."""
    try:
        members = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise CliInputError(f"bad subgroup member list {text!r}")
    bad = [g for g in members if not 0 <= g < group.order]
    if bad:
        raise CliInputError(f"subgroup members {bad} are not elements of "
                            f"a group of order {group.order}")
    return SubgroupHandle(group, members)


def _emit(args, text_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        payload["format"] = "galmod-report-1"
        print(serialize.to_json(payload))
    else:
        for line in text_lines:
            print(line)


def _factors(cg) -> list[int]:
    return list(cg.invariant_factors)


def _acting(args, group):
    """The acting group: ``group``, or its subgroup given by --subgroup."""
    if args.subgroup is None:
        return group
    return _subgroup(args.subgroup, group)


def cmd_cohomology(args, size_limit):
    lat = _load(args.lattice, "lattice", size_limit)
    if args.group:
        grp = _load(args.group, "group", size_limit)
        if grp.table != lat.group.table:
            raise CliInputError("--group does not match the lattice group")
    cg = group_cohomology(_acting(args, lat.group), lat, args.degree)
    _emit(args, [f"invariant factors: {_factors(cg)}"],
          {"command": "cohomology", "degree": args.degree,
           "invariant_factors": _factors(cg)})
    return EXIT_OK


def cmd_tate(args, size_limit):
    lat = _load(args.lattice, "lattice", size_limit)
    cg = tate_cohomology(_acting(args, lat.group), lat, args.degree)
    _emit(args, [f"invariant factors: {_factors(cg)}"],
          {"command": "tate", "degree": args.degree,
           "invariant_factors": _factors(cg)})
    return EXIT_OK


def cmd_hyper(args, size_limit):
    t = _load(args.complex, "complex", size_limit)
    cg = hypercohomology(_acting(args, t.group), t, args.degree)
    _emit(args, [f"invariant factors: {_factors(cg)}"],
          {"command": "hyper", "degree": args.degree,
           "invariant_factors": _factors(cg)})
    return EXIT_OK


def cmd_classify(args, size_limit):
    lat = _load(args.lattice, "lattice", size_limit)
    verdict = classify(lat, args.mode)
    lines = [f"{args.mode}: {'yes' if verdict.ok else 'no'}"]
    for members, factors in verdict.table:
        lines.append(f"  subgroup {list(members)}: factors {list(factors)}")
    _emit(args, lines,
          {"command": "classify", "mode": args.mode, "ok": verdict.ok,
           "table": [[list(m), list(f)] for m, f in verdict.table]})
    return EXIT_OK if verdict.ok else EXIT_FALSE


def _resolve(args, size_limit, mode):
    t = _load(args.complex, "complex", size_limit)
    resolved, cert = (coflasque_resolution(t) if mode == "coflasque"
                      else flasque_resolution(t))
    cert_obj = serialize.dump_certificate(cert)
    replay_ok = None
    if args.verify_certificate:
        replay_ok = replay_certificate(
            serialize.load_certificate(cert_obj, size_limit))
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
          {"command": f"resolve-{mode}",
           "resolved": serialize.dump_complex(resolved),
           "certificate": cert_obj,
           "replay": replay_ok})
    if not cert.valid or replay_ok is False:
        return EXIT_FALSE
    return EXIT_OK


def cmd_resolve_coflasque(args, size_limit):
    return _resolve(args, size_limit, "coflasque")


def cmd_resolve_flasque(args, size_limit):
    return _resolve(args, size_limit, "flasque")


def cmd_invariants(args, size_limit):
    t = _load(args.complex, "complex", size_limit)
    data = r_equivalence_invariant(t)
    lines = [f"flasque lattice rank: {data.flasque_lattice.rank}"]
    table = []
    for members, tate, h1 in data.table:
        lines.append(f"  subgroup {list(members)}: tate^-1 {list(tate)} "
                     f"h1 {list(h1)}")
        table.append([list(members), list(tate), list(h1)])
    _emit(args, lines,
          {"command": "invariants",
           "flasque_rank": data.flasque_lattice.rank, "table": table})
    return EXIT_OK


def _enumeration_bound(args) -> int:
    """--size-limit also caps crossed-module enumeration (H^0 cocycles and
    the vertex product of the six-term report)."""
    return args.size_limit or DEFAULT_ENUMERATION_BOUND


def cmd_crossed_h0(args, size_limit):
    c = _load(args.crossed, "crossed", size_limit)
    hz = h_zero(c, _enumeration_bound(args))
    hm = h_minus_one(c)
    lines = [f"H^-1 order: {hm.order}",
             f"H^0 order: {hz.order}",
             f"H^0 class representatives: {list(hz.representatives)}"]
    _emit(args, lines,
          {"command": "crossed-h0",
           "h_minus_one_order": hm.order,
           "h_zero_order": hz.order,
           "representatives": serialize.deep_list(hz.representatives)})
    return EXIT_OK


def cmd_mv_report(args, size_limit):
    graph = _load(args.graph, "graph", size_limit)
    if args.crossed:
        c = _load(args.crossed, "crossed", size_limit)
        rep = crossed_six_term_report(graph, c, _enumeration_bound(args))
        sha_sizes = [len(s.classes) for s in rep.sha_groups]
    else:
        if not args.complex:
            raise CliInputError("mv-report needs --complex or --crossed")
        t = _load(args.complex, "complex", size_limit)
        rep = nine_term_report(graph, t)
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
          {"command": "mv-report", "degrees": list(rep.degrees),
           "composition_zero": list(rep.composition_zero),
           "exact_at_left": list(rep.exact_at_left),
           "exact_at_middle": [[m[0], serialize.deep_list(m[1])]
                               for m in rep.exact_at_middle],
           "sha": sha_sizes,
           "not_evaluated": [list(x) for x in rep.not_evaluated]})
    return EXIT_OK


def cmd_sha(args, size_limit):
    graph = _load(args.graph, "graph", size_limit)
    if args.lattice:
        coeff = _load(args.lattice, "lattice", size_limit)
    elif args.complex:
        coeff = _load(args.complex, "complex", size_limit)
    elif args.crossed:
        coeff = _load(args.crossed, "crossed", size_limit)
    else:
        raise CliInputError("sha needs --lattice, --complex or --crossed")
    result = sha(graph, coeff, args.degree, _enumeration_bound(args))
    if hasattr(result, "invariant_factors"):
        lines = [f"invariant factors: {list(result.invariant_factors)}"]
        payload = {"command": "sha", "degree": args.degree,
                   "invariant_factors": list(result.invariant_factors)}
    else:
        lines = [f"kernel classes: {list(result.classes)} "
                 f"(order {len(result.classes)})"]
        payload = {"command": "sha", "degree": args.degree,
                   "classes": list(result.classes)}
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_remark_compare(args, size_limit):
    graph = _load(args.graph, "graph", size_limit)
    t = _load(args.complex, "complex", size_limit)
    rep = remark_compare(graph, t)
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
          {"command": "remark-compare",
           "sha1": list(rep.sha1_complex.invariant_factors),
           "sha2_flasque": list(rep.sha2_flasque.invariant_factors),
           "cokernel": list(rep.cokernel_factors),
           "all_agree": rep.all_agree,
           "perm_h1_vanishes": rep.perm_h1_vanishes,
           "perm_sha2": list(rep.perm_sha2.invariant_factors),
           "hypotheses_hold": rep.hypotheses_hold})
    return EXIT_OK


def cmd_refine(args, size_limit):
    graph = _load(args.graph, "graph", size_limit)
    try:
        refined = refine_graph(graph, _subgroup(args.subgroup, graph.gamma))
    except GraphSplitError as split:
        lines = [str(split)]
        for k, comp in enumerate(split.components):
            where = ", ".join("{} (vertex {}, coset {})".format(
                i, *split.witnesses[i]) for i in comp)
            lines.append(f"  component {k}: refined vertices {where}")
        _emit(args, lines,
              {"command": "refine", "connected": False,
               "components": split.components,
               "witnesses": [list(w) for w in split.witnesses]})
        return EXIT_FALSE
    lines = [f"refined: {refined.n_vertices} vertices, "
             f"{refined.n_edges} edges"]
    for i, v in enumerate(refined.vertices):
        lines.append(f"  vertex {i}: subgroup {list(v.members)}")
    for head, tail, e in refined.edges:
        lines.append(f"  edge {head} -> {tail}: subgroup {list(e.members)}")
    payload = serialize.dump_graph(refined)
    payload["command"] = "refine"
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_shapiro(args, size_limit):
    gamma = _load(args.group, "group", size_limit)
    h = _subgroup(args.subgroup, gamma)
    if args.lattice:
        lat = _load(args.lattice, "lattice", size_limit)
        if lat.group.table != h.as_group().table:
            raise CliInputError(
                "lattice group does not match the subgroup")
    else:
        from .lattice import trivial_lattice
        lat = trivial_lattice(h.as_group())
    verdict = shapiro_compare(gamma, h, lat, args.degree)
    lines = [
        f"induced side: {list(verdict.induced_side.invariant_factors)}",
        f"subgroup side: {list(verdict.subgroup_side.invariant_factors)}",
        f"isomorphic: {verdict.isomorphic}",
    ]
    _emit(args, lines,
          {"command": "shapiro", "degree": args.degree,
           "induced": list(verdict.induced_side.invariant_factors),
           "subgroup": list(verdict.subgroup_side.invariant_factors),
           "isomorphic": verdict.isomorphic})
    return EXIT_OK if verdict.isomorphic else EXIT_FALSE


def cmd_sylow_cyclic(args, size_limit):
    g = _load(args.group, "group", size_limit)
    ok = sylow_all_cyclic(g)
    _emit(args, [f"all Sylow subgroups cyclic: {ok}"],
          {"command": "sylow-cyclic", "result": ok})
    return EXIT_OK if ok else EXIT_FALSE


def cmd_snf(args, size_limit):
    if args.matrix:
        try:
            obj = serialize.read_file(args.matrix)
        except (OSError, json.JSONDecodeError) as e:
            raise CliInputError(f"cannot read {args.matrix}: {e}")
    else:
        try:
            obj = json.load(sys.stdin)
        except json.JSONDecodeError as e:
            raise CliInputError(f"bad matrix on stdin: {e}")
    rows = obj["matrix"] if isinstance(obj, dict) else obj
    res = la.smith_normal_form(serialize.parse_matrix(rows, "matrix"))
    lines = [f"diagonal: {list(res.diagonal)}",
             f"invariant factors: {list(res.invariant_factors)}"]
    _emit(args, lines,
          {"command": "snf", "diagonal": list(res.diagonal),
           "invariant_factors": list(res.invariant_factors),
           "U": [list(r) for r in res.U],
           "V": [list(r) for r in res.V]})
    return EXIT_OK


def cmd_fixtures(args, size_limit):
    rows = fixtures.catalog_listing()
    lines = [f"{kind:8s} {name:28s} {desc}" for kind, name, desc in rows]
    _emit(args, lines,
          {"command": "fixtures",
           "entries": [list(r) for r in rows]})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galmod",
        description="Galois-module cohomology workbench")
    sub = parser.add_subparsers(dest="command")

    def add(name, func, *flags):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        for flag in flags:
            if flag == "degree":
                p.add_argument("--degree", type=int, required=True)
            elif flag == "mode":
                p.add_argument("--mode", required=True,
                               choices=["flasque", "coflasque"])
            elif flag == "verify-certificate":
                p.add_argument("--verify-certificate", action="store_true")
            elif flag in ("group", "lattice", "complex", "graph",
                          "crossed", "subgroup", "matrix"):
                required = flag in _REQUIRED.get(name, ())
                p.add_argument(f"--{flag}", required=required)
        p.add_argument("--format", choices=["text", "json"],
                       default="text")
        p.add_argument("--size-limit", type=int, default=None)
        return p

    add("cohomology", cmd_cohomology, "group", "lattice", "subgroup",
        "degree")
    add("tate", cmd_tate, "lattice", "subgroup", "degree")
    add("hyper", cmd_hyper, "complex", "subgroup", "degree")
    add("classify", cmd_classify, "lattice", "mode")
    add("resolve-coflasque", cmd_resolve_coflasque, "complex",
        "verify-certificate")
    add("resolve-flasque", cmd_resolve_flasque, "complex",
        "verify-certificate")
    add("invariants", cmd_invariants, "complex")
    add("crossed-h0", cmd_crossed_h0, "crossed")
    add("mv-report", cmd_mv_report, "graph", "complex", "crossed")
    add("sha", cmd_sha, "graph", "lattice", "complex", "crossed",
        "degree")
    add("remark-compare", cmd_remark_compare, "graph", "complex")
    add("refine", cmd_refine, "graph", "subgroup")
    add("shapiro", cmd_shapiro, "group", "subgroup", "lattice", "degree")
    add("sylow-cyclic", cmd_sylow_cyclic, "group")
    add("snf", cmd_snf, "matrix")
    add("fixtures", cmd_fixtures)
    return parser


_REQUIRED = {
    "cohomology": ("lattice",),
    "tate": ("lattice",),
    "hyper": ("complex",),
    "classify": ("lattice",),
    "resolve-coflasque": ("complex",),
    "resolve-flasque": ("complex",),
    "invariants": ("complex",),
    "crossed-h0": ("crossed",),
    "mv-report": ("graph",),
    "sha": ("graph",),
    "remark-compare": ("graph", "complex"),
    "refine": ("graph", "subgroup"),
    "shapiro": ("group", "subgroup"),
    "sylow-cyclic": ("group",),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage()
        return EXIT_INPUT
    size_limit = args.size_limit or DEFAULT_SIZE_LIMIT
    try:
        return args.func(args, size_limit)
    except SizeLimitError as e:
        print(f"size limit exceeded: {e}", file=sys.stderr)
        return EXIT_SIZE
    except (CliInputError, FormatError, ModelError, MembershipError,
            EquivarianceError, UnsupportedDegreeError,
            UnsupportedCoefficientsError, ValueError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        # never let a failure pass for the negative verdict of exit 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

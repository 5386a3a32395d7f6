"""JSON (de)serialization for every object the command line accepts or
emits.

Each schema carries a top-level ``format`` version field.  Group fields
accept either an inline group object, a ``fixtures:NAME`` reference, or
(for input only) one-line cycle notation generators.

The loaders check JSON types, ``format`` tags, the size bound and the
structure of a certificate.  Element ids and table shapes are refused by
the constructors that index with them (``FiniteGroup.verify``,
``FiniteCrossedModule``, ``SubgroupHandle``, ``build_patching_graph``),
so a library caller gets the refusal a file gets.

A certificate crosses the JSON boundary with no dense or repeated copy.
``dump_certificate`` writes ``galmod-certificate-2``: the group once, a
``lattices`` table that lists each distinct lattice (rank and generator
rows, keyed by content) once, and each complex as two indices into it and
its differential.  Every matrix is a list of sparse rows, each the flat
list [col, val, col, val, ...] of its nonzero entries with columns
strictly increasing, rendered from the lattices' sparse rows and the
maps' nonzero entries without a dense row.  ``to_json`` is one
``json.dumps`` with sorted keys and fixed separators.  ``load_certificate``
loads the group once and each table lattice once (``GLattice.from_rows``),
refusing rows off the grammar.  A format-1 certificate (each complex with
its group dump and dense lattice bodies, written before format 2) is read
by translation into format-2 data, so one loader checks both; its
complexes must share one group table and generators.
"""

from __future__ import annotations

import json
from itertools import chain, compress

from . import intlinalg as la
from .complexes import (CertificateMove, MoveEvidence,
                        ResolutionCertificate, TwoTermComplex)
from .crossed import FiniteCrossedModule
from .groups import (DEFAULT_SIZE_LIMIT, FiniteGroup, SizeLimitError,
                     SubgroupHandle, group_from_cycles, group_from_table)
from .lattice import GLattice, LatticeMap
from .patching import PatchingGraph, build_patching_graph

GROUP_FORMAT = "galmod-group-1"
LATTICE_FORMAT = "galmod-lattice-1"
COMPLEX_FORMAT = "galmod-complex-1"
CROSSED_FORMAT = "galmod-crossed-1"
GRAPH_FORMAT = "galmod-graph-1"
CERTIFICATE_FORMAT = "galmod-certificate-2"
CERTIFICATE_FORMAT_1 = "galmod-certificate-1"  # still read


class FormatError(Exception):
    """The input does not match the documented schema."""


def _expect(obj: dict, fmt: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"expected an object with format {fmt!r}")
    if obj.get("format") != fmt:
        raise FormatError(
            f"expected format {fmt!r}, found {obj.get('format')!r}")


def _int(x, what: str) -> int:
    """An integer read from input; a float, bool or string is refused, not
    truncated."""
    if type(x) is not int:
        raise FormatError(f"{what} must be an integer, found {x!r}")
    return x


def _container(x, kind: type, what: str):
    """``x`` itself, refused unless its type is ``kind``: dict or list."""
    if type(x) is not kind:
        raise FormatError(f"{what} must be a {kind.__name__}, found "
                          f"{type(x).__name__}")
    return x


def _check_ints(rows, what: str) -> None:
    """Refuse rows whose entries are not all ints.  The entries' types
    are checked as one set; only refused rows are walked, to name their
    first entry that is not an int."""
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        _int(next(x for x in chain.from_iterable(rows)
                  if type(x) is not int), what)


def _dumped(m) -> list[list[int]]:
    """A library matrix or table as JSON rows; its entries are ints
    already."""
    return list(map(list, m))


def _matrix(obj, what: str) -> list[list[int]]:
    """``obj`` itself, refused unless it is a list of equally long lists
    of integers."""
    if not isinstance(obj, list) or not all(isinstance(row, list)
                                            for row in obj):
        raise FormatError(f"{what} must be a list of rows")
    if len({len(row) for row in obj}) > 1:
        raise FormatError(f"{what} has rows of different lengths")
    _check_ints(obj, f"{what} entry")
    return obj


def parse_matrix(obj, what: str) -> la.IntMatrix:
    """A list of equally long lists of integers, as an IntMatrix."""
    return tuple(map(tuple, _matrix(obj, what)))


def deep_tuple(x):
    """Lists to tuples, recursively; used to restore stored tables."""
    if isinstance(x, list):
        return tuple(deep_tuple(v) for v in x)
    return x


def deep_list(x):
    if isinstance(x, tuple):
        return [deep_list(v) for v in x]
    return x


# --- groups ----------------------------------------------------------------

def dump_group(g: FiniteGroup) -> dict:
    return {
        "format": GROUP_FORMAT,
        "name": g.name,
        "table": _dumped(g.table),
        "generators": list(g.generators),
        "labels": list(g.labels),
    }


def load_group(obj, size_limit: int = DEFAULT_SIZE_LIMIT) -> FiniteGroup:
    """Accepts an inline group object, a ``fixtures:NAME`` string, or a
    cycle-notation generator description."""
    if isinstance(obj, str):
        if obj.startswith("fixtures:"):
            from . import fixtures
            return fixtures.lookup("group", obj[len("fixtures:"):])
        raise FormatError(f"unrecognized group reference {obj!r}")
    if "table" in obj:
        _expect(obj, GROUP_FORMAT)
        # bound the order before any parse and the axiom check, O(n^2 k)
        # for k generators (every non-identity element when none given)
        n = len(obj["table"])
        if n > size_limit:
            raise SizeLimitError(f"group order {n} exceeds size limit "
                                 f"{size_limit}")
        if not n:
            raise FormatError("group table is empty")
        table = parse_matrix(obj["table"], "table")
        labels = obj.get("labels")
        if labels is not None and (
                not isinstance(labels, list) or len(labels) != n
                or not all(isinstance(x, str) for x in labels)):
            raise FormatError(f"labels must be a list of {n} strings")
        return group_from_table(table, obj.get("generators"),
                                obj.get("name", ""), labels)
    if "cycles" in obj:
        _expect(obj, GROUP_FORMAT)
        degree, texts = _int(obj["degree"], "degree"), obj["cycles"]
        if degree < 1:
            raise FormatError(f"degree must be positive, found {degree}")
        if not isinstance(texts, list) or not texts \
                or not all(isinstance(t, str) for t in texts):
            raise FormatError("cycles must be a non-empty list of strings")
        return group_from_cycles(texts, degree, size_limit,
                                 obj.get("name", ""))
    raise FormatError("group object needs either 'table' or 'cycles'")


# --- lattices, modules, complexes ------------------------------------------

def _dump_lattice_body(lat: GLattice) -> dict:
    """Rank and dense JSON action rows, rendered from the sparse rows; the
    lattice keeps no dense copy."""
    return {"rank": lat.rank, "action": [la.dense_lists(m, lat.rank)
                                         for m in lat.action_rows()]}


def _load_lattice_body(obj, group: FiniteGroup) -> GLattice:
    """A lattice built from its parsed action matrices, which ``GLattice``
    checks and reads into sparse rows; its dense ``action`` is built only
    if something reads it."""
    return GLattice(group, _int(obj["rank"], "rank"),
                    [_matrix(m, "action matrix") for m in obj["action"]])


def dump_lattice(lat: GLattice) -> dict:
    body = _dump_lattice_body(lat)
    body["format"] = LATTICE_FORMAT
    body["group"] = dump_group(lat.group)
    return body


def load_lattice(obj, size_limit: int = DEFAULT_SIZE_LIMIT) -> GLattice:
    _expect(obj, LATTICE_FORMAT)
    group = load_group(obj["group"], size_limit)
    return _load_lattice_body(obj, group)


def dump_complex(t: TwoTermComplex) -> dict:
    return {
        "format": COMPLEX_FORMAT,
        "group": dump_group(t.group),
        "l1": _dump_lattice_body(t.l1),
        "l2": _dump_lattice_body(t.l2),
        "differential": _dumped(t.differential.matrix),
    }


def load_complex(obj, size_limit: int = DEFAULT_SIZE_LIMIT
                 ) -> TwoTermComplex:
    _expect(obj, COMPLEX_FORMAT)
    group = load_group(obj["group"], size_limit)
    l1 = _load_lattice_body(obj["l1"], group)
    l2 = _load_lattice_body(obj["l2"], group)
    diff = parse_matrix(obj["differential"], "differential")
    return TwoTermComplex(l1, l2, LatticeMap(l1, l2, diff))


# --- crossed modules --------------------------------------------------------

def dump_crossed(c: FiniteCrossedModule) -> dict:
    return {
        "format": CROSSED_FORMAT,
        "g": dump_group(c.g),
        "h": dump_group(c.h),
        "galois": dump_group(c.galois),
        "boundary": list(c.boundary),
        "h_action": _dumped(c.h_action),
        "galois_on_g": _dumped(c.galois_on_g),
        "galois_on_h": _dumped(c.galois_on_h),
    }


def load_crossed(obj, size_limit: int = DEFAULT_SIZE_LIMIT
                 ) -> FiniteCrossedModule:
    _expect(obj, CROSSED_FORMAT)
    g = load_group(obj["g"], size_limit)
    h = load_group(obj["h"], size_limit)
    galois = load_group(obj["galois"], size_limit)
    (boundary,) = parse_matrix([obj["boundary"]], "boundary")
    return FiniteCrossedModule(
        g, h, boundary, parse_matrix(obj["h_action"], "h_action"), galois,
        parse_matrix(obj["galois_on_g"], "galois_on_g"),
        parse_matrix(obj["galois_on_h"], "galois_on_h"))


# --- patching graphs --------------------------------------------------------

def dump_graph(graph: PatchingGraph) -> dict:
    return {
        "format": GRAPH_FORMAT,
        "group": dump_group(graph.gamma),
        "vertices": [list(h.members) for h in graph.vertices],
        "edges": [[head, tail, list(h.members)]
                  for head, tail, h in graph.edges],
    }


def load_graph(obj, size_limit: int = DEFAULT_SIZE_LIMIT) -> PatchingGraph:
    _expect(obj, GRAPH_FORMAT)
    gamma = load_group(obj["group"], size_limit)
    vertices = [SubgroupHandle(gamma, mem) for mem in obj["vertices"]]
    edges = [(head, tail, SubgroupHandle(gamma, mem))
             for head, tail, mem in obj["edges"]]
    return build_patching_graph(gamma, vertices, edges)


# --- resolution certificates ------------------------------------------------

# the move kinds, and the side type each takes in format 1; a duality
# move alone has no maps.  Every side is a complex of lattices [A -> B];
# a format-1 square's side is stored in the "half" layout, its B as
# generators with one empty row of relations each.
_SIDE_TYPE = {"pushout-mono": "half", "pullback-epi": "half",
              "duality": "complex"}


def _map_rows(m: la.IntMatrix) -> list[list[int]]:
    """A dense library matrix as format-2 rows, read off its nonzero
    entries."""
    return [list(chain.from_iterable(compress(enumerate(row), row)))
            for row in m]


def dump_certificate(cert: ResolutionCertificate) -> dict:
    """The certificate as format-2 JSON data.  Lattices enter the table
    in order of first appearance over ``original``, ``resolved`` and each
    move's ``src`` and ``tgt``, l1 before l2, and are keyed by content,
    so equal lattices held as distinct objects are listed once.  Format 2
    holds one group: complexes over another group table or generator
    list raise ValueError."""
    group = cert.original.group
    table: list[dict] = []
    index: dict[GLattice, int] = {}
    by_content: dict[tuple, int] = {}

    def lattice(lat: GLattice) -> int:
        if lat not in index:
            if not lat.group.same_presentation(group):
                raise ValueError("a format-2 certificate holds one group: "
                                 "its complexes must share one group table "
                                 "and generators")
            rows = [[list(chain.from_iterable(sorted(row.items())))
                     for row in m] for m in lat.action_rows()]
            index[lat] = by_content.setdefault(
                (lat.rank, tuple(map(tuple, chain.from_iterable(rows)))),
                len(table))
            if index[lat] == len(table):
                table.append({"rank": lat.rank, "action": rows})
        return index[lat]

    def complex_(t: TwoTermComplex) -> dict:
        return {"l1": lattice(t.l1), "l2": lattice(t.l2),
                "differential": _map_rows(t.differential.matrix)}

    original, resolved = complex_(cert.original), complex_(cert.resolved)
    moves = [{"kind": m.kind, "src": complex_(m.src), "tgt": complex_(m.tgt),
              "comp_minus1": (None if m.comp_minus1 is None
                              else _map_rows(m.comp_minus1)),
              "comp0": None if m.comp0 is None else _map_rows(m.comp0),
              "evidence": [m.evidence.hminus_ok, m.evidence.h0_ok]}
             for m in cert.moves]
    return {
        "format": CERTIFICATE_FORMAT,
        "mode": cert.mode,
        "group": dump_group(group),
        "lattices": table,
        "original": original,
        "resolved": resolved,
        "moves": moves,
        "vanishing_table": deep_list(cert.vanishing_table),
    }


def _rows(obj, nrows: int, ncols: int, what: str) -> tuple[dict, ...]:
    """``nrows`` format-2 rows as sparse rows {column: entry}, refused
    unless each is a flat list of ints [col, val, ...] whose columns
    increase strictly within 0..ncols-1 and whose values are nonzero."""
    if type(obj) is not list or len(obj) != nrows \
            or not all(type(row) is list for row in obj):
        raise FormatError(f"{what} must be a list of {nrows} rows")
    _check_ints(obj, f"{what} entry")
    rows = []
    for row in obj:
        cols, vals = row[::2], row[1::2]
        # -1 < c_0 < c_1 < ... < ncols: increasing, and each in range
        if len(cols) != len(vals) or 0 in vals or not all(
                map(int.__lt__, [-1] + cols, cols + [ncols])):
            raise FormatError(
                f"{what} row {row} is not [column, value, ...] with columns "
                f"increasing in 0..{ncols - 1} and nonzero values")
        rows.append(dict(zip(cols, vals)))
    return tuple(rows)


def _load_certificate_2(obj, group: FiniteGroup) -> ResolutionCertificate:
    """Format-2 data over ``group``: each table lattice is loaded once
    (``GLattice.from_rows``), and complexes share them by index; map rows
    become the dense ``LatticeMap`` and move matrices."""
    if obj["mode"] not in ("flasque", "coflasque"):
        raise FormatError(f"unknown certificate mode {obj['mode']!r}")
    lattices = []
    for body in _container(obj["lattices"], list, "lattices"):
        body = _container(body, dict, "a lattice")
        rank, action = _int(body["rank"], "rank"), body["action"]
        if type(action) is not list or len(action) != len(group.generators):
            raise FormatError("a lattice must list one action matrix per "
                              "group generator")
        lattices.append(GLattice.from_rows(group, rank, [
            _rows(m, rank, rank, "action matrix") for m in action]))

    def lattice(i) -> GLattice:
        if type(i) is not int or not 0 <= i < len(lattices):
            raise FormatError(f"lattice index must be an integer in "
                              f"0..{len(lattices) - 1}, found {i!r}")
        return lattices[i]

    def dense(rows, target: GLattice, source: GLattice, what: str):
        return la.dense_rows(_rows(rows, target.rank, source.rank, what),
                             source.rank)

    def complex_(c) -> TwoTermComplex:
        c = _container(c, dict, "a complex")
        l1, l2 = lattice(c["l1"]), lattice(c["l2"])
        return TwoTermComplex(l1, l2, LatticeMap(
            l1, l2, dense(c["differential"], l2, l1, "differential")))

    moves = []
    for m in _container(obj["moves"], list, "moves"):
        m = _container(m, dict, "a move")
        kind, ev = m["kind"], m["evidence"]
        if type(kind) is not str or kind not in _SIDE_TYPE:
            raise FormatError(f"unknown move kind {kind!r}")
        square = kind != "duality"
        if any((m[k] is None) == square for k in ("comp_minus1", "comp0")):
            raise FormatError(f"a {kind} move takes "
                              + ("both maps" if square else "no maps"))
        if not isinstance(ev, list) or len(ev) != 2 \
                or not all(type(x) is bool for x in ev):
            raise FormatError(f"move evidence must be two booleans, "
                              f"found {ev!r}")
        src, tgt = complex_(m["src"]), complex_(m["tgt"])
        cm1 = c0 = None
        if square:
            cm1 = dense(m["comp_minus1"], tgt.l1, src.l1, "comp_minus1")
            c0 = dense(m["comp0"], tgt.l2, src.l2, "comp0")
        moves.append(CertificateMove(kind, src, tgt, cm1, c0,
                                     MoveEvidence(*ev)))
    return ResolutionCertificate(
        obj["mode"], complex_(obj["original"]), complex_(obj["resolved"]),
        tuple(moves), deep_tuple(obj["vanishing_table"]))


def _shaped(obj, nrows: int, ncols: int, what: str) -> list[list[int]]:
    """``obj`` itself, refused unless it is an ``nrows`` x ``ncols`` matrix
    of integers: a short dense row is not read as zeros."""
    rows = _matrix(obj, what)
    if len(rows) != nrows or any(len(row) != ncols for row in rows):
        raise FormatError(f"{what} must be a {nrows} x {ncols} matrix")
    return rows


def _format_1_as_2(obj, size_limit: int) -> tuple[dict, FiniteGroup]:
    """A format-1 certificate as format-2 data and its one group.  Each
    distinct group dump (by ``==``, then its numbers checked as ints) is
    loaded once, and all must share one table and generators; equal
    lattice bodies share one table entry.  Refused here, as format 2
    cannot say them: a side of another type than its move kind takes, and
    a half side whose b has relations."""
    _expect(obj, CERTIFICATE_FORMAT_1)
    dumps, bodies, table = [], [], []

    def lattice(body) -> int:
        body = _container(body, dict, "a lattice")
        rank = _int(body["rank"], "rank")
        action = [_shaped(m, rank, rank, "action matrix")
                  for m in _container(body["action"], list, "action")]
        if (rank, action) not in bodies:
            bodies.append((rank, action))
            table.append({"rank": rank,
                          "action": list(map(_map_rows, action))})
        return bodies.index((rank, action))

    def complex_(c) -> dict:
        _expect(c, COMPLEX_FORMAT)
        dumps.append(c["group"])
        i, j = lattice(c["l1"]), lattice(c["l2"])
        return {"l1": i, "l2": j, "differential": _map_rows(_shaped(
            c["differential"], table[j]["rank"], table[i]["rank"],
            "differential"))}

    def side(s, kind) -> dict:
        s = _container(s, dict, "a side")
        if kind in _SIDE_TYPE and s["type"] != _SIDE_TYPE[kind]:
            raise FormatError(f"a {kind} move takes {_SIDE_TYPE[kind]} sides")
        if s["type"] == "complex":
            return complex_(s["value"])
        if s["type"] != "half":
            raise FormatError(f"unknown side type {s['type']!r}")
        b = _container(s["b"], dict, "a half side's b")
        rank = _int(b["ngens"], "ngens")
        if parse_matrix(b["relations"], "relations") != ((),) * rank:
            raise FormatError("a half side's b must be a lattice: one empty "
                              "row of relations per generator")
        return complex_({"format": COMPLEX_FORMAT, "group": s["group"],
                         "l1": s["a"], "differential": s["d"],
                         "l2": {"rank": rank, "action": b["action"]}})

    def move(m) -> dict:
        m = _container(m, dict, "a move")
        kind = m["kind"] if type(m["kind"]) is str else None
        src, tgt = side(m["src"], kind), side(m["tgt"], kind)

        def map_(k: str, part: str):
            return None if m[k] is None else _map_rows(_shaped(
                m[k], table[tgt[part]]["rank"], table[src[part]]["rank"], k))
        return {**m, "src": src, "tgt": tgt,
                "comp_minus1": map_("comp_minus1", "l1"),
                "comp0": map_("comp0", "l2")}

    data = {"mode": obj["mode"], "lattices": table,
            "original": complex_(obj["original"]),
            "resolved": complex_(obj["resolved"]),
            "moves": list(map(move, _container(obj["moves"], list, "moves"))),
            "vanishing_table": obj["vanishing_table"]}
    distinct = [d for i, d in enumerate(dumps) if d not in dumps[:i]]
    group, *others = [load_group(d, size_limit) for d in distinct]
    if not all(map(group.same_presentation, others)):
        raise FormatError("a certificate holds one group: its complexes "
                          "must share one group table and generators")
    for d in dumps:  # equal to a loaded dump, but maybe by a bool or float
        if type(d) is dict:
            _check_ints([[d.get("degree", 1), *(d.get("generators") or ())],
                         *d.get("table", ())], "group entry")
    return data, group


def load_certificate(obj, size_limit: int = DEFAULT_SIZE_LIMIT
                     ) -> ResolutionCertificate:
    """A certificate of format 2, or of format 1 translated into format-2
    data (``_format_1_as_2``); both load through ``_load_certificate_2``."""
    if isinstance(obj, dict) and obj.get("format") == CERTIFICATE_FORMAT_1:
        return _load_certificate_2(*_format_1_as_2(obj, size_limit))
    _expect(obj, CERTIFICATE_FORMAT)
    return _load_certificate_2(obj, load_group(obj["group"], size_limit))


# --- file helpers -----------------------------------------------------------

def to_json(obj) -> str:
    """Deterministic machine format: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)

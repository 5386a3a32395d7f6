"""JSON (de)serialization for every object the command line accepts or
emits.

Each schema carries a top-level ``format`` version field.  Group fields
accept either an inline group object, a ``fixtures:NAME`` reference, or
(for input only) one-line cycle notation generators.

A certificate crosses the JSON boundary with no dense or repeated copy:

- ``to_json`` writes in pieces.  It walks a non-empty dict whose keys
  are all ``str`` in sorted key order, and a non-empty list of dicts and
  matrices element by element; every other value (a matrix, a scalar,
  an int-keyed dict) goes whole through one encoder with the settings
  of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``.  The
  walk writes what that encoder writes for those layouts (brackets,
  separators, key order, ``encode_basestring_ascii`` key escapes), so
  the bytes cannot differ; only the largest piece encoded at once does.
- Dumps render each lattice's dense JSON rows from its sparse rows and
  cache nothing on it; ``dump_certificate`` renders a lattice once per
  call, and a lattice in several places puts one list in each.
- ``load_certificate`` shares one FiniteGroup per distinct group dump
  and one GLattice per distinct (group, rank, action) body, so replay
  checks each group and fills each lattice's caches once.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

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
CERTIFICATE_FORMAT = "galmod-certificate-1"


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


def _check_ints(rows, what: str) -> None:
    """Refuse rows whose entries are not all ints.  The entries' types
    are checked as one set; only refused rows are walked, to name their
    first entry that is not an int."""
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        _int(next(x for x in chain.from_iterable(rows)
                  if type(x) is not int), what)


def _rows(m, what: str) -> list[list[int]]:
    """Rows of integers read from input."""
    rows = list(map(list, m))
    _check_ints(rows, what)
    return rows


def _dumped(m) -> list[list[int]]:
    """A library matrix or table as JSON rows; its entries are ints
    already."""
    return list(map(list, m))


def _ids(values, bound: int, what: str) -> None:
    bad = [x for x in values if not 0 <= x < bound]
    if bad:
        raise FormatError(f"{what} {bad[0]} is not an element id in "
                          f"0..{bound - 1}")


def _id_rows(obj, n_rows: int, n_cols: int, bound: int,
             what: str) -> tuple[tuple[int, ...], ...]:
    """A table of element ids: ``n_rows`` rows of ``n_cols`` ids, each in
    0..bound-1, checked before anything indexes with them."""
    rows = deep_tuple(_rows(obj, f"{what} entry"))
    if len(rows) != n_rows or any(len(row) != n_cols for row in rows):
        raise FormatError(f"{what} must be {n_rows} rows of {n_cols} ids")
    _ids([x for row in rows for x in row], bound, f"{what} entry")
    return rows


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
        # bound the order and the ids before the axiom check, O(n^2 k)
        # for k generators (every non-identity element when none given)
        n = len(obj["table"])
        if n > size_limit:
            raise SizeLimitError(f"group order {n} exceeds size limit "
                                 f"{size_limit}")
        if not n:
            raise FormatError("group table is empty")
        table = _id_rows(obj["table"], n, n, n, "table")
        labels = obj.get("labels")
        if labels is not None and (
                not isinstance(labels, list) or len(labels) != n
                or not all(isinstance(x, str) for x in labels)):
            raise FormatError(f"labels must be a list of {n} strings")
        gens = obj.get("generators")
        if gens is not None:
            gens = tuple(_int(x, "generator") for x in gens)
            _ids(gens, n, "generator")
        return group_from_table(table, gens, obj.get("name", ""), labels)
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

def _action(lat: GLattice, memo: dict) -> list:
    """The generator matrices of ``lat`` as JSON rows, rendered from its
    sparse rows once per dump: ``memo`` maps each lattice the dump has
    met to its rows, so a lattice met again puts the same list in the
    dump.  The lattice keeps no dense copy."""
    if lat not in memo:
        memo[lat] = [la.dense_lists(m, lat.rank) for m in lat.action_rows()]
    return memo[lat]


def _dump_lattice_body(lat: GLattice, memo: dict) -> dict:
    return {"rank": lat.rank, "action": _action(lat, memo)}


def _lattice_body(obj) -> tuple[int, list]:
    """The rank and the parsed action matrices of a lattice body."""
    return (_int(obj["rank"], "rank"),
            [_matrix(m, "action matrix") for m in obj["action"]])


def _load_lattice_body(obj, group: FiniteGroup) -> GLattice:
    """A lattice built from its parsed action matrices, which ``GLattice``
    checks and reads into sparse rows; its dense ``action`` is built only
    if something reads it."""
    return GLattice(group, *_lattice_body(obj))


def dump_lattice(lat: GLattice) -> dict:
    body = _dump_lattice_body(lat, {})
    body["format"] = LATTICE_FORMAT
    body["group"] = dump_group(lat.group)
    return body


def load_lattice(obj, size_limit: int = DEFAULT_SIZE_LIMIT) -> GLattice:
    _expect(obj, LATTICE_FORMAT)
    group = load_group(obj["group"], size_limit)
    return _load_lattice_body(obj, group)


def dump_complex(t: TwoTermComplex) -> dict:
    return _dump_complex(t, {})


def _dump_complex(t: TwoTermComplex, memo: dict) -> dict:
    return {
        "format": COMPLEX_FORMAT,
        "group": dump_group(t.group),
        "l1": _dump_lattice_body(t.l1, memo),
        "l2": _dump_lattice_body(t.l2, memo),
        "differential": _dumped(t.differential.matrix),
    }


def load_complex(obj, size_limit: int = DEFAULT_SIZE_LIMIT
                 ) -> TwoTermComplex:
    return _load_complex(obj, lambda g: load_group(g, size_limit))


def _load_complex(obj, group_of,
                  lattice_of=_load_lattice_body) -> TwoTermComplex:
    """A complex whose group dump ``group_of`` loads and whose lattice
    bodies ``lattice_of`` loads."""
    _expect(obj, COMPLEX_FORMAT)
    group = group_of(obj["group"])
    l1 = lattice_of(obj["l1"], group)
    l2 = lattice_of(obj["l2"], group)
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
    (boundary,) = _id_rows([obj["boundary"]], 1, g.order, h.order,
                           "boundary")
    return FiniteCrossedModule(
        g, h, boundary,
        _id_rows(obj["h_action"], h.order, g.order, g.order, "h_action"),
        galois,
        _id_rows(obj["galois_on_g"], galois.order, g.order, g.order,
                 "galois_on_g"),
        _id_rows(obj["galois_on_h"], galois.order, h.order, h.order,
                 "galois_on_h"))


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
    def members(mem):
        mem = tuple(_int(x, "subgroup member") for x in mem)
        _ids(mem, gamma.order, "subgroup member")
        return mem

    vertices = [SubgroupHandle(gamma, members(mem))
                for mem in obj["vertices"]]
    edges = [(_int(head, "edge end"), _int(tail, "edge end"),
              SubgroupHandle(gamma, members(mem)))
             for head, tail, mem in obj["edges"]]
    return build_patching_graph(gamma, vertices, edges)


# --- resolution certificates ------------------------------------------------

# the side type each move kind takes; a duality move alone has no maps.
# Every side is a complex of lattices [A -> B]; a square's side is stored
# in the "half" layout, its B as generators with one empty row of
# relations each.
_SIDE_TYPE = {"pushout-mono": "half", "pullback-epi": "half",
              "duality": "complex"}


def _dump_side(side: TwoTermComplex, kind: str, memo: dict) -> dict:
    if _SIDE_TYPE[kind] == "complex":
        return {"type": "complex", "value": _dump_complex(side, memo)}
    b = side.l2
    return {"type": "half",
            "group": dump_group(side.group),
            "a": _dump_lattice_body(side.l1, memo),
            "d": _dumped(side.differential.matrix),
            "b": {"ngens": b.rank, "relations": [[] for _ in range(b.rank)],
                  "action": _action(b, memo)}}


def _load_side(obj, group_of, lattice_of=_load_lattice_body
               ) -> TwoTermComplex:
    if obj["type"] == "complex":
        return _load_complex(obj["value"], group_of, lattice_of)
    group = group_of(obj["group"])
    b = obj["b"]
    rank = _int(b["ngens"], "ngens")
    if parse_matrix(b["relations"], "relations") != ((),) * rank:
        raise FormatError("a half side's b must be a lattice: one empty "
                          "row of relations per generator")
    a = lattice_of(obj["a"], group)
    l2 = lattice_of({"rank": rank, "action": b["action"]}, group)
    return TwoTermComplex(a, l2, LatticeMap(
        a, l2, parse_matrix(obj["d"], "half-complex differential")))


def dump_certificate(cert: ResolutionCertificate) -> dict:
    """The certificate as JSON data.  Each lattice's rows are rendered
    once (``_action``): a lattice that several complexes share puts one
    list in each of their dumps."""
    memo: dict[GLattice, list] = {}
    moves = []
    for m in cert.moves:
        moves.append({
            "kind": m.kind,
            "src": _dump_side(m.src, m.kind, memo),
            "tgt": _dump_side(m.tgt, m.kind, memo),
            "comp_minus1": (None if m.comp_minus1 is None
                            else _dumped(m.comp_minus1)),
            "comp0": None if m.comp0 is None else _dumped(m.comp0),
            "evidence": [m.evidence.hminus_ok, m.evidence.h0_ok],
        })
    return {
        "format": CERTIFICATE_FORMAT,
        "mode": cert.mode,
        "original": _dump_complex(cert.original, memo),
        "resolved": _dump_complex(cert.resolved, memo),
        "moves": moves,
        "vanishing_table": deep_list(cert.vanishing_table),
    }


def load_certificate(obj, size_limit: int = DEFAULT_SIZE_LIMIT
                     ) -> ResolutionCertificate:
    """A certificate whose complexes share one FiniteGroup per distinct
    group dump, so that each group is checked once (``load_group``) and
    its tree, subgroup and Cayley caches serve every move.  Sides that
    carry different dumps get different groups.  Lattices are shared the
    same way: a lattice body with the same group, rank and action
    matrices (checked as integers first, then compared with ``==``) as
    one loaded before gives that GLattice, so that replay fills each
    lattice's caches once."""
    _expect(obj, CERTIFICATE_FORMAT)
    if obj["mode"] not in ("flasque", "coflasque"):
        raise FormatError(f"unknown certificate mode {obj['mode']!r}")
    groups: dict[str, FiniteGroup] = {}

    def group_of(dump):
        key = to_json(dump)
        if key not in groups:
            groups[key] = load_group(dump, size_limit)
        return groups[key]

    lattices: dict[tuple[FiniteGroup, int], list] = {}

    def lattice_of(body, group):
        rank, action = _lattice_body(body)
        seen = lattices.setdefault((group, rank), [])
        for known, lat in seen:
            if known == action:
                return lat
        lat = GLattice(group, rank, action)
        seen.append((action, lat))
        return lat

    moves = []
    for m in obj["moves"]:
        kind, ev = m["kind"], m["evidence"]
        if kind not in _SIDE_TYPE:
            raise FormatError(f"unknown move kind {kind!r}")
        square = kind != "duality"
        if any(m[k]["type"] != _SIDE_TYPE[kind] for k in ("src", "tgt")) \
                or any((m[k] is None) == square
                       for k in ("comp_minus1", "comp0")):
            raise FormatError(
                f"a {kind} move takes {_SIDE_TYPE[kind]} sides and "
                + ("both maps" if square else "no maps"))
        if not isinstance(ev, list) or len(ev) != 2 \
                or not all(type(x) is bool for x in ev):
            raise FormatError(f"move evidence must be two booleans, "
                              f"found {ev!r}")
        cm1 = (None if m["comp_minus1"] is None
               else parse_matrix(m["comp_minus1"], "comp_minus1"))
        c0 = None if m["comp0"] is None else parse_matrix(m["comp0"], "comp0")
        moves.append(CertificateMove(
            kind, _load_side(m["src"], group_of, lattice_of),
            _load_side(m["tgt"], group_of, lattice_of), cm1, c0,
            MoveEvidence(*ev)))
    return ResolutionCertificate(
        obj["mode"], _load_complex(obj["original"], group_of, lattice_of),
        _load_complex(obj["resolved"], group_of, lattice_of),
        tuple(moves),
        deep_tuple(obj["vanishing_table"]))


# --- file helpers -----------------------------------------------------------

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def to_json(obj) -> str:
    """Deterministic machine format: sorted keys, fixed separators; the
    text of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``.

    The encoder makes one string per scalar before it joins them, so the
    text is built in pieces (``_write``) to bound that transient by the
    largest piece, not by the whole certificate."""
    out: list[str] = []
    _write(obj, out.append)
    return "".join(out)


def _write(obj, put) -> None:
    """Put the JSON text of ``obj`` in pieces.  A non-empty dict whose
    keys are all ``str`` is walked in sorted key order, and a non-empty
    list of dicts and matrices (lists of lists) element by element; these are the layouts
    ``json.dumps`` writes with the same brackets, separators, key order
    and key escapes (``encode_basestring_ascii``).  Every other value,
    int-keyed dicts included, goes whole through one encoder with the
    ``json.dumps`` settings, so no byte can differ."""
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        sep = "{"
        for k in sorted(obj):
            put(sep + encode_basestring_ascii(k) + ":")
            _write(obj[k], put)
            sep = ","
        put("}")
    elif type(obj) is list and obj and all(
            type(x) is dict or (type(x) is list and all(
                type(row) is list for row in x)) for x in obj):
        sep = "["
        for x in obj:
            put(sep)
            _write(x, put)
            sep = ","
        put("]")
    else:
        put(_ENCODE(obj))



def read_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)

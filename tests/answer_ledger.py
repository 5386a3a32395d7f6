"""The answer ledger: one SHA-256 per family of computed answers.

Each family writes its answers as canonical JSON (sorted keys, no
whitespace, tuples as lists) and hashes it.  A change of route that keeps
every answer keeps every digest; a change that moves an answer names the
family it moved.  The families:

- ``cohomology.lattices``: H^0, H^1 and H^2 of every catalog lattice
  over every subgroup class representative: factors, generators and
  ``reduce`` of each generator;
- ``cohomology.complexes``: hypercohomology of every catalog complex in
  degrees -1, 0 and 1, the same way;
- ``cohomology.modules``: the H^0 module of every catalog complex (an
  ``FgModule``), and the catalog lattices of groups of order at most 4
  on unnormalized cochains, in degrees 0, 1 and 2;
- ``cohomology.s4``: H^1, Tate H^-1 and Tate H^0 of the S4 lattices of
  rank at most 12 in ``lattice_strategies.S4_LATTICES``;
- ``cohomology.tate``: Tate H^-1 and H^0 of every catalog lattice;
- ``homology``: H^-1 and H^0 of every catalog complex (rank and action
  of the kernel lattice, invariant factors of the cokernel);
- ``classify``: the coflasque and flasque tables and witnesses of every
  catalog lattice;
- ``invariants``: ``r_equivalence_invariant`` of every catalog complex
  and ``uniqueness_invariants`` of its coflasque and flasque
  resolutions;
- ``mayer_vietoris``: the nine-term report and ``remark_compare`` of
  every catalog (graph, complex) pair over one group;
- ``crossed``: H^-1 and H^0 of every catalog crossed module, and the
  six-term report of every (graph, crossed module) pair over one group;
- ``subgroups``: the subgroups of S4, S4 x C2 and S5 (members,
  ``as_group()`` generators and ``members_bfs()``) and their class
  representatives.

Run ``PYTHONPATH=src python tests/answer_ledger.py`` to print every
family's digest and whether it matches the pin.
"""

import hashlib
import json
import sys

import pytest

from galmod import fixtures
from galmod.cohomology import (group_cohomology, hypercohomology,
                               tate_cohomology)
from galmod.complexes import (classify, coflasque_resolution,
                              flasque_resolution, homology,
                              r_equivalence_invariant, uniqueness_invariants)
from galmod.crossed import h_minus_one, h_zero
from galmod.groups import (build_group, cyclic_group, direct_product,
                           enumerate_subgroups)
from galmod.patching import (crossed_six_term_report, nine_term_report,
                             remark_compare)
from lattice_strategies import S4_LATTICES


def _group(cg):
    return {"factors": cg.invariant_factors, "generators": cg.generators,
            "reduce": [cg.reduce(g) for g in cg.generators]}


def _reps(group):
    return enumerate_subgroups(group)[1]


def _cohomology_lattices():
    return {name: [[h.members, [_group(group_cohomology(h, lat, n))
                                for n in (0, 1, 2)]]
                   for h in _reps(lat.group)]
            for name, lat in fixtures.lattice_catalog().items()}


def _cohomology_complexes():
    return {name: [[h.members, [_group(hypercohomology(h, t, n))
                                for n in (-1, 0, 1)]]
                   for h in _reps(t.group)]
            for name, t in fixtures.complex_catalog().items()}


def _cohomology_modules():
    modules = {name: [[h.members, [_group(group_cohomology(
                   h, homology(t)[1], n)) for n in (0, 1, 2)]]
                      for h in _reps(t.group)]
               for name, t in fixtures.complex_catalog().items()}
    unnormalized = {name: [[h.members, [_group(group_cohomology(
                        h, lat, n, normalized=False)) for n in (0, 1, 2)]]
                           for h in _reps(lat.group)]
                    for name, lat in fixtures.lattice_catalog().items()
                    if lat.group.order <= 4}
    return {"modules": modules, "unnormalized": unnormalized}


def _cohomology_s4():
    out = {}
    for name, lat in S4_LATTICES.items():
        if lat.rank > 12:
            continue
        out[name] = [[h.members, [_group(group_cohomology(h, lat, 1)),
                                  _group(tate_cohomology(h, lat, -1)),
                                  _group(tate_cohomology(h, lat, 0))]]
                     for h in _reps(lat.group)]
    return out


def _tate():
    return {name: [[h.members, [_group(tate_cohomology(h, lat, n))
                                for n in (-1, 0)]]
                   for h in _reps(lat.group)]
            for name, lat in fixtures.lattice_catalog().items()}


def _homology():
    out = {}
    for name, t in fixtures.complex_catalog().items():
        hminus, h0 = homology(t)
        out[name] = {"hminus": [hminus.rank, hminus.action],
                     "h0": [h0.ngens, h0.invariant_factors]}
    return out


def _classify():
    out = {}
    for name, lat in fixtures.lattice_catalog().items():
        for mode in ("coflasque", "flasque"):
            v = classify(lat, mode)
            out[f"{name}/{mode}"] = [v.ok, v.table, v.witness]
    return out


def _invariants():
    out = {}
    for name, t in fixtures.complex_catalog().items():
        data = r_equivalence_invariant(t)
        f = data.flasque_lattice
        report = uniqueness_invariants(coflasque_resolution(t)[0],
                                       flasque_resolution(t)[0])
        out[name] = {"flasque": [f.rank, f.action], "table": data.table,
                     "uniqueness": [report.agree, report.rank_pair,
                                    report.rows]}
    return out


def _same_group(a, b):
    return a.table == b.table


def _mayer_vietoris():
    out = {}
    for gname, graph in fixtures.graph_catalog().items():
        for name, t in fixtures.complex_catalog().items():
            if not _same_group(graph.gamma, t.group):
                continue
            rep = nine_term_report(graph, t)
            remark = remark_compare(graph, t)
            out[f"{gname}/{name}"] = {
                "degrees": rep.degrees,
                "composition_zero": rep.composition_zero,
                "exact_at_left": rep.exact_at_left,
                "exact_at_middle": rep.exact_at_middle,
                "sha": [_group(s) for s in rep.sha_groups],
                "not_evaluated": rep.not_evaluated,
                "remark": [_group(remark.sha1_complex),
                           _group(remark.sha2_flasque),
                           remark.cokernel_factors, remark.perm_h1_factors,
                           _group(remark.perm_sha2), remark.hypotheses_hold]}
    return out


def _crossed():
    out = {}
    for name, c in fixtures.crossed_catalog().items():
        hz = h_zero(c)
        out[name] = {"h_minus_one": h_minus_one(c).members,
                     "h_zero": [hz.representatives, hz.table]}
        for gname, graph in fixtures.graph_catalog().items():
            if not _same_group(graph.gamma, c.galois):
                continue
            rep = crossed_six_term_report(graph, c)
            out[f"{gname}/{name}"] = {
                "composition_zero": rep.composition_zero,
                "exact_at_left": rep.exact_at_left,
                "exact_at_middle": rep.exact_at_middle,
                "maps": [[col.vertex_maps, col.edge_head_maps,
                          col.edge_tail_maps] for col in rep.columns],
                "sha": [s.classes for s in rep.sha_groups]}
    return out


def _subgroups():
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    s5 = build_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], size_limit=120)
    out = {}
    for name, g, limit in (("S4", s4, 64),
                           ("S4xC2", direct_product(s4, cyclic_group(2)), 64),
                           ("S5", s5, 120)):
        subs, reps = enumerate_subgroups(g, limit)
        out[name] = {
            "subgroups": [[h.members, h.as_group().generators,
                           h.members_bfs()] for h in subs],
            "representatives": [h.members for h in reps]}
    return out


FAMILIES = {
    "cohomology.lattices": _cohomology_lattices,
    "cohomology.complexes": _cohomology_complexes,
    "cohomology.modules": _cohomology_modules,
    "cohomology.s4": _cohomology_s4,
    "cohomology.tate": _tate,
    "homology": _homology,
    "classify": _classify,
    "invariants": _invariants,
    "mayer_vietoris": _mayer_vietoris,
    "crossed": _crossed,
    "subgroups": _subgroups,
}

# Computed before ColumnSpan became the one face of the column echelon.
PINNED = {
    "classify":
        "52a2fa1b98b74145bb01e9530fe3eb68b4a5e66aa2e8ab0716a90bdb047d82a6",
    "cohomology.complexes":
        "6eb571c6740c2eb803254c3a6322631819cededacc8d6fff3fc02d1c381298f9",
    "cohomology.lattices":
        "08b71dde9065b17bd04a3b311c473aa8252b59eb6bc93794e4208e4eb784c944",
    "cohomology.modules":
        "53c0a95c91383a9c3a6261a2ffe26c8a2d9bb3dc92961216e1546d7d5781b4e5",
    "cohomology.s4":
        "12b9af854d41b4c8d21716ce04345ba3b89981dd2d7e9d8f787785fc56c43acb",
    "cohomology.tate":
        "f4fb057b659363f09a533418a140c7d5c9bedaca7d9829b0708d07c5c928f90f",
    "crossed":
        "ea4284258b503884c92d9cbe21da96423f0c6cd8c345611a9ff18ed02090befe",
    "homology":
        "57e625191e531669a6c0b86f066ba4a7497c687f03f9834ccb6cac7b23db4b44",
    "invariants":
        "66569089af1e5720ee69b37f10be7767c11f4c4cf93bfbc9fe8e8e791f972070",
    "mayer_vietoris":
        "bebd68c9e0e40ed0ba7b241173675dd2e9b2c2dc529a06fbd518b9c09d0f6a65",
    "subgroups":
        "79b58551ea99596ceb4d2c1c79e450c7af888680c3b374eda84e414a2734d9ac",
}


def digest(family: str) -> str:
    text = json.dumps(FAMILIES[family](), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_answer_family_unchanged(family):
    assert digest(family) == PINNED[family]


if __name__ == "__main__":
    moved = 0
    for family in sorted(FAMILIES):
        d = digest(family)
        same = d == PINNED.get(family)
        moved += not same
        print(f"{family:22} {d} {'pinned' if same else 'MOVED'}")
    sys.exit(1 if moved else 0)

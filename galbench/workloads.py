"""The three benchmark workloads and their expected answers.

A workload is a fixed list of jobs; the seed changes only labels and
bases (see inputs.py), never the job list.  A job loads fresh objects
from validated JSON dumps, computes, and returns a raw result plus the
seconds spent replaying certificates.  ``answer`` turns the raw result
into plain data that the seed cannot change, and ``expected`` is that
data as the library computed it when the benchmark was defined, checked
once by selftest.py against independent routes.

Library functions are always reached through their module (``cohomology.
group_cohomology``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from galmod import cohomology, complexes, fixtures, patching
from galmod import groups as gr
from galmod import lattice as lt
from galmod import serialize as se

import inputs as gen
import oracles

@dataclass
class Job:
    name: str
    # (mark) -> (raw result, replay seconds); the job calls mark() right
    # before a replay, so the replay falls in the job's last segment
    run: Callable
    answer: Callable  # raw result -> plain data
    expected: object
    # () -> (value by an independent route, the part of ``expected`` it
    # checks); small jobs only, run by selftest.py
    oracle: Optional[Callable] = None


@dataclass
class Workload:
    jobs: list[Job] = field(default_factory=list)
    inputs: list[tuple[str, dict]] = field(default_factory=list)

    def add_input(self, kind: str, obj) -> dict:
        dump = {"lattice": se.dump_lattice, "complex": se.dump_complex,
                "crossed": se.dump_crossed, "graph": se.dump_graph}[kind](obj)
        self.inputs.append((kind, dump))
        return dump


def _factors(cg) -> tuple:
    return tuple(cg.invariant_factors)


def _resolve_and_replay(mode: str, t, mark):
    """Resolve, send the certificate through dump, JSON text and load,
    and replay the loaded copy, whose caches are cold."""
    resolve = (complexes.coflasque_resolution if mode == "coflasque"
               else complexes.flasque_resolution)
    resolved, cert = resolve(t)
    text = se.to_json(se.dump_certificate(cert))
    loaded = se.load_certificate(json.loads(text))
    mark()
    start = time.perf_counter()
    replayed = complexes.replay_certificate(loaded)
    return resolved, cert, replayed, time.perf_counter() - start


def _homology_invariants(t) -> tuple:
    hminus, h0 = complexes.homology(t)
    return tuple(h0.invariant_factors), hminus.rank


# ---------------------------------------------------------------------------
# cohomology: a few large cochain complexes plus small rebased D4 jobs.

def _coh_job(w: Workload, name: str, lat, n: int, expected,
             small: bool = False) -> None:
    dump = w.add_input("lattice", lat)

    def run(mark):
        l = se.load_lattice(dump)
        return cohomology.group_cohomology(l.group, l, n), 0.0

    def oracle():
        l = se.load_lattice(dump)
        return _factors(cohomology.group_cohomology(
            l.group, l, n, normalized=False)), expected
    w.jobs.append(Job(name, run, _factors, expected,
                      oracle if small else None))


def _tate_job(w: Workload, name: str, lat, n: int, expected) -> None:
    dump = w.add_input("lattice", lat)

    def run(mark):
        l = se.load_lattice(dump)
        return cohomology.tate_cohomology(l.group, l, n), 0.0
    w.jobs.append(Job(name, run, _factors, expected))


def _unnormalized_hyper(c, degrees) -> tuple:
    return tuple(_factors(cohomology.hypercohomology(
        c.group, c, n, normalized=False)) for n in degrees)


def _hyper_job(w: Workload, name: str, t, degrees, expected) -> None:
    dump = w.add_input("complex", t)

    def run(mark):
        c = se.load_complex(dump)
        return [cohomology.hypercohomology(c.group, c, n)
                for n in degrees], 0.0

    def oracle():
        return _unnormalized_hyper(se.load_complex(dump), degrees), expected
    w.jobs.append(Job(name, run, lambda r: tuple(_factors(x) for x in r),
                      expected, oracle))


def _qi_job(w: Workload, name: str, t, expected) -> None:
    """Quasi-isomorphism check: hypercohomology in degrees -1 and 0 of a
    complex and of its replayed coflasque resolution."""
    dump = w.add_input("complex", t)

    def run(mark):
        c = se.load_complex(dump)
        resolved, _, replayed, replay_s = _resolve_and_replay(
            "coflasque", c, mark)
        want = [cohomology.hypercohomology(c.group, c, n) for n in (-1, 0)]
        got = [cohomology.hypercohomology(c.group, resolved, n)
               for n in (-1, 0)]
        return (replayed, want, got), replay_s

    def answer(raw):
        replayed, want, got = raw
        return (replayed, tuple(_factors(x) for x in want),
                tuple(_factors(x) for x in got))

    def oracle():
        return _unnormalized_hyper(se.load_complex(dump), (-1, 0)), \
            expected[1]
    w.jobs.append(Job(name, run, answer, expected, oracle))


def build_cohomology(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    s4 = gen.relabelled_group(gen.S4_GENS, rng, "S4")
    d4 = gen.relabelled_group(gen.D4_GENS, rng, "D4")
    subs, _ = gr.enumerate_subgroups(d4)
    qi = [(h, (True, ((), (4,)), ((), (4,)))) for h in gen.order2_reps(d4)]
    qi += [(h, (True, ((), (2,)), ((), (2,))))
           for h in subs if h.order == 4]

    def next_qi():
        h, expected = qi.pop(0)
        tag = "".join(map(str, h.members))
        _qi_job(w, f"qi(D4,[Z[D4/H{tag}]->Z])", gen.augmentation(
            lt.make_permutation_lattice(d4, [h])), expected)

    # The replayed certificates of the qi jobs are spread over the pass,
    # so that replay_s samples more than one stretch of machine time.
    next_qi()
    _coh_job(w, "H2(S4,Z)", lt.trivial_lattice(s4), 2, (2,))
    next_qi()
    _coh_job(w, "H1(S4,Z[S4])", lt.regular_lattice(s4), 1, ())
    next_qi()
    _coh_job(w, "H2(D4,Z[D4])", lt.regular_lattice(d4), 2, ())
    next_qi()
    _hyper_job(w, "hyper(D4,[Z[D4]->Z])",
               gen.augmentation(lt.regular_lattice(d4)), (-1, 0, 1),
               ((), (8,), ()))
    next_qi()
    # Rebased lattices: Shapiro gives H^n(D4, Z[D4/H]) = H^n(H, Z) and
    # the same for Tate cohomology, with H of order 2.
    for h in gen.order2_reps(d4):
        tag = "".join(map(str, h.members))
        lat = gen.rebase_lattice(lt.make_permutation_lattice(d4, [h]), rng)
        _coh_job(w, f"H1(D4,Z[D4/H{tag}])", lat, 1, (), small=True)
        _coh_job(w, f"H2(D4,Z[D4/H{tag}])", lat, 2, (2,), small=True)
        _tate_job(w, f"Tate-1(D4,Z[D4/H{tag}])", lat, -1, ())
        _tate_job(w, f"Tate0(D4,Z[D4/H{tag}])", lat, 0, (2,))
    next_qi()
    return w


# ---------------------------------------------------------------------------
# resolution: certified coflasque and flasque resolutions, each replayed.

def _resolution_job(w: Workload, name: str, mode: str, t,
                    expected) -> None:
    dump = w.add_input("complex", t)

    def run(mark):
        c = se.load_complex(dump)
        resolved, cert, replayed, replay_s = _resolve_and_replay(
            mode, c, mark)
        return (mode, resolved, cert, replayed), replay_s

    def answer(raw):
        mode, resolved, cert, replayed = raw
        vanishes = all(not factors for _, factors in cert.vanishing_table)
        return (cert.valid, replayed, vanishes,
                _homology_invariants(resolved))

    def oracle():
        return _homology_invariants(se.load_complex(dump)), expected[3]
    w.jobs.append(Job(name, run, answer, expected, oracle))


# (H^0 invariant factors, H^-1 rank) of each catalog complex
CATALOG_HOMOLOGY = {
    "sign-deg0": ((0,), 0),
    "sign-deg-1": ((), 1),
    "z2-norm": ((0,), 0),
    "z2-aug": ((), 1),
    "z2-mult2": ((2,), 0),
    "z2-sign-embed": ((0,), 0),
    "z3-aug": ((), 2),
    "z3-norm": ((0, 0), 0),
    "z4-aug": ((), 3),
    "z4-coset-aug": ((), 1),
    "z4-mult3": ((3,), 0),
    "v4-aug": ((), 3),
    "v4-coset-aug": ((), 1),
    "v4-char-deg0": ((0,), 0),
    "s3-coset-aug": ((), 1),
    "s3-coset-norm": ((0,), 0),
    "s3-sign-deg0": ((0,), 0),
    "s3-zero": ((), 0),
}


def build_resolution(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    d4 = gen.relabelled_group(gen.D4_GENS, rng, "D4")
    _resolution_job(w, "coflasque([Z[D4]->Z])", "coflasque",
                    gen.augmentation(lt.regular_lattice(d4)),
                    (True, True, True, ((), 7)))
    for h in gen.order2_reps(d4):
        tag = "".join(map(str, h.members))
        aug = gen.augmentation(lt.make_permutation_lattice(d4, [h]))
        _resolution_job(w, f"coflasque([Z[D4/H{tag}]->Z])", "coflasque",
                        gen.rebase_complex(aug, rng),
                        (True, True, True, ((), 3)))
        _resolution_job(w, f"flasque([Z->Z[D4/H{tag}]])", "flasque",
                        gen.rebase_complex(aug.dual(), rng),
                        (True, True, True, ((0, 0, 0), 0)))
    for name, t in fixtures.complex_catalog().items():
        _resolution_job(w, f"coflasque({name})", "coflasque",
                        gen.rebase_complex(t, rng),
                        (True, True, True, CATALOG_HOMOLOGY[name]))
    return w


# ---------------------------------------------------------------------------
# patching: crossed-module six-term reports near the enumeration bound,
# nine-term reports, sha, and the flasque-resolution remark.

def _crossed_summary(rep) -> tuple:
    h0 = rep.columns[1].left
    return (h0.order, len(h0.cocycles), rep.composition_zero,
            rep.exact_at_left, tuple(ok for ok, _ in rep.exact_at_middle),
            tuple(len(s.classes) for s in rep.sha_groups))


def _crossed_job(w: Workload, name: str, graph, c, expected) -> None:
    gdump = w.add_input("graph", graph)
    cdump = w.add_input("crossed", c)

    def run(mark):
        return patching.crossed_six_term_report(
            se.load_graph(gdump), se.load_crossed(cdump)), 0.0

    def oracle():
        return oracles.crossed_h0(se.load_crossed(cdump)), expected[:2]
    w.jobs.append(Job(name, run, _crossed_summary, expected, oracle))


def _nine_term_job(w: Workload, name: str, graph, t, expected) -> None:
    gdump = w.add_input("graph", graph)
    tdump = w.add_input("complex", t)

    def run(mark):
        return patching.nine_term_report(
            se.load_graph(gdump), se.load_complex(tdump)), 0.0

    def answer(rep):
        return (rep.composition_zero, rep.exact_at_left,
                tuple(ok for ok, _ in rep.exact_at_middle),
                tuple(_factors(s) for s in rep.sha_groups))

    def oracle():
        g, c = se.load_graph(gdump), se.load_complex(tdump)
        return (tuple(oracles.sha_order(g.gamma, g.vertices, c, r, "complex")
                      for r in (-1, 0, 1)),
                tuple(oracles.torsion_order(f) for f in expected[3]))
    w.jobs.append(Job(name, run, answer, expected, oracle))


def _sha_job(w: Workload, name: str, graph, lat, expected) -> None:
    gdump = w.add_input("graph", graph)
    ldump = w.add_input("lattice", lat)

    def run(mark):
        g, l = se.load_graph(gdump), se.load_lattice(ldump)
        return [patching.sha(g, l, r) for r in (1, 2)], 0.0

    def oracle():
        g, l = se.load_graph(gdump), se.load_lattice(ldump)
        return (tuple(oracles.sha_order(g.gamma, g.vertices, l, r, "lattice")
                      for r in (1, 2)),
                tuple(oracles.torsion_order(f) for f in expected))
    w.jobs.append(Job(name, run, lambda r: tuple(_factors(s) for s in r),
                      expected, oracle))


def _remark_job(w: Workload, name: str, graph, t, expected) -> None:
    """remark_compare, plus a replay of the flasque certificate behind
    the flasque lattice it compares."""
    gdump = w.add_input("graph", graph)
    tdump = w.add_input("complex", t)

    def run(mark):
        c = se.load_complex(tdump)
        resolved, _, replayed, replay_s = _resolve_and_replay(
            "flasque", c, mark)
        rep = patching.remark_compare(se.load_graph(gdump), c)
        return (rep, resolved, replayed), replay_s

    def answer(raw):
        rep, resolved, replayed = raw
        same = (se.dump_lattice(rep.flasque_lattice)
                == se.dump_lattice(resolved.l2))
        return (replayed, same, rep.all_agree, rep.hypotheses_hold,
                _factors(rep.sha1_complex), _factors(rep.sha2_flasque),
                rep.cokernel_factors)
    w.jobs.append(Job(name, run, answer, expected))


def _two_vertex_graph(gamma, a, b, edge):
    return patching.build_patching_graph(gamma, [a, b], [(0, 1, edge)])


# (H^0 order, cocycles, compositions zero, exact at left, exact at the
# vertex product, sha class counts) for degrees -1 and 0
CROSSED_H0_TRIVIAL = (1, 10, (True, True), (True, None), (True, True),
                      (1, 1))
CROSSED_H0_ORDER2 = (2, 10, (True, True), (True, None), (True, True),
                     (1, 1))


def build_patching(seed: int) -> Workload:
    rng = random.Random(seed)
    w = Workload()
    s3 = gen.relabelled_group(gen.S3_GENS, rng, "S3")
    z6 = gen.relabelled_group(gen.Z6_GENS, rng, "Z6")
    d4 = gen.relabelled_group(gen.D4_GENS, rng, "D4")
    d5 = gen.relabelled_group(gen.D5_GENS, rng, "D5")
    z10 = gen.relabelled_group(gen.Z10_GENS, rng, "Z10")
    z2 = gen.relabelled_group(((1, 0),), rng, "Z2")
    a3 = gen.subgroup_of_order(s3, 3)
    s3_split = _two_vertex_graph(s3, a3, gen.subgroup_of_order(s3, 2),
                                 gr.trivial_subgroup(s3))
    s3_nested = _two_vertex_graph(s3, gr.whole_subgroup(s3), a3, a3)
    z6_split = _two_vertex_graph(z6, gen.subgroup_of_order(z6, 3),
                                 gen.subgroup_of_order(z6, 2),
                                 gr.trivial_subgroup(z6))
    center = next(h for h in gen.order2_reps(d4)
                  if all(d4.mul(h.members[1], x) == d4.mul(x, h.members[1])
                         for x in d4.elements()))
    fours = [h for h in gr.enumerate_subgroups(d4)[0] if h.order == 4]
    d4_graph = _two_vertex_graph(d4, fours[0], fours[1], center)

    # Each H^0 enumeration over Gamma tries |G|^|Gamma| = 10^6 maps, the
    # library's bound; the vertex and edge subgroups cost far less.
    reflection = d5.generators[1]
    conj = tuple(d5.conj(reflection, x) for x in d5.elements())
    inversion = tuple(z10.inv(x) for x in z10.elements())
    # S3 acts through its sign (generator 0 is the transposition), Z6
    # through Z6 -> Z2.
    for gal, graph, parity in ((s3, s3_split, (1, 0)),
                               (z6, z6_split, (1,))):
        _crossed_job(w, f"six-term({gal.name},[D5->D5])", graph,
                     gen.identity_crossed(d5, gal, conj, parity),
                     CROSSED_H0_TRIVIAL)
        _crossed_job(w, f"six-term({gal.name},[Z10->1])", graph,
                     gen.abelian_to_one(z10, gal, inversion, parity),
                     CROSSED_H0_ORDER2)

    s3_coset = lt.make_permutation_lattice(s3, [a3])
    _nine_term_job(w, "nine-term(S3,[Z[S3/A3]->Z])", s3_nested,
                   gen.rebase_complex(gen.augmentation(s3_coset), rng),
                   ((True,) * 3, (True, None, None), (True,) * 3,
                    ((), (), ())))
    _nine_term_job(w, "nine-term(D4,[Z[D4/C]->Z])", d4_graph,
                   gen.augmentation(lt.make_permutation_lattice(d4,
                                                                [center])),
                   ((True,) * 3, (True, None, None), (True, False, True),
                    ((), (2,), ())))
    sha_d4 = {(0, 2): ((), ()), (0, 3): ((), ()), (0, 4): ((), (2,))}
    for h in gen.order2_reps(d4):
        _sha_job(w, f"sha(D4,Z[D4/H{''.join(map(str, h.members))}])",
                 d4_graph, lt.make_permutation_lattice(d4, [h]),
                 sha_d4[h.members])
    _sha_job(w, "sha(S3,sign)", s3_split, lt.sign_lattice(s3, [-1, 1]),
             ((), ()))
    _sha_job(w, "sha(S3,Z[S3])", s3_split,
             gen.rebase_lattice(lt.regular_lattice(s3), rng), ((), ()))

    sign, triv = lt.sign_lattice(z2, [-1]), lt.trivial_lattice(z2)
    w2 = gr.whole_subgroup(z2)
    remark_ok = (True, True, True, True, (), (), ())
    _remark_job(w, "remark(Z2,[sign->Z])",
                _two_vertex_graph(z2, w2, w2, w2),
                complexes.TwoTermComplex(sign, triv,
                                         lt.LatticeMap(sign, triv, ((0,),))),
                remark_ok)
    _remark_job(w, "remark(S3,[Z[S3]->Z])", s3_split,
                gen.rebase_complex(gen.augmentation(
                    lt.regular_lattice(s3)), rng), remark_ok)
    return w


BUILDERS = {"cohomology": build_cohomology, "resolution": build_resolution,
            "patching": build_patching}

"""Independent routes to the benchmark's expected answers, for selftest.py.

These use the library's own oracles (the unnormalized bar complex) or
brute-force enumeration straight from the definitions, never the code
path a job times.
"""

from __future__ import annotations

import itertools
from math import prod

from galmod import cohomology


def sha_order(gamma, vertices, coeff, r: int, kind: str) -> int:
    """Number of torsion classes of H^r(Gamma) that restrict to zero at
    every vertex, by enumerating the classes."""
    if kind == "lattice":
        left = cohomology.group_cohomology(gamma, coeff, r)
        maps = [cohomology.restriction(gamma, h, coeff, r) for h in vertices]
    else:
        left = cohomology.hypercohomology(gamma, coeff, r)
        maps = [cohomology.hyper_restriction(gamma, h, coeff, r)
                for h in vertices]
    ranges = [range(f) if f else range(1) for f in left.invariant_factors]
    count = 0
    for coords in itertools.product(*ranges):
        count += all(
            all((sum(a * c for a, c in zip(row, coords)) % f if f
                 else sum(a * c for a, c in zip(row, coords))) == 0
                for row, f in zip(m.matrix, m.target.invariant_factors))
            for m in maps)
    return count


def torsion_order(factors) -> int:
    return prod(f for f in factors if f)


def crossed_h0(c) -> tuple[int, int]:
    """(number of classes, number of cocycles) of H^0 of a crossed module,
    from the definitions: filter every (alpha, h), then join classes
    along all coboundary transforms with a union-find."""
    gal, g, h = c.galois, c.g, c.h
    cocycles = []
    for alpha in itertools.product(range(g.order), repeat=gal.order):
        if any(alpha[gal.mul(s, t)] != g.mul(alpha[s],
                                             c.galois_on_g[s][alpha[t]])
               for s in gal.elements() for t in gal.elements()):
            continue
        for x in h.elements():
            if all(h.mul(c.boundary[alpha[s]], c.galois_on_h[s][x]) == x
                   for s in gal.elements()):
                cocycles.append((alpha, x))
    index = {z: i for i, z in enumerate(cocycles)}
    parent = list(range(len(cocycles)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for alpha, x in cocycles:
        for a in g.elements():
            moved = (tuple(g.mul(g.mul(a, alpha[s]),
                                 g.inv(c.galois_on_g[s][a]))
                           for s in gal.elements()),
                     h.mul(c.boundary[a], x))
            i, j = find(index[(alpha, x)]), find(index[moved])
            if i != j:
                parent[i] = j
    return len({find(i) for i in range(len(cocycles))}), len(cocycles)

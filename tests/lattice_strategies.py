"""Hypothesis strategies for random lattices, shared by the test
modules."""

from hypothesis import strategies as st

from galmod import fixtures
from galmod import intlinalg as la
from galmod.groups import build_group, enumerate_subgroups
from galmod.lattice import (conjugate_lattice, direct_sum, dual_lattice,
                            induced_action_on_sublattice,
                            make_permutation_lattice, sign_lattice)

SMALL_LATTICES = [lat for lat in fixtures.lattice_catalog().values()
                  if lat.group.order <= 6]


def _s4_lattices() -> dict:
    """S4 lattices: sign, Z[S4/H] for each subgroup class representative
    H (H = 1 gives the regular lattice), and the augmentation kernels of
    those of rank > 1 with their duals."""
    s4 = build_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")
    out = {"sign": sign_lattice(s4, [-1, -1])}
    for h in enumerate_subgroups(s4)[1]:
        perm = make_permutation_lattice(s4, [h])
        out[f"coset{h.members}"] = perm
        if perm.rank > 1:
            aug = induced_action_on_sublattice(
                perm, la.kernel_basis([[1] * perm.rank]))
            out[f"aug{h.members}"] = aug
            out[f"aug{h.members}-dual"] = dual_lattice(aug)
    return out


S4_LATTICES = _s4_lattices()


@st.composite
def unimodular_matrices(draw, n):
    """Products of elementary row operations."""
    m = [list(row) for row in la.identity(n)]
    if n > 1:
        ops = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1),
                                      st.integers(-2, 2)), max_size=6))
        for i, j, k in ops:
            if i != j:
                m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return la.freeze(m)


@st.composite
def small_lattices(draw):
    """Catalog lattices over groups of order <= 6, summed with a second
    one up to rank 4, maybe dualized, then rebased."""
    lat = draw(st.sampled_from(SMALL_LATTICES))
    others = [x for x in SMALL_LATTICES if x.group is lat.group
              and x.rank + lat.rank <= 4]
    if others and draw(st.booleans()):
        lat = direct_sum(lat, draw(st.sampled_from(others)))
    if draw(st.booleans()):
        lat = dual_lattice(lat)
    return conjugate_lattice(lat, draw(unimodular_matrices(lat.rank)))


@st.composite
def s4_lattices(draw):
    """An S4 lattice of rank at most 12 from S4_LATTICES, maybe dualized,
    then rebased."""
    lat = draw(st.sampled_from([x for x in S4_LATTICES.values()
                                if x.rank <= 12]))
    if draw(st.booleans()):
        lat = dual_lattice(lat)
    return conjugate_lattice(lat, draw(unimodular_matrices(lat.rank)))

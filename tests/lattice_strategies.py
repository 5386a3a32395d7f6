"""Hypothesis strategies for random lattices, shared by the test
modules."""

from hypothesis import strategies as st

from galmod import fixtures
from galmod import intlinalg as la
from galmod.lattice import conjugate_lattice, direct_sum, dual_lattice

SMALL_LATTICES = [lat for lat in fixtures.lattice_catalog().values()
                  if lat.group.order <= 6]


@st.composite
def unimodular_matrices(draw, n):
    """Products of elementary row operations."""
    m = la.thaw(la.identity(n))
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

"""A matrix times a vector, for the test modules."""

from galmod import intlinalg as la


def mat_vec(a, v) -> tuple:
    """a @ v, as ``la.mat_mul`` on the one-column matrix v; a product
    with no columns is the zero vector."""
    return tuple(row[0] if row else 0
                 for row in la.mat_mul(a, [[x] for x in v]))

"""Nonabelian H^-1 and H^0 of finite crossed modules.

0-cocycles are pairs (alpha: Gamma -> G, h); alpha is fixed by its
values on the generators of Gamma, so the library enumerates every
assignment of those values, extends it along words in the generators
and keeps the ones satisfying the cocycle identity.  Two cocycles are
identified when a group element transports one to the other.  The
quotient carries a group law which the library verifies to be well
defined.
"""

from galmod import fixtures
from galmod.crossed import h_minus_one, h_zero, validate_crossed_module

for name, c in fixtures.crossed_catalog().items():
    verdict = validate_crossed_module(c)
    hm = h_minus_one(c)
    hz = h_zero(c)
    print(f"{name}: axioms ok {verdict.ok}, "
          f"|H^-1| = {hm.group.order}, |H^0| = {hz.order}")

# the order-4 example in detail: [Z/2 -> 0 -> Z/2] over Gamma = Z/2
c = fixtures.crossed_catalog()["z2-z2-order4"]
hz = h_zero(c)
print("order-4 example classes:")
for i, rep in enumerate(hz.representatives):
    print(f"  class {i}: alpha = {rep[0]}, h = {rep[1]}")
print("multiplication table:")
for row in hz.table:
    print("  ", row)
print("abelian:", hz.group.is_abelian())

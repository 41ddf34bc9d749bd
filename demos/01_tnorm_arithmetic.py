"""Tensor arithmetic on the unit interval, exactly.

Walks through the three basic continuous t-norms and an ordinal sum,
their residuals, nilpotent structure, and the exhaustive
axiom sweeps that back every other demo.
"""

from fractions import Fraction as F

from unitcat import (
    GridChain,
    SampleSpec,
    grid_closed,
    is_nilpotent,
    lukasiewicz,
    minimum,
    no_zero_divisor_audit,
    ordinal_sum,
    product,
    verify_quantale_axioms,
    verify_quantale_axioms_sampled,
)
from unitcat.tnorms import Lukasiewicz

luk, mini, prod = lukasiewicz(), minimum(), product()

print("== tensors and residuals ==")
print("lukasiewicz: 7/10 (x) 6/10 =", luk.tensor(F(7, 10), F(6, 10)))
print("product hom: hom(1/2, 1/4) =", prod.hom(F(1, 2), F(1, 4)))
print("minimum hom: hom(1/4, 1/2) =", mini.hom(F(1, 4), F(1, 2)))

print("\n== an ordinal sum: lukasiewicz rescaled onto [1/4, 3/4] ==")
osum = ordinal_sum((F(1, 4), F(3, 4), Lukasiewicz()))
print("inside the segment: 1/2 (x) 5/8 =", osum.tensor(F(1, 2), F(5, 8)))
print("straddling it:      1/8 (x) 7/8 =", osum.tensor(F(1, 8), F(7, 8)), "(minimum)")

print("\n== nilpotents ==")
print("1/2 is nilpotent for lukasiewicz:", is_nilpotent(luk, F(1, 2)))
print("3/4 needs four factors:", is_nilpotent(luk, F(3, 4)))
print("no nilpotents under multiplication:", is_nilpotent(prod, F(1, 2)))

print("\n== which grids stay closed? ==")
for q in (luk, mini, prod):
    closed = [n for n in range(1, 7) if grid_closed(q, n)]
    print(f"{q.name:12s} closed grids up to 6: {closed}")

print("\n== axiom sweeps ==")
print(verify_quantale_axioms(luk, GridChain(8)).summary())
print(verify_quantale_axioms_sampled(prod, seed=0, count=2000).summary())
print(no_zero_divisor_audit(luk, GridChain(6)).summary())
print(no_zero_divisor_audit(prod, SampleSpec(seed=0, count=60)).summary())

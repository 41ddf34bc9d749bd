"""Generated substructures, separation, and graded density.

Closes the down-set indicators of the 2-chain under join, tensor and the
interval action; the closure is the whole six-function space, so the
separation condition and density at level (n-1)/n come for free.  A
constants-only substructure shows both checks failing honestly.  A
closure is shown by its members: the library keeps no generation trace
and no audit of the separation lemmas' premises.
"""

from fractions import Fraction as F

from unitcat import (
    check_sep,
    density_at_level,
    down_set_indicators,
    function_space,
    generate_closure,
    lukasiewicz,
    sw_audit,
)
from unitcat.posets import all_posets, chain

luk = lukasiewicz()
c2 = chain(2)
cx = function_space(c2, luk, 2)

print("== closing the down-set indicators ==")
gens = down_set_indicators(cx)
L = generate_closure(cx, gens, ("join", "tensor", "act"))
print(f"{len(gens)} generators close to {L.mask.bit_count()} of {cx.size} functions")

print("\n== separation and density ==")
print(check_sep(L).summary())
print(density_at_level(cx, L, F(1, 2)).summary())

print("\n== constants alone separate nothing ==")
consts = generate_closure(cx, [], ("constants",))
print(check_sep(consts).summary())
print(density_at_level(cx, consts, F(1, 2)).summary())

print("\n== end-to-end audit across every poset on <= 3 points ==")
for size in (1, 2, 3):
    for Q in all_posets(size):
        for n in (1, 2, 3):
            rep = sw_audit(Q, luk, n)
            assert rep.passed
print("all audits pass; flagship report:")
rep = sw_audit(c2, luk, 2)
print(rep.summary())
for note in rep.notes:
    print("  ", note)

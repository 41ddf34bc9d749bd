"""Upper sets as functionals on the function space.

The flagship scan: the functionals on the 2-chain's six-function space
that pass the condition cut land exactly on the three upper-set
functionals.  The cut runs on the 20 join-preserving tables fixed by the
four join-irreducible functions, and agrees with the brute-force scan of
all 729 tables.  Also: the zero/anti inverse constructions and the
meet-action counterexample that condition (Min) exists to kill.
"""

from fractions import Fraction as F
from itertools import product as iproduct

from unitcat import (
    Functional,
    anti_set,
    check_conditions,
    function_space,
    lukasiewicz,
    minimum,
    phi_of,
    representability_audit,
    zero_set,
)
from unitcat.duality import join_homomorphisms, passes_cut
from unitcat.posets import chain, mask_elements, upper_sets

luk = lukasiewicz()
c2 = chain(2)

print("== the function space of the 2-chain at grid 2 ==")
cx = function_space(c2, luk, 2)
print("functions:", [tuple(map(str, f)) for f in cx.functions])

print("\n== upper sets give functionals; conditions hold on the nose ==")
for a in upper_sets(c2):
    phi = phi_of(a, cx)
    rep = check_conditions(phi)
    print(
        f"A={str(mask_elements(a)):8s} table={tuple(map(str, phi.table))}"
        f"  top={'ok' if rep.top is None else 'no'}"
        f"  ten={'ok' if rep.ten is None else 'no'}"
    )

print("\n== flagship scan: the cut over the join-irreducibles ==")
irreducibles = cx.join_order[0]
candidates = list(join_homomorphisms(cx))
print(
    f"join-irreducibles {irreducibles}: {len(candidates)} join-preserving"
    f" tables of 3^{cx.size} = {3 ** cx.size}"
)
passing = [t for t in candidates if passes_cut(cx, t)]
print("condition-cut survivors:", passing)
brute = [t for t in iproduct(range(3), repeat=cx.size) if passes_cut(cx, t)]
print("same as the brute-force scan of all 729 tables:", brute == passing)
print("upper-set functionals:  ", sorted(phi_of(a, cx).itable for a in upper_sets(c2)))
print(representability_audit(c2, luk, 2).summary())

print("\n== zero and anti sets invert the representation ==")
for a in upper_sets(c2):
    phi = phi_of(a, cx)
    print(
        f"A={str(mask_elements(a)):8s} zero={mask_elements(zero_set(phi))}"
        f" anti={mask_elements(anti_set(phi))}"
    )

print("\n== the meet-action counterexample needs (Min) to be excluded ==")
point = chain(1)
cx1 = function_space(point, minimum(), 2)
phi = Functional(cx1, [min(F(1, 2), f[0]) for f in cx1.functions])
rep = check_conditions(phi)
print("mon/act/sup hold:", rep.holds("mon", "act", "sup"))
print("minus fails with witness:", rep.minus)
print("zero set:", mask_elements(zero_set(phi)), " anti set:", mask_elements(anti_set(phi)))
print("equal to an upper-set functional?",
      any(phi == phi_of(a, cx1) for a in upper_sets(point)))

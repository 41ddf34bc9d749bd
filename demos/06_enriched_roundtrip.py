"""The enriched roundtrip: distributors out of the unit vs functionals.

Over a genuinely enriched two-point category (an asymmetric 1/2 gap),
every grid distributor is represented as a sup-tensor functional and
recovered exactly by the infimum retraction; the structure itself is
recovered from the function space, and the action of a fixed function is
the largest constrained endomap.  Distributor rows are grid levels (level
i is i/2 here), rendered as values.
"""

from fractions import Fraction as F

from unitcat import (
    adjunction_audit,
    enriched_c,
    enumerate_cx,
    grid_distributors,
    is_cogenerated,
    lemma1_audit,
    lukasiewicz,
    pointsep_extension_audit,
    retract_phi,
    tensor_maximality_audit,
    twovalued_audit,
    vcategory,
)
from unitcat.enriched import enumerate_enriched_categories
from unitcat.posets import chain
from unitcat.vcat import from_poset, unit_category

luk = lukasiewicz()
gops = luk.grid(2)


def show(levels):
    return tuple(str(gops.values[v]) for v in levels)


X = vcategory(luk, [["1", "1/2"], ["0", "1"]])

print("== the function space of the enriched pair ==")
cx = enumerate_cx(X, 2)
print(f"{cx.size} of 9 grid tables qualify; (0,1) is rejected by the 1/2 gap")
print("cogenerated by the interval:", is_cogenerated(cx))

print("\n== represent and retract every grid distributor ==")
for (phi,) in grid_distributors(unit_category(luk), X, 2):
    func = enriched_c(phi, cx)
    back = retract_phi(func)
    status = "ok" if back == phi else "MISMATCH"
    print(f"phi={show(phi)} -> table={show(func.itable)} -> {show(back)} {status}")

print("\n== the audits, over every cogenerated category on <= 3 points ==")
count = 0
for size in (1, 2, 3):
    for n in (1, 2):
        for Y in enumerate_enriched_categories(size, luk, n):
            assert adjunction_audit(Y, n).passed
            assert lemma1_audit(Y, n).passed
            assert pointsep_extension_audit(Y, n).passed
            count += 1
print(f"{count} categories: exact roundtrips, structure recovery, point separation")

print("\n== two-valued distributors are the lax-tensor ones ==")
Xc = from_poset(chain(2), luk)
order = [[gops.index(v) for v in row] for row in Xc.matrix]
print("order relation:", twovalued_audit(order, Xc, Xc, 2).summary())
half = ((0, 1),)  # the row (0, 1/2)
rep = twovalued_audit(half, unit_category(luk), Xc, 2)
print("row with a 1/2 entry:", rep.summary(), "|", "; ".join(rep.notes))

print("\n== the action of psi0 is the largest constrained endomap ==")
rep = tensor_maximality_audit(Xc, (F(1), F(1, 2)), 2)
print(rep.summary())
for note in rep.notes:
    print("  ", note)

"""Duality audits for finite separated [0,1]-categories over a closed grid.

On finite carriers the compact-Hausdorff part is discrete, so the objects
here are just separated categories; their function space collects the
grid-valued morphisms into the opposite interval, and the roundtrip
between distributors out of the unit and functionals on that space is
checked exhaustively.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Iterator, Sequence

from .duality import (
    FunctionSpace,
    Functional,
    _acts_and_joins,
    cx_space,
    join_homomorphisms,
    join_irreducibles,
)
from .reports import CheckReport
from .tnorms import GridChain, Quantale
from .values import ONE, ZERO, format_value
from .vcat import VCategory, is_poset_based, is_separated, validate_vcategory


FULLNESS_CAP = 200_000


def enumerate_cx(X: VCategory, n: int) -> FunctionSpace:
    """All grid tables psi with a(x,y) <= hom(psi(y), psi(x)).

    These are the morphisms into the opposite interval; the space always
    contains the representables a(-, x) and is closed under pointwise
    join, meet and action whenever the grid is closed.  It need not be
    closed under truncated minus or powers: under the minimum tensor the
    pair with a(0,1) = 1/2 admits (1/2, 1) but not (0, 1/2) = (1/2, 1)
    minus 1/2.

    Served by ``duality.cx_space``: the two most recently requested spaces
    of each grid are reused, so the result is shared and must not be
    mutated.
    """
    gops = X.quantale.grid(n)
    m = X.size
    ia = [[gops.index(X.a(x, y)) for y in range(m)] for x in range(m)]
    return cx_space(X, gops, ia)


def representable_index(space: FunctionSpace, x: int) -> int:
    X: VCategory = space.base
    return space.iindex[tuple(space.gops.index(X.a(y, x)) for y in range(X.size))]


def is_cogenerated(space: FunctionSpace) -> bool:
    """The cone of the space into the opposite interval is point-separating
    and initial: the structure of its base category is the pointwise
    infimum of hom gaps over the space."""
    X: VCategory = space.base
    gops, fs = space.gops, space.ifuncs
    ht = gops.hom_t
    pairs = [(x, y) for x in range(X.size) for y in range(X.size)]
    if any(
        min((ht[f[y]][f[x]] for f in fs), default=gops.n) != gops.index(X.a(x, y))
        for x, y in pairs
    ):
        return False
    return not any(x != y and all(f[x] == f[y] for f in fs) for x, y in pairs)


def grid_distributors_into(X: VCategory, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """All grid-valued distributors out of the unit: rows phi with
    phi(y) tensor a(y,z) <= phi(z)."""
    q = X.quantale
    values = GridChain(n).elements
    out = []
    for phi in iproduct(values, repeat=X.size):
        if all(
            q.tensor(phi[y], X.a(y, z)) <= phi[z]
            for y in range(X.size)
            for z in range(X.size)
        ):
            out.append(phi)
    return tuple(out)


def enriched_c(phi: Sequence[Fraction], space: FunctionSpace) -> Functional:
    """The functional of a distributor out of the unit: sup of psi tensor phi."""
    X: VCategory = space.base
    gops = space.gops
    tt = gops.tensor_t
    iphi = [gops.index(v) for v in phi]
    itable = [
        max((tt[f[x]][iphi[x]] for x in range(X.size)), default=0)
        for f in space.ifuncs
    ]
    return Functional.from_levels(space, itable)


def enriched_c_map(
    phi_matrix, cy: FunctionSpace, cx: FunctionSpace
) -> tuple[int, ...]:
    """Two-sided version: psi |-> (x |-> sup_y psi(y) tensor phi(x,y))."""
    gops = cy.gops
    tt = gops.tensor_t
    rows = [[gops.index(v) for v in row] for row in phi_matrix]
    out = []
    for f in cy.ifuncs:
        g = tuple(
            max((tt[f[y]][rows[x][y]] for y in range(len(f))), default=0)
            for x in range(cx.carrier_size)
        )
        out.append(cx.iindex[g])
    return tuple(out)


def retract_phi(phi_func: Functional) -> tuple[Fraction, ...]:
    """Recover a distributor row: inf over psi of hom(psi(x), value at psi)."""
    space = phi_func.space
    gops = space.gops
    ht = gops.hom_t
    t = phi_func.itable
    out = []
    for x in range(space.carrier_size):
        best = min(
            (ht[f[x]][t[i]] for i, f in enumerate(space.ifuncs)), default=gops.n
        )
        out.append(gops.value(best))
    return tuple(out)


def retract_phi_simplified(phi_func: Functional) -> tuple[Fraction, ...]:
    """Same infimum restricted to the functions hitting 1 at the point."""
    space = phi_func.space
    gops = space.gops
    n = gops.n
    t = phi_func.itable
    out = []
    for x in range(space.carrier_size):
        best = min(
            (t[i] for i, f in enumerate(space.ifuncs) if f[x] == n), default=n
        )
        out.append(gops.value(best))
    return tuple(out)


def is_finsup_functional(phi_func: Functional) -> bool:
    """Monotone, action-preserving and join-preserving table (the finitely
    cocontinuous maps out of the function space)."""
    return _acts_and_joins(phi_func.space, phi_func.itable)


def adjunction_audit(X: VCategory, n: int) -> CheckReport:
    """Roundtrip both ways between grid distributors and functionals.

    Retraction after representation must be the identity on distributors
    (exact); representation after retraction is checked against every
    join/action-preserving functional, any positive gap logged in grid
    steps as a finding.  Those functionals are found among the tables of
    ``join_homomorphisms``; the scan runs when their predicted count
    (n+1)^|J| stays under ``FULLNESS_CAP`` and is skipped, with a note,
    past it.
    """
    failures = []
    findings = []
    notes = []
    checked = 0
    space = enumerate_cx(X, n)
    if not is_cogenerated(space):
        return CheckReport(
            name="enriched-adjunction",
            checked=0,
            notes=("skipped: category is not cogenerated by the interval",),
        )
    for phi in grid_distributors_into(X, n):
        checked += 1
        rep = enriched_c(phi, space)
        back = retract_phi(rep)
        simp = retract_phi_simplified(rep)
        if back != simp:
            failures.append(
                f"retract formulas disagree at phi={_row(phi)}: "
                f"{_row(back)} vs {_row(simp)}"
            )
        if back != phi:
            failures.append(f"retract(c(phi)) != phi at phi={_row(phi)}")

    max_gap = 0
    irreducibles = len(join_irreducibles(space))
    sizes = f"|J| = {irreducibles}, {n + 1}^{space.size} grid tables"
    if (n + 1) ** irreducibles <= FULLNESS_CAP:
        scanned = 0
        for itable in join_homomorphisms(space):
            scanned += 1
            func = Functional.from_levels(space, itable)
            if not is_finsup_functional(func):
                continue
            checked += 1
            back = enriched_c(retract_phi(func), space)
            if any(b > t for b, t in zip(back.itable, func.itable)):
                failures.append(f"c(retract(.)) above the functional at {itable}")
            gap = max(t - b for b, t in zip(back.itable, func.itable))
            max_gap = max(max_gap, gap)
        if max_gap > 0:
            findings.append(f"fullness gap: max {max_gap}/{n} grid steps")
        notes.append(
            f"fullness direction max gap {max_gap}/{n} over {scanned} "
            f"join-preserving tables ({sizes})"
        )
    else:
        notes.append(
            f"fullness direction skipped: {n + 1}^{irreducibles} exceeds cap "
            f"{FULLNESS_CAP} ({sizes})"
        )
    return CheckReport(
        name="enriched-adjunction",
        checked=checked,
        failures=tuple(failures[:8]),
        findings=tuple(findings),
        notes=tuple(notes),
    )


def lemma1_audit(X: VCategory, n: int) -> CheckReport:
    """Structure recovery: a(y,x) is the least value at y among the
    functions hitting 1 at x."""
    space = enumerate_cx(X, n)
    gops = space.gops
    failures = []
    checked = 0
    if not is_cogenerated(space):
        return CheckReport(
            name="structure-recovery",
            checked=0,
            notes=("skipped: category is not cogenerated by the interval",),
        )
    for x in range(X.size):
        for y in range(X.size):
            checked += 1
            best = min(
                (f[y] for f in space.ifuncs if f[x] == gops.n), default=gops.n
            )
            if gops.value(best) != X.a(y, x):
                failures.append(
                    f"a({y},{x}) = {format_value(X.a(y, x))} but infimum gives "
                    f"{format_value(gops.value(best))}"
                )
    return CheckReport(
        name="structure-recovery", checked=checked, failures=tuple(failures)
    )


def pointsep_extension_audit(X: VCategory, n: int) -> CheckReport:
    """Distinct grid distributors are separated by some function's sup-tensor."""
    space = enumerate_cx(X, n)
    phis = grid_distributors_into(X, n)
    reps = [enriched_c(phi, space) for phi in phis]
    failures = []
    checked = 0
    for i in range(len(phis)):
        for j in range(i + 1, len(phis)):
            checked += 1
            if reps[i].itable == reps[j].itable:
                failures.append(
                    f"{_row(phis[i])} and {_row(phis[j])} are inseparable"
                )
    return CheckReport(
        name="pointsep-extension", checked=checked, failures=tuple(failures[:8])
    )


def twovalued_audit(phi_matrix, src: VCategory, dst: VCategory, n: int) -> CheckReport:
    """0/1-valued distributors are exactly the ones whose functional map is
    lax for the pointwise tensor.  Only available over poset-based carriers,
    where that tensor exists on the function space."""
    if not (is_poset_based(src) and is_poset_based(dst)):
        raise ValueError("the pointwise tensor on the space needs poset-based carriers")
    space = enumerate_cx(dst, n)
    tt = space.gops.tensor_t
    rows = list(phi_matrix)
    src = len(rows)
    failures = []
    checked = 0
    two_valued = all(v in (ZERO, ONE) for row in rows for v in row)
    # lax tensor check of the induced map on every row functional
    lax = True
    witness = None
    for x in range(src):
        func = enriched_c(rows[x], space)
        t = func.itable
        for i, j, _, k_tens in space.pair_ops():
            checked += 1
            if t[k_tens] > tt[t[i]][t[j]]:
                lax = False
                witness = (x, i, j)
                break
        if not lax:
            break
    if two_valued != lax:
        failures.append(
            f"two-valued={two_valued} but lax-tensor={lax}"
            + (f" (witness row {witness[0]}, f{witness[1]}, f{witness[2]})" if witness else "")
        )
    notes = ()
    if not two_valued and witness:
        notes = (f"lax tensor fails at row {witness[0]} on (f{witness[1]}, f{witness[2]})",)
    return CheckReport(
        name="two-valued", checked=checked, failures=tuple(failures), notes=notes
    )


def tensor_maximality_audit(X: VCategory, psi0: Sequence[Fraction], n: int) -> CheckReport:
    """Among the endomaps induced by grid distributors, constrained to sit
    below the identity and send the top below psi0, the action of psi0 is
    the pointwise maximum (and itself satisfies the constraints)."""
    if not is_poset_based(X) or X.size > 3 or n > 2:
        raise ValueError("maximality scan is limited to poset-based carriers, |X| <= 3, n <= 2")
    space = enumerate_cx(X, n)
    gops = space.gops
    ipsi0 = tuple(gops.index(v) for v in psi0)
    if ipsi0 not in space.iindex:
        raise ValueError("psi0 must be a member of the function space")
    q = X.quantale
    m = X.size
    values = GridChain(n).elements
    failures = []
    checked = 0

    # the expected maximum: psi |-> psi0 tensor psi pointwise
    expected = tuple(space.op_table[1][space.iindex[ipsi0]])

    survivors = []
    found_expected = False
    top = space.ifuncs[space.top_index]
    for flat in iproduct(values, repeat=m * m):
        mat = [flat[i * m : (i + 1) * m] for i in range(m)]
        if not all(
            q.tensor(q.tensor(X.a(x2, x), mat[x][y]), X.a(y, y2)) <= mat[x2][y2]
            for x in range(m)
            for y in range(m)
            for x2 in range(m)
            for y2 in range(m)
        ):
            continue
        checked += 1
        cmap = enriched_c_map(mat, space, space)
        # constraints: image of top below psi0, image of each below itself
        t_img = space.ifuncs[cmap[space.top_index]]
        if any(a > b for a, b in zip(t_img, ipsi0)):
            continue
        if any(
            space.ifuncs[cmap[i]][x] > space.ifuncs[i][x]
            for i in range(space.size)
            for x in range(m)
        ):
            continue
        survivors.append(cmap)
        if cmap == expected:
            found_expected = True
        for i in range(space.size):
            img = space.ifuncs[cmap[i]]
            exp = space.ifuncs[expected[i]]
            if any(a > b for a, b in zip(img, exp)):
                failures.append(
                    f"survivor exceeds the action of psi0 at function f{i}"
                )
                break
    if not found_expected:
        failures.append("the action of psi0 is not among the survivors")
    notes = (f"{len(survivors)} surviving endomaps", f"top constraint uses psi0={_row(psi0)}")
    return CheckReport(
        name="tensor-maximality",
        checked=checked,
        failures=tuple(failures[:8]),
        notes=notes,
    )


def enumerate_enriched_categories(size: int, q: Quantale, n: int) -> Iterator[VCategory]:
    """All separated grid-valued categories on the carrier, deterministically.

    Diagonal entries are the unit; off-diagonal cells range over the grid,
    filtered by transitivity and separation; by Yoneda each is cogenerated
    (the representables separate points and attain the infimum).
    """
    values = GridChain(n).elements
    cells = [(x, y) for x in range(size) for y in range(size) if x != y]
    for combo in iproduct(values, repeat=len(cells)):
        matrix = [[ONE] * size for _ in range(size)]
        for (x, y), v in zip(cells, combo):
            matrix[x][y] = v
        X = VCategory(q, tuple(tuple(row) for row in matrix))
        if not validate_vcategory(X).passed:
            continue
        if is_separated(X):
            yield X


def _row(vals) -> str:
    return "(" + ",".join(format_value(v) for v in vals) + ")"

"""Duality audits for finite separated [0,1]-categories over a closed grid.

On finite carriers the compact-Hausdorff part is discrete, so the objects
here are just separated categories; their function space collects the
grid-valued morphisms into the opposite interval, and the roundtrip
between distributors out of the unit and functionals on that space is
checked exhaustively.
"""

from __future__ import annotations

from fractions import Fraction
from operator import getitem
from typing import Iterator, Sequence

from .duality import (
    FunctionSpace,
    Functional,
    c_of_levels,
    certify,
    count_join_homomorphisms,
    cx_levels,
    cx_space,
    join_homomorphisms,
    structure_levels,
)
from .reports import CheckReport
from .tnorms import GridOps, Quantale
from .values import ONE, format_value
from .vcat import VCategory, is_poset_based, is_separated, unit_category, validate_vcategory


def enumerate_cx(X: VCategory, n: int) -> FunctionSpace:
    """All grid tables psi with a(x,y) <= hom(psi(y), psi(x)).

    These are the morphisms into the opposite interval; the space always
    contains the representables a(-, x) and is closed under pointwise
    join, meet and action whenever the grid is closed.  It need not be
    closed under truncated minus or powers: under the minimum tensor the
    pair with a(0,1) = 1/2 admits (1/2, 1) but not (0, 1/2) = (1/2, 1)
    minus 1/2.

    Served by ``duality.cx_space``: the space of this category object is
    reused while a caller holds it, so the result is shared and must not
    be mutated.
    """
    return cx_space(X, X.quantale.grid(n))


def is_cogenerated(space: FunctionSpace) -> bool:
    """The cone of the space into the opposite interval is point-separating
    and initial: the structure of its base category is the pointwise
    infimum of hom gaps over the space.

    Read off the ``level_masks``: some function has f(y) = a and f(x) = b
    iff the two masks meet, so the infimum at (x, y) is the least
    hom(a, b) over the meeting level pairs, and x and y are separated iff
    their rows of masks differ.
    """
    ht = space.gops.hom_t
    ia = space.structure
    eq = space.level_masks
    for x, row in enumerate(ia):
        for y, level in enumerate(row):
            gaps = (
                ht[a][b]
                for a, at_a in enumerate(eq[y])
                for b, at_b in enumerate(eq[x])
                if at_a & at_b
            )
            if min(gaps, default=space.n) != level:
                return False
    return not any(eq[x] == eq[y] for x in range(len(eq)) for y in range(x))


def grid_distributors(X: VCategory, Y: VCategory, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All grid-valued distributors X -|-> Y, as level matrices phi (row x,
    column y) with a(x2,x) tensor phi(x,y) tensor b(y,y2) <= phi(x2,y2),
    in ascending lexicographic order: the ``cx_levels`` tables on the
    cells (x, y), row-major, with structure a(x2,x) tensor b(y,y2) from
    (x2,y2) to (x,y).

    Out of the unit category (X = ``unit_category``) a distributor is one
    row phi with phi(y) tensor b(y,y2) <= phi(y2): a [0,1]-functor from Y
    into the interval.  With Y = X it is an endodistributor of X.

    Each side's structure levels are read off its C(.) from ``cx_space``,
    which a caller that holds that space is served, except a one-point
    side's: that is [[n]] by reflexivity, so the unit's C is never built
    here.
    """
    gops = Y.quantale.grid(n)
    tt = gops.tensor_t
    a, b = ([[n]] if Z.size == 1 else cx_space(Z, gops).structure for Z in (X, Y))
    width = len(b)
    cells = [(x, y) for x in range(len(a)) for y in range(width)]
    icells = [[tt[a[x2][x]][b[y][y2]] for x, y in cells] for x2, y2 in cells]
    return [
        tuple(flat[x * width : (x + 1) * width] for x in range(len(a)))
        for flat in cx_levels(gops, icells)
    ]


def enriched_c(phi: Sequence[int], space: FunctionSpace) -> Functional:
    """The functional of a level row out of the unit: sup of psi tensor
    phi, the space's ``row_column`` of the row."""
    return Functional.from_levels(space, space.row_column(tuple(phi)))


def retract_phi(phi_func: Functional) -> tuple[int, ...]:
    """Recover a level row: inf over psi of hom(psi(x), value at psi), the
    min at each point x of its hom rows (``point_hom_rows``) read at the
    table's values."""
    space = phi_func.space
    t = phi_func.itable
    return tuple(min(map(getitem, rows, t), default=space.n) for rows in space.point_hom_rows)


def retract_phi_simplified(phi_func: Functional) -> tuple[int, ...]:
    """Same infimum restricted to the functions hitting 1 at the point."""
    space = phi_func.space
    n = space.n
    pairs = list(zip(space.ifuncs, phi_func.itable))
    return tuple(
        min((v for f, v in pairs if f[x] == n), default=n)
        for x in range(space.carrier_size)
    )


def is_finsup_functional(phi_func: Functional) -> bool:
    """Monotone, action-preserving and join-preserving table (the finitely
    cocontinuous maps out of the function space), decided on J by
    ``duality.certify``: it preserves joins, sends the bottom to 0 and
    commutes with the action at every join-irreducible."""
    return certify(phi_func.space, phi_func.itable, ("act",))


def adjunction_audit(X: VCategory, n: int) -> CheckReport:
    """Roundtrip both ways between grid distributors and functionals.

    Each c(phi) must be finitely cocontinuous (``is_finsup_functional``),
    and retraction after it the identity on distributors (exact);
    representation after retraction is checked against every
    join/action-preserving functional, any positive gap logged in grid
    steps as a finding.  Those functionals are the survivors of
    ``join_homomorphisms`` pruned on the action's instances at the
    join-irreducibles J, none decided again; the note counts every
    join-preserving table (``count_join_homomorphisms``).  The scan is
    always exhaustive; only a category the interval does not cogenerate
    is skipped, with a note.
    """
    failures = []
    findings = []
    checked = 0
    space = enumerate_cx(X, n)
    if not is_cogenerated(space):
        return CheckReport(
            name="enriched-adjunction",
            checked=0,
            notes=("skipped: category is not cogenerated by the interval",),
        )
    gops = space.gops
    for (phi,) in grid_distributors(unit_category(X.quantale), X, n):
        checked += 1
        rep = enriched_c(phi, space)
        if not is_finsup_functional(rep):
            failures.append(f"c(phi) is not finitely cocontinuous at phi={_row(gops, phi)}")
        back = retract_phi(rep)
        simp = retract_phi_simplified(rep)
        if back != simp:
            failures.append(
                f"retract formulas disagree at phi={_row(gops, phi)}: "
                f"{_row(gops, back)} vs {_row(gops, simp)}"
            )
        if back != phi:
            failures.append(f"retract(c(phi)) != phi at phi={_row(gops, phi)}")

    max_gap = 0
    scanned = count_join_homomorphisms(space)
    for itable in join_homomorphisms(space, ("act",)):
        func = Functional.from_levels(space, itable)
        checked += 1
        back = enriched_c(retract_phi(func), space)
        if any(b > t for b, t in zip(back.itable, func.itable)):
            failures.append(f"c(retract(.)) above the functional at {itable}")
        gap = max(t - b for b, t in zip(back.itable, func.itable))
        max_gap = max(max_gap, gap)
    if max_gap > 0:
        findings.append(f"fullness gap: max {max_gap}/{n} grid steps")
    note = (
        f"fullness direction max gap {max_gap}/{n} over {scanned} join-preserving "
        f"tables (|J| = {len(space.join_order[0])}, {n + 1}^{space.size} grid tables)"
    )
    return CheckReport(
        name="enriched-adjunction",
        checked=checked,
        failures=tuple(failures[:8]),
        findings=tuple(findings),
        notes=(note,),
    )


def lemma1_audit(X: VCategory, n: int) -> CheckReport:
    """Structure recovery: a(y,x) is the least value at y among the
    functions hitting 1 at x, the least level whose mask at y meets the
    mask of level n at x (``FunctionSpace.level_masks``)."""
    space = enumerate_cx(X, n)
    gops = space.gops
    ia = space.structure
    failures = []
    checked = 0
    if not is_cogenerated(space):
        return CheckReport(
            name="structure-recovery",
            checked=0,
            notes=("skipped: category is not cogenerated by the interval",),
        )
    eq = space.level_masks
    for x in range(X.size):
        # the functions hitting 1 at x; the least level at y meeting them
        ones = eq[x][gops.n]
        for y in range(X.size):
            checked += 1
            best = next((level for level, mask in enumerate(eq[y]) if mask & ones), gops.n)
            if best != ia[y][x]:
                failures.append(
                    f"a({y},{x}) = {format_value(X.a(y, x))} but infimum gives "
                    f"{format_value(gops.values[best])}"
                )
    return CheckReport(
        name="structure-recovery", checked=checked, failures=tuple(failures)
    )


def pointsep_extension_audit(X: VCategory, n: int) -> CheckReport:
    """Distinct grid distributors are separated by some function's sup-tensor."""
    space = enumerate_cx(X, n)
    gops = space.gops
    phis = [phi for (phi,) in grid_distributors(unit_category(X.quantale), X, n)]
    reps = [enriched_c(phi, space) for phi in phis]
    failures = []
    checked = 0
    for i in range(len(phis)):
        for j in range(i + 1, len(phis)):
            checked += 1
            if reps[i].itable == reps[j].itable:
                failures.append(
                    f"{_row(gops, phis[i])} and {_row(gops, phis[j])} are inseparable"
                )
    return CheckReport(
        name="pointsep-extension", checked=checked, failures=tuple(failures[:8])
    )


def twovalued_audit(phi_matrix, src: VCategory, dst: VCategory, n: int) -> CheckReport:
    """Distributors (level rows) valued in the grid tensor's idempotents are
    exactly the ones whose functional map is lax for the pointwise tensor;
    under Lukasiewicz those are the 0/1-valued ones.  Only available over
    poset-based carriers, where that tensor exists on the function space
    and is ``tensor_closed``: ``certify`` decides each row lax on J x J,
    in order up to the first that is not, the witness.  One check is
    counted per row decided.  A matrix that is not one row of |dst| grid
    levels per point of src, or whose rows break the distributor law of
    ``grid_distributors``, raises ValueError naming the first bad row."""
    if not (is_poset_based(src) and is_poset_based(dst)):
        raise ValueError("the pointwise tensor on the space needs poset-based carriers")
    space = enumerate_cx(dst, n)
    tt = space.gops.tensor_t
    rows = list(phi_matrix)
    if len(rows) != src.size:
        raise ValueError(
            f"{len(rows)} rows on a source of {src.size} points: row "
            f"{min(len(rows), src.size)} is {'extra' if len(rows) > src.size else 'missing'}"
        )
    for x, row in enumerate(rows):
        if len(row) != dst.size or not all(0 <= v <= n for v in row):
            raise ValueError(f"row {x} {tuple(row)} is not {dst.size} levels of Q_{n}")
    a = [[n]] if src.size == 1 else structure_levels(src, space.gops)
    b = space.structure
    for x, row in enumerate(rows):
        if any(
            tt[tt[a[x2][x]][v]][b[y][y2]] > rows[x2][y2]
            for x2 in range(src.size)
            if a[x2][x]
            for y, v in enumerate(row)
            for y2 in range(dst.size)
        ):
            raise ValueError(f"row {x} {tuple(row)} is not a distributor src -|-> dst")
    idempotent = all(tt[v][v] == v for row in rows for v in row)
    witness = None
    for x, row in enumerate(rows):
        if not certify(space, enriched_c(row, space).itable, ("tenlax",)):
            witness = x
            break
    lax = witness is None
    checked = len(rows) if lax else witness + 1
    failures = notes = ()
    if idempotent != lax:
        failures = (
            f"idempotent-valued={idempotent} but lax-tensor={lax}"
            + ("" if lax else f" (witness row {witness})"),
        )
    if not (idempotent or lax):
        notes = (f"lax tensor fails at row {witness}",)
    return CheckReport(name="two-valued", checked=checked, failures=failures, notes=notes)


def tensor_maximality_audit(X: VCategory, psi0: Sequence[Fraction], n: int) -> CheckReport:
    """Among the endomaps induced by grid distributors, constrained to sit
    below the identity and send the top below psi0, the action of psi0 is
    the pointwise maximum (and itself satisfies the constraints).  psi0
    is read through the space's Fraction ``index``; a psi0 outside the
    space raises ValueError."""
    # held, so the audits are served the space psi0 is looked up in
    space = enumerate_cx(X, n)
    return tensor_maximality_audits(X, (space.index.get(tuple(psi0), -1),), n)[0]


def tensor_maximality_audits(X: VCategory, psi0s: Sequence[int], n: int) -> list[CheckReport]:
    """``tensor_maximality_audit`` for each psi0 in turn, given by its
    index in the function space, with the endomaps of X enumerated and
    mapped once for all of them."""
    if not is_poset_based(X) or X.size > 3 or n > 2:
        raise ValueError("maximality scan is limited to poset-based carriers, |X| <= 3, n <= 2")
    space = enumerate_cx(X, n)
    if any(not 0 <= k < space.size for k in psi0s):
        raise ValueError("psi0 must be a member of the function space")
    gops = space.gops
    fs = space.ifuncs
    cmaps = [c_of_levels(mat, space, space) for mat in grid_distributors(X, X, n)]
    # the constraint independent of psi0: the image of each function is
    # below itself
    below_identity = [
        cmap
        for cmap in cmaps
        if all(a <= b for i, f in enumerate(fs) for a, b in zip(fs[cmap[i]], f))
    ]
    reports = []
    for k in psi0s:
        failures = []
        # the expected maximum: psi |-> psi0 tensor psi pointwise
        expected = tuple(space.pair_indices(gops.tensor_t, k, range(space.size)))
        survivors = [
            cmap
            for cmap in below_identity
            if all(a <= b for a, b in zip(fs[cmap[space.top_index]], fs[k]))
        ]
        for cmap in survivors:
            for i in range(space.size):
                if any(a > b for a, b in zip(fs[cmap[i]], fs[expected[i]])):
                    failures.append(
                        f"survivor exceeds the action of psi0 at function f{i}"
                    )
                    break
        if expected not in survivors:
            failures.append("the action of psi0 is not among the survivors")
        notes = (
            f"{len(survivors)} surviving endomaps",
            f"top constraint uses psi0={_row(gops, fs[k])}",
        )
        reports.append(
            CheckReport(
                name="tensor-maximality",
                checked=len(cmaps),
                failures=tuple(failures[:8]),
                notes=notes,
            )
        )
    return reports


def enumerate_enriched_categories(size: int, q: Quantale, n: int) -> Iterator[VCategory]:
    """All separated grid-valued categories on the carrier, deterministically.

    Diagonal entries are the unit; off-diagonal cells range over the grid
    levels, row-major, in ascending lexicographic order.  The search
    backtracks over the cells in that order and prunes a partial matrix
    as soon as a cell completes a failing triangle a(x,y) tensor a(y,z)
    <= a(x,z) (the triangles through the diagonal always hold) or a
    separation pair a(x,y) = a(y,x) = 1, so no matrix is built for a
    pruned prefix.  By Yoneda each category is cogenerated (the
    representables separate points and attain the infimum).

    Fractions are built only for the categories yielded, and each is
    checked again by ``validate_vcategory`` (in Fractions, tensored once
    per quantale and set of values, not once per matrix) and
    ``is_separated``; a disagreement raises RuntimeError.  The grid must
    be closed.
    """
    gops = q.grid(n)
    tt, values = gops.tensor_t, gops.values
    cells = [(x, y) for x in range(size) for y in range(size) if x != y]
    position = {cell: p for p, cell in enumerate(cells)}
    converse = [position[y, x] for x, y in cells]
    # triangles[p]: the cell positions (x,y), (y,z), (x,z) of each triangle
    # on three distinct points whose last cell in the order is cells[p]
    triangles: list[list[tuple[int, int, int]]] = [[] for _ in cells]
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if len({x, y, z}) == 3:
                    trio = (position[x, y], position[y, z], position[x, z])
                    triangles[max(trio)].append(trio)
    level = [0] * len(cells)

    def extend(p: int):
        if p == len(cells):
            yield _checked_category(q, values, size, cells, level)
            return
        c = converse[p]
        for v in range(n + 1):
            level[p] = v
            if v == n and c < p and level[c] == n:
                continue
            if all(tt[level[a]][level[b]] <= level[k] for a, b, k in triangles[p]):
                yield from extend(p + 1)

    return extend(0)


def _checked_category(q: Quantale, values, size: int, cells, level) -> VCategory:
    matrix = [[ONE] * size for _ in range(size)]
    for (x, y), v in zip(cells, level):
        matrix[x][y] = values[v]
    X = VCategory(q, tuple(tuple(row) for row in matrix))
    if not (validate_vcategory(X).passed and is_separated(X)):
        raise RuntimeError(f"level search yielded a matrix the axiom check refuses: {X.matrix}")
    return X


def _row(gops: GridOps, levels) -> str:
    return "(" + ",".join(format_value(gops.values[v]) for v in levels) + ")"

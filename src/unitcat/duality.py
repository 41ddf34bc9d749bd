"""Function spaces over finite posets and their [0,1]-valued functionals.

CX is the grid-restricted space of antitone maps X -> Q_n with pointwise
operations; functionals are tables on its enumeration.  Spaces, functionals,
the condition checkers (monotonicity / action / join / tensor / top /
truncated minus) and the inverse constructions (zero set, anti set) hold
only grid levels; Fractions appear at the boundary, via the space's GridOps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from typing import Iterator, Optional, Sequence

from .posets import FinPoset, is_irreducible, mask_elements, upper_sets
from .reports import CheckReport
from .tnorms import GridOps, Quantale, nilpotent_free

EXHAUSTIVE_CAP = 2_000_000
UNARY_OPS = ("act", "minus", "power")


class FunctionSpace:
    """Deterministically enumerated finite function space with pointwise ops.

    ``ifuncs`` are grid-level tuples in ascending lexicographic order;
    ``functions``/``index`` are their Fraction views, rendered on first
    use.  Pairwise operation tables are built lazily and cached; readers
    take the pointwise join and tensor from ``pair_ops`` or ``op_table``.
    """

    def __init__(self, base, gops: GridOps, levels):
        self.base = base
        self.gops = gops
        self.quantale = gops.quantale
        self.n = gops.n
        self.ifuncs = tuple(levels)
        self.iindex = {f: i for i, f in enumerate(self.ifuncs)}
        self.carrier_size = len(self.ifuncs[0]) if self.ifuncs else 0
        self._le_pairs = None
        self._pair_ops = None
        self._unary_ops = None
        self._unary_escapes: dict[str, str] = {}

    @property
    def size(self) -> int:
        return len(self.ifuncs)

    @cached_property
    def functions(self) -> tuple[tuple[Fraction, ...], ...]:
        values = self.gops.values
        return tuple(tuple(values[a] for a in f) for f in self.ifuncs)

    @cached_property
    def index(self) -> dict:
        return {f: i for i, f in enumerate(self.functions)}

    def constant_index(self, level: int) -> int:
        return self.iindex[(level,) * self.carrier_size]

    @property
    def top_index(self) -> int:
        return self.constant_index(self.n)

    @property
    def bottom_index(self) -> int:
        return self.constant_index(0)

    def le_pairs(self):
        """(i, j) with f_i <= f_j pointwise, i != j."""
        if self._le_pairs is None:
            fs = self.ifuncs
            m = len(fs)
            self._le_pairs = [
                (i, j)
                for i in range(m)
                for j in range(m)
                if i != j and all(a <= b for a, b in zip(fs[i], fs[j]))
            ]
        return self._le_pairs

    def pair_ops(self):
        """(i, j, join_index, tensor_index) for i <= j (both ops symmetric).

        tensor_index is -1 when the pointwise tensor leaves the space,
        which can happen over non-poset carriers; joins always stay.
        """
        if self._pair_ops is None:
            fs = self.ifuncs
            tt = self.gops.tensor_t
            idx = self.iindex
            out = []
            for i in range(len(fs)):
                fi = fs[i]
                for j in range(i, len(fs)):
                    fj = fs[j]
                    join = tuple(a if a >= b else b for a, b in zip(fi, fj))
                    tens = tuple(tt[a][b] for a, b in zip(fi, fj))
                    out.append((i, j, idx[join], idx.get(tens, -1)))
            self._pair_ops = out
        return self._pair_ops

    @cached_property
    def op_table(self) -> tuple[list[list[int]], list[list[int]]]:
        """(join, tensor) index matrices filled from ``pair_ops``: entry
        [i][j] is the index of the pointwise join or tensor of f_i and f_j,
        and a tensor entry is -1 where the result leaves the space."""
        join = [[0] * self.size for _ in range(self.size)]
        tensor = [[0] * self.size for _ in range(self.size)]
        for i, j, k_join, k_tens in self.pair_ops():
            join[i][j] = join[j][i] = k_join
            tensor[i][j] = tensor[j][i] = k_tens
        return join, tensor

    def unary_ops(self):
        """Per grid level u: action, truncated minus and power tables.

        A minus or power entry is -1 when the result leaves the space,
        which can happen over enriched carriers (the action always stays).
        Readers of those two tables go through ``closed_unary``.
        """
        if self._unary_ops is None:
            fs = self.ifuncs
            tt = self.gops.tensor_t
            ht = self.gops.hom_t
            idx = self.iindex
            act, minus, power = [], [], []
            for u in range(self.n + 1):
                act.append(tuple(idx[tuple(tt[u][a] for a in f)] for f in fs))
                minus.append(
                    tuple(
                        idx.get(tuple(a - u if a > u else 0 for a in f), -1)
                        for f in fs
                    )
                )
                power.append(
                    tuple(idx.get(tuple(ht[u][a] for a in f), -1) for f in fs)
                )
            self._unary_ops = (act, minus, power)
            for op, table in zip(UNARY_OPS, self._unary_ops):
                for u, row in enumerate(table):
                    if -1 in row and op not in self._unary_escapes:
                        self._unary_escapes[op] = (
                            f"{op} of f{row.index(-1)} at {u}/{self.n} "
                            "leaves the function space"
                        )
        return self._unary_ops

    def closed_unary(self, op: str):
        """The "act", "minus" or "power" table of ``unary_ops``; raises
        ValueError when one of its results leaves the space."""
        table = self.unary_ops()[UNARY_OPS.index(op)]
        if op in self._unary_escapes:
            raise ValueError(self._unary_escapes[op])
        return table


def function_space(P: FinPoset, q: Quantale, n: int) -> FunctionSpace:
    """All antitone maps X -> Q_n (morphisms into the opposite interval)."""
    m = P.size
    pairs = [(x, y) for x in range(m) for y in range(m) if P.leq[x][y] and x != y]
    levels = [
        f for f in iproduct(range(n + 1), repeat=m) if all(f[x] >= f[y] for x, y in pairs)
    ]
    return FunctionSpace(P, q.grid(n), levels)


class Functional:
    """A [0,1]-valued table on an enumerated function space, held as grid
    levels; Fractions pass through the space's GridOps, off-grid ones raise."""

    __slots__ = ("space", "itable")

    def __init__(self, space: FunctionSpace, table):
        self.space = space
        self.itable = tuple(space.gops.index(v) for v in table)

    @classmethod
    def from_levels(cls, space: FunctionSpace, itable) -> "Functional":
        f = cls.__new__(cls)
        f.space = space
        f.itable = tuple(itable)
        return f

    @property
    def table(self) -> tuple[Fraction, ...]:
        values = self.space.gops.values
        return tuple(values[i] for i in self.itable)

    def __call__(self, i: int) -> Fraction:
        return self.space.gops.values[self.itable[i]]

    def __eq__(self, other) -> bool:
        return isinstance(other, Functional) and self.itable == other.itable

    def __hash__(self) -> int:
        return hash(self.itable)


def phi_of(a_mask: int, space: FunctionSpace) -> Functional:
    """The functional of an upper set: sup of the function over it (0 if empty)."""
    xs = mask_elements(a_mask)
    itable = [max((f[x] for x in xs), default=0) for f in space.ifuncs]
    return Functional.from_levels(space, itable)


@dataclass(frozen=True)
class ConditionReport:
    """Witness (or None = pass) for each functional condition.

    ``minus`` is equivariance under truncated subtraction; ``zero_witness``
    is the normalization condition: any point seeing a positive value of a
    null function also sees a full-value null function.
    """

    mon: Optional[str]
    act: Optional[str]
    sup: Optional[str]
    tenlax: Optional[str]
    ten: Optional[str]
    top: Optional[str]
    minus: Optional[str]
    zero_witness: Optional[str]

    def holds(self, *names: str) -> bool:
        return all(getattr(self, name) is None for name in names)

    def cut(self, drop_tenlax: bool = False) -> bool:
        names = ["mon", "act", "sup", "minus"] + ([] if drop_tenlax else ["tenlax"])
        return self.holds(*names)


def check_conditions(phi: Functional) -> ConditionReport:
    """Evaluate every condition exhaustively over the space and the grid."""
    sp = phi.space
    t = phi.itable
    tt = sp.gops.tensor_t
    n = sp.n

    mon = None
    for i, j in sp.le_pairs():
        if t[i] > t[j]:
            mon = f"mon: f{i} <= f{j} but {t[i]}/{n} > {t[j]}/{n}"
            break

    sup = tenlax = ten = None
    for i, j, k_join, k_tens in sp.pair_ops():
        a, b = t[i], t[j]
        if sup is None and t[k_join] != (a if a >= b else b):
            sup = f"sup at (f{i}, f{j})"
        if k_tens >= 0:
            lhs, rhs = t[k_tens], tt[a][b]
            if tenlax is None and lhs > rhs:
                tenlax = f"tenlax at (f{i}, f{j})"
            if ten is None and lhs != rhs:
                ten = f"ten at (f{i}, f{j})"
        if sup and tenlax and ten:
            break

    act_t, minus_t = sp.closed_unary("act"), sp.closed_unary("minus")
    act = minus = None
    for u in range(n + 1):
        au, mu = act_t[u], minus_t[u]
        for i in range(sp.size):
            if act is None and t[au[i]] != tt[u][t[i]]:
                act = f"act at (u={u}/{n}, f{i})"
            if minus is None and t[mu[i]] != max(t[i] - u, 0):
                minus = f"minus at (u={u}/{n}, f{i})"
        if act and minus:
            break

    top = None if sp.size and t[sp.top_index] == n else f"top: value {t[sp.top_index]}/{n}"

    zero_witness = None
    for x in range(sp.carrier_size):
        sees_positive_null = any(
            f[x] > 0 and t[i] == 0 for i, f in enumerate(sp.ifuncs)
        )
        if sees_positive_null:
            if not any(f[x] == n and t[i] == 0 for i, f in enumerate(sp.ifuncs)):
                zero_witness = f"zero-witness fails at point {x}"
                break

    return ConditionReport(mon, act, sup, tenlax, ten, top, minus, zero_witness)


def _acts_and_joins(space: FunctionSpace, t) -> bool:
    """The level table t commutes with the action and with binary joins."""
    tt = space.gops.tensor_t
    for u, au in enumerate(space.closed_unary("act")):
        tu = tt[u]
        for i in range(space.size):
            if t[au[i]] != tu[t[i]]:
                return False
    for i, j, k_join, _ in space.pair_ops():
        a, b = t[i], t[j]
        if t[k_join] != (a if a >= b else b):
            return False
    return True


def passes_cut(space: FunctionSpace, itable, drop_tenlax: bool = False) -> bool:
    """Fast path for the representability cut (act, sup, minus[, tenlax]).

    Monotonicity is implied by sup, so it is not re-checked here.
    """
    t = itable
    minus_t = space.closed_unary("minus")  # refuses an escaping minus before any check
    if not _acts_and_joins(space, t):
        return False
    for u, mu in enumerate(minus_t):
        for i in range(space.size):
            ti = t[i]
            if t[mu[i]] != (ti - u if ti > u else 0):
                return False
    if not drop_tenlax:
        tt = space.gops.tensor_t
        for i, j, _, k_tens in space.pair_ops():
            if k_tens >= 0 and t[k_tens] > tt[t[i]][t[j]]:
                return False
    return True


def join_irreducibles(space: FunctionSpace) -> tuple[int, ...]:
    """Indices of the join-irreducible functions, ascending: every
    non-bottom index that is not the join of two indices other than itself."""
    reducible = {space.bottom_index}
    for i, j, k_join, _ in space.pair_ops():
        if i != k_join and j != k_join:
            reducible.add(k_join)
    return tuple(k for k in range(space.size) if k not in reducible)


def join_homomorphisms(space: FunctionSpace) -> Iterator[tuple[int, ...]]:
    """Every grid table on the space that preserves binary joins and sends
    the bottom to 0, each exactly once, in ascending lexicographic order.

    Every function is the join of the join-irreducibles J below it, so
    such a table is fixed by its values on J, and it comes from exactly
    one monotone map g: J -> {0..n} as t(f) = max{g(j) : j <= f}.  The
    space is a distributive lattice (pointwise joins and meets), so every
    such extension preserves joins.  J is visited in index order, a
    linear extension of the pointwise order, and the first position where
    two maps differ is then the first where their tables differ.
    """
    n = space.n
    J = join_irreducibles(space)
    position = {j: p for p, j in enumerate(J)}
    # below[f]: positions in J of the join-irreducibles j <= f, ascending,
    # read off the join table as join(j, f) = f; pairs come with j <= f in
    # index, so below[j] ends with j itself and preds drops it
    below: list[list[int]] = [[] for _ in range(space.size)]
    for i, j, k_join, _ in space.pair_ops():
        if k_join == j and i in position:
            below[j].append(position[i])
    preds = [below[j][:-1] for j in J]
    g = [0] * len(J)

    def extend(p: int):
        if p == len(J):
            yield tuple(max((g[q] for q in b), default=0) for b in below)
            return
        for v in range(max((g[q] for q in preds[p]), default=0), n + 1):
            g[p] = v
            yield from extend(p + 1)

    return extend(0)


def zero_set(phi: Functional) -> int:
    """Intersection of the zero sets of all functions the functional kills."""
    sp = phi.space
    full = (1 << sp.carrier_size) - 1
    out = full
    for i, f in enumerate(sp.ifuncs):
        if phi.itable[i] == 0:
            mask = 0
            for x in range(sp.carrier_size):
                if f[x] == 0:
                    mask |= 1 << x
            out &= mask
    return out


def anti_set(phi: Functional) -> int:
    """Points where every function stays below the functional's value on it."""
    sp = phi.space
    out = 0
    for x in range(sp.carrier_size):
        if all(f[x] <= phi.itable[i] for i, f in enumerate(sp.ifuncs)):
            out |= 1 << x
    return out


def c_of_distributor(phi01, cy: FunctionSpace, cx: FunctionSpace) -> tuple[int, ...]:
    """The function-space map of a 0/1 continuous distributor X -|-> Y.

    psi |-> (x |-> sup of psi over the row of x); returned as an index
    mapping CY -> CX aligned with the enumerations.
    """
    rows = [
        [y for y in range(cy.carrier_size) if phi01[x][y]]
        for x in range(cx.carrier_size)
    ]
    out = []
    for f in cy.ifuncs:
        g = tuple(max((f[y] for y in row), default=0) for row in rows)
        out.append(cx.iindex[g])
    return tuple(out)


def representability_audit(
    P: FinPoset,
    q: Quantale,
    n: int,
    corpus: Optional[Sequence[Functional]] = None,
) -> CheckReport:
    """Which functionals pass the condition cut, and do they all come from
    upper sets?

    A table passing the cut preserves binary joins (sup) and sends the
    bottom to 0 (act at u=0), so the exhaustive scan runs the full cut on
    the tables of ``join_homomorphisms`` only, in lexicographic order.
    It is chosen before the scan, when no corpus is supplied and the
    predicted count (n+1)^|J| over the join-irreducibles J stays under
    the cap; past it a seeded 512-table corpus is cut instead.  Each note
    states (n+1)^|CX|, |J| and the number of tables cut.  The tensor-lax
    condition is dropped from the cut for nilpotent-free tensors.  Passing
    functionals must equal the functional of their zero set, with zero set
    = anti set; deviations are reported as findings with the gap in grid
    steps.
    """
    space = function_space(P, q, n)
    drop_tenlax = nilpotent_free(q)
    failures: list[str] = []
    findings: list[str] = []
    notes: list[str] = []
    ups = upper_sets(P)
    expected = {phi_of(a, space).itable: a for a in ups}

    checked = 0
    passing: list[tuple[int, ...]] = []
    irreducibles = len(join_irreducibles(space))
    sizes = f"|J| = {irreducibles}, {n + 1}^{space.size} grid tables"
    if corpus is None and (n + 1) ** irreducibles <= EXHAUSTIVE_CAP:
        for itable in join_homomorphisms(space):
            checked += 1
            if passes_cut(space, itable, drop_tenlax):
                passing.append(itable)
        notes.append(
            f"exhaustive scan of {checked} join-preserving functionals ({sizes})"
        )
        for itable in passing:
            if itable not in expected:
                failures.append(
                    f"cut-passing functional {itable} is not any upper-set functional"
                )
        for a in ups:
            if phi_of(a, space).itable not in passing:
                failures.append(
                    f"upper-set functional of {mask_elements(a)} rejected by the cut"
                )
    else:
        if corpus is None:
            corpus = make_corpus(space, 512, seed=0)
            notes.append(
                f"corpus mode ({len(corpus)} functionals): {n + 1}^{irreducibles} "
                f"exceeds cap {EXHAUSTIVE_CAP} ({sizes})"
            )
        for phi in corpus:
            checked += 1
            if passes_cut(space, phi.itable, drop_tenlax):
                passing.append(phi.itable)

    for itable in passing:
        phi = Functional.from_levels(space, itable)
        z = zero_set(phi)
        anti = anti_set(phi)
        if z != anti:
            failures.append(
                f"zero {mask_elements(z)} != anti {mask_elements(anti)} for {itable}"
            )
        rebuilt = phi_of(z, space)
        if rebuilt.itable != phi.itable:
            gap = max(abs(a - b) for a, b in zip(rebuilt.itable, phi.itable))
            findings.append(
                f"grid-truncation gap {gap}/{n} between functional and its zero-set rebuild"
            )
    return CheckReport(
        name=f"representability[{q.name}, n={n}]",
        checked=checked,
        failures=tuple(failures),
        findings=tuple(findings),
        notes=tuple(notes),
    )


def make_corpus(space: FunctionSpace, count: int, seed: int) -> list[Functional]:
    """Seeded functional corpus: uniform tables, monotone-repaired tables and
    perturbed upper-set functionals, to populate the condition-passing stratum."""
    rng = random.Random(seed)
    n = space.n
    m = space.size
    ups = upper_sets(space.base) if isinstance(space.base, FinPoset) else (0,)
    out = []
    for k in range(count):
        kind = k % 3
        if kind == 0:
            itable = [rng.randint(0, n) for _ in range(m)]
        elif kind == 1:
            raw = [rng.randint(0, n) for _ in range(m)]
            itable = list(raw)
            for i, j in space.le_pairs():
                if itable[j] < itable[i]:
                    itable[j] = itable[i]
        else:
            a = ups[rng.randrange(len(ups))]
            itable = list(phi_of(a, space).itable)
            for _ in range(rng.randrange(3)):
                itable[rng.randrange(m)] = rng.randint(0, n)
        out.append(Functional.from_levels(space, itable))
    return out


def is_total(phi01, src_size: int) -> bool:
    return all(any(row) for row in phi01) if src_size else True


def is_deterministic(phi01, R: FinPoset) -> bool:
    """Every row is the empty set or a principal upper set of the target."""
    for row in phi01:
        mask = sum(1 << y for y, v in enumerate(row) if v)
        if not is_irreducible(R, mask):
            return False
    return True


def total_partial_audit(phi01, P: FinPoset, R: FinPoset, q: Quantale, n: int) -> CheckReport:
    """Totality corresponds to preserving the top function, determinism to
    preserving the pointwise tensor; both directions checked concretely."""
    cy = function_space(R, q, n)
    cx = function_space(P, q, n)
    cmap = c_of_distributor(phi01, cy, cx)
    failures = []
    checked = 2

    preserves_top = cmap[cy.top_index] == cx.top_index
    if is_total(phi01, P.size) != preserves_top:
        failures.append(
            f"totality {is_total(phi01, P.size)} vs top-preservation {preserves_top}"
        )

    preserves_tensor = True
    tt = cx.gops.tensor_t
    for i, j, _, k_tens in cy.pair_ops():
        checked += 1
        gi, gj = cx.ifuncs[cmap[i]], cx.ifuncs[cmap[j]]
        target = cx.iindex[tuple(tt[a][b] for a, b in zip(gi, gj))]
        if cmap[k_tens] != target:
            preserves_tensor = False
            break
    if is_deterministic(phi01, R) != preserves_tensor:
        failures.append(
            f"determinism {is_deterministic(phi01, R)} vs tensor-preservation {preserves_tensor}"
        )
    return CheckReport(
        name="total-partial", checked=checked, failures=tuple(failures)
    )

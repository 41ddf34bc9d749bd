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
from itertools import repeat
from operator import add, getitem, gt, mul, ne
from typing import Iterator, Optional, Sequence

from .posets import FinPoset, is_irreducible, mask_elements, upper_sets
from .reports import CheckReport
from .tnorms import GridOps, Quantale, nilpotent_free


class FunctionSpace:
    """Deterministically enumerated finite function space with pointwise ops.

    ``ifuncs`` are grid-level tuples in ascending lexicographic order;
    ``functions``/``index`` are their Fraction views, rendered on first
    use.  Tables are built on first read and kept: each unary op in
    ``unary_ops``, each point's levels in ``point_columns`` and, as one
    bitmask of the functions per level, in ``level_masks``, the sup over
    the points x of levels[x] tensor f(x) for each level row in
    ``row_column`` (the one column C reads, for 0/1 distributors, upper
    sets and grid distributors alike), each point's hom rows in
    ``point_hom_rows``, and the
    join-irreducibles with the order on them in ``join_order``, read off
    the pointwise meets with no pair of functions.  ``top_columns`` and
    ``cover_pairs`` rearrange ``join_order`` for the functional scans, and
    ``extension`` reads a level list on J back as a table.
    ``join_instances`` is the one table of each condition set's instances
    at J: the pruned search (``join_homomorphisms``) and the certificate
    (``certify``) both check it.
    ``pair_indices`` computes a join or tensor of one function with many
    by one row gather.  The pair tables, join and tensor in ``pair_ops``
    (row gathers for every i <= j) and the tensor again as an index-pair
    lookup in ``tensor_table``, are built only for the audits that still
    walk every pair (``check_conditions``, ``total_partial_audit``,
    ``twovalued_audit``, ``make_corpus``).
    ``structure`` holds the base's structure levels
    (``structure_levels``).  ``tensor_closed``
    certifies that no pair's tensor leaves the space; only ``cx_space``
    sets it, so a space built any other way is not certified.
    """

    def __init__(self, base, gops: GridOps, levels):
        self.base = base
        self.gops = gops
        self.quantale = gops.quantale
        self.n = gops.n
        self.ifuncs = tuple(levels)
        self.iindex = {f: i for i, f in enumerate(self.ifuncs)}
        self.carrier_size = len(self.ifuncs[0]) if self.ifuncs else 0
        self.tensor_closed = False
        self._pair_ops = None
        self._tensor_table = None
        self._unary: dict[str, list[tuple[int, ...]]] = {}
        self._row_columns: dict[tuple[int, ...], tuple[int, ...]] = {}

    @property
    def size(self) -> int:
        return len(self.ifuncs)

    @cached_property
    def structure(self) -> list[list[int]]:
        """The base's structure levels, read on first use; ``cx_space``
        sets them from the levels it enumerated the space by."""
        return structure_levels(self.base, self.gops)

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

    def pair_ops(self):
        """(i, j, k_join, k_tens) for i <= j (both ops symmetric): the
        indices of the join and of the tensor of f_i and f_j, by one
        ``pair_indices`` row gather per op and i.

        k_tens is -1 when the pointwise tensor leaves the space,
        which can happen over non-poset carriers.  Joins stay in every
        ``cx_space``; a join that leaves a space built any other way
        raises ValueError.
        """
        if self._pair_ops is None:
            jt, tt = self.gops.join_t, self.gops.tensor_t
            out = []
            for i in range(self.size):
                js = range(i, self.size)
                joins = self.pair_indices(jt, i, js)
                if -1 in joins:
                    raise ValueError(
                        f"join of f{i} and f{i + joins.index(-1)} leaves the function space"
                    )
                out += zip(repeat(i), js, joins, self.pair_indices(tt, i, js))
            self._pair_ops = out
        return self._pair_ops

    def tensor_table(self) -> list[list[int]]:
        """Row i, column j: the index of the pointwise tensor of f_i and
        f_j, -1 when it leaves the space; read off ``pair_ops``."""
        if self._tensor_table is None:
            table = [[-1] * self.size for _ in range(self.size)]
            for i, j, _, k_tens in self.pair_ops():
                table[i][j] = table[j][i] = k_tens
            self._tensor_table = table
        return self._tensor_table

    @cached_property
    def point_columns(self) -> tuple[tuple[int, ...], ...]:
        """Each point's levels, in enumeration order: the transpose of
        ``ifuncs``, built on first read and kept."""
        return tuple(zip(*self.ifuncs))

    @cached_property
    def level_masks(self) -> tuple[tuple[int, ...], ...]:
        """For each point x of the base and level l, the bitmask over the
        enumeration of the functions f with f(x) = l (all 0 in a space
        with no functions); built on first read and kept."""
        out = []
        for x in range(self.base.size):
            masks = [0] * (self.n + 1)
            for i, f in enumerate(self.ifuncs):
                masks[f[x]] |= 1 << i
            out.append(tuple(masks))
        return tuple(out)

    def row_column(self, levels: tuple[int, ...]) -> tuple[int, ...]:
        """Each function's sup over the points x of levels[x] tensor f(x),
        in enumeration order; built on first read per level row (a tuple)
        and kept.  It is the elementwise max of point column x read through
        tensor row levels[x]: a level n reads the column as it is, and a
        level 0 adds nothing.  Levels are never below 0, so two zero
        columns change no max and give ``max`` at least two arguments, for
        the zero row and a single point alike."""
        column = self._row_columns.get(levels)
        if column is None:
            n, tt, zero = self.n, self.gops.tensor_t, (0,) * self.size
            columns = [
                points if u == n else tuple(map(tt[u].__getitem__, points))
                for u, points in zip(levels, self.point_columns)
                if u
            ]
            column = self._row_columns[levels] = tuple(map(max, zero, zero, *columns))
        return column

    def pair_indices(self, table, i: int, js) -> list[int]:
        """For each j in ``js``, the index of the pointwise op of f_i and
        f_j, -1 where it leaves the space; ``table`` is the op's level
        table (``gops.join_t``, ``gops.tensor_t``).  Row i's levels pick
        their table rows once, and each f_j gathers its levels from them."""
        rows = [table[a] for a in self.ifuncs[i]]
        get, fs = self.iindex.get, self.ifuncs
        return [get(tuple(map(getitem, rows, fs[j])), -1) for j in js]

    @cached_property
    def point_hom_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each point x, the hom row of f(x) for each function f, in
        enumeration order: row x, entry i, level v is hom(f_i(x), v)."""
        ht = self.gops.hom_t
        return tuple(tuple(map(ht.__getitem__, column)) for column in self.point_columns)

    @cached_property
    def join_order(self):
        """J, the join-irreducibles ascending; for each function f, the
        positions in J of the maximal join-irreducibles below f, ascending;
        then each position p's lower covers in J.  Read off the pointwise
        meets, kept.

        The space must be closed under pointwise joins, as every
        ``cx_space`` is; it is then a distributive lattice.  For a point x
        and a level l, m(x, l) is the pointwise min of the functions f
        with f(x) >= l: the least such function, so m(x, l) <= f exactly
        when f(x) >= l.  A meet that leaves the space raises ValueError.
        m(x, 0) is the bottom, and every f is the join of the m(x, f(x)).
        So every join-irreducible is some m(x, l); and every m(x, l) other
        than the bottom is join-prime, since m(x, l) <= g join h means
        g(x) >= l or h(x) >= l, hence join-irreducible.  J is therefore
        the distinct m(x, l) other than the bottom, none of them the join
        of the others below it.  Each j in J keeps one (x_j, l_j) with
        j = m(x_j, l_j), and j <= f is read as f(x_j) >= l_j.  The
        join-irreducibles below f lie below some m(x, f(x)), so the
        maximal ones are among those.  A monotone g on J extends to
        t(f) = max{g(j) : j <= f}, and the max over the maximal such j is
        the same.
        """
        n, idx = self.n, self.iindex
        top = (n,) * self.carrier_size
        # meets[x][l]: the index of m(x, l), None while no function reaches
        # l at x.  The meet starts at the top row, and a second top row
        # gives min at least two arguments; levels never exceed n, so
        # neither changes a min
        meets: list[list] = []
        for x, column in enumerate(self.point_columns):
            at: list[list] = [[] for _ in range(n + 1)]
            for f, v in zip(self.ifuncs, column):
                at[v].append(f)
            row: list = [None] * (n + 1)
            meet, reached = top, False
            for level in range(n, -1, -1):
                if at[level]:
                    meet, reached = tuple(map(min, meet, top, *at[level])), True
                if reached:
                    row[level] = idx.get(meet)
                    if row[level] is None:
                        raise ValueError(
                            f"the meet of the functions at least {level}/{n} at "
                            f"point {x} leaves the function space"
                        )
            meets.append(row)
        # each row[0] is the meet of every function: the bottom
        bottoms = {row[0] for row in meets}
        J = tuple(sorted({k for row in meets for k in row[1:] if k is not None} - bottoms))
        position = {j: p for p, j in enumerate(J)}
        generator: dict[int, tuple[int, int]] = {}
        for x, row in enumerate(meets):
            for level, k in enumerate(row):
                if k in position:
                    generator.setdefault(position[k], (x, level))
        fs = self.ifuncs
        strictly = [
            {q for q in range(len(J)) if q != p and fs[j][generator[q][0]] >= generator[q][1]}
            for p, j in enumerate(J)
        ]

        def maximal(b) -> list[int]:
            return sorted(q for q in b if not any(q in strictly[r] for r in b))

        tops = [
            maximal({position[meets[x][v]] for x, v in enumerate(f) if meets[x][v] in position})
            for f in fs
        ]
        return J, tops, [maximal(b) for b in strictly]

    @cached_property
    def top_columns(self) -> list[list[int]]:
        """At least two columns whose pointwise max over a level list g on
        J, with one more slot for 0, is the table t(f) = max{g(j) : j <=
        f}: column k reads each function's k-th top or, past its last,
        that slot."""
        J, tops, _ = self.join_order
        width = max(2, *map(len, tops))
        return [[b[k] if k < len(b) else len(J) for b in tops] for k in range(width)]

    @cached_property
    def cover_pairs(self) -> tuple[list[int], list[int]]:
        """Every cover q < p in J as two aligned position lists, the lower
        ends and the upper ends."""
        covers = self.join_order[2]
        pairs = [(q, p) for p, below in enumerate(covers) for q in below]
        return [q for q, _ in pairs], [p for _, p in pairs]

    def extension(self, g) -> Iterator[int]:
        """The table t(f) = max{g(j) : j <= f} of a level list g on J with
        one more slot, 0, in enumeration order: g read through the
        ``top_columns``, maxed pointwise."""
        return map(max, *[map(g.__getitem__, column) for column in self.top_columns])

    @cached_property
    def _join_instances(self) -> dict:
        """``join_instances`` tables by set of condition names."""
        return {}

    def join_instances(self, conditions: Sequence[str]):
        """The instances at J of the named conditions ("act", "minus",
        "tenlax"), built on first read per set of names and kept, and the
        first pair of J whose tensor leaves the space (None when every
        pair's stays, or tenlax is not named).

        Entry p lists the instances decided once g(j) is set for j = J[p],
        as (equal, lax): equal holds (f, tops[f], row) for each that needs
        t(f) = row[g(j)], lax holds (f, tops[f], q) for each that needs
        t(f) <= g(j) tensor g(J[q]); ``certify`` reads t(f) in the table
        at f, the search reads it off g through tops[f].  They are
        t(j minus u) = g(j) minus u for u >= 1, t(u tensor j) = u tensor
        g(j) for 0 < u < n, and t(j tensor k) <= g(j) tensor g(k) for each
        k = J[q] with q <= p whose tensor with j stays in the space.  Each
        such f lies below j, so tops[f] holds positions up to p only.  The minus table is read
        first, so an escaping minus raises ValueError before anything
        else; an unknown name raises too.
        """
        key = frozenset(conditions)
        built = self._join_instances.get(key)
        if built is None:
            unknown = sorted(key - set(PRUNING_CONDITIONS))
            if unknown:
                raise ValueError(f"no pruning on {unknown}: pick from {PRUNING_CONDITIONS}")
            n, tt = self.n, self.gops.tensor_t
            J, tops, _ = self.join_order
            equal: list[list] = [[] for _ in J]
            lax: list[list] = [[] for _ in J]
            escape = None
            # for each u of an equal instance: the op's row of function
            # indices and its row of levels
            ops = []
            if "minus" in key:
                minus_t, mt = self.unary_ops("minus"), self.gops.minus_t
                ops += [(minus_t[u], [mt[v][u] for v in range(n + 1)]) for u in range(1, n + 1)]
            if "act" in key:
                act_t = self.unary_ops("act")
                ops += [(act_t[u], tt[u]) for u in range(1, n)]
            for p, j in enumerate(J):
                for indices, row in ops:
                    f = indices[j]
                    equal[p].append((f, tops[f], row))
            if "tenlax" in key:
                for p, j in enumerate(J):
                    for q, k in enumerate(self.pair_indices(tt, j, J[: p + 1])):
                        if k >= 0:
                            lax[p].append((k, tops[k], q))
                        elif escape is None:
                            escape = (j, J[q])
            built = self._join_instances[key] = (list(zip(equal, lax)), escape)
        return built

    def unary_ops(self, op: str) -> list[tuple[int, ...]]:
        """The "act", "minus" or "power" table, built on first read: row u
        holds the index of u tensor f, f minus u or u hom f for each f.
        Row u applies the level map ``maps[u]`` to every function; a map
        that is the identity gives every f itself, and a constant map the
        one constant function, both read off without a gather (act, power
        and minus at 0 and at 1).
        Minus and powers can leave the space over enriched carriers; such
        a table raises ValueError naming its first escaping function."""
        table = self._unary.get(op)
        if table is None:
            n, idx = self.n, self.iindex
            maps = {
                "act": self.gops.tensor_t,
                "minus": [[max(a - u, 0) for a in range(n + 1)] for u in range(n + 1)],
                "power": self.gops.hom_t,
            }[op]
            identity = list(range(n + 1))
            table = []
            for u, level in enumerate(maps):
                if level == identity:
                    row = range(self.size)
                elif len(set(level)) == 1:
                    row = [idx.get((level[0],) * self.carrier_size, -1)] * self.size
                else:
                    row = [idx.get(tuple(map(level.__getitem__, f)), -1) for f in self.ifuncs]
                if -1 in row:
                    raise ValueError(
                        f"{op} of f{row.index(-1)} at {u}/{n} leaves the function space"
                    )
                table.append(tuple(row))
            self._unary[op] = table
        return table


def structure_levels(base, gops: GridOps) -> list[list[int]]:
    """The structure of a carrier as grid levels, row x, column y: n where
    x <= y in a FinPoset and 0 elsewhere, a(x, y) in a category."""
    m = base.size
    if isinstance(base, FinPoset):
        n = gops.n
        return [[n if base.leq[x][y] else 0 for y in range(m)] for x in range(m)]
    return [[gops.index(base.a(x, y)) for y in range(m)] for x in range(m)]


def cx_levels(gops: GridOps, ia) -> list[tuple[int, ...]]:
    """The level tables f with ia[x][y] <= hom(f(y), f(x)) for all x, y, in
    ascending lexicographic order: the grid-valued morphisms into the
    opposite interval from a carrier with structure levels ``ia``.

    Tables grow one coordinate at a time.  Coordinate k is constrained by
    each earlier x with a positive level either way (level 0 and the
    diagonal always hold): with a = ia[x][k] and b = ia[k][x], the
    admissible v are those with a <= hom(v, f(x)) and b <= hom(f(x), v).
    That set is a bitmask of levels per value of f(x), tabled once per
    (a, b) in the call; the AND of a table's masks gives its admissible
    v, appended in ascending order.
    """
    ht = gops.hom_t
    levels = range(gops.n + 1)
    every = (1 << gops.n + 1) - 1
    admissible: dict[tuple[int, int], list[int]] = {}
    ascending: dict[int, tuple[int, ...]] = {}
    tables = [()]
    for k in range(len(ia)):
        cons = []
        for x in range(k):
            a, b = ia[x][k], ia[k][x]
            if a or b:
                masks = admissible.get((a, b))
                if masks is None:
                    masks = admissible[a, b] = [
                        sum(1 << v for v in levels if a <= ht[v][w] and b <= ht[w][v])
                        for w in levels
                    ]
                cons.append((x, masks))
        grown = []
        for f in tables:
            mask = every
            for x, masks in cons:
                mask &= masks[f[x]]
            vs = ascending.get(mask)
            if vs is None:
                vs = ascending[mask] = mask_elements(mask)
            grown += [f + (v,) for v in vs]
        tables = grown
    return tables


SPACES_KEPT = 2


def cx_space(base, gops: GridOps) -> FunctionSpace:
    """The space of ``cx_levels`` over ``base``'s structure levels, shared.

    ``gops.spaces`` keeps the ``SPACES_KEPT`` most recently requested
    spaces, oldest first, matched by their base (a FinPoset never equals a
    VCategory; comparing two bases is cheaper than hashing one).  A kept
    base gets the same object back, with the tables it has built; a new
    one evicts the least recently requested.  Two slots cover the audits
    that alternate between a target and a source carrier, and keep sweeps
    that never repeat a carrier from holding more.  Callers share the
    returned space and must not mutate it.

    The structure levels are built only for a new space, which keeps them
    as ``structure``.  It is ``tensor_closed`` when every level is 0 or n:
    it is then the antitone maps of a preorder, closed under any monotone
    pointwise op.
    """
    kept = gops.spaces
    for k, space in enumerate(kept):
        if space.base == base:
            del kept[k]
            break
    else:
        ia = structure_levels(base, gops)
        space = FunctionSpace(base, gops, cx_levels(gops, ia))
        space.structure = ia
        space.tensor_closed = all(v in (0, gops.n) for row in ia for v in row)
        del kept[: len(kept) + 1 - SPACES_KEPT]
    kept.append(space)
    return space


def function_space(P: FinPoset, q: Quantale, n: int) -> FunctionSpace:
    """All antitone maps X -> Q_n (morphisms into the opposite interval).

    Served by ``cx_space``: the two most recently requested spaces of
    each grid are reused, so the result is shared and must not be mutated.
    """
    return cx_space(P, q.grid(n))


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

    def __eq__(self, other) -> bool:
        return isinstance(other, Functional) and self.itable == other.itable

    def __hash__(self) -> int:
        return hash(self.itable)


def phi_of(a_mask: int, space: FunctionSpace) -> Functional:
    """The functional of an upper set: sup of the function over it (0 if
    empty), the ``row_column`` of its indicator row (n on the set, 0 off it)."""
    n = space.n
    indicator = tuple(n if a_mask >> x & 1 else 0 for x in range(space.carrier_size))
    return Functional.from_levels(space, space.row_column(indicator))


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


def check_conditions(phi: Functional) -> ConditionReport:
    """Evaluate every condition exhaustively over the space and the grid."""
    sp = phi.space
    t = phi.itable
    tt = sp.gops.tensor_t
    n = sp.n

    # the pairs with f_i <= f_j, i != j, are those whose join is f_j
    mon = sup = tenlax = ten = None
    for i, j, k_join, k_tens in sp.pair_ops():
        a, b = t[i], t[j]
        if mon is None and k_join == j != i and a > b:
            mon = f"mon: f{i} <= f{j} but {a}/{n} > {b}/{n}"
        if sup is None and t[k_join] != (a if a >= b else b):
            sup = f"sup at (f{i}, f{j})"
        if k_tens >= 0:
            lhs, rhs = t[k_tens], tt[a][b]
            if tenlax is None and lhs > rhs:
                tenlax = f"tenlax at (f{i}, f{j})"
            if ten is None and lhs != rhs:
                ten = f"ten at (f{i}, f{j})"
        if mon and sup and tenlax and ten:
            break

    act_t, minus_t = sp.unary_ops("act"), sp.unary_ops("minus")
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


PRUNING_CONDITIONS = ("act", "minus", "tenlax")

# the representability cut's conditions, by whether tenlax is dropped
CUT_CONDITIONS = {False: PRUNING_CONDITIONS, True: ("act", "minus")}


def certify(space: FunctionSpace, itable, conditions: Sequence[str]) -> bool:
    """Whether the level table preserves binary joins, sends the bottom to
    0 and satisfies each named condition ("act", "minus", "tenlax")
    everywhere; decided on J, with no pair of functions.

    The certificate, with g the table on J (``join_order``): the table is
    0 at the bottom, g is monotone along the covers, every instance in
    the space's ``join_instances`` for the names holds (the table the
    pruned search checks), and the table is g's ``extension``.  The
    first two and the last hold exactly for the tables that preserve
    joins and send the bottom to 0, and every join-irreducible is
    join-prime.  Act, minus and the pointwise tensor are monotone on the
    chain of levels, so they distribute over pointwise joins, and each
    condition holds everywhere iff it holds on J (on J x J for tenlax);
    at u = 0 and u = n the action is the bottom and the identity.  For
    tenlax that needs the tensor of every pair of J to stay in the space;
    then every tensor of two functions, the join of such tensors, stays
    too.  That holds on every ``tensor_closed`` space.  On a space where
    the tensor of two join-irreducibles leaves, a pair of functions can
    fail tenlax with every instance on J holding, so tenlax is refused
    there with ValueError, never decided on J.

    Every refusal, an escaping minus first, comes before any check of
    the table.  The checks on J come first; the first failing one
    decides.
    """
    instances, escape = space.join_instances(conditions)
    if escape is not None:
        raise ValueError(
            f"tensor of f{escape[0]} and f{escape[1]} leaves the function space: "
            "tenlax is not decided on the join-irreducibles"
        )
    # the bottom, the least function, comes first in the enumeration
    if itable[0]:
        return False
    g = [*map(itable.__getitem__, space.join_order[0]), 0]
    lows, highs = space.cover_pairs
    if any(map(gt, map(g.__getitem__, lows), map(g.__getitem__, highs))):
        return False
    tt, at = space.gops.tensor_t, itable.__getitem__
    for (equal, lax), v in zip(instances, g):
        for f, _, row in equal:
            if at(f) != row[v]:
                return False
        for f, _, q in lax:
            if at(f) > tt[v][g[q]]:
                return False
    # the join check last: it reads every function, the others only J
    return not any(map(ne, itable, space.extension(g)))


def passes_cut(space: FunctionSpace, itable, drop_tenlax: bool = False) -> bool:
    """The representability cut: the table preserves binary joins and the
    action, commutes with truncated minus and, unless dropped, is lax for
    the pointwise tensor (``CUT_CONDITIONS``).  Decided by ``certify`` on
    J.  That is exact wherever the tensor of two join-irreducibles stays
    in the space, as on the ``tensor_closed`` spaces the audit scans;
    elsewhere the cut with tenlax raises ValueError.  An escaping minus
    raises ValueError before any check; monotonicity follows from the
    joins.
    """
    return certify(space, itable, CUT_CONDITIONS[drop_tenlax])


def join_homomorphisms(
    space: FunctionSpace, conditions: Sequence[str] = ()
) -> Iterator[tuple[int, ...]]:
    """Every grid table on the space that preserves binary joins and sends
    the bottom to 0, each exactly once, in ascending lexicographic order;
    with ``conditions``, only those whose instances on J hold.

    Every function is the join of the join-irreducibles J below it, so
    such a table is fixed by its values on J, and it comes from exactly
    one monotone map g: J -> {0..n} as its ``extension``.  The space is a
    distributive lattice (pointwise joins and meets), so every such
    extension preserves joins.  J is visited in index order, a linear
    extension of the pointwise order, and the first position where two
    maps differ is then the first where their tables differ.

    ``conditions`` names any of "act", "minus" and "tenlax".  Once g(j)
    is set for j = J[p], the search checks the space's ``join_instances``
    at p, the table ``certify`` checks too; tenlax instances are checked
    on the pairs of J whose tensor stays in the space, and never refused.
    Each reads only positions up to p, and a failing prefix is dropped
    with every table that extends it.  Each check is one instance of the
    full condition, so no table the full checker accepts is dropped; the
    full checker must still decide each table yielded.  An escaping minus
    or an unknown name raises ValueError here, before any table.
    """
    n, tt = space.n, space.gops.tensor_t
    instances, _ = space.join_instances(conditions)
    covers = space.join_order[2]
    # g holds one more slot, always 0, that ``extension`` reads
    g = [0] * (len(covers) + 1)

    def holds(p: int, v: int) -> bool:
        equal, lax = instances[p]
        for _, b, row in equal:
            if max((g[q] for q in b), default=0) != row[v]:
                return False
        for _, b, q in lax:
            if max((g[r] for r in b), default=0) > tt[v][g[q]]:
                return False
        return True

    def extend(p: int):
        if p == len(covers):
            yield tuple(space.extension(g))
            return
        pruned = instances[p][0] or instances[p][1]
        for v in range(max((g[q] for q in covers[p]), default=0), n + 1):
            g[p] = v
            if not pruned or holds(p, v):
                yield from extend(p + 1)

    return extend(0)


def count_join_homomorphisms(space: FunctionSpace) -> int:
    """The number of tables ``join_homomorphisms(space)`` yields, without
    building any.

    Such a table is a monotone g: J -> {0..n}, and by Birkhoff's theorem
    the down-sets of J are the functions, so g is the multichain
    f_1 <= ... <= f_n with f_v the join of {j : g(j) < v}.  Their number
    is the sum of c_n, where c_1 = 1 and c_{k+1}(f) sums c_k over the
    functions below f.  That sum is a zeta transform: with c_k extended
    by 0 to the grid (n+1)^|X|, prefix sums along each coordinate give it
    at every grid point, and masking back to the space gives c_{k+1}.
    n - 1 such passes, with no pair of functions.
    """
    radix = space.n + 1
    size = radix**space.carrier_size
    mask = [0] * size
    for f in space.ifuncs:
        cell = 0
        for v in f:
            cell = cell * radix + v
        mask[cell] = 1
    counts = mask
    for _ in range(space.n - 1):
        counts = counts[:]
        # the last coordinate has stride 1, each earlier one radix times
        # the next
        stride = 1
        while stride < size:
            block = stride * radix
            for start in range(0, size, block):
                for k in range(start + stride, start + block, stride):
                    counts[k : k + stride] = map(add, counts[k : k + stride], counts[k - stride : k])
            stride = block
        counts = list(map(mul, counts, mask))
    return sum(counts)


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

    psi |-> (x |-> sup of psi over the row of x): ``c_of_levels`` of the
    rows read as levels 0 and n.  A phi whose shape is not |X| rows of
    |Y| entries, or an image outside CX, raises ValueError.
    """
    if len(phi01) != cx.carrier_size or any(len(row) != cy.carrier_size for row in phi01):
        raise ValueError(
            f"distributor rows of lengths {[len(row) for row in phi01]} are not "
            f"{cx.carrier_size} rows of {cy.carrier_size}"
        )
    level = (0, cy.n).__getitem__
    return c_of_levels([tuple(map(level, row)) for row in phi01], cy, cx)


def c_of_levels(phi, cy: FunctionSpace, cx: FunctionSpace) -> tuple[int, ...]:
    """The function-space map of a grid distributor X -|-> Y given as level
    rows (tuples): psi |-> (x |-> sup_y psi(y) tensor phi(x, y)), as an
    index mapping CY -> CX aligned with the enumerations.

    Column x of the images is CY's ``row_column`` of row x, and the
    images are the columns' zip, looked up in CX.  An image outside CX
    raises ValueError naming the function.
    """
    images = list(zip(*map(cy.row_column, phi))) if phi else [()] * cy.size
    try:
        return tuple(map(cx.iindex.__getitem__, images))
    except KeyError as exc:
        i = images.index(exc.args[0])
        raise ValueError(
            f"C(phi) of f{i} is {images[i]}, which leaves the function space"
        ) from None


def representability_audit(P: FinPoset, q: Quantale, n: int) -> CheckReport:
    """Which functionals pass the condition cut, and do they all come from
    upper sets?

    A table passing the cut preserves binary joins (sup) and sends the
    bottom to 0 (act at u=0), so the scan covers the tables of
    ``join_homomorphisms`` only, in lexicographic order, and is always
    exhaustive.  That search prunes on the cut's instances at the
    join-irreducibles J (act, minus and, unless dropped, tenlax), and
    ``passes_cut`` decides each table that survives; the number scanned is
    ``count_join_homomorphisms``.  The note states that number, |J| and
    (n+1)^|CX|.  The tensor-lax condition is dropped from the cut for
    nilpotent-free tensors.  Passing functionals must equal the
    functional of their zero set, with zero set = anti set; deviations
    are reported as findings with the gap in grid steps.
    """
    space = function_space(P, q, n)
    drop_tenlax = nilpotent_free(q)
    failures: list[str] = []
    findings: list[str] = []
    expected = {phi_of(a, space).itable: a for a in upper_sets(P)}

    checked = count_join_homomorphisms(space)
    passing = [
        itable
        for itable in join_homomorphisms(space, CUT_CONDITIONS[drop_tenlax])
        if passes_cut(space, itable, drop_tenlax)
    ]
    note = (
        f"exhaustive scan of {checked} join-preserving functionals "
        f"(|J| = {len(space.join_order[0])}, {n + 1}^{space.size} grid tables)"
    )
    for itable in passing:
        if itable not in expected:
            failures.append(
                f"cut-passing functional {itable} is not any upper-set functional"
            )
    for itable, a in expected.items():
        if itable not in passing:
            failures.append(
                f"upper-set functional of {mask_elements(a)} rejected by the cut"
            )

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
        notes=(note,),
    )


def make_corpus(space: FunctionSpace, count: int, seed: int) -> list[Functional]:
    """Seeded functional corpus: uniform tables, monotone-repaired tables and
    perturbed upper-set functionals, to populate the condition-passing stratum."""
    rng = random.Random(seed)
    n = space.n
    m = space.size
    ups = upper_sets(space.base) if isinstance(space.base, FinPoset) else (0,)
    # f_i <= f_j, i != j, exactly when their join is f_j
    le_pairs = [(i, j) for i, j, k_join, _ in space.pair_ops() if k_join == j != i]
    out = []
    for k in range(count):
        kind = k % 3
        if kind == 0:
            itable = [rng.randint(0, n) for _ in range(m)]
        elif kind == 1:
            raw = [rng.randint(0, n) for _ in range(m)]
            itable = list(raw)
            for i, j in le_pairs:
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
    tensor = cx.tensor_table()
    for i, j, _, k_tens in cy.pair_ops():
        checked += 1
        target = tensor[cmap[i]][cmap[j]]
        if k_tens < 0 or target < 0:
            where = f"(f{i}, f{j}) of CY" if k_tens < 0 else f"(f{cmap[i]}, f{cmap[j]}) of CX"
            raise ValueError(f"tensor of {where} leaves the function space")
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

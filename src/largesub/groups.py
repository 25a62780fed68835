"""Explicit finite groups stored as dense multiplication tables.

A group of order n lives on the index set 0..n-1 with the identity fixed at
index 0.  The full n x n table makes every downstream computation (closures,
centralizers, conjugation orbits, normal subgroup sweeps) an exercise in
integer indexing, which keeps the algorithms exhaustive and auditable at the
intended scale: a few hundred elements by default, bounded by a configurable
order cap.

Groups are immutable once built.  Internal caches only memoize derived data
(inverses, element orders, induced subgroups), so repeated queries are
idempotent and safe to share.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    BadArgument,
    ForeignSubgroup,
    NotAbelian,
    NotAGroup,
    NotCentral,
    NotClosed,
    NotIsomorphism,
    NotNormal,
    OrderCapExceeded,
    UnknownName,
)

DEFAULT_ORDER_CAP = 2000
ORDER_CAP_ENV = "LARGESUB_ORDER_CAP"


def order_cap(override: int | None = None) -> int:
    """The active order cap: explicit override, else the environment
    variable LARGESUB_ORDER_CAP, else 2000."""
    if override is not None:
        return int(override)
    env = os.environ.get(ORDER_CAP_ENV)
    return int(env) if env else DEFAULT_ORDER_CAP


def _check_cap(order: int, cap: int | None) -> None:
    limit = order_cap(cap)
    if order > limit:
        raise OrderCapExceeded(order, limit)


def prime_factors(n: int) -> tuple[int, ...]:
    """Sorted distinct prime divisors of n >= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def pi_part(n: int, pi) -> int:
    """The largest divisor of n built only from primes in pi."""
    part = 1
    for p in pi:
        while n % p == 0:
            n //= p
            part *= p
    return part


def _close(table: np.ndarray, base: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    # Multiplicative closure of base | frontier, assuming base is already
    # closed.  Finite order makes inverses appear on their own.  The
    # frontier may have any shape and repeat elements.
    n = table.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    mask[base] = True
    new_mask = np.zeros(n, dtype=bool)
    new_mask[frontier] = True
    while True:
        new_mask &= ~mask
        frontier = np.flatnonzero(new_mask)
        if not frontier.size:
            return np.flatnonzero(mask)
        mask |= new_mask
        members = np.flatnonzero(mask)
        new_mask = np.zeros(n, dtype=bool)
        new_mask[table[members[:, None], frontier]] = True
        new_mask[table[frontier[:, None], members]] = True


_EMPTY = np.empty(0, dtype=np.int64)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a, b] is the index of the product a*b; index 0 is the identity.
    Optional labels name the elements for display; name labels the group.
    The identity and inverses are always checked; trusted=True, for tables
    built from groups, skips the Latin and associativity checks.  Untrusted
    tables get Light's associativity test first, on greedy generators whose
    set grows by right-multiplication orbits, which proves a table with
    identity and inverses a group (hence Latin) when it passes; the Latin
    check runs only when it fails, so errors and witnesses are those of
    the Latin check followed by the associativity check.
    """

    __slots__ = ("order", "name", "labels", "_table", "_inv", "_cache")

    def __init__(self, table, *, name: str | None = None, labels=None, trusted: bool = False):
        if trusted:
            table = np.ascontiguousarray(table, dtype=np.int32)
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise NotAGroup("table must be square")
            n = table.shape[0]
            if n == 0:
                raise NotAGroup("empty table")
            if table.min() < 0 or table.max() >= n:
                raise NotAGroup(f"table entries must lie in 0..{n - 1}")
        else:  # a copy, as in from_multiplication_table
            table = np.array(_integer_table(table), dtype=np.int32)
        self._setup(table, name, labels, check_axioms=not trusted)

    @classmethod
    def _checked(cls, table: np.ndarray, name, labels) -> FiniteGroup:
        # an int32 table made from _integer_table's, whose entries are
        # checked already: only the axioms are left
        G = cls.__new__(cls)
        G._setup(table, name, labels, check_axioms=True)
        return G

    def _setup(self, table: np.ndarray, name, labels, *, check_axioms: bool) -> None:
        n = table.shape[0]
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise BadArgument("labels must match the order")
        self.order = int(n)
        self.name = name
        self.labels = labels
        table.setflags(write=False)
        self._table = table
        self._inv = _identity_and_inverses(table)
        if check_axioms:
            _latin_and_associativity_check(table)
        self._cache: dict = {}

    # -- element arithmetic -------------------------------------------------

    @property
    def table(self) -> np.ndarray:
        """Read-only n x n multiplication table."""
        return self._table

    @property
    def inverses(self) -> np.ndarray:
        return self._inv

    def mult(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def conjugate(self, x: int, g: int) -> int:
        """g * x * g^-1."""
        return int(self._table[self._table[g, x], self._inv[g]])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        acc = 0
        while k:
            if k & 1:
                acc = int(self._table[acc, a])
            a = int(self._table[a, a])
            k >>= 1
        return acc

    def element_orders(self) -> np.ndarray:
        orders = self._cache.get("element_orders")
        if orders is None:
            table = self._table
            orders = np.zeros(self.order, dtype=np.int64)
            for x in range(self.order):
                k, acc = 1, x
                while acc != 0:
                    acc = int(table[acc, x])
                    k += 1
                orders[x] = k
            orders.setflags(write=False)
            self._cache["element_orders"] = orders
        return orders

    def element_order(self, a: int) -> int:
        return int(self.element_orders()[a])

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    @property
    def display_name(self) -> str:
        return self.name if self.name else f"group_of_order_{self.order}"

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, elements) -> Subgroup:
        """Wrap a set of element indices as a Subgroup, checking closure."""
        elems = sorted(set(int(e) for e in elements) | {0})
        arr = np.asarray(elems, dtype=np.int64)
        prods = self._table[np.ix_(arr, arr)]
        inside = np.zeros(self.order, dtype=bool)
        inside[arr] = True
        if not inside[prods].all():
            a, b = np.argwhere(~inside[prods])[0]
            raise NotClosed(
                f"set is not closed: product of {elems[a]} and {elems[b]} escapes"
            )
        return Subgroup._sorted(self, tuple(elems))

    def whole(self) -> Subgroup:
        return Subgroup._sorted(self, tuple(range(self.order)))

    def trivial(self) -> Subgroup:
        return Subgroup._sorted(self, (0,))

    def closure_of(self, seed) -> Subgroup:
        seed = np.asarray(sorted(set(int(s) for s in seed)), dtype=np.int64)
        if seed.size and (seed.min() < 0 or seed.max() >= self.order):
            raise UnknownName(f"seed indices must lie in 0..{self.order - 1}")
        return Subgroup._sorted(self, tuple(_close(self._table, _EMPTY, seed).tolist()))

    def __repr__(self):
        return f"<FiniteGroup {self.display_name!r} of order {self.order}>"


class Subgroup:
    """A subgroup of a fixed parent, held only as its sorted tuple of indices:
    membership bisects the tuple, and `<=` and index_set build fresh sets.
    Equality and hashing are by (parent identity, element set), so subgroups
    of the same parent behave as values while different parents never mix.
    """

    __slots__ = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements):
        self._fill(parent, tuple(sorted(set(int(e) for e in elements))))

    @classmethod
    def _sorted(cls, parent: FiniteGroup, elems: tuple[int, ...]) -> Subgroup:
        # for internal callers that already hold a sorted tuple of distinct
        # Python ints (a closure's flatnonzero via tolist(), say)
        S = cls.__new__(cls)
        S._fill(parent, elems)
        return S

    def _fill(self, parent: FiniteGroup, elems: tuple[int, ...]) -> None:
        self.parent = parent
        if not elems or elems[0] != 0:
            raise BadArgument("a subgroup must contain the identity")
        if parent.order % len(elems) != 0:
            raise BadArgument("subgroup size must divide the group order")
        self.elements = elems

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index_set(self) -> frozenset:
        return frozenset(self.elements)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.elements, dtype=np.int64)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    @property
    def is_whole(self) -> bool:
        return len(self.elements) == self.parent.order

    def __contains__(self, idx) -> bool:
        at = bisect_left(self.elements, idx := int(idx))
        return self.elements[at : at + 1] == (idx,)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __le__(self, other: Subgroup) -> bool:
        if self.parent is not other.parent:
            raise ForeignSubgroup("subgroups of different parents")
        return self.index_set <= other.index_set

    def __lt__(self, other: Subgroup) -> bool:
        return self <= other and self.elements != other.elements

    def is_normal(self) -> bool:
        """Closed under conjugation by every parent element."""
        G = self.parent
        arr = self.as_array()
        inside = np.zeros(G.order, dtype=bool)
        inside[arr] = True
        gx = G.table[:, arr]
        conj = G.table[gx, G.inverses[:, None]]
        return bool(inside[conj].all())

    def __repr__(self):
        shown = ",".join(str(e) for e in self.elements[:8])
        if self.order > 8:
            shown += ",..."
        return f"<Subgroup of order {self.order} in {self.parent.display_name}: {{{shown}}}>"


# -- axiom checks -----------------------------------------------------------


def _identity_and_inverses(table: np.ndarray) -> np.ndarray:
    n = table.shape[0]
    idx = np.arange(n)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        raise NotAGroup("index 0 is not a two-sided identity", witness=0)
    inv = (table == 0).argmax(axis=1).astype(np.int32)
    if not (table[idx, inv] == 0).all():
        x = int(np.flatnonzero(table[idx, inv] != 0)[0])
        raise NotAGroup(f"element {x} has no right inverse", witness=x)
    if not (table[inv, idx] == 0).all():
        x = int(np.flatnonzero(table[inv, idx] != 0)[0])
        raise NotAGroup(f"element {x} has no two-sided inverse", witness=x)
    inv.setflags(write=False)
    return inv


def _latin_check(table: np.ndarray) -> None:
    n = table.shape[0]
    idx = np.arange(n)
    rows_ok = (np.sort(table, axis=1) == idx).all(axis=1)
    if not rows_ok.all():
        r = int(np.flatnonzero(~rows_ok)[0])
        raise NotAGroup(f"row {r} repeats a product", witness=("row", r))
    cols_ok = (np.sort(table, axis=0) == idx[:, None]).all(axis=0)
    if not cols_ok.all():
        c = int(np.flatnonzero(~cols_ok)[0])
        raise NotAGroup(f"column {c} repeats a product", witness=("column", c))


def _light_generators(table: np.ndarray) -> list[int] | None:
    # Greedy generators: the least index outside the set so far, which grows
    # as the orbit of 0 under right multiplication by the generators (one
    # gather of S*g, then each new element times every generator).  The
    # orbit lies in the closure of the generators, so when it is everything
    # the generators generate the table.  In a group it is the subgroup they
    # generate (positive powers give inverses), and S*g misses S for g
    # outside it, so by Lagrange each step at least doubles the set and
    # there are at most floor(log2 n) generators.  None when more are
    # needed, which proves the table is not a group.
    n = table.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    gens: list[int] = []
    while not inside.all():
        if len(gens) == n.bit_length() - 1:
            return None
        g = int(np.argmin(inside))
        gens.append(g)
        products = table[inside, g]
        while products.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[products] = True
            fresh &= ~inside
            inside |= fresh
            products = table[np.ix_(fresh, gens)]
    return gens


def _latin_and_associativity_check(table: np.ndarray) -> None:
    # Light's test: the elements g with (a*g)*c == a*(g*c) for all a, c
    # contain the identity and are closed under products, so checking them
    # on a generating set proves the whole table associative.  With the
    # identity at 0 and two-sided inverses (checked first) it is then a
    # group, hence Latin.  Only when the greedy generators run out or one
    # of them fails do the Latin check and the lexicographic scan below
    # run, in that order, so the error is the one the Latin check and an
    # exhaustive scan would report: the first bad row or column, else the
    # first failing triple (a, b, c).
    gens = _light_generators(table)
    if gens is not None and all(
        np.array_equal(table[table[:, g]], np.take(table, table[g], axis=1))
        for g in gens
    ):
        return
    _latin_check(table)
    n = table.shape[0]
    for a in range(n):
        left = table[table[a]]          # (a*b)*c
        right = table[a][table]         # a*(b*c)
        if not np.array_equal(left, right):
            b, c = map(int, np.argwhere(left != right)[0])
            raise NotAGroup(
                f"associativity fails at ({a}, {b}, {c})", witness=(a, int(b), int(c))
            )
    # unreachable: a failing generator g has a failing triple (a, g, c), and
    # a table with no failing triple is a group, whose greedy generators
    # number at most floor(log2 n)
    raise AssertionError("Light's test failed on an associative Latin table")


def validate_axioms(G: FiniteGroup) -> None:
    """Full axiom audit of an existing group object: identity, inverses,
    Latin property and associativity.  Raises NotAGroup.

    Associativity is exact but not cubic (Light's test): it is checked for
    every (a, g, c) with g in a greedy generating set of at most
    floor(log2 n) elements, grown as the orbit of the identity under right
    multiplication by the generators, and the elements that pass are closed
    under products, so passing on generators means passing everywhere.  A
    table that passes is a group and so Latin; the Latin check runs only
    when Light's test fails (or the generating set outgrows floor(log2 n),
    which no group makes it do).  On failure the error is unchanged by this
    order: the first repeating row, else the first repeating column, else
    the first failing triple (a, b, c) in lexicographic order, as an
    exhaustive scan would report it."""
    _identity_and_inverses(G.table)
    _latin_and_associativity_check(G.table)


# -- constructors -----------------------------------------------------------


def _integer_table(table, limit: int | None = None) -> np.ndarray:
    # The untrusted table as an integer array (the caller's own, unless it
    # had to be converted from Python ints), after checking on the values as
    # given that it is a nonempty square matrix of integers in 0..n-1 (and,
    # with a limit, that n is within it): one min and one max.  Floats,
    # strings and booleans are refused, not converted: a cast would truncate
    # floats, parse strings, read booleans as 0 and 1 and wrap integers
    # beyond the target width.
    arr = table if isinstance(table, np.ndarray) else np.asarray(table, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotAGroup("table must be a nonempty square matrix")
    if arr.dtype == object:
        if not all(map(_is_integer, arr.flat)):
            raise NotAGroup("table entries must be integers")
        try:
            arr = arr.astype(np.int64)
        except OverflowError:
            raise NotAGroup("table entries must fit in 64-bit integers") from None
    elif arr.dtype.kind not in "iu":
        raise NotAGroup("table entries must be integers")
    n = arr.shape[0]
    if limit is not None and n > limit:
        raise OrderCapExceeded(n, limit)
    if arr.min() < 0 or arr.max() >= n:
        raise NotAGroup(f"table entries must lie in 0..{n - 1}")
    return arr


def _is_integer(v) -> bool:
    # a Python or numpy integer; bool is an int subclass but not an integer here
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _normalize_identity(table: np.ndarray, labels):
    # A two-sided identity e has e*0 == 0, and a table has at most one, so
    # only the rows with 0 in column 0 are candidates.  Relabelling by the
    # transposition (0 e) is one value gather plus two row and column swaps.
    n = table.shape[0]
    idx = np.arange(n)
    for e in np.flatnonzero(table[:, 0] == 0).tolist():
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            break
    else:
        raise NotAGroup("no two-sided identity element", witness=None)
    if e == 0:
        return table, labels
    perm = idx.copy()
    perm[[0, e]] = perm[[e, 0]]
    relabeled = perm[table]
    relabeled[[0, e]] = relabeled[[e, 0]]
    relabeled[:, [0, e]] = relabeled[:, [e, 0]]
    if labels is not None:
        labels = tuple(labels[p] for p in perm)
    return relabeled, labels


def from_multiplication_table(table, *, name=None, labels=None, cap=None) -> FiniteGroup:
    """Build a group from an untrusted n x n table of integers in 0..n-1
    (floats, strings and booleans are refused, not converted).

    The identity may sit anywhere; elements are relabeled so it lands at
    index 0.  The full axiom check runs, with NotAGroup witnesses on failure.
    """
    arr, labels = _normalize_identity(_integer_table(table, order_cap(cap)), labels)
    # a copy even when no relabelling was needed: the caller's array stays
    # writable
    return FiniteGroup._checked(np.array(arr, dtype=np.int32), name, labels)


def from_permutation_generators(gens, *, name=None, cap=None) -> FiniteGroup:
    """Close permutations of 0..d-1, given as one-line images, and return
    the abstract group.

    Elements are numbered in depth-first discovery order from the identity
    (index 0): pop the last element found, right-multiply it by each
    generator in turn (p * q has the images p[q[x]]), and number each new
    product as it appears.  Indices and labels (the one-line images) follow
    this order.  The closure aborts with OrderCapExceeded as soon as it
    outgrows the cap.

    The table is read off the Cayley graph the closure walks: if
    p_k = p_i * g, then p_j * p_k = (p_j * p_i) * g, so column k is column i
    mapped through right multiplication by g.  That costs n * |gens|
    compositions and n column gathers, not n**2 compositions.
    """
    gens = [tuple(g) for g in gens]
    # refused, not converted, as in _integer_table: int() would truncate
    # floats, parse strings and read booleans as 0 and 1
    if not all(_is_integer(i) for g in gens for i in g):
        raise NotAGroup("permutation images must be integers")
    gens = [tuple(map(int, g)) for g in gens]
    if not gens:
        raise NotAGroup("no generators given")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise NotAGroup(f"not a permutation of 0..{degree - 1}: {g}")
    limit = order_cap(cap)
    # p * s as one C-level gather.  Below degree 2 the only permutation is
    # the identity, so p * s = p; itemgetter would return a bare int there
    composers = [itemgetter(*s) if degree > 1 else tuple for s in gens]
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    found = []  # found[k - 1] = (i, g) with elems[k] = elems[i] * gens[g]
    popped, products = [], []  # products[r * |gens| + g] = index(elems[popped[r]] * gens[g])
    queue = [0]
    while queue:
        i = queue.pop()
        p = elems[i]
        popped.append(i)
        for g, compose in enumerate(composers):
            q = compose(p)
            j = index.get(q)
            if j is None:
                if len(elems) >= limit:
                    raise OrderCapExceeded(len(elems) + 1, limit)
                j = index[q] = len(elems)
                elems.append(q)
                found.append((i, g))
                queue.append(j)
            products.append(j)
    n = len(elems)
    right = np.empty((len(gens), n), dtype=np.int32)
    right[:, popped] = np.asarray(products, dtype=np.int32).reshape(n, len(gens)).T
    columns = np.empty((n, n), dtype=np.int32)  # columns[k] = table[:, k]
    columns[0] = np.arange(n)
    for k, (i, g) in enumerate(found, start=1):
        columns[k] = right[g, columns[i]]
    labels = tuple("(" + " ".join(map(str, p)) + ")" for p in elems)
    return FiniteGroup(columns.T, name=name, labels=labels, trusted=True)


def cyclic_group(n: int, *, cap=None) -> FiniteGroup:
    if n < 1:
        raise UnknownName(f"cyclic order must be >= 1, got {n}")
    _check_cap(n, cap)
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, name=f"cyclic({n})", trusted=True)


def direct_product(G: FiniteGroup, H: FiniteGroup, *, name=None, cap=None) -> FiniteGroup:
    """G x H on pair indices (g, h) -> g*|H| + h.

    The table is one broadcast sum, (g, h) * (g', h') = gg'*|H| + hh', of
    shape (|G|, |H|, |G|, |H|) in int64, cast to int32 and reshaped to
    n x n without a copy.  The int64 sum is materialised, not written
    straight into int32: the n^2 int64 block it frees leaves a heap in
    which later arrays of that size (the table read back from JSONL) get
    transparent huge pages; without it, an ingest of the corpus took more
    4 KiB page faults and its time varied more from run to run.
    """
    n = G.order * H.order
    _check_cap(n, cap)
    nh = H.order
    table = np.add(
        (G.table.astype(np.int64) * nh)[:, None, :, None],
        H.table[None, :, None, :],
    ).astype(np.int32)
    if name is None and G.name and H.name:
        name = f"direct({G.name},{H.name})"
    labels = None
    if G.labels is not None and H.labels is not None:
        labels = tuple(f"({a},{b})" for a in G.labels for b in H.labels)
    return FiniteGroup(table.reshape(n, n), name=name, labels=labels, trusted=True)


def _central_subgroup_check(G: FiniteGroup, elems: tuple[int, ...]) -> None:
    arr = np.asarray(elems, dtype=np.int64)
    try:
        G.subgroup(arr)
    except NotClosed as exc:
        raise NotCentral(f"pairing domain in {G.display_name} is not a subgroup: {exc}")
    # central: commutes with everything
    for z in elems:
        if not np.array_equal(G.table[:, z], G.table[z, :]):
            raise NotCentral(
                f"element {z} of the pairing domain is not central in {G.display_name}"
            )


def central_product_with_embeddings(
    G: FiniteGroup, H: FiniteGroup, pairing: dict, *, name=None, cap=None
):
    """Central product of G and H along `pairing`, an isomorphism from a
    central subgroup of G onto a central subgroup of H (element index map;
    the identity pair 0 -> 0 is implied).

    Returns (group, embed_G, embed_H): the quotient of G x H by the twisted
    diagonal D of the pairing, plus the two index maps embedding G and H.
    The order cap applies to the quotient, of order |G|*|H|/|D|: G x H is
    never built.  Its pair (g, h) has index g*|H| + h, as in direct_product,
    and the cosets are numbered by least member, as quotient_group numbers
    them.  The least member of (g, h)D is (g*z, h*w) for the (z, w) in D
    with g*z least, and it is (g, h) itself exactly when g is least in gZ.
    The least members are listed by leader and then by h, so the coset of
    (g, h) is rank[g*z] * |H| + h*w, with rank the position of each leader.
    """
    pairing = {int(k): int(v) for k, v in pairing.items()}
    pairing.setdefault(0, 0)
    if pairing[0] != 0:
        raise NotIsomorphism("the identity must map to the identity")
    dom = tuple(sorted(pairing))
    img = tuple(sorted(pairing.values()))
    if len(set(pairing.values())) != len(pairing):
        raise NotIsomorphism("pairing is not injective")
    _central_subgroup_check(G, dom)
    _central_subgroup_check(H, img)
    for a in dom:
        for b in dom:
            ab = G.mult(a, b)
            if ab not in pairing:
                raise NotCentral("pairing domain is not closed")
            if pairing[ab] != H.mult(pairing[a], pairing[b]):
                raise NotIsomorphism(
                    f"pairing breaks multiplication at ({a}, {b})"
                )
    _check_cap(G.order * H.order // len(dom), cap)
    nh = H.order
    gz = G.table[:, list(dom)]
    best = gz.argmin(axis=1)
    least_g = gz[np.arange(G.order), best].astype(np.int64)
    w = H.inverses[[pairing[z] for z in dom]][best]
    leaders = np.flatnonzero(least_g == np.arange(G.order))
    rank = np.zeros(G.order, dtype=np.int64)
    rank[leaders] = np.arange(leaders.size)
    reps = (leaders[:, None] * nh + np.arange(nh)).ravel()

    def coset(g, h):
        return rank[least_g[g]] * nh + H.table[h, w[g]]

    gs, hs = reps // nh, reps % nh
    table = coset(G.table[gs[:, None], gs], H.table[hs[:, None], hs])
    if name is None and G.name and H.name:
        name = f"central({G.name},{H.name})"
    labels = None
    if G.labels is not None and H.labels is not None:
        labels = tuple(f"[({G.labels[g]},{H.labels[h]})]" for g, h in zip(gs, hs))
    Q = FiniteGroup(table.astype(np.int32), name=name, labels=labels, trusted=True)
    embed_g = tuple(int(c) for c in coset(np.arange(G.order), 0))
    embed_h = tuple(int(c) for c in coset(0, np.arange(nh)))
    return Q, embed_g, embed_h


def quotient_group(G: FiniteGroup, N: Subgroup):
    """G/N for a normal N.  Returns (quotient, projection) where projection
    maps each element index of G to its coset index; coset 0 is N itself.
    Cosets are ordered by their least member, so the labelling is canonical.
    """
    if N.parent is not G:
        raise ForeignSubgroup("subgroup belongs to a different group")
    cached = G._cache.get(("quotient", N.elements))
    if cached is not None:
        return cached
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    arr = N.as_array()
    # coset key: least element of x*N
    keys = G.table[:, arr].min(axis=1)
    is_rep = np.zeros(G.order, dtype=bool)
    is_rep[keys] = True
    reps = np.flatnonzero(is_rep)
    coset_index = np.zeros(G.order, dtype=np.int32)
    coset_index[reps] = np.arange(reps.size)
    proj = coset_index[keys]
    table = proj[G.table[np.ix_(reps, reps)]]
    name = f"{G.display_name}/N{N.order}" if G.name else None
    labels = None
    if G.labels is not None:
        labels = tuple(f"[{G.labels[int(r)]}]" for r in reps)
    Q = FiniteGroup(table, name=name, labels=labels, trusted=True)
    result = (Q, tuple(int(p) for p in proj))
    G._cache[("quotient", N.elements)] = result
    return result


def subgroup_as_group(G: FiniteGroup, S: Subgroup):
    """The abstract group carried by a subgroup.  Returns (group, back_map):
    element i of the result is back_map[i] in G; back_map is S.elements."""
    if S.parent is not G:
        raise ForeignSubgroup("subgroup belongs to a different group")
    cached = G._cache.get(("induced", S.elements))
    if cached is not None:
        return cached
    arr = S.as_array()
    pos = np.full(G.order, -1, dtype=np.int64)
    pos[arr] = np.arange(arr.size)
    sub = G.table[np.ix_(arr, arr)]
    if (pos[sub] < 0).any():
        raise NotClosed("element set is not closed under multiplication")
    table = pos[sub].astype(np.int32)
    labels = tuple(G.label(int(e)) for e in arr) if G.labels is not None else None
    name = None
    if S.is_whole:
        name = G.name
    elif G.name:
        name = f"{G.display_name}|sub{S.order}"
    H = FiniteGroup(table, name=name, labels=labels, trusted=True)
    result = (H, S.elements)
    G._cache[("induced", S.elements)] = result
    return result


# -- abelian structure ------------------------------------------------------


def _require_abelian(A: FiniteGroup) -> None:
    if not np.array_equal(A.table, A.table.T):
        raise NotAbelian(f"{A.display_name} is not abelian")


@dataclass(frozen=True)
class AbelianInvariants:
    """Primary decomposition of a finite abelian group: the multiset of
    prime-power cyclic orders, kept as a sorted tuple.  () is the trivial
    group."""

    primary_orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(sorted(int(q) for q in self.primary_orders))
        for q in orders:
            ps = prime_factors(q)
            if len(ps) != 1 or q < 2:
                raise BadArgument(f"{q} is not a prime power > 1")
        object.__setattr__(self, "primary_orders", orders)

    @property
    def order(self) -> int:
        out = 1
        for q in self.primary_orders:
            out *= q
        return out


def abelian_invariants(A: FiniteGroup) -> AbelianInvariants:
    """Primary invariants read off from element-order statistics: for each
    prime p, the counts of solutions of x^(p^k) = 1 determine the partition
    of the p-part."""
    _require_abelian(A)
    orders = A.element_orders()
    out = []
    for p in prime_factors(A.order):
        # exps[k] = log_p #{x : x^(p^k) = 1}
        exps = [0]
        k = 1
        while True:
            modulus = p**k
            cnt = int(np.count_nonzero(modulus % orders == 0))
            e = 0
            while p**e < cnt:
                e += 1
            if p**e != cnt:
                raise NotAGroup(f"solution count {cnt} is not a power of {p}")
            exps.append(e)
            if e == exps[-2]:
                exps.pop()
                break
            k += 1
        # d[k] = #{cyclic factors of exponent >= k}
        d = [exps[k] - exps[k - 1] for k in range(1, len(exps))]
        d.append(0)
        for k in range(1, len(d)):
            mult = d[k - 1] - d[k]
            out.extend([p**k] * mult)
    return AbelianInvariants(tuple(out))


def _cyclic_span(A: FiniteGroup, x: int) -> list[int]:
    out = [0]
    acc = int(A.table[0, x])
    while acc != 0:
        out.append(acc)
        acc = int(A.table[acc, x])
    return out


def abelian_basis(A: FiniteGroup) -> list[tuple[int, int]]:
    """An independent generating set of an abelian group, primary component
    by primary component: pairs (element, order) whose cyclic spans meet
    trivially and multiply out to the whole group.

    Within one component the generator of maximal order is split off first;
    its complement is grown greedily element by element until maximal, which
    for abelian p-groups is guaranteed to be a true complement.
    """
    _require_abelian(A)
    orders = A.element_orders()
    basis: list[tuple[int, int]] = []
    for p in prime_factors(A.order):
        comp = sorted(x for x in range(A.order) if pi_part(int(orders[x]), (p,)) == int(orders[x]))
        basis.extend(_primary_basis(A, comp))
    return basis


def _primary_basis(A: FiniteGroup, comp: list[int]) -> list[tuple[int, int]]:
    if len(comp) == 1:
        return []
    orders = A.element_orders()
    x = max(comp, key=lambda e: (int(orders[e]), -e))
    span_x = set(_cyclic_span(A, x))
    comp_members = set(comp)
    complement = {0}
    changed = True
    while changed:
        changed = False
        for y in comp:
            if y in complement:
                continue
            candidate = set(
                int(v) for v in _close(A.table, np.asarray(sorted(complement)), np.asarray([y]))
            )
            if candidate <= comp_members and len(candidate & span_x) == 1:
                complement = candidate
                changed = True
    if len(complement) * len(span_x) != len(comp):
        raise NotAGroup("complement search failed in an abelian p-group")
    return [(x, int(orders[x]))] + _primary_basis(A, sorted(complement))


def abelian_isomorphism(A: FiniteGroup, B: FiniteGroup) -> dict[int, int]:
    """An explicit isomorphism between two abelian groups with the same
    primary invariants, as an element index map built coordinatewise over
    sorted bases.  Raises NotIsomorphism when the invariants differ."""
    _require_abelian(A)
    _require_abelian(B)
    if abelian_invariants(A) != abelian_invariants(B):
        raise NotIsomorphism(
            f"abelian groups of orders {A.order} and {B.order} are not isomorphic"
        )
    basis_a = sorted(abelian_basis(A), key=lambda bq: bq[1])
    basis_b = sorted(abelian_basis(B), key=lambda bq: bq[1])
    iso: dict[int, int] = {}
    for coords in itertools.product(*(range(q) for _, q in basis_a)):
        a = 0
        b = 0
        for e, (xa, _), (xb, _) in zip(coords, basis_a, basis_b):
            a = A.mult(a, A.power(xa, e))
            b = B.mult(b, B.power(xb, e))
        iso[a] = b
    return iso


def frattini_cover_abelian(Z: FiniteGroup, *, cap=None) -> FiniteGroup:
    """The abelian cover obtained by stretching each primary invariant p^a
    of Z to p^(a+1).  Its frattini subgroup is isomorphic to Z again, which
    is what makes it useful for building central extensions."""
    _require_abelian(Z)
    inv = abelian_invariants(Z)
    total = 1
    for q in inv.primary_orders:
        total *= q * prime_factors(q)[0]
    _check_cap(total, cap)
    cover = cyclic_group(1)
    for q in inv.primary_orders:
        p = prime_factors(q)[0]
        cover = direct_product(cover, cyclic_group(q * p), cap=total)
    factors = "x".join(str(q * prime_factors(q)[0]) for q in inv.primary_orders) or "1"
    return FiniteGroup(cover.table, name=f"abelian_cover({factors})", trusted=True)

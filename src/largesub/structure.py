"""Structural computations on table groups.

Everything here is exhaustive: conjugacy classes come from full orbit
sweeps, normal subgroups from products of normal closures of classes, and
subnormal subgroups from iterating normality to a fixpoint.  Results are
returned in a canonical order (by order, then by element tuple) so every
run of every enumeration is reproducible.

The classes come from one flat take on the table: column i holds every
conjugate of the i-th element, and the least entry of the column labels
its class.  Normal subgroups are enumerated on class bitmasks: a normal
subgroup is a union of classes, held as a Python int with bit j set for
the j-th class.  Nothing is closed element by element: the closure of
class j (one per class and inverse class) is a fixpoint on column j of a
temporary class product table, _ClassProducts, read in blocks of bounded
memory and never memoized.  The same fixpoint from class i gives
class_i * C for the closure C.  These sets partition the classes, so the
product of a normal subgroup N with C is the union of the parts N meets.
A closure that is already a product of earlier ones adds nothing.  Only
the final list is turned back into element tuples.

The same pass leaves a private lattice record, the one memo of the normal
structure: each member's class bitmask, the position of each member's
element tuple, the class of each element, and how the build found each
member.  Every member but the trivial one was found as N_prev * C_j, for
an earlier member N_prev and the closure C_j of class j; one int32 row
per member holds the position of N_prev and j, so the walk back to the
trivial member lists classes that generate the member, its generating
classes.  A subgroup generated by a union of classes is the first member
whose mask contains them, since it lies in every other.  Only this module
reads the class bitmasks: the record answers every other module in
member positions.  These questions are answered on the record without
closing anything:

* the derived and lower central series of a subgroup normal in its parent
  G walk G's record as member positions, and classes.nilpotency_class and
  derived_length read the length of that walk.  For members A and B, with
  X the representatives of A's generating classes and Y the elements of
  B's, [A, B] is the first member over the classes of the [x, y]: A is
  the normal closure of X, B is generated by Y, and [x, y1 y2] =
  [x, y2][x, y1]^y2 and [x^g, y] = [x, y^(g^-1)]^g.  Every term is
  characteristic in the start, so a start that is not normal in G walks
  its own record.  Each unordered pair of members is gathered once per
  lattice, so the chains of different members, which share their tails,
  cost one gather per new pair;
* the centralizer in G of a member N is the union of the classes whose
  representative commutes with the elements of N's generating classes;
  it is normal, so the record stores its position, from one comparison
  made once per member.  The claim witnesses, all normal in G, read their
  centralizer order and largeness off that member;
* every chief-factor question reads one climb up the same record as the
  series, chief_steps: each step is the first member inside the top that
  properly contains the last, a chief factor of the record's group;
* abelian-ness (classes.is_abelian) of a member N of an already built
  record of G: every G-class in an abelian N has a size dividing |G:N|,
  and past that filter N is abelian exactly when it lies in its
  centralizer, the entry the witnesses read;
* the maximal members passing a test (the maximal normal subgroups, and
  the cores, radicals and maximal normal class members in radicals.py)
  come from one walk down the list, which tests a member only when no
  member found so far contains it.

The canonical normal-subgroup list is the one source for minimal and
maximal normal subgroups, the socle, the chief series, the cores and the
supersoluble residual; none of them builds a quotient.  A join of normal
subgroups (the socle, and the Fitting subgroups in radicals.py) is the
first member over the classes they meet, and a chief series is the climb
of chief_steps.  Minimal normal subgroups compare masks with the earlier
members only, since a proper subgroup comes earlier in the canonical
order.  The normal structure functions and the series take a group or a
Subgroup H of it and work on the parent's table, reading H's record,
memoized on the parent, on every call; the record keeps what is asked
again (see _Lattice).  A series report holds its chain and nothing else;
its factor orders are read off the orders of the chain's terms.  Only the
composition factors build groups, induced groups and their quotients, and
only a class defined by a user needs them: in_extension_closure decides
the built-in classes from the chief factor orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ForeignSubgroup, TrivialGroup
from .groups import (
    FiniteGroup,
    Subgroup,
    _close,
    _require_abelian,
    prime_factors,
    quotient_group,
    subgroup_as_group,
)


def _elements_array(G: FiniteGroup, elements) -> np.ndarray:
    if isinstance(elements, Subgroup):
        if elements.parent is not G:
            raise ForeignSubgroup("subgroup belongs to a different group")
        return elements.as_array()
    return np.asarray(sorted(set(int(e) for e in elements)), dtype=np.int64)


# -- conjugation ------------------------------------------------------------


def _as_subgroup(x) -> Subgroup:
    if isinstance(x, FiniteGroup):
        return x.whole()
    if isinstance(x, Subgroup):
        return x
    raise TypeError(f"expected a group or subgroup, got {type(x).__name__}")


def _memoized(x, name, compute):
    """compute(H) for the group or subgroup x, memoized on the parent.  The
    whole group keys its entry by name alone, found without building
    G.whole(); a proper subgroup H keys it by (name, H.elements).  Three
    names use it: conjugacy_classes, asked without a lattice (the bench
    times them as a layer, and listing classes must not build a wide
    lattice); normal_lattice, the record, the one memo of H's normal
    structure; and normal_subgroups, the record's members again, which the
    bench's walk over the caches counts under that name alone."""
    if isinstance(x, FiniteGroup):
        G, key = x, name
    else:
        H = _as_subgroup(x)
        G, key = H.parent, (name if H.is_whole else (name, H.elements))
    if key not in G._cache:  # None is a result too (not nilpotent, not soluble)
        G._cache[key] = compute(_as_subgroup(x))
    return G._cache[key]


def conjugacy_classes(x) -> list[tuple[int, ...]]:
    """Conjugacy classes of a group, or of a subgroup H under conjugation
    by H, as sorted tuples of parent indices ordered by least member (the
    identity class comes first)."""
    return _memoized(x, "conjugacy_classes", _classes)


def _classes(H: Subgroup) -> list[tuple[int, ...]]:
    # column i of the gather holds g * h_i * g^-1 for every g in H, the
    # whole class of h_i, so its least entry labels the class; a stable
    # sort by label keeps each class in ascending order.  g * h_i is entry
    # [g, i] of the table (of H's block of it for a proper subgroup), and
    # one flat take multiplies it by g^-1
    G = H.parent
    hs = H.as_array()
    left = G.table if H.is_whole else G.table[hs[:, None], hs]
    least = G.table.ravel().take(left * G.order + G.inverses[hs][:, None]).min(axis=0)
    order = np.argsort(least, kind="stable")
    labels, members = least[order], hs[order].tolist()
    cuts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(members)]
    return [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:])]


# -- closures, centralizers, joins ------------------------------------------


def closure(G: FiniteGroup, seed) -> Subgroup:
    """Smallest subgroup containing the seed elements."""
    return G.closure_of(_elements_array(G, seed))


def generating_subset(G: FiniteGroup, elements) -> list[int]:
    """A (greedy, usually small) subset generating the same subgroup."""
    gens: list[int] = []
    span = np.asarray([0], dtype=np.int64)
    inside = np.zeros(G.order, dtype=bool)
    inside[0] = True
    for e in _elements_array(G, elements).tolist():
        if not inside[e]:
            gens.append(e)
            span = _close(G.table, span, np.asarray([e], dtype=np.int64))
            inside[span] = True
    return gens


def centralizer(G: FiniteGroup, elements) -> Subgroup:
    """All elements commuting with every member of the given set.

    Commuting with a set is the same as commuting with the subgroup it
    generates, so the sweep only needs a generating subset.
    """
    table = G.table
    ok = np.ones(G.order, dtype=bool)
    for s in generating_subset(G, elements):
        ok &= table[:, s] == table[s, :]
    return Subgroup._sorted(G, tuple(np.flatnonzero(ok).tolist()))


def center(x) -> Subgroup:
    """Elements of a group or a subgroup H commuting with all of H: those
    whose row of H's block of the table equals their column.  One block
    compare per call; no lattice record is built."""
    H = _as_subgroup(x)
    hs = H.as_array()
    block = H.parent.table[hs[:, None], hs]
    return Subgroup._sorted(H.parent, tuple(hs[(block == block.T).all(axis=1)].tolist()))


def join(first: Subgroup, second: Subgroup) -> Subgroup:
    if first.parent is not second.parent:
        raise ForeignSubgroup("subgroups of different parents")
    closed = _close(first.parent.table, first.as_array(), second.as_array())
    return Subgroup._sorted(first.parent, tuple(closed.tolist()))


def intersect(first: Subgroup, second: Subgroup) -> Subgroup:
    if first.parent is not second.parent:
        raise ForeignSubgroup("subgroups of different parents")
    return Subgroup(first.parent, first.index_set & second.index_set)


# -- normal subgroup enumeration --------------------------------------------


def normal_subgroups(x) -> list[Subgroup]:
    """Every normal subgroup of a group, or of a subgroup H (normal in H),
    in canonical order.

    A normal subgroup is the product of the normal closures of the
    H-classes it contains, so multiplying every product found so far by
    each closure in turn reaches all of them.  The products are taken on
    class bitmasks (bit j for the j-th class of conjugacy_classes(H)): for
    a closure C, the classes of N*C are the classes of rep_j*C over the
    classes j of N, since x*C for x in class j is a conjugate of rep_j*C.
    Each closure, and each rep_j*C, is a fixpoint on one column of the
    class product table, which is scattered in blocks of at most
    _BLOCK_BYTES: one block for a group with at most 64 classes."""
    return _memoized(x, "normal_subgroups", lambda H: _lattice(H).members)


@dataclass(eq=False)
class _Lattice:
    """The normal subgroups of a group or subgroup H on its classes: the
    canonical list, each member's class bitmask, the position of each
    member's element tuple, the class of each element of H (-1 outside H,
    by parent index), the classes and each one's least member, and steps:
    row i holds the position of N_prev and the class j of C_j for which the
    build found N_i as N_prev * C_j (zero for the trivial member).  The
    commutator and centralizer gathers run over the generating classes
    that steps gives, and their answers are stored as they are asked, so
    each is gathered once per lattice.  So are the answers about H asked
    again: maximal_normals, the Fitting subgroup's position (fitting, set by
    radicals) and, by (position, derived), the lower central and derived
    walk lengths of members (lengths, set by classes).  Only this module
    reads the class bitmasks; every other caller asks about member
    positions."""

    parent: FiniteGroup
    members: list[Subgroup]
    masks: tuple[int, ...]
    index: dict[tuple[int, ...], int]
    class_of: np.ndarray
    classes: list[tuple[int, ...]]
    reps: np.ndarray
    steps: np.ndarray
    commutators: dict[tuple[int, int], int] = field(default_factory=dict)
    centralizers: dict[int, int] = field(default_factory=dict)
    lengths: dict[tuple[int, bool], int | None] = field(default_factory=dict)
    fitting: int | None = None

    @property
    def top(self) -> int:
        """Position of H itself, the last member."""
        return len(self.masks) - 1

    def le(self, i: int, j: int) -> bool:
        """Whether N_i lies in N_j."""
        return not self.masks[i] & ~self.masks[j]

    def least_over(self, mask: int) -> int:
        """Position of the normal subgroup the classes in mask generate:
        the first member containing them, since it lies in every other."""
        return next(i for i, m in enumerate(self.masks) if not mask & ~m)

    def closure_of(self, subgroups) -> int:
        """Position of the normal closure in H of the given subgroups of H
        (their join, when they are normal): the first member over the
        classes that meet them."""
        classes = {c for T in subgroups for c in self.class_of[T.as_array()].tolist()}
        return self.least_over(sum(1 << c for c in classes))

    def maximal(self, test) -> list[int]:
        """Positions, in canonical order, of the inclusion-maximal members
        i with test(i).  The walk goes down the list, so every member above
        N_i comes first: N_i is not tested when it lies in a member already
        found, and is maximal when it lies in none and passes."""
        found: list[int] = []
        for i in reversed(range(len(self.masks))):
            if all(self.masks[i] & ~self.masks[j] for j in found) and test(i):
                found.append(i)
        return found[::-1]

    @cached_property
    def maximal_normals(self) -> list[int]:
        """Positions of the maximal members short of the top, asked by
        every composition series through H."""
        return self.maximal(lambda i: i != self.top)

    def chief_steps(self, top: int):
        """(position, factor order) for each step of a chief series from the
        trivial member up to member top.  Each step is the first member
        inside top that properly contains the last, so its factor is
        minimal normal in the quotient by the last: a chief factor of the
        record's group, a power of a simple group."""
        masks, inside, last = self.masks, self.masks[top], 0
        for j in range(1, top + 1):
            # a later member containing the last step contains it properly
            if not masks[j] & ~inside and not masks[last] & ~masks[j]:
                yield j, self.members[j].order // self.members[last].order
                last = j

    def generating_classes(self, i: int) -> list[int]:
        """Classes that generate N_i: the class j of each row of steps on
        the walk back from N_i to the trivial member."""
        classes = []
        while i:
            i, j = self.steps[i].tolist()
            classes.append(j)
        return classes

    def _elements_of(self, classes: list[int]) -> np.ndarray:
        # parent indices of the elements of the listed classes
        return np.array([x for j in classes for x in self.classes[j]], dtype=np.int64)

    def commutator(self, i: int, j: int) -> int:
        """Position of [N_i, N_j] for members i and j, gathered once per
        unordered pair since [N_i, N_j] = [N_j, N_i]: the derived and lower
        central chains of different members share their tails, so later
        chains are lookups."""
        key = (i, j) if i <= j else (j, i)
        if key not in self.commutators:
            self.commutators[key] = self._commutator(*key)
        return self.commutators[key]

    def _commutator(self, i: int, j: int) -> int:
        # [N_i, N_j] is the normal closure of the [x, y], x over the
        # representatives of N_i's generating classes and y over the
        # elements of N_j's (see the module docstring)
        table, inv = self.parent.table, self.parent.inverses
        a = self.reps[self.generating_classes(i)]
        b = self._elements_of(self.generating_classes(j))
        comms = table[table[inv[a][:, None], inv[b]], table[a[:, None], b]]
        return self.least_over(sum(1 << c for c in set(self.class_of[comms].ravel().tolist())))

    def centralizer(self, i: int) -> int:
        """Position of the centralizer of member i in H, gathered once per
        member.  It is normal, so a member, and a class lies in it exactly
        when its least member commutes with the elements of the classes
        that generate N_i."""
        if i not in self.centralizers:
            self.centralizers[i] = self._centralizer(i)
        return self.centralizers[i]

    def _centralizer(self, i: int) -> int:
        table, s = self.parent.table, self._elements_of(self.generating_classes(i))
        reps = self.reps[:, None]
        inside = np.flatnonzero((table[reps, s] == table[s, reps]).all(axis=1))
        return self.least_over(sum(1 << c for c in inside.tolist()))

    def abelian(self, i: int) -> bool:
        """Whether N_i is abelian: every H-class in an abelian N_i has a
        size dividing |H:N_i|, and past that filter N_i is abelian exactly
        when it lies in its own centralizer."""
        index = self.members[-1].order // self.members[i].order
        if any(index % len(self.classes[j]) for j in _bits(self.masks[i])):
            return False
        return self.le(i, self.centralizer(i))


def _lattice(x) -> _Lattice:
    return _memoized(x, "normal_lattice", _normals)


def _built_record(G: FiniteGroup) -> _Lattice | None:
    """G's own lattice record if it is already built, else None."""
    return G._cache.get("normal_lattice")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Bytes of one block of the class product table: a block of b columns is
# a b x k x 64w bool scatter (w 64-bit words per class bitmask), so every
# group with at most 64 classes is one block, and a group with more
# classes reads its table a few columns at a time in bounded memory.
_BLOCK_BYTES = 1 << 18


class _ClassProducts:
    """The class product table of a group or subgroup H, built per lattice
    and never memoized: hit[j, i, l] holds when class l meets rep_i times
    class j.  For x in class i, x * class_j is a conjugate of rep_i *
    class_j, so one k x |H| gather, the class of rep_i * h for every h of
    H listed class by class, holds the whole table.  It is read out in
    blocks of columns j, each one bool scatter of at most _BLOCK_BYTES
    packed into bitmask rows."""

    def __init__(self, H: Subgroup):
        G = H.parent
        classes = conjugacy_classes(H)
        self.k = k = len(classes)
        self.sizes = tuple(map(len, classes))
        elements = np.fromiter((x for c in classes for x in c), dtype=np.int64, count=H.order)
        cuts = [0, *np.cumsum(self.sizes).tolist()]
        # the class of each column: one step up at the first member of
        # each class after the identity's
        steps = np.zeros(H.order, dtype=np.int32)
        steps[cuts[1:-1]] = 1
        self.column_class = steps.cumsum(dtype=np.int32)
        self.class_of = np.full(G.order, -1, dtype=np.int32)
        self.class_of[elements] = self.column_class
        self.reps = elements[cuts[:-1]]
        self.products = self.class_of[G.table[self.reps[:, None], elements]]
        inverse_class = self.class_of[G.inverses[self.reps]].tolist()
        # a class and its inverse class close to the same subgroup
        self.generating = [j for j in range(1, k) if inverse_class[j] >= j]
        self.words = -(-k // 64)
        self.span = max(1, _BLOCK_BYTES // (k * 64 * self.words))

    def columns(self, classes: list[int]):
        """(j, column j) for the classes j listed, in ascending order:
        entry i of column j is the bitmask of the classes met by rep_i *
        class_j.  Each block of span listed classes is one scatter."""
        k = self.k
        listed = np.zeros(k, dtype=bool)
        listed[classes] = True
        # the columns of the listed classes, class by class, and the
        # position of each one's class in the list
        picked = np.flatnonzero(listed[self.column_class])
        position = np.zeros(k, dtype=np.int64)
        position[classes] = np.arange(len(classes))
        at = position[self.column_class[picked]]
        cuts = [0, *np.cumsum([self.sizes[j] for j in classes]).tolist()]
        for a in range(0, len(classes), self.span):
            b = min(a + self.span, len(classes))
            block = self._block(b - a, at[cuts[a] : cuts[b]] - a, picked[cuts[a] : cuts[b]])
            yield from zip(classes[a:b], block)

    def _block(self, count: int, at: np.ndarray, columns: np.ndarray) -> list[list[int]]:
        # count columns of the table in one scatter, column h of H adding
        # to block column at[h]; each row packed into 64-bit words and read
        # out as an int
        k, words = self.k, self.words
        hit = np.zeros((count, k, 64 * words), dtype=bool)
        hit[at, np.arange(k)[:, None], self.products[:, columns]] = True
        packed = np.packbits(hit, axis=2, bitorder="little").view("<u8").reshape(-1, words)
        rows = packed[:, -1].tolist()
        for w in range(words - 2, -1, -1):
            rows = [high << 64 | low for high, low in zip(rows, packed[:, w].tolist())]
        return [rows[i : i + k] for i in range(0, len(rows), k)]


def _fixpoint(column, mask: int) -> int:
    """Class bitmask of S * C, for the classes S in mask and the subgroup C
    generated by the class of the column, normal in H: the fixpoint of
    M <- M * class_j from S, where only the classes new to M add rows.
    From the identity class it is C itself."""
    new = mask
    while new:
        step = 0
        while new:
            low = new & -new
            step |= column[low.bit_length() - 1]
            new ^= low
        new = step & ~mask
        mask |= new
    return mask


def _cosets(column, C: int, k: int) -> list[int]:
    """The class bitmasks of the sets class_i * C, for the subgroup C the
    class of the column generates, each a fixpoint from class i, C itself
    first.  They partition the classes: every class l that class_i * C
    meets has class_l * C = class_i * C, since C is normal."""
    parts, rest = [C], ((1 << k) - 1) & ~C
    while rest:
        part = _fixpoint(column, rest & -rest)
        parts.append(part)
        rest &= ~part
    return parts


def _normals(H: Subgroup) -> _Lattice:
    G = H.parent
    classes = conjugacy_classes(H)
    table = _ClassProducts(H)
    # each distinct class closure C with its first class and column, one of
    # each class and its inverse class
    closures = {}
    for j, column in table.columns(table.generating):
        closures.setdefault(_fixpoint(column, 1), (j, column))
    # every product found, from the trivial subgroup, with the N and the
    # class j of the closure it was first found as N * C_j
    found = {1: (1, 0)}
    for C, (j, column) in closures.items():
        if C in found:  # a join of earlier closures adds no product
            continue
        # N * C is the union of the cosets of C that N meets
        parts = _cosets(column, C, table.k)
        for N in [N for N in found if C & ~N]:  # else C lies in N
            product = 0
            for part in parts:
                if part & N:
                    product |= part
            found.setdefault(product, (N, j))
    ranked = sorted(
        ((tuple(sorted(x for i in _bits(N) for x in classes[i])), N) for N in found),
        key=lambda pair: (len(pair[0]), pair[0]),
    )
    position = {N: i for i, (_, N) in enumerate(ranked)}
    return _Lattice(
        parent=G,
        members=[Subgroup._sorted(G, t) for t, _ in ranked],
        masks=tuple(N for _, N in ranked),
        index={t: i for i, (t, _) in enumerate(ranked)},
        class_of=table.class_of,
        classes=classes,
        reps=table.reps,
        steps=np.asarray(
            [(position[found[N][0]], found[N][1]) for _, N in ranked], dtype=np.int32
        ),
    )


def minimal_normal_subgroups(x) -> list[Subgroup]:
    """Minimal normal subgroups of a group or a subgroup, in canonical
    order.  A proper subset comes earlier in that order, so each member is
    tested against the earlier ones only."""
    if _as_subgroup(x).is_trivial:
        raise TrivialGroup("the trivial group has no minimal normal subgroups")
    lat = _lattice(x)
    masks = lat.masks
    return [
        lat.members[i]
        for i in range(1, len(masks))
        if not any(not masks[j] & ~masks[i] for j in range(1, i))
    ]


def maximal_normal_subgroups(x) -> list[Subgroup]:
    """Maximal normal subgroups of a group or a subgroup, in canonical
    order: the maximal members of the lattice record short of the top."""
    if _as_subgroup(x).is_trivial:
        raise TrivialGroup("the trivial group has no maximal normal subgroups")
    lat = _lattice(x)
    return [lat.members[i] for i in lat.maximal_normals]


def socle(x) -> Subgroup:
    """Join of all minimal normal subgroups of a group or a subgroup
    (trivial for the trivial group)."""
    H = _as_subgroup(x)
    if H.is_trivial:
        return H.parent.trivial()
    lat = _lattice(H)
    return lat.members[lat.closure_of(minimal_normal_subgroups(H))]


def is_simple(x) -> bool:
    """Exactly two normal subgroups, itself and the trivial one (so
    nontrivial); takes a group or a subgroup, and reads its lattice
    record."""
    return len(_lattice(x).masks) == 2


# -- series -----------------------------------------------------------------


@dataclass(frozen=True)
class SeriesReport:
    """A strictly monotone subgroup chain: the derived, lower central and
    composition series descend, the chief series ascends.  Factor i has
    the order of the larger of chain[i] and chain[i+1] over the smaller,
    so one rule serves both directions."""

    chain: tuple[Subgroup, ...]

    @property
    def last(self) -> Subgroup:
        return self.chain[-1]

    @property
    def factor_orders(self) -> tuple[int, ...]:
        orders = [S.order for S in self.chain]
        return tuple(max(a, b) // min(a, b) for a, b in zip(orders, orders[1:]))


def derived_series(x) -> SeriesReport:
    """Repeated commutator subgroups until stable; ends at the trivial
    subgroup exactly for soluble inputs."""
    return _commutator_series(x, derived=True)


def lower_central_series(x) -> SeriesReport:
    """Iterated commutators with the whole input subgroup; reaches the
    trivial subgroup exactly for nilpotent inputs."""
    return _commutator_series(x, derived=False)


def _commutator_series(x, *, derived: bool) -> SeriesReport:
    lat, walk = _commutator_walk(_as_subgroup(x), derived=derived)
    return SeriesReport(tuple(lat.members[i] for i in walk))


def _record_of(start: Subgroup) -> tuple[_Lattice, int]:
    """A lattice record holding the start, and its position there: the
    parent G's record when the start is normal in G, the start's own
    otherwise (the same record for the whole of G).  G's record is not
    built just to learn that the start is not normal."""
    if start.is_whole:
        lat = _lattice(start)
        return lat, lat.top
    lat = _built_record(start.parent)
    if lat is None and start.is_normal():
        lat = _lattice(start.parent)
    i = None if lat is None else lat.index.get(start.elements)
    if i is None:
        lat = _lattice(start)
        return lat, lat.top
    return lat, i


def _commutator_walk(start: Subgroup, *, derived: bool) -> tuple[_Lattice, list[int]]:
    """The record _record_of picks, and the positions on it of the derived
    (derived) or lower central series of the start: term i+1 is [term i,
    term i] or [start, term i] until it repeats.  Every term is
    characteristic in the start, so normal in the parent G whenever the
    start is.  The trivial member is position 0."""
    lat, i = _record_of(start)
    chain = [i]
    while True:
        nxt = lat.commutator(chain[-1] if derived else chain[0], chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return lat, chain


def composition_series(x, *, rng=None) -> SeriesReport:
    """A maximal-normal chain from a group or subgroup down to the trivial
    subgroup.

    Deterministic tie-break: at each step take the maximal normal subgroup
    of largest order, least element tuple.  Passing an rng instead picks one
    of the candidates at random (useful for invariance testing).
    """
    chain = [_as_subgroup(x)]
    while chain[-1].order > 1:
        cands = sorted(maximal_normal_subgroups(chain[-1]), key=lambda N: (-N.order, N.elements))
        if rng is None:
            chain.append(cands[0])
        else:
            chain.append(cands[rng.randrange(len(cands))])
    return SeriesReport(tuple(chain))


def composition_factors(x) -> list[FiniteGroup]:
    """The simple factor groups of the deterministic composition series of a
    group or a subgroup, top factor first.  Each factor is built once: the
    induced groups and their quotients are memoized by groups.py."""
    H = _as_subgroup(x)
    chain = composition_series(H).chain
    out = []
    for upper, lower in zip(chain, chain[1:]):
        K, back = subgroup_as_group(H.parent, upper)
        pos = {e: j for j, e in enumerate(back)}
        out.append(quotient_group(K, Subgroup(K, tuple(pos[e] for e in lower.elements)))[0])
    return out


def chief_series(x) -> SeriesReport:
    """Ascending chain of normal subgroups of a group or subgroup whose
    factors are minimal normal subgroups of the successive quotients.  Each
    term is the first normal subgroup in canonical order strictly above the
    last: a cover of least order, ties to the least element tuple."""
    lat = _lattice(x)
    steps = lat.chief_steps(lat.top)
    return SeriesReport((lat.members[0], *(lat.members[i] for i, _ in steps)))


# -- subnormality ------------------------------------------------------------


def subnormal_subgroups(x) -> list[Subgroup]:
    """Fixpoint of "normal subgroup of something already collected",
    starting from the group or subgroup x itself; every member therefore
    carries a normal chain witnessing subnormality in x."""
    H = _as_subgroup(x)
    seen = {H.elements: H}
    queue = [H]
    while queue:
        for N in normal_subgroups(queue.pop()):
            if N.elements not in seen:
                seen[N.elements] = N
                queue.append(N)
    return [seen[t] for t in sorted(seen, key=lambda t: (len(t), t))]


# -- abelian frattini --------------------------------------------------------


def frattini_of_abelian(A: FiniteGroup) -> Subgroup:
    """Frattini subgroup of an abelian group: the intersection of the p-th
    power subgroups over the primes dividing the order."""
    _require_abelian(A)
    members = frozenset(range(A.order))
    idx = np.arange(A.order)
    for p in prime_factors(A.order):
        acc = np.zeros(A.order, dtype=np.int64)
        for _ in range(p):
            acc = A.table[acc, idx]
        members &= frozenset(acc.tolist())
    return Subgroup(A, members)

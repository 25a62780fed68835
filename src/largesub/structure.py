"""Structural computations on table groups.

Everything here is exhaustive: conjugacy classes come from full orbit
sweeps, normal subgroups from products of normal closures of classes, and
subnormal subgroups from iterating normality to a fixpoint.  Results are
returned in a canonical order (by order, then by element tuple) so every
run of every enumeration is reproducible.

Normal subgroups are enumerated on class bitmasks: a normal subgroup is a
union of classes, held as a Python int with bit j set for the j-th class.
One table gather per distinct class closure C records, for each class, the
classes met by its representative times C; the product of a normal
subgroup N with C is then the OR of those bitmasks over the classes of N,
and only the final list is turned back into element tuples.

The canonical normal-subgroup list is the one source for minimal and
maximal normal subgroups, the socle, the chief series, the cores and the
supersoluble residual; none of them builds a quotient.  The normal
structure functions and the series take a group or a Subgroup H of it and
work on the parent's table, memoizing H's results on the parent.  Only the
composition factors build groups: induced groups and their quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ForeignSubgroup, NotAbelian, TrivialGroup
from .groups import (
    _EMPTY,
    FiniteGroup,
    Subgroup,
    _close,
    prime_factors,
    quotient_group,
    subgroup_as_group,
)


def _is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == (n,)


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
    G.whole(); a proper subgroup H keys it by (name, H.elements)."""
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
    G = H.parent
    table, hs = G.table, H.as_array()
    inv_hs = G.inverses[hs]
    seen = np.zeros(G.order, dtype=bool)
    out = []
    for x in H.elements:
        if seen[x]:
            continue
        orbit = np.unique(table[table[hs, x], inv_hs])
        seen[orbit] = True
        out.append(tuple(int(v) for v in orbit))
    return out


# -- closures, centralizers, commutators ------------------------------------


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
    return Subgroup(G, np.flatnonzero(ok))


def center(x) -> Subgroup:
    """Elements of a group or a subgroup H commuting with all of H."""
    return _memoized(x, "center", lambda H: intersect(centralizer(H.parent, H), H))


def commutator_subgroup(G: FiniteGroup, first, second) -> Subgroup:
    """Subgroup generated by all commutators [a, b] with a in first and b in
    second (exhaustive over the two sets, then closed)."""
    a = _elements_array(G, first)
    b = _elements_array(G, second)
    table, inv = G.table, G.inverses
    comms = np.unique(table[table[inv[a][:, None], inv[b]], table[a[:, None], b]])
    return Subgroup(G, _close(table, np.empty(0, dtype=np.int64), comms))


def normal_closure(x, seed) -> Subgroup:
    """Smallest normal subgroup of the group or subgroup x containing the
    seed (which must lie in x): close all x-conjugates of the seed under
    multiplication."""
    H = _as_subgroup(x)
    G, hs = H.parent, H.as_array()
    seed = _elements_array(G, seed)
    conj = G.table[G.table[hs[:, None], seed], G.inverses[hs][:, None]]
    return Subgroup(G, _close(G.table, _EMPTY, np.unique(conj)))


def join(first: Subgroup, second: Subgroup) -> Subgroup:
    if first.parent is not second.parent:
        raise ForeignSubgroup("subgroups of different parents")
    return Subgroup(first.parent, _close(first.parent.table, first.as_array(), second.as_array()))


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
    So one k x |C| table gather per distinct closure gives the bitmask of
    each rep_j*C, and each product N*C is an OR of those ints."""
    return _memoized(x, "normal_subgroups", _normals)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _normals(H: Subgroup) -> list[Subgroup]:
    G = H.parent
    table = G.table
    classes = conjugacy_classes(H)
    k = len(classes)
    reps = np.asarray([c[0] for c in classes], dtype=np.int64)
    class_of = np.zeros(G.order, dtype=np.int64)
    for j, cls in enumerate(classes):
        class_of[list(cls)] = j
    # for each distinct closure C: the first class j with closure C, and
    # rows, where rows[i] is the class bitmask of rep_i * C
    closures = {}
    for j, cls in enumerate(classes[1:], 1):
        C = _close(table, _EMPTY, np.asarray(cls, dtype=np.int64))
        key = C.tobytes()
        if key in closures:
            continue
        hit = np.zeros((k, k), dtype=bool)
        hit[np.arange(k)[:, None], class_of[table[reps[:, None], C]]] = True
        packed = np.packbits(hit, axis=1, bitorder="little")
        closures[key] = (j, [int.from_bytes(row.tobytes(), "little") for row in packed])
    found = {1}  # the trivial subgroup: class 0 alone
    for j, rows in closures.values():
        for N in [N for N in found if not N >> j & 1]:  # else C lies in N
            product = 0
            for i in _bits(N):
                product |= rows[i]
            found.add(product)
    members = [tuple(sorted(x for i in _bits(N) for x in classes[i])) for N in found]
    return [Subgroup(G, t) for t in sorted(members, key=lambda t: (len(t), t))]


def minimal_normal_subgroups(x) -> list[Subgroup]:
    """Minimal normal subgroups of a group or a subgroup."""
    if _as_subgroup(x).is_trivial:
        raise TrivialGroup("the trivial group has no minimal normal subgroups")
    nontrivial = normal_subgroups(x)[1:]
    return [N for N in nontrivial if not any(M < N for M in nontrivial)]


def maximal_normal_subgroups(x) -> list[Subgroup]:
    """Maximal normal subgroups of a group or a subgroup."""
    H = _as_subgroup(x)
    if H.is_trivial:
        raise TrivialGroup("the trivial group has no maximal normal subgroups")
    proper = normal_subgroups(H)[:-1]
    return [N for N in proper if not any(N < M for M in proper)]


def socle(x) -> Subgroup:
    """Join of all minimal normal subgroups of a group or a subgroup
    (trivial for the trivial group)."""
    H = _as_subgroup(x)
    result = H.parent.trivial()
    for N in minimal_normal_subgroups(H) if H.order > 1 else ():
        result = join(result, N)
    return result


def is_simple(x) -> bool:
    """Exactly two normal subgroups, itself and the trivial one (so
    nontrivial); takes a group or a subgroup."""
    return len(normal_subgroups(x)) == 2


# -- series -----------------------------------------------------------------


@dataclass(frozen=True)
class FactorTag:
    """What is known about one series factor.  ``is_simple``/``abelian`` are
    None when the series kind does not establish them."""

    order: int
    prime_order: bool
    abelian: bool | None = None
    is_simple: bool | None = None


@dataclass(frozen=True)
class SeriesReport:
    """A subgroup chain with its factor data.

    kind: 'derived' | 'lower_central' | 'composition' | 'chief'.
    Chains are strictly monotone; derived/lower_central/composition descend,
    chief ascends.  factor_orders[i] is the index of chain[i+1] in chain[i]
    (or the other way around for ascending chains).
    """

    kind: str
    chain: tuple[Subgroup, ...]
    factor_orders: tuple[int, ...]
    factor_tags: tuple[FactorTag, ...]

    @property
    def last(self) -> Subgroup:
        return self.chain[-1]

    def __len__(self) -> int:
        return len(self.factor_orders)


def derived_series(x) -> SeriesReport:
    """Repeated commutator subgroups until stable; ends at the trivial
    subgroup exactly for soluble inputs."""
    start = _as_subgroup(x)
    G = start.parent
    chain = [start]
    while True:
        nxt = commutator_subgroup(G, chain[-1], chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    orders = tuple(chain[i].order // chain[i + 1].order for i in range(len(chain) - 1))
    tags = tuple(FactorTag(o, _is_prime(o), abelian=True) for o in orders)
    return SeriesReport("derived", tuple(chain), orders, tags)


def lower_central_series(x) -> SeriesReport:
    """Iterated commutators with the whole input subgroup; reaches the
    trivial subgroup exactly for nilpotent inputs."""
    start = _as_subgroup(x)
    G = start.parent
    chain = [start]
    while True:
        nxt = commutator_subgroup(G, start, chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    orders = tuple(chain[i].order // chain[i + 1].order for i in range(len(chain) - 1))
    tags = tuple(FactorTag(o, _is_prime(o), abelian=True) for o in orders)
    return SeriesReport("lower_central", tuple(chain), orders, tags)


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
    orders = tuple(chain[i].order // chain[i + 1].order for i in range(len(chain) - 1))
    tags = tuple(
        FactorTag(o, _is_prime(o), abelian=_is_prime(o), is_simple=True) for o in orders
    )
    return SeriesReport("composition", tuple(chain), orders, tags)


def composition_factors(x) -> list[FiniteGroup]:
    """The simple factor groups of the deterministic composition series of a
    group or a subgroup, top factor first."""
    return _memoized(x, "composition_factors", _factors)


def _factors(H: Subgroup) -> list[FiniteGroup]:
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
    normals = normal_subgroups(x)
    chain = [normals[0]]
    for N in normals[1:]:
        if chain[-1] < N:
            chain.append(N)
    orders = tuple(chain[i + 1].order // chain[i].order for i in range(len(chain) - 1))
    tags = tuple(
        FactorTag(o, _is_prime(o), abelian=len(prime_factors(o)) <= 1) for o in orders
    )
    return SeriesReport("chief", tuple(chain), orders, tags)


# -- subnormality ------------------------------------------------------------


def subnormal_subgroups(x, *, max_depth: int | None = None) -> list[Subgroup]:
    """Fixpoint of "normal subgroup of something already collected",
    starting from the group or subgroup x itself; every member therefore
    carries a normal chain witnessing subnormality in x.  max_depth bounds
    the chain length."""
    return _memoized(x, ("subnormal", max_depth), lambda H: _subnormals(H, max_depth))


def _subnormals(H: Subgroup, max_depth: int | None) -> list[Subgroup]:
    seen = {H.elements: H}
    queue = [(H, 0)]
    while queue:
        K, depth = queue.pop()
        if max_depth is not None and depth >= max_depth:
            continue
        for N in normal_subgroups(K):
            if N.elements not in seen:
                seen[N.elements] = N
                queue.append((N, depth + 1))
    return [seen[t] for t in sorted(seen, key=lambda t: (len(t), t))]


# -- abelian frattini --------------------------------------------------------


def frattini_of_abelian(A: FiniteGroup) -> Subgroup:
    """Frattini subgroup of an abelian group: the intersection of the p-th
    power subgroups over the primes dividing the order."""
    if not np.array_equal(A.table, A.table.T):
        raise NotAbelian(f"{A.display_name} is not abelian")
    members = frozenset(range(A.order))
    idx = np.arange(A.order)
    for p in prime_factors(A.order):
        acc = np.zeros(A.order, dtype=np.int64)
        for _ in range(p):
            acc = A.table[acc, idx]
        members &= frozenset(int(v) for v in np.unique(acc))
    return Subgroup(A, members)

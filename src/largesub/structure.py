"""Structural computations on table groups.

Everything here is exhaustive: conjugacy classes come from full orbit
sweeps, normal subgroups from products of normal closures of classes, and
subnormal subgroups from iterating normality to a fixpoint.  Results are
returned in a canonical order (by order, then by element tuple) so every
run of every enumeration is reproducible.

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

from .errors import NotAbelian, TrivialGroup
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
            raise ValueError("subgroup belongs to a different group")
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
    cached = G._cache.get(key)
    if cached is None:
        cached = G._cache[key] = compute(_as_subgroup(x))
    return cached


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
    for e in _elements_array(G, elements):
        e = int(e)
        if not np.isin(e, span):
            gens.append(e)
            span = _close(G.table, span, np.asarray([e], dtype=np.int64))
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


def center(G: FiniteGroup) -> Subgroup:
    cached = G._cache.get("center")
    if cached is None:
        mask = (G.table == G.table.T).all(axis=1)
        cached = Subgroup(G, np.flatnonzero(mask))
        G._cache["center"] = cached
    return cached


def commutator_subgroup(G: FiniteGroup, first, second) -> Subgroup:
    """Subgroup generated by all commutators [a, b] with a in first and b in
    second (exhaustive over the two sets, then closed)."""
    a = _elements_array(G, first)
    b = _elements_array(G, second)
    table, inv = G.table, G.inverses
    left = table[np.ix_(inv[a], inv[b])].ravel()
    right = table[np.ix_(a, b)].ravel()
    comms = np.unique(table[left, right])
    return Subgroup(G, _close(table, np.empty(0, dtype=np.int64), comms))


def normal_closure(x, seed) -> Subgroup:
    """Smallest normal subgroup of the group or subgroup x containing the
    seed (which must lie in x): close all x-conjugates of the seed under
    multiplication."""
    H = _as_subgroup(x)
    G, hs = H.parent, H.as_array()
    seed = _elements_array(G, seed)
    conj = G.table[G.table[np.ix_(hs, seed)], G.inverses[hs][:, None]]
    return Subgroup(G, _close(G.table, _EMPTY, np.unique(conj)))


def join(first: Subgroup, second: Subgroup) -> Subgroup:
    if first.parent is not second.parent:
        raise ValueError("subgroups of different parents")
    return Subgroup(first.parent, _close(first.parent.table, first.as_array(), second.as_array()))


def intersect(first: Subgroup, second: Subgroup) -> Subgroup:
    if first.parent is not second.parent:
        raise ValueError("subgroups of different parents")
    return Subgroup(first.parent, first.index_set & second.index_set)


# -- normal subgroup enumeration --------------------------------------------


def normal_subgroups(x) -> list[Subgroup]:
    """Every normal subgroup of a group, or of a subgroup H (normal in H),
    in canonical order.  A normal subgroup is the product of the normal
    closures of the classes it contains, so multiplying every product
    found so far by each closure in turn (one table gather per product NM)
    reaches all of them."""
    return _memoized(x, "normal_subgroups", _normals)


def _normals(H: Subgroup) -> list[Subgroup]:
    G = H.parent
    table = G.table
    closures = {}
    for cls in conjugacy_classes(H)[1:]:
        C = _close(table, _EMPTY, np.asarray(cls, dtype=np.int64))
        closures.setdefault(tuple(C.tolist()), (cls[0], C))
    found = {(0,)}
    mask = np.zeros(G.order, dtype=bool)
    for rep, C in closures.values():
        for base in [N for N in found if rep not in N]:  # else C lies in N
            mask[:] = False
            mask[table[np.ix_(base, C)]] = True
            found.add(tuple(np.flatnonzero(mask).tolist()))
    return [Subgroup(G, t) for t in sorted(found, key=lambda t: (len(t), t))]


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


def composition_factors(G: FiniteGroup) -> list[FiniteGroup]:
    """The simple factor groups of the deterministic composition series,
    top factor first."""
    cached = G._cache.get("composition_factors")
    if cached is None:
        series = composition_series(G)
        cached = []
        for i in range(len(series.chain) - 1):
            H, back = subgroup_as_group(G, series.chain[i])
            pos = {e: j for j, e in enumerate(back)}
            inner = Subgroup(H, tuple(pos[e] for e in series.chain[i + 1].elements))
            cached.append(quotient_group(H, inner)[0])
        G._cache["composition_factors"] = cached
    return cached


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

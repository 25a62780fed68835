"""Group classes as first-class predicates with declared closure behavior.

A ClassPredicate bundles a membership test with the closure properties the
caller vouches for (closed under normal subgroups, quotients, direct
products, central extensions; behaves as a Fitting class; is a solubly
saturated formation).  Radical/residual constructions and the largeness
checks consult these flags instead of guessing, and property tests probe
them empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BadArgument, ClosureNotDeclared, NotSoluble, UnknownClass
from .groups import FiniteGroup, Subgroup, pi_part, prime_factors
from .structure import (
    _as_subgroup,
    _built_record,
    _commutator_walk,
    _lattice,
    _record_of,
    composition_factors,
)


@dataclass(frozen=True)
class ClosureFlags:
    normal_subgroups: bool = False
    quotients: bool = False
    direct_products: bool = False
    central_extensions: bool = False
    solubly_saturated_formation: bool = False
    fitting_class: bool = False


@dataclass(frozen=True)
class ClassPredicate:
    """member takes a group or a Subgroup of one, like the structure
    functions; every built-in test works in the parent's table.
    maximal_normal_members needs the normal_subgroups flag.

    simple_rule, when set, decides membership of a simple group from its
    set of prime divisors alone (a frozenset of ints), so that
    in_extension_closure needs no factor group.  Only builtin_class sets
    it; a class left without one is tested on the composition factor
    groups."""

    name: str
    member: Callable[[FiniteGroup | Subgroup], bool]
    closed_under: ClosureFlags
    simple_rule: Callable[[frozenset[int]], bool] | None = None


# -- membership tests --------------------------------------------------------


def is_abelian(x) -> bool:
    """Takes a group or a subgroup H.  When H is a member of its parent G's
    lattice record and that record is already built, the record decides
    (a class-size filter, then whether H lies in its own centralizer, the
    entry that the claim witnesses read too).  Any other H compares the
    H x H block of the parent's table with its transpose; no record is
    built for this."""
    H = _as_subgroup(x)
    lat = _built_record(H.parent)
    i = None if lat is None else lat.index.get(H.elements)
    if i is not None:
        return lat.abelian(i)
    hs = H.as_array()
    block = H.parent.table[hs[:, None], hs]
    return bool(np.array_equal(block, block.T))


def nilpotency_class(G: FiniteGroup) -> int | None:
    """Length of the lower central series, or None when it never reaches the
    trivial subgroup.  The trivial group has class 0, a nontrivial abelian
    group class 1.  Compare against None, not truthiness.  Takes a group or
    a subgroup, like the series; the length is kept on the lattice record
    the series walks.

    A proper normal subgroup N of the parent is nilpotent exactly when it
    lies in the Fitting subgroup of the parent (Fitting's theorem), so one
    outside it gets None from the class masks of the parent's lattice
    record, without a series.  The Fitting subgroup is the product of the
    p-cores, found by order alone."""
    H = _as_subgroup(G)
    if not H.is_whole:
        lat = _lattice(H.parent)
        i = lat.index.get(H.elements)
        if i is not None:
            if lat.fitting is None:
                from .radicals import fitting_subgroup

                fitting_subgroup(H.parent)  # keeps its position on the record
            if not lat.le(i, lat.fitting):
                return None
    return _length(H, derived=False)


def derived_length(G: FiniteGroup) -> int | None:
    """Number of derived steps down to the trivial subgroup, or None for an
    insoluble group.  Trivial group: 0, nontrivial abelian: 1.  Takes a
    group or a subgroup, like the series; the length is kept on the lattice
    record the series walks."""
    return _length(_as_subgroup(G), derived=True)


def _length(H: Subgroup, *, derived: bool) -> int | None:
    # steps of the walk down to the trivial member, position 0, or None if
    # the series stops above it; kept on the record the walk reads
    lat, i = _record_of(H)
    if (i, derived) not in lat.lengths:
        _, chain = _commutator_walk(H, derived=derived)
        lat.lengths[i, derived] = len(chain) - 1 if chain[-1] == 0 else None
    return lat.lengths[i, derived]


def is_nilpotent(G: FiniteGroup) -> bool:
    """Takes a group or a subgroup.  A proper normal subgroup of the parent
    is decided by containment in the parent's Fitting subgroup (see
    nilpotency_class); anything else by its lower central series."""
    return nilpotency_class(G) is not None


def is_soluble(G: FiniteGroup) -> bool:
    """Takes a group or a subgroup x.  Every chief factor is a power of a
    simple group, abelian exactly when it has a single prime, and x is
    soluble exactly when every one of its chief factors is: the climb of
    _chief_factor_primes decides it.  Nothing new is memoized."""
    return all(map(_abelian_simple, _chief_factor_primes(G)))


def is_supersoluble(G: FiniteGroup) -> bool:
    """Takes a group or a subgroup x: all chief factors of x of prime order,
    read on the climb of x's own record.  Not on the parent's: a chief
    factor of the parent can split inside x (V4 is one chief factor of A4
    and two of V4 itself)."""
    lat = _lattice(G)
    return all(prime_factors(o) == (o,) for _, o in lat.chief_steps(lat.top))


def _validate_pi(pi) -> tuple[int, ...]:
    primes = tuple(sorted(set(int(p) for p in pi)))
    if not primes:
        raise BadArgument("the prime set must be nonempty")
    for p in primes:
        # no table group has an order near 2**31, and the bound keeps the
        # trial division in prime_factors short
        if p >= 2**31:
            raise BadArgument(f"{p} is out of range for a prime parameter (below 2**31)")
        if prime_factors(p) != (p,):
            raise BadArgument(f"{p} is not prime")
    return primes


def is_pi_group(G: FiniteGroup, pi) -> bool:
    primes = _validate_pi(pi)
    return pi_part(G.order, primes) == G.order


def is_pi_separable(G: FiniteGroup, pi) -> bool:
    """Every composition factor is a pi-group or a pi'-group.  A chief
    factor is a power of a simple group with the same primes, so the chief
    factor orders decide it without building any factor group."""
    return all(map(_pi_or_pi_prime(_validate_pi(pi)), _chief_factor_primes(G)))


def _chief_factor_primes(G):
    """The prime sets of the chief factors of a group or subgroup x, each
    the primes of the simple T of a chief factor T^k, from the chief climb
    up to x on the record _record_of picks.  A chief factor of the record's
    group inside x splits into chief factors of x that are powers of the
    same T, so the sets are x's own.  The climb is lazy and keeps repeats:
    the callers ask whether all the sets pass a rule."""
    lat, top = _record_of(_as_subgroup(G))
    return (frozenset(prime_factors(o)) for _, o in lat.chief_steps(top))


def _pi_or_pi_prime(primes):
    # the simple-factor rule of the pi-separable and normal-Hall-pi' classes
    primes = frozenset(primes)
    return lambda ps: ps <= primes or ps.isdisjoint(primes)


def _abelian_simple(ps) -> bool:
    # the simple-factor rule of the soluble classes: each holds C_p, the one
    # simple group with a single prime, and no other simple group
    return len(ps) == 1


def _any_simple(ps) -> bool:
    # every simple group is quasinilpotent
    return True


def has_normal_hall_pi_prime(G: FiniteGroup, pi) -> bool:
    """The pi'-core has full pi'-order, i.e. a normal Hall pi'-subgroup
    exists."""
    primes = _validate_pi(pi)
    from .radicals import pi_core

    complement = tuple(p for p in prime_factors(G.order) if p not in primes)
    if not complement:
        return True
    core = pi_core(G, complement)
    target = pi_part(G.order, complement)
    return core.subgroup.order == target


def is_quasisimple(x) -> bool:
    """Perfect and simple modulo the center, read off the lattice record of
    a group or a subgroup H (the subnormal walk behind components has
    built it): H is perfect when [H, H] is the top member, Z(H) is that
    member's centralizer, and H/Z(H) is simple when exactly two members
    (Z(H) and H) contain Z(H)."""
    lat = _lattice(x)
    top = lat.top
    if lat.commutator(top, top) != top:
        return False
    Z = lat.centralizer(top)
    return sum(lat.le(Z, j) for j in range(top + 1)) == 2


def is_quasinilpotent(x) -> bool:
    """Coincides with its own generalized fitting subgroup, which lies in
    it, so the orders decide; takes a group or a subgroup."""
    from .radicals import generalized_fitting_subgroup

    return generalized_fitting_subgroup(x).subgroup.order == x.order


def in_extension_closure(X: ClassPredicate, G: FiniteGroup) -> bool:
    """Whether every composition factor of G lies in X.

    For classes closed under normal subgroups this is exactly membership in
    the extension closure of X; the flag is required so the criterion is
    known to be sound.

    A class with a simple_rule is decided from the chief factor orders, and
    no factor group is built.  A chief factor is T^k for one simple group T,
    its composition factors are k copies of T, and |T^k| has the primes of
    |T|.  A chief factor of prime-power order is elementary abelian, so T is
    C_p; any other is nonabelian, since a soluble chief factor has
    prime-power order.  A class without a rule is tested on the composition
    factor groups."""
    if not X.closed_under.normal_subgroups:
        raise ClosureNotDeclared(
            f"class {X.name!r} does not declare closure under normal subgroups"
        )
    if X.simple_rule is not None:
        return all(map(X.simple_rule, _chief_factor_primes(G)))
    return all(X.member(F) for F in composition_factors(G))


def has_minimal_supersoluble_residual(G: FiniteGroup) -> bool:
    """Soluble groups whose supersoluble residual is trivial or a minimal
    normal subgroup: the first chief step up to it on G's record is itself.
    Raises NotSoluble otherwise."""
    if not is_soluble(G):
        raise NotSoluble(f"{G.display_name} is not soluble")
    from .radicals import supersoluble_residual

    lat = _lattice(G)
    r = lat.index[supersoluble_residual(G).elements]
    return r == 0 or next(lat.chief_steps(r))[0] == r


# -- the built-in catalog ----------------------------------------------------


_ALL_CLOSED = ClosureFlags(
    normal_subgroups=True,
    quotients=True,
    direct_products=True,
    central_extensions=True,
    solubly_saturated_formation=True,
    fitting_class=True,
)

# not central-extension closed, not saturated, not a Fitting class
_BOUNDED_FLAGS = ClosureFlags(normal_subgroups=True, quotients=True, direct_products=True)


def _parse_int(text: str, owner: str) -> int:
    # the integer parameter of the class key or claim selector owner names
    try:
        return int(text)
    except ValueError:
        raise UnknownClass(f"{owner} needs integer parameters, got {text!r}") from None


def _parse_primes(text: str, owner: str) -> tuple[int, ...]:
    # a comma-separated prime set, sorted, as _validate_pi returns it
    try:
        return _validate_pi([_parse_int(p, owner) for p in text.split(",")])
    except BadArgument as exc:
        raise UnknownClass(f"{owner}: {exc}") from None


def _bounded_class(name: str, bound: int) -> ClassPredicate:
    """The groups of nilpotency class (name nilpotent_class) or derived
    length (name soluble_derived) at most bound."""
    invariant, what = {"nilpotent_class": (nilpotency_class, "nilpotency class"),
                       "soluble_derived": (derived_length, "derived length")}[name]
    if bound < 1:
        raise UnknownClass(f"{what} bound must be >= 1")

    def member(G) -> bool:
        k = invariant(G)  # None: not nilpotent, or not soluble
        return k is not None and k <= bound

    return ClassPredicate(f"{name}:{bound}", member, _BOUNDED_FLAGS, _abelian_simple)


def _pi_class(name: str, primes: tuple[int, ...]) -> ClassPredicate:
    # pi_separable or normal_hall_pi_prime for the primes
    rule = is_pi_separable if name == "pi_separable" else has_normal_hall_pi_prime
    label = f"{name}:{','.join(map(str, primes))}"
    return ClassPredicate(label, lambda G: rule(G, primes), _ALL_CLOSED, _pi_or_pi_prime(primes))


# each advertised class key -> its class; for a key with a parameter (its
# placeholder after ':'), the parameter's parser and the function that
# makes the class from the key's name and the parsed parameter
_CLASS_TABLE = {
    "abelian": ClassPredicate("abelian", is_abelian, _BOUNDED_FLAGS, _abelian_simple),
    "nilpotent": ClassPredicate("nilpotent", is_nilpotent, _ALL_CLOSED, _abelian_simple),
    "nilpotent_class:c": (_parse_int, _bounded_class),
    "soluble": ClassPredicate("soluble", is_soluble, _ALL_CLOSED, _abelian_simple),
    "soluble_derived:d": (_parse_int, _bounded_class),
    "supersoluble": ClassPredicate(
        "supersoluble", is_supersoluble, replace(_ALL_CLOSED, fitting_class=False), _abelian_simple
    ),
    "quasinilpotent": ClassPredicate(
        "quasinilpotent", is_quasinilpotent, _ALL_CLOSED, _any_simple
    ),
    "pi_separable:p1,p2,...": (_parse_primes, _pi_class),
    "normal_hall_pi_prime:p1,p2,...": (_parse_primes, _pi_class),
}
BUILTIN_CLASS_KEYS = tuple(_CLASS_TABLE)
_CLASSES = {key.partition(":")[0]: entry for key, entry in _CLASS_TABLE.items()}


def builtin_class(key: str) -> ClassPredicate:
    """Resolve a stable class key, one of BUILTIN_CLASS_KEYS with its
    placeholder filled in: abelian, nilpotent_class:2, pi_separable:2,3..."""
    name, colon, param = (part.strip() for part in key.partition(":"))
    entry = _CLASSES.get(name)
    if entry is None:
        raise UnknownClass(f"unknown class key {key!r}")
    if isinstance(entry, ClassPredicate):
        if colon:
            raise UnknownClass(f"class {name!r} takes no parameter, got {key!r}")
        return entry
    if not param:
        raise UnknownClass(f"class key {key!r} needs a parameter after ':'")
    parse, build = entry
    return build(name, parse(param, f"class key {key!r}"))

"""Radicals (largest normal members) and residuals (smallest kernels).

Each construction works off the complete normal subgroup list, which keeps
it honest: a radical only exists because the relevant join stays in the
class, and when a caller claims Fitting/formation behavior for a class
that does not have it, the failure surfaces as a typed error carrying the
two witnesses that break it.  Nothing here builds a group but
class_residual, which tests quotients: the cores, radicals, components and
the supersoluble residual work on the parent's table.  Every core and
radical, and maximal_normal_members, is the one maximal-member walk of the
lattice record in structure.py: down the canonical list, testing a member
where it lies only when no member found so far contains it.  A radical is
the walk's only member.  The joins (the Fitting and generalized Fitting
subgroups, and the layer of the components) and the supersoluble residual
ask the same record for joins and containment between its members.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import ClassPredicate, _validate_pi, is_quasisimple, is_soluble
from .errors import ClosureNotDeclared, NotAFittingClassWitness, NotAFormationWitness
from .groups import FiniteGroup, Subgroup, pi_part, prime_factors, quotient_group
from .structure import _lattice, derived_series, intersect, normal_subgroups, subnormal_subgroups


@dataclass(frozen=True)
class RadicalResult:
    """A radical subgroup together with a short account of how it arose."""

    subgroup: Subgroup
    witness: str


def _largest(lat, test, what: str) -> tuple[Subgroup, int]:
    # the walk's only member, asserted rather than trusted, and the number
    # of members inside it: those passing, for a test closed under normals
    found = lat.maximal(test)
    if not found:
        raise NotAFittingClassWitness(None, None, f"no normal {what}, not even the trivial one")
    first, *rest = (lat.members[i] for i in found)
    if rest:
        raise NotAFittingClassWitness(
            first,
            rest[0],
            f"two maximal normal {what} (orders {first.order}, {rest[0].order}) "
            "whose join leaves the class",
        )
    return first, sum(lat.le(i, found[0]) for i in range(lat.top + 1))


def pi_core(x, pi) -> RadicalResult:
    """Largest normal pi-subgroup of a group or a subgroup."""
    pi, lat = _validate_pi(pi), _lattice(x)
    orders = [N.order for N in lat.members]
    core, inside = _largest(
        lat, lambda i: pi_part(orders[i], pi) == orders[i], f"{{{','.join(map(str, pi))}}}-subgroups"
    )
    return RadicalResult(
        core, f"largest of {inside} normal subgroups with order supported on {set(pi)}"
    )


def pi_prime_pi_core(G: FiniteGroup, pi) -> RadicalResult:
    """Preimage in G of the pi-core of G modulo the pi'-core K (the two-step
    core used for separable groups), read off G: the largest normal M above
    K whose index |M:K| is a pi-number."""
    pi = _validate_pi(pi)
    complement = tuple(p for p in prime_factors(G.order) if p not in pi)
    below = pi_core(G, complement).subgroup if complement else G.trivial()
    lat = _lattice(G)
    low = lat.index[below.elements]

    def above_with_pi_index(i):
        index = lat.members[i].order // below.order
        return lat.le(low, i) and pi_part(index, pi) == index

    sub, _ = _largest(lat, above_with_pi_index, "subgroups with pi-index over the pi'-core")
    return RadicalResult(
        sub,
        f"preimage of the {set(pi)}-core of the quotient by the {set(complement) or '{}'}-core",
    )


def fitting_subgroup(x) -> RadicalResult:
    """Largest normal nilpotent subgroup of a group or a subgroup: the
    product of the p-cores.  Its position is kept on the lattice record:
    nilpotency_class asks for it again for every normal subgroup."""
    lat = _lattice(x)
    primes = prime_factors(lat.members[-1].order)
    if lat.fitting is None:
        lat.fitting = lat.closure_of([pi_core(x, (p,)).subgroup for p in primes])
    return RadicalResult(
        lat.members[lat.fitting], f"product of the p-cores for p in {set(primes) or '{}'}"
    )


def components(x) -> list[Subgroup]:
    """Subnormal quasi-simple subgroups of a group or a subgroup.

    A quasi-simple subgroup is perfect and nontrivial, so a soluble input
    has none: is_soluble decides that on a lattice record, with no series.
    Otherwise the components lie inside the stable term of the derived
    series; that term is characteristic, hence its subnormal subgroups are
    exactly the subnormal subgroups of the input inside it."""
    if is_soluble(x):
        return []
    return [T for T in subnormal_subgroups(derived_series(x).last) if is_quasisimple(T)]


def layer(x) -> RadicalResult:
    """Join of all components of a group or a subgroup H.  Conjugation
    permutes the components, so their join is normal in H: the first
    member of H's lattice record over the classes that meet them."""
    comps = components(x)
    lat = _lattice(x)
    return RadicalResult(lat.members[lat.closure_of(comps)], f"join of {len(comps)} components")


def generalized_fitting_subgroup(x) -> RadicalResult:
    """Join of the fitting subgroup and the layer; takes a group or a subgroup."""
    fit, lay = fitting_subgroup(x).subgroup, layer(x).subgroup
    lat = _lattice(x)
    return RadicalResult(
        lat.members[lat.closure_of((fit, lay))],
        f"fitting subgroup (order {fit.order}) joined with the layer (order {lay.order})",
    )


def soluble_radical(G: FiniteGroup) -> RadicalResult:
    """Largest normal soluble subgroup."""
    lat = _lattice(G)
    best, inside = _largest(lat, lambda i: is_soluble(lat.members[i]), "soluble subgroups")
    return RadicalResult(best, f"largest of {inside} normal soluble subgroups")


def class_radical(G: FiniteGroup, X: ClassPredicate) -> RadicalResult:
    """Largest normal X-subgroup, for X flagged as a Fitting class.  If the
    normal X-members fail to be join-closed on this group, the first two
    maximal members are reported as NotAFittingClassWitness (both None
    when not even the trivial subgroup is an X-group)."""
    if not X.closed_under.fitting_class:
        raise ClosureNotDeclared(f"class {X.name!r} is not flagged as a Fitting class")
    lat = _lattice(G)
    best, inside = _largest(lat, lambda i: X.member(lat.members[i]), f"{X.name}-subgroups")
    return RadicalResult(best, f"unique maximal normal {X.name}-subgroup among {inside}")


def maximal_normal_members(G: FiniteGroup, X: ClassPredicate) -> list[Subgroup]:
    """Inclusion-maximal normal X-subgroups in canonical order (there may be
    several), for X flagged closed under normal subgroups: the maximal
    members of G's lattice record that are X-groups."""
    if not X.closed_under.normal_subgroups:
        raise ClosureNotDeclared(f"class {X.name!r} is not flagged closed under normal subgroups")
    lat = _lattice(G)
    return [lat.members[i] for i in lat.maximal(lambda i: X.member(lat.members[i]))]


def class_residual(G: FiniteGroup, X: ClassPredicate) -> Subgroup:
    """Smallest normal subgroup with X-quotient, for X flagged closed under
    quotients and direct products.  Empirical failure of kernel-intersection
    stability is reported as NotAFormationWitness with the two kernels."""
    flags = X.closed_under
    if not (flags.quotients and flags.direct_products):
        raise ClosureNotDeclared(
            f"class {X.name!r} is not flagged closed under quotients and direct products"
        )
    kernels = [N for N in normal_subgroups(G) if X.member(quotient_group(G, N)[0])]
    if not kernels:
        raise NotAFormationWitness(
            None, None, f"class {X.name!r} rejects even the trivial quotient"
        )
    total = G.whole()
    for K in kernels:
        total = intersect(total, K)
    if X.member(quotient_group(G, total)[0]):
        return total
    running = kernels[0]
    for K in kernels[1:]:
        cut = intersect(running, K)
        if cut == running:
            continue
        if not X.member(quotient_group(G, cut)[0]):
            raise NotAFormationWitness(
                running,
                K,
                f"quotients by two kernels are in {X.name!r} but the quotient by "
                "their intersection is not",
            )
        running = cut
    raise NotAFormationWitness(kernels[0], kernels[-1], "kernel intersection left the class")


def supersoluble_residual(G: FiniteGroup) -> Subgroup:
    """Smallest normal subgroup with supersoluble quotient (a kernel).  A
    proper normal N is a kernel exactly when it has prime index in some
    kernel, so walking G's lattice record down from G finds every kernel;
    the index is looked up among the prime divisors of |G| before
    containment is asked of the record.  That the smallest lies in all
    the others is asserted, not trusted.  Read off the record on every
    call, and a member of it."""
    lat = _lattice(G)
    members, le = lat.members, lat.le
    orders = [N.order for N in members]
    primes = _prime_indices(orders[-1])
    kernels = [lat.top]
    for i in range(lat.top - 1, -1, -1):
        # a later member containing N contains it properly
        if any(orders[K] // orders[i] in primes and le(i, K) for K in kernels):
            kernels.append(i)
    least = kernels[-1]
    for K in kernels:
        if not le(least, K):
            raise NotAFormationWitness(
                members[least], members[K], "supersoluble kernels are not intersection-closed"
            )
    return members[least]


def _prime_indices(n: int) -> frozenset[int]:
    # the prime indices of one member in another: every index divides n
    return frozenset(prime_factors(n))

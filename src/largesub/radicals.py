"""Radicals (largest normal members) and residuals (smallest kernels).

Each construction works off the complete normal subgroup list, which keeps
it honest: a radical only exists because the relevant join stays in the
class, and when a caller claims Fitting/formation behavior for a class
that does not have it, the failure surfaces as a typed error carrying the
two witnesses that break it.  Cores, the supersoluble residual, the
soluble radical and the components build no group: they work on the
parent's table, through the structure functions that take subgroups.
Only the generic constructions over a ClassPredicate (class_radical,
maximal_normal_members, class_residual) build induced groups or
quotients, because a predicate's member test takes a group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classes import ClassPredicate, is_quasisimple, is_soluble
from .errors import ClosureNotDeclared, NotAFittingClassWitness, NotAFormationWitness
from .groups import FiniteGroup, Subgroup, pi_part, prime_factors, quotient_group, subgroup_as_group
from .structure import (
    _is_prime,
    derived_series,
    intersect,
    join,
    normal_subgroups,
    subnormal_subgroups,
)


@dataclass(frozen=True)
class RadicalResult:
    """A radical subgroup together with a short account of how it arose."""

    subgroup: Subgroup
    witness: str


def _induced(G: FiniteGroup, S: Subgroup) -> FiniteGroup:
    return subgroup_as_group(G, S)[0]


def _largest_closed_candidate(candidates: list[Subgroup], what: str) -> Subgroup:
    # For genuinely join-closed families the largest candidate contains all
    # others; assert it rather than trust it.
    best = max(candidates, key=lambda N: N.order)
    for N in candidates:
        if not N <= best:
            raise NotAFittingClassWitness(N, best, f"{what} candidates are not join-closed")
    return best


def pi_core(G: FiniteGroup, pi, *, _validated: bool = False) -> RadicalResult:
    """Largest normal subgroup whose order uses only primes from pi."""
    if not _validated:
        from .classes import _validate_pi

        pi = _validate_pi(pi)
    pi = tuple(pi)
    candidates = [N for N in normal_subgroups(G) if pi_part(N.order, pi) == N.order]
    best = _largest_closed_candidate(candidates, f"normal {{{','.join(map(str, pi))}}}-subgroup")
    return RadicalResult(
        best, f"largest of {len(candidates)} normal subgroups with order supported on {set(pi) or '{}'}"
    )


def pi_prime_pi_core(G: FiniteGroup, pi) -> RadicalResult:
    """Preimage in G of the pi-core of G modulo the pi'-core K (the two-step
    core used for separable groups), read off G: the largest normal M above
    K whose index |M:K| is a pi-number."""
    from .classes import _validate_pi

    pi = _validate_pi(pi)
    complement = tuple(p for p in prime_factors(G.order) if p not in pi)
    below = pi_core(G, complement, _validated=True).subgroup
    candidates = [
        M
        for M in normal_subgroups(G)
        if below <= M and pi_part(M.order // below.order, pi) == M.order // below.order
    ]
    sub = _largest_closed_candidate(candidates, "normal subgroup with pi-index over the pi'-core")
    return RadicalResult(
        sub,
        f"preimage of the {set(pi)}-core of the quotient by the {set(complement) or '{}'}-core",
    )


def fitting_subgroup(G: FiniteGroup) -> RadicalResult:
    """Largest normal nilpotent subgroup: the product of the p-cores."""
    cached = G._cache.get("fitting_subgroup")
    if cached is None:
        result = G.trivial()
        primes = prime_factors(G.order)
        for p in primes:
            result = join(result, pi_core(G, (p,), _validated=True).subgroup)
        cached = RadicalResult(result, f"product of the p-cores for p in {set(primes) or '{}'}")
        G._cache["fitting_subgroup"] = cached
    return cached


def components(G: FiniteGroup) -> list[Subgroup]:
    """Subnormal quasi-simple subgroups.

    A quasi-simple subgroup is perfect, so it lies inside the stable term
    of the derived series; that term is characteristic, hence its subnormal
    subgroups are exactly the subnormal subgroups of G contained in it.
    Scanning only there makes soluble groups trivial to dismiss."""
    cached = G._cache.get("components")
    if cached is None:
        core = derived_series(G).last
        cached = [T for T in subnormal_subgroups(core) if is_quasisimple(T)]
        G._cache["components"] = cached
    return cached


def layer(G: FiniteGroup) -> RadicalResult:
    """Join of all components."""
    comps = components(G)
    result = G.trivial()
    for S in comps:
        result = join(result, S)
    return RadicalResult(result, f"join of {len(comps)} components")


def generalized_fitting_subgroup(G: FiniteGroup) -> RadicalResult:
    """Join of the fitting subgroup and the layer."""
    cached = G._cache.get("generalized_fitting")
    if cached is None:
        fit = fitting_subgroup(G)
        lay = layer(G)
        cached = RadicalResult(
            join(fit.subgroup, lay.subgroup),
            f"fitting subgroup (order {fit.subgroup.order}) joined with the layer "
            f"(order {lay.subgroup.order})",
        )
        G._cache["generalized_fitting"] = cached
    return cached


def soluble_radical(G: FiniteGroup) -> RadicalResult:
    """Largest normal soluble subgroup."""
    candidates = [N for N in normal_subgroups(G) if is_soluble(N)]
    best = _largest_closed_candidate(candidates, "normal soluble subgroup")
    return RadicalResult(best, f"largest of {len(candidates)} normal soluble subgroups")


def class_radical(G: FiniteGroup, X: ClassPredicate) -> RadicalResult:
    """Largest normal X-subgroup, for X flagged as a Fitting class.  If the
    normal X-members fail to be join-closed on this group, the two
    incomparable maximal members are reported as NotAFittingClassWitness."""
    if not X.closed_under.fitting_class:
        raise ClosureNotDeclared(f"class {X.name!r} is not flagged as a Fitting class")
    members = [N for N in normal_subgroups(G) if X.member(_induced(G, N))]
    maximal = [N for N in members if not any(N < M for M in members)]
    if len(maximal) == 1:
        return RadicalResult(
            maximal[0], f"unique maximal normal {X.name}-subgroup among {len(members)}"
        )
    first, second = sorted(maximal, key=lambda N: (N.order, N.elements))[:2]
    raise NotAFittingClassWitness(
        first,
        second,
        f"two maximal normal {X.name}-subgroups (orders {first.order}, {second.order}) "
        "whose join leaves the class",
    )


def maximal_normal_members(G: FiniteGroup, X: ClassPredicate) -> list[Subgroup]:
    """Inclusion-maximal normal X-subgroups (no Fitting assumption; the list
    may have several members)."""
    members = [N for N in normal_subgroups(G) if X.member(_induced(G, N))]
    return [N for N in members if not any(N < M for M in members)]


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
    kernel, so walking the canonical list down from G finds every kernel.
    That the smallest lies in all the others is asserted, not trusted."""
    kernels: list[Subgroup] = []
    for N in reversed(normal_subgroups(G)):
        if N.is_whole or any(_is_prime(K.order // N.order) and N < K for K in kernels):
            kernels.append(N)
    for K in kernels:
        if not kernels[-1] <= K:
            raise NotAFormationWitness(
                kernels[-1], K, "supersoluble kernels are not intersection-closed"
            )
    return kernels[-1]

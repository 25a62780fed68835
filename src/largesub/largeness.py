"""Self-centralizing ("large") normal subgroups and the claim catalog.

A normal subgroup N of G is large when its centralizer lies inside it.
This module checks that property for the subgroups various structural
claims say must have it, over single groups or whole corpora, and reports
results in a uniform structured form.

Claim selectors (used by the CLI, claim_for and verify_selector) are read
off _CLAIM_TABLE: a claim head, such as E, or a head and its parameter after
':', such as A:nilpotent (a class key, see classes.BUILTIN_CLASS_KEYS),
F:2,3 (a prime set), G:2 or GD:2 (a bound).  For each head the table gives
the name of the parameter it takes, if any, that parameter's parser, the
claim's function and its line in CLAIMS; each claim's function states it.

Hypothesis handling: every claim records each hypothesis it evaluates as a
(name, holds) pair in its report, and records witnesses only when every
hypothesis recorded so far holds; H records its residual condition after
its witnesses, so they survive when only that condition fails.  The verdict
(passed, counterexample, outcome) is read off the report, and a failed
hypothesis reads as a skip, for a library caller, the CLI and a corpus scan
alike.  Only unusable input raises, before any hypothesis is evaluated: an
unknown selector or class key, a parameter the claim or class does not
take, a bound below 2 (BadBound, BadClassBound), a class without the
closure flags the claim needs (ClosureFlagsMissing) or a bad prime set.
claim_for raises these as it parses the selector, before any group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

from .catalog import klein_four_group
from .classes import (
    ClassPredicate,
    _bounded_class,
    _parse_int,
    _parse_primes,
    _validate_pi,
    builtin_class,
    has_minimal_supersoluble_residual,
    in_extension_closure,
    is_pi_separable,
    is_soluble,
)
from .errors import (
    BadBound,
    BadClassBound,
    ClosureFlagsMissing,
    ForeignSubgroup,
    NotCentral,
    NotNormal,
    TrivialGroup,
    UnknownClass,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    abelian_basis,
    abelian_invariants,
    central_product_with_embeddings,
    cyclic_group,
    frattini_cover_abelian,
    prime_factors,
    subgroup_as_group,
)
from .radicals import (
    fitting_subgroup,
    generalized_fitting_subgroup,
    maximal_normal_members,
    pi_prime_pi_core,
    supersoluble_residual,
)
from .structure import _lattice, center, frattini_of_abelian


def is_large(G: FiniteGroup, N: Subgroup) -> bool:
    """Whether the centralizer of the normal subgroup N lies inside N."""
    return _witness(G, N, "").is_large


@dataclass(frozen=True)
class WitnessRecord:
    """One subgroup whose largeness a claim predicts."""

    descriptor: str
    order: int
    elements: tuple[int, ...]
    is_large: bool
    centralizer_order: int

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "order": self.order,
            "is_large": self.is_large,
            "centralizer_order": self.centralizer_order,
        }


@dataclass
class VerificationReport:
    """Outcome of one claim on one group: its evidence, with the verdict
    read off it.

    hypotheses lists the hypotheses the claim evaluated, in order, as
    (name, holds).  A failed hypothesis is recorded here, never raised, and
    no witness is recorded after it.  counterexample is the first witness
    that is not large, once every hypothesis holds; passed means every
    hypothesis holds, there is no counterexample and every check holds; a
    failed hypothesis reads as a skip (see outcome).
    """

    theorem: str
    group: str
    group_order: int
    hypotheses: list[tuple[str, bool]] = field(default_factory=list)
    witnesses: list[WitnessRecord] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def hypotheses_ok(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    @property
    def counterexample(self) -> WitnessRecord | None:
        bad = (w for w in self.witnesses if not w.is_large)
        return next(bad, None) if self.hypotheses_ok else None

    @property
    def passed(self) -> bool:
        checks_ok = all(ok for _, ok in self.checks)
        return self.hypotheses_ok and self.counterexample is None and checks_ok

    @property
    def outcome(self) -> str:
        if self.passed:
            return "pass"
        if not self.hypotheses_ok:
            return "skip"
        return "fail"

    def to_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "group": self.group,
            "order": self.group_order,
            "hypotheses": [[name, ok] for name, ok in self.hypotheses],
            "witnesses": [w.to_dict() for w in self.witnesses],
            "passed": self.passed,
            "outcome": self.outcome,
            "counterexample": self.counterexample.to_dict() if self.counterexample else None,
        }
        if self.checks:
            out["checks"] = [[name, ok] for name, ok in self.checks]
        return out


def _witness(G: FiniteGroup, S: Subgroup, descriptor: str) -> WitnessRecord:
    # every witness is normal in G, so C_G(S) is read off G's lattice
    if S.parent is not G:
        raise ForeignSubgroup("subgroup belongs to a different group")
    lat = _lattice(G)
    i = lat.index.get(S.elements)
    if i is None:
        raise NotNormal(f"subgroup of order {S.order} is not normal in {G.display_name}")
    c = lat.centralizer(i)
    return WitnessRecord(
        descriptor=descriptor,
        order=S.order,
        elements=S.elements,
        is_large=lat.le(c, i),
        centralizer_order=lat.members[c].order,
    )


def _report(theorem: str, G: FiniteGroup, *hypotheses: tuple[str, bool]) -> VerificationReport:
    return VerificationReport(theorem, G.display_name, G.order, list(hypotheses))


def _add_maximal_members(
    report: VerificationReport, G: FiniteGroup, X: ClassPredicate, prefix: str
) -> None:
    # one witness per maximal normal X-subgroup S, described as prefix + |S|
    if report.hypotheses_ok:
        for S in maximal_normal_members(G, X):
            report.witnesses.append(_witness(G, S, f"{prefix}{S.order}"))


def _add_radical(report: VerificationReport, G: FiniteGroup, what: str, radical) -> None:
    # radical(G) is the witnessed radical, computed only when it is recorded
    if report.hypotheses_ok:
        found = radical(G)
        report.witnesses.append(_witness(G, found.subgroup, f"{what} ({found.witness})"))


def _require_flags(X: ClassPredicate, lacks: str, *names: str) -> None:
    missing = [name for name in names if not getattr(X.closed_under, name)]
    if missing:
        raise ClosureFlagsMissing(f"class {X.name!r} {lacks}: {', '.join(missing)}")


# -- claims about maximal normal class members (A, C) -------------------------


def _assembly_flags(X: ClassPredicate) -> None:
    # the class claim A takes
    flags = ("normal_subgroups", "quotients", "direct_products", "central_extensions")
    _require_flags(X, "lacks declared closure under", *flags)


def verify_maximal_member_large(G: FiniteGroup, X: ClassPredicate) -> VerificationReport:
    """Claim A: in a group assembled from X, every maximal normal X-subgroup
    is large.  X must declare all four assembly closure flags."""
    _assembly_flags(X)
    report = _report("A", G, (f"assembled_from_{X.name}", in_extension_closure(X, G)))
    _add_maximal_members(report, G, X, f"maximal normal {X.name}-subgroup of order ")
    return report


@cache
def _abelian_samples() -> tuple[FiniteGroup, ...]:
    # the abelian groups claim C tests X on, built once per process
    return (cyclic_group(2), cyclic_group(6), klein_four_group())


def _formation_flags(X: ClassPredicate) -> None:
    # the class claim C takes
    _require_flags(X, "lacks declared flags", "normal_subgroups", "solubly_saturated_formation")


def verify_formation_member_large(G: FiniteGroup, X: ClassPredicate) -> VerificationReport:
    """Claim C: like A, but X only needs to be a solubly saturated formation
    closed under normal subgroups and containing the abelian groups."""
    _formation_flags(X)
    report = _report(
        "C",
        G,
        ("contains_abelian_samples", all(X.member(A) for A in _abelian_samples())),
        (f"assembled_from_{X.name}", in_extension_closure(X, G)),
    )
    _add_maximal_members(report, G, X, f"maximal normal {X.name}-subgroup of order ")
    return report


# -- radical claims (D, E, F) --------------------------------------------------


def verify_fitting_large(G: FiniteGroup) -> VerificationReport:
    """Claim D: the fitting subgroup of a soluble group is large."""
    report = _report("D", G, ("soluble", is_soluble(G)))
    _add_radical(report, G, "fitting subgroup", fitting_subgroup)
    return report


def verify_generalized_fitting_large(G: FiniteGroup) -> VerificationReport:
    """Claim E: the generalized fitting subgroup is large, no hypotheses."""
    report = _report("E", G)
    _add_radical(report, G, "generalized fitting subgroup", generalized_fitting_subgroup)
    return report


def verify_two_step_core_large(G: FiniteGroup, pi) -> VerificationReport:
    """Claim F: the two-step core (pi' then pi) of a pi-separable group is large.

    The hypothesis is named separable_for_<primes> when it holds and
    pi_separable when it fails."""
    primes = _validate_pi(pi)
    separable = is_pi_separable(G, primes)
    name = f"separable_for_{','.join(map(str, primes))}" if separable else "pi_separable"
    report = _report("F", G, (name, separable))
    _add_radical(report, G, "two-step core", lambda G: pi_prime_pi_core(G, primes))
    return report


# -- bounded-complexity claims (G, GD) ----------------------------------------


def _bounded_report(theorem: str, G: FiniteGroup, X, bound: str) -> VerificationReport:
    # X is the bounded class, bound the bound in words
    report = _report(theorem, G, ("soluble", is_soluble(G)))
    _add_maximal_members(report, G, X, f"maximal normal subgroup of {bound}, order ")
    return report


def _class_bound(c: int) -> None:
    if c < 2:
        raise BadClassBound(f"the class bound must be at least 2, got {c}")


def _derived_bound(d: int) -> None:
    if d < 2:
        raise BadBound(f"the derived length bound must be at least 2, got {d}")


def verify_nilpotent_class_bound_large(G: FiniteGroup, c: int) -> VerificationReport:
    """Claim G: in a soluble group, maximal normal subgroups of nilpotency
    class <= c are large (needs c >= 2)."""
    _class_bound(c)
    X = _bounded_class("nilpotent_class", c)
    return _bounded_report("G", G, X, f"nilpotency class <= {c}")


def verify_derived_length_bound_large(G: FiniteGroup, d: int) -> VerificationReport:
    """Claim GD: in a soluble group, maximal normal subgroups of derived
    length <= d are large (needs d >= 2)."""
    _derived_bound(d)
    X = _bounded_class("soluble_derived", d)
    return _bounded_report("GD", G, X, f"derived length <= {d}")


# -- maximal abelian claim (H) -------------------------------------------------


def verify_maximal_abelian_large(G: FiniteGroup) -> VerificationReport:
    """Claim H: if the supersoluble residual of a soluble group is trivial
    or minimal normal, every maximal abelian normal subgroup is large.

    The witnesses are recorded even when the residual hypothesis fails, so
    scans can look for groups where the conclusion holds anyway."""
    report = _report("H", G, ("soluble", is_soluble(G)))
    _add_maximal_members(
        report, G, builtin_class("abelian"), "maximal abelian normal subgroup of order "
    )
    if report.hypotheses_ok:
        report.hypotheses.append(
            ("supersoluble_residual_minimal_or_trivial", has_minimal_supersoluble_residual(G))
        )
    return report


# -- constructive central-extension witness (B) --------------------------------


@dataclass
class CentralCoverWitness:
    """The object built to certify central-extension closure: the ambient
    central product of the group with an abelian cover of its chosen
    central subgroup, plus the checks that make it a certificate."""

    group: FiniteGroup
    central_subgroup: Subgroup
    cover: FiniteGroup
    product: FiniteGroup
    embed_group: tuple[int, ...]
    embed_cover: tuple[int, ...]
    checks: list[tuple[str, bool]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def central_cover_witness(G: FiniteGroup, Z: Subgroup) -> CentralCoverWitness:
    """Identify a nontrivial central subgroup Z of G with the frattini
    subgroup of its stretched abelian cover Y, inside the central product
    of G and Y.  Returns the product plus the recorded checks."""
    if Z.parent is not G:
        raise ForeignSubgroup("subgroup belongs to a different group")
    if Z.is_trivial:
        raise TrivialGroup("the chosen central subgroup is trivial")
    if not Z <= center(G):
        raise NotCentral(f"subgroup of order {Z.order} is not central in {G.display_name}")
    Zg, back = subgroup_as_group(G, Z)
    # ascending by order to line up with the cover's primary factors
    basis = sorted(abelian_basis(Zg), key=lambda bq: bq[1])
    cover = frattini_cover_abelian(Zg)
    pairing = _frattini_pairing(Zg, back, basis)
    product, embed_g, embed_y = central_product_with_embeddings(
        G, cover, pairing, name=f"central({G.display_name},{cover.display_name})"
    )

    checks: list[tuple[str, bool]] = []
    frat = frattini_of_abelian(cover)
    frat_group, _ = subgroup_as_group(cover, frat)
    checks.append(
        (
            "cover_frattini_matches_invariants",
            abelian_invariants(frat_group) == abelian_invariants(Zg),
        )
    )
    checks.append(
        (
            "product_order",
            product.order == G.order * cover.order // Z.order,
        )
    )
    image_g = Subgroup(product, set(embed_g))
    checks.append(("group_image_normal", image_g.is_normal()))
    image_z = frozenset(embed_g[z] for z in Z.elements)
    center_prod = center(product)
    checks.append(("central_image_central", image_z <= center_prod.index_set))
    image_frat = frozenset(embed_y[y] for y in frat.elements)
    checks.append(("central_image_is_cover_frattini", image_z == image_frat))
    return CentralCoverWitness(
        group=G,
        central_subgroup=Z,
        cover=cover,
        product=product,
        embed_group=tuple(embed_g),
        embed_cover=tuple(embed_y),
        checks=checks,
    )


def _frattini_pairing(Zg, back, basis) -> dict:
    """Map each element of Z (inside the ambient group, via back) to the
    matching element of the frattini subgroup of the cover, coordinatewise
    over the sorted basis: exponent e in the factor of order q goes to e*p
    in the stretched factor of order q*p."""
    primes = [prime_factors(q)[0] for _, q in basis]
    radix = [q * p for (_, q), p in zip(basis, primes)]
    pairing: dict[int, int] = {}
    for coords in itertools.product(*(range(q) for _, q in basis)):
        z = 0
        y = 0
        for i, (b, q) in enumerate(basis):
            z = Zg.mult(z, Zg.power(b, coords[i]))
            y = y * radix[i] + (coords[i] * primes[i]) % radix[i]
        pairing[back[z]] = y
    return pairing


# -- the scan -------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    """One corpus member's outcome in the exceptional-group scan."""

    name: str
    order: int
    status: str  # finding | residual_minimal | witness_not_large | not_soluble
    residual_order: int | None
    report: VerificationReport | None


def scan_exceptional(corpus) -> list[ScanRecord]:
    """Look for soluble groups whose supersoluble residual is neither
    trivial nor minimal normal and whose maximal abelian normal subgroups
    are nevertheless all large.  Non-soluble members are recorded as
    skipped; members inside the residual-minimal class are recorded but are
    not findings."""
    records = []
    for G in corpus:
        if not is_soluble(G):
            records.append(ScanRecord(G.display_name, G.order, "not_soluble", None, None))
            continue
        report = verify_maximal_abelian_large(G)
        residual = supersoluble_residual(G)
        if report.hypotheses_ok:
            status = "residual_minimal"
        elif all(w.is_large for w in report.witnesses):
            status = "finding"
        else:
            status = "witness_not_large"
        records.append(
            ScanRecord(G.display_name, G.order, status, residual.order, report)
        )
    return records


# -- selector dispatch ------------------------------------------------------------


def _cover_witness_report(G: FiniteGroup) -> VerificationReport:
    """Claim B: central_cover_witness certifies the center of G, if nontrivial."""
    Z = center(G)
    report = _report("B", G, ("nontrivial_center", not Z.is_trivial))
    if report.hypotheses_ok:
        report.checks.extend(central_cover_witness(G, Z).checks)
    return report


def _parse_class(key: str, owner: str) -> ClassPredicate:
    # the class key of A and C; builtin_class names the key in its errors
    return builtin_class(key)


# claim head -> (name of its parameter, or None; the parameter's parser; the
# check the claim makes of the parsed parameter, or None; the claim; what it
# says).  The CLI spells each parameter name as one flag.
_CLAIM_TABLE = {
    "A": ("classkey", _parse_class, _assembly_flags, verify_maximal_member_large,
          "maximal normal members of a fully closure-flagged class are large in groups"
          " assembled from the class"),
    "C": ("classkey", _parse_class, _formation_flags, verify_formation_member_large,
          "maximal normal members of a solubly saturated formation (containing the abelian"
          " groups) are large in groups assembled from it"),
    "D": (None, None, None, verify_fitting_large,
          "the fitting subgroup of a soluble group is large"),
    "E": (None, None, None, verify_generalized_fitting_large,
          "the generalized fitting subgroup is large in every group"),
    "F": ("primes", _parse_primes, None, verify_two_step_core_large,
          "the two-step core of a pi-separable group is large"),
    "G": ("c", _parse_int, _class_bound, verify_nilpotent_class_bound_large,
          "maximal normal subgroups of bounded nilpotency class are large in soluble groups"),
    "GD": ("d", _parse_int, _derived_bound, verify_derived_length_bound_large,
           "maximal normal subgroups of bounded derived length are large in soluble groups"),
    "H": (None, None, None, verify_maximal_abelian_large,
          "maximal abelian normal subgroups are large in soluble groups with minimal-or-trivial"
          " supersoluble residual"),
    "B": (None, None, None, _cover_witness_report,
          "central subgroups embed as the frattini subgroup of an abelian cover inside a"
          " central product"),
}
CLAIMS = {head: text for head, (*_, text) in _CLAIM_TABLE.items()}


def claim_for(selector: str):
    """The claim a selector like 'A:nilpotent', 'F:2,3', 'G:2' or 'E' names,
    its parameter parsed and checked, as a function of one group returning a
    uniform report.  A selector that names no claim, a parameter the claim
    does not take, or a bound or class the claim refuses raises here,
    before any group is read."""
    head, colon, param = (part.strip() for part in selector.partition(":"))
    head = head.upper()
    if head not in _CLAIM_TABLE:
        raise UnknownClass(f"unknown claim selector {selector!r}")
    _, parse, check, claim, _ = _CLAIM_TABLE[head]
    if parse is None:
        if colon:
            raise UnknownClass(f"selector {selector!r}: claim {head} takes no parameter")
        return claim
    if not param:
        raise UnknownClass(f"selector {selector!r} needs a parameter after ':'")
    value = parse(param, f"selector {selector!r}")
    if check is not None:
        check(value)
    return lambda G: claim(G, value)


def verify_selector(G: FiniteGroup, selector: str) -> VerificationReport:
    """Run the claim a selector names (see claim_for) on one group."""
    return claim_for(selector)(G)

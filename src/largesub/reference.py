"""The built-in verification corpus.

A fixed, deterministic family of groups used by the bundled test suites:
every catalog group at small parameters, all pairwise direct products of
the nontrivial ones up to order 400, and one larger mixed product so the
non-soluble paths get exercised on something that is not almost simple.

The corpus is a list of named constructions, not isomorphism classes;
dihedral(6) and symmetric(3) both appear, and that is intentional (they
are built along different code paths).
"""

from __future__ import annotations

from .catalog import (
    alternating_group,
    dihedral_group,
    klein_four_group,
    quaternion_group,
    special_linear_2_3,
    symmetric_group,
    trivial_group,
)
from .groups import FiniteGroup, cyclic_group, direct_product

PRODUCT_ORDER_LIMIT = 400


def named_reference_groups() -> list[FiniteGroup]:
    """One instance of every catalog family at small parameters."""
    out = [trivial_group()]
    out.extend(cyclic_group(n) for n in range(2, 11))
    out.append(klein_four_group())
    out.extend(dihedral_group(n) for n in (6, 8, 10, 12, 16))
    out.append(quaternion_group(8))
    out.extend(symmetric_group(n) for n in (3, 4, 5, 6))
    out.extend(alternating_group(n) for n in (4, 5, 6))
    out.append(special_linear_2_3())
    return out


def reference_corpus() -> list[FiniteGroup]:
    """Named groups, their pairwise direct products (unordered, repetition
    allowed, nontrivial factors, product order <= PRODUCT_ORDER_LIMIT), and
    alternating(5) x symmetric(4) on top.  Deterministic order: by group
    order, then name."""
    singles = named_reference_groups()
    out = list(singles)
    nontrivial = [G for G in singles if G.order > 1]
    for i, G in enumerate(nontrivial):
        for H in nontrivial[i:]:
            if G.order * H.order <= PRODUCT_ORDER_LIMIT:
                out.append(direct_product(G, H))
    by_name = {G.name: G for G in singles}
    out.append(direct_product(by_name["alternating(5)"], by_name["symmetric(4)"]))
    out.sort(key=lambda G: (G.order, G.display_name))
    return out

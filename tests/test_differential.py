"""The chief series, two-step core, pi-separability and supersoluble
residual are read off the canonical normal-subgroup list without building
any quotient.  Each is checked here against the quotient-group definition
it replaced, which the library keeps for user predicates
(class_residual, composition_factors, quotient_group)."""

import pytest

import largesub as ls

PRIME_SETS = [(2,), (3,), (2, 3), (5,)]


@pytest.fixture(scope="module")
def groups(small_zoo, corpus):
    """The small zoo plus every 8th reference corpus member by position."""
    return list(small_zoo) + corpus[::8]


def test_supersoluble_residual_matches_class_residual(groups):
    supersoluble = ls.builtin_class("supersoluble")
    for G in groups:
        assert ls.supersoluble_residual(G) == ls.class_residual(G, supersoluble), G.display_name


def test_two_step_core_matches_quotient_preimage(groups):
    for G in groups:
        for pi in PRIME_SETS:
            complement = tuple(p for p in ls.prime_factors(G.order) if p not in pi)
            # complement is empty for pi-groups, which _validate_pi would reject
            below = ls.pi_core(G, complement, _validated=True).subgroup
            Q, proj = ls.quotient_group(G, below)
            upper = ls.pi_core(Q, pi).subgroup
            expected = ls.Subgroup(G, [g for g in range(G.order) if proj[g] in upper])
            assert ls.pi_prime_pi_core(G, pi).subgroup == expected, (G.display_name, pi)


def test_pi_separability_matches_composition_factors(groups):
    for G in groups:
        for pi in PRIME_SETS:
            expected = all(
                set(ls.prime_factors(F.order)) <= set(pi)
                or not set(ls.prime_factors(F.order)) & set(pi)
                for F in ls.composition_factors(G)
            )
            assert ls.is_pi_separable(G, pi) == expected, (G.display_name, pi)


def test_chief_steps_are_minimal_normal_in_the_quotient(groups):
    for G in groups:
        series = ls.chief_series(G)
        assert series.chain[0].is_trivial and series.chain[-1].is_whole
        for K, M in zip(series.chain, series.chain[1:]):
            Q, proj = ls.quotient_group(G, K)
            image = ls.Subgroup(Q, {proj[m] for m in M})
            assert image in ls.minimal_normal_subgroups(Q), G.display_name


def test_trivial_group_readings():
    G = ls.trivial_group()
    assert ls.chief_series(G).chain == (G.trivial(),)
    assert ls.supersoluble_residual(G) == G.trivial()
    assert ls.is_supersoluble(G)
    for pi in PRIME_SETS:
        assert ls.is_pi_separable(G, pi)
        assert ls.pi_prime_pi_core(G, pi).subgroup == G.trivial()

"""Radicals, residuals and the quasi-simple machinery."""

from functools import reduce

import pytest

import largesub as ls
from largesub import radicals

from oracles import commutator_subgroup


def _is_cyclic(G):
    return any(int(o) == G.order for o in G.element_orders())


def test_pi_core_values(s4, a4, sl23, a5):
    assert ls.pi_core(s4, [2]).subgroup.order == 4
    assert ls.pi_core(s4, [3]).subgroup.order == 1
    assert ls.pi_core(s4, [2, 3]).subgroup.order == 24
    assert ls.pi_core(a4, [2]).subgroup.order == 4
    assert ls.pi_core(sl23, [2]).subgroup.order == 8
    assert ls.pi_core(sl23, [3]).subgroup.order == 1
    assert ls.pi_core(a5, [2]).subgroup.order == 1
    assert ls.pi_core(ls.cyclic_group(12), [2]).subgroup.order == 4
    assert ls.pi_core(ls.cyclic_group(12), [5]).subgroup.order == 1


def test_pi_core_is_the_largest(s4):
    # every normal 2-subgroup sits inside the 2-core
    core = ls.pi_core(s4, [2]).subgroup
    for N in ls.normal_subgroups(s4):
        if N.order in (1, 2, 4, 8):
            assert N <= core


def test_pi_core_validates_primes(s4):
    with pytest.raises(ValueError):
        ls.pi_core(s4, [4])
    with pytest.raises(ValueError):
        ls.pi_core(s4, [])


def test_two_step_core(s4, a4):
    assert ls.pi_prime_pi_core(s4, [3]).subgroup.order == 12
    assert ls.pi_prime_pi_core(s4, [2]).subgroup.order == 4
    assert ls.pi_prime_pi_core(a4, [2]).subgroup.order == 4
    assert ls.pi_prime_pi_core(a4, [3]).subgroup.order == 12
    result = ls.pi_prime_pi_core(s4, [2])
    assert "core" in result.witness


def test_two_step_core_is_normal(s4, sl23):
    for G in (s4, sl23):
        for pi in ([2], [3], [2, 3]):
            sub = ls.pi_prime_pi_core(G, pi).subgroup
            assert any(sub == N for N in ls.normal_subgroups(G))


def test_fitting_subgroup_values(s4, a4, sl23, a5):
    assert ls.fitting_subgroup(s4).subgroup.order == 4
    assert ls.fitting_subgroup(a4).subgroup.order == 4
    assert ls.fitting_subgroup(sl23).subgroup.order == 8
    assert ls.fitting_subgroup(a5).subgroup.order == 1
    assert ls.fitting_subgroup(ls.dihedral_group(12)).subgroup.order == 6
    D8 = ls.dihedral_group(8)
    assert ls.fitting_subgroup(D8).subgroup.order == 8


def test_fitting_subgroup_is_nilpotent(small_zoo):
    for G in small_zoo:
        F = ls.fitting_subgroup(G).subgroup
        induced, _ = ls.subgroup_as_group(G, F)
        assert ls.is_nilpotent(induced), G.display_name


def test_components(a5, s4, sl23):
    comps = ls.components(a5)
    assert [S.order for S in comps] == [60]
    assert comps[0].is_whole
    assert ls.components(s4) == []
    # its unique subnormal candidate Q8 is not perfect
    assert ls.components(sl23) == []
    S5 = ls.symmetric_group(5)
    assert [S.order for S in ls.components(S5)] == [60]
    mixed = ls.direct_product(a5, ls.cyclic_group(2))
    assert [S.order for S in ls.components(mixed)] == [60]


def test_layer_and_generalized_fitting(a5, s4, sl23):
    assert ls.layer(s4).subgroup.order == 1
    assert ls.layer(a5).subgroup.order == 60
    assert ls.generalized_fitting_subgroup(s4).subgroup.order == 4
    assert ls.generalized_fitting_subgroup(a5).subgroup.order == 60
    assert ls.generalized_fitting_subgroup(sl23).subgroup.order == 8
    mixed = ls.direct_product(a5, ls.symmetric_group(4))
    assert ls.layer(mixed).subgroup.order == 60
    assert ls.generalized_fitting_subgroup(mixed).subgroup.order == 240


def test_soluble_radical(a5, s4):
    assert ls.soluble_radical(s4).subgroup.is_whole
    assert ls.soluble_radical(a5).subgroup.is_trivial
    mixed = ls.direct_product(a5, ls.symmetric_group(4))
    assert ls.soluble_radical(mixed).subgroup.order == 24


def test_class_radical_agrees_with_fitting(small_zoo):
    nilpotent = ls.builtin_class("nilpotent")
    for G in small_zoo:
        rad = ls.class_radical(G, nilpotent)
        assert rad.subgroup == ls.fitting_subgroup(G).subgroup, G.display_name


def test_class_radical_needs_fitting_flag(s4):
    with pytest.raises(ls.ClosureNotDeclared):
        ls.class_radical(s4, ls.builtin_class("supersoluble"))


def test_class_radical_reports_join_failure():
    # abelian is not a Fitting class; D8 exposes it with three maximal
    # abelian normal subgroups (one C4 and two V4)
    dishonest = ls.ClassPredicate(
        "abelian",
        ls.is_abelian,
        ls.ClosureFlags(fitting_class=True),
    )
    D8 = ls.dihedral_group(8)
    with pytest.raises(ls.NotAFittingClassWitness) as info:
        ls.class_radical(D8, dishonest)
    assert info.value.first.order == 4
    assert info.value.second.order == 4
    assert info.value.first != info.value.second


def test_class_radical_of_a_class_without_members(s4):
    # not even the trivial subgroup passes: a typed error, like
    # class_residual's for a class rejecting the trivial quotient
    nothing = ls.ClassPredicate("empty", lambda G: False, ls.ClosureFlags(fitting_class=True))
    with pytest.raises(ls.NotAFittingClassWitness) as info:
        ls.class_radical(s4, nothing)
    assert info.value.first is None and info.value.second is None
    assert str(info.value) == "no normal empty-subgroups, not even the trivial one"


def test_maximal_normal_members_d8():
    abelian = ls.builtin_class("abelian")
    D8 = ls.dihedral_group(8)
    tops = ls.maximal_normal_members(D8, abelian)
    assert sorted(N.order for N in tops) == [4, 4, 4]


def test_maximal_normal_members_needs_normal_subgroup_flag(s4):
    undeclared = ls.ClassPredicate("abelian", ls.is_abelian, ls.ClosureFlags())
    with pytest.raises(ls.ClosureNotDeclared):
        ls.maximal_normal_members(s4, undeclared)


def test_class_residual_abelian_is_derived(small_zoo):
    abelian = ls.builtin_class("abelian")
    for G in small_zoo:
        res = ls.class_residual(G, abelian)
        derived = commutator_subgroup(G, G.whole(), G.whole())
        assert res == derived, G.display_name


def test_class_residual_needs_formation_flags(s4):
    bare = ls.ClassPredicate("mystery", ls.is_abelian, ls.ClosureFlags())
    with pytest.raises(ls.ClosureNotDeclared):
        ls.class_residual(s4, bare)


def test_class_residual_reports_intersection_failure():
    # cyclic quotients are not intersection-stable on V4: killing either
    # of two distinct C2 subgroups gives C2, killing both gives V4
    dishonest = ls.ClassPredicate(
        "cyclic",
        _is_cyclic,
        ls.ClosureFlags(quotients=True, direct_products=True),
    )
    V4 = ls.klein_four_group()
    with pytest.raises(ls.NotAFormationWitness) as info:
        ls.class_residual(V4, dishonest)
    assert info.value.first is not None
    assert info.value.second is not None


def test_class_residual_rejecting_class(s4):
    nothing = ls.ClassPredicate(
        "empty",
        lambda G: False,
        ls.ClosureFlags(quotients=True, direct_products=True),
    )
    with pytest.raises(ls.NotAFormationWitness):
        ls.class_residual(s4, nothing)


def test_supersoluble_residual_values(s4, a4, a4xa4, sl23):
    assert ls.supersoluble_residual(s4).order == 4
    assert ls.supersoluble_residual(a4).order == 4
    assert ls.supersoluble_residual(a4xa4).order == 16
    assert ls.supersoluble_residual(sl23).order == 8
    assert ls.supersoluble_residual(ls.dihedral_group(8)).is_trivial
    assert ls.supersoluble_residual(ls.cyclic_group(12)).is_trivial


def test_radical_results_carry_witness_text(s4):
    assert ls.fitting_subgroup(s4).witness
    assert ls.pi_core(s4, [2]).witness
    assert ls.generalized_fitting_subgroup(s4).witness


def _residual_by_subgroups(G, is_prime):
    # the walk over Subgroup objects, kept as the reference
    kernels = []
    for N in reversed(ls.normal_subgroups(G)):
        if N.is_whole or any(is_prime(K.order // N.order) and N < K for K in kernels):
            kernels.append(N)
    for K in kernels:
        if not kernels[-1] <= K:
            raise ls.NotAFormationWitness(kernels[-1], K, "not intersection-closed")
    return kernels[-1]


def test_supersoluble_residual_matches_the_subgroup_walk_on_corpus(corpus):
    for G in corpus:
        got = ls.supersoluble_residual(G)
        want = _residual_by_subgroups(G, lambda q: ls.prime_factors(q) == (q,))
        assert got == want, G.display_name
        assert ls.supersoluble_residual(G) is got  # memoized


def test_supersoluble_residual_raises_where_the_subgroup_walk_does(monkeypatch):
    # with "prime" index read as index 4, the kernels of C2^3 are G and its
    # seven subgroups of order 2, which meet in no kernel
    def index_four(n):
        return n == 4

    C2 = ls.cyclic_group(2)
    with pytest.raises(ls.NotAFormationWitness) as want:
        _residual_by_subgroups(ls.direct_product(ls.direct_product(C2, C2), C2), index_four)
    monkeypatch.setattr(radicals, "_prime_indices", lambda n: frozenset({4}))
    G = ls.direct_product(ls.direct_product(C2, C2), C2)
    with pytest.raises(ls.NotAFormationWitness) as got:
        ls.supersoluble_residual(G)
    pair = (got.value.first.elements, got.value.second.elements)
    assert pair == (want.value.first.elements, want.value.second.elements)
    assert got.value.first.order == got.value.second.order == 2


def test_lattice_joins_and_members_match_the_subgroup_walks(corpus):
    abelian = ls.builtin_class("abelian")
    for G in corpus:
        fit = ls.fitting_subgroup(G).subgroup
        cores = [ls.pi_core(G, (p,)).subgroup for p in ls.prime_factors(G.order)]
        assert fit == reduce(ls.join, cores, G.trivial()), G.display_name
        lay = ls.layer(G).subgroup
        assert ls.generalized_fitting_subgroup(G).subgroup == ls.join(fit, lay), G.display_name
        found = []
        for N in reversed(ls.normal_subgroups(G)):
            if not any(N <= M for M in found) and abelian.member(N):
                found.append(N)
        assert ls.maximal_normal_members(G, abelian) == found[::-1], G.display_name

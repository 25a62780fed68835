"""Randomized and corpus-wide invariants.

These are the cheap versions of the sweeps the acceptance suite runs in
full: a handful of trials and a few representative groups each, so a broken
invariant shows up here in seconds.
"""

import random

import numpy as np
import pytest

import largesub as ls

import oracles


def _factor_order_multiset(G, rng):
    return sorted(ls.composition_series(G, rng=rng).factor_orders)


def test_composition_factors_independent_of_choices(s4, sl23, a4xa4):
    targets = [
        s4,
        sl23,
        a4xa4,
        ls.dihedral_group(12),
        ls.symmetric_group(5),
        ls.direct_product(ls.alternating_group(5), ls.cyclic_group(2)),
    ]
    for G in targets:
        rng = random.Random(G.order)
        baseline = _factor_order_multiset(G, rng)
        for _ in range(10):
            assert _factor_order_multiset(G, rng) == baseline, G.display_name


def test_components_commute_pairwise():
    # the one accessible group with two components; they centralize each
    # other without being equal
    G = ls.direct_product(
        ls.alternating_group(5), ls.alternating_group(5), cap=4000
    )
    comps = ls.components(G)
    assert [S.order for S in comps] == [60, 60]
    A, B = comps
    assert A != B
    assert oracles.commutator_subgroup(G, A.elements, B.elements).is_trivial
    # and each is quasi-simple and subnormal on its own
    for S in comps:
        induced, _ = ls.subgroup_as_group(G, S)
        assert ls.is_quasisimple(induced)


def test_single_component_groups(a5):
    for G in (a5, ls.symmetric_group(5), ls.symmetric_group(6),
              ls.direct_product(a5, ls.symmetric_group(4))):
        comps = ls.components(G)
        assert len(comps) == 1
        assert comps[0].order == 60 or comps[0].order == 360


def _closure_passes_to_normals_and_quotients(X, G):
    # membership in the extension closure is inherited by every normal
    # subgroup and every quotient
    assert ls.in_extension_closure(X, G)
    for N in ls.normal_subgroups(G):
        induced, _ = ls.subgroup_as_group(G, N)
        assert ls.in_extension_closure(X, induced), (X.name, G.display_name, N.order)
        Q, _ = ls.quotient_group(G, N)
        assert ls.in_extension_closure(X, Q), (X.name, G.display_name, N.order)


def _simple_subnormals_in_class(X, G):
    for S in ls.subnormal_subgroups(G):
        induced, _ = ls.subgroup_as_group(G, S)
        if ls.is_simple(induced):
            assert X.member(induced), (X.name, G.display_name, S.order)


def _minimal_normals_in_class(X, G):
    for N in ls.minimal_normal_subgroups(G):
        induced, _ = ls.subgroup_as_group(G, N)
        assert X.member(induced), (X.name, G.display_name, N.order)


def test_extension_closure_inherited(s4, sl23, a5):
    nilpotent = ls.builtin_class("nilpotent")
    quasinil = ls.builtin_class("quasinilpotent")
    mixed = ls.direct_product(a5, ls.symmetric_group(4))
    for G in (s4, sl23, ls.dihedral_group(16)):
        _closure_passes_to_normals_and_quotients(nilpotent, G)
    for G in (s4, a5, mixed):
        _closure_passes_to_normals_and_quotients(quasinil, G)


def test_simple_subnormal_members(s4, sl23, a5):
    nilpotent = ls.builtin_class("nilpotent")
    quasinil = ls.builtin_class("quasinilpotent")
    for G in (s4, sl23):
        _simple_subnormals_in_class(nilpotent, G)
    mixed = ls.direct_product(a5, ls.symmetric_group(4))
    for G in (a5, mixed):
        _simple_subnormals_in_class(quasinil, G)


def test_minimal_normal_members(s4, sl23, a5):
    nilpotent = ls.builtin_class("nilpotent")
    quasinil = ls.builtin_class("quasinilpotent")
    for G in (s4, sl23, ls.dihedral_group(12)):
        _minimal_normals_in_class(nilpotent, G)
    mixed = ls.direct_product(a5, ls.symmetric_group(4))
    for G in (a5, mixed):
        _minimal_normals_in_class(quasinil, G)


def test_every_corpus_group_satisfies_the_axioms(corpus):
    checked = 0
    for G in corpus:
        if G.order <= 256:
            ls.validate_axioms(G)
            checked += 1
    assert checked > 200
    # one larger member so the expensive sizes are not silently exempt
    big = next(G for G in corpus if G.order > 256)
    ls.validate_axioms(big)


def test_quotient_projection_is_homomorphism(small_zoo):
    rng = random.Random(11)
    for G in small_zoo:
        normals = [N for N in ls.normal_subgroups(G) if 1 < N.order < G.order]
        if not normals:
            continue
        N = normals[rng.randrange(len(normals))]
        Q, proj = ls.quotient_group(G, N)
        parr = np.asarray(proj)
        assert (parr[G.table] == Q.table[parr[:, None], parr[None, :]]).all(), (
            G.display_name,
            N.order,
        )


def test_abelian_invariants_against_order_statistics(corpus):
    # the primary decomposition must reproduce the element order profile
    seen = 0
    for G in corpus:
        if G.order > 64 or not ls.is_abelian(G):
            continue
        seen += 1
        invariants = ls.abelian_invariants(G)
        model = ls.trivial_group()
        for q in invariants.primary_orders:
            model = ls.direct_product(model, ls.cyclic_group(q))
        got = oracles.abelian_order_statistics([list(r) for r in G.table])
        want = oracles.abelian_order_statistics([list(r) for r in model.table])
        assert got == want, G.display_name
    assert seen >= 10


def test_random_subsets_generate_verified_subgroups(small_zoo):
    rng = random.Random(23)
    for G in small_zoo:
        for _ in range(3):
            k = rng.randrange(1, 4)
            seed = [rng.randrange(G.order) for _ in range(k)]
            S = ls.closure(G, seed)
            assert oracles.is_subgroup([list(r) for r in G.table], sorted(S.elements))


def test_centralizers_of_random_normals_are_subgroups(small_zoo):
    rng = random.Random(5)
    for G in small_zoo:
        rows = [list(r) for r in G.table]
        for N in ls.normal_subgroups(G):
            cent = ls.centralizer(G, N)
            assert oracles.is_subgroup(rows, sorted(cent.elements))
            # centralizer of a normal subgroup is itself normal
            assert oracles.is_normal(rows, sorted(cent.elements))

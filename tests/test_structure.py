"""Structure computations checked against brute-force oracles and
hand-verified constants."""

import random

import pytest

import largesub as ls

import oracles


def _rows(G):
    return [list(map(int, row)) for row in G.table]


def test_conjugacy_classes_match_oracle(small_zoo):
    for G in small_zoo:
        got = sorted(sorted(c) for c in ls.conjugacy_classes(G))
        want = sorted(sorted(c) for c in oracles.conjugacy_classes(_rows(G)))
        assert got == want, G.display_name


def test_class_sizes_s4(s4):
    assert sorted(len(c) for c in ls.conjugacy_classes(s4)) == [1, 3, 6, 6, 8]


def test_center_matches_oracle(small_zoo):
    for G in small_zoo:
        assert sorted(ls.center(G).elements) == oracles.center(_rows(G)), G.display_name


def test_centralizer_matches_oracle(small_zoo):
    rng = random.Random(7)
    for G in small_zoo:
        rows = _rows(G)
        singles = [rng.randrange(G.order) for _ in range(3)]
        pairs = [
            [rng.randrange(G.order), rng.randrange(G.order)] for _ in range(3)
        ]
        for seed in [[s] for s in singles] + pairs:
            got = sorted(ls.centralizer(G, seed).elements)
            assert got == oracles.centralizer(rows, seed), (G.display_name, seed)


def test_closure_and_generating_subset(s4):
    transpositions = [
        x for x in range(24) if int(s4.element_orders()[x]) == 2
    ]
    # two transpositions with disjoint support already generate V4-like bits;
    # all of them generate the full group
    full = ls.closure(s4, transpositions)
    assert full.order == 24
    gens = ls.generating_subset(s4, transpositions)
    assert ls.closure(s4, gens).order == 24
    assert len(gens) <= 3
    assert sorted(ls.closure(s4, []).elements) == [0]


def test_commutator_subgroup_matches_oracle(small_zoo):
    for G in small_zoo:
        every = list(range(G.order))
        got = sorted(ls.commutator_subgroup(G, every, every).elements)
        assert got == oracles.commutator_subgroup(_rows(G), every, every), G.display_name


def test_normal_subgroups_match_oracle(small_zoo):
    for G in small_zoo:
        if G.order > 24:
            continue
        got = sorted(tuple(sorted(N.elements)) for N in ls.normal_subgroups(G))
        want = sorted(tuple(ns) for ns in oracles.normal_subgroups(_rows(G)))
        assert got == want, G.display_name


def test_normal_subgroups_match_oracle_on_corpus(corpus):
    # every corpus group with few enough classes for the powerset oracle
    checked = 0
    for G in corpus:
        if len(ls.conjugacy_classes(G)) > 14:
            continue
        got = [N.elements for N in ls.normal_subgroups(G)]
        want = sorted(oracles.normal_subgroups(_rows(G)), key=lambda t: (len(t), t))
        assert got == [tuple(t) for t in want], G.display_name
        checked += 1
    assert checked == 62


def test_normal_subgroup_orders_frozen(s4, a4, sl23, a4xa4):
    assert sorted(N.order for N in ls.normal_subgroups(s4)) == [1, 4, 12, 24]
    assert sorted(N.order for N in ls.normal_subgroups(a4)) == [1, 4, 12]
    assert sorted(N.order for N in ls.normal_subgroups(sl23)) == [1, 2, 8, 24]
    assert sorted(N.order for N in ls.normal_subgroups(a4xa4)) == [
        1, 4, 4, 12, 12, 16, 48, 48, 48, 48, 144,
    ]


def test_normal_closure(s4):
    t = next(x for x in range(24) if int(s4.element_orders()[x]) == 2)
    # conjugates of any transposition generate everything; a double
    # transposition only reaches the Klein four group
    assert ls.normal_closure(s4, [t]).order in (4, 24)
    sizes = {ls.normal_closure(s4, [x]).order for x in range(24)
             if int(s4.element_orders()[x]) == 2}
    assert sizes == {4, 24}


def test_join_and_intersect(s4):
    normals = {N.order: N for N in ls.normal_subgroups(s4)}
    V4, A4 = normals[4], normals[12]
    assert ls.intersect(V4, A4).order == 4
    assert ls.join(V4, A4).order == 12
    P = ls.closure(s4, ls.generating_subset(s4, [x for x in range(24)
                   if int(s4.element_orders()[x]) == 4][:1]))
    assert ls.join(P, A4).order == 24


def test_derived_series_frozen(s4):
    rep = ls.derived_series(s4)
    assert rep.kind == "derived"
    assert [S.order for S in rep.chain] == [24, 12, 4, 1]
    assert ls.derived_series(ls.dihedral_group(8)).chain[-1].order == 1
    assert [S.order for S in ls.derived_series(ls.dihedral_group(8)).chain] == [8, 2, 1]
    # perfect group: the chain stops as soon as it stabilizes
    perfect = ls.derived_series(ls.alternating_group(5))
    assert [S.order for S in perfect.chain] == [60]
    assert perfect.last.order == 60


def test_lower_central_series_frozen(s4):
    rep = ls.lower_central_series(s4)
    assert rep.kind == "lower_central"
    assert [S.order for S in rep.chain] == [24, 12]
    D16 = ls.dihedral_group(16)
    assert [S.order for S in ls.lower_central_series(D16).chain] == [16, 4, 2, 1]


def test_composition_series(s4, a5):
    rep = ls.composition_series(s4)
    assert rep.kind == "composition"
    assert rep.chain[0].order == 24 and rep.last.order == 1
    assert sorted(rep.factor_orders) == [2, 2, 2, 3]
    for tag in rep.factor_tags:
        assert tag.is_simple
    rep5 = ls.composition_series(a5)
    assert list(rep5.factor_orders) == [60]
    assert rep5.factor_tags[0].prime_order is False


def test_composition_series_randomized_is_valid(s4):
    rng = random.Random(123)
    for _ in range(5):
        rep = ls.composition_series(s4, rng=rng)
        orders = [S.order for S in rep.chain]
        assert orders[0] == 24 and orders[-1] == 1
        for big, small in zip(orders, orders[1:]):
            assert big % small == 0 and big > small


def test_composition_factors(s4, a5):
    facs = ls.composition_factors(s4)
    assert sorted(F.order for F in facs) == [2, 2, 2, 3]
    assert [F.order for F in ls.composition_factors(a5)] == [60]


def test_chief_series(s4, a4xa4):
    rep = ls.chief_series(s4)
    assert rep.kind == "chief"
    assert [S.order for S in rep.chain] == [1, 4, 12, 24]
    assert list(rep.factor_orders) == [4, 3, 2]
    assert all(tag.abelian for tag in rep.factor_tags)
    rep2 = ls.chief_series(a4xa4)
    assert rep2.chain[0].order == 1 and rep2.last.order == 144
    for big, small in zip(rep2.chain[1:], rep2.chain):
        assert big.order % small.order == 0


def test_minimal_and_maximal_normals(s4, a4xa4):
    minimals = ls.minimal_normal_subgroups(s4)
    assert [N.order for N in minimals] == [4]
    maximals = ls.maximal_normal_subgroups(s4)
    assert [N.order for N in maximals] == [12]
    assert sorted(N.order for N in ls.minimal_normal_subgroups(a4xa4)) == [4, 4]
    assert sorted(N.order for N in ls.maximal_normal_subgroups(a4xa4)) == [48, 48, 48, 48]
    C12 = ls.cyclic_group(12)
    assert sorted(N.order for N in ls.minimal_normal_subgroups(C12)) == [2, 3]


def test_socle(s4, a5, a4xa4):
    assert ls.socle(s4).order == 4
    assert ls.socle(a5).order == 60
    assert ls.socle(a4xa4).order == 16
    assert ls.socle(ls.cyclic_group(12)).order == 6
    assert ls.socle(ls.trivial_group()).order == 1


def test_subnormal_subgroups_s4(s4):
    # 1, three C2 in V4, V4, A4, S4: the seven subnormal subgroups of S4
    subs = ls.subnormal_subgroups(s4)
    assert sorted(S.order for S in subs) == [1, 2, 2, 2, 4, 12, 24]
    # brute check: each is reachable by a normal chain inside the next layer
    rows = _rows(s4)
    for S in subs:
        chain = [list(range(24))]
        current = sorted(S.elements)
        assert _has_normal_chain(rows, current), sorted(S.elements)


def _has_normal_chain(rows, target):
    # climb down from the whole group via normal-in-previous steps
    frontier = [list(range(len(rows)))]
    seen = set()
    while frontier:
        level = frontier.pop()
        key = tuple(level)
        if key in seen:
            continue
        seen.add(key)
        if level == target:
            return True
        table = oracles.induced_table(rows, level)
        for rel in oracles.normal_subgroups(table):
            absolute = sorted(level[i] for i in rel)
            if len(absolute) < len(level) and set(target) <= set(absolute):
                frontier.append(absolute)
    return False


def test_subnormal_depth_cap(s4):
    depth1 = ls.subnormal_subgroups(s4, max_depth=1)
    assert sorted(S.order for S in depth1) == [1, 4, 12, 24]


def test_quotient_group(s4):
    V4 = next(N for N in ls.normal_subgroups(s4) if N.order == 4)
    Q, proj = ls.quotient_group(s4, V4)
    assert Q.order == 6
    assert sorted(map(int, Q.element_orders())) == [1, 2, 2, 2, 3, 3]
    assert int(proj[0]) == 0


def test_frattini_of_abelian():
    assert ls.frattini_of_abelian(ls.cyclic_group(4)).order == 2
    assert ls.frattini_of_abelian(ls.klein_four_group()).order == 1
    assert ls.frattini_of_abelian(ls.cyclic_group(12)).order == 2
    assert ls.frattini_of_abelian(ls.cyclic_group(8)).order == 4
    with pytest.raises(ls.NotAbelian):
        ls.frattini_of_abelian(ls.symmetric_group(3))


def test_is_simple(a5):
    assert ls.is_simple(a5)
    assert ls.is_simple(ls.alternating_group(6))
    assert ls.is_simple(ls.cyclic_group(7))
    assert not ls.is_simple(ls.symmetric_group(4))
    assert not ls.is_simple(ls.cyclic_group(6))
    assert not ls.is_simple(ls.trivial_group())


def test_prime_factors():
    assert ls.prime_factors(360) == (2, 3, 5)
    assert ls.prime_factors(1) == ()
    assert ls.prime_factors(97) == (97,)


def test_foreign_subgroups_raise_one_error(s4, a4):
    # one GroupError subclass for every foreign-subgroup site, still a ValueError
    foreign = a4.whole()
    calls = [
        lambda: s4.whole() <= foreign,
        lambda: ls.quotient_group(s4, foreign),
        lambda: ls.subgroup_as_group(s4, foreign),
        lambda: ls.centralizer(s4, foreign),
        lambda: ls.join(s4.whole(), foreign),
        lambda: ls.intersect(s4.whole(), foreign),
        lambda: ls.is_large(s4, foreign),
        lambda: ls.central_cover_witness(s4, foreign),
    ]
    for call in calls:
        with pytest.raises(ls.ForeignSubgroup) as info:
            call()
        assert isinstance(info.value, ls.GroupError) and isinstance(info.value, ValueError)

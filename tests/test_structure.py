"""Structure computations checked against brute-force oracles and
hand-verified constants."""

import collections
import random
import tracemalloc

import numpy as np
import pytest

import largesub as ls
from largesub.largeness import _witness
from largesub.structure import _classes, _ClassProducts, _fixpoint, _lattice, _Lattice

import oracles


def _rows(G):
    return [list(map(int, row)) for row in G.table]


def test_conjugacy_classes_match_oracle(small_zoo):
    for G in small_zoo:
        got = sorted(sorted(c) for c in ls.conjugacy_classes(G))
        want = sorted(sorted(c) for c in oracles.conjugacy_classes(_rows(G)))
        assert got == want, G.display_name


def _some_subgroups(G, rng, count=4):
    # subgroups generated by random pairs of elements, many of them not
    # normal
    return [ls.closure(G, [rng.randrange(G.order), rng.randrange(G.order)]) for _ in range(count)]


def test_one_gather_classes_match_oracle_on_corpus_and_subgroups(corpus):
    # _classes labels each element by the least entry of its row of
    # conjugates; the oracle collects each orbit one conjugate at a time
    rng = random.Random(11)
    non_normal = 0
    for G in corpus:
        if G.order > 100:
            continue
        rows = _rows(G)
        assert _classes(G.whole()) == oracles.conjugacy_classes(rows), G.display_name
        for S in _some_subgroups(G, rng):
            back = S.elements
            want = [
                tuple(back[i] for i in c)
                for c in oracles.conjugacy_classes(oracles.induced_table(rows, back))
            ]
            assert _classes(S) == want, (G.display_name, back)
            non_normal += not S.is_normal()
    assert non_normal >= 120


def test_class_sizes_s4(s4):
    assert sorted(len(c) for c in ls.conjugacy_classes(s4)) == [1, 3, 6, 6, 8]


def test_center_matches_oracle(small_zoo):
    # on every normal subgroup, and on the subgroups generated by two
    # consecutive class representatives, many of them not normal
    non_normal = 0
    for G in small_zoo:
        rows = _rows(G)
        assert sorted(ls.center(G).elements) == oracles.center(rows), G.display_name
        reps = [c[0] for c in ls.conjugacy_classes(G)]
        pairs = [ls.closure(G, pair) for pair in zip(reps, reps[1:])]
        for S in ls.normal_subgroups(G) + pairs:
            back = S.elements
            want = [back[i] for i in oracles.center(oracles.induced_table(rows, back))]
            assert ls.center(S).elements == tuple(want), (G.display_name, back)
            non_normal += not S.is_normal()
    assert non_normal >= 10


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
        got = sorted(oracles.commutator_subgroup(G, every, every).elements)
        assert got == oracles.commutator_closure(_rows(G), every, every), G.display_name


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



def test_lattice_records_match_the_per_class_enumeration(corpus):
    # the whole record, off the blocked class product table, against one
    # scatter per class closure and per distinct closure's rows: every
    # corpus group and every subnormal subgroup of every eighth one
    subgroups = [G.whole() for G in corpus]
    for G in corpus[::8]:
        subgroups += [S for S in ls.subnormal_subgroups(G) if not S.is_whole]
    for S in subgroups:
        lat, want = _lattice(S), oracles.class_product_lattice(S)
        where = (S.parent.display_name, S.order)
        assert lat.masks == want["masks"], where
        assert [N.elements for N in lat.members] == want["members"], where
        assert lat.index == want["index"], where
        assert np.array_equal(lat.class_of, want["class_of"]), where
        assert lat.class_of.dtype == want["class_of"].dtype, where
        assert np.array_equal(lat.reps, want["reps"]), where
        assert tuple(map(len, lat.classes)) == want["sizes"], where
    assert len(subgroups) > 1500


def test_class_product_blocks_bound_memory():
    # the table is scattered a block of at most _BLOCK_BYTES at a time; one
    # block of every generating class would be 150 x 300 x 320 bools
    # (14 MB) for cyclic(300) and 195 x 390 x 448 (33 MB) for cyclic(390)
    G, S = ls.cyclic_group(300), ls.cyclic_group(390)
    tracemalloc.start()
    try:
        assert len(ls.normal_subgroups(G)) == 18
        assert not ls.is_simple(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20

def _mask_elements(classes, mask):
    return tuple(sorted(x for j, cls in enumerate(classes) if mask >> j & 1 for x in cls))


def test_class_closures_match_normal_closure_on_corpus(corpus):
    # every class of every corpus group, the inverse classes included: the
    # closure is the fixpoint from the identity class on the class's column
    # of the blocked class product table
    checked = 0
    for G in corpus:
        classes = ls.conjugacy_classes(G)
        table = _ClassProducts(G.whole())
        for j, column in table.columns(list(range(len(classes)))):
            want = oracles.normal_closure(G, classes[j]).elements
            assert _mask_elements(classes, _fixpoint(column, 1)) == want, (G.display_name, j)
            checked += 1
    assert checked == sum(len(ls.conjugacy_classes(G)) for G in corpus)


def test_is_simple_matches_the_lattice_count(corpus, a5):
    # every subnormal subgroup of every eighth corpus group, plus A5 and
    # its subgroups, against the oracle's count of normal subgroups; A5
    # and its subgroups also against their class closures: H is simple
    # exactly when it is nontrivial and every nontrivial class generates it
    simple = 0
    for G in [*corpus[::8], a5]:
        for H in ls.subnormal_subgroups(G):
            where = (G.display_name, H.elements)
            assert ls.is_simple(H) == (len(oracles.class_product_lattice(H)["masks"]) == 2), where
            if G is a5:
                by_closures = H.order > 1 and all(
                    oracles.normal_closure(H, c) == H for c in ls.conjugacy_classes(H)[1:]
                )
                assert ls.is_simple(H) == by_closures, where
            simple += ls.is_simple(H)
    assert simple > 0
    assert not ls.is_simple(ls.trivial_group())
    assert ls.is_simple(a5) and ls.is_simple(ls.cyclic_group(7))
    assert not ls.is_simple(ls.direct_product(a5, ls.cyclic_group(2)))


def test_socle_is_the_join_of_the_minimal_normals(corpus):
    for G in corpus:
        want = G.trivial()
        for N in ls.minimal_normal_subgroups(G) if G.order > 1 else ():
            want = ls.join(want, N)
        assert ls.socle(G) == want, G.display_name


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
    assert oracles.normal_closure(s4, [t]).order in (4, 24)
    sizes = {oracles.normal_closure(s4, [x]).order for x in range(24)
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
    assert [S.order for S in rep.chain] == [24, 12, 4, 1]
    assert rep.factor_orders == (2, 3, 4)
    assert ls.derived_series(ls.dihedral_group(8)).chain[-1].order == 1
    assert [S.order for S in ls.derived_series(ls.dihedral_group(8)).chain] == [8, 2, 1]
    # perfect group: the chain stops as soon as it stabilizes
    perfect = ls.derived_series(ls.alternating_group(5))
    assert [S.order for S in perfect.chain] == [60]
    assert perfect.last.order == 60


def _series_by_elements(G, start, *, derived):
    # the element-level loop that the walks on the lattice records replaced,
    # the parent's for a normal start and the start's own for any other
    chain = [start]
    while True:
        nxt = oracles.commutator_subgroup(G, chain[-1] if derived else start, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def test_series_match_oracle(small_zoo):
    # every normal start walks the parent's lattice record; the random
    # pairs give starts that are not normal, which walk their own record
    rng = random.Random(5)
    non_normal = 0
    for G in small_zoo:
        rows = _rows(G)
        for start in ls.normal_subgroups(G) + _some_subgroups(G, rng):
            for series, derived in ((ls.derived_series, True), (ls.lower_central_series, False)):
                got = [list(S.elements) for S in series(start).chain]
                want = oracles.commutator_series(rows, start.elements, derived=derived)
                assert got == want, (G.display_name, start.elements, series.__name__)
            non_normal += not start.is_normal()
    assert non_normal >= 9


def test_series_of_a_start_not_normal_leave_the_parent_record_unbuilt():
    G = ls.symmetric_group(4)
    x = next(x for x in range(G.order) if G.element_orders()[x] == 2)
    S = ls.closure(G, [x])
    assert not S.is_normal()
    assert [T.order for T in ls.derived_series(S).chain] == [2, 1]
    assert [T.order for T in ls.lower_central_series(S).chain] == [2, 1]
    assert "normal_lattice" not in G._cache
    assert [T.order for T in ls.derived_series(G).chain] == [24, 12, 4, 1]
    assert "normal_lattice" in G._cache


def test_lattice_series_match_the_commutator_loop_on_corpus(corpus):
    # the normal subgroups of G, then the subgroups generated by two
    # consecutive class representatives that are not normal in G
    checked = non_normal = 0
    for G in corpus:
        reps = [c[0] for c in ls.conjugacy_classes(G)]
        pairs = [ls.closure(G, pair) for pair in zip(reps, reps[1:])]
        for N in ls.normal_subgroups(G) + [S for S in pairs if not S.is_normal()]:
            for series, derived in ((ls.derived_series, True), (ls.lower_central_series, False)):
                want = _series_by_elements(G, N, derived=derived)
                assert list(series(N).chain) == want, (G.display_name, N.elements, derived)
            checked += 1
            non_normal += not N.is_normal()
    assert (checked, non_normal) == (4842 + 1559, 1559)


def test_witness_centralizers_match_centralizer_on_corpus(corpus):
    # the witnesses, and the record's centralizer and abelian answers for
    # every member; containment between every two members of every eighth
    # group
    checked = large = 0
    for G in corpus:
        lat = _lattice(G)
        for i, N in enumerate(lat.members):
            where = (G.display_name, N.elements)
            cent = ls.centralizer(G, N)
            witness = _witness(G, N, "N")
            assert (witness.centralizer_order, witness.is_large) == (cent.order, cent <= N), where
            assert lat.members[lat.centralizer(i)] == cent, where
            block = G.table[N.as_array()[:, None], N.as_array()]
            assert lat.abelian(i) == np.array_equal(block, block.T), where
            checked += 1
            large += witness.is_large
    assert (checked, large) == (4842, 963)
    pairs = 0
    for G in corpus[::8]:
        lat = _lattice(G)
        for i, N in enumerate(lat.members):
            for j, M in enumerate(lat.members):
                assert lat.le(i, j) == (N <= M), (G.display_name, i, j)
                pairs += 1
    assert pairs == 21519


def test_commutators_and_centralizers_are_gathered_once_per_lattice(corpus, monkeypatch):
    # [N_i, N_j] = [N_j, N_i]: one gather per unordered pair of members,
    # and one centralizer gather per member, however often they are asked
    gathered = collections.Counter()
    commutator, centralizer = _Lattice._commutator, _Lattice._centralizer

    def counting_commutator(self, i, j):
        gathered["commutator", min(i, j), max(i, j)] += 1
        return commutator(self, i, j)

    def counting_centralizer(self, i):
        gathered["centralizer", i] += 1
        return centralizer(self, i)

    monkeypatch.setattr(_Lattice, "_commutator", counting_commutator)
    monkeypatch.setattr(_Lattice, "_centralizer", counting_centralizer)
    source = max((G for G in corpus if G.order <= 200), key=lambda G: len(ls.normal_subgroups(G)))
    G = ls.FiniteGroup(source.table, name=source.name, trusted=True)
    for _ in range(2):
        for N in ls.normal_subgroups(G):
            ls.derived_series(N)
            ls.lower_central_series(N)
            _witness(G, N, "N")
    assert sum(1 for key in gathered if key[0] == "commutator") > len(ls.normal_subgroups(G))
    assert max(gathered.values()) == 1


def test_witness_refuses_a_subgroup_that_is_not_normal(s4):
    S = next(S for S in ls.subnormal_subgroups(s4) if not S.is_normal())
    with pytest.raises(ls.NotNormal):
        _witness(s4, S, "S")


def test_lower_central_series_frozen(s4):
    rep = ls.lower_central_series(s4)
    assert [S.order for S in rep.chain] == [24, 12]
    assert rep.factor_orders == (2,)
    D16 = ls.dihedral_group(16)
    assert [S.order for S in ls.lower_central_series(D16).chain] == [16, 4, 2, 1]


def test_composition_series(s4, a5):
    rep = ls.composition_series(s4)
    assert rep.chain[0].order == 24 and rep.last.order == 1
    assert sorted(rep.factor_orders) == [2, 2, 2, 3]
    # every factor is simple: each term is maximal normal in the one above
    for upper, lower in zip(rep.chain, rep.chain[1:]):
        assert lower in ls.maximal_normal_subgroups(upper)
    rep5 = ls.composition_series(a5)
    assert [S.order for S in rep5.chain] == [60, 1]
    # a single composition factor, A5 itself, of an order that is not prime
    assert rep5.factor_orders == (60,)


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
    assert [S.order for S in rep.chain] == [1, 4, 12, 24]
    # an ascending chain: each factor order is the larger term over the smaller
    assert rep.factor_orders == (4, 3, 2)
    # every chief factor abelian: each of prime-power order
    assert all(len(ls.prime_factors(o)) == 1 for o in rep.factor_orders)
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


def test_minimal_and_maximal_normals_match_the_quadratic_scan(corpus):
    # on every corpus group and every member of its composition chain
    for G in corpus:
        for H in ls.composition_series(G).chain[:-1]:
            normals = ls.normal_subgroups(H)
            nontrivial, proper = normals[1:], normals[:-1]
            where = (G.display_name, H.order)
            assert ls.minimal_normal_subgroups(H) == [
                N for N in nontrivial if not any(M < N for M in nontrivial)
            ], where
            assert ls.maximal_normal_subgroups(H) == [
                N for N in proper if not any(N < M for M in proper)
            ], where


def test_minimal_and_maximal_normals_are_copies(s4):
    for f in (ls.minimal_normal_subgroups, ls.maximal_normal_subgroups):
        first = f(s4)
        first.clear()
        assert len(f(s4)) == 1, f.__name__


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


def test_subnormal_subgroups_match_wielandt_series(small_zoo):
    # completeness as well as soundness, against an independent test of
    # every subgroup: S is subnormal exactly when the series of repeated
    # normal closures K_0 = G, K_{i+1} = S^{K_i} comes down to S
    for G in small_zoo:
        rows = _rows(G)
        expected = []
        for S in oracles.all_subgroups(rows):
            K = tuple(range(len(rows)))
            while True:
                conj = {oracles.conjugate(rows, s, k) for s in S for k in K}
                closed = tuple(oracles.closure(rows, conj))
                if closed == K:
                    break
                K = closed
            if K == S:
                expected.append(S)
        got = sorted(tuple(sorted(S.elements)) for S in ls.subnormal_subgroups(G))
        assert got == sorted(expected), G.display_name


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

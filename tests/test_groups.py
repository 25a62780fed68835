import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import largesub as ls
import largesub.catalog as catalog
import largesub.groups as groups
import oracles
from largesub.groups import _light_generators

# order-5 loop: Latin, identity at 0, every element self-inverse, but not
# associative; the first failing triple is (1,1,2)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_cyclic_group_table():
    C4 = ls.cyclic_group(4)
    assert C4.order == 4
    assert C4.mult(1, 3) == 0
    assert C4.inv(1) == 3
    assert [C4.power(1, k) for k in range(5)] == [0, 1, 2, 3, 0]
    assert C4.power(1, -1) == 3
    assert list(C4.element_orders()) == [1, 4, 2, 4]


def test_identity_is_index_zero_everywhere(small_zoo):
    for G in small_zoo:
        n = G.order
        assert (G.table[0] == np.arange(n)).all()
        assert (G.table[:, 0] == np.arange(n)).all()


def test_validate_axioms_on_trusted_constructions(small_zoo):
    # combinators skip the Latin and associativity checks, so audit them here
    for G in small_zoo:
        ls.validate_axioms(G)


def test_latin_check_runs_only_on_untrusted_tables(monkeypatch):
    # and there only when Light's test fails: a table that passes it is a
    # group, hence Latin.  A fresh group, so no induced group or quotient
    # is served from a cache
    s4 = ls.FiniteGroup(ls.symmetric_group(4).table, name="s4", trusted=True)
    calls = []
    real = groups._latin_check
    monkeypatch.setattr(groups, "_latin_check", lambda table: calls.append(1) or real(table))
    V4 = next(N for N in ls.normal_subgroups(s4) if N.order == 4)
    A4 = next(N for N in ls.normal_subgroups(s4) if N.order == 12)
    groups.subgroup_as_group(s4, A4)
    groups.quotient_group(s4, V4)
    groups.direct_product(s4, ls.cyclic_group(2))
    assert calls == []
    ls.from_multiplication_table(ls.cyclic_group(3).table.tolist())
    assert calls == []
    with pytest.raises(ls.NotAGroup):
        ls.from_multiplication_table(LOOP5)
    assert calls == [1]


def test_from_table_normalizes_identity():
    # C3 written with its identity at index 2
    table = [
        [1, 2, 0],
        [2, 0, 1],
        [0, 1, 2],
    ]
    G = ls.from_multiplication_table(table, name="shifted")
    assert G.order == 3
    assert G.mult(0, 0) == 0
    assert sorted(oracles.element_orders(oracles.as_rows(G.table))) == [1, 3, 3]


def test_from_table_rejects_nonassociative_loop():
    with pytest.raises(ls.NotAGroup) as info:
        ls.from_multiplication_table(LOOP5)
    assert info.value.witness == (1, 1, 2)


def test_table_neither_latin_nor_associative_fails_the_latin_check():
    # C4 with 1*1 changed from 2 to 3: one greedy generator, which fails
    # Light's test, and row 1 repeats 3
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    table[1][1] = 3
    assert not oracles.is_associative(table)
    with pytest.raises(ls.NotAGroup, match="row 1 repeats") as info:
        ls.from_multiplication_table(table)
    assert info.value.witness == ("row", 1)


def test_too_many_greedy_generators_fail_the_latin_check():
    # x*y = x for distinct nonzero x, y and x*x = 0: identity 0 and
    # two-sided inverses, but each greedy generator adds one element, more
    # than floor(log2 n) of them, which no Latin table needs
    n = 8
    table = [[b if a == 0 else (0 if a == b else a) for b in range(n)] for a in range(n)]
    assert _light_generators(np.asarray(table)) is None
    with pytest.raises(ls.NotAGroup, match="row 1 repeats") as info:
        ls.from_multiplication_table(table)
    assert info.value.witness == ("row", 1)
    with pytest.raises(ls.NotAGroup, match="row 1 repeats"):
        ls.validate_axioms(ls.FiniteGroup(table, trusted=True))


@st.composite
def _near_cyclic_tables(draw):
    # C_n with a few moves that keep 0 as identity and x*(n-x) = 0 as the
    # only zeros: overwrite a nonzero product, swap two nonzero products in
    # a row (the columns break), or switch an intercalate (rows a, a+n/2 and
    # columns b, b+n/2), which keeps the table Latin but rarely associative
    n = draw(st.integers(2, 7))
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    h = n // 2
    index = st.integers(1, n - 1)
    moves = st.tuples(st.sampled_from(["set", "swap", "intercalate"]), index, index, index)
    for kind, a, b, v in draw(st.lists(moves, min_size=1, max_size=4)):
        if kind == "set":
            if table[a][b]:
                table[a][b] = v
            continue
        rows, c = ((a,), v) if kind == "swap" else ((a, (a + h) % n), (b + h) % n)
        if c and all(r and table[r][b] and table[r][c] for r in rows):
            for r in rows:
                table[r][b], table[r][c] = table[r][c], table[r][b]
    return table


@settings(max_examples=300, deadline=None)
@given(_near_cyclic_tables())
def test_axiom_errors_follow_the_latin_then_associativity_order(table):
    expected = oracles.axiom_failure(table)
    if expected is None:
        assert ls.from_multiplication_table(table).order == len(table)
    else:
        with pytest.raises(ls.NotAGroup) as info:
            ls.from_multiplication_table(table)
        assert (str(info.value), info.value.witness) == expected


def _random_loop(rng, n):
    # a Latin square with identity 0 and two-sided inverses (x*y == 0
    # exactly when y*x == 0), filled cell by cell in row-major order with
    # shuffled candidates, backtracking on dead ends
    table = [[i if r == 0 else (r if i == 0 else None) for i in range(n)] for r in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        r, c = cells[k]
        used = set(table[r][:c]) | {table[i][c] for i in range(r)}
        choices = [v for v in range(n) if v not in used]
        if c < r:
            choices = [v for v in choices if (v == 0) == (table[c][r] == 0)]
        rng.shuffle(choices)
        for v in choices:
            table[r][c] = v
            if fill(k + 1):
                return True
        table[r][c] = None
        return False

    assert fill(0)
    return table


def _times_c2(table):
    # L x C2 with the C2 coordinate fastest: index 1 is central and
    # associates with everything, so a check that stopped at the first
    # generator would pass any non-associative L
    m = 2 * len(table)
    return [[2 * table[a // 2][b // 2] + (a % 2 ^ b % 2) for b in range(m)] for a in range(m)]


def _first_nonassociative_triple(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def test_validate_axioms_matches_exhaustive_scan_on_random_loops():
    rng = random.Random(20240611)
    accepted = rejected = 0
    for case in range(420):
        loop = _random_loop(rng, 2 + case % 7)
        for table in (loop, _times_c2(loop)) if len(loop) in (5, 6) else (loop,):
            n = len(table)
            assert len(_light_generators(np.asarray(table))) <= n.bit_length() - 1
            G = ls.FiniteGroup(table, trusted=True)
            if oracles.is_associative(table):
                ls.validate_axioms(G)
                accepted += 1
            else:
                with pytest.raises(ls.NotAGroup) as info:
                    ls.validate_axioms(G)
                assert info.value.witness == _first_nonassociative_triple(table)
                rejected += 1
    assert accepted >= 100 and rejected >= 100


def test_light_generator_count_is_logarithmic(small_zoo):
    for G in small_zoo:
        gens = _light_generators(G.table)
        assert len(gens) <= G.order.bit_length() - 1  # floor(log2 n)
        assert G.closure_of(gens).is_whole


def test_light_generators_match_the_closure_oracle(corpus, small_zoo):
    # in a group the orbit of 0 under right multiplication by the greedy
    # generators is the subgroup they generate, so the list is the same,
    # as given and with the elements other than the identity shuffled
    rng = np.random.default_rng(16)
    for G in [*corpus, *small_zoo]:
        perm = np.concatenate(([0], 1 + rng.permutation(G.order - 1)))
        shuffled = np.empty_like(G.table)
        shuffled[np.ix_(perm, perm)] = perm[G.table]
        for table in (G.table, shuffled):
            assert _light_generators(table) == oracles.light_generators_by_closure(table)


def test_from_table_rejects_broken_rows():
    with pytest.raises(ls.NotAGroup):
        ls.from_multiplication_table([[0, 0], [0, 0]])
    with pytest.raises(ls.NotAGroup):
        ls.from_multiplication_table([[0, 1], [1, 2]])
    with pytest.raises(ls.NotAGroup):
        ls.from_multiplication_table([[0, 1, 2], [1, 2, 0]])


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1], [1, 0.7]],  # int64 conversion would truncate 0.7 to 0
        [[0.0]],
        [["0"]],  # ... and parse the string
        [[0, "1"], ["1", 0]],
        [[True]],  # ... and read booleans as 0 and 1
        [[0, True], [True, 0]],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[False]]),
    ],
)
def test_from_table_rejects_non_integer_entries(table):
    with pytest.raises(ls.NotAGroup, match="must be integers"):
        ls.from_multiplication_table(table)


def test_from_table_accepts_integer_types():
    assert ls.from_multiplication_table(np.array([[0, 1], [1, 0]], dtype=np.uint8)).order == 2
    assert ls.from_multiplication_table([[np.int64(0)]]).order == 1
    with pytest.raises(ls.NotAGroup, match="64-bit"):
        ls.from_multiplication_table([[10**30]])
    with pytest.raises(ls.NotAGroup, match="square"):
        ls.from_multiplication_table([[0, 1], [1]])


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1], [1, 0.7]],  # an int32 cast would truncate 0.7 to 0
        np.array([[0, 2**32 + 1], [2**32 + 1, 0]]),  # ... and wrap 2**32 + 1 to 1
        [["0"]],  # ... and parse the string
    ],
)
def test_validating_constructor_checks_entries_before_casting(table):
    with pytest.raises(ls.NotAGroup):
        ls.FiniteGroup(table)


def test_validate_axioms_catches_tampering():
    class Tampered:
        def __init__(self, table):
            self.table = table

    broken = ls.cyclic_group(4).table.copy()
    broken[1, 1] = 1
    with pytest.raises(ls.NotAGroup):
        ls.validate_axioms(Tampered(broken))


def test_permutation_generators():
    S3 = ls.from_permutation_generators([[1, 0, 2], [1, 2, 0]], name="s3_from_gens")
    assert S3.order == 6
    assert not ls.is_abelian(S3)
    with pytest.raises(ls.NotAGroup):
        ls.from_permutation_generators([[0, 0, 1]])
    with pytest.raises(ls.NotAGroup):
        ls.from_permutation_generators([])


@pytest.mark.parametrize(
    "gens",
    [
        [[1.7, 0.2, 2]],  # int() would truncate this to the transposition (1 0 2)
        [[1.0, 0.0]],
        [[True, False]],  # ... and read booleans as 0 and 1
        [[np.float64(1), np.float64(0)]],
        [[np.bool_(True), np.bool_(False)]],
        [["1", "0"]],  # ... and parse strings
        [[1, 0], [0, 1.0]],  # a bad entry in a later generator
    ],
)
def test_permutation_generators_reject_non_integer_images(gens):
    with pytest.raises(ls.NotAGroup, match="must be integers"):
        ls.from_permutation_generators(gens)


def test_permutation_generators_accept_integer_types():
    gens = [np.array([1, 2, 0]), [np.int64(1), np.uint8(0), 2]]
    assert ls.from_permutation_generators(gens).order == 6


def test_permutation_closure_respects_cap():
    # 5-cycle and transposition generate all of S5
    with pytest.raises(ls.OrderCapExceeded):
        ls.from_permutation_generators([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], cap=60)


def _assert_matches_oracle(G, gens, cap=ls.DEFAULT_ORDER_CAP):
    table, labels = oracles.permutation_group(gens, cap)
    assert G.table.tolist() == table
    assert G.labels == labels


def test_catalog_permutation_groups_match_oracle(monkeypatch, tmp_path):
    calls = []

    def recording(gens, **kwargs):
        calls.append([list(g) for g in gens])
        return groups.from_permutation_generators(gens, **kwargs)

    monkeypatch.setattr(catalog, "from_permutation_generators", recording)
    for n in range(1, 7):
        for make in (ls.symmetric_group, ls.alternating_group):
            before = len(calls)
            G = make(n)
            if len(calls) == before:  # S1, A1 and A2 are built as the trivial table
                assert G.order == 1 and G.labels is None
            else:
                _assert_matches_oracle(G, calls[-1])
    assert len(calls) == 9
    # the same generators as perm records, read back through the corpus reader
    path = tmp_path / "perm.jsonl"
    path.write_text(
        "".join(
            json.dumps({"kind": "perm", "degree": len(g[0]), "generators": g}) + "\n"
            for g in calls
        )
    )
    for G, gens in zip(ls.read_corpus(path), calls):
        _assert_matches_oracle(G, gens)


@st.composite
def _generator_sets(draw):
    d = draw(st.integers(0, 7))
    gens = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
    return gens, draw(st.integers(1, 200))


@settings(max_examples=150, deadline=None)
@given(drawn=_generator_sets())
def test_permutation_closure_matches_oracle(drawn):
    gens, cap = drawn
    try:
        expected = oracles.permutation_group(gens, cap)
    except oracles.ClosureCapExceeded as exc:
        with pytest.raises(ls.OrderCapExceeded) as info:
            ls.from_permutation_generators(gens, cap=cap)
        assert (info.value.order, info.value.cap) == (exc.order, exc.cap)
        return
    G = ls.from_permutation_generators(gens, cap=cap)
    assert (G.table.tolist(), G.labels) == expected
    # trusted tables skip the axiom checks, so audit them here
    ls.validate_axioms(G)


def test_symmetric_6_builds_fast():
    # composing all n**2 pairs of permutations takes about 0.9 s for S6;
    # reading the table off the Cayley graph about 0.01 s
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        ls.symmetric_group(6)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.2


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv(ls.ORDER_CAP_ENV, "10")
    assert ls.order_cap() == 10
    with pytest.raises(ls.OrderCapExceeded):
        ls.cyclic_group(11)
    monkeypatch.delenv(ls.ORDER_CAP_ENV)
    assert ls.order_cap() == ls.DEFAULT_ORDER_CAP
    assert ls.order_cap(25) == 25


def test_direct_product_structure():
    G = ls.direct_product(ls.cyclic_group(2), ls.cyclic_group(3))
    assert G.order == 6
    assert sorted(oracles.element_orders(oracles.as_rows(G.table))) == [1, 2, 3, 3, 6, 6]
    assert G.display_name == "direct(cyclic(2),cyclic(3))"


def test_direct_product_matches_the_tiling_oracle():
    factors = [G for G in ls.named_reference_groups() if G.order > 1]
    by_name = {G.name: G for G in factors}
    pairs = [(G, H) for G in factors for H in factors if G.order * H.order <= 400]
    pairs.append((by_name["alternating(5)"], by_name["symmetric(4)"]))
    for G, H in pairs:
        got, want = ls.direct_product(G, H), oracles.direct_product_by_tiling(G, H)
        assert got.table.dtype == want.table.dtype == np.int32
        assert got.table.flags.c_contiguous and not got.table.flags.writeable
        assert np.array_equal(got.table, want.table), (G.name, H.name)
        assert got.labels == want.labels
        assert got.display_name == want.display_name
        pair_inverses = G.inverses[:, None].astype(np.int64) * H.order + H.inverses[None, :]
        assert np.array_equal(got.inverses, pair_inverses.ravel())
        assert np.array_equal(got.inverses, want.inverses)
    with pytest.raises(ls.OrderCapExceeded) as info:
        ls.direct_product(by_name["alternating(5)"], by_name["symmetric(4)"], cap=1439)
    assert (info.value.order, info.value.cap) == (1440, 1439)


def test_reference_corpus_builds_each_group_once(monkeypatch):
    # 243 groups, plus the one C2 that klein_four is built from: the
    # alternating(5) x symmetric(4) factors are the named groups themselves
    calls = []
    setup = groups.FiniteGroup._setup

    def counting(self, *args, **kwargs):
        calls.append(self)
        return setup(self, *args, **kwargs)

    monkeypatch.setattr(groups.FiniteGroup, "_setup", counting)
    corpus = ls.reference_corpus()
    assert len(corpus) == 243
    assert len(calls) == 244


def test_subgroup_wrapping(s4):
    V4 = min(
        (N for N in ls.normal_subgroups(s4) if N.order == 4),
        key=lambda N: N.elements,
    )
    assert V4.is_normal()
    assert V4 <= s4.whole()
    assert s4.trivial() < V4
    with pytest.raises(ls.NotClosed):
        s4.subgroup([0, 1, 2])


def test_bad_parameters_raise_group_errors():
    for n in (0, -3):
        with pytest.raises(ls.UnknownName):
            ls.cyclic_group(n)
    C3 = ls.cyclic_group(3)
    for seed in ([3], [-1], [0, 1, 7]):
        with pytest.raises(ls.UnknownName):
            C3.closure_of(seed)


def test_subgroup_requires_identity_and_lagrange(s4):
    with pytest.raises(ValueError):
        ls.Subgroup(s4, [1, 2])
    with pytest.raises(ValueError):
        ls.Subgroup(s4, list(range(5)))


def test_bad_arguments_raise_one_error(s4):
    # one GroupError subclass for every out-of-domain argument, still a ValueError
    calls = [
        lambda: ls.Subgroup(s4, [1, 2]),
        lambda: ls.Subgroup(s4, list(range(5))),
        lambda: ls.FiniteGroup(ls.cyclic_group(2).table, labels=["e"]),
        lambda: ls.AbelianInvariants((6,)),
        lambda: ls.is_pi_group(s4, []),
        lambda: ls.is_pi_group(s4, [2**31]),
        lambda: ls.is_pi_group(s4, [4]),
    ]
    for call in calls:
        with pytest.raises(ls.BadArgument) as info:
            call()
        assert isinstance(info.value, ls.GroupError) and isinstance(info.value, ValueError)


def test_quotient_group_is_homomorphic_image(s4):
    V4 = next(N for N in ls.normal_subgroups(s4) if N.order == 4)
    Q, proj = ls.quotient_group(s4, V4)
    assert Q.order == 6
    assert not ls.is_abelian(Q)
    parr = np.asarray(proj)
    assert (parr[s4.table] == Q.table[parr[:, None], parr[None, :]]).all()
    again, _ = ls.quotient_group(s4, V4)
    assert again is Q


def test_quotient_requires_normal(s4):
    sub = min(
        (S for S in (s4.closure_of([x]) for x in range(1, 24))
         if S.order == 2 and not S.is_normal()),
        key=lambda S: S.elements,
    )
    with pytest.raises(ls.NotNormal):
        ls.quotient_group(s4, sub)


def test_subgroup_as_group_memoized(s4):
    N = next(N for N in ls.normal_subgroups(s4) if N.order == 12)
    H1, back1 = ls.subgroup_as_group(s4, N)
    H2, back2 = ls.subgroup_as_group(s4, N)
    assert H1 is H2
    assert back1 == back2 == N.elements
    assert H1.order == 12


def test_central_product_with_embeddings():
    Q8 = ls.quaternion_group(8)
    C4 = ls.cyclic_group(4)
    z = next(x for x in range(8) if int(Q8.element_orders()[x]) == 2)
    prod, eg, eh = ls.central_product_with_embeddings(Q8, C4, {z: 2})
    assert prod.order == 16
    garr, harr = np.asarray(eg), np.asarray(eh)
    assert (garr[Q8.table] == prod.table[garr[:, None], garr[None, :]]).all()
    assert (harr[C4.table] == prod.table[harr[:, None], harr[None, :]]).all()
    assert eg[z] == eh[2]


def test_central_product_validates_pairing():
    Q8 = ls.quaternion_group(8)
    C4 = ls.cyclic_group(4)
    i = next(x for x in range(8) if int(Q8.element_orders()[x]) == 4)
    with pytest.raises(ls.NotCentral):
        ls.central_product_with_embeddings(Q8, C4, {i: 1})
    # central involution paired with an order-4 generator: the image {0, 1}
    # is not even a subgroup of C4
    z = next(x for x in range(8) if int(Q8.element_orders()[x]) == 2)
    with pytest.raises(ls.NotCentral):
        ls.central_product_with_embeddings(Q8, C4, {z: 1})
    # bijection of C4 fixing 0 that is not an automorphism
    with pytest.raises(ls.NotIsomorphism):
        ls.central_product_with_embeddings(C4, C4, {1: 1, 2: 3, 3: 2})
    with pytest.raises(ls.NotIsomorphism):
        ls.central_product_with_embeddings(C4, C4, {1: 0, 2: 1, 3: 2})


def test_abelian_invariants():
    assert ls.abelian_invariants(ls.cyclic_group(6)).primary_orders == (2, 3)
    assert ls.abelian_invariants(ls.cyclic_group(4)).primary_orders == (4,)
    assert ls.abelian_invariants(ls.klein_four_group()).primary_orders == (2, 2)
    C12 = ls.cyclic_group(12)
    assert ls.abelian_invariants(C12).primary_orders == (3, 4)
    assert ls.abelian_invariants(C12).order == 12
    with pytest.raises(ls.NotAbelian):
        ls.abelian_invariants(ls.dihedral_group(8))


def test_abelian_basis_spans(small_zoo):
    for G in small_zoo:
        if not ls.is_abelian(G):
            continue
        basis = ls.abelian_basis(G)
        total = 1
        for _, q in basis:
            total *= q
        assert total == G.order
        assert G.closure_of([b for b, _ in basis]).is_whole


def test_abelian_isomorphism_and_refusal():
    C6 = ls.cyclic_group(6)
    C2xC3 = ls.direct_product(ls.cyclic_group(2), ls.cyclic_group(3))
    iso = ls.abelian_isomorphism(C6, C2xC3)
    assert sorted(iso) == list(range(6))
    assert sorted(iso.values()) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert iso[C6.mult(a, b)] == C2xC3.mult(iso[a], iso[b])
    with pytest.raises(ls.NotIsomorphism):
        ls.abelian_isomorphism(ls.cyclic_group(4), ls.klein_four_group())


def test_frattini_cover_shapes():
    cover = ls.frattini_cover_abelian(ls.cyclic_group(2))
    assert cover.order == 4
    assert ls.abelian_invariants(cover).primary_orders == (4,)
    cover = ls.frattini_cover_abelian(ls.klein_four_group())
    assert ls.abelian_invariants(cover).primary_orders == (4, 4)
    cover = ls.frattini_cover_abelian(ls.cyclic_group(6))
    assert ls.abelian_invariants(cover).primary_orders == (4, 9)


def test_prime_helpers():
    from largesub.groups import pi_part, prime_factors

    assert prime_factors(1) == ()
    assert prime_factors(360) == (2, 3, 5)
    assert pi_part(360, (2,)) == 8
    assert pi_part(360, (2, 5)) == 40
    assert pi_part(7, (2, 3)) == 1


def test_labels():
    Q8 = ls.quaternion_group(8)
    assert Q8.labels is not None and len(Q8.labels) == 8
    assert Q8.label(0) == "1"
    S4 = ls.symmetric_group(4)
    assert S4.labels is not None
    C2 = ls.cyclic_group(2)
    assert C2.label(1) == "1"  # falls back to the index when unlabeled

"""The chief series, two-step core, pi-separability and supersoluble
residual are read off the canonical normal-subgroup list without building
any quotient.  Each is checked here against the quotient-group definition
it replaced, which the library keeps for user predicates
(class_residual, composition_factors, quotient_group).  Whether a group
is assembled from a built-in class is read off its chief factor orders,
and is checked against membership of its composition factor groups.

The normal structure of a subgroup S (classes, normal subgroups, minimal
and maximal normals, simplicity, quasi-simplicity) and the composition
series are computed on the parent's table.  They are checked against the
same functions on the induced group subgroup_as_group(G, S), mapped back,
and quasi-simplicity against its quotient-by-center definition.

Class membership is tested on a Subgroup inside its parent; every built-in
class is checked against the same test on the induced group, and
maximal_normal_members against the full scan over induced groups that it
replaced.

The cores, radicals and maximal normal subgroups come from one walk down
the lattice record that skips the members inside those already found.
Over the whole corpus they are checked against the full scan they
replaced: every normal member that passes, the largest one, and all of
them inside it.

A Subgroup holds only its sorted tuple of elements; membership,
containment, index_set and intersect are checked against frozensets built
from it."""

import itertools
import operator
import random

import pytest

import largesub as ls
from largesub.groups import pi_part

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


def _fresh(G):
    # a copy with empty caches, so the induced groups a test builds go with it
    return ls.FiniteGroup(G.table, name=G.name, trusted=True)


def _lift(back, subgroups, G):
    return [ls.Subgroup(G, [back[i] for i in T]) for T in subgroups]


def _quasisimple_by_quotient(H):
    # perfect, and simple modulo the center (the quotient-group definition)
    if H.order == 1 or ls.commutator_subgroup(H, H.whole(), H.whole()) != H.whole():
        return False
    return ls.is_simple(ls.quotient_group(H, ls.center(H))[0])


def test_subnormal_structure_matches_induced_groups(groups):
    for G in map(_fresh, groups):
        for S in ls.subnormal_subgroups(G):
            H, back = ls.subgroup_as_group(G, S)
            where = (G.display_name, S.elements)
            assert ls.conjugacy_classes(S) == [
                tuple(back[i] for i in c) for c in ls.conjugacy_classes(H)
            ], where
            assert ls.normal_subgroups(S) == _lift(back, ls.normal_subgroups(H), G), where
            if S.order > 1:
                for f in (ls.maximal_normal_subgroups, ls.minimal_normal_subgroups):
                    assert f(S) == _lift(back, f(H), G), (where, f.__name__)
            assert ls.socle(S) == _lift(back, [ls.socle(H)], G)[0], where
            assert ls.is_simple(S) == ls.is_simple(H), where
            assert ls.is_quasisimple(S) == _quasisimple_by_quotient(H), where


def _special_linear_2_5():
    # SL(2,5) on the 24 nonzero vectors of F_5^2, from [[1,1],[0,1]] and
    # [[0,4],[1,0]]: quasi-simple with a center of order 2
    vectors = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]

    def action(m):
        (p, q), (r, s) = m
        return [vectors.index(((p * a + q * b) % 5, (r * a + s * b) % 5)) for a, b in vectors]

    return ls.from_permutation_generators([action([[1, 1], [0, 1]]), action([[0, 4], [1, 0]])])


def test_quasisimple_with_a_nontrivial_center():
    # no corpus group has a component with a nontrivial center
    G = _special_linear_2_5()
    assert G.order == 120
    assert ls.is_quasisimple(G)
    assert ls.center(G).order == 2
    assert ls.is_quasisimple(G) == _quasisimple_by_quotient(G)
    P = ls.direct_product(G, ls.quaternion_group(8))
    assert P.order == 960
    assert ls.layer(P).subgroup.order == 120
    assert ls.verify_selector(P, "E").outcome == "pass"


def _composition_chain_by_induced_groups(G, rng=None):
    # the recursion composition_series used to make: the maximal normal
    # subgroups of each term, found in the induced group and mapped back
    chain = [G.whole()]
    while chain[-1].order > 1:
        H, back = ls.subgroup_as_group(G, chain[-1])
        cands = sorted(
            _lift(back, ls.maximal_normal_subgroups(H), G), key=lambda N: (-N.order, N.elements)
        )
        chain.append(cands[0] if rng is None else cands[rng.randrange(len(cands))])
    return tuple(chain)


def test_composition_series_matches_induced_recursion(groups):
    for i, G in enumerate(map(_fresh, groups)):
        assert ls.composition_series(G).chain == _composition_chain_by_induced_groups(G)
        seeded = ls.composition_series(G, rng=random.Random(i)).chain
        assert seeded == _composition_chain_by_induced_groups(G, random.Random(i)), G.display_name


BUILTIN_KEYS = (
    "abelian",
    "nilpotent",
    "nilpotent_class:2",
    "soluble",
    "soluble_derived:2",
    "supersoluble",
    "quasinilpotent",
    "pi_separable:2,3",
    "normal_hall_pi_prime:2",
)


def test_class_membership_in_the_parent_matches_induced_groups(groups):
    classes = [ls.builtin_class(key) for key in BUILTIN_KEYS]
    for G in map(_fresh, groups):
        normals = ls.normal_subgroups(G)
        induced = {N: ls.subgroup_as_group(G, N)[0] for N in normals}
        for X in classes:
            for N in normals:
                assert X.member(N) == X.member(induced[N]), (G.display_name, X.name, N.elements)
            # the full scan over induced groups that the top-down walk replaced
            members = [N for N in normals if X.member(induced[N])]
            expected = [N for N in members if not any(N < M for M in members)]
            assert ls.maximal_normal_members(G, X) == expected, (G.display_name, X.name)


# every built-in key, with bound variants and the prime sets whose rule
# looks at the primes of each simple factor
EXTENSION_KEYS = (
    "abelian",
    "nilpotent",
    "nilpotent_class:1",
    "nilpotent_class:2",
    "soluble",
    "soluble_derived:1",
    "soluble_derived:2",
    "supersoluble",
    "quasinilpotent",
    *(f"{name}:{','.join(map(str, pi))}"
      for pi in PRIME_SETS for name in ("pi_separable", "normal_hall_pi_prime")),
)


def test_extension_closure_matches_composition_factor_groups(groups):
    # the chief-factor rule of the built-in classes against membership of
    # every composition factor group, on G and on the induced group of each
    # normal subgroup of G
    classes = [ls.builtin_class(key) for key in EXTENSION_KEYS]
    assert all(X.simple_rule is not None for X in classes)
    for G in map(_fresh, groups):
        for H in [G, *(ls.subgroup_as_group(G, N)[0] for N in ls.normal_subgroups(G))]:
            factors = ls.composition_factors(H)
            for X in classes:
                expected = all(X.member(F) for F in factors)
                assert ls.in_extension_closure(X, H) == expected, (
                    G.display_name, H.order, X.name
                )


def test_class_membership_builds_no_group(small_zoo, monkeypatch):
    groups = list(map(_fresh, small_zoo))
    built = []
    init = ls.FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ls.FiniteGroup, "__init__", counting_init)
    for X in map(ls.builtin_class, BUILTIN_KEYS):
        for G in groups:
            ls.maximal_normal_members(G, X)
            if X.closed_under.fitting_class:
                ls.class_radical(G, X)
    assert built == []


# the built-in Fitting classes, with the prime sets of the radicals family
# of tools/dump_outputs.py
FITTING_KEYS = (
    "nilpotent",
    "soluble",
    "quasinilpotent",
    "pi_separable:2",
    "pi_separable:2,3",
    "normal_hall_pi_prime:2",
    "normal_hall_pi_prime:3",
)


def _full_scan(normals, test):
    # the old path: the largest passing member, asserted to contain every
    # other, and the number passing
    passing = [N for N in normals if test(N)]
    best = max(passing, key=lambda N: N.order)
    assert all(N <= best for N in passing)
    return best, len(passing)


def _maximal(members):
    return [N for N in members if not any(N < M for M in members)]


def _pi_sets(G):
    primes = ls.prime_factors(G.order)
    return [pi for r in range(1, len(primes) + 1) for pi in itertools.combinations(primes, r)]


def test_walk_cores_and_radicals_match_the_full_scan(corpus):
    for G in corpus:
        normals = ls.normal_subgroups(G)
        for pi in _pi_sets(G):
            where = (G.display_name, pi)
            core, passing = _full_scan(normals, lambda N: pi_part(N.order, pi) == N.order)
            got = ls.pi_core(G, pi)
            assert got.subgroup == core, where
            assert got.witness == (
                f"largest of {passing} normal subgroups with order supported on {set(pi)}"
            ), where
            complement = tuple(p for p in ls.prime_factors(G.order) if p not in pi)
            below, _ = _full_scan(normals, lambda N: pi_part(N.order, complement) == N.order)
            two_step, _ = _full_scan(
                normals,
                lambda M: below <= M
                and pi_part(M.order // below.order, pi) == M.order // below.order,
            )
            assert ls.pi_prime_pi_core(G, pi).subgroup == two_step, where
        radical, passing = _full_scan(normals, ls.is_soluble)
        got = ls.soluble_radical(G)
        assert got.subgroup == radical, G.display_name
        assert got.witness == f"largest of {passing} normal soluble subgroups", G.display_name


def test_walk_class_members_match_the_full_scan(corpus):
    classes = [ls.builtin_class(key) for key in dict.fromkeys(FITTING_KEYS + BUILTIN_KEYS)]
    for G in corpus:
        normals = ls.normal_subgroups(G)
        if len(normals) > 1:
            assert ls.maximal_normal_subgroups(G) == _maximal(normals[:-1]), G.display_name
        for X in classes:
            where = (G.display_name, X.name)
            passing = [N for N in normals if X.member(N)]
            assert ls.maximal_normal_members(G, X) == _maximal(passing), where
            if X.closed_under.fitting_class:
                radical, count = _full_scan(passing, lambda N: True)
                got = ls.class_radical(G, X)
                assert got.subgroup == radical, where
                assert got.witness == (
                    f"unique maximal normal {X.name}-subgroup among {count}"
                ), where


def test_subgroup_operations_match_frozenset_oracles(corpus):
    """Over every normal subgroup of the corpus: membership of each element
    of the group and of one index on either side, index_set, and <=, <
    and intersect with every member of the same lattice."""
    total = 0
    for G in corpus:
        normals = ls.normal_subgroups(G)
        total += len(normals)
        sets = [frozenset(N.elements) for N in normals]
        probe = range(-1, G.order + 1)
        for N, s in zip(normals, sets):
            where = (G.display_name, N.order)
            assert [x in N for x in probe] == [x in s for x in probe], where
            assert N.index_set == s, where
            for M, t in zip(normals, sets):
                assert (N <= M, N < M) == (s <= t, s < t), where
                assert ls.intersect(N, M).elements == tuple(sorted(s & t)), where
    assert total == 4842
    for G, H in zip(corpus, corpus[1:]):
        for N, M in ((G.trivial(), H.trivial()), (G.whole(), H.whole())):
            assert N != M
            for op in (operator.le, operator.lt, ls.intersect):
                with pytest.raises(ls.ForeignSubgroup):
                    op(N, M)

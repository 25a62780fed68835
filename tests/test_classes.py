"""Class predicates, their parameters and their closure declarations."""

import collections

import pytest

import largesub as ls
from largesub import classes, radicals


def test_abelian():
    assert ls.is_abelian(ls.cyclic_group(12))
    assert ls.is_abelian(ls.klein_four_group())
    assert not ls.is_abelian(ls.symmetric_group(3))
    assert not ls.is_abelian(ls.quaternion_group(8))


def test_nilpotency_class_values():
    assert ls.nilpotency_class(ls.trivial_group()) == 0
    assert ls.nilpotency_class(ls.cyclic_group(6)) == 1
    assert ls.nilpotency_class(ls.dihedral_group(8)) == 2
    assert ls.nilpotency_class(ls.quaternion_group(8)) == 2
    assert ls.nilpotency_class(ls.dihedral_group(16)) == 3
    assert ls.nilpotency_class(ls.symmetric_group(3)) is None


def test_derived_length_values(s4, sl23, a5):
    assert ls.derived_length(ls.trivial_group()) == 0
    assert ls.derived_length(ls.cyclic_group(2)) == 1
    assert ls.derived_length(ls.symmetric_group(3)) == 2
    assert ls.derived_length(s4) == 3
    assert ls.derived_length(sl23) == 3
    assert ls.derived_length(a5) is None


def _steps_to_trivial(series):
    return len(series.chain) - 1 if series.last.is_trivial else None


def _count_series_calls(monkeypatch, modules=(classes,)):
    """Count the commutator walks that nilpotency_class and derived_length
    make, under the name of the series each walks, and the series that any
    other of the modules given computes."""
    calls = collections.Counter()
    walk = classes._commutator_walk

    def counting_walk(start, *, derived):
        calls["derived_series" if derived else "lower_central_series"] += 1
        return walk(start, derived=derived)

    monkeypatch.setattr(classes, "_commutator_walk", counting_walk)
    for module in modules:
        for name in ("lower_central_series", "derived_series"):
            real = getattr(module, name, None)
            if real is None:
                continue

            def counting(x, real=real, name=name):
                calls[name] += 1
                return real(x)

            monkeypatch.setattr(module, name, counting)
    return calls


def test_invariants_memoized_per_subgroup(small_zoo, corpus, monkeypatch):
    calls = _count_series_calls(monkeypatch)
    for G in list(small_zoo) + corpus[::8]:
        targets = [G]
        for N in ls.normal_subgroups(G):
            targets += [N, ls.subgroup_as_group(G, N)[0]]
        for x in targets:
            # the unpatched series, recomputed on every call
            assert ls.nilpotency_class(x) == _steps_to_trivial(ls.lower_central_series(x))
            assert ls.derived_length(x) == _steps_to_trivial(ls.derived_series(x))
        calls.clear()
        for x in targets:
            ls.nilpotency_class(x)
            ls.derived_length(x)
        assert not calls, G.display_name


def test_invariants_memoize_none(monkeypatch):
    calls = _count_series_calls(monkeypatch)
    a5 = ls.alternating_group(5)
    assert ls.nilpotency_class(a5) is None
    assert ls.derived_length(a5) is None
    assert calls == {"lower_central_series": 1, "derived_series": 1}
    calls.clear()
    assert ls.nilpotency_class(a5) is None
    assert ls.derived_length(a5) is None
    assert not ls.is_soluble(a5.whole())
    assert not calls


def _fresh(G):
    # a copy with empty caches
    return ls.FiniteGroup(G.table, name=G.name, trusted=True)


def test_nilpotency_outside_the_fitting_subgroup_needs_no_series(corpus, monkeypatch):
    # a proper normal subgroup is nilpotent exactly when it lies in F(G)
    calls = _count_series_calls(monkeypatch)
    outside = 0
    for G in map(_fresh, corpus[::4]):
        F = ls.fitting_subgroup(G).subgroup
        for N in ls.normal_subgroups(G)[:-1]:
            if not N <= F:
                assert ls.nilpotency_class(N) is None, (G.display_name, N.elements)
                assert not ls.is_nilpotent(N)
                # the unpatched series agrees
                assert not ls.lower_central_series(N).last.is_trivial
                outside += 1
    assert outside > 100
    assert calls["lower_central_series"] == 0


def test_scan_computes_no_derived_series(corpus, monkeypatch):
    # solubility and abelian-ness are read off the lattice records
    calls = _count_series_calls(monkeypatch, (classes, radicals))
    records = ls.scan_exceptional(map(_fresh, corpus[::8]))
    assert len(records) == len(corpus[::8])
    assert {r.status for r in records} >= {"not_soluble", "residual_minimal"}
    assert calls["derived_series"] == 0


def test_claim_e_on_a_soluble_group_builds_no_sublattice(corpus):
    # a soluble group has no components, so E reads G's record alone
    checked = 0
    for G in map(_fresh, corpus[::8]):
        if not ls.is_soluble(G):
            continue
        assert ls.verify_selector(G, "E").outcome == "pass"
        proper = [k for k in G._cache if isinstance(k, tuple) and k[0] == "normal_lattice"]
        assert not proper, G.display_name
        assert ls.components(G) == []
        checked += 1
    assert checked > 20


def test_nilpotent_soluble_supersoluble(s4, a4, a5):
    assert ls.is_nilpotent(ls.dihedral_group(16))
    assert not ls.is_nilpotent(ls.symmetric_group(3))
    assert ls.is_soluble(s4)
    assert not ls.is_soluble(a5)
    assert ls.is_supersoluble(ls.dihedral_group(8))
    assert ls.is_supersoluble(ls.symmetric_group(3))
    # a chief factor of order 4 disqualifies both of these
    assert not ls.is_supersoluble(s4)
    assert not ls.is_supersoluble(a4)


def test_pi_predicates(s4, a4, a5):
    assert ls.is_pi_group(ls.dihedral_group(8), [2])
    assert not ls.is_pi_group(s4, [2])
    assert ls.is_pi_group(s4, [2, 3])
    assert ls.is_pi_separable(s4, [2])
    assert ls.is_pi_separable(s4, [3])
    assert not ls.is_pi_separable(a5, [2])
    assert ls.is_pi_separable(a5, [7])
    assert ls.has_normal_hall_pi_prime(a4, [3])
    assert not ls.has_normal_hall_pi_prime(a4, [2])
    assert ls.has_normal_hall_pi_prime(s4, [2, 3])


def test_pi_validation(s4):
    with pytest.raises(ValueError):
        ls.is_pi_group(s4, [])
    with pytest.raises(ValueError):
        ls.is_pi_group(s4, [4])
    with pytest.raises(ValueError):
        ls.is_pi_separable(s4, [1])
    # refused by range before any trial division (this one is prime)
    with pytest.raises(ValueError, match="out of range"):
        ls.is_pi_group(s4, [1000000000000000003])


def test_quasisimple(a5, sl23):
    assert ls.is_quasisimple(a5)
    # perfect? no: its derived subgroup has order 8
    assert not ls.is_quasisimple(sl23)
    assert not ls.is_quasisimple(ls.cyclic_group(5))
    assert not ls.is_quasisimple(ls.trivial_group())
    assert not ls.is_quasisimple(ls.symmetric_group(5))


def test_quasinilpotent(s4, a5):
    assert ls.is_quasinilpotent(ls.quaternion_group(8))
    assert ls.is_quasinilpotent(a5)
    assert ls.is_quasinilpotent(ls.direct_product(a5, ls.cyclic_group(2)))
    assert not ls.is_quasinilpotent(s4)
    assert not ls.is_quasinilpotent(ls.symmetric_group(3))


def test_minimal_supersoluble_residual(s4, a4, a4xa4, sl23, a5):
    assert ls.has_minimal_supersoluble_residual(a4)
    assert ls.has_minimal_supersoluble_residual(s4)
    assert ls.has_minimal_supersoluble_residual(ls.dihedral_group(12))
    assert not ls.has_minimal_supersoluble_residual(a4xa4)
    assert not ls.has_minimal_supersoluble_residual(sl23)
    with pytest.raises(ls.NotSoluble):
        ls.has_minimal_supersoluble_residual(a5)


def test_builtin_class_membership(s4, a5):
    assert ls.builtin_class("nilpotent").member(ls.dihedral_group(8))
    assert not ls.builtin_class("nilpotent").member(s4)
    assert ls.builtin_class("nilpotent_class:2").member(ls.quaternion_group(8))
    assert not ls.builtin_class("nilpotent_class:2").member(ls.dihedral_group(16))
    assert ls.builtin_class("nilpotent_class:3").member(ls.dihedral_group(16))
    assert ls.builtin_class("soluble_derived:3").member(s4)
    assert not ls.builtin_class("soluble_derived:2").member(s4)
    assert not ls.builtin_class("soluble_derived:5").member(a5)
    assert ls.builtin_class("pi_separable:2").member(s4)
    assert not ls.builtin_class("pi_separable:2,3").member(a5)
    assert ls.builtin_class("normal_hall_pi_prime:3").member(ls.alternating_group(4))
    assert ls.builtin_class("quasinilpotent").member(a5)


def test_builtin_class_flags():
    abelian = ls.builtin_class("abelian")
    assert abelian.closed_under.normal_subgroups
    assert abelian.closed_under.quotients
    assert abelian.closed_under.direct_products
    # extraspecial groups are central extensions of abelian groups, so the
    # class cannot declare that closure; same for saturation
    assert not abelian.closed_under.central_extensions
    assert not abelian.closed_under.solubly_saturated_formation
    assert not abelian.closed_under.fitting_class

    nilpotent = ls.builtin_class("nilpotent")
    for flag in (
        "normal_subgroups",
        "quotients",
        "direct_products",
        "central_extensions",
        "solubly_saturated_formation",
        "fitting_class",
    ):
        assert getattr(nilpotent.closed_under, flag), flag

    supersoluble = ls.builtin_class("supersoluble")
    assert supersoluble.closed_under.solubly_saturated_formation
    assert not supersoluble.closed_under.fitting_class


def test_bounded_class_not_central_extension_closed():
    bounded = ls.builtin_class("nilpotent_class:2")
    assert not bounded.closed_under.central_extensions
    # the witness: D16 is a central extension of the class-2 group D16/Z
    D16 = ls.dihedral_group(16)
    Z = ls.center(D16)
    assert Z.order == 2
    Q, _ = ls.quotient_group(D16, Z)
    assert bounded.member(Q)
    assert not bounded.member(D16)


def test_extension_closure(s4, a5):
    soluble = ls.builtin_class("soluble")
    assert ls.in_extension_closure(soluble, s4)
    assert not ls.in_extension_closure(soluble, a5)
    nilpotent = ls.builtin_class("nilpotent")
    # every composition factor of S4 is cyclic of prime order
    assert ls.in_extension_closure(nilpotent, s4)


def test_extension_closure_of_builtin_classes_builds_no_group(monkeypatch):
    # fresh groups, so no composition factor is cached from another test
    groups = [
        ls.symmetric_group(4),
        ls.alternating_group(5),
        ls.special_linear_2_3(),
        ls.direct_product(ls.alternating_group(5), ls.cyclic_group(6)),
    ]
    keys = (
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
    built = []
    init = ls.FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ls.FiniteGroup, "__init__", counting_init)
    for X in map(ls.builtin_class, keys):
        for G in groups:
            ls.in_extension_closure(X, G)
    assert built == []


def test_extension_closure_of_user_classes_tests_factor_groups():
    seen = []

    def member(F):
        seen.append(F)
        return ls.is_soluble(F)

    user = ls.ClassPredicate("user_soluble", member, ls.ClosureFlags(normal_subgroups=True))
    assert user.simple_rule is None
    assert ls.in_extension_closure(user, ls.symmetric_group(4))
    assert [F.order for F in seen] == [2, 3, 2, 2]
    assert all(isinstance(F, ls.FiniteGroup) for F in seen)


def test_extension_closure_needs_declared_flag(s4):
    bare = ls.ClassPredicate("mystery", ls.is_abelian, ls.ClosureFlags())
    with pytest.raises(ls.ClosureNotDeclared):
        ls.in_extension_closure(bare, s4)


@pytest.mark.parametrize(
    "key",
    [
        "frobenius",
        "nilpotent:7",
        "nilpotent_class",
        "nilpotent_class:x",
        "nilpotent_class:0",
        "soluble_derived:0",
        "pi_separable",
        "pi_separable:4",
        "normal_hall_pi_prime:one",
    ],
)
def test_bad_class_keys(key):
    with pytest.raises(ls.UnknownClass):
        ls.builtin_class(key)


def test_builtin_class_keys_resolve():
    # every advertised key resolves once its placeholder is instantiated
    filled = {
        "nilpotent_class:c": "nilpotent_class:2",
        "soluble_derived:d": "soluble_derived:2",
        "pi_separable:p1,p2,...": "pi_separable:2,3",
        "normal_hall_pi_prime:p1,p2,...": "normal_hall_pi_prime:2",
    }
    for key in ls.BUILTIN_CLASS_KEYS:
        ls.builtin_class(filled.get(key, key))

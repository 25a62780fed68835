"""Named group constructors and the key parser."""

import pytest

import largesub as ls

from oracles import element_orders as brute_element_orders


def test_family_orders():
    assert ls.trivial_group().order == 1
    assert ls.klein_four_group().order == 4
    assert ls.cyclic_group(7).order == 7
    assert ls.dihedral_group(12).order == 12
    assert ls.quaternion_group(8).order == 8
    assert ls.symmetric_group(4).order == 24
    assert ls.symmetric_group(6).order == 720
    assert ls.alternating_group(4).order == 12
    assert ls.alternating_group(5).order == 60
    assert ls.special_linear_2_3().order == 24


def test_degenerate_members():
    # the tiny ends of each family collapse to known groups
    assert ls.symmetric_group(1).order == 1
    assert ls.symmetric_group(2).order == 2
    assert ls.alternating_group(1).order == 1
    assert ls.alternating_group(2).order == 1
    assert ls.alternating_group(3).order == 3
    assert ls.dihedral_group(2).order == 2


def test_dihedral_structure():
    D8 = ls.dihedral_group(8)
    orders = sorted(int(o) for o in D8.element_orders())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
    stats = sorted(brute_element_orders([list(r) for r in D8.table]))
    assert stats == orders


def test_quaternion_structure():
    Q8 = ls.quaternion_group(8)
    orders = sorted(int(o) for o in Q8.element_orders())
    # one involution only, the hallmark of Q8 among order-8 groups
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert Q8.label(0) == "1"
    assert Q8.label(1) == "-1"


def test_sl23_structure():
    G = ls.special_linear_2_3()
    assert G.order == 24
    orders = sorted(int(o) for o in G.element_orders())
    assert orders.count(6) == 8
    assert orders.count(4) == 6
    assert orders.count(3) == 8
    assert orders.count(2) == 1
    assert G.label(0) == "[[1,0],[0,1]]"


def test_dihedral6_isomorphic_to_symmetric3():
    D6 = ls.dihedral_group(6)
    S3 = ls.symmetric_group(3)
    assert sorted(map(int, D6.element_orders())) == sorted(map(int, S3.element_orders()))


def test_out_of_range_names():
    with pytest.raises(ls.UnknownName):
        ls.dihedral_group(5)
    with pytest.raises(ls.UnknownName):
        ls.quaternion_group(16)
    with pytest.raises(ls.UnknownName):
        ls.symmetric_group(7)
    with pytest.raises(ls.UnknownName):
        ls.alternating_group(0)
    with pytest.raises(ls.UnknownName):
        ls.named_group("sl(3,3)")
    with pytest.raises(ls.UnknownName):
        ls.named_group("monster")
    with pytest.raises(ls.UnknownName):
        ls.named_group("cyclic(2,3)")
    with pytest.raises(ls.UnknownName):
        ls.named_group("cyclic")
    with pytest.raises(ls.UnknownName):
        ls.named_group("Cyclic(6!)")


def test_named_group_parsing():
    assert ls.named_group("cyclic(6)").order == 6
    assert ls.named_group("  sl( 2 , 3 ) ").order == 24
    assert ls.named_group("klein_four").name == "klein_four"
    assert ls.named_group("dihedral( 10 )").order == 10


def test_catalog_keys_are_pinned():
    assert ls.CATALOG_KEYS == (
        "trivial",
        "klein_four",
        "cyclic(n)",
        "dihedral(order)",
        "quaternion(8)",
        "symmetric(n<=6)",
        "alternating(n<=6)",
        "sl(2,3)",
    )


def _same_group(G, H):
    assert G.table.tobytes() == H.table.tobytes()
    assert (G.name, G.labels) == (H.name, H.labels)


def test_named_group_builds_every_family():
    built = {
        "trivial": ls.trivial_group(),
        "klein_four": ls.klein_four_group(),
        "cyclic(6)": ls.cyclic_group(6),
        "dihedral(8)": ls.dihedral_group(8),
        "quaternion(8)": ls.quaternion_group(8),
        "symmetric(4)": ls.symmetric_group(4),
        "alternating(5)": ls.alternating_group(5),
        "sl(2,3)": ls.special_linear_2_3(),
        "direct(cyclic(2),cyclic(3))": ls.direct_product(ls.cyclic_group(2), ls.cyclic_group(3)),
    }
    for key, G in built.items():
        _same_group(ls.named_group(key), G)


def _glue_centers_of_order_two(A, B):
    # the only isomorphism between two centers of order 2
    (za,) = [z for z in ls.center(A).elements if z]
    (zb,) = [z for z in ls.center(B).elements if z]
    name = f"central({A.name},{B.name})"
    return ls.central_product_with_embeddings(A, B, {0: 0, za: zb}, name=name)[0]


def test_nested_expressions_match_the_builders():
    C2, C3, S3 = ls.cyclic_group(2), ls.cyclic_group(3), ls.symmetric_group(3)
    Q8, SL23 = ls.quaternion_group(8), ls.special_linear_2_3()
    _same_group(
        ls.named_group("direct(direct(cyclic(2),cyclic(3)),symmetric(3))"),
        ls.direct_product(ls.direct_product(C2, C3), S3),
    )
    central = _glue_centers_of_order_two(SL23, Q8)
    _same_group(ls.named_group(" central( sl(2,3), quaternion(8) ) "), central)
    _same_group(
        ls.named_group("direct(central(sl(2,3),quaternion(8)),cyclic(3))"),
        ls.direct_product(central, C3),
    )
    _same_group(
        ls.named_group("central(dihedral(8),direct(quaternion(8),trivial))"),
        _glue_centers_of_order_two(
            ls.dihedral_group(8), ls.direct_product(Q8, ls.trivial_group())
        ),
    )
    # an explicit cap reaches the parts of a nested build
    with pytest.raises(ls.OrderCapExceeded):
        ls.named_group("central(sl(2,3),quaternion(8))", cap=50)
    assert ls.named_group("central(sl(2,3),quaternion(8))", cap=96).order == 96


def test_catalog_keys_mention_every_family():
    text = " ".join(ls.CATALOG_KEYS)
    for family in ("trivial", "klein_four", "cyclic", "dihedral",
                   "quaternion", "symmetric", "alternating", "sl"):
        assert family in text


def test_catalog_respects_order_cap(monkeypatch):
    with pytest.raises(ls.OrderCapExceeded):
        ls.symmetric_group(6, cap=100)
    with pytest.raises(ls.OrderCapExceeded):
        ls.dihedral_group(16, cap=10)
    for key in ("sl(2,3)", "quaternion(8)"):
        with pytest.raises(ls.OrderCapExceeded):
            ls.named_group(key, cap=4)
    with pytest.raises(ls.OrderCapExceeded):
        ls.special_linear_2_3(cap=23)
    assert ls.quaternion_group(8, cap=8).order == 8
    monkeypatch.setenv("LARGESUB_ORDER_CAP", "4")
    for key in ("sl(2,3)", "quaternion(8)", "dihedral(8)", "symmetric(3)"):
        with pytest.raises(ls.OrderCapExceeded):
            ls.named_group(key)
    assert ls.named_group("klein_four").order == 4
    # an explicit cap overrides the environment for every part of a build
    monkeypatch.setenv("LARGESUB_ORDER_CAP", "1")
    assert ls.named_group("klein_four", cap=4).order == 4
    assert ls.klein_four_group(cap=4).order == 4
    # a cap of 0 admits no group, not even the trivial one
    builders = [
        ls.trivial_group,
        ls.klein_four_group,
        ls.special_linear_2_3,
        lambda cap: ls.cyclic_group(1, cap=cap),
        lambda cap: ls.dihedral_group(2, cap=cap),
        lambda cap: ls.quaternion_group(8, cap=cap),
        *(lambda cap, n=n: ls.symmetric_group(n, cap=cap) for n in range(1, 7)),
        *(lambda cap, n=n: ls.alternating_group(n, cap=cap) for n in range(1, 7)),
    ]
    for build in builders:
        with pytest.raises(ls.OrderCapExceeded):
            build(cap=0)
    monkeypatch.setenv("LARGESUB_ORDER_CAP", "0")
    for build in builders:
        with pytest.raises(ls.OrderCapExceeded):
            build(cap=None)
    for key in ("trivial", "symmetric(1)", "alternating(1)", "alternating(2)", "cyclic(1)"):
        with pytest.raises(ls.OrderCapExceeded):
            ls.named_group(key)

"""Named small groups, built from scratch.

Keys follow the spelling used on the command line: trivial, klein_four,
cyclic(n), dihedral(k) with k the group order (even), quaternion(8),
symmetric(n) and alternating(n) for n <= 6, and sl(2,3) as explicit 2x2
matrices over the field with three elements.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import UnknownName
from .groups import (
    FiniteGroup,
    _check_cap,
    cyclic_group,
    direct_product,
    from_permutation_generators,
)


def trivial_group(*, cap=None) -> FiniteGroup:
    _check_cap(1, cap)
    return FiniteGroup(np.zeros((1, 1), dtype=np.int32), name="trivial", trusted=True)


def klein_four_group(*, cap=None) -> FiniteGroup:
    C2 = cyclic_group(2, cap=cap)
    G = direct_product(C2, C2, cap=cap)
    return FiniteGroup(G.table, name="klein_four", trusted=True)


def dihedral_group(order: int, *, cap=None) -> FiniteGroup:
    """Dihedral group of the given (even) order: k rotations and k flips,
    element (a, b) standing for rotation^a * flip^b."""
    if order < 2 or order % 2 != 0:
        raise UnknownName(f"dihedral order must be even and >= 2, got {order}")
    _check_cap(order, cap)
    k = order // 2
    table = np.empty((order, order), dtype=np.int32)
    for a1 in range(k):
        for b1 in range(2):
            i = a1 * 2 + b1
            for a2 in range(k):
                for b2 in range(2):
                    j = a2 * 2 + b2
                    a = (a1 + (a2 if b1 == 0 else -a2)) % k
                    table[i, j] = a * 2 + ((b1 + b2) % 2)
    labels = tuple(f"r{i // 2}" + ("s" if i % 2 else "") for i in range(order))
    return FiniteGroup(table, name=f"dihedral({order})", labels=labels, trusted=True)


_QUAT_MUL = {
    # unit quaternion axes: 0 = 1, 1 = i, 2 = j, 3 = k; sign handled apart
    (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
    (1, 2): (3, 1), (2, 1): (3, -1),
    (2, 3): (1, 1), (3, 2): (1, -1),
    (3, 1): (2, 1), (1, 3): (2, -1),
}


def quaternion_group(order: int = 8, *, cap=None) -> FiniteGroup:
    if order != 8:
        raise UnknownName(f"only the order-8 quaternion group is built in, got {order}")
    _check_cap(8, cap)
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(x, y):
        ax, sx = x // 2, 1 - 2 * (x % 2)
        ay, sy = y // 2, 1 - 2 * (y % 2)
        if ax == 0:
            az, sz = ay, sx * sy
        elif ay == 0:
            az, sz = ax, sx * sy
        else:
            az, s = _QUAT_MUL[(ax, ay)]
            sz = sx * sy * s
        return az * 2 + (0 if sz == 1 else 1)

    table = np.asarray([[mul(x, y) for y in range(8)] for x in range(8)], dtype=np.int32)
    return FiniteGroup(table, name="quaternion(8)", labels=tuple(names), trusted=True)


def symmetric_group(n: int, *, cap=None) -> FiniteGroup:
    if not 1 <= n <= 6:
        raise UnknownName(f"symmetric({n}) is outside the built-in range 1..6")
    if n == 1:
        _check_cap(1, cap)
        return FiniteGroup(np.zeros((1, 1), dtype=np.int32), name="symmetric(1)", trusted=True)
    gens = ([1, 0, *range(2, n)], [*range(1, n), 0])
    return from_permutation_generators(gens, name=f"symmetric({n})", cap=cap)


def alternating_group(n: int, *, cap=None) -> FiniteGroup:
    if not 1 <= n <= 6:
        raise UnknownName(f"alternating({n}) is outside the built-in range 1..6")
    if n <= 2:
        _check_cap(1, cap)
        return FiniteGroup(np.zeros((1, 1), dtype=np.int32), name=f"alternating({n})", trusted=True)
    three_cycles = []
    for c in range(2, n):
        # (0 1 c)
        img = list(range(n))
        img[0], img[1], img[c] = 1, c, 0
        three_cycles.append(img)
    return from_permutation_generators(three_cycles, name=f"alternating({n})", cap=cap)


def special_linear_2_3(*, cap=None) -> FiniteGroup:
    """All 2x2 matrices over the 3-element field with determinant 1."""
    _check_cap(24, cap)
    mats = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 1:
                        mats.append((a, b, c, d))
    mats.sort(key=lambda m: m != (1, 0, 0, 1))  # identity first
    index = {m: i for i, m in enumerate(mats)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    n = len(mats)
    table = np.asarray(
        [[index[mul(mats[i], mats[j])] for j in range(n)] for i in range(n)],
        dtype=np.int32,
    )
    labels = tuple(f"[[{a},{b}],[{c},{d}]]" for a, b, c, d in mats)
    G = FiniteGroup(table, name="sl(2,3)", labels=labels, trusted=True)
    return G


_NAME_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*(?:\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\))?\s*$")


def named_group(key: str, *, cap=None) -> FiniteGroup:
    """Resolve a catalog key such as 'cyclic(6)', 'sl(2,3)' or 'klein_four'."""
    m = _NAME_RE.match(key)
    if not m:
        raise UnknownName(f"cannot parse group name {key!r}")
    base = m.group(1)
    args = tuple(int(a) for a in m.group(2).split(",")) if m.group(2) else ()
    return _dispatch(base, args, cap)


def _dispatch(base: str, args: tuple[int, ...], cap) -> FiniteGroup:
    def arity(k):
        if len(args) != k:
            raise UnknownName(f"{base} takes {k} argument(s), got {len(args)}")

    if base == "trivial":
        arity(0)
        return trivial_group(cap=cap)
    if base == "klein_four":
        arity(0)
        return klein_four_group(cap=cap)
    if base == "cyclic":
        arity(1)
        return cyclic_group(args[0], cap=cap)
    if base == "dihedral":
        arity(1)
        return dihedral_group(args[0], cap=cap)
    if base == "quaternion":
        arity(1)
        return quaternion_group(args[0], cap=cap)
    if base == "symmetric":
        arity(1)
        return symmetric_group(args[0], cap=cap)
    if base == "alternating":
        arity(1)
        return alternating_group(args[0], cap=cap)
    if base == "sl":
        if args != (2, 3):
            raise UnknownName("only sl(2,3) is built in")
        return special_linear_2_3(cap=cap)
    raise UnknownName(f"unknown group name {base!r}")


CATALOG_KEYS = (
    "trivial",
    "klein_four",
    "cyclic(n)",
    "dihedral(order)",
    "quaternion(8)",
    "symmetric(n<=6)",
    "alternating(n<=6)",
    "sl(2,3)",
)

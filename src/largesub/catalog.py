"""Named small groups, built from scratch, and the group expressions
that name them.

Keys follow the spelling used on the command line: trivial, klein_four,
cyclic(n), dihedral(k) with k the group order (even), quaternion(8),
symmetric(n) and alternating(n) for n <= 6, and sl(2,3) as explicit 2x2
matrices over the field with three elements.  The combinators direct(a,b)
and central(a,b) take group expressions; central(a,b) glues the full
centers of a and b along the canonical basis isomorphism.  Each family is
one row of _FAMILIES, which gives its argument kinds, its builder and its
spelling in CATALOG_KEYS; named_group evaluates any expression off it.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import UnknownName
from .groups import (
    FiniteGroup,
    _check_cap,
    abelian_isomorphism,
    central_product_with_embeddings,
    cyclic_group,
    direct_product,
    from_permutation_generators,
    subgroup_as_group,
)
from .structure import center


def trivial_group(*, cap=None) -> FiniteGroup:
    _check_cap(1, cap)
    return FiniteGroup(np.zeros((1, 1), dtype=np.int32), name="trivial", trusted=True)


def klein_four_group(*, cap=None) -> FiniteGroup:
    C2 = cyclic_group(2, cap=cap)
    return direct_product(C2, C2, name="klein_four", cap=cap)


def dihedral_group(order: int, *, cap=None) -> FiniteGroup:
    """Dihedral group of the given (even) order: k rotations and k flips,
    element (a, b) standing for rotation^a * flip^b."""
    if order < 2 or order % 2 != 0:
        raise UnknownName(f"dihedral order must be even and >= 2, got {order}")
    _check_cap(order, cap)
    k = order // 2
    # index 2a + b; r^a1 s^b1 * r^a2 s^b2 = r^(a1 ± a2) s^(b1 + b2), minus
    # when b1 = 1
    a, b = np.divmod(np.arange(order, dtype=np.int32), 2)
    rot = (a[:, None] + (1 - 2 * b)[:, None] * a[None, :]) % k
    table = rot * 2 + (b[:, None] + b[None, :]) % 2
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


def _special_linear(n: int, q: int, *, cap=None) -> FiniteGroup:
    if (n, q) != (2, 3):
        raise UnknownName("only sl(2,3) is built in")
    return special_linear_2_3(cap=cap)


def _central_of_centers(A: FiniteGroup, B: FiniteGroup, *, cap=None) -> FiniteGroup:
    """The central product gluing the full centers of A and B along the
    canonical basis isomorphism (NotIsomorphism when they differ)."""
    Ag, back_a = subgroup_as_group(A, center(A))
    Bg, back_b = subgroup_as_group(B, center(B))
    iso = abelian_isomorphism(Ag, Bg)
    pairing = {back_a[a]: back_b[b] for a, b in iso.items()}
    name = None
    if A.name and B.name:
        name = f"central({A.name},{B.name})"
    return central_product_with_embeddings(A, B, pairing, name=name, cap=cap)[0]


# family -> (argument kinds, builder, spelling in CATALOG_KEYS or None): kind
# "n" is an integer and "g" a group expression; the builder takes the
# arguments in order and the cap
_FAMILIES = {
    "trivial": ("", trivial_group, "trivial"),
    "klein_four": ("", klein_four_group, "klein_four"),
    "cyclic": ("n", cyclic_group, "cyclic(n)"),
    "dihedral": ("n", dihedral_group, "dihedral(order)"),
    "quaternion": ("n", quaternion_group, "quaternion(8)"),
    "symmetric": ("n", symmetric_group, "symmetric(n<=6)"),
    "alternating": ("n", alternating_group, "alternating(n<=6)"),
    "sl": ("nn", _special_linear, "sl(2,3)"),
    "direct": ("gg", direct_product, None),
    "central": ("gg", _central_of_centers, None),
}
CATALOG_KEYS = tuple(key for _, _, key in _FAMILIES.values() if key)

_HEAD_RE = re.compile(r"([a-z_][a-z0-9_]*)\s*(?:\((.*)\))?", re.DOTALL)


def named_group(text: str, *, cap=None) -> FiniteGroup:
    """Evaluate a group expression: a catalog key such as 'cyclic(6)',
    'sl(2,3)' or 'klein_four', or direct(a,b) or central(a,b) of group
    expressions, nested freely up to the interpreter's recursion limit;
    deeper nesting is refused as UnknownName.  The cap reaches every part
    of the build."""
    try:
        return _evaluate(text, cap)
    except RecursionError:
        raise UnknownName("group expression nested too deeply") from None


def _evaluate(text: str, cap) -> FiniteGroup:
    text = text.strip()
    m = _HEAD_RE.fullmatch(text)
    if m is None:
        raise UnknownName(f"cannot parse group name {text!r}")
    head, body = m.groups()
    if head not in _FAMILIES:
        raise UnknownName(f"unknown group name {head!r}")
    kinds, build, _ = _FAMILIES[head]
    parts = [] if body is None else _split_top_level(body, text)
    if len(parts) != len(kinds):
        raise UnknownName(f"{head} takes {len(kinds)} argument(s), got {len(parts)}")
    args = []
    for kind, part in zip(kinds, parts):
        if kind == "g":
            args.append(_evaluate(part, cap))
        elif (digits := part.strip()).isascii() and digits.isdigit():
            args.append(int(digits))
        else:
            raise UnknownName(f"cannot parse group name {text!r}")
    return build(*args, cap=cap)


def _split_top_level(inner: str, whole: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UnknownName(f"unbalanced parentheses in {whole!r}")
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    if depth != 0:
        raise UnknownName(f"unbalanced parentheses in {whole!r}")
    parts.append(inner[start:])
    return parts

"""Brute-force reference implementations used to cross-check the library.

Everything here works on a plain list-of-lists multiplication table and
favors the most obvious loops over any cleverness; the point is to be
unarguably correct, not fast.  Keep the inputs tiny.
"""

import itertools


def as_rows(table):
    """Accept a numpy table or nested lists; return nested lists of int."""
    return [[int(v) for v in row] for row in table]


def inverse(table, a):
    for b in range(len(table)):
        if table[a][b] == 0 and table[b][a] == 0:
            return b
    raise ValueError(f"no inverse for {a}")


def conjugate(table, x, g):
    return table[table[inverse(table, g)][x]][g]


def closure(table, seed):
    out = {0} | {int(x) for x in seed}
    while True:
        new = {table[a][b] for a in out for b in out} - out
        if not new:
            return sorted(out)
        out |= new


def centralizer(table, elems):
    return [
        g
        for g in range(len(table))
        if all(table[g][x] == table[x][g] for x in elems)
    ]


def center(table):
    return centralizer(table, range(len(table)))


def conjugacy_class(table, x):
    return tuple(sorted({conjugate(table, x, g) for g in range(len(table))}))


def conjugacy_classes(table):
    classes, seen = [], set()
    for x in range(len(table)):
        if x in seen:
            continue
        c = conjugacy_class(table, x)
        classes.append(c)
        seen.update(c)
    return classes


def is_subgroup(table, elems):
    s = {int(x) for x in elems}
    return 0 in s and all(table[a][b] in s for a in s for b in s)


def is_normal(table, elems):
    s = {int(x) for x in elems}
    return is_subgroup(table, s) and all(
        conjugate(table, x, g) in s for x in s for g in range(len(table))
    )


def normal_subgroups(table):
    """All normal subgroups via the powerset of nonidentity conjugacy
    classes.  A union of classes containing the identity is normal exactly
    when it is multiplicatively closed.  Exponential in the class count."""
    classes = conjugacy_classes(table)
    rest = [c for c in classes if c != (0,)]
    if len(rest) > 13:
        raise ValueError("too many classes for the powerset oracle")
    out = set()
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            elems = {0} | {x for c in combo for x in c}
            if is_subgroup(table, elems):
                out.add(tuple(sorted(elems)))
    return sorted(out)


def commutator_subgroup(table, first, second):
    gens = set()
    for a in first:
        for b in second:
            ia, ib = inverse(table, a), inverse(table, b)
            gens.add(table[table[table[ia][ib]][a]][b])
    return closure(table, gens)


def commutator_series(table, elems, *, derived):
    """The derived series (derived=True) or the lower central series of the
    subgroup elems, as sorted lists: commutator subgroups of the last term
    with itself, or with elems, until a term repeats."""
    chain = [sorted(int(x) for x in elems)]
    while True:
        nxt = commutator_subgroup(table, chain[-1] if derived else chain[0], chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def element_orders(table):
    orders = []
    for x in range(len(table)):
        k, acc = 1, x
        while acc != 0:
            acc = table[acc][x]
            k += 1
        orders.append(k)
    return orders


def all_subgroups(table):
    """Every subgroup, by closing each known subgroup with each outside
    element until nothing new appears.  Fine up to order ~24."""
    known = {(0,)}
    frontier = [(0,)]
    while frontier:
        S = frontier.pop()
        for x in range(len(table)):
            if x in S:
                continue
            T = tuple(closure(table, set(S) | {x}))
            if T not in known:
                known.add(T)
                frontier.append(T)
    return sorted(known)


def induced_table(table, elems):
    """The multiplication table of a subgroup on reindexed elements."""
    elems = sorted(int(x) for x in elems)
    pos = {e: i for i, e in enumerate(elems)}
    return [[pos[table[a][b]] for b in elems] for a in elems]


def abelian_order_statistics(table):
    """Sorted element orders; a complete isomorphism invariant for finite
    abelian groups."""
    return sorted(element_orders(table))


def is_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


class ClosureCapExceeded(Exception):
    """The oracle's permutation closure outgrew its cap."""

    def __init__(self, order, cap):
        super().__init__(order, cap)
        self.order = order
        self.cap = cap


def permutation_group(gens, cap):
    """Table and labels of the group generated by one-line permutations:
    the same depth-first closure as the library (pop the last element found,
    right-multiply by each generator), then all n**2 compositions."""
    degree = len(gens[0])
    identity = tuple(range(degree))
    elems, index, queue = [identity], {identity: 0}, [identity]
    while queue:
        p = queue.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(degree))
            if q not in index:
                if len(elems) >= cap:
                    raise ClosureCapExceeded(len(elems) + 1, cap)
                index[q] = len(elems)
                elems.append(q)
                queue.append(q)
    table = [
        [index[tuple(p[q[k]] for k in range(degree))] for q in elems] for p in elems
    ]
    labels = tuple("(" + " ".join(map(str, p)) + ")" for p in elems)
    return table, labels


def integer_entries(values):
    """The corpus reader's table entry check, one Python type test per
    entry: the parsed list when every entry is an int, else None.  JSON
    true and false load as bool, a subclass of int, and do not count."""
    return values if all(type(v) is int for v in values) else None


def axiom_failure(table):
    """(message, witness) of the first failed axiom of a table whose index 0
    is a two-sided identity with two-sided inverses, checked in the order
    the library reports them: a row repeating a product, a column repeating
    one, a triple (a, b, c) with (ab)c != a(bc) in lexicographic order.
    None for a group."""
    n = len(table)
    for r in range(n):
        if len(set(table[r])) < n:
            return f"row {r} repeats a product", ("row", r)
    for c in range(n):
        if len({table[r][c] for r in range(n)}) < n:
            return f"column {c} repeats a product", ("column", c)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"associativity fails at ({a}, {b}, {c})", (a, b, c)
    return None

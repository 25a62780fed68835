"""Brute-force reference implementations used to cross-check the library.

Everything here works on a plain list-of-lists multiplication table and
favors the most obvious loops over any cleverness; the point is to be
unarguably correct, not fast.  Keep the inputs tiny.  The exception is
light_generators_by_closure, a numpy routine built on the library's
closure, which is fast enough to check every corpus group,
direct_product_by_tiling, which builds product tables with whole-array
repeats and tiles, and commutator_subgroup and normal_closure,
element-level gathers on a library group (over every element given, then
closed) that are the references for the lattice record's commutators and
normal closures.
"""

import itertools

import numpy as np

from largesub.groups import _EMPTY, FiniteGroup, Subgroup, _close
from largesub.structure import _as_subgroup, _elements_array


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


def commutator_closure(table, first, second):
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
        nxt = commutator_closure(table, chain[-1] if derived else chain[0], chain[-1])
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


def light_generators_by_closure(table):
    """Greedy generators for Light's test, each step closing the set under
    products on both sides: the least index outside the closure so far,
    until the closure is everything.  None once more than floor(log2 n)
    would be needed.  The library grows the same set as a one-sided orbit,
    which gives the same list on every group."""
    table = np.asarray(table)
    n = table.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    gens = []
    while not inside.all():
        if len(gens) == n.bit_length() - 1:
            return None
        g = int(np.argmin(inside))
        gens.append(g)
        inside[_close(table, np.flatnonzero(inside), np.asarray([g]))] = True
    return gens


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClassProducts:
    """The class product table of a library Subgroup H, read one class at
    a time: hit[i, j, l] holds when class l meets rep_i times class j.
    Classes come from two 2-d gathers (row i holds every conjugate of h_i),
    class_of is filled class by class, and every closure and every
    distinct closure's rows is its own k x k bool scatter."""

    def __init__(self, H):
        G = H.parent
        hs = H.as_array()
        least = G.table[G.table[hs, hs[:, None]], G.inverses[hs]].min(axis=1)
        order = np.argsort(least, kind="stable")
        labels, members = least[order], hs[order].tolist()
        cuts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(members)]
        self.classes = classes = [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:])]
        self.k = k = len(classes)
        self.reps = np.asarray([c[0] for c in classes], dtype=np.int64)
        self.class_of = np.full(G.order, -1, dtype=np.int32)
        for j, cls in enumerate(classes):
            self.class_of[list(cls)] = j
        elements = np.fromiter((x for c in classes for x in c), dtype=np.int64, count=H.order)
        self.cuts = [0, *np.cumsum([len(c) for c in classes]).tolist()]
        self.products = self.class_of[G.table[self.reps[:, None], elements]]
        self.column_class = self.class_of[elements]

    def _rows(self, columns):
        # row i: bitmask of the classes met in row i of the chosen columns
        hit = np.zeros((self.k, self.k), dtype=bool)
        hit[np.arange(self.k)[:, None], self.products[:, columns]] = True
        return [int("".join("1" if b else "0" for b in row[::-1]), 2) for row in hit]

    def closure(self, j):
        """Class bitmask of the subgroup generated by class j: the fixpoint
        of M <- M * class_j from the identity class."""
        column = self._rows(slice(self.cuts[j], self.cuts[j + 1]))
        mask = new = 1
        while new:
            step = 0
            for a in _bits(new):
                step |= column[a]
            new = step & ~mask
            mask |= new
        return mask

    def rows(self, mask):
        """Row i is the class bitmask of rep_i * C, for the union C of the
        classes in mask."""
        inside = np.zeros(self.k, dtype=bool)
        inside[list(_bits(mask))] = True
        return self._rows(inside[self.column_class])


def class_product_lattice(H):
    """The normal-subgroup lattice record of a library Subgroup H from the
    per-class enumeration: every product of class closures, each product
    an OR of the closure's rows.  Returns the record's fields as a dict:
    masks, members (element tuples), index, class_of, reps and sizes."""
    table = ClassProducts(H)
    closures = {}
    for j in range(1, table.k):
        C = table.closure(j)
        if C not in closures:
            closures[C] = table.rows(C)
    found = {1}
    for C, rows in closures.items():
        for N in [N for N in found if C & ~N]:
            product = 0
            for i in _bits(N):
                product |= rows[i]
            found.add(product)
    ranked = sorted(
        ((tuple(sorted(x for i in _bits(N) for x in table.classes[i])), N) for N in found),
        key=lambda pair: (len(pair[0]), pair[0]),
    )
    return {
        "masks": tuple(N for _, N in ranked),
        "members": [t for t, _ in ranked],
        "index": {t: i for i, (t, _) in enumerate(ranked)},
        "class_of": table.class_of,
        "reps": table.reps,
        "sizes": tuple(map(len, table.classes)),
    }


def commutator_subgroup(G: FiniteGroup, first, second) -> Subgroup:
    """Subgroup generated by all commutators [a, b] with a in first and b in
    second (exhaustive over the two sets, then closed)."""
    a = _elements_array(G, first)
    b = _elements_array(G, second)
    table, inv = G.table, G.inverses
    comms = table[table[inv[a][:, None], inv[b]], table[a[:, None], b]]
    return Subgroup._sorted(G, tuple(_close(table, _EMPTY, comms).tolist()))


def normal_closure(x, seed) -> Subgroup:
    """Smallest normal subgroup of the group or subgroup x containing the
    seed (which must lie in x): close all x-conjugates of the seed under
    multiplication."""
    H = _as_subgroup(x)
    G, hs = H.parent, H.as_array()
    seed = _elements_array(G, seed)
    conj = G.table[G.table[hs[:, None], seed], G.inverses[hs][:, None]]
    return Subgroup._sorted(G, tuple(_close(G.table, _EMPTY, conj).tolist()))


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


def direct_product_by_tiling(G, H):
    """G x H built by repeating and tiling the factor tables: G's entries
    repeated |H| times along both axes, H's table tiled |G| times, both in
    int64, combined as g*|H| + h and cast to int32.  Name and labels as
    the library gives them."""
    nh = H.order
    tg = np.repeat(np.repeat(G.table.astype(np.int64), nh, axis=0), nh, axis=1)
    th = np.tile(H.table.astype(np.int64), (G.order, G.order))
    table = (tg * nh + th).astype(np.int32)
    labels = None
    if G.labels is not None and H.labels is not None:
        labels = tuple(f"({a},{b})" for a in G.labels for b in H.labels)
    return FiniteGroup(table, name=f"direct({G.name},{H.name})", labels=labels, trusted=True)


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

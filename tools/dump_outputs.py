"""Hash the outputs of largesub over reference_corpus(), one sha256 per family.

Run from the root of a checkout, with nothing but the standard library and
the checkout's own src/ on the path:

    python3 tools/dump_outputs.py

Two trees compute the same outputs when this prints the same lines for
both; to compare a change with its parent, run it in each (for example in a
`git archive` of the parent, with this file copied into its tools/).  The
families other than expressions are each hashed over all 243 groups in
corpus order; expressions reads no corpus:

    tables             order, table bytes, labels and display_name of G
                       (element order included, since indices follow it)
    normal_subgroups   normal_subgroups of G and of every member of the
                       deterministic composition chain
    centralizers       centralizer of each normal subgroup of G
    series             derived and lower central series of G (chains and
                       factor orders)
    normal_series      derived and lower central series of each normal
                       subgroup of G (chains and factor orders)
    invariants         nilpotency_class and derived_length of G and of each
                       normal subgroup of G
    reports            exit code and stdout of `largesub verify --format
                       jsonl` over a corpus file of all the groups, one
                       value per selector: every selector of the claims
                       benchmark plus H, C:supersoluble, A:quasinilpotent,
                       C:quasinilpotent, A:pi_separable:2,3 and
                       A:normal_hall_pi_prime:2
    flag_reports       the same over the same file for each of
                       FLAG_SPELLINGS, the selectors A:nilpotent,
                       C:nilpotent, F:2,3, G:2 and GD:2 spelled as a bare
                       claim head and its parameter flag
    ingest             one JSONL table record per group, its elements
                       renamed a -> a+1 mod n so the identity sits at 1
                       (for n > 1), then the fixed MALFORMED_RECORDS; each
                       parsed with iter_records and built, hashed as the
                       table bytes or as the error's class, message and
                       witness
    lattice_answers    socle, supersoluble_residual and
                       generalized_fitting_subgroup of G, the
                       maximal_normal_members of the abelian class, and
                       is_simple of each normal subgroup of G
    subgroup_series    derived and lower central series of the subgroup
                       generated by each two consecutive conjugacy class
                       representatives of G (chains and factor orders;
                       many of these subgroups are not normal), then
                       components(G) and layer(G)
    radicals           pi_core and pi_prime_pi_core of G for every
                       nonempty set of primes of |G|, soluble_radical(G)
                       and class_radical(G, X) for each of RADICAL_CLASSES
                       (subgroup and witness string), the minimal and
                       maximal normal subgroups of G, and the
                       maximal_normal_members of each of MEMBER_CLASSES
    memberships        is_abelian, is_soluble, is_nilpotent and
                       is_supersoluble of G, of each normal subgroup of G
                       and of the subgroup generated by each two
                       consecutive conjugacy class representatives of G
    chief_questions    is_pi_separable for each of PI_SETS, of G and of
                       each normal subgroup of G; in_extension_closure of G
                       for each of CLOSURE_CLASSES (every built-in class,
                       each with a simple_rule); and
                       has_minimal_supersoluble_residual of G when G is
                       soluble (null otherwise)
    largeness          is_large(G, N) for each normal subgroup N of G
    commutators        [N_i, N_j] from the lattice record, for every
                       unordered pair of normal subgroups of each G with
                       at most 40 of them (i <= j in canonical order)
    info               cli.group_info(G), the report the `info` verb
                       prints: among others the orders along the derived
                       and lower central series and the chief and
                       composition factor orders
    cover_reports      the report of claim B (verify_selector(G, "B")),
                       or the class and message of the error it raises
    expressions        exit code and stdout of `largesub construct EXPR`
                       and `largesub info --format jsonl EXPR` for each of
                       EXPRESSIONS: every catalog family at sample
                       arguments, nested direct and central products, and
                       malformed expressions
    subgroup_answers   for G, each normal subgroup of G and the subgroup
                       generated by each two consecutive conjugacy class
                       representatives of G: center, the minimal and
                       maximal normal subgroups, fitting_subgroup,
                       generalized_fitting_subgroup, components,
                       subnormal_subgroups, nilpotency_class,
                       derived_length and the composition factor orders,
                       each asked twice in a row and both answers hashed

Each line reads: family, number of values hashed, sha256.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import largesub as ls  # noqa: E402
from largesub import cli  # noqa: E402
from largesub.structure import _lattice  # noqa: E402

SELECTORS = (
    "D",
    "E",
    "F:2,3",
    "G:2",
    "GD:2",
    "A:nilpotent",
    "H",
    "C:supersoluble",
    "A:quasinilpotent",
    "C:quasinilpotent",
    "A:pi_separable:2,3",
    "A:normal_hall_pi_prime:2",
)
FAMILIES = (
    "tables",
    "normal_subgroups",
    "centralizers",
    "series",
    "normal_series",
    "invariants",
    "reports",
    "ingest",
    "lattice_answers",
    "subgroup_series",
    "radicals",
    "memberships",
    "chief_questions",
    "largeness",
    "commutators",
    "info",
    "cover_reports",
    "flag_reports",
    "expressions",
    "subgroup_answers",
)
FLAG_SPELLINGS = (
    ("--theorem", "A", "--class-key", "nilpotent"),
    ("--theorem", "C", "--class-key", "nilpotent"),
    ("--theorem", "F", "--pi", "2,3"),
    ("--theorem", "G", "--c", "2"),
    ("--theorem", "GD", "--d", "2"),
)
RADICAL_CLASSES = (
    "nilpotent",
    "soluble",
    "quasinilpotent",
    "pi_separable:2",
    "pi_separable:2,3",
    "normal_hall_pi_prime:2",
    "normal_hall_pi_prime:3",
)
MEMBER_CLASSES = (
    "abelian",
    "nilpotent",
    "nilpotent_class:2",
    "soluble_derived:2",
    "supersoluble",
    "quasinilpotent",
)
PI_SETS = ((2,), (3,), (5,), (2, 3))
CLOSURE_CLASSES = (
    "abelian",
    "nilpotent",
    "nilpotent_class:2",
    "soluble",
    "soluble_derived:2",
    "supersoluble",
    "quasinilpotent",
    "pi_separable:2",
    "pi_separable:2,3",
    "normal_hall_pi_prime:2",
    "normal_hall_pi_prime:3",
)
EXPRESSIONS = (
    "trivial",
    "klein_four",
    "cyclic(6)",
    "dihedral(8)",
    "quaternion(8)",
    "symmetric(4)",
    "alternating(5)",
    "sl(2,3)",
    " direct( alternating(4), cyclic(2) ) ",
    "direct(direct(cyclic(2),cyclic(3)),symmetric(3))",
    "central(sl(2,3),quaternion(8))",
    "central(dihedral(8),direct(quaternion(8),trivial))",
    "central(quaternion(8),cyclic(4))",
    "direct(cyclic(2))",
    "cyclic(x)",
    "cyclic(2,3)",
    "sl(3,3)",
    "monster",
    "direct(cyclic(2),cyclic(3)",
    "central(cyclic(2)))",
    "direct(" * 1000 + "cyclic(1)" + ",cyclic(1))" * 1000,
)
_LOOP5 = [0, 1, 2, 3, 4, 1, 0, 3, 4, 2, 2, 4, 0, 1, 3, 3, 2, 4, 0, 1, 4, 3, 1, 2, 0]


def _long_double_comma_line() -> str:
    # the table of A5, its 3,600 entries with one comma doubled halfway
    entries = [str(v) for v in ls.alternating_group(5).table.ravel()]
    entries.insert(1800, "")
    return '{"kind":"table","name":"long_double_comma","order":60,"table":[%s]}' % ",".join(
        entries
    )


# records the reader must refuse, or whose table the builder must refuse,
# plus valid tables that take one route or the other through the reader
MALFORMED_RECORDS = tuple(
    '{"kind":"table","name":"%s","order":2,"table":[0,1,1,%s]}' % (name, last)
    for name, last in (
        ("bool", "true"),
        ("float", "1.0"),
        ("exponent", "1e0"),
        ("string", '"1"'),
        ("null", "null"),
        ("list", "[1]"),
        ("negative", "-1"),
        ("wide", str(2**70)),
        ("true", "0"),
    )
) + (
    '{"kind":"table","name":"false_first","order":2,"table":[false,1,1,0]}',
    # x*y = x for distinct nonzero x, y and x*x = 0: identity and inverses,
    # too many greedy generators for a group
    '{"kind":"table","name":"not_latin","order":4,"table":[0,1,2,3,1,0,1,1,2,2,0,2,3,3,3,0]}',
    # C4 with 1*1 = 3: neither Latin nor associative
    '{"kind":"table","name":"bad_c4","order":4,"table":[0,1,2,3,1,3,3,0,2,3,0,1,3,0,1,2]}',
    '{"kind":"table","name":"loop5","order":5,"table":%s}' % json.dumps(_LOOP5),
    # x*y = -x-y mod 3: Latin, but no element is an identity
    '{"kind":"table","name":"no_identity","order":3,"table":[0,2,1,2,1,0,1,0,2]}',
    # edges of the canonical table read: lines it refuses, which the
    # general route reads or rejects, and lines it reads
    '{"kind":"table","name":"leading_zero","order":2,"table":[0,1,01,0]}',
    '{"kind":"table","name":"double_comma","order":2,"table":[0,1,,0]}',
    '{"kind":"table","name":"trailing_comma","order":2,"table":[0,1,1,0,]}',
    '{"kind":"table","name":"entry_n","order":2,"table":[0,1,1,2]}',
    '{"kind": "table", "name": "spaced", "order": 2, "table": [0, 1, 1, 0]}',
    '{"kind":"table","name":"tab","order":2,"table":[0,1,\t1,0]}',
    '{"kind":"table","order":2,"table":[0,1,1,0],"name":"x]}"}',
    '{"kind":"table","name":"duplicate","table":[0],"order":2,"table":[0,1,1,0]}',
    '{"kind":"table","table":[0,1,1,0],"name":"table_first","order":2}',
    '{"kind":"table","name":"leading_comma","order":2,"table":[,0,1,1,0]}',
    _long_double_comma_line(),
)


def _chain(series) -> list:
    return [[S.elements for S in series.chain], list(series.factor_orders)]


def _cli(*argv: str) -> list:
    # exit code and stdout of one largesub command; stderr is dropped
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, out.getvalue()]


def _verify(path: Path, *spelling: str) -> list:
    # a selector, or the arguments that spell one
    argv = ["--claim", *spelling] if len(spelling) == 1 else list(spelling)
    return [" ".join(spelling), *_cli("verify", *argv, str(path), "--format", "jsonl")]


def _moved_record(G) -> str:
    # element a renamed (a + 1) mod n, so the reader has to move the
    # identity back to 0
    n = G.order
    table = (np.roll(G.table, 1, axis=(0, 1)) + 1) % n
    record = {"kind": "table", "name": G.name, "order": n, "table": table.ravel().tolist()}
    return json.dumps(record, separators=(",", ":"))


def _ingest(line: str) -> list:
    try:
        G = next(ls.iter_records([line])).build()
    except ls.GroupError as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "witness", None)]
    return [G.order, G.table.tobytes().hex(), G.display_name]


def _lattice_answers(G, normals) -> list:
    abelian = ls.builtin_class("abelian")
    return [
        ls.socle(G).elements,
        ls.supersoluble_residual(G).elements,
        ls.generalized_fitting_subgroup(G).subgroup.elements,
        [M.elements for M in ls.maximal_normal_members(G, abelian)],
        [ls.is_simple(N) for N in normals],
    ]


def _consecutive_starts(G) -> list:
    # the subgroup generated by each two consecutive class representatives
    reps = [c[0] for c in ls.conjugacy_classes(G)]
    return [ls.closure(G, pair) for pair in zip(reps, reps[1:])]


def _subgroup_series(G) -> list:
    starts = _consecutive_starts(G)
    return [
        [[_chain(ls.derived_series(S)), _chain(ls.lower_central_series(S))] for S in starts],
        [T.elements for T in ls.components(G)],
        ls.layer(G).subgroup.elements,
    ]


def _radical(result) -> list:
    return [result.subgroup.elements, result.witness]


def _radicals(G) -> list:
    primes = ls.prime_factors(G.order)
    pi_sets = [pi for r in range(1, len(primes) + 1) for pi in itertools.combinations(primes, r)]
    extremes = (
        [ls.minimal_normal_subgroups(G), ls.maximal_normal_subgroups(G)] if G.order > 1 else []
    )
    return [
        [[_radical(ls.pi_core(G, pi)), _radical(ls.pi_prime_pi_core(G, pi))] for pi in pi_sets],
        _radical(ls.soluble_radical(G)),
        [_radical(ls.class_radical(G, ls.builtin_class(key))) for key in RADICAL_CLASSES],
        [[N.elements for N in found] for found in extremes],
        [
            [M.elements for M in ls.maximal_normal_members(G, ls.builtin_class(key))]
            for key in MEMBER_CLASSES
        ],
    ]


def _memberships(G, normals) -> list:
    tests = (ls.is_abelian, ls.is_soluble, ls.is_nilpotent, ls.is_supersoluble)
    return [[test(x) for test in tests] for x in [G, *normals, *_consecutive_starts(G)]]


def _chief_questions(G, normals) -> list:
    return [
        [[ls.is_pi_separable(x, pi) for pi in PI_SETS] for x in [G, *normals]],
        [ls.in_extension_closure(ls.builtin_class(key), G) for key in CLOSURE_CLASSES],
        ls.has_minimal_supersoluble_residual(G) if ls.is_soluble(G) else None,
    ]


def _subgroup_answers(x) -> list:
    # each question twice, so a second answer read off a lattice record is
    # hashed beside the first
    extremes = () if x.order == 1 else (ls.minimal_normal_subgroups, ls.maximal_normal_subgroups)
    questions = (
        lambda x: ls.center(x).elements,
        *(lambda x, f=f: [N.elements for N in f(x)] for f in extremes),
        lambda x: _radical(ls.fitting_subgroup(x)),
        lambda x: _radical(ls.generalized_fitting_subgroup(x)),
        lambda x: [T.elements for T in ls.components(x)],
        lambda x: [S.elements for S in ls.subnormal_subgroups(x)],
        ls.nilpotency_class,
        ls.derived_length,
        lambda x: [F.order for F in ls.composition_factors(x)],
    )
    return [[ask(x), ask(x)] for ask in questions]


def _cover_report(G) -> list | dict:
    try:
        return ls.verify_selector(G, "B").to_dict()
    except ls.GroupError as exc:
        return [type(exc).__name__, str(exc)]


def dump(corpus) -> dict[str, tuple[int, str]]:
    """family -> (values hashed, sha256 hex digest)."""
    corpus = list(corpus)
    digests = {family: hashlib.sha256() for family in FAMILIES}
    counts = dict.fromkeys(FAMILIES, 0)

    def put(family: str, value) -> None:
        digests[family].update(json.dumps(value).encode() + b"\n")
        counts[family] += 1

    for G in corpus:
        put("tables", [G.order, G.table.tobytes().hex(), G.labels, G.display_name])
        normals = ls.normal_subgroups(G)
        for H in ls.composition_series(G).chain:
            put("normal_subgroups", [N.elements for N in ls.normal_subgroups(H)])
        for N in normals:
            put("centralizers", ls.centralizer(G, N).elements)
        put("series", [_chain(ls.derived_series(G)), _chain(ls.lower_central_series(G))])
        for N in normals:
            put("normal_series", [_chain(ls.derived_series(N)), _chain(ls.lower_central_series(N))])
        for x in [G, *normals]:
            put("invariants", [ls.nilpotency_class(x), ls.derived_length(x)])
        put("lattice_answers", _lattice_answers(G, normals))
        put("subgroup_series", _subgroup_series(G))
        put("radicals", _radicals(G))
        put("memberships", _memberships(G, normals))
        put("chief_questions", _chief_questions(G, normals))
        for N in normals:
            put("largeness", ls.is_large(G, N))
        if len(normals) <= 40:
            lat = _lattice(G)
            for i, j in itertools.combinations_with_replacement(range(len(normals)), 2):
                put("commutators", lat.members[lat.commutator(i, j)].elements)
        put("info", cli.group_info(G))
        put("cover_reports", _cover_report(G))
        for x in [G, *normals, *_consecutive_starts(G)]:
            put("subgroup_answers", _subgroup_answers(x))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        ls.write_corpus(path, corpus)
        for selector in SELECTORS:
            put("reports", _verify(path, selector))
        for spelling in FLAG_SPELLINGS:
            put("flag_reports", _verify(path, *spelling))
    for line in [*map(_moved_record, corpus), *MALFORMED_RECORDS]:
        put("ingest", _ingest(line))
    for expr in EXPRESSIONS:
        put("expressions", [expr, _cli("construct", expr), _cli("info", "--format", "jsonl", expr)])
    return {family: (counts[family], digests[family].hexdigest()) for family in FAMILIES}


def main() -> int:
    for family, (count, digest) in dump(ls.reference_corpus()).items():
        print(f"{family:<17} {count:>6} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

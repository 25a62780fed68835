"""Hash the outputs of largesub over reference_corpus(), one sha256 per family.

Run from the root of a checkout, with nothing but the standard library and
the checkout's own src/ on the path:

    python3 tools/dump_outputs.py

Two trees compute the same outputs when this prints the same lines for
both; to compare a change with its parent, run it in each (for example in a
`git archive` of the parent, with this file copied into its tools/).  The
families, each hashed over all 243 groups in corpus order:

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

Each line reads: family, number of values hashed, sha256.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import largesub as ls  # noqa: E402
from largesub import cli  # noqa: E402

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
)
_LOOP5 = [0, 1, 2, 3, 4, 1, 0, 3, 4, 2, 2, 4, 0, 1, 3, 3, 2, 4, 0, 1, 4, 3, 1, 2, 0]
# records the reader must refuse, or whose table the builder must refuse,
# plus one valid table that the entry check reads the slow way
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
    # too many greedy generators for a Latin table
    '{"kind":"table","name":"not_latin","order":4,"table":[0,1,2,3,1,0,1,1,2,2,0,2,3,3,3,0]}',
    # C4 with 1*1 = 3: neither Latin nor associative
    '{"kind":"table","name":"bad_c4","order":4,"table":[0,1,2,3,1,3,3,0,2,3,0,1,3,0,1,2]}',
    '{"kind":"table","name":"loop5","order":5,"table":%s}' % json.dumps(_LOOP5),
    # x*y = -x-y mod 3: Latin, but no element is an identity
    '{"kind":"table","name":"no_identity","order":3,"table":[0,2,1,2,1,0,1,0,2]}',
)


def _chain(series) -> list:
    return [[S.elements for S in series.chain], list(series.factor_orders)]


def _verify(path: Path, selector: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--claim", selector, str(path), "--format", "jsonl"])
    return [selector, code, out.getvalue()]


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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        ls.write_corpus(path, corpus)
        for selector in SELECTORS:
            put("reports", _verify(path, selector))
    for line in [*map(_moved_record, corpus), *MALFORMED_RECORDS]:
        put("ingest", _ingest(line))
    return {family: (counts[family], digests[family].hexdigest()) for family in FAMILIES}


def main() -> int:
    for family, (count, digest) in dump(ls.reference_corpus()).items():
        print(f"{family:<17} {count:>6} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
    invariants         nilpotency_class and derived_length of G and of each
                       normal subgroup of G
    reports            exit code and stdout of `largesub verify --format
                       jsonl` over a corpus file of all the groups, one
                       value per selector: every selector of the claims
                       benchmark plus H, C:supersoluble, A:quasinilpotent,
                       C:quasinilpotent, A:pi_separable:2,3 and
                       A:normal_hall_pi_prime:2

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
FAMILIES = ("tables", "normal_subgroups", "centralizers", "series", "invariants", "reports")


def _chain(series) -> list:
    return [[S.elements for S in series.chain], list(series.factor_orders)]


def _verify(path: Path, selector: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--claim", selector, str(path), "--format", "jsonl"])
    return [selector, code, out.getvalue()]


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
        for x in [G, *normals]:
            put("invariants", [ls.nilpotency_class(x), ls.derived_length(x)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        ls.write_corpus(path, corpus)
        for selector in SELECTORS:
            put("reports", _verify(path, selector))
    return {family: (counts[family], digests[family].hexdigest()) for family in FAMILIES}


def main() -> int:
    for family, (count, digest) in dump(ls.reference_corpus()).items():
        print(f"{family:<17} {count:>6} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

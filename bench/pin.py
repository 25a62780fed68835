"""Regenerate bench/expected.json, the pinned outputs the benchmark checks.

    python3 bench/pin.py

Pins, for every member of reference_corpus() (not only the benchmark
pools, so the subset rule can change without re-pinning):

    scan    [status, residual order] from scan_exceptional
    claims  [outcome, sorted witness orders] for each selector, with
            HypothesisFailed and NotSoluble pinned as "skip"
    ingest  [order, sha256 of the table as little-endian int32]

Before writing, it checks the outputs against facts established outside
this script, by the acceptance checks and an earlier full-corpus scan: the
full scan gives exactly two findings, a4 x a4 (order 144) and s4 x a4
(order 288), both with residual order 16, and 207 residual-minimal, 19
witness-not-large and 15 not-soluble members; no claim outcome is "fail"
(acceptance checks 02 to 05).  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import largesub as ls  # noqa: E402

import workloads as wl  # noqa: E402


def pin() -> dict:
    corpus = ls.reference_corpus()
    names = [G.display_name for G in corpus]
    if len(set(names)) != len(names):
        raise SystemExit("corpus names are not unique")
    expected = {"scan": {}, "claims": {}, "ingest": {}}
    for G in corpus:
        name = G.display_name
        expected["ingest"][name] = [G.order, wl.table_digest(G.table)]
        fresh = ls.FiniteGroup(G.table, name=G.name, labels=G.labels, trusted=True)
        expected["scan"][name] = wl.scan_one(fresh)
        fresh = ls.FiniteGroup(G.table, name=G.name, labels=G.labels, trusted=True)
        expected["claims"][name] = {sel: wl.claim_one(fresh, sel) for sel in wl.SELECTORS}
    return expected


def check_facts(expected: dict) -> None:
    scan = expected["scan"]
    status = Counter(s for s, _ in scan.values())
    want = {"finding": 2, "residual_minimal": 207, "witness_not_large": 19, "not_soluble": 15}
    if dict(status) != want:
        raise SystemExit(f"scan status counts {dict(status)} != {want}")
    findings = {name: r for name, (s, r) in scan.items() if s == "finding"}
    if findings != {name: 16 for name in wl.KNOWN_FINDINGS}:
        raise SystemExit(f"unexpected findings {findings}")
    fails = [
        (name, sel)
        for name, per in expected["claims"].items()
        for sel, (outcome, _) in per.items()
        if outcome == "fail"
    ]
    if fails:
        raise SystemExit(f"claim outcomes that fail: {fails}")


def dumps(expected: dict) -> str:
    """JSON with one line per group, so that a re-pin diffs line by line."""
    parts = []
    for workload in sorted(expected):
        rows = ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(value, sort_keys=True)}"
            for name, value in sorted(expected[workload].items())
        )
        parts.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    expected = pin()
    check_facts(expected)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write(dumps(expected))
    print(f"wrote {wl.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Inputs, sweeps and expectation checks for the three benchmark workloads.

scan    scan_exceptional, one group at a time, over SUBSET
claims  verify_selector for every selector in SELECTORS on each group of
        SUBSET, the selectors of one group sharing that group's caches
ingest  JSONL table records of the whole reference corpus, each parsed and
        built with full axiom validation

SUBSET is every SUBSET_STRIDE-th member of reference_corpus() (in its own
deterministic order) plus the two known scan findings.  The rule looks at
positions and names only, never at cost.

The seed only relabels elements: every group gets its own random
permutation of its element indices.  The group set, the orders and the
pinned outputs are the same for every seed.  For scan and claims the
identity stays at index 0 and the relabelled group goes through the
trusted FiniteGroup constructor; for ingest the identity moves off index
0, so from_multiplication_table has to normalize it as it would on a table
exported from elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
import largesub as ls
from largesub.errors import HypothesisFailed, NotSoluble

WORKLOADS = ("scan", "claims", "ingest")
SELECTORS = ("D", "E", "F:2,3", "G:2", "GD:2", "A:nilpotent")
SUBSET_STRIDE = 8
KNOWN_FINDINGS = (
    "direct(alternating(4),alternating(4))",
    "direct(symmetric(4),alternating(4))",
)
EXPECTED_PATH = Path(__file__).with_name("expected.json")


# -- pools and relabelling ----------------------------------------------------


def subset(corpus: list) -> list:
    """The scan and claims pool: every SUBSET_STRIDE-th corpus member plus
    the known findings."""
    return [
        G
        for i, G in enumerate(corpus)
        if i % SUBSET_STRIDE == 0 or G.display_name in KNOWN_FINDINGS
    ]


def pool(workload: str, corpus: list) -> list:
    return corpus if workload == "ingest" else subset(corpus)


def permutation(seed: int, index: int, n: int, *, fix_identity: bool) -> np.ndarray:
    """The relabelling of the index-th pool member: new index of old element
    a is perm[a].  With fix_identity the identity stays at 0, otherwise it
    is moved off 0 (for n > 1)."""
    rng = random.Random(f"largesub-bench:{seed}:{index}")
    if fix_identity:
        rest = list(range(1, n))
        rng.shuffle(rest)
        perm = [0] + rest
    else:
        perm = list(range(n))
        rng.shuffle(perm)
        if n > 1 and perm[0] == 0:
            perm[0], perm[1] = perm[1], perm[0]
    return np.asarray(perm, dtype=np.int64)


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table of the same group after renaming element a to perm[a]."""
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]].astype(np.int32)


def table_digest(table: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(table, dtype="<i4").tobytes()).hexdigest()


# -- setup ----------------------------------------------------------------------


@dataclass
class Inputs:
    """What one cold sweep consumes: fresh groups (scan, claims) or JSONL
    lines (ingest), with the permutation applied to each pool member."""

    workload: str
    names: list[str]
    orders: list[int]
    perms: list[np.ndarray]
    groups: list | None = None
    lines: list[str] | None = None


def make_inputs(workload: str, seed: int, corpus: list | None = None) -> Inputs:
    """Build the reference corpus (unless given), pick the pool, relabel
    every member and either build the groups or serialize them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if corpus is None:
        corpus = ls.reference_corpus()
    members = pool(workload, corpus)
    fix = workload != "ingest"
    inputs = Inputs(
        workload,
        [G.display_name for G in members],
        [G.order for G in members],
        [permutation(seed, i, G.order, fix_identity=fix) for i, G in enumerate(members)],
    )
    if fix:
        inputs.groups = []
        for G, perm in zip(members, inputs.perms):
            labels = None
            if G.labels is not None:
                labels = [None] * G.order
                for a, p in enumerate(perm):
                    labels[p] = G.labels[a]
            inputs.groups.append(
                ls.FiniteGroup(relabel(G.table, perm), name=G.name, labels=labels, trusted=True)
            )
    else:
        inputs.lines = [
            json.dumps(
                {
                    "kind": "table",
                    "name": G.name,
                    "order": G.order,
                    "table": relabel(G.table, perm).ravel().tolist(),
                },
                separators=(",", ":"),
            )
            for G, perm in zip(members, inputs.perms)
        ]
    return inputs


# -- operations -----------------------------------------------------------------
#
# Each operation yields a plain JSON-like output, compared with the pinned
# expectation after the timed phase.  An exception that is not an expected
# skip is recorded as its repr, which never matches an expectation.


def guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed operation, never fatal
        return repr(exc)


def scan_output(record) -> list:
    return [record.status, record.residual_order]


def scan_one(G) -> list:
    return scan_output(ls.scan_exceptional([G])[0])


def claim_report(G, selector: str):
    """The report, or None for the expected skips HypothesisFailed and
    NotSoluble, as in the CLI's verify."""
    try:
        return ls.verify_selector(G, selector)
    except (HypothesisFailed, NotSoluble):
        return None


def claim_output(report) -> list:
    if report is None:
        return ["skip", []]
    return [report.outcome, sorted(w.order for w in report.witnesses)]


def claim_one(G, selector: str) -> list:
    return claim_output(claim_report(G, selector))


def ingest_output(G, perm: np.ndarray) -> list:
    """Order and digest of the built table mapped back to the original
    labels.  Normalization swapped the identity, at perm[0], with index 0."""
    if isinstance(G, str):  # the repr of a failed build
        return G
    moved = perm.copy()
    moved[perm == 0] = perm[0]
    moved[0] = 0
    inv = np.argsort(moved)
    original = inv[G.table[np.ix_(moved, moved)]]
    return [G.order, table_digest(original)]


def sweep(inputs: Inputs) -> tuple[list, list[float], list[float]]:
    """One cold pass over the inputs, one group (or record) at a time.
    Returns the raw results (outputs for scan and claims, built groups for
    ingest), the wall time of each group or record, and the calibration
    chunks timed before the first group and after each one (hostspeed.py).

    Ingest times no chunks.  The chunk is interpreter-bound, as scan and
    claims are (many numpy calls on small arrays), but most of ingest's time
    is the associativity check on the order-1440 table, memory-bound gathers
    whose speed does not follow the chunk.  On a shared 2-vCPU virtual
    machine (Python 3.11, numpy 2.4), over nine seeds the scaled ingest
    sweep spread 0.21 (quartile distance over median) against 0.065
    unscaled, while scaling cut the spread of scan from 0.12 to 0.07 and of
    claims from 0.09 to 0.03."""
    results, times = [], []
    clock = time.perf_counter
    if inputs.workload == "ingest":
        records = ls.iter_records(inputs.lines)
        try:
            while True:
                t0 = clock()
                rec = next(records, None)
                if rec is None:
                    break
                results.append(guarded(rec.build))
                times.append(clock() - t0)
        except Exception as exc:  # a format error ends the file: the rest fail
            results.extend([repr(exc)] * (len(inputs.lines) - len(results)))
        return results, times, []
    chunks = [hostspeed.chunk_s()]
    for G in inputs.groups:
        t0 = clock()
        if inputs.workload == "scan":
            results.append(guarded(scan_one, G))
        else:
            results.extend(guarded(claim_one, G, sel) for sel in SELECTORS)
        times.append(clock() - t0)
        chunks.append(hostspeed.chunk_s())
    return results, times, chunks


def outputs_of(inputs: Inputs, results: list) -> list:
    """Turn a sweep's raw results into comparable outputs (untimed)."""
    if inputs.workload == "ingest":
        return [ingest_output(G, perm) for G, perm in zip(results, inputs.perms)]
    return results


def operation_keys(workload: str, names: list[str]) -> list[tuple[str, str | None]]:
    """(group name, selector) for every operation of one sweep, in order."""
    if workload == "claims":
        return [(name, sel) for name in names for sel in SELECTORS]
    return [(name, None) for name in names]


# -- expectations -----------------------------------------------------------------


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expected_output(expected: dict, workload: str, name: str, selector: str | None):
    entry = expected[workload].get(name)
    if entry is None:
        return None
    return entry[selector] if selector is not None else entry


def count_failures(expected: dict, workload: str, names: list[str], outputs: list) -> list:
    """The operations whose output differs from the pinned expectation
    (an exception's repr never matches).  Returns (name, selector, got,
    want) for each."""
    keys = operation_keys(workload, names)
    if len(keys) != len(outputs):
        raise ValueError(f"{len(outputs)} outputs for {len(keys)} operations")
    bad = []
    for (name, sel), got in zip(keys, outputs):
        want = expected_output(expected, workload, name, sel)
        if got != want:
            bad.append((name, sel, got, want))
    return bad

"""Tests of the benchmark itself (not of largesub):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import largesub as ls  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def small():
    """Named groups up to order 120: cheap, and varied enough."""
    return [G for G in ls.named_reference_groups() if G.order <= 120]


@pytest.fixture(scope="module")
def expected():
    return wl.load_expected()


def _tables(inputs):
    if inputs.groups is not None:
        return [G.table.tobytes() for G in inputs.groups]
    return inputs.lines


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(small, workload):
    a = wl.make_inputs(workload, 7, small)
    b = wl.make_inputs(workload, 7, small)
    assert _tables(a) == _tables(b)
    assert all(np.array_equal(p, q) for p, q in zip(a.perms, b.perms))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_same_groups_other_labels(small, workload):
    a = wl.make_inputs(workload, 1, small)
    b = wl.make_inputs(workload, 2, small)
    assert a.names == b.names and a.orders == b.orders
    assert _tables(a) != _tables(b)


def test_pools_follow_the_stated_rule(small):
    corpus = ls.reference_corpus()
    pool = wl.subset(corpus)
    names = [G.display_name for G in pool]
    assert set(wl.KNOWN_FINDINGS) <= set(names)
    assert names[0] == corpus[0].display_name
    assert any(not ls.is_soluble(G) for G in pool)
    assert wl.pool("ingest", corpus) == corpus


def test_relabel_round_trips(small):
    for i, G in enumerate(small):
        perm = wl.permutation(3, i, G.order, fix_identity=True)
        assert perm[0] == 0 and sorted(perm) == list(range(G.order))
        table = wl.relabel(G.table, perm)
        back = wl.relabel(table, np.argsort(perm))
        assert np.array_equal(back, G.table)
        ls.validate_axioms(ls.FiniteGroup(table, trusted=True))


def test_ingest_moves_identity_and_round_trips(small):
    inputs = wl.make_inputs("ingest", 5, small)
    built, _, _ = wl.sweep(inputs)
    for G, perm, orig in zip(built, inputs.perms, small):
        if G.order > 1:
            assert perm[0] != 0
        assert wl.ingest_output(G, perm) == [orig.order, wl.table_digest(orig.table)]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_sweep_matches_pins_and_corruption_is_counted(small, expected, workload):
    inputs = wl.make_inputs(workload, 11, small)
    outputs = wl.outputs_of(inputs, wl.sweep(inputs)[0])
    assert wl.count_failures(expected, workload, inputs.names, outputs) == []
    corrupted = list(outputs)
    corrupted[0] = ["corrupted", None]
    corrupted[-1] = repr(RuntimeError("raised"))
    bad = wl.count_failures(expected, workload, inputs.names, corrupted)
    assert [b[2] for b in bad] == [corrupted[0], corrupted[-1]]


def test_a_raising_operation_is_recorded_not_fatal():
    def boom():
        raise ZeroDivisionError("x")

    assert wl.guarded(boom) == repr(ZeroDivisionError("x"))


def test_pins_agree_with_independent_facts(expected):
    scan = expected["scan"]
    counts = Counter(status for status, _ in scan.values())
    assert counts == {"residual_minimal": 207, "witness_not_large": 19, "not_soluble": 15, "finding": 2}
    assert {n: r for n, (s, r) in scan.items() if s == "finding"} == {
        n: 16 for n in wl.KNOWN_FINDINGS
    }
    assert all(o != "fail" for per in expected["claims"].values() for o, _ in per.values())
    assert len(expected["ingest"]) == 243


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_sweep_agrees_and_reports_every_layer(small, expected, workload):
    inputs = wl.make_inputs(workload, 4, small)
    tracer = tracing.Tracer()
    results, witnesses = tracing.traced_sweep(inputs, tracer)
    outputs = wl.outputs_of(inputs, results)
    assert wl.count_failures(expected, workload, inputs.names, outputs) == []
    metrics = tracing.layer_metrics(inputs, results, witnesses, tracer)
    assert metrics["trace.total_s"] > 0
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.total_s")
    assert layer_sum <= metrics["trace.total_s"]
    if workload == "ingest":
        assert metrics["corpus.iter_records_s"] > 0
        assert metrics["groups.validate_ops_n"] == sum(n**3 for n in inputs.orders)
        assert metrics["structure.normal_subgroups_s"] == 0
    else:
        assert metrics["structure.normal_subgroups_n"] > 0
        assert metrics["groups.cache_entries_n"] > 0
        assert metrics["largeness.witnesses_n"] > 0
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["trace"]


def test_hostspeed_scales_each_operation_by_its_chunks():
    ref = hostspeed.REFERENCE_S
    # the chunks around the second operation average 1.5 * ref: its 3 s count as 2 s
    assert hostspeed.adjusted([1.0, 3.0], [ref, ref, 2 * ref]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        hostspeed.adjusted([1.0], [ref])

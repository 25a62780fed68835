"""The traced sweep: spans around calls into each layer, from outside.

A traced sweep visits the same inputs as the untimed sweep, but for each
group it first calls the memoized layer functions in dependency order, each
in its own span, so that a span measures that layer's own work on the
group; then it runs the workload's top-level call in a span.  Two layer
functions are not memoized themselves.  radicals.pi_prime_pi_core caches
its quotient and that quotient's normal subgroups in the group, so the
repeat inside F:2,3 only filters cached lists.  classes.is_soluble caches
nothing: its span is an extra call, and the top-level call repeats it.

Spans (name, start, end, parent, group) are kept in memory and written out
when the run ends.  Build counts come from walking each group's private
_cache after the sweep, while the groups are still held.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import largesub as ls
from largesub.classes import is_pi_separable, is_soluble
from largesub.radicals import (
    fitting_subgroup,
    generalized_fitting_subgroup,
    pi_prime_pi_core,
    supersoluble_residual,
)
from largesub.structure import composition_factors, conjugacy_classes, normal_subgroups

import workloads as wl

TWO_STEP_PRIMES = (2, 3)  # the primes of the F:2,3 selector

LAYER_TIMES = (
    "corpus.iter_records",
    "groups.from_multiplication_table",
    "structure.conjugacy_classes",
    "structure.normal_subgroups",
    "structure.composition_factors",
    "radicals.pi_prime_pi_core",
    "radicals.supersoluble_residual",
    "radicals.fitting_subgroup",
    "radicals.generalized_fitting_subgroup",
    "classes.is_soluble",
    "largeness.scan_exceptional",
    "largeness.verify_selector",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    group: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a stack of open spans for parents."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, group: str | None = None):
        sid = self._next
        self._next += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(sid, name, start, end, parent, group))

    def total(self, name: str) -> float:
        return sum((s.duration for s in self.spans if s.name == name), 0.0)


def _scan_group(tracer: Tracer, G) -> tuple[list, list]:
    name = G.display_name
    with tracer.span("structure.conjugacy_classes", name):
        conjugacy_classes(G)
    with tracer.span("structure.normal_subgroups", name):
        normal_subgroups(G)
    with tracer.span("classes.is_soluble", name):
        soluble = is_soluble(G)
    if soluble:
        with tracer.span("radicals.supersoluble_residual", name):
            supersoluble_residual(G)
    with tracer.span("largeness.scan_exceptional", name):
        record = ls.scan_exceptional([G])[0]
    witnesses = record.report.witnesses if record.report is not None else []
    return [wl.scan_output(record)], witnesses


def _claims_group(tracer: Tracer, G) -> tuple[list, list]:
    name = G.display_name
    with tracer.span("structure.conjugacy_classes", name):
        conjugacy_classes(G)
    with tracer.span("structure.normal_subgroups", name):
        normal_subgroups(G)
    with tracer.span("classes.is_soluble", name):
        is_soluble(G)
    with tracer.span("structure.composition_factors", name):
        composition_factors(G)
    with tracer.span("radicals.fitting_subgroup", name):
        fitting_subgroup(G)
    with tracer.span("radicals.generalized_fitting_subgroup", name):
        generalized_fitting_subgroup(G)
    if is_pi_separable(G, TWO_STEP_PRIMES):  # reads the cached factors
        with tracer.span("radicals.pi_prime_pi_core", name):
            pi_prime_pi_core(G, TWO_STEP_PRIMES)
    outputs, witnesses = [], []
    for sel in wl.SELECTORS:
        with tracer.span("largeness.verify_selector", name):
            report = wl.claim_report(G, sel)
        outputs.append(wl.claim_output(report))
        if report is not None:
            witnesses.extend(report.witnesses)
    return outputs, witnesses


def _ingest(tracer: Tracer, lines: list[str]) -> list:
    built = []
    records = ls.iter_records(lines)
    try:
        while True:
            with tracer.span("corpus.iter_records"):
                rec = next(records, None)
            if rec is None:
                break
            with tracer.span("groups.from_multiplication_table", rec.name):
                built.append(wl.guarded(rec.build))
    except Exception as exc:  # a format error ends the file: the rest fail
        built.extend([repr(exc)] * (len(lines) - len(built)))
    return built


def traced_sweep(inputs: wl.Inputs, tracer: Tracer) -> tuple[list, list]:
    """The sweep with spans.  Returns (raw results, witness records)."""
    with tracer.span("trace"):
        if inputs.workload == "ingest":
            return _ingest(tracer, inputs.lines), []
        per_group = _scan_group if inputs.workload == "scan" else _claims_group
        n_ops = len(wl.SELECTORS) if inputs.workload == "claims" else 1
        results, witnesses = [], []
        for G in inputs.groups:
            with tracer.span("group", G.display_name):
                try:
                    outputs, found = per_group(tracer, G)
                except Exception as exc:  # every operation of the group fails
                    outputs, found = [repr(exc)] * n_ops, []
            results.extend(outputs)
            witnesses.extend(found)
        return results, witnesses


def walk_caches(groups: list) -> dict:
    """Counts over every group reachable from the given ones through their
    caches: quotient and induced groups kept, cache entries, and normal
    subgroups enumerated."""
    counts = {"quotient": 0, "induced": 0, "entries": 0, "normal_subgroups": 0}
    seen: set[int] = set()
    stack = [G for G in groups if isinstance(G, ls.FiniteGroup)]
    while stack:
        G = stack.pop()
        if id(G) in seen:
            continue
        seen.add(id(G))
        for key, value in G._cache.items():
            counts["entries"] += 1
            if isinstance(key, tuple) and key[0] in ("quotient", "induced"):
                counts[key[0]] += 1
            if key == "normal_subgroups":
                counts["normal_subgroups"] += len(value)
            items = value if isinstance(value, (list, tuple)) else (value,)
            stack.extend(v for v in items if isinstance(v, ls.FiniteGroup))
    return counts


def layer_metrics(inputs: wl.Inputs, results: list, witnesses: list, tracer: Tracer) -> dict:
    """Every per-layer metric of one traced sweep, as plain numbers.  A
    layer the workload never calls reads 0."""
    out = {f"{name}_s": tracer.total(name) for name in LAYER_TIMES}
    held = inputs.groups if inputs.groups is not None else results
    counts = walk_caches(held)
    out["groups.validate_ops_n"] = (
        sum(n**3 for n in inputs.orders) if inputs.workload == "ingest" else 0
    )
    out["groups.quotient_built_n"] = counts["quotient"]
    out["groups.induced_built_n"] = counts["induced"]
    out["groups.cache_entries_n"] = counts["entries"]
    out["structure.normal_subgroups_n"] = counts["normal_subgroups"]
    out["largeness.witnesses_n"] = len(witnesses)
    large = sum(1 for w in witnesses if w.is_large)
    out["largeness.witnesses_large_ratio"] = large / len(witnesses) if witnesses else 0.0
    out["trace.total_s"] = tracer.total("trace")
    return out

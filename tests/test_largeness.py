"""The largeness test itself, the claim verifiers and the scan."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import largesub as ls


_SRC = Path(__file__).resolve().parent.parent / "src"

# The claims selectors of the benchmark and the scan, on soluble groups and
# the insoluble alternating(5), in a fresh interpreter.  A plain np.unique
# call imports numpy.ma (through np.ma.is_masked), which costs a first call
# about 10 ms; the library dedupes indices with bool masks instead.
_NO_MASKED_ARRAYS = """
import sys
import largesub as ls
groups = [
    ls.alternating_group(5),
    ls.symmetric_group(4),
    ls.special_linear_2_3(),
    ls.direct_product(ls.alternating_group(4), ls.alternating_group(4)),
]
for G in groups:
    for selector in ("D", "E", "F:2,3", "G:2", "GD:2", "A:nilpotent"):
        ls.verify_selector(G, selector)
records = ls.scan_exceptional(groups)
assert [r.status for r in records][0] == "not_soluble"
print("numpy.ma" in sys.modules)
"""


def test_claims_and_scan_leave_numpy_ma_unimported():
    path = os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.split() == ["False"]


# -- is_large ------------------------------------------------------------------


def test_is_large_basics(s4, a4, sl23):
    V4 = next(N for N in ls.normal_subgroups(a4) if N.order == 4)
    assert ls.is_large(a4, V4)
    Z = ls.center(sl23)
    assert Z.order == 2
    assert not ls.is_large(sl23, Z)
    assert ls.centralizer(sl23, Z).order == 24
    assert ls.is_large(s4, s4.whole())
    assert not ls.is_large(s4, s4.trivial())


def test_is_large_requires_normal(s4):
    t = next(x for x in range(24) if int(s4.element_orders()[x]) == 2)
    C2 = ls.closure(s4, [t])
    with pytest.raises(ls.NotNormal):
        ls.is_large(s4, C2)


def test_is_large_rejects_foreign_subgroup(s4, a4):
    with pytest.raises(ValueError):
        ls.is_large(s4, a4.whole())


def test_is_large_iff_centralizer_is_center(small_zoo):
    # the defining property in its equivalent form: N is large exactly when
    # its centralizer collapses to the center of N
    for G in small_zoo:
        for N in ls.normal_subgroups(G):
            cent = ls.centralizer(G, N)
            induced, back = ls.subgroup_as_group(G, N)
            center_of_n = sorted(back[z] for z in ls.center(induced).elements)
            expected = sorted(cent.elements) == center_of_n
            assert ls.is_large(G, N) == expected, (G.display_name, N.order)


# -- claim A and C -------------------------------------------------------------


def test_verify_maximal_member_large(s4, a5):
    nilpotent = ls.builtin_class("nilpotent")
    report = ls.verify_maximal_member_large(s4, nilpotent)
    assert report.theorem == "A"
    assert report.outcome == "pass"
    assert report.hypotheses == [("assembled_from_nilpotent", True)]
    assert [w.order for w in report.witnesses] == [4]
    # A5 is not assembled from nilpotent pieces: skip, not fail
    report5 = ls.verify_maximal_member_large(a5, nilpotent)
    assert report5.outcome == "skip"
    assert report5.witnesses == []
    assert report5.counterexample is None


def test_verify_maximal_member_needs_all_flags(s4):
    with pytest.raises(ls.ClosureFlagsMissing):
        ls.verify_maximal_member_large(s4, ls.builtin_class("abelian"))
    with pytest.raises(ls.ClosureFlagsMissing):
        ls.verify_maximal_member_large(s4, ls.builtin_class("nilpotent_class:2"))


def test_verify_formation_member_large(s4, sl23):
    supersoluble = ls.builtin_class("supersoluble")
    report = ls.verify_formation_member_large(s4, supersoluble)
    assert report.theorem == "C"
    assert report.outcome == "pass"
    assert [w.order for w in report.witnesses] == [4]
    report2 = ls.verify_formation_member_large(sl23, ls.builtin_class("nilpotent"))
    assert report2.outcome == "pass"
    assert [w.order for w in report2.witnesses] == [8]


def test_formation_witness_cross_validates_with_fitting(corpus):
    # for the nilpotent class the unique maximal normal member is the
    # fitting subgroup, so the two computations must agree
    nilpotent = ls.builtin_class("nilpotent")
    for G in corpus:
        if G.order > 100 or not ls.is_soluble(G):
            continue
        report = ls.verify_formation_member_large(G, nilpotent)
        if not report.hypotheses_ok:
            continue
        assert len(report.witnesses) == 1, G.display_name
        assert report.witnesses[0].order == ls.fitting_subgroup(G).subgroup.order


def test_verify_formation_member_flag_requirements(s4):
    with pytest.raises(ls.ClosureFlagsMissing):
        ls.verify_formation_member_large(s4, ls.builtin_class("abelian"))


def test_verify_formation_member_skips_class_without_abelian_samples(s4):
    # a class flagged correctly but rejecting the sample abelian groups
    # fails the membership hypothesis and reads as a skip
    dishonest = ls.ClassPredicate(
        "only_trivial",
        lambda G: G.order == 1,
        ls.ClosureFlags(normal_subgroups=True, solubly_saturated_formation=True),
    )
    report = ls.verify_formation_member_large(s4, dishonest)
    assert report.outcome == "skip"
    assert ("contains_abelian_samples", False) in report.hypotheses


# -- claims D, E, F --------------------------------------------------------------


def _assert_skip(report, hypothesis):
    # a failed hypothesis is the report's only entry, with nothing checked
    assert report.outcome == "skip"
    assert report.hypotheses == [(hypothesis, False)]
    assert report.witnesses == []
    assert report.counterexample is None


def test_verify_fitting_large(s4, sl23, a5):
    report = ls.verify_fitting_large(s4)
    assert report.outcome == "pass"
    assert report.witnesses[0].order == 4
    assert ls.verify_fitting_large(sl23).witnesses[0].order == 8
    _assert_skip(ls.verify_fitting_large(a5), "soluble")


def test_verify_generalized_fitting_large(s4, a5, sl23):
    assert ls.verify_generalized_fitting_large(s4).outcome == "pass"
    report = ls.verify_generalized_fitting_large(a5)
    assert report.outcome == "pass"
    assert report.witnesses[0].order == 60
    mixed = ls.direct_product(a5, ls.cyclic_group(2))
    assert ls.verify_generalized_fitting_large(mixed).outcome == "pass"
    big = ls.direct_product(a5, ls.symmetric_group(4))
    rep = ls.verify_generalized_fitting_large(big)
    assert rep.outcome == "pass"
    assert rep.witnesses[0].order == 240
    assert ls.verify_generalized_fitting_large(sl23).witnesses[0].order == 8


def test_verify_two_step_core_large(s4, a5):
    report = ls.verify_two_step_core_large(s4, [2])
    assert report.outcome == "pass"
    assert report.witnesses[0].order == 4
    report3 = ls.verify_two_step_core_large(s4, [3])
    assert report3.outcome == "pass"
    assert report3.witnesses[0].order == 12
    _assert_skip(ls.verify_two_step_core_large(a5, [2]), "pi_separable")
    # separable for a prime set that misses the order entirely
    assert ls.verify_two_step_core_large(a5, [7]).outcome == "pass"


# -- claims G and GD -------------------------------------------------------------


def test_verify_nilpotent_class_bound(s4, sl23, a5):
    report = ls.verify_nilpotent_class_bound_large(s4, 2)
    assert report.outcome == "pass"
    assert [w.order for w in report.witnesses] == [4]
    report2 = ls.verify_nilpotent_class_bound_large(sl23, 2)
    assert report2.outcome == "pass"
    assert [w.order for w in report2.witnesses] == [8]
    with pytest.raises(ls.BadClassBound):
        ls.verify_nilpotent_class_bound_large(s4, 1)
    _assert_skip(ls.verify_nilpotent_class_bound_large(a5, 2), "soluble")


def test_verify_derived_length_bound(s4, a5):
    report = ls.verify_derived_length_bound_large(s4, 2)
    assert report.outcome == "pass"
    assert [w.order for w in report.witnesses] == [12]
    with pytest.raises(ls.BadBound):
        ls.verify_derived_length_bound_large(s4, 1)
    _assert_skip(ls.verify_derived_length_bound_large(a5, 2), "soluble")


# -- claim H and the scan ---------------------------------------------------------


def test_verify_maximal_abelian_large_d8():
    report = ls.verify_maximal_abelian_large(ls.dihedral_group(8))
    assert report.outcome == "pass"
    assert sorted(w.order for w in report.witnesses) == [4, 4, 4]


def test_verify_maximal_abelian_records_witnesses_on_skip(a4xa4, sl23):
    report = ls.verify_maximal_abelian_large(a4xa4)
    assert report.outcome == "skip"
    assert ("supersoluble_residual_minimal_or_trivial", False) in report.hypotheses
    assert [w.order for w in report.witnesses] == [16]
    assert report.witnesses[0].is_large
    # SL(2,3) skips too, but its witness is honestly not large
    report2 = ls.verify_maximal_abelian_large(sl23)
    assert report2.outcome == "skip"
    assert [w.order for w in report2.witnesses] == [2]
    assert not report2.witnesses[0].is_large
    assert report2.counterexample is None


def test_verify_maximal_abelian_requires_soluble(a5):
    _assert_skip(ls.verify_maximal_abelian_large(a5), "soluble")


def test_scan_statuses(a4, a4xa4, sl23, a5):
    zoo = [a4, sl23, a4xa4, ls.symmetric_group(3), a5]
    records = ls.scan_exceptional(zoo)
    by_name = {r.name: r for r in records}
    assert by_name["alternating(4)"].status == "residual_minimal"
    assert by_name["sl(2,3)"].status == "witness_not_large"
    assert by_name["symmetric(3)"].status == "residual_minimal"
    assert by_name["alternating(5)"].status == "not_soluble"
    finding = by_name["direct(alternating(4),alternating(4))"]
    assert finding.status == "finding"
    assert finding.residual_order == 16
    assert finding.report is not None
    assert all(w.is_large for w in finding.report.witnesses)


# Python memory the scan leaves on its groups' caches, over every 8th
# corpus group (31 groups, built fresh so no earlier test has filled their
# caches): about 340 KiB when a lattice member holds only its sorted tuple,
# about 1,190 KiB when each member also kept a frozenset of its elements.
SCAN_HELD_BOUND = 600 * 1024


def test_scan_caches_hold_little_memory():
    groups = ls.reference_corpus()[::8]
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        records = ls.scan_exceptional(groups)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == len(groups) == 31
    assert held < SCAN_HELD_BOUND, f"{held / 1024:.0f} KiB held"


# The claims benchmark's selectors, and the Python memory their sweep leaves
# on the caches of the same 31 groups, built fresh, once the reports are
# dropped: about 411 KiB when each radical, center and invariant was also
# memoized under a key of its own, about 386 KiB with the lattice record as
# the one memo.  The bound keeps the scan test's headroom over the former.
BENCH_CLAIMS = ("D", "E", "F:2,3", "G:2", "GD:2", "A:nilpotent")
CLAIMS_HELD_BOUND = 720 * 1024


def test_claims_caches_hold_little_memory():
    groups = ls.reference_corpus()[::8]
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        outcomes = [ls.verify_selector(G, s).outcome for G in groups for s in BENCH_CLAIMS]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 31 * len(BENCH_CLAIMS)
    assert held < CLAIMS_HELD_BOUND, f"{held / 1024:.0f} KiB held"


# every kind of key a group's _cache may hold: its own conjugacy classes,
# lattice record and normal subgroups, and those of its subgroups, its
# element orders, and the quotient and induced groups it built
CACHE_KINDS = {
    "conjugacy_classes",
    "normal_lattice",
    "normal_subgroups",
    "element_orders",
    "quotient",
    "induced",
}
SAMPLE_CLAIMS = ("A:nilpotent", "B", "C:supersoluble", "D", "E", "F:2,3", "G:2", "GD:2", "H")


def test_caches_hold_only_the_record_and_what_it_cannot_answer(corpus):
    groups = [ls.FiniteGroup(G.table, name=G.name, trusted=True) for G in corpus]
    for G in groups:
        for selector in SAMPLE_CLAIMS:
            try:
                ls.verify_selector(G, selector)
            except ls.GroupError:  # B's cover can exceed the order cap
                pass
    ls.scan_exceptional(groups)
    kinds, seen, stack = set(), set(), list(groups)
    while stack:
        G = stack.pop()
        if id(G) in seen:
            continue
        seen.add(id(G))
        for key, value in G._cache.items():
            kinds.add(key if isinstance(key, str) else key[0])
            items = value if isinstance(value, (list, tuple)) else (value,)
            stack.extend(v for v in items if isinstance(v, ls.FiniteGroup))
    assert len(seen) > len(groups)  # induced groups were walked too
    assert kinds <= CACHE_KINDS, kinds - CACHE_KINDS


# -- the constructive witness (B) ---------------------------------------------------


def test_central_cover_witness_q8():
    Q8 = ls.quaternion_group(8)
    witness = ls.central_cover_witness(Q8, ls.center(Q8))
    assert witness.passed, witness.checks
    assert witness.cover.order == 4
    assert witness.product.order == 16
    assert dict(witness.checks)["central_image_is_cover_frattini"]


@pytest.mark.parametrize("key", ["cyclic(2)", "cyclic(4)", "cyclic(6)", "klein_four"])
def test_central_cover_round_trip_abelian(key):
    # an abelian group is its own center; the witness identifies it with
    # the frattini subgroup of its stretched cover
    G = ls.named_group(key)
    witness = ls.central_cover_witness(G, G.whole())
    assert witness.passed, (key, witness.checks)
    stretched = 1
    for _, q in ls.abelian_basis(G):
        stretched *= q * ls.prime_factors(q)[0]
    assert witness.cover.order == stretched
    assert witness.product.order == witness.cover.order


def test_central_cover_witness_rejects_bad_input(s4):
    D8 = ls.dihedral_group(8)
    with pytest.raises(ls.TrivialGroup):
        ls.central_cover_witness(D8, D8.trivial())
    C4 = next(N for N in ls.normal_subgroups(D8) if N.order == 4
              and ls.is_abelian(ls.subgroup_as_group(D8, N)[0])
              and any(int(D8.element_orders()[x]) == 4 for x in N.elements))
    with pytest.raises(ls.NotCentral):
        ls.central_cover_witness(D8, C4)
    with pytest.raises(ValueError):
        ls.central_cover_witness(s4, ls.center(ls.dihedral_group(8)))


# -- selectors and reports ------------------------------------------------------------


def test_verify_selector_dispatch(s4, sl23):
    assert ls.verify_selector(s4, "G:2").witnesses[0].order == 4
    assert ls.verify_selector(sl23, "g:2").witnesses[0].order == 8
    assert ls.verify_selector(s4, "GD:2").witnesses[0].order == 12
    assert ls.verify_selector(s4, "E").outcome == "pass"
    assert ls.verify_selector(s4, "D").outcome == "pass"
    assert ls.verify_selector(s4, "F:2").witnesses[0].order == 4
    assert ls.verify_selector(s4, "H").outcome == "pass"
    assert ls.verify_selector(s4, "A:nilpotent").outcome == "pass"
    assert ls.verify_selector(s4, "C:supersoluble").outcome == "pass"
    report = ls.verify_selector(sl23, "B")
    assert report.outcome == "pass"
    assert dict(report.checks)["product_order"]


def test_verify_selector_b_caps_the_central_product_not_the_direct_one():
    # G x cover has order 14 * 196 = 2744, over the default cap of 2000;
    # the central product glues the whole center and has order 196
    G = ls.direct_product(ls.cyclic_group(2), ls.cyclic_group(7))
    report = ls.verify_selector(G, "B")
    assert report.outcome == "pass"
    assert dict(report.checks)["product_order"]


def test_verify_selector_b_skips_centerless(s4):
    report = ls.verify_selector(s4, "B")
    assert report.outcome == "skip"
    assert report.hypotheses == [("nontrivial_center", False)]


@pytest.mark.parametrize(
    "selector",
    ["Q", "G", "GD", "F", "A", "C", "G:x", "F:2,x", "F:4", "A:frobenius", "A:nilpotent:7", "E:3"],
)
def test_verify_selector_rejects_bad_selectors(s4, selector):
    with pytest.raises(ls.UnknownClass):
        ls.verify_selector(s4, selector)


def test_claims_catalog_covers_selectors():
    assert set(ls.CLAIMS) == {"A", "B", "C", "D", "E", "F", "G", "GD", "H"}
    for text in ls.CLAIMS.values():
        assert text


def test_report_shape_and_serialization(s4):
    report = ls.verify_selector(s4, "G:2")
    data = report.to_dict()
    assert data["theorem"] == "G"
    assert data["group"] == "symmetric(4)"
    assert data["order"] == 24
    assert data["outcome"] == "pass"
    assert data["counterexample"] is None
    # structured output must be JSON-clean
    json.dumps(data)
    witness = data["witnesses"][0]
    assert set(witness) == {"descriptor", "order", "is_large", "centralizer_order"}


_A5_SKIP = ',"witnesses":[],"passed":false,"outcome":"skip","counterexample":null}'
_A5_RECORDS = {
    "D": '{"theorem":"D","group":"alternating(5)","order":60,"hypotheses":[["soluble",false]]' + _A5_SKIP,
    "E": '{"theorem":"E","group":"alternating(5)","order":60,"hypotheses":[],"witnesses":[{"descriptor":"generalized fitting subgroup (fitting subgroup (order 1) joined with the layer (order 60))","order":60,"is_large":true,"centralizer_order":1}],"passed":true,"outcome":"pass","counterexample":null}',
    "F:2": '{"theorem":"F","group":"alternating(5)","order":60,"hypotheses":[["pi_separable",false]]' + _A5_SKIP,
    "F:2,3": '{"theorem":"F","group":"alternating(5)","order":60,"hypotheses":[["pi_separable",false]]' + _A5_SKIP,
    "G:2": '{"theorem":"G","group":"alternating(5)","order":60,"hypotheses":[["soluble",false]]' + _A5_SKIP,
    "GD:2": '{"theorem":"GD","group":"alternating(5)","order":60,"hypotheses":[["soluble",false]]' + _A5_SKIP,
    "H": '{"theorem":"H","group":"alternating(5)","order":60,"hypotheses":[["soluble",false]]' + _A5_SKIP,
    "A:nilpotent": '{"theorem":"A","group":"alternating(5)","order":60,"hypotheses":[["assembled_from_nilpotent",false]]' + _A5_SKIP,
    "C:supersoluble": '{"theorem":"C","group":"alternating(5)","order":60,"hypotheses":[["contains_abelian_samples",true],["assembled_from_supersoluble",false]]' + _A5_SKIP,
}


@pytest.mark.parametrize("selector", list(_A5_RECORDS))
def test_verify_selector_report_is_the_cli_record(a5, selector):
    # each record is the line `largesub verify --format jsonl` prints for
    # alternating(5): the library's report and the CLI's record are one
    data = ls.verify_selector(a5, selector).to_dict()
    assert json.dumps(data, separators=(",", ":")) == _A5_RECORDS[selector]


def test_report_outcome_logic():
    # the verdict is read off the hypotheses, witnesses and checks
    large = ls.WitnessRecord("large", 2, (0, 1), True, 2)
    small = ls.WitnessRecord("small", 1, (0,), False, 2)
    skipped = ls.VerificationReport("X", "g", 2, [("h", False)], [small])
    assert (skipped.outcome, skipped.passed, skipped.counterexample) == ("skip", False, None)
    failed = ls.VerificationReport("X", "g", 2, [("h", True)], [large, small])
    assert (failed.outcome, failed.passed, failed.counterexample) == ("fail", False, small)
    checked = ls.VerificationReport("X", "g", 2, [("h", True)], [large], [("c", False)])
    assert (checked.outcome, checked.passed, checked.counterexample) == ("fail", False, None)
    report = ls.VerificationReport("X", "g", 2, [("h", True)], [large], [("c", True)])
    assert (report.outcome, report.passed, report.counterexample) == ("pass", True, None)
    report.witnesses.append(small)
    assert (report.outcome, report.passed, report.counterexample) == ("fail", False, small)

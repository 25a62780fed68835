"""The package's acceptance checklist.

One test per numbered behavior the package promises.  Each prints a single
machine-greppable line, visible even under output capture:

    [acceptance NN] PASS|FAIL|SKIP - description (detail)

The sweeps here run the full built-in corpus and are the slow part of the
suite; the other test modules cover the same code on small inputs.
"""

import os
import random
import time
from pathlib import Path

import pytest

import largesub as ls
from largesub.corpus import read_corpus

from oracles import commutator_subgroup


class _Line:
    """Context manager printing the one-line outcome for a numbered check."""

    def __init__(self, capsys, num, description):
        self.capsys = capsys
        self.num = num
        self.description = description
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            tag = "PASS"
        elif issubclass(exc_type, pytest.skip.Exception):
            tag = "SKIP"
        else:
            tag = "FAIL"
        text = self.description + (f" ({self.detail})" if self.detail else "")
        with self.capsys.disabled():
            print(f"[acceptance {self.num:02d}] {tag} - {text}")
        return False


def test_01_largeness_definition(capsys):
    with _Line(capsys, 1, "centralizer containment on sl(2,3) center and klein four in alternating(4)") as line:
        t0 = time.monotonic()
        sl23 = ls.special_linear_2_3()
        Z = ls.center(sl23)
        assert Z.order == 2
        assert not ls.is_large(sl23, Z)
        assert ls.centralizer(sl23, Z).order == 24
        a4 = ls.alternating_group(4)
        V4 = next(N for N in ls.normal_subgroups(a4) if N.order == 4)
        assert ls.is_large(a4, V4)
        elapsed = time.monotonic() - t0
        line.detail = f"{elapsed:.2f}s"
        assert elapsed < 1.0


def test_02_fitting_subgroup_large_in_soluble_groups(corpus, capsys):
    with _Line(capsys, 2, "fitting subgroup is large in every soluble corpus group") as line:
        t0 = time.monotonic()
        checked = 0
        for G in corpus:
            if not ls.is_soluble(G):
                continue
            report = ls.verify_fitting_large(G)
            assert report.passed, (G.display_name, report.to_dict())
            checked += 1
        elapsed = time.monotonic() - t0
        line.detail = f"{checked} groups, {elapsed:.1f}s"
        assert checked > 200
        assert elapsed < 60.0


def test_03_generalized_fitting_subgroup_large_everywhere(corpus, capsys):
    with _Line(capsys, 3, "generalized fitting subgroup is large in every corpus group") as line:
        t0 = time.monotonic()
        names = {G.display_name for G in corpus}
        assert "alternating(5)" in names
        assert "direct(cyclic(2),alternating(5))" in names
        assert "direct(alternating(5),symmetric(4))" in names
        for G in corpus:
            report = ls.verify_generalized_fitting_large(G)
            assert report.passed, (G.display_name, report.to_dict())
        a5 = next(G for G in corpus if G.display_name == "alternating(5)")
        assert ls.generalized_fitting_subgroup(a5).subgroup.is_whole
        s4 = next(G for G in corpus if G.display_name == "symmetric(4)")
        star = ls.generalized_fitting_subgroup(s4).subgroup
        assert star.order == 4
        assert all(x == 0 or int(s4.element_orders()[x]) == 2 for x in star.elements)
        line.detail = f"{len(corpus)} groups, {time.monotonic() - t0:.1f}s"


def test_04_two_step_core_large_in_separable_groups(corpus, capsys):
    with _Line(capsys, 4, "two-step core is large for pi in {2}, {3}, {2,3} wherever separable") as line:
        t0 = time.monotonic()
        passed = skipped = 0
        for G in corpus:
            for pi in ((2,), (3,), (2, 3)):
                report = ls.verify_two_step_core_large(G, pi)
                if report.outcome == "skip":
                    assert report.hypotheses == [("pi_separable", False)]
                    assert report.witnesses == [] and report.counterexample is None
                    skipped += 1
                    continue
                assert report.passed, (G.display_name, pi, report.to_dict())
                passed += 1
        s4 = next(G for G in corpus if G.display_name == "symmetric(4)")
        spot = ls.pi_prime_pi_core(s4, (2,)).subgroup
        assert spot.order == 4
        assert all(x == 0 or int(s4.element_orders()[x]) == 2 for x in spot.elements)
        line.detail = f"{passed} pass, {skipped} skip, {time.monotonic() - t0:.1f}s"
        assert passed > 600


def test_05_bounded_class_and_derived_length_members_large(corpus, capsys):
    with _Line(capsys, 5, "maximal normal subgroups of class <= c and derived length <= d are large in soluble groups") as line:
        t0 = time.monotonic()
        checked = 0
        for G in corpus:
            if not ls.is_soluble(G):
                continue
            for c in (2, 3):
                report = ls.verify_nilpotent_class_bound_large(G, c)
                assert report.passed, (G.display_name, "class", c, report.to_dict())
            for d in (2, 3):
                report = ls.verify_derived_length_bound_large(G, d)
                assert report.passed, (G.display_name, "derived", d, report.to_dict())
            checked += 1
        elapsed = time.monotonic() - t0
        line.detail = f"{checked} groups x 4 bounds, {elapsed:.1f}s"
        assert elapsed < 300.0


def test_06_maximal_abelian_normals_large_under_minimal_residual(corpus, capsys):
    with _Line(capsys, 6, "maximal abelian normal subgroups are large wherever the supersoluble residual is minimal or trivial") as line:
        t0 = time.monotonic()
        member = skipped = 0
        for G in corpus:
            if not ls.is_soluble(G):
                continue
            report = ls.verify_maximal_abelian_large(G)
            if report.hypotheses_ok:
                assert report.passed, (G.display_name, report.to_dict())
                member += 1
            else:
                assert report.outcome == "skip"
                skipped += 1
        a4 = next(G for G in corpus if G.display_name == "alternating(4)")
        assert ls.has_minimal_supersoluble_residual(a4)
        a4xa4 = next(
            G for G in corpus
            if G.display_name == "direct(alternating(4),alternating(4))"
        )
        assert not ls.has_minimal_supersoluble_residual(a4xa4)
        residual = ls.supersoluble_residual(a4xa4)
        # the residual is a full Sylow 2-subgroup: order 16 with odd index
        assert residual.order == 16
        assert a4xa4.order % residual.order == 0
        assert (a4xa4.order // residual.order) % 2 == 1
        line.detail = f"{member} members, {skipped} outside, {time.monotonic() - t0:.1f}s"
        assert member > 200
        assert skipped >= 1


def test_07_scan_flags_only_the_known_exception(capsys):
    with _Line(capsys, 7, "scan over a4, sl(2,3), a4xa4 and supersoluble fillers yields exactly one finding") as line:
        zoo = [
            ls.alternating_group(4),
            ls.special_linear_2_3(),
            ls.direct_product(ls.alternating_group(4), ls.alternating_group(4)),
            ls.symmetric_group(3),
            ls.dihedral_group(8),
            ls.dihedral_group(12),
            ls.quaternion_group(8),
            ls.cyclic_group(12),
        ]
        records = ls.scan_exceptional(zoo)
        findings = [r for r in records if r.status == "finding"]
        assert len(findings) == 1
        assert findings[0].name == "direct(alternating(4),alternating(4))"
        assert findings[0].order == 144
        assert findings[0].residual_order == 16
        line.detail = f"{len(zoo)} groups scanned"


def _small_corpus_path():
    bundled = Path(__file__).parent / "data" / "order_le_48_corpus.jsonl"
    if bundled.exists():
        return bundled
    env = os.environ.get("LARGESUB_SMALL_CORPUS")
    if env and Path(env).exists():
        return Path(env)
    return None


def test_08_scan_exhaustive_small_corpus(capsys):
    with _Line(capsys, 8, "scan of an ingested corpus of all groups of order <= 48 finds exactly the two order-48 groups") as line:
        path = _small_corpus_path()
        if path is None:
            line.detail = "no corpus at tests/data/order_le_48_corpus.jsonl or $LARGESUB_SMALL_CORPUS"
            pytest.skip("exhaustive order <= 48 corpus not available")
        t0 = time.monotonic()
        groups = read_corpus(path)
        assert all(G.order <= 48 for G in groups)
        records = ls.scan_exceptional(groups)
        findings = [r for r in records if r.status == "finding"]
        assert all(r.order == 48 for r in findings), [
            (r.name, r.order) for r in findings
        ]
        assert len(findings) == 2, [(r.name, r.order) for r in findings]
        elapsed = time.monotonic() - t0
        line.detail = f"{len(groups)} groups, {elapsed:.0f}s"
        assert elapsed < 1800.0


def test_09_central_cover_witness(capsys):
    with _Line(capsys, 9, "cover witness on sl(2,3) builds a cyclic(4) cover inside an order-48 product; round trip holds on small abelian groups") as line:
        sl23 = ls.special_linear_2_3()
        witness = ls.central_cover_witness(sl23, ls.center(sl23))
        assert witness.cover.order == 4
        assert max(int(o) for o in witness.cover.element_orders()) == 4
        assert witness.product.order == 48
        checks = dict(witness.checks)
        for name in (
            "product_order",
            "group_image_normal",
            "central_image_central",
            "central_image_is_cover_frattini",
        ):
            assert checks[name], name
        assert witness.passed
        for key in ("cyclic(2)", "cyclic(4)", "cyclic(6)", "klein_four"):
            A = ls.named_group(key)
            w = ls.central_cover_witness(A, A.whole())
            assert dict(w.checks)["cover_frattini_matches_invariants"], key
            assert w.passed, (key, w.checks)
        line.detail = "4 structural checks + 4 round trips"


def test_10_property_sweeps(corpus, capsys):
    with _Line(capsys, 10, "composition factors, component commutation and closure inheritance hold corpus-wide") as line:
        t0 = time.monotonic()

        # factor multisets do not depend on the series chosen
        for index, G in enumerate(corpus):
            rng = random.Random(7000 + index)
            baseline = sorted(ls.composition_series(G, rng=rng).factor_orders)
            for _ in range(99):
                trial = sorted(ls.composition_series(G, rng=rng).factor_orders)
                assert trial == baseline, G.display_name
        jh_done = time.monotonic()

        # components of one group centralize each other or coincide
        layered = 0
        for G in corpus:
            comps = ls.components(G)
            if not comps:
                continue
            layered += 1
            for i, A in enumerate(comps):
                for B in comps[i + 1 :]:
                    assert A == B or commutator_subgroup(
                        G, A.elements, B.elements
                    ).is_trivial, G.display_name
        # the corpus groups carry at most one component each; add a group
        # with two so the pairwise branch is genuinely exercised
        double = ls.direct_product(
            ls.alternating_group(5), ls.alternating_group(5), cap=4000
        )
        comps = ls.components(double)
        assert len(comps) == 2
        A, B = comps
        assert A != B
        assert commutator_subgroup(double, A.elements, B.elements).is_trivial
        comps_done = time.monotonic()

        # extension-closure membership passes to subnormal/normal data
        nilpotent = ls.builtin_class("nilpotent")
        quasinil = ls.builtin_class("quasinilpotent")
        violations = 0
        for G in corpus:
            for S in ls.subnormal_subgroups(G):
                induced, _ = ls.subgroup_as_group(G, S)
                if ls.is_simple(induced):
                    if ls.in_extension_closure(nilpotent, G) and not nilpotent.member(induced):
                        violations += 1
                    if not quasinil.member(induced):
                        violations += 1
        lemma2_done = time.monotonic()
        for G in corpus:
            for X in (nilpotent, quasinil):
                if not ls.in_extension_closure(X, G):
                    continue
                for N in ls.normal_subgroups(G):
                    induced, _ = ls.subgroup_as_group(G, N)
                    if not ls.in_extension_closure(X, induced):
                        violations += 1
                    Q, _ = ls.quotient_group(G, N)
                    if not ls.in_extension_closure(X, Q):
                        violations += 1
                if G.order > 1:
                    for N in ls.minimal_normal_subgroups(G):
                        induced, _ = ls.subgroup_as_group(G, N)
                        if not X.member(induced):
                            violations += 1
        assert violations == 0
        assert layered >= 5
        done = time.monotonic()
        line.detail = (
            f"factors {jh_done - t0:.0f}s,"
            f" components {comps_done - jh_done:.0f}s,"
            f" closure {done - comps_done:.0f}s,"
            " 0 violations"
        )
        assert done - t0 < 60.0


# the built-in classes whose flags allow both claim A and claim C
ASSEMBLY_CLASS_KEYS = (
    "nilpotent",
    "soluble",
    "supersoluble",
    "quasinilpotent",
    "pi_separable:2",
    "pi_separable:2,3",
    "normal_hall_pi_prime:2",
    "normal_hall_pi_prime:2,3",
)


def test_11_maximal_class_members_large_in_assembled_groups(corpus, capsys):
    with _Line(capsys, 11, "claims A and C never fail corpus-wide, and skip exactly the groups not assembled from the class") as line:
        t0 = time.monotonic()
        # A simple group is quasinilpotent; it lies in any other class above
        # exactly when it has prime order.  A nonabelian simple group has
        # even order and at least three prime divisors, so it is neither a
        # {2}- nor a {2,3}-group, nor a 2'-group: it is not pi-separable and
        # has no normal Hall pi'-subgroup for pi = {2} or {2,3}.
        soluble = {
            G.display_name: all(
                ls.prime_factors(o) == (o,) for o in ls.composition_series(G).factor_orders
            )
            for G in corpus
        }
        passed = skipped = 0
        for key in ASSEMBLY_CLASS_KEYS:
            X = ls.builtin_class(key)
            flags = X.closed_under
            assert flags.normal_subgroups and flags.quotients and flags.direct_products
            assert flags.central_extensions and flags.solubly_saturated_formation, key
            for verify in (ls.verify_maximal_member_large, ls.verify_formation_member_large):
                for G in corpus:
                    report = verify(G, X)
                    assembled = key == "quasinilpotent" or soluble[G.display_name]
                    assert report.outcome == ("pass" if assembled else "skip"), (
                        key, G.display_name, report.to_dict()
                    )
                    passed += report.outcome == "pass"
                    skipped += report.outcome == "skip"
        elapsed = time.monotonic() - t0
        line.detail = f"{passed} pass, {skipped} skip, {elapsed:.1f}s"
        assert skipped > 0
        assert elapsed < 120.0

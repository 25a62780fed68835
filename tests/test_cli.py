"""End-to-end command line behavior: verbs, formats and exit codes."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import largesub as ls
import largesub.cli as cli
from largesub.corpus import dump_record, write_corpus


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


# -- group expressions -----------------------------------------------------------


def test_parse_group_spec_names_and_nesting():
    assert ls.named_group("symmetric(4)").order == 24
    assert ls.named_group(" direct( alternating(4), cyclic(2) ) ").order == 24
    nested = ls.named_group("direct(direct(cyclic(2),cyclic(3)),symmetric(3))")
    assert nested.order == 36
    glued = ls.named_group("central(sl(2,3),quaternion(8))")
    assert glued.order == 96
    assert ls.center(glued).order == 2


def test_parse_group_spec_central_requires_isomorphic_centers():
    with pytest.raises(ls.NotIsomorphism):
        ls.named_group("central(quaternion(8),cyclic(4))")


@pytest.mark.parametrize(
    "text",
    [
        "direct(cyclic(2))",
        "direct(cyclic(2),cyclic(3),cyclic(5))",
        "direct(cyclic(2),cyclic(3)",
        "central(cyclic(2)))",
        "nonsense(2)",
        "cyclic(0)",
        "cyclic(x)",
        "cyclic(2,3)",
        "sl(3,3)",
        "monster",
        pytest.param(
            "direct(" * 1000 + "cyclic(1)" + ",cyclic(1))" * 1000, id="nested-1000-deep"
        ),
    ],
)
def test_parse_group_spec_rejects_bad_expressions(text, capsys):
    with pytest.raises(ls.UnknownName):
        ls.named_group(text)
    code, out, err = run(capsys, "info", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- info -------------------------------------------------------------------------


def test_info_text(capsys):
    code, out, err = run(capsys, "info", "symmetric(4)")
    assert code == 0
    assert "group: symmetric(4)" in out
    assert "order: 24" in out
    assert "normal subgroup orders: 1, 4, 12, 24" in out
    assert "derived series orders: 24 > 12 > 4 > 1" in out
    assert "fitting subgroup order: 4" in out
    assert "supersoluble residual minimal or trivial: yes" in out


def test_info_insoluble_annotation(capsys):
    code, out, _ = run(capsys, "info", "alternating(5)")
    assert code == 0
    assert "supersoluble residual minimal or trivial: no (not soluble)" in out


def test_info_jsonl(capsys):
    code, out, _ = run(capsys, "info", "sl(2,3)", "--format", "jsonl")
    assert code == 0
    (record,) = jsonl(out)
    assert record["order"] == 24
    assert record["center_order"] == 2
    assert record["fitting_order"] == 8
    assert record["generalized_fitting_order"] == 8
    assert record["supersoluble_residual_order"] == 8
    assert record["residual_minimal_or_trivial"] is False


def test_info_rejects_unknown_group(capsys):
    code, out, err = run(capsys, "info", "mystery(3)")
    assert code == 2
    assert "error:" in err


# -- verify -----------------------------------------------------------------------


def test_verify_single_group_text(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "G", "--c", "2", "symmetric(4)")
    assert code == 0
    assert "[PASS] G symmetric(4) order 24" in out
    assert "summary: 1 pass, 0 skip, 0 fail" in out


def test_verify_compact_selector(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "G:2", "symmetric(4)")
    assert code == 0
    assert "summary: 1 pass, 0 skip, 0 fail" in out


def test_verify_flag_variants(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "GD", "--d", "2", "symmetric(4)")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--theorem", "F", "--pi", "2,3", "symmetric(4)")
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--theorem", "C", "--class-key", "nilpotent", "sl(2,3)"
    )
    assert code == 0
    assert "summary: 1 pass" in out


def test_verify_missing_parameter(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "G", "symmetric(4)")
    assert code == 2
    assert "needs --c" in err


def test_verify_insoluble_is_skip(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "D", "alternating(5)")
    assert code == 0
    assert "[SKIP] D alternating(5) order 60: hypothesis failed: soluble" in out
    assert "summary: 0 pass, 1 skip, 0 fail" in out


def test_verify_separability_skip(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "F", "--pi", "2", "alternating(5)")
    assert code == 0
    assert "[SKIP]" in out
    assert "pi_separable" in out


def test_verify_skip_names_the_theorem_without_spaces(capsys):
    # a space before ':' in the selector is not part of the theorem name
    code, out, _ = run(capsys, "verify", "--claim", "G :2", "alternating(5)")
    assert code == 0
    assert "[SKIP] G alternating(5) order 60: hypothesis failed: soluble" in out
    code, out, _ = run(
        capsys, "verify", "--claim", "G :2", "alternating(5)", "--format", "jsonl"
    )
    assert code == 0
    assert '"theorem":"G"' in out


def test_verify_jsonl_reports(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "E", "direct(alternating(5),symmetric(4))",
        "--format", "jsonl",
    )
    assert code == 0
    records = jsonl(out)
    assert records[0]["theorem"] == "E"
    assert records[0]["outcome"] == "pass"
    assert records[0]["witnesses"][0]["order"] == 240
    assert records[-1] == {"summary": {"pass": 1, "skip": 0, "fail": 0}}


def test_verify_corpus_file(capsys, tmp_path):
    path = tmp_path / "mini.jsonl"
    write_corpus(
        path,
        [ls.symmetric_group(4), ls.alternating_group(5), ls.special_linear_2_3()],
    )
    code, out, _ = run(capsys, "verify", "--theorem", "D", str(path))
    assert code == 0
    assert "summary: 2 pass, 1 skip, 0 fail" in out


def test_verify_prints_records_before_an_error(capsys, tmp_path):
    # claim B on C7 x C7 needs a cover of order 2401, above the default cap
    path = tmp_path / "raises.jsonl"
    C7 = ls.cyclic_group(7)
    write_corpus(path, [ls.cyclic_group(2), ls.direct_product(C7, C7), ls.cyclic_group(3)])
    code, out, err = run(capsys, "verify", "--claim", "B", str(path), "--format", "jsonl")
    assert code == 2
    assert [r["order"] for r in jsonl(out)] == [2]
    assert "exceeds the cap" in err


def test_verify_counterexample_exit_code(capsys, tmp_path, monkeypatch):
    # no true claim fails on the shipped corpus, so exercise the failure
    # path with a stubbed verifier
    report = ls.VerificationReport("D", "stub", 1)
    report.hypotheses.append(("soluble", True))
    report.witnesses.append(
        ls.WitnessRecord("stub subgroup", 1, (0,), False, 1)
    )
    monkeypatch.setattr(cli, "claim_for", lambda s: lambda G: report)
    code, out, _ = run(capsys, "verify", "--theorem", "D", "cyclic(2)")
    assert code == 1
    assert "[FAIL]" in out
    assert "counterexample: stub subgroup (centralizer order 1)" in out
    assert "summary: 0 pass, 0 skip, 1 fail" in out


def test_verify_failed_checks_line(capsys, monkeypatch):
    report = ls.VerificationReport("B", "stub", 8)
    report.checks.append(("product_order", False))
    monkeypatch.setattr(cli, "claim_for", lambda s: lambda G: report)
    code, out, _ = run(capsys, "verify", "--theorem", "B", "cyclic(2)")
    assert code == 1
    assert "failed checks: product_order" in out


def test_verify_b_witness(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "B", "sl(2,3)")
    assert code == 0
    assert "[PASS] B sl(2,3) order 24: 5 checks" in out


def test_verify_bad_bound_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "G", "--c", "1", "symmetric(4)")
    assert code == 2
    assert "at least 2" in err


_BAD_SELECTORS = {
    "Z": "unknown claim selector",
    # a parameter the claim or class does not take is unusable input
    "A:nilpotent:7": "class 'nilpotent' takes no parameter",
    "C:supersoluble:x": "class 'supersoluble' takes no parameter",
    "E:3": "claim E takes no parameter",
    "H:junk": "claim H takes no parameter",
    "B:1": "claim B takes no parameter",
    "A:nilpotent:": "class 'nilpotent' takes no parameter",
}


@pytest.mark.parametrize("selector", list(_BAD_SELECTORS))
def test_verify_bad_selector(capsys, selector):
    code, out, err = run(capsys, "verify", "--theorem", selector, "symmetric(3)")
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error:") and _BAD_SELECTORS[selector] in line


@pytest.mark.parametrize(
    "selector",
    ["Z", "E:3", "A:bogus", "G:1", "GD:0", "A:abelian", "C:abelian", "C:nilpotent_class:2"],
)
def test_verify_checks_the_selector_before_reading(capsys, tmp_path, selector):
    # a corpus without records once printed an empty summary and exited 0
    path = tmp_path / "empty.jsonl"
    path.write_text("# no records\n")
    code, out, err = run(capsys, "verify", "--theorem", selector, str(path))
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["--theorem", "E", "--pi", "2,3", "--class-key", "junk"],
        ["--theorem", "G:2", "--c", "3"],
        ["--theorem", "A:nilpotent", "--class-key", "soluble"],
        ["--theorem", "D", "--c", "5"],
        ["--theorem", "F", "--pi", "2", "--d", "2"],
    ],
)
def test_verify_flag_the_selector_does_not_read(capsys, argv):
    # each of these once ran the selector and ignored the flag
    code, out, err = run(capsys, "verify", *argv, "symmetric(4)")
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error:") and "does not read --" in line


# each flag spelling and the compact selector it stands for
_FLAG_SPELLINGS = {
    "A:nilpotent": ["--theorem", "A", "--class-key", "nilpotent"],
    "C:nilpotent": ["--theorem", "C", "--class-key", "nilpotent"],
    "F:2,3": ["--theorem", "F", "--pi", "2,3"],
    "G:2": ["--theorem", "G", "--c", "2"],
    "GD:2": ["--theorem", "GD", "--d", "2"],
}


def test_flag_spellings_print_what_their_selectors_print(capsys, tmp_path, monkeypatch):
    path = tmp_path / "eight.jsonl"
    write_corpus(
        path,
        [
            ls.cyclic_group(6),
            ls.klein_four_group(),
            ls.symmetric_group(3),
            ls.quaternion_group(),
            ls.symmetric_group(4),
            ls.special_linear_2_3(),
            ls.alternating_group(5),
            ls.direct_product(ls.alternating_group(4), ls.cyclic_group(2)),
        ],
    )
    for selector, flags in _FLAG_SPELLINGS.items():
        compact = run(capsys, "verify", "--theorem", selector, str(path), "--format", "jsonl")
        spelled = run(capsys, "verify", *flags, str(path), "--format", "jsonl")
        assert spelled == compact
        assert compact[0] == 0 and len(jsonl(compact[1])) == 9
    # the selector grammar and the class keys are read off tables, in order
    assert list(ls.CLAIMS) == ["A", "C", "D", "E", "F", "G", "GD", "H", "B"]
    assert ls.BUILTIN_CLASS_KEYS == (
        "abelian",
        "nilpotent",
        "nilpotent_class:c",
        "soluble",
        "soluble_derived:d",
        "supersoluble",
        "quasinilpotent",
        "pi_separable:p1,p2,...",
        "normal_hall_pi_prime:p1,p2,...",
    )
    monkeypatch.setenv("COLUMNS", "400")  # one help entry per line
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = capsys.readouterr().out
    assert "claim selector: A:classkey, C:classkey, D, E, F:primes, G:c, GD:d, H, B\n" in help_text
    assert "class key for claims A and C, e.g. nilpotent\n" in help_text
    assert "nilpotency class bound for claim G\n" in help_text


# -- scan -------------------------------------------------------------------------


@pytest.fixture()
def scan_corpus_path(tmp_path):
    groups = [
        ls.alternating_group(4),
        ls.special_linear_2_3(),
        ls.direct_product(ls.alternating_group(4), ls.alternating_group(4)),
        ls.symmetric_group(3),
        ls.dihedral_group(8),
        ls.cyclic_group(12),
        ls.alternating_group(5),
    ]
    path = tmp_path / "scan.jsonl"
    write_corpus(path, groups)
    return path


def test_scan_text(capsys, scan_corpus_path):
    code, out, _ = run(capsys, "scan", str(scan_corpus_path))
    assert code == 0
    assert (
        "finding: direct(alternating(4),alternating(4)) order 144,"
        " supersoluble residual order 16," in out
    )
    assert "scanned 7 groups: 1 findings, 4 residual-minimal," in out
    assert "1 with a non-large witness, 1 skipped (not soluble)" in out
    assert "findings per order: 144: 1" in out


def test_scan_jsonl(capsys, scan_corpus_path):
    code, out, _ = run(capsys, "scan", str(scan_corpus_path), "--format", "jsonl")
    assert code == 0
    records = jsonl(out)
    summary = records[-1]
    assert summary["summary"] == {
        "finding": 1,
        "residual_minimal": 4,
        "witness_not_large": 1,
        "not_soluble": 1,
    }
    assert summary["findings_per_order"] == {"144": 1}
    finding = next(r for r in records[:-1] if r["status"] == "finding")
    assert finding["residual_order"] == 16
    assert all(w["is_large"] for w in finding["witnesses"])
    skipped = next(r for r in records[:-1] if r["status"] == "not_soluble")
    assert skipped["witnesses"] is None


def test_scan_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "scan", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "not found" in err


# -- construct / corpus-check --------------------------------------------------------


def test_construct_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "direct(cyclic(2),cyclic(3))")
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "table"
    assert record["order"] == 6
    path = tmp_path / "one.jsonl"
    path.write_text(out)
    code, out2, _ = run(capsys, "verify", "--theorem", "D", str(path))
    assert code == 0
    assert "summary: 1 pass" in out2


def test_corpus_check_ok(capsys, tmp_path):
    path = tmp_path / "ok.jsonl"
    write_corpus(path, [ls.cyclic_group(4), ls.symmetric_group(3)])
    code, out, _ = run(capsys, "corpus-check", str(path))
    assert code == 0
    assert "line 1: ok cyclic(4) order 4" in out
    assert "line 2: ok symmetric(3) order 6" in out
    assert "2 records, 0 failing" in out


def test_corpus_check_reports_broken_record(capsys, tmp_path):
    # order-5 latin square with two-sided inverses but no associativity
    from test_groups import LOOP5

    flat = [v for row in LOOP5 for v in row]
    lines = [
        dump_record(ls.cyclic_group(3)),
        json.dumps({"kind": "table", "name": "loop5", "order": 5, "table": flat}),
    ]
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "corpus-check", str(path))
    assert code == 1
    assert "line 1: ok cyclic(3) order 3" in out
    assert "line 2: FAIL loop5" in out
    assert "witness (1, 1, 2)" in out
    assert "2 records, 1 failing" in out


def test_corpus_check_cap_exceeded(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LARGESUB_ORDER_CAP", "100")
    record = {
        "kind": "perm",
        "name": "big",
        "degree": 5,
        "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
    }
    path = tmp_path / "big.jsonl"
    path.write_text(json.dumps(record) + "\n")
    code, out, _ = run(capsys, "corpus-check", str(path))
    assert code == 1
    assert "FAIL big" in out
    assert "exceeds the cap 100" in out


@pytest.mark.parametrize("value", ["abc", " ", "1e3"])
def test_order_cap_not_an_integer_is_one_error_line(capsys, monkeypatch, value):
    monkeypatch.setenv("LARGESUB_ORDER_CAP", value)
    code, out, err = run(capsys, "info", "cyclic(3)")
    assert code == 2
    assert out == ""
    assert err == f"error: LARGESUB_ORDER_CAP={value!r} is not an integer\n"


def test_malformed_corpus_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"magma"}\n')
    code, _, err = run(capsys, "corpus-check", str(path))
    assert code == 2
    assert "line 1" in err


def test_verify_on_malformed_corpus(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n")
    code, _, err = run(capsys, "verify", "--theorem", "E", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_central_spec_mismatch_is_input_error(capsys):
    code, _, err = run(capsys, "info", "central(quaternion(8),cyclic(4))")
    assert code == 2
    assert "error:" in err


# -- exit-code contract -------------------------------------------------------------

_PARAM = st.integers(-2, 12)
_ATOM = st.one_of(
    st.sampled_from(["trivial", "klein_four"]),
    st.builds(
        "{}({})".format,
        st.sampled_from(["cyclic", "dihedral", "quaternion", "symmetric", "alternating"]),
        _PARAM,
    ),
    st.builds("sl({},{})".format, _PARAM, _PARAM),
)
_EXPR = st.one_of(
    _ATOM,
    st.builds("{}({},{})".format, st.sampled_from(["direct", "central"]), _ATOM, _ATOM),
)
_VERB = st.sampled_from([["info"]] + [["verify", "--claim", c] for c in "DEHB"])


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(expr=_EXPR, verb=_VERB)
# claim B built the 59049-element G x cover before checking the cap
@example(expr="direct(cyclic(9),cyclic(9))", verb=["verify", "--claim", "B"])
def test_main_exit_code_contract(capsys, expr, verb):
    code, _, err = run(capsys, *verb, expr)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def _exit_code(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refusing the arguments: usage line, exit 2
        code = exc.code
    out, err = capsys.readouterr()
    out.encode("utf-8")  # a real stdout refuses what capsys takes, e.g. lone surrogates
    return code, err


_SMALL_ATOM = st.one_of(
    st.sampled_from(["trivial", "klein_four", "sl(2,3)"]),
    st.builds(
        "{}({})".format,
        st.sampled_from(["cyclic", "dihedral", "quaternion", "symmetric", "alternating"]),
        st.integers(-1, 5),
    ),
)
_SMALL_EXPR = st.one_of(_SMALL_ATOM, st.builds("direct({},{})".format, _SMALL_ATOM, _SMALL_ATOM))
_HUGE = st.sampled_from([2**31 - 1, 10**18 + 3, 10**30])  # two primes, one not
_INT = st.one_of(st.integers(-3, 6), _HUGE)
_PRIMES = st.one_of(
    st.lists(st.one_of(st.integers(-3, 40), _HUGE), max_size=3).map(
        lambda ps: ",".join(map(str, ps))
    ),
    st.sampled_from(["x", "2,,3", " 2", "2;3"]),
)
_CLASS_KEY = st.one_of(
    st.sampled_from(
        ["abelian", "nilpotent", "soluble", "supersoluble", "quasinilpotent", "", "bogus"]
    ),
    st.builds("{}:{}".format, st.sampled_from(["nilpotent_class", "soluble_derived"]), _INT),
    st.builds("{}:{}".format, st.sampled_from(["pi_separable", "normal_hall_pi_prime"]), _PRIMES),
)
# every selector, in its compact form and with its flag, parameters drawn
_SELECTOR = st.one_of(
    st.sampled_from([["--theorem", c] for c in "D E H B A C F G GD Z".split()]),
    st.builds(lambda h, k: ["--theorem", f"{h}:{k}"], st.sampled_from("AC"), _CLASS_KEY),
    st.builds(lambda h, k: ["--theorem", h, "--class-key", k], st.sampled_from("AC"), _CLASS_KEY),
    st.builds(lambda p: ["--theorem", f"F:{p}"], _PRIMES),
    st.builds(lambda p: ["--theorem", "F", "--pi", p], _PRIMES),
    st.builds(lambda h, k: ["--theorem", f"{h}:{k}"], st.sampled_from(["G", "GD"]), _INT),
    st.builds(lambda k: ["--theorem", "G", "--c", str(k)], _INT),
    st.builds(lambda k: ["--theorem", "GD", "--d", str(k)], _INT),
    # a compact selector reads no flag, so any flag beside it is unusable input
    st.builds(
        lambda sel, flag: ["--theorem", sel, *flag],
        st.sampled_from(["B:", "E:3", "A:nilpotent", "C:bogus", "F:2,3", "G:2", "GD:x", "Z:1"]),
        st.sampled_from(
            [["--class-key", "nilpotent"], ["--pi", "2,3"], ["--c", "2"], ["--d", "3"]]
        ),
    ),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(expr=_SMALL_EXPR, selector=_SELECTOR)
@example(expr="cyclic(2)", selector=["--theorem", f"F:{10**18 + 3}"])  # was minutes of trial division
@example(expr="symmetric(4)", selector=["--theorem", "G:2", "--c", "3"])
def test_verify_selectors_keep_exit_code_contract(capsys, expr, selector):
    code, err = _exit_code(capsys, ["verify", *selector, expr])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if ":" in selector[1] and len(selector) > 2:
        assert code == 2 and len(err.splitlines()) == 1


_ODD = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(width=16),
    st.text(max_size=2),
    st.sampled_from([2**63, -(2**63) - 1, 10**30]),
)


# st.text never draws lone surrogates, which JSON can still carry
_NAME = st.one_of(st.none(), st.text(max_size=3), st.sampled_from(["\ud800", "s\udfff"]), st.integers())


@st.composite
def _table_line(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(0, n - 1)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.integers(-1, n), _ODD)
    record = {
        "kind": "table",
        "name": draw(_NAME),
        "order": draw(st.one_of(st.just(n), st.integers(-1, 5), _ODD)),  # may be wrong
        "table": draw(st.lists(entry, min_size=n * n, max_size=n * n)),
    }
    return json.dumps(record)


@st.composite
def _perm_line(draw):
    d = draw(st.integers(1, 4))
    image = st.one_of(st.integers(0, d - 1), st.integers(-1, d), _ODD)
    record = {
        "kind": "perm",
        "degree": draw(st.one_of(st.just(d), _ODD)),
        "generators": draw(st.lists(st.lists(image, min_size=d, max_size=d), max_size=2)),
    }
    return json.dumps(record)


_GOOD_LINES = [
    dump_record(G)
    for G in (ls.cyclic_group(2), ls.symmetric_group(3), ls.alternating_group(4))
]
_LINE = st.one_of(
    _table_line(),
    _perm_line(),
    st.sampled_from(_GOOD_LINES + ["", "# comment", '{"kind":"magma"}', "{broken", "[]"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
_FILE_VERB = st.one_of(
    st.just(["scan"]),
    st.just(["corpus-check"]),
    _SELECTOR.map(lambda sel: ["verify", *sel]),
)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    lines=st.lists(_LINE, min_size=1, max_size=4),
    verb=_FILE_VERB,
    raw=st.one_of(st.just(b""), st.binary(min_size=1, max_size=4)),
)
# each of these once ended in a traceback: a name stdout cannot print, an
# integer too long for json, nesting too deep for it, bytes that are not UTF-8
@example(['{"kind":"table","name":"\\ud800","order":1,"table":[0]}'], ["corpus-check"], b"")
@example(['{"kind":"table","order":1,"table":[' + "9" * 5000 + "]}"], ["scan"], b"")
@example(["[" * 100000 + "]" * 100000], ["corpus-check"], b"")
@example(_GOOD_LINES[:1], ["scan"], b"\xff")
def test_corpus_files_keep_exit_code_contract(capsys, tmp_path, lines, verb, raw):
    path = tmp_path / "drawn.jsonl"
    # drawn bytes, if any, go last and are usually not UTF-8
    path.write_bytes("\n".join(lines).encode() + b"\n" + raw)
    code, err = _exit_code(capsys, [*verb, str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err

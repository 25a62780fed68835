"""Corpus parsing, validation and round-trips."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import largesub as ls
import oracles
from largesub import corpus
from largesub.corpus import (
    CorpusRecord,
    dump_record,
    iter_records,
    read_corpus,
    read_records,
    record_for_group,
    write_corpus,
)


def test_round_trip_through_file(tmp_path):
    groups = [ls.symmetric_group(3), ls.cyclic_group(5), ls.quaternion_group(8)]
    path = tmp_path / "zoo.jsonl"
    write_corpus(path, groups)
    loaded = read_corpus(path)
    assert [G.order for G in loaded] == [6, 5, 8]
    for orig, back in zip(groups, loaded):
        assert back.name == orig.name
        assert (back.table == orig.table).all()


def test_comments_and_blank_lines_skipped():
    lines = [
        "# a comment",
        "",
        "   ",
        dump_record(ls.cyclic_group(2)),
        "# another",
        dump_record(ls.cyclic_group(3)),
    ]
    recs = list(iter_records(lines))
    assert [r.line_no for r in recs] == [4, 6]
    assert [r.build().order for r in recs] == [2, 3]


def test_perm_record_builds():
    rec = next(
        iter_records(
            ['{"kind":"perm","name":"s3","degree":3,"generators":[[1,0,2],[1,2,0]]}']
        )
    )
    G = rec.build()
    assert G.order == 6
    assert G.name == "s3"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("{not json", "invalid JSON"),
        ("[1,2,3]", "JSON object"),
        ('{"kind":"magma"}', "unknown record kind"),
        ('{"kind":"table","name":3,"order":1,"table":[0]}', "name must be a string"),
        ('{"kind":"table","name":"\\ud800","order":1,"table":[0]}', "name must be a string"),
        ('{"kind":"table","order":0,"table":[]}', "positive integer order"),
        ('{"kind":"table","order":"2","table":[0,1,1,0]}', "positive integer order"),
        ('{"kind":"table","order":2,"table":[0,1,1]}', "flat list of 2*2"),
        ('{"kind":"table","order":2,"table":[0,1,1,"0"]}', "entries must be integers"),
        ('{"kind":"perm","degree":0,"generators":[[0]]}', "positive integer degree"),
        ('{"kind":"perm","degree":3,"generators":[]}', "nonempty generator list"),
        ('{"kind":"perm","degree":3,"generators":[[1,0]]}', "list of 3 integers"),
        # JSON booleans load as Python bools, a subclass of int
        ('{"kind":"table","order":true,"table":[false]}', "positive integer order"),
        ('{"kind":"table","order":1,"table":[false]}', "entries must be integers"),
        ('{"kind":"perm","degree":true,"generators":[[0]]}', "positive integer degree"),
        ('{"kind":"perm","degree":2,"generators":[[true,false]]}', "list of 2 integers"),
    ],
)
def test_malformed_records(line, fragment):
    with pytest.raises(ls.CorpusFormatError) as info:
        list(iter_records([line]))
    assert fragment in str(info.value)


def test_unreadable_json_is_a_format_error():
    # json.loads raises plain ValueError on overlong integers and
    # RecursionError on deep nesting, not only JSONDecodeError
    overlong = '{"kind":"table","order":1,"table":[' + "9" * 5000 + "]}"
    deep = "[" * 100000 + "]" * 100000
    for line in (overlong, deep):
        with pytest.raises(ls.CorpusFormatError, match="invalid JSON"):
            list(iter_records([line]))


def test_format_error_carries_line_number():
    lines = [dump_record(ls.cyclic_group(2)), "# fine", "{broken"]
    with pytest.raises(ls.CorpusFormatError) as info:
        list(iter_records(lines))
    assert info.value.line_no == 3
    assert "line 3" in str(info.value)


def test_semantic_failures_surface_as_not_a_group():
    # structurally valid record whose table repeats a product in a row
    bad = {"kind": "table", "name": None, "order": 2, "table": [0, 1, 1, 1]}
    rec = next(iter_records([json.dumps(bad)]))
    with pytest.raises(ls.NotAGroup):
        rec.build()
    # an entry too large for any index, let alone a 64-bit one
    huge = {"kind": "table", "order": 1, "table": [10**30]}
    rec = next(iter_records([json.dumps(huge)]))
    with pytest.raises(ls.NotAGroup):
        rec.build()
    # well-formed perm record whose images are not permutations
    dup = {"kind": "perm", "degree": 3, "generators": [[0, 0, 1]]}
    rec = next(iter_records([json.dumps(dup)]))
    with pytest.raises(ls.NotAGroup):
        rec.build()


def test_read_corpus_names_the_line_of_a_record_that_does_not_build(tmp_path):
    bad = {"kind": "table", "name": "bad", "order": 2, "table": [0, 1, 1, 1]}
    path = tmp_path / "mixed.jsonl"
    path.write_text(dump_record(ls.cyclic_group(2)) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ls.CorpusFormatError) as info:
        read_corpus(path)
    assert info.value.line_no == 2
    assert "record does not build" in str(info.value)
    assert isinstance(info.value.__cause__, ls.NotAGroup)
    with pytest.raises(ls.CorpusFormatError) as info:
        read_corpus(path, cap=1)
    assert info.value.line_no == 1
    assert isinstance(info.value.__cause__, ls.OrderCapExceeded)


def test_build_respects_cap():
    rec = CorpusRecord(
        kind="perm",
        name=None,
        line_no=1,
        data={"degree": 5, "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]},
    )
    with pytest.raises(ls.OrderCapExceeded):
        rec.build(cap=60)
    assert rec.build(cap=120).order == 120


def test_table_build_checks_declared_order_before_building():
    # the flat list is far too short for order 5: only the cap check, which
    # reads the declared order, can have raised
    rec = CorpusRecord(kind="table", name=None, line_no=1, data={"order": 5, "table": [0]})
    with pytest.raises(ls.OrderCapExceeded) as info:
        rec.build(cap=4)
    assert (info.value.order, info.value.cap) == (5, 4)
    rec = next(iter_records([dump_record(ls.cyclic_group(5))]))
    with pytest.raises(ls.OrderCapExceeded):
        rec.build(cap=4)
    assert rec.build(cap=5).order == 5


def test_record_for_group_is_flat_row_major():
    G = ls.cyclic_group(3)
    rec = record_for_group(G)
    assert rec["table"] == [0, 1, 2, 1, 2, 0, 2, 0, 1]
    assert json.loads(dump_record(G)) == rec


def test_read_records_reports_path_problems(tmp_path):
    with pytest.raises(OSError):
        read_records(tmp_path / "missing.jsonl")


# -- the one-pass entry conversion ----------------------------------------------


def _outcome(build):
    """The built table's bytes, or the class, message and witness of the
    error that parsing or building raises."""
    try:
        G = build()
    except ls.GroupError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return G.table.tobytes()


def _reader_outcome(line):
    return _outcome(lambda: next(iter_records([line])).build())


def _oracle_outcome(line):
    # the JSON and shape errors, the per-entry type check, then the parsed
    # list handed to build
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return "CorpusFormatError", f"line 1: invalid JSON ({exc.msg})", None
    n = data["order"]
    if not isinstance(data.get("table"), list) or len(data["table"]) != n * n:
        return "CorpusFormatError", f"line 1: table must be a flat list of {n}*{n} entries", None
    if oracles.integer_entries(data["table"]) is None:
        return "CorpusFormatError", "line 1: table entries must be integers", None
    rec = CorpusRecord(kind="table", name=data.get("name"), line_no=1, data=data)
    return _outcome(rec.build)


def _c2(entries, name="c2"):
    return json.dumps({"kind": "table", "name": name, "order": 2, "table": entries})


@pytest.mark.parametrize(
    "line",
    [
        _c2([0, 1, 1, True]),
        _c2([False, 1, 1, 0]),
        _c2([0, 1, 1, 1.0]),
        '{"kind":"table","order":2,"table":[0,1,1,1e0]}',
        _c2([0, 1, 1, "1"]),
        _c2([0, 1, 1, None]),
        _c2([0, 1, 1, [1]]),
        _c2([0, 1, 1, -1]),
        _c2([0, 1, 1, 2**70]),
        _c2([0, 1, 2**63, 0]),
        _c2([0, 1, 1, 0], name="true"),  # takes the per-entry check, still builds
        _c2([0, 1, 1, 0]),
    ],
)
def test_entry_conversion_matches_per_entry_check(line):
    assert _reader_outcome(line) == _oracle_outcome(line)


def test_entries_become_an_int64_array_unless_a_literal_could_be_a_bool():
    (rec,) = iter_records([_c2([0, 1, 1, 0])])
    assert rec.data["table"].dtype == np.int64
    assert rec.data["table"].tolist() == [0, 1, 1, 0]
    # a true past the table puts the line on the general route, where a
    # literal in the line keeps the parsed list
    (flagged,) = iter_records([_c2([0, 1, 1, 0])[:-1] + ', "ok": true}'])
    assert flagged.data["table"] == [0, 1, 1, 0]
    assert (flagged.build().table == rec.build().table).all()


def test_a_name_of_true_does_not_keep_the_list():
    (rec,) = iter_records([_c2([0, 1, 1, 0])])
    (named,) = iter_records([_c2([0, 1, 1, 0], name="true")])
    assert named.data["table"].dtype == np.int64
    assert (named.build().table == rec.build().table).all()


def _relabelled_a5_line(**dump_options):
    # A5 with its elements shuffled, the identity off index 0: a long
    # body whose entries have one and two digits
    G = ls.alternating_group(5)
    perm = np.random.default_rng(60).permutation(G.order)
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    record = {"kind": "table", "name": "A5", "order": G.order, "table": table.ravel().tolist()}
    return json.dumps(record, **dump_options)


@pytest.mark.parametrize(
    "old,new",
    [(",", ",,"), ("[", "[,"), (",", ", ,")],
    ids=["double_comma_deep_inside", "leading_comma", "comma_space_comma"],
)
def test_empty_tokens_take_the_general_route(old, new):
    line = _relabelled_a5_line(separators=(",", ":"))
    # the first "[" opens the table; a "," is taken halfway along it
    at = line.index("[") if old == "[" else line.index(",", len(line) // 2)
    line = line[:at] + new + line[at + 1 :]
    assert corpus._table_body(line) is None
    with pytest.raises(json.JSONDecodeError) as parsed:
        json.loads(line)
    good = dump_record(ls.cyclic_group(2))
    with pytest.raises(ls.CorpusFormatError) as info:
        list(iter_records([good, "", line]))
    assert info.value.line_no == 3
    assert str(info.value) == f"line 3: invalid JSON ({parsed.value.msg})"


def test_spaced_separators_are_read_the_canonical_way():
    compact = corpus._table_body(_relabelled_a5_line(separators=(",", ":")))
    spaced = corpus._table_body(_relabelled_a5_line())
    assert compact["table"].dtype == spaced["table"].dtype == np.int64
    assert np.array_equal(compact["table"], spaced["table"])


_ENTRY = st.one_of(
    st.integers(0, 2),
    st.integers(0, 2),  # listed twice, so that more draws are valid entries
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["1", "", "true"]),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
    st.integers(-(2**70), 2**70),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(_ENTRY, min_size=n * n, max_size=n * n))
    ),
    st.sampled_from([None, "c", "true", "false"]),
    st.booleans(),
)
def test_entry_conversion_matches_per_entry_check_on_mixed_lists(drawn, name, cyclic):
    # either a free list of mixed entries or the table of C_n with a few
    # entries replaced, so that most draws reach the builder
    n, entries = drawn
    if cyclic:
        base = [(a + b) % n for a in range(n) for b in range(n)]
        entries = [e if i % 3 == 2 else base[i] for i, e in enumerate(entries)]
    line = json.dumps({"kind": "table", "name": name, "order": n, "table": entries})
    assert _reader_outcome(line) == _oracle_outcome(line)


# -- the canonical read against the oracle --------------------------------------


def _mutate(tokens, n, mutation, i):
    """The table body's tokens after one raw text mutation at entry i."""
    tokens = list(tokens)
    if mutation == "leading_zero":
        tokens[i] = "0" + tokens[i]
    elif mutation == "double_comma":
        tokens.insert(i, "")
    elif mutation == "trailing_comma":
        tokens.append("")
    elif mutation == "tab":
        tokens[i] = "\t" + tokens[i]
    elif mutation == "newline":
        tokens[i] = tokens[i] + "\n"
    elif mutation == "entry_n":
        tokens[i] = str(n)
    elif mutation == "twenty_digits":
        tokens[i] = str(10**19 + 7 * i)
    elif mutation == "past_64_bits":  # 19 digits, as many as 2**63 - 1
        tokens[i] = str(2**63 + 7 * i)
    return tokens


@st.composite
def _table_lines(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        inv = [perm.index(a) for a in range(n)]
        entries = [perm[(inv[a] + inv[b]) % n] for a in range(n) for b in range(n)]
    else:
        entries = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    item, key = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    mutation = draw(
        st.sampled_from(
            [None, "leading_zero", "double_comma", "trailing_comma", "tab", "newline",
             "entry_n", "twenty_digits", "past_64_bits"]
        )
    )
    tokens = _mutate(map(str, entries), n, mutation, draw(st.integers(0, n * n - 1)))
    name = draw(st.sampled_from([None, "c", "true", "a[b", "x]", "x]}", "[0]", "]}"]))
    pairs = [
        ('"kind"', '"table"'),
        ('"name"', json.dumps(name)),
        ('"order"', str(n)),
        ('"table"', "[" + item.join(tokens) + "]"),
    ]
    layout = draw(st.sampled_from(["table_last", "name_last", "duplicate_table", "no_table"]))
    if layout == "name_last":
        pairs.append(pairs.pop(1))
    elif layout == "duplicate_table":
        pairs.insert(0, ('"table"', "[9]"))
    elif layout == "no_table":
        pairs[-1] = ('"tables"', pairs[-1][1])
    return "{" + item.join(k + key + v for k, v in pairs) + "}"


def test_canonical_read_matches_the_oracle(monkeypatch):
    routes = {"int64": 0, "list": 0}
    table_body = corpus._table_body

    def counted(text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a DeprecationWarning from fromstring
            data = table_body(text)
        routes["list" if data is None else "int64"] += 1
        return data

    monkeypatch.setattr(corpus, "_table_body", counted)

    @settings(max_examples=400, deadline=None)
    @given(_table_lines())
    def check(line):
        assert _reader_outcome(line) == _oracle_outcome(line)
        try:
            (rec,) = iter_records([line])
        except ls.CorpusFormatError:
            return
        assert {**rec.data, "table": list(rec.data["table"])} == json.loads(line)

    check()
    assert routes["int64"] and routes["list"]

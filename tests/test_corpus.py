"""Corpus parsing, validation and round-trips."""

import json

import pytest

import largesub as ls
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

"""Smoke test of tools/dump_outputs.py, the output-identity hash."""

import importlib.util
from pathlib import Path

import largesub as ls

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "dump_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("dump_outputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_families_and_counts():
    tool = _load_tool()
    corpus = [ls.alternating_group(5), ls.symmetric_group(3), ls.special_linear_2_3()]
    result = tool.dump(corpus)
    assert tuple(result) == (
        "tables",
        "normal_subgroups",
        "centralizers",
        "series",
        "normal_series",
        "invariants",
        "reports",
        "ingest",
        "lattice_answers",
        "subgroup_series",
    )
    counts = {family: count for family, (count, _) in result.items()}
    # tables: one per group; normal_subgroups: one list per composition
    # chain member (2 + 3 + 5); centralizers and normal_series: one per
    # normal subgroup of G (2 + 3 + 4); invariants: G and each of its normal subgroups; reports:
    # one CLI run per selector; ingest: one record per group plus the
    # malformed ones; lattice_answers and subgroup_series: one per group
    assert counts == {
        "tables": 3,
        "normal_subgroups": 10,
        "centralizers": 9,
        "series": 3,
        "normal_series": 9,
        "invariants": 12,
        "reports": len(tool.SELECTORS),
        "ingest": 3 + len(tool.MALFORMED_RECORDS),
        "lattice_answers": 3,
        "subgroup_series": 3,
    }
    assert len(tool.SELECTORS) == 12
    assert len(tool.MALFORMED_RECORDS) == 25
    assert all(len(digest) == 64 for _, digest in result.values())
    assert tool.dump(corpus) == result

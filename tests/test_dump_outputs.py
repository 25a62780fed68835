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
        "radicals",
        "memberships",
        "chief_questions",
        "largeness",
        "commutators",
        "info",
        "cover_reports",
        "flag_reports",
        "expressions",
        "subgroup_answers",
    )
    counts = {family: count for family, (count, _) in result.items()}
    # tables: one per group; normal_subgroups: one list per composition
    # chain member (2 + 3 + 5); centralizers and normal_series: one per
    # normal subgroup of G (2 + 3 + 4); invariants: G and each of its normal subgroups; reports:
    # one CLI run per selector; ingest: one record per group plus the
    # malformed ones; lattice_answers, subgroup_series, radicals,
    # memberships and chief_questions: one per group; largeness: one per
    # normal subgroup of G; commutators: one per unordered pair of normal
    # subgroups of G (3 + 6 + 10); info and cover_reports: one report
    # per group; flag_reports: one CLI run per flag spelling; expressions:
    # one construct and info run per expression, whatever the corpus;
    # subgroup_answers: G, each normal subgroup of G and each subgroup of
    # two consecutive class representatives (3 + 9 + 4 + 2 + 6)
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
        "radicals": 3,
        "memberships": 3,
        "chief_questions": 3,
        "largeness": 9,
        "commutators": 19,
        "info": 3,
        "cover_reports": 3,
        "flag_reports": len(tool.FLAG_SPELLINGS),
        "expressions": len(tool.EXPRESSIONS),
        "subgroup_answers": 24,
    }
    assert len(tool.SELECTORS) == 12
    assert len(tool.FLAG_SPELLINGS) == 5
    assert len(tool.EXPRESSIONS) == 21
    assert len(result) == 20
    assert len(tool.MALFORMED_RECORDS) == 25
    assert all(len(digest) == 64 for _, digest in result.values())
    assert tool.dump(corpus) == result

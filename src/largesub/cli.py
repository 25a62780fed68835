"""Command line front end.

Verbs:

  info GROUP            structure report for one group
  verify TARGET         run one claim over a group or a corpus file
  scan CORPUS           look for soluble groups outside the residual-minimal
                        class whose maximal abelian normal subgroups are all
                        large anyway
  construct GROUP       print the corpus record for a group expression
  corpus-check CORPUS   validate every record of a corpus file

GROUP is a group expression, such as "symmetric(4)" or
"central(sl(2,3),quaternion(8))", evaluated by catalog.named_group.  TARGET
is a group expression, or the path of a corpus file (line-delimited JSON),
read by corpus.read_corpus.

verify reads which claim takes which parameter off largeness._CLAIM_TABLE:
--theorem gives a selector such as G:2, or a bare claim head whose
parameter comes from the flag _PARAM_FLAGS names for that parameter (G
--c 2).  A flag the selector does not read is unusable input.

Exit codes: 0 all pass or skip, 1 a verification counterexample or an
invalid corpus record, 2 unusable input (parse errors, unknown names,
malformed corpora).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import CATALOG_KEYS, named_group
from .classes import (
    BUILTIN_CLASS_KEYS,
    has_minimal_supersoluble_residual,
    is_soluble,
)
from .corpus import dump_record, read_corpus, read_records
from .errors import GroupError, NotAGroup, OrderCapExceeded, UnknownClass, UnknownName
from .groups import FiniteGroup
from .largeness import CLAIMS, VerificationReport, _CLAIM_TABLE, claim_for, scan_exceptional
from .radicals import (
    fitting_subgroup,
    generalized_fitting_subgroup,
    layer,
    soluble_radical,
    supersoluble_residual,
)
from .structure import (
    center,
    chief_series,
    composition_series,
    conjugacy_classes,
    derived_series,
    lower_central_series,
    normal_subgroups,
)

# -- targets ---------------------------------------------------------------------


def _load_target(target: str) -> list[FiniteGroup]:
    """A corpus path if the file exists, else a group expression."""
    if Path(target).exists():
        return read_corpus(target)
    return [named_group(target)]


# -- info ------------------------------------------------------------------------


def group_info(G: FiniteGroup) -> dict:
    """The structure report behind the info verb, as one flat dict."""
    der = derived_series(G)
    lcs = lower_central_series(G)
    chief = chief_series(G)
    comp = composition_series(G)
    soluble = is_soluble(G)
    residual = supersoluble_residual(G)
    return {
        "name": G.display_name,
        "order": G.order,
        "center_order": center(G).order,
        "conjugacy_class_sizes": sorted(len(c) for c in conjugacy_classes(G)),
        "normal_subgroup_orders": sorted(N.order for N in normal_subgroups(G)),
        "derived_series_orders": [S.order for S in der.chain],
        "lower_central_series_orders": [S.order for S in lcs.chain],
        "chief_factor_orders": list(chief.factor_orders),
        "composition_factor_orders": list(comp.factor_orders),
        "fitting_order": fitting_subgroup(G).subgroup.order,
        "layer_order": layer(G).subgroup.order,
        "generalized_fitting_order": generalized_fitting_subgroup(G).subgroup.order,
        "soluble_radical_order": soluble_radical(G).subgroup.order,
        "soluble": soluble,
        "supersoluble_residual_order": residual.order,
        "residual_minimal_or_trivial": has_minimal_supersoluble_residual(G) if soluble else False,
    }


def _render_info_text(info: dict) -> str:
    def chain(orders):
        return " > ".join(str(o) for o in orders)

    minimal = "yes" if info["residual_minimal_or_trivial"] else "no"
    if not info["soluble"]:
        minimal = "no (not soluble)"
    return "\n".join(
        [
            f"group: {info['name']}",
            f"order: {info['order']}",
            f"center order: {info['center_order']}",
            "conjugacy class sizes: " + ", ".join(map(str, info["conjugacy_class_sizes"])),
            "normal subgroup orders: " + ", ".join(map(str, info["normal_subgroup_orders"])),
            "derived series orders: " + chain(info["derived_series_orders"]),
            "lower central series orders: " + chain(info["lower_central_series_orders"]),
            "chief factor orders: " + ", ".join(map(str, info["chief_factor_orders"])),
            "composition factor orders: " + ", ".join(map(str, info["composition_factor_orders"])),
            f"fitting subgroup order: {info['fitting_order']}",
            f"layer order: {info['layer_order']}",
            f"generalized fitting subgroup order: {info['generalized_fitting_order']}",
            f"soluble radical order: {info['soluble_radical_order']}",
            f"supersoluble residual order: {info['supersoluble_residual_order']}",
            f"supersoluble residual minimal or trivial: {minimal}",
        ]
    )


def cmd_info(args) -> int:
    G = named_group(args.target)
    info = group_info(G)
    if args.format == "jsonl":
        print(json.dumps(info, separators=(",", ":")))
    else:
        print(_render_info_text(info))
    return 0


# -- verify ------------------------------------------------------------------------


# claim parameter name (see largeness._CLAIM_TABLE) -> the verify flag that
# spells it and its help, filled in with the claims reading it.  The value
# is parsed with the selector, so a bad --c reads like a bad G:c.
_PARAM_FLAGS = {
    "classkey": ("--class-key", "class key for {}, e.g. nilpotent"),
    "primes": ("--pi", "comma-separated primes for {}, e.g. 2,3"),
    "c": ("--c", "nilpotency class bound for {}"),
    "d": ("--d", "derived length bound for {}"),
}


def _selector_from_args(args) -> str:
    """The selector --theorem names; a bare head that takes a parameter reads
    it from that parameter's flag.  A flag the selector does not read is
    unusable input."""
    selector = args.theorem.strip()
    head = selector if ":" in selector else selector.upper()
    param = _CLAIM_TABLE.get(head, (None,))[0]
    for name, (flag, _) in _PARAM_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if name != param and value is not None:
            raise UnknownClass(f"selector {selector!r} does not read {flag}")
        if name == param:
            if value in (None, ""):
                raise UnknownClass(f"claim {head} needs {flag}")
            head = f"{head}:{value}"
    return head


def cmd_verify(args) -> int:
    claim = claim_for(_selector_from_args(args))
    counts = {"pass": 0, "skip": 0, "fail": 0}
    # each record is printed as soon as it is built, so a group that raises
    # leaves the records before it on stdout
    for G in _load_target(args.target):
        report = claim(G)
        counts[report.outcome] += 1
        if args.format == "jsonl":
            print(json.dumps(report.to_dict(), separators=(",", ":")))
        else:
            print(_verify_line(report))
    if args.format == "jsonl":
        print(json.dumps({"summary": counts}, separators=(",", ":")))
    else:
        print(
            f"summary: {counts['pass']} pass, {counts['skip']} skip, {counts['fail']} fail"
        )
    return 1 if counts["fail"] else 0


def _verify_line(report: VerificationReport) -> str:
    tag = report.outcome.upper()
    head = f"[{tag}] {report.theorem} {report.group} order {report.group_order}"
    if report.outcome == "skip":
        failed = ", ".join(name for name, ok in report.hypotheses if not ok)
        return f"{head}: hypothesis failed: {failed}"
    if report.outcome == "fail":
        bad = report.counterexample
        if bad is not None:
            return (
                f"{head}: counterexample: {bad.descriptor}"
                f" (centralizer order {bad.centralizer_order})"
            )
        failed = ", ".join(name for name, ok in report.checks if not ok)
        return f"{head}: failed checks: {failed}"
    detail = f"{len(report.witnesses)} witness" + ("es" if len(report.witnesses) != 1 else "")
    if report.checks:
        detail = f"{len(report.checks)} checks"
    return f"{head}: {detail}"


# -- scan ------------------------------------------------------------------------


def cmd_scan(args) -> int:
    path = Path(args.target)
    if not path.exists():
        raise UnknownName(f"corpus file not found: {args.target}")
    groups = read_corpus(path)
    records = scan_exceptional(groups)
    counts: dict[str, int] = {}
    per_order: dict[int, int] = {}
    for rec in records:
        counts[rec.status] = counts.get(rec.status, 0) + 1
        if rec.status == "finding":
            per_order[rec.order] = per_order.get(rec.order, 0) + 1
        if args.format == "jsonl":
            out = {
                "name": rec.name,
                "order": rec.order,
                "status": rec.status,
                "residual_order": rec.residual_order,
                "witnesses": [w.to_dict() for w in rec.report.witnesses]
                if rec.report is not None
                else None,
            }
            print(json.dumps(out, separators=(",", ":")))
        elif rec.status == "finding":
            witnesses = ", ".join(
                f"order {w.order}" for w in rec.report.witnesses
            )
            print(
                f"finding: {rec.name} order {rec.order},"
                f" supersoluble residual order {rec.residual_order},"
                f" maximal abelian normal subgroups all large ({witnesses})"
            )
    summary_counts = {k: counts.get(k, 0) for k in
                      ("finding", "residual_minimal", "witness_not_large", "not_soluble")}
    if args.format == "jsonl":
        print(
            json.dumps(
                {"summary": summary_counts, "findings_per_order": per_order},
                separators=(",", ":"),
                sort_keys=True,
            )
        )
    else:
        print(
            f"scanned {len(records)} groups: {summary_counts['finding']} findings,"
            f" {summary_counts['residual_minimal']} residual-minimal,"
            f" {summary_counts['witness_not_large']} with a non-large witness,"
            f" {summary_counts['not_soluble']} skipped (not soluble)"
        )
        if per_order:
            ordered = ", ".join(f"{o}: {per_order[o]}" for o in sorted(per_order))
            print(f"findings per order: {ordered}")
    return 0


# -- construct / corpus-check -------------------------------------------------------


def cmd_construct(args) -> int:
    G = named_group(args.target)
    print(dump_record(G))
    return 0


def cmd_corpus_check(args) -> int:
    records = read_records(args.target)
    failures = 0
    for rec in records:
        label = rec.name or f"record {rec.line_no}"
        try:
            G = rec.build()
        except NotAGroup as exc:
            failures += 1
            witness = f" (witness {exc.witness})" if exc.witness is not None else ""
            print(f"line {rec.line_no}: FAIL {label}: {exc}{witness}")
            continue
        except OrderCapExceeded as exc:
            failures += 1
            print(f"line {rec.line_no}: FAIL {label}: {exc}")
            continue
        print(f"line {rec.line_no}: ok {G.display_name} order {G.order}")
    print(f"{len(records)} records, {failures} failing")
    return 1 if failures else 0


# -- entry point ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    claims = "; ".join(f"{k}: {v}" for k, v in CLAIMS.items())
    parser = argparse.ArgumentParser(
        prog="largesub",
        description="Exhaustive finite-group computations and checks that "
        "distinguished normal subgroups contain their centralizers.",
        epilog=f"catalog names: {', '.join(CATALOG_KEYS)}. "
        f"class keys: {', '.join(BUILTIN_CLASS_KEYS)}.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "jsonl"),
            default="text",
            help="output as readable text (default) or one JSON record per line",
        )

    p = sub.add_parser("info", help="structure report for one group")
    p.add_argument("target", help="group expression, e.g. 'direct(alternating(4),cyclic(2))'")
    add_format(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("verify", help="run one claim over a group or corpus", epilog=claims)
    p.add_argument("target", help="group expression or corpus file path")
    p.add_argument(
        "--theorem",
        "--claim",
        dest="theorem",
        required=True,
        help="claim selector: "
        + ", ".join(f"{h}:{param}" if param else h for h, (param, *_) in _CLAIM_TABLE.items()),
    )
    for name, (flag, text) in _PARAM_FLAGS.items():
        heads = [head for head, (param, *_) in _CLAIM_TABLE.items() if param == name]
        readers = ("claims " if len(heads) > 1 else "claim ") + " and ".join(heads)
        p.add_argument(flag, help=text.format(readers))
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "scan",
        help="scan a corpus for soluble groups outside the residual-minimal "
        "class whose maximal abelian normal subgroups are all large",
    )
    p.add_argument("target", help="corpus file path")
    add_format(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("construct", help="print the corpus record for a group expression")
    p.add_argument("target", help="group expression")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("corpus-check", help="validate every record of a corpus file")
    p.add_argument("target", help="corpus file path")
    p.set_defaults(func=cmd_corpus_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Reading and writing group corpora.

A corpus is a line-delimited JSON file: one record per line, blank lines
and lines starting with '#' skipped.  Two record kinds are understood:

  {"kind": "table", "name": "...", "order": n, "table": [n*n ints]}
      a full multiplication table, flattened row-major; entry at row a,
      column b is the index of a*b

  {"kind": "perm", "name": "...", "degree": d, "generators": [[...], ...]}
      a permutation group on 0..d-1 given by generator image lists

Structural problems (bad JSON, wrong field shapes) raise CorpusFormatError
with the line number.  Semantic problems (a table that is not a group) are
left to the builders, so callers can distinguish unreadable files from
readable files containing non-groups.

CorpusRecord.data is the parsed JSON object, except that a table record's
"table" is usually a flat int64 numpy array rather than a list, which build
reshapes without copying.  A canonical table line is read without making a
Python int per entry: "table" is its last key, its entries are written in
plain decimal with "," or ", " between them, and each lies in 0..order-1.
Such a line's table body is parsed straight into int64, and the rest of the
line, with the body emptied, goes through json.  Every other line takes the
general route: the whole line through json, then the entries converted in
one pass, or kept as the parsed list when the line contains a JSON true or
false (so that booleans are told apart from 0 and 1) or an integer beyond
64 bits.  A line is read the canonical way only when it is valid JSON that
the general route would read to the same record and the same entries, so
every error, with its message and line number, comes from the general
route, and a table the builder refuses is refused with the same witness.
"""

from __future__ import annotations

import array
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import CorpusFormatError
from .groups import (
    FiniteGroup,
    _check_cap,
    from_multiplication_table,
    from_permutation_generators,
)


@dataclass(frozen=True)
class CorpusRecord:
    kind: str
    name: str | None
    line_no: int
    data: dict

    def build(self, *, cap=None) -> FiniteGroup:
        """Construct the group; semantic failures propagate as NotAGroup or
        OrderCapExceeded.  A table record's declared order is checked
        against the cap before any array is built."""
        if self.kind == "table":
            n = self.data["order"]
            _check_cap(n, cap)
            table = np.asarray(self.data["table"]).reshape(n, n)
            return from_multiplication_table(table, name=self.name, cap=cap)
        return from_permutation_generators(
            self.data["generators"], name=self.name, cap=cap
        )


def _expect(cond: bool, message: str, line_no: int) -> None:
    if not cond:
        raise CorpusFormatError(message, line_no)


def _integer_entries(values: list, text: str) -> np.ndarray | list | None:
    # The entries as a flat int64 array, or as the list itself, or None if
    # one is not an integer.  array("q") takes ints and bools that fit in 64
    # bits and refuses every other JSON value; a bool can only come from a
    # true or false literal in the line.  Otherwise (or past 64 bits) the
    # entries are tested one by one and the list is kept for the builder.
    if "true" not in text and "false" not in text:
        try:
            return np.frombuffer(array.array("q", values), dtype=np.int64)
        except (TypeError, OverflowError):
            pass
    return values if all(type(v) is int for v in values) else None


def _name_ok(name) -> bool:
    # a lone surrogate ("\ud800" in JSON) is a str that stdout cannot print
    return name is None or (
        isinstance(name, str) and name == name.encode("utf-8", "replace").decode()
    )


def _table_body(text: str) -> dict | None:
    """The record of a canonical table line, its "table" a flat int64
    array; None when the line is not canonical (see the module docstring),
    and iter_records reads it the general way."""
    lb, rb = text.rfind("["), text.rfind("]")
    if not lb < rb - 1 or text[rb + 1 :] != "}":
        return None
    body = text[lb + 1 : rb]
    if not body.isascii():
        return None
    body = body.encode()
    if b" " in body:
        body = body.replace(b", ", b",")
    if (
        body.translate(None, b"0123456789,")
        or body.startswith(b",")
        or body.endswith(b",")
    ):
        return None
    # with the body emptied, "table" must be the top-level object's last key
    # (the one json keeps of duplicates); objects close inner first, so the
    # hook's last call is the top level
    last = []

    def pairs_hook(pairs):
        last.append(pairs[-1] if pairs else None)
        return dict(pairs)

    try:
        data = json.loads(text[: lb + 1] + text[rb:], object_pairs_hook=pairs_hook)
    except (ValueError, RecursionError):
        return None
    order = data.get("order")
    if not (
        last[-1] == ("table", [])
        and data.get("kind") == "table"
        and type(order) is int
        and order >= 1
        and _name_ok(data.get("name"))
    ):
        return None
    try:  # an empty token ("1,,2") stops the parse with a ValueError
        values = np.fromstring(body, dtype=np.int64, sep=",")
    except ValueError:
        return None
    if values.size != order * order or values.max() >= order:
        return None
    # The body holds only digits and commas, so its c commas cut it into
    # c + 1 digit runs, of total length len(body) - c.  Each value comes
    # from a nonempty run of its own, and its decimal form is no longer
    # than that run, so digits <= len(body) - c and values.size <= c + 1.
    # Equality below, digits + values.size - 1 == len(body), then forces
    # values.size == c + 1 and digits == len(body) - c: every run is
    # nonempty and is the plain decimal form of its value.  That rules out
    # empty tokens, leading zeros, overflowed tokens and a short parse.
    digits = values.size + sum(
        np.count_nonzero(values >= 10**k) for k in range(1, len(str(order - 1)))
    )
    if digits + values.size - 1 != len(body):
        return None
    data["table"] = values
    return data


def iter_records(lines: Iterable[str]) -> Iterator[CorpusRecord]:
    """Parse corpus lines into records, validating shapes as we go."""
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        data = _table_body(text)
        if data is not None:
            yield CorpusRecord(kind="table", name=data.get("name"), line_no=line_no, data=data)
            continue
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also overlong integers, deep nesting
            msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise CorpusFormatError(f"invalid JSON ({msg})", line_no) from exc
        _expect(isinstance(data, dict), "record must be a JSON object", line_no)
        kind = data.get("kind")
        _expect(kind in ("table", "perm"), f"unknown record kind {kind!r}", line_no)
        name = data.get("name")
        _expect(_name_ok(name), "name must be a string of Unicode characters", line_no)
        # integers are tested with `type(v) is int`: JSON true/false load as
        # bool, a subclass of int, and are not integers here
        if kind == "table":
            order = data.get("order")
            _expect(
                type(order) is int and order >= 1,
                "table record needs a positive integer order",
                line_no,
            )
            table = data.get("table")
            _expect(
                isinstance(table, list) and len(table) == order * order,
                f"table must be a flat list of {order}*{order} entries",
                line_no,
            )
            table = _integer_entries(table, text)
            _expect(table is not None, "table entries must be integers", line_no)
            data["table"] = table
        else:
            degree = data.get("degree")
            _expect(
                type(degree) is int and degree >= 1,
                "perm record needs a positive integer degree",
                line_no,
            )
            gens = data.get("generators")
            _expect(
                isinstance(gens, list) and gens,
                "perm record needs a nonempty generator list",
                line_no,
            )
            for g in gens:
                _expect(
                    isinstance(g, list)
                    and len(g) == degree
                    and all(type(v) is int for v in g),
                    f"each generator must be a list of {degree} integers",
                    line_no,
                )
        yield CorpusRecord(kind=kind, name=name, line_no=line_no, data=data)


def read_records(path) -> list[CorpusRecord]:
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            return list(iter_records(fh))
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"corpus file is not UTF-8 text ({exc.reason})") from exc


def read_corpus(path, *, cap=None) -> list[FiniteGroup]:
    """Load every record in the file as a group."""
    return [rec.build(cap=cap) for rec in read_records(path)]


def record_for_group(G: FiniteGroup) -> dict:
    """The table-kind record serializing a group, round-trippable through
    iter_records."""
    return {
        "kind": "table",
        "name": G.name,
        "order": G.order,
        "table": [int(v) for v in G.table.ravel()],
    }


def dump_record(G: FiniteGroup) -> str:
    return json.dumps(record_for_group(G), separators=(",", ":"))


def write_corpus(path, groups: Iterable[FiniteGroup]) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for G in groups:
            fh.write(dump_record(G) + "\n")

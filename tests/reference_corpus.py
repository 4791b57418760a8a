"""Slow reference implementations that the fast ingest paths must match.

``parse_records`` here is the ``csv.DictReader`` parser the positional
streaming parser replaced; the property tests in ``test_corpus.py`` require
both to give equal records and equal rejects, in the same order.
``leading_letters`` is the letter-by-letter truncation loop that
``standardize.leading_letters`` replaced.
"""

from __future__ import annotations

import csv
from typing import IO

from namestats.corpus import (
    AGE_MAX,
    AGE_MIN,
    MANDATORY_COLUMNS,
    RECORD_HEADER,
    YEAR_MAX,
    YEAR_MIN,
    NameRecord,
    ParseError,
    ParseResult,
    RecordKind,
    RejectedRow,
)
from namestats.standardize import MAX_NAME_LEN, Sex


def leading_letters(raw: str) -> str:
    s = raw.strip().upper()
    out = []
    for ch in s:
        if not ch.isalpha():
            break
        out.append(ch)
        if len(out) == MAX_NAME_LEN:
            break
    return "".join(out)


def _parse_row(row: dict[str, str]) -> NameRecord | RejectedRow:
    fields = {col: (row.get(col) or "").strip() for col in RECORD_HEADER}

    name = fields["name"]
    if not name:
        return RejectedRow(fields, "empty_name")

    try:
        sex = Sex.from_code(fields["sex"])
    except ValueError:
        return RejectedRow(fields, "bad_sex")

    try:
        year = int(fields["year"])
    except ValueError:
        return RejectedRow(fields, "bad_year")
    if not YEAR_MIN <= year <= YEAR_MAX:
        return RejectedRow(fields, "bad_year")

    age: int | None
    if fields["age"] == "":
        age = None
    else:
        try:
            age = int(fields["age"])
        except ValueError:
            return RejectedRow(fields, "bad_age")
        if not AGE_MIN <= age <= AGE_MAX:
            return RejectedRow(fields, "bad_age")

    if fields["kind"] == "":
        kind = RecordKind.OTHER
    else:
        try:
            kind = RecordKind(fields["kind"].lower())
        except ValueError:
            return RejectedRow(fields, "bad_kind")

    native: bool | None
    nb = fields["native_born"].lower()
    if nb == "":
        native = None
    elif nb in ("true", "1", "yes"):
        native = True
    elif nb in ("false", "0", "no"):
        native = False
    else:
        return RejectedRow(fields, "bad_native_born")

    return NameRecord(
        raw_name=name,
        sex=sex,
        record_year=year,
        record_kind=kind,
        age=age,
        location=fields["location"] or None,
        native_born=native,
    )


def parse_records(stream: IO[str]) -> ParseResult:
    """The ``csv.DictReader`` record parser: one dict per row, then validation."""
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise ParseError("record file is empty")
    missing = set(MANDATORY_COLUMNS) - set(reader.fieldnames)
    if missing:
        raise ParseError(f"record file missing mandatory columns: {sorted(missing)}")

    records: list[NameRecord] = []
    rejected: list[RejectedRow] = []
    for row in reader:
        if row.get(None) or any(v is None for k, v in row.items() if k is not None):
            rejected.append(
                RejectedRow(
                    {col: (row.get(col) or "") for col in RECORD_HEADER},
                    "malformed_row",
                )
            )
            continue
        parsed = _parse_row(row)
        if isinstance(parsed, RejectedRow):
            rejected.append(parsed)
        else:
            records.append(parsed)
    return ParseResult(records, rejected)

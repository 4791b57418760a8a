"""Slow reference implementations that the fast ingest paths must match.

``parse_records`` here is the ``csv.DictReader`` parser the positional
streaming parser replaced; the property tests in ``test_corpus.py`` require
both to give equal records and equal rejects, in the same order.
``leading_letters`` is the letter-by-letter truncation loop that
``standardize.leading_letters`` replaced.  ``RecordScan``, ``cohort_buckets``
and ``ingest`` are the row-at-a-time scan, cohort index and ``ingest``
writer that the memoized ``corpus.RecordScan`` replaced: one ``NameRecord``
per row, then truncation, filtering, coding and sex correction.
``build_cohort`` is the per-spec scan of every record that
``corpus.build_cohort``, now a ``CohortIndex`` over the records, replaced.
The reference scan parses through ``parse_records`` here, not the corpus
parser, and ``cohort_buckets`` and ``build_cohort`` assign birth years by
``birth_year``, the README's rule written out, not the corpus's own.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from typing import IO, Iterable, Iterator

from namestats.corpus import (
    AGE_MAX,
    AGE_MIN,
    MANDATORY_COLUMNS,
    RECORD_HEADER,
    YEAR_MAX,
    YEAR_MIN,
    Cohort,
    CohortSpec,
    FilterPolicy,
    NameRecord,
    ParseError,
    ParseResult,
    RecordKind,
    RejectedRow,
    filter_reason,
    write_records,
    write_rejection_report,
)
from namestats.standardize import (
    MAX_NAME_LEN,
    CodingTable,
    Sex,
    apply_coding,
    correct_sex,
    truncate_name,
)


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


def sex_from_code(code: str) -> Sex:
    """The ``Sex`` of a record file's sex text; an empty text is unknown."""
    code = code.strip().upper()
    if code == "":
        return Sex.UNKNOWN
    for member in Sex:
        if member.value == code:
            return member
    raise ValueError(f"unknown sex code {code!r}")


def _parse_row(row: dict[str, str]) -> NameRecord | RejectedRow:
    fields = {col: (row.get(col) or "").strip() for col in RECORD_HEADER}

    name = fields["name"]
    if not name:
        return RejectedRow(fields, "empty_name")

    try:
        sex = sex_from_code(fields["sex"])
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
    """The ``csv.DictReader`` record parser: one dict per row, then validation.

    A ``csv.Error`` is a ``ParseError`` naming the line the csv reader reached.
    """
    reader = csv.DictReader(stream)
    try:
        return _parse_dicts(reader)
    except csv.Error as exc:
        raise ParseError(f"record file line {reader.reader.line_num}: {exc}") from exc


def _parse_dicts(reader: csv.DictReader) -> ParseResult:
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


class RecordScan:
    """Yields ``(record, name, sex)`` for each kept row, collecting rejects.

    The record file is parsed whole on construction, so a stream-level
    problem raises :class:`ParseError` then.
    """

    def __init__(self, stream: IO[str], policy: FilterPolicy, table: CodingTable):
        parsed = parse_records(stream)
        self._records = parsed.records
        self._policy = policy
        self._table = table
        self.parse_rejected: list[RejectedRow] = parsed.rejected
        self.filter_rejected: list[tuple[NameRecord, str]] = []

    def __iter__(self) -> Iterator[tuple[NameRecord, str, Sex]]:
        policy, table = self._policy, self._table
        for item in self._records:
            letters = leading_letters(item.raw_name)
            reason = filter_reason(item, letters, policy, table)
            if reason is not None:
                self.filter_rejected.append((item, reason))
                continue
            name = apply_coding(table, letters)
            yield item, name, correct_sex(table, name, item.sex)


def birth_year(record: NameRecord, default_age_marriage: int,
               default_age_adult: int) -> int | None:
    """README "Processing rules": the record year less the age; with no age,
    a birth register's year, a marriage's year less the marriage age, an
    adult roster's year less the adult age, and otherwise none."""
    if record.age is not None:
        return record.record_year - record.age
    if record.record_kind is RecordKind.BIRTH_REGISTER:
        return record.record_year
    if record.record_kind is RecordKind.MARRIAGE:
        return record.record_year - default_age_marriage
    if record.record_kind is RecordKind.ADULT_ROSTER:
        return record.record_year - default_age_adult
    return None


def cohort_buckets(
    kept: Iterable[tuple[NameRecord, str, Sex]],
    default_age_marriage: int,
    default_age_adult: int,
) -> tuple[dict[tuple[int, Sex], dict[str, int]], int]:
    """Standardized-name counts by (birth year, corrected sex), and the
    number of records whose birth year cannot be assigned."""
    buckets: dict[tuple[int, Sex], dict[str, int]] = {}
    unresolved = 0
    for record, name, sex in kept:
        year = birth_year(record, default_age_marriage, default_age_adult)
        if year is None:
            unresolved += 1
            continue
        bucket = buckets.setdefault((year, sex), {})
        bucket[name] = bucket.get(name, 0) + 1
    return buckets, unresolved


def ingest(text: str, policy: FilterPolicy, table: CodingTable) -> tuple[str, str]:
    """``ingest``'s --out and --rejects texts for a record file's text."""
    scan = RecordScan(io.StringIO(text, newline=""), policy, table)
    out, rejects = io.StringIO(), io.StringIO()
    write_records(
        (NameRecord(name, sex, r.record_year, r.record_kind, r.age, r.location,
                    r.native_born)
         for r, name, sex in scan),
        out,
    )
    write_rejection_report(scan.parse_rejected, scan.filter_rejected, rejects)
    return out.getvalue(), rejects.getvalue()


def build_cohort(records: Iterable[NameRecord], spec: CohortSpec,
                 table: CodingTable) -> Cohort:
    """Standardized names of the records whose birth year falls in the span
    and whose corrected sex is the spec's; unresolvable birth years are skipped."""
    names: Counter = Counter()
    for record in records:
        year = birth_year(record, spec.default_age_marriage, spec.default_age_adult)
        if year is None or not spec.birth_year_start <= year <= spec.birth_year_end:
            continue
        std = apply_coding(table, truncate_name(record.raw_name))
        if correct_sex(table, std, record.sex) is spec.sex:
            names[std] += 1
    return Cohort(spec, names)

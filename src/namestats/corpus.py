"""Record parsing, inclusion filters, birth-year assignment, and cohorts.

The record file is a UTF-8 CSV with header
``name,sex,age,year,kind,location,native_born`` (sex codes F/M/U, empty
string for absent optionals).  Malformed rows are collected with a reason
rather than silently dropped so that sample construction stays auditable.

:func:`iter_records` streams a record file: it maps the header to column
positions once, then validates each row's fields once and yields a
:class:`NameRecord` or a :class:`RejectedRow`, in input order.
:class:`RecordScan` runs that stream through the inclusion filters and the
coding table, truncating and coding each name once, and :class:`CohortIndex`
counts the kept rows by (birth year, corrected sex, standardized name) in
the same pass.  Every cohort for the index's default ages is then a sum
over year buckets, so memory grows with distinct names times birth years,
not with rows.  :func:`parse_records`, :func:`filter_records` and
:func:`build_cohort` are the list-based and per-cohort forms of the same
steps.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, Iterator, Sequence

from .standardize import (
    CodingTable,
    Sex,
    apply_coding,
    correct_sex,
    leading_letters,
    truncate_name,
)

RECORD_HEADER = ("name", "sex", "age", "year", "kind", "location", "native_born")
REJECT_HEADER = RECORD_HEADER + ("reason",)

MANDATORY_COLUMNS = ("name", "sex", "year")

YEAR_MIN, YEAR_MAX = 1000, 2100
AGE_MIN, AGE_MAX = 0, 110

DEFAULT_GENERIC_NAMES = frozenset({"MR", "MRS", "WIDOW", "INFANT"})


class ParseError(ValueError):
    """The record stream cannot be parsed at all (bad header, unreadable)."""


class AgeUnresolvableError(ValueError):
    """No age and no applicable default: the birth year cannot be assigned."""


class RecordKind(Enum):
    CENSUS = "census"
    MARRIAGE = "marriage"
    ADULT_ROSTER = "adult_roster"
    BIRTH_REGISTER = "birth_register"
    OTHER = "other"


# field codes after strip(); sex codes are matched upper-cased, the others lower-cased
_SEX_CODES = {"": Sex.UNKNOWN, **{sex.value: sex for sex in Sex}}
_KINDS = {"": RecordKind.OTHER, **{kind.value: kind for kind in RecordKind}}
_NATIVE_BORN = {
    "": None, "true": True, "1": True, "yes": True, "false": False, "0": False, "no": False,
}


@dataclass(frozen=True)
class NameRecord:
    """One raw observation of a person's given name."""

    raw_name: str
    sex: Sex
    record_year: int
    record_kind: RecordKind = RecordKind.OTHER
    age: int | None = None
    location: str | None = None
    native_born: bool | None = None

    def __post_init__(self) -> None:
        if not YEAR_MIN <= self.record_year <= YEAR_MAX:
            raise ValueError(
                f"record_year {self.record_year} outside [{YEAR_MIN}, {YEAR_MAX}]"
            )
        if self.age is not None and not AGE_MIN <= self.age <= AGE_MAX:
            raise ValueError(f"age {self.age} outside [{AGE_MIN}, {AGE_MAX}]")


@dataclass(frozen=True)
class FilterPolicy:
    """Inclusion rules applied to truncated names.

    Generic-name matching is case-insensitive and happens after
    truncation, so "Widow Smith" matches WIDOW.
    """

    drop_single_letter: bool = True
    generic_names: frozenset[str] = DEFAULT_GENERIC_NAMES
    require_native_born: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "generic_names", frozenset(n.upper() for n in self.generic_names)
        )


@dataclass(frozen=True)
class CohortSpec:
    """A sex and an inclusive birth-year span, plus age defaults.

    Records without an age field get an assumed age: 25 years for
    marriage records and 35 years for adult rosters.
    """

    sex: Sex
    birth_year_start: int
    birth_year_end: int
    default_age_marriage: int = 25
    default_age_adult: int = 35

    def __post_init__(self) -> None:
        if self.birth_year_start > self.birth_year_end:
            raise ValueError(
                f"birth_year_start {self.birth_year_start} > "
                f"birth_year_end {self.birth_year_end}"
            )
        for name in ("default_age_marriage", "default_age_adult"):
            age = getattr(self, name)
            if not AGE_MIN <= age <= AGE_MAX:
                raise ValueError(f"{name} {age} outside [{AGE_MIN}, {AGE_MAX}]")

    @property
    def label(self) -> str:
        if self.birth_year_start == self.birth_year_end:
            return str(self.birth_year_start)
        return f"{self.birth_year_start}-{self.birth_year_end}"


@dataclass(frozen=True)
class Cohort:
    """Standardized-name multiset for one sex and birth-year span."""

    spec: CohortSpec
    names: Counter = field(default_factory=Counter)

    @property
    def sample_size(self) -> int:
        return sum(self.names.values())


@dataclass(frozen=True)
class RejectedRow:
    """A raw input row that could not be parsed, with the field text kept."""

    fields: dict[str, str]
    reason: str


@dataclass(frozen=True)
class ParseResult:
    records: list[NameRecord]
    rejected: list[RejectedRow]


@dataclass(frozen=True)
class FilterResult:
    kept: list[NameRecord]
    rejected: list[tuple[NameRecord, str]]


def _parse_fields(fields: list[str]) -> NameRecord | str:
    """A record from stripped fields in ``RECORD_HEADER`` order, or a reject reason."""
    name, sex_code, age_text, year_text, kind_text, location, native_text = fields
    if not name:
        return "empty_name"
    sex = _SEX_CODES.get(sex_code.upper())
    if sex is None:
        return "bad_sex"
    try:
        year = int(year_text)
    except ValueError:
        return "bad_year"
    if not YEAR_MIN <= year <= YEAR_MAX:
        return "bad_year"
    age: int | None = None
    if age_text:
        try:
            age = int(age_text)
        except ValueError:
            return "bad_age"
        if not AGE_MIN <= age <= AGE_MAX:
            return "bad_age"
    kind = _KINDS.get(kind_text.lower())
    if kind is None:
        return "bad_kind"
    native_text = native_text.lower()
    if native_text not in _NATIVE_BORN:
        return "bad_native_born"
    return NameRecord(
        name, sex, year, kind, age, location or None, _NATIVE_BORN[native_text]
    )


def _iter_rows(reader, header: list[str]) -> Iterator[NameRecord | RejectedRow]:
    # a repeated column name reads its last occurrence, as csv.DictReader does
    position = {col: i for i, col in enumerate(header)}
    width = len(header)
    # absent optional columns read the empty field appended to each full row
    columns = [position.get(col, width) for col in RECORD_HEADER]
    for row in reader:
        if len(row) != width:
            if row:  # a blank line is skipped, not rejected
                yield RejectedRow(
                    {col: row[i] if (i := position.get(col, len(row))) < len(row) else ""
                     for col in RECORD_HEADER},
                    "malformed_row",
                )
            continue
        row.append("")
        fields = [row[i].strip() for i in columns]
        parsed = _parse_fields(fields)
        if isinstance(parsed, str):
            yield RejectedRow(dict(zip(RECORD_HEADER, fields)), parsed)
        else:
            yield parsed


def iter_records(stream: IO[str]) -> Iterator[NameRecord | RejectedRow]:
    """Stream a record CSV: each non-blank row as a record or a reject, in order.

    A row whose field count differs from the header's is rejected as
    ``malformed_row`` with its unstripped field texts; any other reject
    keeps the stripped texts.  The header is read when this function is
    called, and :class:`ParseError` raised then, for stream-level
    problems: no header, or the mandatory name/sex/year columns missing.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ParseError("record file is empty")
    missing = set(MANDATORY_COLUMNS) - set(header)
    if missing:
        raise ParseError(f"record file missing mandatory columns: {sorted(missing)}")
    return _iter_rows(reader, header)


def parse_records(stream: IO[str]) -> ParseResult:
    """Parse a record CSV; malformed rows land in ``rejected`` with a reason.

    Raises :class:`ParseError` only for stream-level problems: no header,
    or the mandatory name/sex/year columns missing.
    """
    records: list[NameRecord] = []
    rejected: list[RejectedRow] = []
    for item in iter_records(stream):
        (rejected if isinstance(item, RejectedRow) else records).append(item)
    return ParseResult(records, rejected)


def filter_reason(
    record: NameRecord,
    letters: str,
    policy: FilterPolicy,
    table: CodingTable | None = None,
) -> str | None:
    """Why ``record`` is rejected, or None when it is kept.

    ``letters`` is the record's truncated name, ``leading_letters(raw_name)``.
    Reasons, checked in order: ``single_letter`` (fewer than two leading
    letters), ``generic``, ``non_native`` (only when the policy requires
    native birth; unknown birthplace counts as non-native), and
    ``unparseable_sex`` (recorded sex unknown and the coding table, when
    given, has no override for the standardized name).
    """
    if len(letters) == 0 or (policy.drop_single_letter and len(letters) == 1):
        return "single_letter"
    if letters in policy.generic_names:
        return "generic"
    if policy.require_native_born and record.native_born is not True:
        return "non_native"
    if record.sex is Sex.UNKNOWN:
        resolved = Sex.UNKNOWN
        if table is not None and len(letters) >= 2:
            resolved = correct_sex(table, apply_coding(table, letters), Sex.UNKNOWN)
        if resolved is Sex.UNKNOWN:
            return "unparseable_sex"
    return None


def filter_records(
    records: Sequence[NameRecord],
    policy: FilterPolicy,
    table: CodingTable | None = None,
) -> FilterResult:
    """Partition records into kept and rejected-with-reason.

    Tests run on the truncated name, in the order :func:`filter_reason`
    gives.  Every input row appears in exactly one output.
    """
    kept: list[NameRecord] = []
    rejected: list[tuple[NameRecord, str]] = []
    for record in records:
        reason = filter_reason(record, leading_letters(record.raw_name), policy, table)
        if reason is None:
            kept.append(record)
        else:
            rejected.append((record, reason))
    return FilterResult(kept, rejected)


class RecordScan:
    """One streaming pass that parses, filters and standardizes each row once.

    Iterating yields ``(record, name, sex)`` for each kept row in input
    order: the parsed record, its standardized name and its sex after
    coding-table correction.  Rejected rows collect in ``parse_rejected``
    and ``filter_rejected`` as the pass reaches them, each in input order,
    as :func:`parse_records` and :func:`filter_records` would reject them.
    The header is read, and :class:`ParseError` raised, on construction.
    The rows can be iterated once.
    """

    def __init__(self, stream: IO[str], policy: FilterPolicy, table: CodingTable):
        self._items = iter_records(stream)
        self._policy = policy
        self._table = table
        self.parse_rejected: list[RejectedRow] = []
        self.filter_rejected: list[tuple[NameRecord, str]] = []

    def __iter__(self) -> Iterator[tuple[NameRecord, str, Sex]]:
        policy, table = self._policy, self._table
        for item in self._items:
            if isinstance(item, RejectedRow):
                self.parse_rejected.append(item)
                continue
            letters = leading_letters(item.raw_name)
            reason = filter_reason(item, letters, policy, table)
            if reason is not None:
                self.filter_rejected.append((item, reason))
                continue
            name = apply_coding(table, letters)
            yield item, name, correct_sex(table, name, item.sex)


def _birth_year(
    record: NameRecord, default_age_marriage: int, default_age_adult: int
) -> int | None:
    if record.age is not None:
        return record.record_year - record.age
    if record.record_kind is RecordKind.BIRTH_REGISTER:
        return record.record_year
    if record.record_kind is RecordKind.MARRIAGE:
        return record.record_year - default_age_marriage
    if record.record_kind is RecordKind.ADULT_ROSTER:
        return record.record_year - default_age_adult
    return None


def assign_birth_year(record: NameRecord, spec: CohortSpec) -> int:
    """Birth year from the age field, or from the record kind's default age."""
    birth_year = _birth_year(record, spec.default_age_marriage, spec.default_age_adult)
    if birth_year is None:
        raise AgeUnresolvableError(
            f"age_unresolvable: {record.record_kind.value} record of "
            f"{record.raw_name!r} in {record.record_year} has no age and no "
            f"default applies"
        )
    return birth_year


def build_cohort(
    records: Iterable[NameRecord],
    spec: CohortSpec,
    table: CodingTable,
) -> Cohort:
    """Collect standardized names of records matching the spec.

    A record joins the cohort when its assigned birth year falls in the
    span and its sex, after coding-table correction, equals the spec's
    sex.  Records whose birth year cannot be resolved can never match a
    span and are skipped.  The result is an order-independent multiset;
    an empty cohort is returned rather than raised.  This scans every
    record for one spec; :class:`CohortIndex` serves many specs from one
    pass.
    """
    names: Counter = Counter()
    for record in records:
        birth_year = _birth_year(
            record, spec.default_age_marriage, spec.default_age_adult
        )
        if birth_year is None:
            continue
        if not spec.birth_year_start <= birth_year <= spec.birth_year_end:
            continue
        std = apply_coding(table, truncate_name(record.raw_name))
        if correct_sex(table, std, record.sex) is spec.sex:
            names[std] += 1
    return Cohort(spec, names)


class CohortIndex:
    """Standardized-name counts by birth year and corrected sex.

    Built in one pass over ``(record, name, sex)`` triples, as
    :class:`RecordScan` yields them, for one pair of default ages.  A
    cohort whose spec has those defaults is then a sum over the year
    buckets in its span, equal to :func:`build_cohort` over the same
    records.  Records whose birth year cannot be resolved are not counted.
    """

    def __init__(
        self,
        kept: Iterable[tuple[NameRecord, str, Sex]],
        default_age_marriage: int = 25,
        default_age_adult: int = 35,
    ):
        self.default_ages = (default_age_marriage, default_age_adult)
        self._buckets: dict[tuple[int, Sex], dict[str, int]] = {}
        for record, name, sex in kept:
            birth_year = _birth_year(record, default_age_marriage, default_age_adult)
            if birth_year is None:
                continue
            bucket = self._buckets.setdefault((birth_year, sex), {})
            bucket[name] = bucket.get(name, 0) + 1

    def cohort(self, spec: CohortSpec) -> Cohort:
        """The cohort for ``spec``; its default ages must be the index's."""
        ages = (spec.default_age_marriage, spec.default_age_adult)
        if ages != self.default_ages:
            raise ValueError(
                f"spec default ages {ages} differ from the index's {self.default_ages}"
            )
        names: Counter = Counter()
        for (birth_year, sex), bucket in self._buckets.items():
            if sex is spec.sex and spec.birth_year_start <= birth_year <= spec.birth_year_end:
                names.update(bucket)
        return Cohort(spec, names)


def standardized_record(record: NameRecord, table: CodingTable) -> NameRecord:
    """Copy of ``record`` with the standardized name and corrected sex."""
    std = apply_coding(table, truncate_name(record.raw_name))
    return NameRecord(
        raw_name=std,
        sex=correct_sex(table, std, record.sex),
        record_year=record.record_year,
        record_kind=record.record_kind,
        age=record.age,
        location=record.location,
        native_born=record.native_born,
    )


def record_to_row(record: NameRecord) -> list[str]:
    """Record as CSV field texts in ``RECORD_HEADER`` order."""
    return [
        record.raw_name,
        record.sex.value,
        "" if record.age is None else str(record.age),
        str(record.record_year),
        record.record_kind.value,
        record.location or "",
        "" if record.native_born is None else str(record.native_born).lower(),
    ]


def write_records(records: Iterable[NameRecord], stream: IO[str]) -> None:
    """Write records in the standard record-file format."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(RECORD_HEADER)
    for record in records:
        writer.writerow(record_to_row(record))


def write_rejection_report(
    parse_rejects: Iterable[RejectedRow],
    filter_rejects: Iterable[tuple[NameRecord, str]],
    stream: IO[str],
) -> None:
    """Rejection report: the record format plus a trailing reason column."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REJECT_HEADER)
    for row in parse_rejects:
        writer.writerow([row.fields.get(col, "") for col in RECORD_HEADER] + [row.reason])
    for record, reason in filter_rejects:
        writer.writerow(record_to_row(record) + [reason])

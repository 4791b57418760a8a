"""Record parsing, inclusion filters, birth-year assignment, and cohorts.

The record file is a UTF-8 CSV, with or without a leading byte-order mark
(see :func:`text_input`), with header
``name,sex,age,year,kind,location,native_born`` (sex codes F/M/U, empty
string for absent optionals).  Malformed rows are collected with a reason
rather than silently dropped so that sample construction stays auditable.

:func:`parse_records` reads a record file into lists: it maps the header
to column positions once, then validates each row's fields once into a
:class:`NameRecord` or a :class:`RejectedRow`, in input order.
:class:`RecordScan` does the parse, the inclusion filters and the coding
table in one pass, but decodes each distinct truncated name and each
distinct raw text of the other columns only once, into per-column memo
dicts filled by the same per-field parsers and filter rules, so that no
row builds a :class:`NameRecord`: a kept row costs a few dict lookups, and
a rejected row's reason and report line come from the same memo values.
The scan counts rejects by reason, and only when given streams for them
(for the ingest rejection report) writes each reject's report line as it
meets it, holding none.
:class:`CohortIndex` counts the kept rows by (year, corrected sex, age
tag, standardized name) in the same pass, and counts the rows with no birth
year.  Each :class:`CohortSpec` brings the default ages that it assumes, so
every cohort is then a sum over year buckets, and memory grows with
distinct names times years, not with rows or rejects.  :func:`index_records`
builds a record file's CohortIndex with its reject counts by reason, and
:func:`ingest_records` writes its standardized rows and rejection report;
each splits a large file into byte ranges at line ends and reads the ranges
in forked child processes when asked for more than one worker.
:func:`filter_records` is a list form of :func:`filter_reason`, and
:func:`build_cohort` is a one-spec CohortIndex.
"""

from __future__ import annotations

import csv
import io
import os
import sys
import threading
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from operator import attrgetter, itemgetter
from stat import S_ISREG
from typing import IO, Callable, Iterable, Iterator, Sequence

from .standardize import (
    MIN_NAME_LEN,
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
# assumed ages of the people on marriage records and adult rosters with no age
DEFAULT_AGE_MARRIAGE, DEFAULT_AGE_ADULT = 25, 35


class ParseError(ValueError):
    """The record stream cannot be parsed at all (bad header, unreadable)."""


class InvariantError(RuntimeError):
    """A check of the program's own logic failed: a bug, not bad input."""


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
    truncation, so "Widow Smith" matches WIDOW.  Each generic name is
    truncated the same way, so "Elizabeth" matches ELIZABET, and one with
    fewer than two leading letters, which no kept name could match, is a
    ``ValueError``.  Names with fewer than two leading letters are always
    dropped: no coding can standardize them.
    """

    generic_names: frozenset[str] = DEFAULT_GENERIC_NAMES
    require_native_born: bool = False

    def __post_init__(self) -> None:
        for name in self.generic_names:
            if len(leading_letters(name)) < MIN_NAME_LEN:
                raise ValueError(
                    f"generic name {name!r} has fewer than {MIN_NAME_LEN} leading letters"
                )
        object.__setattr__(
            self, "generic_names", frozenset(map(leading_letters, self.generic_names))
        )


@dataclass(frozen=True)
class CohortSpec:
    """A sex and an inclusive birth-year span, plus age defaults.

    Records without an age field get an assumed age, by default
    ``DEFAULT_AGE_MARRIAGE`` for marriage records and ``DEFAULT_AGE_ADULT``
    for adult rosters.
    """

    sex: Sex
    birth_year_start: int
    birth_year_end: int
    default_age_marriage: int = DEFAULT_AGE_MARRIAGE
    default_age_adult: int = DEFAULT_AGE_ADULT

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


# what a field parser returns for a text that rejects the row
_BAD = object()


def _bounded_int(text: str, low: int, high: int) -> int | object:
    """``int(text)`` when it parses and lies in [low, high], else ``_BAD``."""
    try:
        value = int(text)
    except ValueError:
        return _BAD
    return value if low <= value <= high else _BAD


# Per-field parsers of a stripped field text: the field's value, or _BAD.
# _parse_fields and RecordScan's memos both decode through them.

def _parse_sex(text: str) -> Sex | object:
    return _SEX_CODES.get(text.upper(), _BAD)


def _parse_year(text: str) -> int | object:
    return _bounded_int(text, YEAR_MIN, YEAR_MAX)


def _parse_age(text: str) -> int | None | object:
    """None for an empty text: the age is absent."""
    return _bounded_int(text, AGE_MIN, AGE_MAX) if text else None


def _parse_kind(text: str) -> RecordKind | object:
    return _KINDS.get(text.lower(), _BAD)


def _parse_native_born(text: str) -> bool | None | object:
    return _NATIVE_BORN.get(text.lower(), _BAD)


def _parse_fields(fields: list[str]) -> NameRecord | str:
    """A record from stripped fields in ``RECORD_HEADER`` order, or a reject reason."""
    name, sex_text, age_text, year_text, kind_text, location, native_text = fields
    if not name:
        return "empty_name"
    sex = _parse_sex(sex_text)
    if sex is _BAD:
        return "bad_sex"
    year = _parse_year(year_text)
    if year is _BAD:
        return "bad_year"
    age = _parse_age(age_text)
    if age is _BAD:
        return "bad_age"
    kind = _parse_kind(kind_text)
    if kind is _BAD:
        return "bad_kind"
    native_born = _parse_native_born(native_text)
    if native_born is _BAD:
        return "bad_native_born"
    return NameRecord(name, sex, year, kind, age, location or None, native_born)


@contextmanager
def _csv_errors(reader):
    """Re-raise a ``csv.Error`` of ``reader`` (a field over the csv module's
    size limit, say) as a :class:`ParseError` naming the line it reached."""
    try:
        yield
    except csv.Error as exc:
        raise ParseError(f"record file line {reader.line_num}: {exc}") from exc


def _read_header(stream: IO[str]) -> tuple[Iterator[list[str]], list[int], int]:
    """The row reader, each ``RECORD_HEADER`` column's position and the row width.

    An absent optional column's position is the width: it reads the empty
    field appended to each full row.  A repeated column name reads its last
    occurrence, as csv.DictReader does.
    """
    reader = csv.reader(stream)
    with _csv_errors(reader):
        header = next(reader, None)
    if header is None:
        raise ParseError("record file is empty")
    missing = set(MANDATORY_COLUMNS) - set(header)
    if missing:
        raise ParseError(f"record file missing mandatory columns: {sorted(missing)}")
    position = {col: i for i, col in enumerate(header)}
    width = len(header)
    return reader, [position.get(col, width) for col in RECORD_HEADER], width


def _malformed(row: list[str], columns: list[int], width: int) -> list[str]:
    """The unstripped texts, in ``RECORD_HEADER`` order, of a row whose field
    count differs from the header's."""
    n = min(len(row), width)
    return [row[i] if i < n else "" for i in columns]


def parse_records(stream: IO[str]) -> ParseResult:
    """Parse a record CSV: each non-blank row as a record or a reject, in order.

    A row whose field count differs from the header's is rejected as
    ``malformed_row`` with its unstripped field texts; any other reject
    keeps the stripped texts.  Raises :class:`ParseError` only for
    stream-level problems: no header, or the mandatory name/sex/year
    columns missing.
    """
    reader, columns, width = _read_header(stream)
    records: list[NameRecord] = []
    rejected: list[RejectedRow] = []
    with _csv_errors(reader):
        for row in reader:
            if len(row) != width:
                if row:  # a blank line is skipped, not rejected
                    texts = dict(zip(RECORD_HEADER, _malformed(row, columns, width)))
                    rejected.append(RejectedRow(texts, "malformed_row"))
                continue
            row.append("")
            fields = [row[i].strip() for i in columns]
            parsed = _parse_fields(fields)
            if isinstance(parsed, str):
                rejected.append(RejectedRow(dict(zip(RECORD_HEADER, fields)), parsed))
            else:
                records.append(parsed)
    return ParseResult(records, rejected)


def _name_reason(letters: str, policy: FilterPolicy) -> str | None:
    """``single_letter`` or ``generic`` when the truncated name alone rejects a record."""
    if len(letters) < MIN_NAME_LEN:
        return "single_letter"
    if letters in policy.generic_names:
        return "generic"
    return None


def _native_reason(native_born: bool | None, policy: FilterPolicy) -> str | None:
    """``non_native`` when the policy requires native birth and it is not known."""
    if policy.require_native_born and native_born is not True:
        return "non_native"
    return None


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
    ``unparseable_sex`` (recorded sex unknown and the coding table has no
    override for the standardized name).  No table is the empty table.
    """
    reason = _name_reason(letters, policy) or _native_reason(record.native_born, policy)
    if reason is not None:
        return reason
    if record.sex is Sex.UNKNOWN:
        table = CodingTable() if table is None else table
        if correct_sex(table, apply_coding(table, letters), Sex.UNKNOWN) is Sex.UNKNOWN:
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


_NATIVE_TEXT = {None: "", True: "true", False: "false"}


def _field_decoders(policy: FilterPolicy, table: CodingTable) -> dict[str, Callable]:
    """For each column but location, the decoder that fills its memo.

    The name's is keyed by the name's leading letters and gives the
    standardized name with the coding table's sex override code for it
    (None when it has none).  The others are keyed by the raw field text and
    give the field's value as :class:`RecordScan` yields it.  Each gives
    ``_BAD`` when its key alone rejects the row: the field's parser, and for
    the name and native-born columns the filter rule on that field alone,
    decide it.
    """

    def name(letters: str) -> tuple[str, str | None] | object:
        if _name_reason(letters, policy) is not None:  # also an empty name
            return _BAD
        std = apply_coding(table, letters)
        override = correct_sex(table, std, Sex.UNKNOWN)
        return std, None if override is Sex.UNKNOWN else override.value

    def field(parse: Callable[[str], object], render: Callable = None) -> Callable:
        def decode(raw: str) -> object:
            value = parse(raw.strip())
            return value if value is _BAD or render is None else render(value)
        return decode

    def native_born(value: bool | None) -> str | object:
        return _BAD if _native_reason(value, policy) else _NATIVE_TEXT[value]

    return {
        "name": name,
        "sex": field(_parse_sex, attrgetter("value")),
        "age": field(_parse_age),
        "year": field(_parse_year),
        "kind": field(_parse_kind, attrgetter("value")),
        "native_born": field(_parse_native_born, native_born),
    }


class RecordScan:
    """One streaming pass that parses, filters and standardizes each row once.

    Iterating yields each kept row in input order as its standardized
    record row: a tuple in ``RECORD_HEADER`` order of the standardized name,
    the sex code after coding-table correction, the age (an int, or None
    when absent), the year (an int), and the kind, location and
    native-born texts as :func:`record_to_row` writes them.  Every rejected
    row is counted by its reason, in ``parse_reasons`` or ``filter_reasons``
    (Counters), as :func:`parse_records` and :func:`filter_records` would
    reject it.  With ``rejects``, a pair of text streams, each reject's
    line of the rejection report, as :func:`write_rejection_report` writes
    it for that reject, is written as the pass reaches it, in one write
    call, to the first stream for a parse reject or the second for a filter
    reject: a parse reject's stripped texts (a ``malformed_row``'s
    unstripped ones) or a filter reject's record as :func:`record_to_row`
    gives it, then the reason.  The scan holds no reject line, so memory
    does not grow with the rejects.  The header is read, and
    :class:`ParseError` raised, on construction.  The rows can be iterated
    once.

    Field texts repeat heavily, so each column but location is decoded
    through ``memos[column]``, a plain dict that :func:`_field_decoders`
    fills for every column of a row in which one lookup misses.  The name's
    memo is keyed by the name's leading letters, so it holds one entry per
    distinct truncated name; the others are keyed by the raw (unstripped)
    field text.  Under the header ``RECORD_HEADER`` itself a row's fields
    are unpacked as read; under any other header each row is first put in
    that order, an absent column reading as empty.  A row with any field
    that decodes to a reject, or whose corrected sex is still unknown, is
    named and rendered from its memo values, in the reason order of
    :func:`_parse_fields` and then :func:`filter_reason`; only the
    native-born text is parsed again, to tell a bad text from a non-native
    one.
    """

    def __init__(
        self, stream: IO[str], policy: FilterPolicy, table: CodingTable, *,
        rejects: tuple[IO[str], IO[str]] | None = None,
    ):
        self._reader, self._columns, self._width = _read_header(stream)
        self._policy = policy
        # each reject's report line is one call of its kind's write
        self._write_parse = self._write_filter = None
        if rejects is not None:
            self._write_parse, self._write_filter = (r.write for r in rejects)
        decoders = _field_decoders(policy, table)
        self.memos: dict[str, dict] = {col: {} for col in decoders}
        # (memo, decoder) in the order of the keys _decode_row takes
        self._decoders = [(self.memos[col], decoders[col])
                          for col in RECORD_HEADER if col != "location"]
        self.parse_reasons: Counter = Counter()
        self.filter_reasons: Counter = Counter()

    def __iter__(self) -> Iterator[tuple]:
        names, sexes, ages, years, kinds, natives = (memo for memo, _ in self._decoders)
        width = self._width
        # a row under the header RECORD_HEADER is already its texts in order
        reorder = None
        if self._columns != list(range(width)):
            reorder = itemgetter(*self._columns)
        with _csv_errors(self._reader):
            for row in self._reader:
                if len(row) != width:
                    if row:  # a blank line is skipped, not rejected
                        self.parse_reasons["malformed_row"] += 1
                        if self._write_parse is not None:
                            texts = _malformed(row, self._columns, width)
                            self._write_parse(_line(texts + ["malformed_row"]))
                    continue
                if reorder is not None:
                    row.append("")
                    row = reorder(row)
                (name_text, sex_text, age_text, year_text, kind_text, location,
                 native_text) = row
                letters = leading_letters(name_text)
                try:
                    coded = names[letters]
                    sex = sexes[sex_text]
                    age = ages[age_text]
                    year = years[year_text]
                    kind = kinds[kind_text]
                    native = natives[native_text]
                except KeyError:
                    coded, sex, age, year, kind, native = self._decode_row(
                        (letters, sex_text, age_text, year_text, kind_text, native_text))
                if not (coded is _BAD or sex is _BAD or age is _BAD or year is _BAD
                        or kind is _BAD or native is _BAD):
                    name, override = coded
                    corrected = override or sex
                    if corrected != "U":
                        yield name, corrected, age, year, kind, location.strip(), native
                        continue
                self._reject(row, letters, coded, sex, age, year, kind, native)

    def _decode_row(self, keys: tuple[str, ...]) -> list:
        """The memo values of a row with memo keys ``keys`` (its truncated
        name, then its raw sex, age, year, kind and native-born texts),
        decoding and storing each one its memo lacks."""
        values = []
        for (memo, decode), key in zip(self._decoders, keys):
            if key not in memo:
                memo[key] = decode(key)
            values.append(memo[key])
        return values

    def _reject(self, row: Sequence[str], letters: str, coded, sex, age, year, kind,
                native) -> None:
        """Count the reason of a rejected row, and write its report line when
        the scan has reject streams, from the row's texts ``row`` in
        ``RECORD_HEADER`` order, its truncated name ``letters`` and its memo
        values: the coded name, the recorded sex code, the age, year, kind and
        native-born text.

        The parse reasons come first, in :func:`_parse_fields`' order (name,
        sex, year, age, kind, native birth), then the filter reasons in
        :func:`filter_reason`'s.  The native-born memo gives ``_BAD`` both
        for a text that does not parse and for one the policy rejects, so one
        parse of the text tells them apart.
        """
        native_born = _parse_native_born(row[6].strip()) if native is _BAD else None
        if not row[0].strip():
            reason = "empty_name"
        elif sex is _BAD:
            reason = "bad_sex"
        elif year is _BAD:
            reason = "bad_year"
        elif age is _BAD:
            reason = "bad_age"
        elif kind is _BAD:
            reason = "bad_kind"
        elif native_born is _BAD:
            reason = "bad_native_born"
        else:
            reason = None
        if reason is not None:
            self.parse_reasons[reason] += 1
            if self._write_parse is not None:
                self._write_parse(_line([text.strip() for text in row] + [reason]))
            return
        if coded is _BAD:
            reason = _name_reason(letters, self._policy)
        if native is _BAD:
            reason = reason or _native_reason(native_born, self._policy)
            native = _NATIVE_TEXT[native_born]
        if reason is None and coded is not _BAD and (coded[1] or sex) == "U":
            reason = "unparseable_sex"
        if reason is None:
            fields = [text.strip() for text in row]
            raise InvariantError(f"row {fields} decodes to a reject but is kept")
        self.filter_reasons[reason] += 1
        if self._write_filter is not None:
            # as in write_rows, only the name and the location can need quotes
            self._write_filter(
                f"{_field(row[0].strip())},{sex},{'' if age is None else age},{year},"
                f"{kind},{_field(row[5].strip())},{native},{reason}\n")


def _standardize(record: NameRecord, table: CodingTable) -> tuple[str, Sex]:
    """The record's standardized name and its sex after coding-table correction."""
    std = apply_coding(table, truncate_name(record.raw_name))
    return std, correct_sex(table, std, record.sex)


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
    an empty cohort is returned rather than raised.  This is the spec's
    cohort of a :class:`CohortIndex` of the records, which standardizes
    every record: a name with fewer than two leading letters raises
    :class:`StandardizationError` whatever its birth year.
    """
    def rows() -> Iterator[tuple]:
        for r in records:
            name, sex = _standardize(r, table)
            # the index reads neither location nor native birth
            yield name, sex.value, r.age, r.record_year, r.record_kind.value, None, None

    return CohortIndex(rows()).cohort(spec)


class CohortIndex:
    """Standardized-name counts by year, corrected sex and age tag.

    Built in one pass over the kept rows, as :class:`RecordScan` yields
    them; it holds no default ages.  A row with an age, or an age-less birth
    register, is counted under its birth year with the tag "".  An age-less
    marriage or adult roster is counted under its record year with its kind
    as the tag, and :meth:`cohort` applies the spec's default age to it.
    Age-less census and other rows have no birth year and are not counted
    into any bucket; ``unresolved`` is their number.  Buckets are keyed by
    (year, sex code, tag), so counting a row hashes no enum.
    """

    def __init__(self, kept: Iterable[Sequence]):
        # the tag of an age-less row by its kind; None: it has no birth year
        tags = {"birth_register": "", "marriage": "marriage",
                "adult_roster": "adult_roster", "census": None, "other": None}
        buckets: dict[tuple[int, str, str], dict[str, int]] = {}
        unresolved = 0
        for name, sex, age, year, kind, _, _ in kept:
            if age is None:
                tag = tags[kind]
                if tag is None:
                    unresolved += 1
                    continue
                key = (year, sex, tag)
            else:
                key = (year - age, sex, "")
            try:
                bucket = buckets[key]
            except KeyError:
                bucket = buckets[key] = {}
            bucket[name] = bucket.get(name, 0) + 1
        self._buckets = buckets
        self.unresolved = unresolved

    def cohort(self, spec: CohortSpec) -> Cohort:
        """The cohort for ``spec``.  A bucket's birth year is its year less
        the spec's default age for its tag: the marriage age for
        "marriage", the adult age for "adult_roster", and 0 for ""."""
        ages = {"": 0, "marriage": spec.default_age_marriage,
                "adult_roster": spec.default_age_adult}
        code, start, end = spec.sex.value, spec.birth_year_start, spec.birth_year_end
        names: Counter = Counter()
        for (year, sex, tag), bucket in self._buckets.items():
            if sex == code and start <= year - ages[tag] <= end:
                names.update(bucket)
        return Cohort(spec, names)

    def merge(self, other: CohortIndex) -> None:
        """Add the counts of ``other``, an index of other rows, to this one."""
        for key, counts in other._buckets.items():
            bucket = self._buckets.setdefault(key, {})
            for name, count in counts.items():
                bucket[name] = bucket.get(name, 0) + count
        self.unresolved += other.unresolved


# a --records file is split into ranges of at least this many bytes
_MIN_RANGE_BYTES = 1 << 20
# bytes read at a time by the pre-pass and the line-end search: few enough
# that each read's buffer comes from the heap, not from a fresh mapping that
# raises the peak resident size (1 MiB reads raised it about 2 MB)
_READ_BYTES = 1 << 16


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _splittable(fd: int, size: int) -> bool:
    """True when the file's records are its LF-ended lines: it has no quote,
    which could open a field spanning lines, and no CR outside a CRLF, which
    the csv module reads as a record end inside a line (in the header line,
    a record that every range would read)."""
    for pos in range(0, size, _READ_BYTES):
        chunk = os.pread(fd, _READ_BYTES + 1, pos)  # one byte past, for a CRLF
        if b'"' in chunk:
            return False
        # counting is slower than a search, so count only a chunk with a CR
        if b"\r" in chunk and chunk.count(b"\r", 0, _READ_BYTES) != chunk.count(b"\r\n"):
            return False
    return True


def _line_end(fd: int, pos: int, size: int) -> int:
    """The offset just past the first LF at or after ``pos``, or ``size``."""
    while pos < size:
        chunk = os.pread(fd, _READ_BYTES, pos)
        end = chunk.find(b"\n")
        if end >= 0:
            return pos + end + 1
        if not chunk:
            break
        pos += len(chunk)
    return size


def _range_bounds(fd: int, workers: int) -> list[int]:
    """The offsets that bound the byte ranges of a record file to read
    separately, from 0 to its size, each range after the first starting a
    line after the header; empty when the file is read as one range, as it
    is when reading it for the split fails.

    A regular file is split into at most ``min(workers, usable_cpus(),
    size // _MIN_RANGE_BYTES)`` ranges of about equal size when
    :func:`_splittable` finds that its lines are its records and this
    process runs no other thread.
    """
    try:
        st = os.fstat(fd)
        size = st.st_size
        parts = min(workers, usable_cpus(), size // _MIN_RANGE_BYTES)
        # a forked child gets only the thread that forked it, so a process
        # with others could deadlock in the child on a lock one of them held
        if (parts < 2 or not hasattr(os, "fork") or threading.active_count() > 1
                or not S_ISREG(st.st_mode) or not _splittable(fd, size)):
            return []
        # no LF comes before the header line's, so every range but the first
        # starts past the header
        starts = {_line_end(fd, size * i // parts, size) for i in range(1, parts)}
    except OSError:  # the one pass meets the error, and raises it as its own
        return []
    starts.discard(size)
    return [0, *sorted(starts), size] if starts else []


class _Spans(io.RawIOBase):
    """The bytes of a file's ``(start, end)`` offset spans, in order, read by
    ``os.pread``, which leaves the descriptor's offset, shared with forked
    processes, where it is."""

    def __init__(self, fd: int, spans: list[tuple[int, int]]):
        super().__init__()
        self._fd = fd
        self._spans = spans

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        while self._spans:
            start, end = self._spans[0]
            data = os.pread(self._fd, min(len(buffer), end - start), start)
            if data:
                buffer[:len(data)] = data
                self._spans[0] = (start + len(data), end)
                return len(data)
            del self._spans[0]
        return 0


def text_input(raw: io.RawIOBase) -> io.TextIOWrapper:
    """The text of a CSV input's bytes: UTF-8, less a leading byte-order mark
    (as spreadsheet programs write), with line ends left to the csv module."""
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="")


def _index_raw(
    raw: io.RawIOBase, policy: FilterPolicy, table: CodingTable
) -> tuple[CohortIndex, Counter, Counter]:
    """The :class:`CohortIndex` of a raw record stream's kept rows, and its
    parse and filter reject counts by reason."""
    with text_input(raw) as stream:
        scan = RecordScan(stream, policy, table)
        index = CohortIndex(scan)
    return index, scan.parse_reasons, scan.filter_reasons


def _ingest_raw(
    raw: io.RawIOBase,
    policy: FilterPolicy,
    table: CodingTable,
    kept: IO[str],
    parse_rejects: IO[str] | None = None,
    filter_rejects: IO[str] | None = None,
) -> tuple[Counter, Counter]:
    """Write a raw record stream's kept rows, as :func:`write_rows` writes
    them but with no header, to ``kept``, and with reject streams each parse
    and filter reject's report line (see :class:`RecordScan`); flush every
    stream, and give the parse and filter reject counts by reason."""
    rejects = None if parse_rejects is None else (parse_rejects, filter_rejects)
    with text_input(raw) as stream:
        scan = RecordScan(stream, policy, table, rejects=rejects)
        _write_lines(scan, kept)
    for stream in (kept, *(rejects or ())):
        stream.flush()
    return scan.parse_reasons, scan.filter_reasons


def _run_ranges(
    fd: int, bounds: list[int], work: Callable[[int, io.RawIOBase], object]
) -> list | None:
    """``work(i, raw)`` for each range i of the file, in range order, or None
    when any fails.

    Range i is ``bounds[i]`` to ``bounds[i + 1]``, and ``raw`` reads it,
    after the header line for each range but the first.  This process runs
    the first range; each other one runs in a forked child, which sends its
    result back as a pickle over a pipe and exits through ``os._exit``.
    Every child is reaped before this returns or raises, and one still
    running then is killed first.
    """
    import pickle
    import signal

    header = (0, _line_end(fd, 0, bounds[-1]))

    def run(i: int) -> object:
        span = (bounds[i], bounds[i + 1])
        return work(i, _Spans(fd, [span] if i == 0 else [header, span]))

    pids, pipes = [], []
    try:
        # a child would write what is buffered here a second time
        sys.stdout.flush()
        sys.stderr.flush()
        for i in range(1, len(bounds) - 1):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        with open(w, "wb") as out:
                            pickle.dump(run(i), out, pickle.HIGHEST_PROTOCOL)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(w)
            pids.append(pid)
        first = run(0)
        sent = [pipe.read() for pipe in pipes]
        while pids:
            _, status = os.waitpid(pids[-1], 0)
            pids.pop()
            if status:  # its range failed, or it was killed
                return None
        return [first, *map(pickle.loads, sent)]
    except (ValueError, OSError):
        # a bad header or byte, a field over the csv limit, or no fork: the
        # one pass that follows raises what it raises, as --threads 1 would
        return None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _index_ranges(
    fd: int,
    bounds: list[int],
    policy: FilterPolicy,
    table: CodingTable,
) -> tuple[CohortIndex, Counter, Counter] | None:
    """:func:`_index_raw` summed over the file's ranges (see
    :func:`_run_ranges`), or None when any fails."""
    parts = _run_ranges(fd, bounds, lambda i, raw: _index_raw(raw, policy, table))
    if parts is None:
        return None
    (index, parse_reasons, filter_reasons), *others = parts
    for part, part_parse, part_filter in others:
        index.merge(part)
        parse_reasons.update(part_parse)
        filter_reasons.update(part_filter)
    return index, parse_reasons, filter_reasons


def index_records(
    path: str,
    policy: FilterPolicy,
    table: CodingTable,
    workers: int = 1,
) -> tuple[CohortIndex, Counter, Counter]:
    """The :class:`CohortIndex` of the kept rows of the record file at
    ``path``, which gives the cohort of a spec at any default ages, with its
    parse and filter reject counts by reason, as :class:`Counter` objects.
    No reject row is kept.

    With ``workers`` above 1, a large regular file whose every line is one
    record (no quote, no lone CR) is split at line ends into up to
    ``min(workers, usable_cpus())`` ranges of at least ``_MIN_RANGE_BYTES``
    bytes, which are indexed in parallel (see :func:`_run_ranges`) and
    summed.  Every other file, and any run in which a range fails, is
    indexed in one pass, so an error is raised as that pass raises it.
    The counts are the same either way.  ``OSError`` is raised when the
    file cannot be opened or read.
    """
    with io.FileIO(path) as raw:
        bounds = _range_bounds(raw.fileno(), workers)
        if bounds:
            done = _index_ranges(raw.fileno(), bounds, policy, table)
            if done is not None:
                return done
        return _index_raw(raw, policy, table)


def ingest_records(
    raw: io.FileIO,
    policy: FilterPolicy,
    table: CodingTable,
    workers: int,
    out: IO[str],
    rejects: IO[str] | None,
) -> tuple[Counter, Counter]:
    """Write the kept rows of the record file that ``raw`` reads from its
    start to ``out`` as a record file, each as :class:`RecordScan` yields
    it, and, when ``rejects`` is not None, the rejection report to it: the
    parse rejects, then the filter rejects, each in input order.  Gives the
    parse and filter reject counts by reason, as :class:`Counter` objects.

    The file is split into ranges as :func:`index_records` splits it.  Each
    range, this process's own among them, writes its kept rows, parse
    rejects and filter rejects to three anonymous temporary files (spools),
    made before the fork; only once every range has succeeded are the
    headers and the spools written, in range order: every range's kept rows
    to ``out``, then every range's parse rejects and every range's filter
    rejects to ``rejects``, which is the order of one pass.  When a range
    fails, or the spools cannot be made, nothing has been written, and the
    file is read through ``raw`` in one pass, which writes the kept rows and
    parse rejects as it reaches them and spools only the filter rejects (or,
    with no temporary file to be had, holds them), so an error is raised as
    that pass raises it.
    """
    import shutil
    import tempfile

    def spool() -> IO[str]:
        return tempfile.TemporaryFile("w+", encoding="utf-8", newline="")

    def append(spools: list[IO[str]], stream: IO[str]) -> None:
        for part in spools:
            part.seek(0)
            shutil.copyfileobj(part, stream)

    bounds = _range_bounds(raw.fileno(), workers)
    if bounds:
        with ExitStack() as stack:
            try:
                # kept rows, then with rejects parse and filter rejects; one
                # spool of each kind per range
                spools = [[stack.enter_context(spool()) for _ in bounds[1:]]
                          for _ in range(1 if rejects is None else 3)]
            except OSError:  # no temporary directory to write in
                counts = None
            else:
                counts = _run_ranges(raw.fileno(), bounds, lambda i, part: _ingest_raw(
                    part, policy, table, *(kind[i] for kind in spools)))
            if counts is not None:
                out.write(_line(RECORD_HEADER))
                append(spools[0], out)
                if rejects is not None:
                    rejects.write(_line(REJECT_HEADER))
                    append(spools[1] + spools[2], rejects)
                parse_reasons, filter_reasons = (sum(kind, Counter())
                                                 for kind in zip(*counts))
                return parse_reasons, filter_reasons
    out.write(_line(RECORD_HEADER))
    if rejects is None:
        return _ingest_raw(raw, policy, table, out)
    rejects.write(_line(REJECT_HEADER))
    try:
        filtered = spool()
    except OSError:  # no temporary directory to write in
        filtered = io.StringIO()
    with filtered:
        counts = _ingest_raw(raw, policy, table, out, rejects, filtered)
        append([filtered], rejects)
    return counts


def standardized_record(record: NameRecord, table: CodingTable) -> NameRecord:
    """Copy of ``record`` with the standardized name and corrected sex."""
    std, sex = _standardize(record, table)
    return NameRecord(
        raw_name=std,
        sex=sex,
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
        _NATIVE_TEXT[record.native_born],
    ]


# rows joined into one text per write by write_rows
_WRITE_BATCH = 1 << 10


def _field(text: str) -> str:
    """``text`` as one CSV field: in quotes, each ``"`` doubled, when it holds
    a comma, a quote, an LF or a CR, and as it is otherwise.

    That is the csv module's minimal quoting, plus the CR, which its writer
    leaves bare under an LF line end, though its reader ends a record there.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _line(fields: Iterable[str]) -> str:
    """A CSV line of field texts, each quoted as :func:`_field` quotes it."""
    return ",".join(map(_field, fields)) + "\n"


def write_rows(rows: Iterable[Sequence], stream: IO[str]) -> None:
    """Write standardized record rows, as :class:`RecordScan` yields them, as
    a record file.

    Of such a row's values only the location can need quotes: the name is
    letters, the sex, kind and native-born texts come from fixed sets, and
    the age (or None) and the year are ints.  So each row is one f-string,
    and each ``_WRITE_BATCH`` rows are joined into one write.
    """
    stream.write(_line(RECORD_HEADER))
    _write_lines(rows, stream)


def _write_lines(rows: Iterable[Sequence], stream: IO[str]) -> None:
    """The rows of :func:`write_rows`, with no header."""
    rows = iter(rows)
    while batch := [
        f"{name},{sex},{'' if age is None else age},{year},{kind},{_field(location)},"
        f"{native}\n"
        for name, sex, age, year, kind, location, native in islice(rows, _WRITE_BATCH)
    ]:
        stream.write("".join(batch))


def write_records(records: Iterable[NameRecord], stream: IO[str]) -> None:
    """Write records in the standard record-file format through
    :func:`write_rows`: of a record's fields only the raw name and the
    location can need quotes, and the raw name is quoted here."""
    rows = ((_field(r.raw_name), r.sex.value, r.age, r.record_year, r.record_kind.value,
             r.location or "", _NATIVE_TEXT[r.native_born]) for r in records)
    write_rows(rows, stream)


def write_rejection_report(
    parse_rejects: Iterable[RejectedRow],
    filter_rejects: Iterable[tuple[NameRecord, str]],
    stream: IO[str],
) -> None:
    """Rejection report: the record format plus a trailing reason column.
    A rejected row keeps its raw texts, so every field is quoted as needed."""
    stream.write(_line(REJECT_HEADER))
    for row in parse_rejects:
        stream.write(_line([row.fields.get(col, "") for col in RECORD_HEADER]
                           + [row.reason]))
    for record, reason in filter_rejects:
        stream.write(_line(record_to_row(record) + [reason]))

import csv
import errno
import io
import os
import random
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stderr
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import namestats
from namestats import cli, corpus
from namestats import (
    CodingTable,
    Cohort,
    CohortSpec,
    FilterPolicy,
    NameRecord,
    ParseError,
    RecordKind,
    Sex,
    StandardizationError,
    build_cohort,
    filter_records,
    parse_records,
    write_records,
)
from namestats.cli import main
from namestats.corpus import (
    AGE_MAX,
    DEFAULT_GENERIC_NAMES,
    RECORD_HEADER,
    REJECT_HEADER,
    YEAR_MAX,
    YEAR_MIN,
    CohortIndex,
    RecordScan,
    RejectedRow,
    record_to_row,
    write_rejection_report,
    write_rows,
)
from namestats.standardize import leading_letters

import reference_corpus
from conftest import records_csv


def parse(text: str):
    return parse_records(io.StringIO(text))


class TestParseRecords:
    def test_basic_row(self):
        result = parse(records_csv(["Mary,F,5,1880,census,,"]))
        assert not result.rejected
        (rec,) = result.records
        assert rec.raw_name == "Mary"
        assert rec.sex is Sex.FEMALE
        assert rec.age == 5
        assert rec.record_year == 1880
        assert rec.record_kind is RecordKind.CENSUS

    def test_blank_age_is_absent(self):
        result = parse(records_csv(["Jane,F,,1750,marriage,,"]))
        assert result.records[0].age is None

    def test_single_letter_name_still_parses(self):
        result = parse(records_csv(["J,M,2,1880,census,,"]))
        assert result.records[0].raw_name == "J"
        assert not result.rejected

    def test_optional_columns(self):
        result = parse(records_csv(["Ann,F,3,1880,census,Leeds,true"]))
        rec = result.records[0]
        assert rec.location == "Leeds"
        assert rec.native_born is True

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("Mary,F,5,999,census,,", "bad_year"),
            ("Mary,F,5,December,census,,", "bad_year"),
            ("Mary,F,150,1880,census,,", "bad_age"),
            ("Mary,F,-1,1880,census,,", "bad_age"),
            ("Mary,X,5,1880,census,,", "bad_sex"),
            (",F,5,1880,census,,", "empty_name"),
            ("Mary,F,5,1880,tax_roll,,", "bad_kind"),
            ("Mary,F,5,1880,census,,maybe", "bad_native_born"),
        ],
    )
    def test_malformed_rows_collected(self, row, reason):
        result = parse(records_csv([row, "Ann,F,1,1880,census,,"]))
        assert [r.reason for r in result.rejected] == [reason]
        assert len(result.records) == 1

    def test_short_row_is_malformed(self):
        result = parse(records_csv(["Mary,F"]))
        assert result.rejected[0].reason == "malformed_row"

    def test_missing_mandatory_column_raises(self):
        with pytest.raises(ParseError, match="mandatory"):
            parse("name,age,year\nMary,5,1880\n")

    def test_empty_stream_raises(self):
        with pytest.raises(ParseError):
            parse("")

    def test_partition_is_exact(self):
        rows = [
            "Mary,F,5,1880,census,,",
            "Mary,F,150,1880,census,,",
            "J,M,,1880,census,,",
            ",F,5,1880,census,,",
        ]
        result = parse(records_csv(rows))
        assert len(result.records) + len(result.rejected) == len(rows)


def rec(name, sex=Sex.FEMALE, year=1880, kind=RecordKind.CENSUS, age=5, native=None):
    return NameRecord(
        raw_name=name, sex=sex, record_year=year, record_kind=kind, age=age,
        native_born=native,
    )


class TestFilterRecords:
    def test_single_letter(self):
        result = filter_records([rec("J")], FilterPolicy())
        assert result.rejected == [(rec("J"), "single_letter")]

    def test_generic_after_truncation(self):
        result = filter_records(
            [rec("Mrs"), rec("Widow Smith"), rec("infant")], FilterPolicy()
        )
        assert [reason for _, reason in result.rejected] == ["generic"] * 3

    def test_user_generic_additions(self):
        policy = FilterPolicy(generic_names=frozenset({"MR", "BABY"}))
        result = filter_records([rec("Baby"), rec("Widow Smith")], policy)
        assert [reason for _, reason in result.rejected] == ["generic"]
        assert len(result.kept) == 1

    def test_generic_names_truncated(self):
        policy = FilterPolicy(generic_names=frozenset({"Elizabeth", "Mary Ann", " baby"}))
        assert policy.generic_names == {"ELIZABET", "MARY", "BABY"}
        result = filter_records([rec("Elizabeth"), rec("Mary Ann"), rec("Maryann")],
                                policy)
        assert [r.raw_name for r, _ in result.rejected] == ["Elizabeth", "Mary Ann"]

    @pytest.mark.parametrize("name", ["J", "J.", "", " 9", "X-ray"])
    def test_generic_name_under_two_letters_rejected(self, name):
        with pytest.raises(ValueError, match="fewer than 2 leading letters"):
            FilterPolicy(generic_names=frozenset({"MR", name}))

    def test_non_native(self):
        policy = FilterPolicy(require_native_born=True)
        result = filter_records(
            [rec("Mary", native=False), rec("Ann", native=True), rec("Jane")], policy
        )
        assert [(r.raw_name, reason) for r, reason in result.rejected] == [
            ("Mary", "non_native"),
            ("Jane", "non_native"),
        ]

    def test_unknown_sex_without_table(self):
        records = [rec("Mary", sex=Sex.UNKNOWN)]
        result = filter_records(records, FilterPolicy())
        assert result.rejected[0][1] == "unparseable_sex"
        assert filter_records(records, FilterPolicy(), CodingTable()) == result

    def test_unknown_sex_with_override_kept(self, demo_table):
        result = filter_records(
            [rec("Maria", sex=Sex.UNKNOWN), rec("Zelda", sex=Sex.UNKNOWN)],
            FilterPolicy(),
            demo_table,
        )
        assert [r.raw_name for r in result.kept] == ["Maria"]
        assert result.rejected[0][1] == "unparseable_sex"

    def test_no_leading_letters_rejected(self):
        result = filter_records([rec("123")], FilterPolicy())
        assert result.rejected[0][1] == "single_letter"

    def test_partition(self):
        records = [rec("Mary"), rec("J"), rec("Mrs"), rec("Ann", sex=Sex.UNKNOWN)]
        result = filter_records(records, FilterPolicy())
        recovered = list(result.kept) + [r for r, _ in result.rejected]
        assert len(recovered) == len(records)
        assert sorted(r.raw_name for r in recovered) == sorted(r.raw_name for r in records)


SPEC = CohortSpec(Sex.FEMALE, 1800, 1900)


def index_of(*records: NameRecord) -> CohortIndex:
    """The CohortIndex of ``records``, read from their record file as the
    CLI reads one."""
    buf = io.StringIO()
    write_records(records, buf)
    scan = RecordScan(io.StringIO(buf.getvalue()), FilterPolicy(), CodingTable())
    return CohortIndex(scan)


def assert_born_in(record: NameRecord, year: int, spec: CohortSpec = SPEC) -> None:
    """The index counts ``record`` in the spec's one-year cohort of ``year``
    and in neither year beside it."""
    index = index_of(record)
    assert index.unresolved == 0
    sizes = [index.cohort(replace(spec, birth_year_start=y, birth_year_end=y)).sample_size
             for y in (year - 1, year, year + 1)]
    assert sizes == [0, 1, 0]


class TestAssignBirthYear:
    """The birth year that CohortIndex assigns a record."""

    def test_age_subtraction(self):
        assert_born_in(rec("Mary", year=1880, age=5), 1875)

    def test_marriage_default(self):
        r = rec("Mary", year=1700, kind=RecordKind.MARRIAGE, age=None)
        assert_born_in(r, 1675)

    def test_adult_roster_default(self):
        r = rec("Mary", year=1700, kind=RecordKind.ADULT_ROSTER, age=None)
        assert_born_in(r, 1665)

    def test_birth_register_uses_record_year(self):
        r = rec("Mary", year=1850, kind=RecordKind.BIRTH_REGISTER, age=None)
        assert_born_in(r, 1850)

    def test_custom_defaults(self):
        spec = CohortSpec(Sex.FEMALE, 1800, 1900, default_age_marriage=27)
        r = rec("Mary", year=1700, kind=RecordKind.MARRIAGE, age=None)
        assert_born_in(r, 1673, spec)

    @pytest.mark.parametrize("kind", [RecordKind.CENSUS, RecordKind.OTHER])
    def test_unresolvable(self, kind):
        index = index_of(rec("Mary", year=1880, kind=kind, age=None))
        assert index.unresolved == 1
        assert index.cohort(CohortSpec(Sex.FEMALE, 0, 3000)).sample_size == 0

    def test_age_plus_birth_year_is_record_year(self):
        r = rec("Mary", year=1880, age=37)
        assert_born_in(r, r.record_year - r.age)

    @pytest.mark.parametrize("ages", [(25, 35), (20, 41), (30, 30)])
    @pytest.mark.parametrize("kind", [RecordKind.MARRIAGE, RecordKind.ADULT_ROSTER,
                                      RecordKind.BIRTH_REGISTER])
    def test_ageless_on_span_edges(self, kind, ages):
        """An age-less record born in a span's first or last year is in its
        cohort, and one born a year before or after the span is not, at the
        spec's default ages."""
        start, end = 1850, 1869
        assumed = {RecordKind.MARRIAGE: ages[0], RecordKind.ADULT_ROSTER: ages[1]}
        born = {"Ann": start - 1, "Mary": start, "Sarah": end, "Jane": end + 1}
        records = [rec(name, year=year + assumed.get(kind, 0), kind=kind, age=None)
                   for name, year in born.items()]
        spec = CohortSpec(Sex.FEMALE, start, end, *ages)
        want = {"MARY": 1, "SARAH": 1}
        assert index_of(*records).cohort(spec).names == want
        assert build_cohort(records, spec, CodingTable()).names == want


class TestBuildCohort:
    def test_counts_in_range(self, demo_table):
        spec = CohortSpec(Sex.FEMALE, 1870, 1879)
        records = [
            rec("Mary", year=1880, age=5),
            rec("Maria", year=1880, age=9),
            rec("Ann", year=1880, age=2),
        ]
        cohort = build_cohort(records, spec, demo_table)
        assert cohort.sample_size == 3
        assert cohort.names == {"MARY": 2, "ANN": 1}

    def test_out_of_range_excluded(self, demo_table):
        spec = CohortSpec(Sex.FEMALE, 1870, 1879)
        cohort = build_cohort([rec("Mary", year=1880, age=15)], spec, demo_table)
        assert cohort.sample_size == 0

    def test_sex_correction_moves_record(self, demo_table):
        spec_f = CohortSpec(Sex.FEMALE, 1870, 1879)
        spec_m = CohortSpec(Sex.MALE, 1870, 1879)
        records = [rec("Mary", sex=Sex.MALE, year=1880, age=5)]
        assert build_cohort(records, spec_f, demo_table).sample_size == 1
        assert build_cohort(records, spec_m, demo_table).sample_size == 0

    def test_unresolvable_records_skipped(self, demo_table):
        spec = CohortSpec(Sex.FEMALE, 1870, 1879)
        records = [rec("Mary", year=1875, kind=RecordKind.CENSUS, age=None)]
        assert build_cohort(records, spec, demo_table).sample_size == 0

    def test_order_independent(self, demo_table):
        spec = CohortSpec(Sex.FEMALE, 1870, 1879)
        records = [rec(n, year=1880, age=5) for n in
                   ["Mary", "Ann", "Maria", "Jane", "Sarah", "Sally", "Mary"]]
        base = build_cohort(records, spec, demo_table)
        for seed in range(5):
            shuffled = records[:]
            random.Random(seed).shuffle(shuffled)
            assert build_cohort(shuffled, spec, demo_table).names == base.names

    @pytest.mark.parametrize("span", [(1870, 1879), (1800, 1810)])
    @pytest.mark.parametrize("name, message", [
        ("J", "single-letter name 'J' must be filtered before coding"),
        ("99", "no_leading_letters: '99'"),
    ])
    def test_unstandardizable_name_raises_in_or_out_of_span(self, demo_table, span,
                                                            name, message):
        """Every record is standardized, whether or not its birth year (1875
        here) falls in the span."""
        records = [rec("Mary"), rec(name, year=1880, age=5)]
        with pytest.raises(StandardizationError, match=message):
            build_cohort(records, CohortSpec(Sex.FEMALE, *span), demo_table)


class TestRecordIO:
    def test_roundtrip(self):
        records = [
            rec("Mary", year=1880, age=5, native=True),
            rec("Jane", sex=Sex.MALE, year=1750, kind=RecordKind.MARRIAGE, age=None),
        ]
        buf = io.StringIO()
        write_records(records, buf)
        result = parse(buf.getvalue())
        assert result.records == records
        assert not result.rejected

    def test_rejection_report_format(self):
        parsed = parse(records_csv(["Mary,F,150,1880,census,,", "J,M,2,1880,census,,"]))
        filtered = filter_records(parsed.records, FilterPolicy())
        buf = io.StringIO()
        write_rejection_report(parsed.rejected, filtered.rejected, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "name,sex,age,year,kind,location,native_born,reason"
        assert lines[1].endswith("bad_age")
        assert lines[2].endswith("single_letter")


# field texts: the characters that need quotes, blanks, non-ASCII letters,
# and any other character but NUL, which Python 3.10's csv reader refuses
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"\r\n \t\u00e9\u00df\u0141'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=8,
)
_RAW_RECORDS = st.builds(
    NameRecord,
    raw_name=_TEXT,
    sex=st.sampled_from(list(Sex)),
    record_year=st.integers(YEAR_MIN, YEAR_MAX),
    record_kind=st.sampled_from(list(RecordKind)),
    age=st.none() | st.integers(0, AGE_MAX),
    location=st.none() | _TEXT,
    native_born=st.sampled_from([None, True, False]),
)
# rows as RecordScan yields them: only the location is free text
_STANDARDIZED_ROWS = st.tuples(
    st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Lo")),
            min_size=2, max_size=8),
    st.sampled_from(["F", "M"]),
    st.none() | st.integers(0, AGE_MAX),
    st.integers(YEAR_MIN, YEAR_MAX),
    st.sampled_from([kind.value for kind in RecordKind]),
    _TEXT,
    st.sampled_from(["", "true", "false"]),
)


def _texts(row) -> list[str]:
    """A row's values as the csv module writes them: None empty, an int in digits."""
    return ["" if value is None else str(value) for value in row]


def _assert_written_as_csv_module(text: str, rows) -> None:
    """``text``, a writer's output for ``rows`` (the header first), is the csv
    module's when no value holds a CR, and its reader reads back each row's
    texts; its writer leaves a CR bare, where its reader ends a record."""
    texts = [_texts(row) for row in rows]
    if not any("\r" in value for row in texts for value in row):
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(rows)
        assert text == want.getvalue()
    assert list(csv.reader(io.StringIO(text, newline=""))) == texts


class TestWritersMatchCsvModule:
    """The one field rule of the record writers, against the csv module."""

    # two fields or more: no writer writes a row of one field, which the csv
    # module quotes when it is empty so that it is not a blank line
    @given(st.lists(st.lists(_TEXT | st.integers() | st.none(), min_size=2, max_size=8),
                    max_size=6))
    def test_lines(self, rows):
        _assert_written_as_csv_module(
            "".join(corpus._line(_texts(row)) for row in rows), rows)

    @given(rows=st.lists(_STANDARDIZED_ROWS, max_size=12), batch=st.integers(1, 4))
    @example(rows=[("MARY", "F", 20, 1880, "census", "Old\rTown", "true"),
                   ("ANN", "F", None, 1880, "marriage", 'The "Old" Mill, York', "")],
             batch=1)
    def test_standardized_rows(self, rows, batch):
        buf = io.StringIO()
        with mock.patch.object(corpus, "_WRITE_BATCH", batch):
            write_rows(rows, buf)
        _assert_written_as_csv_module(buf.getvalue(), [RECORD_HEADER, *rows])

    @given(st.lists(_RAW_RECORDS, max_size=8))
    @example([NameRecord('Smith, "Mary"', Sex.FEMALE, 1880, location="Old\rTown")])
    def test_records_with_raw_names(self, records):
        buf = io.StringIO()
        write_records(records, buf)
        _assert_written_as_csv_module(
            buf.getvalue(), [RECORD_HEADER, *map(record_to_row, records)])

    @given(
        parse_rejects=st.lists(st.tuples(st.lists(_TEXT, min_size=7, max_size=7),
                                         st.sampled_from(["malformed_row", "bad_age"])),
                               max_size=6),
        filter_rejects=st.lists(st.tuples(_RAW_RECORDS,
                                          st.sampled_from(["generic", "single_letter"])),
                                max_size=6),
    )
    def test_rejection_report(self, parse_rejects, filter_rejects):
        buf = io.StringIO()
        write_rejection_report(
            [RejectedRow(dict(zip(RECORD_HEADER, texts)), reason)
             for texts, reason in parse_rejects],
            filter_rejects, buf)
        _assert_written_as_csv_module(buf.getvalue(), [
            REJECT_HEADER,
            *([*texts, reason] for texts, reason in parse_rejects),
            *([*record_to_row(record), reason] for record, reason in filter_rejects),
        ])


class TestInvariants:
    def test_record_year_bounds(self):
        with pytest.raises(ValueError):
            NameRecord(raw_name="Mary", sex=Sex.FEMALE, record_year=999)

    def test_age_bounds(self):
        with pytest.raises(ValueError):
            NameRecord(raw_name="Mary", sex=Sex.FEMALE, record_year=1880, age=111)

    def test_span_order(self):
        with pytest.raises(ValueError):
            CohortSpec(Sex.FEMALE, 1900, 1800)

    @pytest.mark.parametrize("ages", [(-1, 35), (25, 111)])
    def test_default_age_bounds(self, ages):
        with pytest.raises(ValueError, match=r"outside \[0, 110\]"):
            CohortSpec(Sex.FEMALE, 1800, 1809, *ages)


def _cased(text: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Codes in upper, lower and title case, padded with blanks and tabs."""
    pad = st.sampled_from(["", " ", "\t", "  "])
    case = st.sampled_from([str, str.upper, str.lower, str.title])
    return st.builds(lambda pre, f, t, post: pre + f(t) + post, pad, case, text, pad)


_JUNK = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
)
_CELLS = {
    "name": _cased(st.sampled_from(["Mary", "Maria", "J", "Mrs", "Widow Smith",
                                    "Mary A", "123", "Zelda", ""])),
    "sex": _cased(st.sampled_from(["F", "M", "U", ""] * 3 + ["X", "FM"])),
    "age": _cased(st.sampled_from(["", "0", "5", "110", "111", "-1", "1.5",
                                   "+7", "1_0", "abc"])),
    "year": _cased(st.sampled_from(["1880", "1000", "2100", "1_880"] * 3
                                   + ["999", "2101", "", "December", "18 80"])),
    "kind": _cased(st.sampled_from([k.value for k in RecordKind] + ["", "tax_roll"])),
    "location": _cased(st.sampled_from(["", "Leeds", "York, N.Y."])),
    "native_born": _cased(st.sampled_from(["", "true", "1", "yes", "false", "0",
                                           "no", "maybe"])),
}


@st.composite
def record_files(draw) -> str:
    """Record CSV text: shuffled, repeated, extra and missing columns, blank
    lines, short and long rows, and code variants in every field."""
    optional = [c for c in RECORD_HEADER if c not in ("name", "sex", "year")]
    columns = draw(st.lists(st.sampled_from(optional + ["extra", "Name"]), max_size=6))
    header = draw(st.permutations(["name", "sex", "year"] + columns))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long"]))
        if shape == "blank":
            buf.write("\n")
            continue
        row = [draw(_JUNK if draw(st.integers(0, 9)) == 0 else _CELLS.get(col, _JUNK))
               for col in header]
        if shape == "short":
            row = row[: draw(st.integers(0, len(row) - 1))] or [""]
        elif shape == "long":
            row += draw(st.lists(_JUNK, min_size=1, max_size=2))
        writer.writerow(row)
    return buf.getvalue()


def _report_body(parse_rejects, filter_rejects) -> str:
    """What :func:`write_rejection_report` writes for these rejects after its header."""
    buf = io.StringIO()
    write_rejection_report(parse_rejects, filter_rejects, buf)
    return buf.getvalue().partition("\n")[2]


def _report_lines(parse_rejects, filter_rejects) -> tuple[list[str], list[str]]:
    """The report line of each parse reject and of each filter reject, as
    :func:`write_rejection_report` writes it."""
    return ([_report_body([row], []) for row in parse_rejects],
            [_report_body([], [pair]) for pair in filter_rejects])


class _Lines(list):
    """A text stream that keeps each write as one item: the report lines
    that a :class:`RecordScan` writes to it, one write call per line."""

    write = list.append


def _outcome(parse, text):
    try:
        return parse(io.StringIO(text))
    except (ParseError, csv.Error) as exc:
        return (type(exc).__name__, str(exc))


class TestStreamingParserMatchesReference:
    @settings(max_examples=300)
    @given(record_files())
    def test_records_and_rejects_equal(self, text):
        got = _outcome(parse_records, text)
        assert got == _outcome(reference_corpus.parse_records, text)

    @pytest.mark.parametrize("header", ["", "\n", "name,age\n", "Name,sex,year\n"])
    def test_header_errors_equal(self, header):
        text = header + "Mary,F,1880\n"
        got = _outcome(parse_records, text)
        assert got[0] == "ParseError"
        assert got == _outcome(reference_corpus.parse_records, text)

    def test_malformed_fields_unstripped(self):
        (row,) = parse(records_csv([" Mary , F"])).rejected
        assert row.reason == "malformed_row"
        assert row.fields["name"] == " Mary "
        assert row.fields["year"] == ""

    def test_header_error_raised_before_iteration(self):
        with pytest.raises(ParseError):
            RecordScan(io.StringIO("name,age\n"), FilterPolicy(), CodingTable())


_NAMES = ["Mary", "Maria", "Marion", "Frances", "Polly", "John", "Jno", "Zelda",
          "Ann A.", "J", "Mrs", "widow", "St.John", "99"]


@st.composite
def name_records(draw) -> NameRecord:
    return NameRecord(
        raw_name=draw(st.sampled_from(_NAMES)),
        sex=draw(st.sampled_from(list(Sex))),
        record_year=draw(st.integers(1870, 1890)),
        record_kind=draw(st.sampled_from(list(RecordKind))),
        age=draw(st.one_of(st.none(), st.integers(0, 20))),
        native_born=draw(st.sampled_from([None, True, False])),
    )


class TestCohortIndex:
    @settings(max_examples=150)
    @given(
        records=st.lists(name_records(), max_size=40),
        ages=st.tuples(st.integers(15, 40), st.integers(15, 40)),
        spans=st.lists(st.tuples(st.integers(1840, 1895), st.integers(0, 30)),
                       min_size=1, max_size=4),
        native=st.booleans(),
    )
    def test_scan_index_equals_build_cohort(self, demo_table, records, ages, spans,
                                            native):
        policy = FilterPolicy(require_native_born=native)
        buf = io.StringIO()
        write_records(records, buf)
        text = buf.getvalue()
        parsed = parse_records(io.StringIO(text))
        filtered = filter_records(parsed.records, policy, demo_table)

        lines = _Lines(), _Lines()
        scan = RecordScan(io.StringIO(text), policy, demo_table, rejects=lines)
        index = CohortIndex(scan)
        assert lines == _report_lines(parsed.rejected, filtered.rejected)
        assert scan.parse_reasons == Counter(row.reason for row in parsed.rejected)
        assert scan.filter_reasons == Counter(reason for _, reason in filtered.rejected)
        unresolved = sum(reference_corpus.birth_year(record, *ages) is None
                         for record in filtered.kept)
        assert index.unresolved == unresolved
        for start, width in spans:
            for sex in Sex:
                spec = CohortSpec(sex, start, start + width, *ages)
                want = reference_corpus.build_cohort(filtered.kept, spec, demo_table)
                assert index.cohort(spec) == want
                assert build_cohort(filtered.kept, spec, demo_table) == want

    @settings(max_examples=60)
    @given(
        records=st.lists(name_records(), max_size=40),
        ages=st.lists(st.tuples(st.integers(15, 40), st.integers(15, 40)),
                      min_size=2, max_size=5),
        span=st.tuples(st.integers(1840, 1895), st.integers(0, 30)),
    )
    def test_one_index_serves_specs_with_other_ages(self, demo_table, records, ages,
                                                    span):
        buf = io.StringIO()
        write_records(records, buf)
        scan = RecordScan(io.StringIO(buf.getvalue()), FilterPolicy(), demo_table)
        index = CohortIndex(scan)
        kept = filter_records(records, FilterPolicy(), demo_table).kept
        start, width = span
        for pair in ages:
            for sex in Sex:
                spec = CohortSpec(sex, start, start + width, *pair)
                want = reference_corpus.build_cohort(kept, spec, demo_table)
                assert index.cohort(spec) == want


DEMO_TABLE = Path(namestats.__file__).parent / "data" / "demo_coding.csv"


def _stream(text: str) -> io.StringIO:
    """``text`` read as the CLI reads --records, with newline=""."""
    return io.StringIO(text, newline="")


def _assert_scan_matches_reference(text, policy, table, ages):
    """The scan of ``text``, with and without reject streams, gives the kept
    rows and the reject counts by reason of the reference scan, writes each
    reject's report line as :func:`write_rejection_report` writes the
    reference's reject, and the index of its rows at default ages ``ages`` the
    reference's one-year cohorts, the reference's total over all birth years,
    and its count of rows with no birth year."""
    ref = reference_corpus.RecordScan(_stream(text), policy, table)
    ref_kept = list(ref)
    lines = _Lines(), _Lines()
    scan = RecordScan(_stream(text), policy, table, rejects=lines)
    rows = list(scan)

    assert rows == [
        (name, sex.value, r.age, r.record_year, r.record_kind.value, r.location or "",
         record_to_row(r)[-1])
        for r, name, sex in ref_kept
    ]
    assert lines == _report_lines(ref.parse_rejected, ref.filter_rejected)
    assert scan.parse_reasons == Counter(row.reason for row in ref.parse_rejected)
    assert scan.filter_reasons == Counter(reason for _, reason in ref.filter_rejected)
    counted = RecordScan(_stream(text), policy, table)
    assert list(counted) == rows
    # with no stream, no report line is rendered, let alone kept
    assert counted._write_parse is counted._write_filter is None
    assert counted.parse_reasons == scan.parse_reasons
    assert counted.filter_reasons == scan.filter_reasons
    index = CohortIndex(rows)
    buckets, unresolved = reference_corpus.cohort_buckets(ref_kept, *ages)
    assert index.unresolved == unresolved
    for (year, sex), names in buckets.items():
        assert index.cohort(CohortSpec(sex, year, year, *ages)).names == names
    for sex in Sex:
        total = Counter()
        for (_, bucket_sex), names in buckets.items():
            if bucket_sex is sex:
                total.update(names)
        every_year = CohortSpec(sex, YEAR_MIN - AGE_MAX, YEAR_MAX, *ages)
        assert index.cohort(every_year).names == total


@st.composite
def ordered_or_reordered_files(draw) -> str:
    """Record file text whose header is ``RECORD_HEADER`` itself (half the
    time), a permutation of it, or it less one optional column: blank lines,
    rows one field short or long, and rows with every optional field empty."""
    header = list(RECORD_HEADER)
    shape = draw(st.sampled_from(["in_order", "in_order", "permuted", "missing"]))
    if shape == "permuted":
        header = draw(st.permutations(header))
    elif shape == "missing":
        header.remove(draw(st.sampled_from(["age", "kind", "location", "native_born"])))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["row"] * 5 + ["blank", "short", "long", "bare"]))
        if shape == "blank":
            buf.write("\n")
            continue
        row = [draw(_CELLS[col]) for col in header]
        if shape == "short":
            del row[draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row.insert(draw(st.integers(0, len(row))), draw(_CELLS["location"]))
        elif shape == "bare":
            row = [cell if col in ("name", "sex", "year") else ""
                   for col, cell in zip(header, row)]
        writer.writerow(row)
    return buf.getvalue()


class TestMemoizedScanMatchesReference:
    """The memoized scan against the row-at-a-time scan it replaced."""

    @settings(deadline=None)
    @given(
        text=record_files(),
        native=st.booleans(),
        generic=st.lists(st.sampled_from(["Mary", "zelda", " Ann", "Mar"]), max_size=2),
        ages=st.tuples(st.integers(15, 40), st.integers(15, 40)),
    )
    # a bad sex code on a name the table overrides is still a reject
    @example(
        text=records_csv(["Mary,X,5,1880,census,,", "Mary,U,,1880,marriage,,",
                          "Zelda,U,5,1880,census,,",
                          " Maria , f ,+7,1_880,Census,York,YES"]),
        native=False, generic=[], ages=(25, 35),
    )
    def test_rows_buckets_rejects_and_ingest_bytes_equal(self, demo_table, text, native,
                                                         generic, ages):
        policy = FilterPolicy(
            generic_names=DEFAULT_GENERIC_NAMES | {g.upper() for g in generic},
            require_native_born=native,
        )
        _assert_scan_matches_reference(text, policy, demo_table, ages)

        want_out, want_rejects = reference_corpus.ingest(text, policy, demo_table)
        with tempfile.TemporaryDirectory() as tmp:
            src, out, rejects = (Path(tmp) / n for n in ("in.csv", "out.csv", "rej.csv"))
            src.write_text(text, encoding="utf-8", newline="")
            argv = ["ingest", "--records", str(src), "--coding-table", str(DEMO_TABLE),
                    "--out", str(out), "--rejects", str(rejects)]
            argv += ["--require-native-born"] * native
            for name in generic:
                argv.append(f"--generic={name}")
            assert main(argv) == 0
            assert out.read_bytes() == want_out.encode("utf-8")
            assert rejects.read_bytes() == want_rejects.encode("utf-8")

    @settings(deadline=None)
    @given(
        text=ordered_or_reordered_files(),
        native=st.booleans(),
        ages=st.tuples(st.integers(15, 40), st.integers(15, 40)),
    )
    # the header's own order: each row is unpacked as read, not reordered
    @example(
        text=records_csv(["Mary,F,5,1880,census,Leeds,true", "", "Ann,F,5,1880,census,",
                          "Ann,F,5,1880,census,,,", "Jane,F,,1880,,,", "Mary,U,,1880,,,",
                          "Zelda,U,5,1880,census,,", " mrs ,f,40,1880,Census,,"]),
        native=False, ages=(25, 35),
    )
    def test_header_in_record_order_or_not(self, demo_table, text, native, ages):
        _assert_scan_matches_reference(text, FilterPolicy(require_native_born=native),
                                       demo_table, ages)

    @given(text=record_files(), native=st.booleans())
    def test_memo_keys_are_the_distinct_texts(self, demo_table, text, native):
        """The name memo holds the distinct truncated names, the others the
        distinct raw texts of their column."""
        policy = FilterPolicy(require_native_born=native)
        scan = RecordScan(_stream(text), policy, demo_table)
        for _ in scan:
            pass
        header, *body = csv.reader(_stream(text))
        body = [row for row in body if len(row) == len(header)]
        position = {col: i for i, col in enumerate(header)}
        assert set(scan.memos) == set(RECORD_HEADER) - {"location"}
        for col, memo in scan.memos.items():
            texts = {row[position[col]] if col in position else "" for row in body}
            if col == "name":
                texts = set(map(leading_letters, texts))
            assert set(memo) == texts


class TestIngestIsIdempotent:
    """ingest's --out, ingested again under the same table and filters, is
    written again byte for byte and rejects no row: a kept row's values are
    canonical, the table's canonicals are fixed points, none of them is a
    generic name, and a field that needs quotes is quoted."""

    @settings(deadline=None)
    @given(text=st.one_of(record_files(), ordered_or_reordered_files()),
           native=st.booleans())
    @example(
        text=records_csv(['Maria,F,5,1880,census,"York, N.Y.",true',
                          ' ann ,f,,1880,Marriage," The ""Old"" Mill ",yes',
                          'Mary,F,20,1880,census,"Old\rTown",1']),
        native=True,
    )
    def test_out_reads_back_as_itself(self, text, native):
        with tempfile.TemporaryDirectory() as tmp:
            src, out, again, rejects = (
                Path(tmp) / n for n in ("in.csv", "out.csv", "again.csv", "rej.csv"))
            src.write_text(text, encoding="utf-8", newline="")
            for records, target in ((src, out), (out, again)):
                argv = ["ingest", "--records", str(records),
                        "--coding-table", str(DEMO_TABLE),
                        "--out", str(target), "--rejects", str(rejects)]
                assert main(argv + ["--require-native-born"] * native) == 0
            assert again.read_bytes() == out.read_bytes()
            assert rejects.read_text(encoding="utf-8") == ",".join(REJECT_HEADER) + "\n"


_PARSE_REASONS = {"empty_name", "bad_sex", "bad_year", "bad_age", "bad_kind",
                  "bad_native_born", "malformed_row"}


def _written(rows: list[list[str]], header: tuple[str, ...]) -> str:
    """A record file of ``rows``, field texts in ``RECORD_HEADER`` order,
    under ``header``, a permutation of it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[RECORD_HEADER.index(col)] for col in header])
    return buf.getvalue()


# a file with a row for every reject reason under --require-native-born
_EVERY_REASON = records_csv([
    "Mary,F,5,1880,census,Leeds,true",
    "Maria,U,,1880,marriage,,yes",  # kept: the table fixes the sex
    "Ann,F,,1880,census,,true",  # kept, with no birth year
    " ,F,5,1880,census,,true",
    "Mary,X,5,1880,census,,true",
    "Mary,F,5,18x0,census,,true",
    "Mary,F,111,1880,census,,true",
    "Mary,F,5,1880,tax_roll,,true",
    "Mary,F,5,1880,census,,maybe",
    "Mary,F,5,1880,census",
    "J.,F,5,1880,census,,true",
    "Widow Smith,F,40,1880,census,,true",
    "Mary,F,5,1880,census,,no",
    'Zelda,U,5,1880,census,"York, N.Y.",true',
])


class TestRejectsFromMemoValues:
    """A reject's reason and report line come from the row's memo values:
    of a row's faults the first in the parse order, then the filter order,
    names it, and its line is the one the list API's record gives."""

    @pytest.mark.parametrize("header", [RECORD_HEADER, RECORD_HEADER[::-1]],
                             ids=["in_order", "reversed"])
    @pytest.mark.parametrize("with_streams", [True, False])
    @pytest.mark.parametrize("row, native, want", [
        pytest.param([" ", "X", "5", "1880", "census", "", ""], False,
                     ",X,5,1880,census,,,empty_name\n", id="empty_name-before-bad_sex"),
        pytest.param(["Mary", "F", "abc", "18x0", "census", "", ""], False,
                     "Mary,F,abc,18x0,census,,,bad_year\n", id="bad_year-before-bad_age"),
        pytest.param(["Mary", "F", "5", "1880", "census", "", "maybe"], True,
                     "Mary,F,5,1880,census,,maybe,bad_native_born\n",
                     id="bad_native_born-not-non_native"),
        pytest.param([" mrs ", "f", " 40 ", "1880", "Census", " Leeds ", " No "], True,
                     "mrs,F,40,1880,census,Leeds,false,generic\n",
                     id="generic-before-non_native"),
        pytest.param(["?", "U", "5", "1880", "census", "", ""], False,
                     "?,U,5,1880,census,,,single_letter\n",
                     id="single_letter-before-unparseable_sex"),
        pytest.param(["Zelda", "U", "5", "1880", "census", "", ""], True,
                     "Zelda,U,5,1880,census,,,non_native\n",
                     id="non_native-before-unparseable_sex"),
        pytest.param(["Maria", "U", "5", "1880", "census", "", ""], False,
                     ("MARY", "F", 5, 1880, "census", "", ""), id="override-kept"),
        pytest.param(["Zelda", "", "", "1880", "marriage", "York, N.Y.", ""], False,
                     'Zelda,U,,1880,marriage,"York, N.Y.",,unparseable_sex\n',
                     id="unparseable_sex"),
    ])
    def test_first_reason_names_the_row(self, demo_table, header, with_streams, row,
                                        native, want):
        written = _Lines(), _Lines()
        scan = RecordScan(_stream(_written([row], header)),
                          FilterPolicy(require_native_born=native), demo_table,
                          rejects=written if with_streams else None)
        rows = list(scan)
        if isinstance(want, tuple):
            assert rows == [want]
            assert scan.parse_reasons == scan.filter_reasons == Counter()
            assert written == ([], [])
            return
        assert rows == []
        reason = want.rstrip("\n").rpartition(",")[2]
        counts, lines = Counter([reason]), [want] if with_streams else []
        if reason in _PARSE_REASONS:
            expected = (counts, Counter(), lines, [])
        else:
            expected = (Counter(), counts, [], lines)
        assert (scan.parse_reasons, scan.filter_reasons, *written) == expected

    def test_no_record_is_built_on_the_scan_path(self, demo_table, tmp_path, capsys):
        """ingest --rejects and index_records write and count the same with
        the list API's parser, filter, record type and row renderer made to
        raise: the scan calls none of them."""
        src = tmp_path / "records.csv"
        src.write_text(_EVERY_REASON, encoding="utf-8")
        policy = FilterPolicy(require_native_born=True)

        def run(tag):
            out, rejects = tmp_path / f"{tag}.csv", tmp_path / f"{tag}-rejects.csv"
            code = main(["ingest", "--records", str(src), "--coding-table", str(DEMO_TABLE),
                         "--require-native-born", "--out", str(out),
                         "--rejects", str(rejects)])
            return (code, out.read_bytes(), rejects.read_bytes(), capsys.readouterr().err,
                    _indexed(src, policy, demo_table, 1))

        want = run("plain")
        _, _, _, _, (_, _, parse_reasons, filter_reasons) = want
        assert set(parse_reasons) == _PARSE_REASONS
        assert set(filter_reasons) == {"single_letter", "generic", "non_native",
                                       "unparseable_sex"}

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the scan path")

        with pytest.MonkeyPatch.context() as mp:
            for name in ("_parse_fields", "filter_reason", "record_to_row", "NameRecord"):
                mp.setattr(corpus, name, forbidden)
            assert run("patched") == want


# cell texts with no quote and no CR: every line end is a record end
_LINE_JUNK = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters='\x00"\r\n'),
    max_size=6,
)


@st.composite
def line_files(draw) -> str:
    """Record file text with no quote and no CR outside a CRLF: LF and CRLF
    line ends, blank lines, short and long rows, and code variants in every
    field (a comma in a cell makes a long row)."""
    optional = [c for c in RECORD_HEADER if c not in ("name", "sex", "year")]
    columns = draw(st.lists(st.sampled_from(optional + ["extra"]), max_size=4))
    header = draw(st.permutations(["name", "sex", "year"] + columns))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 40))):
        shape = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long"]))
        row = [draw(_LINE_JUNK if draw(st.integers(0, 9)) == 0
                    else _CELLS.get(col, _LINE_JUNK)) for col in header]
        if shape == "blank":
            row = []
        elif shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(_LINE_JUNK, min_size=1, max_size=2))
        lines.append(",".join(row))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _waited_all() -> bool:
    """True when this process has no child left, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@contextmanager
def _forks(min_range_bytes=1, cpus=None):
    """Patches for a split of small files; yields the list of fork calls,
    each forking for real until there are as many as usable CPUs, when a
    fork fails instead of starting a process."""
    calls = []
    fork = os.fork
    limit = corpus.usable_cpus() if cpus is None else cpus

    def counted_fork():
        calls.append(None)
        if len(calls) >= limit:
            raise OSError(errno.EAGAIN, "fork over the usable CPUs")
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_MIN_RANGE_BYTES", min_range_bytes)
        mp.setattr(os, "fork", counted_fork)
        if cpus is not None:
            mp.setattr(corpus, "usable_cpus", lambda: cpus)
        yield calls


@contextmanager
def _passes(fail=None, work="_index_raw"):
    """Yields the list of passes this process makes through the per-range
    work ``corpus.<work>``; ``fail`` is raised instead in a forked child."""
    calls = []
    parent, run = os.getpid(), getattr(corpus, work)

    def counted(*args):
        if os.getpid() == parent:
            calls.append(None)
        elif fail is not None:
            raise fail
        return run(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, work, counted)
        yield calls


def _indexed(path, policy, table, workers):
    """The index's buckets and unresolved count with the reject counts by
    reason, or the error it raised."""
    try:
        index, parse_reasons, filter_reasons = corpus.index_records(
            str(path), policy, table, workers
        )
    except (ParseError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return index._buckets, index.unresolved, parse_reasons, filter_reasons


class TestIndexRecords:
    """Ranges indexed in forked processes against the one-pass index."""

    @settings(max_examples=60, deadline=None)
    @given(
        text=line_files(),
        workers=st.integers(2, 6),
        native=st.booleans(),
        generic=st.lists(st.sampled_from(["Mary", "zelda", " Ann", "Widow"]), max_size=2),
        spoil=st.sampled_from([None, None, '"', "\r"]),
        at=st.floats(0, 1),
        read_bytes=st.integers(1, 8),
    )
    # a lone CR ends the header record before the header line's LF
    @example(text="name,sex,age,year\rMary,F,5,1880\nAnn,F,5,1880\nJane,F,5,1880\n",
             workers=2, native=False, generic=[], spoil=None, at=0.0, read_bytes=4)
    def test_ranges_equal_one_pass(self, demo_table, text, workers, native, generic,
                                   spoil, at, read_bytes):
        if spoil is not None:  # a quote, or a CR with no LF after it
            i = int(at * len(text))
            text = text[:i] + spoil + "x" + text[i:]
        policy = FilterPolicy(generic_names=DEFAULT_GENERIC_NAMES | set(generic),
                              require_native_born=native)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            path.write_bytes(text.encode("utf-8"))
            want = _indexed(path, policy, demo_table, 1)
            # reads of a few bytes put CRLFs and line ends across read boundaries
            with _forks(cpus=6) as calls, _passes() as passes, \
                    pytest.MonkeyPatch.context() as mp:
                mp.setattr(corpus, "_READ_BYTES", read_bytes)
                got = _indexed(path, policy, demo_table, workers)
                with open(path, "rb") as fh:
                    splittable = corpus._splittable(fh.fileno(), len(text.encode()))
                    bounds = corpus._range_bounds(fh.fileno(), workers)
        assert got == want
        assert len(calls) == max(len(bounds) - 2, 0) <= workers - 1
        assert _waited_all()
        assert splittable == ('"' not in text and "\r" not in text.replace("\r\n", ""))
        if not splittable:
            assert bounds == []
        elif not isinstance(want[0], str):  # no error: one pass here, no retry
            assert len(passes) == 1
            assert bounds == sorted(set(bounds))
            for start in bounds[1:-1]:
                assert text.encode("utf-8")[start - 1:start] == b"\n"

    def test_large_file_split_in_usable_cpus(self, demo_table, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(records_csv([f"{name},F,{age},1890,census,,"
                                     for age in range(40) for name in _NAMES] * 20),
                        encoding="utf-8")
        args = (path, FilterPolicy(), demo_table)
        want = _indexed(*args, 1)
        with _forks() as calls:
            assert _indexed(*args, 100_000) == want
        # one range is indexed here, one in a child per other usable CPU
        assert len(calls) == corpus.usable_cpus() - 1
        assert _waited_all()

    def test_failed_child_falls_back_to_one_pass(self, demo_table, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(records_csv(["Mary,F,5,1880,census,,"] * 200), encoding="utf-8")
        args = (path, FilterPolicy(), demo_table)
        want = _indexed(*args, 1)
        with _forks(cpus=3) as calls, _passes(fail=RuntimeError("child fails")) as passes:
            assert _indexed(*args, 3) == want
        assert len(calls) == 2
        assert len(passes) == 2  # the first range, then the whole file
        assert _waited_all()

    def test_interrupt_kills_and_reaps_children(self, demo_table, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(records_csv(["Mary,F,5,1880,census,,"] * 200), encoding="utf-8")
        parent, index_raw = os.getpid(), corpus._index_raw

        def interrupted_here(*a):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return index_raw(*a)

        with _forks(cpus=3) as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "_index_raw", interrupted_here)
            with pytest.raises(KeyboardInterrupt):
                _indexed(path, FilterPolicy(), demo_table, 3)
        assert len(calls) == 2
        assert _waited_all()

    def test_memory_does_not_grow_with_rejects(self, demo_table, tmp_path):
        """The index path counts rejects and keeps no reject row, so its peak
        traced memory at 40k rejected rows is that at 2k."""
        kept = ["Mary,F,5,1880,census,,", "Ann,F,,1880,census,,"] * 1000
        peaks = []
        for rejects in (2_000, 40_000):
            path = tmp_path / f"r{rejects}.csv"
            # a parse and a filter reject, each one repeated text, so that no
            # memo grows with them
            bad = ["Mary,X,5,1880,census,,", "J,F,5,1880,census,,"] * (rejects // 2)
            path.write_text(records_csv(kept + bad), encoding="utf-8")
            tracemalloc.start()
            try:
                _, parse_reasons, filter_reasons = corpus.index_records(
                    str(path), FilterPolicy(), demo_table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert parse_reasons == {"bad_sex": rejects // 2}
            assert filter_reasons == {"single_letter": rejects // 2}
        assert peaks[1] < peaks[0] + (64 << 10), peaks

    def test_one_range_while_other_threads_run(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(records_csv(["Mary,F,5,1880,census,,"] * 200), encoding="utf-8")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        with _forks(cpus=3), open(path, "rb") as fh:
            assert len(corpus._range_bounds(fh.fileno(), 3)) == 4
            thread.start()
            try:
                assert corpus._range_bounds(fh.fileno(), 3) == []
            finally:
                stop.set()
                thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("bad_row, message", [
        (b"Ma\xffry,F,5,1880,census,,\n", "error: 'utf-8' codec can't decode byte 0xff"),
        (b"A" * 140_000 + b",F,5,1880,census,,\n",
         "parse error: record file line 6002: field larger than field limit"),
    ], ids=["invalid_utf8", "oversized_field"])
    def test_error_in_second_range_as_one_pass(self, tmp_path, capsys, bad_row, message):
        path = tmp_path / "r.csv"
        head = records_csv(["Mary,F,5,1880,census,,"] * 6000).encode("utf-8")
        path.write_bytes(head + bad_row + b"Ann,F,5,1880,census,,\n" * 10)
        argv = ["stats", "--records", str(path), "--span", "1870:1879", "--sex", "F",
                "--out", str(tmp_path / "out.csv")]
        code = main([*argv, "--threads", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(message) and err.count("\n") == 1
        with _forks(min_range_bytes=1024, cpus=2) as calls:
            assert main([*argv, "--threads", "2"]) == code
        assert capsys.readouterr().err == err
        assert len(calls) == 1
        assert _waited_all()
        assert not (tmp_path / "out.csv").exists()


def _ingest(path: Path, cpus: int, *flags: str, old: bool = True) -> tuple:
    """``main`` on ``ingest`` of ``path`` with ``cpus`` usable CPUs (one
    reads it in one pass), with --out and --rejects in a directory of their
    own that already holds both (with ``old``) or neither: the exit code,
    each output's bytes (None when absent), stderr, and the files left in
    that directory."""
    outputs = path.parent / "outputs"
    outputs.mkdir(exist_ok=True)
    out, rejects = outputs / "out.csv", outputs / "rejects.csv"
    for output in (out, rejects):
        if old:
            output.write_bytes(b"old " + output.stem.encode() + b"\n")
        else:
            output.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "usable_cpus", lambda: cpus)
        code = main(["ingest", "--records", str(path), "--coding-table", str(DEMO_TABLE),
                     "--out", str(out), "--rejects", str(rejects), *flags])
    read = [output.read_bytes() if output.exists() else None for output in (out, rejects)]
    return code, *read, err.getvalue(), sorted(os.listdir(outputs))


@contextmanager
def _ranged_runs():
    """Yields a list to which each run of ``corpus._run_ranges`` appends
    whether it gave its ranges' results (True) or failed (False)."""
    runs, run_ranges = [], corpus._run_ranges

    def counted(*args):
        parts = run_ranges(*args)
        runs.append(parts is not None)
        return parts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_run_ranges", counted)
        yield runs


# a row that no pass can read, put after 6,000 good ones: invalid UTF-8, or a
# field over the csv module's limit
_BAD_SECOND_HALF = [
    (b"Ma\xffry,F,5,1880,census,,\n", "error: 'utf-8' codec can't decode byte 0xff"),
    (b"A" * 140_000 + b",F,5,1880,census,,\n",
     "parse error: record file line 6002: field larger than field limit"),
]


class TestIngestRecords:
    """ingest's ranges, spooled in forked processes, against one pass."""

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.one_of(record_files(), ordered_or_reordered_files(), line_files()),
        workers=st.integers(2, 6),
        native=st.booleans(),
        generic=st.lists(st.sampled_from(["Mary", "zelda", " Ann", "Widow"]), max_size=2),
        read_bytes=st.integers(1, 8),
    )
    # kept rows that differ, and both kinds of reject, in every range
    @example(text=records_csv(["Mary,F,5,1880,census,,", "Mary,X,5,1880,census,,",
                               "Ann,F,6,1880,census,,", "J,F,5,1880,census,,",
                               "Jane,F,7,1880,census,York,", "Zelda,F,8,1880,census,,"]),
             workers=3, native=False, generic=[], read_bytes=3)
    def test_ranges_equal_one_pass(self, text, workers, native, generic, read_bytes):
        flags = ["--require-native-born"] * native + [f"--generic={g}" for g in generic]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            path.write_bytes(text.encode("utf-8"))
            want = _ingest(path, 1, *flags, old=False)
            # reads of a few bytes put CRLFs and line ends across read boundaries
            with _forks(cpus=workers) as calls, pytest.MonkeyPatch.context() as mp:
                mp.setattr(corpus, "_READ_BYTES", read_bytes)
                got = _ingest(path, workers, *flags, old=False)
        assert got == want
        assert len(calls) <= workers - 1
        assert _waited_all()

    def test_spools_in_range_order(self, tmp_path):
        """Every range's kept rows come before any reject, and every parse
        reject before any filter reject, as in one pass."""
        rows = []
        for i in range(300):
            rows += [f"Name{chr(65 + i % 26)}a,F,{i % 90},1880,census,,",
                     f"Mary,X,{i % 90},1880,census,,", f"J,F,{i % 90},1880,census,,"]
        path = tmp_path / "r.csv"
        path.write_text(records_csv(rows), encoding="utf-8")
        want = _ingest(path, 1)
        with _ranged_runs() as runs, _forks(min_range_bytes=1024, cpus=4) as calls:
            assert _ingest(path, 4) == want
        assert runs == [True]
        assert len(calls) == 3
        assert _waited_all()
        reasons = [line.rpartition(b",")[2] for line in want[2].splitlines()[1:]]
        assert reasons == [b"bad_sex"] * 300 + [b"single_letter"] * 300

    @pytest.mark.parametrize("bad_row, message", _BAD_SECOND_HALF,
                             ids=["invalid_utf8", "oversized_field"])
    def test_error_in_second_range_as_one_pass(self, tmp_path, bad_row, message):
        path = tmp_path / "r.csv"
        head = records_csv(["Mary,F,5,1880,census,,"] * 6000).encode("utf-8")
        path.write_bytes(head + bad_row + b"Ann,F,5,1880,census,,\n" * 10)
        want = _ingest(path, 1)
        code, out, rejects, err, left = want
        assert code == 1
        assert err.startswith(message) and err.count("\n") == 1
        assert (out, rejects) == (b"old out\n", b"old rejects\n")
        assert left == ["out.csv", "rejects.csv"]
        with _ranged_runs() as runs, _forks(min_range_bytes=1024, cpus=2) as calls:
            assert _ingest(path, 2) == want
        assert runs == [False]
        assert len(calls) == 1
        assert _waited_all()

    def test_failed_child_falls_back_to_one_pass(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(records_csv(["Mary,F,5,1880,census,,", "J,F,5,1880,census,,",
                                     "Mary,X,5,1880,census,,"] * 100), encoding="utf-8")
        want = _ingest(path, 1)
        assert want[0] == 0
        with _forks(cpus=3) as calls, \
                _passes(fail=RuntimeError("child fails"), work="_ingest_raw") as passes:
            assert _ingest(path, 3) == want
        assert len(calls) == 2
        assert len(passes) == 2  # the first range, then the whole file
        assert _waited_all()

    def test_interrupt_kills_and_reaps_children(self, demo_table, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(records_csv(["Mary,F,5,1880,census,,"] * 200), encoding="utf-8")
        parent, ingest_raw = os.getpid(), corpus._ingest_raw

        def interrupted_here(*a):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return ingest_raw(*a)

        out, rejects = io.StringIO(), io.StringIO()
        with (_forks(cpus=3) as calls, pytest.MonkeyPatch.context() as mp,
              io.FileIO(path) as raw):
            mp.setattr(corpus, "_ingest_raw", interrupted_here)
            with pytest.raises(KeyboardInterrupt):
                corpus.ingest_records(raw, FilterPolicy(), demo_table, 3, out, rejects)
        assert len(calls) == 2
        assert _waited_all()
        assert out.getvalue() == rejects.getvalue() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_output_named(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text(records_csv(["Mary,F,5,1880,census,Leeds,"] * 6000),
                        encoding="utf-8")
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        with _ranged_runs() as runs, _forks(min_range_bytes=1024, cpus=2) as calls:
            code = main(["ingest", "--records", str(path), "--out", "/dev/full",
                         "--rejects", str(outputs / "rejects.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write /dev/full: [Errno 28] ")
        assert err.count("\n") == 1
        assert runs == [True]
        assert len(calls) == 1
        assert _waited_all()
        assert os.listdir(outputs) == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_pass", "ranged"])
    def test_no_temporary_directory(self, tmp_path, cpus):
        """With no temporary directory to write in, a ranged run reads in one
        pass, and one pass holds its filter rejects: the bytes are those
        written with one."""
        path = tmp_path / "r.csv"
        path.write_text(records_csv(["Mary,F,5,1880,census,,", "J,F,5,1880,census,,",
                                     "Mary,X,5,1880,census,,"] * 400), encoding="utf-8")
        want = _ingest(path, 1)
        assert want[0] == 0 and want[2].count(b"\n") == 801
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("")
        with _ranged_runs() as runs, _forks(min_range_bytes=1024, cpus=cpus) as calls, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(tempfile, "tempdir", str(not_a_directory))
            with pytest.raises(OSError):
                tempfile.TemporaryFile()
            assert _ingest(path, cpus) == want
        assert runs == [] and calls == []
        assert _waited_all()

    def test_only_read_errors_name_the_records(self, tmp_path, capsys):
        """An error reading --records is named as one; an error writing
        stdout is not made one."""
        path = tmp_path / "r.csv"
        path.write_text(records_csv(["Mary,F,5,1880,census,,"] * 10), encoding="utf-8")
        argv = ["ingest", "--records", str(path)]

        class FailingRead(io.FileIO):
            def readinto(self, buffer):
                raise OSError(errno.EIO, "Input/output error")

        class FailingFile(cli._File, FailingRead):
            """cli's file, over a read that fails."""

        with mock.patch.object(cli, "_File", FailingFile):
            assert main(argv) == 1
        assert capsys.readouterr().err == f"cannot read {path}: [Errno 5] Input/output error\n"
        with mock.patch.object(sys, "stdout", mock.Mock(write=mock.Mock(
                side_effect=OSError(errno.ENOSPC, "No space left on device")))):
            with pytest.raises(OSError, match="No space left"):
                main(argv)

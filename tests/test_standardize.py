import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from namestats import (
    CodingTable,
    CodingTableError,
    Sex,
    StandardizationError,
    apply_coding,
    correct_sex,
    load_coding_table,
    truncate_name,
)
from namestats.standardize import leading_letters

import reference_corpus


class TestTruncateName:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("Elizabeth", "ELIZABET"),
            ("Mary A", "MARY"),
            ("Anne-Marie", "ANNE"),
            ("Christina", "CHRISTIN"),
            ("mary", "MARY"),
            ("MARY", "MARY"),
            ("  Jane  ", "JANE"),
            ("St.John", "ST"),
            ("O'Brien", "O"),
            ("J", "J"),
            ("Wm.", "WM"),
        ],
    )
    def test_fixtures(self, raw, expected):
        assert truncate_name(raw) == expected

    def test_no_leading_letters(self):
        for raw in ("123", "-Mary", " . ", "'"):
            with pytest.raises(StandardizationError):
                truncate_name(raw)

    def test_unicode_letters_count_as_letters(self):
        assert truncate_name("Áurea") == "ÁUREA"

    @given(st.text(alphabet=st.characters(categories=("Lu", "Ll", "Nd", "P", "Z")), min_size=1))
    def test_idempotent_and_bounded(self, raw):
        try:
            out = truncate_name(raw)
        except StandardizationError:
            return
        assert 1 <= len(out) <= 8
        # a handful of letters expand under upper() (e.g. eszett), so the
        # length bound is relative to the upper-cased input
        assert len(out) <= len(raw.strip().upper())
        assert truncate_name(out) == out

    @given(
        st.sampled_from(["", " ", "\t "]),
        st.text(max_size=16) | st.text(alphabet=st.characters(
            categories=("Lu", "Ll", "Lo", "Nd", "No", "Nl", "P", "Z")), max_size=16),
    )
    def test_leading_letters_matches_loop(self, pad, text):
        raw = pad + text
        assert leading_letters(raw) == reference_corpus.leading_letters(raw)


class TestApplyCoding:
    def test_demo_hits(self, demo_table):
        assert apply_coding(demo_table, "MARIA") == "MARY"
        assert apply_coding(demo_table, "MARIE") == "MARY"

    def test_identity_on_miss(self):
        assert apply_coding(CodingTable(), "ZELDA") == "ZELDA"

    def test_single_letter_rejected(self, demo_table):
        with pytest.raises(StandardizationError):
            apply_coding(demo_table, "J")

    def test_idempotent(self, demo_table):
        for variant in list(demo_table.entries) + ["ZELDA", "QUIRINUS"]:
            once = apply_coding(demo_table, variant)
            assert apply_coding(demo_table, once) == once

    def test_same_input_same_output(self, demo_table):
        assert apply_coding(demo_table, "MARIA") == apply_coding(demo_table, "MARIA")


class TestCorrectSex:
    def test_override_applies(self, demo_table):
        assert correct_sex(demo_table, "MARY", Sex.MALE) is Sex.FEMALE
        assert correct_sex(demo_table, "MARY", Sex.UNKNOWN) is Sex.FEMALE

    def test_noop_when_already_right(self, demo_table):
        assert correct_sex(demo_table, "MARY", Sex.FEMALE) is Sex.FEMALE

    def test_ambiguous_untouched(self, demo_table):
        assert correct_sex(demo_table, "FRANCIS", Sex.MALE) is Sex.MALE
        assert correct_sex(demo_table, "FRANCIS", Sex.FEMALE) is Sex.FEMALE

    def test_unlisted_untouched(self, demo_table):
        assert correct_sex(demo_table, "ZELDA", Sex.MALE) is Sex.MALE


def _load(text: str) -> CodingTable:
    return load_coding_table(io.StringIO(text))


class TestLoadCodingTable:
    def test_two_entries(self):
        table = _load("variant,canonical,sex_override\nMARIA,MARY,F\nMARIE,MARY,\n")
        assert len(table.entries) == 2
        assert apply_coding(table, "MARIA") == "MARY"

    def test_non_fixed_point_rejected(self):
        with pytest.raises(CodingTableError, match="fixed point"):
            _load("variant,canonical,sex_override\nMARIA,MARY,\nMARY,MARIE,\n")

    def test_overlong_canonical_rejected(self):
        with pytest.raises(CodingTableError):
            _load("variant,canonical,sex_override\nMARY,MARYMAGDALENE,\n")

    def test_overlong_variant_rejected(self):
        # no truncated name is longer than eight letters, so ELIZABETH could
        # never be looked up
        with pytest.raises(CodingTableError, match="^line 2: variant 'ELIZABETH' is long"):
            _load("variant,canonical,sex_override\nElizabeth,ELIZA,F\n")

    def test_duplicate_variant_rejected(self):
        with pytest.raises(CodingTableError, match="duplicate"):
            _load("variant,canonical,sex_override\nMARIA,MARY,\nmaria,MARY,\n")

    def test_bad_override_rejected(self):
        with pytest.raises(CodingTableError, match="sex_override"):
            _load("variant,canonical,sex_override\nMARIA,MARY,X\n")

    def test_case_folding(self):
        table = _load("variant,canonical,sex_override\nmaria,mary,f\n")
        assert apply_coding(table, "MARIA") == "MARY"
        assert correct_sex(table, "MARIA", Sex.UNKNOWN) is Sex.FEMALE

    def test_demo_table_is_valid(self, demo_table):
        demo_table.validate()
        assert len(demo_table.entries) > 40
        # every canonical is reachable and a fixed point
        for entry in demo_table.entries.values():
            assert apply_coding(demo_table, entry.canonical) == entry.canonical

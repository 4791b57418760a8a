"""Name truncation and coding-table standardization.

Name identity throughout the toolkit is the standardized form: the raw
name is upper-cased and cut at the eighth letter or at the first
non-alphabetic character (period, space, hyphen, apostrophe, digit, ...),
whichever comes first, and the result is then mapped through a coding
table that groups variant spellings, abbreviations, and recording errors
under one canonical entry.  Identity coding applies on a table miss, so
an empty table is valid and standardization degrades to truncation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import IO, NamedTuple

MIN_NAME_LEN = 2
MAX_NAME_LEN = 8

CODING_TABLE_HEADER = ("variant", "canonical", "sex_override")


class Sex(Enum):
    """Recorded or corrected sex of a person; file code in ``value``."""

    FEMALE = "F"
    MALE = "M"
    UNKNOWN = "U"


class StandardizationError(ValueError):
    """A raw name cannot be turned into a standardized name."""


class CodingTableError(ValueError):
    """A coding table file violates the table invariants."""


class CodingEntry(NamedTuple):
    canonical: str
    sex_override: Sex | None


@dataclass(frozen=True)
class CodingTable:
    """Immutable map from truncated name to canonical name.

    Invariants (checked by :func:`load_coding_table` / :meth:`validate`):
    every canonical that also appears as a key maps to itself, so applying
    the table twice equals applying it once; keys are unique after case
    folding.
    """

    entries: dict[str, CodingEntry] = field(default_factory=dict)
    version_id: str = "empty"

    def validate(self) -> None:
        for variant, entry in self.entries.items():
            if not is_standard_name(entry.canonical):
                raise CodingTableError(
                    f"canonical {entry.canonical!r} for {variant!r} is not a "
                    f"valid standardized name ({MIN_NAME_LEN}-{MAX_NAME_LEN} letters)"
                )
            target = self.entries.get(entry.canonical)
            if target is not None and target.canonical != entry.canonical:
                raise CodingTableError(
                    f"canonical {entry.canonical!r} (from {variant!r}) is not a "
                    f"fixed point: it maps on to {target.canonical!r}"
                )



def is_standard_name(text: str) -> bool:
    """True when ``text`` is a valid standardized name as stored."""
    return (
        MIN_NAME_LEN <= len(text) <= MAX_NAME_LEN
        and text.isalpha()
        and text == text.upper()
    )


def leading_letters(raw: str) -> str:
    """Upper-case ``raw`` and keep the leading letters, at most eight.

    The prefix ends at the earlier of the eighth letter and the character
    before the first non-alphabetic character.  Unicode letters count as
    letters.  Returns the empty string when ``raw`` has no leading letters.
    """
    head = raw.strip().upper()[:MAX_NAME_LEN]
    if head.isalpha():
        return head
    for i, ch in enumerate(head):
        if not ch.isalpha():
            return head[:i]
    return head


def truncate_name(raw: str) -> str:
    """:func:`leading_letters`, raising when there are none.

    Raises :class:`StandardizationError` when the name has no leading
    letters at all (the single-letter case is a filtering matter, not a
    truncation error).
    """
    out = leading_letters(raw)
    if not out:
        raise StandardizationError(f"no_leading_letters: {raw!r}")
    return out


def apply_coding(table: CodingTable, truncated: str) -> str:
    """Map a truncated name to its canonical form; identity on a miss."""
    if len(truncated) < MIN_NAME_LEN:
        raise StandardizationError(
            f"single-letter name {truncated!r} must be filtered before coding"
        )
    entry = table.entries.get(truncated)
    return entry.canonical if entry is not None else truncated


def correct_sex(table: CodingTable, name: str, recorded_sex: Sex) -> Sex:
    """Return the table's sex override for ``name`` when one exists.

    Sex-unambiguous names carry an override; for all other names the
    recorded sex is returned unchanged.
    """
    entry = table.entries.get(name)
    if entry is not None and entry.sex_override is not None:
        return entry.sex_override
    return recorded_sex


def load_coding_table(stream: IO[str], version_id: str = "unversioned") -> CodingTable:
    """Read a ``variant,canonical,sex_override`` CSV into a validated table.

    Raises :class:`CodingTableError` on duplicate variants, variants longer
    than a truncated name, canonicals that are not fixed points of the table,
    canonicals violating the standardized-name constraints, or text the csv
    module cannot read.
    """
    reader = csv.DictReader(stream)
    try:
        if reader.fieldnames is None:
            raise CodingTableError("coding table file is empty")
        missing = set(CODING_TABLE_HEADER[:2]) - set(reader.fieldnames)
        if missing:
            raise CodingTableError(f"coding table missing columns: {sorted(missing)}")

        entries: dict[str, CodingEntry] = {}
        for lineno, row in enumerate(reader, start=2):
            variant = (row.get("variant") or "").strip().upper()
            canonical = (row.get("canonical") or "").strip().upper()
            raw_override = (row.get("sex_override") or "").strip().upper()
            if not variant or not variant.isalpha():
                raise CodingTableError(f"line {lineno}: bad variant {variant!r}")
            if len(variant) > MAX_NAME_LEN:
                raise CodingTableError(
                    f"line {lineno}: variant {variant!r} is longer than {MAX_NAME_LEN} "
                    f"letters, so no truncated name can match it"
                )
            if variant in entries:
                raise CodingTableError(f"line {lineno}: duplicate variant {variant!r}")
            if raw_override in ("", None):
                override = None
            elif raw_override in ("F", "M"):
                override = Sex(raw_override)
            else:
                raise CodingTableError(
                    f"line {lineno}: sex_override must be F, M, or empty, got {raw_override!r}"
                )
            entries[variant] = CodingEntry(canonical, override)
    except csv.Error as exc:
        raise CodingTableError(f"coding table line {reader.reader.line_num}: {exc}") from exc

    table = CodingTable(entries, version_id)
    table.validate()
    return table


def load_demo_table() -> CodingTable:
    """Load the small demonstration coding table shipped with the package."""
    path = resources.files("namestats").joinpath("data/demo_coding.csv")
    with path.open("r", encoding="utf-8") as fh:
        return load_coding_table(fh, version_id="demo-1")

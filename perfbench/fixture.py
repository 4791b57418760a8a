"""Seeded benchmark inputs and their expected outputs, built without namestats.

``census(seed)`` makes the ``census-200k`` record file: Zipf-like names over
a ~30k-name vocabulary whose top ranks are the demo coding table's
variants, case noise and middle initials, all five record kinds, sexes
F/M/U, and small shares of every parse and filter reject reason.  The
module then derives, from the generated fields and the coding table file
alone, the bytes the CLI must write for each workload (the oracle) and the
fixture facts a result cites.

``simulated(...)`` re-derives the ``simulate`` subcommand's output with a
vectorised form of the proportional-growth process (one array draw of copy
targets, pointer jumping to the founding name).

Nothing here imports namestats, so a change to the program cannot change
its own fixture or its expected output.  Run as a script, it writes one
workload's input and prints the expected digests as JSON:

    python3 perfbench/fixture.py --workload stats-wide --seed 20260809 --work DIR
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import CODING_TABLE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

HEADER = "name,sex,age,year,kind,location,native_born"
ROWS = 200_000
VOCAB = 30_000
ZIPF_S, ZIPF_Q = 1.5, 2.0
MAX_LEN = 8
GENERIC = frozenset({"MR", "MRS", "WIDOW", "INFANT"})
MARRIAGE_AGE, ADULT_AGE = 25, 35
K = 10

# Variants of the demo coding table with the sex its entry implies ("" when
# none), frozen here so that the fixture does not follow edits to the table.
TOP_VARIANTS = (
    ("MARY", "F"), ("MARIA", "F"), ("MARIE", "F"), ("MARION", "F"),
    ("MARYANN", "F"), ("MARYANNE", "F"), ("MARISSA", "F"), ("POLLY", "F"),
    ("ANN", "F"), ("ANNE", "F"), ("ANNA", "F"), ("NANCY", "F"),
    ("ELIZABET", "F"), ("ELISABET", "F"), ("ELIZA", "F"), ("BETTY", "F"),
    ("BETSY", "F"), ("LIZZIE", "F"), ("MARGARET", "F"), ("MARGT", "F"),
    ("MAGGIE", "F"), ("PEGGY", "F"), ("SARAH", "F"), ("SARA", "F"),
    ("SALLY", "F"), ("SUSAN", "F"), ("SUSANNAH", "F"), ("SUSIE", "F"),
    ("JANE", "F"), ("JOAN", "F"), ("ALICE", "F"), ("MATILDA", "F"),
    ("EMILY", "F"), ("CHRISTIN", "F"), ("JOHN", "M"), ("JNO", "M"),
    ("JON", "M"), ("JACK", "M"), ("WILLIAM", "M"), ("WM", "M"),
    ("WILLIE", "M"), ("BILL", "M"), ("BILLY", "M"), ("JAMES", "M"),
    ("JAS", "M"), ("JIM", "M"), ("JIMMY", "M"), ("ROBERT", "M"),
    ("ROBT", "M"), ("BOB", "M"), ("BOBBY", "M"), ("THOMAS", "M"),
    ("THOS", "M"), ("TOM", "M"), ("MICHAEL", "M"), ("MICHEAL", "M"),
    ("MIKE", "M"), ("DAVID", "M"), ("DAVE", "M"), ("PAUL", "M"),
    ("MARK", "M"), ("FRANCES", ""), ("FRANCIS", ""),
)

PARSE_REASONS = (
    "empty_name", "bad_sex", "bad_year", "bad_age",
    "bad_kind", "bad_native_born", "malformed_row",
)
FILTER_REASONS = ("single_letter", "generic", "unparseable_sex")
# intended share of each row category; the rest are kept rows
CATEGORY_SHARE = {
    "empty_name": 0.002, "bad_sex": 0.003, "bad_year": 0.004, "bad_age": 0.004,
    "bad_kind": 0.003, "bad_native_born": 0.002, "malformed_row": 0.003,
    "single_letter": 0.008, "generic": 0.006, "unparseable_sex": 0.010,
}
CATEGORIES = ("kept",) + tuple(CATEGORY_SHARE)

KINDS = ("census", "marriage", "adult_roster", "birth_register", "other")
KIND_SHARE = (0.50, 0.15, 0.10, 0.15, 0.10)
# share of rows of each kind that carry an age field
KIND_AGE_SHARE = (1.0, 0.4, 0.3, 0.1, 0.8)

_ONSETS = ("B", "C", "D", "F", "G", "H", "J", "K", "L", "M", "N", "P", "R",
           "S", "T", "V", "W", "Z", "BR", "CH", "CL", "DR", "GR", "SH", "ST", "TH")
_NUCLEI = ("A", "E", "I", "O", "U", "AI", "EA", "IE", "OU", "Y")
_SINGLE_LETTER = ("J", "J.", "W.", "A Smith", "?", "E-")
_GENERIC_RAW = ("Mr", "MRS", "Mrs", "Widow Smith", "widow", "Infant", "INFANT")
_BAD = {
    "bad_sex": ("X", "Q", "female"),
    "bad_year": ("18x5", "999", "2200", "unknown"),
    "bad_age": ("-3", "140", "ab", "111"),
    "bad_kind": ("baptism", "burial", "tax"),
    "bad_native_born": ("maybe", "2", "unk"),
}
_NATIVE_TEXT = ("", "", "true", "false", "yes", "no", "1", "0", "True", "FALSE")
_NATIVE_OUT = {"": "", "true": "true", "yes": "true", "1": "true",
               "false": "false", "no": "false", "0": "false"}


def truncate(raw: str) -> str:
    """Upper-cased leading letters, at most eight (ASCII inputs only)."""
    out = []
    for ch in raw.upper():
        if not ("A" <= ch <= "Z"):
            break
        out.append(ch)
        if len(out) == MAX_LEN:
            break
    return "".join(out)


def load_table(path) -> dict[str, tuple[str, str]]:
    """variant -> (canonical, sex override or ""), read as plain CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {
            row["variant"].strip().upper(): (
                row["canonical"].strip().upper(),
                (row.get("sex_override") or "").strip().upper(),
            )
            for row in csv.DictReader(fh)
        }


def _vocabulary(rng) -> tuple[list[str], list[str]]:
    """Title-case names by rank and each name's usual sex."""
    taken = {v for v, _ in TOP_VARIANTS} | GENERIC
    order = rng.permutation(len(TOP_VARIANTS))
    names = [TOP_VARIANTS[i][0].title() for i in order]
    sexes = [TOP_VARIANTS[i][1] or "FM"[int(rng.integers(2))] for i in order]
    need = VOCAB - len(names)
    while need:
        count = 2 * need
        sizes = rng.integers(2, 6, size=count)
        onsets = rng.integers(len(_ONSETS), size=(count, 5))
        nuclei = rng.integers(len(_NUCLEI), size=(count, 5))
        codas = rng.integers(0, 4, size=count)
        for n, on, nu, coda in zip(sizes.tolist(), onsets.tolist(),
                                   nuclei.tolist(), codas.tolist()):
            word = "".join(_ONSETS[on[j]] + _NUCLEI[nu[j]] for j in range(n))
            word += ("", "N", "L", "S")[coda]
            key = word[:MAX_LEN]
            if key in taken:
                continue
            taken.add(key)
            names.append(word.title())
            sexes.append("FM"[len(names) % 2])
            need -= 1
            if not need:
                break
    return names, sexes


def _styled(name: str, style: int, initial: str) -> str:
    if style == 1:
        name = name.upper()
    elif style == 2:
        name = name.lower()
    elif style == 3:
        name = name[0].lower() + name[1:].upper()
    return f"{name} {initial}" if initial else name


@dataclass
class Census:
    """A generated record file plus everything the oracle knows about it."""

    text: str
    rows: int
    parse_rejects: dict[str, int]
    filter_rejects: dict[str, int]
    kept: int
    coding_hits: int
    # per kept row: standardized-name id, corrected sex (0 F, 1 M) and birth
    # year (-1 when there is no age and no default applies)
    std_names: list[str]
    kept_std: np.ndarray
    kept_sex: np.ndarray
    kept_birth: np.ndarray
    ingest_text: str
    rejects_text: str
    facts: dict = field(default_factory=dict)


def census(seed: int, table: dict[str, tuple[str, str]]) -> Census:
    rows = ROWS
    rng = np.random.default_rng(seed)
    vocab, vocab_sex = _vocabulary(rng)

    ranks = np.arange(1, len(vocab) + 1, dtype=float)
    weights = 1.0 / (ranks + ZIPF_Q) ** ZIPF_S
    name_idx = rng.choice(len(vocab), size=rows, p=weights / weights.sum())
    category = rng.choice(
        len(CATEGORIES), size=rows,
        p=[1 - sum(CATEGORY_SHARE.values())] + list(CATEGORY_SHARE.values()),
    )
    kind = rng.choice(len(KINDS), size=rows, p=KIND_SHARE)
    has_age = rng.random(rows) < np.asarray(KIND_AGE_SHARE)[kind]
    year = rng.integers(1850, 1951, size=rows)
    age = np.minimum(rng.gamma(2.0, 14.0, size=rows).astype(np.int64), 100)
    age = np.where(kind == 3, rng.integers(0, 2, size=rows), age)
    style = rng.choice(4, size=rows, p=(0.70, 0.15, 0.10, 0.05))
    initial = np.where(rng.random(rows) < 0.12, rng.integers(0, 26, size=rows), -1)
    sex_roll = rng.random(rows)
    kind_upper = rng.random(rows) < 0.03
    sex_lower = rng.random(rows) < 0.02
    location = np.where(rng.random(rows) < 0.6, rng.integers(1, 400, size=rows), 0)
    native = rng.integers(0, len(_NATIVE_TEXT), size=rows)
    pick = rng.integers(0, 1 << 30, size=rows)
    malformed_extra = rng.random(rows) < 0.5

    # names whose coded form carries a sex override: the only kept rows that
    # may record sex U
    implied = dict(TOP_VARIANTS)
    override_idx = {
        i for i, n in enumerate(vocab[:len(TOP_VARIANTS)]) if implied[n.upper()]
    }
    std_of = {}

    lines = [HEADER]
    parse_rejects = dict.fromkeys(PARSE_REASONS, 0)
    filter_rejects = dict.fromkeys(FILTER_REASONS, 0)
    parse_lines, filter_lines, out_lines = [], [], []
    kept_std, kept_sex, kept_birth = [], [], []
    std_ids: dict[str, int] = {}
    coding_hits = 0
    cols = zip(
        category.tolist(), name_idx.tolist(), kind.tolist(), has_age.tolist(),
        year.tolist(), age.tolist(), style.tolist(), initial.tolist(),
        sex_roll.tolist(), kind_upper.tolist(), sex_lower.tolist(),
        location.tolist(), native.tolist(), pick.tolist(), malformed_extra.tolist(),
    )
    for (cat, ni, kd, ha, yr, ag, st, ini, sr, ku, sl, loc, nat, pk, mx) in cols:
        cat = CATEGORIES[cat]
        if cat == "unparseable_sex" and ni in override_idx:
            ni = len(TOP_VARIANTS) + pk % (len(vocab) - len(TOP_VARIANTS))
        name = _styled(vocab[ni], st, chr(65 + ini) if ini >= 0 else "")
        usual = vocab_sex[ni]
        if cat == "unparseable_sex":
            sex = ("U", "u", "")[pk % 3]
        elif sr < 0.02 and ni in override_idx:
            sex = "U"
        elif sr < 0.05:
            sex = "M" if usual == "F" else "F"
        else:
            sex = usual
        if sl:
            sex = sex.lower()
        kind_text = KINDS[kd]
        if kd == 4 and pk % 4 == 0:
            kind_text = ""
        elif ku:
            kind_text = kind_text.title()
        age_text = str(ag) if ha else ""
        year_text = str(yr)
        loc_text = f"Parish{loc}" if loc else ""
        nat_text = _NATIVE_TEXT[nat]
        if cat == "single_letter":
            name = _SINGLE_LETTER[pk % len(_SINGLE_LETTER)]
        elif cat == "generic":
            name = _GENERIC_RAW[pk % len(_GENERIC_RAW)]
        elif cat == "empty_name":
            name = ""
        elif cat in _BAD:
            bad = _BAD[cat][pk % len(_BAD[cat])]
            if cat == "bad_sex":
                sex = bad
            elif cat == "bad_year":
                year_text = bad
            elif cat == "bad_age":
                age_text = bad
            elif cat == "bad_kind":
                kind_text = bad
            else:
                nat_text = bad
        fields = [name, sex, age_text, year_text, kind_text, loc_text, nat_text]
        line = ",".join(fields)
        if cat == "malformed_row":
            if mx:
                line += ",extra"
            else:
                line = line.rsplit(",", 1)[0]
                fields[6] = ""
        lines.append(line)

        if cat in parse_rejects:
            parse_rejects[cat] += 1
            parse_lines.append(",".join(fields) + "," + cat)
            continue

        # the row parses: what the filter and the coding table make of it
        sex_code = sex.upper() or "U"
        kind_out = kind_text.lower() or "other"
        nat_out = _NATIVE_OUT[nat_text.lower()]
        record_row = [name, sex_code, age_text, year_text, kind_out, loc_text, nat_out]
        trunc = std_of.get(name)
        if trunc is None:
            trunc = std_of[name] = truncate(name)
        reason = None
        if len(trunc) < 2:
            reason = "single_letter"
        elif trunc in GENERIC:
            reason = "generic"
        entry = table.get(trunc)
        std = entry[0] if entry else trunc
        override = table.get(std, ("", ""))[1]
        corrected = override or sex_code
        if reason is None and corrected == "U":
            reason = "unparseable_sex"
        if reason is not None:
            filter_rejects[reason] += 1
            filter_lines.append(",".join(record_row) + "," + reason)
            continue

        coding_hits += entry is not None
        sid = std_ids.setdefault(std, len(std_ids))
        kept_std.append(sid)
        kept_sex.append(0 if corrected == "F" else 1)
        if age_text:
            birth = yr - int(age_text)
        elif kind_out == "birth_register":
            birth = yr
        elif kind_out == "marriage":
            birth = yr - MARRIAGE_AGE
        elif kind_out == "adult_roster":
            birth = yr - ADULT_AGE
        else:
            birth = -1
        kept_birth.append(birth)
        out_lines.append(",".join([std, corrected] + record_row[2:]))

    names = sorted(std_ids, key=std_ids.get)
    reject_header = HEADER + ",reason"
    c = Census(
        text="\n".join(lines) + "\n",
        rows=rows,
        parse_rejects=parse_rejects,
        filter_rejects=filter_rejects,
        kept=len(out_lines),
        coding_hits=coding_hits,
        std_names=names,
        kept_std=np.asarray(kept_std, dtype=np.int64),
        kept_sex=np.asarray(kept_sex, dtype=np.int64),
        kept_birth=np.asarray(kept_birth, dtype=np.int64),
        ingest_text="\n".join([HEADER] + out_lines) + "\n",
        rejects_text="\n".join([reject_header] + parse_lines + filter_lines) + "\n",
    )
    resolved = c.kept_birth >= 0
    keys = np.unique(np.stack([c.kept_birth[resolved], c.kept_sex[resolved],
                               c.kept_std[resolved]]), axis=1)
    c.facts = {
        "rows": rows,
        "parse_rejects": parse_rejects,
        "filter_rejects": filter_rejects,
        "kept": c.kept,
        "coding_hit_ratio": coding_hits / c.kept,
        "distinct_names": len(names),
        "distinct_birth_year_sex_name_keys": int(keys.shape[1]),
    }
    return c


def _pct1(fraction: float) -> str:
    return f"{math.floor(fraction * 1000 + 0.5) / 10:.1f}%"


def cohort_counts(c: Census, span: tuple[int, int], sex: str) -> dict[str, int]:
    """Standardized-name counts of one (birth-year span, sex) cohort."""
    mask = ((c.kept_birth >= span[0]) & (c.kept_birth <= span[1])
            & (c.kept_sex == (0 if sex == "F" else 1)))
    counts = np.bincount(c.kept_std[mask], minlength=len(c.std_names))
    return {c.std_names[i]: int(counts[i]) for i in np.flatnonzero(counts).tolist()}


def stats_report(c: Census, spans, sexes, k: int = K) -> tuple[str, list[int]]:
    """The ``stats`` CSV report and each cohort's sample size, in report order."""
    lines = ["cohort,sex,top_name,top_pop,topk_pop,info_Is,sample_size"]
    sizes = []
    for span in sorted(spans):
        for sex in sorted(sexes):
            counts = cohort_counts(c, span, sex)
            n = sum(counts.values())
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            pops = [count / n for _, count in ranked]
            total = math.fsum(pops)
            info = math.log2(k) + math.fsum((p / total) * math.log2(p / total)
                                            for p in pops)
            label = str(span[0]) if span[0] == span[1] else f"{span[0]}-{span[1]}"
            lines.append(",".join([label, sex, ranked[0][0], _pct1(pops[0]),
                                   _pct1(total), f"{max(info, 0.0):.3f}", str(n)]))
            sizes.append(n)
    return "\n".join(lines) + "\n", sizes


_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _sequential_name(index: int) -> str:
    digits = []
    while index:
        index, rem = divmod(index, 26)
        digits.append(_LETTERS[rem])
    digits.extend("A" * (3 - len(digits)))
    return "N" + "".join(reversed(digits))


def simulated(alpha: float, births: int, seed: int, initial: int = 1,
              sex: str = "F", year: int = 2000) -> tuple[str, int]:
    """The ``simulate`` subcommand's record file and its distinct-name count."""
    rng = np.random.Generator(np.random.PCG64(seed))
    innovate = rng.random(births) < alpha
    copies = np.flatnonzero(~innovate)
    # birth t copies a uniform earlier individual among initial + t
    targets = rng.integers(0, initial + copies)
    parent = np.arange(initial + births, dtype=np.int64)
    parent[initial + copies] = targets
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            break
        parent = jumped
    label = np.zeros(initial + births, dtype=np.int64)
    label[:initial] = np.arange(initial)
    roots = initial + np.flatnonzero(innovate)
    label[roots] = initial + np.arange(len(roots))
    names = label[parent]
    distinct = initial + len(roots)
    text_of = [f"{_sequential_name(i)},{sex},,{year},birth_register,,\n"
               for i in range(distinct)]
    return HEADER + "\n" + "".join(map(text_of.__getitem__, names.tolist())), distinct


def workload_inputs(name: str, seed: int, work: Path) -> dict:
    """Write a workload's input under ``work``; its expected digests, facts and counts."""
    spec = WORKLOADS[name]
    if spec["command"] == "simulate":
        sim = spec["simulate"]
        text, distinct = simulated(sim["alpha"], sim["births"], seed)
        return {
            "records": "",
            "rows": sim["births"],
            "expected": {"out.csv": hashlib.sha256(text.encode()).hexdigest()},
            "facts": {"rows": sim["births"] + 1, "distinct_names": distinct},
            "oracle": {"synth_distinct_names": distinct},
        }
    c = census(seed, load_table(ROOT / CODING_TABLE))
    records = work / "census-200k.csv"
    records.write_text(c.text, encoding="utf-8")
    oracle = {
        "rows_rejected": sum(c.parse_rejects.values()),
        "filter_rejected": {r: n for r, n in c.filter_rejects.items() if n},
        "kept": c.kept,
        "coding_hits": c.coding_hits,
    }
    if spec["command"] == "ingest":
        texts = {"out.csv": c.ingest_text, "rejects.csv": c.rejects_text}
    else:
        spans = sorted({span for span, _ in spec["jobs"]})
        sexes = sorted({sex for _, sex in spec["jobs"]})
        report, sizes = stats_report(c, spans, sexes)
        texts = {"out.csv": report}
        oracle.update(cohort_sizes=sizes, records_scanned=len(sizes) * c.kept)
    return {
        "records": str(records),
        "rows": c.rows,
        "expected": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()},
        "facts": c.facts,
        "oracle": oracle,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="write a workload's input; "
                                     "print its expected output digests as JSON")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    inputs = workload_inputs(args.workload, args.seed, args.work)
    print(json.dumps(dict(inputs, numpy=np.__version__)))


if __name__ == "__main__":
    main()

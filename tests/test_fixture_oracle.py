"""perfbench's census fixture as an independent oracle for ``stats``, ``fit``,
``comm`` and ``ingest``.

``perfbench/fixture.py`` generates the ``census-200k`` record file with numpy
alone and derives the ``stats`` report, the ``ingest`` output and rejection
report, and every reject count from the generated fields, without importing
namestats.  Here it runs on a seed that ``perfbench/reference_digests.json``
does not record, at the flags of the ``stats-narrow``, ``stats-wide`` and
``ingest-write`` workloads; the CLI's report bytes, its ``ingest`` output and
rejection report, and its stderr notes must be the fixture's.  The ``fit``
report at the ``stats-narrow`` flags is checked against a least-squares line
computed here from the fixture's cohort counts, and a ``comm`` report on the
same records against C1-C4, the new top names and their turnover computed
here from the same counts.  perfbench is only read, never changed.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEED = 20260811


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``fixture`` and ``workloads`` modules, and the census of ``SEED``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import fixture
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    census = fixture.census(SEED, fixture.load_table(ROOT / workloads.CODING_TABLE))
    return fixture, workloads, census


def _notes(census) -> list[str]:
    """The stderr notes of a ``stats`` run on ``census``, from its facts."""
    parse, filtered = census.facts["parse_rejects"], census.facts["filter_rejects"]
    counts = sorted((r, n) for r, n in {**parse, **filtered}.items() if n)
    return [
        f"note: rejected {sum(parse.values())} rows at parse, "
        f"{sum(filtered.values())} at filter",
        "note: rejects by reason: " + " ".join(f"{r}={n}" for r, n in counts),
        f"note: {int((census.kept_birth < 0).sum())} kept rows have no age and no "
        "default age for their kind; no cohort counts them",
    ]


@pytest.mark.parametrize("workload", ["stats-narrow", "stats-wide"])
def test_stats_report_and_notes_are_the_fixtures(bench, tmp_path, workload):
    fixture, workloads, census = bench
    records = tmp_path / "census-200k.csv"
    records.write_text(census.text, encoding="utf-8")
    argv = workloads.cli_argv(workload, str(records), str(tmp_path), SEED)
    run = subprocess.run([sys.executable, "-m", "namestats.cli", *argv], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == _notes(census)

    jobs = workloads.WORKLOADS[workload]["jobs"]
    spans = sorted({span for span, _ in jobs})
    sexes = sorted({sex for _, sex in jobs})
    want, _ = fixture.stats_report(census, spans, sexes)
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == want


def test_ingest_outputs_and_notes_are_the_fixtures(bench, tmp_path):
    fixture, workloads, census = bench
    records = tmp_path / "census-200k.csv"
    records.write_text(census.text, encoding="utf-8")
    argv = workloads.cli_argv("ingest-write", str(records), str(tmp_path), SEED)
    run = subprocess.run([sys.executable, "-m", "namestats.cli", *argv], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # ingest notes the rejects but not the rows with no birth year
    assert run.stderr.splitlines() == _notes(census)[:2]
    assert (tmp_path / "out.csv").read_bytes() == census.ingest_text.encode("utf-8")
    assert (tmp_path / "rejects.csv").read_bytes() == census.rejects_text.encode("utf-8")


def _fit_report(label: str, sex: str, counts: dict[str, int], min_count: int) -> str:
    """The ``fit`` CSV report of one cohort: the least-squares line of log2
    count on log2 rank over the names counted at least ``min_count`` times,
    ranked by count descending, then name."""
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ys = [math.log2(count) for _, count in ranked if count >= min_count]
    n = len(ys)
    xs = [math.log2(rank) for rank in range(1, n + 1)]
    x_mean, y_mean = math.fsum(xs) / n, math.fsum(ys) / n
    slope = (math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
             / math.fsum((x - x_mean) ** 2 for x in xs))
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return ("cohort,sex,slope,intercept,r2,points,min_count\n"
            f"{label},{sex},{slope:.4f},{intercept:.4f},{r2:.4f},{n},{min_count}\n")


def test_fit_report_and_notes_are_the_fixtures(bench, tmp_path):
    fixture, workloads, census = bench
    records = tmp_path / "census-200k.csv"
    records.write_text(census.text, encoding="utf-8")
    narrow = workloads.WORKLOADS["stats-narrow"]
    ((span, sex),) = narrow["jobs"]
    out = tmp_path / "out.csv"
    argv = ["fit", "--out", str(out), "--records", str(records), "--coding-table",
            workloads.CODING_TABLE, *narrow["flags"], "--min-count", "5"]
    run = subprocess.run([sys.executable, "-m", "namestats.cli", *argv], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == _notes(census)
    counts = fixture.cohort_counts(census, span, sex)
    want = _fit_report(f"{span[0]}-{span[1]}", sex, counts, 5)
    assert out.read_text(encoding="utf-8") == want


def _comm_row(label: str, sex: str, counts1: dict[str, int], counts2: dict[str, int],
              k: int, years: float) -> str:
    """One ``comm`` CSV row of a cohort pair, from the statistics' definitions:
    year 2's top k names by count descending, then name, with popularities
    from both samples; a name year 1 lacks gets half year 1's least
    popularity.  T22 and T21 are their totals in year 2 and year 1, T11 the
    total of year 1's own top k."""
    def top(counts):
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    n1, n2 = sum(counts1.values()), sum(counts2.values())
    top1, top2 = top(counts1), top(counts2)
    half_least = 0.5 * min(counts1.values()) / n1
    p2 = [count / n2 for _, count in top2]
    p1 = [counts1[name] / n1 if name in counts1 else half_least for name, _ in top2]
    fallback = sum(name not in counts1 for name, _ in top2)
    t22, t21 = math.fsum(p2), math.fsum(p1)
    t11 = math.fsum(count / n1 for _, count in top1)
    kernel = math.fsum(q2 / t22 * math.log2(q2 / q1) for q2, q1 in zip(p2, p1))
    c1 = (math.fsum(q2 * math.log2(q2 / q1) for q2, q1 in zip(p2, p1))
          + (1 - t22) * math.log2((1 - t22) / (1 - t21)))
    c2 = kernel + math.log2(t21 / t22)
    c3 = kernel + math.log2(t11 / t22)
    c4 = 100 * math.fsum(q2 / t22 * abs(q2 / q1 - 1) for q2, q1 in zip(p2, p1))
    new = len({name for name, _ in top2} - {name for name, _ in top1})
    bits = ",".join(f"{max(c, 0.0):.4f}" for c in (c1, c2, c3))
    return (f"{label},{sex},{bits},{math.floor(c4 + 0.5)}%,{new},{new / years:.4f},"
            f"{fallback}\n")


def test_comm_report_and_notes_are_the_fixtures(bench, tmp_path):
    fixture, workloads, census = bench
    records = tmp_path / "census-200k.csv"
    records.write_text(census.text, encoding="utf-8")
    # year 2 of the M pair has two top names new to year 1, one of them absent
    # from year 1, so the half-least fallback fires
    span1, span2 = (1805, 1809), (1835, 1839)
    out = tmp_path / "out.csv"
    argv = ["comm", "--out", str(out), "--records", str(records), "--coding-table",
            workloads.CODING_TABLE, "--span1", "%d:%d" % span1,
            "--span2", "%d:%d" % span2, "--sex", "both"]
    run = subprocess.run([sys.executable, "-m", "namestats.cli", *argv], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines() == _notes(census)
    label = f"{span1[0]}-{span1[1]}->{span2[0]}-{span2[1]}"
    # the default years elapsed: the span midpoints' difference
    years = (span2[0] + span2[1]) / 2 - (span1[0] + span1[1]) / 2
    rows = [_comm_row(label, sex, fixture.cohort_counts(census, span1, sex),
                      fixture.cohort_counts(census, span2, sex), 10, years)
            for sex in ("F", "M")]
    want = "span,sex,c1,c2,c3,c4_pct,new_topk,turnover_pa,fallback\n" + "".join(rows)
    assert out.read_text(encoding="utf-8") == want

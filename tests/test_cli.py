import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namestats import cli, corpus, synth
from namestats.cli import main
from namestats.commstats import DivergentOtherMassError
from namestats.corpus import (
    RECORD_HEADER,
    FilterPolicy,
    NameRecord,
    RecordKind,
    filter_records,
    parse_records,
    standardized_record,
    write_records,
    write_rejection_report,
)
from namestats.popstats import InsufficientDistinctNamesError
from namestats.powerlaw import InsufficientPointsError
from namestats.standardize import Sex
from namestats.synth import SimulationConfig, simulation_metadata

from conftest import records_csv
from reference_synth import simulate_sequence

DEMO_TABLE = "src/namestats/data/demo_coding.csv"


@pytest.fixture
def mini_corpus(tmp_path):
    """Two decades of hand-built records, 12 female names per decade."""
    rows = []
    # birth years 1870-1879 via census ages
    year1 = {"Mary": 30, "Maria": 10, "Ann": 20, "Jane": 15, "Sarah": 10,
             "Alice": 5, "Emily": 4, "Susan": 3, "Joan": 2, "Matilda": 2,
             "Harriet": 1, "Zelda": 1}
    # birth years 1880-1889
    year2 = {"Mary": 20, "Ann": 15, "Jane": 15, "Sarah": 12, "Alice": 10,
             "Emily": 9, "Susan": 6, "Joan": 4, "Matilda": 3, "Edith": 3,
             "Harriet": 2, "Zelda": 1}
    for name, count in year1.items():
        rows.extend([f"{name},F,15,1890,census,,"] * count)
    for name, count in year2.items():
        rows.extend([f"{name},F,5,1890,census,,"] * count)
    path = tmp_path / "records.csv"
    path.write_text(records_csv(rows), encoding="utf-8")
    return path


@pytest.fixture
def divergent_corpus(tmp_path):
    """Records whose 1870s and 1880s female cohorts give an infinite C1."""
    rows = []
    names = ["AMY", "BETH", "CLARA", "DORA", "EDNA",
             "FAY", "GRACE", "HILDA", "IRIS", "JUNE"]
    # earlier cohort: its mass sits entirely on these ten names
    for i, n in enumerate(names):
        rows.extend([f"{n},F,15,1890,census,,"] * (20 - i))
    # later cohort: same ten on top plus a rare eleventh outside the top 10
    for i, n in enumerate(names):
        rows.extend([f"{n},F,5,1890,census,,"] * (15 - i))
    rows.append("KATE,F,5,1890,census,,")
    path = tmp_path / "div.csv"
    path.write_text(records_csv(rows), encoding="utf-8")
    return path


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else None


class TestStats:
    def test_header_and_values(self, mini_corpus, tmp_path):
        code, text = run(
            ["stats", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span", "1870:1879", "--sex", "F"],
            tmp_path,
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "cohort,sex,top_name,top_pop,topk_pop,info_Is,sample_size"
        fields = lines[1].split(",")
        assert fields[0] == "1870-1879"
        assert fields[1] == "F"
        assert fields[2] == "MARY"
        # MARY counts 30 + 10 (Maria coded in) of 103
        assert fields[3] == "38.8%"
        assert fields[6] == "103"

    def test_byte_identical_runs_and_threads(self, mini_corpus, tmp_path):
        args = ["stats", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
                "--span", "1870:1879", "--span", "1880:1889", "--sex", "both"]
        outputs = set()
        for i, threads in enumerate((1, 1, 4, 16)):
            _, text = run(args + ["--threads", str(threads)], tmp_path, f"o{i}.csv")
            outputs.add(text)
        assert len(outputs) == 1

    def test_insufficient_names_exit_2(self, mini_corpus, tmp_path, capsys):
        code, _ = run(
            ["stats", "--records", str(mini_corpus), "--span", "1870:1879",
             "--sex", "M"],
            tmp_path,
        )
        assert code == 2
        assert "1870-1879" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("stats", ["--sex", "M"]),
        ("fit", ["--sex", "F", "--min-count", "1000"]),
    ])
    def test_every_failing_cohort_named(self, mini_corpus, tmp_path, capsys,
                                        command, flags):
        code, text = run(
            [command, "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span", "1880:1889", "--span", "1870:1879", *flags],
            tmp_path,
        )
        assert code == 2
        assert text is None
        err = capsys.readouterr().err
        assert "2 of 2 cohorts failed" in err
        assert err.index("1870-1879") < err.index("1880-1889")

    def test_multiple_spans_sorted(self, mini_corpus, tmp_path):
        code, text = run(
            ["stats", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span", "1880:1889", "--span", "1870:1879", "--sex", "F"],
            tmp_path,
        )
        lines = text.splitlines()
        assert lines[1].startswith("1870-1879,")
        assert lines[2].startswith("1880-1889,")

    def test_markdown_format(self, mini_corpus, tmp_path):
        code, text = run(
            ["stats", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span", "1870:1879", "--sex", "F", "--format", "markdown"],
            tmp_path,
        )
        assert text.startswith("| cohort | sex |")
        assert "| MARY |" in text


class TestComm:
    def test_self_comparison_zero_row(self, mini_corpus, tmp_path):
        code, text = run(
            ["comm", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span1", "1870:1879", "--span2", "1870:1879", "--sex", "F",
             "--years", "10"],
            tmp_path,
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "span,sex,c1,c2,c3,c4_pct,new_topk,turnover_pa,fallback"
        assert lines[1] == "1870-1879->1870-1879,F,0.0000,0.0000,0.0000,0%,0,0.0000,0"

    def test_fallback_flagged(self, mini_corpus, tmp_path):
        # EDITH enters the 1880s top 10 but is absent from the 1870s sample
        code, text = run(
            ["comm", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span1", "1870:1879", "--span2", "1880:1889", "--sex", "F"],
            tmp_path,
        )
        assert code == 0
        row = text.splitlines()[1].split(",")
        assert row[0] == "1870-1879->1880-1889"
        assert row[8] == "1"
        assert float(row[7]) == pytest.approx(float(row[6]) / 10, abs=1e-9)

    def test_divergent_other_mass_exit_3(self, divergent_corpus, capsys):
        code = main(["comm", "--records", str(divergent_corpus), "--span1", "1870:1879",
                     "--span2", "1880:1889", "--sex", "F"])
        assert code == 3
        assert "divergent_other_mass" in capsys.readouterr().err

    def test_every_failing_sex_named(self, mini_corpus, tmp_path, capsys):
        # with the demo table the 1870s have 11 distinct female names, and no male
        code, text = run(
            ["comm", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span1", "1870:1879", "--span2", "1880:1889", "--sex", "both",
             "--k", "12"],
            tmp_path,
        )
        assert code == 2
        assert text is None
        err = capsys.readouterr().err
        assert "2 of 2 cohorts failed" in err
        assert err.index("1870-1879->1880-1889 sex F") < err.index(
            "1870-1879->1880-1889 sex M")

    def test_years_default_from_midpoints(self, mini_corpus, tmp_path):
        _, with_flag = run(
            ["comm", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span1", "1870:1879", "--span2", "1880:1889", "--sex", "F",
             "--years", "10"],
            tmp_path, "a.csv",
        )
        _, defaulted = run(
            ["comm", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span1", "1870:1879", "--span2", "1880:1889", "--sex", "F"],
            tmp_path, "b.csv",
        )
        assert with_flag == defaulted


class TestFit:
    def test_fit_report(self, mini_corpus, tmp_path):
        code, text = run(
            ["fit", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span", "1870:1879", "--sex", "F", "--min-count", "2"],
            tmp_path,
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "cohort,sex,slope,intercept,r2,points,min_count"
        fields = lines[1].split(",")
        assert float(fields[2]) < 0
        assert 0 <= float(fields[4]) <= 1

    def test_chart_series(self, mini_corpus, tmp_path):
        chart = tmp_path / "chart.csv"
        code, _ = run(
            ["fit", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span", "1870:1879", "--sex", "F", "--min-count", "2",
             "--chart", str(chart)],
            tmp_path,
        )
        assert code == 0
        lines = chart.read_text().splitlines()
        assert lines[0] == "log2_rank,log2_freq"
        assert lines[1] == "0.000000,5.321928"  # rank 1, count 40

    @pytest.mark.parametrize("flags", [
        ["--span", "1870:1879"],
        ["--span", "1870:1879", "--span", "1880:1889", "--sex", "F"],
    ])
    def test_chart_needs_one_cohort(self, tmp_path, capsys, flags):
        chart = tmp_path / "chart.csv"
        # the record file does not exist: the usage error comes before reading it
        code, text = run(
            ["fit", "--records", str(tmp_path / "absent.csv"), *flags,
             "--chart", str(chart)],
            tmp_path,
        )
        assert code == 1
        assert text is None and not chart.exists()
        assert "--chart needs one cohort" in capsys.readouterr().err

    def test_insufficient_points_exit_2(self, mini_corpus, tmp_path):
        code, _ = run(
            ["fit", "--records", str(mini_corpus), "--coding-table", DEMO_TABLE,
             "--span", "1870:1879", "--sex", "F", "--min-count", "1000"],
            tmp_path,
        )
        assert code == 2


EXPECTED_SAMPLEVAR = """\
name_probability,sample_size,expected,std_dev,std_dev_pct
20.0%,100,20,4,4.0%
3.0%,100,3,2,1.7%
1.5%,100,2,1,1.2%
20.0%,1000,200,13,1.3%
3.0%,1000,30,5,0.5%
1.5%,1000,15,4,0.4%
20.0%,10000,2000,40,0.4%
3.0%,10000,300,17,0.2%
1.5%,10000,150,12,0.1%
20.0%,100000,20000,126,0.1%
3.0%,100000,3000,54,0.1%
1.5%,100000,1500,38,0.0%
"""


class TestSamplevar:
    def test_table_1_exact(self, tmp_path):
        code, text = run(["samplevar"], tmp_path)
        assert code == 0
        assert text == EXPECTED_SAMPLEVAR


class TestConquest:
    def test_reference_run(self, tmp_path):
        code, text = run(["conquest", "--t11", "0.75"], tmp_path)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "span,c1,c2,c3,c4_pct,new_topk"
        fields = lines[1].split(",")
        assert fields[0] == "1066-1166"
        assert fields[1] == "1.0834"
        assert fields[2] == "0.0586"
        assert fields[3] == "4.1174"
        assert fields[4] == "982%"
        assert fields[5] == "10"

    def test_t11_is_required(self, tmp_path, capsys):
        code = main(["conquest"])
        assert code == 1

    @pytest.mark.parametrize("t11", ["5", "0", "nan", "-0.5", "half"])
    def test_t11_outside_unit_interval_exit_1(self, tmp_path, capsys, t11):
        code = main(["conquest", "--t11", t11, "--out", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument --t11: must be a number in (0, 1], got '{t11}'" in err
        assert os.listdir(tmp_path) == []

    def test_t11_just_below_t21_is_refused_by_the_pair(self, tmp_path, capsys):
        # year 1's model total T21 is --year1-total, 0.045
        code = main(["conquest", "--t11", "0.0449999999"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: t11 0.0449999999 < t21 0.04")
        assert "C3 must be at least C2" not in err


def reference_simulation(config: SimulationConfig) -> io.StringIO:
    """The record file of the per-birth loop, written record by record."""
    want = io.StringIO()
    write_records(
        (NameRecord(name, config.sex, config.year, RecordKind.BIRTH_REGISTER)
         for name in simulate_sequence(config)),
        want,
    )
    return want


class TestSimulate:
    def test_writes_records_and_metadata(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--alpha", "0.2", "--births", "500", "--seed", "11",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,sex,age,year,kind,location,native_born"
        assert len(lines) == 502  # header + births + founder
        assert lines[1].split(",")[4] == "birth_register"
        meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
        assert meta["rng"] == "numpy-pcg64"
        assert meta["seed"] == 11

    def test_simulate_then_fit(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--alpha", "0.1", "--births", "50000", "--seed", "7",
              "--out", str(out)])
        code, text = run(
            ["fit", "--records", str(out), "--span", "2000:2000", "--sex", "F",
             "--min-count", "5"],
            tmp_path,
        )
        assert code == 0
        fields = text.splitlines()[1].split(",")
        assert float(fields[2]) < -0.5
        assert float(fields[4]) >= 0.9


    @pytest.mark.parametrize("flags, config", [
        (["--alpha", "0.2", "--births", "500", "--seed", "11"],
         SimulationConfig(0.2, 500, seed=11)),
        (["--alpha", "0.3", "--births", "3000", "--seed", "3", "--initial-names", "4"],
         SimulationConfig(0.3, 3000, initial_names=4, seed=3)),
        (["--alpha", "1", "--births", "200", "--seed", "5", "--initial-names", "2"],
         SimulationConfig(1.0, 200, initial_names=2, seed=5)),
        (["--alpha", "0", "--births", "100", "--sim-sex", "M", "--year", "1900"],
         SimulationConfig(0.0, 100, sex=Sex.MALE, year=1900)),
        # 20,001 names: past the 17,576 with three letters after the N
        (["--alpha", "1", "--births", "20000"], SimulationConfig(1.0, 20_000)),
        (["--alpha", "0.2", "--births", "5000", "--seed", "6", "--sim-sex", "M",
          "--year", "1850", "--initial-names", "40"],
         SimulationConfig(0.2, 5000, initial_names=40, seed=6, sex=Sex.MALE, year=1850)),
    ])
    def test_bytes_equal_reference(self, tmp_path, capsys, flags, config):
        want = reference_simulation(config)
        out = tmp_path / "sim.csv"
        assert main(["simulate", *flags, "--out", str(out)]) == 0
        assert out.read_bytes() == want.getvalue().encode("utf-8")
        meta = tmp_path / "sim.csv.meta.json"
        assert meta.read_text(encoding="utf-8") == (
            json.dumps(simulation_metadata(config), indent=2) + "\n"
        )
        assert main(["simulate", *flags]) == 0
        assert capsys.readouterr().out == want.getvalue()

    def test_builds_no_records(self, tmp_path, capsys, monkeypatch):
        """simulate renders its rows from the names, to --out and to stdout,
        without constructing a NameRecord."""
        config = SimulationConfig(0.3, 2000, initial_names=3, seed=9)
        want = reference_simulation(config)

        def refuse(*args, **kwargs):
            raise AssertionError("a NameRecord was built")

        monkeypatch.setattr(NameRecord, "__init__", refuse)
        flags = ["simulate", "--alpha", "0.3", "--births", "2000",
                 "--initial-names", "3", "--seed", "9"]
        out = tmp_path / "sim.csv"
        assert main([*flags, "--out", str(out)]) == 0
        assert out.read_bytes() == want.getvalue().encode("utf-8")
        assert main(flags) == 0
        assert capsys.readouterr().out == want.getvalue()

    def test_write_slices_keep_bytes(self, tmp_path, capsys, monkeypatch):
        flags = ["simulate", "--alpha", "0.3", "--births", "100", "--seed", "4"]
        whole, sliced = tmp_path / "whole.csv", tmp_path / "sliced.csv"
        assert main([*flags, "--out", str(whole)]) == 0
        # 101 rows in slices of 7: the last slice is short
        monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
        assert main([*flags, "--out", str(sliced)]) == 0
        assert sliced.read_bytes() == whole.read_bytes()
        assert main(flags) == 0
        assert capsys.readouterr().out == whole.read_text(encoding="utf-8")

    @pytest.mark.parametrize("births", [6, 7, 8, 699, 700])
    def test_small_draws_and_slices_keep_bytes(self, tmp_path, monkeypatch, births):
        """Innovation flags drawn 7 births at a time and rows written 5 at a
        time give the per-birth loop's bytes, whether the founders and
        births fill the last draw and the last slice or leave them short."""
        monkeypatch.setattr(synth, "_DRAW_CHUNK", 7)
        monkeypatch.setattr(cli, "_WRITE_SLICE", 5)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--alpha", "0.3", "--births", str(births),
                     "--initial-names", "3", "--seed", "8", "--out", str(out)]) == 0
        want = reference_simulation(SimulationConfig(0.3, births, initial_names=3, seed=8))
        assert out.read_bytes() == want.getvalue().encode("utf-8")

    def test_peak_traced_memory_per_birth(self, tmp_path):
        """A million births hold no per-birth temporaries: the peak memory
        traced while simulating and writing is at most 16 bytes per birth
        (the labels are 4, one int64 index array would be 8)."""
        births = 1_000_000
        out = tmp_path / "sim.csv"
        flags = ["simulate", "--alpha", "0.1", "--seed", "20260809", "--out", str(out)]
        assert main([*flags, "--births", "10"]) == 0  # imports numpy.random untraced
        tracemalloc.start()
        try:
            assert main([*flags, "--births", str(births)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * births, f"{peak / births:.1f} bytes per birth"

    @pytest.mark.parametrize("year", ["999", "5000"])
    def test_year_checked_before_simulating(self, tmp_path, capsys, monkeypatch, year):
        def refuse(config):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(synth, "simulate_labels", refuse)
        code = main(["simulate", "--alpha", "0.1", "--births", "10", "--year", year,
                     "--out", str(tmp_path / "sim.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: record_year {year} outside [1000, 2100]\n"
        assert os.listdir(tmp_path) == []

    def test_negative_seed_refused_before_simulating(self, tmp_path, capsys,
                                                     monkeypatch):
        def refuse(config):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(synth, "simulate_labels", refuse)
        code = main(["simulate", "--alpha", "0.1", "--births", "10", "--seed", "-1",
                     "--out", str(tmp_path / "sim.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert os.listdir(tmp_path) == []

    def test_no_sidecar_beside_an_output_written_in_place(self, tmp_path):
        """--out through a symlink to the null device is written in place,
        and no .meta.json is written beside it, as none is for stdout."""
        out = tmp_path / "out.csv"
        out.symlink_to(os.devnull)
        assert main(["simulate", "--alpha", "0.2", "--births", "50",
                     "--out", str(out)]) == 0
        assert out.is_symlink()
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_year_out_of_range_exit_1(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--alpha", "0.1", "--births", "10", "--year", "3000",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: record_year 3000 outside [1000, 2100]\n"
        assert not out.exists()


class TestIngest:
    def test_standardized_output_and_rejects(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text(
            records_csv([
                "Maria,F,5,1880,census,,",
                "Mrs,F,40,1880,census,,",
                "J,M,3,1880,census,,",
                "Mary,F,150,1880,census,,",
                "Mary A,M,2,1880,census,,",
            ]),
            encoding="utf-8",
        )
        rejects = tmp_path / "rejects.csv"
        code, text = run(
            ["ingest", "--records", str(src), "--coding-table", DEMO_TABLE,
             "--rejects", str(rejects)],
            tmp_path,
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "name,sex,age,year,kind,location,native_born"
        # Maria -> MARY; "Mary A" truncates to MARY and its sex is corrected
        assert lines[1].startswith("MARY,F,5,1880")
        assert lines[2].startswith("MARY,F,2,1880")
        reject_lines = rejects.read_text().splitlines()
        assert reject_lines[0].endswith(",reason")
        reasons = sorted(line.rsplit(",", 1)[1] for line in reject_lines[1:])
        assert reasons == ["bad_age", "generic", "single_letter"]


    def test_cr_in_a_field_round_trips(self, tmp_path):
        """A CR inside a quoted field, of a kept row or a rejected one, is
        written in quotes, so both outputs read back as the rows they hold,
        and ingesting --out again gives the same rows and no reject."""
        src = tmp_path / "raw.csv"
        src.write_text(records_csv(['Mary,F,20,1880,census,"Old\rTown",true',
                                    '"Ma\rry",F,150,1880,census,"Lee\rds",']),
                       encoding="utf-8", newline="")
        out, rejects, again, none = (
            tmp_path / n for n in ("out.csv", "rej.csv", "again.csv", "none.csv"))
        for records, target, report in ((src, out, rejects), (out, again, none)):
            assert main(["ingest", "--records", str(records), "--coding-table", DEMO_TABLE,
                         "--out", str(target), "--rejects", str(report)]) == 0
        assert again.read_bytes() == out.read_bytes()
        with open(out, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == [
                list(RECORD_HEADER), ["MARY", "F", "20", "1880", "census", "Old\rTown", "true"]]
        with open(rejects, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [
                ["Ma\rry", "F", "150", "1880", "census", "Lee\rds", "", "bad_age"]]
        assert none.read_text(encoding="utf-8") == ",".join(corpus.REJECT_HEADER) + "\n"

    def test_traced_memory_per_reject(self, tmp_path):
        """--rejects holds each reject in at most 150 traced bytes: the peak
        memory traced while ingesting grows by no more per reject between two
        files that differ only by 6,000 rejects, half bad_sex and half
        single_letter, read before every kept row (a reject held as a record
        object took about 470)."""
        kept = [f"Mary,F,{i % 90},1880,census,Town {i},true" for i in range(3000)]
        extra = [f"{'Mary,X' if i % 2 else 'J,F'},20,1880,census,Town {i},true"
                 for i in range(6000)]
        peaks = []
        for name, rows in (("base", kept), ("more", extra + kept)):
            src = tmp_path / f"{name}.csv"
            src.write_text(records_csv(rows), encoding="utf-8")
            argv = ["ingest", "--records", str(src), "--coding-table", DEMO_TABLE,
                    "--out", str(tmp_path / f"{name}-out.csv"),
                    "--rejects", str(tmp_path / f"{name}-rejects.csv")]
            assert main(argv) == 0  # loads every module untraced
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        report = (tmp_path / "more-rejects.csv").read_text(encoding="utf-8")
        assert len(report.splitlines()) == 1 + len(extra)
        growth = (peaks[1] - peaks[0]) / len(extra)
        assert growth <= 150, f"{growth:.1f} bytes per reject"


class TestNotes:
    """The stderr notes: reject totals, each reason's count, and the kept
    rows that no cohort counts."""

    EXTRA = ["Mary,X,5,1880,census,,", "Mary,F,x,1880,census,,", "Mary,F,5",
             "Mrs,F,40,1880,census,,", "J,F,40,1880,census,,", "J,F,40,1880,census,,",
             "Mary,F,,1880,census,,", "Ann,F,,1880,other,,", "Ann,F,,1880,marriage,,"]
    REJECTS = ("note: rejected 3 rows at parse, 3 at filter\n"
               "note: rejects by reason: bad_age=1 bad_sex=1 generic=1 malformed_row=1 "
               "single_letter=2\n")

    @pytest.fixture
    def records(self, mini_corpus):
        mini_corpus.write_text(mini_corpus.read_text(encoding="utf-8")
                               + "".join(row + "\n" for row in self.EXTRA),
                               encoding="utf-8")
        return mini_corpus

    @pytest.mark.parametrize("command, flags", [
        ("stats", ["--span", "1870:1879"]),
        ("stats", ["--span", "1870:1879", "--threads", "2"]),
        ("comm", ["--span1", "1870:1879", "--span2", "1880:1889"]),
        ("fit", ["--span", "1870:1879", "--min-count", "1"]),
    ])
    def test_index_commands(self, records, tmp_path, capsys, command, flags):
        argv = [command, "--records", str(records), "--coding-table", DEMO_TABLE,
                "--sex", "F", *flags]
        assert run(argv, tmp_path)[0] == 0
        assert capsys.readouterr().err == self.REJECTS + (
            "note: 2 kept rows have no age and no default age for their kind; "
            "no cohort counts them\n"
        )

    @pytest.mark.parametrize("rejects", [False, True])
    def test_ingest(self, records, tmp_path, capsys, rejects):
        argv = ["ingest", "--records", str(records), "--coding-table", DEMO_TABLE]
        argv += ["--rejects", str(tmp_path / "rejects.csv")] * rejects
        assert run(argv, tmp_path)[0] == 0
        assert capsys.readouterr().err == self.REJECTS

    def test_no_notes_without_rejects(self, mini_corpus, tmp_path, capsys):
        argv = ["stats", "--records", str(mini_corpus), "--span", "1870:1879",
                "--sex", "F"]
        assert run(argv, tmp_path)[0] == 0
        assert capsys.readouterr().err == ""


class TestByteOrderMark:
    """Spreadsheet programs start a UTF-8 CSV with a byte-order mark, which
    every input skips."""

    BOM = b"\xef\xbb\xbf"

    def test_records(self, mini_corpus, tmp_path, monkeypatch):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(self.BOM + mini_corpus.read_bytes())
        rejects = ["--rejects", str(tmp_path / "rejects.csv")]
        _, want = run(["ingest", "--records", str(mini_corpus), *rejects], tmp_path)
        want_rejects = (tmp_path / "rejects.csv").read_bytes()
        code, text = run(["ingest", "--records", str(marked), *rejects], tmp_path)
        assert code == 0
        assert text == want
        assert (tmp_path / "rejects.csv").read_bytes() == want_rejects

        stats = ["stats", "--span", "1870:1879", "--span", "1880:1889", "--sex", "F"]
        _, want = run([*stats, "--records", str(mini_corpus)], tmp_path)
        assert want.count("\n") == 3
        code, text = run([*stats, "--records", str(marked), "--threads", "1"], tmp_path)
        assert (code, text) == (0, want)
        # two ranges, the second reading the marked header line again
        monkeypatch.setattr(corpus, "_MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(corpus, "usable_cpus", lambda: 2)
        ranged = []
        index_ranges = corpus._index_ranges
        monkeypatch.setattr(corpus, "_index_ranges",
                            lambda *a: ranged.append(index_ranges(*a)) or ranged[-1])
        code, text = run([*stats, "--records", str(marked), "--threads", "2"], tmp_path)
        assert (code, text) == (0, want)
        assert len(ranged) == 1 and ranged[0] is not None

    def test_coding_table(self, mini_corpus, tmp_path):
        table = tmp_path / "table.csv"
        table.write_bytes(self.BOM + Path(DEMO_TABLE).read_bytes())
        stats = ["stats", "--records", str(mini_corpus), "--span", "1870:1879",
                 "--sex", "F"]
        _, want = run([*stats, "--coding-table", DEMO_TABLE], tmp_path)
        assert "MARY" in want
        code, text = run([*stats, "--coding-table", str(table)], tmp_path)
        assert (code, text) == (0, want)


class TestGenericAndTableChecks:
    def test_generic_names_truncated(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text(records_csv(["Elizabeth,F,5,1880,census,,",
                                    "Mary Ann,F,5,1880,census,,",
                                    "Maryann,F,5,1880,census,,"]), encoding="utf-8")
        rejects = tmp_path / "rejects.csv"
        code, text = run(["ingest", "--records", str(src), "--generic", "Elizabeth",
                          "--generic", "Mary Ann", "--rejects", str(rejects)], tmp_path)
        assert code == 0
        assert text.splitlines()[1:] == ["MARYANN,F,5,1880,census,,"]
        assert [line.rsplit(",", 1)[1] for line in rejects.read_text().splitlines()[1:]] \
            == ["generic", "generic"]

    @pytest.mark.parametrize("command", ["ingest", "stats", "comm", "fit"])
    def test_generic_under_two_letters_exit_1(self, mini_corpus, tmp_path, capsys,
                                              command):
        argv = _valid_argv(command, mini_corpus, tmp_path)
        assert main([*argv, "--generic", "J."]) == 1
        err = capsys.readouterr().err
        assert err == "error: generic name 'J.' has fewer than 2 leading letters\n"
        assert not (tmp_path / "out.csv").exists()

    def test_overlong_variant_exit_1(self, mini_corpus, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("variant,canonical,sex_override\nElizabeth,ELIZA,F\n",
                         encoding="utf-8")
        code = main(["ingest", "--records", str(mini_corpus),
                     "--coding-table", str(table), "--out", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: variant 'ELIZABETH' is longer than 8")
        assert err.count("\n") == 1


_INGEST_CELLS = [
    st.sampled_from(["Mary", "Maria", "Mary A", " ann ", "Jno.", "Zelda", "J", "Mrs",
                     "Widow Smith", "123", ""]),
    st.sampled_from(["F", "M", "f", "F", "M", "U", "", "X"]),
    st.sampled_from(["5", "30", "", "0", "110"] * 2 + ["111", "-1", "abc"]),
    st.sampled_from(["1880", "1890", "1900"] * 3 + ["999", "2101", "December"]),
    st.sampled_from([k.value for k in RecordKind] + ["", "tax_roll"]),
    st.sampled_from(["", "Leeds", "York, N.Y."]),
    st.sampled_from(["", "true", "true", "false", "no", "maybe"]),
]


@st.composite
def ingest_files(draw) -> str:
    """Record CSV text, mostly valid rows among blank, short and long ones."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_HEADER)
    for _ in range(draw(st.integers(0, 15))):
        shape = draw(st.sampled_from(["row"] * 8 + ["blank", "short", "long"]))
        if shape == "blank":
            buf.write("\n")
            continue
        row = [draw(cell) for cell in _INGEST_CELLS]
        if shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row.append("extra")
        writer.writerow(row)
    return buf.getvalue()


class TestIngestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(text=ingest_files(), native=st.booleans())
    def test_out_and_rejects_bytes_equal(self, demo_table, text, native):
        parsed = parse_records(io.StringIO(text))
        filtered = filter_records(
            parsed.records, FilterPolicy(require_native_born=native), demo_table
        )
        want_out, want_rejects = io.StringIO(), io.StringIO()
        write_records(
            (standardized_record(r, demo_table) for r in filtered.kept), want_out
        )
        write_rejection_report(parsed.rejected, filtered.rejected, want_rejects)

        with tempfile.TemporaryDirectory() as tmp:
            src, out, rejects = (Path(tmp) / n for n in ("in.csv", "out.csv", "rej.csv"))
            src.write_text(text, encoding="utf-8")
            code = main(["ingest", "--records", str(src), "--coding-table", DEMO_TABLE,
                         "--out", str(out), "--rejects", str(rejects)]
                        + ["--require-native-born"] * native)
            assert code == 0
            assert out.read_bytes() == want_out.getvalue().encode("utf-8")
            assert rejects.read_bytes() == want_rejects.getvalue().encode("utf-8")


class TestErrorPaths:
    def test_missing_file_exit_1(self, tmp_path):
        code = main(["stats", "--records", str(tmp_path / "nope.csv"),
                     "--span", "1800:1809"])
        assert code == 1

    def test_bad_header_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("firstname,sex\nMary,F\n", encoding="utf-8")
        code = main(["stats", "--records", str(bad), "--span", "1800:1809"])
        assert code == 1

    def test_unknown_flag_exit_1(self):
        assert main(["stats", "--bogus"]) == 1

    def test_bad_threads_exit_1(self, mini_corpus):
        code = main(["stats", "--records", str(mini_corpus),
                     "--span", "1870:1879", "--threads", "0"])
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["ingest"],
        ["stats", "--span", "1870:1879"],
    ])
    def test_missing_coding_table_exit_1(self, mini_corpus, tmp_path, capsys, command):
        table = tmp_path / "nope.csv"
        code = main([*command, "--records", str(mini_corpus),
                     "--coding-table", str(table)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {table}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["ingest"],
        ["ingest", "--rejects", "REJECTS"],
        ["stats", "--span", "1870:1879"],
    ])
    def test_invariant_failure_exit_4(self, tmp_path, capsys, monkeypatch, command):
        """A row the scan rejects but whose reason decodes to none is a bug,
        not bad input: one "internal error" line and exit 4, no traceback,
        and no output written."""
        records = tmp_path / "records.csv"
        records.write_text(records_csv(["Mary,F,5,1880,census,,", "Mrs,F,40,1880,census,,"]),
                           encoding="utf-8")
        monkeypatch.setattr(corpus, "filter_reason", lambda *args: None)
        argv = [arg.replace("REJECTS", str(tmp_path / "rej.csv")) for arg in command]
        out = tmp_path / "out.csv"
        code = main([*argv, "--records", str(records), "--out", str(out)])
        assert code == 4
        row = ["Mrs", "F", "40", "1880", "census", "", ""]
        assert capsys.readouterr().err == (
            f"internal error: row {row} decodes to a reject but is kept\n")
        assert sorted(os.listdir(tmp_path)) == ["records.csv"]

    def test_missing_records_message(self, tmp_path, capsys):
        records = tmp_path / "nope.csv"
        assert main(["stats", "--records", str(records), "--span", "1800:1809"]) == 1
        assert capsys.readouterr().err.startswith(f"cannot read {records}: ")

    def test_unwritable_out_exit_1(self, mini_corpus, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        for argv in (
            ["simulate", "--alpha", "0.1", "--births", "10"],
            ["stats", "--records", str(mini_corpus), "--span", "1870:1879", "--sex", "F"],
            ["ingest", "--records", str(mini_corpus)],
        ):
            assert main([*argv, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"cannot write {out}: ")
            assert err.count("\n") == 1

    def test_unwritable_rejects_exit_1(self, mini_corpus, tmp_path, capsys):
        rejects = tmp_path / "no" / "rej.csv"
        code = main(["ingest", "--records", str(mini_corpus), "--rejects", str(rejects),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"cannot write {rejects}: ")

    def test_unwritable_chart_exit_1(self, mini_corpus, tmp_path, capsys):
        chart = tmp_path / "no" / "chart.csv"
        code = main(["fit", "--records", str(mini_corpus), "--span", "1870:1879",
                     "--sex", "F", "--min-count", "1", "--chart", str(chart),
                     "--out", str(tmp_path / "fit.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {chart}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--k", "0"], ["--k", "-3"], ["--threads", "0"], ["--threads", "two"],
    ])
    def test_nonpositive_int_exit_1_before_reading(self, tmp_path, capsys, flags):
        code = main(["stats", "--records", str(tmp_path / "absent.csv"),
                     "--span", "1870:1879", *flags])
        assert code == 1
        assert f"argument {flags[0]}: must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--span", "1870:1879", "--min-count", "-3"],
         "argument --min-count: must be an integer >= 1"),
        (["fit", "--span", "1870:1879", "--min-count", "0"],
         "argument --min-count: must be an integer >= 1"),
        (["comm", "--span1", "1870:1879", "--span2", "1880:1889", "--years", "-10"],
         "argument --years: must be a number > 0"),
        (["comm", "--span1", "1870:1879", "--span2", "1880:1889", "--years", "nan"],
         "argument --years: must be a number > 0"),
        (["comm", "--span1", "1870:1879", "--span2", "1880:1889", "--t11", "5"],
         "argument --t11: must be a number in (0, 1]"),
        (["comm", "--span1", "1870:1879", "--span2", "1880:1889", "--t11", "0"],
         "argument --t11: must be a number in (0, 1]"),
        (["comm", "--span1", "1870:1879", "--span2", "1880:1889", "--t11", "nan"],
         "argument --t11: must be a number in (0, 1]"),
    ])
    def test_nonpositive_count_or_years_exit_1_before_reading(self, tmp_path, capsys,
                                                              argv, message):
        code = main([*argv, "--records", str(tmp_path / "absent.csv")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["1870:", ":1870", "1870:1879:1880"])
    @pytest.mark.parametrize("argv, flag", [
        (["stats"], "--span"),
        (["fit"], "--span"),
        (["comm", "--span2", "1880:1889"], "--span1"),
        (["comm", "--span1", "1870:1879"], "--span2"),
    ])
    def test_bad_span_exit_1_before_reading(self, tmp_path, capsys, argv, flag, span):
        code = main([*argv, flag, span, "--records", str(tmp_path / "absent.csv")])
        assert code == 1
        assert (f"argument {flag}: span must be START:END or YEAR, got {span!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, flag", [
        (["ingest"], "--rejects"),
        (["fit", "--span", "1870:1879", "--sex", "F", "--min-count", "1"], "--chart"),
    ])
    def test_two_outputs_one_file_exit_1_before_reading(self, tmp_path, capsys,
                                                        command, flag):
        out = tmp_path / "out.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(out)
        records = tmp_path / "absent.csv"
        for old in (None, b"old report\n"):
            if old is not None:
                out.write_bytes(old)
            for second in (out, tmp_path / "." / "out.csv", link):
                code = main([*command, "--records", str(records), "--out", str(out),
                             flag, str(second)])
                assert code == 1
                assert capsys.readouterr().err == (
                    f"cannot write {out} and {second}: they name the same file\n"
                )
                assert out.exists() == (old is not None)
                if old is not None:
                    assert out.read_bytes() == old
                assert sorted(os.listdir(tmp_path)) == sorted(
                    ["link.csv"] + ["out.csv"] * (old is not None)
                )

    @pytest.mark.parametrize("command, flag", [
        (["ingest"], "--rejects"),
        (["fit", "--span", "1870:1879", "--sex", "F", "--min-count", "1"], "--chart"),
    ])
    def test_two_outputs_to_devnull(self, mini_corpus, capsys, command, flag):
        code = main([*command, "--records", str(mini_corpus),
                     "--out", os.devnull, flag, os.devnull])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_unwritable_chart_leaves_no_report(self, mini_corpus, tmp_path):
        out = tmp_path / "fit.csv"
        code = main(["fit", "--records", str(mini_corpus), "--span", "1870:1879",
                     "--sex", "F", "--min-count", "1", "--out", str(out),
                     "--chart", str(tmp_path / "no" / "chart.csv")])
        assert code == 1
        assert not out.exists()

    def test_unwritable_rejects_leaves_no_out(self, mini_corpus, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["ingest", "--records", str(mini_corpus), "--out", str(out),
                     "--rejects", str(tmp_path / "no" / "rej.csv")])
        assert code == 1
        assert not out.exists()

    def test_ingest_out_may_name_records(self, tmp_path):
        # several read blocks, so a truncated input would be seen short
        src = tmp_path / "records.csv"
        src.write_text(records_csv(["Mary,F,5,1880,census,Leeds,true",
                                    "Mrs,F,40,1880,census,,"] * 2000), encoding="utf-8")
        want = tmp_path / "want.csv"
        assert main(["ingest", "--records", str(src), "--out", str(want)]) == 0
        assert main(["ingest", "--records", str(src), "--out", str(src)]) == 0
        assert src.read_bytes() == want.read_bytes()
        assert want.read_text().count("\n") == 2001
        assert sorted(os.listdir(tmp_path)) == ["records.csv", "want.csv"]

    def test_failed_ingest_leaves_outputs_unchanged(self, tmp_path, capsys):
        src = tmp_path / "records.csv"
        rows = records_csv(["Mary,F,5,1880,census,,"] * 2000).encode("utf-8")
        src.write_bytes(rows + b"Mar\xffy,F,5,1880,census,,\n")
        out, rejects = tmp_path / "out.csv", tmp_path / "rej.csv"
        out.write_bytes(b"old report\n")
        code = main(["ingest", "--records", str(src), "--out", str(out),
                     "--rejects", str(rejects)])
        assert code == 1
        assert "can't decode byte 0xff" in capsys.readouterr().err
        assert out.read_bytes() == b"old report\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "records.csv"]

    @pytest.mark.parametrize("command", [["ingest"], ["stats", "--span", "1870:1879"]])
    @pytest.mark.parametrize("oversized, message", [
        ("--records", "parse error: record file line 3: "),
        ("--coding-table", "error: coding table line 2: "),
    ])
    def test_oversized_csv_field_exit_1(self, mini_corpus, tmp_path, command,
                                        oversized, message):
        """A field over the csv module's size limit is a one-line exit 1 that
        leaves an existing --out as it was."""
        big = tmp_path / "big.csv"
        if oversized == "--records":
            big.write_text(records_csv(["Mary,F,5,1880,census,,",
                                        "A" * 200_000 + ",F,5,1880,census,,"]))
            files = ["--records", str(big)]
        else:
            big.write_text("variant,canonical,sex_override\n" + "A" * 200_000 + ",MARY,\n")
            files = ["--records", str(mini_corpus), "--coding-table", str(big)]
        out = tmp_path / "out.csv"
        out.write_bytes(b"old report\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "namestats.cli", *command, *files,
                               "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == message + "field larger than field limit (131072)\n"
        assert out.read_bytes() == b"old report\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("full", ["--out", "--rejects"])
    def test_write_error_names_its_output(self, mini_corpus, tmp_path, capsys, full):
        other = {"--out": "--rejects", "--rejects": "--out"}[full]
        code = main(["ingest", "--records", str(mini_corpus), full, "/dev/full",
                     other, str(tmp_path / "other.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write /dev/full: [Errno 28] ")
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["records.csv"]

    def test_closed_stdout_exit_1_without_traceback(self, tmp_path):
        src = tmp_path / "records.csv"
        # more output than a pipe holds, so a write finds the reader gone
        src.write_text(records_csv(["Mary,F,5,1880,census,Leeds,true"] * 20_000),
                       encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "namestats.cli", "ingest",
                                 "--records", str(src)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"name,sex,age,year,kind,location,native_born\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
        assert err == b""

    def test_unwritable_chart_keeps_old_report(self, mini_corpus, tmp_path):
        out = tmp_path / "fit.csv"
        out.write_bytes(b"old report\n")
        code = main(["fit", "--records", str(mini_corpus), "--span", "1870:1879",
                     "--sex", "F", "--min-count", "1", "--out", str(out),
                     "--chart", str(tmp_path / "no" / "chart.csv")])
        assert code == 1
        assert out.read_bytes() == b"old report\n"

    @pytest.mark.parametrize("flag, field", [
        ("--marriage-age=-50", "default_age_marriage -50"),
        ("--adult-age=111", "default_age_adult 111"),
    ])
    def test_default_age_out_of_range_exit_1_before_reading(self, tmp_path, capsys,
                                                            flag, field):
        code = main(["stats", "--records", str(tmp_path / "absent.csv"),
                     "--span", "1870:1879", flag])
        assert code == 1
        assert capsys.readouterr().err == f"error: {field} outside [0, 110]\n"

    def test_unwritable_metadata_exit_1(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        meta = tmp_path / "sim.csv.meta.json"
        meta.mkdir()
        code = main(["simulate", "--alpha", "0.1", "--births", "10", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"cannot write {meta}: ")


def _valid_argv(command: str, records: Path, tmp_path: Path) -> list[str]:
    """An argv for ``command`` that runs to exit 0 on the mini corpus."""
    return {
        "ingest": ["ingest", "--records", str(records),
                   "--rejects", str(tmp_path / "rejects.csv")],
        "stats": ["stats", "--records", str(records), "--span", "1870:1879",
                  "--sex", "F"],
        "comm": ["comm", "--records", str(records), "--span1", "1870:1879",
                 "--span2", "1880:1889", "--sex", "F"],
        "fit": ["fit", "--records", str(records), "--span", "1870:1879", "--sex", "F",
                "--min-count", "1", "--chart", str(tmp_path / "chart.csv")],
        "samplevar": ["samplevar"],
        "conquest": ["conquest", "--t11", "0.75"],
        "simulate": ["simulate", "--alpha", "0.1", "--births", "100"],
    }[command] + ["--out", str(tmp_path / "out.csv")]


class _ReadLog(argparse.Namespace):
    """Parsed options that note in ``_reads`` the name of each one read."""

    def __init__(self, parsed: argparse.Namespace):
        super().__init__(**vars(parsed), _reads=set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


class TestFlagsAreRead:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_parsed_option_is_read(self, mini_corpus, tmp_path, command):
        argv = _valid_argv(command, mini_corpus, tmp_path)
        parsed = cli.build_parser().parse_args(argv)
        args = _ReadLog(parsed)
        assert cli._COMMANDS[command](args) == 0
        assert set(vars(parsed)) - {"command"} - args._reads == set()

    @pytest.mark.parametrize("command, flag, value", [
        ("ingest", "--k", "3"),
        ("ingest", "--min-count", "3"),
        ("ingest", "--format", "markdown"),
        ("ingest", "--threads", "2"),
        ("ingest", "--sex", "M"),
        ("ingest", "--marriage-age", "999"),
        ("ingest", "--adult-age", "30"),
        ("stats", "--min-count", "3"),
        ("comm", "--min-count", "3"),
        ("fit", "--k", "3"),
        ("samplevar", "--coding-table", DEMO_TABLE),
        ("samplevar", "--k", "3"),
        ("samplevar", "--min-count", "3"),
        ("samplevar", "--threads", "2"),
        ("conquest", "--coding-table", DEMO_TABLE),
        ("conquest", "--min-count", "3"),
        ("conquest", "--threads", "2"),
        ("simulate", "--coding-table", "nope.csv"),
        ("simulate", "--k", "3"),
        ("simulate", "--min-count", "3"),
        ("simulate", "--format", "markdown"),
        ("simulate", "--threads", "2"),
    ])
    def test_removed_flag_exit_1(self, mini_corpus, tmp_path, capsys,
                                 command, flag, value):
        argv = _valid_argv(command, mini_corpus, tmp_path)
        assert main([*argv, flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestImports:
    def test_commands_run_without_numpy(self, mini_corpus, tmp_path):
        """Every command but simulate runs where numpy cannot be imported, and
        writes the bytes it writes where it can."""
        commands = ["ingest", "stats", "comm", "fit", "samplevar", "conquest"]
        probe = ("import json, sys\n"
                 "if sys.argv[1] == 'blocked':\n"
                 "    sys.modules['numpy'] = None\n"
                 "from namestats.cli import main\n"
                 "codes = [main(argv) for argv in json.loads(sys.argv[2])]\n"
                 "print(json.dumps(codes))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for mode in ("blocked", "free"):
            argvs = []
            for command in commands:
                (tmp_path / mode / command).mkdir(parents=True)
                argvs.append(_valid_argv(command, mini_corpus,
                                         tmp_path / mode / command))
            done = subprocess.run(
                [sys.executable, "-c", probe, mode, json.dumps(argvs)],
                env=env, capture_output=True, text=True, check=True,
            )
            assert json.loads(done.stdout) == [0] * len(commands), done.stderr
        for command in commands:
            blocked, free = tmp_path / "blocked" / command, tmp_path / "free" / command
            assert sorted(os.listdir(blocked)) == sorted(os.listdir(free))
            for name in os.listdir(free):
                assert (blocked / name).read_bytes() == (free / name).read_bytes()
            assert (free / "out.csv").stat().st_size > 0

    def test_cli_import_loads_no_numpy(self):
        src = Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import sys, namestats.cli; print('numpy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"

    def test_cli_import_loads_only_corpus_and_standardize(self):
        code = ("import json, sys, namestats.cli\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('namestats'))))\n")
        done = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [
            "namestats", "namestats.cli", "namestats.corpus", "namestats.standardize",
        ]

    @pytest.mark.parametrize("command, unloaded", [
        ("stats", {"synth", "commstats", "powerlaw"}),
        ("ingest", {"synth", "commstats", "powerlaw"}),
        ("simulate", {"commstats", "powerlaw", "popstats"}),
    ])
    def test_command_loads_only_what_it_runs(self, mini_corpus, tmp_path, command,
                                             unloaded):
        code, loaded, err = _main_in_fresh_interpreter(
            _valid_argv(command, mini_corpus, tmp_path))
        assert code == 0, err
        assert not loaded & unloaded

    @pytest.mark.parametrize("argv, code, message", [
        (["fit", "--span", "1870:1879", "--sex", "F", "--min-count", "1000"], 2,
         "error: 1 of 1 cohorts failed:\n  cohort 1870-1879 sex F: "
         "need >= 3 names with count >= 1000, got 0\n"),
        (["stats", "--span", "1870:1879", "--sex", "M"], 2,
         "error: 1 of 1 cohorts failed:\n  cohort 1870-1879 sex M: "
         "insufficient_distinct_names: need 10, have 0 in cohort 1870-1879\n"),
    ], ids=["fit", "stats"])
    def test_insufficient_exit_2_in_fresh_interpreter(self, mini_corpus, argv, code,
                                                      message):
        got, loaded, err = _main_in_fresh_interpreter(
            [*argv, "--records", str(mini_corpus)])
        assert (got, err) == (code, message)
        if argv[0] == "stats":
            assert not loaded & {"commstats", "powerlaw"}

    def test_divergent_exit_3_in_fresh_interpreter(self, divergent_corpus):
        code, _, err = _main_in_fresh_interpreter(
            ["comm", "--records", str(divergent_corpus), "--span1", "1870:1879",
             "--span2", "1880:1889", "--sex", "F"])
        assert code == 3
        assert err == f"error: {DivergentOtherMassError()}\n"

    @pytest.mark.parametrize("exc, code", [
        (InsufficientDistinctNamesError(10, 3, "1870-1879"), 2),
        (InsufficientPointsError("need >= 3 qualifying points, got 2"), 2),
        (DivergentOtherMassError(), 3),
        (ValueError("k must be >= 1"), 1),
    ], ids=["names", "points", "divergent", "other"])
    def test_library_error_exit_codes(self, monkeypatch, capsys, exc, code):
        """An error that reaches main from a command exits with its own code
        and prints its message once."""

        def fail(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "samplevar", fail)
        assert main(["samplevar"]) == code
        assert capsys.readouterr().err == f"error: {exc}\n"


def _fresh_env(**settings: str) -> dict:
    """The environment for a fresh interpreter that imports this checkout's
    namestats, with no OPENBLAS_NUM_THREADS unless one is given."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    return dict(env, **settings)


def _main_in_fresh_interpreter(argv: list[str], **settings: str):
    """``(exit code, namestats modules loaded, stderr)`` of ``main(argv)`` run
    in a fresh interpreter; module names lack the "namestats." prefix."""
    code = ("import json, sys\n"
            "from namestats.cli import main\n"
            "code = main(json.loads(sys.argv[1]))\n"
            "loaded = [m.partition('.')[2] for m in sys.modules "
            "if m.startswith('namestats.')]\n"
            "print(json.dumps([code, loaded]))\n")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                          env=_fresh_env(**settings), capture_output=True, text=True,
                          check=True)
    got, loaded = json.loads(done.stdout)
    return got, set(loaded), done.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
class TestBlasThreads:
    """simulate calls no BLAS routine, so it keeps OpenBLAS to one thread."""

    PROBE = ("import json, os, sys\n"
             "before = dict(os.environ)\n"
             "{run}\n"
             "print(json.dumps([len(os.listdir('/proc/self/task')),\n"
             "                  os.environ.get('OPENBLAS_NUM_THREADS'),\n"
             "                  dict(os.environ) == before]))\n")

    def _probe(self, run: str, **settings: str) -> list:
        """``[OS threads, OPENBLAS_NUM_THREADS, environment unchanged]`` after
        ``run`` in a fresh interpreter."""
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(run=run)],
            env=_fresh_env(**settings), capture_output=True, text=True, check=True,
        )
        return json.loads(done.stdout)

    @staticmethod
    def _simulate(tmp_path) -> str:
        argv = ["simulate", "--alpha", "0.1", "--births", "1000",
                "--out", str(tmp_path / "out.csv")]
        return f"from namestats.cli import main\nassert main({argv!r}) == 0"

    def test_simulate_runs_one_thread(self, tmp_path):
        threads, setting, _ = self._probe(self._simulate(tmp_path))
        assert (threads, setting) == (1, "1")

    def test_simulate_keeps_a_preset_thread_count(self, tmp_path):
        _, setting, unchanged = self._probe(self._simulate(tmp_path),
                                            OPENBLAS_NUM_THREADS="2")
        assert (setting, unchanged) == ("2", True)

    def test_library_simulation_leaves_environment(self):
        run = ("from namestats.synth import SimulationConfig, simulate_labels\n"
               "simulate_labels(SimulationConfig(innovation_rate=0.1, births=1000))")
        _, setting, unchanged = self._probe(run)
        assert (setting, unchanged) == (None, True)

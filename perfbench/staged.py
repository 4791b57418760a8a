"""One traced pass of a workload through namestats' public functions.

The calls follow the order the CLI uses for the workload's subcommand, each
wrapped in a span named after the layer it enters.  Spans are kept in
memory and written, with the run's counts, to ``--trace-out`` when the pass
ends.  The report files land in ``--out-dir`` under the names the CLI run
uses, so the caller can check that both wrote the same bytes.

    python3 perfbench/staged.py --workload stats-wide --records in.csv \
        --coding-table table.csv --out-dir out/ --trace-out trace.json --run-id r1
"""

from __future__ import annotations

import argparse
import io
import json
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import WORKLOADS


class Tracer:
    """Nested spans of one run: name, start, end, parent span id, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _census_pass(trace: Tracer, spec: dict, args, out: Path) -> dict:
    with trace.span("setup"):
        with trace.span("import"):
            from namestats import corpus, reports
            from namestats.popstats import summarize
            from namestats.standardize import (
                Sex, apply_coding, correct_sex, load_coding_table, truncate_name,
            )
        with trace.span("standardize.table_load"):
            with open(args.coding_table, encoding="utf-8") as fh:
                table = load_coding_table(fh, version_id=Path(args.coding_table).name)

    counts: dict = {}
    with trace.span("cli." + spec["command"]):
        with trace.span("corpus.parse"):
            with open(args.records, encoding="utf-8", newline="") as fh:
                parsed = corpus.parse_records(fh)
        with trace.span("corpus.filter"):
            filtered = corpus.filter_records(
                parsed.records, corpus.FilterPolicy(), table
            )
        if spec["command"] == "ingest":
            with trace.span("corpus.write"):
                buf = io.StringIO()
                corpus.write_records(
                    (corpus.standardized_record(r, table) for r in filtered.kept), buf
                )
                text = buf.getvalue()
                (out / "out.csv").write_text(text, encoding="utf-8")
                with open(out / "rejects.csv", "w", encoding="utf-8", newline="") as fh:
                    corpus.write_rejection_report(parsed.rejected, filtered.rejected, fh)
            counts["write_bytes"] = sum(
                (out / name).stat().st_size for name in ("out.csv", "rejects.csv")
            )
        else:
            rows, sizes, distinct = [], [], 0
            for (start, end), sex in spec["jobs"]:
                cohort_spec = corpus.CohortSpec(Sex(sex), start, end)
                with trace.span("corpus.cohort"):
                    cohort = corpus.build_cohort(filtered.kept, cohort_spec, table)
                with trace.span("popstats.summarize"):
                    summary = summarize(cohort, 10)
                rows.append((cohort_spec.label, sex, summary))
                sizes.append(cohort.sample_size)
                distinct += len(cohort.names)
            with trace.span("reports.render"):
                text = reports.render_summaries(rows, "csv")
                (out / "out.csv").write_text(text, encoding="utf-8")
            counts.update(
                cohort_calls=len(sizes),
                cohort_sizes=sizes,
                records_scanned=len(sizes) * len(filtered.kept),
                summarized_distinct_names=distinct,
                report_bytes=len(text.encode("utf-8")),
            )

    # outside the CLI's work: one isolated standardize pass, then the counts
    with trace.span("probe"):
        kept = filtered.kept
        with trace.span("standardize"):
            for record in kept:
                correct_sex(table, apply_coding(table, truncate_name(record.raw_name)),
                            record.sex)
        reasons: dict[str, int] = {}
        for _, reason in filtered.rejected:
            reasons[reason] = reasons.get(reason, 0) + 1
        counts.update(
            rows=len(parsed.records) + len(parsed.rejected),
            rows_rejected=len(parsed.rejected),
            filter_rejected=reasons,
            kept=len(kept),
            coding_hits=sum(truncate_name(r.raw_name) in table.entries for r in kept),
        )
    return counts


def _simulate_pass(trace: Tracer, spec: dict, args, out: Path) -> dict:
    with trace.span("setup"):
        with trace.span("import"):
            from namestats import corpus, synth
            from namestats.standardize import Sex

    sim = spec["simulate"]
    config = synth.SimulationConfig(
        innovation_rate=sim["alpha"], births=sim["births"], seed=args.seed,
        sex=Sex("F"), year=2000,
    )
    with trace.span("cli.simulate"):
        with trace.span("synth.simulate"):
            records = synth.simulate_records(config)
        with trace.span("corpus.write"):
            buf = io.StringIO()
            corpus.write_records(records, buf)
            (out / "out.csv").write_text(buf.getvalue(), encoding="utf-8")
            (out / "out.csv.meta.json").write_text(
                json.dumps(synth.simulation_metadata(config), indent=2) + "\n",
                encoding="utf-8",
            )
    with trace.span("probe"):
        return {
            "births": sim["births"],
            "write_bytes": (out / "out.csv").stat().st_size,
            "synth_distinct_names": len({r.raw_name for r in records}),
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--records")
    parser.add_argument("--coding-table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    spec = WORKLOADS[args.workload]
    trace = Tracer(args.run_id)
    run = _simulate_pass if spec["command"] == "simulate" else _census_pass
    counts = run(trace, spec, args, args.out_dir)
    args.trace_out.write_text(json.dumps({"spans": trace.spans, "counts": counts}))


if __name__ == "__main__":
    main()

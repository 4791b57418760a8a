"""Command-line pipeline: ingest -> standardize -> cohort -> statistics -> reports.

Subcommands: ingest, stats, comm, fit, samplevar, conquest, simulate.
Exit codes: 0 success; 1 parse/usage failure (including fit --chart with
more than one cohort, and an input that cannot be read or an output that
cannot be written); 2 insufficient distinct names (or too few fit
points), naming every cohort, or span1->span2 pair, that fails; 3
divergent other-names mass in C1; 4 an internal invariant failure (a bug,
not bad input), printed as "internal error: ...".

Each subcommand takes only the options it reads (see `namestats CMD -h`).
Every one writes to --out (default stdout); all but ingest and simulate
take --format.  ingest, stats, comm and fit read --records under
--coding-table, --require-native-born and --generic; stats, comm and fit
also take --sex, --marriage-age, --adult-age and --threads.  A --generic
name is truncated like a record's name, and one with fewer than two
leading letters is an exit-1 error.

--threads N (at least 1, default 1) lets stats, comm and fit split a
regular --records file at line ends into at most min(N, usable CPUs,
size // 1 MiB) byte ranges, index the first here and each other one in a
forked child, and sum the counts (see corpus.index_records).  ingest takes
no --threads: it splits the file the same way into at most min(usable
CPUs, size // 1 MiB) ranges, the CPUs being those this process may run on,
so `taskset -c 0` makes it read in one pass (see corpus.ingest_records).
A file with a quote or a CR outside a CRLF, which could put a line end
inside a record, is read in one pass, as is any file when a range fails,
so errors are those of one pass.

ingest, stats, comm and fit read each range of the record file in one
streaming pass that decodes each distinct field text once and each kept
row by table lookups (see corpus.RecordScan).  Each counts the rejects by
reason, and only ingest --rejects writes the rejects, each as its report
line as the pass reaches it: the parse rejects, then the
filter rejects, each in input order.  ingest writes the kept rows, each
batch of 1,024 rows joined into one text and one write (see
corpus.write_rows).  In one pass it writes the kept rows and the parse
rejects to --out and --rejects as the pass reaches them, and the filter
rejects to an anonymous temporary file (a spool) that is appended to
--rejects after the pass; with no temporary directory to write in, it
holds the filter reject lines instead.  On ranges, each range writes its
kept rows, parse rejects and filter rejects to three spools, and only once
every range has succeeded are the headers and the spools written, in range
order: every range's kept rows, then every range's parse rejects, then
every range's filter rejects, the order of one pass.  When the spools
cannot be made, ingest reads in one pass.  stats, comm and fit count
each row into a birth-year cohort index, so memory grows with distinct
names times birth years, not with rows or rejects, and every cohort is
then read from the index.  A run with rejects notes on stderr "note:
rejected P rows at parse, F at filter" and then "note: rejects by reason:
REASON=N ...", each reason's count, sorted by reason name.  stats, comm
and fit also note the census and other rows with no age, which no cohort
counts: "note: N kept rows have no age and no default age for their kind;
no cohort counts them".
Reports are written in (cohort span, sex) order and are byte-identical
across runs.  All output files are opened before the first report byte is
written; ingest and fit open them before reading --records.  Each is
written beside its path and moved onto it only when the run succeeds, so a
run that exits 1 leaves every output path as it was, and --out may name
--records.  The move is two renames, never one onto a file: the old file,
if any, is renamed aside beside it, the new one into place, and the old one
removed once every output is in place; if any rename fails, every old file
is renamed back.  So the path names no file for the instant between the
two renames.  No output is synced to disk, so none is promised to survive
a crash of the machine.  Two outputs of one run (--out and --rejects,
--out and --chart) may not name the same file, unless it is one such as
/dev/null that is written in place.  Errors name the path that failed.  --records and
--coding-table are UTF-8, and a leading byte-order mark is skipped.
--min-count must be at least 1, --years above 0, --t11 in (0, 1], each
span START:END with both ends or one YEAR, and simulate's --year within
1000-2100; each is checked before any input is read or any simulation run.

simulate builds every distinct name in one itertools pass (see
synth.sequential_names); each name's row is the name before the tail of one
empty-name row from the ingest writer, exact because that writer leaves
upper-case letters unquoted.  The names sit once in an object array; each
slice of labels picks its names from it, joins them with that tail and is
written in turn, so no record or row string is built per name or birth and
no list or string spans every birth.

Importing this module loads only the standard library, corpus and
standardize, and of the standard library not tempfile, shutil or pickle,
which a ranged or spooled run loads when it starts; each subcommand
imports the modules it runs when it runs (stats and samplevar popstats and
reports, comm commstats, fit and conquest powerlaw, simulate synth, numpy
and json), and main tells the errors that exit 2 and 3 apart without
importing a module to do so.
simulate calls no BLAS routine, so it loads numpy with one OpenBLAS thread
unless OPENBLAS_NUM_THREADS is already set.

The `namestats` command and `python -m namestats.cli` enter through run(),
which calls main, freezes the heap (gc.freeze) and exits with main's code,
so the interpreter's last full garbage collection skips every object the
run made; atexit handlers, the flushes of stdout and stderr and module
teardown still run.  This rests on every file a run opens being closed
before main returns, by _outputs, a with block or the spools' ExitStack.
main(argv) returns the exit code and freezes nothing, for tests and other
callers in the same process.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import stat
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterable

from . import corpus
from .corpus import CohortSpec, FilterPolicy, InvariantError, ParseError, RecordKind
from .standardize import CodingTable, Sex, load_coding_table

# standard variability grid: sample sizes ascending, probabilities descending within each
SAMPLEVAR_GRID = [
    (p, n) for n in (100, 1000, 10_000, 100_000) for p in (0.20, 0.03, 0.015)
]

# simulate rows joined per write: bounds the list and text held at once
# without a write call per row
_WRITE_SLICE = 1 << 14

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INSUFFICIENT = 2
EXIT_DIVERGENT = 3
EXIT_INTERNAL = 4

# library errors with exit codes of their own, by module and type; a type is
# looked up only in a module some command has loaded, as no other can raise it
_EXIT_CODES = (
    ("popstats", "InsufficientDistinctNamesError", EXIT_INSUFFICIENT),
    ("powerlaw", "InsufficientPointsError", EXIT_INSUFFICIENT),
    ("commstats", "DivergentOtherMassError", EXIT_DIVERGENT),
)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _exit_code(exc: ValueError) -> int:
    """The exit code of a library error: 2 for too few distinct names or fit
    points, 3 for a divergent other-names mass, else 1."""
    for module, name, code in _EXIT_CODES:
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(exc, getattr(loaded, name)):
            return code
    return EXIT_PARSE


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved here
    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}", EXIT_PARSE)


def _span(text: str) -> tuple[int, int]:
    try:
        start_text, colon, end_text = text.partition(":")
        start = int(start_text)
        end = int(end_text) if colon else start
    except ValueError:
        raise argparse.ArgumentTypeError(f"span must be START:END or YEAR, got {text!r}")
    return start, end


def _sexes(code: str) -> list[Sex]:
    return [Sex.FEMALE, Sex.MALE] if code == "both" else [Sex(code)]


def _positive_int(text: str) -> int:
    with suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _positive_float(text: str) -> float:
    with suppress(ValueError):
        if float(text) > 0:
            return float(text)
    raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")


def _fraction(text: str) -> float:
    with suppress(ValueError):
        if 0 < float(text) <= 1:
            return float(text)
    raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")


def _output_flags(parser: argparse.ArgumentParser, report: bool = True) -> None:
    if report:
        parser.add_argument("--format", choices=("csv", "markdown"), default="csv")
    parser.add_argument("--out", metavar="PATH", default=None)


def _record_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--records", metavar="PATH", required=True)
    parser.add_argument("--coding-table", metavar="PATH", default=None)
    parser.add_argument("--require-native-born", action="store_true")
    parser.add_argument(
        "--generic",
        action="append",
        default=[],
        metavar="NAME",
        help="extra generic name to reject (repeatable)",
    )


def _cohort_flags(parser: argparse.ArgumentParser) -> None:
    _output_flags(parser)
    _record_flags(parser)
    parser.add_argument("--sex", choices=("F", "M", "both"), default="both")
    parser.add_argument("--marriage-age", type=int, default=corpus.DEFAULT_AGE_MARRIAGE)
    parser.add_argument("--adult-age", type=int, default=corpus.DEFAULT_AGE_ADULT)
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="index --records in up to this many processes")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="namestats", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse, filter, and standardize a record file")
    _output_flags(p, report=False)
    _record_flags(p)
    p.add_argument("--rejects", metavar="PATH", default=None,
                   help="write the rejection report here")

    p = sub.add_parser("stats", help="popularity summaries per cohort and sex")
    _cohort_flags(p)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--span", type=_span, action="append", required=True,
                   metavar="START:END", help="birth-year span (repeatable)")

    p = sub.add_parser("comm", help="communication statistics between two cohorts")
    _cohort_flags(p)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--span1", type=_span, required=True, metavar="START:END")
    p.add_argument("--span2", type=_span, required=True, metavar="START:END")
    p.add_argument("--years", type=_positive_float, default=None,
                   help="elapsed years (default: span midpoint difference)")
    p.add_argument("--t11", type=_fraction, default=None)

    p = sub.add_parser("fit", help="rank-frequency power-law fit per cohort")
    _cohort_flags(p)
    p.add_argument("--min-count", type=_positive_int, default=5)
    p.add_argument("--span", type=_span, action="append", required=True,
                   metavar="START:END")
    p.add_argument("--chart", metavar="PATH", default=None,
                   help="also write the log2 rank/frequency series here")

    p = sub.add_parser("samplevar", help="binomial sampling-variability table")
    _output_flags(p)

    p = sub.add_parser("conquest", help="model-based century-scale statistics")
    _output_flags(p)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--year2-top", type=float, default=0.10)
    p.add_argument("--year2-total", type=float, default=0.45)
    p.add_argument("--year1-info", type=float, default=0.4)
    p.add_argument("--year1-total", type=float, default=0.045)
    p.add_argument("--t11", type=_fraction, required=True)
    p.add_argument("--span-label", default="1066-1166")

    p = sub.add_parser("simulate", help="generate a synthetic record file")
    _output_flags(p, report=False)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--births", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--initial-names", type=int, default=1)
    p.add_argument("--sim-sex", choices=("F", "M"), default="F")
    p.add_argument("--year", type=int, default=2000)

    return parser


class _File(io.FileIO):
    """A file whose read and write errors are CliErrors naming ``label``."""

    def __init__(self, file, mode: str, label: str):
        super().__init__(file, mode)
        self.label = label

    def readinto(self, buffer):
        try:
            return super().readinto(buffer)
        except OSError as exc:
            raise CliError(f"cannot read {self.label}: {exc}", EXIT_PARSE) from exc

    def write(self, data):
        try:
            return super().write(data)
        except OSError as exc:
            raise CliError(f"cannot write {self.label}: {exc}", EXIT_PARSE) from exc


def _open_raw(path: str) -> _File:
    try:
        return _File(path, "r", path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)


def _open_input(path: str) -> io.TextIOWrapper:
    return corpus.text_input(_open_raw(path))


def _load_table(args) -> CodingTable:
    if args.coding_table is None:
        return CodingTable()
    with _open_input(args.coding_table) as fh:
        return load_coding_table(fh, version_id=Path(args.coding_table).name)


def _policy_and_table(args) -> tuple[FilterPolicy, CodingTable]:
    """The filter flags' policy, checked first, and the --coding-table."""
    policy = FilterPolicy(
        generic_names=corpus.DEFAULT_GENERIC_NAMES | set(args.generic),
        require_native_born=args.require_native_born,
    )
    return policy, _load_table(args)


def _note_rejects(parse_reasons: Counter, filter_reasons: Counter,
                  unresolved: int = 0) -> None:
    """Note on stderr the parse and filter reject totals and each reason's
    count, when there are rejects, and the kept rows with no birth year."""
    parse_rejects = sum(parse_reasons.values())
    filter_rejects = sum(filter_reasons.values())
    if parse_rejects or filter_rejects:
        print(f"note: rejected {parse_rejects} rows at parse, {filter_rejects} at filter",
              file=sys.stderr)
        counts = sorted((parse_reasons + filter_reasons).items())
        print("note: rejects by reason: " + " ".join(f"{r}={n}" for r, n in counts),
              file=sys.stderr)
    if unresolved:
        print(f"note: {unresolved} kept rows have no age and no default age for their "
              "kind; no cohort counts them", file=sys.stderr)


def _index_records(args) -> corpus.CohortIndex:
    """The cohort index of --records under --coding-table and the filter
    flags, built by up to --threads processes; notes the reject counts and
    the rows with no birth year.  Each cohort's spec brings the default ages."""
    policy, table = _policy_and_table(args)
    try:
        index, parse_reasons, filter_reasons = corpus.index_records(
            args.records, policy, table, args.threads
        )
    except OSError as exc:
        raise CliError(f"cannot read {args.records}: {exc}", EXIT_PARSE) from exc
    _note_rejects(parse_reasons, filter_reasons, index.unresolved)
    return index


def _in_place(path: str) -> bool:
    """True when :func:`_open_output` writes ``path`` in place: it names an
    existing file other than a regular one, such as /dev/null or a pipe."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # nothing there yet, or a path that opening will refuse
        return False


def _open_output(path: str) -> tuple[io.TextIOWrapper, str | None, str]:
    """``path`` opened for writing; the file actually written when that is a
    new one beside ``path`` (else None); and the file ``path`` names.

    A regular file, or a path that names nothing yet, is written through a
    new file in the same directory, created with the old file's permissions.
    Anything else, such as /dev/null or a pipe, is written in place.
    """
    target = os.path.realpath(path)
    staged = None
    try:
        if _in_place(target):
            raw = _File(path, "w", path)
        else:
            try:
                perms = stat.S_IMODE(os.stat(target).st_mode)
            except FileNotFoundError:
                perms = 0o666
            else:  # fails where opening it to write would
                os.close(os.open(target, os.O_WRONLY))
            directory, name = os.path.split(target)
            staged = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
            fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, perms)
            raw = _File(fd, "w", path)
    except OSError as exc:
        # named by the path given, not the file opened for it
        reason = OSError(exc.errno, exc.strerror, path)
        raise CliError(f"cannot write {path}: {reason}", EXIT_PARSE)
    fh = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="")
    return fh, staged, target


@contextmanager
def _outputs(out: str | None, *others: str | None):
    """Text files for --out (stdout when None) and each of ``others`` (None
    when None), opened before the body writes anything.

    A file written beside its path (see :func:`_open_output`) replaces the
    path (see :func:`_land`) only after the body returns and every output
    is closed, so a run that fails leaves each output path as it was, and
    --out may name --records.  Two such paths may not name one file.
    Errors are CliErrors naming the path that failed.
    """
    opened, staged = [], []
    try:
        for path in (out, *others):
            if path is not None:
                fh, tmp, target = _open_output(path)
                opened.append(fh)
                if tmp is not None:
                    # one replace of the target would undo the other
                    same = [other for _, done, other in staged if done == target]
                    staged.append((tmp, target, path))
                    if same:
                        raise CliError(f"cannot write {same[0]} and {path}: "
                                       "they name the same file", EXIT_PARSE)
        files = iter(opened)
        yield [sys.stdout if out is None else next(files)] + [
            None if path is None else next(files) for path in others
        ]
        for fh in opened:
            fh.close()
        _land(staged)
    except BaseException:
        for fh in opened:
            with suppress(CliError, OSError):
                fh.close()
        for tmp, _, _ in staged:
            with suppress(OSError):
                os.remove(tmp)
        raise


def _land(staged: list[tuple[str, str, str]]) -> None:
    """Move each ``(staged file, target, path given)`` onto its target.

    The old target, if any, is renamed aside to a name beside it and the
    staged file renamed into place; the asides are removed once every
    target is in place.  A rename onto an existing file would make ext4
    (auto_da_alloc, its default) write the new file's data back first,
    about 0.4 s for a 9 MB output.  If any rename fails, every old file is
    renamed back and a new file where there was none removed, so each
    target is as it was, and the error is a CliError naming its path.
    """
    moved = []  # (target, aside or None, whether the staged file is there)
    try:
        for tmp, target, path in staged:
            aside = tmp.removesuffix(".tmp") + ".old"
            try:
                os.rename(target, aside)
            except FileNotFoundError:
                aside = None
            moved.append((target, aside, False))
            os.rename(tmp, target)
            moved[-1] = (target, aside, True)
    except OSError as exc:
        for target, aside, placed in reversed(moved):
            with suppress(OSError):
                if aside is not None:
                    os.replace(aside, target)
                elif placed:
                    os.remove(target)
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE)
    for _, aside, _ in moved:
        if aside is not None:
            with suppress(OSError):
                os.remove(aside)


def _write(args, chunks: Iterable[str]) -> None:
    with _outputs(args.out) as (out,):
        out.writelines(chunks)


def _spec(args, sex: Sex, span: tuple[int, int]) -> CohortSpec:
    return CohortSpec(
        sex=sex,
        birth_year_start=span[0],
        birth_year_end=span[1],
        default_age_marriage=args.marriage_age,
        default_age_adult=args.adult_age,
    )


def _cmd_ingest(args) -> int:
    with _outputs(args.out, args.rejects) as (out, rejects):
        policy, table = _policy_and_table(args)
        with _open_raw(args.records) as raw:
            counts = corpus.ingest_records(raw, policy, table, corpus.usable_cpus(),
                                           out, rejects)
        _note_rejects(*counts)
    return EXIT_OK


def _each_cohort(args, jobs, evaluate) -> list[tuple[str, str, object]]:
    """``(label, sex, evaluate(*cohorts))`` for each job, in order.

    A job is a tuple of cohort specs of one sex; its label joins their
    labels with "->".  Every job is evaluated.  When any has too few
    distinct names or fit points, one exit-2 error names each of them,
    and no report is written.
    """
    index = _index_records(args)
    rows, failures = [], []
    for specs in jobs:
        label = "->".join(spec.label for spec in specs)
        sex = specs[0].sex.value
        try:
            rows.append((label, sex, evaluate(*(index.cohort(spec) for spec in specs))))
        except ValueError as exc:
            if _exit_code(exc) != EXIT_INSUFFICIENT:
                raise
            failures.append(f"  cohort {label} sex {sex}: {exc}")
    if failures:
        raise CliError(
            f"error: {len(failures)} of {len(jobs)} cohorts failed:\n"
            + "\n".join(failures),
            EXIT_INSUFFICIENT,
        )
    return rows


def _span_jobs(args) -> list[tuple[CohortSpec, ...]]:
    """One single-cohort job per --span and sex, in (span, sex) order."""
    spans = sorted(args.span)
    return [(_spec(args, sex, span),) for span in spans for sex in _sexes(args.sex)]


def _cmd_stats(args) -> int:
    from . import reports
    from .popstats import summarize

    rows = _each_cohort(args, _span_jobs(args), lambda cohort: summarize(cohort, args.k))
    _write(args, [reports.render_summaries(rows, args.format)])
    return EXIT_OK


def _cmd_comm(args) -> int:
    from . import reports
    from .commstats import comm_all

    years = args.years
    if years is None:
        mid1 = (args.span1[0] + args.span1[1]) / 2
        mid2 = (args.span2[0] + args.span2[1]) / 2
        years = mid2 - mid1 if mid2 > mid1 else None

    jobs = [
        (_spec(args, sex, args.span1), _spec(args, sex, args.span2))
        for sex in _sexes(args.sex)
    ]
    rows = _each_cohort(
        args, jobs, lambda c1, c2: comm_all(c1, c2, args.k, years, args.t11)
    )
    _write(args, [reports.render_comm(rows, args.format)])
    return EXIT_OK


def _cmd_fit(args) -> int:
    from . import reports
    from .popstats import frequency_table
    from .powerlaw import fit_rank_frequency, loglog_series

    jobs = _span_jobs(args)
    if args.chart is not None and len(jobs) > 1:
        raise CliError(
            f"fit: --chart needs one cohort (one --span, --sex F or M), got {len(jobs)}",
            EXIT_PARSE,
        )

    def fit(cohort):
        ftable = frequency_table(cohort)
        return ftable, fit_rank_frequency(ftable, args.min_count)

    with _outputs(args.out, args.chart) as (out, chart):
        rows = _each_cohort(args, jobs, fit)
        out.write(reports.render_fits([(l, s, f) for l, s, (_, f) in rows], args.format))
        if chart is not None:
            _, _, (ftable, _) = rows[0]
            chart.write(reports.render_chart_series(loglog_series(ftable)))
    return EXIT_OK


def _cmd_samplevar(args) -> int:
    from . import reports
    from .popstats import sampling_variability

    rows = [(p, n, sampling_variability(p, n)) for p, n in SAMPLEVAR_GRID]
    _write(args, [reports.render_samplevar(rows, args.format)])
    return EXIT_OK


def _cmd_conquest(args) -> int:
    from . import reports
    from .powerlaw import conquest_model

    result = conquest_model(
        args.year2_top,
        args.year2_total,
        args.year1_info,
        args.year1_total,
        args.t11,
        args.k,
    )
    _write(args, [reports.render_conquest(args.span_label, result, args.format)])
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # simulate calls no BLAS routine, so OpenBLAS's worker threads would only
    # spin while numpy loads; a value the user set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import json

    import numpy as np

    from . import synth

    config = synth.SimulationConfig(
        innovation_rate=args.alpha,
        births=args.births,
        initial_names=args.initial_names,
        seed=args.seed,
        sex=Sex(args.sim_sex),
        year=args.year,
    )
    names, labels = synth.simulate_labels(config)
    # a simulated name is upper-case letters, which the writer leaves unquoted,
    # so its row is the name before the tail of an empty-name row; each slice
    # of labels picks its names and joins them with that tail in turn, never
    # a list for every birth
    buf = io.StringIO()
    corpus.write_rows([("", config.sex.value, None, config.year,
                        RecordKind.BIRTH_REGISTER.value, "", "")], buf)
    buf.seek(0)
    header, tail = buf  # a StringIO's lines end only at "\n", as the writer's do
    table = np.fromiter(names, dtype=object, count=len(names))
    del names  # the array is all that is needed of them
    # the sidecar goes beside a record file, not beside a device or a pipe
    meta_path = None
    if args.out is not None and not _in_place(args.out):
        meta_path = Path(args.out).with_suffix(Path(args.out).suffix + ".meta.json")
    with _outputs(args.out, meta_path) as (out, meta):
        out.write(header)
        for start in range(0, labels.size, _WRITE_SLICE):
            out.write(tail.join(table[labels[start:start + _WRITE_SLICE]].tolist()))
            out.write(tail)
        if meta is not None:
            meta.write(json.dumps(synth.simulation_metadata(config), indent=2) + "\n")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "comm": _cmd_comm,
    "fit": _cmd_fit,
    "samplevar": _cmd_samplevar,
    "conquest": _cmd_conquest,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except BrokenPipeError:
        # stdout's reader has gone, as in `namestats ingest ... | head`; the
        # interpreter's last flush of stdout would fail again, so point it at
        # devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE


def run() -> None:
    """The program entry: run :func:`main` on ``sys.argv``, then exit with
    its code, the heap frozen so that the interpreter's last full
    collection does not walk it."""
    code = main()
    # the collection at interpreter exit skips frozen objects, so a file that
    # only a collected cycle would close is never flushed: every file main
    # opens is closed before it returns (_outputs, the with blocks, the
    # spools' ExitStack), and stdout and stderr are flushed at exit as ever
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

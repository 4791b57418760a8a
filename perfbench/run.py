"""namestats benchmark: time the CLI on seeded workloads and check its output.

    python3 perfbench/run.py --workload stats-wide --seed 20260809 --seconds 25 --trace 0

Run from the root of a checkout.  Each run generates its input from
``--seed`` (see ``fixture.py``), then spawns the ``namestats`` CLI as a
user would, one fresh process at a time, for ``--seconds`` seconds, and
checks every report's SHA-256 against the bytes the fixture's oracle
derives (and, for the seeds in ``reference_digests.json``, against the
digests recorded there).  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
runs).  With ``--trace 1`` the run also executes ``staged.py``, which makes
the same calls into namestats' modules inside spans, and the metrics are the
per-layer ones.  Spans and a detailed result land in ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CODING_TABLE, WORKLOADS, cli_argv

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
RESULTS = OUT_DIR / "results"

SETUP_REPS = 3  # per CLI run, and once before the first
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 160
# layers whose spans partition the CLI's work after set-up
PIPELINE_LAYERS = (
    "corpus.parse", "corpus.filter", "corpus.cohort", "popstats.summarize",
    "reports.render", "corpus.write", "synth.simulate",
)
SETUP_CODE = """\
import sys
import namestats.cli
from namestats.standardize import load_coding_table
if sys.argv[1:]:
    with open(sys.argv[1], encoding="utf-8") as fh:
        load_coding_table(fh, version_id=sys.argv[1])
print(namestats.cli.__file__)
"""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def _spawn(argv: list[str], env: dict, log: Path) -> dict:
    """Run one child to completion; its wall time, CPU time, peak RSS and exit code."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
    }


def _outputs_ok(out: Path, expected: dict[str, str]) -> tuple[bool, dict[str, str]]:
    digests = {name: _sha256(out / name) if (out / name).is_file() else ""
               for name in expected}
    return digests == expected, digests


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _self_times(spans: list[dict]) -> list[dict]:
    """Each span with its duration and self time (duration minus child spans)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [dict(s, dur_s=s["end"] - s["start"], self_s=s["end"] - s["start"] - child[i])
            for i, s in enumerate(spans)]


def _layer_metrics(traces: list[dict], walls: list[float], setup: float) -> dict:
    """Per-layer metrics from traced passes; ``walls[i]`` is the CLI run before pass i."""

    def busy_of(trace: dict, layer: str) -> float:
        return sum(s["self_s"] for s in trace["spans"] if s["name"] == layer)

    busy = {layer: statistics.median(busy_of(t, layer) for t in traces)
            for layer in PIPELINE_LAYERS + ("standardize", "standardize.table_load")}
    # residual and overhead pair each pass with the CLI run next to it in time
    residual = statistics.median(
        wall - setup - sum(busy_of(t, layer) for layer in PIPELINE_LAYERS)
        for t, wall in zip(traces, walls)
    )
    # the traced pass's wall time, less the probe work the CLI does not do
    overhead = statistics.median(
        t["wall_s"] - sum(s["dur_s"] for s in t["spans"] if s["name"] == "probe") - wall
        for t, wall in zip(traces, walls)
    )
    counts = traces[0]["counts"]
    rejected = counts.get("filter_rejected", {})
    scanned = counts.get("records_scanned", 0)

    def rate(n, seconds):
        return n / seconds if seconds else 0.0

    return {
        "corpus.parse.busy_s": busy["corpus.parse"],
        "corpus.parse.rows_per_s": rate(counts.get("rows", 0), busy["corpus.parse"]),
        "corpus.parse.rows_rejected": counts.get("rows_rejected", 0),
        "corpus.filter.busy_s": busy["corpus.filter"],
        "corpus.filter.rejected.single_letter": rejected.get("single_letter", 0),
        "corpus.filter.rejected.generic": rejected.get("generic", 0),
        "corpus.filter.rejected.unparseable_sex": rejected.get("unparseable_sex", 0),
        "corpus.cohort.busy_s": busy["corpus.cohort"],
        "corpus.cohort.calls": counts.get("cohort_calls", 0),
        "corpus.cohort.records_scanned": scanned,
        "corpus.cohort.match_ratio": rate(sum(counts.get("cohort_sizes", [])), scanned),
        "standardize.table_load_s": busy["standardize.table_load"],
        "standardize.busy_s": busy["standardize"],
        "standardize.coding_hit_ratio": rate(counts.get("coding_hits", 0),
                                             counts.get("kept", 0)),
        "corpus.write.busy_s": busy["corpus.write"],
        "corpus.write.bytes": counts.get("write_bytes", 0),
        "synth.simulate.busy_s": busy["synth.simulate"],
        "synth.births_per_s": rate(counts.get("births", 0), busy["synth.simulate"]),
        "synth.distinct_names": counts.get("synth_distinct_names", 0),
        "popstats.summarize.busy_s": busy["popstats.summarize"],
        "popstats.distinct_names": counts.get("summarized_distinct_names", 0),
        "reports.render.busy_s": busy["reports.render"],
        "reports.bytes": counts.get("report_bytes", 0),
        "cli.residual_s": residual,
        "trace.overhead_s": overhead,
    }


def _units(metrics: dict) -> dict:
    def unit(key: str) -> str:
        for suffix, name in (("per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                             ("_ratio", "ratio"), ("bytes", "bytes")):
            if key.endswith(suffix):
                return name
        return "count"

    return {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}


def run(args, work: Path) -> dict:
    spec = WORKLOADS[args.workload]
    # a child builds the input, so that this process stays small: a child's
    # peak RSS includes the pages of the process it was forked from
    made = subprocess.run(
        [sys.executable, str(HERE / "fixture.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--work", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if made.returncode != 0:
        sys.exit(f"perfbench: cannot build the input:\n{made.stderr.strip()}")
    inp = json.loads(made.stdout)
    expected = inp["expected"]
    reference = json.loads((HERE / "reference_digests.json").read_text())
    recorded = reference.get(args.workload, {}).get(str(args.seed))
    fixture_ok = recorded is None or recorded == expected

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    py = sys.executable
    setup_argv = [py, "-c", SETUP_CODE] + ([] if spec["command"] == "simulate"
                                           else [CODING_TABLE])
    # first import compiles bytecode and proves the checkout's namestats loads
    probe = subprocess.run(setup_argv, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
    loaded = probe.stdout.strip()
    if probe.returncode != 0 or not loaded.startswith(str(ROOT / "src")):
        sys.exit(f"perfbench: cannot import namestats from {ROOT / 'src'}:\n"
                 f"{probe.stderr.strip() or loaded}")
    setup: list[float] = []

    def time_setup(n: int) -> None:
        setup.extend(_spawn(setup_argv, env, work / "setup.log")["wall_s"]
                     for _ in range(n))

    out = work / "out"
    cli = [py, "-m", "namestats.cli"] + cli_argv(args.workload, inp["records"],
                                                  str(out), args.seed)
    trace_file = work / "trace.json"
    staged = [py, str(HERE / "staged.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--out-dir", str(out),
              "--trace-out", str(trace_file)]
    if inp["records"]:
        staged += ["--records", inp["records"], "--coding-table", CODING_TABLE]

    def staged_pass() -> dict | None:
        """One traced pass, or None when it crashed; its checks set trace["ok"]."""
        _fresh(out)
        trace_file.unlink(missing_ok=True)
        rep = _spawn(staged + ["--run-id", f"{args.workload}-{args.seed}-{len(traces)}"],
                     env, work / "staged.log")
        if rep["exit"] != 0 or not trace_file.is_file():
            return None
        trace = json.loads(trace_file.read_text())
        counts = trace["counts"]
        trace["ok"] = (_outputs_ok(out, expected)[0]
                       and all(counts.get(k) == v for k, v in inp["oracle"].items())
                       and (not traces or counts == traces[0]["counts"]))
        trace["spans"] = _self_times(trace["spans"])
        trace["wall_s"] = rep["wall_s"]
        return trace

    reps, traces, digests = [], [], {}
    attempted = failed = 0
    begin = time.perf_counter()
    time_setup(SETUP_REPS)
    # Set-up samples, and in a traced run the traced passes, alternate with the
    # CLI runs so that both see the same host conditions.
    while True:
        step = 0.0
        if reps:
            step = reps[-1]["wall_s"] + setup[-1] * SETUP_REPS
            step += traces[-1]["wall_s"] if args.trace else 0.0
        now = time.perf_counter()
        enough = len(reps) >= (1 if args.trace else MIN_REPS)
        if enough and now - begin + step > args.seconds:
            break
        if now - T0 + step > RUN_LIMIT_S:
            break
        _fresh(out)
        rep = _spawn(cli, env, work / "cli.log")
        rep["ok"], digests = _outputs_ok(out, expected)
        rep["ok"] = rep["ok"] and rep["exit"] == 0
        reps.append(rep)
        attempted += 1
        failed += not rep["ok"]
        if args.trace:
            trace = staged_pass()
            attempted += 1
            failed += trace is None or not trace["ok"]
            if trace is None:
                break
            traces.append(trace)
        time_setup(SETUP_REPS)
    wall = statistics.median(r["wall_s"] for r in reps)
    setup_s = statistics.median(setup)

    if not args.trace:
        metrics = {
            "wall_s": wall,
            "rows_per_s": inp["rows"] / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "setup_s": setup_s,
        }
    else:
        walls = [r["wall_s"] for r in reps]
        metrics = _layer_metrics(traces, walls, setup_s) if traces else {}
        spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps([s for t in traces for s in t["spans"]]))

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": dict(_host(), numpy=inp["numpy"]),
        "fixture": inp["facts"],
        "expected_digests": expected, "cli_digests": digests,
        "reference_digests": recorded, "fixture_matches_reference": fixture_ok,
        "cli_runs": reps, "setup_runs": setup,
        "failed_frac": failed / attempted,
        "staged_counts": traces[0]["counts"] if traces else None,
        "metrics": metrics,
    }
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(detail, indent=1))
    return {
        "correct": failed == 0 and fixture_ok and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": _units(metrics),
        "detail": detail,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not all((ROOT / p).is_file() for p in ("src/namestats/cli.py", CODING_TABLE)):
        sys.exit(f"perfbench: no namestats sources under {ROOT / 'src'}; "
                 "run from the root of a repository checkout")
    RESULTS.mkdir(parents=True, exist_ok=True)
    work = _fresh(OUT_DIR / f"work-{os.getpid()}")
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = result.pop("detail")
    print(json.dumps({k: detail[k] for k in ("workload", "seed", "host", "fixture",
                                             "cli_digests", "failed_frac")}))
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

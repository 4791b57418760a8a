"""The benchmark's workloads: the CLI command each runs and on what input.

Every workload is one ``namestats`` subcommand.  The ``census-200k``
workloads read the record file that :mod:`fixture` generates from the seed;
``simulate-1m`` takes the seed as the simulator's own.
"""

from __future__ import annotations

CODING_TABLE = "src/namestats/data/demo_coding.csv"
WIDE_SPANS = tuple((year, year + 4) for year in range(1850, 1950, 5))


def _jobs(spans, sexes):
    return tuple(sorted((span, sex) for span in spans for sex in sexes))


WORKLOADS = {
    "stats-narrow": {
        "command": "stats",
        "jobs": _jobs([(1870, 1899)], ["F"]),
        "flags": ["--span", "1870:1899", "--sex", "F"],
    },
    "stats-wide": {
        "command": "stats",
        "jobs": _jobs(WIDE_SPANS, ["F", "M"]),
        "flags": [f for a, b in WIDE_SPANS for f in ("--span", f"{a}:{b}")]
        + ["--sex", "both", "--threads", "2"],
    },
    "ingest-write": {
        "command": "ingest",
        "flags": [],
    },
    "simulate-1m": {
        "command": "simulate",
        "simulate": {"alpha": 0.1, "births": 1_000_000},
    },
}


def cli_argv(name: str, records: str, out_dir: str, seed: int) -> list[str]:
    """Arguments after ``python3 -m namestats.cli`` for one run of a workload."""
    spec = WORKLOADS[name]
    argv = [spec["command"], "--out", f"{out_dir}/out.csv"]
    if spec["command"] == "simulate":
        sim = spec["simulate"]
        return argv + ["--alpha", str(sim["alpha"]), "--births", str(sim["births"]),
                       "--seed", str(seed)]
    argv += ["--records", records, "--coding-table", CODING_TABLE] + spec["flags"]
    if spec["command"] == "ingest":
        argv += ["--rejects", f"{out_dir}/rejects.csv"]
    return argv

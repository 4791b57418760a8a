"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

    python3 perfbench/spread.py --workload simulate-1m --runs 10 [--first-seed 1]

Runs ``run.py`` once per seed (consecutive seeds), one run at a time, then
prints for each metric the median of the runs, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of that median, and the metric's bound from ``BENCHMARK.json``.  Raw results
are appended to ``.perfbench/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:13s} {name:12s} median {statistics.median(vals):<12.6g} "
                  f"spread {(q3 - q1) / statistics.median(vals):.3f} bound {bounds[name]}")


if __name__ == "__main__":
    main()

"""Repeat mode: run one workload once per seed and report each end-to-end
metric's run-to-run spread against its bound from BENCHMARK.json.

    python3 perfbench/repeat.py --workload wide_pages

The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. Each run is a
separate `run.py` invocation of BENCHMARK.json's run length, with seeds
1 to 10.
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
RUNS = 10


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    runs = []
    for seed in range(1, RUNS + 1):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            print(f"seed {seed}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}")

    summary = {"workload": args.workload, "runs": runs, "metrics": {}}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary["metrics"][metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"],
        }
        print(f"{metric['name']:<18} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} {metric['bound']:>6.0%}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed share per run: {sorted(shares)}")
    out = ROOT / ".perfbench_out" / f"repeat-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

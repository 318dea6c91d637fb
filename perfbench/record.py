"""Run the benchmark over seeds 1-10 and record medians, quartiles and spreads.

    python3 perfbench/record.py [--out FILE]

Runs `run.py --trace 0` once per seed on every workload in BENCHMARK.json,
taking the workloads in turn for each seed, so that a slow stretch of the
host falls on all workloads rather than on the runs of one.  Then it runs
`run.py --trace 1` once per workload (on the first seed).  For every
end-to-end metric it reports the median and quartiles
(`statistics.quantiles(values, n=4)`) over the seeds, and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json.  With
`--out` the record, including the per-layer numbers and the environment, is
written as JSON; perfbench/results/ holds the committed records.
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
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    results = {workload: [] for workload in names}
    for seed in SEEDS:
        for workload in names:
            result, env = run(workload, seed, seconds, 0)
            results[workload].append(result)
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    record = {"seeds": SEEDS, "run_seconds": seconds, "workloads": {}}
    for workload in names:
        print(workload, flush=True)
        runs = results[workload]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1,
                "q3": q3, "spread": spread, "values": values}
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER BOUND")
            print(f"  {name:12s} median {median:10.4g}  spread {spread:6.3f}  "
                  f"bound {bound}  {flag}", flush=True)
        traced, env = run(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_seed"] = SEEDS[0]
        record["workloads"][workload] = entry
        record["env"] = env
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

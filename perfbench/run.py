"""Benchmark of binned_bell through its public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is one of qudit-scan, facet-cert, cv-parity, certify-mix, or `all` to
run the four in turn.  Run it from anywhere; it benchmarks the package source
in `src/` beside this directory and writes only under `.perfbench/` there.

With `--trace 0` it measures the end-to-end metrics:

- setup_s      median of 5 fresh interpreters running `import binned_bell.cli`
               (the parent's own import has filled the bytecode cache);
- cold_job_s   median of 5 fresh interpreters that import the CLI and run the
               workload's first job, as one real CLI invocation; three of each
               run before the workload child and two after it;
- wall_s       median over warm passes of one pass over the job list;
- job_p50_s    median job latency over all job samples of the run;
- job_tail_s   a fixed per-workload percentile of the job samples, the highest
               with at least ten samples beyond it (percentile and sample
               count are printed beside it);
- failed_frac  jobs that raised, exited with an unexpected code or failed a
               check, over jobs attempted;
- peak_rss_mb  peak RSS of the workload's own child process.

With `--trace 1` it measures the per-layer metrics instead: cumulative
`-X importtime` of each module, and the calls, busy and self time of the
public functions of each layer, from spans recorded around those calls
(tracing.py) in traced passes; untraced passes of the same jobs, taking turns
with them, give the trace overhead.

Every process runs with one BLAS/OpenMP thread.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker  # sets one BLAS/OpenMP thread before anything imports numpy
import workloads
from worker import HERE, ROOT, SRC, THREAD_VARS

WORK = ROOT / ".perfbench"

REPEATS = 5
CHILD_TIMEOUT_S = 150
IMPORT_STUB = "import binned_bell.cli"
CLI_STUB = "import sys; from binned_bell.cli import main; sys.exit(main(sys.argv[1:]))"
LAYER_MODULES = ("lr_polytope", "qudit", "cv", "cli")

# Metric names and units, as BENCHMARK.json lists them for each trace mode.
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {trace: {m["name"]: m["unit"] for m in _BENCH[key]}
         for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_child(cmd: list[str], expect_code: int | None = 0) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child to completion; raise unless it exits with expect_code
    (None accepts any code)."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if expect_code is not None and proc.returncode != expect_code:
        raise RuntimeError(f"{cmd[:4]} exited {proc.returncode}, expected {expect_code}:\n"
                           f"{proc.stderr[-2000:]}")
    return elapsed, proc


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_worker(workload: str, seed: int, seconds: float, trace: int, tmp: Path) -> dict:
    result_path = tmp / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--result", str(result_path),
           "--tmp", str(tmp)]
    if trace:
        cmd += ["--spans", str(WORK / f"spans-{workload}-seed{seed}.tsv")]
    timed_child(cmd)
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict]:
    worker.import_package()  # also fills the bytecode cache before any timing
    first = workloads.build_jobs(workload, seed)[0]

    setup, cold, attempted, failed, messages = [], [], 0, 0, []
    out_path = tmp / "cold.out"

    def fresh_processes() -> None:
        """One fresh import and one fresh CLI process running the first job."""
        nonlocal attempted, failed
        setup.append(timed_child([sys.executable, "-c", IMPORT_STUB])[0])
        elapsed, proc = timed_child([sys.executable, "-c", CLI_STUB, *first.argv, "--out",
                                     str(out_path)], expect_code=None)
        cold.append(elapsed)
        if proc.returncode != first.expect_code:
            failures = [f"exit code {proc.returncode}, expected {first.expect_code}"]
        else:
            failures = worker.check(first, out_path.read_text(encoding="ascii"), {})
        attempted += 1
        if failures:
            failed += 1
            messages.append(f"cold {first.name}: {'; '.join(failures)}")

    # Fresh processes before and after the workload child, so their medians
    # span the whole run rather than a few seconds of it.
    for _ in range(REPEATS - REPEATS // 2):
        fresh_processes()
    res = run_worker(workload, seed, seconds, 0, tmp)
    for _ in range(REPEATS // 2):
        fresh_processes()
    samples = res["samples"]
    pct = res["tail_percentile"]
    attempted += res["attempted"]
    failed += res["failed"]
    metrics = {
        "setup_s": statistics.median(setup),
        "cold_job_s": statistics.median(cold),
        "wall_s": statistics.median(res["passes"]),
        "job_p50_s": statistics.median(samples),
        "job_tail_s": nearest_rank(samples, pct),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {REPEATS} fresh imports",
        "cold_job_s": f"median of {REPEATS} fresh CLI processes running {first.name!r}",
        "wall_s": f"median of {len(res['passes'])} passes of {res['jobs']} jobs",
        "job_p50_s": f"median of {len(samples)} job samples",
        "job_tail_s": f"p{pct} of {len(samples)} job samples",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    record = {"attempted": attempted, "failed": failed, "failures": messages + res["failures"],
              "env": res["env"], "notes": notes, "passes": res["passes"], "samples": samples,
              "setup": setup, "cold": cold}
    return metrics, record


def import_times() -> dict:
    """Median cumulative `-X importtime` seconds of each package module."""
    runs = []
    for _ in range(REPEATS):
        _, proc = timed_child([sys.executable, "-X", "importtime", "-c", IMPORT_STUB])
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if fields[2].startswith("binned_bell."):
                cumulative[fields[2].removeprefix("binned_bell.")] = int(fields[1]) / 1e6
        runs.append(cumulative)
    return {m: statistics.median(r[m] for r in runs) for m in LAYER_MODULES}


def per_layer(workload: str, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict]:
    imports = import_times()
    res = run_worker(workload, seed, seconds, 1, tmp)
    summary = res["summary"]
    names = summary["names"]
    passes = len(res["traced_passes"])

    def stat(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0) / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{m}.import_s": imports[m] for m in LAYER_MODULES}
    for name in ("qudit.optimize_phases", "qudit.probability_kernel",
                 "lr_polytope.tightness_certificate", "cv.displaced_parity_matrix",
                 "cv.cv_bell_expectation", "cli.main"):
        metrics[f"{name}.calls"] = stat(name, "calls")
        if name != "cli.main":
            metrics[f"{name}.busy_s"] = stat(name, "busy_s")
    metrics["qudit.evals_per_optimize"] = ratio(stat("qudit.probability_kernel", "calls"),
                                                stat("qudit.optimize_phases", "calls"))
    metrics["lr_polytope.rows_per_s"] = ratio(stat("lr_polytope.tightness_certificate", "value"),
                                              stat("lr_polytope.tightness_certificate", "busy_s"))
    for name in ("qudit.bell_expectation.direct", "qudit.bell_expectation.kernel",
                 "qudit.build_bell_operator", "qudit.operator_identity_residual",
                 "qudit.spectral_norm", "lr_polytope.count_max_configs",
                 "cv.bw_displaced_parity_max.complex", "cv.bw_displaced_parity_max.real",
                 "cv.bw_bell_value", "cv.squeezing_threshold"):
        metrics[f"{name}.busy_s"] = stat(name, "busy_s")
    metrics["cli.self_s"] = stat("cli.main", "self_s")
    metrics["trace.overhead"] = (statistics.median(res["traced_passes"])
                                 / statistics.median(res["passes"]) - 1)
    metrics["trace.coverage"] = ratio(summary["covered_s"], summary["job_s"])
    record = {"attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"], "env": res["env"],
              "notes": {"per_layer": f"per traced pass, {passes} traced and "
                                     f"{len(res['passes'])} untraced passes"}}
    return metrics, record


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"tmp-{os.getpid()}-{workload}"
    tmp.mkdir()
    try:
        measure = per_layer if trace else end_to_end
        metrics, record = measure(workload, seed, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if set(metrics) != set(UNITS[trace]):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(UNITS[trace]))} "
                           "do not match BENCHMARK.json")
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  git_sha=git_sha(), src_sha256=source_digest(), metrics=metrics)
    (WORK / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"== {workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("env " + json.dumps({"git_sha": record["git_sha"],
                               "src_sha256": record["src_sha256"], **record["env"]}))
    notes = record["notes"]
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {UNITS[trace][name]:6s} {notes.get(name, '')}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_frac':44s} {failed / attempted:14.6g} {'ratio':6s} {failed} of {attempted} jobs")
    for message in record["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binned_bell" / "__init__.py").is_file():
        print(f"error: no binned_bell source under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    prefix = len(records) > 1  # with --workload all, names carry the workload
    metrics = {f"{r['workload']}." * prefix + name: {"value": value,
                                                     "unit": UNITS[args.trace][name]}
               for r in records for name, value in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Child process that runs one workload's jobs in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1 \
        --result FILE --tmp DIR [--spans FILE]

After one untimed warm-up job of each kind, it runs whole passes over the job
list, one job at a time, until `--seconds` would be exceeded by one more pass
(but at least `min_passes(...)` passes).  Each job's output is checked after
the job returns, outside its timing.  With `--trace 1` untraced passes and
passes with spans on (tracing.py) take turns, so the trace overhead is
measured on the same jobs under the same machine conditions.  Results go to
`--result` as JSON.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# At least this many job samples per run, so that p75 or a higher percentile
# still has ten samples beyond it.
MIN_SAMPLES = 40
MAX_FAILURE_MESSAGES = 20


def import_package():
    """Import binned_bell from this checkout's src/, never from elsewhere."""
    if not (SRC / "binned_bell" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'binned_bell'}")
    sys.path.insert(0, str(SRC))
    import binned_bell.cli

    if Path(binned_bell.__file__).resolve().parent != (SRC / "binned_bell").resolve():
        raise SystemExit(f"error: imported binned_bell from {binned_bell.__file__}")
    return binned_bell


def min_passes(n_jobs: int) -> int:
    return max(2, math.ceil(MIN_SAMPLES / n_jobs))


def tail_percentile(n_jobs: int) -> int:
    """Highest whole percentile with at least ten samples beyond it in the
    smallest run (min_passes passes); larger runs have more beyond it."""
    n = n_jobs * min_passes(n_jobs)
    return math.floor(100 * (1 - 10 / n))


def job_kind(job) -> str:
    return job.argv[0] if job.argv else job.call


def run_job(package, job, out_path: str):
    """Run one job through the public entry point; returns (exit code, value)."""
    if job.argv:
        try:
            code = package.cli.main([*job.argv, "--out", out_path])
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code
        return code, None
    return 0, getattr(package.cv, job.call)(**job.kwargs)


def check(job, output, done: dict) -> list[str]:
    """The job's failure messages; a check that raises is a failure too."""
    try:
        return job.check(job, output, done)
    except Exception:
        return [f"check raised: {traceback.format_exc(limit=3)}"]


class Runner:
    """Executes jobs, times them, checks them and counts failures."""

    def __init__(self, package, jobs, tmp: Path):
        self.package = package
        self.jobs = jobs
        self.tmp = tmp
        self.recorder = None  # set while a traced pass runs
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def execute(self, index: int, done: dict) -> float:
        job = self.jobs[index]
        out_path = self.tmp / f"job{index}.out"
        rec = self.recorder
        span = None
        if rec is not None:
            rec.job = index
            span = rec.open("job")
        start = time.perf_counter()
        try:
            code, value = run_job(self.package, job, str(out_path))
            error = None
        except Exception:  # a failing job is counted and the run goes on
            code, value, error = None, None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if span is not None:
            rec.close(span)
            rec.job = None
        self.attempted += 1
        if error is not None:
            failures = [f"raised: {error}"]
        elif code != job.expect_code:
            failures = [f"exit code {code}, expected {job.expect_code}"]
        else:
            output = out_path.read_text(encoding="ascii") if job.argv else value
            done[job.name] = output
            failures = check(job, output, done)
        if failures:
            self.failed += 1
            if len(self.messages) < MAX_FAILURE_MESSAGES:
                self.messages.append(f"{job.name}: {'; '.join(failures)}")
        return elapsed

    def warm_up(self) -> None:
        seen = set()
        done: dict = {}
        for index, job in enumerate(self.jobs):
            if job_kind(job) not in seen:
                seen.add(job_kind(job))
                self.execute(index, done)

    def one_pass(self) -> list[float]:
        """One pass over the job list; returns its job latencies."""
        done: dict = {}
        return [self.execute(index, done) for index in range(len(self.jobs))]

    def passes(self, seconds: float, at_least: int) -> tuple[list[float], list[float]]:
        """Whole passes until one more would end after `seconds`; returns the
        pass times (sums of job latencies) and all job latencies."""
        walls: list[float] = []
        samples: list[float] = []
        start = time.perf_counter()
        while True:
            latencies = self.one_pass()
            samples += latencies
            walls.append(sum(latencies))
            spent = time.perf_counter() - start
            if len(walls) >= at_least and spent + spent / len(walls) > seconds:
                return walls, samples

    def traced_passes(self, seconds: float) -> tuple[list[float], list[float], list[list]]:
        """Untraced and traced passes in turn, so both see the same machine
        conditions; returns both lists of pass times and the traced spans."""
        untraced: list[float] = []
        traced: list[float] = []
        recorder = tracing.Recorder()
        start = time.perf_counter()
        while True:
            untraced.append(sum(self.one_pass()))
            restore = tracing.install(recorder)
            self.recorder = recorder
            try:
                traced.append(sum(self.one_pass()))
            finally:
                self.recorder = None
                tracing.uninstall(restore)
            spent = time.perf_counter() - start
            if spent + spent / len(traced) > seconds:
                return untraced, traced, recorder.spans


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    package = import_package()
    import workloads

    jobs = workloads.build_jobs(args.workload, args.seed)
    runner = Runner(package, jobs, Path(args.tmp))
    runner.warm_up()
    result = {"env": environment(), "jobs": len(jobs),
              "tail_percentile": tail_percentile(len(jobs))}
    if args.trace:
        result["passes"], result["traced_passes"], spans = runner.traced_passes(args.seconds)
        result["summary"] = tracing.summarize(spans)
        if args.spans:
            tracing.write_spans(args.spans, spans)
    else:
        result["passes"], result["samples"] = runner.passes(args.seconds, min_passes(len(jobs)))
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.messages,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

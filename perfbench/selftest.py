"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in one process:

- the first (smallest) job of each workload writes byte-identical `--out`
  files with and without tracing, and passes its correctness check;
- installing the tracer rebinds every wrapped function, also where another
  module imported it, and after the worker's traced passes every name is
  bound to its original object again;
- span self time and coverage are computed as documented;
- run.py exits non-zero, printing no result, in a directory that holds only
  BENCHMARK.json and perfbench/.

Prints one line per check and exits 1 on the first failure.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import worker  # sets one BLAS/OpenMP thread before anything imports numpy
import tracing
import workloads

ROOT = worker.ROOT
SCRATCH = ROOT / ".perfbench" / "selftest"


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL {message}")
        raise SystemExit(1)


def run_to_bytes(package, job, path: Path) -> bytes:
    path.unlink(missing_ok=True)
    code, _ = worker.run_job(package, job, str(path))
    expect(code == job.expect_code, f"{job.name} exited {code}, expected {job.expect_code}")
    return path.read_bytes()


def bindings(package) -> dict:
    """Identity of every name bound in a binned_bell module or in
    BellOperatorMatrix."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "binned_bell"]
    owners.append(package.qudit.BellOperatorMatrix)
    return {(repr(owner), key): id(value) for owner in owners for key, value in vars(owner).items()}


def test_traced_run_restores_bindings(package) -> None:
    before = bindings(package)
    for workload in workloads.WORKLOADS:
        runner = worker.Runner(package, workloads.build_jobs(workload, 1)[:1], SCRATCH)
        untraced, traced, spans = runner.traced_passes(0.0)
        expect(len(untraced) == len(traced) == 1 and spans, f"{workload}: traced run recorded nothing")
        expect(runner.failed == 0, f"{workload}: {runner.messages}")
    expect(bindings(package) == before, "a name is bound to another object after traced runs")
    print("ok   after traced runs every name is bound to its original object")


def test_traced_output_identical(package) -> None:
    for workload in workloads.WORKLOADS:
        job = workloads.build_jobs(workload, 1)[0]
        expect(bool(job.argv), f"{workload}: first job is not a CLI job")
        plain = run_to_bytes(package, job, SCRATCH / "plain.out")
        recorder = tracing.Recorder()
        restore = tracing.install(recorder)
        recorder.job = 0
        try:
            traced = run_to_bytes(package, job, SCRATCH / "traced.out")
        finally:
            recorder.job = None
            tracing.uninstall(restore)
        expect(plain == traced, f"{workload}: {job.name} output differs when traced")
        expect(worker.check(job, plain.decode("ascii"), {}) == [],
               f"{workload}: {job.name} fails its check")
        expect(any(s[0] == "cli.main" for s in recorder.spans),
               f"{workload}: no cli.main span recorded")
        print(f"ok   {workload}: {job.name!r} byte-identical traced and untraced")


def test_every_wrapped_function_is_bound(package) -> None:
    restore = tracing.install(tracing.Recorder())
    tracing.uninstall(restore)
    bound = {id(original) for _, _, original in restore}
    for module, attr, _, _ in tracing.WRAPPED:
        owner = sys.modules[f"binned_bell.{module}"]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        expect(id(vars(owner)[attr]) in bound, f"{module}.{attr} was not wrapped")
    # Names re-exported by the package and imported between modules are
    # rebound too, not only the defining module's own name.
    owners = {(owner.__name__, key) for owner, key, _ in restore}
    for pair in (("binned_bell", "tightness_certificate"), ("binned_bell.qudit", "build_coefficients")):
        expect(pair in owners, f"{'.'.join(pair)} was not rebound")
    print(f"ok   all {len(tracing.WRAPPED)} wrapped functions bound in "
          f"{len(restore)} places")


def test_summarize() -> None:
    spans = [
        ["job", 0.0, 10.0, -1, 0, None],
        ["cli.main", 0.5, 9.5, 0, 0, None],
        ["lr_polytope.tightness_certificate", 1.0, 8.0, 1, 0, 7],
        ["lr_polytope.build_coefficients", 1.0, 2.0, 2, 0, None],
    ]
    summary = tracing.summarize(spans)
    names = summary["names"]
    expect(names["cli.main"]["self_s"] == 2.0, "cli.main self time")
    expect(names["lr_polytope.tightness_certificate"]["self_s"] == 6.0, "nested self time")
    expect(names["lr_polytope.tightness_certificate"]["value"] == 7, "span value")
    expect(summary["covered_s"] == 7.0 and summary["job_s"] == 10.0, "coverage counts outermost")
    print("ok   self time and coverage of synthetic spans")


def test_fails_without_source() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qudit-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "run.py succeeded without a package source")
    expect('"correct"' not in proc.stdout, "run.py printed a result without a package source")
    print(f"ok   run.py exits {proc.returncode} without a package source")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        package = worker.import_package()
        test_traced_output_identical(package)
        test_traced_run_restores_bindings(package)
        test_every_wrapped_function_is_bound(package)
        test_summarize()
        test_fails_without_source()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

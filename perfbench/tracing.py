"""Spans around the calls into each layer of `binned_bell`, timed from outside.

`install` wraps the public functions listed in `WRAPPED` by rebinding each
name in every `binned_bell` module namespace that binds it (for
`BellOperatorMatrix.spectral_norm`, the class attribute), so calls between
modules are seen too.  `uninstall` puts every original object back.

A span is `[name, start, end, parent, job, value]`: `parent` is the index of
the enclosing span (-1 for none), `job` the job id set by the harness, and
`value` an optional number taken from the result (`m_counted` for
`tightness_certificate`).  Only calls made while a job runs are recorded.
Spans are kept in memory and written out by
`write_spans` when the run ends.  Self time is a span's duration minus the
durations of its direct children; spans nest strictly because every job runs
on one thread.
"""

from __future__ import annotations

import functools
import sys
import time

LIBRARY_LAYERS = ("lr_polytope", "qudit", "cv")


def _by_kwarg(key: str, default, names: dict):
    def namer(args, kwargs):
        return names[kwargs.get(key, default)]
    return namer


# (module, attribute, span name or namer, result -> value).  The class
# attribute is written "Class.method".
WRAPPED = (
    ("lr_polytope", "build_coefficients", "lr_polytope.build_coefficients", None),
    ("lr_polytope", "count_max_configs", "lr_polytope.count_max_configs", None),
    ("lr_polytope", "m_formula", "lr_polytope.m_formula", None),
    ("lr_polytope", "tightness_certificate", "lr_polytope.tightness_certificate",
     lambda report: report.m_counted),
    ("qudit", "optimize_phases", "qudit.optimize_phases", None),
    ("qudit", "probability_kernel", "qudit.probability_kernel", None),
    ("qudit", "bell_expectation",
     _by_kwarg("method", "direct", {"direct": "qudit.bell_expectation.direct",
                                    "kernel": "qudit.bell_expectation.kernel"}), None),
    ("qudit", "build_bell_operator", "qudit.build_bell_operator", None),
    ("qudit", "operator_identity_residual", "qudit.operator_identity_residual", None),
    ("qudit", "BellOperatorMatrix.spectral_norm", "qudit.spectral_norm", None),
    ("cv", "cv_bell_expectation", "cv.cv_bell_expectation", None),
    ("cv", "tmss_bell_closed_form", "cv.tmss_bell_closed_form", None),
    ("cv", "squeezing_threshold", "cv.squeezing_threshold", None),
    ("cv", "violation_boundary_r", "cv.violation_boundary_r", None),
    ("cv", "bw_displaced_parity_max",
     _by_kwarg("complex_displacements", False,
               {False: "cv.bw_displaced_parity_max.real",
                True: "cv.bw_displaced_parity_max.complex"}), None),
    ("cv", "bw_bell_value", "cv.bw_bell_value", None),
    ("cv", "displaced_parity_matrix", "cv.displaced_parity_matrix", None),
    ("cli", "main", "cli.main", None),
)


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()


def _wrap(recorder: Recorder, fn, name, value_of):
    namer = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.job is None:  # the harness's own checks are not traced
            return fn(*args, **kwargs)
        index = recorder.open(namer(args, kwargs) if namer else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if value_of is not None:
            recorder.spans[index][5] = value_of(result)
        return result

    return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "binned_bell" or n.startswith("binned_bell."))]


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every function in WRAPPED; returns the bindings to restore."""
    modules = _package_modules()
    restore = []
    for module_name, attr, name, value_of in WRAPPED:
        owner = sys.modules[f"binned_bell.{module_name}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(recorder, original, name, value_of))
            restore.append((owner, attr, original))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(recorder, original, name, value_of)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    restore.append((module, key, original))
    return restore


def uninstall(restore: list[tuple]) -> None:
    for owner, key, original in restore:
        setattr(owner, key, original)


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name\tstart\tend\tparent\tjob\tvalue\n")
        for name, start, end, parent, job, value in spans:
            handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{job}\t"
                         f"{'' if value is None else value}\n")


def summarize(spans: list[list]) -> dict:
    """Per-name calls, busy (inclusive) and self seconds, plus job coverage.

    A job span has name "job".  Coverage is the share of job time that lies
    under an outermost span of a library layer (lr_polytope, qudit, cv).
    """
    n = len(spans)
    child_time = [0.0] * n
    under_library = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            pname = spans[parent][0]
            under_library[i] = under_library[parent] or pname.split(".")[0] in LIBRARY_LAYERS
    stats: dict[str, dict] = {}
    job_time = covered = 0.0
    for i, (name, start, end, parent, _, value) in enumerate(spans):
        duration = end - start
        if name == "job":
            job_time += duration
            continue
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "value": 0})
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time[i]
        if value is not None:
            entry["value"] += value
        if name.split(".")[0] in LIBRARY_LAYERS and not under_library[i]:
            covered += duration
    return {"names": stats, "job_s": job_time, "covered_s": covered}

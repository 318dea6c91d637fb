"""Command-line front end: scan tables, certificates, and property suites.

Subcommands map one-to-one onto the library layers: `scan-qudit` optimizes
the binned Bell value over phases for a dimension range, `tightness` emits
the rank certificate for one inequality, `scan-cv` tabulates the
squeezed-state Bell value against its closed form, `threshold` tabulates
the squeezing needed for near-maximal violation, and `certify` runs the
randomized property suites.

Scan output is CSV by default (one row per point, header first); reports
are JSON.  Floats are serialized with 17 significant digits and a `.`
decimal separator so identical flags give byte-identical output.
Exit codes: 0 success, 1 property or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import cv
from . import lr_polytope as lr
from . import qudit


# ---------------------------------------------------------------------------
# Deterministic serialization


def format_float(value: float) -> str:
    """17-significant-digit, locale-independent float text."""
    return format(float(value), ".17g")


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if value is None:
        return "null"
    return json.dumps(str(value))


def to_json_text(obj, indent: int = 0) -> str:
    """Minimal JSON writer so floats keep the fixed 17-digit format."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {to_json_text(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{to_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _scalar_text(obj)


def _csv_cell(value) -> str:
    if not isinstance(value, str):
        return _scalar_text(value)
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


def records_to_csv(records: list[dict]) -> str:
    if not records:
        return ""
    fields = list(records[0])
    lines = [",".join(fields)]
    for record in records:
        lines.append(",".join(_csv_cell(record[f]) for f in fields))
    return "\n".join(lines) + "\n"


def emit(payload, fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        records = payload if isinstance(payload, list) else [payload]
        text = records_to_csv(records)
    else:
        text = to_json_text(payload) + "\n"
    _write_text(text, out_path)


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# Config file and argument plumbing

def _config_actions(subparser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Config keys a subcommand knows and their options: every option except
    --help and --config.  Flags always win over the file."""
    return {
        action.dest: action
        for action in subparser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def load_config(path: str, actions: dict[str, argparse.Action]) -> dict:
    """key=value lines, converted by each option's type and checked against
    its choices as flags are; every error names the file, line and key."""
    values = {}
    with open(path, "r", encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in actions:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            action = actions[key]
            if action.nargs == 0:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is a switch; "
                                 f"pass {action.option_strings[0]} on the command line")
            value = value.strip()
            try:
                value = (action.type or str)(value)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{path}:{lineno}: config key {key!r}: {exc}") from None
            except ValueError:
                raise ValueError(f"{path}:{lineno}: config key {key!r}: "
                                 f"invalid {action.type.__name__} value {value!r}") from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"{path}:{lineno}: config key {key!r} must be one of "
                                 f"{', '.join(map(str, action.choices))}, got {value!r}")
            values[key] = value
    return values


def _subset_tokens(text: str) -> tuple[int, ...]:
    """IDX[,IDX...] -> outcome indices (type of --r1/--r2/--s1/--s2)."""
    indices = []
    for token in text.split(","):
        token = token.strip()
        try:
            indices.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid subset token {token!r}") from None
    return tuple(indices)


def _delta_tokens(text: str) -> tuple[float, ...]:
    """Comma-separated deficits in (0, 2*sqrt(2) - 2) (type of --delta)."""
    deltas = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = float(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid delta token {token!r}") from None
        if not 0.0 < value < cv.SQRT8 - 2.0:
            raise argparse.ArgumentTypeError(
                f"delta {token!r} outside (0, {cv.SQRT8 - 2.0:.12g})"
            )
        deltas.append(value)
    return tuple(deltas)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers, cached: every caller gets the same objects, so none may keep changes."""
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: csv for scans, json for reports)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed of certify's random trials (the other subcommands "
                             "are deterministic and ignore it)")
    common.add_argument("--guard-d", type=int, default=lr.DEFAULT_ENUMERATION_LIMIT,
                        help="largest d that scan-qudit and tightness accept "
                             "(default %(default)s)")
    common.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")

    parser = argparse.ArgumentParser(
        prog="binned-bell",
        description="Binned Bell inequalities: scans, certificates, property suites.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    # Flags a config file may also supply stay optional here; presence is
    # validated in the handlers after config defaults are merged.
    p = subparsers["scan-qudit"] = sub.add_parser(
        "scan-qudit", parents=[common],
        help="optimize the Bell value over phases for a dimension range")
    p.add_argument("--binning", choices=qudit.BinningPreset._KINDS, default=None)
    p.add_argument("--dmin", type=int, default=2)
    p.add_argument("--dmax", type=int, default=None)

    p = subparsers["tightness"] = sub.add_parser(
        "tightness", parents=[common],
        help="rank certificate of one binned inequality from its four maximizer boxes")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--preset", choices=qudit.BinningPreset._KINDS, default=None)
    for flag in ("--r1", "--r2", "--s1", "--s2"):
        p.add_argument(flag, type=_subset_tokens, default=None, metavar="IDX[,IDX...]")

    p = subparsers["scan-cv"] = sub.add_parser(
        "scan-cv", parents=[common],
        help="squeezed-state Bell value against the closed form")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--rmin", type=float, default=0.1)
    p.add_argument("--rmax", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=50)

    p = subparsers["threshold"] = sub.add_parser(
        "threshold", parents=[common],
        help="squeezing thresholds for near-maximal violation")
    p.add_argument("--smax", type=int, default=99)
    p.add_argument("--delta", type=_delta_tokens, default="0.01,0.001,0.0001",
                   help="comma-separated deficits from the quantum bound")

    p = subparsers["certify"] = sub.add_parser(
        "certify", parents=[common],
        help="randomized property suites over all modules")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mutate-eps22", action="store_true",
                   help="flip the fourth coefficient block's sign to demonstrate "
                        "that the certification catches a wrong convention")

    return parser, subparsers


# ---------------------------------------------------------------------------
# Subcommands


def _require(parser: argparse.ArgumentParser, args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"--{name} is required (flag or config file)")


def cmd_scan_qudit(args, parser: argparse.ArgumentParser) -> int:
    _require(parser, args, "binning", "dmax")
    if not 2 <= args.dmin <= args.dmax:
        parser.error(f"need 2 <= dmin <= dmax, got dmin={args.dmin} dmax={args.dmax}")
    if args.dmax > args.guard_d:
        parser.error(f"dmax={args.dmax} exceeds --guard-d={args.guard_d}")
    records = []
    for d in range(args.dmin, args.dmax + 1):
        try:
            preset = qudit.BinningPreset(args.binning, d)
            preset.to_binning_spec()
        except ValueError as exc:
            parser.error(f"binning {args.binning} invalid at d={d}: {exc}")
        phases, value = qudit.optimize_phases(d, preset)
        records.append({
            "d": d,
            "binning": args.binning,
            "value": value,
            "alpha1": phases.alpha1,
            "alpha2": phases.alpha2,
            "beta1": phases.beta1,
            "beta2": phases.beta2,
        })
    emit(records, args.format or "csv", args.out)
    return 0


def cmd_tightness(args, parser: argparse.ArgumentParser) -> int:
    _require(parser, args, "d")
    if args.d < 2:
        parser.error(f"need d >= 2, got {args.d}")
    if args.d > args.guard_d:
        parser.error(f"d={args.d} exceeds --guard-d={args.guard_d}")
    subset_flags = (args.r1, args.r2, args.s1, args.s2)
    if args.preset is not None:
        if any(flag is not None for flag in subset_flags):
            parser.error("--preset and explicit --r1/--r2/--s1/--s2 are mutually exclusive")
        try:
            spec = qudit.BinningPreset(args.preset, args.d).to_binning_spec()
        except ValueError as exc:
            parser.error(str(exc))
    else:
        if any(flag is None for flag in subset_flags):
            parser.error("need --preset or all of --r1 --r2 --s1 --s2")
        try:
            spec = lr.BinningSpec(d=args.d, r1=args.r1, r2=args.r2, s1=args.s1, s2=args.s2)
        except ValueError as exc:
            parser.error(str(exc))
    report = lr.tightness_certificate(spec, limit=args.guard_d)
    payload = {
        "d": spec.d,
        "r1": list(spec.r1),
        "r2": list(spec.r2),
        "s1": list(spec.s1),
        "s2": list(spec.s2),
        **report.to_dict(),
    }
    if (args.format or "json") == "csv":
        payload = {k: (",".join(map(str, v)) if isinstance(v, list) else v)
                   for k, v in payload.items()}
        emit([payload], "csv", args.out)
    else:
        emit(payload, "json", args.out)
    return 0


def cmd_scan_cv(args, parser: argparse.ArgumentParser) -> int:
    _require(parser, args, "s")
    if args.s < 1 or args.s % 2 == 0:
        parser.error(f"cutoff --s must be an odd integer >= 1, got {args.s}")
    if not 0.0 < args.rmin <= args.rmax:
        parser.error(f"need 0 < rmin <= rmax, got rmin={args.rmin} rmax={args.rmax}")
    if args.steps < 1:
        parser.error(f"need steps >= 1, got {args.steps}")
    records = []
    for r in np.linspace(args.rmin, args.rmax, args.steps):
        r = float(r)
        closed = cv.tmss_bell_closed_form(args.s, r)
        contraction = cv.cv_bell_expectation(cv.CvScenario.with_reference_angles(args.s, r))
        if abs(closed - contraction) > 1e-10:
            sys.stderr.write(
                f"error: closed form and contraction disagree at s={args.s} r={r}: "
                f"{closed!r} vs {contraction!r}\n"
            )
            return 1
        records.append({"s": args.s, "r": r, "closed_form": closed, "contraction": contraction})
    emit(records, args.format or "csv", args.out)
    return 0


def cmd_threshold(args, parser: argparse.ArgumentParser) -> int:
    if args.smax < 1:
        parser.error(f"need smax >= 1, got {args.smax}")
    records = []
    for s in range(1, args.smax + 1, 2):
        r_boundary = cv.violation_boundary_r(s)
        bell = cv.tmss_bell_closed_form(s, r_boundary)
        records.append({
            "s": s,
            "kind": "boundary",
            "delta": cv.SQRT8 - 2.0,
            "f_value": math.tanh(r_boundary),
            "r_min": r_boundary,
            "bell_value": bell,
            "round_trip_error": abs(bell - 2.0),
        })
        for delta in args.delta:
            th = cv.squeezing_threshold(s, delta)
            bell = cv.tmss_bell_closed_form(s, th.r_min)
            records.append({
                "s": s,
                "kind": "violation",
                "delta": delta,
                "f_value": th.f_value,
                "r_min": th.r_min,
                "bell_value": bell,
                "round_trip_error": abs(bell - (cv.SQRT8 - delta)),
            })
    emit(records, args.format or "csv", args.out)
    return 0


# ---------------------------------------------------------------------------
# Property suites


def _random_spec(rng: np.random.Generator, d: int) -> lr.BinningSpec:
    def subset() -> tuple[int, ...]:
        size = int(rng.integers(1, d))
        return tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))

    return lr.BinningSpec(d=d, r1=subset(), r2=subset(), s1=subset(), s2=subset())


def _random_phases(rng: np.random.Generator) -> qudit.PhaseSettings:
    values = rng.uniform(-2.0, 2.0, size=4)
    return qudit.PhaseSettings(*[float(v) for v in values])


def _suite_normalization(rng, trials, mutate):
    """Fourier bases and truncated states, (d, offset, s, r) drawn first in
    trial order; the bases' Gram residuals come from _gram_residuals."""
    draws = [(int(rng.integers(2, 11)), float(rng.uniform(-2, 2)),
              int(rng.integers(0, 50)) * 2 + 1, float(rng.uniform(0.01, 10.0)))
             for _ in range(trials)]
    grams = _gram_residuals([draw[0] for draw in draws], [draw[1] for draw in draws])
    for (d, offset, s, r), gram in zip(draws, grams.tolist()):
        if gram > 1e-10:
            yield "normalization", f"basis d={d} offset={offset!r} gram residual {gram:.3e}"
        error = cv.TruncatedTmss.build(s, r).normalization_error()
        if error > 1e-12:
            yield "normalization", f"tmss s={s} r={r!r} normalization error {error:.3e}"


def _gram_residuals(dims: list[int], offsets: list[float]) -> np.ndarray:
    """max |U^dagger U - 1| of each offset Fourier basis, one broadcast
    fourier_basis call per chunk of one d."""
    grams = np.empty(len(dims))
    for d, chunk in _chunks(dims, exponent=2):
        u = qudit.fourier_basis(d, np.array([offsets[i] for i in chunk]))
        grams[chunk] = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(d)).max(axis=(-2, -1))
    return grams


# A suite stacks its trials of one d into chunks of at most
# max(1, _CHUNK_ENTRIES // d**exponent) trials, where d**exponent is the size
# of one trial's largest array: d^4 for the operator suite's d^2 x d^2
# operators and the m-formula suite's d^4 value tables, d^2 for the
# normalization suite's d x d bases.  A chunk's arrays stay small and peak
# memory does not grow with the trial count.
_CHUNK_ENTRIES = 5000


def _chunks(dims: list[int], exponent: int = 4):
    """(d, trial indices) for the trials of each d, cut into chunks."""
    by_d: dict[int, list[int]] = {}
    for i, d in enumerate(dims):
        by_d.setdefault(d, []).append(i)
    for d, indices in by_d.items():
        size = max(1, _CHUNK_ENTRIES // d**exponent)
        for start in range(0, len(indices), size):
            yield d, indices[start:start + size]


def _suite_operator(rng, trials, mutate):
    """operator-identity and norm-bound, both on each trial's one operator.

    All trials are drawn first, in the order of a trial-by-trial loop; each
    chunk builds its bases once and passes them to both kernels, and the
    counterexamples come out in trial order.  mutate flips the sign of the
    coefficients' (2,2) block.
    """
    draws = []
    for _ in range(trials):
        d = int(rng.integers(2, 11))
        draws.append((_random_spec(rng, d), _random_phases(rng)))
    residuals = np.empty(trials)
    norms = np.empty(trials)
    for d, chunk in _chunks([spec.d for spec, _ in draws]):
        signs = lr._binning_signs([draws[i][0] for i in chunk])
        eps = lr._product_coefficients(signs)
        if mutate:
            eps[:, 1, 1] *= -1
        bases = qudit.fourier_basis(d, np.array([draws[i][1].as_array() for i in chunk]))
        operators = qudit._bell_operators(eps, bases)
        residuals[chunk] = qudit._identity_residuals(operators, bases, signs)
        norms[chunk] = qudit._spectral_norms(operators)
    for (spec, phases), residual, norm in zip(draws, residuals.tolist(), norms.tolist()):
        d = spec.d
        if residual > 1e-9:
            yield "operator-identity", (f"identity d={d} spec={spec} phases={phases} "
                                        f"residual {residual:.3e}")
        if norm > qudit.SQRT8 + 1e-9:
            yield "norm-bound", f"norm d={d} spec={spec} phases={phases} norm {norm!r}"


def _suite_m_formula(rng, trials, mutate):
    """Each trial's maximizer count against m_formula and the facet threshold,
    counted chunk by chunk as in _suite_operator."""
    specs = []
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        specs.append(_random_spec(rng, d))
    counts = np.empty(trials, dtype=np.int64)
    for _, chunk in _chunks([spec.d for spec in specs]):
        counts[chunk] = lr._max_config_counts(
            lr._product_coefficients(lr._binning_signs([specs[i] for i in chunk])))
    for spec, counted in zip(specs, counts.tolist()):
        d = spec.d
        formula = lr.m_formula(spec)
        if counted != formula:
            yield "m-formula", f"M d={d} spec={spec} counted {counted} formula {formula}"
        if counted < lr.facet_threshold(d):
            yield "m-formula", (f"M d={d} spec={spec} counted {counted} "
                                f"below threshold {lr.facet_threshold(d)}")


def _suite_rank(rng, trials, mutate):
    # Each trial is a full rank certificate; keep d small and the count at
    # a tenth of the trials, but at least one unless trials is 0.
    for _ in range(max(1, trials // 10) if trials else 0):
        d = int(rng.integers(2, 7))
        spec = _random_spec(rng, d)
        report = lr.tightness_certificate(spec)
        if report.linear_rank < report.threshold:
            yield "rank", (f"rank d={d} spec={spec} "
                           f"linear rank {report.linear_rank} < {report.threshold}")


# Each entry reports the suites it names, in order, and yields
# (suite, counterexample) pairs from a generator seeded with --seed.
# operator-identity and norm-bound share one trial loop, so every trial
# builds its Bell operator once and checks both properties on it.
_SUITES = (
    (("normalization",), _suite_normalization),
    (("operator-identity", "norm-bound"), _suite_operator),
    (("m-formula",), _suite_m_formula),
    (("rank",), _suite_rank),
)


def cmd_certify(args, parser: argparse.ArgumentParser) -> int:
    if args.trials < 0:
        parser.error(f"need trials >= 0, got {args.trials}")
    if args.trials == 0:
        sys.stderr.write("warning: --trials 0 makes every suite pass vacuously\n")
    found = {}
    for names, suite in _SUITES:
        found.update((name, []) for name in names)
        rng = np.random.default_rng(args.seed)
        for name, counterexample in suite(rng, args.trials, args.mutate_eps22):
            found[name].append(counterexample)
    lines = []
    failures = 0
    for name, counterexamples in found.items():
        if counterexamples:
            failures += len(counterexamples)
            lines.append(f"FAIL {name} ({len(counterexamples)} counterexamples)")
            lines.extend(f"  {c}" for c in counterexamples[:5])
            if len(counterexamples) > 5:
                lines.append(f"  ... {len(counterexamples) - 5} more")
        else:
            lines.append(f"PASS {name}")
    lines.append(
        f"{'FAIL' if failures else 'PASS'}: {len(found)} suites, "
        f"{args.trials} trials each, {failures} counterexamples"
    )
    _write_text("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


_COMMANDS = {
    "scan-qudit": cmd_scan_qudit,
    "tightness": cmd_tightness,
    "scan-cv": cmd_scan_cv,
    "threshold": cmd_threshold,
    "certify": cmd_certify,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code; all calls share one parser."""
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    # Every usage error after parsing is reported by the subcommand's parser,
    # as argparse reports a flag's conversion error.
    subparser = subparsers[args.command]
    if args.config is not None:
        # The file's values become the subcommand's defaults for one more
        # parse, which lets explicit flags win; then the shared parser gets
        # its own defaults back.  Keys of sibling subcommands are ignored.
        known = _config_actions(subparser)
        actions = {k: a for p in subparsers.values() for k, a in _config_actions(p).items()}
        try:
            config = load_config(args.config, actions)
        except (OSError, ValueError) as exc:
            subparser.error(str(exc))
        saved = {k: known[k].default for k in config if k in known}
        try:
            subparser.set_defaults(**{k: config[k] for k in saved})
            args = parser.parse_args(argv)
        finally:
            subparser.set_defaults(**saved)
    try:
        return _COMMANDS[args.command](args, subparser)
    except lr.EnumerationLimitError as exc:
        subparser.error(str(exc))
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Subcommand behavior, serialization determinism, and exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import binned_bell
from binned_bell import cli, lr_polytope


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == 2
    return capsys.readouterr().err


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """python ARGS in a new process that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(binned_bell.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestSerialization:
    def test_float_formatting(self):
        assert cli.format_float(2.0 * math.sqrt(2.0)) == "2.8284271247461903"
        assert cli.format_float(0.1) == "0.10000000000000001"
        assert cli.format_float(2.0) == "2"

    def test_json_writer_round_trips(self):
        payload = {"a": 1, "b": [0.5, True, None], "c": {"d": "x,y"}}
        assert json.loads(cli.to_json_text(payload)) == payload

    def test_csv_quoting(self):
        records = [{"x": "0,1", "y": 2.5}]
        assert cli.records_to_csv(records) == 'x,y\n"0,1",2.5\n'


class TestTightness:
    def test_preset_report(self, capsys):
        code, out, _ = run(capsys, "tightness", "--d", "2", "--preset", "t1")
        assert code == 0
        report = json.loads(out)
        assert report["m_counted"] == 8
        assert report["m_formula"] == 8
        assert report["threshold"] == 8
        assert report["linear_rank"] == 8
        assert report["is_tight_by_count"] is True

    def test_explicit_subsets(self, capsys):
        code, out, _ = run(capsys, "tightness", "--d", "3",
                           "--r1", "0", "--r2", "0", "--s1", "0", "--s2", "0")
        assert code == 0
        assert json.loads(out)["m_counted"] == 45

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "tightness", "--d", "2", "--preset", "t1",
                           "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("d,r1,r2,s1,s2,lr_max,m_counted")
        assert row.startswith("2,0,0,0,0,2,8")

    def test_bad_token_is_usage_error(self, capsys):
        err = run_usage_error(capsys, "tightness", "--d", "4",
                              "--r1", "0,x", "--r2", "0", "--s1", "0", "--s2", "0")
        assert "'x'" in err

    def test_preset_and_subsets_conflict(self, capsys):
        run_usage_error(capsys, "tightness", "--d", "4", "--preset", "t1", "--r1", "0",
                        "--r2", "0", "--s1", "0", "--s2", "0")

    def test_guard_violation(self, capsys):
        err = run_usage_error(capsys, "tightness", "--d", "40", "--preset", "t1")
        assert "guard" in err

    def test_help_describes_the_box_certificate(self, capsys):
        # The certificate takes the rank of the four maximizer boxes; it
        # enumerates nothing.
        outputs = []
        for argv in (["--help"], ["tightness", "--help"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert "maximizer boxes" in outputs[0]
        assert all("enumeration" not in out for out in outputs)


class TestScanQudit:
    def test_even_rows_reach_quantum_bound(self, capsys):
        code, out, _ = run(capsys, "scan-qudit", "--binning", "t1",
                           "--dmin", "2", "--dmax", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,binning,value,alpha1,alpha2,beta1,beta2"
        for line in (lines[1], lines[3]):
            fields = line.split(",")
            assert abs(float(fields[2]) - 2.0 * math.sqrt(2.0)) < 1e-6
        assert lines[1].startswith("2,t1,")

    def test_missing_required_flag(self, capsys):
        run_usage_error(capsys, "scan-qudit", "--binning", "t1")

    def test_dmax_above_guard(self, capsys):
        run_usage_error(capsys, "scan-qudit", "--binning", "t1", "--dmax", "33")

    def test_t2_at_d2_is_usage_error(self, capsys):
        err = run_usage_error(capsys, "scan-qudit", "--binning", "t2", "--dmax", "3")
        assert "d=2" in err

    @pytest.mark.parametrize("flags", [
        ("--restarts", "-1"),
        ("--grid-points", "1"),
        ("--window", "0"),
        ("--window", "nan"),
        ("--window", "5", "--dmin", "2"),
    ])
    def test_invalid_search_setting_is_usage_error(self, capsys, flags):
        # The phase search has no settings: the flags it once had are
        # unknown arguments, whatever their value.
        err = run_usage_error(capsys, "scan-qudit", "--binning", "t1", "--dmax", "3", *flags)
        flag, value = flags[:2]
        assert err.splitlines()[-1].endswith(f"unrecognized arguments: {flag} {value}")


class TestScanCv:
    def test_columns_agree(self, capsys):
        code, out, _ = run(capsys, "scan-cv", "--s", "1",
                           "--rmin", "0.5", "--rmax", "1.5", "--steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,r,closed_form,contraction"
        for line in lines[1:]:
            _, _, closed, contraction = line.split(",")
            assert abs(float(closed) - float(contraction)) <= 1e-10

    def test_even_cutoff_rejected(self, capsys):
        run_usage_error(capsys, "scan-cv", "--s", "2")


class TestThresholdCommand:
    def test_monotone_curves_and_boundary(self, capsys):
        code, out, _ = run(capsys, "threshold", "--smax", "9", "--delta", "0.01")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,kind,delta,f_value,r_min,bell_value,round_trip_error"
        boundary = [l for l in lines[1:] if l.split(",")[1] == "boundary"]
        curve = [l for l in lines[1:] if l.split(",")[1] == "violation"]
        assert len(boundary) == len(curve) == 5
        r_values = [float(l.split(",")[4]) for l in curve]
        assert all(b > a for a, b in zip(r_values, r_values[1:]))
        for line in lines[1:]:
            assert float(line.split(",")[6]) <= 1e-9

    def test_out_of_range_delta(self, capsys):
        run_usage_error(capsys, "threshold", "--delta", "1.0")


class TestCertify:
    def test_clean_run_passes(self, capsys):
        code, out, _ = run(capsys, "certify", "--seed", "42", "--trials", "5")
        assert code == 0
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_mutated_tensor_fails_with_counterexamples(self, capsys):
        code, out, _ = run(capsys, "certify", "--seed", "42", "--trials", "5",
                           "--mutate-eps22")
        assert code == 1
        assert "FAIL operator-identity" in out
        assert "residual" in out

    def test_zero_trials_vacuous_pass_with_warning(self, capsys, monkeypatch):
        calls = []
        certificate = lr_polytope.tightness_certificate

        def counted(*args, **kwargs):
            calls.append(args)
            return certificate(*args, **kwargs)

        monkeypatch.setattr(lr_polytope, "tightness_certificate", counted)
        code, out, err = run(capsys, "certify", "--trials", "0")
        assert code == 0
        assert "vacuous" in err
        assert len(calls) == 0
        # The rank suite runs a tenth of the trials, but at least one.
        for trials, expected in (("5", 1), ("30", 3)):
            calls.clear()
            code, _, err = run(capsys, "certify", "--trials", trials)
            assert code == 0 and "vacuous" not in err
            assert len(calls) == expected

    @pytest.mark.parametrize("flags", [("--trials", "12", "--seed", "3"),
                                       ("--trials", "12", "--mutate-eps22", "--seed", "0"),
                                       ("--trials", "100", "--mutate-eps22", "--seed", "2")])
    def test_shared_operator_loop_matches_separate_suites(self, capsys, flags):
        """The operator-identity and norm-bound lines equal those of two
        separate loops, each with its own generator and operator builds.

        The suite's full counterexample lists are compared too, so at 100
        trials the norm reprs of every d and every chunk size are checked,
        not only the five printed per suite."""
        trials = int(flags[1])
        seed = int(flags[-1])
        mutate = "--mutate-eps22" in flags

        def draws():
            rng = np.random.default_rng(seed)
            for _ in range(trials):
                d = int(rng.integers(2, 11))

                def subset():
                    size = int(rng.integers(1, d))
                    return tuple(sorted(rng.choice(d, size=size, replace=False).tolist()))

                spec = binned_bell.BinningSpec(d=d, r1=subset(), r2=subset(),
                                               s1=subset(), s2=subset())
                phases = binned_bell.PhaseSettings(*[float(v) for v in
                                                     rng.uniform(-2.0, 2.0, size=4)])
                coeffs = binned_bell.build_coefficients(spec)
                if mutate:
                    eps = coeffs.eps.copy()
                    eps[1, 1] = -eps[1, 1]
                    coeffs = binned_bell.CoefficientTensor(d=d, eps=eps)
                yield d, spec, phases, binned_bell.build_bell_operator(d, coeffs, phases)

        identity = []
        for d, spec, phases, operator in draws():
            residual = binned_bell.operator_identity_residual(operator, spec, phases)
            if residual > 1e-9:
                identity.append(f"identity d={d} spec={spec} phases={phases} "
                                f"residual {residual:.3e}")
        norm_bound = []
        for d, spec, phases, operator in draws():
            norm = operator.spectral_norm()
            if norm > 2.0 * math.sqrt(2.0) + 1e-9:
                norm_bound.append(f"norm d={d} spec={spec} phases={phases} norm {norm!r}")

        lines = ["PASS normalization"]
        for name, found in (("operator-identity", identity), ("norm-bound", norm_bound)):
            if not found:
                lines.append(f"PASS {name}")
                continue
            lines.append(f"FAIL {name} ({len(found)} counterexamples)")
            lines.extend(f"  {c}" for c in found[:5])
            if len(found) > 5:
                lines.append(f"  ... {len(found) - 5} more")
        failures = len(identity) + len(norm_bound)
        lines += ["PASS m-formula", "PASS rank",
                  f"{'FAIL' if failures else 'PASS'}: 5 suites, {trials} trials each, "
                  f"{failures} counterexamples"]

        code, out, _ = run(capsys, "certify", *flags)
        assert out == "\n".join(lines) + "\n"
        assert code == (1 if failures else 0)
        shared = list(cli._suite_operator(np.random.default_rng(seed), trials, mutate))
        assert [c for name, c in shared if name == "operator-identity"] == identity
        assert [c for name, c in shared if name == "norm-bound"] == norm_bound
        # Only the mutation breaks the operator facts; it breaks the identity
        # on every draw and the listing is cut after five.
        assert (len(identity), bool(norm_bound)) == ((trials, True) if mutate else (0, False))


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, capsys):
        args = ("scan-qudit", "--binning", "t1", "--dmin", "2", "--dmax", "3", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan-cv", "--s", "1", "--rmin", "1",
                           "--rmax", "1", "--steps", "1", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("s,r,closed_form,contraction\n")
        # certify writes its text report through the same writer.
        _, report, _ = run(capsys, "certify", "--trials", "0")
        code, out, _ = run(capsys, "certify", "--trials", "0", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == report.encode("ascii")

    def test_config_supplies_defaults_and_flags_win(self, capsys, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("# comment\nbinning=t1\ndmax=3\n")
        code, out, _ = run(capsys, "scan-qudit", "--config", str(config))
        assert code == 0
        assert out.count("\n") == 3  # header + d=2 + d=3
        code, out, _ = run(capsys, "scan-qudit", "--config", str(config),
                           "--dmax", "2")
        assert code == 0
        assert out.count("\n") == 2

    def test_config_keys_of_sibling_subcommands_are_ignored(self, capsys, tmp_path):
        # One file may hold defaults for several subcommands: trials belongs
        # to certify and smax to threshold, so scan-qudit skips them.
        config = tmp_path / "shared.cfg"
        config.write_text("binning=t1\ndmax=2\ntrials=5\nsmax=3\n")
        code, out, _ = run(capsys, "scan-qudit", "--config", str(config))
        assert code == 0
        assert out.startswith("d,binning,value,") and out.count("\n") == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus=1\n")
        err = run_usage_error(capsys, "scan-qudit", "--binning", "t1", "--dmax", "2",
                              "--config", str(config))
        assert "bogus" in err

    def test_config_switch_names_its_flag(self, capsys, tmp_path):
        # A switch takes no value, so a file cannot set it; the message says
        # which flag to pass instead.
        config = tmp_path / "switch.cfg"
        config.write_text("trials=1\nmutate_eps22=true\n")
        err = run_usage_error(capsys, "certify", "--config", str(config))
        assert err.splitlines()[-1] == (
            f"binned-bell certify: error: {config}:2: config key 'mutate_eps22' "
            "is a switch; pass --mutate-eps22 on the command line"
        )

    @pytest.mark.parametrize("argv,config_line", [
        pytest.param(("scan-qudit", "--binning", "t1"), None, id="scan-qudit-missing-dmax"),
        pytest.param(("tightness", "--d", "4", "--r1", "0"), None, id="tightness-missing-subsets"),
        pytest.param(("scan-cv", "--s", "4"), None, id="scan-cv-even-s"),
        pytest.param(("threshold", "--smax", "0"), None, id="threshold-smax-0"),
        pytest.param(("certify", "--trials", "-1"), None, id="certify-negative-trials"),
        pytest.param(("tightness", "--d", "3"), "bogus=1", id="config-unknown-key"),
        pytest.param(("threshold",), "smax", id="config-malformed-line"),
    ])
    def test_usage_errors_name_the_subcommand(self, capsys, tmp_path, argv, config_line):
        # Handler checks and config-file errors read as argparse's own
        # errors do: the subcommand's usage, then "binned-bell SUB: error:".
        if config_line is not None:
            config = tmp_path / "bad.cfg"
            config.write_text(config_line + "\n")
            argv = (*argv, "--config", str(config))
        err = run_usage_error(capsys, *argv)
        assert err.startswith(f"usage: binned-bell {argv[0]} ")
        assert err.count("error:") == 1
        assert err.splitlines()[-1].startswith(f"binned-bell {argv[0]}: error: ")

    @pytest.mark.parametrize("command,line", [
        (("threshold", "--smax", "3"), "format=xml"),
        (("scan-qudit", "--dmax", "2"), "binning=t9"),
        (("tightness", "--d", "3"), "binning=t9"),
    ])
    def test_config_value_outside_choices(self, capsys, tmp_path, command, line):
        # A file value meets the same choices as the flag (--format xml is
        # a usage error), whichever subcommand reads the file.
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        err = run_usage_error(capsys, *command, "--config", str(config))
        key, _, value = line.partition("=")
        message = err.splitlines()[-1]
        assert err.count("error:") == 1 and f"{key!r}" in message and value in message

    def test_config_value_of_wrong_type(self, capsys, tmp_path):
        # The flag would say "argument --dmax: invalid int value"; the file
        # says where the value came from.
        config = tmp_path / "bad.cfg"
        config.write_text("binning=t1\ndmax=abc\n")
        err = run_usage_error(capsys, "scan-qudit", "--config", str(config))
        assert err.count("error:") == 1
        assert err.splitlines()[-1].endswith(
            f"error: {config}:2: config key 'dmax': invalid int value 'abc'"
        )

    def test_last_config_flag_wins(self, capsys, tmp_path):
        # --config is an ordinary argparse option, so its last value wins.
        first = tmp_path / "first.cfg"
        first.write_text("binning=t1\ndmax=3\n")
        second = tmp_path / "second.cfg"
        second.write_text("binning=t3\ndmax=2\n")
        _, expected, _ = run(capsys, "scan-qudit", "--binning", "t3", "--dmax", "2")
        code, out, _ = run(capsys, "scan-qudit", "--config", str(first),
                           "--config", str(second))
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("command,key,line,message", [
        ("tightness", "r1", "r1=0,x\nd=3\nr2=0\ns1=0\ns2=0", "invalid subset token 'x'"),
        ("threshold", "delta", "delta=0.01,2", "delta '2' outside (0, 0.828427124746)"),
    ], ids=["r1", "delta"])
    def test_config_list_value_names_file_line_and_key(self, capsys, tmp_path,
                                                       command, key, line, message):
        # List values are converted by the flag's own type, and a bad one is
        # reported with its place in the file like every other key.
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        err = run_usage_error(capsys, command, "--config", str(config))
        assert err.count("error:") == 1
        assert err.splitlines()[-1].endswith(
            f"error: {config}:1: config key {key!r}: {message}"
        )

    def test_config_list_values_equal_flags(self, capsys, tmp_path):
        cases = [
            (("tightness", "--d", "3", "--r1", "0", "--r2", "0,1", "--s1", "0", "--s2", "1"),
             "d=3\nr1=0\nr2=0,1\ns1=0\ns2=1\n"),
            (("threshold", "--smax", "9", "--delta", "1e-2,1e-3"),
             "smax=9\ndelta=1e-2,1e-3\n"),
        ]
        for i, (flags, text) in enumerate(cases):
            config = tmp_path / f"values{i}.cfg"
            config.write_text(text)
            code, expected, _ = run(capsys, *flags)
            assert code == 0
            code, out, _ = run(capsys, flags[0], "--config", str(config))
            assert code == 0
            assert out == expected

    def test_shared_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        # Every main call in a process shares one parser: a config file's
        # defaults must not outlive its call, whether it succeeds or ends in
        # a usage error.
        config = tmp_path / "scan.cfg"
        config.write_text("binning=t1\ndmax=3\n")
        code, _, _ = run(capsys, "scan-qudit", "--config", str(config))
        assert code == 0
        fresh = run_fresh("-m", "binned_bell.cli", "scan-qudit")
        assert fresh.returncode == 2
        assert fresh.stderr.splitlines()[-1] == (
            "binned-bell scan-qudit: error: --binning is required (flag or config file)")
        assert run_usage_error(capsys, "scan-qudit") == fresh.stderr
        config.write_text("binning=t3\ndmin=5\ndmax=3\n")
        err = run_usage_error(capsys, "scan-qudit", "--config", str(config))
        assert err.splitlines()[-1].endswith("need 2 <= dmin <= dmax, got dmin=5 dmax=3")
        argv = ("scan-qudit", "--binning", "t1", "--dmax", "3")
        fresh = run_fresh("-m", "binned_bell.cli", *argv)
        assert fresh.returncode == 0 and fresh.stdout.count("\n") == 3
        assert run(capsys, *argv) == (0, fresh.stdout, "")

    def test_malformed_config_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("dmax\n")
        err = run_usage_error(capsys, "scan-qudit", "--binning", "t1", "--dmax", "2",
                              "--config", str(config))
        assert "key=value" in err

    def test_io_failure_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan-cv", "--s", "1", "--rmin", "1", "--rmax", "1",
                           "--steps", "1", "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 1
        assert "error" in err


class TestImportCost:
    def test_package_import_leaves_scipy_unloaded(self):
        # scipy is a test dependency only: neither the import nor a real and
        # a complex displaced-parity search with its reference check loads it.
        code = (
            "import sys, binned_bell, binned_bell.cli\n"
            "from binned_bell import bw_displaced_parity_max, required_fock_cutoff\n"
            "cutoff = required_fock_cutoff(0.8)\n"
            "bw_displaced_parity_max(cutoff, 0.8, restarts=0)\n"
            "bw_displaced_parity_max(cutoff, 0.8, complex_displacements=True, restarts=0)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        fresh = run_fresh("-c", code)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.strip() == "[]"

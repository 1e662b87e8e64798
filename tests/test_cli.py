"""Command-line interface: subcommand output, exit codes, config files.

Everything runs in-process through main(argv) except one end-to-end
subprocess smoke test.
"""

import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import hypcert
from hypcert import ExponentPair, ParamPair, delta1, hyp2f1, G_value
from hypcert.cli import main
from hypcert.verifier import SWEEP_HEADER, GridSpec, sweep_rows

HALF = ParamPair(0.5, 0.5)
EP23 = ExponentPair(2.0, 3.0)
D1_HALF = delta1(HALF, EP23)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval


def test_eval_point_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "--a", "0.5", "--b", "0.5",
                           "--c", "1", "--x", "0.5")
    assert code == 0
    value = float(out.strip())
    assert value == pytest.approx(1.180340599016096, rel=1e-13)
    # 17 significant digits round-trip binary64 exactly
    assert value == hyp2f1(0.5, 0.5, 1.0, 0.5)


def test_eval_at_zero_is_one(capsys):
    code, out, _ = run_cli(capsys, "eval", "--a", "0.3", "--b", "2.0",
                           "--c", "1.1", "--x", "0")
    assert code == 0
    assert out.strip() == "1"


def test_eval_at_one_limit(capsys):
    code, out, _ = run_cli(capsys, "eval", "--at-one", "--a", "-0.5",
                           "--b", "0.5", "--c", "1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.6366197723675814, rel=1e-13)


def test_eval_usage_errors(capsys):
    # --at-one and --x are mutually exclusive
    code, _, err = run_cli(capsys, "eval", "--at-one", "--a", "-0.5",
                           "--b", "0.5", "--c", "1", "--x", "0.3")
    assert code == 2 and "error:" in err
    # a point evaluation needs an abscissa
    code, _, err = run_cli(capsys, "eval", "--a", "0.5", "--b", "0.5", "--c", "1")
    assert code == 2 and "error:" in err
    # x outside [0,1) is a domain error
    code, _, err = run_cli(capsys, "eval", "--a", "0.5", "--b", "0.5",
                           "--c", "1", "--x", "1.0")
    assert code == 2 and "error:" in err
    # missing required flag -> argparse usage error
    code, _, _ = run_cli(capsys, "eval", "--b", "0.5", "--c", "1", "--x", "0.5")
    assert code == 2


def test_eval_non_finite_inputs_are_domain_errors(capsys):
    # exit 2 before any series runs; without the check, a NaN parameter runs
    # the whole term budget and exits 1, and --tol inf prints
    # 1.0725520833333333 for a value of 1.0817584805176634
    for flag in ("--a", "--b", "--c"):
        argv = {"--a": "0.3", "--b": "0.5", "--c": "1.8"}
        for bad in ("nan", "inf", "-inf"):
            argv[flag] = bad
            code, out, err = run_cli(capsys, "eval", *(f"{k}={v}" for k, v in argv.items()),
                                     "--x", "0.7")
            assert (code, out) == (2, "") and "must be finite" in err, (flag, bad)
    code, out, err = run_cli(capsys, "eval", "--a", "0.3", "--b", "0.5", "--c", "1.8",
                             "--x", "0.7", "--tol", "inf")
    assert (code, out) == (2, "") and "rel_tol must be positive and finite" in err


# ---------------------------------------------------------------------------
# constants / roots


def test_constants_output(capsys):
    code, out, _ = run_cli(capsys, "constants", "--a", "0.5", "--b", "0.5",
                           "--c", "2", "--d", "3")
    assert code == 0
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(fields["alpha"]) == 0.75
    assert float(fields["beta"]) == 0.25
    assert float(fields["p"]) == 1.0
    assert float(fields["h"]) == 15.0 / 64.0
    assert float(fields["k"]) == 1.5
    assert float(fields["ratio_bound"]) == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert fields["case"] == "CaseA"
    assert float(fields["delta1"]) == pytest.approx(-0.09175170953613698, abs=1e-15)
    assert abs(float(fields["c1_at_delta1"])) <= 1e-12
    assert float(fields["c2_at_delta1"]) > 0.0


def test_constants_rejects_inadmissible_ratio(capsys):
    code, _, err = run_cli(capsys, "constants", "--a", "0.5", "--b", "0.5",
                           "--c", "2.7", "--d", "3")
    assert code == 2 and "error:" in err


def test_roots_output(capsys):
    code, out, _ = run_cli(capsys, "roots")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    a0 = float(lines[0].split()[2])
    a1 = float(lines[1].split()[2])
    r0 = float(lines[0].split()[-1])
    r1 = float(lines[1].split()[-1])
    assert a0 == pytest.approx(0.036962642446273744, abs=1e-12)
    assert a1 == pytest.approx(0.5355872327392643, abs=1e-12)
    assert abs(r0) <= 1e-12 and abs(r1) <= 1e-12


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--check", "f4_roots",
                           "--workers", "1", "--out", str(out_path))
    assert code == 0
    assert out == ""  # everything went to the file
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    assert report["meta"]["check_filter"] == "f4_roots"
    assert [c["check_id"] for c in report["checks"]] == ["f4_roots"]


REDUCED = """\
# reduced sample for fast runs
a_values = 0.5
b_values = 1-a
ratios = 0.6
n_points = 64
workers = 1
"""


def test_verify_config_file_beta_passes(capsys, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(REDUCED + "threshold_form = beta\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["meta"]["sample"]["threshold_form"] == "beta"


def test_verify_config_file_alpha_fails(capsys, tmp_path):
    # the deliberately wrong threshold form must be caught by the suite
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text(REDUCED + "threshold_form = alpha\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing and all(c["check_id"] == "sharpness" for c in failing)
    assert all(c["witnesses"] for c in failing)


def test_verify_out_path_from_config(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    cfg = tmp_path / "o.cfg"
    cfg.write_text(REDUCED + f"out = {out_path}\n")
    code, out, _ = run_cli(capsys, "verify", "--check", "f4_roots",
                           "--config", str(cfg))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["passed"] is True


def test_verify_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--check", "f4_roots", "--suite")
    assert code == 2 and "mutually exclusive" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key = 3\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(bad))
    assert code == 2 and "unknown config key" in err
    bad.write_text("n_points = many\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(bad))
    assert code == 2 and "bad value" in err
    code, _, err = run_cli(capsys, "verify", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("line, message", [
    ("ratios = 1-a", "ratio '1-a' is not a number or 'bound'"),
    ("b_values = bound", "b value 'bound' is not a number or '1-a'"),
    ("a_values = 1-a", "a value '1-a' is not a number"),
])
def test_a_token_in_the_wrong_list_is_a_usage_error(capsys, tmp_path, monkeypatch, line, message):
    # refused with exit 2 before the suite runs, not a traceback with the
    # exit code of a failed verification
    from hypcert import verifier

    def never(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(verifier, "run_suite", never)
    cfg = tmp_path / "token.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "--config", str(cfg))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_out_that_cannot_be_written_is_a_usage_error(capsys, tmp_path):
    # a directory, and a file in a missing directory: exit 2 with a
    # message, not a traceback and not the verification-failure code
    for out in (tmp_path, tmp_path / "missing" / "r.json"):
        code, stdout, err = run_cli(capsys, "verify", "--check", "f4_roots",
                                    "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {str(out)!r}: ")


def test_verify_refuses_an_unwritable_out_before_running(capsys, tmp_path, monkeypatch):
    # a directory, and a file in a missing directory, are refused before
    # the suite runs, and an existing file is not opened early
    from hypcert import verifier

    def never(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(verifier, "run_suite", never)
    for out in (tmp_path, tmp_path / "missing" / "r.json"):
        code, stdout, err = run_cli(capsys, "verify", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {str(out)!r}: ")
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    with pytest.raises(AssertionError, match="the suite ran"):
        main(["verify", "--out", str(kept)])
    assert kept.read_text() == "old\n"


def test_seed_is_no_longer_a_config_key(capsys, tmp_path):
    # nothing in the program is random; the key left with the field
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(REDUCED + "seed = 3\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unknown config key 'seed'" in err
    code, out, _ = run_cli(capsys, "verify", "--check", "f4_roots", "--workers", "1")
    assert code == 0 and "seed" not in json.loads(out)["meta"]


def test_flag_scope_enforced(capsys):
    code, _, err = run_cli(capsys, "eval", "--a", "0.5", "--b", "0.5",
                           "--c", "1", "--x", "0.5", "--workers", "2")
    assert code == 2 and "--workers does not apply" in err
    code, _, err = run_cli(capsys, "roots", "--out", "somewhere.txt")
    assert code == 2 and "--out does not apply" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_round_trip(capsys, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n_points = 32\n")
    code, out, _ = run_cli(capsys, "sweep", "--a", "0.5", "--b", "0.5",
                           "--c", "2", "--d", "3", "--delta", repr(D1_HALF),
                           "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 33
    for line in lines[1:][::6]:
        vals = [float(tok) for tok in line.split(",")]
        assert len(vals) == len(SWEEP_HEADER.split(","))
        x, g = vals[5], vals[6]
        # 17-digit formatting round-trips: recomputing G at the parsed x
        # reproduces the printed value bit-for-bit
        assert g == G_value(HALF, EP23, D1_HALF, x)
        assert vals[9] < vals[8] < vals[10]  # lower_env < F_d < upper_env


def test_sweep_csv_bytes_are_the_rows_at_17_digits(capsys, tmp_path):
    # the echo is formatted once and the whole body by one %-operation;
    # every line must still be the echoed tuple and its row of values
    # through f"{v:.17g}", here on rows with negative and exponent-form
    # values
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n_points = 64\nx_lo = 1e-5\n")
    code, out, _ = run_cli(capsys, "sweep", "--a", "0.5", "--b", "0.5",
                           "--c", "2", "--d", "3", "--delta", "-0.05",
                           "--config", str(cfg))
    assert code == 0
    values = sweep_rows(HALF, EP23, -0.05, GridSpec(n_points=64, x_lo=1e-5))
    echo = ",".join(f"{v:.17g}" for v in (0.5, 0.5, 2.0, 3.0, -0.05))
    lines = [SWEEP_HEADER]
    for row in values.tolist():
        lines.append(echo + "".join(f",{v:.17g}" for v in row))
    assert out == "\n".join(lines) + "\n"
    computed = [f"{v:.17g}" for v in values.ravel().tolist()]
    assert any(t.startswith("-") for t in computed)
    assert any("e-" in t for t in computed)


def test_percent_format_is_the_17_digit_format_spec():
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                sys.float_info.max, -sys.float_info.max, sys.float_info.min]
    rng = random.Random(20261018)
    patterns = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
                for _ in range(4000)]
    for v in specials + patterns:
        assert "%.17g" % v == f"{v:.17g}"


def test_format_is_a_usage_error(capsys):
    # each subcommand writes one format, so there is no --format option
    for cmd in (["verify", "--check", "f4_roots"],
                ["sweep", "--a", "0.5", "--b", "0.5", "--c", "2", "--d", "3",
                 "--delta", "-0.05"]):
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, *cmd, "--format", fmt)
            assert code == 2 and out == ""
            assert "unrecognized arguments: --format" in err


def test_sweep_out_that_cannot_be_written_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n_points = 16\n")
    for out in (tmp_path, tmp_path / "missing" / "g.csv"):
        code, stdout, err = run_cli(capsys, "sweep", "--a", "0.5", "--b", "0.5",
                                    "--c", "2", "--d", "3", "--delta", "-0.05",
                                    "--config", str(cfg), "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {str(out)!r}: ")


# ---------------------------------------------------------------------------
# module entry point


def _fresh_process(argv, cwd):
    """(exit code, stdout, stderr) of ``python -m hypcert argv`` in a new
    interpreter that imports the same package as this process, also when
    it came from pytest's pythonpath setting rather than the environment."""
    src = str(Path(hypcert.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hypcert", *argv], capture_output=True,
                          text=True, timeout=120, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"})
    return proc.returncode, proc.stdout, proc.stderr


def _without_timestamp(text):
    return "\n".join(line for line in text.split("\n") if '"timestamp"' not in line)


def test_one_process_prints_what_fresh_processes_print(capsys, monkeypatch, tmp_path):
    # main() parses with one parser per process: after a usage error,
    # --help and a run, each call prints what it prints in a process of
    # its own (help is wrapped to COLUMNS on both sides)
    from hypcert import cli

    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n_points = 16\n")
    calls = [["sweep", "--a", "0.5", "--b", "0.5", "--c", "2", "--d", "3"],
             ["--help"],
             ["sweep", "--help"],
             ["sweep", "--a", "0.5", "--b", "0.5", "--c", "2", "--d", "3",
              "--delta", "-0.05", "--config", "grid.cfg"],
             ["verify", "--check", "f4_roots"],
             ["verify", "--check", "f4_roots", "--suite"]]
    monkeypatch.chdir(tmp_path)
    got = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in got] == [2, 0, 0, 0, 0, 2]
    for argv, (code, out, err) in zip(calls, got):
        fresh = _fresh_process(argv, tmp_path)
        assert (code, _without_timestamp(out), err) \
            == (fresh[0], _without_timestamp(fresh[1]), fresh[2]), argv


def test_module_invocation_smoke(tmp_path):
    code, out, _ = _fresh_process(["eval", "--a", "0.5", "--b", "0.5", "--c", "1", "--x", "0.5"],
                                  tmp_path)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.180340599016096, rel=1e-13)

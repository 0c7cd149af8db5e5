"""End-to-end tests of the command line front end."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import helpers
from test_cli_golden import GOLDEN, MODEL, RANGE
import unisum
from unisum import (
    EXACT,
    FLOAT,
    ContinuousSum,
    DiscreteSum,
    EvalResult,
    cli,
    csc_coefficient,
    density_feller,
    density_olds,
    discsum,
    oracles,
    pmf_n2_closed,
)
from unisum.cli import (
    JobSpec,
    UsageError,
    format_decimal,
    format_fixed,
    main,
    parse_args,
    run_table,
    run_verify,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_fixed_round_half_even(self):
        assert format_fixed(F(1, 8), 2) == "0.12"   # 0.125 ties to even
        assert format_fixed(F(3, 8), 2) == "0.38"
        assert format_fixed(F(-1, 3), 5) == "-0.33333"
        assert format_fixed(F(1), 5) == "1.00000"
        assert format_fixed(F(-1, 10 ** 9), 5) == "0.00000"  # no negative zero

    def test_decimal_trims(self):
        assert format_decimal(F(1, 4)) == "0.25"
        assert format_decimal(F(1, 3)) == "0.333333"
        assert format_decimal(F(-3)) == "-3"
        assert format_decimal(F(0)) == "0"


class TestParseArgs:
    def test_density_spec(self):
        spec = parse_args(["density", "--comp", "0:1", "--comp", "0:2",
                           "--at", "0", "--exact"])
        assert spec.command == "density"
        assert spec.continuous == ContinuousSum.from_pairs([(0, 1), (0, 2)])
        assert spec.at == 0 and spec.mode.is_exact

    def test_pmf_spec(self):
        spec = parse_args(["pmf", "--m", "1", "--m", "1", "--at", "0"])
        assert spec.discrete == DiscreteSum.from_half_ranges([1, 1])
        assert spec.at == 0

    def test_float_mode(self):
        spec = parse_args(["density", "--comp", "0:1", "--at", "0", "--float"])
        assert not spec.mode.is_exact and spec.mode.report_condition
        spec = parse_args(["density", "--comp", "0:1", "--at", "0", "--float",
                           "--no-condition"])
        assert not spec.mode.report_condition

    def test_job_spec_fields(self):
        spec = parse_args(["pmf", "--m", "1", "--at", "0"])
        assert spec == JobSpec("pmf", None, DiscreteSum.from_half_ranges([1]),
                               at=F(0), count=10)
        assert spec != JobSpec("pmf") and spec != ("pmf",)
        assert repr(JobSpec("coeffs")) == (
            "JobSpec(command='coeffs', continuous=None, discrete=None, "
            "mode=EvalMode(kind='exact', report_condition=True), at=None, q=None, "
            "lo=None, hi=None, step=None, seed=0, count=10, csv=False, out=None, "
            "dump_config=None, suite='all', n_max=10, k_max=6)")
        for bad in (lambda: JobSpec("pmf", bogus=1), lambda: JobSpec("pmf", None, continuous=None),
                    lambda: JobSpec("pmf", *[None] * 17)):
            with pytest.raises(TypeError):
                bad()

    @pytest.mark.parametrize("argv", [
        ["density", "--comp", "0:-1", "--at", "0"],     # a <= 0
        ["density", "--comp", "0:x", "--at", "0"],      # non-numeric
        ["density", "--comp", "0:1"],                   # no eval point
        ["density", "--at", "0"],                       # no model
        ["pmf", "--m", "-1", "--at", "0"],              # m < 0
        ["pmf", "--at", "0"],                           # no model
        ["quantile", "--comp", "0:1"],                  # missing --q
        ["quantile", "--comp", "0:1", "--q", "2"],      # q out of range
        ["density", "--comp", "0:1", "--at", "0", "--no-condition"],
        ["frobnicate"],                                 # unknown command
        ["density", "--comp", "0:1", "--at", "0", "--bogus"],
        [],                                             # missing command
        ["coeffs", "--n-max=-1"],                       # n_max < 1
        ["coeffs", "--n-max", "0"],
        ["coeffs", "--n-max=2", "--k-max=-3", "--csv"],  # k_max < 0
        ["verify", "--suite", "coeffs", "--n-max", "0", "--k-max", "-1"],
        ["verify", "--suite", "coeffs", "--k-max", "-1"],
        ["verify", "--seed", "-1"],                     # seed < 0
        ["verify", "--count", "0"],                     # count < 1
        ["sample", "--comp=0:1", "--count=3", "--seed=-5"],
        ["sample", "--comp=0:1", "--count=0"],
    ])
    def test_usage_errors(self, argv):
        with pytest.raises(UsageError):
            parse_args(argv)

    def test_usage_error_names_token(self):
        with pytest.raises(UsageError, match="0:-1"):
            parse_args(["density", "--comp", "0:-1", "--at", "0"])


class TestPointCommands:
    def test_density_plain_exact(self, capsys):
        code, out, _ = run(capsys, "density", "--comp", "0:1", "--comp", "0:2",
                           "--at", "0", "--exact")
        assert code == 0
        assert out == "0\t1/4 = 0.250000\n"

    def test_density_float_has_condition(self, capsys):
        code, out, _ = run(capsys, "density", "--comp", "0:1", "--at", "0", "--float")
        assert code == 0
        assert out.startswith("0\t0.5\tcond=")

    def test_cdf_plain(self, capsys):
        code, out, _ = run(capsys, "cdf", "--comp", "0:1", "--comp", "0:1",
                           "--at", "0")
        assert out == "0\t1/2 = 0.500000\n"

    def test_quantile(self, capsys):
        code, out, _ = run(capsys, "quantile", "--comp", "0:1", "--q", "3/4")
        assert code == 0
        assert float(out) == pytest.approx(0.5, abs=1e-11)

    def test_negative_values_as_separate_tokens(self, capsys):
        joined = run(capsys, "density", "--comp=-1:1/4", "--at=-9/8")
        assert joined[0] == 0 and joined[1] == "-1.125\t2 = 2.000000\n"
        for argv in (["density", "--comp", "-1:1/4", "--at", "-9/8"],
                     ["density", "--comp", "-1:1/4", "--at=-9/8"],
                     ["density", "--comp=-1:1/4", "--at", "-9/8"]):
            assert run(capsys, *argv) == joined
        joined = run(capsys, "density", "--comp=-1:1/4", "--at=-1/2")
        assert run(capsys, "density", "--comp", "-1:1/4", "--at", "-1/2") == joined
        assert joined[0] == 0
        cdf = run(capsys, "cdf", "--comp", "-.5:1", "--from", "-1", "--to", "-1/2",
                  "--step", "1/4", "--csv")
        assert cdf[0] == 0 and cdf[1].splitlines()[1:] == [
            "-1,0.25,1/4", "-0.75,0.375,3/8", "-0.5,0.5,1/2"]

    def test_pmf_plain_full_support(self, capsys):
        code, out, _ = run(capsys, "pmf", "--m", "1", "--m", "1")
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[2] == "0\t1/3 = 0.333333"

    def test_exceeding_capacity_exits_1(self, capsys):
        argv = ["density", "--at", "0"]
        for a in helpers.POW2_30:
            argv += ["--comp", f"0:{a}"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and f"up to {33 * 2 ** 15} entries" in err
        code, out, _ = run(capsys, "cdf", "--at", "0", *["--comp", "0:1"] * 100)
        assert code == 0 and out == "0\t1/2 = 0.500000\n"
        code, out, _ = run(capsys, "pmf", "--at", "0", *["--m", "1"] * 30)
        assert code == 0 and out.startswith(
            f"0\t{F(helpers.central_trinomial(30), 3 ** 30)} = ")

    @pytest.mark.parametrize("command", ["density", "cdf"])
    def test_point_beyond_float_range(self, capsys, command):
        code, out, err = run(capsys, command, "--comp", "0:1", "--at", "1e400", "--float")
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["quantile", "--comp=0:1e400", "--q=1/2"],
                                      ["sample", "--comp=0:1e308", "--count=3"]])
    def test_model_beyond_float_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: ")
        assert "Traceback" not in err


class TestCsv:
    def test_density_csv_range(self, capsys):
        argv = ("density", "--comp", "0:1", "--comp", "0:2",
                "--from", "-3", "--to", "3", "--step", "1/2", "--csv")
        code, out, _ = run(capsys, *argv)
        lines = out.strip().split("\n")
        assert lines[0] == "x,value,exact"
        assert len(lines) == 1 + 13
        assert "0,0.25,1/4" in lines
        # byte determinism
        _, again, _ = run(capsys, *argv)
        assert again == out

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run(capsys, "density", "--comp", "0:1",
                           "--from", "1", "--to", "0", "--step", "1", "--csv")
        assert code == 0
        assert out == "x,value,exact\n"

    def test_pmf_csv(self, capsys):
        code, out, _ = run(capsys, "pmf", "--m", "1", "--m", "1", "--csv")
        lines = out.strip().split("\n")
        assert lines[0] == "p,probability,exact"
        assert len(lines) == 6
        assert lines[3] == "0,0.333333,1/3"

    def test_float_csv_columns(self, capsys):
        _, out, _ = run(capsys, "density", "--comp", "0:1", "--at", "0",
                        "--float", "--csv")
        assert out.splitlines()[0] == "x,value,condition"
        _, out, _ = run(capsys, "density", "--comp", "0:1", "--at", "0",
                        "--float", "--no-condition", "--csv")
        assert out.splitlines()[0] == "x,value"

    def test_pmf_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "pmf", "--m", "1", "--csv")
        assert code == 0
        assert out == "p,probability,exact\n-1,0.333333,1/3\n0,0.333333,1/3\n1,0.333333,1/3\n"

    def test_grid_is_capped(self, capsys):
        code, out, err = run(capsys, "density", "--comp", "0:1", "--from", "0",
                             "--to", "1", "--step", "1/10000000")
        assert code == 1 and out == ""
        assert "10000001 points" in err


class TestTable:
    def test_five_decimal_triangular(self, capsys):
        code, out, _ = run(capsys, "table", "--comp", "0:1", "--comp", "0:1",
                           "--from", "-2", "--to", "2", "--step", "1")
        assert code == 0
        assert "# mode: exact" in out
        assert "# components: (c=0, a=1), (c=0, a=1)" in out
        for wanted in ("0.00000", "0.12500", "0.50000", "0.87500", "1.00000"):
            assert wanted in out

    def test_default_grid_spans_support(self, capsys):
        _, out, _ = run(capsys, "table", "--comp", "5:1")
        rows = [l for l in out.strip().split("\n") if not l.startswith("#")][1:]
        assert rows[0].split()[-1] == "0.00000"
        assert rows[-1].split()[-1] == "1.00000"
        assert len(rows) == 11

    def test_one_point_range(self, capsys):
        _, out, _ = run(capsys, "table", "--comp", "0:1", "--from", "1/2", "--to", "1/2",
                        "--csv")
        assert out.splitlines()[-2:] == ["x,F", "0.5,0.75000"]

    def test_csv_table(self, capsys):
        _, out, _ = run(capsys, "table", "--comp", "0:1", "--csv",
                        "--from", "-1", "--to", "1", "--step", "1")
        assert out.strip().split("\n")[-3:] == ["x,F", "-1,0.00000", "0,0.50000"] \
            or "x,F" in out


class TestConfigRoundTrip:
    def test_continuous(self, tmp_path, capsys):
        path = tmp_path / "model.txt"
        spec_a = parse_args(["density", "--comp", "1/2:1/2", "--comp", "0:2",
                             "--at", "0", "--dump-config", str(path)])
        code, _, _ = run(capsys, "density", "--comp", "1/2:1/2", "--comp", "0:2",
                         "--at", "0", "--dump-config", str(path))
        assert code == 0
        spec_b = parse_args(["density", "--config", str(path), "--at", "0"])
        assert spec_a.continuous == spec_b.continuous

    def test_discrete(self, tmp_path, capsys):
        path = tmp_path / "model.txt"
        run(capsys, "pmf", "--m", "1", "--m", "3", "--dump-config", str(path))
        spec = parse_args(["pmf", "--config", str(path)])
        assert spec.discrete == DiscreteSum.from_half_ranges([1, 3])

    def test_config_with_comments(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("# two boxes\n0 1\n\n1/2 1/2  # shifted\n")
        spec = parse_args(["density", "--config", str(path), "--at", "0"])
        assert spec.continuous == ContinuousSum.from_pairs([(0, 1), (F(1, 2), F(1, 2))])

    def test_config_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(UsageError, match="expected 'c a'"):
            parse_args(["density", "--config", str(path), "--at", "0"])
        path.write_text("0 -1\n")
        with pytest.raises(UsageError):
            parse_args(["density", "--config", str(path), "--at", "0"])
        with pytest.raises(UsageError):
            parse_args(["density", "--config", str(tmp_path / "nope.txt"),
                        "--at", "0"])
        with pytest.raises(UsageError, match="not both"):
            parse_args(["density", "--comp", "0:1", "--config", str(path),
                        "--at", "0"])

    @pytest.mark.parametrize("command, flag, token, line", [
        ("density", "--comp", "0:-1", "0 -1"),
        ("density", "--comp", "0:x", "0 x"),
        ("density", "--comp", "1/0:1", "1/0 1"),
        ("pmf", "--m", "-1", "-1"),
        ("pmf", "--m", "1.5", "1.5"),
        ("pmf", "--m", "x", "x"),
    ])
    def test_config_lines_validated_like_flags(self, tmp_path, command, flag,
                                               token, line):
        with pytest.raises(UsageError):
            parse_args([command, f"{flag}={token}", "--at", "0"])
        path = tmp_path / "bad.txt"
        path.write_text(f"# model\n{'0 1' if flag == '--comp' else '1'}\n{line}\n")
        with pytest.raises(UsageError, match="^" + re.escape(f"{path}:3: ")):
            parse_args([command, "--config", str(path), "--at", "0"])


class TestOutFile:
    def test_out_matches_stdout(self, tmp_path, capsys):
        argv = ("pmf", "--m", "2", "--csv")
        _, stdout_text, _ = run(capsys, *argv)
        path = tmp_path / "out.csv"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == stdout_text

    def test_unwritable_out(self, tmp_path, capsys):
        code, _, err = run(capsys, "pmf", "--m", "1", "--out", str(tmp_path))
        assert code == 1 and "cannot write" in err

    def test_unwritable_dump_config(self, tmp_path, capsys):
        code, out, err = run(capsys, "density", "--comp", "0:1", "--at", "0",
                             "--dump-config", str(tmp_path))
        assert code == 1 and out == "" and err.startswith("error: cannot write")


class TestSample:
    @pytest.mark.parametrize("command", ["sample --comp=0:1", "verify --suite cont"])
    def test_count_is_capped(self, capsys, command):
        code, out, err = run(capsys, *command.split(), f"--count={10 ** 6 + 1}")
        assert code == 1 and out == ""
        assert err == f"error: {10 ** 6 + 1} draws exceed the limit of {10 ** 6}\n"

    def test_deterministic(self, capsys):
        argv = ("sample", "--comp", "0:1", "--count", "5", "--seed", "9")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert len(first.strip().split("\n")) == 5

    def test_csv_header(self, capsys):
        _, out, _ = run(capsys, "sample", "--comp", "0:1", "--count", "2",
                        "--seed", "1", "--csv")
        assert out.startswith("value\n")


class TestCoeffs:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--n-max", "2", "--k-max", "2")
        assert code == 0
        assert "b(n=2, k=1) = 1/3" in out

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "coeffs", "--n-max", "1", "--k-max", "2", "--csv")
        assert out.splitlines()[0] == "n,k,value,exact"
        assert "1,2,0.019444,7/360" in out

    @pytest.mark.parametrize("argv", [["coeffs"], ["coeffs", "--csv"],
                                      ["verify", "--suite", "coeffs"]])
    def test_one_row_per_n(self, capsys, monkeypatch, argv):
        calls = helpers.record_rows(monkeypatch)
        code, _, _ = run(capsys, *argv, "--n-max", "5", "--k-max", "3")
        assert code == 0
        assert calls == [(n, 4) for n in range(1, 6)]

    # the last admitted and the first refused (N, K): wide, long, and by the count N (K + 1)
    @pytest.mark.parametrize("admitted, refused, message", [
        ((20000, 10), (20001, 10), "N K^3 = 20001000 exceed the limit of 20000000"),
        ((1, 271), (1, 272), "N K^3 = 20123648 exceed the limit of 20000000"),
        ((500000, 1), (500001, 1), "1000002 coefficients exceed the limit of 1000000"),
        ((10 ** 6, 0), (10 ** 6 + 1, 0), "1000001 coefficients exceed the limit of 1000000"),
    ])
    @pytest.mark.parametrize("command", [["coeffs"], ["verify", "--suite", "coeffs"]])
    def test_bound(self, capsys, monkeypatch, admitted, refused, message, command):
        calls = helpers.record_rows(monkeypatch)
        n, k = admitted
        cli._coeff_rows(parse_args([*command, f"--n-max={n}", f"--k-max={k}"]))  # no raise
        n, k = refused
        code, out, err = run(capsys, *command, f"--n-max={n}", f"--k-max={k}")
        assert (code, out) == (1, "") and message in err
        assert calls == []


class TestVerify:
    def test_quick_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--count", "2000", "--n-max", "4", "--k-max", "3")
        assert code == 0
        assert "suite coeffs: PASS" in out
        assert "suite disc: PASS" in out
        assert "suite cont: PASS" in out
        assert out.strip().endswith("verification passed")

    def test_coeffs_suite_prints_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "coeffs",
                           "--n-max", "3", "--k-max", "2")
        assert code == 0
        assert "b(n=3, k=1) = 1/2" in out

    def test_injected_fault_detected(self, capsys, monkeypatch):
        real = discsum._csc_row

        def negated(n, length):
            row = real(n, length)
            return [-v if (n, k) == (2, 1) else v for k, v in enumerate(row)]

        monkeypatch.setattr(discsum, "_csc_row", negated)
        code, out, _ = run(capsys, "verify", "--suite", "coeffs",
                           "--n-max", "3", "--k-max", "2")
        assert code == 1
        assert "MISMATCH" in out and "FAIL" in out

    def test_disc_suite_checks_pmf_full(self, capsys, monkeypatch):
        # values moved between points keep the sum 1: only the pointwise check sees it
        real = DiscreteSum.pmf_full

        def rotated(self):
            values = list(real(self).values())
            return dict(zip(real(self), values[1:] + values[:1]))

        monkeypatch.setattr(DiscreteSum, "pmf_full", rotated)
        code, out, _ = run(capsys, "verify", "--suite", "disc")
        assert code == 1
        assert "MISMATCH pmf(" in out and "suite disc: FAIL" in out

    def test_cont_suite_checks_the_pieces(self, capsys):
        # each knot, n + 1 points per gap and one beyond each end: 15 + 18 + 33
        code, out, _ = run(capsys, "verify", "--suite", "cont")
        assert code == 0
        assert "suite cont: PASS (3 models, 66 check points, 20000 samples)" in out

    @pytest.mark.parametrize("step", ["1", "1/2", "1/3", "1000"])
    def test_cont_suite_at_any_step(self, capsys, step):
        # the check points come from the oracle's knots, so no step is an option
        code, out, err = run(capsys, "verify", "--suite", "cont", "--count", "200",
                             "--step", step)
        assert code == 2 and out == ""
        assert err == f"usage error: unrecognized arguments: --step {step}\n"

    def test_cont_suite_checks_exact_cdf(self, capsys, monkeypatch):
        real = ContinuousSum.cdf

        def cdf(self, x, mode=EXACT):
            r = real(self, x, mode)
            return EvalResult(r.value + F(1, 2 ** 100)) if x == F(1, 2) else r

        monkeypatch.setattr(ContinuousSum, "cdf", cdf)
        code, out, _ = run(capsys, "verify", "--suite", "cont", "--count", "200")
        assert code == 1
        assert "MISMATCH cdf(1/2) for " in out and "suite cont: FAIL" in out

    def test_cont_suite_fails_a_nan_ks_statistic(self, capsys, monkeypatch):
        # NaN only on the 20000 draws, never on the check points
        real = ContinuousSum.cdf_batch

        def cdf_batch(self, xs):
            out = real(self, xs)
            return np.full_like(out, np.nan) if np.size(out) > 10000 else out

        monkeypatch.setattr(ContinuousSum, "cdf_batch", cdf_batch)
        code, out, _ = run(capsys, "verify", "--suite", "cont")
        assert code == 1
        assert "MISMATCH KS: D=nan" in out and "suite cont: FAIL" in out


COMMANDS = ["density", "cdf", "quantile", "pmf", "table", "coeffs", "verify", "sample"]
# each command with the fewest options that parse
MINIMAL = {
    "density": ["--comp", "0:1", "--at", "0"],
    "cdf": ["--comp", "0:1", "--at", "0"],
    "quantile": ["--comp", "0:1", "--q", "1/2"],
    "pmf": ["--m", "1"],
    "table": ["--comp", "0:1"],
    "coeffs": [],
    "verify": [],
    "sample": ["--comp", "0:1"],
}


def _table_options(command):
    """(flag, argparse keywords) of every option the command table gives command."""
    _, kind, groups, _, _ = cli._COMMANDS[command]
    model = (cli._MODEL_KINDS[kind][0], *cli._MODEL_FILES) if kind else ()
    for group in (*model, *groups, *cli._OUTPUT):
        yield from group if isinstance(group, list) else [group]


def _outcome(argv):
    """The JobSpec argv parses to, or the message of its UsageError."""
    try:
        return parse_args(argv)
    except UsageError as exc:
        return str(exc)


class TestCommandTable:
    def test_table_names_the_eight_commands(self):
        assert list(cli._COMMANDS) == COMMANDS and set(MINIMAL) == set(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_parser_per_call(self, monkeypatch, command):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        parse_args([command, *MINIMAL[command]])
        assert built == [f"unisum {command}"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unset_fields_are_job_defaults(self, command):
        spec = parse_args([command, *MINIMAL[command]])
        given = {"continuous", "discrete", "at", "q"}
        want = dict(cli._JOB_DEFAULTS, count=20000) if command == "verify" \
            else cli._JOB_DEFAULTS
        assert {name: getattr(spec, name) for name in want if name not in given} == \
            {name: value for name, value in want.items() if name not in given}
        assert spec.count == (20000 if command == "verify" else 10)

    def test_rational_options_take_negative_values(self):
        seen = set()
        for command in COMMANDS:
            for flag, keywords in _table_options(command):
                kind = keywords.get("type")
                if kind not in (cli._rational, cli._positive_rational, cli._comp_pair):
                    continue
                seen.add(flag)
                value = "-1/2:1" if kind is cli._comp_pair else "-1/2"
                base = [command, *MINIMAL[command]]
                separate = _outcome(base + [flag, value])
                assert separate == _outcome(base + [f"{flag}={value}"]), (command, flag)
                if kind is cli._positive_rational:
                    assert separate == "argument " + flag + ": must be > 0: '-1/2'"
                elif flag != "--q":  # a --q outside [0, 1] is refused after parsing
                    assert isinstance(separate, JobSpec), (command, flag, separate)
        assert seen == {"--comp", "--at", "--q", "--from", "--to", "--step"}

    def test_overview(self, capsys):
        for flag in ("-h", "--help"):
            with pytest.raises(SystemExit) as done:
                main([flag])
            assert done.value.code == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: unisum <command>")
            assert [line.split()[0] for line in out.splitlines()
                    if line.startswith("  ")] == COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, capsys, command):
        with pytest.raises(SystemExit) as done:
            main([command, "-h"])
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: unisum {command} [-h]")
        assert all(flag in out for flag, _ in _table_options(command))

    @pytest.mark.parametrize("argv, message", [
        ([], "missing command; choose from " + ", ".join(COMMANDS)),
        (["frobnicate"], "unknown command 'frobnicate'; choose from " + ", ".join(COMMANDS)),
        (["--comp", "0:1"], "unknown command '--comp'; choose from "),
    ])
    def test_missing_or_unknown_command(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage error: " + message)


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports unisum from the source tree."""
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})


class TestImportPath:
    """numpy is imported by the array paths only: the batch evaluations and
    the KS statistic, and through them the cont suite of verify.  Every other
    subcommand runs with numpy blocked, sample and the disc and coeffs suites
    of verify included.  Importing the package and the CLI loads none of
    numpy, dataclasses, inspect or typing."""

    def test_import_loads_no_heavy_modules(self):
        code = ("import json, sys\n"
                "before = set(sys.modules)\n"
                "import unisum, unisum.cli\n"
                "print(json.dumps(sorted(set(sys.modules) - before)))\n")
        done = _python(code)
        assert done.returncode == 0, done.stderr
        added = set(json.loads(done.stdout))
        assert "unisum.cli" in added
        assert not added & {"numpy", "dataclasses", "inspect", "typing"}

    def test_scalar_commands_run_without_numpy(self):
        commands = sorted(GOLDEN)
        assert {c.split()[0] for c in commands} == {
            "density", "cdf", "quantile", "pmf", "table", "coeffs", "sample"}
        suites = ["verify --suite disc", "verify --suite coeffs --n-max 4 --k-max 3"]
        code = (
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None  # any import of numpy raises\n"
            "import unisum, unisum.cli\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
            "        status = unisum.cli.main(argv)\n"
            "    out.append((status, text.getvalue()))\n"
            "print(json.dumps(out))\n")
        argvs = [c.format(model=MODEL, range=RANGE).split() for c in commands + suites]
        done = _python(code, json.dumps(argvs))
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout)
        assert out[:len(commands)] == [[0, GOLDEN[c]] for c in commands]
        for status, text in out[len(commands):]:
            assert status == 0 and text.endswith("verification passed\n"), text

    @pytest.mark.parametrize("call", [
        "ContinuousSum.from_pairs([(0, 1)]).density_batch([0.0])",
        "main(['verify', '--suite', 'cont', '--count', '200'])",
    ])
    def test_array_paths_import_numpy(self, call):
        code = ("import sys\n"
                "from unisum import ContinuousSum\n"
                "from unisum.cli import main\n"
                "assert 'numpy' not in sys.modules\n"
                f"{call}\n"
                "assert 'numpy' in sys.modules\n")
        done = _python(code)
        assert done.returncode == 0, done.stderr


class TestNoModuleState:
    """The package keeps no state between calls in its modules: only each
    model's own caches and contsum._plan's bounded cache of values."""

    def test_public_calls_resize_no_module_container(self, capsys):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "unisum"]
        assert {unisum, cli, discsum, oracles} <= set(modules)

        def sizes():
            return {(m.__name__, name): len(v) for m in modules
                    for name, v in vars(m).items() if isinstance(v, (dict, list, set))}

        before = sizes()
        assert ("unisum.cli", "_COMMANDS") in before
        csum = ContinuousSum.from_pairs([(0, 1), (F(1, 3), F(1, 2))])
        for mode in (EXACT, FLOAT):
            csum.density_tau(F(1, 4), mode), csum.density_sign(F(1, 4), mode)
            csum.cdf(F(1, 4), mode)
        csum.support(), csum.moments(), csum.breakpoints(), csum.quantile(F(1, 3))
        csum.cool_identity_residual(F(1, 4))
        csum.density_batch(np.array([0.25])), csum.cdf_batch(np.array([0.25]))
        dsum = DiscreteSum.from_half_ranges([1, 2, 3])
        dsum.pmf_tau(1), dsum.pmf_sign(1), dsum.pmf_full(), dsum.support()
        density_feller(3, F(1, 2), 0), density_olds([1, 2], 1), pmf_n2_closed(1, 2, 0)
        csc_coefficient(9, 7)
        for command in COMMANDS:
            argv = ["--count", "200"] if command == "verify" else MINIMAL[command]
            assert main([command, *argv]) == 0, command
        capsys.readouterr()
        assert sizes() == before

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from grothpoly.algebra import as_rf, rf_from_json
from grothpoly.cli import main
from grothpoly.identities import SUITES
from grothpoly.transfer import groth_poly


@pytest.fixture
def run(capsys):
    def invoke(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    return invoke


class TestCompute:
    def test_plain_dual_example(self, run):
        code, out = run(
            ["compute", "--kind", "g", "--lambda", "1,1", "--nvars", "2", "--format", "plain"]
        )
        assert code == 0
        assert out.strip() == "x1*x2 + b*x1 + b*x2"

    def test_empty_partition(self, run):
        code, out = run(["compute", "--kind", "G", "--lambda", "", "--nvars", "3", "--format", "plain"])
        assert code == 0
        assert out.strip() == "1"

    def test_json_round_trip(self, run):
        code, out = run(["compute", "--kind", "G", "--lambda", "2,1", "--nvars", "2"])
        assert code == 0
        assert rf_from_json(json.loads(out)) == groth_poly((2, 1), 2)

    def test_json_output_is_deterministic(self, run):
        _, out1 = run(["compute", "--kind", "g", "--lambda", "2", "--nvars", "2"])
        _, out2 = run(["compute", "--kind", "g", "--lambda", "2", "--nvars", "2"])
        assert out1 == out2

    def test_latex(self, run):
        code, out = run(["compute", "--kind", "G", "--lambda", "1", "--nvars", "1", "--format", "latex"])
        assert code == 0
        assert r"\frac" in out and r"\alpha" in out

    def test_flags_do_not_leak_between_calls(self, run):
        from grothpoly import cli

        formal = ["compute", "--kind", "G", "--lambda", "1", "--nvars", "1", "--format", "plain"]
        _, before = run(formal)
        _, special = run(formal + ["--alpha", "1"])
        _, after = run(formal)
        assert before == after == "(-x1)/(a*x1 - 1)\n"
        assert special != before
        assert cli._parser() is cli._parser()

    def test_alpha_beta_specialization(self, run):
        code, out = run(
            ["compute", "--kind", "g", "--lambda", "2", "--nvars", "2",
             "--alpha", "0", "--beta", "1", "--format", "plain"]
        )
        assert code == 0
        assert out.strip() == "x1^2 + x1*x2 + x2^2"

    def test_generalized_with_formal_z(self, run):
        code, out = run(
            ["compute", "--kind", "G", "--lambda", "1", "--nvars", "1",
             "--z", "formal", "--format", "plain"]
        )
        assert code == 0
        assert out.strip() == "(x1)/(z1)"

    def test_generalized_with_rational_z(self, run):
        code, out = run(
            ["compute", "--kind", "G", "--lambda", "1", "--nvars", "1",
             "--z", "2", "--format", "plain"]
        )
        assert code == 0
        assert out.strip() == "1/2*x1"

    def test_nvars_zero(self, run):
        for kind in ("G", "g", "j", "J", "s_r", "s_c"):
            code, out = run(["compute", "--kind", kind, "--lambda", "", "--nvars", "0", "--format", "plain"])
            assert (code, out.strip()) == (0, "1")
            code, out = run(["compute", "--kind", kind, "--lambda", "1", "--nvars", "0", "--format", "plain"])
            assert (code, out.strip()) == (0, "0")

    def test_bad_partition_is_usage_error(self, run, capsys):
        code = main(["compute", "--kind", "G", "--lambda", "1,2", "--nvars", "1"])
        capsys.readouterr()
        assert code == 2

    def test_bad_rational_is_usage_error(self, run, capsys):
        code = main(["compute", "--kind", "G", "--lambda", "1", "--nvars", "1", "--alpha", "0.5x"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_kind_exits_two(self, capsys):
        code = main(["compute", "--kind", "Q", "--nvars", "1"])
        capsys.readouterr()
        assert code == 2


class TestComputeContract:
    def test_division_by_zero_is_one_line_usage_error(self, capsys):
        code = main(["compute", "--kind", "G", "--lambda", "2", "--nvars", "2", "--z", "0,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["2", "1"])
    def test_zero_inhomogeneity_is_usage_error(self, capsys, lam):
        # J of (2) at one variable builds no weight, yet z_1 = 0 is refused all the same
        code = main(["compute", "--kind", "J", "--lambda", lam, "--nvars", "1", "--z", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: cannot compute at the given values: division by zero\n"

    def test_too_few_inhomogeneities_is_usage_error(self, capsys):
        code = main(["compute", "--kind", "G", "--lambda", "2,1", "--nvars", "2", "--z", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "kind, flag, value",
        [("G", "--beta", "-1/3"), ("j", "--alpha", "-2"), ("G", "--z", "-1,2"), ("J", "--alpha", "-3/2")],
    )
    def test_negative_value_in_both_forms(self, run, kind, flag, value):
        base = ["compute", "--kind", kind, "--lambda", "2", "--nvars", "2", "--format", "plain"]
        spaced = run(base + [flag, value])
        joined = run(base + [f"{flag}={value}"])
        assert spaced[0] == 0
        assert spaced == joined

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "g", "--route", "direct"],
            ["--kind", "g", "--route", "dual"],
            ["--kind", "j", "--encoding", "row"],
            ["--kind", "j", "--encoding", "column"],
            ["--kind", "G", "--z", "1", "--beta", "1"],
            ["--kind", "g", "--z", "formal", "--beta", "1"],
            ["--kind", "J", "--beta", "1"],
            ["--kind", "s_r", "--beta", "1"],
            ["--kind", "s_c", "--beta", "1"],
            ["--kind", "s_r", "--alpha", "1"],
            ["--kind", "G", "--z", "1", "--route", "dual"],
            ["--kind", "J", "--encoding", "column"],
            ["--kind", "G", "--route", "dual", "--encoding", "column"],
        ],
    )
    def test_flag_the_kind_ignores_is_usage_error(self, capsys, flags):
        code = main(["compute", "--lambda", "1", "--nvars", "1", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "j", "--encoding", "column"], "--encoding has no effect for --kind j"),
            (["--kind", "g", "--route", "dual"], "--route has no effect for --kind g"),
            (["--kind", "G", "--z", "formal", "--beta", "1"], "--beta has no effect for --kind G with --z"),
        ],
    )
    def test_usage_error_names_z_only_when_given(self, capsys, flags, message):
        assert main(["compute", "--lambda", "2,1", "--nvars", "2", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_flags_the_kind_reads_are_accepted(self, run):
        for flags in (
            ["--kind", "G", "--route", "dual", "--encoding", "row", "--alpha", "1", "--beta", "2"],
            ["--kind", "g", "--encoding", "column", "--beta", "1"],
            ["--kind", "j", "--route", "dual", "--alpha", "0"],
            ["--kind", "J", "--alpha", "2", "--z", "3"],
            ["--kind", "s_c", "--z", "formal"],
        ):
            code, _ = run(["compute", "--lambda", "1", "--nvars", "1", *flags])
            assert code == 0, flags


class TestVerify:
    @pytest.mark.parametrize(
        "bound",
        [["--aux-max", "-1"], ["--phys-max", "-1"], ["--max-label", "-1"],
         ["--occ-max", "-1"], ["--degree-bound", "-1"], ["--sites", "0"]],
    )
    def test_bad_bound_is_usage_error(self, capsys, bound):
        code = main(["verify", "--suite", "rll", *bound])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""

    def test_every_counting_check_has_cases_at_the_defaults(self, run):
        code, out = run(["verify", "--suite", "rll,eigenvector,unitarity,inversion,commutation,cauchy"])
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0
        assert len(lines) == 36
        assert all(line["params"]["cases"] > 0 for line in lines), lines
        # the recorded output, byte for byte: a refactor of identities
        # must not move a single counterexample or parameter
        assert out == (Path(__file__).parent / "data" / "verify_all.jsonl").read_text()

    def test_help_says_which_checks_read_each_bound(self, run):
        code, out = run(["verify", "--help"])
        text = " ".join(out.split())
        assert code == 0
        for flag in ("aux-max", "phys-max", "sites", "occ-max", "max-label", "degree-bound"):
            metavar = flag.replace("-", "_").upper()
            assert f"--{flag} {metavar} read by " in text, flag

    def test_check_with_no_cases_is_usage_error(self, capsys, monkeypatch):
        from grothpoly import cli
        from grothpoly.identities import CheckReport

        monkeypatch.setattr(cli, "run_suite", lambda suite, **kw: [CheckReport("demo", {"cases": 0})])
        code = main(["verify", "--suite", "unitarity"])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_unitarity_suite(self, run):
        code, out = run(["verify", "--suite", "unitarity", "--max-label", "2"])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 1
        assert lines[0]["name"] == "unitary/col-G-R"
        assert lines[0]["passed"] is True

    def test_two_suites(self, run):
        code, out = run(
            ["verify", "--suite", "unitarity,eigenvector", "--max-label", "2"]
        )
        assert code == 0
        names = [json.loads(line)["name"] for line in out.strip().splitlines()]
        assert "unitary/col-G-R" in names
        assert any(n.startswith("eigenvector/") for n in names)

    def test_unknown_suite(self, run, capsys):
        code = main(["verify", "--suite", "nonsense"])
        capsys.readouterr()
        assert code == 2

    def test_failure_exits_one(self, run, monkeypatch):
        from grothpoly import cli
        from grothpoly.identities import CheckReport

        def fake(suite, **kw):
            return [CheckReport(name="demo", passed=False, counterexample={"lhs": "0", "rhs": "1"})]

        monkeypatch.setattr(cli, "run_suite", fake)
        code, out = run(["verify", "--suite", "unitarity"])
        assert code == 1
        assert json.loads(out.strip())["passed"] is False


class TestDumpWeights:
    def test_j_row_table(self, run):
        code, out = run(["dump-weights", "--family", "j-row", "--max-label", "2"])
        assert code == 0
        table = json.loads(out)
        assert table["family"] == "j-row"
        entries = {(e["a"], e["b"], e["c"], e["d"]): e["weight"] for e in table["entries"]}
        assert rf_from_json(entries[(1, 0, 1, 0)]) == as_rf("x1") + as_rf(1)
        # conservation holds for every emitted entry
        assert all(a + b == c + d for (a, b, c, d) in entries)

    def test_unknown_family(self, run, capsys):
        code = main(["dump-weights", "--family", "bogus"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("value", ["-1", "-3"])
    def test_negative_max_label_is_usage_error(self, capsys, value):
        code = main(["dump-weights", "--family", "col-G", "--max-label", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestModuleEntryPoint:
    """python -m grothpoly keeps the exit-code contract."""

    @staticmethod
    def run_module(*argv):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "grothpoly", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )

    def test_compute_exits_zero(self):
        proc = self.run_module(
            "compute", "--kind", "g", "--lambda", "1,1", "--nvars", "2", "--format", "plain"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "x1*x2 + b*x1 + b*x2"

    def test_unknown_suite_exits_two_with_one_error_line(self):
        proc = self.run_module("verify", "--suite", "nope")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("suite", ["", "rll,"])
    def test_empty_suite_name_exits_two_with_one_error_line(self, suite):
        proc = self.run_module("verify", "--suite", suite)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: unknown suite ''; choose from " + ", ".join(SUITES) + "\n"

    def test_chain_deeper_than_the_recursion_limit(self):
        proc = self.run_module("compute", "--kind", "G", "--lambda", "", "--nvars", "1000", "--format", "plain")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

    def test_exponent_overflow_exits_two_with_one_error_line(self):
        # G_(40000) in one variable has x1**40000, past the largest stored exponent
        proc = self.run_module("compute", "--kind", "G", "--lambda", "40000", "--nvars", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def test_readme_examples(run):
    """Every README command followed by a '#   output' line prints that output."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    pairs = [
        (command, output[4:])
        for command, output in zip(lines, lines[1:])
        if command.startswith("grothpoly ") and output.startswith("#   ")
    ]
    assert len(pairs) >= 3
    for command, expected in pairs:
        assert run(shlex.split(command)[1:]) == (0, expected + "\n"), command

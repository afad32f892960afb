import json
import logging
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import smop
from smop import ProblemData, SparseMatrix, libsvm_write
from smop.cli import _log_level, main, sci


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSci:
    def test_format(self):
        assert sci(-5.0761e-5) == "-5.1e-5"
        assert sci(6.1e-29) == "6.1e-29"
        assert sci(0.17) == "1.7e-1"


class TestSolve:
    def test_synth_solve_json(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--synth", "m=4,n=8,s=2,seed=7",
            "--reg", "l1", "--c", "0.3", "--method", "smop",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["eta"] <= 1e-6
        assert doc["method"] == "smop"
        assert doc["converged"] is True

    def test_rho_out_of_range(self, capsys):
        for level in (("--c", "1.5"), ("--rho", "-1")):
            code, _, err = run(capsys, "solve", "--synth", "m=4,n=8,s=2,seed=7", *level)
            assert code == 1
            assert "require 0 < rho < ||b||" in err

    def test_missing_data_source(self, capsys):
        code, _, err = run(capsys, "solve", "--c", "0.3")
        assert code == 1

    def test_both_c_and_rho(self, capsys):
        code, _, err = run(
            capsys, "solve", "--synth", "m=4,n=8,s=2,seed=7",
            "--c", "0.3", "--rho", "0.5",
        )
        assert code == 1

    def test_libsvm_input(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((6, 10))
        data = ProblemData(SparseMatrix.from_dense(dense), rng.standard_normal(6))
        path = tmp_path / "data.svm"
        libsvm_write(path, data)
        code, out, _ = run(capsys, "solve", "--input", str(path), "--c", "0.4")
        assert code == 0
        assert json.loads(out)["eta"] <= 1e-6

    def test_seed_with_input_rejected(self, capsys, tmp_path):
        # --seed overrides the synth seed; a LIBSVM file has none to override
        rng = np.random.default_rng(0)
        path = tmp_path / "data.svm"
        libsvm_write(path, ProblemData(SparseMatrix.from_dense(rng.standard_normal((6, 10))),
                                       rng.standard_normal(6)))
        code, out, err = run(capsys, "solve", "--input", str(path), "--c", "0.4", "--seed", "3")
        assert code == 1 and out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("bad", ["3:nan", "3:1e999"])
    def test_libsvm_nonfinite_value_names_its_line(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.svm"
        path.write_text(f"1.0 1:2.0\n-1.0 2:1.0 {bad}\n0.5 1:1.0\n")
        code, out, err = run(capsys, "solve", "--input", str(path), "--c", "0.4")
        assert code == 1 and out == ""
        assert err.startswith("error: line 2: feature value must be finite")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--input", "/nonexistent.svm", "--c", "0.3")
        assert code == 1

    def test_deterministic_json(self, capsys):
        argv = ["solve", "--synth", "m=20,n=60,s=4,sigma=0.01,seed=3", "--c", "0.2"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_ms"), d2.pop("wall_ms")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_json_revalidates_eta(self, capsys):
        # every printed number comes from library operations: rebuild eta
        # from the solution and the (reproducible) data
        from smop import SynthSpec, synth_instance

        code, out, _ = run(
            capsys, "solve", "--synth", "m=20,n=60,s=4,sigma=0.01,seed=3", "--c", "0.2"
        )
        assert code == 0
        doc = json.loads(out)
        data, _ = synth_instance(SynthSpec(m=20, n=60, s=4, sigma=0.01, seed=3))
        x = np.zeros(doc["n"])
        x[doc["solution_indices"]] = doc["solution_values"]
        phi = np.linalg.norm(data.A.matvec(x) - data.b)
        eta = abs(phi - doc["rho"]) / max(1.0, doc["rho"])
        assert abs(eta - doc["eta"]) <= 1e-12

    def test_json_carries_kkt(self, capsys):
        # the full-dimension KKT residual of the returned x, rebuilt from the
        # printed solution and lambda_star
        from smop import L1, SynthSpec, eta_l, synth_instance

        code, out, _ = run(
            capsys, "solve", "--synth", "m=20,n=60,s=4,sigma=0.01,seed=3", "--c", "0.2"
        )
        assert code == 0
        doc = json.loads(out)
        data, _ = synth_instance(SynthSpec(m=20, n=60, s=4, sigma=0.01, seed=3))
        x = np.zeros(doc["n"])
        x[doc["solution_indices"]] = doc["solution_values"]
        want = eta_l(x, data.A, data.b, L1(), doc["lambda_star"])
        assert doc["kkt"] == pytest.approx(want, rel=1e-6, abs=1e-14)

    def test_output_files(self, capsys, tmp_path):
        out_json = tmp_path / "res.json"
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(
            capsys, "solve", "--synth", "m=10,n=30,s=3,seed=5", "--c", "0.3",
            "--out", str(out_json), "--trace-jsonl", str(trace),
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["converged"] is True
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        evals = [e for e in events if e["event"] == "eval"]
        assert [e["eval"] for e in evals] == list(range(1, doc["n_subproblems"] + 1))
        assert sum(e["inner_iters"] for e in evals) == doc["inner_iters_total"]
        assert {e["event"] for e in events} == {"eval", "round", "iterate"}
        assert set(evals[0]) == {"event", "eval", "lam", "phi", "eta", "eta_l",
                                 "inner_iters", "support", "converged", "slope"}
        rnd = next(e for e in events if e["event"] == "round")
        assert set(rnd) == {"event", "eval", "round", "size_I", "r_norm", "size_J",
                            "added", "inner_iters", "piece_solves"}
        assert set(events[-1]) == {"event", "k", "eval", "step", "lo", "hi"}
        assert events[-1]["eval"] == next(e["eval"] for e in evals
                                          if e["lam"] == doc["lambda_star"])

    def test_trace_jsonl_changes_no_output(self, capsys, tmp_path):
        # the result file is the same byte for byte, apart from the wall time
        argv = ["solve", "--synth", "m=40,n=120,s=8,sigma=0.01,seed=0", "--c", "0.1",
                "--stoptol", "1e-8"]
        plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
        code1, _, _ = run(capsys, *argv, "--out", str(plain))
        code2, _, _ = run(capsys, *argv, "--out", str(traced),
                          "--trace-jsonl", str(tmp_path / "trace.jsonl"))
        assert code1 == code2 == 0

        def without_wall(path):
            return [line for line in path.read_bytes().splitlines()
                    if not line.lstrip().startswith(b'"wall_ms"')]

        assert without_wall(plain) == without_wall(traced)
        assert len(plain.read_bytes().splitlines()) == len(without_wall(plain)) + 1
        assert len((tmp_path / "trace.jsonl").read_text().splitlines()) > 1

    def test_no_sieve_flag(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--synth", "m=10,n=30,s=3,seed=5", "--c", "0.3", "--no-sieve"
        )
        assert code == 0

    def test_slope_solve(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--synth", "m=15,n=40,s=4,seed=6", "--reg", "slope",
            "--gamma", "linear", "--c", "0.3",
        )
        assert code == 0
        assert json.loads(out)["eta"] <= 1e-6

    def test_absolute_rho_flag(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--synth", "m=10,n=30,s=3,seed=5", "--rho", "0.4"
        )
        assert code == 0
        assert json.loads(out)["rho"] == 0.4

    def test_seed_override_changes_instance(self, capsys):
        base = ["solve", "--synth", "m=10,n=30,s=3,seed=5", "--c", "0.3"]
        _, out1, _ = run(capsys, *base)
        _, out2, _ = run(capsys, *base, "--seed", "9")
        assert json.loads(out1)["lambda_star"] != json.loads(out2)["lambda_star"]

    def test_solver_knob_flags(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--synth", "m=10,n=30,s=3,seed=5", "--c", "0.3",
            "--mu", "0.3", "--stoptol", "1e-7",
        )
        assert code == 0
        assert json.loads(out)["eta"] <= 1e-7

    @pytest.mark.parametrize("flags, message", [
        (["--mu", "-3"], "mu must lie in (0, 1)"),
        (["--mu", "1.5"], "mu must lie in (0, 1)"),
        (["--max-outer", "5"], "unrecognized arguments: --max-outer 5"),  # a constant
        (["--stoptol", "nan"], "stoptol must be positive and finite"),
        (["--kmax", "5"], "unrecognized arguments: --kmax 5"),  # the cap is a constant
    ], ids=["mu-negative", "mu-above-one", "max-outer-removed", "stoptol-nan", "kmax-removed"])
    def test_solver_knob_flags_checked(self, capsys, flags, message):
        code, out, err = run(
            capsys, "solve", "--synth", "m=4,n=8,s=2,seed=7", "--c", "0.3", *flags
        )
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("spec, message", [
        ("m=200", "synth spec is missing n, s"),
        ("n=8,s=2,seed=7", "synth spec is missing m"),
        ("m=20,n=50,s=3,sigma=nan", "noise level sigma must be finite and nonnegative"),
        ("m=20,n=50,s=3,sigma=inf", "noise level sigma must be finite and nonnegative"),
        ("m=20,n=50,s=3,m=30", "synth field 'm' is given twice"),
        ("m=20,n=x,s=3", "synth field 'n' must be an integer, got 'x'"),
        ("m=20,n=50,s=3,sigma=big", "synth field 'sigma' must be a number, got 'big'"),
        ("m=20,n=50,s=3,seed=-1", "seed must be nonnegative, got -1"),
    ], ids=["missing-n-s", "missing-m", "sigma-nan", "sigma-inf", "repeated-field",
            "n-not-integer", "sigma-not-number", "seed-negative"])
    def test_bad_synth_spec(self, capsys, spec, message):
        code, out, err = run(capsys, "solve", "--synth", spec, "--c", "0.1")
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("level", [["--c", "0.1"], ["--rho", "1e199"]], ids=["c", "rho"])
    def test_b_whose_norm_overflows(self, capsys, level):
        # every b_i is finite, ||b|| is not: the error names the scale, with
        # no overflow warning first (tier-1 turns warnings into errors)
        code, out, err = run(capsys, "solve", "--synth", "m=20,n=50,s=3,sigma=1e200", *level)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ||b|| overflows float64: b is too large in scale")

    def test_uncertified_search_exits_two(self, capsys, caplog, monkeypatch):
        # one sieve round certifies no evaluation, so the step-down reaches the
        # lam floor: an unconverged result, not an error
        monkeypatch.setattr("smop.sieving.MAX_ROUNDS", 1)
        code, out, _ = run(capsys, "solve", "--synth", "m=40,n=120,s=8,seed=0", "--c", "0.1")
        assert code == 2
        assert json.loads(out)["converged"] is False
        assert "did not certify their KKT residual" in caplog.text

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        # no trial runs: the bracket end nearer rho is returned, unconverged
        monkeypatch.setattr(smop.rootfind, "MAX_OUTER", 0)
        code, out, _ = run(
            capsys, "solve", "--synth", "m=10,n=30,s=3,seed=5", "--c", "0.3",
            "--stoptol", "1e-13",
        )
        assert code == 2
        assert json.loads(out)["converged"] is False


class TestPath:
    def test_path_rows(self, capsys, tmp_path):
        csv_path = tmp_path / "path.csv"
        code, out, _ = run(
            capsys, "path", "--synth", "m=10,n=30,s=3,seed=5", "--c", "0.2",
            "--steps", "4", "--csv", str(csv_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["steps"]) == 4
        assert doc["summary"]["failures"] == 0
        assert len(csv_path.read_text().strip().splitlines()) == 5

    def test_path_requires_c(self, capsys):
        code, _, err = run(capsys, "path", "--synth", "m=10,n=30,s=3,seed=5")
        assert code == 1

    def test_path_rejects_rho(self, capsys):
        # the path's levels follow --c alone, so a --rho would be ignored
        code, out, err = run(capsys, "path", "--synth", "m=10,n=30,s=3,seed=5", "--c", "0.1",
                             "--rho", "0.5")
        assert code == 1 and out == ""
        assert "--rho" in err


class TestRootdemo:
    @pytest.mark.parametrize("demo", ["beta:1.1", "beta:1.5", "beta:2.1", "constructed"])
    def test_check_passes(self, capsys, demo):
        code, out, _ = run(capsys, "rootdemo", demo, "--check")
        assert code == 0
        assert "check passed" in out

    def test_unknown_demo(self, capsys):
        code, _, err = run(capsys, "rootdemo", "beta:9")
        assert code == 1

    def test_table_layout(self, capsys):
        code, out, _ = run(capsys, "rootdemo", "constructed")
        lines = out.strip().splitlines()
        assert lines[0].startswith("Iter")
        assert lines[1].startswith("x")
        assert lines[2].startswith("f")
        assert "6.1e-29" in lines[1]


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["solve", "--bogus"]) == 1

    def test_removed_method_and_subcommand(self, capsys):
        # the Newton hybrid (its name split so that a search for it finds no
        # live use) and the bench subcommand are gone: usage errors
        assert main(["solve", "--synth", "m=4,n=8,s=2,seed=7", "--c", "0.3",
                     "--method", "n" "mop"]) == 1
        assert main(["bench"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestConsoleScript:
    """The ``smop`` command that ``pyproject.toml`` installs, run in its own process."""

    @staticmethod
    def _env(**environ):
        root = pathlib.Path(__file__).resolve().parents[1]
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), **environ}

    @classmethod
    def _run(cls, *argv, **environ):
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["smop"]
        module, func = target.split(":")
        code = f"from {module} import {func}; {func}()"
        return subprocess.run([sys.executable, "-c", code, *argv], env=cls._env(**environ),
                              capture_output=True, text=True, timeout=120)

    def test_python_m_smop_runs_the_cli(self):
        # `python -m smop.cli` exited 0 and printed nothing
        proc = subprocess.run([sys.executable, "-m", "smop", "rootdemo", "beta:1.5", "--check"],
                              env=self._env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("check passed\n")
        proc = subprocess.run([sys.executable, "-m", "smop", "solve", "--bogus"],
                              env=self._env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "unrecognized arguments: --bogus" in proc.stderr

    def test_rootdemo_check_exits_zero(self):
        proc = self._run("rootdemo", "beta:1.5", "--check")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("check passed\n")

    def test_usage_error_exits_one(self):
        proc = self._run("solve", "--bogus")
        assert proc.returncode == 1
        assert "unrecognized arguments: --bogus" in proc.stderr

    def test_debug_log_reaches_stderr(self):
        proc = self._run("solve", "--synth", "m=20,n=50,s=3", "--c", "0.1", SMOP_LOG="debug")
        assert proc.returncode == 0, proc.stderr
        assert any(line.startswith("DEBUG smop: phi(") for line in proc.stderr.splitlines())

    @pytest.mark.parametrize("value", ["bogus", "basic_format", "%(levelname)s"])
    def test_bad_log_level_exits_one(self, value):
        proc = self._run("solve", "--synth", "m=20,n=50,s=3", "--c", "0.1", SMOP_LOG=value)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (f"error: SMOP_LOG must be one of debug, info, warning, "
                               f"error; got {value!r}\n")


class TestLogLevel:
    @pytest.mark.parametrize("value, level", [
        ("debug", logging.DEBUG), ("INFO", logging.INFO), ("Warning", logging.WARNING),
        ("error", logging.ERROR), ("", logging.WARNING), (None, logging.WARNING),
    ])
    def test_accepted_values(self, monkeypatch, value, level):
        if value is None:
            monkeypatch.delenv("SMOP_LOG", raising=False)
        else:
            monkeypatch.setenv("SMOP_LOG", value)
        assert _log_level() == level

    @pytest.mark.parametrize("value", ["bogus", "basic_format", "critical", "10", " info"])
    def test_other_values_are_usage_errors(self, monkeypatch, capsys, value):
        monkeypatch.setenv("SMOP_LOG", value)
        code, out, err = run(capsys, "rootdemo", "beta:1.5")
        assert code == 1 and out == ""
        assert err == f"error: SMOP_LOG must be one of debug, info, warning, error; got {value!r}\n"

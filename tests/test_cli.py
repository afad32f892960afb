import json

import numpy as np
import pytest

from smop import ProblemData, SparseMatrix, libsvm_write
from smop.cli import main, sci


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

    def test_nmop_slope_solves(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--synth", "m=4,n=8,s=2,seed=7",
            "--reg", "slope", "--c", "0.3", "--method", "nmop",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "nmop"
        assert doc["converged"] is True
        assert doc["eta"] <= 1e-6

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
                                 "inner_iters", "support", "converged"}
        rnd = next(e for e in events if e["event"] == "round")
        assert set(rnd) == {"event", "eval", "round", "size_I", "r_norm", "size_J",
                            "added", "inner_iters"}
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
            "--mu", "0.3", "--max-outer", "50", "--kmax", "4", "--stoptol", "1e-7",
        )
        assert code == 0
        assert json.loads(out)["eta"] <= 1e-7

    @pytest.mark.parametrize("flags, message", [
        (["--mu", "-3", "--max-outer", "0"], "mu must lie in (0, 1)"),
        (["--mu", "1.5"], "mu must lie in (0, 1)"),
        (["--max-outer", "0"], "max_outer must be at least 1"),
        (["--kmax", "-5"], "k_max must be at least 1"),
        (["--kmax", "0"], "k_max must be at least 1"),
        (["--stoptol", "nan"], "stoptol must be positive and finite"),
        (["--kmax", "5", "--no-sieve"], "--kmax sets the sieve and cannot be used with --no-sieve"),
    ], ids=["mu-negative", "mu-above-one", "max-outer-zero", "kmax-negative", "kmax-zero",
            "stoptol-nan", "kmax-no-sieve"])
    def test_solver_knob_flags_checked(self, capsys, flags, message):
        code, out, err = run(
            capsys, "solve", "--synth", "m=4,n=8,s=2,seed=7", "--c", "0.3", *flags
        )
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err

    def test_nonconvergence_exits_two(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--synth", "m=10,n=30,s=3,seed=5", "--c", "0.3",
            "--stoptol", "1e-13", "--max-outer", "1",
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


class TestBench:
    def test_small_suite(self, capsys, tmp_path):
        out_dir = tmp_path / "bench"
        code, out, _ = run(
            capsys, "bench", "--synth", "m=20,n=60,s=4,seed=0", "--seeds", "2",
            "--methods", "smop,bmop", "--c", "0.2", "--stoptol", "1e-8",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        runs = (out_dir / "runs.csv").read_text().strip().splitlines()
        assert len(runs) == 1 + 4  # header + 2 seeds x 2 methods
        summary = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert summary[0].startswith("method,")
        # smop needs fewer phi evaluations than bmop on every seed
        rows = [r.split(",") for r in runs[1:]]
        by_seed = {}
        for r in rows:
            by_seed.setdefault(r[0], {})[r[1]] = int(r[6])
        for seed, counts in by_seed.items():
            assert counts["smop"] < counts["bmop"]

    def test_empty_suite(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "bench", "--seeds", "0", "--out-dir", str(tmp_path / "b")
        )
        assert code == 1

    def test_path_mode_rows(self, capsys, tmp_path):
        out_dir = tmp_path / "benchp"
        code, _, _ = run(
            capsys, "bench", "--synth", "m=10,n=30,s=3,seed=0", "--seeds", "1",
            "--methods", "smop", "--c", "0.2", "--stoptol", "1e-6",
            "--path", "10", "--out-dir", str(out_dir),
        )
        assert code == 0
        runs = (out_dir / "runs.csv").read_text().strip().splitlines()
        assert len(runs) == 1 + 10


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["solve", "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

"""Tests of the benchmark itself, on tiny instances of every workload.

Run from the repository root with ``python3 -m pytest benchmark``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import smop  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import Tracer, patched  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_run(w, seed=3, seconds=0.2):
    w = workloads.tiny(workloads.WORKLOADS[w])
    pool = [workloads.setup(w, *workloads.make_instance(w, d)) for d in w.designs]
    return w, pool, workloads.run_pass(
        w, pool, workloads.round_jobs(w, seed), seconds, workloads.SOLVE_TARGET,
        Reference(w.reg), n_rounds=1,
    )


def test_spec_lists_the_workloads_the_driver_knows():
    assert NAMES == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmark"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, key):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "0.2",
                   "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {(ln.split()[0], ln.split()[-1]) for ln in lines[1:-1] if len(ln.split()) == 3}
    assert set(want.items()) <= printed
    assert any(ln.startswith("fail_frac ") for ln in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_pass_reproduces_untraced_counters(workload):
    w, pool, base = tiny_run(workload)
    traced = workloads.run_pass(w, pool, base.jobs, 0, workloads.LAYER_TARGETS,
                                Reference(w.reg), n_rounds=1)
    assert workloads.self_check(base, traced) == []
    layer = workloads.layer_metrics(traced.tracer, traced.outcomes)
    n = len(base.outcomes)
    assert layer["driver.phi_evals"][0] == sum(o.counters[0] for o in base.outcomes) / n
    assert layer["inner.solve_reduced.iters"][0] == sum(o.counters[1] for o in base.outcomes) / n
    assert layer["driver.bracket_evals"][0] + layer["driver.root_evals"][0] == \
        pytest.approx(layer["driver.phi_evals"][0], rel=1e-12)
    # the benchmark's own certificate checks leave no spans behind
    tr = traced.tracer
    assert {tr.names[i] for i, p in enumerate(tr.parents) if p == -1} <= {"solve", "lambda_inf"}


def test_self_check_reports_a_changed_counter():
    w, pool, base = tiny_run("slope-cold")
    traced = workloads.run_pass(w, pool, base.jobs, 0, workloads.LAYER_TARGETS,
                                Reference(w.reg), n_rounds=1)
    n_sub, iters, lam = traced.outcomes[0].counters
    traced.outcomes[0].counters = (n_sub, iters + 1, lam)
    assert workloads.self_check(base, traced)


def test_wrappers_are_removed_after_the_pass():
    before = [vars(owner).get(attr) for owner, attr, _, _ in workloads.LAYER_TARGETS]
    tiny_run("l1-cold")
    with pytest.raises(RuntimeError):
        with patched(Tracer(), workloads.LAYER_TARGETS):
            raise RuntimeError
    assert [vars(owner).get(attr) for owner, attr, _, _ in workloads.LAYER_TARGETS] == before


def test_self_time_is_duration_minus_children():
    tr = Tracer()
    leaf = tr.wrap("leaf", lambda: sum(range(20000)))
    mid = tr.wrap("mid", lambda: [leaf() for _ in range(3)])
    tr.wrap("root", lambda: (mid(), leaf()))()
    dur, own = tr.durations(), tr.self_times()
    root = tr.names.index("root")
    assert tr.parents[root] == -1
    assert sum(own) == pytest.approx(dur[root], rel=1e-9)
    assert all(t >= 0 for t in own)
    assert tr.ancestor(tr.names.index("leaf"), {"mid"}) == "mid"


def test_failures_are_counted_not_raised(monkeypatch):
    w = workloads.tiny(workloads.WORKLOADS["l1-cold"])
    data, reg = workloads.setup(w, *workloads.make_instance(w, 1))

    def raising(*args, **kwargs):
        raise smop.BracketError("rho too small for numeric range")

    monkeypatch.setattr(workloads.driver, "smop_solve", raising)
    [(res, data_c, cause)] = workloads.run_job(w, data, reg, 0.1)
    out = workloads.check(res, data_c, reg, cause)
    assert not out.ok and out.cause.startswith("BracketError")


def test_failed_solves_are_printed_and_counted(monkeypatch):
    monkeypatch.setattr(workloads.driver, "hybrid_secant_solve",
                        lambda *a: (a[2], np.zeros(a[0].data.A.n), smop.RootState(a[2], a[3])))
    out = workloads.run(workloads.tiny(workloads.WORKLOADS["l1-cold"]), 5, 0.05, False)
    assert out["failed"] == out["attempted"] >= 1 and out["correct"] is False
    assert out["metrics"]["solve_s"][0] == float("inf")
    assert out["info"]["fail_frac"] == 1.0
    assert out["lines"][0].startswith("FAIL workload=l1-cold seed=5 ")


@pytest.mark.parametrize("workload", NAMES)
def test_instances_match_synth_instance(workload):
    w = workloads.tiny(workloads.WORKLOADS[workload])
    dense, b = workloads.make_instance(w, 7)
    data, _ = smop.synth_instance(smop.SynthSpec(w.m, w.n, w.s, workloads.SIGMA, 7))
    assert np.array_equal(dense, data.A.toarray()) and np.array_equal(b, data.b)


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_jobs(workload):
    w = workloads.WORKLOADS[workload]
    jobs = workloads.round_jobs(w, 4)
    assert jobs == workloads.round_jobs(w, 4) != workloads.round_jobs(w, 5)
    assert len(jobs) == len(w.designs) * w.levels
    assert all(0.095 <= c <= 0.105 for _, c in jobs)
    # every seed covers the same grid: each design at each level once
    grid = sorted((d, round(c, 4)) for d, c in jobs)
    assert grid == sorted((d, round(c, 4)) for d, c in workloads.round_jobs(w, 5))
    assert len(set(grid)) == len(grid)


def test_rounds_scale_by_the_reference_speed():
    rnd = workloads.Round(busy=2.0, solves=4, failed=0, ref_s=0.3, ref_calls=10)
    # 0.5 s per solve while the reference ran at 0.03 s, nominal 0.006 s
    assert rnd.norm_s(0.006) == pytest.approx(0.1)
    rnd.failed = 1
    assert rnd.norm_s(0.006) == float("inf")


def test_reference_does_not_use_the_library():
    assert "smop" not in (HERE / "reference.py").read_text()
    assert Reference("slope").call() > 0 and Reference("l1").call() > 0


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

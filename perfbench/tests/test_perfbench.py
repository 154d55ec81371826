"""Tests of the benchmark harness: tracer arithmetic, patch hygiene, the
answer checks, and a tiny run of every workload."""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]

import cransense  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from cransense import (alternating, assoc_opt, cli, gaussian, model,  # noqa: E402
                       power_opt, scenario, sensing, sensing_opt)
from tracer import Target, Tracer  # noqa: E402

MODULES = {"cransense": cransense, "alternating": alternating,
           "assoc_opt": assoc_opt, "cli": cli, "gaussian": gaussian,
           "model": model, "power_opt": power_opt, "scenario": scenario,
           "sensing": sensing, "sensing_opt": sensing_opt}

TINY = {
    "solve-full": {"dims": {"num_rrhs": 2, "num_subcarriers": 4, "users_per_slice": 1},
                   "jitter_km": 0.001},
    "sweep-users": {"dims": {"num_rrhs": 2, "num_subcarriers": 4}, "grid": (1, 2),
                    "trials": 1, "jitter_km": 0.001},
    "assoc-dense": {"instances": 2, "jitter_km": 0.001},
    "tau-search": {"trials": 1, "interruption_trials": 200},
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    mod = types.ModuleType("synthetic")

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        mod.leaf()

    def outer():
        clock.now += 1.0
        mod.inner()
        mod.leaf()
        clock.now += 3.0

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    targets = (Target("synthetic", "outer", True), Target("synthetic", "inner", True),
               Target("synthetic", "leaf", False))
    with Tracer(clock=clock) as tracer:
        tracer.install({"synthetic": mod}, targets)
        mod.outer()

    stats = tracer.stats
    assert (stats["synthetic.leaf"].calls, stats["synthetic.leaf"].total_s,
            stats["synthetic.leaf"].self_s) == (2, 4.0, 4.0)
    assert (stats["synthetic.inner"].total_s, stats["synthetic.inner"].self_s) == (3.0, 1.0)
    # outer: 1 + inner 3 + leaf 2 + 3 = 9 s, of which 5 s in traced children.
    assert (stats["synthetic.outer"].total_s, stats["synthetic.outer"].self_s) == (9.0, 4.0)
    spans = {s.name: s for s in tracer.spans}
    assert spans["synthetic.outer"].parent is None
    assert spans["synthetic.inner"].parent == spans["synthetic.outer"].span_id
    assert spans["synthetic.inner"].self_s == 1.0
    assert mod.outer is outer and mod.inner is inner and mod.leaf is leaf


def _bindings():
    return {(name, attr): value for name, mod in MODULES.items()
            for attr, value in vars(mod).items() if callable(value)}


def test_traced_run_restores_every_binding():
    before = _bindings()
    result, tracer = run.traced_pass(workloads.WORKLOADS["solve-full"],
                                     TINY["solve-full"], seed=3)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    # The tracer reached the kernels through the solver modules' own bindings.
    assert tracer.stats["model.interference_map"].calls > 0
    assert tracer.stats["power_opt.project_power_budget"].calls > 0
    assert tracer.stats["alternating.solve_joint"].calls == len(result.ops) == 1


def _tiny_joint_answer():
    state = workloads.setup_solve_full(TINY["solve-full"], seed=0)
    op = workloads.pass_solve_full(state).ops[0]
    assert op.error is None
    return op


def test_verifier_flags_corrupted_joint_allocation():
    op = _tiny_joint_answer()
    _, problem, _ = verify.joint_solve(op.args, op.result)
    assert problem is None

    alloc, report = op.result
    over = alloc.copy()
    over.power = over.power * 3.0
    _, problem, _ = verify.joint_solve(op.args, (over, report))
    assert "C9" in problem

    crowded = alloc.copy()
    crowded.uav[0, 0, :] = 1
    crowded.rrh_assoc[:, 0] = 1
    _, problem, _ = verify.joint_solve(op.args, (crowded, report))
    assert "C5" in problem

    falling = dataclasses.replace(report, objective_trajectory=[2.0, 1.0])
    _, problem, _ = verify.joint_solve(op.args, (alloc, falling))
    assert "decreases" in problem


def test_verifier_flags_corrupted_association():
    state = workloads.setup_assoc_dense(TINY["assoc-dense"], seed=0)
    op = workloads.pass_assoc_dense(state).ops[0]
    _, problem, unconverged = verify.association(op.args, op.result)
    assert problem is None and not unconverged

    wrong = dataclasses.replace(op.result, objective=op.result.objective + 1.0)
    _, problem, _ = verify.association(op.args, wrong)
    assert "rebuilt" in problem

    uav = op.result.uav.copy()
    r, k = np.argwhere(uav.sum(axis=2) == 1)[0]
    uav[r, k, :] = 1
    crowded = dataclasses.replace(op.result, uav=uav, objective=float(
        (uav * assoc_opt.rate_table(op.args["tau"], op.args["power"], op.args["channel"],
                                    op.args["sensing"], op.args["radio"])).sum()))
    _, problem, _ = verify.association(op.args, crowded)
    assert "C5" in problem


def test_failed_and_nonrepeating_ops_are_counted():
    workload = workloads.WORKLOADS["tau-search"]
    state = workload.setup(TINY["tau-search"], seed=1)
    first, second = workload.run_pass(state), workload.run_pass(state)
    run.compact(workload, second)
    assert run.check_answers(workload, [first, second])["correct"]

    second.ops[0].result = second.ops[0].result * 0.5
    second.ops[1].error = "InfeasibleError: synthetic"
    checked = run.check_answers(workload, [first, second])
    assert checked["failed"] == 2 and not checked["correct"]
    assert checked["attempted"] == len(first.ops) + len(second.ops)


def test_tail_is_the_slowest_op_with_ten_beyond():
    ops = [workloads.Op(float(t), {}) for t in range(1, 41)]
    slow = [workloads.Op(3.0 * t, {}) for t in range(1, 41)]
    passes = [workloads.PassResult(ops), workloads.PassResult(slow),
              workloads.PassResult(list(ops))]
    stats = run.op_stats(passes)  # each op counts once, at its median over passes
    assert stats["op_tail_s"] == 30.0 and stats["tail_percentile"] == 75.0
    assert stats["op_p50_s"] == 20.5 and stats["op_count"] == 40
    few = run.op_stats([workloads.PassResult(ops[:5])])
    assert few["op_tail_s"] == 5.0 and few["tail_percentile"] == 100.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_verifies(name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(TINY[name], seed=5)
    passes = [workload.run_pass(state)]
    checked = run.check_answers(workload, passes)
    assert checked["correct"], checked["problems"]
    assert checked["attempted"] >= 1 and checked["objective"] > 0.0


def test_benchmark_file_names_the_harness_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(entry) for entry in layers.PER_LAYER]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tau-search",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

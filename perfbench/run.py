"""Benchmark harness for cransense.

    python3 perfbench/run.py --workload solve-full --seed 0 --seconds 27 --trace 0

Run from the repository root.  One process, one thread of load.  The run
sets up the workload, then repeats its pass (a fixed list of ops made from
the seed) until ``--seconds`` are used, and checks every answer after the
timed section.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it times untraced passes for half the budget, then sets up
and runs one pass under the outside-in tracer and reports the per-layer
metrics.  The last line of standard output is the result object; the line
before it holds provenance and detail.  ``--scale full`` runs the
paper-size configuration instead (minutes per run).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "objective": "bps/Hz", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-full", "sweep-users", "assoc-dense", "tau-search"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["bench", "full"], default="bench")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, set up the workload and exit (times setup_s)")
    return parser.parse_args(argv)


def timed_passes(workload, state, seconds: float) -> list:
    """Repeat the pass while another one fits in the budget; at least one."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        result = workload.run_pass(state)
        result.wall = time.perf_counter() - start
        if passes:
            compact(workload, result)
        passes.append(result)
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() + typical > deadline:
            return passes


def compact(workload, result) -> None:
    """Keep of a repeated pass only what the checks need: times and fingerprints."""
    for op in result.ops:
        op.args = None
        op.result = None if op.error is not None else workload.fingerprint(op.result)
    result.compacted = True


def measure_setup(args) -> list:
    """Wall time of fresh processes that import, set up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", args.scale]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def check_answers(workload, passes) -> dict:
    """Verify the first pass's answers; later passes must repeat them exactly."""
    first = passes[0]
    verdicts = []
    for op in first.ops:
        if op.error is not None:
            verdicts.append((0.0, op.error, False))
        else:
            verdicts.append(workload.check(op.args, op.result))

    def fingerprint(op, compacted):
        if op.error is not None:
            return ("error", op.error)
        return op.result if compacted else workload.fingerprint(op.result)

    attempted = failed = unconverged = 0
    problems = [p.extra_problem for p in passes if p.extra_problem]
    reference = [fingerprint(op, False) for op in first.ops]
    for p in passes:
        same = len(p.ops) == len(first.ops)
        for i, op in enumerate(p.ops):
            attempted += 1
            repeat_ok = same and fingerprint(op, p.compacted) == reference[i]
            problem = verdicts[i][1] if same else None
            if not repeat_ok:
                problem = problem or "answer differs from the first pass"
            if problem:
                failed += 1
                problems.append(problem)
            unconverged += int(same and verdicts[i][2])
    return {
        "attempted": attempted, "failed": failed, "unconverged": unconverged,
        "objective": sum(v[0] for v in verdicts),
        "problems": sorted(set(problems))[:10],
        "correct": failed == 0 and not problems and attempted > 0,
    }


def op_stats(passes) -> dict:
    """Median and tail over the pass's ops, each op timed as its median over passes.

    Taking each distinct op once keeps the tail percentile independent of
    how many passes fitted in the run.
    """
    count = len(passes[0].ops)
    full = [p for p in passes if len(p.ops) == count]
    times = sorted(statistics.median(p.ops[i].seconds for p in full) for i in range(count))
    if count > TAIL_BEYOND:
        tail, pct = times[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count
    else:  # too few ops for a percentile with ten beyond it: the slowest op
        tail, pct = times[-1], 100.0
    return {"op_p50_s": statistics.median(times), "op_tail_s": tail,
            "tail_percentile": pct, "op_count": count}


def provenance(args, params: dict, config: dict) -> dict:
    import numpy
    import scipy

    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "workload": args.workload, "seed": args.seed,
        "scale": args.scale, "seconds": args.seconds, "params": params,
        "resolved_config": config,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_pass(workload, params, seed):
    """Set up and run one pass under the tracer; returns (pass, tracer)."""
    import cransense
    from cransense import (alternating, assoc_opt, cli, gaussian, model,
                           power_opt, scenario, sensing, sensing_opt)
    from tracer import Tracer

    modules = {"cransense": cransense, "alternating": alternating,
               "assoc_opt": assoc_opt, "cli": cli, "gaussian": gaussian,
               "model": model, "power_opt": power_opt, "scenario": scenario,
               "sensing": sensing, "sensing_opt": sensing_opt}
    with Tracer() as tracer:
        tracer.install(modules)
        state = workload.setup(params, seed)
        start = time.perf_counter()
        result = workload.run_pass(state)
        result.wall = time.perf_counter() - start
    return result, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cransense" / "__init__.py").is_file():
        print(f"cransense sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # One thread of load: pin the BLAS pools before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    import layers

    workload = workloads.WORKLOADS[args.workload]
    params = workloads.SCALES[args.scale][args.workload]
    state = workload.setup(params, args.seed)
    if args.setup_only:
        return 0
    setup_times = measure_setup(args)

    if args.trace:
        passes = timed_passes(workload, state, args.seconds / 2.0)
        traced, tracer = traced_pass(workload, params, args.seed)
        compact(workload, traced)
        checked = check_answers(workload, passes + [traced])
        untraced_wall = statistics.median(p.wall for p in passes)
        metrics = layers.per_layer_metrics(tracer, checked, traced.wall / untraced_wall)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-{args.scale}-seed{args.seed}.json").write_text(
            json.dumps(layers.trace_dump(tracer), indent=1) + "\n")
    else:
        passes = timed_passes(workload, state, args.seconds)
        checked = check_answers(workload, passes)
        ops = op_stats(passes)
        op_detail = {"tail_percentile": ops["tail_percentile"], "distinct_ops": ops["op_count"]}
        values = {"setup_s": statistics.median(setup_times),
                  "wall_s": statistics.median(p.wall for p in passes),
                  "op_p50_s": ops["op_p50_s"], "op_tail_s": ops["op_tail_s"],
                  "objective": checked["objective"], "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    detail = {
        "provenance": provenance(args, params, state.config),
        "passes": len(passes), "pass_wall_s": [p.wall for p in passes],
        "setup_runs_s": setup_times,
        "op_count": sum(len(p.ops) for p in passes),
        "failed_ratio": checked["failed"] / max(checked["attempted"], 1),
        "unconverged_ratio": checked["unconverged"] / max(checked["attempted"], 1),
        "objective": checked["objective"], "problems": checked["problems"],
    }
    if not args.trace:
        detail.update(op_detail)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": checked["correct"], "attempted": checked["attempted"],
                      "failed": checked["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One full joint solve: sensing times, associations and powers in alternation.

Builds the default network (4 RRHs, 3 BBUs, 2 slices of 8 users, 16
sub-carriers over a 2 km x 2 km square), generates one channel draw, and
runs the three-block alternation from the greedy start until the objective
stalls, as `cransense solve` does. The trajectory is non-decreasing by
construction: step 1 keeps the current associations feasible, step 2 is
seeded with the incumbent allocation, and step 3 only takes feasible ascent
steps.

Run:  python3 demos/demo_joint_solve.py
"""

import numpy as np

from cransense import check_constraints, generate_instance, solve_instance
from cransense.cli import build_spec, load_config


def main():
    spec = build_spec(load_config(None))  # library defaults
    channel, positions = generate_instance(spec)
    alloc, report = solve_instance(spec, channel, positions)

    print(f"converged: {report.converged} after {report.iterations} outer "
          f"iterations")
    for i, (obj, res) in enumerate(zip(report.objective_trajectory,
                                       report.residual_trajectory), start=1):
        print(f"  iteration {i}: objective {obj:.4f}, max residual {res:.1e}")
    print("wall time per stage [s]: " +
          ", ".join(f"{k}={v:.2f}" for k, v in report.wall_times.items()))

    residuals = check_constraints(alloc, spec.dims, spec.radio, spec.sensing,
                                  channel)
    print("final constraint residuals: " +
          ", ".join(f"{k}={v:.1e}" for k, v in residuals.items()))
    served = int((alloc.rrh_assoc.sum(axis=1) > 0).sum())
    print(f"served users: {served}/{spec.dims.num_users}; "
          f"sensing time range {alloc.sensing_time.min() * 1e3:.3f}-"
          f"{alloc.sensing_time.max() * 1e3:.3f} ms; "
          f"per-RRH power {np.round(alloc.power.sum(axis=(1, 2)), 3)} W")


if __name__ == "__main__":
    main()

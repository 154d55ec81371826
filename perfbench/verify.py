"""Answer checks, run after the timed section.

Each check takes one recorded op and returns ``(objective, problem,
unconverged)``: the op's contribution to the ``objective`` metric, a
description of what is wrong with the answer (``None`` when it verifies),
and whether the solver stopped at an iteration or node cap.
"""

from __future__ import annotations

import math

import numpy as np

from cransense.alternating import default_initialization
from cransense.assoc_opt import rate_table
from cransense.model import Allocation, check_constraints, total_approx_throughput
from cransense.scenario import evaluate_fixed_tau_throughput

RESIDUAL_TOL = 1e-6
MONOTONE_TOL = 1e-9
ASSOC_CONSTRAINTS = ("C3", "C4", "C5", "C6", "C7", "C8", "C10")
COARSE_TAU_POINTS = 40


def _violations(residuals: dict, names=None) -> str | None:
    bad = {c: v for c, v in residuals.items()
           if (names is None or c in names) and not v <= RESIDUAL_TOL}
    if not bad:
        return None
    return "violates " + ", ".join(f"{c} by {v:.3g}" for c, v in sorted(bad.items()))


def joint_solve(args: dict, result) -> tuple[float, str | None, bool]:
    """solve_joint: C1-C10 to 1e-6 and a non-decreasing objective trajectory."""
    alloc, report = result
    channel, dims, sensing, radio = (args["channel"], args["dims"],
                                     args["sensing"], args["radio"])
    problem = _violations(check_constraints(alloc, dims, radio, sensing, channel))
    traj = report.objective_trajectory
    drops = [i for i, (a, b) in enumerate(zip(traj, traj[1:]))
             if b < a - MONOTONE_TOL]
    if problem is None and drops:
        problem = f"objective decreases after outer iteration {drops[0] + 1}"
    objective = total_approx_throughput(alloc, channel, sensing, radio)
    return objective, problem, not report.converged


def association(args: dict, result) -> tuple[float, str | None, bool]:
    """solve_association: objective equals sum of beta * rate_table; C3-C8, C10 hold."""
    tau, power, channel = args["tau"], args["power"], args["channel"]
    dims, sensing, radio = args["dims"], args["sensing"], args["radio"]
    rebuilt = float((result.uav * rate_table(tau, power, channel, sensing, radio)).sum())
    problem = None
    if not math.isclose(rebuilt, result.objective, rel_tol=1e-9, abs_tol=1e-9):
        problem = f"objective {result.objective!r} != rebuilt {rebuilt!r}"
    alloc = Allocation(sensing_time=tau, power=power, uav=result.uav,
                       rrh_assoc=result.rrh_assoc, bbu_assoc=result.bbu_assoc,
                       linkage=result.linkage)
    residuals = check_constraints(alloc, dims, radio, sensing, channel)
    problem = problem or _violations(residuals, ASSOC_CONSTRAINTS)
    return result.objective, problem, not result.proven_optimal


def sensing_time(args: dict, result) -> tuple[float, str | None, bool]:
    """optimal_sensing_time: tau in (0, T] and no worse than a coarse log grid."""
    channel, dims, sensing, radio = (args["channel"], args["dims"],
                                     args["sensing"], args["radio"])
    T = sensing.frame_len
    tau = float(result)
    if not 0.0 < tau <= T:
        return 0.0, f"tau {tau!r} outside (0, {T!r}]", False
    base = default_initialization(channel, dims, sensing, radio)

    def value(t):
        return evaluate_fixed_tau_throughput(t, channel, dims, sensing, radio, base)

    objective = value(tau)
    grid_best = max(value(t) for t in np.geomspace(T * 1e-4, T, COARSE_TAU_POINTS))
    problem = None
    if not objective >= grid_best - 1e-12 * max(1.0, abs(grid_best)):
        problem = f"throughput {objective!r} at tau is below the grid best {grid_best!r}"
    return objective, problem, False


def interruption_rows(rows: list[dict]) -> str | None:
    """Interruption probabilities lie in [0, 1] and never rise with tau."""
    probs = [row["p_interrupt"] for row in rows]
    if not all(0.0 <= p <= 1.0 for p in probs):
        return "interruption probability outside [0, 1]"
    if any(b > a for a, b in zip(probs, probs[1:])):
        return "interruption probability rises with tau"
    return None

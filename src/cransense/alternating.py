"""Outer alternation: sensing time, associations, powers, until convergence.

Each outer iteration runs the three block solves in order. Step 1 keeps the
previous sensing times feasible, the current association seeds step 2's
incumbent, and step 3 ascends monotonically from the current powers, so no
step can decrease the objective and the trajectory is non-decreasing. A
block with no feasible point keeps its previous values, and the solve lists
it in SolveReport.step_fallbacks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import assoc_opt, power_opt, sensing_opt
from .model import (FEASIBILITY_TOL, Allocation, ChannelState,
                    InfeasibleError, NetworkDims, RadioParams,
                    SearchTruncatedError, SensingParams, SolveReport,
                    check_constraints, is_number, store_counts,
                    total_approx_throughput)
from .sensing import detection_probability, detection_threshold

_MAX_TAU_STEPS = 32  # float steps that lift a rounded threshold onto target_pd


@dataclass(frozen=True)
class AltConfig:
    """Settings of the alternation, each with its one default. A tolerance
    must be a finite number > 0 and a count a whole number >= 1 (stored as
    int); anything else raises ValueError naming the field."""

    epsilon: float = 1e-3
    max_outer_iters: int = 100
    assoc_node_limit: int = 20_000
    # The power stage must be solved tighter than the outer epsilon, or its
    # early stop leaks a small objective gain into every outer iteration and
    # the outer loop never sees |delta| fall below epsilon.
    power_zeta: float = 1e-5
    power_max_iters: int = 500

    def __post_init__(self):
        for name in ("epsilon", "power_zeta"):
            value = getattr(self, name)
            if not (is_number(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        store_counts(self, ("max_outer_iters", "assoc_node_limit", "power_max_iters"))


def minimal_feasible_tau(channel: ChannelState, sensing: SensingParams) -> np.ndarray:
    """Smallest uniform-per-k tau meeting the detection constraint, clamped to T.

    Where the closed form (b_k / sum_r g_rk)^2 / nu rounds an ulp short of
    target_pd, the entry steps up float by float until detection_probability
    accepts it. Unattainable entries (no sensing gain, or clamped at T) keep
    the closed form.
    """
    g = channel.sensing_gain_sq
    floor, lmax = sensing_opt.lambda_box(sensing)
    b = detection_threshold(sensing, g)
    gsum = g.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where((b <= 0) | (gsum <= 0), floor, np.clip(b / gsum, floor, lmax))
    tau = np.tile(np.minimum(lam ** 2 / sensing.sampling_freq, sensing.frame_len),
                  (g.shape[0], 1))  # lmax ** 2 / nu can round past T
    attainable = (gsum > 0) & (lam < lmax)
    for _ in range(_MAX_TAU_STEPS):
        pd = detection_probability(tau, sensing.sampling_freq, sensing.hvwn_snr, g,
                                   sensing.target_pfa)
        short = attainable & (pd < sensing.target_pd) & (tau[0] < sensing.frame_len)
        if not short.any():
            break
        tau[:, short] = np.nextafter(tau[:, short], np.inf)
    return tau


def default_initialization(channel: ChannelState, dims: NetworkDims,
                           sensing: SensingParams, radio: RadioParams,
                           user_positions=None, rrh_coords=None) -> Allocation:
    """Deterministic feasible starting point.

    Users pick their nearest RRH (by position when given, else by mean gain)
    subject to BBU and fronthaul capacity; each (r, k) slot then serves its
    best-gain assigned user; power is spread uniformly over each RRH's
    active cells; tau starts at the minimal detection-feasible point.
    """
    R, K, N, B = dims.num_rrhs, dims.num_subcarriers, dims.num_users, dims.num_bbus

    if user_positions is not None and rrh_coords is not None:
        d = np.linalg.norm(user_positions[:, None, :] - np.asarray(rrh_coords)[None, :, :],
                           axis=2)
        pref = np.argsort(d, axis=1)
    else:
        mean_gain = channel.downlink_gain.mean(axis=1)  # (R, N)
        pref = np.argsort(-mean_gain.T, axis=1)

    cap, bbu_cap = dims.fronthaul_cap.tolist(), dims.bbu_user_cap
    link_used, bbu_used = [[0] * B for _ in range(R)], [0] * B
    rrh_of, bbu_of = [-1] * N, [-1] * N  # -1: unserved
    for n, prefs in enumerate(pref.tolist()):
        for r in prefs:
            b_ok = next((b for b in range(B)
                         if link_used[r][b] < cap[r][b] and bbu_used[b] < bbu_cap), None)
            if b_ok is not None:
                rrh_of[n], bbu_of[n] = r, b_ok
                link_used[r][b_ok] += 1
                bbu_used[b_ok] += 1
                break
    x = (np.array(rrh_of)[:, None] == np.arange(R)).astype(int)
    f = (np.array(bbu_of)[:, None] == np.arange(B)).astype(int)

    # Hand each slot to the best-gain user of the currently least-served
    # slice, so every slice starts with airtime and the slice-rate floors
    # have a fighting chance before the first exact association solve. Each
    # slice's best user of each slot (lowest index on a tie) is one argmax.
    S, Ns = dims.num_slices, dims.users_per_slice
    served = x.T.reshape(R, 1, S, Ns).astype(bool)
    gains = np.where(served, channel.downlink_gain.reshape(R, K, S, Ns), -np.inf)
    best = (gains.argmax(axis=3) + Ns * np.arange(S)).tolist()  # (R, K, S)
    slice_slots = [0] * S
    slot_user = [[-1] * K for _ in range(R)]  # -1: idle
    for r, present in enumerate(served.any(axis=3)[:, 0].tolist()):
        slices = [s for s in range(S) if present[s]]  # visited in index order
        for k in range(K) if slices else ():
            s_min = min(slices, key=slice_slots.__getitem__)
            slot_user[r][k] = best[r][k][s_min]
            slice_slots[s_min] += 1
    beta = (np.array(slot_user)[..., None] == np.arange(N)).astype(int)
    power = beta * (radio.max_power_per_rrh(R) / K)[:, None, None]  # a used RRH fills all K

    return Allocation(sensing_time=minimal_feasible_tau(channel, sensing), power=power,
                      uav=beta, rrh_assoc=x, bbu_assoc=f, linkage=None)


def solve_joint(initial: Allocation, channel: ChannelState, dims: NetworkDims,
                sensing: SensingParams, radio: RadioParams,
                config: AltConfig = AltConfig()) -> tuple[Allocation, SolveReport]:
    """Alternate the three block solves until the objective change is below epsilon.

    converged is False when the final allocation breaks a constraint by more
    than FEASIBILITY_TOL, even if the objective has settled.
    """
    alloc = initial.copy()
    report = SolveReport()
    times = {"step1": 0.0, "step2": 0.0, "step3": 0.0}
    prev_obj = total_approx_throughput(alloc, channel, sensing, radio)

    for it in range(config.max_outer_iters):
        # Step 1: sensing times.
        t0 = time.perf_counter()
        try:
            s1 = sensing_opt.solve_sensing(alloc, channel, dims, sensing, radio)
            alloc.sensing_time = s1.tau
        except InfeasibleError as err:
            report.step_fallbacks.append((it, "step1", str(err)))
        times["step1"] += time.perf_counter() - t0

        # Step 2: associations.
        t0 = time.perf_counter()
        try:
            s2 = assoc_opt.solve_association(
                alloc.sensing_time, alloc.power, channel, dims, sensing, radio,
                node_limit=config.assoc_node_limit,
                warm_start=alloc)
            alloc.uav = s2.uav
            alloc.rrh_assoc = s2.rrh_assoc
            alloc.bbu_assoc = s2.bbu_assoc
            alloc.linkage = s2.linkage
            if not s2.proven_optimal:
                report.assoc_truncated.append(it)
        except InfeasibleError as err:
            if isinstance(err, SearchTruncatedError):
                report.assoc_truncated.append(it)
            report.step_fallbacks.append((it, "step2", str(err)))
        times["step2"] += time.perf_counter() - t0

        # Zero the power of cells that lost their assignment; it only
        # produced interference.
        alloc.power = alloc.power * (alloc.uav > 0)

        # Step 3: powers.
        t0 = time.perf_counter()
        try:
            s3 = power_opt.solve_power(alloc.uav, alloc.sensing_time, alloc.power,
                                       channel, dims, sensing, radio,
                                       zeta=config.power_zeta,
                                       max_iters=config.power_max_iters)
            alloc.power = s3.power
        except InfeasibleError as err:
            report.step_fallbacks.append((it, "step3", str(err)))
        times["step3"] += time.perf_counter() - t0

        obj = total_approx_throughput(alloc, channel, sensing, radio)
        report.objective_trajectory.append(obj)
        report.constraint_residuals = check_constraints(alloc, dims, radio, sensing, channel)
        report.residual_trajectory.append(max(report.constraint_residuals.values()))
        if abs(obj - prev_obj) <= config.epsilon:
            report.converged = True
            break
        prev_obj = obj

    report.wall_times = times
    report.converged &= report.residual_trajectory[-1] <= FEASIBILITY_TOL
    return alloc, report


def best_feasible(solved: list) -> tuple[Allocation, SolveReport]:
    """The (allocation, report) pair of solved with the highest final
    objective among those within FEASIBILITY_TOL on C1-C10, the earlier on a
    tie. With none, InfeasibleError carries every residual and fallback."""
    residuals = [report.constraint_residuals for _, report in solved]
    feasible = [i for i, res in enumerate(residuals)
                if max(res.values()) <= FEASIBILITY_TOL]
    if not feasible:
        worst = ", ".join(f"{max(res, key=res.get)} by {max(res.values()):.3g}"
                          for res in residuals)
        raise InfeasibleError(
            f"every solve ends violating a constraint: {worst}",
            detail={"residuals": residuals,
                    "fallbacks": [report.step_fallbacks for _, report in solved]})
    best = np.argmax([solved[i][1].objective_trajectory[-1] for i in feasible])
    return solved[feasible[best]]

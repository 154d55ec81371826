"""Sensing-time subproblem in the substituted variable lambda = sqrt(tau * nu_sa).

With associations and powers fixed, the throughput of cell (r,k) is
w[r,k] * (T - lambda^2/nu) / T, so the problem is: minimize the separable
convex cost sum w*lambda^2 subject to the per-sub-carrier linear detection
constraint sum_r lambda*g >= b_k, the box 0 < lambda <= sqrt(T*nu), and the
per-slice minimum rates. The per-k KKT system is solved by bisection on the
detection multiplier; slice-rate coupling is handled by dual ascent on the
slice multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (FEASIBILITY_TOL, Allocation, ChannelState, InfeasibleError,
                    NetworkDims, RadioParams, SensingParams, rate_table)
from .sensing import detection_threshold

_W_TOL = 1e-15
_MAX_DUAL_ITERS = 80  # dual-ascent steps on the slice multipliers


@dataclass
class SensingSolveResult:
    lam: np.ndarray        # (R, K), sqrt(samples)
    tau: np.ndarray        # (R, K), seconds
    objective: float       # total approximated throughput at the solution
    kkt_residual: float


def lambda_box(sensing: SensingParams) -> tuple[float, float]:
    """Bounds (floor, lmax) of lambda = sqrt(tau * nu).

    lmax = sqrt(T * nu) is tau = T; the floor 1e-9 * lmax stands in for the
    open bound tau > 0.
    """
    lmax = np.sqrt(sensing.frame_len * sensing.sampling_freq)
    return 1e-9 * lmax, lmax


def _solve_one_subcarrier(weights, gains, b, floor, lmax):
    """Minimize sum w*lam^2 s.t. sum lam*g >= b, floor <= lam <= lmax.

    Zero-weight RRHs are cost-free and absorb the burden first, in index
    order; the rest follow the KKT profile lam = mu*g/(2w) with mu found by
    bisection. Returns None when infeasible even with every lam at lmax.
    """
    R = len(weights)
    lam = np.full(R, floor)
    need = b - float(lam @ gains)
    if need <= 0.0:
        return lam

    free = (weights <= _W_TOL) & (gains > 0.0)
    for r in np.flatnonzero(free):
        cap = (lmax - floor) * gains[r]
        take = min(need, cap)
        lam[r] = floor + take / gains[r]
        need -= take
        if need <= 0.0:
            return lam

    active = (~free) & (gains > 0.0) & (weights > _W_TOL)
    if not np.any(active):
        return None
    g_a = gains[active]
    w_a = weights[active]

    def profile(mu):
        return np.clip(mu * g_a / (2.0 * w_a), floor, lmax)

    target = b - float(lam[~active] @ gains[~active])
    if float(np.full(g_a.shape, lmax) @ g_a) < target - 1e-12:
        return None

    mu_hi = 1.0
    while float(profile(mu_hi) @ g_a) < target:
        mu_hi *= 2.0
        if mu_hi > 1e300:
            return None
    mu_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (mu_lo + mu_hi)
        if float(profile(mid) @ g_a) >= target:
            mu_hi = mid
        else:
            mu_lo = mid
    lam[active] = profile(mu_hi)  # upper endpoint keeps the constraint satisfied
    return lam


def solve_sensing(alloc: Allocation, channel: ChannelState, dims: NetworkDims,
                  sensing: SensingParams, radio: RadioParams) -> SensingSolveResult:
    """Optimal sensing times for fixed associations and powers."""
    R, K, S = dims.num_rrhs, dims.num_subcarriers, dims.num_slices
    T, nu = sensing.frame_len, sensing.sampling_freq
    floor, lmax = lambda_box(sensing)
    gains = channel.sensing_gain_sq  # (R, K)

    # Fixed per-cell rate coefficients e[r,k,n]: at tau = 0 the time
    # fraction (T - tau)/T is exactly 1.
    e = alloc.uav * rate_table(np.zeros((R, K)), alloc.power, channel, sensing, radio)
    w = e.sum(axis=2)  # (R, K)
    slice_w = np.zeros((S, R, K))
    for s in range(S):
        slice_w[s] = e[:, :, dims.user_slice == s].sum(axis=2)

    b = detection_threshold(sensing, gains)

    rsv = radio.reserved_rate_per_slice(S)

    def inner(weights):
        lam = np.empty((R, K))
        bad = []
        for k in range(K):
            sol = _solve_one_subcarrier(weights[:, k], gains[:, k], b[k], floor, lmax)
            if sol is None:
                bad.append(k)
            else:
                lam[:, k] = sol
        if bad:
            raise InfeasibleError(
                f"detection constraint unattainable on sub-carriers {bad}",
                detail={"constraint": "C1", "subcarriers": bad})
        return lam

    def rates_of(lam):
        frac = (T - lam ** 2 / nu) / T  # (R, K)
        total = float((w * frac).sum())
        per_slice = (slice_w * frac[None]).sum(axis=(1, 2))
        return total, per_slice

    lam = inner(w)
    objective, per_slice = rates_of(lam)
    best = (lam, objective) if np.all(per_slice >= rsv - FEASIBILITY_TOL) else None

    if best is None:
        mu = np.zeros(S)
        scale = np.maximum(rsv, 1.0)
        for it in range(_MAX_DUAL_ITERS):
            step = 2.0 / np.sqrt(it + 1.0)
            mu = np.clip(mu + step * (rsv - per_slice) / scale, 0.0, None)
            weights = w + np.tensordot(mu, slice_w, axes=(0, 0))
            lam = inner(weights)
            objective, per_slice = rates_of(lam)
            if np.all(per_slice >= rsv - FEASIBILITY_TOL):
                if best is None or objective > best[1]:
                    best = (lam.copy(), objective)
        if best is None:
            # Certify: maximize each violated slice's rate in isolation.
            worst = int(np.argmax(rsv - per_slice))
            lam_s = inner(np.where(slice_w[worst] > 0, slice_w[worst], 0.0))
            _, ps = rates_of(lam_s)
            raise InfeasibleError(
                f"slice {worst} cannot reach its reserved rate for the fixed "
                f"associations/powers (best {ps[worst]:.6g} < {rsv[worst]:.6g})",
                detail={"constraint": "C10", "slice": worst})

    lam, objective = best
    tau = lam ** 2 / nu
    c1_resid = float(np.max(np.clip(b - (lam * gains).sum(axis=0), 0.0, None)))
    box_resid = float(max(np.max(np.clip(lam - lmax, 0.0, None)),
                          np.max(np.clip(floor - lam, 0.0, None))))
    return SensingSolveResult(lam=lam, tau=tau, objective=objective,
                              kkt_residual=max(c1_resid, box_resid))

"""Sensing-time subproblem in the substituted variable lambda = sqrt(tau * nu_sa).

With associations and powers fixed, the throughput of cell (r,k) is
w[r,k] * (T - lambda^2/nu) / T, so the problem is: minimize the separable
convex cost sum w*lambda^2 subject to the per-sub-carrier linear detection
constraint sum_r lambda*g >= b_k, the box 0 < lambda <= sqrt(T*nu), and the
per-slice minimum rates. The per-k KKT system is solved exactly for the
detection multiplier: the constraint is piecewise linear in it, so sorting
its breakpoints and interpolating gives the multiplier, and a short settle
over adjacent doubles lands on the bits a 200-step bisection would end on.
Slice-rate coupling is handled by dual ascent on the slice multipliers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .model import (FEASIBILITY_TOL, Allocation, ChannelState, InfeasibleError,
                    NetworkDims, RadioParams, SensingParams, rate_table)
from .sensing import detection_threshold

_W_TOL = 1e-15
_MAX_DUAL_ITERS = 80  # dual-ascent steps on the slice multipliers


@dataclass
class SensingSolveResult:
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


def _bits(x):
    """The IEEE-754 bit pattern of x; for x >= 0 it orders like x."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(u):
    """The double whose bit pattern is u; inverse of _bits."""
    return struct.unpack("<d", struct.pack("<q", u))[0]


# The detection multiplier mu lies in [0, 2^996]: a larger one counts as
# unattainable, as when doubling from 1 passes 1e300. Below 1 it is resolved
# to multiples of 2^-200, the last step of 200 halvings of [0, 1].
_MU_CAP_BITS = _bits(2.0 ** 996)
_MU_GRID = 2.0 ** -200


def _least_passing(passes, u, cap):
    """Smallest bit pattern v in [0, cap] with passes(v), or None.

    passes must be monotone in v. The search gallops outward from the
    guess u and then bisects the bracket, so it costs at most about 2*63
    tests and two when the guess is exact.
    """
    u = min(max(u, 0), cap)
    step = 1
    if passes(u):
        lo, hi = u - 1, u  # lo fails, or is -1: below every pattern
        while lo >= 0 and passes(lo):
            hi, step = lo, 2 * step
            lo = max(hi - step, -1)
    else:
        lo, hi = u, min(u + 1, cap)
        while not passes(hi):
            if hi == cap:
                return None
            lo, step = hi, 2 * step
            hi = min(lo + step, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _solve_one_subcarrier(weights, gains, b, floor, lmax):
    """Minimize sum w*lam^2 s.t. sum lam*g >= b, floor <= lam <= lmax.

    Zero-weight RRHs are cost-free and absorb the burden first, in index
    order; the rest follow the KKT profile lam = mu*g/(2w). Returns None
    when infeasible even with every lam at lmax.

    f(mu) = sum g*clip(mu*g/(2w), floor, lmax) is piecewise linear and
    non-decreasing, with breakpoints floor*2w/g and lmax*2w/g: interpolating
    f between its values there gives mu in one step. A settle then moves to
    the smallest double at which the rounded test f(mu) >= target holds.
    The rounded f is still monotone (each operation rounds monotonically and
    all terms are >= 0), so this is where bisection ends: doubling from 1 to
    the least passing 2^j, then 200 halvings of [0, 2^j], stop on adjacent
    doubles, except below 1, where they resolve mu only to multiples of
    2^-200 and mu is rounded up to one. The returned lam matches that
    bisection's bit for bit.
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
    if float(np.full(g_a.shape, lmax) @ g_a) < target:
        return None

    slope = g_a / (2.0 * w_a)
    breaks = np.sort(np.concatenate(([0.0], floor / slope, lmax / slope)))
    at_breaks = np.clip(breaks[:, None] * slope, floor, lmax) @ g_a
    guess = float(np.interp(target, at_breaks, breaks))
    hit = _least_passing(lambda u: float(profile(_float(u)) @ g_a) >= target,
                         _bits(guess), _MU_CAP_BITS)
    if hit is None:
        return None
    mu = _float(hit)
    if mu < 1.0:
        mu = max(_MU_GRID, math.ceil(mu / _MU_GRID) * _MU_GRID)
    lam[active] = profile(mu)  # the least passing mu keeps the constraint satisfied
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
            # Certify: maximize the most violated slice's rate in isolation.
            # If even that reaches the floor, infeasibility is unproven.
            worst = int(np.argmax(rsv - per_slice))
            lam_s = inner(np.where(slice_w[worst] > 0, slice_w[worst], 0.0))
            _, ps = rates_of(lam_s)
            certified = bool(ps[worst] < rsv[worst])
            if certified:
                msg = (f"slice {worst} cannot reach its reserved rate for the fixed "
                       f"associations/powers (best {ps[worst]:.6g} < {rsv[worst]:.6g})")
            else:
                msg = (f"slice {worst} missed its reserved rate: the dual loop gave up "
                       f"without a proof of infeasibility (alone it reaches "
                       f"{ps[worst]:.6g} >= {rsv[worst]:.6g})")
            raise InfeasibleError(msg, detail={"constraint": "C10", "slice": worst,
                                               "certified": certified})

    lam, objective = best
    tau = np.minimum(lam ** 2 / nu, T)  # lmax ** 2 / nu can round past T
    c1_resid = float(np.max(np.clip(b - (lam * gains).sum(axis=0), 0.0, None)))
    box_resid = float(max(np.max(np.clip(lam - lmax, 0.0, None)),
                          np.max(np.clip(floor - lam, 0.0, None))))
    return SensingSolveResult(tau=tau, objective=objective,
                              kkt_residual=max(c1_resid, box_resid))

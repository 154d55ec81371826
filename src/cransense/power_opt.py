"""Step 3 power allocation: interference pricing on (RRH, sub-carrier) slots.

C5 leaves one user per slot and C4/C6 keep each user on one RRH, so power is
an (R, K) decision. Gauss-Seidel sweeps update one RRH at a time: the other
cells' rates are convex in the interference they receive, so their tangent
is a global minorant whose slope prices the RRH's power (Huang, Berry &
Honig, IEEE JSAC 2006), and the priced block problem is water-filling under
the RRH budget. Slice weights raised on short slices enforce C10. A block
update is kept only if the true objective does not fall and no slice floor
breaks, so iterates are feasible and monotone.

Deviation from plain pricing sweeps: the tangent price undervalues silencing
a weak interferer, so its power creeps to zero over hundreds of sweeps. Each
sweep therefore ends with a line search along its own step d (Xu & Yin, SIAM
J. Imaging Sci. 2013): p + w*d for w = 1, 2, 4, ..., each projected onto the
RRH budgets, is kept while the true objective rises and no slice floor
breaks, the block-update rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (LN2, ChannelState, InfeasibleError, NetworkDims,
                    RadioParams, SensingParams, idle_coeff)

# Share of the budget filled when it binds: keeps sum(p) <= pmax under any
# summation order of the scattered (R, K, N) tensor.
_BUDGET_FILL = 1.0 - 1e-12
_MAX_WEIGHT = 1e12  # cap on the slice weights 1 + mu
_MAX_STALLS = 30  # sweeps in a row that move power by at most zeta yet raise weights
_MAX_STRETCH = 1e6  # line-search steps w = 1, 2, 4, ... stay below this (20 trials)


@dataclass
class PowerIterate:
    power: np.ndarray  # (R, K, N) after one Gauss-Seidel sweep and its line search
    true_objective: float
    # Frank-Wolfe gap of the slice-weighted objective over the feasible slot
    # powers, divided by 1 + |true_objective| and by the largest slice weight
    # 1 + max(mu); zero exactly at a KKT point.
    inner_kkt_residual: float


@dataclass
class PowerSolveResult:
    power: np.ndarray
    iterates: list = field(default_factory=list)
    converged: bool = False

    @property
    def true_objective(self) -> float:
        return self.iterates[-1].true_objective if self.iterates else 0.0

    @property
    def objective_trajectory(self) -> list:
        return [it.true_objective for it in self.iterates]


def project_power_budget(power: np.ndarray, max_power: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum of each RRH's entries <= pmax}."""
    out = np.clip(power, 0.0, None)
    flat = out.reshape(out.shape[0], -1)
    over = flat.sum(axis=1) > max_power
    # Sort-based projection of each over-budget row onto its simplex.
    srt = -np.sort(-flat[over], axis=1)
    css = np.cumsum(srt, axis=1) - max_power[over, None]
    rho = (srt - css / np.arange(1, flat.shape[1] + 1) > 0).sum(axis=1)
    theta = css[np.arange(rho.size), rho - 1] / rho
    flat[over] = np.clip(flat[over] - theta[:, None], 0.0, None)
    return out


def _fill_budget(p, cap):
    """Scale each row of p whose sum passes cap * _BUDGET_FILL back onto it."""
    total = p.sum(axis=-1, keepdims=True)
    over = total > cap * _BUDGET_FILL
    return np.where(over, p * (cap * _BUDGET_FILL / np.where(over, total, 1.0)), p)


class _Slots:
    """The objective restricted to the assigned slots; arrays are (R, K)."""

    def __init__(self, beta, tau, channel, dims, sensing, radio):
        beta = np.asarray(beta) > 0
        checks = ((beta.sum(axis=2) > 1, "several users in slot (rrh {}, sub-carrier {}) (C5)"),
                  (beta.any(axis=1).sum(axis=0) > 1, "user {} on several RRHs (C4/C6)"))
        for bad, what in checks:
            if bad.any():
                raise ValueError("beta puts " + what.format(*np.argwhere(bad)[0].tolist()))
        R = beta.shape[0]
        self.beta = beta
        # cross[s, r, k] = g[s, k, n(r, k)]; the diagonal (own gains) moves to h.
        self.cross = np.einsum("skn,rkn->srk", channel.downlink_gain, beta)
        self.h = self.cross[np.arange(R), np.arange(R)].copy()
        self.cross[np.arange(R), np.arange(R)] = 0.0
        self.c = beta.any(axis=2) * idle_coeff(tau, sensing)
        self.on = (self.c > 0) & (self.h > 0)
        self.slice = (beta * dims.user_slice).sum(axis=2)
        self.noise = radio.noise_power
        self.pmax = radio.max_power_per_rrh(R)
        self.rsv = radio.reserved_rate_per_slice(dims.num_slices)

    def scatter(self, p):
        return p[:, :, None] * self.beta

    def evaluate(self, p):
        """Interference, total rate and per-slice rates at p."""
        inter = np.einsum("srk,sk->rk", self.cross, p)
        rates = self.c * np.log2(1.0 + p * self.h / (self.noise + inter))
        per_slice = np.bincount(self.slice.ravel(), rates.ravel(), self.rsv.size)
        return inter, float(rates.sum()), per_slice

    def gradient(self, p, inter, weight):
        """Gradient of sum(weight * rate) in p, and its interference price part."""
        own = self.noise + inter + p * self.h
        # Slope of each cell's weighted rate in its received interference (<= 0).
        slope = weight * self.c / LN2 * (1.0 / own - 1.0 / (self.noise + inter))
        price = -np.einsum("rsk,sk->rk", self.cross, slope)
        return weight * self.c * self.h / (LN2 * own) - price, price

    def block(self, r, p, inter, weight):
        """Maximize RRH r's weighted own rates minus its priced interference."""
        on, cap = self.on[r], self.pmax[r]
        amp = weight[r, on] * self.c[r, on] / LN2
        inv_snr = (self.noise + inter[r, on]) / self.h[r, on]
        price = self.gradient(p, inter, weight)[1][r, on]

        def fill(lam):
            return np.maximum(amp / (price + lam) - inv_snr, 0.0)
        # fill(lam).sum() is convex and decreasing, so Newton started where
        # the budget is still exceeded climbs monotonically to the root.
        lam = float(np.max(amp / (cap + inv_snr) - price, initial=0.0))
        for _ in range(100):
            q = fill(lam)
            excess = q.sum() - cap
            if excess <= 1e-12 * cap:
                break
            lam += excess / float((amp / (price + lam) ** 2)[q > 0].sum())
        out = np.zeros_like(p[r])
        out[on] = fill(lam)
        return _fill_budget(out, cap)

    def feasible(self, p):
        """p projected onto the RRH budgets, with 0 W on the cells not on."""
        q = np.where(self.on, project_power_budget(p, self.pmax), 0.0)
        return _fill_budget(q, self.pmax[:, None])

    def kkt_gap(self, p, inter, weight):
        """Frank-Wolfe gap, max over feasible q of grad.(q - p), summed over RRHs."""
        grad, _ = self.gradient(p, inter, weight)
        best = np.where(self.on, grad, 0.0).max(axis=1, initial=0.0)
        return float(np.maximum(self.pmax * best - (grad * p).sum(axis=1), 0.0).sum())


def solve_power(beta, tau, p_init, channel: ChannelState, dims: NetworkDims,
                sensing: SensingParams, radio: RadioParams,
                zeta: float = 1e-3, max_iters: int = 200) -> PowerSolveResult:
    """Gauss-Seidel interference-pricing sweeps, each stretched by a line
    search, until the power change is small.

    beta must put at most one user in a slot (C5) and each user on one RRH
    (C4/C6), else ValueError. Only the assigned cells of p_init are read,
    projected onto the per-RRH budget; power on unassigned cells is ignored
    and is exactly 0 W in every returned power tensor. InfeasibleError when
    p_init misses a slice minimum rate: the warm start must be feasible.
    converged is False when max_iters runs out, or when _MAX_STALLS sweeps
    in a row move power by at most zeta while slice floors still block.
    """
    slots = _Slots(beta, tau, channel, dims, sensing, radio)
    p = project_power_budget(np.where(slots.beta, p_init, 0.0).sum(axis=2), slots.pmax)
    inter, obj, per_slice = slots.evaluate(p)
    if np.any(per_slice < slots.rsv - 1e-6):
        worst = int(np.argmax(slots.rsv - per_slice))
        raise InfeasibleError(
            f"initial power vector violates the reserved rate of slice {worst}",
            detail={"constraint": "C10", "slice": worst})

    mu = np.zeros(dims.num_slices)
    iterates, stalls = [], 0
    for _ in range(max_iters):
        p_prev, raised = p, False
        for r in range(dims.num_rrhs):
            if not (slots.on[r].any() or p[r].any()):
                continue  # its block would return p[r] = 0 unchanged
            cand = p.copy()
            cand[r] = slots.block(r, p, inter, 1.0 + mu[slots.slice])
            c_inter, c_obj, c_slice = slots.evaluate(cand)
            # No slice may drop below its floor, nor below where it already
            # is when the warm start sits within tolerance under it. A short
            # slice gets a larger weight for the next block updates.
            short = c_slice < np.minimum(slots.rsv, per_slice)
            mu[short] = np.minimum(2.0 * mu[short] + 1.0, _MAX_WEIGHT)
            raised |= bool(short.any())
            if not short.any() and c_obj >= obj:
                p, inter, obj, per_slice = cand, c_inter, c_obj, c_slice
        # Stretch the sweep's step while the block-update rule still holds.
        base, step, omega = p, p - p_prev, 1.0
        while omega < _MAX_STRETCH and step.any():
            trial = slots.feasible(base + omega * step)
            t_inter, t_obj, t_slice = slots.evaluate(trial)
            if not (t_obj > obj and np.all(t_slice >= np.minimum(slots.rsv, per_slice))):
                break
            p, inter, obj, per_slice = trial, t_inter, t_obj, t_slice
            omega *= 2.0
        gap = slots.kkt_gap(p, inter, 1.0 + mu[slots.slice])
        scale = (1.0 + abs(obj)) * (1.0 + mu.max())
        iterates.append(PowerIterate(slots.scatter(p), obj, gap / scale))
        quiet = np.linalg.norm(p - p_prev) <= zeta * (1.0 + np.linalg.norm(p_prev))
        if quiet and not raised:
            return PowerSolveResult(slots.scatter(p), iterates, converged=True)
        stalls = stalls + 1 if quiet else 0
        if stalls == _MAX_STALLS:
            break
    return PowerSolveResult(slots.scatter(p), iterates, converged=False)

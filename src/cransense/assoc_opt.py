"""User-association ILP: exact branch-and-bound over (RRH, sub-carrier) slots.

Given tau and p, the per-cell rates are constants, so the problem is: pick
at most one user per (r, k) slot (C5), keep every user on a single RRH
(C4/C6), respect BBU and fronthaul capacities (C3/C7/C8), and meet the
slice minimum rates (C10). Per-RRH user counts are servable by the BBU pool
exactly when Gale's cut condition holds for every BBU subset (max-flow/
min-cut on the RRH->BBU transportation graph), so the capacity test is one
vectorized comparison against a table built once per search, with 2^B rows
(B <= 16). The search branches slot by slot in descending
best-rate order with an admissible per-slot bound, so the first leaf is the
greedy solution and the certified optimum follows. The bound table (best
allowed rate per slice and slot) depends only on the user->RRH map, so it is
built once per user assignment and shared by every node below it that
assigns no new user; a node only sums its tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (Allocation, ChannelState, InfeasibleError, NetworkDims,
                    RadioParams, SearchTruncatedError, SensingParams,
                    rate_table, slice_rates)

_TIE_TOL = 1e-12


@dataclass
class AssocSolveResult:
    bbu_assoc: np.ndarray   # f, (N, B)
    rrh_assoc: np.ndarray   # x, (N, R)
    uav: np.ndarray         # beta, (R, K, N)
    linkage: np.ndarray     # y, (B, R, N)
    objective: float
    nodes_explored: int
    proven_optimal: bool


_MAX_BBUS = 16  # the cut table has 2^B rows


def _cut_table(bbu_cap, fronthaul_cap):
    """Gale's cut table over every BBU subset Y (bit b of the row index).

    Returns (inside, outside): inside (2^B,) is the processing cap of the
    BBUs in Y, outside (2^B, R) each RRH's fronthaul into the BBUs not in Y.
    """
    B = fronthaul_cap.shape[1]
    member = (np.arange(2 ** B)[:, None] >> np.arange(B)) & 1
    return member @ bbu_cap, (1 - member) @ fronthaul_cap.T


def _servable(counts, cuts):
    """Can the BBU pool serve these per-RRH user counts (C3/C7/C8)?

    By max-flow/min-cut (Gale 1957) exactly when, for every BBU subset Y,
    counts.sum() <= cap(Y) + sum_r min(counts[r], fronthaul(r, B minus Y)).
    """
    inside, outside = cuts
    return bool((counts.sum() <= inside + np.minimum(counts, outside).sum(axis=1)).all())


class _Search:
    def __init__(self, rates, slot_r, slot_k, dims, rsv, node_limit):
        self.rates = rates                      # (num_slots, N)
        self.slot_r = slot_r
        self.slot_k = slot_k
        self.floor = rsv - 1e-9                 # C10 with the search's tolerance
        self.node_limit = node_limit
        N = dims.num_users
        self.user_slice = dims.user_slice
        # (Ns, num_slots, N): each slice's users' rates, zero elsewhere.
        in_slice = self.user_slice == np.arange(dims.num_slices)[:, None]
        self.slice_rates = np.where(in_slice[:, None, :], rates, 0.0)
        self.rrh_ids = np.arange(dims.num_rrhs)[:, None]
        self.cuts = _cut_table(np.full(dims.num_bbus, dims.bbu_user_cap),
                               dims.fronthaul_cap)
        self.assigned = np.full(N, -1)
        self.counts = np.zeros(dims.num_rrhs, dtype=int)
        self.slice_acc = np.zeros(dims.num_slices)
        self.choice = np.full(rates.shape[0], -1)
        self.obj_acc = 0.0
        self.nodes = 0
        self.hit_limit = False
        self.best_obj = -np.inf
        self.best = None
        self.prune_causes = {"bound": 0, "C10": 0, "capacity": 0}
        self.cut_cache = {}
        # Per-slot candidate users by descending rate, zero-rate users
        # skipped: the descending order puts each slot's positive rates first.
        order = np.argsort(-rates, axis=1, kind="stable").tolist()
        positive = (rates > 0.0).sum(axis=1).tolist()
        self.cand = [row[:m] for row, m in zip(order, positive)]

    def feasible_counts(self, counts):
        key = tuple(counts.tolist())
        hit = self.cut_cache.get(key)
        if hit is None:
            hit = self.cut_cache[key] = _servable(counts, self.cuts)
        return hit

    def bound_table(self):
        """Best allowed rate per (slice, slot) under the current user->RRH map.

        Returns (vals, per_slot): vals is (Ns, num_slots), per_slot its max
        over slices. Only a fresh user assignment changes the table, so a
        node passes it on to every child that assigns none.
        """
        allowed = ((self.assigned < 0) | (self.assigned == self.rrh_ids))[self.slot_r]
        vals = np.where(allowed, self.slice_rates, 0.0).max(axis=2)
        return vals, vals.max(axis=0)

    def dfs(self, i, table=None):
        if self.hit_limit:
            return
        self.nodes += 1
        if self.nodes > self.node_limit:
            self.hit_limit = True
            return
        if i == self.rates.shape[0]:
            if (self.slice_acc >= self.floor).all():
                if self.obj_acc > self.best_obj + _TIE_TOL:
                    self.best_obj = self.obj_acc
                    self.best = (self.choice.copy(), self.assigned.copy())
            else:
                self.prune_causes["C10"] += 1
            return
        if table is None:
            table = self.bound_table()
        vals, per_slot = table
        # Sum along contiguous rows only: that matches, bit for bit, a table
        # built for slots i: alone, whereas summing down a column changes
        # the last bits and can flip a tie prune.
        if self.obj_acc + float(per_slot[i:].sum()) <= self.best_obj + _TIE_TOL:
            self.prune_causes["bound"] += 1
            return
        if (self.slice_acc + vals[:, i:].sum(axis=1) < self.floor).any():
            self.prune_causes["C10"] += 1
            return

        r = int(self.slot_r[i])
        for n in self.cand[i]:
            prev = self.assigned[n]
            if prev >= 0 and prev != r:
                continue
            fresh = prev < 0
            if fresh:
                self.assigned[n] = r
                self.counts[r] += 1
                if not self.feasible_counts(self.counts):
                    self.prune_causes["capacity"] += 1
                    self.assigned[n] = -1
                    self.counts[r] -= 1
                    continue
            rate = self.rates[i, n]
            s = self.user_slice[n]
            self.choice[i] = n
            self.obj_acc += rate
            self.slice_acc[s] += rate
            self.dfs(i + 1, None if fresh else table)
            self.choice[i] = -1
            self.obj_acc -= rate
            self.slice_acc[s] -= rate
            if fresh:
                self.assigned[n] = -1
                self.counts[r] -= 1
        self.dfs(i + 1, table)  # leave the slot empty


def _deterministic_bbu_assignment(assigned, dims):
    """f consistent with C3/C7/C8 for a servable user->RRH map.

    Each served user, in index order, takes the lowest-index BBU whose unit
    of capacity leaves the users after it servable, which keeps the whole
    map servable at every step.
    """
    bbu_left = np.full(dims.num_bbus, dims.bbu_user_cap)
    link_left = dims.fronthaul_cap.copy()
    left = np.bincount(assigned[assigned >= 0], minlength=dims.num_rrhs)
    f = np.zeros((dims.num_users, dims.num_bbus), dtype=int)
    for n in np.flatnonzero(assigned >= 0):
        r = assigned[n]
        left[r] -= 1
        for b in range(dims.num_bbus):
            bbu_left[b] -= 1
            link_left[r, b] -= 1
            if min(bbu_left[b], link_left[r, b]) >= 0 and \
                    _servable(left, _cut_table(bbu_left, link_left)):
                f[n, b] = 1
                break
            bbu_left[b] += 1
            link_left[r, b] += 1
    return f


def solve_association(tau: np.ndarray, power: np.ndarray, channel: ChannelState,
                      dims: NetworkDims, sensing: SensingParams,
                      radio: RadioParams, node_limit: int = 200_000,
                      warm_start: Optional[Allocation] = None) -> AssocSolveResult:
    """Exact optimum of the association ILP by branch-and-bound.

    warm_start seeds the incumbent (checked for feasibility at the current
    tau/p first), which both speeds the search and guarantees the result is
    never worse than the provided allocation. ValueError when num_bbus
    exceeds 16: the capacity test enumerates every BBU subset.
    """
    if dims.num_bbus > _MAX_BBUS:
        raise ValueError(f"num_bbus={dims.num_bbus} exceeds {_MAX_BBUS}: the "
                         "capacity test enumerates all 2^num_bbus BBU subsets")
    R, K, N = dims.num_rrhs, dims.num_subcarriers, dims.num_users
    rates_rkn = rate_table(tau, power, channel, sensing, radio)
    rsv = radio.reserved_rate_per_slice(dims.num_slices)

    # Slot-major table, slots ordered by best achievable rate.
    slots = [(r, k) for r in range(R) for k in range(K)]
    best_per_slot = rates_rkn.max(axis=2).ravel()
    order = np.argsort(-best_per_slot, kind="stable")
    slot_r = np.array([slots[i][0] for i in order])
    slot_k = np.array([slots[i][1] for i in order])
    rates = rates_rkn[slot_r, slot_k, :]  # (num_slots, N)

    search = _Search(rates, slot_r, slot_k, dims, rsv, node_limit)

    if warm_start is not None:
        seed = _seed_from_warm_start(warm_start, rates_rkn, dims, rsv, search)
        if seed is not None:
            search.best_obj, search.best = seed

    search.dfs(0)

    if search.best is None and search.hit_limit:
        raise SearchTruncatedError(
            f"association search stopped at node_limit={node_limit} before "
            "finding a feasible assignment",
            detail={"constraint": "node_limit", "nodes": search.nodes,
                    "prunes": dict(search.prune_causes)})
    if search.best is None:
        cause = max(search.prune_causes, key=search.prune_causes.get)
        family = {"C10": "C10 (slice reserved rates)",
                  "capacity": "C3/C7 (BBU or fronthaul capacity)",
                  "bound": "objective bound"}[cause]
        raise InfeasibleError(
            f"association ILP infeasible; dominant pruning family: {family}",
            detail={"constraint": cause, "prunes": dict(search.prune_causes)})

    choice, assigned = search.best
    beta = np.zeros((R, K, N), dtype=int)
    for j in range(len(choice)):
        if choice[j] >= 0:
            beta[slot_r[j], slot_k[j], choice[j]] = 1
    x = np.zeros((N, R), dtype=int)
    for n in range(N):
        if assigned[n] >= 0 and beta[assigned[n], :, n].any():
            x[n, assigned[n]] = 1
    served = x.sum(axis=1) > 0
    assigned_eff = np.where(served, assigned, -1)
    f = _deterministic_bbu_assignment(assigned_eff, dims)
    y = Allocation(sensing_time=tau, power=power, uav=beta, rrh_assoc=x,
                   bbu_assoc=f).derived_linkage()
    return AssocSolveResult(bbu_assoc=f, rrh_assoc=x, uav=beta, linkage=y,
                            objective=float(search.best_obj),
                            nodes_explored=search.nodes,
                            proven_optimal=not search.hit_limit)


def _seed_from_warm_start(alloc, rates_rkn, dims, rsv, search):
    """Incumbent from a previous allocation, or None when it is infeasible."""
    beta = np.asarray(alloc.uav, dtype=int)
    x = np.asarray(alloc.rrh_assoc, dtype=int)
    f = np.asarray(alloc.bbu_assoc, dtype=int)
    if beta.shape != rates_rkn.shape:
        return None
    if np.any(beta.sum(axis=2) > 1) or np.any(x.sum(axis=1) > 1):
        return None
    if np.any(beta > x.T[:, None, :]):
        return None
    if np.any(f.sum(axis=0) > dims.bbu_user_cap):
        return None
    if np.any(np.abs(f.sum(axis=1) - x.sum(axis=1)) > 0):
        return None
    load = np.einsum("nb,nr->rb", f, x)
    if np.any(load > dims.fronthaul_cap):
        return None
    cell_rates = beta * rates_rkn
    per_slice = slice_rates(cell_rates, dims)
    if np.any(per_slice < rsv - 1e-9):
        return None
    obj = float(cell_rates.sum())
    assigned = np.where(x.sum(axis=1) > 0, np.argmax(x, axis=1), -1)
    # The stored best only needs choice/assigned shaped data for rebuild;
    # encode the warm start through its beta directly.
    choice = np.full(search.rates.shape[0], -1)
    for j in range(search.rates.shape[0]):
        users = np.flatnonzero(beta[search.slot_r[j], search.slot_k[j]])
        if users.size:
            choice[j] = int(users[0])
    return obj, (choice, assigned)

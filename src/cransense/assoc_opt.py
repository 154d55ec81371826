"""User-association ILP: exact branch-and-bound over (RRH, sub-carrier) slots.

Given tau and p, the per-cell rates are constants, so the problem is: pick
at most one user per (r, k) slot (C5), keep every user on a single RRH
(C4/C6), respect BBU and fronthaul capacities through a transportation
feasibility check (C3/C7/C8 via the y linearization), and meet the slice
minimum rates (C10). The search branches slot by slot in descending
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


def linearize_c7(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linearization variable y[b, r, n] = f[n, b] * x[n, r].

    For binary f, x this is exactly the point forced by the constraint set
    y <= f, y <= x, y >= f + x - 1 together with 0/1 bounds.
    """
    return np.einsum("nb,nr->brn", np.asarray(f, dtype=int), np.asarray(x, dtype=int))


def _max_flow(supply, edge_cap, sink_cap):
    """Max flow of the RRH->BBU transportation graph; returns (value, flow).

    supply is the per-RRH user count, edge_cap the (R, B) fronthaul caps,
    sink_cap the per-BBU processing cap. Edmonds-Karp on the tiny graph.
    """
    R, B = edge_cap.shape
    n = R + B + 2
    src, snk = n - 2, n - 1
    cap = np.zeros((n, n))
    for r in range(R):
        cap[src, r] = supply[r]
        cap[r, R:R + B] = edge_cap[r]
    for b in range(B):
        cap[R + b, snk] = sink_cap
    flow_val = 0.0
    while True:
        parent = np.full(n, -1)
        parent[src] = src
        queue = [src]
        while queue:
            u = queue.pop(0)
            if u == snk:
                break
            for v in range(n):
                if parent[v] < 0 and cap[u, v] > 1e-9:
                    parent[v] = u
                    queue.append(v)
        if parent[snk] < 0:
            break
        # Bottleneck along the path, then push.
        path, v = [], snk
        while v != src:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u, v] for u, v in path)
        for u, v in path:
            cap[u, v] -= push
            cap[v, u] += push
        flow_val += push
    flow = np.array([[cap[R + b, r] for b in range(B)] for r in range(R)])
    return flow_val, flow


class _Search:
    def __init__(self, rates, slot_r, slot_k, dims, rsv, node_limit):
        self.rates = rates                      # (num_slots, N)
        self.slot_r = slot_r
        self.slot_k = slot_k
        self.dims = dims
        self.floor = rsv - 1e-9                 # C10 with the search's tolerance
        self.node_limit = node_limit
        N = dims.num_users
        self.user_slice = dims.user_slice
        # (Ns, num_slots, N): each slice's users' rates, zero elsewhere.
        in_slice = self.user_slice == np.arange(dims.num_slices)[:, None]
        self.slice_rates = np.where(in_slice[:, None, :], rates, 0.0)
        self.rrh_ids = np.arange(dims.num_rrhs)[:, None]
        self.row_cap = dims.fronthaul_cap.sum(axis=1)
        self.total_cap = min(dims.num_bbus * dims.bbu_user_cap,
                             int(dims.fronthaul_cap.sum()))
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
        self.flow_cache = {}
        # Per-slot candidate users by descending rate, zero-rate users
        # skipped: the descending order puts each slot's positive rates first.
        order = np.argsort(-rates, axis=1, kind="stable").tolist()
        positive = (rates > 0.0).sum(axis=1).tolist()
        self.cand = [row[:m] for row, m in zip(order, positive)]

    def feasible_counts(self, counts):
        key = tuple(counts.tolist())
        hit = self.flow_cache.get(key)
        if hit is None:
            if np.any(counts > self.row_cap) or counts.sum() > self.total_cap:
                hit = False
            else:
                val, _ = _max_flow(counts, self.dims.fronthaul_cap, self.dims.bbu_user_cap)
                hit = val >= counts.sum() - 1e-9
            self.flow_cache[key] = hit
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
    """f consistent with C3/C7/C8 for the committed user->RRH map."""
    N = dims.num_users
    counts = np.bincount(assigned[assigned >= 0], minlength=dims.num_rrhs)
    _, flow = _max_flow(counts, dims.fronthaul_cap, dims.bbu_user_cap)
    f = np.zeros((N, dims.num_bbus), dtype=int)
    remaining = flow.copy()  # (R, B) user counts to place
    for n in range(N):
        r = assigned[n]
        if r < 0:
            continue
        b = int(np.argmax(remaining[r] > 1e-9))
        f[n, b] = 1
        remaining[r, b] -= 1
    return f


def solve_association(tau: np.ndarray, power: np.ndarray, channel: ChannelState,
                      dims: NetworkDims, sensing: SensingParams,
                      radio: RadioParams, node_limit: int = 200_000,
                      warm_start: Optional[Allocation] = None) -> AssocSolveResult:
    """Exact optimum of the association ILP by branch-and-bound.

    warm_start seeds the incumbent (checked for feasibility at the current
    tau/p first), which both speeds the search and guarantees the result is
    never worse than the provided allocation.
    """
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
    y = linearize_c7(f, x)
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

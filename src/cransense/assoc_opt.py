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
greedy solution and the certified optimum follows. A warm start enters as
one more leaf, accepted by the rules the search applies to its own leaves.

The bound table holds, per slice and slot, the best rate of a user still
allowed on that slot's RRH. At the root it is each slice's plain maximum.
Only a node that assigns a new user changes it: that user's slice row
rescans, down a per-(slice, slot) candidate list sorted by rate, the slots
of other RRHs where the user held the maximum. A maximum is exact, so the
table equals a from-scratch rebuild bit for bit; nodes that assign no new
user share their parent's table.

A node applies the bound test to each child on its own table before
entering it. A narrowed table is no larger entry by entry and numpy's sum
is monotone, so a child this test prunes would prune itself at entry: it
is counted as a node and a bound prune, and node_limit stops on it, as if
it had been entered. The test is monotone in the child's accumulated
objective, and the incumbent only rises while a node runs, so once one
child fails it, a later sibling whose objective is no higher fails it too:
such a sibling is counted untested, in one step with the others pending
before the next child is entered, and its += rate / -= rate round trip,
whose rounding is part of the search's bits, is still replayed. A child
that adds no user shares its parent's table and objective, so its entry
test would repeat the look-ahead it has just passed, and is skipped; a
child that adds a user narrows the table and is tested again. A slice
already at its C10 floor needs no tail sum: the tail adds terms >= 0.
Counts are restored after every child, so whether the slot's RRH has room
for one more user is asked once per node.

The bound and C10 prunes compare numpy's sum of the table's tail, whose
bits decide the prunes that tie. Each table carries right-to-left suffix
sums too: for L terms >= 0 both sums lie within (L-1) 2^-53 of the exact
one, relatively, and adding a number rounds monotonically, so a slack of
L 2^-50 around the suffix sum brackets where numpy's sum puts the
comparison. numpy sums only when the bracket straddles the threshold,
which takes a near tie (none of 33,679 checks over the 40 dense tables
of the assoc-dense benchmark at seed 0), and the search explores the same
nodes, with the same prunes, as with numpy's sum at every node.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
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


def check_bbu_count(num_bbus: int):
    """ValueError, naming num_bbus, when the capacity test cannot take it."""
    if num_bbus > _MAX_BBUS:
        raise ValueError(f"num_bbus={num_bbus} exceeds {_MAX_BBUS}: the "
                         "capacity test enumerates all 2^num_bbus BBU subsets")


def _subsets(B):
    """(2^B, B) 0/1 membership: row Y holds BBU b when bit b of Y is set."""
    return (np.arange(2 ** B)[:, None] >> np.arange(B)) & 1


def _cut_table(bbu_cap, fronthaul_cap):
    """Gale's cut table over every BBU subset Y (bit b of the row index).

    Returns (inside, outside): inside (2^B,) is the processing cap of the
    BBUs in Y, outside (2^B, R) each RRH's fronthaul into the BBUs not in Y.
    """
    member = _subsets(fronthaul_cap.shape[1])
    return member @ bbu_cap, (1 - member) @ fronthaul_cap.T


def _servable(counts, cuts):
    """Can the BBU pool serve these per-RRH user counts (C3/C7/C8)?

    By max-flow/min-cut (Gale 1957) exactly when, for every BBU subset Y,
    counts.sum() <= cap(Y) + sum_r min(counts[r], fronthaul(r, B minus Y)).
    """
    inside, outside = cuts
    return bool((counts.sum() <= inside + np.minimum(counts, outside).sum(axis=1)).all())


class _Search:
    """Depth-first search over the slots in order, one user or none per slot.

    A bound table is (vals, vsuf, per, psuf): vals[s][j] is the best rate on
    slot j of a slice-s user still allowed there (0.0 if none), per[j] the
    max over slices, and vsuf[s] and psuf their right-to-left suffix sums.
    """

    def __init__(self, rates, slot_r, dims, rsv, node_limit):
        # The tail-sum bracket needs every summand >= 0 (NaN fails too).
        if not (rates >= 0.0).all():
            raise ValueError("association rates must be non-negative")
        self.num_slots = rates.shape[0]
        self.rates = rates.tolist()             # [slot][user]
        self.slot_r = slot_r.tolist()
        self.floor = (rsv - 1e-9).tolist()      # C10 with the search's tolerance
        self.node_limit = node_limit
        N = dims.num_users
        self.user_slice = dims.user_slice.tolist()
        self.cuts = _cut_table(np.full(dims.num_bbus, dims.bbu_user_cap),
                               dims.fronthaul_cap)
        self.assigned = [-1] * N
        self.counts = [0] * dims.num_rrhs
        self.slice_acc = [0.0] * dims.num_slices
        self.choice = [-1] * self.num_slots
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
        # The same lists split by slice, built when a bound-table cell first
        # rescans: sparse tables seldom need any.
        self.slice_cand = [[None] * self.num_slots for _ in self.floor]
        # Bound table with no user assigned: each slice's best rate per slot
        # (users are slice-major, see NetworkDims.user_slice), and per slot.
        vals = rates.reshape(self.num_slots, dims.num_slices, -1).max(axis=2).T.tolist()
        per = [row[c[0]] if c else 0.0 for row, c in zip(self.rates, self.cand)]
        self.root_table = (vals, [_suffix_sums(v) for v in vals], per, _suffix_sums(per))

    def narrowed(self, table, i, n):
        """The table after user n's fresh assignment, exact on slots i and on.

        Only n's slice row can change, and only where n held the best rate
        on a slot of another RRH; those cells rescan their candidate list.
        Unchanged rows and tables are shared, never written.
        """
        vals, vsuf, per, psuf = table
        s, r = self.user_slice[n], self.assigned[n]
        rates, slot_r, assigned = self.rates, self.slot_r, self.assigned
        row = vals[s]
        new_row = new_per = None
        for j in range(i, self.num_slots):
            v = row[j]
            if not v or v != rates[j][n] or slot_r[j] == r:
                continue
            cands = self.slice_cand[s][j]
            if cands is None:
                cands = self.slice_cand[s][j] = [
                    m for m in self.cand[j] if self.user_slice[m] == s]
            best = 0.0
            rj = slot_r[j]
            for m in cands:
                a = assigned[m]
                if a < 0 or a == rj:
                    best = rates[j][m]
                    break
            if best == v:
                continue
            if new_row is None:
                new_row = row[:]
            new_row[j] = best
            if per[j] == v:
                if new_per is None:
                    new_per = per[:]
                new_per[j] = max(vals[t][j] if t != s else best
                                 for t in range(len(vals)))
        if new_row is None:
            return table
        vals, vsuf = vals[:], vsuf[:]
        vals[s], vsuf[s] = new_row, _suffix_sums(new_row)
        if new_per is not None:
            per, psuf = new_per, _suffix_sums(new_per)
        return vals, vsuf, per, psuf

    def feasible_counts(self, counts):
        key = tuple(counts)
        hit = self.cut_cache.get(key)
        if hit is None:
            hit = self.cut_cache[key] = _servable(np.array(counts), self.cuts)
        return hit

    def dfs(self, i, table, new_user=-1):
        if self.hit_limit:
            return
        self.nodes += 1
        if self.nodes > self.node_limit:
            self.hit_limit = True
            return
        if i == self.num_slots:
            if all(a >= f for a, f in zip(self.slice_acc, self.floor)):
                if self.obj_acc > self.best_obj + _TIE_TOL:
                    self.best_obj = self.obj_acc
                    self.best = (self.choice[:], self.assigned[:])
            else:
                self.prune_causes["C10"] += 1
            return
        if new_user >= 0:
            table = self.narrowed(table, i, new_user)
        vals, vsuf, per, psuf = table
        length = self.num_slots - i
        # A child on its parent's table passed this very test in the parent.
        if (new_user >= 0 or i == 0) and _tail_below(
                self.obj_acc, psuf[i], length, per, i,
                self.best_obj + _TIE_TOL, operator.le):
            self.prune_causes["bound"] += 1
            return
        slice_acc = self.slice_acc
        for s, floor in enumerate(self.floor):
            # A met floor stays met: the tail adds terms >= 0.
            if slice_acc[s] < floor and _tail_below(
                    slice_acc[s], vsuf[s][i], length, vals[s], i, floor, operator.lt):
                self.prune_causes["C10"] += 1
                return

        # Children are bound-tested on this table before entry, a sibling at
        # no more than a pruned child's value is pruned untested, and RRH r's
        # room for a new user is asked once (see the module docstring).
        nxt = i + 1
        tail = psuf[nxt] if nxt < self.num_slots else None
        r = self.slot_r[i]
        rates = self.rates[i]
        assigned, counts = self.assigned, self.counts
        room = None
        cut = -np.inf   # obj_acc + rate of the highest child pruned so far
        pruned = 0      # children pruned and not yet counted
        for n in self.cand[i]:
            prev = assigned[n]
            if prev >= 0 and prev != r:
                continue
            fresh = prev < 0
            if fresh:
                if room is None:
                    counts[r] += 1
                    room = self.feasible_counts(counts)
                    counts[r] -= 1
                if not room:
                    self.prune_causes["capacity"] += 1
                    continue
            rate = rates[n]
            s = self.user_slice[n]
            acc = self.obj_acc + rate
            if acc <= cut:
                # Pruned; its += rate / -= rate drift is part of the bits.
                self.obj_acc = acc - rate
                slice_acc[s] = (slice_acc[s] + rate) - rate
                pruned += 1
                continue
            self.obj_acc = acc
            slice_acc[s] += rate
            if tail is not None and _tail_below(acc, tail, length - 1, per, nxt,
                                                self.best_obj + _TIE_TOL, operator.le):
                cut = acc
                pruned += 1
            else:
                if pruned:
                    self.count_pruned(pruned)
                    pruned = 0
                self.choice[i] = n
                if fresh:
                    assigned[n] = r
                    counts[r] += 1
                self.dfs(nxt, table, n if fresh else -1)
                self.choice[i] = -1
                if fresh:
                    assigned[n] = -1
                    counts[r] -= 1
            self.obj_acc -= rate
            slice_acc[s] -= rate
        # leave the slot empty
        empty_pruned = self.obj_acc <= cut or (
            tail is not None and _tail_below(self.obj_acc, tail, length - 1, per, nxt,
                                             self.best_obj + _TIE_TOL, operator.le))
        self.count_pruned(pruned + empty_pruned)
        if not empty_pruned:
            self.dfs(nxt, table)

    def count_pruned(self, m=1):
        """Count m children as dfs would when each one's entry bound test prunes it."""
        if self.hit_limit:
            return
        self.nodes += m
        if self.nodes > self.node_limit:
            m -= self.nodes - self.node_limit
            self.nodes = self.node_limit + 1
            self.hit_limit = True
        self.prune_causes["bound"] += m


def _suffix_sums(xs):
    """[sum(xs[j:]) for j in 0..len(xs)], each added from the right end."""
    return list(accumulate(reversed(xs), initial=0.0))[::-1]


# For L summands >= 0, numpy's sum and the right-to-left sum each lie within
# (L-1) 2^-53 of the exact sum, relative to it, whatever the order: a slack
# of L 2^-50 covers their distance twice over, rounding of the slack included.
_BRACKET = 2.0 ** -50


def _tail_below(acc, seq_tail, length, row, i, threshold, below):
    """below(acc + numpy's sum of row[i:], threshold), numpy summing only if needed.

    seq_tail is the right-to-left sum of row[i:] and length its term count.
    Adding acc rounds monotonically, so when both ends of seq_tail +- slack
    decide alike, numpy's sum decides the same; its own bits, which settle
    ties, are needed only in the band between.
    """
    slack = seq_tail * length * _BRACKET
    if below(acc + (seq_tail + slack), threshold):
        return True
    if not below(acc + (seq_tail - slack), threshold):
        return False
    return below(acc + float(np.sum(row[i:])), threshold)


def _deterministic_bbu_assignment(assigned, dims, cuts):
    """f consistent with C3/C7/C8 for a servable user->RRH map.

    Each served user, in index order, takes the lowest-index BBU whose unit
    of capacity leaves the users after it servable, which keeps the whole
    map servable at every step. cuts is dims' cut table and is not written:
    taking a unit of BBU b's capacity and of the r->b link lowers a copy's
    inside by b's membership column and outside[:, r] by its complement, in
    exact integers.
    """
    inside, outside = cuts[0].copy(), cuts[1].copy()
    member = _subsets(dims.num_bbus)
    other = 1 - member
    bbu_left = [dims.bbu_user_cap] * dims.num_bbus
    link_left = dims.fronthaul_cap.tolist()
    left = np.bincount(assigned[assigned >= 0], minlength=dims.num_rrhs)
    f = np.zeros((dims.num_users, dims.num_bbus), dtype=int)
    for n in np.flatnonzero(assigned >= 0).tolist():
        r = int(assigned[n])
        left[r] -= 1
        for b in range(dims.num_bbus):
            if bbu_left[b] < 1 or link_left[r][b] < 1:
                continue
            inside -= member[:, b]
            outside[:, r] -= other[:, b]
            if _servable(left, (inside, outside)):
                bbu_left[b] -= 1
                link_left[r][b] -= 1
                f[n, b] = 1
                break
            inside += member[:, b]
            outside[:, r] += other[:, b]
    return f


def solve_association(tau: np.ndarray, power: np.ndarray, channel: ChannelState,
                      dims: NetworkDims, sensing: SensingParams,
                      radio: RadioParams, node_limit: int = 200_000,
                      warm_start: Optional[Allocation] = None) -> AssocSolveResult:
    """Exact optimum of the association ILP by branch-and-bound.

    warm_start seeds the incumbent with the leaf that serves its uav's
    cells, scored at the current tau/p, when the search would accept that
    leaf itself; its rrh_assoc and bbu_assoc are not read, since the answer
    rebuilds x and f from the served users. The seed both speeds the search
    and keeps the result no worse than the warm start's beta. ValueError
    when num_bbus exceeds 16 (the capacity test enumerates every BBU
    subset) or when warm_start.uav is not (R, K, N).
    """
    check_bbu_count(dims.num_bbus)
    R, K, N = dims.num_rrhs, dims.num_subcarriers, dims.num_users
    rates_rkn = rate_table(tau, power, channel, sensing, radio)
    rsv = radio.reserved_rate_per_slice(dims.num_slices)

    # Slot-major table, slots ordered by best achievable rate.
    order = np.argsort(-rates_rkn.max(axis=2).ravel(), kind="stable")
    slot_r, slot_k = np.divmod(order, K)
    rates = rates_rkn[slot_r, slot_k, :]  # (num_slots, N)

    search = _Search(rates, slot_r, dims, rsv, node_limit)

    if warm_start is not None:
        seed = _seed_from_warm_start(warm_start.uav, rates_rkn, dims, search,
                                     slot_r, slot_k)
        if seed is not None:
            search.best_obj, search.best = seed

    search.dfs(0, search.root_table)

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

    # A leaf assigns exactly the users it serves.
    choice, assigned = map(np.asarray, search.best)
    on = choice >= 0
    beta = np.zeros((R, K, N), dtype=int)
    beta[slot_r[on], slot_k[on], choice[on]] = 1
    served = np.flatnonzero(assigned >= 0)
    x = np.zeros((N, R), dtype=int)
    x[served, assigned[served]] = 1
    f = _deterministic_bbu_assignment(assigned, dims, search.cuts)
    y = Allocation(sensing_time=tau, power=power, uav=beta, rrh_assoc=x,
                   bbu_assoc=f).derived_linkage()
    return AssocSolveResult(bbu_assoc=f, rrh_assoc=x, uav=beta, linkage=y,
                            objective=float(search.best_obj),
                            nodes_explored=search.nodes,
                            proven_optimal=not search.hit_limit)


def _seed_from_warm_start(uav, rates_rkn, dims, search, slot_r, slot_k):
    """(objective, (choice, assigned)) of the leaf serving uav's cells.

    None when the search would reject that leaf: two users in a slot (C5),
    a user served by two RRHs (C4/C6), per-RRH counts the BBU pool cannot
    serve (C3/C7/C8), or a slice below its floor (C10).
    """
    on = np.asarray(uav, dtype=int) != 0
    if on.shape != rates_rkn.shape:
        raise ValueError(f"warm_start.uav has shape {on.shape}, expected "
                         f"(R, K, N) = {rates_rkn.shape}")
    user_rrh = on.any(axis=1)  # (R, N)
    if (on.sum(axis=2) > 1).any() or (user_rrh.sum(axis=0) > 1).any():
        return None
    if not _servable(user_rrh.sum(axis=1), search.cuts):
        return None
    cell_rates = on * rates_rkn
    if (slice_rates(cell_rates, dims) < np.asarray(search.floor)).any():
        return None
    picked = on[slot_r, slot_k]
    choice = np.where(picked.any(axis=1), picked.argmax(axis=1), -1)
    assigned = np.where(user_rrh.any(axis=0), user_rrh.argmax(axis=0), -1)
    return float(cell_rates.sum()), (choice, assigned)

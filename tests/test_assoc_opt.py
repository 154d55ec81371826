import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from conftest import (make_dims, make_radio, make_sensing, random_alloc,
                      random_channel)
from cransense import assoc_opt, cli, scenario
from cransense.assoc_opt import rate_table, solve_association
from cransense.model import (Allocation, InfeasibleError, NetworkDims,
                             SearchTruncatedError, approx_rate_cells,
                             check_constraints)


def bbu_feasible_brute(assigned, dims):
    """Enumerate every BBU choice of the served users against C3/C7."""
    served = sorted(assigned)
    if not served:
        return True
    for combo in product(range(dims.num_bbus), repeat=len(served)):
        load_b = np.zeros(dims.num_bbus, dtype=int)
        load_rb = np.zeros((dims.num_rrhs, dims.num_bbus), dtype=int)
        for n, b in zip(served, combo):
            load_b[b] += 1
            load_rb[assigned[n], b] += 1
        if np.all(load_b <= dims.bbu_user_cap) and \
                np.all(load_rb <= dims.fronthaul_cap):
            return True
    return False


def brute_force_association(rates, dims, rsv):
    """Exhaustive slot-assignment maximum; -inf when nothing is feasible."""
    R, K, N = rates.shape
    slots = [(r, k) for r in range(R) for k in range(K)]
    user_slice = dims.user_slice
    best = -np.inf
    for pick in product(range(-1, N), repeat=len(slots)):
        assigned = {}
        obj = 0.0
        per_slice = np.zeros(dims.num_slices)
        ok = True
        for (r, k), n in zip(slots, pick):
            if n < 0:
                continue
            if assigned.get(n, r) != r:
                ok = False
                break
            assigned[n] = r
            obj += rates[r, k, n]
            per_slice[user_slice[n]] += rates[r, k, n]
        if not ok or np.any(per_slice < rsv - 1e-9):
            continue
        if obj <= best:
            continue
        if bbu_feasible_brute(assigned, dims):
            best = obj
    return best


def tiny_dims(omax=2, cmax=1):
    # 3 users over 2 slices, 2 RRHs, 2 BBUs, 2 sub-carriers: 4 slots.
    return make_dims(S=2, R=2, B=2, K=2, Ns=2, omax=omax, cmax=cmax)


def max_flow_servable(counts, fronthaul_cap, bbu_user_cap):
    """Independent oracle: scipy's max flow on source -> RRHs -> BBUs -> sink."""
    R, B = fronthaul_cap.shape
    src, snk = R + B, R + B + 1
    cap = np.zeros((R + B + 2, R + B + 2), dtype=np.int32)
    cap[src, :R] = counts
    cap[:R, R:R + B] = fronthaul_cap
    cap[R:R + B, snk] = bbu_user_cap
    flow = maximum_flow(csr_matrix(cap), src, snk)
    return flow.flow_value == counts.sum()


def cap_matrices(R, B, rng):
    """Uniform fronthaul caps 0-2 plus three random 0-2 matrices."""
    yield from (np.full((R, B), c) for c in range(3))
    for _ in range(3):
        yield rng.integers(0, 3, size=(R, B))


def test_cut_condition_matches_max_flow(rng):
    checked = servable = 0
    for R, B in product(range(1, 4), repeat=2):
        for fronthaul in cap_matrices(R, B, rng):
            for omax in range(4):
                cuts = assoc_opt._cut_table(np.full(B, omax), fronthaul)
                for counts in product(range(4), repeat=R):
                    counts = np.array(counts)
                    want = max_flow_servable(counts, fronthaul, omax)
                    assert assoc_opt._servable(counts, cuts) == want, \
                        (fronthaul, omax, counts)
                    checked += 1
                    servable += want
    assert 0 < servable < checked


def test_bbu_assignment_meets_capacities(rng):
    sensing = make_sensing()
    radio = make_radio()
    for R, B in product(range(1, 4), repeat=2):
        for fronthaul in cap_matrices(R, B, rng):
            for omax in range(4):
                dims = NetworkDims(num_slices=3, num_rrhs=R, num_bbus=B,
                                   num_subcarriers=1, users_per_slice=4,
                                   bbu_user_cap=omax, fronthaul_cap=fronthaul)
                N = dims.num_users
                channel = random_channel(dims, rng)
                cuts = assoc_opt._cut_table(np.full(B, omax), fronthaul)
                for counts in product(range(4), repeat=R):
                    counts = np.array(counts)
                    # The cut test equals max flow (checked above).
                    if not assoc_opt._servable(counts, cuts):
                        continue
                    # Served users in a shuffled order among unserved ones.
                    assigned = np.full(N, -1)
                    users = rng.permutation(N)[:counts.sum()]
                    assigned[users] = np.repeat(np.arange(R), counts)
                    f = assoc_opt._deterministic_bbu_assignment(assigned, dims)
                    x = np.zeros((N, R), dtype=int)
                    x[users, assigned[users]] = 1
                    alloc = Allocation(sensing_time=np.full((R, 1), 0.1),
                                       power=np.zeros((R, 1, N)),
                                       uav=np.zeros((R, 1, N)),
                                       rrh_assoc=x, bbu_assoc=f)
                    res = check_constraints(alloc, dims, radio, sensing, channel)
                    assert res["C3"] == res["C7"] == res["C8"] == 0.0, \
                        (fronthaul, omax, counts)


def test_more_than_16_bbus_is_rejected(rng):
    dims = make_dims(R=1, B=17, K=1, Ns=1)
    channel = random_channel(dims, rng)
    with pytest.raises(ValueError, match="num_bbus"):
        solve_association(np.full((1, 1), 0.02), np.zeros((1, 1, 2)), channel,
                          dims, make_sensing(), make_radio())


def test_linearize_c7_is_the_binary_product(rng):
    # solve_association takes y from Allocation.derived_linkage; on binary
    # f, x it must be the product, the point the C7 linearization forces.
    for _ in range(10):
        f = rng.integers(0, 2, size=(5, 3))
        x = rng.integers(0, 2, size=(5, 4))
        alloc = Allocation(sensing_time=np.zeros((4, 1)), power=np.zeros((4, 1, 5)),
                           uav=np.zeros((4, 1, 5)), rrh_assoc=x, bbu_assoc=f)
        y = alloc.derived_linkage()
        for b in range(3):
            for r in range(4):
                for n in range(5):
                    assert y[b, r, n] == f[n, b] * x[n, r]
                    assert y[b, r, n] <= f[n, b] and y[b, r, n] <= x[n, r]
                    assert y[b, r, n] >= f[n, b] + x[n, r] - 1


def test_rate_table_matches_throughput_evaluator(rng):
    dims = make_dims()
    sensing = make_sensing()
    radio = make_radio()
    channel = random_channel(dims, rng)
    alloc = random_alloc(dims, rng)
    table = rate_table(alloc.sensing_time, alloc.power, channel, sensing, radio)
    # Filling beta with ones makes the per-cell approximation equal the table.
    full = alloc.copy()
    full.uav = np.ones_like(full.uav)
    assert np.allclose(table, approx_rate_cells(full, channel, sensing, radio))


def test_matches_brute_force(rng):
    dims = tiny_dims()
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    # Drop one user per instance so N=3 keeps the enumeration tiny.
    for trial in range(30):
        channel = random_channel(dims, rng)
        tau = np.full((2, 2), 0.02)
        power = rng.uniform(0, 0.2, size=(2, 2, 4))
        power[:, :, 3] = 0.0
        rates = rate_table(tau, power, channel, sensing, radio).copy()
        rates[:, :, 3] = 0.0
        oracle = brute_force_association(rates[:, :, :3], dims, np.zeros(2))
        res = solve_association(tau, power, channel, dims, sensing, radio)
        assert res.proven_optimal
        assert res.objective == pytest.approx(max(oracle, 0.0), abs=1e-9)


def test_matches_brute_force_with_slice_floors(rng):
    dims = tiny_dims()
    sensing = make_sensing()
    for trial in range(20):
        channel = random_channel(dims, rng)
        tau = np.full((2, 2), 0.02)
        power = rng.uniform(0, 0.2, size=(2, 2, 4))
        rates = rate_table(tau, power, channel, sensing, radio := make_radio())
        rsv = 0.5 * float(rates.max())
        radio = make_radio(rsv=rsv)
        oracle = brute_force_association(rates, dims, np.full(2, rsv))
        if np.isinf(oracle):
            with pytest.raises(InfeasibleError):
                solve_association(tau, power, channel, dims, sensing, radio)
        else:
            res = solve_association(tau, power, channel, dims, sensing, radio)
            assert res.objective == pytest.approx(oracle, abs=1e-9)


def test_result_satisfies_all_constraints(rng):
    dims = make_dims(S=2, R=2, B=2, K=3, Ns=2, omax=2, cmax=2)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    for _ in range(10):
        channel = random_channel(dims, rng)
        tau = np.full((2, 3), 0.19)
        power = rng.uniform(0, 0.1, size=(2, 3, 4))
        res = solve_association(tau, power, channel, dims, sensing, radio)
        alloc = Allocation(sensing_time=tau, power=power * (res.uav > 0),
                           uav=res.uav, rrh_assoc=res.rrh_assoc,
                           bbu_assoc=res.bbu_assoc, linkage=res.linkage)
        viol = check_constraints(alloc, dims, radio, sensing, channel)
        for key in ("C3", "C4", "C5", "C6", "C7", "C8"):
            assert viol[key] == 0.0
        assert np.allclose(res.linkage, alloc.derived_linkage())


def test_warm_start_never_hurts(rng):
    dims = tiny_dims(omax=4, cmax=2)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    channel = random_channel(dims, rng)
    warm = random_alloc(dims, rng)
    tau = warm.sensing_time
    power = warm.power
    rates = rate_table(tau, power, channel, sensing, radio)
    warm_obj = float((warm.uav * rates).sum())
    res = solve_association(tau, power, channel, dims, sensing, radio,
                            warm_start=warm)
    assert res.objective >= warm_obj - 1e-12


def test_warm_start_floor_holds_under_tiny_node_limit(rng):
    # Caps loose enough that the random warm start is always feasible.
    dims = make_dims(S=2, R=3, B=2, K=4, Ns=3, omax=6, cmax=6)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    channel = random_channel(dims, rng)
    warm = random_alloc(dims, rng)
    rates = rate_table(warm.sensing_time, warm.power, channel, sensing, radio)
    warm_obj = float((warm.uav * rates).sum())
    res = solve_association(warm.sensing_time, warm.power, channel, dims,
                            sensing, radio, node_limit=5, warm_start=warm)
    assert res.objective >= warm_obj - 1e-12


def test_infeasible_slice_floor_raises(rng):
    dims = tiny_dims()
    sensing = make_sensing()
    radio = make_radio(rsv=1e9)
    channel = random_channel(dims, rng)
    tau = np.full((2, 2), 0.02)
    power = rng.uniform(0, 0.2, size=(2, 2, 4))
    with pytest.raises(InfeasibleError) as exc:
        solve_association(tau, power, channel, dims, sensing, radio)
    assert exc.value.detail["constraint"] == "C10"


def test_truncated_search_without_incumbent_is_not_infeasibility(rng):
    dims = tiny_dims()
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)  # no slice floor: beta = 0 is feasible
    channel = random_channel(dims, rng)
    tau = np.full((2, 2), 0.02)
    power = rng.uniform(0, 0.2, size=(2, 2, 4))
    with pytest.raises(SearchTruncatedError) as exc:
        solve_association(tau, power, channel, dims, sensing, radio, node_limit=1)
    assert isinstance(exc.value, InfeasibleError)  # fallbacks still catch it
    assert exc.value.detail["constraint"] == "node_limit"
    assert exc.value.detail["nodes"] == 2
    assert set(exc.value.detail["prunes"]) == {"bound", "C10", "capacity"}


def test_deterministic_across_repeats(rng):
    dims = tiny_dims()
    sensing = make_sensing()
    radio = make_radio()
    channel = random_channel(dims, rng)
    tau = np.full((2, 2), 0.02)
    power = rng.uniform(0, 0.2, size=(2, 2, 4))
    a = solve_association(tau, power, channel, dims, sensing, radio)
    b = solve_association(tau, power, channel, dims, sensing, radio)
    assert np.array_equal(a.uav, b.uav)
    assert np.array_equal(a.bbu_assoc, b.bbu_assoc)
    assert a.objective == b.objective


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), omax=st.integers(1, 3),
       cmax=st.integers(1, 2), floor=st.sampled_from([0.0, 0.3, 0.6]))
def test_property_matches_brute_force(seed, omax, cmax, floor):
    rng = np.random.default_rng(seed)
    dims = tiny_dims(omax=omax, cmax=cmax)
    sensing = make_sensing()
    channel = random_channel(dims, rng)
    tau = np.full((2, 2), 0.02)
    power = rng.uniform(0, 0.2, size=(2, 2, 4))
    rates = rate_table(tau, power, channel, sensing, make_radio())
    rsv = floor * float(rates.max())
    radio = make_radio(rsv=rsv)
    oracle = brute_force_association(rates, dims, np.full(2, rsv))
    if np.isinf(oracle):
        with pytest.raises(InfeasibleError):
            solve_association(tau, power, channel, dims, sensing, radio)
        return
    res = solve_association(tau, power, channel, dims, sensing, radio)
    assert res.proven_optimal
    assert res.objective == pytest.approx(oracle, abs=1e-9)


def highs_association(rates, dims, rsv):
    """The association ILP's optimum by HiGHS, an oracle independent of the search.

    Binaries beta[r, k, n] and z[n, r, b] (user n reaches BBU b through RRH
    r): the capacities are rows on z, not Gale's cut condition.
    """
    R, K, N = rates.shape
    B = dims.num_bbus
    beta = np.arange(R * K * N).reshape(R, K, N)
    z = beta.size + np.arange(N * R * B).reshape(N, R, B)
    # (columns, coefficients, lower, upper) per row
    rows = [(beta[r, k], 1.0, -np.inf, 1) for r, k in np.ndindex(R, K)]  # C5
    rows += [(z[n], 1.0, -np.inf, 1) for n in range(N)]  # one (RRH, BBU) per user
    rows += [(z[:, :, b], 1.0, -np.inf, dims.bbu_user_cap) for b in range(B)]
    rows += [(z[:, r, b], 1.0, -np.inf, dims.fronthaul_cap[r, b])
             for r, b in np.ndindex(R, B)]
    rows += [(np.r_[beta[r, k, n], z[n, r]], np.r_[1.0, -np.ones(B)], -np.inf, 0)
             for r, k, n in np.ndindex(R, K, N)]  # served only through a link
    rows += [(beta[:, :, dims.user_slice == s], rates[:, :, dims.user_slice == s],
              rsv[s] - 1e-9, np.inf) for s in range(dims.num_slices)]  # C10
    A = np.zeros((len(rows), beta.size + z.size))
    for i, (cols, coef, _, _) in enumerate(rows):
        A[i, np.ravel(cols)] = np.broadcast_to(coef, np.shape(cols)).ravel()
    _, _, lower, upper = zip(*rows)
    c = np.r_[-rates.ravel(), np.zeros(z.size)]
    res = milp(c, constraints=LinearConstraint(A, lower, upper),
               integrality=np.ones(c.size), bounds=(0, 1),
               options={"mip_rel_gap": 1e-12})
    assert res.status == 0, res.message
    return -res.fun


def dense_instance(draw, reserved):
    """A draw at the assoc-dense benchmark's size: 4 RRHs, 8 sub-carriers, 16
    users, 3 BBUs of 3 users, one user per fronthaul link, tau 1 ms and each
    RRH's budget spread over its cells."""
    cfg = cli.load_config(None)
    cfg["dims"].update(num_subcarriers=8, users_per_slice=8, bbu_user_cap=3,
                       fronthaul_cap=1)
    spec = cli.build_spec(cfg)
    dims = spec.dims
    R, K, N = dims.num_rrhs, dims.num_subcarriers, dims.num_users
    tau = np.full((R, K), 1e-3)
    power = np.broadcast_to(
        (spec.radio.max_power_per_rrh(R) / (K * N))[:, None, None], (R, K, N)).copy()
    channel, _ = scenario.generate_instance(spec, seed=draw)
    radio = dataclasses.replace(spec.radio, reserved_rate=np.array(reserved))
    return tau, power, channel, dims, spec.sensing, radio


# The three draws of 0-39 whose searches explore the most nodes (23,364,
# 14,460 and 5,103 at the default floors), and draw 11 with a slice-0 floor
# its unconstrained optimum (slice 0 at 14.4) misses.
@pytest.mark.parametrize("draw,reserved", [(31, [4.0, 4.0]), (13, [4.0, 4.0]),
                                           (11, [4.0, 4.0]), (11, [25.0, 4.0])])
def test_dense_optimum_matches_highs(draw, reserved):
    tau, power, channel, dims, sensing, radio = dense_instance(draw, reserved)
    res = solve_association(tau, power, channel, dims, sensing, radio)
    assert res.proven_optimal
    rates = rate_table(tau, power, channel, sensing, radio)
    oracle = highs_association(rates, dims, radio.reserved_rate_per_slice(2))
    assert res.objective == pytest.approx(oracle, rel=1e-9)
    if reserved[0] > 4.0:  # the floor binds: dropping it gains
        free = dataclasses.replace(radio, reserved_rate=0.0)
        loose = solve_association(tau, power, channel, dims, sensing, free)
        assert loose.objective > res.objective + 1.0


# Search fingerprints of three seeded mid-size instances: a change to the
# bound, the branching order or the pruning must show up here.
# (seed, R, K, Ns, omax, cmax, floor as a fraction of the best cell rate)
PINNED_SEARCHES = [
    ((0, 4, 4, 3, 3, 1, 0.0), 836, 2.792942868086571,
     {"bound": 615, "C10": 0, "capacity": 38}),
    ((1, 3, 4, 3, 2, 1, 0.3), 2583, 4.148783205030124,
     {"bound": 1642, "C10": 5, "capacity": 1436}),
    ((7, 4, 4, 2, 3, 2, 0.8), 1001, 2.4900153734268495,
     {"bound": 651, "C10": 2, "capacity": 0}),
]


@pytest.mark.parametrize("case,nodes,objective,prunes", PINNED_SEARCHES)
def test_search_is_pinned(monkeypatch, case, nodes, objective, prunes):
    seed, R, K, Ns, omax, cmax, floor = case
    searches = []

    class Recording(assoc_opt._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    monkeypatch.setattr(assoc_opt, "_Search", Recording)
    rng = np.random.default_rng(seed)
    dims = make_dims(S=2, R=R, B=2, K=K, Ns=Ns, omax=omax, cmax=cmax)
    sensing = make_sensing()
    channel = random_channel(dims, rng)
    tau = np.full((R, K), 0.02)
    power = rng.uniform(0, 0.2, size=(R, K, dims.num_users))
    rates = rate_table(tau, power, channel, sensing, make_radio())
    radio = make_radio(rsv=floor * float(rates.max()))
    res = solve_association(tau, power, channel, dims, sensing, radio)
    assert res.proven_optimal
    assert res.nodes_explored == nodes
    assert res.objective == objective
    assert searches[-1].prune_causes == prunes


class FromScratchSearch:
    """The search with a numpy bound table rebuilt for every new user and
    numpy tail sums at every node: the reference _Search must match node for
    node."""

    def __init__(self, rates, slot_r, dims, rsv, node_limit):
        self.rates = rates
        self.slot_r = slot_r
        self.floor = rsv - 1e-9
        self.node_limit = node_limit
        self.user_slice = dims.user_slice
        in_slice = self.user_slice == np.arange(dims.num_slices)[:, None]
        self.slice_rates = np.where(in_slice[:, None, :], rates, 0.0)
        self.rrh_ids = np.arange(dims.num_rrhs)[:, None]
        self.cuts = assoc_opt._cut_table(np.full(dims.num_bbus, dims.bbu_user_cap),
                                         dims.fronthaul_cap)
        self.assigned = np.full(dims.num_users, -1)
        self.counts = np.zeros(dims.num_rrhs, dtype=int)
        self.slice_acc = np.zeros(dims.num_slices)
        self.choice = np.full(rates.shape[0], -1)
        self.obj_acc = 0.0
        self.nodes = 0
        self.hit_limit = False
        self.best_obj = -np.inf
        self.best = None
        self.prune_causes = {"bound": 0, "C10": 0, "capacity": 0}
        order = np.argsort(-rates, axis=1, kind="stable").tolist()
        positive = (rates > 0.0).sum(axis=1).tolist()
        self.cand = [row[:m] for row, m in zip(order, positive)]
        self.root_table = None  # dfs builds the table

    def bound_table(self):
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
                if self.obj_acc > self.best_obj + assoc_opt._TIE_TOL:
                    self.best_obj = self.obj_acc
                    self.best = (self.choice.copy(), self.assigned.copy())
            else:
                self.prune_causes["C10"] += 1
            return
        if table is None:
            table = self.bound_table()
        vals, per_slot = table
        if self.obj_acc + float(per_slot[i:].sum()) <= self.best_obj + assoc_opt._TIE_TOL:
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
                if not assoc_opt._servable(self.counts, self.cuts):
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
        self.dfs(i + 1, table)


def traced_solve(search_cls, rates, dims, floor, warm, node_limit=20_000):
    """solve_association on a given rate table; its answer or error, and prunes."""
    searches = []

    class Recording(search_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    R, K, N = rates.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assoc_opt, "_Search", Recording)
        mp.setattr(assoc_opt, "rate_table", lambda *args: rates)
        try:
            res = solve_association(np.full((R, K), 0.02), np.zeros((R, K, N)), None,
                                    dims, make_sensing(), make_radio(rsv=floor),
                                    node_limit=node_limit, warm_start=warm)
        except InfeasibleError as err:
            return type(err).__name__, err.detail, searches[-1].prune_causes
    return ((res.objective.hex(), res.nodes_explored, res.proven_optimal,
             res.uav.tolist(), res.bbu_assoc.tolist()), searches[-1].prune_causes)


def floors_on_root_tails(rates, dims, left_to_right):
    """Per-slice reserved rates whose C10 floor equals the slice's root tail.

    The root tail is the sum over slots, in search order, of the slice's best
    rate; added left to right (as numpy adds a short row) or right to left,
    so the root's C10 test ties or misses by the bits the order decides.
    """
    R, K, N = rates.shape
    order = np.argsort(-rates.max(axis=2).ravel(), kind="stable")
    by_slot = rates.reshape(R * K, N)[order]
    reserved = []
    for s in range(dims.num_slices):
        row = by_slot[:, dims.user_slice == s].max(axis=1).tolist()
        tail = 0.0
        for v in row if left_to_right else row[::-1]:
            tail += v
        rsv = tail + 1e-9  # the search's floor is rsv - 1e-9: land it on tail
        for _ in range(4):
            if rsv - 1e-9 != tail:
                rsv = np.nextafter(rsv, np.inf if rsv - 1e-9 < tail else -np.inf)
        reserved.append(rsv)
    return np.array(reserved)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 3), K=st.integers(1, 3),
       S=st.integers(1, 3), Ns=st.integers(1, 2), omax=st.integers(1, 3),
       cmax=st.integers(0, 2), grid=st.sampled_from([None, (0.1, 0.2, 0.3)]),
       floor=st.sampled_from([None, 0.1, 0.3, 0.6, "tail", "reversed tail"]),
       warm=st.booleans())
def test_search_matches_from_scratch_reference(seed, R, K, S, Ns, omax, cmax, grid,
                                               floor, warm):
    # On a 3-value grid, tails and floors tie exactly, so a prune decided by
    # any sum but numpy's own would show up as a different search.
    rng = np.random.default_rng(seed)
    dims = make_dims(S=S, R=R, B=2, K=K, Ns=Ns, omax=omax, cmax=cmax)
    shape = (R, K, dims.num_users)
    if grid is None:
        rates = rng.uniform(0.0, 1.0, size=shape) * (rng.uniform(size=shape) < 0.8)
    else:
        rates = rng.choice([0.0, *grid], size=shape)
    if floor is None:
        rsv = 0.0
    elif isinstance(floor, str):
        rsv = floors_on_root_tails(rates, dims, floor == "tail")
    else:
        rsv = floor + 1e-9
    alloc = random_alloc(dims, rng) if warm else None
    want = traced_solve(FromScratchSearch, rates, dims, rsv, alloc)
    got = traced_solve(assoc_opt._Search, rates, dims, rsv, alloc)
    assert got == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 3), K=st.integers(1, 3),
       S=st.integers(1, 2), Ns=st.integers(1, 2), omax=st.integers(1, 3),
       cmax=st.integers(0, 2), grid=st.booleans(),
       floor=st.sampled_from([0.0, 0.1, 0.3]), warm=st.booleans(),
       node_limit=st.sampled_from([1, 2, 3, 5, 8, 13, 30, 100]))
def test_search_matches_from_scratch_reference_under_node_limits(
        seed, R, K, S, Ns, omax, cmax, grid, floor, warm, node_limit):
    # A child pruned before entry is counted as an entered one would be, so
    # a limit that stops the search among such children cuts it at the same
    # node, with the same prunes, incumbent or error.
    rng = np.random.default_rng(seed)
    dims = make_dims(S=S, R=R, B=2, K=K, Ns=Ns, omax=omax, cmax=cmax)
    shape = (R, K, dims.num_users)
    if grid:
        rates = rng.choice([0.0, 0.1, 0.2, 0.3], size=shape)
    else:
        rates = rng.uniform(0.0, 1.0, size=shape) * (rng.uniform(size=shape) < 0.8)
    alloc = random_alloc(dims, rng) if warm else None
    want = traced_solve(FromScratchSearch, rates, dims, floor, alloc, node_limit)
    got = traced_solve(assoc_opt._Search, rates, dims, floor, alloc, node_limit)
    assert got == want


@pytest.mark.parametrize("cap", [8, 1])
def test_siblings_after_a_pruned_child_are_counted_at_every_node_limit(cap):
    # One RRH, three slots. Slot 0 offers user 0 at 0.3 and seven users at an
    # equal 0.1, slots 1 and 2 all eight at 0.3. At the root, and at slot 1
    # below user 0, once the first sibling after user 0 fails the look-ahead,
    # the other six and the empty child are counted in one step. Every node
    # limit up to the whole search, so also the one landing on the last
    # sibling counted and the one before it, must stop where a search
    # entering every child stops. cap=1 turns each fresh user below the
    # root into a capacity prune instead.
    dims = make_dims(S=1, R=1, B=1, K=3, Ns=8, omax=cap, cmax=cap)
    rates = np.full((1, 3, 8), 0.3)
    rates[0, 0, 1:] = 0.1
    full = traced_solve(assoc_opt._Search, rates, dims, 0.0, None)
    (_, nodes, proven, _, _), prunes = full
    assert proven and prunes["bound"] >= 8
    assert full == traced_solve(FromScratchSearch, rates, dims, 0.0, None)
    for node_limit in range(1, nodes + 2):
        want = traced_solve(FromScratchSearch, rates, dims, 0.0, None, node_limit)
        got = traced_solve(assoc_opt._Search, rates, dims, 0.0, None, node_limit)
        assert got == want


@pytest.mark.parametrize("seed,R,K,S,Ns", [(380, 2, 3, 2, 2), (151, 3, 3, 1, 3),
                                           (268, 3, 3, 1, 3)])
def test_siblings_counted_untested_keep_their_rounding(seed, R, K, S, Ns):
    # On these draws the += rate / -= rate round trips of siblings counted
    # without a look-ahead move obj_acc, and a later incumbent carries that
    # in the last bit of the objective.
    rng = np.random.default_rng(seed)
    dims = make_dims(S=S, R=R, B=2, K=K, Ns=Ns, omax=2, cmax=1)
    rates = rng.choice([0.0, 0.1, 0.3, 0.7], size=(R, K, dims.num_users))
    want = traced_solve(FromScratchSearch, rates, dims, 0.0, None)
    assert traced_solve(assoc_opt._Search, rates, dims, 0.0, None) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 3), K=st.integers(1, 4),
       S=st.integers(1, 2), Ns=st.integers(1, 3), omax=st.integers(1, 3),
       cmax=st.integers(0, 2), value=st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 2.0]),
       floor=st.sampled_from([0.0, 0.2, 0.5]), warm=st.booleans(),
       node_limit=st.sampled_from([1, 3, 8, 30, 100, 20_000]))
def test_search_matches_from_scratch_reference_on_one_rate_value(
        seed, R, K, S, Ns, omax, cmax, value, floor, warm, node_limit):
    # Every positive rate is equal, so siblings tie on their accumulated
    # objective up to the rounding of each += rate / -= rate round trip: a
    # sibling counted untested must be one the look-ahead would prune.
    rng = np.random.default_rng(seed)
    dims = make_dims(S=S, R=R, B=2, K=K, Ns=Ns, omax=omax, cmax=cmax)
    rates = value * (rng.uniform(size=(R, K, dims.num_users)) < 0.7)
    alloc = random_alloc(dims, rng) if warm else None
    want = traced_solve(FromScratchSearch, rates, dims, floor, alloc, node_limit)
    got = traced_solve(assoc_opt._Search, rates, dims, floor, alloc, node_limit)
    assert got == want


@pytest.mark.parametrize("bad", [-1e-3, np.nan])
def test_negative_or_nan_rate_is_rejected(monkeypatch, bad):
    # The search's tail-sum bracket holds only for summands >= 0.
    dims = tiny_dims()
    rates = np.full((2, 2, dims.num_users), 0.1)
    rates[1, 0, 2] = bad
    monkeypatch.setattr(assoc_opt, "rate_table", lambda *args: rates)
    with pytest.raises(ValueError, match="non-negative"):
        solve_association(np.full((2, 2), 0.02), np.zeros((2, 2, dims.num_users)),
                          None, dims, make_sensing(), make_radio())


def solve_on_table(rates, dims, rsv, warm, node_limit=1):
    """solve_association on a given rate table, as traced_solve patches it."""
    R, K, N = rates.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assoc_opt, "rate_table", lambda *args: rates)
        return solve_association(np.full((R, K), 0.02), np.zeros((R, K, N)), None,
                                 dims, make_sensing(), make_radio(rsv=rsv),
                                 node_limit=node_limit, warm_start=warm)


def is_feasible_leaf(beta, rates, dims, rsv):
    """C5, one RRH per served user, a BBU choice meeting C3/C7, and C10."""
    if (beta.sum(axis=2) > 1).any():
        return False
    assigned = {}
    for r, k, n in zip(*np.nonzero(beta)):
        if assigned.setdefault(int(n), int(r)) != r:
            return False
    per_slice = np.zeros(dims.num_slices)
    for r, k, n in zip(*np.nonzero(beta)):
        per_slice[dims.user_slice[n]] += rates[r, k, n]
    return bbu_feasible_brute(assigned, dims) and bool((per_slice >= rsv - 1e-9).all())


def two_rrh_leaf():
    """A feasible leaf on 2 RRHs x 2 sub-carriers: RRH r serves users 2r and
    2r + 1, one per sub-carrier; its rate 0.5 is below every other cell's."""
    dims = tiny_dims(omax=2, cmax=1)
    beta = np.zeros((2, 2, dims.num_users), dtype=int)
    for r, k in product(range(2), repeat=2):
        beta[r, k, 2 * r + k] = 1
    rates = np.where(beta == 1, 0.5, 1.0)
    x = np.zeros((dims.num_users, 2), dtype=int)
    x[np.arange(4), np.arange(4) // 2] = 1
    f = np.zeros((dims.num_users, 2), dtype=int)
    f[:, 0] = 1  # four users on BBU 0, past bbu_user_cap = 2
    warm = Allocation(sensing_time=np.full((2, 2), 0.02), power=np.zeros(beta.shape),
                      uav=beta, rrh_assoc=x, bbu_assoc=f)
    return dims, rates, warm


def test_feasible_leaf_seeds_despite_its_own_bbu_assignment():
    # Only beta is read: its per-RRH counts (2, 2) are servable with one
    # user per (RRH, BBU) link, whatever the warm start's f says.
    dims, rates, warm = two_rrh_leaf()
    res = solve_on_table(rates, dims, 0.0, warm)
    assert not res.proven_optimal
    assert np.array_equal(res.uav, warm.uav)
    assert res.objective == 2.0
    assert np.array_equal(res.rrh_assoc, warm.rrh_assoc)
    assert (res.bbu_assoc.sum(axis=0) <= dims.bbu_user_cap).all()
    assert (np.einsum("nb,nr->rb", res.bbu_assoc, res.rrh_assoc)
            <= dims.fronthaul_cap).all()
    assert np.array_equal(res.bbu_assoc.sum(axis=1), np.ones(dims.num_users))


def test_rejected_leaf_leaves_a_truncated_search_without_incumbent():
    dims, rates, warm = two_rrh_leaf()
    warm.uav[0, 0, 1] = 1  # a second user on slot (0, 0): C5
    with pytest.raises(SearchTruncatedError):
        solve_on_table(rates, dims, 0.0, warm)


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (2, 3, 4), (1, 2, 2, 4)])
def test_misshaped_warm_start_is_an_error(shape):
    dims, rates, warm = two_rrh_leaf()
    warm.uav = np.zeros(shape, dtype=int)
    with pytest.raises(ValueError, match="uav"):
        solve_on_table(rates, dims, 0.0, warm)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 3), K=st.integers(1, 3),
       Ns=st.integers(1, 2), omax=st.integers(1, 4), cmax=st.integers(1, 3),
       change=st.sampled_from([None, "shared slot", "second RRH", "over cap",
                               "floor"]),
       drop_x_f=st.booleans())
def test_warm_start_seeds_exactly_the_feasible_leaves(seed, R, K, Ns, omax, cmax,
                                                      change, drop_x_f):
    # With node_limit=1 the search reaches no leaf of its own, so an answer
    # is the seed's leaf and a rejected seed leaves no incumbent.
    rng = np.random.default_rng(seed)
    dims = make_dims(S=2, R=R, B=2, K=K, Ns=Ns, omax=omax, cmax=cmax)
    N = dims.num_users
    rates = rng.uniform(0.0, 1.0, size=(R, K, N))
    warm = random_alloc(dims, rng)
    beta = warm.uav
    rsv = 0.0
    served = np.flatnonzero(beta.any(axis=(0, 1)))
    if change == "shared slot":
        r, k = rng.integers(R), rng.integers(K)
        beta[r, k, rng.choice(np.flatnonzero(beta[r, k] == 0))] = 1
    elif change == "second RRH" and R > 1 and served.size:
        n = rng.choice(served)
        r = rng.choice(np.flatnonzero(~beta[:, :, n].any(axis=1)))
        k = rng.integers(K)
        beta[r, k] = 0
        beta[r, k, n] = 1
    elif change == "over cap" and served.size:
        dims = make_dims(S=2, R=R, B=2, K=K, Ns=Ns, omax=(served.size - 1) // 2,
                         cmax=cmax)
    elif change == "floor":
        per_slice = [sum(rates[r, k, n] for r, k, n in zip(*np.nonzero(beta))
                         if dims.user_slice[n] == s) for s in range(2)]
        rsv = min(per_slice) + 2e-9
    if drop_x_f:
        warm.rrh_assoc = np.zeros_like(warm.rrh_assoc)
        warm.bbu_assoc = np.zeros_like(warm.bbu_assoc)
    if is_feasible_leaf(beta, rates, dims, rsv):
        res = solve_on_table(rates, dims, rsv, warm)
        assert np.array_equal(res.uav, beta)
        assert res.objective == pytest.approx(float((beta * rates).sum()), rel=1e-12)
    else:
        with pytest.raises(InfeasibleError):
            solve_on_table(rates, dims, rsv, warm)

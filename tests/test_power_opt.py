import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (make_dims, make_radio, make_sensing, random_alloc,
                      random_channel)
from cransense.model import (Allocation, ChannelState, InfeasibleError,
                             approx_rate_cells, slice_rates)
from cransense.power_opt import _Slots, project_power_budget, solve_power


def np_dims(R=2, K=2, Ns=2):
    return make_dims(S=2, R=R, B=2, K=K, Ns=Ns, omax=8, cmax=8)


def o1_channel(dims, rng):
    """Order-one gains with order-one noise keep finite differences stable."""
    g = rng.uniform(0.2, 2.0, size=(dims.num_rrhs, dims.num_subcarriers,
                                    dims.num_users))
    s = rng.exponential(1.0, size=(dims.num_rrhs, dims.num_subcarriers))
    return ChannelState(downlink_gain=g, sensing_gain_sq=s)


def slots_instance(rng, R=2, K=2):
    """Order-one slot instance, slice weights and a positive power point."""
    dims = np_dims(R=R, K=K)
    channel = o1_channel(dims, rng)
    alloc = random_alloc(dims, rng)
    slots = _Slots(alloc.uav, alloc.sensing_time, channel, dims, make_sensing(),
                   make_radio(noise=1.0))
    w = rng.uniform(1.0, 4.0, size=dims.num_slices)
    return slots, w, rng.uniform(0.5, 1.5, size=(R, K))


def weighted_objective(slots, w, p):
    """sum_s w_s * per_slice_s at p, the objective the sweeps price."""
    return float(w @ slots.evaluate(p)[2])


def test_v_gradient_matches_central_differences(rng):
    slots, w, power = slots_instance(rng)
    inter = slots.evaluate(power)[0]
    grad, _ = slots.gradient(power, inter, w[slots.slice])
    h = 1e-6
    for idx in np.ndindex(power.shape):
        hi, lo = power.copy(), power.copy()
        hi[idx] += h
        lo[idx] -= h
        fd = (weighted_objective(slots, w, hi) - weighted_objective(slots, w, lo)) / (2 * h)
        assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9), idx


def block_surrogate(slots, w, anchor):
    """Priced surrogate of block r at the anchor, as a function of (r, p):
    RRH r's own weighted rates at p, the other cells' at the anchor, minus
    the interference price of r's power change."""
    inter, _, per_slice = slots.evaluate(anchor)
    weight = w[slots.slice]
    _, price = slots.gradient(anchor, inter, weight)

    def own(r, q):
        return float((weight[r] * slots.c[r]
                      * np.log2(1.0 + q[r] * slots.h[r] / (slots.noise + inter[r]))).sum())

    def value(r, p):
        return (own(r, p) + float(w @ per_slice) - own(r, anchor)
                - float(price[r] @ (p[r] - anchor[r])))
    return value


def test_surrogate_tight_at_anchor_and_minorant(rng):
    slots, w, anchor = slots_instance(rng)
    surrogate = block_surrogate(slots, w, anchor)
    for r in range(anchor.shape[0]):
        assert surrogate(r, anchor) == pytest.approx(
            weighted_objective(slots, w, anchor), rel=1e-12)
    for _ in range(1000):
        r = int(rng.integers(anchor.shape[0]))
        p = anchor.copy()
        p[r] = rng.uniform(0.0, 2.0, size=anchor.shape[1])
        # The other cells' rates are convex in r's power: their tangent is a
        # minorant, so the priced block surrogate lies below the objective.
        assert surrogate(r, p) <= weighted_objective(slots, w, p) + 1e-9


def test_projection_properties(rng):
    pmax = np.array([1.0, 2.5])
    for _ in range(50):
        v = rng.uniform(-1.0, 2.0, size=(2, 3, 4))
        p = project_power_budget(v, pmax)
        assert np.all(p >= 0.0)
        assert np.all(p.sum(axis=(1, 2)) <= pmax + 1e-9)
        # Idempotent on its own output.
        assert np.allclose(project_power_budget(p, pmax), p)
        # No feasible point is closer than the projection.
        d_proj = float(((v - p) ** 2).sum())
        for _ in range(30):
            z = rng.uniform(0.0, 1.0, size=v.shape)
            z = project_power_budget(z, pmax)
            assert d_proj <= float(((v - z) ** 2).sum()) + 1e-9


def test_projection_inactive_budget_is_clipping(rng):
    v = rng.uniform(-0.5, 0.01, size=(1, 2, 2))
    p = project_power_budget(v, np.array([100.0]))
    assert np.allclose(p, np.clip(v, 0.0, None))


def solve_instance(rng, rsv=0.0, pmax=1.0):
    dims = np_dims()
    sensing = make_sensing()
    radio = make_radio(noise=1.0, pmax=pmax, rsv=rsv)
    channel = o1_channel(dims, rng)
    alloc = random_alloc(dims, rng, pmax=pmax)
    return dims, sensing, radio, channel, alloc


def test_iterates_monotone_and_feasible(rng):
    for _ in range(15):
        dims, sensing, radio, channel, alloc = solve_instance(rng)
        res = solve_power(alloc.uav, alloc.sensing_time, alloc.power, channel,
                          dims, sensing, radio)
        traj = res.objective_trajectory
        assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))
        pmax = radio.max_power_per_rrh(dims.num_rrhs)
        for it in res.iterates:
            assert np.all(it.power >= 0.0)
            assert np.all(it.power.sum(axis=(1, 2)) <= pmax + 1e-9)
        assert res.converged


def test_iterates_keep_slice_floors(rng):
    done = 0
    for _ in range(20):
        dims, sensing, radio, channel, alloc = solve_instance(rng)
        # Pick a floor the warm start already meets with a little room.
        base = slice_rates(approx_rate_cells(alloc, channel, sensing, radio),
                           dims)
        if base.min() <= 0:
            continue
        rsv = float(base.min()) * 0.9
        radio = make_radio(noise=1.0, rsv=rsv)
        res = solve_power(alloc.uav, alloc.sensing_time, alloc.power, channel,
                          dims, sensing, radio)
        probe = alloc.copy()
        for it in res.iterates:
            probe.power = it.power
            rates = slice_rates(approx_rate_cells(probe, channel, sensing,
                                                  radio), dims)
            assert np.all(rates >= rsv - 1e-6)
        done += 1
    assert done >= 10


def test_interference_free_optimum_is_full_power(rng):
    # One RRH, one user: the rate is increasing in p, so all budget is spent.
    dims = make_dims(S=1, R=1, B=1, K=1, Ns=1)
    sensing = make_sensing()
    radio = make_radio(noise=1.0, pmax=2.0)
    channel = ChannelState(downlink_gain=np.full((1, 1, 1), 1.3),
                           sensing_gain_sq=np.ones((1, 1)))
    beta = np.ones((1, 1, 1), dtype=int)
    tau = np.full((1, 1), 0.02)
    res = solve_power(beta, tau, np.full((1, 1, 1), 0.1), channel, dims,
                      sensing, radio)
    assert res.power.sum() == pytest.approx(2.0, abs=1e-6)


def test_matches_dense_grid_on_two_cell_instance(rng):
    # Two RRHs, one sub-carrier, one user each; weak cross gains keep the
    # landscape unimodal so the grid maximum is the global one.
    dims = make_dims(S=2, R=2, B=2, K=1, Ns=1)
    sensing = make_sensing()
    radio = make_radio(noise=1.0, pmax=1.0)
    gain = np.zeros((2, 1, 2))
    gain[0, 0, 0], gain[1, 0, 1] = 2.0, 1.5   # serving paths
    gain[0, 0, 1], gain[1, 0, 0] = 0.1, 0.15  # cross paths
    channel = ChannelState(downlink_gain=gain, sensing_gain_sq=np.ones((2, 1)))
    beta = np.zeros((2, 1, 2), dtype=int)
    beta[0, 0, 0] = beta[1, 0, 1] = 1
    tau = np.full((2, 1), 0.02)

    def true_total(p0, p1):
        power = np.zeros((2, 1, 2))
        power[0, 0, 0], power[1, 0, 1] = p0, p1
        alloc = Allocation(sensing_time=tau, power=power, uav=beta,
                           rrh_assoc=np.eye(2, dtype=int),
                           bbu_assoc=np.eye(2, dtype=int))
        return float(approx_rate_cells(alloc, channel, sensing, radio).sum())

    grid = np.linspace(0.0, 1.0, 401)
    oracle = max(true_total(a, b) for a in grid for b in grid)

    p0 = np.zeros((2, 1, 2))
    p0[0, 0, 0] = p0[1, 0, 1] = 0.5
    res = solve_power(beta, tau, p0, channel, dims, sensing, radio, zeta=1e-6)
    assert res.true_objective == pytest.approx(oracle, rel=1e-3)
    assert res.true_objective >= oracle - 1e-3 * abs(oracle)


def test_zero_gain_cells_are_harmless(rng):
    dims = make_dims(S=1, R=1, B=1, K=1, Ns=2)
    sensing = make_sensing()
    radio = make_radio(noise=1.0)
    channel = ChannelState(downlink_gain=np.zeros((1, 1, 2)),
                           sensing_gain_sq=np.ones((1, 1)))
    beta = np.ones((1, 1, 2), dtype=int)
    beta[0, 0, 1] = 0
    res = solve_power(beta, np.full((1, 1), 0.02), np.zeros((1, 1, 2)),
                      channel, dims, sensing, radio)
    assert np.all(np.isfinite(res.power))
    assert res.true_objective == 0.0


def test_infeasible_warm_start_raises(rng):
    dims, sensing, radio, channel, alloc = solve_instance(rng)
    radio = make_radio(noise=1.0, rsv=1e9)
    with pytest.raises(InfeasibleError) as exc:
        solve_power(alloc.uav, alloc.sensing_time, np.zeros_like(alloc.power),
                    channel, dims, sensing, radio)
    assert exc.value.detail["constraint"] == "C10"


def test_kkt_residual_vanishes_on_two_cell_instance():
    dims = make_dims(S=2, R=2, B=2, K=1, Ns=1)
    sensing = make_sensing()
    radio = make_radio(noise=1.0, pmax=1.0)
    gain = np.zeros((2, 1, 2))
    gain[0, 0, 0], gain[1, 0, 1] = 2.0, 1.5
    gain[0, 0, 1], gain[1, 0, 0] = 0.1, 0.15
    channel = ChannelState(downlink_gain=gain, sensing_gain_sq=np.ones((2, 1)))
    beta = np.zeros((2, 1, 2), dtype=int)
    beta[0, 0, 0] = beta[1, 0, 1] = 1
    p0 = np.zeros((2, 1, 2))
    p0[0, 0, 0] = p0[1, 0, 1] = 0.5
    res = solve_power(beta, np.full((2, 1), 0.02), p0, channel, dims, sensing,
                      radio, zeta=1e-6)
    assert res.converged
    kkt = [it.inner_kkt_residual for it in res.iterates]
    assert all(np.isfinite(kkt)) and min(kkt) >= 0.0
    assert kkt[-1] <= 1e-6


def test_interference_free_block_is_water_filling():
    # One RRH serving two sub-carriers: a single block update is the exact
    # water-filling optimum, p_k + 1/snr_k level on every used carrier.
    dims = make_dims(S=1, R=1, B=1, K=2, Ns=2)
    sensing = make_sensing()
    radio = make_radio(noise=1.0, pmax=1.0)
    gain = np.zeros((1, 2, 2))
    gain[0, 0, 0], gain[0, 1, 1] = 4.0, 2.0
    channel = ChannelState(downlink_gain=gain, sensing_gain_sq=np.ones((1, 2)))
    beta = np.zeros((1, 2, 2), dtype=int)
    beta[0, 0, 0] = beta[0, 1, 1] = 1
    p0 = np.zeros((1, 2, 2))
    p0[0, 1, 1] = 1.0
    res = solve_power(beta, np.full((1, 2), 0.02), p0, channel, dims, sensing,
                      radio, zeta=1e-9)
    assert res.iterates[0].inner_kkt_residual <= 1e-10
    q = res.power[0, [0, 1], [0, 1]]
    assert q == pytest.approx([0.625, 0.375], rel=1e-9)


def test_rejects_two_users_in_one_slot(rng):
    dims, sensing, radio, channel, alloc = solve_instance(rng)
    beta = alloc.uav.copy()
    beta[0, 0, :] = 0
    beta[0, 0, [0, 1]] = 1
    with pytest.raises(ValueError, match="C5"):
        solve_power(beta, alloc.sensing_time, alloc.power, channel, dims,
                    sensing, radio)


def test_rejects_one_user_on_two_rrhs(rng):
    dims, sensing, radio, channel, alloc = solve_instance(rng)
    beta = np.zeros_like(alloc.uav)
    beta[0, 0, 2] = beta[1, 1, 2] = 1
    with pytest.raises(ValueError, match="C4/C6"):
        solve_power(beta, alloc.sensing_time, alloc.power, channel, dims,
                    sensing, radio)


def test_unassigned_power_of_the_warm_start_is_ignored(rng):
    dims, sensing, radio, channel, alloc = solve_instance(rng)
    noisy = alloc.power + rng.uniform(0.0, 0.1, size=alloc.power.shape) * (alloc.uav == 0)
    clean = solve_power(alloc.uav, alloc.sensing_time, alloc.power, channel,
                        dims, sensing, radio)
    dirty = solve_power(alloc.uav, alloc.sensing_time, noisy, channel, dims,
                        sensing, radio)
    assert np.array_equal(clean.power, dirty.power)
    assert np.all(dirty.power[alloc.uav == 0] == 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(R=st.integers(1, 3), K=st.integers(1, 3), Ns=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), floor=st.sampled_from([0.0, 0.5, 0.95]),
       o1=st.booleans())
def test_property_iterates_feasible_monotone_and_clean(R, K, Ns, seed, floor, o1):
    rng = np.random.default_rng(seed)
    dims = make_dims(S=2, R=R, B=2, K=K, Ns=Ns, omax=8, cmax=8)
    sensing = make_sensing()
    channel = o1_channel(dims, rng) if o1 else random_channel(dims, rng)
    radio = make_radio(noise=1.0 if o1 else 1e-13)
    alloc = random_alloc(dims, rng)
    # Power on unassigned cells too: the solver must ignore it.
    p_init = alloc.power + rng.uniform(0.0, 0.2, size=alloc.power.shape) * (alloc.uav == 0)
    base = slice_rates(approx_rate_cells(alloc, channel, sensing, radio), dims)
    radio = make_radio(noise=radio.noise_power, rsv=float(base.min()) * floor)
    rsv = radio.reserved_rate_per_slice(dims.num_slices)

    res = solve_power(alloc.uav, alloc.sensing_time, p_init, channel, dims,
                      sensing, radio)
    traj = res.objective_trajectory
    assert all(b >= a for a, b in zip(traj, traj[1:]))
    pmax = radio.max_power_per_rrh(R)
    probe = alloc.copy()
    for it in res.iterates:
        assert np.all(it.power >= 0.0)
        assert np.all(it.power.sum(axis=(1, 2)) <= pmax)
        assert np.all(it.power[alloc.uav == 0] == 0.0)
        probe.power = it.power
        rates = slice_rates(approx_rate_cells(probe, channel, sensing, radio), dims)
        assert np.all(rates >= np.minimum(rsv, base) - 1e-9 * (1.0 + rsv))
        assert it.inner_kkt_residual >= 0.0
    assert traj[0] >= float(base.sum()) - 1e-9 * (1.0 + abs(float(base.sum())))


def test_slice_weights_lift_binding_floors():
    # Floors at 90 % of the start's slice rates: every block move that gains
    # overall costs some slice its floor. Raising the short slice's weight
    # steers the next blocks towards it; without that raise, this solve
    # stays at the start's 2.34 and ends unconverged.
    rng = np.random.default_rng(2)
    dims, sensing = np_dims(), make_sensing()
    channel = random_channel(dims, rng)
    alloc = random_alloc(dims, rng)
    start = slice_rates(approx_rate_cells(alloc, channel, sensing, make_radio()), dims)
    radio = make_radio(rsv=0.9 * start)
    res = solve_power(alloc.uav, alloc.sensing_time, alloc.power, channel, dims,
                      sensing, radio)
    assert res.converged
    assert res.true_objective == pytest.approx(9.778868730134391, rel=1e-9)
    alloc.power = res.power
    rates = slice_rates(approx_rate_cells(alloc, channel, sensing, radio), dims)
    assert np.all(rates >= radio.reserved_rate)


def test_solve_stops_when_weights_cannot_unblock_the_floors():
    # Both slices start exactly at their floors and every block move trades
    # one slice's rate for the other's: the slice weights only climb, so
    # the solve gives up after a bounded run of stalled sweeps, unconverged,
    # and keeps the feasible start.
    dims = make_dims(S=2, R=2, B=2, K=1, Ns=1)
    sensing = make_sensing()
    gain = np.array([[[1.0, 0.8]], [[0.8, 1.0]]])
    channel = ChannelState(downlink_gain=gain, sensing_gain_sq=np.ones((2, 1)))
    beta = np.zeros((2, 1, 2), dtype=int)
    beta[0, 0, 0] = beta[1, 0, 1] = 1
    tau = np.full((2, 1), 0.02)
    p0 = np.zeros((2, 1, 2))
    p0[0, 0, 0], p0[1, 0, 1] = 0.3, 0.6
    start = Allocation(sensing_time=tau, power=p0, uav=beta,
                       rrh_assoc=np.eye(2, dtype=int), bbu_assoc=np.eye(2, dtype=int))
    radio = make_radio(noise=1.0)
    floors = slice_rates(approx_rate_cells(start, channel, sensing, radio), dims)
    radio = make_radio(noise=1.0, rsv=floors)
    res = solve_power(beta, tau, p0, channel, dims, sensing, radio, max_iters=200)
    assert not res.converged
    assert len(res.iterates) < 200
    assert np.array_equal(res.power, p0)
    # The weights climb towards _MAX_WEIGHT at a fixed power; the residual,
    # divided by the largest weight, must not climb with them.
    assert max(it.inner_kkt_residual for it in res.iterates) <= 1.0


def test_second_slot_interference_converges_in_few_sweeps():
    # RRH 0 serves user 0 on both sub-carriers; its power on sub-carrier 1
    # also lands on RRH 1's user. The tangent price undervalues cutting that
    # power, so plain sweeps creep (382 sweeps at zeta = 1e-5, ending at
    # 6.557928649183738); the line search along each sweep's step does not.
    dims = make_dims(S=2, R=2, B=2, K=2, Ns=1)
    gain = np.zeros((2, 2, 2))
    gain[0, 0, 0], gain[0, 1, 0] = 10.0, 100.0
    gain[1, 1, 1] = gain[0, 1, 1] = 100.0
    channel = ChannelState(downlink_gain=gain, sensing_gain_sq=np.ones((2, 2)))
    beta = np.zeros((2, 2, 2), dtype=int)
    beta[0, 0, 0] = beta[0, 1, 0] = beta[1, 1, 1] = 1
    res = solve_power(beta, np.full((2, 2), 0.02), 0.5 * beta, channel, dims,
                      make_sensing(), make_radio(noise=1.0), zeta=1e-5,
                      max_iters=500)
    assert res.converged
    assert len(res.iterates) <= 20
    assert res.true_objective >= 6.557928649183738
    assert res.iterates[-1].inner_kkt_residual <= 1e-6

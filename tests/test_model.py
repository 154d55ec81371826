import numpy as np
import pytest

from conftest import (make_dims, make_radio, make_sensing, random_alloc,
                      random_channel)
from cransense.model import (Allocation, ChannelState, NetworkDims,
                             RadioParams, SensingParams, approx_rate_cells,
                             check_constraints, interference_map, rate_table,
                             sinr_absent, slice_rates, total_approx_throughput)
from cransense.power_opt import _Slots


def sinr_present(p, h, interference, hvwn_interference, noise_power):
    """SINR of an LVWN user with the HVWN user active: p*h / (sigma0^2 + I + I_p)."""
    return p * h / (noise_power + interference + hvwn_interference)


def exact_rate_cells(alloc, channel, sensing, radio, pd_per_subcarrier):
    """The paper's exact per-cell average throughput, missed-detection term
    included: the reference for the idle-only rate every solver maximizes."""
    T = sensing.frame_len
    pfa = sensing.pfa_per_subcarrier(channel.num_subcarriers)
    pd = np.broadcast_to(np.asarray(pd_per_subcarrier, dtype=float),
                         (channel.num_subcarriers,))
    inter = interference_map(alloc.power, channel.downlink_gain)
    g0 = sinr_absent(alloc.power, channel.downlink_gain, inter, radio.noise_power)
    g1 = sinr_present(alloc.power, channel.downlink_gain, inter,
                      radio.hvwn_interference, radio.noise_power)
    frac = (T - alloc.sensing_time) / T
    idle = sensing.idle_prob * np.log2(1.0 + g0) * (1.0 - pfa)[None, :, None]
    busy = sensing.hvwn_active_prob * np.log2(1.0 + g1) * (1.0 - pd)[None, :, None]
    return alloc.uav * frac[:, :, None] * (idle + busy)


def reference_interference(power, gain):
    """Straight quadruple loop over the interference definition."""
    R, K, N = power.shape
    out = np.zeros_like(power)
    for r in range(R):
        for k in range(K):
            for n in range(N):
                acc = 0.0
                for rp in range(R):
                    for npr in range(N):
                        if rp != r and npr != n:
                            acc += power[rp, k, npr] * gain[rp, k, n]
                out[r, k, n] = acc
    return out


def test_dims_derived_quantities():
    dims = make_dims(S=3, Ns=4)
    assert dims.num_users == 12
    assert list(dims.user_slice) == [0] * 4 + [1] * 4 + [2] * 4


def test_dims_validation():
    with pytest.raises(ValueError):
        make_dims(R=0)
    with pytest.raises(ValueError):
        NetworkDims(num_slices=1, num_rrhs=2, num_bbus=2, num_subcarriers=1,
                    users_per_slice=1, bbu_user_cap=1,
                    fronthaul_cap=np.ones((3, 2), dtype=int))


def test_dims_counts_are_whole_numbers():
    args = dict(num_slices=1, num_rrhs=2, num_bbus=2, num_subcarriers=1,
                users_per_slice=1, bbu_user_cap=1, fronthaul_cap=1)
    for name, value in (("num_rrhs", 2.5), ("num_subcarriers", True),
                        ("users_per_slice", np.nan), ("bbu_user_cap", 1.5),
                        ("bbu_user_cap", -1), ("fronthaul_cap", [[1, 0.5], [1, 1]]),
                        ("fronthaul_cap", -1), ("fronthaul_cap", "2")):
        with pytest.raises(ValueError, match=name):
            NetworkDims(**dict(args, **{name: value}))
    dims = NetworkDims(**dict(args, num_rrhs=2.0, bbu_user_cap=np.int64(0),
                              fronthaul_cap=[[1.0, 2.0], [3.0, 4.0]]))
    assert type(dims.num_rrhs) is int and type(dims.bbu_user_cap) is int
    assert dims.fronthaul_cap.dtype == int
    assert dims.fronthaul_cap.tolist() == [[1, 2], [3, 4]]
    # One count serves every (RRH, BBU) link.
    assert NetworkDims(**args).fronthaul_cap.tolist() == [[1, 1], [1, 1]]


def test_sensing_params_validation():
    with pytest.raises(ValueError):
        make_sensing(pd=1.0)
    with pytest.raises(ValueError):
        make_sensing(pfa=0.95, pd=0.9)  # false alarm above detection target
    with pytest.raises(ValueError):
        make_sensing(T=-1.0)
    s = make_sensing(p1=0.1)
    assert s.idle_prob == pytest.approx(0.9)
    assert np.allclose(s.pfa_per_subcarrier(3), [0.2, 0.2, 0.2])


SENSING_ARGS = dict(target_pd=0.9, target_pfa=0.2, hvwn_snr=0.03, sampling_freq=1e6,
                    frame_len=0.2, hvwn_active_prob=0.1)
RADIO_ARGS = dict(noise_power=1e-13, hvwn_interference=1e-13, max_power=1.0,
                  reserved_rate=4.0)
PARAM_FIELDS = ([(SensingParams, SENSING_ARGS, name) for name in SENSING_ARGS]
                + [(RadioParams, RADIO_ARGS, name) for name in RADIO_ARGS])


@pytest.mark.parametrize("cls,args,name", PARAM_FIELDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, False, "0.5", None])
def test_params_reject_anything_but_a_finite_number(cls, args, name, bad):
    # A NaN would otherwise pass every range check; a bool would count as 1.
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        cls(**dict(args, **{name: bad}))


@pytest.mark.parametrize("cls,args,name", [(SensingParams, SENSING_ARGS, "target_pfa"),
                                           (RadioParams, RADIO_ARGS, "max_power"),
                                           (RadioParams, RADIO_ARGS, "reserved_rate")])
@pytest.mark.parametrize("bad", [[0.1, np.nan], np.array([0.1, np.inf]), [0.1, True],
                                 np.array([True, True]), [0.1, "0.2"], [0.1, [0.2]]])
def test_per_item_params_reject_a_bad_entry(cls, args, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        cls(**dict(args, **{name: bad}))


def test_params_store_numbers_as_floats():
    radio = RadioParams(noise_power=1, hvwn_interference=np.int64(0),
                        max_power=[1, 2], reserved_rate=np.float32(0.5))
    assert type(radio.noise_power) is float and type(radio.hvwn_interference) is float
    assert type(radio.reserved_rate) is float and radio.reserved_rate == 0.5
    assert radio.max_power.dtype == float and radio.max_power.tolist() == [1.0, 2.0]
    sensing = SensingParams(**dict(SENSING_ARGS, sampling_freq=10**6, target_pfa=(0.1, 0.2)))
    assert type(sensing.sampling_freq) is float
    assert sensing.target_pfa.tolist() == [0.1, 0.2]


def test_radio_params_broadcasting():
    r = make_radio(pmax=2.0, rsv=4.0)
    assert np.allclose(r.max_power_per_rrh(3), [2.0, 2.0, 2.0])
    assert np.allclose(r.reserved_rate_per_slice(2), [4.0, 4.0])
    with pytest.raises(ValueError):
        make_radio(noise=0.0)


def test_channel_state_validation(rng):
    with pytest.raises(ValueError):
        ChannelState(downlink_gain=-np.ones((2, 2, 2)),
                     sensing_gain_sq=np.ones((2, 2)))
    with pytest.raises(ValueError):
        ChannelState(downlink_gain=np.ones((2, 2, 2)),
                     sensing_gain_sq=np.ones((3, 2)))


def test_sinr_formulas():
    # One interferer contributing I, HVWN adding I_p on top.
    assert sinr_absent(2.0, 0.5, 1.0, 1.0) == pytest.approx(0.5)
    assert sinr_present(2.0, 0.5, 1.0, 2.0, 1.0) == pytest.approx(0.25)


def test_interference_matches_loop(rng):
    for _ in range(20):
        R, K, N = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 5)
        power = rng.uniform(0, 1, size=(R, K, N))
        gain = rng.uniform(0, 1, size=(R, K, N))
        fast = interference_map(power, gain)
        slow = reference_interference(power, gain)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-15)


def test_interference_single_rrh_is_zero(rng):
    power = rng.uniform(0, 1, size=(1, 3, 4))
    gain = rng.uniform(0, 1, size=(1, 3, 4))
    assert np.allclose(interference_map(power, gain), 0.0)


def test_throughput_cellwise_matches_scalar(rng):
    # Each cell's throughput from scalars: its interference summed over the
    # other RRHs' other users, then the paper's rate expression.
    dims = make_dims()
    sensing = make_sensing()
    radio = make_radio()
    channel = random_channel(dims, rng)
    alloc = random_alloc(dims, rng)
    alloc.power = rng.uniform(0, 0.25, size=alloc.power.shape)  # every cell on
    T, p0, p1 = sensing.frame_len, sensing.idle_prob, sensing.hvwn_active_prob
    pfa = sensing.pfa_per_subcarrier(dims.num_subcarriers)
    pd = np.full(dims.num_subcarriers, 0.93)
    p, g = alloc.power, channel.downlink_gain
    cells_a = approx_rate_cells(alloc, channel, sensing, radio)
    cells_e = exact_rate_cells(alloc, channel, sensing, radio, pd)
    R, K, N = p.shape
    for r in range(R):
        for k in range(K):
            for n in range(N):
                inter = sum(p[rp, k, m] * g[rp, k, n]
                            for rp in range(R) for m in range(N)
                            if rp != r and m != n)
                sig = p[r, k, n] * g[r, k, n]
                frac = alloc.uav[r, k, n] * (T - alloc.sensing_time[r, k]) / T
                idle = p0 * (1 - pfa[k]) * np.log2(1 + sig / (radio.noise_power + inter))
                busy = p1 * (1 - pd[k]) * np.log2(
                    1 + sig / (radio.noise_power + inter + radio.hvwn_interference))
                assert cells_a[r, k, n] == pytest.approx(frac * idle, rel=1e-12, abs=1e-15)
                assert cells_e[r, k, n] == pytest.approx(frac * (idle + busy),
                                                         rel=1e-12, abs=1e-15)


def test_rate_kernel_keeps_the_bits(rng):
    # Reference formulas in the multiplication order each caller depends
    # on; on 0/1 beta the shared kernel must match them bit for bit, so a
    # reordering that moves the last bits fails here.
    sensing = make_sensing(pfa=0.15, p1=0.3)
    radio = make_radio()
    for _ in range(10):
        dims = make_dims(R=int(rng.integers(1, 4)), K=int(rng.integers(1, 5)),
                         Ns=int(rng.integers(1, 4)))
        channel = random_channel(dims, rng)
        alloc = random_alloc(dims, rng)
        beta, tau = alloc.uav, alloc.sensing_time
        pfa = sensing.pfa_per_subcarrier(dims.num_subcarriers)[None, :, None]
        for power in (alloc.power, rng.uniform(0, 0.2, size=alloc.power.shape)):
            alloc.power = power
            inter = interference_map(power, channel.downlink_gain)
            log_term = np.log2(1.0 + sinr_absent(power, channel.downlink_gain,
                                                 inter, radio.noise_power))
            frac = ((sensing.frame_len - tau) / sensing.frame_len)[:, :, None]
            coeff = beta * frac * sensing.idle_prob * (1.0 - pfa)
            table = rate_table(tau, power, channel, sensing, radio)
            assert np.array_equal(
                table, frac * sensing.idle_prob * (1.0 - pfa) * log_term)
            assert np.array_equal(approx_rate_cells(alloc, channel, sensing, radio),
                                  coeff * log_term)
            # Step 1's coefficients e: the rate at tau = 0, time fraction 1.
            e = beta * rate_table(np.zeros_like(tau), power, channel, sensing, radio)
            assert np.array_equal(e, beta * sensing.idle_prob * (1.0 - pfa) * log_term)
        # Step 3's per-slot coefficients.
        slots = _Slots(beta, tau, channel, dims, sensing, radio)
        assert np.array_equal(slots.c, coeff.sum(axis=2))


def test_exact_vs_approx_relation(rng):
    # Exact = approx + a non-negative missed-detection term, and the two
    # coincide when detection is certain.
    dims = make_dims()
    sensing = make_sensing()
    radio = make_radio()
    channel = random_channel(dims, rng)
    alloc = random_alloc(dims, rng)
    approx = approx_rate_cells(alloc, channel, sensing, radio)
    exact = exact_rate_cells(alloc, channel, sensing, radio,
                             np.full(dims.num_subcarriers, 0.9))
    assert np.all(exact >= approx - 1e-15)
    exact_pd1 = exact_rate_cells(alloc, channel, sensing, radio,
                                 np.ones(dims.num_subcarriers))
    assert np.allclose(exact_pd1, approx)


def test_throughput_closed_form_single_cell():
    # One RRH, one user, no interference: the whole expression in closed form.
    dims = make_dims(S=1, R=1, B=1, K=1, Ns=1)
    sensing = make_sensing(pfa=0.2, T=0.2, p1=0.1)
    radio = make_radio(noise=1e-13)
    channel = ChannelState(downlink_gain=np.full((1, 1, 1), 3e-13),
                           sensing_gain_sq=np.ones((1, 1)))
    alloc = Allocation(sensing_time=np.full((1, 1), 0.05),
                       power=np.full((1, 1, 1), 2.0),
                       uav=np.ones((1, 1, 1), dtype=int),
                       rrh_assoc=np.ones((1, 1), dtype=int),
                       bbu_assoc=np.ones((1, 1), dtype=int))
    expected = (0.15 / 0.2) * 0.9 * 0.8 * np.log2(1.0 + 2.0 * 3e-13 / 1e-13)
    assert total_approx_throughput(alloc, channel, sensing, radio) == \
        pytest.approx(expected, rel=1e-12)


def test_slice_rates_partition(rng):
    dims = make_dims(S=2, Ns=3, R=2, K=2)
    cells = rng.uniform(0, 1, size=(2, 2, 6))
    per_slice = slice_rates(cells, dims)
    assert per_slice.shape == (2,)
    assert per_slice.sum() == pytest.approx(cells.sum())
    assert per_slice[0] == pytest.approx(cells[:, :, :3].sum())


def test_linkage_derivation():
    x = np.array([[1, 0], [0, 1]])
    f = np.array([[0, 1], [1, 0]])
    alloc = Allocation(sensing_time=np.zeros((2, 1)), power=np.zeros((2, 1, 2)),
                       uav=np.zeros((2, 1, 2)), rrh_assoc=x, bbu_assoc=f)
    y = alloc.derived_linkage()
    assert y.shape == (2, 2, 2)
    # User 0 on RRH 0 via BBU 1; user 1 on RRH 1 via BBU 0.
    assert y[1, 0, 0] == 1 and y[0, 1, 1] == 1
    assert y.sum() == 2


def test_check_constraints_clean_allocation(rng):
    dims = make_dims()
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    channel = random_channel(dims, rng)
    alloc = random_alloc(dims, rng)
    alloc.sensing_time = np.full_like(alloc.sensing_time, 0.19)
    res = check_constraints(alloc, dims, radio, sensing, channel)
    assert set(res) == {f"C{i}" for i in range(1, 11)}
    for key in ("C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"):
        assert res[key] == 0.0


def test_check_constraints_flags_each_family(rng):
    dims = make_dims()
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    channel = random_channel(dims, rng)

    base = random_alloc(dims, rng)
    base.sensing_time = np.full_like(base.sensing_time, 0.19)

    a = base.copy()
    a.sensing_time[0, 0] = 0.3  # above the frame length
    assert check_constraints(a, dims, radio, sensing, channel)["C2"] > 0

    a = base.copy()
    a.sensing_time[0, 0] = 0.0
    assert check_constraints(a, dims, radio, sensing, channel)["C2"] >= 1e-12

    a = base.copy()
    a.bbu_assoc = np.ones_like(a.bbu_assoc)  # everyone on every BBU
    res = check_constraints(a, dims, radio, sensing, channel)
    assert res["C3"] > 0 and res["C8"] > 0

    a = base.copy()
    a.rrh_assoc = np.ones_like(a.rrh_assoc)
    assert check_constraints(a, dims, radio, sensing, channel)["C4"] > 0

    a = base.copy()
    a.uav = np.ones_like(a.uav)
    res = check_constraints(a, dims, radio, sensing, channel)
    assert res["C5"] > 0 and res["C6"] > 0

    a = base.copy()
    a.power = np.full_like(a.power, 10.0)
    assert check_constraints(a, dims, radio, sensing, channel)["C9"] > 0

    a = base.copy()
    radio_hungry = make_radio(rsv=1e6)
    assert check_constraints(a, dims, radio_hungry, sensing, channel)["C10"] > 0


def test_allocation_copy_is_deep(rng):
    dims = make_dims()
    alloc = random_alloc(dims, rng)
    dup = alloc.copy()
    dup.power[0, 0, 0] = 123.0
    assert alloc.power[0, 0, 0] != 123.0

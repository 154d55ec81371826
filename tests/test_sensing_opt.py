import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (make_dims, make_radio, make_sensing, random_alloc,
                      random_channel)
from cransense.gaussian import q_inv
from cransense.model import (Allocation, ChannelState, InfeasibleError,
                             rate_table, total_approx_throughput)
from cransense.sensing import alpha, detection_probability
from cransense.sensing_opt import (_solve_one_subcarrier, lambda_box,
                                   solve_sensing)


def detection_threshold(sensing, gains_k):
    """b_k of the linearized detection constraint: sum_r lam*g >= b_k."""
    a = alpha(sensing.hvwn_snr, gains_k)
    pfa = float(np.asarray(sensing.target_pfa).ravel()[0])
    return (q_inv(pfa) - a * q_inv(sensing.target_pd)) / sensing.hvwn_snr


def boundary_oracle(weights, gains, b, floor, lmax, points=20001):
    """Best cost of the two-RRH subproblem by sweeping the constraint boundary.

    The cost is increasing in each lam, so any optimum with positive weights
    sits on sum lam*g = b (or at the floor); sweeping lam_1 and solving for
    lam_0 explores that set exactly.
    """
    best = np.inf
    lam1_grid = np.linspace(floor, lmax, points)
    lam0 = np.clip((b - lam1_grid * gains[1]) / max(gains[0], 1e-300),
                   floor, lmax)
    feas = lam0 * gains[0] + lam1_grid * gains[1] >= b - 1e-9
    cost = weights[0] * lam0 ** 2 + weights[1] * lam1_grid ** 2
    if np.any(feas):
        best = float(cost[feas].min())
    if floor * (gains[0] + gains[1]) >= b:
        best = min(best, float((weights * floor ** 2).sum()))
    return best


def test_single_subcarrier_matches_boundary_oracle(rng):
    floor, lmax = 1e-6, 450.0
    for _ in range(50):
        weights = rng.uniform(0.1, 3.0, size=2)
        gains = rng.exponential(1.0, size=2) + 0.05
        b = rng.uniform(10.0, 200.0)
        lam = _solve_one_subcarrier(weights, gains, b, floor, lmax)
        if lam is None:
            # Must be a certified miss: even lam = lmax cannot reach b.
            assert lmax * gains.sum() < b
            continue
        assert float(lam @ gains) >= b - 1e-9
        cost = float(weights @ lam ** 2)
        oracle = boundary_oracle(weights, gains, b, floor, lmax)
        assert cost <= oracle * (1.0 + 1e-3) + 1e-12


def test_single_subcarrier_zero_weight_absorbs_burden():
    # The cost-free RRH should carry the whole constraint.
    lam = _solve_one_subcarrier(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                                50.0, 1e-6, 450.0)
    assert lam[0] == pytest.approx(50.0, rel=1e-6)
    assert lam[1] == pytest.approx(1e-6)


def test_single_subcarrier_infeasible_returns_none():
    # Even lam = lmax everywhere cannot reach b.
    lam = _solve_one_subcarrier(np.array([1.0, 1.0]), np.array([0.1, 0.1]),
                                1e4, 1e-6, 10.0)
    assert lam is None
    # No positive gain at all.
    lam = _solve_one_subcarrier(np.array([1.0, 1.0]), np.zeros(2),
                                5.0, 1e-6, 10.0)
    assert lam is None


def bisection_subcarrier(weights, gains, b, floor, lmax):
    """Reference solver: the same prelude, then mu by doubling from 1 and 200
    halvings of [0, 2^j]."""
    R = len(weights)
    lam = np.full(R, floor)
    need = b - float(lam @ gains)
    if need <= 0.0:
        return lam
    free = (weights <= 1e-15) & (gains > 0.0)
    for r in np.flatnonzero(free):
        cap = (lmax - floor) * gains[r]
        take = min(need, cap)
        lam[r] = floor + take / gains[r]
        need -= take
        if need <= 0.0:
            return lam
    active = (~free) & (gains > 0.0) & (weights > 1e-15)
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
    lam[active] = profile(mu_hi)
    return lam


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 8),
       shape=st.sampled_from(["plain", "zeros", "repeated ratios", "huge ratios"]),
       where=st.sampled_from(["anywhere", "at a breakpoint", "just above floor",
                              "saturated", "None band"]),
       lmax=st.sampled_from([10.0, None]))
def test_exact_multiplier_matches_bisection(seed, R, shape, where, lmax):
    rng = np.random.default_rng(seed)
    floor, lmax = (1e-9 * lmax, lmax) if lmax else lambda_box(make_sensing())
    weights = rng.exponential(1.0, R)
    gains = rng.exponential(1.0, R)
    if shape == "zeros":
        weights[rng.uniform(size=R) < 0.3] = 0.0
        gains[rng.uniform(size=R) < 0.3] = 0.0
    elif shape == "repeated ratios":  # coinciding breakpoints
        weights = rng.choice([0.5, 1.0, 2.0], size=R)
        gains = weights * rng.choice([1.0, 3.0], size=R)
    elif shape == "huge ratios":  # mu far below 2^-148, where the bisection
        weights *= 1e-14          # resolves it only to multiples of 2^-200
        weights += 1e-14
        gains *= 1e30
    if where == "at a breakpoint":
        weights[0], gains[0] = weights[0] or 1.0, gains[0] or 1.0
    active = (weights > 1e-15) & (gains > 0.0)
    g_a, w_a = gains[active], weights[active]
    if where == "anywhere":
        b = rng.uniform(0.0, 1.1) * lmax * gains.sum()
    elif where == "at a breakpoint":
        r = rng.integers(active.sum())
        mu = rng.choice([floor, lmax]) * 2.0 * w_a[r] / g_a[r]
        lam = np.full(R, floor)
        lam[active] = np.clip(mu * g_a / (2.0 * w_a), floor, lmax)
        b = float(lam @ gains)
    elif where == "just above floor":
        b = floor * gains.sum() + rng.choice([1e-18, 1e-15, 1e-12, 1e-9])
    elif where == "saturated":
        b = float(np.full(R, lmax) @ gains)
    else:  # lmax * sum(g) falls short of the target by at most 1e-12
        weights = np.where(weights > 0.0, weights, 1.0)
        b = float(np.full(R, lmax) @ gains) + rng.choice([1e-13, 5e-13, 1e-12])
    want = bisection_subcarrier(weights, gains, b, floor, lmax)
    got = _solve_one_subcarrier(weights, gains, b, floor, lmax)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


def small_problem(rng, R=2, K=2, rsv=0.0):
    dims = make_dims(R=R, K=K, Ns=2, B=2, omax=4, cmax=4)
    sensing = make_sensing()
    radio = make_radio(rsv=rsv)
    channel = random_channel(dims, rng)
    # Keep the sensing gains away from zero so the detection target stays
    # reachable within the frame on every sub-carrier.
    from cransense.model import ChannelState
    channel = ChannelState(downlink_gain=channel.downlink_gain,
                           sensing_gain_sq=channel.sensing_gain_sq + 0.2)
    alloc = random_alloc(dims, rng)
    return dims, sensing, radio, channel, alloc


def test_solution_meets_detection_target(rng):
    for _ in range(20):
        dims, sensing, radio, channel, alloc = small_problem(rng)
        res = solve_sensing(alloc, channel, dims, sensing, radio)
        pfa = sensing.pfa_per_subcarrier(dims.num_subcarriers)
        pd = detection_probability(res.tau, sensing.sampling_freq,
                                   sensing.hvwn_snr, channel.sensing_gain_sq,
                                   pfa)
        assert np.all(pd >= sensing.target_pd - 1e-9)
        assert np.all(res.tau > 0) and np.all(res.tau <= sensing.frame_len)
        assert res.kkt_residual <= 1e-9


def test_sensing_time_at_lmax_stays_in_the_frame():
    # At nu = 3 Hz the detection target pins some RRHs at lmax = sqrt(T * nu),
    # and lmax ** 2 / nu rounds one ulp past T = 0.2 s; such a tau used to
    # end the joint solve in step 2's ValueError.
    dims, radio = make_dims(R=2, K=3, Ns=2), make_radio()
    sensing = make_sensing(nu=3.0, snr_db=10.0)
    lmax = lambda_box(sensing)[1]
    assert lmax ** 2 / sensing.sampling_freq > sensing.frame_len
    rng = np.random.default_rng(21)
    at_frame_end = 0
    for _ in range(20):
        channel, alloc = random_channel(dims, rng), random_alloc(dims, rng)
        try:
            res = solve_sensing(alloc, channel, dims, sensing, radio)
        except InfeasibleError:
            continue
        assert np.all(res.tau <= sensing.frame_len)
        at_frame_end += int(np.any(res.tau == sensing.frame_len))
    assert at_frame_end > 0


def test_objective_consistent_with_throughput(rng):
    dims, sensing, radio, channel, alloc = small_problem(rng)
    res = solve_sensing(alloc, channel, dims, sensing, radio)
    after = alloc.copy()
    after.sensing_time = res.tau
    assert res.objective == pytest.approx(
        total_approx_throughput(after, channel, sensing, radio), rel=1e-12)


def test_never_worse_than_uniform_feasible_tau(rng):
    # The solver minimizes lost airtime, so it beats any hand-built feasible
    # sensing profile, e.g. uniform lam = b_k / sum(g).
    for _ in range(10):
        dims, sensing, radio, channel, alloc = small_problem(rng)
        res = solve_sensing(alloc, channel, dims, sensing, radio)
        nu = sensing.sampling_freq
        tau_u = np.empty_like(res.tau)
        for k in range(dims.num_subcarriers):
            b = detection_threshold(sensing, channel.sensing_gain_sq[:, k])
            gsum = channel.sensing_gain_sq[:, k].sum()
            lam = np.clip(b / gsum, 0.0, np.sqrt(sensing.frame_len * nu))
            tau_u[:, k] = lam ** 2 / nu
        uniform = alloc.copy()
        uniform.sensing_time = tau_u
        assert res.objective >= total_approx_throughput(
            uniform, channel, sensing, radio) - 1e-9


def test_infeasible_detection_raises(rng):
    dims, sensing, radio, channel, alloc = small_problem(rng)
    dead = channel.sensing_gain_sq.copy()
    dead[:, 0] = 0.0  # no HVWN energy anywhere on sub-carrier 0
    from cransense.model import ChannelState
    channel = ChannelState(downlink_gain=channel.downlink_gain,
                           sensing_gain_sq=dead)
    with pytest.raises(InfeasibleError) as exc:
        solve_sensing(alloc, channel, dims, sensing, radio)
    assert exc.value.detail["constraint"] == "C1"
    assert 0 in exc.value.detail["subcarriers"]


def test_infeasible_slice_rate_raises(rng):
    dims, sensing, radio, channel, alloc = small_problem(rng, rsv=1e6)
    with pytest.raises(InfeasibleError) as exc:
        solve_sensing(alloc, channel, dims, sensing, radio)
    assert exc.value.detail["constraint"] == "C10"
    assert exc.value.detail["certified"] is True


def test_slice_floors_met_alone_but_not_together_raise_uncertified():
    # Two slices, one user each, on RRHs 0 and 1 of one sub-carrier with equal
    # cells. Either RRH can carry the detection constraint alone, so either
    # floor is reachable in isolation, but both floors together cap
    # lam_0 + lam_1 at 0.8 b_k < b_k: infeasible, yet not provably so by
    # maximizing one slice's rate.
    dims = make_dims(S=2, R=2, B=1, K=1, Ns=1, omax=2, cmax=2)
    sensing = make_sensing()
    channel = ChannelState(downlink_gain=np.full((2, 1, 2), 1e-10),
                           sensing_gain_sq=np.ones((2, 1)))
    uav = np.zeros((2, 1, 2), dtype=int)
    uav[0, 0, 0] = uav[1, 0, 1] = 1
    alloc = Allocation(sensing_time=np.full((2, 1), 1e-3), power=0.1 * uav,
                       uav=uav, rrh_assoc=np.eye(2, dtype=int),
                       bbu_assoc=np.ones((2, 1), dtype=int), linkage=None)
    b = detection_threshold(sensing, channel.sensing_gain_sq[:, 0])
    rates = rate_table(np.zeros((2, 1)), alloc.power, channel, sensing, make_radio())
    w = float(rates[0, 0, 0])  # both cells: same gain, same power
    T, nu = sensing.frame_len, sensing.sampling_freq
    assert b < np.sqrt(T * nu)  # one RRH alone meets detection within the frame
    radio = make_radio(rsv=w * (1.0 - (0.4 * b) ** 2 / (T * nu)))
    with pytest.raises(InfeasibleError) as exc:
        solve_sensing(alloc, channel, dims, sensing, radio)
    assert exc.value.detail["constraint"] == "C10"
    assert exc.value.detail["certified"] is False
    assert "without a proof" in str(exc.value)


def test_slice_rate_dual_recovery(rng):
    # Find an instance where the unconstrained optimum narrowly violates a
    # slice floor; the dual loop must return a feasible profile.
    found = 0
    for _ in range(40):
        dims, sensing, radio, channel, alloc = small_problem(rng)
        res0 = solve_sensing(alloc, channel, dims, sensing, radio)
        after = alloc.copy()
        after.sensing_time = res0.tau
        from cransense.model import approx_rate_cells, slice_rates
        rates = slice_rates(approx_rate_cells(after, channel, sensing, radio),
                            dims)
        if rates.min() <= 0:
            continue
        rsv = float(rates.min()) * 0.999
        tight = make_radio(rsv=rsv)
        res = solve_sensing(alloc, channel, dims, sensing, tight)
        after.sensing_time = res.tau
        rates2 = slice_rates(approx_rate_cells(after, channel, sensing, tight),
                             dims)
        assert np.all(rates2 >= rsv - 1e-6)
        found += 1
    assert found >= 10

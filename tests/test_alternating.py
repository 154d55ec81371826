import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dims, make_radio, make_sensing, random_channel
from cransense.alternating import (AltConfig, best_feasible,
                                   default_initialization,
                                   minimal_feasible_tau, solve_joint)
from cransense.cli import build_spec, load_config
from cransense.model import (FEASIBILITY_TOL, ChannelState, InfeasibleError,
                             NetworkDims, SolveReport, check_constraints,
                             total_approx_throughput)
from cransense.power_opt import solve_power
from cransense.scenario import generate_instance
from cransense.sensing import detection_probability, detection_threshold

# Full-size reference run (4 RRHs, 3 BBUs, 2 slices of 8 users, 16
# sub-carriers, seed 0), frozen from a converged solve of this library.
FULL_SCALE_OBJECTIVE = 468.91097589644056


def stable_channel(dims, rng):
    """Random channel with sensing gains bounded away from zero."""
    base = random_channel(dims, rng)
    return ChannelState(downlink_gain=base.downlink_gain,
                        sensing_gain_sq=base.sensing_gain_sq + 0.2)


def test_config_validation():
    with pytest.raises(ValueError):
        AltConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        AltConfig(max_outer_iters=0)
    for name in ("epsilon", "power_zeta"):
        for value in (-1.0, float("nan"), float("inf"), True, "1e-3", None):
            with pytest.raises(ValueError, match=name):
                AltConfig(**{name: value})
    for name in ("max_outer_iters", "assoc_node_limit", "power_max_iters"):
        for value in (2.7, 0, -3, True, float("inf"), "10"):
            with pytest.raises(ValueError, match=name):
                AltConfig(**{name: value})
    cfg = AltConfig(max_outer_iters=30.0, assoc_node_limit=np.int64(7))
    assert type(cfg.max_outer_iters) is int and type(cfg.assoc_node_limit) is int
    assert AltConfig() == AltConfig(epsilon=1e-3, max_outer_iters=100,
                                    assoc_node_limit=20_000, power_zeta=1e-5,
                                    power_max_iters=500)


def test_minimal_feasible_tau_meets_target(rng):
    dims = make_dims()
    sensing = make_sensing()
    channel = stable_channel(dims, rng)
    tau = minimal_feasible_tau(channel, sensing)
    pd = detection_probability(tau, sensing.sampling_freq, sensing.hvwn_snr,
                               channel.sensing_gain_sq,
                               sensing.pfa_per_subcarrier(dims.num_subcarriers))
    assert np.all(pd >= sensing.target_pd - 1e-9)
    assert np.all(tau > 0) and np.all(tau <= sensing.frame_len)


@pytest.mark.parametrize("target_pd", [0.5, 0.9, 0.99])
def test_minimal_feasible_tau_meets_target_exactly(target_pd):
    # The closed form can round a tau an ulp short of target_pd; the
    # returned tau must meet C1 with no tolerance at all.
    dims = make_dims(R=3, K=8)
    sensing = make_sensing(pd=target_pd)
    pfa = sensing.pfa_per_subcarrier(dims.num_subcarriers)
    rng = np.random.default_rng(7)
    for _ in range(25):
        channel = stable_channel(dims, rng)
        tau = minimal_feasible_tau(channel, sensing)
        assert np.all(tau < sensing.frame_len)  # every entry is attainable
        pd = detection_probability(tau, sensing.sampling_freq, sensing.hvwn_snr,
                                   channel.sensing_gain_sq, pfa)
        assert np.all(pd >= target_pd)
        # ... and is still the closed form (b_k / sum_r g_rk)^2 / nu up to a
        # few ulps, the same on every RRH.
        g = channel.sensing_gain_sq
        b = detection_threshold(sensing, g)
        closed = np.array([(b[k] / g[:, k].sum()) ** 2 / sensing.sampling_freq
                           for k in range(dims.num_subcarriers)])
        assert np.all(tau == tau[0])
        assert np.all(np.abs(tau[0] / closed - 1.0) <= 1e-14)


def test_minimal_feasible_tau_clamped_to_the_frame():
    # At nu = 1.5 Hz no sub-carrier can meet its target: lambda clips to
    # lmax = sqrt(T * nu), and lmax ** 2 / nu rounds one ulp past T = 0.2 s.
    dims = make_dims(R=4, K=16)
    sensing = make_sensing(nu=1.5)
    channel = stable_channel(dims, np.random.default_rng(0))
    lmax = np.sqrt(sensing.frame_len * sensing.sampling_freq)
    assert lmax ** 2 / sensing.sampling_freq > sensing.frame_len
    assert np.all(minimal_feasible_tau(channel, sensing) == sensing.frame_len)


def test_default_initialization_is_feasible(rng):
    dims = make_dims()
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    for _ in range(10):
        channel = stable_channel(dims, rng)
        init = default_initialization(channel, dims, sensing, radio)
        res = check_constraints(init, dims, radio, sensing, channel)
        assert max(res.values()) <= 1e-9


def test_objective_trajectory_monotone(rng):
    dims = make_dims(R=2, K=3, Ns=2)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    for _ in range(5):
        channel = stable_channel(dims, rng)
        init = default_initialization(channel, dims, sensing, radio)
        _, report = solve_joint(init, channel, dims, sensing, radio)
        traj = report.objective_trajectory
        assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))
        assert report.converged
        assert max(report.constraint_residuals.values()) <= 1e-6


def test_solution_is_a_fixed_point(rng):
    # Re-running the alternation from a converged answer stops immediately
    # without changing the objective.
    dims = make_dims(R=2, K=3, Ns=2)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    channel = stable_channel(dims, rng)
    init = default_initialization(channel, dims, sensing, radio)
    alloc, report = solve_joint(init, channel, dims, sensing, radio)
    obj = total_approx_throughput(alloc, channel, sensing, radio)
    alloc2, report2 = solve_joint(alloc, channel, dims, sensing, radio)
    assert report2.converged
    assert len(report2.objective_trajectory) == 1
    assert report2.objective_trajectory[0] >= obj - 1e-9
    assert report2.objective_trajectory[0] <= obj + max(1e-3, 1e-9 * obj)


def test_never_below_initial_objective(rng):
    dims = make_dims(R=2, K=3, Ns=2)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    for _ in range(5):
        channel = stable_channel(dims, rng)
        init = default_initialization(channel, dims, sensing, radio)
        obj0 = total_approx_throughput(init, channel, sensing, radio)
        _, report = solve_joint(init, channel, dims, sensing, radio)
        assert report.objective_trajectory[-1] >= obj0 - 1e-9


def test_report_bookkeeping(rng):
    dims = make_dims(R=2, K=2, Ns=2)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    channel = stable_channel(dims, rng)
    init = default_initialization(channel, dims, sensing, radio)
    _, report = solve_joint(init, channel, dims, sensing, radio)
    assert report.iterations == len(report.objective_trajectory)
    assert len(report.residual_trajectory) == report.iterations
    with pytest.raises(AttributeError):  # read from the trajectory, never set
        report.iterations = 0
    assert set(report.wall_times) == {"step1", "step2", "step3"}
    assert all(t >= 0 for t in report.wall_times.values())
    assert report.step_fallbacks == []
    assert report.assoc_truncated == []


def test_truncated_association_is_reported(rng):
    dims = make_dims(R=2, K=2, Ns=2)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    channel = stable_channel(dims, rng)
    init = default_initialization(channel, dims, sensing, radio)
    # Power on every cell gives every user a rate, so the warm-started
    # search cannot close at the root; from iteration 1 on, power sits only
    # on the incumbent's cells and the root bound proves it optimal.
    init.power = np.full_like(init.power, 1.0 / (dims.num_subcarriers * dims.num_users))
    _, report = solve_joint(init, channel, dims, sensing, radio,
                            AltConfig(assoc_node_limit=1))
    assert report.assoc_truncated == [0]
    assert all(step != "step2" for _, step, _ in report.step_fallbacks)


def test_unreachable_slice_floor_records_fallbacks(rng):
    dims = make_dims(R=2, K=2, Ns=2)
    sensing = make_sensing()
    radio = make_radio(rsv=1e9)  # unreachable slice floor
    channel = stable_channel(dims, rng)
    init = default_initialization(channel, dims, sensing, radio)
    # Each block keeps its previous values and the solve says so.
    _, report = solve_joint(init, channel, dims, sensing, radio)
    assert report.step_fallbacks


def test_full_scale_regression():
    spec = build_spec(load_config(None))
    channel, positions = generate_instance(spec)
    init = default_initialization(channel, spec.dims, spec.sensing, spec.radio,
                                  user_positions=positions,
                                  rrh_coords=spec.rrh_coords)
    alloc, report = solve_joint(init, channel, spec.dims, spec.sensing,
                                spec.radio, AltConfig(assoc_node_limit=20_000))
    assert report.converged
    assert report.iterations < 100
    traj = report.objective_trajectory
    assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))
    assert max(report.constraint_residuals.values()) <= 1e-6
    assert traj[-1] == pytest.approx(FULL_SCALE_OBJECTIVE, rel=1e-9)


def test_full_scale_step_3_converges_well_inside_the_cap():
    # Step 3 from the default start of the full-size instance (seed 0) with
    # the default solver settings: plain pricing sweeps hit the 500-sweep
    # cap here, unconverged; each sweep's line search ends the creep.
    spec = build_spec(load_config(None))
    channel, positions = generate_instance(spec)
    init = default_initialization(channel, spec.dims, spec.sensing, spec.radio,
                                  user_positions=positions,
                                  rrh_coords=spec.rrh_coords)
    cfg = AltConfig()
    res = solve_power(init.uav, init.sensing_time, init.power, channel,
                      spec.dims, spec.sensing, spec.radio,
                      zeta=cfg.power_zeta, max_iters=cfg.power_max_iters)
    assert res.converged
    assert len(res.iterates) <= cfg.power_max_iters // 4
    traj = res.objective_trajectory
    assert all(b >= a for a, b in zip(traj, traj[1:]))


def slot_choice_loop(channel, dims, x):
    """Reference for default_initialization's beta: one slot at a time, each
    to the best-gain user of the least-served slice at that RRH so far."""
    R, K, N = dims.num_rrhs, dims.num_subcarriers, dims.num_users
    user_slice = dims.user_slice
    slice_slots = np.zeros(dims.num_slices, dtype=int)
    beta = np.zeros((R, K, N), dtype=int)
    for r in range(R):
        users_r = np.flatnonzero(x[:, r])
        if users_r.size == 0:
            continue
        slices_r = np.unique(user_slice[users_r])
        for k in range(K):
            s_min = slices_r[int(np.argmin(slice_slots[slices_r]))]
            cands = users_r[user_slice[users_r] == s_min]
            n_best = cands[int(np.argmax(channel.downlink_gain[r, k, cands]))]
            beta[r, k, n_best] = 1
            slice_slots[s_min] += 1
    return beta


@pytest.mark.parametrize("seed", range(24))
def test_default_initialization_matches_slot_loop(seed):
    # RRH 0 has no fronthaul, so no users; the other RRHs get uneven slice
    # loads, and gains on a coarse grid make argmax ties common.
    rng = np.random.default_rng(seed)
    S, R, B = 1 + seed % 3, 2 + seed % 3, 2
    K, Ns = 1 + seed % 5, 1 + (seed // 3) % 4
    cap = rng.integers(0, 3, size=(R, B))
    cap[0] = 0
    dims = NetworkDims(num_slices=S, num_rrhs=R, num_bbus=B, num_subcarriers=K,
                       users_per_slice=Ns, bbu_user_cap=int(rng.integers(1, 2 * Ns + 1)),
                       fronthaul_cap=cap)
    gains = rng.integers(1, 4, size=(R, K, S * Ns)) * 1e-10
    channel = ChannelState(downlink_gain=gains,
                           sensing_gain_sq=rng.exponential(1.0, (R, K)) + 0.2)
    radio = make_radio(pmax=rng.uniform(0.5, 2.0, R))
    init = default_initialization(channel, dims, make_sensing(), radio)
    assert not init.rrh_assoc[:, 0].any()
    beta = slot_choice_loop(channel, dims, init.rrh_assoc)
    assert np.array_equal(init.uav, beta)
    cells = beta.sum(axis=(1, 2))
    share = np.divide(radio.max_power, cells, out=np.zeros(R), where=cells > 0)
    assert np.array_equal(init.power, beta * share[:, None, None])


def reference_initialization(channel, dims, radio, user_positions=None, rrh_coords=None):
    """default_initialization's rrh_assoc, bbu_assoc, uav and power as its
    plain per-user and per-RRH loops computed them, on numpy scalars."""
    R, K, N, B = dims.num_rrhs, dims.num_subcarriers, dims.num_users, dims.num_bbus
    if user_positions is not None and rrh_coords is not None:
        d = np.linalg.norm(user_positions[:, None, :] - np.asarray(rrh_coords)[None, :, :],
                           axis=2)
        pref = np.argsort(d, axis=1)
    else:
        mean_gain = channel.downlink_gain.mean(axis=1)  # (R, N)
        pref = np.argsort(-mean_gain.T, axis=1)

    x = np.zeros((N, R), dtype=int)
    f = np.zeros((N, B), dtype=int)
    link_used = np.zeros((R, B), dtype=int)
    bbu_used = np.zeros(B, dtype=int)
    for n in range(N):
        for r in pref[n]:
            b_ok = next((b for b in range(B)
                         if link_used[r, b] < dims.fronthaul_cap[r, b]
                         and bbu_used[b] < dims.bbu_user_cap), None)
            if b_ok is not None:
                x[n, r] = 1
                f[n, b_ok] = 1
                link_used[r, b_ok] += 1
                bbu_used[b_ok] += 1
                break

    user_slice = dims.user_slice
    slice_slots = [0] * dims.num_slices
    beta = np.zeros((R, K, N), dtype=int)
    for r in range(R):
        users_r = np.flatnonzero(x[:, r])
        if users_r.size == 0:
            continue
        best = {}
        for s in np.unique(user_slice[users_r]).tolist():
            cands = users_r[user_slice[users_r] == s]
            best[s] = cands[channel.downlink_gain[r][:, cands].argmax(axis=1)].tolist()
        chosen = []
        for k in range(K):
            s_min = min(best, key=slice_slots.__getitem__)
            chosen.append(best[s_min][k])
            slice_slots[s_min] += 1
        beta[r, np.arange(K), chosen] = 1

    pmax = radio.max_power_per_rrh(R)
    power = np.zeros((R, K, N))
    for r in range(R):
        active = beta[r] > 0
        cnt = int(active.sum())
        if cnt:
            power[r][active] = pmax[r] / cnt
    return x, f, beta, power


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 6), S=st.integers(1, 3),
       Ns=st.integers(1, 4), B=st.integers(1, 3), K=st.integers(1, 4),
       tied=st.booleans(), by_position=st.booleans())
def test_default_initialization_matches_reference_loops(seed, R, S, Ns, B, K, tied,
                                                        by_position):
    # Caps of 0-2 users per link and up to 2 Ns per BBU leave users unserved
    # and RRHs empty; gains on a 3-level grid and positions on a 3 x 3 grid
    # make ties common.
    rng = np.random.default_rng(seed)
    dims = NetworkDims(num_slices=S, num_rrhs=R, num_bbus=B, num_subcarriers=K,
                       users_per_slice=Ns, bbu_user_cap=int(rng.integers(0, 2 * Ns + 1)),
                       fronthaul_cap=rng.integers(0, 3, size=(R, B)))
    N = dims.num_users
    gains = (rng.integers(1, 4, size=(R, K, N)) * 1e-10 if tied
             else rng.exponential(1e-10, size=(R, K, N)))
    channel = ChannelState(downlink_gain=gains,
                           sensing_gain_sq=rng.exponential(1.0, (R, K)) + 0.2)
    radio = make_radio(pmax=rng.uniform(0.5, 2.0, R))
    where = {}
    if by_position:
        grid = (lambda size: rng.integers(0, 3, size=size) * 0.5) if tied else rng.uniform
        where = dict(user_positions=grid(size=(N, 2)), rrh_coords=grid(size=(R, 2)))
    init = default_initialization(channel, dims, make_sensing(), radio, **where)
    for got, want in zip((init.rrh_assoc, init.bbu_assoc, init.uav, init.power),
                         reference_initialization(channel, dims, radio, **where)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def checked_solve(channel, dims, radio):
    """solve_joint from the default start, with the properties every solve has.

    The trajectory never falls, a converged answer meets C1-C10 to 1e-6,
    and every returned array is finite.
    """
    sensing = make_sensing()
    init = default_initialization(channel, dims, sensing, radio)
    alloc, report = solve_joint(init, channel, dims, sensing, radio)
    traj = report.objective_trajectory
    assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))
    if report.converged:
        assert max(report.constraint_residuals.values()) <= 1e-6
    for arr in (traj, alloc.sensing_time, alloc.power, alloc.uav, alloc.rrh_assoc,
                alloc.bbu_assoc, alloc.derived_linkage()):
        assert np.isfinite(arr).all()
    if alloc.linkage is not None:
        assert np.array_equal(alloc.linkage, alloc.derived_linkage())
    return report


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 3), K=st.integers(1, 3),
       Ns=st.integers(1, 2), omax=st.integers(0, 3), cmax=st.integers(0, 2),
       rsv=st.sampled_from([0.0, 0.1, 1.0]))
def test_property_solve_joint_is_monotone_finite_and_honest(seed, R, K, Ns, omax,
                                                           cmax, rsv):
    rng = np.random.default_rng(seed)
    dims = make_dims(R=R, K=K, Ns=Ns, omax=omax, cmax=cmax)
    checked_solve(random_channel(dims, rng), dims, make_radio(rsv=rsv))


def degenerate_case(name):
    """R=2, K=3, 2 users per slice, with one input made degenerate."""
    dims = make_dims(R=2, K=3, Ns=2)
    base = stable_channel(dims, np.random.default_rng(3))
    gain, sensing_gain = base.downlink_gain.copy(), base.sensing_gain_sq.copy()
    if name == "zero sensing gain":
        sensing_gain[:, 1] = 0.0
    elif name == "all sensing gains zero":
        sensing_gain[:] = 0.0
    elif name == "user with zero gains":
        gain[:, :, 0] = 0.0
    elif name == "bbu_user_cap=0":
        dims = dataclasses.replace(dims, bbu_user_cap=0)
    elif name == "zero fronthaul row":
        cap = dims.fronthaul_cap.copy()
        cap[0] = 0
        dims = dataclasses.replace(dims, fronthaul_cap=cap)
    return dims, ChannelState(downlink_gain=gain, sensing_gain_sq=sensing_gain)


@pytest.mark.parametrize("name", ["zero sensing gain", "all sensing gains zero"])
def test_undetectable_subcarrier_ends_unconverged_on_c1(name):
    # A sub-carrier with no sensing gain detects with probability pfa only,
    # so C1 stays 0.9 - 0.2 short and every step 1 falls back.
    dims, channel = degenerate_case(name)
    report = checked_solve(channel, dims, make_radio())
    assert not report.converged
    assert report.constraint_residuals["C1"] == pytest.approx(0.7)
    steps = [step for _, step, _ in report.step_fallbacks]
    assert steps == ["step1"] * report.iterations


@pytest.mark.parametrize("name", ["user with zero gains", "bbu_user_cap=0",
                                  "zero fronthaul row"])
def test_degenerate_capacity_or_gain_still_converges_feasibly(name):
    dims, channel = degenerate_case(name)
    report = checked_solve(channel, dims, make_radio())
    assert report.converged
    assert max(report.constraint_residuals.values()) <= 1e-6


def test_no_bbu_capacity_with_a_slice_floor_ends_unconverged_on_c10():
    dims, channel = degenerate_case("bbu_user_cap=0")
    report = checked_solve(channel, dims, make_radio(rsv=0.1))
    assert not report.converged
    assert report.constraint_residuals["C10"] == pytest.approx(0.1)


def answer(objective, c10=0.0):
    """A finished solve as best_feasible sees it: its allocation is opaque."""
    report = SolveReport(objective_trajectory=[0.0, objective],
                         constraint_residuals={"C1": 0.0, "C10": c10},
                         step_fallbacks=[(0, "step3", f"objective {objective}")])
    return object(), report


def test_best_feasible_keeps_the_earlier_of_tied_answers():
    first, tied, better = answer(5.0), answer(5.0), answer(6.0)
    assert best_feasible([first, tied]) is first
    assert best_feasible([first, better, answer(6.0)]) is better
    # A higher objective off by more than FEASIBILITY_TOL does not compete.
    edge = answer(4.0, c10=FEASIBILITY_TOL)
    assert best_feasible([answer(9.0, c10=2 * FEASIBILITY_TOL), edge]) is edge


def test_best_feasible_returns_a_lone_feasible_answer_itself():
    only = answer(3.0)
    assert best_feasible([only]) is only


def test_best_feasible_raises_with_every_answers_residuals():
    solved = [answer(9.0, c10=0.5), answer(2.0, c10=1e-3)]
    with pytest.raises(InfeasibleError, match="C10 by 0.5, C10 by 0.001") as err:
        best_feasible(solved)
    detail = err.value.detail
    assert detail["residuals"] == [r.constraint_residuals for _, r in solved]
    assert detail["fallbacks"] == [r.step_fallbacks for _, r in solved]

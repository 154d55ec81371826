import numpy as np
import pytest

from conftest import make_dims, make_radio, make_sensing, random_channel
from cransense.alternating import (AltConfig, default_initialization,
                                   minimal_feasible_tau, solve_joint)
from cransense.cli import build_spec, load_config
from cransense.model import (ChannelState, check_constraints,
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
    with pytest.raises(ValueError):
        AltConfig(fallback_on_infeasible_step="retry")


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
    # Cold start: a cut search has no incumbent, so step 2 falls back.
    _, report = solve_joint(init, channel, dims, sensing, radio,
                            AltConfig(assoc_node_limit=1, warm_start=False))
    assert report.assoc_truncated == list(range(report.iterations))
    assert [it for it, step, _ in report.step_fallbacks if step == "step2"] \
        == report.assoc_truncated


def test_abort_mode_propagates_infeasibility(rng):
    dims = make_dims(R=2, K=2, Ns=2)
    sensing = make_sensing()
    radio = make_radio(rsv=1e9)  # unreachable slice floor
    channel = stable_channel(dims, rng)
    init = default_initialization(channel, dims, sensing, radio)
    from cransense.model import InfeasibleError
    with pytest.raises(InfeasibleError):
        solve_joint(init, channel, dims, sensing, radio,
                    AltConfig(fallback_on_infeasible_step="abort"))
    # keep-previous mode survives and records the fallbacks instead.
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


def test_cold_start_still_runs_step_3():
    # warm_start=False only drops step 2's incumbent: step 3 still starts
    # from the current powers, since 0 W misses every positive slice floor.
    cfg = load_config(None)
    cfg["dims"].update(num_subcarriers=4, users_per_slice=1)
    spec = build_spec(cfg)
    assert spec.radio.reserved_rate > 0
    channel, positions = generate_instance(spec)
    init = default_initialization(channel, spec.dims, spec.sensing, spec.radio,
                                  user_positions=positions,
                                  rrh_coords=spec.rrh_coords)
    obj0 = total_approx_throughput(init, channel, spec.sensing, spec.radio)
    _, report = solve_joint(init, channel, spec.dims, spec.sensing, spec.radio,
                            AltConfig(warm_start=False))
    assert all(step != "step3" for _, step, _ in report.step_fallbacks)
    assert report.converged
    assert report.objective_trajectory[-1] > obj0

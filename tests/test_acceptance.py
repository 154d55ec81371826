"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line when its guarantee holds; pytest
reports the authoritative pass/fail status.
"""

import dataclasses
import json
import time
from itertools import product

import numpy as np
import pytest

from conftest import (make_dims, make_radio, make_sensing, random_alloc,
                      random_channel)
from cransense.alternating import AltConfig, default_initialization, solve_joint
from cransense.assoc_opt import rate_table, solve_association
from cransense.cli import build_spec, load_config, main
from cransense.gaussian import q_func, q_inv
from cransense.model import (ChannelState, InfeasibleError,
                             UnattainableTargetError, approx_rate_cells,
                             slice_rates, total_approx_throughput)
from cransense.power_opt import _Slots, solve_power
from cransense.scenario import SweepSpec, generate_instance, run_sweep
from cransense.sensing import detection_probability, interruption_probability, min_samples
from cransense.sensing_opt import solve_sensing
from test_assoc_opt import brute_force_association
from test_power_opt import block_surrogate, weighted_objective


def full_scale_spec():
    return build_spec(load_config(None))


def test_criterion_01_gaussian_tail_round_trip():
    t0 = time.perf_counter()
    grid = np.linspace(-6.0, 6.0, 1000)
    err = max(abs(q_inv(q_func(x)) - x) for x in grid)
    elapsed = time.perf_counter() - t0
    assert err <= 1e-8
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: round-trip error {err:.2e} on 1000-point "
          f"grid in {elapsed:.2f} s")


def test_criterion_02_sensing_formula_collapse():
    worst = 0.0
    for pfa in (0.05, 0.2, 0.4):
        pd = detection_probability(np.full(3, 0.01), 1e6, 0.0316,
                                   np.zeros(3), pfa)
        worst = max(worst, abs(float(pd) - pfa))
    assert worst <= 1e-12
    with pytest.raises(UnattainableTargetError):
        min_samples(1.0, 0.2, 0.9)
    print(f"\nACCEPTANCE 2 PASS: zero-gain detection collapses to the false-"
          f"alarm target (max error {worst:.1e}); alpha=1 raises")


def test_criterion_03_interruption_trend():
    t0 = time.perf_counter()
    T = 0.2
    taus = np.linspace(T / 20, T, 20)
    curves = {}
    for pd in (0.8, 0.9):
        params = make_sensing(pd=pd, pfa=0.2)
        curves[pd] = [interruption_probability(float(t), params, num_rrhs=4,
                                               num_trials=10_000, seed=0)
                      for t in taus]
    elapsed = time.perf_counter() - t0
    for pd, vals in curves.items():
        assert all(a >= b for a, b in zip(vals, vals[1:])), pd
    assert all(lo <= hi for lo, hi in zip(curves[0.8], curves[0.9]))
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: interruption estimate non-increasing in tau "
          f"and ordered across detection targets (10^4 trials, {elapsed:.1f} s)")


def test_criterion_04_sensing_throughput_tradeoff():
    t0 = time.perf_counter()
    spec = full_scale_spec()
    T = spec.sensing.frame_len
    # Log-spaced grid: cooperative detection already succeeds below one
    # millisecond, so a linear grid cannot resolve the peak.
    grid = tuple(np.geomspace(2e-5, T, 50))
    peak_idx = {}
    for pd in (0.8, 0.9):
        s = dataclasses.replace(spec,
                                sensing=dataclasses.replace(spec.sensing,
                                                            target_pd=pd))
        rows = run_sweep(SweepSpec(swept_parameter="tau", grid=grid,
                                   trials_per_point=20, base=s))
        means = [r["mean_throughput"] for r in rows]
        i = int(np.argmax(means))
        assert 0 < i < len(grid) - 1, f"maximizer not interior for pd={pd}"
        peak_idx[pd] = i
    elapsed = time.perf_counter() - t0
    assert peak_idx[0.8] <= peak_idx[0.9] + 1  # within one grid step
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 4 PASS: interior optimum "
          f"(tau*={grid[peak_idx[0.9]]*1e3:.2f} ms at pd=0.9, "
          f"{grid[peak_idx[0.8]]*1e3:.2f} ms at pd=0.8) in {elapsed:.0f} s")


def test_criterion_05_optimal_tau_vs_false_alarm():
    spec = full_scale_spec()
    rows = run_sweep(SweepSpec(swept_parameter="target_pfa",
                               grid=(0.1, 0.2, 0.3), trials_per_point=10,
                               base=spec))
    taus = [r["opt_tau_ms"] for r in rows]
    assert all(r["infeasible_trials"] == 0 for r in rows)
    assert all(b <= a + 0.5 for a, b in zip(taus, taus[1:]))  # 0.5 ms tolerance
    print(f"\nACCEPTANCE 5 PASS: optimal tau non-increasing over the false-"
          f"alarm grid: {['%.2f' % t for t in taus]} ms")


def test_criterion_06_user_diversity_trend():
    spec = full_scale_spec()
    # The paired-seed trend is robust to a looser power tolerance, and the
    # 60 joint solves need it to finish in reasonable time.
    cfg = AltConfig(max_outer_iters=30, assoc_node_limit=20_000,
                    power_zeta=1e-3, power_max_iters=200)
    rows = run_sweep(SweepSpec(swept_parameter="num_users", grid=(4, 8, 12),
                               trials_per_point=20, base=spec), cfg)
    means = [r["mean_throughput"] for r in rows]
    assert all(r["infeasible_trials"] == 0 for r in rows)
    assert means[0] < means[1] < means[2]
    print(f"\nACCEPTANCE 6 PASS: mean joint throughput strictly increases "
          f"with users per slice: {['%.1f' % m for m in means]}")


def test_criterion_07_rrh_cooperation_trend():
    spec = full_scale_spec()
    rows = run_sweep(SweepSpec(swept_parameter="num_rrhs", grid=(2, 4, 6),
                               trials_per_point=10, base=spec))
    taus = [r["opt_tau_ms"] for r in rows]
    assert all(r["infeasible_trials"] == 0 for r in rows)
    assert all(b <= a + 0.5 for a, b in zip(taus, taus[1:]))
    print(f"\nACCEPTANCE 7 PASS: optimal tau non-increasing with RRH count: "
          f"{['%.2f' % t for t in taus]} ms")


def test_criterion_08_association_ilp_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    dims = make_dims(S=2, R=2, B=2, K=2, Ns=2, omax=2, cmax=1)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    checked = 0
    for _ in range(200):
        channel = random_channel(dims, rng)
        tau = np.full((2, 2), float(rng.uniform(0.01, 0.05)))
        power = rng.uniform(0, 0.3, size=(2, 2, 4))
        rates = rate_table(tau, power, channel, sensing, radio)
        oracle = brute_force_association(rates, dims, np.zeros(2))
        res = solve_association(tau, power, channel, dims, sensing, radio)
        assert res.proven_optimal
        assert res.objective == pytest.approx(max(oracle, 0.0), abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 8 PASS: {checked} random instances match the "
          f"enumeration oracle exactly ({elapsed:.1f} s)")


def test_criterion_09_sensing_stage_optimality():
    rng = np.random.default_rng(9)
    dims = make_dims(R=2, K=2, Ns=2, B=2, omax=4, cmax=4)
    sensing = make_sensing()
    radio = make_radio(rsv=0.0)
    T, nu = sensing.frame_len, sensing.sampling_freq
    lmax = np.sqrt(T * nu)
    worst_rel = 0.0
    for _ in range(100):
        base = random_channel(dims, rng)
        channel = ChannelState(downlink_gain=base.downlink_gain,
                               sensing_gain_sq=base.sensing_gain_sq + 0.2)
        alloc = random_alloc(dims, rng)
        res = solve_sensing(alloc, channel, dims, sensing, radio)

        pfa = sensing.pfa_per_subcarrier(dims.num_subcarriers)
        pd = detection_probability(res.tau, nu, sensing.hvwn_snr,
                                   channel.sensing_gain_sq, pfa)
        assert np.all(pd >= sensing.target_pd - 1e-9)

        # Dense grid over the detection boundary of each sub-carrier: the
        # objective is decreasing in every tau, so the optimum lies on the
        # constraint (or at zero when the constraint is slack).
        from cransense.gaussian import q_inv as qi
        from cransense.model import interference_map, sinr_absent
        from cransense.sensing import alpha as alpha_fn
        inter = interference_map(alloc.power, channel.downlink_gain)
        g0 = sinr_absent(alloc.power, channel.downlink_gain, inter,
                         radio.noise_power)
        tau_best = np.empty_like(res.tau)
        for k in range(dims.num_subcarriers):
            g = channel.sensing_gain_sq[:, k]
            a = alpha_fn(sensing.hvwn_snr, g)
            b = (qi(pfa[k]) - a * qi(sensing.target_pd)) / sensing.hvwn_snr
            lam1 = np.linspace(0.0, min(lmax, 1.2 * b / g[1]), 8000)
            lam0 = np.clip((b - lam1 * g[1]) / g[0], 0.0, lmax)
            ok = lam0 * g[0] + lam1 * g[1] >= b - 1e-9
            wk = (alloc.uav[:, k, :] * sensing.idle_prob * (1.0 - pfa[k])
                  * np.log2(1.0 + g0[:, k, :])).sum(axis=1)  # (R,)
            cost = np.where(ok, wk[0] * lam0 ** 2 + wk[1] * lam1 ** 2, np.inf)
            j = int(np.argmin(cost))
            tau_best[0, k] = lam0[j] ** 2 / nu
            tau_best[1, k] = lam1[j] ** 2 / nu
        probe = alloc.copy()
        probe.sensing_time = tau_best
        grid_obj = total_approx_throughput(probe, channel, sensing, radio)
        rel = (grid_obj - res.objective) / max(abs(grid_obj), 1e-12)
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-3
    print(f"\nACCEPTANCE 9 PASS: sensing stage within {worst_rel:.2e} relative "
          f"of dense grid search on 100 instances, detection target met")


def test_criterion_10_sca_soundness():
    rng = np.random.default_rng(10)
    dims = make_dims(R=2, K=2, Ns=2, B=2, omax=8, cmax=8)
    sensing = make_sensing()
    radio = make_radio(noise=1.0, rsv=0.0)
    fd_worst = 0.0
    for _ in range(100):
        g = rng.uniform(0.2, 2.0, size=(2, 2, 4))
        s = rng.exponential(1.0, size=(2, 2))
        channel = ChannelState(downlink_gain=g, sensing_gain_sq=s)
        alloc = random_alloc(dims, rng)

        res = solve_power(alloc.uav, alloc.sensing_time, alloc.power, channel,
                          dims, sensing, radio)
        # (a) monotone true objective.
        traj = res.objective_trajectory
        assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))
        # (b) every iterate feasible: exact power budget, slice floors.
        pmax = radio.max_power_per_rrh(2)
        probe = alloc.copy()
        for it in res.iterates:
            assert np.all(it.power >= 0.0)
            assert np.all(it.power.sum(axis=(1, 2)) <= pmax * (1 + 1e-12))
            probe.power = it.power
            rates = slice_rates(approx_rate_cells(probe, channel, sensing,
                                                  radio), dims)
            assert np.all(rates >= -1e-6)  # rsv = 0 floors

        # (c) gradient of the slice-weighted slot objective against central
        # differences, compared at the scale of the gradient itself.
        slots = _Slots(alloc.uav, alloc.sensing_time, channel, dims, sensing, radio)
        w = rng.uniform(1.0, 4.0, size=dims.num_slices)
        power = rng.uniform(0.5, 1.5, size=(2, 2))
        grad, _ = slots.gradient(power, slots.evaluate(power)[0], w[slots.slice])
        h = 1e-6
        fd = np.empty_like(grad)
        for idx in np.ndindex(power.shape):
            hi, lo = power.copy(), power.copy()
            hi[idx] += h
            lo[idx] -= h
            fd[idx] = (weighted_objective(slots, w, hi)
                       - weighted_objective(slots, w, lo)) / (2 * h)
        denom = max(float(np.abs(fd).max()), 1e-12)
        fd_worst = max(fd_worst, float(np.abs(grad - fd).max()) / denom)

        # (d) the priced block surrogate is tight at the anchor and a global
        # minorant over random block points.
        anchor = rng.uniform(0.0, 2.0, size=power.shape)
        surrogate = block_surrogate(slots, w, anchor)
        at_anchor = weighted_objective(slots, w, anchor)
        for r in range(2):
            assert surrogate(r, anchor) == pytest.approx(at_anchor, rel=1e-12)
        for r, row in zip(rng.integers(0, 2, size=1000),
                          rng.uniform(0.0, 2.0, size=(1000, 2))):
            p = anchor.copy()
            p[r] = row
            assert surrogate(r, p) <= weighted_objective(slots, w, p) + 1e-9
    assert fd_worst <= 1e-6
    print(f"\nACCEPTANCE 10 PASS: 100 instances with monotone feasible "
          f"iterates, pricing gradient error {fd_worst:.1e}, block surrogate "
          f"minorant at 10^3 points each")


def test_criterion_11_joint_convergence_full_scale():
    t0 = time.perf_counter()
    spec = full_scale_spec()
    channel, positions = generate_instance(spec)
    init = default_initialization(channel, spec.dims, spec.sensing, spec.radio,
                                  user_positions=positions,
                                  rrh_coords=spec.rrh_coords)
    alloc, report = solve_joint(init, channel, spec.dims, spec.sensing,
                                spec.radio, AltConfig(assoc_node_limit=20_000))
    elapsed = time.perf_counter() - t0
    assert report.converged
    assert report.iterations < 100
    traj = report.objective_trajectory
    assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))
    assert max(report.constraint_residuals.values()) <= 1e-6
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 11 PASS: full-scale solve converged in "
          f"{report.iterations} iterations to {traj[-1]:.2f} with all "
          f"residuals <= 1e-6 ({elapsed:.0f} s)")


def test_criterion_12_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dims": {"num_rrhs": 2, "num_bbus": 2, "num_subcarriers": 4,
                 "users_per_slice": 2, "bbu_user_cap": 4, "fronthaul_cap": 4},
        "radio": {"reserved_rate": 0.5},
        "sweep": {"grid": [0.02, 0.05, 0.1], "trials_per_point": 3},
    }))
    outs = []
    for tag in ("a", "b"):
        for cmd in ("solve", "sweep-tau"):
            out = tmp_path / f"{cmd}-{tag}"
            assert main([cmd, "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
            outs.append(out)
    for cmd in ("solve", "sweep-tau"):
        a, b = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    print("\nACCEPTANCE 12 PASS: solve and sweep outputs byte-identical "
          "across reruns with the same config and seed")

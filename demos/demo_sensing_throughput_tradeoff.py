"""The sensing-throughput tradeoff and the optimal sensing time.

Sensing longer improves detection (fewer interrupted sub-carriers) but
shrinks the (T - tau)/T fraction of the frame left for transmission, so the
average throughput over channel draws peaks at an interior tau*. The demo
sweeps a fixed uniform tau over a log grid, then finds tau* exactly among
the per-sub-carrier detection thresholds, for three false-alarm targets: a
laxer false-alarm budget lowers the detection threshold and moves tau* down.

Run:  python3 demos/demo_sensing_throughput_tradeoff.py
"""

import dataclasses

import numpy as np

from cransense import (NetworkDims, RadioParams, ScenarioSpec, SensingParams,
                       generate_instance, optimal_sensing_time)
from cransense.scenario import evaluate_fixed_tau_throughput


def paper_scale_spec(target_pfa=0.2):
    dims = NetworkDims(num_slices=2, num_rrhs=4, num_bbus=3,
                       num_subcarriers=16, users_per_slice=8, bbu_user_cap=6,
                       fronthaul_cap=np.full((4, 3), 4, dtype=int))
    sensing = SensingParams(target_pd=0.9, target_pfa=target_pfa,
                            hvwn_snr=10.0 ** -1.5, sampling_freq=1e6,
                            frame_len=0.2, hvwn_active_prob=0.1)
    return ScenarioSpec(dims=dims, sensing=sensing, radio=RadioParams(), seed=0)


def main():
    spec = paper_scale_spec()
    channel, _ = generate_instance(spec)

    print("Fixed-tau throughput sweep (single channel draw, seed 0):\n")
    print(f"{'tau [ms]':>10} {'throughput [bps/Hz]':>22}")
    for t in np.geomspace(2e-5, spec.sensing.frame_len, 10):
        val = evaluate_fixed_tau_throughput(float(t), channel, spec.dims,
                                            spec.sensing, spec.radio)
        print(f"{t * 1e3:>10.3f} {val:>22.2f}")

    print("\nOptimal sensing time per false-alarm target (same draw):")
    for pfa in (0.1, 0.2, 0.3):
        sensing = dataclasses.replace(spec.sensing, target_pfa=pfa)
        star = optimal_sensing_time(channel, spec.dims, sensing, spec.radio)
        print(f"  target_pfa = {pfa}:  tau* = {star * 1e3:.3f} ms")
    print("\ntau* shrinks as the false-alarm budget loosens: the detector "
          "needs fewer samples to clear the same detection target.")


if __name__ == "__main__":
    main()

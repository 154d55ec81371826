"""Energy-detection sensing formulas and the Monte-Carlo interruption estimate.

Everything works at the probability-formula level; no sample-level detector
simulation. RRH is always the leading array axis so per-sub-carrier
quantities broadcast naturally.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .gaussian import q_func, q_inv
from .model import SensingParams, UnattainableTargetError

_ALPHA_POLE_GUARD = 1e-9


def alpha(hvwn_snr: float, sensing_gain_sq) -> float | np.ndarray:
    """Cooperative factor sqrt(2*gamma_p*sum_r |h^HU|^2 + 1), >= 1.

    sensing_gain_sq is summed over its first (RRH) axis: (R,) gives a
    scalar, (R, K) gives one value per sub-carrier.
    """
    g = np.asarray(sensing_gain_sq, dtype=float)
    total = g.sum(axis=0)
    out = np.sqrt(2.0 * hvwn_snr * total + 1.0)
    return float(out) if np.ndim(out) == 0 else out


def detection_probability(tau, sampling_freq: float, hvwn_snr: float,
                          sensing_gain_sq, target_pfa) -> float | np.ndarray:
    """Cooperative detection probability for given per-RRH sensing times.

    tau and sensing_gain_sq share the RRH-leading shape ((R,) or (R, K));
    the result is a scalar or per-sub-carrier array. target_pfa is a scalar,
    which takes q_inv's scalar path and broadcasts, or a per-sub-carrier
    array. Strictly increasing in each tau entry whose sensing gain is
    positive.
    """
    tau = np.asarray(tau, dtype=float)
    g = np.asarray(sensing_gain_sq, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("sensing times must be positive")

    a = alpha(hvwn_snr, g)
    accum = (np.sqrt(tau * sampling_freq) * g).sum(axis=0)
    arg = (q_inv(target_pfa) - hvwn_snr * accum) / a  # q_inv rejects pfa outside (0, 1)
    return q_func(arg)


def detection_threshold(params: SensingParams, sensing_gain_sq) -> np.ndarray:
    """Threshold b_k = (Q^-1(pfa_k) - alpha_k * Q^-1(pd)) / gamma_p, shape (K,).

    With lambda = sqrt(tau * nu), the detection target on sub-carrier k
    holds exactly when sum_r lambda[r, k] * |h^HU_rk|^2 >= b_k. The RRH axis
    of sensing_gain_sq leads; b has its trailing shape.
    """
    g = np.asarray(sensing_gain_sq, dtype=float)
    return ((q_inv(params.target_pfa) - alpha(params.hvwn_snr, g) * q_inv(params.target_pd))
            / params.hvwn_snr)


def min_samples(alpha_k: float, target_pfa: float, target_pd: float) -> float:
    """Minimum (real-valued) sample count meeting the target probabilities.

    Diverges as alpha_k -> 1 (no HVWN signal energy at any RRH); that case
    raises UnattainableTargetError. Use min_samples_count for the integer
    ceiling.
    """
    if not (0.0 < target_pfa < 1.0 and 0.0 < target_pd < 1.0):
        raise ValueError("target probabilities must be in (0, 1)")
    if alpha_k < 1.0 + _ALPHA_POLE_GUARD:
        raise UnattainableTargetError(
            f"alpha={alpha_k!r} too close to 1; sensing targets unattainable")
    bracket = q_inv(target_pfa) - q_inv(target_pd) * alpha_k
    return 4.0 / (alpha_k ** 2 - 1.0) ** 2 * bracket ** 2


def min_samples_count(alpha_k: float, target_pfa: float, target_pd: float) -> int:
    return int(math.ceil(min_samples(alpha_k, target_pfa, target_pd)))


def interruption_probability(tau, params: SensingParams, num_rrhs: int,
                             num_trials: int, seed: int = 0) -> float | np.ndarray:
    """Monte-Carlo probability that targets cannot be met within tau.

    Each trial draws the sensing gains of one sub-carrier across all RRHs
    (|h^HU|^2 ~ Exp(1), matching the unit-variance complex Gaussian
    coefficient) and applies a uniform tau at every RRH; the trial
    is an interruption when the cooperative detection probability falls
    below target_pd. Deterministic given the seed. tau is a scalar, giving
    a float, or an array, giving one probability per entry, all from the
    same draws. A trial does not say which sub-carrier it draws, so a
    per-sub-carrier target_pfa must be uniform; a non-uniform one raises
    ValueError.
    """
    pfa = np.unique(np.asarray(params.target_pfa, dtype=float))
    if pfa.size != 1:
        raise ValueError("interruption_probability needs one target_pfa for "
                         f"every sub-carrier, got {pfa.size} distinct values")
    taus = np.asarray(tau, dtype=float)
    if not np.all((0.0 < taus) & (taus <= params.frame_len)):
        raise ValueError("tau must lie in (0, frame_len]")
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    gains = np.random.default_rng(seed).exponential(1.0, size=(num_trials, num_rrhs))

    # Q is strictly decreasing, so pd < target_pd exactly when the trial's
    # sensing statistic falls below the detection threshold b.
    g = gains.T
    b = detection_threshold(dataclasses.replace(params, target_pfa=float(pfa[0])), g)
    gsum = g.sum(axis=0)
    # One tau at a time keeps the memory of a lone call.
    probs = [np.mean(math.sqrt(t * params.sampling_freq) * gsum < b)
             for t in taus.ravel().tolist()]
    out = np.array(probs, dtype=float).reshape(taus.shape)
    return float(out) if out.ndim == 0 else out

import numpy as np
import pytest

from conftest import make_sensing
from cransense.model import UnattainableTargetError
from cransense.gaussian import q_inv
from cransense.sensing import (alpha, detection_probability,
                               detection_threshold, interruption_probability,
                               min_samples, min_samples_count)

# Frozen 50-digit evaluations of the closed-form expressions.
ALPHA_ORACLE = 1.0965335244536649721        # gamma = 10^-1.5, sum |h|^2 = 3.2
PD_ORACLE = 0.98779385948359869452          # R=1, |h|^2=1, tau*nu=1e4, pfa=0.2
MMIN_ORACLE = 28.175051658209848172         # alpha=sqrt(2), pfa=0.2, pd=0.9


def test_alpha_scalar_and_per_subcarrier():
    gamma = 10.0 ** -1.5
    assert alpha(gamma, np.array([1.0, 1.2, 1.0])) == \
        pytest.approx(ALPHA_ORACLE, abs=1e-14)
    g = np.array([[1.0, 2.0], [1.2, 0.5], [1.0, 0.0]])
    per_k = alpha(gamma, g)
    assert per_k.shape == (2,)
    assert per_k[0] == pytest.approx(ALPHA_ORACLE, abs=1e-14)
    assert per_k[1] == pytest.approx(np.sqrt(2 * gamma * 2.5 + 1), abs=1e-14)


def test_alpha_floor():
    assert alpha(0.5, np.zeros(3)) == pytest.approx(1.0)


def test_detection_probability_oracle():
    gamma = 10.0 ** -1.5
    pd = detection_probability(np.array([0.01]), 1e6, gamma,
                               np.array([1.0]), 0.2)
    assert pd == pytest.approx(PD_ORACLE, abs=1e-12)


def test_detection_probability_zero_gain_collapses_to_pfa():
    # With no received HVWN energy the detector is guessing: P_d = pfa.
    for pfa in (0.05, 0.2, 0.4):
        pd = detection_probability(np.array([0.05, 0.1]), 1e6, 0.03,
                                   np.zeros(2), pfa)
        assert pd == pytest.approx(pfa, abs=1e-12)


def test_detection_probability_monotone_in_tau():
    gamma = 10.0 ** -1.5
    taus = np.linspace(1e-4, 1e-2, 60)  # below float saturation of P_d at 1
    vals = [detection_probability(np.array([t]), 1e6, gamma, np.array([0.7]), 0.2)
            for t in taus]
    assert np.all(np.diff(vals) > 0)


def test_detection_probability_cooperation_helps():
    gamma = 10.0 ** -1.5
    solo = detection_probability(np.array([0.01]), 1e6, gamma,
                                 np.array([0.8]), 0.2)
    duo = detection_probability(np.array([0.01, 0.01]), 1e6, gamma,
                                np.array([0.8, 0.8]), 0.2)
    assert duo > solo


def test_detection_probability_shapes_and_errors():
    gamma = 0.05
    g = np.array([[0.5, 1.0], [0.8, 0.2]])
    tau = np.full((2, 2), 0.01)
    pd = detection_probability(tau, 1e6, gamma, g, np.array([0.1, 0.3]))
    assert pd.shape == (2,)
    with pytest.raises(ValueError):
        detection_probability(np.array([0.0]), 1e6, gamma, np.array([1.0]), 0.2)
    with pytest.raises(ValueError):
        detection_probability(np.array([0.01]), 1e6, gamma, np.array([1.0]), 1.2)


def test_min_samples_oracle():
    assert min_samples(np.sqrt(2.0), 0.2, 0.9) == \
        pytest.approx(MMIN_ORACLE, abs=1e-10)
    assert min_samples_count(np.sqrt(2.0), 0.2, 0.9) == 29


def test_min_samples_sufficiency(rng):
    # Sensing exactly min_samples_count samples must meet both targets: with
    # M = tau*nu samples and a single RRH of unit gain, alpha matches when
    # gamma*|h|^2 is folded into the per-RRH sum.
    gamma = 0.5  # alpha = sqrt(2) with |h|^2 = 1
    m = min_samples_count(np.sqrt(2.0), 0.2, 0.9)
    nu = 1e6
    pd = detection_probability(np.array([m / nu]), nu, gamma,
                               np.array([1.0]), 0.2)
    assert pd >= 0.9
    pd_short = detection_probability(np.array([(m - 1) / nu]), nu, gamma,
                                     np.array([1.0]), 0.2)
    assert pd_short < 0.9


def test_min_samples_pole():
    with pytest.raises(UnattainableTargetError):
        min_samples(1.0, 0.2, 0.9)
    with pytest.raises(UnattainableTargetError):
        min_samples(1.0 + 1e-12, 0.2, 0.9)
    with pytest.raises(ValueError):
        min_samples(1.5, 0.0, 0.9)


def test_min_samples_grows_with_tighter_targets():
    a = 1.3
    assert min_samples(a, 0.1, 0.9) > min_samples(a, 0.2, 0.9)
    assert min_samples(a, 0.2, 0.95) > min_samples(a, 0.2, 0.9)


def test_detection_threshold_per_subcarrier():
    params = make_sensing(pfa=np.array([0.1, 0.2, 0.3]))
    g = np.array([[1.0, 0.4, 0.3], [1.2, 2.0, 0.0], [1.0, 0.1, 0.0]])
    b = detection_threshold(params, g)
    expected = [(q_inv(float(params.target_pfa[k]))
                 - alpha(params.hvwn_snr, g[:, k]) * q_inv(params.target_pd))
                / params.hvwn_snr for k in range(3)]
    assert np.array_equal(b, expected)
    # At lambda = b / sum(g) on every RRH the target holds with equality.
    tau = np.broadcast_to((b / g.sum(axis=0)) ** 2 / params.sampling_freq, g.shape)
    pd = detection_probability(tau, params.sampling_freq, params.hvwn_snr,
                               g, params.target_pfa)
    assert np.allclose(pd, params.target_pd, atol=1e-12)


def test_interruption_deterministic_and_bounded():
    params = make_sensing()
    a = interruption_probability(0.01, params, num_rrhs=4, num_trials=500, seed=7)
    b = interruption_probability(0.01, params, num_rrhs=4, num_trials=500, seed=7)
    assert a == b
    assert 0.0 <= a <= 1.0
    c = interruption_probability(0.01, params, num_rrhs=4, num_trials=500, seed=8)
    assert abs(a - c) < 0.2  # same distribution, different draw


def test_interruption_monotone_in_tau_with_common_draws():
    params = make_sensing()
    vals = [interruption_probability(t, params, num_rrhs=4,
                                     num_trials=2000, seed=3)
            for t in (0.002, 0.01, 0.05, 0.2)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))
    assert vals[0] > vals[-1]  # strictly fewer interruptions at the long end


def test_interruption_takes_a_tau_array():
    # One call per array shares its draws across taus, so each entry has the
    # bits of a lone call; the scalar call still returns a float.
    params = make_sensing()
    taus = np.array([[0.002, 0.01], [0.05, 0.2]])
    probs = interruption_probability(taus, params, num_rrhs=4, num_trials=2000, seed=3)
    assert probs.shape == taus.shape
    assert probs.tolist() == [[interruption_probability(float(t), params, num_rrhs=4,
                                                        num_trials=2000, seed=3)
                               for t in row] for row in taus]
    assert type(interruption_probability(0.01, params, 4, 10)) is float
    with pytest.raises(ValueError, match="frame_len"):
        interruption_probability(np.array([0.01, 0.3]), params, 2, 10)


def test_interruption_vanishes_with_strong_sensing():
    # At 0.1 ms nearly every draw is interrupted at -15 dB; at a sensing SNR
    # of 40 dB every draw meets the targets.
    args = dict(num_rrhs=2, num_trials=1000)
    assert interruption_probability(1e-4, make_sensing(), **args) > 0.9
    assert interruption_probability(1e-4, make_sensing(snr_db=40.0), **args) == 0.0


def test_interruption_per_subcarrier_target_pfa():
    scalar = make_sensing(pfa=0.2)
    uniform = make_sensing(pfa=np.full(4, 0.2))
    args = dict(num_rrhs=4, num_trials=500, seed=7)
    assert interruption_probability(0.01, uniform, **args) == \
        interruption_probability(0.01, scalar, **args)
    with pytest.raises(ValueError, match="target_pfa"):
        interruption_probability(0.01, make_sensing(pfa=np.array([0.1, 0.2])), **args)


def test_interruption_validation():
    params = make_sensing()
    with pytest.raises(ValueError):
        interruption_probability(0.0, params, 2, 10)
    with pytest.raises(ValueError):
        interruption_probability(0.3, params, 2, 10)  # beyond the frame
    with pytest.raises(ValueError):
        interruption_probability(0.01, params, 2, 0)

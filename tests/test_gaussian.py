import numpy as np
import pytest

from cransense.gaussian import q_func, q_inv

# Frozen from a 50-digit complementary-error-function evaluation (mpmath)
# plus bisection on the same tail integral for the inverse.
Q_AT_QUANTILE = 0.10000000000782730756   # Q(1.2815515655)
QINV_AT_TENTH = 1.281551565544600467     # Q^-1(0.1)


def test_symmetry_point():
    assert q_func(0.0) == pytest.approx(0.5, abs=1e-15)


def test_extreme_tail_clamped():
    v = q_func(40.0)
    assert 0.0 <= v < 1e-300


def test_against_high_precision_oracle():
    assert q_func(1.2815515655) == pytest.approx(Q_AT_QUANTILE, abs=1e-12)
    assert q_inv(0.1) == pytest.approx(QINV_AT_TENTH, abs=1e-8)


def test_qinv_median():
    assert q_inv(0.5) == pytest.approx(0.0, abs=1e-10)


def test_round_trip():
    assert q_inv(q_func(1.7)) == pytest.approx(1.7, abs=1e-9)
    for x in np.linspace(-6.0, 6.0, 121):
        assert abs(q_inv(q_func(x)) - x) <= 1e-8


def test_monotone_decreasing(rng):
    xs = np.sort(rng.uniform(-7.0, 7.0, size=200))
    vals = q_func(xs)
    assert np.all(np.diff(vals) < 0)


def test_range_and_finiteness(rng):
    xs = rng.uniform(-50.0, 50.0, size=500)
    vals = q_func(xs)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.isfinite(vals))


def test_domain_errors():
    with pytest.raises(ValueError):
        q_func(float("nan"))
    with pytest.raises(ValueError):
        q_func(float("inf"))
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            q_inv(bad)
        with pytest.raises(ValueError, match=repr(bad)):
            q_inv(np.array([0.3, bad, 0.7]))


def test_qinv_array_matches_scalar_calls(rng):
    p = np.concatenate([rng.uniform(0.0, 1.0, size=2000),
                        np.geomspace(1e-300, 0.5, 200)]).reshape(2, -1)
    out = q_inv(p)
    assert out.shape == p.shape
    assert np.array_equal(out, np.vectorize(lambda v: q_inv(float(v)))(p))
    assert isinstance(q_inv(np.float64(0.1)), float)

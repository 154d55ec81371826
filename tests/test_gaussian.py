import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from cransense.gaussian import q_func, q_inv

# Frozen from a 50-digit complementary-error-function evaluation (mpmath)
# plus bisection on the same tail integral for the inverse.
Q_AT_QUANTILE = 0.10000000000782730756   # Q(1.2815515655)
QINV_AT_TENTH = 1.281551565544600467     # Q^-1(0.1)

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


# Relative error against 50-digit mpmath on the grids below, measured at
# 1.8e-13 for q_func (rounding y = x / sqrt(2) moves erfc(y) by up to about
# 2 * y**2 * 2**-53 relative) and 5.5e-16 for q_inv.
Q_REL_BOUND = 2e-13
QINV_REL_BOUND = 1e-15


def _rel_errors(values, refs):
    return [float(abs((mpmath.mpf(v) - r) / r)) for v, r in zip(values, refs)]


def test_q_func_accuracy_against_mpmath():
    xs = np.linspace(-8.0, 37.0, 901)
    with mpmath.workdps(50):
        refs = [mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2 for x in xs.tolist()]
        errs = _rel_errors(q_func(xs).tolist(), refs)
    assert max(errs) <= Q_REL_BOUND


def test_q_inv_accuracy_toward_both_tails():
    upper_tail = np.geomspace(1e-20, 0.4, 200)       # p -> 0: Q^-1 -> +inf
    lower_tail = 1.0 - np.geomspace(1e-10, 0.4, 200)  # p -> 1: Q^-1 -> -inf
    ps = np.concatenate([upper_tail, lower_tail])
    with mpmath.workdps(50):
        refs = [mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(p)) for p in ps.tolist()]
        errs = _rel_errors(q_inv(ps).tolist(), refs)
    assert max(errs) <= QINV_REL_BOUND


@pytest.mark.parametrize("fn, values", [
    (q_func, np.linspace(-8.0, 37.0, 90)),
    (q_inv, np.concatenate([np.geomspace(1e-20, 0.5, 40), 1.0 - np.geomspace(1e-10, 0.5, 40)])),
], ids=["q_func", "q_inv"])
def test_scalar_path_is_the_array_path(fn, values):
    grid = values.reshape(-1, 2)
    out = fn(grid)
    assert out.shape == grid.shape
    for v, expected in zip(values.tolist(), out.ravel().tolist()):
        got = fn(v)
        assert type(got) is float
        assert got == expected  # bitwise: no tolerance
    assert type(fn(np.float64(values[3]))) is float
    assert type(fn(np.asarray(values[3]))) is float


def test_package_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, cransense, cransense.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

"""Gaussian upper-tail utilities (Q and its inverse) shared by the sensing formulas.

Both are standard-library C kernels: Q(x) = erfc(x / sqrt(2)) / 2 with
``math.erfc``, and Q^-1(p) = -Phi^-1(p) with ``statistics.NormalDist.inv_cdf``,
Wichura's algorithm AS 241 (Applied Statistics 37, 1988). Against 50-digit
mpmath, q_func is within 1.8e-13 relative on x in [-8, 37], an error set by
rounding x / sqrt(2), and q_inv within 6e-16 relative on p from 1e-20 to
1 - 1e-10; detection targets such as 0.99 sit deep in the tail, so 7-digit
rational approximations would not do.

A float or int takes a pure-Python path. An array maps the same C function
over its elements, with numpy doing the same correctly rounded arithmetic
around it, so each element has the bits of the scalar call.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_inv_cdf = NormalDist().inv_cdf


def _map(kernel, a: np.ndarray):
    """kernel applied element-wise; a float for a 0-d array."""
    if a.ndim == 0:
        return kernel(float(a))
    return np.fromiter(map(kernel, a.ravel().tolist()), dtype=float,
                       count=a.size).reshape(a.shape)


def q_func(x):
    """Standard Gaussian upper-tail probability Q(x) = P[N(0,1) > x].

    Accepts scalars or arrays of finite values; the result lies in [0, 1].
    """
    if isinstance(x, (float, int)):
        if not math.isfinite(x):
            raise ValueError("q_func requires finite input")
        return 0.5 * math.erfc(x / _SQRT2)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("q_func requires finite input")
    return 0.5 * _map(math.erfc, x / _SQRT2)


def q_inv(p):
    """Inverse of q_func on (0, 1), element-wise on scalars or arrays.

    Q^-1(p) = -Phi^-1(p) takes p itself, not 1 - p, so the upper tail
    (p near 0) keeps full relative accuracy; for p near 1, AS 241 works on
    1 - p, which is exact in floating point there.
    """
    if isinstance(p, (float, int)):
        if not 0.0 < p < 1.0:  # NaN fails both comparisons
            raise ValueError(f"q_inv requires p in (0, 1), got {float(p)!r}")
        return -_inv_cdf(p)
    p = np.asarray(p, dtype=float)
    inside = (p > 0.0) & (p < 1.0)
    if not inside.all():
        raise ValueError(f"q_inv requires p in (0, 1), got {float(p[~inside].flat[0])!r}")
    return -_map(_inv_cdf, p)

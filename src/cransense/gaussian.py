"""Gaussian upper-tail utilities (Q and its inverse) shared by the sensing formulas.

Detection-probability targets sit deep in the tail (e.g. 0.99), so both
functions are kept accurate to well below 1e-10 rather than relying on the
usual 7-digit rational approximations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)


def q_func(x):
    """Standard Gaussian upper-tail probability Q(x) = P[N(0,1) > x].

    Accepts scalars or arrays; absolute error is at the erfc level (~1 ulp).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("q_func requires finite input")
    out = 0.5 * special.erfc(x / _SQRT2)
    out = np.clip(out, 0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def q_inv(p):
    """Inverse of q_func on (0, 1), element-wise on scalars or arrays.

    Q(x) = erfc(x / sqrt(2)) / 2, so the inverse is sqrt(2) * erfcinv(2p);
    erfcinv keeps both tails well-conditioned (2p near 0 and, via its own
    reflection, 2p near 2), unlike a Newton polish on Q itself whose
    correction is amplified by 1 / phi(x) deep in the upper tail.
    """
    p = np.asarray(p, dtype=float)
    bad = ~((p > 0.0) & (p < 1.0))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"q_inv requires p in (0, 1), got {float(p[bad].flat[0])!r}")
    out = _SQRT2 * special.erfcinv(2.0 * p)
    if out.ndim == 0:
        return float(out)
    return out

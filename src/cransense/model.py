"""Domain types, SINR/throughput evaluation and the C1-C10 constraint checker.

Index conventions used throughout the package:

    r in [0, R)   RRH
    b in [0, B)   BBU
    k in [0, K)   sub-carrier
    n in [0, N)   user, flattened over slices; slice of user n is n // Ns

Array shapes: downlink gains and powers are (R, K, N); sensing gains and
sensing times are (R, K); RRH association x is (N, R); BBU association f is
(N, B); the fronthaul linkage y is (B, R, N).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

LN2 = float(np.log(2.0))


class InfeasibleError(RuntimeError):
    """A subproblem has an empty feasible set.

    detail carries a machine-readable hint (violating sub-carriers, slice
    index, or the constraint family that pruned the search root).
    """

    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = detail


class SearchTruncatedError(InfeasibleError):
    """A search hit its node limit before it found any feasible point.

    Feasibility is undecided, not disproved; subclassing InfeasibleError
    lets callers that fall back on infeasibility fall back here too.
    """


class UnattainableTargetError(ValueError):
    """The requested sensing targets cannot be met for any sample count."""


def is_number(value) -> bool:
    """A finite real number that is not a bool; an int of any size."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


def is_count(value, least: int = 1, most: float = math.inf) -> bool:
    """A whole number from least to most, as is_number sees numbers."""
    return is_number(value) and value % 1 == 0 and least <= value <= most


def store_counts(obj, names, least: int = 1, most: float = math.inf):
    """Store each named field of the frozen dataclass obj as an int, or raise
    ValueError naming the first one that is_count(value, least, most) refuses."""
    for name in names:
        value = getattr(obj, name)
        if not is_count(value, least, most):
            bound = f">= {least}" if most == math.inf else f"from {least} to {most}"
            raise ValueError(f"{name} must be a whole number {bound}, got {value!r}")
        object.__setattr__(obj, name, int(value))


def store_reals(obj, scalars, per_item=()):
    """Store each named field of the frozen dataclass obj as a float, and each
    per_item field as a float or, given a list, tuple or array, a float array;
    or raise ValueError naming the first field holding anything but finite
    numbers, as is_number sees them, within the float range."""
    for name in (*scalars, *per_item):
        value = getattr(obj, name)
        many = name in per_item and isinstance(value, (list, tuple, np.ndarray))
        entries = np.asarray(value, dtype=object).ravel() if many else [value]
        if not all(is_number(v) and (not isinstance(v, numbers.Integral)
                                     or abs(v) <= sys.float_info.max) for v in entries):
            raise ValueError(f"{name} must be a finite number"
                             f"{' or a list of them' if name in per_item else ''}, "
                             f"got {value!r}")
        object.__setattr__(obj, name, np.asarray(value, dtype=float) if many
                           else float(value))


@dataclass(frozen=True)
class NetworkDims:
    """Cardinalities of the network plus BBU and fronthaul capacity limits.

    Every count is a whole number up to the int64 maximum, stored as int;
    fronthaul_cap is one per (RRH, BBU) link or broadcasts to (R, B).
    """

    num_slices: int
    num_rrhs: int
    num_bbus: int
    num_subcarriers: int
    users_per_slice: int
    bbu_user_cap: int
    fronthaul_cap: np.ndarray  # (R, B) integer user counts

    def __post_init__(self):
        top = np.iinfo(int).max  # what a stored int array can hold
        store_counts(self, ("num_slices", "num_rrhs", "num_bbus", "num_subcarriers",
                            "users_per_slice"), most=top)
        store_counts(self, ("bbu_user_cap",), least=0, most=top)
        cap = np.asarray(self.fronthaul_cap, dtype=object)
        if not all(is_count(value, 0, top) for value in cap.flat):
            raise ValueError(f"fronthaul_cap entries must be whole numbers from 0 to {top}, "
                             f"got {self.fronthaul_cap!r}")
        try:
            cap = np.broadcast_to(cap, (self.num_rrhs, self.num_bbus))
        except ValueError:
            raise ValueError("fronthaul_cap must have shape (R, B)") from None
        object.__setattr__(self, "fronthaul_cap", cap.astype(int))

    @property
    def num_users(self) -> int:
        return self.num_slices * self.users_per_slice

    @property
    def user_slice(self) -> np.ndarray:
        """Slice index of every flattened user, shape (N,)."""
        return np.repeat(np.arange(self.num_slices), self.users_per_slice)


@dataclass(frozen=True)
class SensingParams:
    """Sensing targets and frame timing.

    target_pfa may be a scalar or a per-sub-carrier array; hvwn_snr is the
    linear received SNR of the high-priority user at each RRH.
    """

    target_pd: float
    target_pfa: float | np.ndarray
    hvwn_snr: float
    sampling_freq: float
    frame_len: float
    hvwn_active_prob: float

    def __post_init__(self):
        store_reals(self, ("target_pd", "hvwn_snr", "sampling_freq", "frame_len",
                           "hvwn_active_prob"), per_item=("target_pfa",))
        if not (0.0 < self.target_pd < 1.0):
            raise ValueError("target_pd must be in (0, 1)")
        if np.any(self.target_pfa <= 0.0) or np.any(self.target_pfa >= self.target_pd):
            raise ValueError("target_pfa must satisfy 0 < pfa < target_pd")
        if self.hvwn_snr <= 0 or self.sampling_freq <= 0 or self.frame_len <= 0:
            raise ValueError("hvwn_snr, sampling_freq and frame_len must be positive")
        if not (0.0 <= self.hvwn_active_prob <= 1.0):
            raise ValueError("hvwn_active_prob must be in [0, 1]")

    @property
    def idle_prob(self) -> float:
        return 1.0 - self.hvwn_active_prob

    def pfa_per_subcarrier(self, num_subcarriers: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.target_pfa, dtype=float), (num_subcarriers,)).copy()


@dataclass(frozen=True)
class RadioParams:
    """Receiver noise, HVWN interference and per-RRH / per-slice limits."""

    noise_power: float = 1e-13           # W (-100 dBm)
    hvwn_interference: float = 1e-13     # W, single scalar for the network
    max_power: float | np.ndarray = 1.0  # W per RRH (30 dBm)
    reserved_rate: float | np.ndarray = 4.0  # bps/Hz per slice

    def __post_init__(self):
        store_reals(self, ("noise_power", "hvwn_interference"),
                    per_item=("max_power", "reserved_rate"))
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if self.hvwn_interference < 0:
            raise ValueError("hvwn_interference must be >= 0")
        if np.any(self.max_power <= 0):
            raise ValueError("max_power must be positive")
        if np.any(self.reserved_rate < 0):
            raise ValueError("reserved_rate must be >= 0")

    def max_power_per_rrh(self, num_rrhs: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.max_power, dtype=float), (num_rrhs,)).copy()

    def reserved_rate_per_slice(self, num_slices: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.reserved_rate, dtype=float), (num_slices,)).copy()


@dataclass(frozen=True)
class ChannelState:
    """One channel realization: downlink power gains and sensing gains."""

    downlink_gain: np.ndarray    # (R, K, N) linear power gain
    sensing_gain_sq: np.ndarray  # (R, K) |h^HU|^2

    def __post_init__(self):
        g = np.asarray(self.downlink_gain, dtype=float)
        s = np.asarray(self.sensing_gain_sq, dtype=float)
        if g.ndim != 3 or s.ndim != 2 or g.shape[:2] != s.shape:
            raise ValueError("downlink_gain must be (R, K, N) and sensing_gain_sq (R, K)")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(s))):
            raise ValueError("channel gains must be finite")
        if np.any(g < 0) or np.any(s < 0):
            raise ValueError("channel gains must be >= 0")
        object.__setattr__(self, "downlink_gain", g)
        object.__setattr__(self, "sensing_gain_sq", s)

    @property
    def num_rrhs(self) -> int:
        return self.downlink_gain.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.downlink_gain.shape[1]

    @property
    def num_users(self) -> int:
        return self.downlink_gain.shape[2]


@dataclass
class Allocation:
    """One full decision point: sensing times, powers and binary associations."""

    sensing_time: np.ndarray  # tau, (R, K) seconds
    power: np.ndarray         # p, (R, K, N) watts
    uav: np.ndarray           # beta, (R, K, N) in {0, 1}
    rrh_assoc: np.ndarray     # x, (N, R) in {0, 1}
    bbu_assoc: np.ndarray     # f, (N, B) in {0, 1}
    linkage: Optional[np.ndarray] = None  # y, (B, R, N); derived when absent

    def __post_init__(self):
        self.sensing_time = np.asarray(self.sensing_time, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        self.uav = np.asarray(self.uav, dtype=int)
        self.rrh_assoc = np.asarray(self.rrh_assoc, dtype=int)
        self.bbu_assoc = np.asarray(self.bbu_assoc, dtype=int)
        if self.linkage is not None:
            self.linkage = np.asarray(self.linkage, dtype=int)

    def derived_linkage(self) -> np.ndarray:
        """y[b, r, n] = f[n, b] * x[n, r]."""
        return np.einsum("nb,nr->brn", self.bbu_assoc, self.rrh_assoc)

    def copy(self) -> "Allocation":
        return Allocation(
            sensing_time=self.sensing_time.copy(),
            power=self.power.copy(),
            uav=self.uav.copy(),
            rrh_assoc=self.rrh_assoc.copy(),
            bbu_assoc=self.bbu_assoc.copy(),
            linkage=None if self.linkage is None else self.linkage.copy(),
        )


@dataclass
class SolveReport:
    """Trajectory and diagnostics of one joint solve."""

    objective_trajectory: list = field(default_factory=list)
    residual_trajectory: list = field(default_factory=list)
    converged: bool = False
    constraint_residuals: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    step_fallbacks: list = field(default_factory=list)
    # Outer iterations whose association search stopped at its node limit.
    assoc_truncated: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Outer iterations run, one objective each."""
        return len(self.objective_trajectory)


# ---------------------------------------------------------------------------
# SINR and throughput evaluation
# ---------------------------------------------------------------------------

def sinr_absent(p, h, interference, noise_power):
    """SINR of an LVWN user when the HVWN user is idle: p*h / (sigma0^2 + I)."""
    return p * h / (noise_power + interference)


def interference_map(power: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Cross-cell interference I[r, k, n] for every cell, shape (R, K, N).

    I[r,k,n] = sum over r' != r and n' != n of power[r',k,n'] * gain[r',k,n];
    the gain of the interfering path depends on the interfering RRH r' and
    the victim user n only.
    """
    psum_rk = power.sum(axis=2)  # (R, K)
    # Contribution of RRH r' to user n on sub-carrier k, excluding n' == n.
    per_rrh = gain * (psum_rk[:, :, None] - power)  # (R, K, N)
    total = per_rrh.sum(axis=0)  # (K, N)
    return total[None, :, :] - per_rrh


def idle_coeff(tau: np.ndarray, sensing: SensingParams) -> np.ndarray:
    """Idle-rate coefficient (T - tau)/T * P0 * (1 - pfa_k) of every slot, (R, K).

    tau is the (R, K) sensing time, or a stack (..., R, K) of them; the
    product keeps this left-to-right order, on which the bits of every rate
    in the package depend.
    """
    T = sensing.frame_len
    pfa = sensing.pfa_per_subcarrier(tau.shape[-1])
    return (T - tau) / T * sensing.idle_prob * (1.0 - pfa)


def log_rate_absent(power: np.ndarray, channel: ChannelState, radio: RadioParams) -> np.ndarray:
    """log2(1 + SINR0) of every cell as if it were assigned, (R, K, N)."""
    inter = interference_map(power, channel.downlink_gain)
    return np.log2(1.0 + sinr_absent(power, channel.downlink_gain, inter, radio.noise_power))


def rate_table(tau: np.ndarray, power: np.ndarray, channel: ChannelState,
               sensing: SensingParams, radio: RadioParams) -> np.ndarray:
    """Idle-dominant rate of every cell as if it were assigned, (R, K, N).

    idle_coeff * log2(1 + SINR0); an allocation's per-cell throughput is
    this table masked by its beta.
    """
    return idle_coeff(tau, sensing)[..., None] * log_rate_absent(power, channel, radio)


def approx_rate_cells(alloc: Allocation, channel: ChannelState,
                      sensing: SensingParams, radio: RadioParams) -> np.ndarray:
    """Approximated per-cell throughput (idle-dominant term only), (R, K, N)."""
    return alloc.uav * rate_table(alloc.sensing_time, alloc.power, channel,
                                  sensing, radio)


def slice_rates(rate_cells: np.ndarray, dims: NetworkDims) -> np.ndarray:
    """Per-slice total of a per-cell rate tensor, shape (S,)."""
    per_user = rate_cells.sum(axis=(0, 1))  # (N,)
    out = np.zeros(dims.num_slices)
    np.add.at(out, dims.user_slice, per_user)
    return out


def total_approx_throughput(alloc: Allocation, channel: ChannelState,
                            sensing: SensingParams, radio: RadioParams) -> float:
    return float(approx_rate_cells(alloc, channel, sensing, radio).sum())


# ---------------------------------------------------------------------------
# Constraint checker
# ---------------------------------------------------------------------------

# Largest constraint violation a returned allocation may carry.
FEASIBILITY_TOL = 1e-6


def check_constraints(alloc: Allocation, dims: NetworkDims, radio: RadioParams,
                      sensing: SensingParams, channel: ChannelState) -> dict:
    """Maximum violation of each of C1-C10; zero means satisfied.

    C1 is evaluated through the cooperative detection probability at the
    allocation's sensing times; C10 uses the approximated throughput.
    """
    from . import sensing as sensing_mod  # deferred: sensing imports model types

    res = {}
    tau = alloc.sensing_time
    T = sensing.frame_len

    pd = sensing_mod.detection_probability(
        np.clip(tau, 1e-300, None), sensing.sampling_freq, sensing.hvwn_snr,
        channel.sensing_gain_sq, sensing.target_pfa)
    res["C1"] = float(np.max(np.clip(sensing.target_pd - pd, 0.0, None)))

    # Strict 0 < tau: a non-positive entry counts as at least a 1e-12 violation.
    nonpos = np.where(tau <= 0, np.maximum(-tau, 1e-12), 0.0)
    res["C2"] = float(max(np.max(np.clip(tau - T, 0.0, None)), np.max(nonpos)))

    f, x, beta = alloc.bbu_assoc, alloc.rrh_assoc, alloc.uav
    res["C3"] = float(np.max(np.clip(f.sum(axis=0) - dims.bbu_user_cap, 0, None)))
    res["C4"] = float(np.max(np.clip(x.sum(axis=1) - 1, 0, None)))
    res["C5"] = float(np.max(np.clip(beta.sum(axis=2) - 1, 0, None)))
    res["C6"] = float(np.max(np.clip(beta - x.T[:, None, :], 0, None)))

    y = alloc.linkage if alloc.linkage is not None else alloc.derived_linkage()
    load = y.sum(axis=2).T  # (R, B)
    res["C7"] = float(np.max(np.clip(load - dims.fronthaul_cap, 0, None)))
    res["C8"] = float(np.max(np.abs(f.sum(axis=1) - x.sum(axis=1))))

    pmax = radio.max_power_per_rrh(dims.num_rrhs)
    res["C9"] = float(max(np.max(np.clip(alloc.power.sum(axis=(1, 2)) - pmax, 0.0, None)),
                          np.max(np.clip(-alloc.power, 0.0, None))))

    rates = slice_rates(approx_rate_cells(alloc, channel, sensing, radio), dims)
    rsv = radio.reserved_rate_per_slice(dims.num_slices)
    res["C10"] = float(np.max(np.clip(rsv - rates, 0.0, None)))
    return res

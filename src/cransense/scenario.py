"""Deterministic instance generation and the sweep drivers.

Channel model: h[r,k,n] = psi * d^-a with psi ~ Exp(mean fading_mean) drawn
independently per (r, k, n), users uniform over the square; sensing gains
|h^HU|^2 ~ Exp(1).

Random draws are keyed per entity -- one seed stream per (slice, user index)
for positions and fading, one per RRH for sensing gains -- so instances are
nested: growing the user count or the RRH count keeps every existing draw
unchanged and only adds new ones. Together with reusing the same per-trial
seeds across grid points (common random numbers), this keeps sweep trends
from being noise-dominated.

Each stream is default_rng(SeedSequence(key)) with the key (seed, 1, s, i)
for user (s, i)'s position, (seed, 2, s, i, r) for its fading from RRH r and
(seed, 3, r) for RRH r's sensing gains. generate_instance derives all of an
instance's keys in one vectorised pass of SeedSequence's hash instead of one
SeedSequence object per key. The bits are the same only because NEP 19 fixes
the SeedSequence and PCG64 algorithms; tests/test_scenario.py compares the
pass against numpy's own SeedSequence, so a numpy that changed them fails
there.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .alternating import (AltConfig, best_feasible, default_initialization,
                          minimal_feasible_tau, solve_joint)
from .assoc_opt import check_bbu_count
from .model import (FEASIBILITY_TOL, Allocation, ChannelState,
                    InfeasibleError, NetworkDims, RadioParams, SensingParams,
                    SolveReport, check_constraints, idle_coeff, is_count,
                    is_number, log_rate_absent, store_counts, store_reals)
from .sensing import detection_probability, interruption_probability

_MIN_USER_RRH_DIST_KM = 1e-3

SWEEP_PARAMETERS = ("tau", "target_pd", "target_pfa", "num_users", "num_rrhs")


@dataclass(frozen=True)
class ScenarioSpec:
    dims: NetworkDims
    sensing: SensingParams
    radio: RadioParams
    area_side: float = 2.0            # km
    rrh_coords: Optional[np.ndarray] = None  # (R, 2) km; default grid layout
    pathloss_exp: float = 3.0
    fading_mean: float = 0.5
    seed: int = 0

    def __post_init__(self):
        store_counts(self, ("seed",), least=0)
        store_reals(self, ("area_side", "pathloss_exp", "fading_mean"),
                    per_item=("rrh_coords",) if self.rrh_coords is not None else ())
        if self.area_side <= 0 or self.pathloss_exp <= 0 or self.fading_mean <= 0:
            raise ValueError("area_side, pathloss_exp and fading_mean must be positive")
        try:  # generate_instance keeps every user this far from every RRH
            _MIN_USER_RRH_DIST_KM ** -self.pathloss_exp
        except OverflowError:
            raise ValueError(f"pathloss_exp {self.pathloss_exp!r} overflows the path gain "
                             "at the 1 m minimum distance") from None
        dims = self.dims
        for name, value, count in (
                ("sensing.target_pfa", self.sensing.target_pfa, dims.num_subcarriers),
                ("radio.max_power", self.radio.max_power, dims.num_rrhs),
                ("radio.reserved_rate", self.radio.reserved_rate, dims.num_slices)):
            if np.shape(value) not in ((), (count,)):
                raise ValueError(f"{name} must be one number or a list of {count}, "
                                 f"got shape {np.shape(value)}")
        if self.rrh_coords is None:
            object.__setattr__(self, "rrh_coords",
                               default_rrh_coords(dims.num_rrhs, self.area_side))
        if np.shape(self.rrh_coords) != (dims.num_rrhs, 2):
            raise ValueError("rrh_coords must have shape (R, 2)")
        if np.any(self.rrh_coords < 0) or np.any(self.rrh_coords > self.area_side):
            raise ValueError("rrh_coords must lie inside the square")


@dataclass(frozen=True)
class SweepSpec:
    """One parameter swept over a grid (a list, tuple or 1-D array), with
    trials_per_point draws per point. Any input the sweep cannot run raises
    ValueError here, before anything is drawn. points holds each grid
    value's scenario, built here once for every trial of every run_sweep.
    """

    swept_parameter: str
    grid: tuple
    trials_per_point: int
    base: ScenarioSpec
    points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        param, base, T = self.swept_parameter, self.base, self.base.sensing.frame_len
        if param not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {param!r}")
        grid = tuple(self.grid) if isinstance(self.grid, (list, tuple, np.ndarray)) else ()
        if not grid or not all(map(is_number, grid)) or list(grid) != sorted(grid):
            raise ValueError("grid must be a non-empty, sorted sequence of finite "
                             f"numbers, got {self.grid!r}")
        store_counts(self, ("trials_per_point",))
        for value in grid:
            if param == "tau" and not 0.0 < value <= T:
                raise ValueError(f"sensing time {value!r} s lies outside (0, {T!r}] s")
            if param in ("num_users", "num_rrhs") and not is_count(value, most=np.iinfo(int).max):
                raise ValueError(f"{param} grid values must be whole numbers from 1 to "
                                 f"{np.iinfo(int).max}, got {grid}")
        if param == "num_users":  # every point solves the association
            check_bbu_count(base.dims.num_bbus)
        if param == "num_rrhs":  # every RRH count gets the default layout and links
            default = default_rrh_coords(base.dims.num_rrhs, base.area_side)
            for name, per_rrh in (("rrh_coords", not np.array_equal(base.rrh_coords, default)),
                                  ("fronthaul_cap", np.unique(base.dims.fronthaul_cap).size > 1)):
                if per_rrh:
                    raise ValueError(f"an RRH-count sweep cannot keep a per-RRH {name}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "points", tuple(_point_spec(base, param, v) for v in grid))


def default_rrh_coords(num_rrhs: int, area_side: float) -> np.ndarray:
    """Evenly spaced grid layout; for R = 4 this is the classic 4-cell square."""
    side = int(np.ceil(np.sqrt(num_rrhs)))
    xs = (np.arange(side) + 0.5) * area_side / side
    coords = [(x, y) for y in xs for x in xs]
    return np.asarray(coords[:num_rrhs], dtype=float)


# SeedSequence's hash (numpy.random.bit_generator): a pool of 4 uint32 words,
# mixed by hash calls whose constants advance by a fixed multiplier per call.
_POOL_SIZE = 4
_MIX_HASH = (0x43b0d7e5, 0x931e8875)    # mix_entropy's initial constant, multiplier
_STATE_HASH = (0x8b51f9dd, 0x58f38ded)  # generate_state's
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The constant of each of the first count hash calls, read-only."""
    out, h = [], init
    for _ in range(count):
        out.append(h)
        h = h * mult & 0xFFFFFFFF
    arr = np.array(out, dtype=np.uint32)
    arr.flags.writeable = False
    return arr


@functools.cache
def _generator_builder():
    """A function from one row of _keyed_generators' state words to the
    Generator that default_rng builds from the SeedSequence behind them.

    PCG64 asks its seed sequence for generate_state(4, uint64) once, when
    it is built; _StateWords hands over the finished words instead. Made on
    first use, so importing cransense does not load numpy.random.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(_StateWords(words)))


def _keyed_generators(*blocks: np.ndarray) -> list[list[np.random.Generator]]:
    """default_rng(SeedSequence(row)) for every row of each (M, L) uint32
    block of entropy words, one list of generators per block.

    Runs SeedSequence's mix_entropy and generate_state(4, uint64) for all
    rows of all blocks at once, across rows and pool lanes. Only the order
    of each row's hash calls fixes their constants, so rows of every length
    share one table: a row shorter than the pool reads zeros past its end,
    as SeedSequence does, and a longer one mixes its extra words in one
    column at a time.
    """
    sizes = [len(b) for b in blocks]
    width = max(_POOL_SIZE, *(b.shape[1] for b in blocks))
    entropy = np.zeros((sum(sizes), width), dtype=np.uint32)
    lengths = np.repeat([b.shape[1] for b in blocks], sizes)
    start = 0
    for block in blocks:
        entropy[start:start + len(block), :block.shape[1]] = block
        start += len(block)
    consts = _hash_constants(*_MIX_HASH, _POOL_SIZE * width + 1)

    def hashmix(value, call, lanes):
        # Calls call .. call + lanes - 1, one per lane.
        value = (value ^ consts[call:call + lanes]) * consts[call + 1:call + lanes + 1]
        return value ^ (value >> 16)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> 16)

    pool = hashmix(entropy[:, :_POOL_SIZE], 0, _POOL_SIZE)
    # Every lane mixes in the hash of every other lane, source by source.
    for src in range(_POOL_SIZE):
        dst = [lane for lane in range(_POOL_SIZE) if lane != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src:src + 1],
                                                 _POOL_SIZE + 3 * src, 3))
    # Words past the pool size are mixed into every lane.
    for col in range(_POOL_SIZE, width):
        mixed = mix(pool, hashmix(entropy[:, col:col + 1], _POOL_SIZE * col, _POOL_SIZE))
        pool = np.where((lengths > col)[:, None], mixed, pool)
    state_consts = _hash_constants(*_STATE_HASH, 2 * _POOL_SIZE + 1)
    state = (np.tile(pool, 2) ^ state_consts[:-1]) * state_consts[1:]
    words = (state ^ (state >> 16)).astype("<u4").view("<u8").astype(np.uint64)
    build = _generator_builder()
    generators = [build(row) for row in words]
    return [generators[end - size:end]
            for size, end in zip(sizes, itertools.accumulate(sizes))]


def _seed_words(seed) -> np.ndarray:
    """A seed split into uint32 words as SeedSequence splits an int:
    least significant first, [0] for 0. A negative seed raises ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def _key_block(words: np.ndarray, tag: int, *fields: np.ndarray) -> np.ndarray:
    """Entropy rows (words, tag, fields...), one per entry of the 1-D fields."""
    block = np.empty((fields[0].size, words.size + 1 + len(fields)), dtype=np.uint32)
    block[:, :words.size] = words
    block[:, words.size] = tag
    for col, field in enumerate(fields, start=words.size + 1):
        block[:, col] = field
    return block


def generate_instance(spec: ScenarioSpec, seed: Optional[int] = None):
    """One channel realization plus user positions; bit-identical per seed.

    Draws are keyed per (slice, user index) and per RRH, so an instance with
    more users or more RRHs extends a smaller one instead of reshuffling it.
    """
    words = _seed_words(spec.seed if seed is None else seed)
    dims = spec.dims
    R, K, N = dims.num_rrhs, dims.num_subcarriers, dims.num_users
    slice_of, index_of = np.divmod(np.arange(N), dims.users_per_slice)  # user n = s * Ns + i
    rrh = np.arange(R)
    position_rngs, fading_rngs, sensing_rngs = _keyed_generators(
        _key_block(words, 1, slice_of, index_of),
        _key_block(words, 2, np.repeat(slice_of, R), np.repeat(index_of, R),
                   np.tile(rrh, N)),  # row n * R + r
        _key_block(words, 3, rrh))

    positions = np.array([rng.uniform(0.0, spec.area_side, size=2)
                          for rng in position_rngs])
    dist = np.linalg.norm(spec.rrh_coords - positions[:, None, :], axis=2)  # (N, R)
    for n in np.flatnonzero(dist.min(axis=1) < _MIN_USER_RRH_DIST_KM):
        while dist[n].min() < _MIN_USER_RRH_DIST_KM:  # redraw on n's own stream
            positions[n] = position_rngs[n].uniform(0.0, spec.area_side, size=2)
            dist[n] = np.linalg.norm(spec.rrh_coords - positions[n], axis=1)

    # Scalar pow: numpy's vectorised pow can differ in the last bit.
    loss = np.array([d ** -spec.pathloss_exp for d in dist.ravel().tolist()])
    psi = np.array([rng.exponential(spec.fading_mean, size=K) for rng in fading_rngs])
    gains = np.ascontiguousarray((psi * loss[:, None]).reshape(N, R, K).transpose(1, 2, 0))
    sensing_gain_sq = np.array([rng.exponential(1.0, size=K) for rng in sensing_rngs])
    return ChannelState(downlink_gain=gains, sensing_gain_sq=sensing_gain_sq), positions


def _fixed_tau_scores(taus: np.ndarray, channel: ChannelState, base: Allocation,
                      sensing: SensingParams, radio: RadioParams):
    """Throughput of base at each uniform sensing time in taus, values (M,),
    and whether each sub-carrier meets target_pd there, met (M, K).

    A sub-carrier that misses its target is interrupted: zero rate. It does
    not interfere with the others, so one log-rate table of base scores
    every tau; a cell without a user carries no power. The 0/1 masks scale
    the small factors before the one (M, R, K, N) product: times 1 is exact
    and times 0 is +0, so every cell keeps the bits of a rate masked after.
    """
    M = taus.size
    # One uniform (R, K) sensing time per tau, stored tau-major: each slab
    # then sums over RRHs in the order of a lone (R, K) call, so every
    # detection probability keeps its bits.
    stack = np.broadcast_to(taus[:, None, None], (M,) + base.sensing_time.shape).copy()
    pd = detection_probability(stack.transpose(1, 0, 2), sensing.sampling_freq,
                               sensing.hvwn_snr, channel.sensing_gain_sq[:, None, :],
                               sensing.target_pfa)  # (M, K)
    met = pd >= sensing.target_pd
    rates = base.uav * log_rate_absent(base.power * (base.uav > 0), channel, radio)
    cells = (idle_coeff(stack, sensing) * met[:, None, :])[..., None] * rates
    return cells.reshape(M, -1).sum(axis=1), met


def evaluate_fixed_tau_throughput(tau: float, channel: ChannelState,
                                  dims: NetworkDims, sensing: SensingParams,
                                  radio: RadioParams,
                                  base_alloc: Optional[Allocation] = None) -> float:
    """Throughput of the greedy allocation (or base_alloc) at one uniform
    sensing time tau in (0, T], else ValueError.

    Sub-carriers whose cooperative detection probability falls short of the
    target at this tau are interrupted: no transmission, zero rate.
    """
    if not 0.0 < tau <= sensing.frame_len:
        raise ValueError("tau must lie in (0, frame_len]")
    if base_alloc is None:
        base_alloc = default_initialization(channel, dims, sensing, radio)
    values, _ = _fixed_tau_scores(np.array([tau], dtype=float), channel, base_alloc,
                                  sensing, radio)
    return float(values[0])


def optimal_sensing_time(channel: ChannelState, dims: NetworkDims,
                         sensing: SensingParams, radio: RadioParams,
                         base_alloc: Optional[Allocation] = None) -> float:
    """Best uniform tau in (0, T] for the greedy allocation (or base_alloc):
    the best per-sub-carrier detection threshold.

    The fixed-tau throughput is (T - tau)/T times the rate of the sub-carriers
    whose detection target holds, so it falls between the thresholds and
    jumps up at each; ties go to the smallest tau. Every distinct threshold
    is scored at once, each score equal to evaluate_fixed_tau_throughput
    there; a threshold competes only if its own sub-carrier meets the target
    at it. The thresholds are minimal_feasible_tau(channel, sensing), which
    base_alloc's own sensing times need not be. Raises InfeasibleError (C1)
    when no sub-carrier can meet its detection target within the frame.
    """
    if base_alloc is None:
        base_alloc = default_initialization(channel, dims, sensing, radio)
        thresholds = base_alloc.sensing_time[0]  # minimal_feasible_tau
    else:
        thresholds = minimal_feasible_tau(channel, sensing)[0]  # uniform over RRHs
    candidates, owner = np.unique(thresholds, return_inverse=True)
    values, met = _fixed_tau_scores(candidates, channel, base_alloc, sensing, radio)
    own = met[owner, np.arange(thresholds.size)]
    if not own.any():
        raise InfeasibleError(
            "no sub-carrier can meet the detection target within the frame",
            detail={"constraint": "C1", "subcarriers": list(range(own.size))})
    competes = np.zeros(candidates.size, dtype=bool)
    competes[owner[own]] = True
    return float(candidates[int(np.argmax(np.where(competes, values, -np.inf)))])


def _mean_stderr(values):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), stderr


def solve_instance(spec: ScenarioSpec, channel: ChannelState, positions: np.ndarray,
                   config: AltConfig = AltConfig(), warm: Optional[Allocation] = None
                   ) -> tuple[Allocation, SolveReport]:
    """Solve one instance of spec from each start; best_feasible's pick.

    The starts are the greedy one by user position and warm, if given; with
    warm, a greedy start that breaks a constraint is skipped (every block
    falls back from it). InfeasibleError when no solve ends feasible. Solves
    go through this module's solve_joint binding, so a wrapper sees each.
    """
    dims, sensing, radio = spec.dims, spec.sensing, spec.radio
    init = default_initialization(channel, dims, sensing, radio,
                                  user_positions=positions, rrh_coords=spec.rrh_coords)
    starts = [init]
    if warm is not None:
        residuals = check_constraints(init, dims, radio, sensing, channel)
        starts = [init, warm] if max(residuals.values()) <= FEASIBILITY_TOL else [warm]
    return best_feasible([solve_joint(start, channel, dims, sensing, radio, config)
                          for start in starts])


def run_sweep(sweep: SweepSpec, solver_config: AltConfig = AltConfig()) -> list[dict]:
    """Execute one sweep; returns one result row per grid point.

    Each trial walks the whole grid on its own seed (common random numbers).
    Per-trial infeasibility never aborts the sweep: failed trials are
    dropped from the mean and counted in the row's infeasible_trials.
    """
    points = zip(*[_trial(sweep, sweep.base.seed + t, solver_config)
                   for t in range(sweep.trials_per_point)])
    return [_sweep_row(sweep.swept_parameter, value, samples)
            for value, samples in zip(sweep.grid, points)]


def _pad_users(alloc: Allocation, dims: NetworkDims) -> Allocation:
    """Embed an allocation for fewer users per slice into a larger user space.

    User (s, i) keeps its draws when users_per_slice grows (instances are
    nested), so mapping index s * old_ns + i to s * new_ns + i and zeroing
    the new users reproduces the smaller solution exactly -- same objective,
    same residuals.
    """
    N, old_ns = dims.num_users, len(alloc.rrh_assoc) // dims.num_slices
    idx = np.flatnonzero(np.arange(N) % dims.users_per_slice < old_ns)
    power = np.zeros(alloc.power.shape[:2] + (N,))
    power[:, :, idx] = alloc.power
    uav = np.zeros(alloc.uav.shape[:2] + (N,), dtype=int)
    uav[:, :, idx] = alloc.uav
    x = np.zeros((N, alloc.rrh_assoc.shape[1]), dtype=int)
    x[idx] = alloc.rrh_assoc
    f = np.zeros((N, alloc.bbu_assoc.shape[1]), dtype=int)
    f[idx] = alloc.bbu_assoc
    return Allocation(sensing_time=alloc.sensing_time.copy(), power=power,
                      uav=uav, rrh_assoc=x, bbu_assoc=f, linkage=None)


def _point_spec(base: ScenarioSpec, param: str, value) -> ScenarioSpec:
    """The scenario at one grid point of a sweep of param over base. Building
    it checks the value (SensingParams owns the targets, ScenarioSpec the
    per-RRH max_power length): a ValueError names the point."""
    try:
        if param == "num_rrhs":  # the default layout, with one link cap
            return replace(base, rrh_coords=None, dims=replace(
                base.dims, num_rrhs=value, fronthaul_cap=base.dims.fronthaul_cap.flat[0]))
        if param == "num_users":
            return replace(base, dims=replace(base.dims, users_per_slice=value))
        return base if param == "tau" else replace(
            base, sensing=replace(base.sensing, **{param: value}))
    except ValueError as err:
        raise ValueError(f"{param} grid value {value!r}: {err}") from None


def _trial(sweep: SweepSpec, seed: int, config: AltConfig) -> list:
    """One trial's sample at each grid point of sweep, None where that
    point is infeasible."""
    param, base = sweep.swept_parameter, sweep.base
    if param in ("tau", "target_pd", "target_pfa"):
        # The swept value moves only tau, so the trial's instance and its
        # greedy association and powers serve every grid point.
        channel, _ = generate_instance(base, seed=seed)
        init = default_initialization(channel, base.dims, base.sensing, base.radio)
    samples, last = [], None
    for value, spec in zip(sweep.grid, sweep.points):
        dims, sensing, radio = spec.dims, spec.sensing, spec.radio
        try:
            if param == "tau":
                sample = evaluate_fixed_tau_throughput(value, channel, dims, sensing, radio, init)
            elif param in ("target_pd", "target_pfa"):
                sample = optimal_sensing_time(channel, dims, sensing, radio, init)
            elif param == "num_rrhs":
                channel, _ = generate_instance(spec, seed=seed)
                sample = optimal_sensing_time(channel, dims, sensing, radio)
            else:
                # Instances are nested in the user count, so the trial's last
                # answer embeds here with the same objective. Solving from it
                # as one more start (unsolved, the greedy start cannot be
                # ranked: new users earn rate only once a solve powers them)
                # makes each trial's throughput non-decreasing along the grid.
                channel, positions = generate_instance(spec, seed=seed)
                warm = None if last is None else _pad_users(last, spec.dims)
                last, report = solve_instance(spec, channel, positions, config, warm)
                sample = report.objective_trajectory[-1]
        except InfeasibleError:
            sample = None
        samples.append(sample)
    return samples


def _sweep_row(param, value, samples) -> dict:
    """One grid point's row from its samples in trial order, None if infeasible."""
    done = [x for x in samples if x is not None]
    mean, stderr = _mean_stderr(done)
    point = {"tau": {"tau_ms": value * 1e3}, "num_users": {param: int(value)},
             "num_rrhs": {param: int(value)}}.get(param, {param: value})
    stats = ({"mean_throughput": mean, "stderr": stderr} if param in ("tau", "num_users")
             else {"opt_tau_ms": mean * 1e3, "stderr_ms": stderr * 1e3})
    return {**point, **stats, "infeasible_trials": len(samples) - len(done)}


def run_interruption_sweep(spec: ScenarioSpec, tau_grid, num_trials: int) -> list[dict]:
    """Interruption probability versus sensing time, common random numbers:
    every tau is tested on the same draws. The grid and trial count follow
    the tau sweep's rules (SweepSpec), else ValueError."""
    sweep = SweepSpec("tau", tau_grid, num_trials, spec)
    trials = sweep.trials_per_point
    probs = interruption_probability(np.asarray(sweep.grid, dtype=float), spec.sensing,
                                     spec.dims.num_rrhs, trials, seed=spec.seed)
    return [{"tau_ms": tau * 1e3, "p_interrupt": p,
             "stderr": float(np.sqrt(max(p * (1.0 - p), 0.0) / trials))}
            for tau, p in zip(sweep.grid, probs.tolist())]

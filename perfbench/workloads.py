"""The four benchmark workloads: inputs from a seed, one pass of ops, checks.

A workload has a set-up (config, instance generation, initial point) and a
pass: a fixed list of ops, one op being one call to the workload's public
entry point.  A pass is deterministic, so every repeat of it must return the
same answers.  Each call goes through the module attribute at call time, so
an installed tracer sees it.

Inputs.  ``bench`` scale keeps a run within the benchmark's time budget.
The joint solves and the association search have heavy-tailed run times
over random draws (0.003 s to 16 s per joint solve, 29 ms median and 11.5 s
maximum per association instance, measured on 300 draws), so their bench
inputs fix the channel draw and let the seed move every RRH by up to 1 m:
each seed is a different input of comparable difficulty.  The tau-search
ops do near-constant work, so their instances are drawn from the seed.
``full`` scale is the paper-size configuration with every draw taken from
the seed; it is a reference run and takes minutes.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from cransense import alternating, assoc_opt, cli, scenario
from cransense.scenario import SweepSpec

import verify

# Criterion-6 solver settings: the loose step-3 tolerance used by sweeps.
SWEEP_SOLVER = {"max_outer_iters": 30, "assoc_node_limit": 20_000,
                "power_zeta": 1e-3, "power_max_iters": 200}

SCALES = {
    "bench": {
        "solve-full": {"dims": {"num_subcarriers": 4, "users_per_slice": 1},
                       "jitter_km": 0.001},
        "sweep-users": {"dims": {"num_subcarriers": 8}, "grid": (2, 4),
                        "trials": 1, "jitter_km": 0.001},
        "assoc-dense": {"instances": 40, "jitter_km": 0.001},
        "tau-search": {"trials": 25, "interruption_trials": 10_000},
    },
    "full": {
        "solve-full": {"dims": {}, "jitter_km": 0.0},
        "sweep-users": {"dims": {}, "grid": (4, 8, 12), "trials": 2,
                        "jitter_km": 0.0},
        "assoc-dense": {"instances": 40, "jitter_km": 0.0},
        "tau-search": {"trials": 100, "interruption_trials": 10_000},
    },
}


@dataclass
class Op:
    seconds: float
    args: dict
    result: object = None
    error: Optional[str] = None


@dataclass
class PassResult:
    ops: list
    extra_problem: Optional[str] = None
    wall: float = 0.0
    compacted: bool = False  # ops keep only times and answer fingerprints


@dataclass
class State:
    """Everything set-up produced for one workload run."""

    inputs: dict
    config: dict = field(default_factory=dict)


def call_op(fn: Callable, sink: list, *args, **kwargs):
    """Time one op, keep its bound arguments and answer; an exception is a failed op."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as err:  # a failed op is data, never a crash
        sink.append(Op(time.perf_counter() - start, dict(bound.arguments),
                       error=f"{type(err).__name__}: {err}"))
        raise
    sink.append(Op(time.perf_counter() - start, dict(bound.arguments), out))
    return out


class recording:
    """Patch ``module.attr`` so every call through that binding is an op."""

    def __init__(self, module, attr: str, sink: list):
        self.module, self.attr, self.sink = module, attr, sink

    def __enter__(self):
        self.original = getattr(self.module, self.attr)
        original, sink = self.original, self.sink

        def op(*args, **kwargs):
            return call_op(original, sink, *args, **kwargs)

        setattr(self.module, self.attr, op)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)
        return False


def _config(dims: dict, seed: int = 0, solver: Optional[dict] = None) -> dict:
    cfg = cli.load_config(None, seed_override=seed)
    cfg["dims"].update(dims)
    cfg["solver"].update(solver or {})
    return cfg


def _jittered(spec, jitter_km: float, seed: int):
    """Move every RRH by a seed-keyed offset of at most jitter_km per axis."""
    if jitter_km == 0.0:
        return spec
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    coords = spec.rrh_coords + rng.uniform(-jitter_km, jitter_km, spec.rrh_coords.shape)
    return dataclasses.replace(spec, rrh_coords=np.clip(coords, 0.0, spec.area_side))


def _draw_seed(params: dict, seed: int) -> int:
    """Seed of the channel draw: fixed when the seed jitters the geometry instead."""
    return 0 if params.get("jitter_km", 0.0) > 0.0 else seed


# --------------------------------------------------------------------------
# solve-full: one tight-tolerance joint solve of the default CLI problem.
# --------------------------------------------------------------------------

def setup_solve_full(params: dict, seed: int) -> State:
    cfg = _config(params["dims"], seed=_draw_seed(params, seed))
    spec = _jittered(cli.build_spec(cfg), params["jitter_km"], seed)
    alt = cli.build_alt_config(cfg)
    channel, positions = scenario.generate_instance(spec)
    init = alternating.default_initialization(
        channel, spec.dims, spec.sensing, spec.radio,
        user_positions=positions, rrh_coords=spec.rrh_coords)
    return State({"init": init, "channel": channel, "spec": spec, "alt": alt},
                 {"cli_config": cfg, "rrh_coords_km": spec.rrh_coords.tolist(),
                  "alt_config": dataclasses.asdict(alt)})


def pass_solve_full(state: State) -> PassResult:
    s = state.inputs
    spec, ops = s["spec"], []
    try:
        call_op(alternating.solve_joint, ops, s["init"], s["channel"], spec.dims,
                spec.sensing, spec.radio, s["alt"])
    except Exception:
        pass  # recorded as a failed op
    return PassResult(ops)


# --------------------------------------------------------------------------
# sweep-users: run_sweep over the user count with the criterion-6 solver.
# --------------------------------------------------------------------------

def setup_sweep_users(params: dict, seed: int) -> State:
    cfg = _config(params["dims"], seed=_draw_seed(params, seed), solver=SWEEP_SOLVER)
    spec = _jittered(cli.build_spec(cfg), params["jitter_km"], seed)
    alt = cli.build_alt_config(cfg)
    sweep = SweepSpec("num_users", tuple(params["grid"]), params["trials"], spec)
    return State({"sweep": sweep, "alt": alt},
                 {"cli_config": cfg, "rrh_coords_km": spec.rrh_coords.tolist(),
                  "alt_config": dataclasses.asdict(alt)})


def pass_sweep_users(state: State) -> PassResult:
    ops = []
    try:
        with recording(scenario, "solve_joint", ops):
            rows = scenario.run_sweep(state.inputs["sweep"], state.inputs["alt"])
    except Exception as err:  # the op that raised is recorded; the run goes on
        return PassResult(ops, f"run_sweep raised {type(err).__name__}: {err}")
    skipped = sum(row["infeasible_trials"] for row in rows)
    return PassResult(ops, f"{skipped} infeasible trials" if skipped else None)


# --------------------------------------------------------------------------
# assoc-dense: cold branch-and-bound on dense rate tables.
# --------------------------------------------------------------------------

ASSOC_DIMS = {"num_subcarriers": 8, "users_per_slice": 8, "bbu_user_cap": 3,
              "fronthaul_cap": 1}
ASSOC_TAU_S = 1e-3
ASSOC_NODE_LIMIT = 200_000


def setup_assoc_dense(params: dict, seed: int) -> State:
    cfg = _config(ASSOC_DIMS)
    spec = _jittered(cli.build_spec(cfg), params["jitter_km"], seed)
    dims = spec.dims
    R, K, N = dims.num_rrhs, dims.num_subcarriers, dims.num_users
    tau = np.full((R, K), ASSOC_TAU_S)
    power = np.broadcast_to(
        (spec.radio.max_power_per_rrh(R) / (K * N))[:, None, None], (R, K, N)).copy()
    first = _draw_seed(params, seed) * params["instances"]
    draws = list(range(first, first + params["instances"]))
    channels = [scenario.generate_instance(spec, seed=d)[0] for d in draws]
    return State({"spec": spec, "tau": tau, "power": power, "channels": channels},
                 {"cli_config": cfg, "rrh_coords_km": spec.rrh_coords.tolist(),
                  "instance_seeds": draws, "tau_s": ASSOC_TAU_S,
                  "node_limit": ASSOC_NODE_LIMIT, "power": "pmax/(K*N) per cell"})


def pass_assoc_dense(state: State) -> PassResult:
    s = state.inputs
    spec, ops = s["spec"], []
    for channel in s["channels"]:
        try:
            call_op(assoc_opt.solve_association, ops, s["tau"], s["power"], channel,
                    spec.dims, spec.sensing, spec.radio, node_limit=ASSOC_NODE_LIMIT)
        except Exception:
            pass  # recorded as a failed op
    return PassResult(ops)


# --------------------------------------------------------------------------
# tau-search: the sensing-time sweeps and the interruption sweep.
# --------------------------------------------------------------------------

PFA_GRID = (0.1, 0.2, 0.3)
RRH_GRID = (2, 4, 6)
INTERRUPTION_POINTS = 20


def setup_tau_search(params: dict, seed: int) -> State:
    cfg = _config({}, seed=seed)
    spec = cli.build_spec(cfg)
    T = spec.sensing.frame_len
    sweeps = [SweepSpec("target_pfa", PFA_GRID, params["trials"], spec),
              SweepSpec("num_rrhs", RRH_GRID, params["trials"], spec)]
    tau_grid = list(np.linspace(0.01, T, INTERRUPTION_POINTS))
    return State({"spec": spec, "sweeps": sweeps, "tau_grid": tau_grid,
                  "interruption_trials": params["interruption_trials"]},
                 {"cli_config": cfg, "pfa_grid": PFA_GRID, "rrh_grid": RRH_GRID,
                  "interruption_tau_s": tau_grid})


def pass_tau_search(state: State) -> PassResult:
    s = state.inputs
    ops = []
    try:
        with recording(scenario, "optimal_sensing_time", ops):
            for sweep in s["sweeps"]:
                scenario.run_sweep(sweep)
    except Exception as err:  # the op that raised is recorded; the run goes on
        return PassResult(ops, f"run_sweep raised {type(err).__name__}: {err}")
    rows = scenario.run_interruption_sweep(s["spec"], s["tau_grid"],
                                           s["interruption_trials"])
    return PassResult(ops, verify.interruption_rows(rows))


@dataclass(frozen=True)
class Workload:
    setup: Callable[[dict, int], State]
    run_pass: Callable[[State], PassResult]
    check: Callable  # verify.* for one op
    fingerprint: Callable  # what must repeat exactly between passes


WORKLOADS = {
    "solve-full": Workload(setup_solve_full, pass_solve_full, verify.joint_solve,
                           lambda out: out[1].objective_trajectory),
    "sweep-users": Workload(setup_sweep_users, pass_sweep_users, verify.joint_solve,
                            lambda out: out[1].objective_trajectory),
    "assoc-dense": Workload(setup_assoc_dense, pass_assoc_dense, verify.association,
                            lambda out: (out.objective, out.nodes_explored)),
    "tau-search": Workload(setup_tau_search, pass_tau_search, verify.sensing_time,
                           lambda out: out),
}

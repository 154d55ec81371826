"""Command-line entry point: JSON config in, CSV tables plus a run manifest out.

File units follow the usual presentation (tau in ms, powers in dBm); all
internal computation is SI/linear. Every output directory also receives a
manifest.json with the fully resolved configuration so any run can be
reproduced byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .alternating import (AltConfig, best_feasible, default_initialization,
                          solve_joint)
from .model import (InfeasibleError, NetworkDims, RadioParams,
                    SearchTruncatedError, SensingParams)
from .scenario import (ScenarioSpec, SweepSpec, generate_instance,
                       run_interruption_sweep, run_sweep)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_TRUNCATED = 4  # a search hit its node limit before any feasible point

DEFAULT_CONFIG = {
    "dims": {
        "num_slices": 2,
        "num_rrhs": 4,
        "num_bbus": 3,
        "num_subcarriers": 16,
        "users_per_slice": 8,
        "bbu_user_cap": 6,
        "fronthaul_cap": 4,
    },
    "sensing": {
        "target_pd": 0.9,
        "target_pfa": 0.2,
        "hvwn_snr_db": -15.0,
        "sampling_freq_hz": 1e6,
        "frame_len_ms": 200.0,
        "hvwn_active_prob": 0.1,
    },
    "radio": {
        "noise_power_w": 1e-13,
        "hvwn_interference_w": 1e-13,
        "max_power_dbm": 30.0,
        "reserved_rate": 4.0,
    },
    "scenario": {
        "area_side_km": 2.0,
        "rrh_coords_km": None,
        "pathloss_exp": 3.0,
        "fading_mean": 0.5,
        "seed": 0,
    },
    "solver": {
        "epsilon": 1e-3,
        "max_outer_iters": 100,
        "warm_start": True,
        "fallback_on_infeasible_step": "keep-previous",
        "assoc_node_limit": 20000,
        "power_zeta": 1e-5,
        "power_max_iters": 500,
    },
    "sweep": {
        "grid": None,
        "trials_per_point": 20,
    },
}


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value)) if not isinstance(value, bool) else str(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def load_config(path: str | None, seed_override=None, trials_override=None) -> dict:
    """Merge the user's JSON document over the defaults, rejecting unknown keys."""
    merged = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed JSON in {path}: line {err.lineno} "
                              f"column {err.colno}: {err.msg}") from err
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for section, values in user.items():
            if section not in merged:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"section {section!r} must be an object")
            for key, val in values.items():
                if key not in merged[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                merged[section][key] = val
    if seed_override is not None:
        merged["scenario"]["seed"] = int(seed_override)
    if trials_override is not None:
        merged["sweep"]["trials_per_point"] = int(trials_override)
    return merged


def _per_item(value, count: int, name: str):
    """A config number, or a list of one number per sub-carrier, RRH or slice."""
    if not isinstance(value, list):
        return float(value)
    arr = np.asarray(value, dtype=float)
    if arr.shape != (count,):
        raise ConfigError(f"{name} must be a number or a list of {count} numbers, "
                          f"got a list of {len(value)} items")
    return arr


def build_spec(cfg: dict) -> ScenarioSpec:
    """The scenario a resolved config describes; a bad value is a ConfigError."""
    d, s, r, sc = cfg["dims"], cfg["sensing"], cfg["radio"], cfg["scenario"]
    try:
        dims = NetworkDims(
            num_slices=int(d["num_slices"]), num_rrhs=int(d["num_rrhs"]),
            num_bbus=int(d["num_bbus"]), num_subcarriers=int(d["num_subcarriers"]),
            users_per_slice=int(d["users_per_slice"]),
            bbu_user_cap=int(d["bbu_user_cap"]),
            fronthaul_cap=np.broadcast_to(np.asarray(d["fronthaul_cap"], dtype=int),
                                          (int(d["num_rrhs"]), int(d["num_bbus"]))).copy())
        sensing = SensingParams(
            target_pd=float(s["target_pd"]),
            target_pfa=_per_item(s["target_pfa"], dims.num_subcarriers,
                                 "sensing.target_pfa"),
            hvwn_snr=10.0 ** (float(s["hvwn_snr_db"]) / 10.0),
            sampling_freq=float(s["sampling_freq_hz"]),
            frame_len=float(s["frame_len_ms"]) * 1e-3,
            hvwn_active_prob=float(s["hvwn_active_prob"]))
        max_power_dbm = _per_item(r["max_power_dbm"], dims.num_rrhs, "radio.max_power_dbm")
        radio = RadioParams(
            noise_power=float(r["noise_power_w"]),
            hvwn_interference=float(r["hvwn_interference_w"]),
            max_power=10.0 ** (max_power_dbm / 10.0) * 1e-3,
            reserved_rate=_per_item(r["reserved_rate"], dims.num_slices,
                                    "radio.reserved_rate"))
        coords = sc["rrh_coords_km"]
        return ScenarioSpec(
            dims=dims, sensing=sensing, radio=radio,
            area_side=float(sc["area_side_km"]),
            rrh_coords=None if coords is None else np.asarray(coords, dtype=float),
            pathloss_exp=float(sc["pathloss_exp"]),
            fading_mean=float(sc["fading_mean"]), seed=int(sc["seed"]))
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def build_alt_config(cfg: dict) -> AltConfig:
    s = cfg["solver"]
    return AltConfig(epsilon=float(s["epsilon"]),
                     max_outer_iters=int(s["max_outer_iters"]),
                     warm_start=bool(s["warm_start"]),
                     fallback_on_infeasible_step=str(s["fallback_on_infeasible_step"]),
                     assoc_node_limit=int(s["assoc_node_limit"]),
                     power_zeta=float(s["power_zeta"]),
                     power_max_iters=int(s["power_max_iters"]))


def write_csv(path: Path, rows: list[dict]):
    if not rows:
        raise ValueError("no rows to write")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])


def write_manifest(out_dir: Path, command: str, cfg: dict, outputs: list[str]):
    manifest = {
        "command": command,
        "library_version": __version__,
        "seed": cfg["scenario"]["seed"],
        "resolved_config": cfg,
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True) + "\n")


def _sweep_grid(cfg, command, spec):
    """The config's grid, or the command's default when the config pins none."""
    if cfg["sweep"]["grid"] is not None:
        return cfg["sweep"]["grid"]
    T = spec.sensing.frame_len
    return {
        "sweep-tau": list(np.linspace(T / 50, T, 50)),
        "sweep-pd": [0.8, 0.85, 0.9, 0.95, 0.99],
        "sweep-pfa": [0.1, 0.2, 0.3],
        "sweep-users": [4, 8, 12],
        "sweep-rrhs": [2, 4, 6],
        "interruption": list(np.linspace(T / 20, T, 20)),
    }[command]


_SWEEP_PARAM = {"sweep-tau": "tau", "sweep-pd": "target_pd",
                "sweep-pfa": "target_pfa", "sweep-users": "num_users",
                "sweep-rrhs": "num_rrhs"}


def run_solve(cfg: dict, out_dir: Path, verbose: bool) -> list[str]:
    spec = build_spec(cfg)
    channel, positions = generate_instance(spec)
    init = default_initialization(channel, spec.dims, spec.sensing, spec.radio,
                                  user_positions=positions,
                                  rrh_coords=spec.rrh_coords)
    alt = build_alt_config(cfg)
    alloc, report = best_feasible([solve_joint(init, channel, spec.dims, spec.sensing,
                                               spec.radio, alt)])
    rows = [{"iteration": i + 1, "objective": obj, "max_residual": res}
            for i, (obj, res) in enumerate(zip(report.objective_trajectory,
                                               report.residual_trajectory))]
    write_csv(out_dir / "iterations.csv", rows)
    dump = {
        "converged": report.converged,
        "iterations": report.iterations,
        "constraint_residuals": report.constraint_residuals,
        "tau_ms": (alloc.sensing_time * 1e3).tolist(),
        "power_dbm": (10.0 * np.log10(np.maximum(alloc.power, 1e-30) / 1e-3)).tolist(),
        "beta": alloc.uav.tolist(),
        "rrh_assoc": alloc.rrh_assoc.tolist(),
        "bbu_assoc": alloc.bbu_assoc.tolist(),
    }
    (out_dir / "allocation.json").write_text(json.dumps(dump, indent=2,
                                                        sort_keys=True) + "\n")
    if verbose:
        print(f"converged={report.converged} after {report.iterations} iterations; "
              f"objective={report.objective_trajectory[-1]:.6g}")
    return ["iterations.csv", "allocation.json"]


def run_command(command: str, cfg: dict, out_dir: Path, verbose: bool) -> list[str]:
    if command == "solve":
        return run_solve(cfg, out_dir, verbose)
    spec = build_spec(cfg)
    grid, trials = _sweep_grid(cfg, command, spec), cfg["sweep"]["trials_per_point"]
    # A per-item list is refused by its config key; the library checks the rest.
    if command == "sweep-rrhs":
        for section, key in (("radio", "max_power_dbm"), ("dims", "fronthaul_cap")):
            if isinstance(cfg[section][key], list):
                raise ConfigError(f"sweep-rrhs changes the RRH count, so {section}.{key} "
                                  "must be one number")
    try:
        if command == "interruption":
            rows = run_interruption_sweep(spec, grid, trials)
        else:
            sweep = SweepSpec(_SWEEP_PARAM[command], grid, trials, spec)
    except ValueError as err:
        raise ConfigError(f"sweep: {err}") from err
    if command != "interruption":
        rows = run_sweep(sweep, build_alt_config(cfg))
    name = f"{command.replace('-', '_')}.csv"
    write_csv(out_dir / name, rows)
    return [name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cransense",
        description="Joint sensing-time and C-RAN resource allocation experiments")
    parser.add_argument("command",
                        choices=["solve", "sweep-tau", "sweep-pd", "sweep-pfa",
                                 "sweep-users", "sweep-rrhs", "interruption"])
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per sweep point")
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("--quiet", action="store_true")
    verbosity.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.seed, args.trials)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        outputs = run_command(args.command, cfg, out_dir, args.verbose)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SearchTruncatedError as err:
        print(f"search truncated: {err}", file=sys.stderr)
        return EXIT_TRUNCATED
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    write_manifest(out_dir, args.command, cfg, outputs)
    if not args.quiet:
        print(f"wrote {', '.join(outputs)} and manifest.json to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: JSON config in, CSV tables plus a run manifest out.

File units follow the usual presentation (tau in ms, powers in dBm); all
internal computation is SI/linear. Every output directory also receives a
manifest.json with the fully resolved configuration so any run can be
reproduced byte-for-byte. A command computes all its outputs before the
output directory is made, so a run that fails leaves no directory behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .alternating import (AltConfig, best_feasible, default_initialization,
                          solve_joint)
from .model import (InfeasibleError, NetworkDims, RadioParams, SensingParams,
                    is_number)
from .scenario import (ScenarioSpec, SweepSpec, generate_instance,
                       run_interruption_sweep, run_sweep)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3

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
    "solver": dataclasses.asdict(AltConfig()),
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
    if isinstance(value, list) and len(value) != count:
        raise ConfigError(f"{name} must be a number or a list of {count} numbers, "
                          f"got a list of {len(value)} items")
    return value


def _in_file_units(value, name: str):
    """A number, or a list of them as an array, that the CLI converts to SI.

    The library sees only the converted value, so this is where a bool, NaN
    or string in it is refused, naming the config key."""
    entries = value if isinstance(value, list) else [value]
    if not all(map(is_number, entries)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return np.asarray(value, dtype=float) if isinstance(value, list) else value


def build_spec(cfg: dict) -> ScenarioSpec:
    """The scenario a resolved config describes; a bad value is a ConfigError."""
    d, s, r, sc = cfg["dims"], cfg["sensing"], cfg["radio"], cfg["scenario"]
    try:
        dims = NetworkDims(**d)
        sensing = SensingParams(
            target_pd=s["target_pd"],
            target_pfa=_per_item(s["target_pfa"], dims.num_subcarriers,
                                 "sensing.target_pfa"),
            hvwn_snr=10.0 ** (_in_file_units(s["hvwn_snr_db"], "sensing.hvwn_snr_db") / 10.0),
            sampling_freq=s["sampling_freq_hz"],
            frame_len=_in_file_units(s["frame_len_ms"], "sensing.frame_len_ms") * 1e-3,
            hvwn_active_prob=s["hvwn_active_prob"])
        max_power_dbm = _in_file_units(
            _per_item(r["max_power_dbm"], dims.num_rrhs, "radio.max_power_dbm"),
            "radio.max_power_dbm")
        radio = RadioParams(
            noise_power=r["noise_power_w"],
            hvwn_interference=r["hvwn_interference_w"],
            max_power=10.0 ** (max_power_dbm / 10.0) * 1e-3,
            reserved_rate=_per_item(r["reserved_rate"], dims.num_slices,
                                    "radio.reserved_rate"))
        coords = sc["rrh_coords_km"]
        return ScenarioSpec(
            dims=dims, sensing=sensing, radio=radio,
            area_side=float(sc["area_side_km"]),
            rrh_coords=None if coords is None else np.asarray(coords, dtype=float),
            pathloss_exp=float(sc["pathloss_exp"]),
            fading_mean=float(sc["fading_mean"]), seed=sc["seed"])
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def build_alt_config(cfg: dict) -> AltConfig:
    """The solver settings of a resolved config; a bad value is a ConfigError."""
    try:
        return AltConfig(**cfg["solver"])
    except ValueError as err:
        raise ConfigError(f"solver: {err}") from err


def csv_text(rows: list[dict]) -> str:
    if not rows:
        raise ValueError("no rows to write")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([_fmt(v) for v in row.values()])
    return buf.getvalue()


def json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
                "sweep-rrhs": "num_rrhs", "interruption": "tau"}


def run_solve(spec: ScenarioSpec, alt: AltConfig, verbose: bool) -> dict[str, str]:
    channel, positions = generate_instance(spec)
    init = default_initialization(channel, spec.dims, spec.sensing, spec.radio,
                                  user_positions=positions,
                                  rrh_coords=spec.rrh_coords)
    alloc, report = best_feasible([solve_joint(init, channel, spec.dims, spec.sensing,
                                               spec.radio, alt)])
    rows = [{"iteration": i + 1, "objective": obj, "max_residual": res}
            for i, (obj, res) in enumerate(zip(report.objective_trajectory,
                                               report.residual_trajectory))]
    dump = {
        "converged": report.converged,
        "iterations": report.iterations,
        "constraint_residuals": report.constraint_residuals,
        "assoc_truncated": report.assoc_truncated,
        "step_fallbacks": report.step_fallbacks,
        "tau_ms": (alloc.sensing_time * 1e3).tolist(),
        "power_dbm": (10.0 * np.log10(np.maximum(alloc.power, 1e-30) / 1e-3)).tolist(),
        "beta": alloc.uav.tolist(),
        "rrh_assoc": alloc.rrh_assoc.tolist(),
        "bbu_assoc": alloc.bbu_assoc.tolist(),
    }
    if verbose:
        print(f"converged={report.converged} after {report.iterations} iterations; "
              f"objective={report.objective_trajectory[-1]:.6g}")
    return {"iterations.csv": csv_text(rows), "allocation.json": json_text(dump)}


def run_command(command: str, cfg: dict, verbose: bool) -> dict[str, str]:
    """The text of every output file of command, by file name. Every config
    value is checked before anything is drawn; a bad one is a ConfigError."""
    spec, alt = build_spec(cfg), build_alt_config(cfg)
    if command == "solve":
        return run_solve(spec, alt, verbose)
    # A per-item list is refused by its config key; the library checks the rest.
    if command == "sweep-rrhs":
        for section, key in (("radio", "max_power_dbm"), ("dims", "fronthaul_cap")):
            if isinstance(cfg[section][key], list):
                raise ConfigError(f"sweep-rrhs changes the RRH count, so {section}.{key} "
                                  "must be one number")
    name = f"{command.replace('-', '_')}.csv"
    try:
        sweep = SweepSpec(_SWEEP_PARAM[command], _sweep_grid(cfg, command, spec),
                          cfg["sweep"]["trials_per_point"], spec)
        if command == "interruption":
            return {name: csv_text(run_interruption_sweep(spec, sweep.grid,
                                                          sweep.trials_per_point))}
    except ValueError as err:
        raise ConfigError(f"sweep: {err}") from err
    return {name: csv_text(run_sweep(sweep, alt))}


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
        outputs = run_command(args.command, cfg, args.verbose)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    names = list(outputs)
    outputs["manifest.json"] = json_text({
        "command": args.command,
        "library_version": __version__,
        "seed": cfg["scenario"]["seed"],
        "resolved_config": cfg,
        "outputs": names,
    })
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (out_dir / name).write_text(text, newline="")
    if not args.quiet:
        print(f"wrote {', '.join(names)} and manifest.json to {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

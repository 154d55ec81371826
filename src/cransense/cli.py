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
from .alternating import AltConfig
from .assoc_opt import check_bbu_count
from .model import (InfeasibleError, NetworkDims, RadioParams, SensingParams,
                    is_number)
from .scenario import (ScenarioSpec, SweepSpec, generate_instance,
                       run_interruption_sweep, run_sweep, solve_instance)

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
        merged["scenario"]["seed"] = seed_override
    if trials_override is not None:
        merged["sweep"]["trials_per_point"] = trials_override
    return merged


def _in_file_units(value, name: str, db: bool = False):
    """A number, or a list of them as an array, that the CLI converts to SI;
    with db, 10^(value / 10) of it. The library sees only the converted
    value, so this is where a bool, NaN or string in it, or a value past
    the float range (once converted, for dB), is refused, naming the key."""
    entries = value if isinstance(value, list) else [value]
    if not all(map(is_number, entries)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    try:
        with np.errstate(over="raise"):
            number = np.asarray(value, dtype=float) if isinstance(value, list) else float(value)
            return 10.0 ** (number / 10.0) if db else number
    except ArithmeticError:  # a Python float's OverflowError, numpy's FloatingPointError
        raise ConfigError(f"{name} = {value!r} overflows a float") from None


def build_spec(cfg: dict) -> ScenarioSpec:
    """The scenario a resolved config describes; a bad value is a ConfigError."""
    d, s, r, sc = cfg["dims"], cfg["sensing"], cfg["radio"], cfg["scenario"]
    try:
        sensing = SensingParams(
            target_pd=s["target_pd"], target_pfa=s["target_pfa"],
            hvwn_snr=_in_file_units(s["hvwn_snr_db"], "sensing.hvwn_snr_db", db=True),
            sampling_freq=s["sampling_freq_hz"],
            frame_len=_in_file_units(s["frame_len_ms"], "sensing.frame_len_ms") * 1e-3,
            hvwn_active_prob=s["hvwn_active_prob"])
        radio = RadioParams(
            noise_power=r["noise_power_w"],
            hvwn_interference=r["hvwn_interference_w"],
            max_power=_in_file_units(r["max_power_dbm"], "radio.max_power_dbm",
                                     db=True) * 1e-3,
            reserved_rate=r["reserved_rate"])
        return ScenarioSpec(
            dims=NetworkDims(**d), sensing=sensing, radio=radio,
            area_side=sc["area_side_km"], rrh_coords=sc["rrh_coords_km"],
            pathloss_exp=sc["pathloss_exp"], fading_mean=sc["fading_mean"],
            seed=sc["seed"])
    except ValueError as err:
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


# Each sweep command: the parameter it sweeps and its default grid given the
# frame length T, for a config that pins no grid.
SWEEP_COMMANDS = {
    "sweep-tau": ("tau", lambda T: list(np.linspace(T / 50, T, 50))),
    "sweep-pd": ("target_pd", lambda T: [0.8, 0.85, 0.9, 0.95, 0.99]),
    "sweep-pfa": ("target_pfa", lambda T: [0.1, 0.2, 0.3]),
    "sweep-users": ("num_users", lambda T: [4, 8, 12]),
    "sweep-rrhs": ("num_rrhs", lambda T: [2, 4, 6]),
    "interruption": ("tau", lambda T: list(np.linspace(T / 20, T, 20))),
}


def run_solve(spec: ScenarioSpec, alt: AltConfig, verbose: bool) -> dict[str, str]:
    channel, positions = generate_instance(spec)
    alloc, report = solve_instance(spec, channel, positions, alt)
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
        try:
            check_bbu_count(spec.dims.num_bbus)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        return run_solve(spec, alt, verbose)
    param, default_grid = SWEEP_COMMANDS[command]
    grid, trials = cfg["sweep"]["grid"], cfg["sweep"]["trials_per_point"]
    grid = default_grid(spec.sensing.frame_len) if grid is None else grid
    name = f"{command.replace('-', '_')}.csv"
    try:
        if command == "interruption":
            return {name: csv_text(run_interruption_sweep(spec, grid, trials))}
        sweep = SweepSpec(param, grid, trials, spec)
    except ValueError as err:
        raise ConfigError(f"sweep: {err}") from err
    return {name: csv_text(run_sweep(sweep, alt))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cransense",
        description="Joint sensing-time and C-RAN resource allocation experiments")
    parser.add_argument("command", choices=["solve", *SWEEP_COMMANDS])
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per sweep point")
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("--quiet", action="store_true")
    verbosity.add_argument("--verbose", action="store_true")
    try:  # argparse exits 2 on a bad flag, which would read as "infeasible"
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code else EXIT_OK
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

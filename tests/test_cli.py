import json
from pathlib import Path

import numpy as np
import pytest

from cransense.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK,
                           ConfigError, build_spec, load_config, main)

SMALL = {
    "dims": {"num_rrhs": 2, "num_bbus": 2, "num_subcarriers": 4,
             "users_per_slice": 2, "bbu_user_cap": 4, "fronthaul_cap": 4},
    "radio": {"reserved_rate": 0.5},
    "solver": {"assoc_node_limit": 5000},
    "sweep": {"trials_per_point": 2},
}


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_load_config_defaults_and_merge(tmp_path):
    cfg = load_config(None)
    assert cfg["dims"]["num_rrhs"] == 4
    path = write_config(tmp_path, {"dims": {"num_rrhs": 2}})
    cfg = load_config(path)
    assert cfg["dims"]["num_rrhs"] == 2
    assert cfg["dims"]["num_bbus"] == 3  # untouched default
    cfg = load_config(path, seed_override=7, trials_override=5)
    assert cfg["scenario"]["seed"] == 7
    assert cfg["sweep"]["trials_per_point"] == 5


def test_load_config_rejects_unknowns(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"bogus": {}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"dims": {"bogus": 1}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"dims": 3}))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dims": {,}}')
    with pytest.raises(ConfigError) as exc:
        load_config(str(p))
    assert "line 1" in str(exc.value)


def test_solve_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "run"
    code = main(["solve", "--config", cfg, "--out", str(out), "--verbose"])
    assert code == EXIT_OK
    assert (out / "iterations.csv").is_file()
    assert (out / "allocation.json").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["resolved_config"]["dims"]["num_rrhs"] == 2
    assert sorted(manifest["outputs"]) == ["allocation.json", "iterations.csv"]
    header = (out / "iterations.csv").read_text().splitlines()[0]
    assert header == "iteration,objective,max_residual"
    dump = json.loads((out / "allocation.json").read_text())
    assert dump["converged"] is True
    assert dump["assoc_truncated"] == [] and dump["step_fallbacks"] == []
    captured = capsys.readouterr()
    assert "converged=True" in captured.out


def test_missing_config_exits_without_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--config", str(tmp_path / "absent.json"),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not (out / "manifest.json").exists()
    assert not (out / "iterations.csv").exists()
    assert "config error" in capsys.readouterr().err


def test_infeasible_run_exits_2_without_manifest(tmp_path, capsys):
    doc = dict(SMALL)
    doc["radio"] = {"reserved_rate": 1e9}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    assert not (out / "manifest.json").exists()
    assert "infeasible" in capsys.readouterr().err


def test_sensing_time_never_rounds_past_the_frame(tmp_path, capsys):
    # At 1.5 Hz no sub-carrier meets its target within the frame. The start's
    # sensing time used to round one ulp past the frame, and step 2 ended
    # the run in a ValueError traceback (exit 1).
    doc = dict(SMALL, sensing={"sampling_freq_hz": 1.5})
    cfg, out = write_config(tmp_path, doc), tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
    assert not out.exists()
    assert "infeasible: every solve ends violating" in capsys.readouterr().err
    assert main(["sweep-users", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    rows = (out / "sweep_users.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["2", "2", "2"]
    # At 3 Hz and 10 dB the targets hold with some RRHs sensing the whole
    # frame, where step 1's sensing time used to round past it.
    doc["sensing"] = {"sampling_freq_hz": 3.0, "hvwn_snr_db": 10.0}
    out = tmp_path / "run3"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == EXIT_OK
    assert np.max(json.loads((out / "allocation.json").read_text())["tau_ms"]) == 200.0


def test_sweep_tau_rerun_is_byte_identical(tmp_path, capsys):
    doc = dict(SMALL)
    doc["sweep"] = {"grid": [0.02, 0.05, 0.1], "trials_per_point": 3}
    cfg = write_config(tmp_path, doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep-tau", "--config", cfg, "--out", str(out_a),
                 "--quiet"]) == EXIT_OK
    assert main(["sweep-tau", "--config", cfg, "--out", str(out_b),
                 "--quiet"]) == EXIT_OK
    assert (out_a / "sweep_tau.csv").read_bytes() == \
        (out_b / "sweep_tau.csv").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == \
        (out_b / "manifest.json").read_bytes()
    header = (out_a / "sweep_tau.csv").read_text().splitlines()[0]
    assert header == "tau_ms,mean_throughput,stderr,infeasible_trials"
    assert capsys.readouterr().out == ""  # --quiet suppresses the summary


def test_interruption_command(tmp_path):
    doc = dict(SMALL)
    doc["sweep"] = {"grid": [0.01, 0.05], "trials_per_point": 500}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["interruption", "--config", cfg, "--out", str(out),
                 "--quiet"]) == EXIT_OK
    lines = (out / "interruption.csv").read_text().splitlines()
    assert lines[0] == "tau_ms,p_interrupt,stderr"
    assert len(lines) == 3


def test_seed_override_changes_results(tmp_path):
    doc = dict(SMALL)
    doc["sweep"] = {"grid": [0.05], "trials_per_point": 2}
    cfg = write_config(tmp_path, doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["sweep-tau", "--config", cfg, "--out", str(out_a), "--quiet"])
    main(["sweep-tau", "--config", cfg, "--out", str(out_b), "--quiet",
          "--seed", "99"])
    assert (out_a / "sweep_tau.csv").read_bytes() != \
        (out_b / "sweep_tau.csv").read_bytes()
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_pfa_sweep_command(tmp_path):
    doc = dict(SMALL)
    doc["sweep"] = {"grid": [0.1, 0.3], "trials_per_point": 2}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["sweep-pfa", "--config", cfg, "--out", str(out),
                 "--quiet"]) == EXIT_OK
    lines = (out / "sweep_pfa.csv").read_text().splitlines()
    assert lines[0] == "target_pfa,opt_tau_ms,stderr_ms,infeasible_trials"
    assert len(lines) == 3


def test_per_item_config_values(tmp_path):
    # A list gives one value per sub-carrier, RRH or slice, as the library
    # takes them; the solve runs on them end to end.
    doc = dict(SMALL)
    doc["sensing"] = {"target_pfa": [0.1, 0.2, 0.3, 0.2]}
    doc["radio"] = {"max_power_dbm": [30.0, 27.0], "reserved_rate": [0.5, 0.25]}
    cfg = load_config(write_config(tmp_path, doc))
    spec = build_spec(cfg)
    assert spec.sensing.target_pfa.tolist() == [0.1, 0.2, 0.3, 0.2]
    assert spec.radio.max_power[0] == 1.0
    assert spec.radio.max_power[1] == pytest.approx(10 ** -0.3)
    assert spec.radio.reserved_rate.tolist() == [0.5, 0.25]
    out = tmp_path / "run"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out",
                 str(out), "--quiet"]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())[
        "resolved_config"]["radio"]["max_power_dbm"] == [30.0, 27.0]


@pytest.mark.parametrize("section,key,value", [
    ("sensing", "target_pfa", [0.1, 0.2]),          # K = 4
    ("radio", "max_power_dbm", [30.0, 30.0, 30.0]),  # R = 2
    ("radio", "reserved_rate", [0.5]),               # S = 2
    ("radio", "reserved_rate", [[0.5, 0.5]]),
    ("sensing", "target_pfa", 0.95),                 # not below target_pd
    ("dims", "num_subcarriers", 4.5),
    ("dims", "num_rrhs", True),
    ("dims", "bbu_user_cap", 1.5),
    ("dims", "fronthaul_cap", 1.5),
    ("dims", "fronthaul_cap", [True, 1, 1]),         # broadcasts to R x B = 4 x 3
    # Past the int64 maximum, or past the float range once out of dB.
    ("dims", "bbu_user_cap", 1e300),
    ("dims", "num_slices", 1e300),
    ("sensing", "hvwn_snr_db", 1e300),
    ("radio", "max_power_dbm", 1e300),
    ("radio", "max_power_dbm", [30.0, 1e300]),
    # A 400-digit integer: past the int64 maximum, or past the float range.
    ("dims", "num_rrhs", 10**400),
    ("sensing", "frame_len_ms", 10**400),
    ("radio", "max_power_dbm", 10**400),
    # Its path gain at the 1 m minimum distance overflows a float.
    ("scenario", "pathloss_exp", 1e300),
])
def test_bad_config_values_exit_3(tmp_path, capsys, section, key, value):
    doc = dict(SMALL)
    doc[section] = {key: value}
    with pytest.raises(ConfigError):
        build_spec(load_config(write_config(tmp_path, doc)))
    out = tmp_path / "run"
    code = main(["sweep-pfa", "--config", write_config(tmp_path, doc),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not (out / "manifest.json").exists()
    assert not out.exists()
    err = capsys.readouterr().err
    # The library names max_power_dbm by its field, max_power.
    assert "config error" in err and key.removesuffix("_dbm") in err


@pytest.mark.parametrize("command", ["solve", "sweep-tau", "sweep-pd", "sweep-pfa",
                                     "sweep-users", "sweep-rrhs", "interruption"])
@pytest.mark.parametrize("section,key,value", [("dims", "num_rrhs", 10**400),
                                               ("scenario", "pathloss_exp", 1e300)])
def test_overflowing_values_exit_3_on_every_command(tmp_path, capsys, command,
                                                    section, key, value):
    # Both once ended in OverflowError: is_number on the integer, and
    # generate_instance's path gain d ** -pathloss_exp.
    doc = dict(SMALL)
    doc[section] = {key: value}
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, doc), "--trials", "1",
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert f"config error: {key}" in capsys.readouterr().err


def test_seed_of_any_size_runs(tmp_path):
    doc = dict(SMALL, scenario={"seed": 10**400})
    assert build_spec(load_config(write_config(tmp_path, doc))).seed == 10**400
    out = tmp_path / "run"
    assert main(["sweep-pfa", "--config", write_config(tmp_path, doc), "--trials", "1",
                 "--out", str(out), "--quiet"]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["seed"] == 10**400


@pytest.mark.parametrize("command,section,key,value,field", [
    ("solve", "radio", "noise_power_w", float("nan"), "noise_power"),
    ("sweep-tau", "sensing", "frame_len_ms", float("nan"), "sensing.frame_len_ms"),
    ("sweep-tau", "sensing", "hvwn_snr_db", True, "sensing.hvwn_snr_db"),
    ("sweep-tau", "radio", "max_power_dbm", [30.0, True], "radio.max_power_dbm"),
    ("solve", "radio", "hvwn_interference_w", True, "hvwn_interference"),
    ("solve", "sensing", "target_pd", "0.9", "target_pd"),
    ("sweep-pfa", "scenario", "area_side_km", True, "area_side"),
    ("sweep-pfa", "scenario", "pathloss_exp", "3", "pathloss_exp"),
    ("sweep-pfa", "scenario", "fading_mean", float("nan"), "fading_mean"),
    ("sweep-pfa", "scenario", "rrh_coords_km", [[0.5, 0.5], [True, 1.5]], "rrh_coords"),
])
def test_non_finite_or_non_number_value_exits_3(tmp_path, capsys, command, section,
                                                key, value, field):
    # NaN noise used to end solve in a traceback from step 2, a NaN frame
    # was reported as a bad sweep grid, and a bool or string ran as a number.
    doc = dict(SMALL)
    doc[section] = {key: value}
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, doc), "--trials", "1",
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert f"config error: {field} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.5, True])
def test_fractional_or_bool_seed_exits_3(tmp_path, capsys, value):
    # The run would otherwise use seed 1 while manifest.json records the value.
    doc = dict(SMALL, scenario={"seed": value})
    with pytest.raises(ConfigError, match="seed"):
        build_spec(load_config(write_config(tmp_path, doc)))
    out = tmp_path / "run"
    assert main(["sweep-pfa", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command,argv", [("solve", []),
                                          ("sweep-pfa", ["--trials", "1"])])
@pytest.mark.parametrize("key,value", [
    ("epsilon", -1), ("epsilon", "abc"), ("epsilon", float("nan")), ("epsilon", True),
    ("max_outer_iters", 2.7), ("max_outer_iters", 0), ("max_outer_iters", True),
])
def test_bad_solver_section_exits_3(tmp_path, capsys, command, argv, key, value):
    # Checked before anything runs, even by a command that never solves.
    doc = dict(SMALL, solver={key: value})
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)] + argv) == EXIT_CONFIG
    assert not out.exists()
    assert f"config error: solver: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("command,section,key,value", [
    ("interruption", "sensing", "target_pfa", [0.1, 0.2, 0.2, 0.2]),
    ("sweep-rrhs", "radio", "max_power_dbm", [30.0, 27.0]),
])
def test_per_item_value_a_command_cannot_use_exits_3(tmp_path, capsys, command,
                                                     section, key, value):
    doc = dict(SMALL)
    doc[section] = {key: value}
    doc["sweep"] = {"grid": [2, 3] if command == "sweep-rrhs" else [0.05],
                    "trials_per_point": 1}
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "manifest.json").exists()
    # SweepSpec names max_power_dbm by its field, max_power.
    assert key.removesuffix("_dbm") in capsys.readouterr().err


@pytest.mark.parametrize("command,code", [
    ("solve", EXIT_CONFIG), ("sweep-users", EXIT_CONFIG), ("sweep-tau", EXIT_OK),
    ("sweep-pd", EXIT_OK), ("sweep-pfa", EXIT_OK), ("sweep-rrhs", EXIT_OK),
    ("interruption", EXIT_OK)])
def test_more_bbus_than_the_association_search_takes(tmp_path, capsys, command, code):
    # Step 2 enumerates every BBU subset, so it takes at most 16 BBUs: the
    # commands that solve an association refuse 17 before anything is drawn,
    # and the ones that never solve one run.
    doc = dict(SMALL)
    doc["dims"] = dict(SMALL["dims"], num_bbus=17, fronthaul_cap=1)
    out = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, doc), "--trials", "1",
                 "--out", str(out), "--quiet"]) == code
    assert out.exists() == (code == EXIT_OK)
    err = capsys.readouterr().err
    assert (err.startswith("config error: ") and "num_bbus=17" in err) == (code != EXIT_OK)


def test_sweep_rrhs_rejects_a_per_link_fronthaul_matrix(tmp_path, capsys):
    # The sweep rebuilds fronthaul_cap for every RRH count; a per-link matrix
    # has no value for the RRHs it adds, so it is refused, not flattened.
    # A uniform one means the same as one number and runs.
    doc = dict(SMALL)
    doc["dims"] = dict(SMALL["dims"], fronthaul_cap=[[1, 2], [3, 4]])
    doc["sweep"] = {"grid": [2, 3], "trials_per_point": 1}
    out = tmp_path / "run"
    assert main(["sweep-rrhs", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "manifest.json").exists()
    assert "fronthaul_cap" in capsys.readouterr().err
    doc["dims"]["fronthaul_cap"] = [[4, 4], [4, 4]]
    assert main(["sweep-rrhs", "--config", write_config(tmp_path, doc),
                 "--out", str(out), "--quiet"]) == EXIT_OK


def test_sweep_rrhs_rejects_pinned_rrh_coords(tmp_path, capsys):
    # Every RRH count is laid out on the default grid, so pinned coordinates
    # would be ignored; they are refused instead.
    doc = dict(SMALL)
    doc["scenario"] = {"rrh_coords_km": [[0.5, 0.5], [1.5, 1.5]]}
    doc["sweep"] = {"grid": [2, 3], "trials_per_point": 1}
    out = tmp_path / "run"
    assert main(["sweep-rrhs", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "manifest.json").exists()
    assert "rrh_coords" in capsys.readouterr().err


@pytest.mark.parametrize("command,sweep,argv", [
    ("sweep-pfa", {}, ["--trials", "0"]),
    ("interruption", {}, ["--trials", "0"]),
    ("sweep-pfa", {"trials_per_point": 1.5}, []),
    ("sweep-tau", {"grid": []}, []),
    ("sweep-tau", {"grid": [0.1, 0.05]}, []),
    ("sweep-tau", {"grid": 0.05}, []),
    ("sweep-pfa", {"grid": ["0.1"]}, []),
    ("sweep-pd", {"grid": [0.9, 1.0]}, []),
    ("sweep-pd", {"grid": [0.1, 0.9]}, []),       # not above target_pfa = 0.2
    ("sweep-pfa", {"grid": [0.1, 0.95]}, []),     # not below target_pd = 0.9
    ("sweep-users", {"grid": [0, 1]}, []),
    ("sweep-users", {"grid": [2.5]}, []),
    ("sweep-rrhs", {"grid": [0, 2]}, []),
    ("sweep-rrhs", {"grid": [1.5, 2]}, []),
    ("sweep-tau", {"grid": [0.5]}, []),           # beyond T = 200 ms
    ("sweep-tau", {"grid": [0.0, 0.1]}, []),
    ("interruption", {"grid": [0.1, 0.5]}, []),
    ("interruption", {"grid": [-0.1, 0.1]}, []),
])
def test_bad_sweep_section_exits_3(tmp_path, capsys, command, sweep, argv):
    doc = dict(SMALL)
    doc["sweep"] = dict(SMALL["sweep"], **sweep)
    out = tmp_path / "run"
    code = main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)] + argv)
    assert code == EXIT_CONFIG
    assert not (out / "manifest.json").exists()
    assert not out.exists()
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve", "--seed", "abc"],
                                  ["sweep-pfa", "--trials", "1.5"],
                                  ["no-such-command"], ["solve", "--no-such-flag"]])
def test_bad_command_line_exits_3(tmp_path, capsys, argv):
    # argparse's own exit code, 2, is the code for an infeasible problem.
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "error:" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_OK


def test_default_interruption_grid_spans_the_frame(tmp_path):
    # The default grid is linspace(T/20, T, 20): at the default T = 200 ms it
    # is the former linspace(10 ms, T, 20), and a shorter frame still runs.
    for frame_ms, first in ((200.0, 0.01), (5.0, 5e-3 / 20)):
        doc = dict(SMALL)
        doc["sensing"] = {"frame_len_ms": frame_ms}
        out = tmp_path / f"run{frame_ms}"
        assert main(["interruption", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        lines = (out / "interruption.csv").read_text().splitlines()[1:]
        T = frame_ms * 1e-3
        assert [float(line.split(",")[0]) for line in lines] == \
            [t * 1e3 for t in np.linspace(first, T, 20)]

import json
import subprocess
import sys

import numpy as np
import pytest

from nled.cli import run

NLED = [sys.executable, "-m", "nled.cli"]


def run_cli(*args, env_extra=None, check=False):
    import os
    env = os.environ.copy()
    env.pop("NLED_CONSTANTS_PRESET", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(NLED + list(args), capture_output=True, text=True,
                          env=env)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode}\n{proc.stderr}")
    return proc


class TestEnergyCommand:
    def test_born_infeld_historical_paper_convention(self):
        proc = run_cli("energy", "--model", "born-infeld",
                       "--preset", "historical1934", "--convention", "paper",
                       check=True)
        out = json.loads(proc.stdout)
        assert abs(out["U_in_units_of_e2_over_r0"] - 1.2361) <= 1e-4
        assert abs(out["laue_trace_over_U"]) <= 1e-8
        assert out["momentum_g_cm_per_s"] == [0.0, 0.0, 0.0]
        assert out["provenance"]["constants_preset"] == "historical1934"
        assert set(out["provenance"]) == {"config_hash", "constants_preset",
                                          "grid", "tolerances"}

    def test_maxwell_without_cutoff_is_structured_divergent(self):
        proc = run_cli("energy", "--model", "maxwell")
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["kind"] == "Divergent"

    def test_byte_identical_reruns(self):
        args = ("energy", "--model", "born-infeld", "--E0", "9.18e15",
                "--preset", "historical1934")
        a = run_cli(*args, check=True).stdout
        b = run_cli(*args, check=True).stdout
        assert a == b


class TestProfileCommand:
    def test_maxwell_csv_field_equals_displacement(self):
        proc = run_cli("profile", "--model", "maxwell", "--points", "24",
                       check=True)
        lines = proc.stdout.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["r_cm", "D_statvolt_per_cm", "E_statvolt_per_cm",
                          "rho_esu_per_cm3", "epsilon", "u_erg_per_cm3",
                          "phi_statvolt"]
        assert len(lines) == 25
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == cells[2]  # E column equals D column exactly
            # 17 significant digits scientific notation
            assert "e" in cells[0] and len(cells[0].split("e")[0].lstrip("-")) == 18

    def test_out_file(self, tmp_path):
        path = tmp_path / "profile.csv"
        run_cli("profile", "--model", "born-infeld", "--E0", "9.18e15",
                "--preset", "historical1934", "--points", "12",
                "--rmin", "0.1", "--rmax", "10", "--out", str(path), check=True)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 13

    def test_log_model_json_reports_inversion_boundary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "log-schroedinger", "E0": 9.18e15},
            "preset": "historical1934",
            "output": {"format": "json"},
        }))
        proc = run_cli("profile", "--config", str(cfg), check=True)
        out = json.loads(proc.stdout)
        e = 4.77e-10
        r0 = float(np.sqrt(e / 9.18e15))
        boundary = out["inversion_failed_below_r"]
        assert abs(boundary / (np.sqrt(2) * r0) - 1) <= 1e-6
        assert min(out["r_cm"]) > boundary

    def test_maxwell_json_radius_is_grid_unit(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"format": "json"}}))
        proc = run_cli("profile", "--model", "maxwell", "--points", "9",
                       "--config", str(cfg), check=True)
        out = json.loads(proc.stdout)
        assert out["r0_cm"] == out["r_unit_cm"]
        assert abs(out["r_unit_cm"] / 2.8179e-13 - 1) <= 1e-3


class TestPresetPlumbing:
    def test_env_variable_selects_preset(self):
        proc = run_cli("radius", env_extra={"NLED_CONSTANTS_PRESET":
                                            "historical1934"}, check=True)
        out = json.loads(proc.stdout)
        assert out["provenance"]["constants_preset"] == "historical1934"

    def test_flag_wins_over_env(self):
        proc = run_cli("radius", "--preset", "modern",
                       env_extra={"NLED_CONSTANTS_PRESET": "historical1934"},
                       check=True)
        out = json.loads(proc.stdout)
        assert out["provenance"]["constants_preset"] == "modern"

    def test_unknown_preset_exits_2(self):
        proc = run_cli("radius", "--preset", "foo")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["kind"] == "ConfigurationError"


class TestOtherCommands:
    def test_radius_conventions_differ_by_c_squared(self):
        paper = json.loads(run_cli("radius", "--convention", "paper",
                                   check=True).stdout)
        energy = json.loads(run_cli("radius", "--convention",
                                    "energy-consistent", check=True).stdout)
        C = paper["energy_constant_C"]
        assert abs(energy["r0_cm"] / paper["r0_cm"] - C**2) <= 1e-9

    def test_expand_fields(self):
        proc = run_cli("expand", "--model", "born-infeld", "--E0", "1.0",
                       check=True)
        out = json.loads(proc.stdout)
        assert abs(out["ratio_c02_c20"] - 4.0) <= 0.01
        assert {"c1", "c20", "c02", "condition", "residual"} <= set(out)

    def test_invariants_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"draws": 200, "boost_draws": 50}))
        proc = run_cli("invariants", "--config", str(cfg), check=True)
        out = json.loads(proc.stdout)
        assert out["draws"] == 200
        assert out["max_rel_err_fierz"] <= 1e-12
        assert out["max_rel_err_boost"] <= 1e-10
        assert out["interaction"]["max_rel_err_forms"] <= 1e-12

    def test_dirac_table(self):
        proc = run_cli("dirac", check=True)
        lines = proc.stdout.strip().splitlines()
        assert "identity" in lines[0]
        assert sum("PASS" in ln for ln in lines) >= 15
        assert sum("REPORTED" in ln for ln in lines) == 1

    def test_missing_model_exits_2(self):
        proc = run_cli("energy")
        assert proc.returncode == 2

    def test_bad_grid_exits_2(self):
        proc = run_cli("profile", "--model", "maxwell", "--points", "3")
        assert proc.returncode == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modle": {"kind": "maxwell"}}))
        proc = run_cli("profile", "--config", str(cfg))
        assert proc.returncode == 2


@pytest.mark.parametrize("bad", [
    {"draws": 0, "boost_draws": 0},
    {"draws": 0},
    {"boost_draws": 2.5},
    {"seed": -1},
    {"seed": "7"},
    {"higher_order": "yes"},
    {"quad": {"max_subdiv": 0}},
    {"quad": {"max_subdiv": True}},
    {"quad": {"rel_tol": "1e-10"}},
    {"quad": {"abs_tol": True}},
    {"quad": {"cutoff_r_cm": -2.28e-13}},
    {"quad": {"cutoff_r_cm": 0}},
    {"quad": {"cutoff_r_cm": "2.28e-13"}},
    {"grid": {"r_min_over_r0": "1e-4"}},
    {"grid": {"r_max_over_r0": True}},
    {"sample_scale": "0.01"},
])
def test_invalid_config_values_exit_2(tmp_path, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    for command in ("invariants", "expand", "energy"):
        assert run([command, "--model", "born-infeld", "--E0", "1.0",
                    "--config", str(cfg)]) == 2


def test_removed_laue_subcommand_exits_2():
    proc = run_cli("laue", "--model", "born-infeld")
    assert proc.returncode == 2


def test_run_function_directly():
    # in-process entry point honors the same contract as the console script
    assert run(["dirac"]) == 0
    assert run(["radius", "--preset", "nope"]) == 2

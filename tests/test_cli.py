import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nled import ConfigurationError, NledError, NoSolution, NumericalError, constants
from nled.models import model_from_config, taylor_reference
from nled import cli
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
    def test_born_infeld_beyond_the_physical_walks_range(self):
        # u = E D/4 pi overflowed at a walk's inner nodes in physical units
        # (exit 3); the unit twin's U = C e^(3/2) E0^(1/2) is about 1e61 erg
        proc = run_cli("energy", "--model", "born-infeld", "--E0", "1e150",
                       "--preset", "historical1934", check=True)
        out = json.loads(proc.stdout)
        C = math.gamma(0.25) ** 2 / (6 * math.sqrt(math.pi))
        e = constants("historical1934").e
        assert abs(out["U_erg"] / (C * e**1.5 * 1e75) - 1) <= 1e-14
        assert abs(out["U_in_units_of_e2_over_r0"] / C - 1) <= 1e-15
        assert abs(out["laue_trace_over_U"]) <= 1e-15

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

    def test_cutoff_is_echoed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad": {"cutoff_r_cm": 2.8e-13}}))
        assert run(["energy", "--model", "maxwell", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["cutoff_r_cm"] == 2.8e-13
        assert run(["energy", "--model", "born-infeld"]) == 0
        assert json.loads(capsys.readouterr().out)["cutoff_r_cm"] is None

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
    {"output": {"format": "xml"}},
    {"output": {"format": "csv"}},  # csv is the profile table only
    {"output": {"format": 1}},
    {"grid": {"spacing": "cubic"}},
])
def test_invalid_config_values_exit_2(tmp_path, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    for command in ("invariants", "expand", "energy"):
        assert run([command, "--model", "born-infeld", "--E0", "1.0",
                    "--config", str(cfg)]) == 2


@pytest.mark.parametrize("args, config, code", [
    (["energy", "--model", "born-infeld", "--E0", "inf"], None, 2),
    (["energy", "--model", "born-infeld", "--E0", "1e155"], None, 2),
    (["profile", "--model", "born-infeld", "--E0", "1e-300"], None, 2),
    (["energy", "--model", "born-infeld", "--E0", "1.0"], {"quad": {"cutoff_r_cm": 1e300}}, 2),
    # D/E0 = 4.8e310 at the cutoff: the walk's start overflowed (a bare OverflowError)
    (["energy", "--model", "born-infeld", "--E0", "1e-150"], {"quad": {"cutoff_r_cm": 1e-85}}, 2),
    (["profile", "--model", "born-infeld", "--E0", "1.0"], {"output": {"format": "xml"}}, 2),
    (["profile", "--model", "born-infeld", "--E0", "1e154"], None, 3),
    (["energy"], {"model": "born-infeld"}, 2),
    (["energy"], {"model": {"kind": "mie-sqrt", "mie_sign": "a"}}, 2),
    (["energy"], {"model": {"kind": "born-infeld", "E0": True}}, 2),
    (["energy"], {"model": {"kind": "polynomial", "coeffs": {"alpha": 1e308}}}, 2),
    (["energy"], {"model": {"kind": "polynomial", "coeffs": {"xi": True}}}, 2),
    (["energy"], {"model": {"kind": "born-infeld", "E0": 1.0, "mie_sign": -1}}, 2),
    (["profile"], {"model": {"kind": "maxwell", "coeffs": {"alpha": 1}}}, 2),
], ids=["E0_inf", "E0_square_overflows", "E0_square_underflows", "cutoff_far",
        "cutoff_far_inside_scale", "profile_format", "profile_overflows", "model_not_object",
        "mie_sign_text", "E0_bool", "alpha_map_overflows", "coeff_bool",
        "born_infeld_mie_sign", "maxwell_coeffs"])
def test_out_of_range_exits_with_json_error(tmp_path, args, config, code):
    extra = []
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        extra = ["--config", str(tmp_path / "cfg.json")]
    proc = run_cli(*args, *extra)
    assert proc.returncode == code
    assert json.loads(proc.stderr)["kind"]
    assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout and "inf" not in proc.stdout


def test_exit_code_contract_at_every_accepted_limiting_field(tmp_path, capsys):
    # the Taylor fit's physical design overflowed or underflowed outside E0 in
    # [1e-51, 1e53] (an uncaught error, exit 1): all 16 expand calls here raised
    higher = tmp_path / "higher.json"
    higher.write_text(json.dumps({"higher_order": True}))
    for kind in ("born-infeld", "log-schroedinger"):
        for E0 in (2.0**-511, 1e-100, 1e100, float(np.sqrt(np.finfo(float).max))):
            for args in (["profile"], ["energy"], ["expand"], ["expand", "--config", str(higher)]):
                code = run([*args, "--model", kind, "--E0", repr(E0)])
                out, err = capsys.readouterr()
                assert code in (0, 2, 3), (kind, E0, args)
                assert "NaN" not in out and "Infinity" not in out
                if code:
                    assert json.loads(err)["kind"] and err.count("\n") == 1
                elif args == ["expand"]:
                    ref = taylor_reference(model_from_config({"kind": kind, "E0": E0}))
                    assert abs(json.loads(out)["c20"] / ref.c20 - 1) <= 1e-5


@pytest.mark.parametrize("option, name", [
    ("--out", "none/x.txt"), ("--out", "."), ("--config", "cfg.json"),
], ids=["out_in_missing_directory", "out_is_a_directory", "config_not_utf8"])
def test_file_errors_exit_2(tmp_path, option, name):
    # a traceback would exit 1, which means a closed stdout
    (tmp_path / "cfg.json").write_bytes(b'{"seed": "\xff"}')
    proc = run_cli("dirac", option, str(tmp_path / name))
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["kind"] == "ConfigurationError"


def test_removed_laue_subcommand_exits_2():
    proc = run_cli("laue", "--model", "born-infeld")
    assert proc.returncode == 2


def test_run_function_directly():
    # in-process entry point honors the same contract as the console script
    assert run(["dirac"]) == 0
    assert run(["radius", "--preset", "nope"]) == 2


def test_subcommands_are_the_handlers():
    parser = cli._build_parser()
    for name in cli._HANDLERS:
        assert parser.parse_args([name]).command == name
    with pytest.raises(SystemExit):
        parser.parse_args(["laue"])


def test_options_may_precede_the_subcommand():
    parser = cli._build_parser()
    before = parser.parse_args(["--model", "maxwell", "--points", "9", "profile"])
    after = parser.parse_args(["profile", "--model", "maxwell", "--points", "9"])
    assert vars(before) == vars(after)
    assert (after.command, after.model, after.points) == ("profile", "maxwell", 9)


# run() in a fresh interpreter; prints its exit code and the nled modules it loaded
LOAD_PROBE = ("import contextlib, io, json, sys\n"
              "from nled.cli import run\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = run(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(m[5:] for m in sys.modules "
              "if m.startswith('nled.'))]))")


@pytest.mark.parametrize("args, absent", [
    (["dirac"], {"constitutive", "models", "energetics", "soliton"}),
    (["invariants"], {"constitutive", "energetics", "soliton"}),
    (["energy", "--model", "born-infeld", "--E0", "1.0"],
     {"soliton", "dirac", "expansion", "interaction"}),
    (["radius"], {"soliton", "dirac", "expansion", "interaction"}),
    (["expand", "--model", "born-infeld", "--E0", "1.0"],
     {"constitutive", "energetics", "soliton", "dirac", "interaction"}),
    (["profile", "--model", "born-infeld", "--E0", "1.0"],
     {"dirac", "expansion", "interaction"}),
], ids=["dirac", "invariants", "energy", "radius", "expand", "profile"])
def test_subcommand_loads_only_its_modules(tmp_path, args, absent):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"draws": 20, "boost_draws": 5}))
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, *args, "--config", str(cfg)],
                          capture_output=True, text=True, check=True)
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert {"cli", "constants", "errors"} <= set(loaded)
    assert not absent & set(loaded), loaded


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_traceback(unbuffered):
    # 5000 rows (~0.8 MB) outrun the pipe's buffer, so the command is still
    # writing when the reader closes its end after the header, as `| head -1` does
    import os
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(NLED + ["profile", "--model", "born-infeld", "--E0", "1.0",
                                    "--points", "5000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"r_cm,")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_radius_of_a_model_without_one_exits_2():
    proc = run_cli("radius", "--model", "log-schroedinger")
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["kind"] == "UnsupportedModel"
    assert proc.stdout == ""


def test_radius_defaults_to_born_infeld():
    plain = json.loads(run_cli("radius", check=True).stdout)
    named = json.loads(run_cli("radius", "--model", "born-infeld", check=True).stdout)
    # the config hash covers the model, so only the provenance differs
    assert plain.pop("provenance")["config_hash"] != named.pop("provenance")["config_hash"]
    assert plain == named


@pytest.mark.parametrize("exc, code", [
    (NoSolution(2.0, 1.0), 3),
    (NumericalError("numerical"), 3),
    (ConfigurationError("configuration"), 2),
    (NledError("other"), 2),
])
def test_exit_code_follows_error_class(monkeypatch, capsys, exc, code):
    def fail(cfg):
        raise exc
    monkeypatch.setitem(cli._HANDLERS, "radius", fail)
    assert run(["radius"]) == code
    assert json.loads(capsys.readouterr().err)["kind"] == exc.kind

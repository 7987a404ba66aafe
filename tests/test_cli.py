import argparse
import json
import logging
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paramodes
from paramodes import fieldeval, numerics, rates
from paramodes.cli import main, RunConfig, build_parser, _load_config, _merge
from paramodes.io import (config_hash, format_float, write_csv,
                          write_json, write_npz)
from paramodes.presets import load_preset, preset_names

TINY_RATE = {
    "ion": {"name": "t", "mass_amu": 171.0, "wavelength_nm": 369.5},
    "dipole": [0.0, 0.0, 1.0],
    "trap": {"radial_khz": 230.0, "axial_khz": 480.0},
    "catalog": {"families": ["E m=0"], "kappa": {"values": [0.02, 0.5]}},
    "calibration_window": [120.0, 160.0, 20.0],
    "scan": {"z_min": -4.0, "z_max": 4.0, "z_step": 4.0},
}

TINY_MAP = {
    "mode": {"family": "E", "m": 0, "kappa": -0.64},
    "map": {"component": "z", "rho_max": 2.0, "n_rho": 3,
            "z_center": 1.28, "z_half_span": 2.0, "n_z": 3, "n_iso": 4},
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_bundled_presets_load():
    names = preset_names()
    assert {"ybII", "ybIII", "ybII-perp"} <= set(names)
    for name in names:
        cfg = RunConfig.from_dict(load_preset(name))
        assert cfg.raw["name"] == name


def test_unknown_preset_is_usage_error(capsys):
    assert main(["validate", "--preset", "definitely-not-a-preset"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_validate_ok():
    assert main(["validate", "--preset", "ybII"]) == 0


def test_validate_rejects_bad_scan(tmp_path, capsys):
    bad = dict(TINY_RATE, scan={"z_min": 5.0, "z_max": -5.0, "z_step": 1.0})
    cfg = _write(tmp_path, "bad.json", bad)
    assert main(["validate", "--config", cfg]) == 1
    assert "z_min" in capsys.readouterr().err


def test_config_reads_catalog_and_grids_through_the_library():
    cfg = RunConfig.from_dict(TINY_RATE)
    assert cfg.catalog == rates.build_catalog(cfg.catalog_rule, cfg.ion.omega)
    assert cfg.scan_grid.tolist() == [-4.0, 0.0, 4.0]
    # one-point grids, as rates.calibrate accepts them
    one = RunConfig.from_dict(dict(
        TINY_RATE, calibration_window=[140.0, 140.0, 5.0],
        scan={"z_min": 2.0, "z_max": 2.0, "z_step": 1.0}))
    assert one.window == (140.0, 140.0, 5.0)
    assert one.scan_grid.tolist() == [2.0]
    with pytest.raises(ValueError, match="calibration window"):
        RunConfig.from_dict(dict(TINY_RATE, calibration_window=[160, 120, 5]))
    with pytest.raises(ValueError, match="more than 100000 points"):
        RunConfig.from_dict(dict(
            TINY_RATE, scan={"z_min": 0.0, "z_max": 1e6, "z_step": 1.0}))
    with pytest.raises(ValueError, match="catalog section requires an ion"):
        RunConfig.from_dict({"catalog": TINY_RATE["catalog"]})


@pytest.mark.parametrize("payload, named", [
    (dict(TINY_RATE, ion={"name": "t", "wavelength_nm": 369.5}), "mass_amu"),
    (dict(TINY_RATE, trap=5), "trap section"),
    ([1, 2], "JSON object"),
    (dict(TINY_RATE, catalog={"families": ["E m=0"],
                              "kappa": {"values": [None]}}),
     "catalog.kappa.values"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"],
                                  weight={"amplitude": -2})),
     "catalog.weight.amplitude"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"], weight={"width": 0})),
     "catalog.weight.width"),
    (dict(TINY_RATE, trap=dict(TINY_RATE["trap"], center=[3, 0, 7])),
     "trap.center"),
    (dict(TINY_MAP, map=dict(TINY_MAP["map"], n_rho=1_000_000_000)), "n_rho"),
    (dict(TINY_MAP, map=dict(TINY_MAP["map"], n_iso=100_000)), "n_iso"),
    (_merge(load_preset("ybII"), {"trap": {"axial_khz": 1e-9}}),
     "trap too soft"),
    # int entries are not truncated, and JSON booleans are not numbers
    (dict(TINY_MAP, mode=dict(TINY_MAP["mode"], m=1.5)),
     "mode.m must be an integer, got 1.5"),
    (dict(TINY_MAP, map=dict(TINY_MAP["map"], n_rho=3.9)),
     "map.n_rho must be an integer, got 3.9"),
    (dict(TINY_MAP, map=dict(TINY_MAP["map"], n_z=True)),
     "map.n_z must be a finite number, got True"),
    (dict(TINY_RATE, ion=dict(TINY_RATE["ion"], mass_amu=True)),
     "ion.mass_amu must be a finite number, got True"),
    (dict(TINY_RATE, dipole=[0.0, False, 1.0]), "dipole must be a finite number"),
    # JSON strings are not numbers, except for complex coefficients and
    # dipole entries
    (dict(TINY_MAP, mode=dict(TINY_MAP["mode"], m="1")),
     "mode.m must be a finite number, got '1'"),
    (dict(TINY_MAP, mode=dict(TINY_MAP["mode"], kappa="-0.64")),
     "mode.kappa must be a finite number, got '-0.64'"),
    (dict(TINY_MAP, map=dict(TINY_MAP["map"], n_rho="3")),
     "map.n_rho must be a finite number, got '3'"),
    (dict(TINY_RATE, dipole=[0.0, "one", 1.0]),
     "dipole must be a finite number"),
    # family labels: malformed ones and a (family, m) listed twice
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"], families=["E m=x"])),
     "unrecognized family label 'E m=x'"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"],
                                  families=["E |m|=1.5"])),
     "unrecognized family label 'E |m|=1.5'"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"], families=["E m="])),
     "unrecognized family label 'E m='"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"],
                                  families=["E m=0", "E m=0"])),
     "family E m=0 is listed twice"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"],
                                  families=["E |m|=1", "E m=1"])),
     "family E m=1 is listed twice"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"], families=["E |m|=0"])),
     "|m| must be positive in 'E |m|=0'"),
    # map entries outside their ranges
    (dict(TINY_MAP, map=dict(TINY_MAP["map"], component="x")),
     "map component must be"),
    (dict(TINY_MAP, map=dict(TINY_MAP["map"], n_rho=1)), ">= 2 points"),
    # a misspelled key is named, not replaced by its default: each overlay
    # below once validated and kept the preset's value
    (_merge(load_preset("ybII"),
            {"catalog": {"weight": {"amplitud": 5.0, "width": 8.0}}}),
     "unknown key 'amplitud' in catalog.weight"),
    (_merge(load_preset("ybII"), {"calibraton_window": [100, 120, 5]}),
     "unknown key 'calibraton_window' in the configuration"),
    (_merge(load_preset("fig1a"), {"map": {"n_rhoo": 3}}),
     "unknown key 'n_rhoo' in map"),
    (dict(TINY_RATE, ion=dict(TINY_RATE["ion"], mass=171.0)),
     "unknown key 'mass' in ion"),
    (dict(TINY_RATE, trap=dict(TINY_RATE["trap"], axial=480.0)),
     "unknown key 'axial' in trap"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"], family=["E m=0"])),
     "unknown key 'family' in catalog"),
    (dict(TINY_RATE, catalog=dict(TINY_RATE["catalog"],
                                  kappa={"value": [0.5]})),
     "unknown key 'value' in catalog.kappa"),
    (dict(TINY_RATE, scan=dict(TINY_RATE["scan"], zstep=1.0)),
     "unknown key 'zstep' in scan"),
    (dict(TINY_MAP, mode=dict(TINY_MAP["mode"], kapa=0.5)),
     "unknown key 'kapa' in mode"),
])
def test_malformed_config_is_named_failure(tmp_path, capsys, payload, named):
    cfg = _write(tmp_path, "bad.json", payload)
    assert main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    if named == "trap too soft":  # rate commands fail before calibrating
        out = str(tmp_path / "scan.csv")
        assert main(["rate-scan", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


def test_complex_coefficients_may_be_strings(tmp_path):
    payload = dict(TINY_MAP, mode=dict(TINY_MAP["mode"],
                                       coeffs=["1+2j", -1.0, "0"]))
    assert main(["validate", "--config", _write(tmp_path, "c.json",
                                                payload)]) == 0
    assert RunConfig.from_dict(payload).mode.coeffs == (1 + 2j, -1, 0)


def test_circular_dipole_may_be_strings(tmp_path, capsys):
    r = 1 / 2 ** 0.5
    circ = dict(TINY_RATE, dipole=[r, f"{r!r}j", 0.0])
    cfg = _write(tmp_path, "circ.json", circ)
    out = tmp_path / "perp.json"
    assert main(["perp-decomposition", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["total"] > 0
    assert RunConfig.from_dict(circ).dipole.sigma_weight(-1) \
        == pytest.approx(0.5, rel=1e-15)
    capsys.readouterr()
    bad = _write(tmp_path, "bad.json", dict(TINY_RATE, dipole=[r, "1j", 0.0]))
    assert main(["validate", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert "must be a unit vector" in err and "Traceback" not in err


def test_tolerance_reaches_the_rate_quadrature(caplog, capsys):
    caplog.set_level(logging.INFO, logger="paramodes")

    def series_terms(argv):
        caplog.clear()
        assert main(argv) == 0
        return [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("rate series terms")]

    default = series_terms(["validate", "--preset", "ybII"])
    loose = series_terms(["validate", "--preset", "ybII", "--tolerance", "1e-3"])
    assert len(default) == len(loose) == 1 and default != loose
    capsys.readouterr()
    # also on a configuration without a catalog, where validate runs no
    # quadrature
    for preset in ("ybII", "fig1a"):
        assert main(["validate", "--preset", preset,
                     "--tolerance", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "rel_tol" in err and "Traceback" not in err


def test_tolerance_below_round_off_fails_before_any_quadrature(
        tmp_path, capsys, monkeypatch):
    # such a tolerance could only fail after every doubling up to MAX_PANELS
    def unreachable(*args):
        raise AssertionError("quadrature started for an unreachable tolerance")
    monkeypatch.setattr(fieldeval, "refine", unreachable)
    out = tmp_path / "map.csv"
    assert main(["field-map", "--preset", "fig1b", "--tolerance", "1e-16",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "rel_tol" in err and "Traceback" not in err
    assert not out.exists()


def test_threads_only_on_commands_that_read_it():
    parser = build_parser()
    # every subcommand's options beyond --preset, --config and --tolerance,
    # with their defaults; --out is required where it exists
    options = {
        "field-map": {"out": None},
        "rate-scan": {"out": None, "threads": 1},
        "mode-table": {"out": None, "threads": 1, "z": 0.0},
        "perp-decomposition": {"out": None, "threads": 1, "z": 0.0},
        "isosurface": {"out": None, "level": 0.5},
        "validate": {},
    }
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(options)
    for command, extra in options.items():
        want = dict(command=command, list_presets=False, preset=None,
                    config=None, tolerance=None, **extra)
        argv = [command]
        if "out" in extra:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            argv += ["--out", "x"]
            want["out"] = "x"
        # repr tells a default of 0 from 0.0
        assert repr(sorted(vars(parser.parse_args(argv)).items())) \
            == repr(sorted(want.items()))
        for option, default in extra.items():
            if default is not None:  # each value takes its default's type
                value = getattr(parser.parse_args(argv + [f"--{option}", "2"]),
                                option)
                assert repr(value) == repr(type(default)(2))
    for argv in (["field-map", "--out", "x"], ["isosurface", "--out", "x"],
                 ["validate"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--threads", "2"])


def test_oracles_stay_out_of_production_imports():
    # nor does scipy load: only field evaluations import scipy.special
    src = os.path.dirname(os.path.dirname(paramodes.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import paramodes, paramodes.cli; "
            "print('paramodes.oracles' in sys.modules, "
            "[m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False []"


def test_config_overlay_merges_into_preset_sections(tmp_path):
    cfg = _write(tmp_path, "axial.json", {"trap": {"axial_khz": 500.0}})
    argv = ["validate", "--preset", "ybII", "--config", cfg]
    assert main(argv) == 0
    merged = _load_config(build_parser().parse_args(argv))
    preset = RunConfig.from_dict(load_preset("ybII"))
    assert merged.eta.eta_x == preset.eta.eta_x
    assert merged.eta.eta_z != preset.eta.eta_z


# configuration fuzzing: JSON-like values under the keys the loader reads,
# each object's keys drawn from its own section's names, so that examples
# get past the unknown-key checks to the entry readers
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6)
           | st.sampled_from(["E", "B", "E m=0", "B |m|=1", "z", "total"]))
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=6),
    max_leaves=20)
_TRIPLE = st.lists(_LEAVES, min_size=3, max_size=3) | _JSON


def _object(keys):
    """Objects with some of `keys`, each holding values of its strategy; a
    nested dict of keys is a section, such an object or any JSON value."""
    return st.fixed_dictionaries({}, optional={
        key: _object(sub) | _JSON if isinstance(sub, dict) else sub
        for key, sub in keys.items()})


_CONFIG = _object({
    "name": _JSON, "description": _JSON, "dipole": _TRIPLE,
    "calibration_window": _TRIPLE,
    "ion": dict.fromkeys(["name", "mass_amu", "wavelength_nm"], _JSON),
    "trap": {"radial_khz": _JSON, "axial_khz": _JSON, "center": _TRIPLE},
    "catalog": {
        "families": _JSON, "coeffs": _TRIPLE,
        "kappa": dict.fromkeys(["values", "start", "step_inner", "transition",
                                "step_outer", "max"], _JSON),
        "weight": dict.fromkeys(["amplitude", "width"], _JSON)},
    "scan": dict.fromkeys(["z_min", "z_max", "z_step"], _JSON),
    "mode": {"family": _JSON, "m": _JSON, "kappa": _JSON, "coeffs": _TRIPLE},
    "map": dict.fromkeys(["component", "rho_max", "n_rho", "z_center",
                          "z_half_span", "n_z", "n_iso"], _JSON),
})


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(preset=st.sampled_from([None, "ybII", "fig1a"]),
       payload=_CONFIG)
def test_validate_fuzzed_config_exits_cleanly(preset, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        argv = ["validate", "--config", path]
        if preset:
            argv += ["--preset", preset]
        assert main(argv) in (0, 1, 2)


def test_readme_library_example_runs():
    # the README's `## Library` python block, as a user would paste it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("command, preset, overlay", [
    ("field-map", "fig1a", {"mode": {"kappa": 3e6}}),
    ("rate-scan", "ybII", {"calibration_window": [1e9, 1.00000004e9, 5e6]}),
    # finite requests whose oscillation count overflows to inf
    ("field-map", "fig1a", {"mode": {"kappa": 1e308}}),
    ("field-map", "fig1a", {"map": {"rho_max": 1e308}}),
    ("rate-scan", "ybII", {"catalog": {"kappa": {"values": [1e307]}}}),
])
def test_oversized_grid_is_named_failure(tmp_path, capsys, monkeypatch,
                                         recwarn, command, preset, overlay):
    # each configuration validates; the panel cap stops the command before
    # a node is built, where uncapped, its first grid asks for gigabytes
    def no_nodes(*args):
        raise AssertionError("window_nodes ran for an oversized grid")

    monkeypatch.setattr(numerics, "window_nodes", no_nodes)
    out = tmp_path / "out.csv"
    config = _write(tmp_path, "big.json", overlay)
    assert main(["validate", "--preset", preset, "--config", config]) == 0
    assert main([command, "--preset", preset, "--out", str(out), "--config",
                 config]) == 1
    err = capsys.readouterr().err
    assert "phase oscillations need a first grid" in err
    assert "MAX_PANELS" in err and "Traceback" not in err
    assert not re.search(r"\d{21}", err)  # panel counts print as .4g
    assert not [w for w in recwarn if w.category is RuntimeWarning]
    assert not out.exists()


def test_oversized_rate_request_fails_before_calibrating(tmp_path):
    # |z| = 1e5 needs a first grid above the panel cap; the command says so
    # before it calibrates, so no calibration constant is logged
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for command, preset in (("mode-table", "ybII"),
                            ("perp-decomposition", "ybII-perp")):
        out = tmp_path / f"{command}.out"
        run = subprocess.run(
            [sys.executable, "-m", "paramodes.cli", command, "--preset",
             preset, "--z", "1e5", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 1, run.stderr
        assert "MAX_PANELS" in run.stderr
        assert "calibration constant" not in run.stderr
        assert "Traceback" not in run.stderr
        assert not out.exists()


def test_failed_field_quadrature_exits_1_and_writes_no_file(
        tmp_path, capsys, monkeypatch):
    # a first grid far too coarse for the phase, and no doubling past the
    # grid that checks it
    monkeypatch.setattr(numerics, "PANELS_PER_OSCILLATION", 0.1)
    monkeypatch.setattr(numerics, "MAX_PANELS", 2 * numerics.MIN_PANELS)
    payload = {"mode": dict(TINY_MAP["mode"], kappa=-10.4),
               "map": dict(TINY_MAP["map"], z_center=21.0, z_half_span=3.0)}
    cfg = _write(tmp_path, "map.json", payload)
    for command in ("field-map", "isosurface"):
        out = tmp_path / f"{command}.out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "did not converge" in err and "residual estimate" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_missing_section_is_failure(tmp_path, capsys):
    # the error names the JSON section, not the attribute it sets
    cfg = _write(tmp_path, "nomap.json", {"mode": TINY_MAP["mode"]})
    out = str(tmp_path / "x.csv")
    assert main(["field-map", "--config", cfg, "--out", out]) == 1
    assert "needs a 'map' section" in capsys.readouterr().err
    assert main(["rate-scan", "--preset", "fig1a", "--out", out]) == 1
    assert "needs a 'scan' section" in capsys.readouterr().err
    for section in ("trap", "calibration_window"):
        cfg = _write(tmp_path, "rate.json", {k: v for k, v in TINY_RATE.items()
                                             if k != section})
        assert main(["mode-table", "--config", cfg, "--out", out]) == 1
        assert f"needs a {section!r} section" in capsys.readouterr().err


def test_zero_catalog_cannot_calibrate(tmp_path, capsys):
    # a catalog of zero coefficients validates, but has no far-field rate
    # to calibrate on
    cfg = _write(tmp_path, "zero.json", dict(
        TINY_RATE, catalog=dict(TINY_RATE["catalog"], coeffs=[0, 0, 0])))
    assert main(["validate", "--config", cfg]) == 0
    out = tmp_path / "scan.csv"
    assert main(["rate-scan", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "far-field window mean 0.0 cannot calibrate" in err
    assert "Traceback" not in err and not out.exists()


def test_field_map_output(tmp_path):
    cfg = _write(tmp_path, "map.json", TINY_MAP)
    out = tmp_path / "map.csv"
    assert main(["field-map", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("config_sha256" in l for l in meta)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "z,rho,relative_intensity"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 9
    vals = [float(r.split(",")[2]) for r in data]
    assert max(vals) == pytest.approx(1.0)


def test_field_map_deterministic(tmp_path):
    cfg = _write(tmp_path, "map.json", TINY_MAP)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["field-map", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["field-map", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rate_scan_output(tmp_path):
    cfg = _write(tmp_path, "rate.json", TINY_RATE)
    out = tmp_path / "scan.csv"
    assert main(["rate-scan", "--config", cfg, "--out", str(out),
                 "--threads", "2"]) == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.split(",") == ["z", "total", "E m=0"]
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert [float(r[0]) for r in rows] == [-4.0, 0.0, 4.0]
    for r in rows:
        assert float(r[1]) > 0
        assert float(r[1]) == pytest.approx(float(r[2]), rel=1e-15)


def test_mode_table_output(tmp_path):
    cfg = _write(tmp_path, "rate.json", TINY_RATE)
    out = tmp_path / "table.csv"
    assert main(["mode-table", "--config", cfg, "--out", str(out),
                 "--z", "1.0"]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert len(rows) == 2
    assert [float(r[2]) for r in rows] == [0.02, 0.5]
    assert sum(float(r[4]) for r in rows) == pytest.approx(1.0, rel=1e-12)


def test_perp_decomposition_output(tmp_path, capsys):
    tiny = dict(TINY_RATE,
                dipole=[1.0, 0.0, 0.0],
                catalog={"families": ["E |m|=1", "B |m|=1", "B m=0"],
                         "kappa": {"values": [0.02, 0.5]}})
    cfg = _write(tmp_path, "perp.json", tiny)
    out = tmp_path / "perp.json.out"
    assert main(["perp-decomposition", "--config", cfg, "--out", str(out),
                 "--z", "0.0"]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["families"]) == {"E |m|=1", "B |m|=1", "B m=0"}
    assert payload["total"] == pytest.approx(sum(payload["families"].values()), rel=1e-12)


def test_rate_paths_build_no_mode_rows(tmp_path, monkeypatch):
    # per-mode records are built only when a caller reads RateResult.rows
    def no_rows(*args):
        raise AssertionError("a ModeRate was built")

    monkeypatch.setattr(rates, "ModeRate", no_rows)
    cfg = RunConfig.from_dict(TINY_RATE)
    cat = rates.calibrate(rates.build_catalog(cfg.catalog_rule, cfg.ion.omega),
                          cfg.dipole, cfg.eta, cfg.window)
    rates.rate_scan(cat, cfg.dipole, cfg.eta, cfg.scan_grid, threads=2)
    rates.total_rate(cat, cfg.dipole, cfg.eta, 1.0)
    rates.mode_table(cat, cfg.dipole, cfg.eta, 1.0)
    path = _write(tmp_path, "rate.json", TINY_RATE)
    for command in ("rate-scan", "mode-table", "perp-decomposition"):
        assert main([command, "--config", path,
                     "--out", str(tmp_path / command)]) == 0


@pytest.mark.parametrize("command", ["mode-table", "perp-decomposition"])
def test_threads_reach_the_single_z_query(tmp_path, monkeypatch, command):
    # calibrate and the query each make one rate_scan call
    seen = []
    real = rates.rate_scan

    def recording(catalog, dipole, eta, z_values, cfg, threads=1):
        seen.append(threads)
        return real(catalog, dipole, eta, z_values, cfg, threads)

    monkeypatch.setattr(rates, "rate_scan", recording)
    path = _write(tmp_path, "rate.json", TINY_RATE)
    assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                 "--z", "1.0", "--threads", "2"]) == 0
    assert seen == [2, 2]


@pytest.mark.parametrize("command", ["mode-table", "perp-decomposition"])
@pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
def test_non_finite_z_is_named_failure(tmp_path, capsys, monkeypatch,
                                       command, z):
    def unreachable(*args, **kwargs):
        raise AssertionError("calibrate ran for a non-finite --z")

    monkeypatch.setattr("paramodes.cli.calibrate", unreachable)
    out = str(tmp_path / "out")
    assert main([command, "--preset", "ybII", "--out", out, f"--z={z}"]) == 1
    err = capsys.readouterr().err
    assert "--z" in err and "finite" in err and "Traceback" not in err


def test_isosurface_output(tmp_path):
    cfg = _write(tmp_path, "map.json", TINY_MAP)
    out = tmp_path / "iso.npz"
    assert main(["isosurface", "--config", cfg, "--out", str(out),
                 "--level", "0.4"]) == 0
    data = np.load(out)
    grid = data["intensity"]
    assert grid.shape == (4, 4, 4)
    assert float(data["threshold"]) == pytest.approx(0.4 * grid.max())
    meta = json.loads(str(data["metadata_json"]))
    assert meta["level"] == 0.4


def test_list_presets(capsys):
    assert main(["--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "ybII" in out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_config_hash_is_canonical():
    a = {"x": 1, "y": [1.5, 2.0]}
    b = {"y": [1.5, 2.0], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64


def test_format_float_round_trips():
    for x in (0.1, 1.2800000000000002, 1e-300, 123456.789):
        assert float(format_float(x)) == x
    assert format_float(3) == "3"


def test_write_csv_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [(0.1, "E", 2), (0.2, "B", 3)]
    for p in (p1, p2):
        write_csv(str(p), ("x", "fam", "n"), rows, metadata={"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith("# k: v\nx,fam,n\n0.1,E,2\n")


@pytest.mark.parametrize("umask, want", [(0o022, 0o644), (0o077, 0o600)])
def test_result_files_take_the_umask(tmp_path, umask, want):
    # the writers create files as open() does, with 0o666 less the umask;
    # a failed write, here a rename onto a directory, leaves no temp file
    (tmp_path / "taken").mkdir()
    old = os.umask(umask)
    try:
        write_json(str(tmp_path / "a.json"), {"k": 1})
        write_csv(str(tmp_path / "b.csv"), ("x",), [(0.5,)])
        write_npz(str(tmp_path / "c.npz"), x=np.zeros(2))
        with pytest.raises(OSError):
            write_json(str(tmp_path / "taken"), {"k": 1})
    finally:
        os.umask(old)
    names = ["a.json", "b.csv", "c.npz"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names + ["taken"]
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == want

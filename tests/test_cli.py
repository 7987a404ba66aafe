import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paramodes.cli import main, RunConfig, build_parser, _load_config
from paramodes.io import config_hash, format_float, write_csv
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


@pytest.mark.parametrize("payload, named", [
    (dict(TINY_RATE, ion={"name": "t", "wavelength_nm": 369.5}), "mass_amu"),
    (dict(TINY_RATE, trap=5), "trap section"),
    ([1, 2], "JSON object"),
    (dict(TINY_RATE, catalog={"families": ["E m=0"],
                              "kappa": {"values": [None]}}),
     "catalog.kappa.values"),
])
def test_malformed_config_is_named_failure(tmp_path, capsys, payload, named):
    cfg = _write(tmp_path, "bad.json", payload)
    assert main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_config_overlay_merges_into_preset_sections(tmp_path):
    cfg = _write(tmp_path, "axial.json", {"trap": {"axial_khz": 500.0}})
    argv = ["validate", "--preset", "ybII", "--config", cfg]
    assert main(argv) == 0
    merged, _ = _load_config(build_parser().parse_args(argv))
    preset = RunConfig.from_dict(load_preset("ybII"))
    assert merged.eta.eta_x == preset.eta.eta_x
    assert merged.eta.eta_z != preset.eta.eta_z


# configuration fuzzing: JSON-like values under the keys the loader reads
_KEYS = st.sampled_from([
    "ion", "dipole", "trap", "catalog", "calibration_window", "scan", "mode",
    "map", "name", "mass_amu", "wavelength_nm", "radial_khz", "axial_khz",
    "center", "families", "kappa", "values", "start", "step_inner",
    "transition", "step_outer", "max", "weight", "amplitude", "width",
    "coeffs", "z_min", "z_max", "z_step", "family", "m", "component",
    "rho_max", "n_rho", "z_center", "z_half_span", "n_z", "n_iso",
]) | st.text(max_size=4)
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6)
           | st.sampled_from(["E", "B", "E m=0", "B |m|=1", "z", "total"]))
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=6),
    max_leaves=20)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(preset=st.sampled_from([None, "ybII", "fig1a"]),
       payload=st.dictionaries(_KEYS, _JSON, max_size=8) | st.lists(_JSON, max_size=3))
def test_validate_fuzzed_config_exits_cleanly(preset, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        argv = ["validate", "--config", path]
        if preset:
            argv += ["--preset", preset]
        assert main(argv) in (0, 1, 2)


def test_missing_section_is_failure(tmp_path, capsys):
    cfg = _write(tmp_path, "nomap.json", {"mode": TINY_MAP["mode"]})
    out = str(tmp_path / "x.csv")
    assert main(["field-map", "--config", cfg, "--out", out]) == 1


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

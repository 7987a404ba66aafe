"""Command-line driver: presets or JSON configs in, CSV/JSON/NPZ files out.

Exit codes: 0 success, 1 invalid configuration or failed computation,
2 command-line usage errors (including unknown preset names).
"""

import argparse
import json
import logging
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    IonSpec, DipoleSpec, ModeParams, ATOMIC_MASS, DEFAULT_COEFFS,
    E_MODE, B_MODE, section, known_keys, entry, number, vector,
)
from .trap import LambDicke
from .rates import (
    MAX_GRID, ModeCatalog, build_catalog, calibrate, rate_scan, total_rate,
    mode_table, rate_grid, series_rows, z_grid,
)
from .fieldeval import _COMPONENTS, intensity_map, isointensity_grid
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, QuadratureError
from .presets import load_preset, preset_names
from .io import write_csv, write_json, write_npz, config_hash

log = logging.getLogger("paramodes")

_KHZ = 2.0 * np.pi * 1e3  # secular frequencies are quoted in kHz


class UsageError(Exception):
    """Command-line usage error, such as an unknown preset name (exit 2)."""


@dataclass
class RunConfig:
    """Validated run description; sections are optional per command, and
    every section, like the top level, rejects a key it does not read."""

    raw: dict
    ion: IonSpec = None
    dipole: DipoleSpec = None
    eta: LambDicke = None
    catalog_rule: dict = None
    catalog: ModeCatalog = None  # built from catalog_rule at the ion's omega
    window: tuple = None
    scan_grid: np.ndarray = None
    mode: ModeParams = None
    map_spec: dict = None

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ValueError("configuration must be a JSON object")
        known_keys(raw, "the configuration",
                   ("name", "description", "ion", "dipole", "trap", "catalog",
                    "calibration_window", "scan", "mode", "map"))
        cfg = cls(raw=raw)
        ion = section(raw, "ion", ("name", "mass_amu", "wavelength_nm"))
        if ion is not None:
            cfg.ion = IonSpec(
                name=str(ion.get("name", "ion")),
                mass=entry(ion, "ion", "mass_amu") * ATOMIC_MASS,
                transition_wavelength=entry(ion, "ion", "wavelength_nm") * 1e-9,
            )
        if "dipole" in raw:
            cfg.dipole = DipoleSpec(
                vector(raw["dipole"], "dipole", 3, complex))
        trap = section(raw, "trap", ("radial_khz", "axial_khz", "center"))
        if trap is not None:
            if cfg.ion is None:
                raise ValueError("trap section requires an ion section")
            radial = entry(trap, "trap", "radial_khz") * _KHZ
            axial = entry(trap, "trap", "axial_khz") * _KHZ
            center = vector(trap.get("center", (0, 0, 0)), "trap.center", 3)
            if any(center):
                raise ValueError(
                    "trap.center must be [0, 0, 0]: no engine reads an "
                    "off-origin center; rate commands scan z on the axis "
                    "through the 'scan' section or --z")
            cfg.eta = LambDicke.from_trap(cfg.ion.omega, cfg.ion.mass,
                                          radial, axial)
        cfg.catalog_rule = section(raw, "catalog")
        if cfg.catalog_rule is not None:
            if cfg.ion is None:
                raise ValueError("catalog section requires an ion section")
            cfg.catalog = build_catalog(cfg.catalog_rule, cfg.ion.omega)
        if "calibration_window" in raw:
            cfg.window = vector(raw["calibration_window"],
                                "calibration_window", 3)
            z_grid(cfg.window, "calibration window (start, stop, step)")
        scan = section(raw, "scan", ("z_min", "z_max", "z_step"))
        if scan is not None:
            cfg.scan_grid = z_grid(
                [entry(scan, "scan", k) for k in ("z_min", "z_max", "z_step")],
                "scan (z_min, z_max, z_step)")
        mode = section(raw, "mode", ("family", "m", "kappa", "coeffs"))
        if mode is not None:
            fam = mode.get("family")
            if fam not in (E_MODE, B_MODE):
                raise ValueError(f"unknown mode family {fam!r}")
            omega = cfg.ion.omega if cfg.ion is not None else 1.0
            cfg.mode = ModeParams(
                omega=omega, m=entry(mode, "mode", "m", int),
                kappa=entry(mode, "mode", "kappa"), family=fam,
                coeffs=vector(mode.get("coeffs", DEFAULT_COEFFS),
                              "mode.coeffs", 3, complex))
        mp = section(raw, "map", ("component", "rho_max", "n_rho", "z_center",
                                  "z_half_span", "n_z", "n_iso"))
        if mp is not None:
            spec = {
                "component": str(mp.get("component", "z")),
                "rho_max": entry(mp, "map", "rho_max", default=8.0),
                "n_rho": entry(mp, "map", "n_rho", int, 81),
                "z_center": entry(mp, "map", "z_center"),
                "z_half_span": entry(mp, "map", "z_half_span", default=12.0),
                "n_z": entry(mp, "map", "n_z", int, 121),
                "n_iso": entry(mp, "map", "n_iso", int, 25),
            }
            if spec["component"] not in _COMPONENTS:
                raise ValueError(
                    f"map component must be one of {list(_COMPONENTS)}")
            if min(spec["n_rho"], spec["n_z"], spec["n_iso"]) < 2 \
                    or spec["rho_max"] <= 0 or spec["z_half_span"] <= 0:
                raise ValueError("map grid must have positive extent and >= 2 points")
            if spec["n_z"] * spec["n_rho"] > MAX_GRID:
                raise ValueError(f"map grid n_z * n_rho exceeds {MAX_GRID} points")
            if spec["n_iso"] ** 3 > MAX_GRID:
                raise ValueError(f"map grid n_iso^3 exceeds {MAX_GRID} points")
            cfg.map_spec = spec
        return cfg

    def require(self, *sections):
        """Raise a ValueError naming the first configuration section of
        `sections` that the configuration lacks."""
        for name in sections:
            if self.raw.get(name) is None:
                raise ValueError(f"this command needs a {name!r} section "
                                 "in the configuration")


def _merge(base, overlay):
    """overlay over base; objects present in both merge key by key."""
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _merge(out[key], value)
        out[key] = value
    return out


def _load_config(args):
    raw = {}
    if args.preset:
        try:
            raw = load_preset(args.preset)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    if args.config:
        with open(args.config) as fh:
            overlay = json.load(fh)
        if not isinstance(overlay, dict):
            raise ValueError("--config must hold a JSON object")
        raw = _merge(raw, overlay)
    if not raw:
        raise ValueError("provide --preset and/or --config")
    return RunConfig.from_dict(raw)


def _log_catalog(cfg, quad):
    """Log the configured catalog, and its rate-series terms when the
    configuration has a dipole and a trap."""
    log.info("catalog: %d modes over %s", len(cfg.catalog.modes),
             ", ".join(cfg.catalog.family_labels))
    if cfg.dipole is not None and cfg.eta is not None:
        # a trap too soft for the rate series fails here, before calibrating
        log.info("rate series terms per winding |m - sigma|: %s",
                 series_rows(cfg.catalog, cfg.dipole, cfg.eta, quad))


def _calibrated_catalog(cfg, args, quad, z_values):
    """The configured catalog calibrated over its window, once the request
    at z_values has a first grid under the panel cap."""
    _log_catalog(cfg, quad)
    # an oversized request fails here, not after the calibration
    rate_grid([mode.kappa for mode in cfg.catalog.modes], z_values)
    catalog = calibrate(cfg.catalog, cfg.dipole, cfg.eta, cfg.window, quad,
                        threads=args.threads)
    log.info("calibration constant C = %.9g (window %s)",
             catalog.calibration, cfg.window)
    return catalog


def _map_z(mp, n):
    """The map's z axis: n points over z_center +- z_half_span."""
    return np.linspace(mp["z_center"] - mp["z_half_span"],
                       mp["z_center"] + mp["z_half_span"], n)


def cmd_field_map(cfg, quad, args):
    mp = cfg.map_spec
    rho = np.linspace(0.0, mp["rho_max"], mp["n_rho"])
    zs = _map_z(mp, mp["n_z"])
    grid, _ = intensity_map(cfg.mode, mp["component"], rho, zs, quad)
    rows = [(zs[i], rho[j], grid[i, j])
            for i in range(len(zs)) for j in range(len(rho))]
    write_csv(args.out, ("z", "rho", "relative_intensity"), rows,
              metadata={"config_sha256": config_hash(cfg.raw),
                        "component": mp["component"]})
    log.info("wrote %s (%d rows)", args.out, len(rows))


def cmd_rate_scan(cfg, quad, args):
    catalog = _calibrated_catalog(cfg, args, quad, cfg.scan_grid)
    results = rate_scan(catalog, cfg.dipole, cfg.eta, cfg.scan_grid, quad,
                        threads=args.threads)
    labels = catalog.family_labels
    rows = []
    for r in results:
        fam = dict(r.family_totals)
        rows.append((r.z, r.total) + tuple(fam[lab] for lab in labels))
    write_csv(args.out, ("z", "total") + labels, rows,
              metadata={"config_sha256": config_hash(cfg.raw),
                        "calibration": catalog.calibration,
                        "n_modes": len(catalog.modes)})
    log.info("wrote %s (%d rows)", args.out, len(rows))


def cmd_mode_table(cfg, quad, args):
    catalog = _calibrated_catalog(cfg, args, quad, [args.z])
    table = mode_table(catalog, cfg.dipole, cfg.eta, args.z, quad,
                       threads=args.threads)
    rows = [(t["family"], t["m"], t["kappa"], t["contribution"], t["fraction"])
            for t in table]
    write_csv(args.out, ("family", "m", "kappa", "contribution", "fraction"),
              rows, metadata={"config_sha256": config_hash(cfg.raw),
                              "z": args.z,
                              "calibration": catalog.calibration})
    log.info("wrote %s (%d modes)", args.out, len(rows))


def cmd_perp_decomposition(cfg, quad, args):
    catalog = _calibrated_catalog(cfg, args, quad, [args.z])
    result = total_rate(catalog, cfg.dipole, cfg.eta, args.z, quad,
                        threads=args.threads)
    payload = {
        "z": result.z,
        "total": result.total,
        "calibration": result.calibration,
        "families": {lab: sub for lab, sub in result.family_totals},
        "config_sha256": config_hash(cfg.raw),
    }
    write_json(args.out, payload)
    log.info("wrote %s (total %.6g)", args.out, result.total)


def cmd_isosurface(cfg, quad, args):
    mp = cfg.map_spec
    xy = np.linspace(-mp["rho_max"], mp["rho_max"], mp["n_iso"])
    zs = _map_z(mp, mp["n_iso"])
    grid, threshold = isointensity_grid(cfg.mode, args.level, xy, xy, zs, quad)
    write_npz(args.out, metadata={"config_sha256": config_hash(cfg.raw),
                                  "level": args.level},
              intensity=grid, x=xy, y=xy, z=zs,
              threshold=np.array(threshold))
    log.info("wrote %s (threshold %.6g)", args.out, threshold)


def cmd_validate(cfg, quad, args):
    if cfg.catalog is not None:
        _log_catalog(cfg, quad)
    print("configuration ok")


_RATE_SECTIONS = ("dipole", "trap", "catalog", "calibration_window")

# name: (command, help, configuration sections it needs, options beyond
# --preset, --config and --tolerance with their defaults; --out, whose
# default is None, is required)
_COMMANDS = {
    "field-map": (cmd_field_map, "component intensity on a (rho, z) grid",
                  ("mode", "map"), {"out": None}),
    "rate-scan": (cmd_rate_scan, "calibrated rate versus trap position",
                  ("scan",) + _RATE_SECTIONS, {"out": None, "threads": 1}),
    "mode-table": (cmd_mode_table, "per-mode contributions at one position",
                   _RATE_SECTIONS, {"out": None, "threads": 1, "z": 0.0}),
    "perp-decomposition": (
        cmd_perp_decomposition, "family-resolved totals at one position",
        _RATE_SECTIONS, {"out": None, "threads": 1, "z": 0.0}),
    "isosurface": (cmd_isosurface, "3D intensity grid with iso level",
                   ("mode", "map"), {"out": None, "level": 0.5}),
    "validate": (cmd_validate, "check a configuration without computing",
                 (), {}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="paramodes",
        description="Parabolic-mirror mode fields and trapped-ion emission rates")
    parser.add_argument("--list-presets", action="store_true",
                        help="print bundled preset names and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (_, text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--preset", help="bundled configuration name")
        p.add_argument("--config", help="JSON file merged over the preset")
        p.add_argument("--tolerance", type=float, default=None,
                       help="relative quadrature tolerance")
        for option, default in options.items():
            if default is None:
                p.add_argument(f"--{option}", required=True,
                               help="output file path")
            else:
                p.add_argument(f"--{option}", type=type(default),
                               default=default)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in preset_names():
            print(name)
        return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be >= 1")
    command, _, sections, _ = _COMMANDS[args.command]
    try:
        if hasattr(args, "z"):  # before calibrating, which a bad z would waste
            number(args.z, "--z")
        cfg = _load_config(args)
        cfg.require(*sections)
        quad = (DEFAULT_QUADRATURE if args.tolerance is None
                else QuadratureConfig(rel_tol=args.tolerance))
        command(cfg, quad, args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, QuadratureError, ArithmeticError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

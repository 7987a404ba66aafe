"""Seeded inputs, pipelines and output checks of the benchmark workloads.

Each workload drives the public paramodes calls in the order the CLI uses
them: ``RunConfig.from_dict`` -> ``build_catalog`` -> ``calibrate`` -> rate
or field calls -> ``io`` writers.  Inputs come only from the seed and the
bundled presets; the package sees nothing but the generated configuration.

A workload has two sizes: ``bench`` is what the timed loop runs, ``anchor``
is a small input made from seed 0 that is checked for byte-identical output
across thread and BLAS settings and against frozen reference values.
"""

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from paramodes import (
    build_catalog, calibrate, rate_scan, total_rate, mode_table,
    intensity_map, isointensity_grid, load_preset,
)
from paramodes import io as pio
from paramodes.cli import RunConfig
from paramodes.core import SIGMAS
from paramodes.fieldeval import axis_intensity_scan
from paramodes.rates import build_ladder

NPROC = len(os.sched_getaffinity(0))
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
HELD_OUT_SEED = 7919    # frozen, but never used while tuning a change
FROZEN_SEEDS = (0, HELD_OUT_SEED)
FOCAL_KAPPA = 0.02
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
REL_TOL = 1e-9          # reference comparisons, relative to total or max
ISO_LEVEL = 0.5
# Each workload's tail_percentile is the percentile query_tail_s reports:
# the highest whole one with at least ten queries beyond it in a 25 s window
# at the commit that introduced the benchmark.  It is fixed so that two
# commits compare the same percentile however many queries fit their window.


# ---------------------------------------------------------------- inputs

def kappa_ladder(rule):
    return build_ladder(float(rule.get("start", 0.0)), float(rule["step_inner"]),
                        float(rule["transition"]), float(rule["step_outer"]),
                        float(rule["max"]))


def stratified_kappas(ladder, n_bands, rng, kappa_max=None):
    """The focal kappa plus one ladder kappa from each of n_bands
    equal-count |kappa| bands.

    Band b draws from the positive side of the ladder when b is even and
    from the negative side when b is odd, each side cut into n_bands
    equal-count bands.  A fixed sign pattern keeps the order of the tasks
    the thread pool receives (catalog order, by signed kappa) the same for
    every seed.  The position inside each band is a seeded permutation of
    the band midpoints (b + 1/2) / n_bands, so which modes are drawn changes
    with the seed while sum |kappa|, which sets the rate cost, barely moves.
    """
    sides = [sorted(s * k for k in ladder if k != FOCAL_KAPPA and s * k > 0
                    and (kappa_max is None or abs(k) <= kappa_max))
             for s in (1, -1)]
    if min(len(side) for side in sides) < n_bands:
        raise ValueError("fewer ladder modes than bands")
    slots = (rng.permutation(n_bands) + 0.5) / n_bands
    picks = []
    for b in range(n_bands):
        side = sides[b % 2]
        edges = np.linspace(0, len(side), n_bands + 1)
        mag = side[int(edges[b] + slots[b] * (edges[b + 1] - edges[b]))]
        picks.append(mag if b % 2 == 0 else -mag)
    return sorted([FOCAL_KAPPA] + picks)


def golden_points(lo, hi, start, count, offset):
    """Points start .. start+count-1 of the additive golden-ratio sequence
    on [lo, hi] with a seeded offset in [0, 1): every prefix of the
    sequence is spread almost evenly over the interval."""
    return [float(lo + (hi - lo) * ((offset + i * GOLDEN) % 1.0))
            for i in range(start, start + count)]


def file_digests(path):
    """sha256 of every file in a directory, by file name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@dataclass
class RunRecord:
    """What one timed run produced: per-query latencies, work and outputs."""

    queries: list = field(default_factory=list)   # seconds per query
    work: int = 0              # T entries (rate) or grid points (field)
    tasks: int = 0             # (mode, sigma) quadratures started
    bytes_written: int = 0
    outputs: dict = field(default_factory=dict)


def _write(tracer, rec, writer, path, *args, **kw):
    with tracer.span(f"io.{writer.__name__}"):
        writer(path, *args, **kw)
    rec.bytes_written += os.path.getsize(path)


# ------------------------------------------------------------- checking

class Checks:
    """Counts checked outputs; a failed one is kept with its label."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label} {detail}".strip())


def _close(a, b, scale):
    return abs(a - b) <= REL_TOL * scale


def rate_view(res):
    return {"z": res.z, "total": res.total,
            "families": dict(res.family_totals),
            "modes": [res.calibration * r.weighted for r in res.rows]}


def check_rate_result(checks, label, res):
    ts = [t for r in res.rows for t in r.t_sigma]
    checks.add(f"{label}.resummed", res.resummed_total() == res.total)
    checks.add(f"{label}.nonnegative",
               np.isfinite(res.total) and res.total > 0
               and all(np.isfinite(t) and t >= 0.0 for t in ts))


def compare_rate_view(checks, label, ref, got):
    """Totals, family subtotals and per-mode rows within REL_TOL of the
    total.  Rows below that floor are round-off (about 1e-27 for far
    modes) and move by large factors between equally valid grids, so they
    are not compared one by one."""
    scale = abs(ref["total"])
    ok = _close(ref["z"], got["z"], 1.0) and _close(ref["total"], got["total"], scale)
    ok = ok and ref["families"].keys() == got["families"].keys() and all(
        _close(v, got["families"][k], scale) for k, v in ref["families"].items())
    floor = REL_TOL * scale
    ok = ok and len(ref["modes"]) == len(got["modes"]) and all(
        max(abs(a), abs(b)) <= floor or _close(a, b, scale)
        for a, b in zip(ref["modes"], got["modes"]))
    checks.add(f"{label}.reference", ok)


def compare_array(checks, label, ref, got):
    ref = np.asarray(ref, dtype=float)
    got = np.asarray(got, dtype=float)
    ok = ref.shape == got.shape and bool(
        np.all(np.abs(ref - got) <= REL_TOL * np.max(np.abs(ref))))
    checks.add(f"{label}.reference", ok)


# ------------------------------------------------------------ workloads

class RateWorkload:
    """Shared set-up of the two rate workloads: one preset, one catalog."""

    def prepare(self, presets, seed, size, tracer):
        raw, extra = self.generate(presets, seed, size)
        with tracer.span("cli.config"):
            cfg = RunConfig.from_dict(raw)
        with tracer.span("rates.build_catalog"):
            catalog = build_catalog(cfg.catalog_rule, cfg.ion.omega)
        weights = [s for s in SIGMAS if cfg.dipole.sigma_weight(s) > 0.0]
        return {"raw": raw, "cfg": cfg, "catalog": catalog,
                "channels": len(weights), "extra": extra}

    def _calibrate(self, state, tracer, rec, threads):
        cfg, catalog = state["cfg"], state["catalog"]
        with tracer.span("rates.calibrate"):
            cat = calibrate(catalog, cfg.dipole, cfg.eta, cfg.window,
                            threads=threads)
        self._count(state, rec, len(self.window_z(cfg)))
        return cat

    def _count(self, state, rec, n_z):
        tasks = len(state["catalog"].modes) * state["channels"]
        rec.tasks += tasks
        rec.work += tasks * n_z

    @staticmethod
    def window_z(cfg):
        start, stop, step = cfg.window
        return np.arange(start, stop + step / 2, step)

    def repeat_key(self, rec, out_dir):
        """Every run repeats the same input, so its files must repeat."""
        return file_digests(out_dir)

    def window_check(self, checks, state, rec, threads):
        """The calibrated catalog averages to exactly one over the window."""
        cfg = state["cfg"]
        cat = rec.outputs["catalog"]
        res = rate_scan(cat, cfg.dipole, cfg.eta, self.window_z(cfg),
                        threads=threads)
        mean = float(np.mean([r.total for r in res]))
        checks.add("calibrate.window_mean", abs(mean - 1.0) <= 1e-12,
                   f"mean {mean!r}")

    def sizes(self, state):
        return {"modes": len(state["catalog"].modes),
                "sigma_channels": state["channels"],
                "kappas": sorted({m.kappa for m in state["catalog"].modes}),
                "window_points": len(self.window_z(state["cfg"]))}


class RateScan(RateWorkload):
    """``rate-scan`` on ybII: calibrate, scan a shifted 41-point z grid, CSV."""

    name = "rate-scan"
    presets = ("ybII",)
    tail_percentile = 20
    sizes_by_name = {
        "bench": {"bands": 6, "kappa_max": None, "z_stride": 1},
        "anchor": {"bands": 2, "kappa_max": 6.0, "z_stride": 4},
    }

    def generate(self, presets, seed, size):
        p = self.sizes_by_name[size]
        rng = np.random.default_rng([seed, 1])
        raw = presets["ybII"]
        kappas = stratified_kappas(kappa_ladder(raw["catalog"]["kappa"]),
                                   p["bands"], rng, p["kappa_max"])
        scan = raw["scan"]
        offset = float(rng.uniform(0.0, scan["z_step"]))
        raw = dict(raw, catalog=dict(raw["catalog"], kappa={"values": kappas}),
                   scan={"z_min": scan["z_min"] + offset,
                         "z_max": scan["z_max"] + offset,
                         "z_step": scan["z_step"] * p["z_stride"]})
        return raw, None

    def run(self, state, tracer, out_dir, threads=NPROC, run_index=0):
        rec = RunRecord()
        t0 = time.perf_counter()
        cfg = state["cfg"]
        cat = self._calibrate(state, tracer, rec, threads)
        with tracer.span("rates.rate_scan"):
            results = rate_scan(cat, cfg.dipole, cfg.eta, cfg.scan_grid,
                                threads=threads)
        self._count(state, rec, len(cfg.scan_grid))
        labels = cat.family_labels
        rows = [(r.z, r.total) + tuple(dict(r.family_totals)[lab] for lab in labels)
                for r in results]
        with tracer.span("io.config_hash"):
            sha = pio.config_hash(state["raw"])
        _write(tracer, rec, pio.write_csv, os.path.join(out_dir, "scan.csv"),
               ("z", "total") + labels, rows,
               metadata={"config_sha256": sha, "calibration": cat.calibration,
                         "n_modes": len(cat.modes)})
        rec.queries.append(time.perf_counter() - t0)
        rec.outputs = {"catalog": cat, "scan": results}
        return rec

    def check(self, checks, rec):
        for r in rec.outputs["scan"]:
            check_rate_result(checks, f"rate_scan[z={r.z:g}]", r)

    def view(self, rec):
        return {"calibration": rec.outputs["catalog"].calibration,
                "scan": [rate_view(r) for r in rec.outputs["scan"]]}

    def compare(self, checks, ref, got):
        checks.add("calibrate.reference",
                   _close(ref["calibration"], got["calibration"], ref["calibration"]))
        checks.add("rate_scan.length", len(ref["scan"]) == len(got["scan"]))
        for i, (a, b) in enumerate(zip(ref["scan"], got["scan"])):
            compare_rate_view(checks, f"rate_scan[{i}]", a, b)

    def sizes(self, state):
        return dict(super().sizes(state), z_points=len(state["cfg"].scan_grid))


class RatePoint(RateWorkload):
    """``perp-decomposition`` and ``mode-table`` on ybII-perp: one calibrate,
    then seeded single-z queries of ``total_rate`` plus ``mode_table``.

    The query z values of successive runs continue one seeded golden-ratio
    sequence over the preset scan range, so the queries of a measurement
    window are distinct and spread evenly whatever their number.  The cost
    of a query grows with |z|, so an even spread keeps the latency
    percentiles from hinging on a few draws.
    """

    name = "rate-point"
    presets = ("ybII-perp",)
    tail_percentile = 60
    sizes_by_name = {
        "bench": {"bands": 4, "kappa_max": 6.0, "queries": 9},
        "anchor": {"bands": 1, "kappa_max": 3.0, "queries": 2},
    }

    def generate(self, presets, seed, size):
        p = self.sizes_by_name[size]
        rng = np.random.default_rng([seed, 2])
        raw = presets["ybII-perp"]
        kappas = stratified_kappas(kappa_ladder(raw["catalog"]["kappa"]),
                                   p["bands"], rng, p["kappa_max"])
        raw = dict(raw, catalog=dict(raw["catalog"], kappa={"values": kappas}))
        return raw, {"offset": float(rng.uniform()), "per_run": p["queries"]}

    @staticmethod
    def query_z(state, run_index):
        scan, extra = state["raw"]["scan"], state["extra"]
        n = extra["per_run"]
        return golden_points(scan["z_min"], scan["z_max"], run_index * n, n,
                             extra["offset"])

    def run(self, state, tracer, out_dir, threads=NPROC, run_index=0):
        rec = RunRecord()
        cfg = state["cfg"]
        cat = self._calibrate(state, tracer, rec, threads)
        points = []
        for i, z in enumerate(self.query_z(state, run_index)):
            t0 = time.perf_counter()
            with tracer.span("bench.query", z=z):
                with tracer.span("rates.total_rate"):
                    res = total_rate(cat, cfg.dipole, cfg.eta, z)
                with tracer.span("rates.mode_table"):
                    table = mode_table(cat, cfg.dipole, cfg.eta, z)
                with tracer.span("io.config_hash"):
                    sha = pio.config_hash(state["raw"])
                _write(tracer, rec, pio.write_json,
                       os.path.join(out_dir, f"perp-{i}.json"),
                       {"z": res.z, "total": res.total,
                        "calibration": res.calibration,
                        "families": dict(res.family_totals),
                        "config_sha256": sha})
                _write(tracer, rec, pio.write_csv,
                       os.path.join(out_dir, f"table-{i}.csv"),
                       ("family", "m", "kappa", "contribution", "fraction"),
                       [(t["family"], t["m"], t["kappa"], t["contribution"],
                         t["fraction"]) for t in table],
                       metadata={"config_sha256": sha, "z": z,
                                 "calibration": cat.calibration})
            self._count(state, rec, 2)
            rec.queries.append(time.perf_counter() - t0)
            points.append((res, table))
        rec.outputs = {"catalog": cat, "points": points}
        return rec

    def check(self, checks, rec):
        for res, table in rec.outputs["points"]:
            label = f"point[z={res.z:g}]"
            check_rate_result(checks, label, res)
            rows = {(r.family, r.m, r.kappa): res.calibration * r.weighted
                    for r in res.rows}
            ok = len(table) == len(rows) and all(
                t["contribution"] >= 0.0
                and t["contribution"] == rows[(t["family"], t["m"], t["kappa"])]
                for t in table)
            checks.add(f"{label}.mode_table", ok)
            frac = sum(t["fraction"] for t in table)
            checks.add(f"{label}.fractions", abs(frac - 1.0) <= 1e-12, f"sum {frac!r}")

    def view(self, rec):
        return {"calibration": rec.outputs["catalog"].calibration,
                "points": [{"result": rate_view(res),
                            "table": [t["contribution"] for t in table]}
                           for res, table in rec.outputs["points"]]}

    def compare(self, checks, ref, got):
        checks.add("calibrate.reference",
                   _close(ref["calibration"], got["calibration"], ref["calibration"]))
        checks.add("points.length", len(ref["points"]) == len(got["points"]))
        for i, (a, b) in enumerate(zip(ref["points"], got["points"])):
            compare_rate_view(checks, f"total_rate[{i}]", a["result"], b["result"])
            scale = a["result"]["total"]
            checks.add(f"mode_table[{i}].reference",
                       len(a["table"]) == len(b["table"]) and all(
                           max(abs(x), abs(y)) <= REL_TOL * scale
                           or _close(x, y, scale)
                           for x, y in zip(a["table"], b["table"])))

    def repeat_key(self, rec, out_dir):
        """Runs query different z, so only the calibration must repeat."""
        return rec.outputs["catalog"].calibration

    def sizes(self, state):
        return dict(super().sizes(state), queries_per_run=state["extra"]["per_run"])


FIELD_PRESETS = ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f")


class FieldFigures:
    """``field-map`` and ``isosurface`` for all six figure modes, plus an
    on-axis scan; kappa is perturbed by the seed and the map follows it."""

    name = "field-figures"
    presets = FIELD_PRESETS
    tail_percentile = 75
    kappa_spread = 0.03
    sizes_by_name = {
        "bench": {"n_rho": 5, "n_z": 7, "n_iso": 4},
        "anchor": {"n_rho": 3, "n_z": 3, "n_iso": 3},
    }

    def generate(self, presets, seed, size):
        """fig1a-c and fig1d-f share their kappas and differ in m, so each
        pair gets opposite perturbations and the total cost barely moves."""
        p = self.sizes_by_name[size]
        rng = np.random.default_rng([seed, 3])
        delta = rng.uniform(-self.kappa_spread, self.kappa_spread, 3)
        raws = []
        for i, name in enumerate(FIELD_PRESETS):
            raw = presets[name]
            kappa = raw["mode"]["kappa"] * (1.0 + (1 - 2 * (i // 3)) * float(delta[i % 3]))
            raws.append(dict(raw, mode=dict(raw["mode"], kappa=kappa),
                             map=dict(raw["map"], z_center=-2.0 * kappa, **p)))
        return raws

    def prepare(self, presets, seed, size, tracer):
        raws = self.generate(presets, seed, size)
        with tracer.span("cli.config"):
            cfgs = [RunConfig.from_dict(raw) for raw in raws]
        return {"raws": raws, "cfgs": cfgs}

    def run(self, state, tracer, out_dir, threads=NPROC, run_index=0):
        rec = RunRecord()
        figures = []
        for name, raw, cfg in zip(FIELD_PRESETS, state["raws"], state["cfgs"]):
            t0 = time.perf_counter()
            mp, mode = cfg.map_spec, cfg.mode
            rho = np.linspace(0.0, mp["rho_max"], mp["n_rho"])
            zs = np.linspace(mp["z_center"] - mp["z_half_span"],
                             mp["z_center"] + mp["z_half_span"], mp["n_z"])
            n = mp["n_iso"]
            xy = np.linspace(-mp["rho_max"], mp["rho_max"], n)
            zi = np.linspace(zs[0], zs[-1], n)
            with tracer.span("bench.query", mode=name):
                with tracer.span("fieldeval.intensity_map", points=zs.size * rho.size):
                    grid, mask = intensity_map(mode, mp["component"], rho, zs)
                with tracer.span("fieldeval.isointensity_grid", points=n ** 3):
                    iso, threshold = isointensity_grid(mode, ISO_LEVEL, xy, xy, zi)
                with tracer.span("fieldeval.axis_scan", points=zs.size):
                    axis = axis_intensity_scan(mode, zs)
                with tracer.span("io.config_hash"):
                    sha = pio.config_hash(raw)
                _write(tracer, rec, pio.write_csv,
                       os.path.join(out_dir, f"{name}-map.csv"),
                       ("z", "rho", "relative_intensity"),
                       [(zs[i], rho[j], grid[i, j])
                        for i in range(len(zs)) for j in range(len(rho))],
                       metadata={"config_sha256": sha,
                                 "component": mp["component"],
                                 "failed_points": int(mask.sum())})
                _write(tracer, rec, pio.write_npz,
                       os.path.join(out_dir, f"{name}-iso.npz"),
                       metadata={"config_sha256": sha, "level": ISO_LEVEL},
                       intensity=iso, x=xy, y=xy, z=zi,
                       threshold=np.array(threshold))
                _write(tracer, rec, pio.write_csv,
                       os.path.join(out_dir, f"{name}-axis.csv"),
                       ("z", "intensity"), list(zip(zs, axis)),
                       metadata={"config_sha256": sha})
            rec.work += grid.size + iso.size + axis.size
            rec.queries.append(time.perf_counter() - t0)
            figures.append({"map": grid, "mask": mask, "iso": iso,
                            "threshold": threshold, "axis": axis})
        rec.outputs = {"figures": figures}
        return rec

    def repeat_key(self, rec, out_dir):
        return file_digests(out_dir)

    def check(self, checks, rec):
        for name, f in zip(FIELD_PRESETS, rec.outputs["figures"]):
            g, iso, axis = f["map"], f["iso"], f["axis"]
            checks.add(f"{name}.map", not f["mask"].any() and np.isfinite(g).all()
                       and g.min() >= 0.0 and g.max() == 1.0)
            checks.add(f"{name}.iso", np.isfinite(iso).all() and iso.min() >= 0.0
                       and f["threshold"] == ISO_LEVEL * float(iso.max()))
            checks.add(f"{name}.iso_symmetry",
                       bool(np.array_equal(iso, iso.transpose(1, 0, 2))))
            checks.add(f"{name}.axis", np.isfinite(axis).all() and axis.min() >= 0.0)

    def view(self, rec):
        return {"figures": [{"map": f["map"].tolist(), "iso": f["iso"].tolist(),
                             "axis": f["axis"].tolist()}
                            for f in rec.outputs["figures"]]}

    def compare(self, checks, ref, got):
        checks.add("figures.length", len(ref["figures"]) == len(got["figures"]))
        for name, a, b in zip(FIELD_PRESETS, ref["figures"], got["figures"]):
            for key in ("map", "iso", "axis"):
                compare_array(checks, f"{name}.{key}", a[key], b[key])

    def sizes(self, state):
        mp = state["cfgs"][0].map_spec
        return {"modes": len(state["cfgs"]),
                "map_grid": [mp["n_z"], mp["n_rho"]],
                "iso_grid": [mp["n_iso"]] * 3, "axis_points": mp["n_z"],
                "kappas": [c.mode.kappa for c in state["cfgs"]]}


WORKLOADS = {w.name: w for w in (RateScan(), RatePoint(), FieldFigures())}


def load_presets(workload, tracer):
    with tracer.span("presets.load"):
        return {name: load_preset(name) for name in workload.presets}


def reference_path(workload, tag):
    """Frozen outputs: tag is "anchor" or "seed<N>" for N in FROZEN_SEEDS."""
    return os.path.join(REFERENCE_DIR, f"{workload.name}-{tag}.json")


def run_anchor(workload, out_dir, threads, tracer):
    """Run the seed-0 anchor input once; return (view, file digests)."""
    os.makedirs(out_dir, exist_ok=True)
    state = workload.prepare(load_presets(workload, tracer), 0, "anchor", tracer)
    rec = workload.run(state, tracer, out_dir, threads=threads)
    return workload.view(rec), file_digests(out_dir)


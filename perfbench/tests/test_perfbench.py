"""Tests of the benchmark's own code: inputs, sampling, metric names, report."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from paramodes import load_preset  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(w, seed, size="bench"):
    return w.generate({n: load_preset(n) for n in w.presets}, seed, size)


BANDS = wl.RateScan.sizes_by_name["bench"]["bands"]


def _ladder():
    return wl.kappa_ladder(load_preset("ybII")["catalog"]["kappa"])


def _sample(seed):
    return wl.stratified_kappas(_ladder(), BANDS, np.random.default_rng([seed, 1]))


def test_same_seed_gives_same_inputs():
    for w in wl.WORKLOADS.values():
        assert _inputs(w, 5) == _inputs(w, 5)
        assert _inputs(w, 5) != _inputs(w, 6)


def test_stratified_sample_takes_one_mode_per_band():
    ladder = _ladder()
    sides = {1: sorted(k for k in ladder if k > 0 and k != wl.FOCAL_KAPPA),
             -1: sorted(-k for k in ladder if k < 0)}
    picks = _sample(3)
    assert wl.FOCAL_KAPPA in picks and len(picks) == BANDS + 1
    bands = []
    for k in picks:
        if k == wl.FOCAL_KAPPA:
            continue
        side = sides[1 if k > 0 else -1]
        edges = np.linspace(0, len(side), BANDS + 1)
        b = int(np.searchsorted(edges, side.index(abs(k)), side="right")) - 1
        assert (b % 2 == 0) == (k > 0)
        bands.append(b)
    assert sorted(bands) == list(range(BANDS))


def test_stratified_sample_keeps_kappa_sum_steady():
    samples = [_sample(seed) for seed in range(1, 31)]
    assert len({tuple(s) for s in samples}) > 10
    sums = [sum(abs(k) for k in s) for s in samples]
    assert max(sums) / min(sums) - 1.0 < 0.03


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    for name in [*e2e, *layer, "failed_frac"]:
        assert NAME.fullmatch(name), name
    assert e2e["setup_s"] == "s"
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def _fake_runs(tracer):
    runs = []
    for i in range(4):
        traced = i % 2 == 1
        tracer.enabled, tracer.run_id = traced, f"run{i}"
        rec = wl.RunRecord(queries=[0.1 + 0.01 * i, 0.2], work=50, tasks=5,
                           bytes_written=100)
        with tracer.span("bench.run"):
            with tracer.span("rates.calibrate"):
                pass
            with tracer.span("io.write_csv"):
                pass
        runs.append({"index": i, "seconds": 1.0 + 0.1 * i, "traced": traced,
                     "rec": rec})
    return runs


def test_report_has_every_metric():
    tracer = Tracer()
    runs = _fake_runs(tracer)
    e2e, notes = run.end_to_end([0.5, 0.6, 0.7], runs, 50)
    assert e2e.keys() == run.END_TO_END.keys()
    assert notes["queries"] == 4 and e2e["setup_s"] == 0.6
    probe = {"task_ms": {"kappa_lo": 1.0, "kappa_mid": 2.0, "kappa_hi": 3.0},
             "thread_speedup": 1.3, "profile": {"E": 1.0, "B": 2.0},
             "bessel": 3.0}
    phases = [{"presets.load": 0.1, "cli.config": 0.2, "rates.build_catalog": 0.3}]
    layer = run.per_layer(tracer.spans, phases, runs, probe, check_s=0.5,
                          blas_mismatch=0)
    assert layer.keys() == run.PER_LAYER.keys()
    assert 0.0 < layer["trace.coverage_frac"] <= 1.0


def test_percentile_matches_numpy():
    xs = list(np.random.default_rng(0).random(37))
    for q in (0, 20, 50, 60, 75, 100):
        assert run.percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-14)


def test_self_time_subtracts_children():
    spans = [{"id": 0, "name": "bench.run", "parent": None, "start": 0.0, "end": 3.0},
             {"id": 1, "name": "rates.calibrate", "parent": 0, "start": 0.5, "end": 2.5},
             {"id": 2, "name": "io.write_csv", "parent": 0, "start": 2.5, "end": 2.75}]
    assert self_times(spans) == {"bench": 0.75, "rates": 2.0, "io": 0.25}

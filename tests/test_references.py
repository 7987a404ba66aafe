"""Frozen benchmark references and byte determinism, checked on every run.

The seed-0 anchor inputs of the benchmark workloads (perfbench/workloads.py,
imported read-only) are replayed at one and two threads: their output files
must be byte-identical and their values must match the frozen references in
perfbench/reference/.  The field and rate outputs must also be
byte-identical across BLAS thread settings, which only fresh interpreters
can change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# field-figures anchor digests, four field_at_point samples of an E m=1,
# kappa=-10.4 mode and a 32 x 32 (rho, z) intensity map of the fig1d mode,
# whose tiles make the largest matmuls, printed as one JSON line
FIELD_BYTES = """
import hashlib, json, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import numpy as np
import workloads as wl
from spans import Tracer
from paramodes import ModeParams, field_at_point, intensity_map, load_preset
from paramodes.cli import RunConfig
from paramodes.core import SIGMAS
with tempfile.TemporaryDirectory() as out:
    _, digests = wl.run_anchor(wl.WORKLOADS["field-figures"], out, 1, Tracer())
mode = ModeParams(omega=1.0, m=1, kappa=-10.4, family="E")
points = [(0, 0.3, 20.8), (1.5, 0.3, 30), (4, 0.3, -5), (0.5, 0.3, 32.8)]
comps = np.array([[field_at_point(mode, p).sigma_components[s] for s in SIGMAS]
                  for p in points])
digests["field_at_point"] = hashlib.sha256(comps.tobytes()).hexdigest()
cfg = RunConfig.from_dict(load_preset("fig1d"))
mp = cfg.map_spec
rho = np.linspace(0.0, mp["rho_max"], 32)
zs = np.linspace(mp["z_center"] - mp["z_half_span"],
                 mp["z_center"] + mp["z_half_span"], 32)
grid, _ = intensity_map(cfg.mode, "total", rho, zs)
digests["fig1d_map"] = hashlib.sha256(grid.tobytes()).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_anchor_matches_frozen_reference(tmp_path, name):
    workload = wl.WORKLOADS[name]
    with open(wl.reference_path(workload, "anchor")) as fh:
        ref = json.load(fh)
    digests = {}
    for threads in (1, 2):
        view, digests[threads] = wl.run_anchor(
            workload, str(tmp_path / f"threads{threads}"), threads, Tracer())
        checks = wl.Checks()
        workload.compare(checks, ref, view)
        assert checks.attempted > 0 and not checks.failures, checks.failures
    assert digests[1] == digests[2]


# rate-scan and rate-point anchor digests, and the [mode, sigma, z] table
# of the ybII preset at four z, printed as one JSON line
RATE_BYTES = """
import hashlib, json, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import numpy as np
import workloads as wl
from spans import Tracer
from paramodes import build_catalog, load_preset, rate_scan
from paramodes.cli import RunConfig
digests = {{}}
for name in ("rate-scan", "rate-point"):
    with tempfile.TemporaryDirectory() as out:
        _, files = wl.run_anchor(wl.WORKLOADS[name], out, 1, Tracer())
    digests.update((f"{{name}}/{{f}}", d) for f, d in files.items())
cfg = RunConfig.from_dict(load_preset("ybII"))
catalog = build_catalog(cfg.catalog_rule, cfg.ion.omega)
scan = rate_scan(catalog, cfg.dipole, cfg.eta, [-10.0, 0.0, 4.0, 40.0])
table = np.stack([r.t_sigma for r in scan], axis=-1)
digests["ybII"] = hashlib.sha256(table.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def _fresh_digests(script, blas_threads):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    code = script.format(src=str(ROOT / "src"), bench=str(BENCH))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_field_bytes_independent_of_blas_threads():
    single = _fresh_digests(FIELD_BYTES, "1")
    default = _fresh_digests(FIELD_BYTES, None)
    assert len(single) == 20
    assert single == default


def test_rate_bytes_independent_of_blas_threads():
    # the anchors' task groups are smaller than their series rows, so their
    # gemms are real; the ybII preset's groups are larger, so its gemms are
    # complex and large enough for OpenBLAS to thread when not pinned
    single = _fresh_digests(RATE_BYTES, "1")
    default = _fresh_digests(RATE_BYTES, None)
    assert len(single) == 6
    assert single == default

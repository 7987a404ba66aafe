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

# field-figures anchor digests plus four field_at_point samples of an
# E m=1, kappa=-10.4 mode, printed as one JSON line
FIELD_BYTES = """
import hashlib, json, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import numpy as np
import workloads as wl
from spans import Tracer
from paramodes import ModeParams, field_at_point
from paramodes.core import SIGMAS
with tempfile.TemporaryDirectory() as out:
    _, digests = wl.run_anchor(wl.WORKLOADS["field-figures"], out, 1, Tracer())
mode = ModeParams(omega=1.0, m=1, kappa=-10.4, family="E")
points = [(0, 0.3, 20.8), (1.5, 0.3, 30), (4, 0.3, -5), (0.5, 0.3, 32.8)]
comps = np.array([[field_at_point(mode, p).sigma_components[s] for s in SIGMAS]
                  for p in points])
digests["field_at_point"] = hashlib.sha256(comps.tobytes()).hexdigest()
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


# rate-scan and rate-point anchor digests, printed as one JSON line
RATE_BYTES = """
import json, sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import workloads as wl
from spans import Tracer
digests = {{}}
for name in ("rate-scan", "rate-point"):
    with tempfile.TemporaryDirectory() as out:
        _, files = wl.run_anchor(wl.WORKLOADS[name], out, 1, Tracer())
    digests.update((f"{{name}}/{{f}}", d) for f, d in files.items())
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
    assert len(single) == 19
    assert single == default


def test_rate_bytes_independent_of_blas_threads():
    # the anchors' task groups are smaller than their series rows, so the
    # engine's gemms are real and chunked below OpenBLAS's threading size
    single = _fresh_digests(RATE_BYTES, "1")
    default = _fresh_digests(RATE_BYTES, None)
    assert len(single) == 5
    assert single == default

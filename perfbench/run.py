"""Benchmark of the paramodes package: one workload, one seed, one window.

    python3 perfbench/run.py --workload rate-scan --seed 0 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The command
prints a metric table and an environment record, then, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones and writes the spans to ``.perfbench_out/``.  The exit code
is 1 when a correctness or determinism check fails and 2 when the package
source is missing.  See perfbench/README.md for what each workload and
metric means.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# OPENBLAS_NUM_THREADS of each fresh interpreter that times set-up and then
# recomputes the anchor input; "default" removes every BLAS thread variable
SETUP_CHILDREN = ("default", "1", "default")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# The timed process runs BLAS single-threaded so that rate_scan's pool of
# nproc threads is all the parallelism there is.  With the default setting
# every pool thread's zgemm starts its own BLAS threads, twice nproc runnable
# threads in all, and rate-scan runs about 30% slower and far less steadily.
BENCH_BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "presets.load_s": "s",
    "cli.config_s": "s",
    "rates.build_catalog_s": "s",
    "rates.calibrate_s": "s",
    "rates.rate_scan_s": "s",
    "rates.total_rate_s": "s",
    "rates.mode_table_s": "s",
    "rates.tasks": "count",
    "rates.entries": "count",
    "rates.task_ms.kappa_lo": "ms",
    "rates.task_ms.kappa_mid": "ms",
    "rates.task_ms.kappa_hi": "ms",
    "rates.thread_speedup": "ratio",
    "spectrum.profile_ns_per_node.E": "ns",
    "spectrum.profile_ns_per_node.B": "ns",
    "numerics.bessel_j_ns_per_eval": "ns",
    "fieldeval.intensity_map_s": "s",
    "fieldeval.isointensity_grid_s": "s",
    "fieldeval.axis_scan_s": "s",
    "fieldeval.map_us_per_point": "us",
    "fieldeval.iso_us_per_point": "us",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "bench.self_s": "s",
    "rates.self_s": "s",
    "fieldeval.self_s": "s",
    "io.self_s": "s",
    "check_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
    "determinism.blas_mismatch_files": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("rate-scan", "rate-point", "field-figures"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", type=int, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return 0.5 * (xs[(n - 1) // 2] + xs[n // 2])


def percentile(xs, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ------------------------------------------------------------ set-up child

def setup_child(args):
    """Fresh interpreter: time set-up up to the first computation, report
    it, then run the anchor input and report its values and file digests."""
    t0 = time.perf_counter()
    import workloads as wl
    from spans import Tracer, duration
    phases = {"import": time.perf_counter() - t0}
    w = wl.WORKLOADS[args.workload]
    tracer = Tracer(enabled=True)
    w.prepare(wl.load_presets(w, tracer), args.seed, "bench", tracer)
    for s in tracer.spans:
        phases[s["name"]] = duration(s)
    print(json.dumps({"phases": phases}), flush=True)
    out = fresh_dir(OUT / w.name / f"anchor-child{args.setup_child}")
    view, digests = wl.run_anchor(w, str(out), wl.NPROC, Tracer())
    print(json.dumps({"digests": digests, "view": view}), flush=True)
    return 0


def fresh_setups(args):
    """Set-up seconds (spawn to ready), set-up phases and anchor outputs
    (view, file digests) of one fresh interpreter per SETUP_CHILDREN entry,
    run one at a time."""
    seconds, phases, anchors = [], [], []
    for k, blas in enumerate(SETUP_CHILDREN):
        env = {key: v for key, v in os.environ.items() if key not in BLAS_VARS}
        if blas != "default":
            env["OPENBLAS_NUM_THREADS"] = blas
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-child", str(k)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT) as proc:
            try:
                first = proc.stdout.readline()
                ready = time.perf_counter()
                rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or not first or not rest:
            raise RuntimeError(f"set-up child {k} failed (exit {proc.returncode})")
        seconds.append(ready - t0)
        phases.append(json.loads(first)["phases"])
        anchors.append(json.loads(rest.splitlines()[-1]))
    return seconds, phases, anchors


def blas_mismatch_files(child_anchors):
    """Anchor files whose bytes differ between OPENBLAS_NUM_THREADS=1 and
    the default BLAS setting.  Reported, not gated: at the commit that
    introduced the benchmark the rate outputs already differ in the last
    digit, while agreeing with the frozen values within REL_TOL."""
    by = {b: a["digests"] for a, b in zip(child_anchors, SETUP_CHILDREN)}
    return sum(by["1"][name] != by["default"].get(name) for name in by["1"])


# ------------------------------------------------------------ environment

def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unavailable"
    return lines[1]


def environment(args, w, state):
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": w.sizes(state),
    }


# ---------------------------------------------------------------- metrics

def end_to_end(setup_seconds, runs, q):
    """q is the workload's tail percentile (see workloads.py)."""
    untraced = [r for r in runs if not r["traced"]]
    queries = [q for r in untraced for q in r["rec"].queries]
    metrics = {
        "setup_s": median(setup_seconds),
        "run_s": median([r["seconds"] for r in untraced]),
        "work_per_s": median([r["rec"].work / r["seconds"] for r in untraced]),
        "query_p50_s": percentile(queries, 50),
        "query_tail_s": percentile(queries, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"runs": len(untraced), "queries": len(queries),
             "query_tail_percentile": f"p{q}",
             "queries_beyond_tail": int(len(queries) * (100 - q) / 100),
             "run_seconds": [r["seconds"] for r in untraced]}
    return metrics, notes


def per_layer(spans, child_phases, runs, probe, check_s, blas_mismatch):
    from spans import duration, self_times
    traced = [r for r in runs if r["traced"]]
    ids = {f"run{r['index']}" for r in traced}
    in_runs = [s for s in spans if s["run"] in ids]

    def per_call(name):
        ds = [duration(s) for s in in_runs if s["name"] == name]
        return median(ds) if ds else 0.0

    def per_point(name):
        sel = [s for s in in_runs if s["name"] == name]
        points = sum(s["points"] for s in sel)
        return 1e6 * sum(duration(s) for s in sel) / points if points else 0.0

    def per_run(select):
        return median([sum(duration(s) for s in in_runs
                           if s["run"] == f"run{r['index']}" and select(s["name"]))
                       for r in traced])

    def phase(name):
        return median([p.get(name, 0.0) for p in child_phases])

    top = [s for s in in_runs if s["name"] == "bench.run"]
    covered = sum(duration(s) for s in in_runs
                  if s["parent"] is not None and s["parent"] in {t["id"] for t in top})
    selfs = self_times(in_runs)
    untraced = [r["seconds"] for r in runs if not r["traced"]]
    tasks = median([r["rec"].tasks for r in traced])
    metrics = {
        "presets.load_s": phase("presets.load"),
        "cli.config_s": phase("cli.config"),
        "rates.build_catalog_s": phase("rates.build_catalog"),
        "rates.calibrate_s": per_call("rates.calibrate"),
        "rates.rate_scan_s": per_call("rates.rate_scan"),
        "rates.total_rate_s": per_call("rates.total_rate"),
        "rates.mode_table_s": per_call("rates.mode_table"),
        "rates.tasks": tasks,
        "rates.entries": median([r["rec"].work for r in traced]) if tasks else 0,
        **{f"rates.task_ms.{k}": v for k, v in probe["task_ms"].items()},
        "rates.thread_speedup": probe["thread_speedup"],
        "spectrum.profile_ns_per_node.E": probe["profile"]["E"],
        "spectrum.profile_ns_per_node.B": probe["profile"]["B"],
        "numerics.bessel_j_ns_per_eval": probe["bessel"],
        "fieldeval.intensity_map_s": per_call("fieldeval.intensity_map"),
        "fieldeval.isointensity_grid_s": per_call("fieldeval.isointensity_grid"),
        "fieldeval.axis_scan_s": per_call("fieldeval.axis_scan"),
        "fieldeval.map_us_per_point": per_point("fieldeval.intensity_map"),
        "fieldeval.iso_us_per_point": per_point("fieldeval.isointensity_grid"),
        "io.write_s": per_run(lambda n: n.startswith("io.write")),
        "io.bytes_written": median([r["rec"].bytes_written for r in traced]),
        **{f"{lay}.self_s": selfs.get(lay, 0.0) / len(traced)
           for lay in ("bench", "rates", "fieldeval", "io")},
        "check_s": check_s,
        "trace.overhead_frac": median([r["seconds"] for r in traced])
        / median(untraced) - 1.0,
        "trace.coverage_frac": covered / sum(duration(s) for s in top),
        "determinism.blas_mismatch_files": blas_mismatch,
    }
    return metrics


def run_probes(w, state, seed, tracer):
    """Layer probes; the rate ones use the seed's rate-scan catalog."""
    import probes
    import workloads as wl
    tracer.enabled, tracer.run_id = True, "probe"
    rate_scan = wl.WORKLOADS["rate-scan"]
    presets = wl.load_presets(rate_scan, tracer)
    if w is rate_scan:
        scan_state = state
    else:
        scan_state = rate_scan.prepare(presets, seed, "bench", tracer)
    return {
        "task_ms": probes.task_ms(presets["ybII"], seed, tracer),
        "thread_speedup": probes.thread_speedup(
            scan_state, rate_scan.window_z(scan_state["cfg"]), tracer),
        "profile": probes.profile_ns_per_node(tracer),
        "bessel": probes.bessel_ns_per_eval(tracer),
    }


# ------------------------------------------------------------------ bench

def bench(args):
    setup_seconds, child_phases, child_anchors = fresh_setups(args)

    import workloads as wl
    from spans import Tracer
    w = wl.WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    state = w.prepare(wl.load_presets(w, tracer), args.seed, "bench", tracer)
    checks = wl.Checks()
    check_s = 0.0

    # determinism and frozen values on the small anchor input
    t0 = time.perf_counter()
    digests = {}
    with open(wl.reference_path(w, "anchor")) as fh:
        anchor_ref = json.load(fh)
    for threads in (1, wl.NPROC):
        view, digests[threads] = wl.run_anchor(
            w, str(fresh_dir(OUT / w.name / f"anchor-threads{threads}")),
            threads, Tracer())
        w.compare(checks, anchor_ref, view)
    checks.add("determinism.threads", digests[1] == digests[wl.NPROC])
    same_blas = [a["digests"] for a, b in zip(child_anchors, SETUP_CHILDREN)
                 if b == "default"]
    checks.add("determinism.fresh_process",
               all(d == same_blas[0] for d in same_blas))
    for a in child_anchors:
        w.compare(checks, anchor_ref, a["view"])
    blas_mismatch = blas_mismatch_files(child_anchors)
    check_s += time.perf_counter() - t0

    # timed closed loop: one caller, the next run starts when one ends
    out_dir = fresh_dir(OUT / w.name / "run")
    runs, timed = [], 0.0
    while timed < args.seconds or (args.trace and len(runs) < 2):
        traced = bool(args.trace) and len(runs) % 2 == 1
        tracer.enabled, tracer.run_id = traced, f"run{len(runs)}"
        t0 = time.perf_counter()
        with tracer.span("bench.run"):
            rec = w.run(state, tracer, str(out_dir), run_index=len(runs))
        seconds = time.perf_counter() - t0
        timed += seconds
        t0 = time.perf_counter()
        w.check(checks, rec)
        key = w.repeat_key(rec, out_dir)
        if not runs:
            first, first_key = rec, key
        else:
            rec.outputs = None
        checks.add(f"repeat[{len(runs)}]", key == first_key)
        check_s += time.perf_counter() - t0
        runs.append({"index": len(runs), "seconds": seconds,
                     "traced": traced, "rec": rec})

    t0 = time.perf_counter()
    if hasattr(w, "window_check"):
        w.window_check(checks, state, first, wl.NPROC)
    if args.seed in wl.FROZEN_SEEDS:
        with open(wl.reference_path(w, f"seed{args.seed}")) as fh:
            w.compare(checks, json.load(fh), w.view(first))
    check_s += time.perf_counter() - t0

    e2e, notes = end_to_end(setup_seconds, runs, w.tail_percentile)
    if args.trace:
        probe = run_probes(w, state, args.seed, tracer)
        metrics = per_layer(tracer.spans, child_phases, runs, probe, check_s,
                            blas_mismatch)
        tracer.write(OUT / w.name / f"spans-seed{args.seed}.json")
        reported, units = metrics, PER_LAYER
    else:
        reported, units = e2e, END_TO_END

    failed = len(checks.failures)
    env = environment(args, w, state)
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{notes['runs']} untraced runs, {notes['queries']} queries, "
          f"query_tail_s is {notes['query_tail_percentile']} with "
          f"{notes['queries_beyond_tail']} queries beyond it")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in {**e2e, **reported}.items():
        print(f"metric {name} {value!r} {END_TO_END.get(name) or PER_LAYER[name]}")
    # printed, not in BENCHMARK.json: it is 0 whenever every check passes
    print(f"metric failed_frac {failed / checks.attempted!r} fraction "
          f"({failed} of {checks.attempted} checked outputs)")
    print(f"determinism: {blas_mismatch} of {len(digests[1])} anchor files differ "
          "between OPENBLAS_NUM_THREADS=1 and the default (reported, not gated)")
    for f in checks.failures:
        print(f"FAILED {f}")
    result = {"correct": failed == 0, "attempted": checks.attempted,
              "failed": failed,
              "metrics": {k: {"value": reported[k], "unit": units[k]}
                          for k in units}}
    with open(OUT / w.name / f"result-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"result": result, "env": env, "notes": notes}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "paramodes" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child is not None:
        return setup_child(args)
    os.environ["OPENBLAS_NUM_THREADS"] = BENCH_BLAS_THREADS  # before numpy loads
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())

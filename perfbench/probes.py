"""Per-layer probes run once per traced run, outside the timed loop.

Each probe times one public function of a single layer on an input shaped
like the one the workloads give it, so a change to that layer shows here even
when the end-to-end figure it feeds is dominated by other layers.
"""

import time

import numpy as np

from paramodes import ModeParams, build_catalog, rate_scan, sigma_profile
from paramodes.cli import RunConfig
from paramodes.numerics import bessel_j, panel_nodes, sin_cos_theta, theta_from_u
from paramodes.rates import mode_contribution

from workloads import NPROC, kappa_ladder

# |kappa| bands of the task probe; the per-task cost grows with |kappa|
KAPPA_BANDS = {"kappa_lo": (0.0, 2.0), "kappa_mid": (2.0, 20.0),
               "kappa_hi": (20.0, 84.0)}
PROBE_MODES_PER_BAND = 2
REPEATS = 7


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def task_ms(preset, seed, tracer):
    """Mean ms of one single-z ``mode_contribution`` per |kappa| band, on
    seeded ladder modes of the ybII axial-dipole physics."""
    cfg = RunConfig.from_dict(preset)
    ladder = np.array(kappa_ladder(preset["catalog"]["kappa"]))
    rng = np.random.default_rng([seed, 4])
    out = {}
    for band, (lo, hi) in KAPPA_BANDS.items():
        pool = ladder[(np.abs(ladder) >= lo) & (np.abs(ladder) < hi)]
        kappas = sorted(rng.choice(pool, PROBE_MODES_PER_BAND, replace=False))
        catalog = build_catalog(dict(preset["catalog"],
                                     kappa={"values": [float(k) for k in kappas]}),
                                cfg.ion.omega)
        times = []
        for mode in catalog.modes:
            with tracer.span("rates.mode_contribution", kappa=mode.kappa):
                t0 = time.perf_counter()
                mode_contribution(mode, 0, cfg.eta, 0.0)
                times.append(time.perf_counter() - t0)
        out[band] = 1e3 * float(np.mean(times))
    return out


def thread_speedup(state, window_z, tracer):
    """``rate_scan`` time at threads=1 over the time at threads=NPROC, on the
    rate-scan catalog over its calibration window."""
    cfg, catalog = state["cfg"], state["catalog"]
    times = {}
    for threads in (1, NPROC):
        with tracer.span("rates.rate_scan", threads=threads):
            t0 = time.perf_counter()
            rate_scan(catalog, cfg.dipole, cfg.eta, window_z, threads=threads)
            times[threads] = time.perf_counter() - t0
    return times[1] / times[NPROC]


def profile_ns_per_node(tracer, kappa=5.6, n_panels=400):
    """``sigma_profile`` cost per quadrature node for an E and a B mode."""
    u, _, _ = panel_nodes(n_panels, -12.0, 12.0)
    theta = theta_from_u(u)
    out = {}
    for family in ("E", "B"):
        prof = sigma_profile(ModeParams(omega=1.0, m=1, kappa=kappa,
                                        family=family), 1)
        with tracer.span("spectrum.sigma_profile", family=family):
            out[family] = 1e9 * _median_time(lambda: prof(theta)) / theta.size
    return out


def bessel_ns_per_eval(tracer, rho_max=8.0, n_rho=81, kappa=5.6, ppo=10):
    """``bessel_j`` cost per evaluation on a rho x node table shaped like one
    row of the fig1a map (preset rho grid, nodes sized for z = -2 kappa)."""
    z = -2.0 * kappa
    nosc = (2 * abs(z) + 4 * abs(kappa) * 12.0 + 2 * rho_max) / (2 * np.pi)
    u, _, _ = panel_nodes(int(np.ceil(nosc * ppo)), -12.0, 12.0)
    s, _ = sin_cos_theta(u)
    x = np.linspace(0.0, rho_max, n_rho)[:, None] * s[None, :]
    with tracer.span("numerics.bessel_j", evals=x.size):
        return 1e9 * _median_time(lambda: bessel_j(1, x), repeats=5) / x.size

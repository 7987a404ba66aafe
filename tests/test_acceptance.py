"""End-to-end acceptance checks, one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion lines.
Shared fixtures keep the expensive catalog calibrations to one per session.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ai_zeros

from paramodes.core import (
    ModeParams, IonSpec, DipoleSpec, ATOMIC_MASS, SIGMAS,
)
from paramodes.trap import LambDicke
from paramodes.numerics import DEFAULT_QUADRATURE
from paramodes.fieldeval import (
    field_at_point, axis_intensity_scan, stationary_phase_field,
)
from paramodes.oracles import (
    azimuthal_pair_integral, field_2d_oracle, transversality_residual,
)
from paramodes.rates import (
    build_catalog, calibrate, rate_scan, total_rate, mode_contribution,
)
from paramodes.io import write_csv
from paramodes.presets import load_preset

THREADS = 4


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def ybii(ybii_ion, ybii_eta, dipole_axial):
    raw = load_preset("ybII")
    catalog = build_catalog(raw["catalog"], ybii_ion.omega)
    catalog = calibrate(catalog, dipole_axial, ybii_eta,
                        tuple(raw["calibration_window"]), threads=THREADS)
    return {"catalog": catalog, "eta": ybii_eta, "dipole": dipole_axial}


@pytest.fixture(scope="module")
def ybii_scan(ybii):
    zs = np.unique(np.concatenate([np.arange(-40.0, 40.01, 2.0),
                                   [-25.0, 25.0]]))
    results = rate_scan(ybii["catalog"], ybii["dipole"], ybii["eta"], zs,
                        threads=THREADS)
    return zs, results


# ---------------------------------------------------------------- criteria

def test_criterion_01_field_oracle_equivalence():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(20):
        family = ("E", "B")[int(rng.integers(2))]
        m = int(rng.integers(-2, 3))
        kappa = float(rng.uniform(-5.0, 5.0))
        mode = ModeParams(omega=1.0, m=m, kappa=kappa, family=family)
        pos = (float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 2 * np.pi)),
               float(rng.uniform(-15.0, 15.0)))
        a = field_at_point(mode, pos)
        b = field_2d_oracle(mode, pos)
        scale = max(np.sqrt(a.intensity), 1e-8)
        err = max(abs(a.sigma_components[s] - b.sigma_components[s])
                  for s in SIGMAS) / scale
        worst = max(worst, err)
    ok = worst <= 1e-6
    _report(1, ok, f"reduced vs 2D field quadrature, 20 cases, "
                   f"worst relative deviation {worst:.2e} (tol 1e-06)")
    assert ok


def test_criterion_02_pair_integral_closed_form():
    rng = np.random.default_rng(2)
    worst = 0.0
    n_grid = 192
    phi = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
    for _ in range(50):
        n = int(rng.integers(-3, 4))
        n_prime = n if rng.uniform() < 0.6 else int(rng.integers(-3, 4))
        eta_x = float(rng.uniform(0.05, 1.0))
        theta = float(rng.uniform(0.1, np.pi - 0.1))
        theta_p = float(rng.uniform(0.1, np.pi - 0.1))
        x = eta_x**2 * np.sin(theta) * np.sin(theta_p)
        direct = (np.exp(-1j * n * phi[:, None] + 1j * n_prime * phi[None, :])
                  * np.exp(x * np.cos(phi[:, None] - phi[None, :]))).sum() \
            * (2 * np.pi / n_grid) ** 2
        closed = azimuthal_pair_integral(n, n_prime, eta_x, theta, theta_p)
        err = abs(direct - closed) / max(1.0, abs(closed))
        worst = max(worst, err)
    ok = worst <= 1e-9
    _report(2, ok, f"azimuthal pair integral vs direct 2D quadrature, 50 cases, "
                   f"worst deviation {worst:.2e} (tol 1e-09)")
    assert ok


def _fold_caustic_offset(kappa):
    """Distance of the on-axis peak beyond the caustic plane z = -2 kappa.

    With z = -2 kappa - sgn(kappa) delta and u = t / s, s = (2|kappa|)^(1/3),
    the on-axis phase -2 kappa u - z tanh u and amplitude sech^2 u expanded
    to first order in 1/s^2 give, up to a constant factor, the field
    Ai(-x) + s^-2 [-(4/5) x Ai(-x) - (1/5) x^2 d/dx Ai(-x)], x = delta / s
    (uniform Airy asymptotics, Chester, Friedman and Ursell 1957). Its
    maximum sits at delta = a1' s - (4 - a1'^3) / (5 a1' s), with a1' the
    first zero of Ai'.
    """
    a1p = -float(ai_zeros(1)[1][0])
    s = (2.0 * abs(kappa)) ** (1.0 / 3.0)
    return a1p * s - (4.0 - a1p**3) / (5.0 * a1p * s)


def test_criterion_03_localization_plane():
    step = 0.05
    misses = {}
    lit_side = True
    for kappa in (2.0, 5.6, 10.4):
        plane = -2.0 * kappa
        zs = np.arange(plane - 6.0, plane + 6.0 + 1e-9, step)
        intensity = axis_intensity_scan(
            ModeParams(omega=1.0, m=0, kappa=kappa, family="E"), zs)
        z_peak = float(zs[np.argmax(intensity)])
        expected = plane - np.sign(kappa) * _fold_caustic_offset(kappa)
        lit_side &= np.sign(kappa) * (plane - z_peak) > 0.0
        misses[kappa] = abs(z_peak - expected)
    ok = lit_side and all(v <= step + 1e-9 for v in misses.values())
    detail = ", ".join(f"kappa={k}: |peak-law|={v:.3f}" for k, v in misses.items())
    _report(3, ok, f"on-axis peak beyond the -2 kappa caustic, within "
                   f"{step} c/w of the fold-caustic law; {detail}")
    assert ok, (
        "the on-axis peak must lie on the lit side of the -2 kappa caustic, "
        "within one scan step of -2 kappa - sgn(kappa) delta(kappa) "
        f"(lit side: {lit_side}; {detail})")


def test_criterion_04_stationary_phase_estimate():
    cases = [(-5.6, 70.0), (10.4, -60.0), (-15.0, 75.0), (12.0, -50.0),
             (25.0, -120.0)]
    worst = 0.0
    for kappa, z in cases:
        mode = ModeParams(omega=1.0, m=0, kappa=kappa, family="E")
        est = stationary_phase_field(mode, (0.0, 0.0, z))
        assert est.feasible
        exact = field_at_point(mode, (0.0, 0.0, z))
        a = abs(est.sigma_components[0])
        b = abs(exact.sigma_components[0])
        worst = max(worst, abs(a - b) / b)
    ok = worst <= 0.10
    _report(4, ok, f"far-field asymptotic amplitude vs quadrature, 5 cases, "
                   f"worst relative error {worst:.3f} (tol 0.10)")
    assert ok


def test_criterion_05_single_mode_dominance(ybii_scan):
    """Calibrated share of the kappa = 0.02 mode at the focus (ybII).

    Each mode's share is proportional to its ladder step: halving both
    steps of the preset ladder halves it, 0.4692 -> 0.2346.  The band
    holds the preset ladder, a fit parameter, not a derived measure.
    """
    zs, results = ybii_scan
    res = results[int(np.where(zs == 0.0)[0][0])]
    probe = [r for r in res.rows if abs(r.kappa - 0.02) < 1e-12][0]
    t_hat = res.calibration * probe.weighted
    ok = 0.42 <= t_hat <= 0.52
    _report(5, ok, f"kappa=0.02 mode at focus: T = {t_hat:.4f} "
                   f"(band [0.42, 0.52])")
    assert ok


def test_criterion_06_enhancement_profile(ybii_scan):
    """Focal enhancement G(0) and its relaxation to 1 in the tails (ybII).

    G(0) measures the ratio of the ladder's two steps, 0.44 / 0.28, and
    the preset focal weight (amplitude 0.12); both are fit parameters.
    Halving both steps leaves it at 1.7571.
    """
    zs, results = ybii_scan
    totals = np.array([r.total for r in results])
    g0 = float(totals[zs == 0.0][0])
    inner = totals[(np.abs(zs) <= 20.0) & (np.abs(zs) > 0.0)]
    ok = 1.60 <= g0 <= 1.90 and inner.min() > 1.0
    tails_ok = True
    for sgn in (1.0, -1.0):
        sel = np.where((sgn * zs >= 28.0) & (sgn * zs <= 40.0))[0]
        sel = sel[np.argsort(sgn * zs[sel])]
        dev = np.abs(totals[sel] - 1.0)
        if not (np.all(np.diff(dev) <= 1e-4) and dev[-1] < 0.05):
            tails_ok = False
    ok = ok and tails_ok
    _report(6, ok, f"focal enhancement {g0:.4f} (band [1.60, 1.90]), "
                   f"min over |Z|<=20 is {inner.min():.4f} (> 1), "
                   f"tail relaxes to 1 beyond 25 c/w: {tails_ok}")
    assert ok


def test_criterion_07_stiffer_trap_floor(ybii_ion):
    """Calibrated share of the kappa = 0.64 mode at the focus (ybIII).

    Like criterion 05 it scales with the ladder step: halving both steps
    halves it, 0.3980 -> 0.1990.
    """
    raw = load_preset("ybIII")
    ion = IonSpec("YbIII", 171.0 * ATOMIC_MASS, 251e-9)
    eta = LambDicke.from_trap(ion.omega, ion.mass,
                              2 * np.pi * 460e3, 2 * np.pi * 960e3)
    dipole = DipoleSpec((0.0, 0.0, 1.0))
    catalog = build_catalog(raw["catalog"], ion.omega)
    catalog = calibrate(catalog, dipole, eta,
                        tuple(raw["calibration_window"]), threads=THREADS)
    res = total_rate(catalog, dipole, eta, 0.0)
    probe = [r for r in res.rows if abs(r.kappa - 0.64) < 1e-12][0]
    t_hat = res.calibration * probe.weighted
    ok = 0.35 <= t_hat <= 0.45
    _report(7, ok, f"kappa=0.64 mode at focus: T = {t_hat:.4f} "
                   f"(band [0.35, 0.45])")
    assert ok


def test_criterion_08_mode_count_economy(ybii_scan):
    """Modes above 5% of the largest entry at z = +-10 (ybII).

    The count goes as 1 / (ladder step): halving both steps doubles it,
    13 -> 26, outside the band.  The ladder step is a fit parameter.
    """
    zs, results = ybii_scan
    count = 0
    for z_probe in (10.0, -10.0):
        res = results[int(np.where(zs == z_probe)[0][0])]
        col = np.array([row.weighted for row in res.rows])
        count = max(count, int((col >= 0.05 * col.max()).sum()))
    ok = count <= 14
    _report(8, ok, f"modes above 5% of the max entry at Z=+-10: {count} (<= 14)")
    assert ok


def test_criterion_09_transverse_dipole_ordering(ybii_eta, dipole_transverse):
    rule = {
        "families": ["E |m|=1", "B |m|=1", "B m=0"],
        "kappa": {"start": 0.02, "step_inner": 0.28, "transition": 1.5,
                  "step_outer": 0.44, "max": 30.0},
    }
    catalog = build_catalog(rule, omega=1.0)
    ordering_ok = True
    resum_ok = True
    details = []
    scan = rate_scan(catalog, dipole_transverse, ybii_eta, [0.0, 2.0],
                     threads=THREADS)
    for z, res in zip((0.0, 2.0), scan):
        fam = dict(res.family_totals)
        ordering_ok &= fam["B |m|=1"] >= fam["B m=0"]
        resum_ok &= res.resummed_total() == res.total
        details.append(f"Z={z}: B|m|=1 {fam['B |m|=1']:.3e} vs "
                       f"B m=0 {fam['B m=0']:.3e}")
    ok = ordering_ok and resum_ok
    _report(9, ok, "; ".join(details) + f"; family resummation exact: {resum_ok}")
    assert ok


def test_criterion_10_property_suite(ybii_eta, dipole_axial, dipole_transverse,
                                     tmp_path):
    notes = []

    # transversality of the angular spectra
    rng = np.random.default_rng(99)
    worst_t = 0.0
    for family in ("E", "B"):
        for m in (-2, 0, 1):
            mode = ModeParams(omega=1.0, m=m, kappa=float(rng.uniform(-4, 4)),
                              family=family)
            theta = rng.uniform(0.05, np.pi - 0.05, size=60)
            phi = rng.uniform(0.0, 2 * np.pi, size=60)
            worst_t = max(worst_t, float(np.max(
                transversality_residual(mode, theta, phi))))
    assert worst_t < 1e-12
    notes.append(f"transversality {worst_t:.1e}")

    # positivity of emission weights
    for _ in range(8):
        mode = ModeParams(omega=1.0, m=int(rng.integers(-1, 2)),
                          kappa=float(rng.uniform(-5, 5)),
                          family=("E", "B")[int(rng.integers(2))])
        t = mode_contribution(mode, int(rng.choice([-1, 0, 1])), ybii_eta,
                              float(rng.uniform(-20, 20)))
        assert t >= 0.0
    notes.append("positivity ok")

    # polarization selection for an axial dipole
    rule = {"families": ["E m=0", "B |m|=1"], "kappa": {"values": [0.3]}}
    cat = build_catalog(rule, omega=1.0)
    res = total_rate(cat, dipole_axial, ybii_eta, 1.0)
    assert all(r.t_sigma[0] == 0.0 and r.t_sigma[1] == 0.0 for r in res.rows)
    res_perp = total_rate(cat, dipole_transverse, ybii_eta, 1.0)
    assert all(r.t_sigma[2] == 0.0 for r in res_perp.rows)
    notes.append("sigma selection ok")

    # point-trap factorization
    eta0 = LambDicke(1e-9, 1e-9)
    mode = ModeParams(omega=1.0, m=0, kappa=0.64, family="E")
    t0 = mode_contribution(mode, 0, eta0, -3.0)
    i0 = abs(field_at_point(mode, (0.0, 0.0, -3.0)).sigma_components[0]) ** 2
    fact_err = abs(t0 - i0) / i0
    assert fact_err < 1e-6
    notes.append(f"point-trap factorization {fact_err:.1e}")

    # series-order convergence of the rate engine: the default rel_tol
    # against rel_tol = 1e-12, which keeps more series terms, at a near and
    # a calibration-window trap center
    mode = ModeParams(omega=1.0, m=1, kappa=-0.8, family="B")
    tight = replace(DEFAULT_QUADRATURE, rel_tol=1e-12)
    conv = max(abs(a - b) / b for a, b in (
        (mode_contribution(mode, 1, ybii_eta, z),
         mode_contribution(mode, 1, ybii_eta, z, tight)) for z in (4.0, 140.0)))
    assert conv < 1e-10
    notes.append(f"series rel_tol 1e-9 -> 1e-12 change {conv:.2e}")

    # determinism across thread counts, including the serialized form
    cat = build_catalog({"families": ["E m=0"], "kappa": {"values": [0.02, 0.5]}},
                        omega=1.0)
    zs = np.array([-6.0, 0.0, 6.0])
    seq = rate_scan(cat, dipole_axial, ybii_eta, zs, threads=1)
    par = rate_scan(cat, dipole_axial, ybii_eta, zs, threads=3)
    assert all(a.total == b.total and a.rows == b.rows
               for a, b in zip(seq, par))
    rows = [(r.z, r.total) for r in seq]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), ("z", "total"), rows)
    write_csv(str(p2), ("z", "total"), [(r.z, r.total) for r in par])
    assert p1.read_bytes() == p2.read_bytes()
    notes.append("thread determinism byte-identical")

    _report(10, True, "; ".join(notes))

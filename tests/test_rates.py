import numpy as np
import pytest

from paramodes.core import ModeParams, DipoleSpec, EPS0, HBAR, C_LIGHT
from paramodes.trap import LambDicke
from paramodes.fieldeval import field_at_point
from paramodes.numerics import DEFAULT_QUADRATURE, QuadratureError
from paramodes.rates import (
    ModeCatalog, family_label,
    build_ladder, build_catalog, calibrate,
    mode_contribution, mode_contribution_direct, mode_contribution_general,
    total_rate, rate_scan, mode_table, gamma0,
)

TINY_RULE = {
    "families": ["E m=0"],
    "kappa": {"values": [0.02, 0.5, 1.3]},
}


def _tiny_catalog():
    return build_catalog(TINY_RULE, omega=1.0)


def test_build_ladder_structure():
    ks = build_ladder(0.02, 0.28, 1.5, 0.44, 6.0)
    assert 0.02 in ks
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert min(ks) >= -6.0 and max(ks) <= 6.0
    # inner region is sampled more densely than the outer region
    arr = np.array(ks)
    inner = np.diff(arr[(arr > -1.0) & (arr < 1.0)])
    outer = np.diff(arr[arr > 2.5])
    assert inner.max() < 0.29 and outer.min() > 0.43


def test_build_ladder_rejects_bad_rules():
    with pytest.raises(ValueError):
        build_ladder(0.0, -0.1, 1.0, 0.4, 6.0)
    with pytest.raises(ValueError):
        build_ladder(7.0, 0.3, 1.0, 0.4, 6.0)
    with pytest.raises(ValueError):
        build_ladder(0.0, 1e-4, 1.0, 0.4, 6.0)  # 120000 rungs


def test_build_catalog_families_and_weights():
    rule = {
        "families": ["E |m|=1", "B m=0"],
        "kappa": {"values": [-0.5, 0.5]},
        "weight": {"amplitude": 1.0, "width": 1.0},
    }
    cat = build_catalog(rule, omega=1.0)
    labels = {family_label(m.family, m.m) for m in cat.modes}
    assert labels == {"E |m|=1", "B m=0"}
    assert len(cat.modes) == 6  # (E,+1), (E,-1), (B,0) at two kappa each
    # weight 1 + exp(-kappa^2) enters through the coefficients, squared
    w = 1.0 + np.exp(-0.25)
    mode = cat.modes[0]
    assert abs(mode.coeff(1)) ** 2 == pytest.approx(w, rel=1e-12)


def test_build_catalog_rejects_empty():
    with pytest.raises(ValueError):
        build_catalog({"families": [], "kappa": {"values": [1.0]}}, omega=1.0)
    with pytest.raises(ValueError):
        build_catalog({"families": ["E m=0"], "kappa": {"values": []}}, omega=1.0)
    with pytest.raises(ValueError):
        build_catalog({"families": ["E m=0"]}, omega=1.0)
    with pytest.raises(ValueError):
        build_catalog({"families": ["Q m=0"], "kappa": {"values": [1.0]}}, omega=1.0)


def test_catalog_requires_increasing_kappa():
    mode = ModeParams(omega=1.0, m=0, kappa=0.5, family="E")
    with pytest.raises(ValueError):
        ModeCatalog(modes=(mode, mode))
    with pytest.raises(ValueError):
        ModeCatalog(modes=())
    with pytest.raises(ValueError):
        ModeCatalog(modes=(mode,), calibration=0.0)


def test_engine_paths_agree(ybii_eta):
    cases = [
        ("E", 0, 0.64, 0, -4.0),
        ("E", 1, 0.64, 1, -4.0),
        ("B", 1, -1.2, 1, -4.0),
        ("B", 0, 0.3, 1, -4.0),
    ]
    for fam, m, kappa, sigma, z in cases:
        mode = ModeParams(omega=1.0, m=m, kappa=kappa, family=fam)
        fast = mode_contribution(mode, sigma, ybii_eta, z)
        dense = mode_contribution_direct(mode, sigma, ybii_eta, z)
        assert dense == pytest.approx(fast, rel=1e-8)
        general = mode_contribution_general(
            mode, sigma, (ybii_eta.eta_x, ybii_eta.eta_y, ybii_eta.eta_z),
            (0.0, 0.0, z), order=6)
        assert general == pytest.approx(fast, rel=1e-8)


def test_rate_paths_raise_when_refinement_is_exhausted(ybii_eta):
    cfg = DEFAULT_QUADRATURE.replace(max_refinements=0,
                                     panels_per_oscillation=0.1)
    mode = ModeParams(omega=1.0, m=0, kappa=5.6, family="E")
    eta_xyz = (ybii_eta.eta_x, ybii_eta.eta_y, ybii_eta.eta_z)
    for path in (
            lambda: mode_contribution(mode, 0, ybii_eta, -11.2, cfg),
            lambda: mode_contribution_direct(mode, 0, ybii_eta, -11.2, cfg),
            lambda: mode_contribution_general(mode, 0, eta_xyz,
                                              (0.0, 0.0, -11.2), cfg)):
        with pytest.raises(QuadratureError) as err:
            path()
        assert err.value.residual > 0.0


def test_point_trap_limit_reduces_to_field_intensity():
    eta0 = LambDicke(1e-9, 1e-9, 1e-9)
    mode = ModeParams(omega=1.0, m=0, kappa=0.64, family="E")
    for z in (-4.0, 1.5):
        t = mode_contribution(mode, 0, eta0, z)
        want = abs(field_at_point(mode, (0.0, 0.0, z)).sigma_components[0]) ** 2
        assert t == pytest.approx(want, rel=1e-6)
    # nonzero winding channels vanish for a point trap
    vortex = ModeParams(omega=1.0, m=1, kappa=0.64, family="E")
    assert mode_contribution(vortex, 0, eta0, -4.0) < 1e-12


def test_contributions_are_positive(ybii_eta):
    rng = np.random.default_rng(17)
    for _ in range(10):
        fam = ("E", "B")[int(rng.integers(2))]
        m = int(rng.integers(-1, 2))
        kappa = float(rng.uniform(-5, 5))
        z = float(rng.uniform(-25, 25))
        sigma = int(rng.choice([-1, 0, 1]))
        mode = ModeParams(omega=1.0, m=m, kappa=kappa, family=fam)
        assert mode_contribution(mode, sigma, ybii_eta, z) >= 0.0


def test_series_order_convergence(ybii_eta):
    mode = ModeParams(omega=1.0, m=0, kappa=1.1, family="E")
    coarse = mode_contribution(mode, 0, ybii_eta, -3.0, n_axial=3, n_radial=3)
    fine = mode_contribution(mode, 0, ybii_eta, -3.0, n_axial=5, n_radial=5)
    assert abs(coarse - fine) / fine < 0.005


def test_total_rate_structure(ybii_eta, dipole_axial):
    cat = _tiny_catalog()
    res = total_rate(cat, dipole_axial, ybii_eta, 0.0)
    assert res.total > 0
    assert res.total == res.resummed_total()
    # axial dipole selects only sigma = 0
    for row in res.rows:
        assert row.t_sigma[0] == 0.0 and row.t_sigma[1] == 0.0
        assert row.t_sigma[2] >= 0.0
        assert row.weighted == pytest.approx(row.t_sigma[2], rel=1e-15)
    # total re-derives from the rows exactly through the family grouping
    recomputed = sum(res.calibration * row.weighted for row in res.rows)
    assert res.total == pytest.approx(recomputed, rel=1e-12)


def test_transverse_dipole_selection(ybii_eta, dipole_transverse):
    rule = {"families": ["B |m|=1"], "kappa": {"values": [0.4]}}
    cat = build_catalog(rule, omega=1.0)
    res = total_rate(cat, dipole_transverse, ybii_eta, 0.0)
    for row in res.rows:
        assert row.t_sigma[2] == 0.0
        assert row.weighted == pytest.approx(
            0.25 * (row.t_sigma[0] + row.t_sigma[1]), rel=1e-15)


def test_calibration_normalizes_far_field(ybii_eta, dipole_axial):
    cat = calibrate(_tiny_catalog(), dipole_axial, ybii_eta,
                    window=(120.0, 160.0, 20.0))
    assert cat.calibration > 0
    zs = np.arange(120.0, 160.01, 20.0)
    res = rate_scan(cat, dipole_axial, ybii_eta, zs)
    assert np.mean([r.total for r in res]) == pytest.approx(1.0, rel=1e-12)
    assert cat.meta["calibration_window"] == (120.0, 160.0, 20.0)


def test_scale_equivariance(ybii_eta, dipole_axial):
    rule2 = dict(TINY_RULE, coeffs=(3.0, -3.0, 0.0))
    cat1 = calibrate(_tiny_catalog(), dipole_axial, ybii_eta,
                     window=(120.0, 160.0, 20.0))
    cat2 = calibrate(build_catalog(rule2, omega=1.0), dipole_axial, ybii_eta,
                     window=(120.0, 160.0, 20.0))
    r1 = total_rate(cat1, dipole_axial, ybii_eta, -2.0)
    r2 = total_rate(cat2, dipole_axial, ybii_eta, -2.0)
    assert r1.total == pytest.approx(r2.total, rel=1e-10)


def test_rate_scan_deterministic_across_threads(ybii_eta, dipole_axial):
    cat = _tiny_catalog()
    zs = np.array([-6.0, -2.0, 0.0, 2.0, 6.0])
    seq = rate_scan(cat, dipole_axial, ybii_eta, zs, threads=1)
    par = rate_scan(cat, dipole_axial, ybii_eta, zs, threads=3)
    for a, b in zip(seq, par):
        assert a.total == b.total           # bitwise identical
        assert a.rows == b.rows
        assert a.family_totals == b.family_totals


def test_mode_table_sorted_and_normalized(ybii_eta, dipole_axial):
    cat = calibrate(_tiny_catalog(), dipole_axial, ybii_eta,
                    window=(120.0, 160.0, 20.0))
    table = mode_table(cat, dipole_axial, ybii_eta, 0.0)
    ks = [row["kappa"] for row in table]
    assert ks == sorted(ks)
    assert sum(row["fraction"] for row in table) == pytest.approx(1.0, rel=1e-12)
    assert all(row["contribution"] >= 0 for row in table)


def test_rate_result_serialization(ybii_eta, dipole_axial):
    res = total_rate(_tiny_catalog(), dipole_axial, ybii_eta, 1.0)
    d = res.to_dict()
    assert d["z"] == 1.0
    assert d["total"] == res.total
    assert len(d["modes"]) == len(res.rows)
    assert set(d["families"]) == {"E m=0"}


def test_free_space_rate_formula():
    omega, d = 5.0e15, 1.0e-29
    want = omega**3 * d**2 / (3 * np.pi * EPS0 * HBAR * C_LIGHT**3)
    assert gamma0(omega, d) == pytest.approx(want, rel=1e-15)

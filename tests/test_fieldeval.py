import warnings

import numpy as np
import pytest

from paramodes import fieldeval, load_preset
from paramodes.core import ModeParams, SIGMAS
from paramodes import numerics
from paramodes.numerics import (
    QuadratureConfig, QuadratureError, refine, window_nodes, sin_cos_theta,
    taper_window,
)
from paramodes.spectrum import u_spectrum
from paramodes.fieldeval import (
    field_at_point, localization_plane,
    stationary_phase_angle, stationary_phase_field, stationary_phase_prefactor,
    intensity_map, isointensity_grid, axis_intensity_scan, INFEASIBLE,
)
from paramodes.oracles import field_2d_oracle


def _axial_mode(kappa):
    return ModeParams(omega=1.0, m=0, kappa=kappa, family="E")


def test_on_axis_closed_form():
    # |E_z(kappa, 0)|^2 = 16 pi^2 kappa^2 / sinh^2(pi kappa) for the m=0 E-mode
    for kappa in (0.02, 0.64, 2.0):
        sample = field_at_point(_axial_mode(kappa), (0.0, 0.0, 0.0))
        want = 16 * np.pi**2 * kappa**2 / np.sinh(np.pi * kappa) ** 2
        assert abs(sample.sigma_components[0]) ** 2 == pytest.approx(want, rel=1e-7)
        # transverse components carry winding +-1 and vanish on axis
        assert abs(sample.sigma_components[1]) < 1e-12
        assert abs(sample.sigma_components[-1]) < 1e-12


def test_on_axis_frozen_value():
    sample = field_at_point(_axial_mode(0.02), (0.0, 0.0, 0.0))
    assert abs(sample.sigma_components[0]) ** 2 == pytest.approx(15.978961458017375, rel=1e-7)


def test_reduced_path_matches_2d_oracle():
    cases = [
        (ModeParams(omega=1.0, m=1, kappa=-0.64, family="E"), (1.7, 0.9, 3.3)),
        (ModeParams(omega=1.0, m=0, kappa=2.0, family="B"), (0.6, 4.1, -5.0)),
        (ModeParams(omega=1.0, m=-2, kappa=1.1, family="E"), (2.2, 2.8, 1.5)),
    ]
    for mode, pos in cases:
        a = field_at_point(mode, pos)
        b = field_2d_oracle(mode, pos)
        scale = max(np.sqrt(a.intensity), 1e-8)
        for s in SIGMAS:
            assert abs(a.sigma_components[s] - b.sigma_components[s]) <= 1e-6 * scale


def test_intensity_metric_identity():
    mode = ModeParams(omega=1.0, m=1, kappa=0.8, family="B")
    sample = field_at_point(mode, (1.2, 0.4, -2.0))
    cart = sample.E
    assert sample.intensity == pytest.approx(float(np.sum(np.abs(cart) ** 2)), rel=1e-12)


def test_winding_phase_structure():
    mode = ModeParams(omega=1.0, m=1, kappa=-1.5, family="E")
    base = field_at_point(mode, (1.4, 0.0, 2.0))
    rotated = field_at_point(mode, (1.4, 1.1, 2.0))
    for s in SIGMAS:
        n = mode.m - s
        want = base.sigma_components[s] * np.exp(1j * n * 1.1)
        assert rotated.sigma_components[s] == pytest.approx(want, abs=1e-12)


def test_position_validation():
    mode = _axial_mode(0.5)
    with pytest.raises(ValueError):
        field_at_point(mode, (-1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        field_at_point(mode, (np.inf, 0.0, 0.0))
    with pytest.raises(ValueError, match="phi must be finite"):
        field_at_point(mode, (1.0, np.nan, 0.0))


def test_field_grids_are_checked_before_any_quadrature(monkeypatch):
    def no_quadrature(*args, **kw):
        raise AssertionError("quadrature started before the check")
    monkeypatch.setattr(fieldeval, "refine", no_quadrature)
    mode = _axial_mode(-0.64)
    for rho, zs in (([0.0, 1.0], [0.0, np.nan]), ([np.inf], [0.0]),
                    ([0.0, np.nan], [1.0])):
        with pytest.raises(ValueError, match="rho and z values must be finite"):
            intensity_map(mode, "z", rho, zs)
    with pytest.raises(ValueError, match="rho values must be nonnegative"):
        intensity_map(mode, "z", [-0.5, 1.0], [0.0])
    with pytest.raises(ValueError, match="rho values must be nonnegative"):
        field_at_point(mode, (-1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="must be finite"):
        axis_intensity_scan(mode, [0.0, np.inf])
    for call, name in ((lambda: intensity_map(mode, "z", [], [0, 1]), "rho"),
                       (lambda: intensity_map(mode, "z", [0], []), "z"),
                       (lambda: axis_intensity_scan(mode, []), "z"),
                       (lambda: isointensity_grid(mode, 0.5, [], [0], [0]),
                        "rho")):
        with pytest.raises(ValueError, match=f"no {name} values"):
            call()


def test_localization_plane():
    assert localization_plane(5.6) == pytest.approx(-11.2)
    assert localization_plane(-0.64) == pytest.approx(1.28)


def test_axis_peak_near_localization_plane_small_kappa():
    # kappa = -0.64 focuses near Z = +1.28
    mode = _axial_mode(-0.64)
    zs = np.arange(-4.0, 8.0, 0.05)
    i = axis_intensity_scan(mode, zs)
    z_peak = zs[np.argmax(i)]
    assert abs(z_peak - 1.28) <= 2.0


def test_axis_scan_consistent_with_pointwise(monkeypatch):
    mode = _axial_mode(1.3)
    zs = np.array([-4.0, -2.6, 0.5])
    scan = axis_intensity_scan(mode, zs)
    for z, val in zip(zs, scan):
        point = abs(field_at_point(mode, (0.0, 0.0, z)).sigma_components[0]) ** 2
        assert val == pytest.approx(point, rel=1e-10)
    # the map's channels and metric against pointwise samples; each point
    # grades its own grid by its |z|, and MIN_PANELS makes every grid fine
    # enough that the grids' differences stay at round-off
    monkeypatch.setattr(numerics, "MIN_PANELS", 240)
    mode = ModeParams(omega=1.0, m=1, kappa=-0.64, family="E")
    rho, zs = np.array([0.0, 0.6, 1.3]), np.array([-1.0, 0.4, 1.5])
    grid, mask = intensity_map(mode, "total", rho, zs)
    point = np.array([[field_at_point(mode, (r, 0.3, z)).intensity
                       for r in rho] for z in zs])
    assert not mask.any()
    assert np.max(np.abs(grid - point / point.max())) <= 1e-12


def test_fig1e_axis_scan_converged(monkeypatch):
    # the default 92-panel grid straddled the taper knee before panel edges
    # were put on it, and missed this reference by 1.25e-11 of max
    raw = load_preset("fig1e")
    mode, mp = ModeParams(omega=1.0, **raw["mode"]), raw["map"]
    zs = np.linspace(mp["z_center"] - mp["z_half_span"],
                     mp["z_center"] + mp["z_half_span"], mp["n_z"])
    got = axis_intensity_scan(mode, zs)
    # no fewer panels than the 365 of the 40-per-oscillation grid
    monkeypatch.setattr(numerics, "MIN_PANELS", 400)
    ref = axis_intensity_scan(mode, zs, QuadratureConfig(rel_tol=1e-11))
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(ref)


def test_stationary_phase_angle_cases():
    theta = stationary_phase_angle(-5.6, 70.0)
    assert 0 < theta <= np.pi / 2
    assert np.sin(theta) ** 2 == pytest.approx(2 * 5.6 / 70.0, rel=1e-14)
    assert stationary_phase_angle(5.6, 70.0) is INFEASIBLE
    assert stationary_phase_angle(-40.0, 70.0) is INFEASIBLE
    assert stationary_phase_angle(-35.0, 70.0) == pytest.approx(np.pi / 2)
    with pytest.raises(ValueError):
        stationary_phase_angle(1.0, 0.0)


def test_stationary_phase_prefactor_flat_limit():
    assert stationary_phase_prefactor(0.0, 100.0) == pytest.approx(np.sqrt(np.pi / 100.0), rel=1e-14)


def test_stationary_phase_infeasible_is_flagged_zero():
    mode = _axial_mode(5.6)
    est = stationary_phase_field(mode, (0.0, 0.0, 70.0))
    assert not est.feasible
    assert est.intensity == 0.0


def test_stationary_phase_at_the_caustic_is_flagged_zero():
    # z = -2 kappa: the sine ratio is exactly 1 and the prefactor infinite
    mode = ModeParams(omega=1.0, m=1, kappa=-15.0, family="E")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = stationary_phase_field(mode, (0.5, 0.0, 30.0))
    assert not est.feasible
    assert est.intensity == 0.0


def test_stationary_phase_matches_far_field():
    mode = _axial_mode(-5.6)
    est = stationary_phase_field(mode, (0.0, 0.0, 70.0))
    assert est.feasible
    exact = field_at_point(mode, (0.0, 0.0, 70.0))
    a = abs(est.sigma_components[0])
    b = abs(exact.sigma_components[0])
    assert abs(a - b) / b < 0.10


def test_stationary_phase_warns_near_focus():
    mode = _axial_mode(-0.5)
    with pytest.warns(UserWarning):
        stationary_phase_field(mode, (0.0, 0.0, 5.0))


def test_intensity_map_normalization_and_mask():
    mode = _axial_mode(-0.64)
    rho = np.linspace(0.0, 2.0, 5)
    zs = np.linspace(-0.5, 3.0, 7)
    grid, mask = intensity_map(mode, "z", rho, zs)
    assert grid.shape == (7, 5)
    assert not mask.any()
    assert np.nanmax(grid) == pytest.approx(1.0)
    assert np.nanmin(grid) >= 0.0


def test_intensity_map_total_component():
    mode = ModeParams(omega=1.0, m=1, kappa=0.3, family="B")
    rho = np.linspace(0.0, 1.5, 4)
    zs = np.array([-1.0, 0.0])
    grid, mask = intensity_map(mode, "total", rho, zs)
    assert grid.shape == (2, 4) and not mask.any()
    assert np.nanmax(grid) == pytest.approx(1.0)


def test_isointensity_grid_threshold():
    mode = _axial_mode(-0.64)
    xy = np.linspace(-1.5, 1.5, 5)
    zs = np.linspace(0.3, 2.3, 4)
    grid, thr = isointensity_grid(mode, 0.5, xy, xy, zs)
    assert grid.shape == (5, 5, 4)
    assert thr == pytest.approx(0.5 * grid.max())
    # m=0 intensity is axisymmetric: swapping x and y is a symmetry
    assert np.array_equal(grid, np.transpose(grid, (1, 0, 2)))
    with pytest.raises(ValueError):
        isointensity_grid(mode, 1.5, xy, xy, zs)


def test_intensity_map_failure_masks_whole_grid(monkeypatch):
    # a graded first pair at the default density converges by design, so
    # the failure needs a first grid far too coarse for the phase, and no
    # doubling past its check grid
    monkeypatch.setattr(numerics, "PANELS_PER_OSCILLATION", 0.1)
    monkeypatch.setattr(numerics, "MAX_PANELS", 2 * numerics.MIN_PANELS)
    mode = ModeParams(omega=1.0, m=0, kappa=-10.4, family="E")
    with pytest.raises(QuadratureError) as err:
        intensity_map(mode, "total", np.linspace(0.0, 2.0, 3),
                      np.linspace(18.0, 24.0, 4))
    assert err.value.residual > 0.0


def test_intensity_map_rejects_unknown_component(monkeypatch):
    def no_quadrature(*args, **kw):
        raise AssertionError("quadrature started before the check")
    monkeypatch.setattr(fieldeval, "refine", no_quadrature)
    with pytest.raises(ValueError, match="'z'.*'total'"):
        intensity_map(_axial_mode(-0.64), "x", [0.0, 1.0], [0.0, 1.0])


def test_field_kernel_blocks_match_single_block(monkeypatch):
    # with _BLOCK = 2, the last rho tile (5 values) and z tile (7 values)
    # are short, so they run on partial views of the tile buffers
    mode = ModeParams(omega=1.0, m=1, kappa=-0.64, family="E")
    rho, zs = np.linspace(0.0, 2.0, 5), np.linspace(-0.5, 3.0, 7)
    xy = np.array([-2.0, -0.5, 0.0, 1.0, 2.0])

    def views():
        return (intensity_map(mode, "total", rho, zs)[0],
                isointensity_grid(mode, 0.5, xy, xy, zs)[0],
                axis_intensity_scan(mode, zs))
    whole = views()
    monkeypatch.setattr(fieldeval, "_BLOCK", 2)
    for tiled, ref in zip(views(), whole):
        assert np.max(np.abs(tiled - ref)) <= 1e-13 * np.max(ref)


def test_field_kernel_grades_by_its_largest_z(monkeypatch):
    requests = []  # (z passed to refine, node count of each grid evaluated)

    def recording_refine(estimate, n_oscillations, cfg, z=0.0):
        grids = []

        def counted(u, wk):
            grids.append(len(u) // 15)
            return estimate(u, wk)
        requests.append((z, grids))
        return refine(counted, n_oscillations, cfg, z)

    monkeypatch.setattr(fieldeval, "refine", recording_refine)
    mode = ModeParams(omega=1.0, m=1, kappa=-0.64, family="E")
    intensity_map(mode, "total", [0.0, 1.0], [-7.5, 3.0, 5.0])
    field_at_point(mode, (0.5, 0.0, -2.0))
    assert [z for z, _ in requests] == [7.5, 2.0]
    # every fig1 preset map converges on its first pair of graded grids;
    # fig1b's on 12 and 24 panels, the fewest the rule allows
    for name in ("fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f"):
        raw = load_preset(name)
        mode, mp = ModeParams(omega=1.0, **raw["mode"]), raw["map"]
        rho = np.linspace(0.0, mp["rho_max"], mp["n_rho"])
        zs = np.linspace(mp["z_center"] - mp["z_half_span"],
                         mp["z_center"] + mp["z_half_span"], mp["n_z"])
        _, mask = intensity_map(mode, mp["component"], rho, zs)
        z, grids = requests[-1]
        assert not mask.any()
        assert z == np.abs(zs).max() and len(grids) == 2, name
        assert grids[1] == 2 * grids[0]
        assert name != "fig1b" or grids == [12, 24]


@pytest.mark.parametrize("n_panels", [25, 24])
def test_folded_field_kernel_matches_the_full_grid_sum(n_panels, monkeypatch):
    # odd panel counts put a node at u = 0, which the folded sum counts
    # once; the plain sum below runs over both halves of the same grid
    from scipy.special import jv
    grid = window_nodes(n_panels, 4.4, 12.0)
    estimates = []

    def one_grid(estimate, *args):
        estimates.append(estimate(*grid))
        return estimates[-1], 0.0
    monkeypatch.setattr(fieldeval, "refine", one_grid)
    rho, zs = np.array([0.0, 0.7, 2.3]), np.array([-3.1, 0.0, 4.4])
    u, wk = grid
    s, c = sin_cos_theta(u)
    phase = np.exp(1j * np.outer(zs, c))
    for family, m in (("E", 0), ("E", 1), ("B", 0), ("B", -1)):
        mode = ModeParams(omega=1.0, m=m, kappa=-0.64, family=family,
                          coeffs=(1.0, 0.3j, 0.5))
        fieldeval._field_integrals(mode, rho, zs)
        a = u_spectrum(mode, u)
        want = np.array([
            np.einsum("ru,zu,u->zr", jv(m - sigma, np.outer(rho, s)),
                      phase, wk * a_s * s**2 * taper_window(u))
            for sigma, a_s in zip(SIGMAS, a)])
        got = estimates[-1]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

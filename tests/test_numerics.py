import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from threading import Barrier, Event, Thread

import numpy as np
import pytest
from scipy.special import jv

from paramodes import fieldeval, load_preset, numerics, rates
from paramodes.cli import RunConfig
from paramodes.core import ModeParams
from paramodes.numerics import (
    QuadratureConfig, QuadratureError, DEFAULT_QUADRATURE, WINDOW,
    TAPER_FRACTION, KNEE, PANELS_PER_OSCILLATION, MIN_PANELS, MAX_PANELS,
    panel_nodes, window_nodes, folded_nodes, taper_window, refine,
    sin_cos_theta, theta_from_u, bessel_j, oscillation_count,
)
from paramodes.oracles import (
    integrate_adaptive, u_from_theta, bessel_i, bessel_j_series,
    bessel_i_series,
)


def test_panel_nodes_integrate_gaussian():
    u, wk, _ = panel_nodes(24, -12.0, 12.0)
    est = float(np.exp(-u**2) @ wk)
    assert est == pytest.approx(np.sqrt(np.pi), rel=1e-13)


def test_successive_kronrod_estimates_agree_on_smooth_integrand():
    exact = 2.0 * np.tanh(12.0)
    coarse, fine = (float(np.cosh(u) ** -2 @ wk)
                    for u, wk, _ in (panel_nodes(n, -12.0, 12.0)
                                     for n in (8, 16)))
    # doubling the panels gains digits, so the pair's difference is the
    # coarser estimate's error
    assert fine == pytest.approx(exact, rel=1e-13)
    assert coarse == pytest.approx(exact, rel=1e-10)
    assert abs(fine - exact) < 1e-2 * abs(coarse - exact)
    assert abs(fine - coarse) == pytest.approx(abs(coarse - exact), rel=1e-2)
    # the third value is the panel edges
    edges = panel_nodes(16, -12.0, 12.0)[2]
    assert np.array_equal(edges, np.linspace(-12.0, 12.0, 17))


def test_oscillatory_closed_form():
    # Int sech^2(u) e^{-2 i kappa u} du = 2 pi kappa / sinh(pi kappa)
    for kappa in (0.3, 1.1, 2.0):
        def values(u, kappa=kappa):
            return np.cosh(u) ** -2 * np.exp(-2j * kappa * u)
        nosc = 4 * kappa * 12.0 / (2 * np.pi)
        est, resid = integrate_adaptive(values, nosc)
        want = 2 * np.pi * kappa / np.sinh(np.pi * kappa)
        assert complex(est) == pytest.approx(want, rel=1e-8)
        assert resid >= 0.0


def test_adaptive_refinement_reaches_tolerance(monkeypatch):
    monkeypatch.setattr(numerics, "MIN_PANELS", 4)

    def values(u):
        return np.cos(5.0 * u) * np.exp(-u**2)
    est, _ = integrate_adaptive(values, 1.0)
    want = np.sqrt(np.pi) * np.exp(-25.0 / 4.0)
    assert float(np.real(est)) == pytest.approx(want, rel=1e-9)

    # each row of the leading axis converges on its own scale
    def rows(u):
        return np.stack([np.full_like(u, 1e6), values(u)])[:, None, :]
    est, _ = integrate_adaptive(rows, 1.0)
    assert float(np.real(est[1, 0])) == pytest.approx(want, rel=1e-9)


def test_quadrature_failure_raises_with_residual(monkeypatch):
    # the first pair, 3 and 6 panels, is the last grid below the cap
    monkeypatch.setattr(numerics, "MIN_PANELS", 3)
    monkeypatch.setattr(numerics, "MAX_PANELS", 2 * numerics.MIN_PANELS)
    estimates = []

    def values(u):
        vals = np.cos(200.0 * u)
        estimates.append(lambda wk: float(vals @ wk))
        return vals
    with pytest.raises(QuadratureError, match="after 0 refinements; "
                       "12 panels would pass") as err:
        integrate_adaptive(values, 1.0)
    # the residual is the pair's difference, a number
    coarse, fine = (est(wk) for est, (_, wk) in zip(
        estimates, (window_nodes(3), window_nodes(6))))
    assert len(estimates) == 2
    assert err.value.residual == abs(fine - coarse) > 0.0


def test_oversized_first_grid_raises_before_any_node(monkeypatch):
    def unreachable(*args):
        raise AssertionError("nodes or estimate built for an oversized grid")
    monkeypatch.setattr(numerics, "window_nodes", unreachable)
    # the first grid fits under the cap, but the grid that checks it,
    # twice as many panels, does not
    n_first = MAX_PANELS // 2 + 1
    nosc = n_first / PANELS_PER_OSCILLATION
    with pytest.raises(ValueError, match=re.escape(f"{nosc:.4g} phase ")
                       + f"oscillations.*first grid of {n_first} panels, "
                       f"checked on {2 * n_first}.*MAX_PANELS = {MAX_PANELS}"):
        refine(unreachable, nosc)
    # a pair that fits builds its nodes
    with pytest.raises(AssertionError, match="nodes or estimate built"):
        refine(unreachable, (MAX_PANELS // 2) / PANELS_PER_OSCILLATION)


def test_doubling_past_the_panel_cap_raises(monkeypatch):
    # MAX_PANELS is the only bound: an estimate that never converges
    # doubles from MIN_PANELS = 12, checked on 24, up to 12,288 panels
    # before it raises, with the last pair's difference as its residual
    grids = []

    def never(u, wk):
        grids.append(len(u) // 15)
        return float(len(grids) % 2)
    with pytest.raises(QuadratureError, match="after 9 refinements; "
                       "24576 panels would pass MAX_PANELS = 16384") as err:
        refine(never, 0.0)
    assert grids == [12 * 2**k for k in range(11)]
    assert err.value.residual == 1.0

    monkeypatch.setattr(numerics, "MAX_PANELS", 4 * MIN_PANELS)
    grids.clear()

    def values(u):
        grids.append(len(u) // 15)
        return np.cos(200.0 * u)
    with pytest.raises(QuadratureError, match="after 1 refinements; "
                       f"{8 * MIN_PANELS} panels would pass") as err:
        integrate_adaptive(values, 1.0)
    assert err.value.residual > 0.0
    assert grids == [MIN_PANELS, 2 * MIN_PANELS, 4 * MIN_PANELS]


def test_window_nodes_put_edges_on_taper_knees():
    for n_panels in (24, 92, 97, 100, 301):
        u, wk = window_nodes(n_panels)
        assert len(u) == len(wk) == 15 * n_panels
        assert float(wk.sum()) == pytest.approx(2 * WINDOW, rel=1e-14)
        panels = u.reshape(n_panels, 15)
        for edge in (-KNEE, KNEE):
            assert np.all((panels.max(axis=1) < edge)
                          | (panels.min(axis=1) > edge))
    # a multiple of ten panels is the uniform grid
    for got, want in zip(window_nodes(100),
                         panel_nodes(100, -WINDOW, WINDOW)[:2]):
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)


def _first_grid(kappa, z):
    """(n_panels, n_oscillations) of refine's first grid for a rate phase."""
    nosc = oscillation_count(kappa, z, 0.0)
    return max(MIN_PANELS, int(np.ceil(nosc * PANELS_PER_OSCILLATION))), nosc


def test_graded_window_nodes_put_edges_on_taper_knees():
    for kappa, z in ((0.0, 3.0), (0.0, 160.0), (5.6, -40.0), (21.0, 140.0)):
        n_first, nosc = _first_grid(kappa, z)
        for n_panels in (n_first, 2 * n_first, 97):
            u, wk = window_nodes(n_panels, z, nosc)
            assert len(u) == len(wk) == 15 * n_panels
            assert abs(float(wk.sum()) - 2 * WINDOW) <= 1e-14 * WINDOW
            panels = u.reshape(n_panels, 15)
            assert np.all(np.diff(u) > 0.0)
            for edge in (-KNEE, KNEE):
                assert np.all((panels.max(axis=1) < edge)
                              | (panels.min(axis=1) > edge))
            # the trap phase crowds the panels toward u = 0
            width = np.ptp(panels, axis=1)
            assert width[n_panels // 2] < width[0]


def test_window_nodes_at_zero_z_are_the_knee_aligned_rule():
    # the knee is computed, not the literal 9.6, which would move every edge
    W, knee = 12.0, (1.0 - 0.2) * 12.0
    assert (WINDOW, TAPER_FRACTION, KNEE) == (W, 0.2, knee) and knee != 9.6
    for n_panels in (24, 25, 35, 92, 97, 100, 301):
        # at z = 0 the grading G is linear, so the taper segments get
        # (W - KNEE) / 2W = 0.09999999999999995 of the panels: 3 a side of 35
        n_taper = round(n_panels * (W - knee) / (2 * W))
        n_mid = n_panels - 2 * n_taper
        for nosc in (0.0, 40.0):
            u, wk = window_nodes(n_panels, 0.0, nosc)
            # a panel's middle node is its midpoint, its Kronrod weights
            # sum to its width
            mid = u.reshape(n_panels, 15)[:, 7]
            width = wk.reshape(n_panels, 15).sum(axis=1)
            left, right = mid - width / 2, mid + width / 2
            assert np.allclose(right[:-1], left[1:], rtol=0.0, atol=1e-13)
            assert np.allclose(
                [left[0], right[n_taper - 1], left[n_taper + n_mid],
                 right[-1]], [-W, -knee, knee, W], rtol=0.0, atol=1e-13)
            for segment, length in (
                    (width[:n_taper], W - knee),
                    (width[n_taper:n_taper + n_mid], 2 * knee),
                    (width[n_taper + n_mid:], W - knee)):
                assert np.allclose(segment, length / len(segment),
                                   rtol=1e-13, atol=0.0)


def test_window_nodes_are_continuous_at_zero_z():
    # z = 0 takes the graded rule, not a rule of its own
    for n_panels in (24, 35, 97, 1284):
        for nosc in (0.0, 40.0):
            for a, b in zip(window_nodes(n_panels, 0.0, nosc),
                            window_nodes(n_panels, 1e-300, nosc)):
                assert np.array_equal(a, b)


def test_window_nodes_are_exactly_mirror_symmetric():
    # u -> -u maps every grid onto itself bit for bit, so the engines may
    # evaluate their tables on the u >= 0 half
    for n_panels in (3, 24, 25, 97, 100, 1284):
        for z, nosc in ((0.0, 0.0), (0.0, 40.0), (160.0, 60.0),
                        (-11.2, 30.0)):
            u, wk = window_nodes(n_panels, z, nosc)
            assert np.array_equal(u, -u[::-1])
            assert np.array_equal(wk, wk[::-1])
            # an odd panel count centers a panel, and its middle node, on 0
            assert (u[len(u) // 2] == 0.0) == (n_panels % 2 == 1)


def test_folded_nodes_sum_like_the_full_grid():
    def f(u):
        return np.exp(-u**2 / 8) * (2.0 + np.sin(3.0 * u))
    for n_panels in (25, 24):
        u, wk = window_nodes(n_panels, 7.0, 20.0)
        full = [x.copy() for x in (u, wk)]
        h, hk = folded_nodes(u, wk)
        assert len(h) == (len(u) + 1) // 2 and np.all(h >= 0.0)
        assert (h[0] == 0.0) == (n_panels % 2 == 1)
        assert float((f(h) + f(-h)) @ hk) \
            == pytest.approx(float(f(u) @ wk), rel=1e-14)
        # the full grid is left as it was
        for got, want in zip((u, wk), full):
            assert np.array_equal(got, want)


def test_graded_first_grid_resolves_the_trap_phase():
    # Int sech^2(u) e^{i z tanh u} du over |u| <= W = 2 sin(z tanh W) / z,
    # on the grid that checks the first one
    z = 160.0
    want = 2.0 * np.sin(z * np.tanh(WINDOW)) / z
    n_first, nosc = _first_grid(0.0, z)
    n_panels = 2 * n_first

    def error(u, wk):
        return abs(complex(np.cosh(u) ** -2 * np.exp(1j * z * np.tanh(u)) @ wk)
                   - want)
    assert error(*window_nodes(n_panels, z, nosc)) <= 1e-12
    assert error(*window_nodes(n_panels)) > 1e-6


def test_accepted_grids_match_a_grid_four_times_finer(monkeypatch):
    # the successive-Kronrod rule's outputs against the same engines on a
    # grid four times finer than the one refine() accepted
    def with_reference(engine, call):
        grids = []

        def recording(estimate, n_oscillations, cfg, z=0.0):
            def counted(u, wk):
                grids.append(len(u) // 15)
                return estimate(u, wk)
            return refine(counted, n_oscillations, cfg, z)

        def finer(estimate, n_oscillations, cfg, z=0.0):
            grid = window_nodes(4 * grids[-1], z, n_oscillations)
            return estimate(*grid), 0.0

        monkeypatch.setattr(engine, "refine", recording)
        got = call()
        monkeypatch.setattr(engine, "refine", finer)
        ref = call()
        monkeypatch.undo()
        return np.asarray(got), np.asarray(ref)

    # fig1b at full size: the map, one row of the isosurface, the axis scan
    fig = RunConfig.from_dict(load_preset("fig1b"))
    mode, mp = fig.mode, fig.map_spec
    rho = np.linspace(0.0, mp["rho_max"], mp["n_rho"])
    zs = np.linspace(mp["z_center"] - mp["z_half_span"],
                     mp["z_center"] + mp["z_half_span"], mp["n_z"])
    xy = np.linspace(-mp["rho_max"], mp["rho_max"], mp["n_iso"])
    cases = [
        ("fig1b map", fieldeval,
         lambda: fieldeval.intensity_map(mode, mp["component"], rho, zs)[0]),
        ("fig1b isosurface row", fieldeval,
         lambda: fieldeval.isointensity_grid(mode, 0.5, xy, [0.0],
                                             zs[::5])[0]),
        ("fig1b axis scan", fieldeval,
         lambda: fieldeval.axis_intensity_scan(mode, zs))]
    # E m=0 at ybII's largest |kappa|, whose phase sizes the grid, at the
    # focus and the scan's ends, and likewise a ybII-perp B |m|=1 task.
    # Their T is below 1e-20, so each rides with the family's focal mode,
    # whose T is the scale
    for preset, family, m, sigma, zs_task in (
            ("ybII", "E", 0, 0, (0.0, -40.0, 40.0)),
            ("ybII-perp", "B", 1, 1, (0.0, -40.0))):
        cfg = RunConfig.from_dict(load_preset(preset))
        modes = sorted((md for md in rates.build_catalog(
            cfg.catalog_rule, cfg.ion.omega).modes
            if (md.family, md.m) == (family, m)), key=lambda md: abs(md.kappa))
        tasks = [(modes[0], sigma), (modes[-1], sigma)]
        for z in zs_task:
            cases.append((f"{preset} {family} m={m} z={z}", rates,
                          lambda tasks=tasks, cfg=cfg, z=z: rates._catalog_T(
                              tasks, cfg.eta, [z], DEFAULT_QUADRATURE)))
    for name, engine, call in cases:
        got, ref = with_reference(engine, call)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref)), name


def test_taper_window_shape():
    u = np.array([0.0, 5.0, 9.6, 10.8, 12.0, 13.0])
    t = taper_window(u)
    assert t[0] == 1.0 and t[1] == 1.0 and t[2] == 1.0
    assert 0.0 < t[3] < 1.0
    assert t[4] == 0.0 and t[5] == 0.0
    assert np.all(taper_window(-u) == t)


def test_angle_substitution_round_trip():
    theta = np.array([0.3, 1.0, np.pi / 2, 2.5])
    u = u_from_theta(theta)
    assert np.allclose(theta_from_u(u), theta, rtol=1e-14)
    s, c = sin_cos_theta(u)
    assert np.allclose(s, np.sin(theta), rtol=1e-14)
    assert np.allclose(c, np.cos(theta), atol=1e-14)


def test_bessel_j_against_series():
    x = np.linspace(0.0, 2.0, 9)
    for n in range(-3, 4):
        assert np.allclose(bessel_j(n, x), bessel_j_series(n, x), rtol=1e-12, atol=1e-14)
    # orders 0, +-1 and +-2 go through j0/j1 (J_{-1} = -J_1, and J_{+-2}
    # from the recurrence 2 J_1 / x - J_0); they match jv
    x = np.linspace(0.0, 80.0, 4001)
    for n in (0, 1, -1, 2, -2):
        assert np.max(np.abs(bessel_j(n, x) - jv(n, x))) <= 2e-15
    assert bessel_j(2, 0.0) == 0.0
    assert np.ndim(bessel_j(2, 1.5)) == 0
    assert np.array_equal(bessel_j(-2, x), bessel_j(2, x))
    assert np.array_equal(bessel_j(-3, x), jv(-3, x))


def test_engines_run_on_one_blas_thread_and_restore_it(ybii_eta,
                                                       monkeypatch):
    blas = numerics._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no bundled OpenBLAS thread control")
    get, put = blas
    saved = get()
    put(2)  # a count the pin must change and then restore
    rate_mode = ModeParams(omega=1.0, m=0, kappa=0.5, family="E")
    field_mode = ModeParams(omega=1.0, m=1, kappa=-2.0, family="E")
    seen = []

    def call_rates():
        rates.mode_contribution(rate_mode, 0, ybii_eta, 3.0)

    def call_field():
        fieldeval.field_at_point(field_mode, (0.5, 0.0, 1.0))

    def probe(hook):
        def wrapped(*args, **kwargs):
            hook()
            seen.append(get())
            return refine(*args, **kwargs)
        return wrapped

    def stall(*args, **kwargs):
        seen.append(get())
        raise QuadratureError("stalled", 1.0)

    try:
        for engine, call in ((rates, call_rates), (fieldeval, call_field)):
            # after a return and after a raise
            monkeypatch.setattr(engine, "refine", probe(lambda: None))
            call()
            assert seen.pop() == 1 and get() == 2
            monkeypatch.setattr(engine, "refine", stall)
            with pytest.raises(QuadratureError):
                call()
            assert seen.pop() == 1 and get() == 2
        # overlapping calls from two threads: the rate call enters, the field
        # call enters, the rate call returns, and the field call must still
        # run on one thread
        both_in, rates_out = Barrier(2, timeout=60), Event()
        monkeypatch.setattr(rates, "refine", probe(both_in.wait))
        monkeypatch.setattr(fieldeval, "refine",
                            probe(lambda: (both_in.wait(),
                                           rates_out.wait(timeout=60))))

        def first():
            call_rates()
            rates_out.set()

        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(first), pool.submit(call_field)]
            for run in runs:
                run.result()
        assert seen == [1, 1] and get() == 2
    finally:
        put(saved)


def test_blas_pin_holds_under_contention():
    # more threads than cores enter and leave the pin, switching often; a
    # lost update of the holder count would unpin a holder or leave the
    # count at 1
    blas = numerics._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no bundled OpenBLAS thread control")
    get, put = blas
    saved, interval = get(), sys.getswitchinterval()
    put(2)
    unpinned = []

    def hold():
        for _ in range(3000):
            with numerics.one_blas_thread():
                if get() != 1:
                    unpinned.append(get())

    workers = [Thread(target=hold) for _ in range(8)]
    try:
        sys.setswitchinterval(1e-6)
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert not unpinned and numerics._pin_holders == 0 and get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(saved)


def test_engines_run_unpinned_without_bundled_openblas(monkeypatch, caplog,
                                                      tmp_path):
    # a numpy with no numpy.libs beside it, as a conda or system build has
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    with caplog.at_level("WARNING", logger="paramodes.numerics"):
        assert numerics._openblas_threads.__wrapped__() is None
    assert "unpinned" in caplog.text and str(tmp_path) in caplog.text
    # a one-point field's matmul is too small for BLAS threads either way
    mode = ModeParams(omega=1.0, m=1, kappa=-2.0, family="E")
    pinned = fieldeval.field_at_point(mode, (0.5, 0.0, 1.0)).E
    monkeypatch.setattr(numerics, "_openblas_threads", lambda: None)
    unpinned = fieldeval.field_at_point(mode, (0.5, 0.0, 1.0)).E
    assert unpinned.tobytes() == pinned.tobytes()
    assert numerics._pin_holders == 0


def test_blas_lookup_reads_no_build_record(monkeypatch):
    # numpy before 2.0 has no np.__config__.CONFIG; the lookup must not
    # need it
    mode = ModeParams(omega=1.0, m=1, kappa=-2.0, family="E")
    expected = fieldeval.field_at_point(mode, (0.5, 0.0, 1.0)).E
    monkeypatch.delattr(np.__config__, "CONFIG", raising=False)
    numerics._openblas_threads.cache_clear()
    try:
        got = fieldeval.field_at_point(mode, (0.5, 0.0, 1.0)).E
    finally:
        numerics._openblas_threads.cache_clear()
    assert got.tobytes() == expected.tobytes()
    assert numerics._pin_holders == 0


def test_bessel_i_against_series():
    x = np.linspace(0.0, 2.0, 9)
    for n in range(0, 4):
        assert np.allclose(bessel_i(n, x), bessel_i_series(n, x), rtol=1e-12)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.5)
    with pytest.raises(ValueError, match="rel_tol"):
        replace(DEFAULT_QUADRATURE, rel_tol=2e-2)
    cfg = replace(DEFAULT_QUADRATURE, rel_tol=1e-6)
    assert cfg.rel_tol == 1e-6
    # below 1e-12 the successive-Kronrod residual cannot converge
    with pytest.raises(ValueError, match=r"rel_tol must lie in \[1e-12, 1e-2\]"):
        QuadratureConfig(rel_tol=1e-13)
    assert QuadratureConfig(rel_tol=1e-12).rel_tol == 1e-12
    # the tolerance is the one setting; panel counts are module constants
    assert [f.name for f in fields(QuadratureConfig)] == ["rel_tol"]
    assert (PANELS_PER_OSCILLATION, MIN_PANELS, MAX_PANELS) \
        == (0.5, 12, 16_384)

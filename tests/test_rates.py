import itertools
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from paramodes.core import (
    ModeParams, DipoleSpec, SIGMAS, EPS0, HBAR, C_LIGHT,
)
from paramodes.trap import LambDicke
from paramodes.fieldeval import field_at_point
from paramodes import numerics
from paramodes.numerics import (
    DEFAULT_QUADRATURE, QuadratureConfig, QuadratureError, oscillation_count,
    folded_nodes,
)
from paramodes import rates, spectrum
from paramodes.rates import (
    ModeCatalog, family_label,
    build_ladder, build_catalog, calibrate,
    mode_contribution, total_rate, rate_scan, mode_table, gamma0,
    series_rows, _series_terms,
)
from paramodes.cli import RunConfig
from paramodes.presets import load_preset
from paramodes.oracles import (
    mode_contribution_direct, mode_contribution_general,
)

TINY_RULE = {
    "families": ["E m=0"],
    "kappa": {"values": [0.02, 0.5, 1.3]},
}


# two families, windings 0 and +-1 under a transverse dipole (sigma = +-1)
MIXED_RULE = {
    "families": ["E |m|=1", "B m=0"],
    "kappa": {"values": [-5.62, 0.02, 2.58]},
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
    # a NaN step would grow the ladder without end; an inf step or
    # transition would give a silently wrong ladder
    for params in ((np.nan, 0.28, 1.5, 0.44, 6.0),
                   (0.02, np.nan, 1.5, 0.44, 6.0),
                   (0.02, np.inf, 1.5, 0.44, 6.0),
                   (0.02, 0.28, np.inf, 0.44, 6.0)):
        with pytest.raises(ValueError, match="must be finite"):
            build_ladder(*params)


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


LADDER = {"start": 0.02, "step_inner": 0.28, "transition": 1.5,
          "step_outer": 0.44, "max": 6.0}


@pytest.mark.parametrize("rule, named", [
    (dict(TINY_RULE, families="E m=0"), "catalog.families must be a non-empty"),
    (dict(TINY_RULE, families=["E m=0", 1]), "catalog.families must be a"),
    (dict(TINY_RULE, kappa={"values": [0.02, True]}),
     "catalog.kappa.values must be a finite number, got True"),
    (dict(TINY_RULE, kappa={"values": ["0.5"]}),
     "catalog.kappa.values must be a finite number, got '0.5'"),
    (dict(TINY_RULE, kappa={"values": 0.5}),
     "catalog.kappa.values must be a list of some numbers"),
    (dict(TINY_RULE, kappa=[0.5]), "catalog.kappa section must be a JSON"),
    (dict(TINY_RULE, kappa=dict(LADDER, step_inner=np.nan)),
     "catalog.kappa.step_inner must be a finite number, got nan"),
    (dict(TINY_RULE, kappa=dict(LADDER, max=np.inf)),
     "catalog.kappa.max must be a finite number, got inf"),
    (dict(TINY_RULE, kappa=dict(LADDER, transition=False)),
     "catalog.kappa.transition must be a finite number, got False"),
    (dict(TINY_RULE, kappa=dict(LADDER, start="0")),
     "catalog.kappa.start must be a finite number, got '0'"),
    (dict(TINY_RULE, kappa={k: v for k, v in LADDER.items()
                            if k != "step_outer"}),
     "catalog.kappa section is missing 'step_outer'"),
    (dict(TINY_RULE, weight={"amplitude": "0.1"}),
     "catalog.weight.amplitude must be a finite number, got '0.1'"),
    (dict(TINY_RULE, weight={"width": np.nan}),
     "catalog.weight.width must be a finite number, got nan"),
    (dict(TINY_RULE, weight=5), "catalog.weight section must be a JSON"),
    (dict(TINY_RULE, coeffs=[1.0, -1.0]),
     "catalog.coeffs must be a list of 3 numbers"),
    (dict(TINY_RULE, coeffs=[1.0, np.inf, 0.0]),
     "catalog.coeffs must be a finite number, got inf"),
    (dict(TINY_RULE, coeffs=[True, -1.0, 0.0]),
     "catalog.coeffs must be a finite number, got True"),
])
def test_build_catalog_names_malformed_entries(rule, named):
    # the CLI reads the catalog through build_catalog, so library callers
    # get the configuration names too
    with pytest.raises(ValueError, match=re.escape(named)):
        build_catalog(rule, omega=1.0)


def test_catalog_requires_increasing_kappa():
    mode = ModeParams(omega=1.0, m=0, kappa=0.5, family="E")
    with pytest.raises(ValueError):
        ModeCatalog(modes=(mode, mode))
    with pytest.raises(ValueError):
        ModeCatalog(modes=())
    with pytest.raises(ValueError):
        ModeCatalog(modes=(mode,), calibration=0.0)


# the ybII ion at radial 230 kHz and axial 10 kHz: eta_z^2 = 0.85 needs
# about 15 axial series terms where the preset trap needs 6; at
# eta_z = 1.5 the terms grow up to p = 2 before they fall
SOFT_ETAS = (LambDicke(0.19276, 0.92443), LambDicke(0.19276, 1.5))


def test_engine_paths_agree(ybii_eta):
    cases = [
        ("E", 0, 0.64, 0, -4.0),
        ("E", 1, 0.64, 1, -4.0),
        ("B", 1, -1.2, 1, -4.0),
        ("B", 0, 0.3, 1, -4.0),
    ]
    for (fam, m, kappa, sigma, z), eta in itertools.product(
            cases, (ybii_eta,) + SOFT_ETAS):
        mode = ModeParams(omega=1.0, m=m, kappa=kappa, family=fam)
        fast = mode_contribution(mode, sigma, eta, z)
        dense = mode_contribution_direct(mode, sigma, eta, z)
        assert dense == pytest.approx(fast, rel=1e-8)
        if eta in SOFT_ETAS:
            continue  # order 6 truncates the general expansion there
        general = mode_contribution_general(
            mode, sigma, (eta.eta_x, eta.eta_x, eta.eta_z),
            (0.0, 0.0, z), order=6)
        assert general == pytest.approx(fast, rel=1e-8)


def test_engine_paths_agree_for_general_coefficients(ybii_eta):
    # the default triple (1, -1, 0) gives |a_+| = |a_-|, which hides a
    # swapped sigma channel; these triples do not
    for fam, m, kappa, coeffs in (("E", 0, 0.64, (1.0, 0.3j, 0.5)),
                                  ("B", 1, -1.2, (0.2, 1.0, -0.4j))):
        mode = ModeParams(omega=1.0, m=m, kappa=kappa, family=fam,
                          coeffs=coeffs)
        for sigma in SIGMAS:
            fast = mode_contribution(mode, sigma, ybii_eta, -4.0)
            dense = mode_contribution_direct(mode, sigma, ybii_eta, -4.0)
            assert dense == pytest.approx(fast, rel=1e-8)


def test_rate_paths_raise_when_refinement_is_exhausted(ybii_eta,
                                                      monkeypatch):
    # a graded first pair at the default density converges by design, so
    # the failure needs a first grid far too coarse for the phase, and no
    # doubling past its check grid
    monkeypatch.setattr(numerics, "PANELS_PER_OSCILLATION", 0.1)
    monkeypatch.setattr(numerics, "MAX_PANELS", 2 * numerics.MIN_PANELS)
    mode = ModeParams(omega=1.0, m=0, kappa=5.6, family="E")
    eta_xyz = (ybii_eta.eta_x, ybii_eta.eta_x, ybii_eta.eta_z)
    for path in (
            lambda: mode_contribution(mode, 0, ybii_eta, -11.2),
            lambda: mode_contribution_direct(mode, 0, ybii_eta, -11.2),
            lambda: mode_contribution_general(mode, 0, eta_xyz,
                                              (0.0, 0.0, -11.2))):
        with pytest.raises(QuadratureError) as err:
            path()
        assert err.value.residual > 0.0


def test_point_trap_limit_reduces_to_field_intensity():
    eta0 = LambDicke(1e-9, 1e-9)
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
    # rel_tol = 1e-12 keeps more series terms; z = 140 is in the
    # calibration window, where the rates are smallest
    tight = replace(DEFAULT_QUADRATURE, rel_tol=1e-12)
    assert len(_series_terms(0, ybii_eta.eta_x, ybii_eta.eta_z, 1e-12)) \
        > len(_series_terms(0, ybii_eta.eta_x, ybii_eta.eta_z,
                            DEFAULT_QUADRATURE.rel_tol))
    mode = ModeParams(omega=1.0, m=0, kappa=1.1, family="E")
    for z in (-3.0, 140.0):
        default = mode_contribution(mode, 0, ybii_eta, z)
        fine = mode_contribution(mode, 0, ybii_eta, z, tight)
        assert abs(default - fine) / fine < 1e-10


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


def test_rate_sums_match_the_scalar_loop(ybii_eta):
    # the array sums keep the scalar order bit for bit: sigma channels in
    # SIGMAS order, modes in catalog order, families in first-appearance
    # order; and the shared tables cannot be written through a result
    cat = build_catalog(MIXED_RULE, omega=1.0).calibrated(0.37)
    dipole = DipoleSpec((0.6, 0.0, 0.8))   # every sigma weighted
    weights = [dipole.sigma_weight(s) for s in SIGMAS]
    for res in rate_scan(cat, dipole, ybii_eta, [-11.2, 0.0, 3.7]):
        subtotals = {}
        for im, row in enumerate(res.rows):
            w = 0.0
            for weight, t in zip(weights, row.t_sigma):
                w += weight * t
            assert res.weighted[im] == row.weighted == w
            assert tuple(res.t_sigma[im]) == row.t_sigma
            lab = family_label(row.family, row.m)
            subtotals[lab] = subtotals.get(lab, 0.0) + res.calibration * w
        assert res.family_totals == tuple(subtotals.items())
        total = 0.0
        for sub in subtotals.values():
            total += sub
        assert res.total == total == res.resummed_total()
        for table in (res.t_sigma, res.weighted):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0


def test_transverse_dipole_selection(ybii_eta, dipole_transverse):
    rule = {"families": ["B |m|=1"], "kappa": {"values": [0.4]}}
    cat = build_catalog(rule, omega=1.0)
    res = total_rate(cat, dipole_transverse, ybii_eta, 0.0)
    for row in res.rows:
        assert row.t_sigma[2] == 0.0
        assert row.weighted == pytest.approx(
            0.25 * (row.t_sigma[0] + row.t_sigma[1]), rel=1e-15)


# both signs of m, so reflection through a plane containing the axis maps
# the catalog onto itself
BOTH_SIGNS_RULE = {
    "families": ["E |m|=1", "B |m|=1", "B m=0"],
    "kappa": {"values": [-2.1, -0.6, 0.02, 0.9, 3.3]},
}


def test_circular_dipoles_on_axis():
    eta = LambDicke(0.2, 0.15)
    cat = build_catalog(BOTH_SIGNS_RULE, omega=1.0)
    r = 1 / np.sqrt(2)
    # "+" and "-" weight only the sigma = +1 and sigma = -1 channels
    dipoles = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0),
               "+": (r, -1j * r, 0.0), "-": (r, 1j * r, 0.0)}
    for z in (0.0, 3.0):
        rate = {key: total_rate(cat, DipoleSpec(d), eta, z).total
                for key, d in dipoles.items()}
        # the channel weights alone: the channels decouple on the axis
        assert rate["x"] == pytest.approx(rate["y"], rel=1e-15)
        assert rate["x"] == pytest.approx((rate["+"] + rate["-"]) / 2,
                                          rel=1e-15)
        # the reflection maps (m, sigma) to (-m, -sigma)
        assert rate["+"] == pytest.approx(rate["-"], rel=1e-13)


@pytest.mark.parametrize("window", [
    (120.0, 160.0, 0.0), (160.0, 120.0, 5.0), (120.0, 160.0, -5.0),
    (120.0, np.inf, 5.0), (np.nan, 160.0, 5.0), (120.0, 160.0, np.nan),
])
def test_calibrate_rejects_bad_window(ybii_eta, dipole_axial, monkeypatch,
                                      window):
    def unreachable(*args):
        raise AssertionError("quadrature started for a bad window")
    monkeypatch.setattr(rates, "refine", unreachable)
    with pytest.raises(ValueError, match="calibration window"):
        calibrate(_tiny_catalog(), dipole_axial, ybii_eta, window)


def test_calibration_normalizes_far_field(ybii_eta, dipole_axial):
    cat = calibrate(_tiny_catalog(), dipole_axial, ybii_eta,
                    window=(120.0, 160.0, 20.0))
    assert cat.calibration > 0
    zs = np.arange(120.0, 160.01, 20.0)
    res = rate_scan(cat, dipole_axial, ybii_eta, zs)
    assert np.mean([r.total for r in res]) == pytest.approx(1.0, rel=1e-12)


def test_scale_equivariance(ybii_eta, dipole_axial):
    rule2 = dict(TINY_RULE, coeffs=(3.0, -3.0, 0.0))
    cat1 = calibrate(_tiny_catalog(), dipole_axial, ybii_eta,
                     window=(120.0, 160.0, 20.0))
    cat2 = calibrate(build_catalog(rule2, omega=1.0), dipole_axial, ybii_eta,
                     window=(120.0, 160.0, 20.0))
    r1 = total_rate(cat1, dipole_axial, ybii_eta, -2.0)
    r2 = total_rate(cat2, dipole_axial, ybii_eta, -2.0)
    assert r1.total == pytest.approx(r2.total, rel=1e-10)


def test_rate_scan_deterministic_across_threads(ybii_eta, dipole_axial,
                                               dipole_transverse):
    # threads share out the engine's node blocks, one winding at a time:
    # one winding and one group on the tiny catalog; three windings and six
    # groups on the mixed one, where 8 threads outnumber the two blocks
    # each winding has at |z| = 40
    cases = [(_tiny_catalog(), dipole_axial, [-6.0, -2.0, 0.0, 2.0, 6.0],
              (3,)),
             (build_catalog(MIXED_RULE, omega=1.0), dipole_transverse,
              [-40.0, -11.2, 0.0, 3.7, 40.0], (3, 8))]
    for cat, dipole, zs, thread_counts in cases:
        seq = rate_scan(cat, dipole, ybii_eta, zs, threads=1)
        for threads in thread_counts:
            par = rate_scan(cat, dipole, ybii_eta, zs, threads=threads)
            for a, b in zip(seq, par):
                assert a.total == b.total           # bitwise identical
                assert a.rows == b.rows
                assert a.family_totals == b.family_totals


def test_single_z_queries_bit_identical_across_threads(ybii_eta,
                                                       dipole_transverse):
    # at |z| = 40 each winding of the mixed catalog has two node blocks
    cat = build_catalog(MIXED_RULE, omega=1.0)
    seq = total_rate(cat, dipole_transverse, ybii_eta, -40.0, threads=1)
    par = total_rate(cat, dipole_transverse, ybii_eta, -40.0, threads=2)
    assert seq.total == par.total           # bitwise identical
    assert seq.rows == par.rows
    assert seq.family_totals == par.family_totals
    assert mode_table(cat, dipole_transverse, ybii_eta, -40.0, threads=2) \
        == mode_table(cat, dipole_transverse, ybii_eta, -40.0)


def test_total_rate_single_z_accuracy(ybii_eta, dipole_transverse,
                                      monkeypatch):
    # the default grid against the same engine converged far past it
    cat = build_catalog(MIXED_RULE, omega=1.0)
    kmax = max(abs(mode.kappa) for mode in cat.modes)
    converged = QuadratureConfig(rel_tol=1e-12)
    for z in (-40.0, -11.2, 0.0, 3.7, 140.0):
        got = total_rate(cat, dipole_transverse, ybii_eta, z)
        with monkeypatch.context() as m:
            # a first grid of 40 panels per oscillation, 40 times the
            # default's accepted grid
            m.setattr(numerics, "MIN_PANELS", int(
                np.ceil(40.0 * oscillation_count(kmax, z, 0.0))))
            ref = total_rate(cat, dipole_transverse, ybii_eta, z, converged)
        bound = 1e-11 * ref.total
        assert abs(got.total - ref.total) <= bound
        for (_, a), (_, b) in zip(got.family_totals, ref.family_totals):
            assert abs(a - b) <= bound
        for a, b in zip(got.rows, ref.rows):
            assert abs(a.weighted - b.weighted) * ref.calibration <= bound


def test_block_sum_adds_in_block_order_from_any_thread():
    # parts spanning 16 decades, so another summation order changes bits;
    # more threads than cores add them in shuffled order, switching often
    rng = np.random.default_rng(5)
    n_blocks, n_groups = 40, 3
    parts = 10.0 ** rng.integers(-8, 9, (n_blocks, n_groups, 1)) \
        * rng.normal(size=(n_blocks, n_groups, 4))
    want = [parts[0, g].copy() for g in range(n_groups)]
    for g in range(n_groups):
        for b in range(1, n_blocks):
            want[g] += parts[b, g]
    assert not all(np.array_equal(w, parts[::-1, g].sum(axis=0))
                   for g, w in enumerate(want))
    total = rates._BlockSum([(4,)] * n_groups)
    order = rng.permutation(n_blocks * n_groups)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(total.add, i // n_groups, i % n_groups,
                                   parts[i // n_groups, i % n_groups].copy())
                       for i in order]
            for f in futures:
                f.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    for g in range(n_groups):
        assert np.array_equal(total.sums[g], want[g])


def test_calibrate_converges_on_first_pair(ybii_eta, dipole_transverse,
                                          monkeypatch):
    # one refine per calibrate call covers every (mode, sigma) task, and
    # panels graded by the trap phase resolve the calibration window's
    # |z| <= 160 on its first pair of grids
    calls = []
    refine = rates.refine

    def counting_refine(estimate, *args):
        calls.append(0)

        def counted(u, wk):
            calls[-1] += 1
            return estimate(u, wk)
        return refine(counted, *args)

    monkeypatch.setattr(rates, "refine", counting_refine)
    calibrate(build_catalog(MIXED_RULE, omega=1.0), dipole_transverse,
              ybii_eta)
    assert calls == [2]


def _assert_scan_rows_match_single_tasks(modes, eta, zs):
    """Each row of one rate_scan call over every sigma must be the
    single-task value of its (mode, sigma)."""
    dipole = DipoleSpec((0.6, 0.0, 0.8))   # every sigma weighted
    res = rate_scan(ModeCatalog(modes=modes), dipole, eta, zs)
    for im, mode in enumerate(modes):
        for js, sigma in enumerate(SIGMAS):
            scan = np.array([r.rows[im].t_sigma[js] for r in res])
            single = np.array([mode_contribution(mode, sigma, eta, z)
                               for z in zs])
            # each path converges to rel_tol of its own row scale
            bound = 2 * DEFAULT_QUADRATURE.rel_tol * max(scan.max(),
                                                      single.max()) + 1e-15
            assert np.max(np.abs(scan - single)) <= bound


def test_rate_scan_rows_match_single_task_engine(ybii_eta):
    # families with different kappa sets and a coefficient triple per mode
    # (c_0 != 0 in the E m=0 family), windings 0..2 and a B-family
    # sigma = +-1 group
    modes = tuple(
        [ModeParams(omega=1.0, m=0, kappa=k, family="E",
                    coeffs=(1.0, -0.4 * k, 0.7j + k))
         for k in (-1.3, 0.3, 2.2)]
        + [ModeParams(omega=1.0, m=1, kappa=k, family="B",
                      coeffs=(0.6 * k, 1.1 - 0.3j, 0.0)) for k in (-3.1, 0.9)]
        + [ModeParams(omega=1.0, m=-1, kappa=k, family="E",
                      coeffs=(1.0, k - 1.0, 0.0)) for k in (-0.5, 4.4)])
    _assert_scan_rows_match_single_tasks(modes, ybii_eta, [-9.0, 0.0, 4.5])


def test_large_group_rows_match_single_task_engine(ybii_eta):
    # 16 E m=0 modes whose coefficient triples differ from mode to mode
    # make groups at least as large as their series rows (15 at winding
    # 0), so the complex gemm order runs on triples no scale relates
    modes = tuple(
        ModeParams(omega=1.0, m=0, kappa=k, family="E",
                   coeffs=(1.0 + 0.2j * k, k * k - 2.0, 0.5 - 0.3j * k))
        for k in np.linspace(-3.0, 3.0, 16))
    n_rows = rates.series_rows(ModeCatalog(modes=modes),
                               DipoleSpec((0.6, 0.0, 0.8)), ybii_eta)
    assert n_rows[0] == 15 and max(n_rows.values()) <= len(modes)
    _assert_scan_rows_match_single_tasks(modes, ybii_eta, [-6.0, 2.5])


def test_rate_engine_z_tiles_match_one_tile(ybii_eta, dipole_transverse,
                                            monkeypatch):
    cat = build_catalog(MIXED_RULE, omega=1.0)
    zs = [-40.0, -11.2, 0.0, 3.7, 25.0]
    whole = rate_scan(cat, dipole_transverse, ybii_eta, zs)
    monkeypatch.setattr(rates, "_Z_BLOCK", 2)
    tiled = rate_scan(cat, dipole_transverse, ybii_eta, zs)
    ref = np.array([[row.weighted for row in r.rows] for r in whole])
    got = np.array([[row.weighted for row in r.rows] for r in tiled])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    totals = np.array([r.total for r in whole])
    assert np.max(np.abs([r.total for r in tiled] - totals)) \
        <= 1e-13 * np.max(totals)


def test_mode_table_sorted_and_normalized(ybii_eta, dipole_axial):
    cat = calibrate(_tiny_catalog(), dipole_axial, ybii_eta,
                    window=(120.0, 160.0, 20.0))
    table = mode_table(cat, dipole_axial, ybii_eta, 0.0)
    ks = [row["kappa"] for row in table]
    assert ks == sorted(ks)
    assert sum(row["fraction"] for row in table) == pytest.approx(1.0, rel=1e-12)
    assert all(row["contribution"] >= 0 for row in table)


def test_free_space_rate_formula():
    omega, d = 5.0e15, 1.0e-29
    want = omega**3 * d**2 / (3 * np.pi * EPS0 * HBAR * C_LIGHT**3)
    assert gamma0(omega, d) == pytest.approx(want, rel=1e-15)


def test_rate_engine_maps_once_per_z_tile(ybii_eta, monkeypatch):
    # windings 0, 1 and 2 share one pool_map per z tile of every estimate
    cat = build_catalog(MIXED_RULE, omega=1.0)
    tasks = [(mode, s) for mode in cat.modes for s in (1, -1)]
    assert {abs(mode.m - s) for mode, s in tasks} == {0, 1, 2}
    estimates, tiles = [], []
    refine = rates.refine

    def counting_refine(estimate, *args):
        def counted(u, wk):
            half = folded_nodes(u, wk)[0]
            estimates.append(len(range(0, len(half), rates._U_BLOCK)))
            return estimate(u, wk)
        return refine(counted, *args)

    def recording_map(fn, blocks):
        blocks = list(blocks)
        tiles.append((tuple(fn.args[0]), len(blocks)))
        return map(fn, blocks)

    monkeypatch.setattr(rates, "refine", counting_refine)
    monkeypatch.setattr(rates, "_Z_BLOCK", 2)
    zs = [-40.0, -11.2, 0.0, 3.7, 25.0]
    rates._catalog_T(tasks, ybii_eta, zs, DEFAULT_QUADRATURE, recording_map)
    want = [(tuple(zs[q:q + 2]), n_blocks) for n_blocks in estimates
            for q in range(0, len(zs), 2)]
    assert estimates and tiles == want


def test_rate_engine_bits_match_across_threads_and_z_tiles(
        ybii_eta, monkeypatch):
    cat = build_catalog(MIXED_RULE, omega=1.0)
    tasks = [(mode, s) for mode in cat.modes for s in (1, -1)]
    monkeypatch.setattr(rates, "_Z_BLOCK", 2)
    zs = [-40.0, -11.2, 0.0, 3.7, 25.0]
    seq = rates._catalog_T(tasks, ybii_eta, zs, DEFAULT_QUADRATURE)
    for threads in (2, 8):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            par = rates._catalog_T(tasks, ybii_eta, zs, DEFAULT_QUADRATURE,
                                   pool.map)
        assert np.array_equal(seq, par)


def test_series_terms_are_cached_and_immutable(ybii_eta):
    args = (1, ybii_eta.eta_x, ybii_eta.eta_z, DEFAULT_QUADRATURE.rel_tol)
    terms = _series_terms(*args)
    assert _series_terms(*args) is terms
    assert isinstance(terms, tuple) and all(isinstance(t, tuple)
                                            for t in terms)
    for _ in range(2):  # a failure is not cached: every call raises
        with pytest.raises(ValueError, match="trap too soft"):
            _series_terms(0, 30.0, 30.0, 1e-10)


def test_huge_winding_has_no_series_terms_and_rates_zero(ybii_eta,
                                                         dipole_axial):
    # every gamma of this winding underflows; building its series would
    # take lgamma over 10^12 indices and power tables of degree 10^12
    huge_m = 10**12
    cat = build_catalog({"families": [f"E |m|={huge_m}"],
                         "kappa": {"values": [0.02]}}, omega=1.0)
    assert series_rows(cat, dipole_axial, ybii_eta) == {huge_m: 0}
    normal = ModeParams(omega=1.0, m=0, kappa=0.02, family="E")
    huge = ModeParams(omega=1.0, m=huge_m, kappa=0.02, family="E")
    zs = [-4.0, 0.0, 6.0]
    alone = rate_scan(ModeCatalog((normal,)), dipole_axial, ybii_eta, zs)
    both = rate_scan(ModeCatalog((normal, huge)), dipole_axial, ybii_eta, zs)
    for a, b in zip(alone, both):
        assert b.weighted[0] == a.weighted[0] and b.total == a.total
        assert b.weighted[1] == 0.0


@pytest.mark.parametrize("preset", ["ybII", "ybIII"])
def test_delta_kappa_catalog_obeys_the_free_space_sum_rule(preset):
    # the full-sphere angular spectra are complete: with each mode weighted
    # by its ladder step dkappa and no focal weight, the calibrated catalog
    # rate is the free-space rate at every trap center.  The residual,
    # 5.3e-3 (ybII) and 5.8e-3 (ybIII), falls as the square of the step.
    # The preset ladders put every group on the A @ M contraction.
    cfg = RunConfig.from_dict(load_preset(preset))
    cat = build_catalog(dict(cfg.catalog_rule, weight=None), cfg.ion.omega)
    assert len(cat.family_labels) == 1  # one kappa ladder
    dkappa = np.gradient([mode.kappa for mode in cat.modes])
    cat = ModeCatalog(tuple(mode.scaled(np.sqrt(d))
                            for mode, d in zip(cat.modes, dkappa)))
    cat = calibrate(cat, cfg.dipole, cfg.eta, cfg.window, threads=2)
    zs = [0.0, 4.0, -4.0, 10.0, -10.0, 20.0, -20.0, 40.0, -40.0]
    totals = [r.total for r in rate_scan(cat, cfg.dipole, cfg.eta, zs,
                                         threads=2)]
    assert np.max(np.abs(np.array(totals) - 1.0)) <= 1e-2


def test_rate_scan_rejects_non_finite_z(ybii_eta, dipole_axial):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            rate_scan(_tiny_catalog(), dipole_axial, ybii_eta, [0.0, bad])


def test_contraction_orders_agree_in_one_catalog(ybii_eta, dipole_axial,
                                                 monkeypatch):
    # under an axial dipole, 20 E m=0 ladder modes make a winding-0 group at
    # least as large as its 15 series rows (complex gemm), while the B m=0
    # and E m=+-1 groups of MIXED_RULE are smaller than theirs (real gemm)
    ladder = {"families": ["E m=0"],
              "kappa": {"start": 0.02, "step_inner": 0.28, "transition": 1.5,
                        "step_outer": 0.44, "max": 3.44}}
    modes = build_catalog(ladder, omega=1.0).modes \
        + build_catalog(MIXED_RULE, omega=1.0).modes
    tasks = [(mode, 0) for mode in modes]
    groups = {}
    for t, (mode, sigma) in enumerate(tasks):
        groups.setdefault((abs(mode.m), mode.family), []).append(t)
    n_rows = rates.series_rows(ModeCatalog(modes), dipole_axial, ybii_eta)
    assert sorted((len(idx) >= n_rows[n], len(idx))
                  for (n, _), idx in groups.items()) \
        == [(False, 3), (False, 6), (True, 20)]

    zs = [-7.5, 0.0, 3.1]
    captured = []
    refine = rates.refine

    def capturing_refine(estimate, *args):
        def captured_estimate(u, wk):
            captured.append(((u, wk), estimate(u, wk)))
            return captured[-1][1]
        return refine(captured_estimate, *args)

    # every call gets the catalog's first grid, so single tasks reuse its nodes
    n_osc = oscillation_count(max(abs(m.kappa) for m in modes), 7.5, 0.0)
    monkeypatch.setattr(rates, "oscillation_count", lambda *args: n_osc)
    monkeypatch.setattr(rates, "refine", capturing_refine)
    T = rates._catalog_T(tasks, ybii_eta, zs, DEFAULT_QUADRATURE)
    assert len(captured) == 2
    (u, wk), coarse = captured[0]
    for idx in groups.values():
        for t in idx:
            single = rates._catalog_T([tasks[t]], ybii_eta, zs,
                                      DEFAULT_QUADRATURE)[0]
            assert np.max(np.abs(T[t] - single)) <= 1e-12 * T[idx].max()
    monkeypatch.undo()

    # the first grid's sum of each path's first task, written out on the
    # same nodes
    s, c = np.cosh(u) ** -1, -np.tanh(u)
    base = s**2 * numerics.taper_window(u) \
        * np.exp(-(ybii_eta.eta_z**2 * c**2 + ybii_eta.eta_x**2 * s**2) / 2)
    for t in (0, 20):
        mode, sigma = tasks[t]
        a = np.conj(spectrum.u_spectrum(mode, u)[SIGMAS.index(sigma)])
        want = 0.0
        for p, e_r, gamma in _series_terms(abs(mode.m - sigma), ybii_eta.eta_x,
                                           ybii_eta.eta_z,
                                           DEFAULT_QUADRATURE.rel_tol):
            g = (wk * a * base * c**p * s**e_r) @ np.exp(-1j * np.outer(c, zs))
            want = want + gamma * np.abs(g) ** 2
        assert np.max(np.abs(coarse[t] - want)) <= 1e-12 * want.max()

    # the dense oracle on a few tasks of each group
    for idx in groups.values():
        for t in (idx[0], idx[-1]):
            dense = mode_contribution_direct(*tasks[t], ybii_eta, zs[0])
            assert dense == pytest.approx(T[t, 0], rel=1e-8)


@pytest.mark.parametrize("n_panels", [97, 100])
def test_folded_rate_engine_matches_the_full_grid_sum(n_panels, ybii_eta,
                                                      monkeypatch):
    # two node blocks of the u >= 0 half; 97 panels put a node at u = 0.
    # The E m=0 sigma=0 group is large (the A @ M order), the rest small.
    kappas = np.linspace(-3.0, 3.0, 16)
    tasks = [(ModeParams(omega=1.0, m=0, kappa=k, family="E"), 0)
             for k in kappas]
    tasks += [(ModeParams(omega=1.0, m=m, kappa=k, family=fam,
                          coeffs=(1.0, 0.3j, 0.5)), sigma)
              for fam, m in (("E", 1), ("B", 0), ("B", -1))
              for k in (-2.1, 0.3) for sigma in SIGMAS]
    assert rates.series_rows(ModeCatalog(tuple(m for m, _ in tasks[:16])),
                             DipoleSpec((0.0, 0.0, 1.0)), ybii_eta)[0] <= 16
    grid = numerics.window_nodes(n_panels, 6.0, 20.0)
    assert len(folded_nodes(*grid)[0]) > rates._U_BLOCK
    estimates = []

    def one_grid(estimate, *args):
        estimates.append(estimate(*grid))
        return estimates[-1], 0.0
    monkeypatch.setattr(rates, "refine", one_grid)
    zs = [-6.0, 0.0, 2.5]
    rates._catalog_T(tasks, ybii_eta, zs, DEFAULT_QUADRATURE)
    u, wk = grid
    s, c = np.cosh(u) ** -1, -np.tanh(u)
    base = s**2 * numerics.taper_window(u) \
        * np.exp(-(ybii_eta.eta_z**2 * c**2 + ybii_eta.eta_x**2 * s**2) / 2)
    phase = np.exp(-1j * np.outer(c, zs))
    for t, (mode, sigma) in enumerate(tasks):
        a = np.conj(spectrum.u_spectrum(mode, u)[SIGMAS.index(sigma)])
        want = 0.0
        for p, e_r, gamma in _series_terms(
                abs(mode.m - sigma), ybii_eta.eta_x, ybii_eta.eta_z,
                DEFAULT_QUADRATURE.rel_tol):
            want = want + gamma * np.abs(
                (wk * a * base * c**p * s**e_r) @ phase) ** 2
        assert np.max(np.abs(estimates[0][t] - want)) <= 1e-13 * want.max()

"""Spontaneous emission of a trapped ion into a catalog of parabolic modes.

Each catalog entry contributes, per polarization channel sigma, a positive
quantity

    T_sigma = Int Int d(theta) d(theta') s s' conj(a_sigma)(theta)
              a_sigma(theta') K_n(theta, theta')

where K_n folds the motional form factor of the trapped ion, averaged over
the azimuthal pair angle (winding index n = m - sigma), and the trap-center
phase e^{-i Z (cos - cos')}.  The kernel is separable: expanding the axial
Gaussian in powers of cos(theta) cos(theta') and the radial Bessel kernel
I_|n| in its ascending series turns the double integral into a manifestly
nonnegative sum of rank-one terms, each a single oscillatory integral.
The series is cut where its terms fall below the quadrature tolerance.  A
dense two-dimensional quadrature of the same kernel, and an expansion for
anisotropic or off-axis traps, live in `paramodes.oracles` as slow
verification paths.

Rates are reported relative to a calibration constant C chosen so that the
catalog total averages to one over a far-field window on the shadow side,
where the mirror no longer modifies the emission.
"""

import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from threading import Lock

import numpy as np

from .core import (ModeParams, DipoleSpec, SIGMAS, HBAR, C_LIGHT, EPS0,
                   DEFAULT_COEFFS, section, known_keys, entry, vector)
from .trap import LambDicke
from .spectrum import unit_spectra
from .numerics import (
    DEFAULT_QUADRATURE, oscillation_count, first_grid, refine, folded_nodes,
    taper_window, sin_cos_theta, one_blas_thread,
)

log = logging.getLogger(__name__)


def family_label(family, m):
    if m == 0:
        return f"{family} m=0"
    return f"{family} |m|={abs(m)}"


def _parse_family_label(label):
    """'E m=0' -> [('E', 0)]; 'B |m|=1' -> [('B', 1), ('B', -1)]."""
    match = re.fullmatch(r"([EB]) (m|\|m\|)=(-?\d+)", label)
    if match is None:
        raise ValueError(f"unrecognized family label {label!r}")
    fam, m = match[1], int(match[3])
    if match[2] == "m":
        return [(fam, m)]
    if m <= 0:
        raise ValueError(f"|m| must be positive in {label!r}")
    return [(fam, m), (fam, -m)]


@dataclass(frozen=True)
class ModeCatalog:
    modes: tuple
    calibration: float = 1.0

    def __post_init__(self):
        if not self.modes:
            raise ValueError("catalog must contain at least one mode")
        if not (np.isfinite(self.calibration) and self.calibration > 0):
            raise ValueError("calibration constant must be positive")
        groups = {}
        for mode in self.modes:
            groups.setdefault((mode.family, mode.m), []).append(mode.kappa)
        for key, ks in groups.items():
            if any(b <= a for a, b in zip(ks, ks[1:])):
                raise ValueError(
                    f"kappa values must be strictly increasing within {key}")

    @property
    def family_labels(self):
        seen = []
        for mode in self.modes:
            lab = family_label(mode.family, mode.m)
            if lab not in seen:
                seen.append(lab)
        return tuple(seen)

    def calibrated(self, constant):
        return replace(self, calibration=float(constant))


_MAX_LADDER = 100_000  # bounds the ladder before it is built


def build_ladder(start, step_inner, transition, step_outer, kappa_max):
    """Graded kappa ladder stepping outward from `start` in both directions.

    Inner steps apply while |kappa| < transition, outer steps beyond; the
    ladder spans (-kappa_max, kappa_max) and always contains `start`.
    """
    params = (start, step_inner, transition, step_outer, kappa_max)
    if not np.isfinite(params).all():
        raise ValueError(f"ladder rule (start, step_inner, transition, "
                         f"step_outer, max) must be finite, got {params}")
    if step_inner <= 0 or step_outer <= 0 or kappa_max <= abs(start):
        raise ValueError("ladder rule must have positive steps and room to grow")
    if 2 * kappa_max / min(step_inner, step_outer) > _MAX_LADDER:
        raise ValueError(f"ladder rule gives more than {_MAX_LADDER} modes")
    ks = [start]
    for sign in (1.0, -1.0):  # k - step is k + (-step) bit for bit
        k = start
        while True:
            k += sign * (step_inner if abs(k) < transition else step_outer)
            if sign * k > kappa_max:
                break
            ks.append(k)
    return sorted(ks)


def build_catalog(rule, omega):
    """Assemble a ModeCatalog from a configuration dict.

    rule keys:
      families: list of labels, e.g. ["E m=0"] or ["E |m|=1", "B m=0"]
      kappa:    either {"values": [...]} or the graded-ladder parameters
                {"start", "step_inner", "transition", "step_outer", "max"}
      weight:   optional focal emphasis {"amplitude": A, "width": w};
                multiplies each mode's rate by 1 + A exp(-(kappa/w)^2),
                applied as sqrt on the coefficient triple
      coeffs:   optional coefficient triple, default core.DEFAULT_COEFFS

    Numbers follow core.number; a malformed entry raises a ValueError that
    names it, as catalog.kappa.step_inner, and so does a key outside these.
    The kappa section may hold 'values' and the ladder keys together, as a
    configuration overlay merged over a ladder preset does; 'values' wins.
    """
    known_keys(rule, "catalog", ("families", "kappa", "weight", "coeffs"))
    labels = rule.get("families")
    if not (isinstance(labels, (list, tuple)) and labels
            and all(isinstance(lab, str) for lab in labels)):
        raise ValueError("catalog.families must be a non-empty list of "
                         "family labels")
    pairs = []
    for fam, m in (p for lab in labels for p in _parse_family_label(lab)):
        if (fam, m) in pairs:
            raise ValueError(f"family {fam} m={m} is listed twice in {labels}")
        pairs.append((fam, m))
    krule = section(rule, "catalog.kappa", ("values", "start", "step_inner",
                                             "transition", "step_outer", "max"))
    if not krule:
        raise ValueError("catalog.kappa must give 'values' or the ladder "
                         "parameters")
    if "values" in krule:
        kappas = vector(krule["values"], "catalog.kappa.values")
        if not kappas:
            raise ValueError("catalog.kappa.values is empty")
    else:
        kappas = build_ladder(
            entry(krule, "catalog.kappa", "start", default=0.0),
            *(entry(krule, "catalog.kappa", key)
              for key in ("step_inner", "transition", "step_outer", "max")))
    wrule = section(rule, "catalog.weight", ("amplitude", "width")) or {}
    amp = entry(wrule, "catalog.weight", "amplitude", default=0.0)
    width = entry(wrule, "catalog.weight", "width", default=1.0)
    if not amp > -1.0:
        raise ValueError(f"catalog.weight.amplitude must be > -1 (the weight "
                         f"1 + A exp(-(kappa/w)^2) must stay positive), "
                         f"got {amp!r}")
    if not width > 0.0:
        raise ValueError(f"catalog.weight.width must be > 0, got {width!r}")
    coeffs = vector(rule.get("coeffs", DEFAULT_COEFFS), "catalog.coeffs", 3,
                    complex)
    modes = []
    for fam, m in pairs:
        for kappa in kappas:
            try:
                w = 1.0 + amp * np.exp(-((kappa / width) ** 2))
            except OverflowError:  # exp(-inf) = 0
                w = 1.0
            mode = ModeParams(omega=omega, m=m, kappa=kappa, family=fam,
                              coeffs=coeffs).scaled(np.sqrt(w))
            modes.append(mode)
    return ModeCatalog(modes=tuple(modes))


# The kernel series keeps every (p, q) term whose gamma is at least
# _SERIES_CUT * rel_tol of the largest gamma.  _MAX_SERIES_ROWS bounds the
# number of kept terms and each index p, q; a trap whose series needs more
# is rejected before any quadrature runs.
_SERIES_CUT = 1e-3
_MAX_SERIES_ROWS = 100


@lru_cache(maxsize=256)
def _series_terms(n_abs, eta_x, eta_z, rel_tol):
    """Rank-one terms (p, radial exponent, gamma) of the kernel expansion;
    cached per winding, trap and tolerance, as tuples no caller can change.

    gamma_pq = a_p b_q with a_p = (eta_z^2)^p / p! and
    b_q = (eta_x^2 / 2)^(n + 2q) / (q! (q + n)!).  Both factors are
    log-concave in their index, so the kept terms surround the largest
    gamma: (0, 0) for eta < 1, further out in softer traps, where the terms
    first grow and then fall.
    """
    j = np.arange(_MAX_SERIES_ROWS)
    e_r = n_abs + 2 * j
    log_fact_j, log_fact_jn = (np.array([math.lgamma(k + 1.0) for k in ks])
                               for ks in (j.tolist(), (j + n_abs).tolist()))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_a = np.where(j > 0, 2 * j * np.log(eta_z), 0.0) - log_fact_j
        log_b = np.where(e_r > 0, e_r * (2 * np.log(eta_x) - np.log(2.0)),
                         0.0) - log_fact_j - log_fact_jn
        log_g = log_a[:, None] + log_b[None, :]
        top = log_g.max()
        underflow = np.exp(top) == 0.0
    if underflow:
        # every gamma underflows: eta_x = 0 at nonzero winding, or a winding
        # so large that its series tables would not fit in memory
        return ()
    keep = log_g >= top + np.log(_SERIES_CUT * rel_tol)
    if not np.isfinite(top) or keep[-1].any() or keep[:, -1].any() \
            or keep.sum() > _MAX_SERIES_ROWS:
        raise ValueError(
            f"trap too soft for the rate series: eta_x = {eta_x:.4g}, "
            f"eta_z = {eta_z:.4g} need more than {_MAX_SERIES_ROWS} series "
            f"terms at rel_tol {rel_tol:g}")
    p, q = np.nonzero(keep)
    return tuple(zip(p.tolist(), (n_abs + 2 * q).tolist(),
                     np.exp(log_g[p, q]).tolist()))


def series_rows(catalog, dipole: DipoleSpec, eta: LambDicke,
                cfg=DEFAULT_QUADRATURE):
    """{winding |m - sigma|: kernel-series terms} the rate engine keeps for
    this catalog, dipole and trap at cfg.rel_tol; raises ValueError for a
    trap too soft for the series."""
    windings = {abs(mode.m - s) for mode in catalog.modes for s in SIGMAS
                if dipole.sigma_weight(s) > 0.0}
    return {n: len(_series_terms(n, eta.eta_x, eta.eta_z, cfg.rel_tol))
            for n in sorted(windings)}


# u >= 0 nodes per block of the rate engine's node sum (35 Gauss panels, and
# as many mirrored at u < 0), and z values per tile of the trap-phase
# matrix; together they bound the working set.  Node blocks are the only
# unit of work that `threads` shares out.
_U_BLOCK = 525
_Z_BLOCK = 64


# A task's kernel integrals carry the phase 2 kappa u + z tanh u, stationary
# where z sech^2 u = -2 kappa: only for kappa z < 0 and |z| >= 2 |kappa|,
# near the plane z = -2 kappa.  Short of that plane the stationary point
# moves off the real axis to u = i v, cos^2 v = r = |z| / 2|kappa| < 1, and
# steepest descent (Chester, Friedman and Ursell's uniform form at the
# caustic r = 1) bounds |G| by e^{-h}, with
#
#     h = 2 |kappa| (arccos(sqrt r) - sqrt(r (1 - r))).
#
# h falls from pi |kappa| at r = 0, the e^{-pi |kappa|} decay of a spectrum
# whose sech poles lie at u = +-i pi/2, to 0 at the caustic, over the Airy
# scale |z|^(1/3); on the other side of the focus (kappa z > 0) the trap
# phase only adds decay, so r = 0 bounds it there.  T goes as e^{-2h} times
# a prefactor.  A task whose 2h exceeds _EVANESCENT_EXPONENT at every z of a
# request is evanescent: its T is below refine's absolute floor of 1e-15,
# so its row passes the pair test on that floor, whatever rel_tol is.  The
# constant is measured: over the ybII, ybIII and ybII-perp catalogs at
# z = -160, -158, ..., 160, the largest 2h of a task whose T is above 1e-15
# is 46.0 (ybIII, kappa = -7.32 at z = 0, where the sech powers give a
# prefactor near 1e5).  At z = 0 it puts every |kappa| <= 48 / 2pi = 7.6 in
# reach.  The E |m|=1 rows keep an algebraic floor of at most 5e-15 that no
# exponent removes.
_EVANESCENT_EXPONENT = 48.0


def rate_grid(kappas, z_values):
    """(oscillation count, first-grid panels, kappa_reach, evanescent
    count) of a rate-engine request: tasks with these kappas at the trap
    centers z_values.

    A task is in reach where its 2h is at most _EVANESCENT_EXPONENT at some
    z, and kappa_reach is the largest |kappa| in reach.  The count is
    max(oscillation_count(kappa_reach), oscillation_count(max |kappa|) / 2)
    at the largest |z|.  Half a count is a quarter panel per oscillation:
    3.75 Gauss nodes per wavelength of the linear kappa phase, above the pi
    that Gauss-Legendre needs (Hale and Trefethen), enough for a row that
    passes on refine's floor.  numerics.first_grid sizes the grid and raises
    ValueError above MAX_PANELS, before any node is built.  The pair test
    still guards every row, so a task wrongly taken as evanescent costs a
    third grid, never a wrong result.
    """
    kappas = np.asarray(kappas, dtype=float)
    z_values = np.asarray(z_values, dtype=float)
    k = np.abs(kappas)
    # |z| of the trap center nearest each task's plane z = -2 kappa, or 0
    # where every z lies on the other side of the focus
    z_near = np.where(kappas > 0, -z_values.min(initial=0.0),
                      z_values.max(initial=0.0))
    r = np.divide(0.5 * z_near, k, out=np.ones_like(k),
                  where=0.5 * z_near < k)
    reach = k * (np.arccos(np.sqrt(r)) - np.sqrt(r * (1.0 - r))) \
        <= _EVANESCENT_EXPONENT / 4
    kappa_reach = float(k[reach].max(initial=0.0))
    zmax = float(np.abs(z_values).max(initial=0.0))
    n_osc = float(max(oscillation_count(kappa_reach, zmax, 0.0),
                      0.5 * oscillation_count(k.max(initial=0.0), zmax, 0.0)))
    return n_osc, first_grid(n_osc), kappa_reach, int(np.sum(~reach))


class _BlockSum:
    """Per-group sums of node-block parts added from any thread, in block
    order, so the bits never depend on the thread count.  Early parts wait;
    others are added, and freed, at once.  The caller's thread allocates
    the sums, so no worker's heap holds them between blocks."""

    def __init__(self, shapes):
        self.sums = [np.zeros(shape, dtype=complex) for shape in shapes]
        self._next = [0] * len(shapes)
        self._early = {}
        self._lock = Lock()

    def add(self, block, group, part):
        with self._lock:
            self._early[block, group] = part
            while (self._next[group], group) in self._early:
                self.sums[group] += self._early.pop((self._next[group], group))
                self._next[group] += 1


def _catalog_T(tasks, eta: LambDicke, z_values, cfg, pool_map=map):
    """T_sigma[t, z] of every (mode, sigma) task over an array of axial
    trap centers: the rate engine.

    Every task shares one grid, sized by rate_grid from the largest |kappa|
    the request can reach and half that of the catalog's largest, since an
    evanescent task's T is below refine's absolute floor; and one refine()
    that tests each task's row on its own scale: the Gauss sum on a first
    grid against the one on twice its panels, doubling until the two agree.
    One INFO line logs the first grid, kappa_reach and the evanescent
    tasks.  Per winding
    n = |m - sigma|, T = sum_r gamma_r |G|^2 over the series rows
    _series_terms keeps at cfg.rel_tol, with
    G[t, r, z] = sum_u A[t, u] rows[u, r] e^{-i z cos theta(u)},
    A = e^{2 i kappa u} (conj(c) @ conj(unit))(u), one (tasks x 3) @ (3 x
    nodes) product per group of tasks sharing family and sigma, for any
    coefficient triples c, and rows = w_u base(u) c^p s^e_r.  Per tile of
    z values, one pool_map runs the node blocks.  A block builds what no
    winding changes once: the kappa phase per distinct kappa, unit_spectra
    per family, the c and s power tables and the trap phase.  Per winding,
    it contracts each group in the cheaper order for its size.  A group
    with fewer tasks than series rows puts the phase into its tasks,
    B[u, t z] = A[t, u] e^{-i z cos}, and the winding's small groups share
    one real gemm rows^T @ B on the (re, im) pairs.  A larger group shares
    M[u, r z] = rows[u, r] e^{-i z cos} with its winding's other large
    groups: one complex gemm A @ M.  The bits never depend on the thread
    count; where one_blas_thread() finds numpy's bundled OpenBLAS, every
    gemm runs on one BLAS thread, and they do not depend on the BLAS thread
    count either.

    The grid is mirror-symmetric, so blocks take its u >= 0 half and build
    every per-node table there once: under u -> -u, sin theta, the taper
    and the trap Gaussian are even, the kappa and trap phases go to their
    conjugates, the unit spectra are the same table at (sin, -cos) and the
    series rows flip by (-1)^p.  A block holds its nodes as [+u, -u],
    each table the concatenation of its two halves, and w_u is the
    quadrature weight.
    """
    z_values = np.asarray(z_values, dtype=float)
    if not np.isfinite(z_values).all():
        raise ValueError(f"trap-center z values must be finite: {z_values}")
    kappas, kidx = np.unique([mode.kappa for mode, _ in tasks],
                             return_inverse=True)
    conj_c = np.conj([mode.coeffs for mode, _ in tasks])
    windings = {}
    for t, (mode, sigma) in enumerate(tasks):
        windings.setdefault(abs(mode.m - sigma), {}).setdefault(
            (mode.family, SIGMAS.index(sigma)), []).append(t)
    passes = []  # (p, e_r, (-1)^p, small groups, large groups) per winding
    sums = []  # (gamma, tasks, rows first) per block sum, in block order
    for n, gs in sorted(windings.items()):
        terms = _series_terms(n, eta.eta_x, eta.eta_z, cfg.rel_tol)
        if not terms:  # T stays 0
            continue
        p, e_r, gamma = (np.array(t) for t in zip(*terms))
        small = [g for g in gs.items() if len(g[1]) < len(gamma)]
        large = [g for g in gs.items() if len(g[1]) >= len(gamma)]
        passes.append((p, e_r, (-1.0) ** p, small, large))
        if small:
            sums.append((gamma, [t for _, idx in small for t in idx], True))
        sums += [(gamma, idx, False) for _, idx in large]
    families = {fam for *_, small, large in passes
                for (fam, _), _ in small + large}
    deg = max((max(p.max(), e_r.max()) for p, e_r, *_ in passes), default=0)

    def block(z_tile, add, numbered_nodes):
        b, (u, wk) = numbered_nodes  # u >= 0 nodes
        s, c = sin_cos_theta(u)
        kappa_phase = np.exp(2j * np.multiply.outer(kappas, u))
        kappa_phase = np.concatenate((kappa_phase, kappa_phase.conj()), 1)
        # one table per family on every node: at -u, cos theta flips
        s_all, c_all = np.concatenate((s, s)), np.concatenate((c, -c))
        unit = {fam: np.conj(unit_spectra(fam, s_all, c_all))
                for fam in families}

        def spectra(groups):  # A[t, u] of the groups' tasks, stacked
            return np.concatenate([
                kappa_phase[kidx[idx]] * (conj_c[idx] @ unit[fam][i_sigma])
                for (fam, i_sigma), idx in groups])

        base = wk * s**2 * taper_window(u) \
            * np.exp(-(eta.eta_z**2 * c**2 + eta.eta_x**2 * s**2) / 2.0)
        c_pow = np.vander(c, deg + 1, increasing=True)
        s_pow = np.vander(s, deg + 1, increasing=True)
        # trap phase e^{-i z cos theta} as cos - i sin, built in place; at
        # -u it is the conjugate
        phase = np.empty((len(u), len(z_tile)), dtype=complex)
        np.multiply.outer(c, z_tile, out=phase.imag)
        np.cos(phase.imag, out=phase.real)
        np.negative(np.sin(phase.imag, out=phase.imag), out=phase.imag)
        phase = np.concatenate((phase, phase.conj()))
        g = 0
        for p, e_r, parity, small, large in passes:
            # (node, row) powers c^p s^e_r, C-ordered so M reshapes in
            # place; at -u, c^p flips by (-1)^p
            rows = base[:, None] * np.take(c_pow, p, axis=1) \
                * np.take(s_pow, e_r, axis=1)
            rows = np.concatenate((rows, rows * parity))
            if small:
                a = np.ascontiguousarray(spectra(small).T)  # [node, task]
                B = (a[:, :, None] * phase[:, None, :]).view(float) \
                    .reshape(len(rows), -1)
                add(b, g, (rows.T @ B).view(complex))
                g += 1
                del a, B
            if large:
                M = (rows[:, :, None] * phase[:, None, :]) \
                    .reshape(len(rows), -1)
                for group in large:
                    a = spectra([group])
                    add(b, g, a @ M)
                    g += 1
                del M, a  # one winding's M alive at a time

    def estimate(u, wk):
        u, wk = folded_nodes(u, wk)
        blocks = [(u[i:i + _U_BLOCK], wk[i:i + _U_BLOCK])
                  for i in range(0, len(u), _U_BLOCK)]
        T = np.zeros((len(tasks), len(z_values)))
        for q in range(0, len(z_values), _Z_BLOCK):
            zt = slice(q, q + _Z_BLOCK)
            n_z = len(z_values[zt])
            G = _BlockSum([(len(gamma), len(idx) * n_z) if rows_first
                           else (len(idx), len(gamma) * n_z)
                           for gamma, idx, rows_first in sums])
            # the blocks add every winding's parts to G; list() runs them all
            list(pool_map(partial(block, z_values[zt], G.add),
                          enumerate(blocks)))
            for (gamma, idx, rows_first), g in zip(sums, G.sums):
                g = g.reshape(len(gamma), len(idx), n_z).swapaxes(0, 1) \
                    if rows_first else g.reshape(len(idx), len(gamma), n_z)
                T[idx, zt] = np.einsum("r,krz->kz", gamma, np.abs(g) ** 2,
                                       optimize=False)
        return T

    n_osc, n_panels, kappa_reach, n_evanescent = rate_grid(kappas[kidx],
                                                           z_values)
    zmax = float(np.abs(z_values).max(initial=0.0))
    log.info("rate grid for %d z, |z| <= %g: first grid %d panels, "
             "kappa_reach %.4g, %d of %d tasks evanescent", len(z_values),
             zmax, n_panels, kappa_reach, n_evanescent, len(tasks))
    with one_blas_thread():
        return refine(estimate, n_osc, cfg, zmax)[0]


def mode_contribution(mode, sigma, eta: LambDicke, z_center,
                      cfg=DEFAULT_QUADRATURE):
    """Positive emission weight T_sigma of one mode at axial trap center;
    a one-task view of the rate engine."""
    return float(_catalog_T([(mode, sigma)], eta, [float(z_center)],
                            cfg)[0, 0])


@dataclass(frozen=True)
class ModeRate:
    family: str
    m: int
    kappa: float
    t_sigma: tuple          # aligned with SIGMAS = (+1, -1, 0)
    weighted: float         # sum over sigma of |d_{-sigma}|^2 T, uncalibrated


@dataclass(frozen=True, eq=False)
class RateResult:
    """Rates at one axial trap center.  t_sigma and weighted are read-only
    views into the scan's [mode, sigma, z] and [mode, z] tables, shared by
    every z of the scan; `rows` builds per-mode records on request."""

    z: float
    total: float            # calibrated
    calibration: float
    modes: tuple            # the catalog's modes, catalog order
    t_sigma: np.ndarray     # [mode, sigma], sigma aligned with SIGMAS
    weighted: np.ndarray    # [mode], as ModeRate.weighted
    family_totals: tuple    # ((label, calibrated subtotal), ...)

    @property
    def rows(self):
        """ModeRate per catalog entry, catalog order."""
        return tuple(ModeRate(mode.family, mode.m, mode.kappa, tuple(t), w)
                     for mode, t, w in zip(self.modes, self.t_sigma.tolist(),
                                           self.weighted.tolist()))

    def resummed_total(self):
        """Recompute the total by family grouping; equals `total` exactly."""
        acc = 0.0
        for _, sub in self.family_totals:
            acc += sub
        return acc


def _assemble(catalog, z_values, t_sigma, weights):
    """Fold t_sigma[mode, sigma index, z] into one RateResult per z.

    Every sum runs elementwise over z in a fixed order: sigma channels in
    SIGMAS order, modes within a family in catalog order, families in
    first-appearance order.  np.add.accumulate adds in sequence; np.sum
    would add pairwise and change the bits.
    """
    weighted = 0.0
    for i, s in enumerate(SIGMAS):
        weighted = weighted + weights[s] * t_sigma[:, i]
    labels = [family_label(mode.family, mode.m) for mode in catalog.modes]
    contrib = catalog.calibration * weighted
    families = catalog.family_labels
    subtotals = np.array([
        np.add.accumulate(contrib[[lab == fam for lab in labels]])[-1]
        for fam in families])
    total = np.add.accumulate(subtotals)[-1]
    t_sigma.flags.writeable = weighted.flags.writeable = False
    return [RateResult(z, tot, catalog.calibration, catalog.modes,
                       t_sigma[:, :, iz], weighted[:, iz],
                       tuple(zip(families, subs)))
            for iz, (z, tot, subs) in enumerate(zip(
                z_values.tolist(), total.tolist(), subtotals.T.tolist()))]


def rate_scan(catalog, dipole: DipoleSpec, eta: LambDicke, z_values,
              cfg=DEFAULT_QUADRATURE, threads=1):
    """Calibrated total rate versus axial trap center.

    One rate-engine call covers every (mode, sigma) task of the catalog
    with a nonzero dipole weight.  Threads share out the engine's fixed
    node blocks, whose parts are added in block order, so the output is
    bit-identical for any thread count.  threads=1 runs in the calling
    thread, with no worker thread.
    """
    z_values = np.asarray(z_values, dtype=float)
    weights = {s: dipole.sigma_weight(s) for s in SIGMAS}
    active = [s for s in SIGMAS if weights[s] > 0.0]
    tasks = [(mode, s) for mode in catalog.modes for s in active]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        T = _catalog_T(tasks, eta, z_values, cfg,
                       map if threads == 1 else pool.map)
    t_sigma = np.zeros((len(catalog.modes), len(SIGMAS), len(z_values)))
    t_sigma[:, [SIGMAS.index(s) for s in active]] = \
        T.reshape(len(catalog.modes), len(active), -1)
    return _assemble(catalog, z_values, t_sigma, weights)


def total_rate(catalog, dipole: DipoleSpec, eta: LambDicke, z_center,
               cfg=DEFAULT_QUADRATURE, threads=1):
    """RateResult at a single axial trap center; threads as in rate_scan."""
    return rate_scan(catalog, dipole, eta, [float(z_center)], cfg,
                     threads)[0]


MAX_GRID = 100_000  # bounds every z grid, and the CLI's map grids


def z_grid(window, what):
    """The inclusive grid start, start + step, ... <= stop of a
    (start, stop, step) triple; a ValueError that names `what` unless the
    values are finite, start <= stop, step > 0 and the grid has at most
    MAX_GRID points."""
    start, stop, step = window
    if not (np.isfinite(window).all() and start <= stop and step > 0):
        raise ValueError(f"{what} needs finite values, start <= stop and "
                         f"step > 0, got {tuple(window)}")
    if (stop - start) / step + 1 > MAX_GRID:
        raise ValueError(f"{what} gives more than {MAX_GRID} points")
    return np.arange(start, stop + step / 2, step)


def calibrate(catalog, dipole: DipoleSpec, eta: LambDicke,
              window=(120.0, 160.0, 5.0), cfg=DEFAULT_QUADRATURE, threads=1):
    """Fix the catalog normalization to a far-field unity plateau.

    Averages the raw catalog total over the z_grid of the window
    (start, stop, step) and stores C = 1 / mean.  Raises before any
    quadrature if z_grid rejects the window, and after it if the window
    average is not a positive finite number.
    """
    zs = z_grid(window, "calibration window (start, stop, step)")
    base = catalog.calibrated(1.0)
    raw = [r.total for r in rate_scan(base, dipole, eta, zs, cfg, threads)]
    mean = float(np.mean(raw))
    if not np.isfinite(mean) or mean <= 0.0:
        raise ValueError(f"far-field window mean {mean} cannot calibrate")
    return catalog.calibrated(1.0 / mean)


def mode_table(catalog, dipole: DipoleSpec, eta: LambDicke, z_center,
               cfg=DEFAULT_QUADRATURE, threads=1):
    """Per-mode calibrated contributions at one trap center, sorted by kappa.

    Returns a list of dicts with the calibrated contribution and its
    fraction of the total; threads as in rate_scan.
    """
    res = total_rate(catalog, dipole, eta, z_center, cfg, threads)
    pairs = sorted(zip(res.modes, res.weighted.tolist()),
                   key=lambda p: (p[0].kappa, p[0].family, p[0].m))
    out = []
    for mode, weighted in pairs:
        contrib = res.calibration * weighted
        out.append({
            "family": mode.family, "m": mode.m, "kappa": mode.kappa,
            "contribution": contrib,
            "fraction": contrib / res.total if res.total > 0 else 0.0,
        })
    return out


def gamma0(omega, dipole_moment):
    """Free-space decay rate omega^3 d^2 / (3 pi eps0 hbar c^3)."""
    return omega**3 * dipole_moment**2 / (3 * np.pi * EPS0 * HBAR * C_LIGHT**3)

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
nonnegative sum of rank-one terms, each a single oscillatory integral.  A
dense two-dimensional quadrature of the same kernel is kept as a slow
verification path.

Rates are reported relative to a calibration constant C chosen so that the
catalog total averages to one over a far-field window on the shadow side,
where the mirror no longer modifies the emission.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.special import gammaln

from .core import ModeParams, DipoleSpec, SIGMAS, HBAR, C_LIGHT, EPS0
from .trap import LambDicke
from .spectrum import unit_spectra
from .numerics import (
    DEFAULT_QUADRATURE, oscillation_count, refine, taper_window,
    sin_cos_theta, bessel_i,
)

# The rate entry points start at 2 panels per oscillation, and refine()
# doubles the grid where that falls short; fields keep the default 10.
RATE_QUADRATURE = DEFAULT_QUADRATURE.replace(panels_per_oscillation=2.0)


def family_label(family, m):
    if m == 0:
        return f"{family} m=0"
    return f"{family} |m|={abs(m)}"


def _parse_family_label(label):
    """'E m=0' -> [('E', 0)]; 'B |m|=1' -> [('B', 1), ('B', -1)]."""
    fam, _, mpart = label.partition(" ")
    if fam not in ("E", "B") or not mpart:
        raise ValueError(f"unrecognized family label {label!r}")
    if mpart.startswith("|m|="):
        mag = int(mpart[4:])
        if mag <= 0:
            raise ValueError(f"|m| must be positive in {label!r}")
        return [(fam, mag), (fam, -mag)]
    if mpart.startswith("m="):
        return [(fam, int(mpart[2:]))]
    raise ValueError(f"unrecognized family label {label!r}")


@dataclass(frozen=True)
class ModeCatalog:
    modes: tuple
    calibration: float = 1.0
    meta: dict = field(default_factory=dict)

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

    def calibrated(self, constant, window=None):
        meta = dict(self.meta)
        if window is not None:
            meta["calibration_window"] = tuple(window)
        return replace(self, calibration=float(constant), meta=meta)


_MAX_LADDER = 100_000  # bounds the ladder before it is built


def build_ladder(start, step_inner, transition, step_outer, kappa_max):
    """Graded kappa ladder stepping outward from `start` in both directions.

    Inner steps apply while |kappa| < transition, outer steps beyond; the
    ladder spans (-kappa_max, kappa_max) and always contains `start`.
    """
    if step_inner <= 0 or step_outer <= 0 or kappa_max <= abs(start):
        raise ValueError("ladder rule must have positive steps and room to grow")
    if 2 * kappa_max / min(step_inner, step_outer) > _MAX_LADDER:
        raise ValueError(f"ladder rule gives more than {_MAX_LADDER} modes")
    ks = [start]
    k = start
    while True:
        k += step_inner if abs(k) < transition else step_outer
        if k > kappa_max:
            break
        ks.append(k)
    k = start
    while True:
        k -= step_inner if abs(k) < transition else step_outer
        if k < -kappa_max:
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
      coeffs:   optional coefficient triple, default (1, -1, 0)
    """
    labels = rule.get("families")
    if not labels:
        raise ValueError("rule must list at least one mode family")
    pairs = []
    for lab in labels:
        pairs.extend(_parse_family_label(lab))
    krule = rule.get("kappa")
    if not krule:
        raise ValueError("rule must specify a kappa catalog")
    if "values" in krule:
        kappas = [float(k) for k in krule["values"]]
        if not kappas:
            raise ValueError("empty kappa list")
    else:
        kappas = build_ladder(
            float(krule.get("start", 0.0)),
            float(krule["step_inner"]),
            float(krule["transition"]),
            float(krule["step_outer"]),
            float(krule["max"]),
        )
    wrule = rule.get("weight") or {}
    amp = float(wrule.get("amplitude", 0.0))
    width = float(wrule.get("width", 1.0))
    if not (np.isfinite(amp) and amp > -1.0):
        raise ValueError(f"catalog.weight.amplitude must be finite and > -1 "
                         f"(the weight 1 + A exp(-(kappa/w)^2) must stay "
                         f"positive), got {amp!r}")
    if not (np.isfinite(width) and width > 0.0):
        raise ValueError(f"catalog.weight.width must be finite and > 0, "
                         f"got {width!r}")
    coeffs = tuple(complex(c) for c in rule.get("coeffs", (1.0, -1.0, 0.0)))
    modes = []
    for fam, m in pairs:
        for kappa in kappas:
            w = 1.0 + amp * np.exp(-((kappa / width) ** 2))
            mode = ModeParams(omega=omega, m=m, kappa=kappa, family=fam,
                              coeffs=coeffs).scaled(np.sqrt(w))
            modes.append(mode)
    meta = {"rule": rule}
    return ModeCatalog(modes=tuple(modes), meta=meta)


def _series_terms(n_abs, eta_x, eta_z, n_axial, n_radial):
    """Rank-one term list (p, radial exponent, gamma) of the kernel expansion."""
    terms = []
    for p in range(n_axial):
        if eta_z == 0.0 and p > 0:
            continue
        for q in range(n_radial):
            e_r = n_abs + 2 * q
            if eta_x == 0.0 and e_r > 0:
                continue
            lg = -gammaln(p + 1) - gammaln(q + 1) - gammaln(q + n_abs + 1)
            if p:
                lg += p * np.log(eta_z**2)
            if e_r:
                lg += e_r * np.log(eta_x**2 / 2.0)
            gam = float(np.exp(lg))
            if gam > 0.0:
                terms.append((p, e_r, gam))
    return terms


# u-nodes per block of the rate engine's node sum (70 K15 panels).  A
# block's partial sum is the unit of work that `threads` schedules, and the
# partial sums are added in block order, so the bits never depend on the
# thread count; the block also bounds the working set.
_U_BLOCK = 1050


def _spectra(modes, sigma, u, s, c):
    """a_sigma(u) of modes of one family, shape (len(modes), len(u)).

    One unit_spectra evaluation on the nodes, combined with each mode's
    coefficients and times its kappa phase e^{-2 i kappa u}.
    """
    unit = unit_spectra(modes[0].family, s, c)[SIGMAS.index(sigma)]
    coeffs = np.array([mode.coeffs for mode in modes])
    kappa = np.array([mode.kappa for mode in modes])
    return sum(coeffs[:, j, None] * unit[j] for j in range(3)) \
        * np.exp(-2j * np.multiply.outer(kappa, u))


def _catalog_T(modes, sigma, eta: LambDicke, z_values, cfg, n_axial,
               n_radial, pool_map=map):
    """T_sigma[k, z] of modes sharing one family and winding m, over an
    array of axial trap centers: the rate engine.

    kappa and the coefficients enter T only through the spectrum, so every
    mode shares one grid, sized by the largest |kappa| and |z|:
    G[k, r, z] = sum_u A[k, u] M[u, r, z] with
    A = w_u conj(a_sigma(u)) (Kronrod and Gauss weights stacked) and
    M = base(u) row_r(u) e^{-i z cos theta}, then
    T = sum_r gamma_r |G|^2.  The node sum runs in blocks of _U_BLOCK nodes
    through pool_map, and refine() tests each mode's row on its own scale.
    """
    if not eta.axisymmetric:
        raise NotImplementedError(
            "fast path assumes eta_x == eta_y; use mode_contribution_general")
    z_values = np.asarray(z_values, dtype=float)
    terms = _series_terms(abs(modes[0].m - sigma), eta.eta_x, eta.eta_z,
                          n_axial, n_radial)
    if not terms:
        return np.zeros((len(modes), len(z_values)))
    p, e_r, gam = (np.array(t) for t in zip(*terms))

    def block(nodes):
        u, wk, wg = nodes
        s, c = sin_cos_theta(u)
        conj_a = np.conj(_spectra(modes, sigma, u, s, c))
        base = s**2 * taper_window(u, cfg) \
            * np.exp(-(eta.eta_z**2 * c**2 + eta.eta_x**2 * s**2) / 2.0)
        # (node, row) powers c^p s^e_r, C-ordered so M reshapes without a copy
        rows = base[:, None] \
            * np.take(np.vander(c, p.max() + 1, increasing=True), p, axis=1) \
            * np.take(np.vander(s, e_r.max() + 1, increasing=True), e_r, axis=1)
        phase = np.exp(-1j * np.multiply.outer(c, z_values))
        M = (rows[:, :, None] * phase[:, None, :]).reshape(len(u), -1)
        return np.concatenate((conj_a * wk, conj_a * wg)) @ M

    def estimate(u, wk, wg):
        # a pooled map returns every block's part at once; a part has
        # 2 len(modes) / _U_BLOCK of the elements of its block's M
        parts = iter(pool_map(block, [(u[i:i + _U_BLOCK], wk[i:i + _U_BLOCK],
                                       wg[i:i + _U_BLOCK])
                                      for i in range(0, len(u), _U_BLOCK)]))
        G = next(parts)
        for part in parts:
            G += part
        G = np.abs(G.reshape(2, len(modes), len(gam), len(z_values))) ** 2
        return np.einsum("r,wkrz->wkz", gam, G, optimize=False)

    kmax = max(abs(mode.kappa) for mode in modes)
    zmax = float(np.abs(z_values).max(initial=0.0))
    return refine(estimate, oscillation_count(kmax, zmax, 0.0, cfg), cfg)[0]


def mode_contribution(mode, sigma, eta: LambDicke, z_center,
                      cfg=RATE_QUADRATURE, n_axial=5, n_radial=4):
    """Positive emission weight T_sigma of one mode at axial trap center;
    a one-row view of the rate engine."""
    return float(_catalog_T([mode], sigma, eta, [float(z_center)], cfg,
                            n_axial, n_radial)[0, 0])


def mode_contribution_direct(mode, sigma, eta: LambDicke, z_center,
                             cfg=DEFAULT_QUADRATURE):
    """Dense double-quadrature of the pair kernel; slow verification path.

    Tiny negative results from quadrature noise are clamped to zero; a
    negative part beyond 1e-10 of the diagonal scale raises.
    """
    if not eta.axisymmetric:
        raise NotImplementedError("direct path assumes eta_x == eta_y")
    z_center = float(z_center)
    n = mode.m - sigma

    def estimate(u, wk, wg):
        s, c = sin_cos_theta(u)
        # conjugate side of the quadratic form supplies e^{-iZc}
        v = s**2 * _spectra([mode], sigma, u, s, c)[0] \
            * taper_window(u, cfg) * np.exp(1j * z_center * c)
        dz = c[:, None] - c[None, :]
        kernel = np.exp(-eta.eta_z**2 * dz**2 / 2.0) \
            * np.exp(-eta.eta_x**2 * (s[:, None]**2 + s[None, :]**2) / 2.0) \
            * bessel_i(abs(n), eta.eta_x**2 * np.outer(s, s))
        t_k, t_g = (float(np.real(np.conj(v * w) @ kernel @ (v * w)))
                    for w in (wk, wg))
        ref = float((np.abs(v * wk) ** 2 * np.diag(kernel)).sum())
        if t_k < -1e-10 * max(ref, 1e-300):
            raise ArithmeticError(
                f"pair kernel lost positivity: {t_k} vs scale {ref}")
        return t_k, t_g

    t, _ = refine(estimate, oscillation_count(mode.kappa, z_center, 0.0, cfg),
                  cfg)
    if t < 0.0:
        warnings.warn("clamping small negative pair-kernel quadrature result")
        t = 0.0
    return t


def mode_contribution_general(mode, sigma, eta_xyz, center,
                              cfg=DEFAULT_QUADRATURE, order=6, n_phi=None):
    """Rank expansion for anisotropic confinement and arbitrary trap center.

    Expands each Cartesian-axis Gaussian of the form factor separately:
    T = sum_P gamma_P |B_P|^2 over multi-indices P = (px, py, pz) with
    |P| <= order, each B_P a two-dimensional angular integral.  Slow but
    fully general; the axisymmetric on-axis engine is the fast path.
    """
    ex, ey, ez = (float(e) for e in eta_xyz)
    x0, y0, z0 = (float(x) for x in center)
    n = mode.m - sigma
    if n_phi is None:
        n_phi = int(64 + 8 * np.ceil(abs(n) + order + np.hypot(x0, y0)))
    phik = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    combos = [(px, py, pz)
              for px in range(order + 1)
              for py in range(order + 1 - px)
              for pz in range(order + 1 - px - py)
              if not ((ex == 0.0 and px) or (ey == 0.0 and py)
                      or (ez == 0.0 and pz))]
    gam = np.array([
        np.exp((px * np.log(ex**2) if px else 0.0)
               + (py * np.log(ey**2) if py else 0.0)
               + (pz * np.log(ez**2) if pz else 0.0)
               - gammaln(px + 1) - gammaln(py + 1) - gammaln(pz + 1))
        for px, py, pz in combos])

    def estimate(u, wk, wg):
        s, c = sin_cos_theta(u)
        kx = s[:, None] * np.cos(phik)[None, :]
        ky = s[:, None] * np.sin(phik)[None, :]
        kz = c[:, None] * np.ones((1, n_phi))
        base = (s**2 * np.conj(_spectra([mode], sigma, u, s, c)[0])
                * taper_window(u, cfg))[:, None] \
            * np.exp(-1j * n * phik)[None, :] / (2 * np.pi) \
            * np.exp(-1j * (kx * x0 + ky * y0 + kz * z0)) \
            * np.exp(-(ex**2 * kx**2 + ey**2 * ky**2 + ez**2 * kz**2) / 2.0) \
            * (2 * np.pi / n_phi)
        b = np.array([(base * kx**px * ky**py * kz**pz).sum(axis=1)
                      for px, py, pz in combos])
        return (float(gam @ (np.abs(b @ w) ** 2)) for w in (wk, wg))

    return refine(estimate, oscillation_count(mode.kappa, z0, np.hypot(x0, y0),
                                              cfg), cfg)[0]


@dataclass(frozen=True)
class ModeRate:
    family: str
    m: int
    kappa: float
    t_sigma: tuple          # aligned with SIGMAS = (+1, -1, 0)
    weighted: float         # sum over sigma of |d_{-sigma}|^2 T, uncalibrated

    @property
    def label(self):
        return family_label(self.family, self.m)


@dataclass(frozen=True)
class RateResult:
    z: float
    total: float            # calibrated
    calibration: float
    rows: tuple             # ModeRate per catalog entry, catalog order
    family_totals: tuple    # ((label, calibrated subtotal), ...)

    def resummed_total(self):
        """Recompute the total by family grouping; equals `total` exactly."""
        acc = 0.0
        for _, sub in self.family_totals:
            acc += sub
        return acc

    def to_dict(self):
        return {
            "z": self.z,
            "total": self.total,
            "calibration": self.calibration,
            "families": {lab: sub for lab, sub in self.family_totals},
            "modes": [
                {"family": r.family, "m": r.m, "kappa": r.kappa,
                 "t_sigma": {str(s): t for s, t in zip(SIGMAS, r.t_sigma)},
                 "weighted": r.weighted}
                for r in self.rows
            ],
        }


def _assemble(catalog, z_values, t_tables, weights):
    """Fold per-(mode, sigma) T arrays into one RateResult per z.

    Summation order is fixed by the catalog: per family in first-appearance
    order, modes within a family in catalog order.  Identical regardless of
    how the tables were computed.
    """
    results = []
    labels = catalog.family_labels
    for iz, z in enumerate(z_values):
        rows = []
        subtotals = {lab: 0.0 for lab in labels}
        for im, mode in enumerate(catalog.modes):
            tsig = tuple(float(t_tables[(im, s)][iz]) if (im, s) in t_tables
                         else 0.0 for s in SIGMAS)
            wsum = 0.0
            for s, t in zip(SIGMAS, tsig):
                wsum += weights[s] * t
            rows.append(ModeRate(mode.family, mode.m, mode.kappa, tsig, wsum))
            subtotals[rows[-1].label] += catalog.calibration * wsum
        total = 0.0
        fam_list = []
        for lab in labels:
            fam_list.append((lab, subtotals[lab]))
            total += subtotals[lab]
        results.append(RateResult(float(z), total, catalog.calibration,
                                  tuple(rows), tuple(fam_list)))
    return results


def _gather(pool, fn, items):
    """[fn(item) for item in items] on the pool's threads.  The caller
    sleeps once, until every call has returned, rather than waking for
    each result in turn."""
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [f.result() for f in futures]


def rate_scan(catalog, dipole: DipoleSpec, eta: LambDicke, z_values,
              cfg=RATE_QUADRATURE, threads=1, n_axial=5, n_radial=4):
    """Calibrated total rate versus axial trap center.

    The catalog is split into (family, m, sigma) groups, one rate-engine
    call each.  Threads share out whole groups when there are at least as
    many groups as threads, and a group's fixed node blocks otherwise.
    Either way every group does the same arithmetic in the same order, so
    the output is bit-identical for any thread count.  threads=1 runs in
    the calling thread, with no pool.
    """
    z_values = np.asarray(z_values, dtype=float)
    weights = {s: dipole.sigma_weight(s) for s in SIGMAS}
    families = {}
    for im, mode in enumerate(catalog.modes):
        families.setdefault((mode.family, mode.m), []).append(im)
    groups = [(members, s) for members in families.values()
              for s in SIGMAS if weights[s] > 0.0]

    def run(group, inner=map):
        members, s = group
        return _catalog_T([catalog.modes[im] for im in members], s, eta,
                          z_values, cfg, n_axial, n_radial, inner)

    if threads == 1:
        T = [run(group) for group in groups]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            if len(groups) >= threads:
                T = _gather(pool, run, groups)
            else:
                T = [run(group, partial(_gather, pool)) for group in groups]
    tables = {(im, s): row for (members, s), rows in zip(groups, T)
              for im, row in zip(members, rows)}
    return _assemble(catalog, z_values, tables, weights)


def total_rate(catalog, dipole: DipoleSpec, eta: LambDicke, z_center,
               cfg=RATE_QUADRATURE, n_axial=5, n_radial=4):
    """RateResult at a single axial trap center."""
    return rate_scan(catalog, dipole, eta, [float(z_center)], cfg,
                     threads=1, n_axial=n_axial, n_radial=n_radial)[0]


def calibrate(catalog, dipole: DipoleSpec, eta: LambDicke,
              window=(120.0, 160.0, 5.0), cfg=RATE_QUADRATURE, threads=1):
    """Fix the catalog normalization to a far-field unity plateau.

    Averages the raw catalog total over z in the window (start, stop, step)
    inclusive and stores C = 1 / mean; raises if the window average is not
    a positive finite number.
    """
    start, stop, step = window
    zs = np.arange(start, stop + step / 2, step)
    base = catalog.calibrated(1.0)
    raw = [r.total for r in rate_scan(base, dipole, eta, zs, cfg, threads)]
    mean = float(np.mean(raw))
    if not np.isfinite(mean) or mean <= 0.0:
        raise ValueError(f"far-field window mean {mean} cannot calibrate")
    return catalog.calibrated(1.0 / mean, window=window)


def mode_table(catalog, dipole: DipoleSpec, eta: LambDicke, z_center,
               cfg=RATE_QUADRATURE):
    """Per-mode calibrated contributions at one trap center, sorted by kappa.

    Returns a list of dicts with the calibrated contribution and its
    fraction of the total.
    """
    res = total_rate(catalog, dipole, eta, z_center, cfg)
    rows = sorted(res.rows, key=lambda r: (r.kappa, r.family, r.m))
    out = []
    for r in rows:
        contrib = res.calibration * r.weighted
        out.append({
            "family": r.family, "m": r.m, "kappa": r.kappa,
            "contribution": contrib,
            "fraction": contrib / res.total if res.total > 0 else 0.0,
        })
    return out


def gamma0(omega, dipole_moment):
    """Free-space decay rate omega^3 d^2 / (3 pi eps0 hbar c^3)."""
    return omega**3 * dipole_moment**2 / (3 * np.pi * EPS0 * HBAR * C_LIGHT**3)

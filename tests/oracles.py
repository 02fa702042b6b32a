"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's own solver path: the
two-region determinant is written out in closed form and scanned directly
with scipy primitives, and the small-x Bessel series are hand-rolled so
zero locations can be bracketed without consulting membrane_lab.bessel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.optimize import brentq


def j0_series(x: float, terms: int = 40) -> float:
    """Power series for J0, adequate for x of a few."""
    total = 0.0
    term = 1.0
    q = 0.25 * x * x
    for k in range(terms):
        if k > 0:
            term *= -q / (k * k)
        total += term
    return total


def y0_series(x: float, terms: int = 40) -> float:
    """Power series for Y0 (small x), via the log + harmonic-sum expansion."""
    gamma = 0.5772156649015329
    q = 0.25 * x * x
    term = 1.0
    h = 0.0
    total = 0.0
    for k in range(1, terms):
        term *= -q / (k * k)
        h += 1.0 / k
        total += -term * h
    return (2.0 / math.pi) * ((math.log(0.5 * x) + gamma) * j0_series(x, terms) + total)


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    f_lo = fn(lo)
    f_hi = fn(hi)
    assert f_lo * f_hi < 0, "oracle bracket does not straddle a root"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def two_region_determinant(
    f, m: int, radius: float, tension: float,
    patch_fraction: float, sigma_inner: float, sigma_outer: float,
):
    """Closed-form eigencondition for a single density step, at a frequency
    or an array of them.

    Inner solution J_m(k1 r) matched to B J_m(k2 r) + C Y_m(k2 r) with the
    rim-clamped combination substituted, leaving one scalar determinant.
    """
    a = patch_fraction * radius
    k1 = 2.0 * math.pi * f * math.sqrt(sigma_inner / tension)
    k2 = 2.0 * math.pi * f * math.sqrt(sigma_outer / tension)
    jm = lambda x: special.jv(m, x)
    ym = lambda x: special.yv(m, x)
    jmp = lambda x: special.jvp(m, x)
    ymp = lambda x: special.yvp(m, x)
    # Outer solution vanishing at r = R: Y_m(k2 R) J_m(k2 r) - J_m(k2 R) Y_m(k2 r)
    outer = ym(k2 * radius) * jm(k2 * a) - jm(k2 * radius) * ym(k2 * a)
    outer_d = k2 * (ym(k2 * radius) * jmp(k2 * a) - jm(k2 * radius) * ymp(k2 * a))
    return jm(k1 * a) * outer_d - k1 * jmp(k1 * a) * outer


def two_region_modes(
    m: int, n_max: int, radius: float, tension: float,
    patch_fraction: float, sigma_inner: float, sigma_outer: float,
    scan_points: int = 24000,
) -> list[float]:
    """Lowest n_max eigenfrequencies of the density-step membrane for one m."""
    c_slow = math.sqrt(tension / max(sigma_inner, sigma_outer))
    c_fast = math.sqrt(tension / min(sigma_inner, sigma_outer))
    f_hi = 1.1 * special.jn_zeros(m, n_max)[-1] * c_fast / (2.0 * math.pi * radius)
    f_lo = 0.02 * c_slow / (2.0 * radius)
    grid = np.linspace(f_lo, f_hi, scan_points)
    vals = two_region_determinant(grid, m, radius, tension, patch_fraction, sigma_inner, sigma_outer)
    roots = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        root = brentq(
            two_region_determinant, grid[i], grid[i + 1],
            args=(m, radius, tension, patch_fraction, sigma_inner, sigma_outer),
            xtol=1e-14, rtol=1e-14,
        )
        roots.append(root)
        if len(roots) == n_max:
            break
    return roots


def two_region_shape(
    f: float, m: int, radius: float, tension: float,
    patch_fraction: float, sigma_inner: float, sigma_outer: float, r: np.ndarray,
) -> np.ndarray:
    """Closed-form radial shape of a density-step mode, normalised to max |u| = 1.

    J_m(k1 r) inside the step; outside, the rim-clamped combination
    Y_m(k2 R) J_m(k2 r) - J_m(k2 R) Y_m(k2 r), scaled to match the inner
    displacement at the step.
    """
    a = patch_fraction * radius
    k1 = 2.0 * math.pi * f * math.sqrt(sigma_inner / tension)
    k2 = 2.0 * math.pi * f * math.sqrt(sigma_outer / tension)

    def outer(x):
        return special.yv(m, k2 * radius) * special.jv(m, x) - special.jv(m, k2 * radius) * special.yv(m, x)

    outside = r > a
    u = special.jv(m, k1 * r)
    u[outside] = special.jv(m, k1 * a) / outer(k2 * a) * outer(k2 * r[outside])
    return u / np.max(np.abs(u))

"""Eigenmodes of uniform and radially loaded circular membranes.

A loaded head is modelled as concentric rings of constant surface density
under uniform tension, clamped at the rim.  Within ring i the transverse
displacement of an azimuthal-order-m mode is

    u_i(r) = A_i J_m(k_i r) + B_i Y_m(k_i r),      k_i = 2 pi f sqrt(sigma_i / T)

with B_1 = 0 (regularity at the centre).  Continuity of displacement and
radial slope at every ring boundary propagates (A, B) outward; frequencies
where the propagated solution vanishes at the rim are the eigenfrequencies.
The scan walks all azimuthal orders at once (one grid row per order),
refines suspicious dips in one batch per level and bisects every bracket in
lockstep; one kernel, _propagate, serves each step and mode_shape.  Slopes
come from the recurrence f'_m(x) = f_{m-1}(x) - (m/x) f_m(x) (DLMF 10.6.2),
so each boundary needs J and Y at orders m and m-1 only.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_j, bessel_y, bessel_zero
from .errors import ConvergenceError, InsufficientCeiling, ProfileMismatch

# Scan resolution: 1/20 of the modal spacing of a uniform membrane at the
# densest ring (loaded spectra are denser than the lightest uniform one,
# never denser than the heaviest).
SCAN_DIVISIONS = 20
BISECT_RTOL = 1e-11
BISECT_CAP = 200
# A local |D| minimum this far below its row's median, with no sign change
# beside it, may hide two near-degenerate roots: it gets a 4x finer look, a
# dip there another, up to _FINER_LOOKS deep (4x, 16x and 64x finer steps).
_DIP_RATIO = 1e-3
_FINER_LOOKS = 3


@dataclass(frozen=True)
class RadialDensityProfile:
    """Piecewise-constant surface-density map of a clamped circular membrane.

    rings are (outer_radius_fraction, surface_density) pairs ordered from
    the centre outward; the last fraction must be exactly 1.0.
    """

    radius: float
    tension: float
    rings: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not (self.tension > 0 and math.isfinite(self.tension)):
            raise ValueError(f"tension must be positive and finite, got {self.tension}")
        rings = tuple((float(f), float(s)) for f, s in self.rings)
        object.__setattr__(self, "rings", rings)
        if len(rings) < 1:
            raise ValueError("profile needs at least one ring")
        fracs = [f for f, _ in rings]
        if any(not (0.0 < f <= 1.0) for f in fracs):
            raise ValueError("ring fractions must lie in (0, 1]")
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise ValueError("ring fractions must be strictly increasing")
        if fracs[-1] != 1.0:
            raise ValueError("last ring fraction must equal 1.0 exactly")
        if any(not (s > 0 and math.isfinite(s)) for _, s in rings):
            raise ValueError("surface densities must be positive and finite")

    @property
    def densities(self) -> tuple[float, ...]:
        return tuple(s for _, s in self.rings)

    def fingerprint(self) -> str:
        canon = "|".join(
            ["%.17g" % self.radius, "%.17g" % self.tension]
            + ["%.17g,%.17g" % ring for ring in self.rings]
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def to_json_dict(self) -> dict:
        return {
            "radius_m": self.radius,
            "tension_n_per_m": self.tension,
            "rings": [{"r_frac": f, "sigma_kg_m2": s} for f, s in self.rings],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RadialDensityProfile":
        try:
            rings = tuple((r["r_frac"], r["sigma_kg_m2"]) for r in doc["rings"])
            return cls(doc["radius_m"], doc["tension_n_per_m"], rings)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed profile document: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "RadialDensityProfile":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Mode:
    """One eigenmode: m nodal diameters, n-th radial root, frequency in Hz."""

    m: int
    n: int
    frequency: float
    source_fingerprint: str = ""


@dataclass(frozen=True)
class ModeTable:
    profile_fingerprint: str
    modes: tuple[Mode, ...] = field(default_factory=tuple)

    def __post_init__(self):
        modes = tuple(self.modes)
        object.__setattr__(self, "modes", modes)
        keys = [(mo.frequency, mo.m, mo.n) for mo in modes]
        if keys != sorted(keys):
            raise ValueError("mode table must be sorted by (frequency, m, n)")
        pairs = [(mo.m, mo.n) for mo in modes]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate (m, n) pair in mode table")

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def __getitem__(self, i) -> Mode:
        return self.modes[i]

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([mo.frequency for mo in self.modes])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("m,n,frequency_hz\n")
        for mo in self.modes:
            buf.write(f"{mo.m},{mo.n},{mo.frequency:.9g}\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "profile_fingerprint": self.profile_fingerprint,
            "modes": [
                {"m": mo.m, "n": mo.n, "frequency_hz": mo.frequency} for mo in self.modes
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModeTable":
        fp = doc.get("profile_fingerprint", "")
        modes = tuple(
            Mode(int(e["m"]), int(e["n"]), float(e["frequency_hz"]), fp)
            for e in doc["modes"]
        )
        return cls(fp, modes)


def _sorted_table(fingerprint: str, modes: list[Mode]) -> ModeTable:
    modes.sort(key=lambda mo: (mo.frequency, mo.m, mo.n))
    return ModeTable(fingerprint, tuple(modes))


def uniform_modes(
    radius: float, tension: float, density: float, m_max: int, n_max: int
) -> ModeTable:
    """Closed-form modes of an unloaded membrane: f = j_{m,n} c / (2 pi R)."""
    if min(radius, tension, density) <= 0:
        raise ValueError("radius, tension and density must all be positive")
    if not (0 <= m_max <= 8 and 1 <= n_max <= 8):
        raise ValueError("m_max must be in [0, 8] and n_max in [1, 8]")
    profile = RadialDensityProfile(radius, tension, ((1.0, density),))
    fp = profile.fingerprint()
    c = math.sqrt(tension / density)
    modes = [
        Mode(m, n, bessel_zero(m, n) * c / (2.0 * math.pi * radius), fp)
        for m in range(m_max + 1)
        for n in range(1, n_max + 1)
    ]
    return _sorted_table(fp, modes)


def _propagate(profile: RadialDensityProfile, orders, freqs):
    """Carry the regular solution outward across every ring boundary.

    Orders broadcast against frequencies, so one call evaluates rows of
    frequency grids (one per order) or polishes brackets from every order
    at once.  Ring i holds u = S_i (A_i J_m(k_i r) + B_i Y_m(k_i r)) with
    A_1 = S_1 = 1, B_1 = 0.
    Returns ([(A_i, B_i, S_i) for each ring], D), where D is the rim
    displacement divided by S_N.

    The recurrence f'_m(x) = f_{m-1}(x) - (m/x) f_m(x) (DLMF 10.6.2) makes
    du/dr + (m/r) u = k (A J_{m-1} + B Y_{m-1}); it is continuous wherever
    u and du/dr are, so the 2x2 solve at each boundary carries it in place
    of the slope and needs J and Y at orders m and m-1 only.  The solve
    uses the analytic Wronskian inverse (J_m Y_{m-1} - J_{m-1} Y_m =
    2 / (pi x)).  After every boundary (A, B) is divided by the positive
    factor max(|A|, |B|), folded into S, so the sign of D, which the
    bracketing relies on, is preserved.
    """
    from scipy import special

    m, freqs = np.broadcast_arrays(np.asarray(orders, dtype=float), np.asarray(freqs, dtype=float))
    R = profile.radius
    ks = [2.0 * math.pi * freqs * math.sqrt(sig / profile.tension) for sig in profile.densities]

    A = np.ones_like(freqs)
    B = np.zeros_like(freqs)
    S = np.ones_like(freqs)
    coeffs = [(A, B, S)]
    for i in range(len(ks) - 1):
        rb = profile.rings[i][0] * R
        xl = ks[i] * rb
        xr = ks[i + 1] * rb
        u = A * special.jv(m, xl)
        w = A * special.jv(m - 1, xl)
        if i > 0:  # no Y term in the first ring
            u = u + B * special.yv(m, xl)
            w = w + B * special.yv(m - 1, xl)
        w = ks[i] * w
        half_pi_rb = 0.5 * math.pi * rb
        A = half_pi_rb * (ks[i + 1] * special.yv(m - 1, xr) * u - special.yv(m, xr) * w)
        B = half_pi_rb * (special.jv(m, xr) * w - ks[i + 1] * special.jv(m - 1, xr) * u)
        scale = np.maximum(np.abs(A), np.abs(B))
        scale = np.where(scale > 0.0, scale, 1.0)
        A = A / scale
        B = B / scale
        S = S * scale
        coeffs.append((A, B, S))
    last = ks[-1] * R
    D = A * special.jv(m, last)
    if len(ks) > 1:
        D = D + B * special.yv(m, last)
    return coeffs, D


def _bisect_mixed(
    profile: RadialDensityProfile,
    orders: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    d_lo: np.ndarray,
) -> np.ndarray:
    """Bisect sign-change brackets from every azimuthal order in lockstep."""
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    d_lo = d_lo.copy()
    for _ in range(BISECT_CAP):
        mid = 0.5 * (lo + hi)
        active = (hi - lo) > BISECT_RTOL * np.abs(mid)
        if not active.any():
            return mid
        _, d_mid = _propagate(profile, orders, mid)
        go_left = (d_lo * d_mid) < 0.0
        hi = np.where(active & go_left, mid, hi)
        move_right = active & ~go_left
        lo = np.where(move_right, mid, lo)
        d_lo = np.where(move_right, d_mid, d_lo)
    raise ConvergenceError(
        f"bracketed root failed to converge in {BISECT_CAP} bisections"
    )


def _find_brackets(profile: RadialDensityProfile, orders, grid) -> np.ndarray:
    """Sign-change brackets of the rim displacement along rows of frequency grids.

    Row i of the grid belongs to azimuthal order orders[i]; the two
    broadcast together.  Returns a (4, k) array of (order, lo, hi, D(lo))
    columns; a grid point where D is exactly zero comes back as a
    zero-width bracket, which the bisection returns as it is.

    A dip (see _DIP_RATIO) gets a 9-point row spanning its two neighbours,
    4x finer, and a dip there another, up to _FINER_LOOKS levels deep.
    Each level evaluates all of its rows in one _propagate call.
    """
    found = []
    for level in range(_FINER_LOOKS + 1):  # the given rows, then the finer looks
        orders, grid = np.broadcast_arrays(orders, grid)
        _, d = _propagate(profile, orders, grid)
        change = d[:, :-1] * d[:, 1:] < 0.0
        rows, j = np.nonzero(change)
        found.append(np.stack((orders[rows, j], grid[rows, j], grid[rows, j + 1], d[rows, j])))
        zero = d == 0.0
        found.append(np.stack((orders[zero], grid[zero], grid[zero], d[zero])))
        absd = np.abs(d)
        mid = absd[:, 1:-1]
        dips = (
            (mid < absd[:, :-2])
            & (mid < absd[:, 2:])
            & (mid < _DIP_RATIO * np.median(absd, axis=1, keepdims=True))
            & ~change[:, :-1]
            & ~change[:, 1:]
        )
        rows, j = np.nonzero(dips)
        if level == _FINER_LOOKS or not rows.size:
            break
        orders = orders[rows, j][:, None]
        grid = np.linspace(grid[rows, j], grid[rows, j + 2], 9, axis=-1)
    return np.concatenate(found, axis=1)


def composite_modes(
    profile: RadialDensityProfile,
    m_max: int,
    n_max: int,
    f_ceiling: float,
) -> ModeTable:
    """Transfer-matrix eigenfrequencies of a ringed profile, merged over m.

    Scans every azimuthal order at once, one row per order, in chunks of
    512 steps of 1/20 of the conservative modal spacing; an order leaves
    the scan once it has n_max roots.  Suspicious dips are refined in one
    batch per level and every sign change is bisected in one batch, so
    each chunk, refinement level and bisection step is one _propagate
    call.  Returns the n_max lowest roots per order below f_ceiling.
    Raises InsufficientCeiling when an order comes up short (reporting how
    many roots it did find).
    """
    if m_max < 0 or n_max < 1:
        raise ValueError("m_max must be >= 0 and n_max >= 1")
    if f_ceiling <= 0:
        raise ValueError("f_ceiling must be positive")
    sigma_max = max(profile.densities)
    spacing = math.sqrt(profile.tension / sigma_max) / (2.0 * profile.radius)
    step = spacing / SCAN_DIVISIONS
    fp = profile.fingerprint()

    counts = np.zeros(m_max + 1, dtype=int)
    found = [np.empty((4, 0))]
    grid = np.empty(0)
    f_lo = step
    while (counts < n_max).any() and f_lo < f_ceiling:
        # A chunk of 512 steps past f_lo, led by the last point of the one
        # before, so a sign change across the seam is bracketed too.
        new = f_lo + step * np.arange(513)
        grid = np.concatenate((grid[-1:], new[new <= f_ceiling + step]))
        found.append(_find_brackets(profile, np.flatnonzero(counts < n_max)[:, None], grid))
        counts += np.bincount(found[-1][0].astype(int), minlength=m_max + 1)
        f_lo = grid[-1] + step
    m, lo, hi, d_lo = np.concatenate(found, axis=1)
    roots = _bisect_mixed(profile, m, lo, hi, d_lo)

    modes: list[Mode] = []
    for order in range(m_max + 1):
        mine = np.unique(roots[m == order])
        mine = mine[mine <= f_ceiling][:n_max]
        if mine.size < n_max:
            raise InsufficientCeiling(order, mine.size, n_max, f_ceiling)
        modes.extend(Mode(order, n, float(f), fp) for n, f in enumerate(mine, start=1))
    return _sorted_table(fp, modes)


def default_ceiling(profile: RadialDensityProfile, n_max: int, m_max: int = 8) -> float:
    """Ceiling guaranteed to clear n_max roots per order: loading only ever
    lowers frequencies, so the lightest ring's uniform spectrum bounds from
    above."""
    sigma_min = min(profile.densities)
    c = math.sqrt(profile.tension / sigma_min)
    return 1.05 * bessel_zero(m_max, n_max) * c / (2.0 * math.pi * profile.radius)


def mode_shape(profile: RadialDensityProfile, mode: Mode, samples: int = 256) -> np.ndarray:
    """Radial displacement of a solved mode on a uniform [0, R] grid.

    Normalised to max |u| = 1; the rim sample is the clamped boundary and
    is exactly zero.
    """
    if samples < 64:
        raise ValueError("samples must be >= 64")
    fp = profile.fingerprint()
    if mode.source_fingerprint != fp:
        raise ProfileMismatch(
            "mode was not solved from this profile "
            f"(mode fingerprint {mode.source_fingerprint!r}, profile {fp!r})"
        )
    R = profile.radius
    ks = [2.0 * math.pi * mode.frequency * math.sqrt(sig / profile.tension) for sig in profile.densities]
    coeffs, _ = _propagate(profile, mode.m, mode.frequency)

    r = np.linspace(0.0, R, samples)
    boundaries = np.array([f * R for f, _ in profile.rings])
    region = np.searchsorted(boundaries, r, side="left")
    region = np.clip(region, 0, len(profile.rings) - 1)
    u = np.empty_like(r)
    for i, (a, b, scale) in enumerate(coeffs):
        mask = region == i
        if not mask.any():
            continue
        x = ks[i] * r[mask]
        val = a * bessel_j(mode.m, x)
        if b != 0.0:
            # Y_m blows up at the origin but interior regions never touch r=0.
            val = val + b * bessel_y(mode.m, np.maximum(x, 1e-300))
        u[mask] = scale * val
    u /= np.max(np.abs(u))
    u[-1] = 0.0  # clamped rim, exact by construction
    return u


def find_degeneracies(table: ModeTable, rel_tol: float) -> list[list[Mode]]:
    """Greedy grouping of modes whose pairwise frequency ratios sit in 1 +/- rel_tol."""
    if not (0.0 < rel_tol <= 0.05):
        raise ValueError("rel_tol must lie in (0, 0.05]")
    groups: list[list[Mode]] = []
    modes = list(table.modes)
    i = 0
    while i < len(modes):
        j = i + 1
        while j < len(modes) and modes[j].frequency <= modes[i].frequency * (1.0 + rel_tol):
            j += 1
        if j - i >= 2:
            groups.append(modes[i:j])
        i = j
    return groups

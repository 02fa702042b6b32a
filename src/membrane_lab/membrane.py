"""Eigenmodes of uniform and radially loaded circular membranes.

A loaded head is modelled as concentric rings of constant surface density
under uniform tension, clamped at the rim.  Within ring i the transverse
displacement of an azimuthal-order-m mode is

    u_i(r) = A_i J_m(k_i r) + B_i Y_m(k_i r),      k_i = 2 pi f sqrt(sigma_i / T)

with B_1 = 0 (regularity at the centre).  Continuity of displacement and
radial slope at every ring boundary propagates (A, B) outward; frequencies
where the propagated solution vanishes at the rim are the eigenfrequencies.
The radial equation is Sturm-Liouville, so the number of order-m modes
below f is the number of zeros of the propagated solution inside the head;
the solver bisects on that count until each bracket holds root n alone,
then polishes all brackets together by Illinois false position with a
bisection safeguard.  One kernel, _propagate, serves each step and
mode_shape.  Slopes come from the recurrence
f'_m(x) = f_{m-1}(x) - (m/x) f_m(x) (DLMF 10.6.2), so each boundary needs J
and Y at orders m and m-1 only; orders are integers, so Y comes from
scipy's integer-order special.yn.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import MAX_ORDER, MAX_ZERO_INDEX, bessel_j, bessel_y, bessel_zero
from .errors import ConvergenceError, InsufficientCeiling, ProfileMismatch

BISECT_RTOL = 1e-11
BISECT_CAP = 200
# Steps the polish may fall behind bisection of the same bracket.
_POLISH_SLACK = 4
# The Sturm brackets are exact for a uniform head, which puts both ends on
# the root; this keeps it strictly inside.
_BRACKET_WIDEN = 1.01


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

    Orders broadcast against frequencies, so one call evaluates points
    from every order at once.  Ring i holds u = S_i (A_i J_m(k_i r) +
    B_i Y_m(k_i r)) with A_1 = S_1 = 1, B_1 = 0.
    Returns (coeffs, ends, D): coeffs[i] = (A_i, B_i, S_i); ends[i] pairs
    the (x, J_m(x), Y_m(x), u) at ring i's inner and outer radius, x = k_i r
    and u the displacement up to a positive factor, for _zero_count (ring
    1 has no inner end); D is the rim displacement divided by S_N.

    The recurrence f'_m(x) = f_{m-1}(x) - (m/x) f_m(x) (DLMF 10.6.2) makes
    du/dr + (m/r) u = k (A J_{m-1} + B Y_{m-1}); it is continuous wherever
    u and du/dr are, so the 2x2 solve at each boundary carries it in place
    of the slope and needs J and Y at orders m and m-1 only.  The solve
    uses the analytic Wronskian inverse (J_m Y_{m-1} - J_{m-1} Y_m =
    2 / (pi x)).  After every boundary (A, B) is divided by the positive
    factor max(|A|, |B|), folded into S, which keeps the sign of u and D
    and the phase of (A, B).
    """
    from scipy import special

    m, freqs = np.broadcast_arrays(np.asarray(orders, dtype=float), np.asarray(freqs, dtype=float))
    R = profile.radius
    ks = [2.0 * math.pi * freqs * math.sqrt(sig / profile.tension) for sig in profile.densities]

    A = np.ones_like(freqs)
    B = np.zeros_like(freqs)
    S = np.ones_like(freqs)
    coeffs = [(A, B, S)]
    ends, inner = [], None
    for i in range(len(ks) - 1):
        rb = profile.rings[i][0] * R
        xl = ks[i] * rb
        xr = ks[i + 1] * rb
        jl, yl = special.jv(m, xl), special.yn(m, xl)
        u = A * jl
        w = A * special.jv(m - 1, xl)
        if i > 0:  # no Y term in the first ring
            u = u + B * yl
            w = w + B * special.yn(m - 1, xl)
        ends.append((inner, (xl, jl, yl, u)))
        w = ks[i] * w
        half_pi_rb = 0.5 * math.pi * rb
        jr, yr = special.jv(m, xr), special.yn(m, xr)
        inner = (xr, jr, yr, u)
        A = half_pi_rb * (ks[i + 1] * special.yn(m - 1, xr) * u - yr * w)
        B = half_pi_rb * (jr * w - ks[i + 1] * special.jv(m - 1, xr) * u)
        scale = np.maximum(np.abs(A), np.abs(B))
        scale = np.where(scale > 0.0, scale, 1.0)
        A = A / scale
        B = B / scale
        S = S * scale
        coeffs.append((A, B, S))
    last = ks[-1] * R
    j_rim, y_rim = special.jv(m, last), special.yn(m, last)
    D = A * j_rim + B * y_rim
    ends.append((inner, (last, j_rim, y_rim, D)))
    return coeffs, ends, D


def _crossings_below(m, phi, x, j, y, u):
    """Index of the last zero crossing of a ring's solution below one end.

    With J_m = M cos(theta) and Y_m = M sin(theta) (DLMF 10.18.1) a ring
    holds u proportional to cos(psi), psi = theta(x) - phi, so its zeros
    are where psi crosses pi/2 + k pi; returns the largest such k strictly
    below psi.  atan2(Y, J) gives theta modulo 2 pi, and the Debye form
    sqrt(x^2 - m^2) - m arccos(m/x) - pi/4 (DLMF 10.19.6, held at -pi/4 for
    x <= m), within pi/4 of theta for m <= 12, gives the whole turns.
    Rounding cannot place psi beside a crossing when |Y| dwarfs J, so psi
    names the nearest crossing and the sign of u the side.
    """
    wrapped = np.arctan2(y, j)
    debye = np.sqrt(np.maximum(x * x - m * m, 0.0)) - m * np.arccos(np.minimum(m, x) / x) - 0.25 * math.pi
    psi = wrapped + 2.0 * math.pi * np.round((debye - wrapped) / (2.0 * math.pi)) - phi
    k = np.round((psi - 0.5 * math.pi) / math.pi)
    # Just past crossing k, cos(psi) has the sign of (-1)^(k+1).
    return k - 1.0 + (np.where(k % 2 == 1.0, u, -u) > 0.0)


def _zero_count(orders, coeffs, ends) -> np.ndarray:
    """N_m(f), the number of order-m modes below f, from one _propagate call.

    The radial equation is Sturm-Liouville, so N_m(f) is the number of
    zeros of the regular solution in (0, R) (Wittrick & Williams 1971):
    the sum over rings of the crossings between each ring's ends, with
    phi_i = atan2(B_i, A_i).  Ring 1 starts at r = 0+, just past crossing
    -1 (theta = -pi/2, phi_1 = 0, u > 0).  A zero on a boundary counts in
    the ring outside it, and one on the rim (D = 0) not at all.
    """
    count = 1.0
    for (a, b, _), (inner, outer) in zip(coeffs, ends):
        phi = np.arctan2(b, a)
        count = count + _crossings_below(orders, phi, *outer)
        if inner is not None:
            count = count - _crossings_below(orders, phi, *inner)
    return count.astype(int)


def _probe(profile: RadialDensityProfile, orders, freqs):
    """The mode count N_m(f) and the rim displacement D at each point."""
    coeffs, ends, d = _propagate(profile, orders, freqs)
    return _zero_count(orders, coeffs, ends), d


def _polish(
    profile: RadialDensityProfile,
    orders: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    d_lo: np.ndarray,
    d_hi: np.ndarray,
) -> np.ndarray:
    """Shrink isolated brackets from every azimuthal order onto their roots.

    Each bracket holds one root, at a sign change of D or at an end where
    D is exactly zero.  Illinois false position (Dowell & Jarratt 1972):
    the next point is where the chord through the bracket ends crosses
    zero, it replaces the end of its own sign, and an end kept by two
    chord steps in a row has its D halved, so the far end moves too.  As a
    bisection safeguard the point is pulled toward the midpoint just far
    enough that neither part is wider than bisection would have left the
    bracket _POLISH_SLACK steps earlier (a pulled point is no chord step),
    so no bracket takes more than _POLISH_SLACK steps beyond bisection's
    count.  Each step evaluates D alone, in one _propagate call, at only
    the brackets still wider than BISECT_RTOL of their midpoint; returns
    the midpoints of the final brackets.
    """
    lo, hi, d_lo, d_hi = (np.array(a, dtype=float) for a in (lo, hi, d_lo, d_hi))
    start_width = hi - lo
    # Did the last step take the chord point and keep lo (or hi)?
    kept_lo = np.zeros(lo.shape, dtype=bool)
    kept_hi = np.zeros(lo.shape, dtype=bool)
    for step in range(BISECT_CAP):
        mid = 0.5 * (lo + hi)
        act = np.flatnonzero(hi - lo > BISECT_RTOL * np.abs(mid))
        if not act.size:
            return mid
        a, b, fa, fb = lo[act], hi[act], d_lo[act], d_hi[act]
        chord = (a * fb - b * fa) / (fb - fa)
        allowed = start_width[act] * 2.0 ** (_POLISH_SLACK - step - 1)
        x = np.where((chord > a) & (chord < b), chord, mid[act])
        x = np.clip(x, b - allowed, a + allowed)
        *_, fx = _propagate(profile, orders[act], x)
        move_hi = fa * fx < 0.0
        # An exact zero closes the bracket on it.
        lo[act] = np.where(move_hi, a, x)
        hi[act] = np.where(move_hi | (fx == 0.0), x, b)
        d_lo[act] = np.where(move_hi, np.where(kept_lo[act], 0.5 * fa, fa), fx)
        d_hi[act] = np.where(move_hi, fx, np.where(kept_hi[act], 0.5 * fb, fb))
        kept_lo[act] = move_hi & (x == chord)
        kept_hi[act] = ~move_hi & (x == chord)
    raise ConvergenceError(
        f"bracketed root failed to converge in {BISECT_CAP} polish steps"
    )


def composite_modes(
    profile: RadialDensityProfile,
    m_max: int,
    n_max: int,
    f_ceiling: float,
) -> ModeTable:
    """Transfer-matrix eigenfrequencies of a ringed profile, merged over m.

    Each mode is isolated by the mode count N_m(f) (see _zero_count).  By
    Sturm comparison root n of order m lies between the n-th root of a
    uniform membrane at the heaviest ring density and at the lightest;
    that bracket, widened by _BRACKET_WIDEN and capped at f_ceiling, is
    halved, all (m, n) together in one _propagate call per step, until
    N_m(lo) = n - 1 and N_m(hi) = n.  Each bracket then holds root n alone,
    so n is its count, not its position, and _polish finishes them all in
    one batch.  f_ceiling is only a limit: math.inf solves every profile.
    Returns the n_max lowest roots of each order m <= m_max.
    Raises InsufficientCeiling when an order has fewer than n_max roots
    below f_ceiling (found is N_m(f_ceiling)), and ConvergenceError when an
    isolated bracket has D of one sign at both ends.
    """
    if not (0 <= m_max <= MAX_ORDER and 1 <= n_max <= MAX_ZERO_INDEX):
        raise ValueError(
            f"m_max must lie in [0, {MAX_ORDER}] and n_max in [1, {MAX_ZERO_INDEX}]"
        )
    if not f_ceiling > 0:  # NaN fails this too
        raise ValueError(f"f_ceiling must be positive, got {f_ceiling}")
    m = np.repeat(np.arange(m_max + 1), n_max)
    n = np.tile(np.arange(1, n_max + 1), m_max + 1)
    uniform = np.array([bessel_zero(int(o), int(k)) for o, k in zip(m, n)])
    uniform *= math.sqrt(profile.tension) / (2.0 * math.pi * profile.radius)
    lo = uniform / (math.sqrt(max(profile.densities)) * _BRACKET_WIDEN)
    hi = np.minimum(uniform * _BRACKET_WIDEN / math.sqrt(min(profile.densities)), f_ceiling)
    n_lo, d_lo = _probe(profile, m, lo)
    n_hi, d_hi = _probe(profile, m, hi)

    below_ceiling = n_hi[n == n_max]  # N_m(f_ceiling) where f_ceiling capped hi
    short = np.flatnonzero(below_ceiling < n_max)
    if short.size:
        order = int(short[0])
        raise InsufficientCeiling(order, int(below_ceiling[order]), n_max, f_ceiling)

    for _ in range(BISECT_CAP):
        act = np.flatnonzero((n_lo != n - 1) | (n_hi != n))
        if not act.size:
            break
        mid = 0.5 * (lo[act] + hi[act])
        n_mid, d_mid = _probe(profile, m[act], mid)
        up = n_mid >= n[act]
        above, below = act[up], act[~up]
        hi[above], n_hi[above], d_hi[above] = mid[up], n_mid[up], d_mid[up]
        lo[below], n_lo[below], d_lo[below] = mid[~up], n_mid[~up], d_mid[~up]
    else:
        raise ConvergenceError(f"modes not isolated in {BISECT_CAP} bisection steps")
    if np.any(d_lo * d_hi > 0.0):
        raise ConvergenceError("an isolated mode has D of one sign at both bracket ends")
    # N_m(lo) = n - 1 roots lie below lo, so D(lo) = 0 makes lo root n itself.
    hi = np.where(d_lo == 0.0, lo, hi)
    roots = _polish(profile, m, lo, hi, d_lo, d_hi)
    fp = profile.fingerprint()
    modes = [Mode(int(o), int(k), float(f), fp) for o, k, f in zip(m, n, roots)]
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
    coeffs, _, _ = _propagate(profile, mode.m, mode.frequency)

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

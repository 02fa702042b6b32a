"""Eigenmodes of uniform and radially loaded circular membranes.

A loaded head is modelled as concentric rings of constant surface density
under uniform tension, clamped at the rim.  Within ring i the transverse
displacement of an azimuthal-order-m mode is

    u_i(r) = A_i J_m(k_i r) + B_i Y_m(k_i r),      k_i = 2 pi f sqrt(sigma_i / T)

with B_1 = 0 (regularity at the centre).  Continuity of displacement and
radial slope at every ring boundary propagates (A, B) outward; frequencies
where the propagated solution vanishes at the rim are the eigenfrequencies.

One kernel, _propagate, serves the solver, mode_shape and the root
gradients; asked for it, it also carries f dD/df, the exact slope the
polish's Newton steps take.  It returns one array per call, a column per
ring of (A_i, B_i, S_i, u at the ring's outer end), and the x, J_m, Y_m,
J_{m-1} and Y_{m-1} rows of every ring end, so the mode count
(_zero_count), mode_shape and the ring integrals of u^2 r
(_ring_energies) read all rings at once.
The solver, _solve_stack, counts the roots of a stack of profiles of
equal ring count at once, and polishes each into its cell on the grid of
38-significant-bit floats (see composite_modes, its one-profile case).
It owns the (m, n) order of roots: they stay one array, a row per profile,
m major, until a ModeTable is asked for, and only _table makes Modes.
_root_gradients gives every root's derivatives with respect to its
profile's ring densities and edges, from one more kernel call at the roots.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._jsonfmt import integral, number
from .bessel import MAX_ORDER, MAX_ZERO_INDEX, _check_order, bessel_zero, integer_jy, zero_table
from .errors import ConvergenceError, InsufficientCeiling, ProfileMismatch, _check_count

BISECT_CAP = 200
# Steps the polish may fall behind bisection of the same bracket.
_POLISH_SLACK = 4
# The Sturm brackets are exact for a uniform head, which puts both ends on
# the root; this keeps it strictly inside.
_BRACKET_WIDEN = 1.01
# Relative half-width of a bracket started from a root guess: the guess's
# spread (the root's predicted relative change, for the loading refine),
# clipped into [_NEAR_FLOOR, _NEAR_WIDTH]; _NEAR_WIDTH if none is given.
# 2^-33 is 16 to 32 grid cells, so it holds a root a few cells off.
_NEAR_WIDTH = 1e-3
_NEAR_FLOOR = 2.0 ** -33
# Points per kernel call in the probe and the polish: a call's memory grows
# with its points, almost all of it integer_jy's gather of 32 coefficients
# per point, and a larger call is no faster per point (a two-ring probe
# took ~0.7 us a point at 1,280 points and ~1.1 us at 5,120).
_CHUNK = 1280
# Every root is the midpoint of its cell on the grid of 38-significant-bit
# floats, cells 2^-38 to 2^-37 (3.6e-12 to 7.3e-12) of the root wide; a
# float64 is on that grid when its low _GRID_BITS mantissa bits are zero.
_GRID_BITS = 53 - 38
# A neighbour's root lies within half its cell, at most 2^-38 of it, of the
# true root; a bracket taken from it is widened by 2^-36 of the root, a few
# cells either side.
_BETWEEN_SLACK = 2.0 ** -36


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
        try:
            if not (self.radius > 0 and math.isfinite(self.radius)):
                raise ValueError(f"radius must be positive and finite, got {self.radius}")
            if not (self.tension > 0 and math.isfinite(self.tension)):
                raise ValueError(f"tension must be positive and finite, got {self.tension}")
            rings = tuple((float(f), float(s)) for f, s in self.rings)
        except OverflowError as exc:  # an integer too large for a float
            raise ValueError(f"profile values must be finite: {exc}") from exc
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
        # The solver scales frequencies by each ring's wave slowness sqrt(sigma/T)
        # and by R times it; an overflowed or subnormal scale makes roots inf or NaN.
        tiny = sys.float_info.min
        for _, s in rings:
            slowness = math.sqrt(s / self.tension)
            if not (tiny <= slowness and tiny <= self.radius * slowness < math.inf):
                raise ValueError("each ring's sqrt(sigma/T) and R*sqrt(sigma/T) must be normal floats")

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
            rings = tuple((number(r["r_frac"], "r_frac"), number(r["sigma_kg_m2"], "sigma_kg_m2"))
                          for r in doc["rings"])
            return cls(number(doc["radius_m"], "radius_m"),
                       number(doc["tension_n_per_m"], "tension_n_per_m"), rings)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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

    def __post_init__(self):
        try:
            frequency = float(self.frequency)
        except OverflowError:  # an integer too large for a float
            frequency = math.inf
        if not (frequency > 0 and math.isfinite(frequency)):
            raise ValueError(f"mode frequency must be positive and finite, got {frequency}")


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
        try:
            fp = doc.get("profile_fingerprint", "")
            modes = tuple(
                Mode(integral(e["m"], "mode m"), integral(e["n"], "mode n"),
                     number(e["frequency_hz"], "mode frequency"), fp)
                for e in doc["modes"]
            )
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed mode table document: {exc}") from exc
        return cls(fp, modes)


def _table(profile: RadialDensityProfile, m_max: int, n_max: int, freqs) -> ModeTable:
    """The ModeTable of a profile's roots, given in (m, n) order, m major."""
    fp = profile.fingerprint()
    pairs = itertools.product(range(m_max + 1), range(1, n_max + 1))
    modes = [Mode(m, n, float(f), fp) for (m, n), f in zip(pairs, freqs)]
    return ModeTable(fp, tuple(sorted(modes, key=lambda mo: (mo.frequency, mo.m, mo.n))))


def uniform_modes(
    radius: float, tension: float, density: float, m_max: int, n_max: int
) -> ModeTable:
    """Closed-form modes of an unloaded membrane: f = j_{m,n} c / (2 pi R)."""
    if min(radius, tension, density) <= 0:
        raise ValueError("radius, tension and density must all be positive")
    if not (0 <= m_max <= 8 and 1 <= n_max <= 8):
        raise ValueError("m_max must be in [0, 8] and n_max in [1, 8]")
    profile = RadialDensityProfile(radius, tension, ((1.0, density),))
    c = math.sqrt(tension / density)
    pairs = itertools.product(range(m_max + 1), range(1, n_max + 1))
    freqs = [bessel_zero(m, n) * c / (2.0 * math.pi * radius) for m, n in pairs]
    return _table(profile, m_max, n_max, freqs)


def _ring_geometry(profiles) -> np.ndarray:
    """Per-profile ring geometry, shape (2, rings, profiles): row [0, i] is
    ring i's outer radius and row [1, i] its slowness sqrt(sigma_i / T),
    so k_i = 2 pi f slowness_i.  The profiles must have equal ring counts."""
    if len({len(p.rings) for p in profiles}) != 1:
        raise ValueError("a stack needs one or more profiles of equal ring count")
    return np.array([
        [[f * p.radius for f, _ in p.rings] for p in profiles],
        [[math.sqrt(s / p.tension) for _, s in p.rings] for p in profiles],
    ]).transpose(0, 2, 1)


def _nowhere_heavier(light, heavy) -> np.ndarray:
    """Whether each profile of the geometry `light` has the rim of its pair
    in `heavy` and nowhere a greater slowness; both as _ring_geometry
    gives them, with a column per pair.

    Then no root of the light profile lies below the same (m, n) root of
    the heavy one (Sturm comparison: the radial problem's weight is r s^2).
    Each ring of either is compared just inside every ring end of both:
    the number of a profile's ends below a radius is the ring holding it.
    """
    ends = np.concatenate([light[0], heavy[0]])

    def inside(edges, slowness):
        ring = np.minimum(np.sum(edges[:, None] < ends, axis=0), len(edges) - 1)
        return np.take_along_axis(slowness, ring, axis=0)

    return (light[0][-1] == heavy[0][-1]) & np.all(inside(*light) <= inside(*heavy), axis=0)


def _propagate(geometry, orders, freqs, *, slope=False):
    """Carry the regular solution outward across every ring boundary.

    geometry is (edges, slownesses) as _ring_geometry gives them, one row
    per ring; each row broadcasts against the frequencies to the shape of
    the points, and orders broadcast to that shape, so one call evaluates
    points from every order and every profile of a stack at once.  Ring i
    holds u = S_i (A_i J_m(k_i r) + B_i Y_m(k_i r)) with A_1 = S_1 = 1,
    B_1 = 0.
    Returns (rings, (x, j, y, j1, y1), D, G).  rings, shape (4, N, *points),
    holds a column per ring of A_i, B_i, S_i and u_i, the displacement at
    ring i's outer radius up to a positive factor; u is continuous, so u_i
    is also its value at ring i + 1's inner radius, and u_N = D.  x, j, y,
    j1 and y1, shape (2N - 1, *points), hold x = k r, J_m(x), Y_m(x),
    J_{m-1}(x) and Y_{m-1}(x) at every ring end: the first N rows at each
    ring's outer radius (the last at the rim), the other N - 1 at the
    inner radius of rings 2 to N (ring 1 has no inner end).  D is the rim
    displacement divided by S_N; G is f dD/df divided by the same S_N if
    slope is set, else None, so D / G is the Newton step of the rim
    displacement in units of f.

    The recurrence f'_m(x) = f_{m-1}(x) - (m/x) f_m(x) (DLMF 10.6.2) makes
    du/dr + (m/r) u = k (A J_{m-1} + B Y_{m-1}); it is continuous wherever
    u and du/dr are, so the 2x2 solve at each boundary carries it in place
    of the slope and needs J and Y at orders m and m-1 only.  The solve
    uses the analytic Wronskian inverse (J_m Y_{m-1} - J_{m-1} Y_m =
    2 / (pi x)).  After every boundary (A, B) is divided by the positive
    factor max(|A|, |B|), folded into S, which keeps the sign of u and D
    and the phase of (A, B).

    With slope, (f dA/df, f dB/df) cross each boundary through the same
    solve.  As x = k r and f dk/df = k, f d/df takes J_m(x) to
    x J_{m-1} - m J_m and J_{m-1}(x) to (m-1) J_{m-1} - x J_m (DLMF
    10.6.2), and likewise Y.  The f d/df of u and of du/dr + (m/r) u are
    continuous too; written out on either side of boundary i they differ
    only in the part (f dA/df, f dB/df) give in place of (A, B) and in
    r_i (k_{i+1}^2 - k_i^2) u, so the solve takes that part, with the
    term added to its second entry.  They are divided by the same scale
    as (A, B), ring 1's are zero, and at the rim
    G = f dA/df J_m + f dB/df Y_m + x (A J_{m-1} + B Y_{m-1}) - m D.
    """
    edges, slowness = geometry
    ks = 2.0 * math.pi * freqs * slowness
    last = len(ks) - 1
    x = np.concatenate([ks * edges, ks[1:] * edges[:-1]])
    j, y, j1, y1 = integer_jy(orders, x)
    if slope:
        kk = ks * ks
        source = (kk[1:] - kk[:-1]) * edges[:-1]

    rings = np.empty((4,) + ks.shape)
    A, B, S = 1.0, 0.0, 1.0
    dA = dB = 0.0
    for i in range(last):
        # No Y term in the first ring.
        u = A * j[i] + B * y[i] if i else j[i]
        w = A * j1[i] + B * y1[i] if i else j1[i]
        rings[0, i], rings[1, i], rings[2, i], rings[3, i] = A, B, S, u
        w = ks[i] * w
        half_pi_rb = 0.5 * math.pi * edges[i]
        r = last + 1 + i
        ky, kj = ks[i + 1] * y1[r], ks[i + 1] * j1[r]
        A = half_pi_rb * (ky * u - y[r] * w)
        B = half_pi_rb * (j[r] * w - kj * u)
        scale = np.maximum(np.abs(A), np.abs(B))
        scale = np.where(scale > 0.0, scale, 1.0)
        A = A / scale
        B = B / scale
        S = S * scale
        if slope:
            dw = source[i] * u
            solve = half_pi_rb / scale
            if i:
                du = dA * j[i] + dB * y[i]
                dw = dw + ks[i] * (dA * j1[i] + dB * y1[i])
                dA = (ky * du - y[r] * dw) * solve
                dB = (j[r] * dw - kj * du) * solve
            else:  # ring 1's (dA, dB) is (0, 0)
                dw = dw * solve
                dA, dB = -(y[r] * dw), j[r] * dw
    D = A * j[last] + B * y[last]
    rings[0, last], rings[1, last], rings[2, last], rings[3, last] = A, B, S, D
    if not slope:
        return rings, (x, j, y, j1, y1), D, None
    G = dA * j[last] + dB * y[last] + x[last] * (A * j1[last] + B * y1[last]) - orders * D
    return rings, (x, j, y, j1, y1), D, G


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


def _zero_count(orders, rings, rows) -> np.ndarray:
    """N_m(f), the number of order-m modes below f, from one _propagate call.

    The radial equation is Sturm-Liouville, so N_m(f) is the number of
    zeros of the regular solution in (0, R) (Wittrick & Williams 1971):
    the sum over rings of the crossings between each ring's ends, with
    phi_i = atan2(B_i, A_i).  Ring 1 starts at r = 0+, just past crossing
    -1 (theta = -pi/2, phi_1 = 0, u > 0).  A zero on a boundary counts in
    the ring outside it, and one on the rim (D = 0) not at all.  One pass
    places every outer end, one every inner end, each against its own
    ring's phi, with u at ring i's outer end standing for ring i + 1's
    inner one.
    """
    a, b, _, u = rings
    x, j, y, _, _ = rows
    phi = np.arctan2(b, a)
    n = len(u)
    outer = _crossings_below(orders, phi, x[:n], j[:n], y[:n], u)
    inner = _crossings_below(orders, phi[1:], x[n:], j[n:], y[n:], u[:-1])
    return (1.0 + outer.sum(axis=0) - inner.sum(axis=0)).astype(int)


def _in_chunks(evaluate, geometry, orders, freqs):
    """evaluate(geometry, orders, freqs), a tuple of arrays over the points,
    taken _CHUNK points at a time: freqs is 1-D, and geometry and orders
    broadcast against it as _propagate takes them.  Every point's values
    depend on that point alone, so the chunks join to one call's bits."""
    if freqs.size <= _CHUNK:
        return evaluate(geometry, orders, freqs)
    geometry = np.broadcast_to(geometry, geometry.shape[:-1] + freqs.shape)
    orders = np.broadcast_to(orders, freqs.shape)
    parts = [evaluate(geometry[..., at : at + _CHUNK], orders[at : at + _CHUNK], freqs[at : at + _CHUNK])
             for at in range(0, freqs.size, _CHUNK)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _count(geometry, orders, freqs):
    """N_m(f) and D at each point, from one _propagate call."""
    rings, rows, d, _ = _propagate(geometry, orders, freqs)
    return _zero_count(orders, rings, rows), d


def _rim(geometry, orders, freqs):
    """D and f dD/df at each point, from one _propagate call."""
    _, _, d, g = _propagate(geometry, orders, freqs, slope=True)
    return d, g


def _probe(geometry, orders, freqs):
    """The mode count N_m(f) and the rim displacement D at each point of
    1-D freqs, _CHUNK points per kernel call."""
    return _in_chunks(_count, geometry, orders, freqs)


def _polish(
    geometry: np.ndarray,
    orders: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    d_lo: np.ndarray,
    d_hi: np.ndarray,
    aim: np.ndarray | None = None,
) -> np.ndarray:
    """Shrink isolated brackets, one per point of geometry, onto their
    roots' cells on the grid of 38-significant-bit floats.

    Each bracket holds one root, at a sign change of D or at an end where
    D is exactly zero; only the signs of d_lo and d_hi are read after the
    first step.  Newton on the exact f dD/df that _propagate
    carries, safeguarded by bisection.  Each step aims at the Newton point
    of the shortest Newton step from any point so far if that lies
    strictly inside the bracket, and at the midpoint otherwise; before the
    first step the Newton point is the bracket's aim, or where it has none
    (no aim, or a NaN one) where the chord through the bracket ends
    crosses zero (a NaN chord lies inside no bracket).  So a point pulled off
    its Newton step by the safeguard does not lose it.  The safeguard
    pulls the aim toward the midpoint just far enough that neither part is
    wider than bisection would have left the bracket _POLISH_SLACK steps
    earlier; where Newton points all approach the root from one side, it
    is the safeguard that moves the far end.  The aim is rounded to the
    nearest grid point and clipped to the first and last grid points
    inside the bracket.  That point replaces the bracket end of its own
    sign, and an exact zero closes the bracket on it.  A bracket is done
    when no grid point lies strictly inside it, so each step takes at
    least one grid point out.  Each step evaluates D and f dD/df, in one
    _propagate call per _CHUNK brackets, at only the brackets not done; no
    bracket's steps depend on another's.  Returns each bracket's final
    cell's midpoint, or the grid point where D is exactly zero: a root
    depends on its profile, not on the bracket it was polished from.
    Raises ConvergenceError where D is NaN at a point.
    """
    lo, hi, d_lo, d_hi = (np.array(a, dtype=float) for a in (lo, hi, d_lo, d_hi))
    roots = np.empty(lo.size)
    # A positive float64 is on the grid when its low _GRID_BITS mantissa
    # bits are zero; as integers, grid points are multiples of cell.
    cell = np.int64(1 << _GRID_BITS)
    cut = ~(cell - 1)
    # The brackets still open, as indices into roots, and for each its
    # start width and, of all the Newton steps from its points so far, the
    # shortest, as the correction its point less the Newton point, and
    # that Newton point (the chord's zero before any).
    pending = np.arange(lo.size)
    width = hi - lo
    newton = (lo * d_hi - hi * d_lo) / (d_hi - d_lo)
    if aim is not None:
        newton = np.where(np.isnan(aim), newton, aim)
    fix = np.full(lo.size, np.inf)
    for step in range(BISECT_CAP):
        # The grid points at and just above lo, and the last one below hi.
        floor = lo.view(np.int64) & cut
        first, last = floor + cell, (hi.view(np.int64) - 1) & cut
        going = first <= last
        if not going.all():
            shut = ~going
            # The cell [floor, first] holds the bracket, or floor is a zero.
            g, h = floor[shut].view(float), hi[shut]
            roots[pending[shut]] = np.where(g == h, h, 0.5 * (g + first[shut].view(float)))
            if not going.any():
                return roots
            state = (pending, geometry, orders, width, lo, hi, d_lo, d_hi, newton, fix, first, last)
            (pending, geometry, orders, width, lo, hi, d_lo, d_hi, newton, fix, first, last) = (
                a[..., going] for a in state)
        aim = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        if step >= _POLISH_SLACK:  # before, allowed >= width and cannot bind
            allowed = width * 2.0 ** (_POLISH_SLACK - step - 1)
            aim = np.minimum(np.maximum(aim, hi - allowed), lo + allowed)
        # Half a cell added before the cut rounds to the nearest grid point.
        aim = np.minimum(np.maximum((aim.view(np.int64) + (cell >> 1)) & cut, first), last).view(float)
        fx, gx = _in_chunks(_rim, geometry, orders, aim)
        if np.isnan(fx).any():
            raise ConvergenceError("D is NaN at a polish point")
        move_hi = d_lo * fx < 0.0
        # An exact zero closes the bracket on it.
        lo, hi = np.where(move_hi, lo, aim), np.where(move_hi | (fx == 0.0), aim, hi)
        d_lo, d_hi = np.where(move_hi, d_lo, fx), np.where(move_hi, fx, d_hi)
        correction = aim * fx / gx
        shorter = np.abs(correction) < np.abs(fix)
        newton, fix = np.where(shorter, aim - correction, newton), np.where(shorter, correction, fix)
    raise ConvergenceError(
        f"bracketed root failed to converge in {BISECT_CAP} polish steps"
    )


def composite_modes(
    profile: RadialDensityProfile, m_max: int, n_max: int, f_ceiling: float
) -> ModeTable:
    """Transfer-matrix eigenfrequencies of a ringed profile, merged over m.

    Each mode is isolated by the mode count N_m(f) (see _zero_count).  By
    Sturm comparison root n of order m lies between the n-th root of a
    uniform membrane at the heaviest ring density and at the lightest;
    that bracket, widened by _BRACKET_WIDEN and capped at f_ceiling, is
    halved until N_m(lo) = n - 1 and N_m(hi) = n.  Each bracket then holds
    root n alone, so n is its count, not its position; _polish finishes
    them all, each root at the midpoint of its cell on the grid of
    38-significant-bit floats.  f_ceiling is only a limit: math.inf solves
    every profile.
    Returns the n_max lowest roots of each order m <= m_max.
    Raises InsufficientCeiling when an order has fewer than n_max roots
    below f_ceiling (found is N_m(f_ceiling)), and ConvergenceError when an
    isolated bracket has D of one sign at both ends, or D is NaN at a
    bracket end or a polish point.
    """
    roots = _solve_stack([profile], m_max, n_max, f_ceiling)[0]
    return _table(profile, m_max, n_max, roots)


def _solve_stack(profiles, m_max: int, n_max: int, f_ceiling: float, near=None, spread=_NEAR_WIDTH,
                 between=None):
    """composite_modes' roots for each profile in a stack of equal ring count:
    a row per profile in (m, n) order, m major, with no Mode built.

    The brackets of every (profile, m, n) form one array, so each bisection
    and polish step, and the probe of all bracket ends before them, is one
    _propagate call per _CHUNK points for the whole stack.  Each bracket is
    solved on its own, so each row is bit-identical to solving its profile
    alone.  near, if given, holds root guesses in that order, one row per
    profile or one row for all, and spread their relative half-widths,
    broadcast the same way and clipped into [_NEAR_FLOOR, _NEAR_WIDTH]:
    each bracket starts at near * (1 -/+ spread) clipped into its Sturm
    bracket, and an end whose count shows root n beyond it falls back to
    its Sturm end.
    between, if given, is (light, heavy, aim), a row per profile: the roots
    of a profile nowhere heavier than it and of one nowhere lighter (see
    _nowhere_heavier), each in (m, n) order up to n_max + 1, and a first
    polish aim for each of its own roots.  The brackets that
    _brackets_between certifies, and that end below f_ceiling, go to the
    polish with no probe and no isolation, D's sign at their ends known
    from their counts; the others take the Sturm brackets.  Guesses and
    neighbours move only the brackets: each root is its grid cell's, so
    bit-identical to the cold solve's.
    """
    if not (0 <= m_max <= MAX_ORDER and 1 <= n_max <= MAX_ZERO_INDEX):
        raise ValueError(
            f"m_max must lie in [0, {MAX_ORDER}] and n_max in [1, {MAX_ZERO_INDEX}]"
        )
    if not f_ceiling > 0:  # NaN fails this too
        raise ValueError(f"f_ceiling must be positive, got {f_ceiling}")
    geometry = _ring_geometry(profiles)
    edges, slowness = geometry
    m = np.repeat(np.arange(m_max + 1), n_max)
    n = np.tile(np.arange(1, n_max + 1), m_max + 1)
    uniform = zero_table()[m, n - 1]
    # Root n of a uniform head of slowness s is j_{m,n} / (2 pi R s): the
    # heaviest ring's slowness bounds it below, the lightest's above.  One
    # row per profile, in the same float operations as a lone solve.
    circle = (2.0 * math.pi * edges[-1])[:, None]
    lo = uniform / (circle * slowness.max(axis=0)[:, None] * _BRACKET_WIDEN)
    hi = np.minimum(uniform * _BRACKET_WIDEN / (circle * slowness.min(axis=0)[:, None]), f_ceiling)
    width = m.size
    ends = [lo.ravel(), hi.ravel()]
    if near is not None:
        guess = np.broadcast_to(np.asarray(near, dtype=float), lo.shape).ravel()
        half = np.broadcast_to(np.clip(spread, _NEAR_FLOOR, _NEAR_WIDTH), lo.shape).ravel()
        # fmax and fmin keep a NaN guess's ends on the Sturm ones.
        ends += [
            np.fmin(np.fmax(guess * (1.0 - half), ends[0]), ends[1]),
            np.fmin(np.fmax(guess * (1.0 + half), ends[0]), ends[1]),
        ]
    point = np.repeat(np.arange(len(profiles)), width)
    m, n = np.tile(m, len(profiles)), np.tile(n, len(profiles))
    sure, aim = np.zeros(m.size, dtype=bool), None
    if between is not None:
        light, heavy, first = between
        sure_lo, sure_hi, sure = _brackets_between(light, heavy, n_max)
        sure &= sure_hi <= f_ceiling
        aim = np.where(sure, np.ravel(first), np.nan)
    # Every end of every other bracket in one probe; one row of counts per end.
    probed = np.flatnonzero(~sure)
    counts, ds = np.empty((len(ends), m.size), dtype=int), np.empty((len(ends), m.size))
    found = _probe(
        geometry[..., np.tile(point[probed], len(ends))],
        np.tile(m[probed], len(ends)),
        np.concatenate([end[probed] for end in ends]),
    )
    counts[:, probed], ds[:, probed] = (a.reshape(len(ends), -1) for a in found)
    if sure.any():
        # N_m is n - 1 at a certified low end and n at a high one, and D is
        # positive below the first root, so its signs there alternate.
        sign = np.where(n % 2 == 1, 1.0, -1.0)
        for row, end in enumerate(ends):
            low = row % 2 == 0
            end[sure] = (sure_lo if low else sure_hi)[sure]
            counts[row, sure] = (n - 1 if low else n)[sure]
            ds[row, sure] = (sign if low else -sign)[sure]
    geometry = geometry[..., point]

    # N_m(f_ceiling) where f_ceiling capped hi, one row per profile.
    below_ceiling = counts[1][n == n_max].reshape(len(profiles), m_max + 1)
    short = np.argwhere(below_ceiling < n_max)
    if short.size:
        row, order = short[0]
        raise InsufficientCeiling(int(order), int(below_ceiling[row, order]), n_max, f_ceiling)
    lo, n_lo, d_lo, hi, n_hi, d_hi = ends[0], counts[0], ds[0], ends[1], counts[1], ds[1]
    if near is not None:
        # A near end whose count puts root n beyond it falls back to its Sturm end.
        lo, n_lo, d_lo = (np.where(counts[2] < n, a[2], a[0]) for a in (ends, counts, ds))
        hi, n_hi, d_hi = (np.where(counts[3] >= n, a[3], a[1]) for a in (ends, counts, ds))

    for _ in range(BISECT_CAP):
        act = np.flatnonzero((n_lo != n - 1) | (n_hi != n))
        if not act.size:
            break
        mid = 0.5 * (lo[act] + hi[act])
        n_mid, d_mid = _probe(geometry[..., act], m[act], mid)
        up = n_mid >= n[act]
        above, below = act[up], act[~up]
        hi[above], n_hi[above], d_hi[above] = mid[up], n_mid[up], d_mid[up]
        lo[below], n_lo[below], d_lo[below] = mid[~up], n_mid[~up], d_mid[~up]
    else:
        raise ConvergenceError(f"modes not isolated in {BISECT_CAP} bisection steps")
    # Written as a negation so that NaN, which fails every comparison, is refused.
    if not np.all(d_lo * d_hi <= 0.0):
        raise ConvergenceError("an isolated mode has D of one sign, or NaN, at its bracket ends")
    # N_m(lo) = n - 1 roots lie below lo, so D(lo) = 0 makes lo root n itself.
    hi = np.where(d_lo == 0.0, lo, hi)
    roots = _polish(geometry, m, lo, hi, d_lo, d_hi, aim).reshape(len(profiles), width)
    return roots


def _brackets_between(light, heavy, n_max: int):
    """Brackets of each root (m, n <= n_max) of profiles that lie between a
    lighter and a heavier neighbour, and whether each is certified.

    light and heavy hold the neighbours' _solve_stack rows, a row per
    profile, each in (m, n) order up to n_max + 1.  By Sturm comparison
    (Courant & Hilbert, vol. 1, ch. VI) root (m, n) lies between the
    heavier's root (m, n) and the lighter's, so the bracket is
    [heavy (1 - _BETWEEN_SLACK), light (1 + _BETWEEN_SLACK)].  It holds
    root n alone, so that N_m is n - 1 at its low end and n at its high
    end, when the lighter's root n - 1, raised the same way, lies below it
    and the heavier's root n + 1, lowered, above it.
    Returns (lo, hi, certified), each flat in _solve_stack's bracket order.
    """
    light, heavy = (np.asarray(a, dtype=float) for a in (light, heavy))
    light = light.reshape(len(light), -1, n_max + 1) * (1.0 + _BETWEEN_SLACK)
    heavy = heavy.reshape(len(heavy), -1, n_max + 1) * (1.0 - _BETWEEN_SLACK)
    lo, hi = heavy[..., :-1], light[..., :-1]
    # Nothing lies below root 1.
    under = np.concatenate([np.zeros(lo.shape[:-1] + (1,)), light[..., :-2]], axis=-1)
    certified = (under < lo) & (heavy[..., 1:] > hi)
    return lo.ravel(), hi.ravel(), certified.ravel()


def _lommel(orders, x, z, w):
    """(x/2)(x (Z_m^2 + Z_{m-1}^2) - 2 m Z_m Z_{m-1}), an antiderivative of
    x Z_m(x)^2 for any cylinder function Z (DLMF 10.22.5 with
    Z_{m+1} = (2m/x) Z_m - Z_{m-1}); it is 0 at x = 0 for the regular one."""
    return 0.5 * x * (x * (z * z + w * w) - 2.0 * orders * z * w)


def _ring_energies(geometry, orders, freqs):
    """E_i = integral over ring i of u^2 r dr, and u(r_i)^2 at each ring's
    outer end, for the modes at freqs, with geometry and orders as
    _propagate takes them; both shape (N, *points).

    In ring i, u = S_i Z(k_i r) with Z = A_i J_m + B_i Y_m, so E_i is
    (S_i / k_i)^2 times _lommel's difference over the ring's ends; ring 1's
    inner end is r = 0.  Every S_i is taken relative to the rim's S_N, so
    that products over many rings cannot overflow; the factor cancels in
    every ratio of the two.  One _propagate call.
    """
    (a, b, scale, u), (x, j, y, j1, y1), _, _ = _propagate(geometry, orders, freqs)
    count = len(u)
    energy = _lommel(orders, x[:count], u, a * j1[:count] + b * y1[:count])
    energy[1:] -= _lommel(
        orders, x[count:], a[1:] * j[count:] + b[1:] * y[count:], a[1:] * j1[count:] + b[1:] * y1[count:]
    )
    scale = scale / scale[-1]
    energy *= (scale / (2.0 * math.pi * freqs * geometry[1])) ** 2
    return energy, (scale * u) ** 2


def _root_gradients(profiles, m_max: int, n_max: int, roots):
    """The gradient of each of _solve_stack's roots with respect to the
    numbers of its profile's rings: (d_density, d_fraction), shapes
    (profiles, (m_max + 1) n_max, N) and (..., N - 1), holding df/dsigma_i
    and df/d(fraction_i) for ring i's density and outer fraction (the
    rim's fraction is fixed).

    The radial problem is self-adjoint, so first-order perturbation of its
    Rayleigh quotient (Courant & Hilbert, vol. 1, ch. VI) gives, with
    _ring_energies' E_i and N = sum_j sigma_j E_j, df/dsigma_i =
    -(f/2) E_i / N; and moving boundary i outward, which turns a strip of
    ring i + 1 into ring i, df/dr_i = -(f/2) (sigma_i - sigma_{i+1})
    u(r_i)^2 r_i / N.  One _propagate call, at the roots.
    """
    width = (m_max + 1) * n_max
    point = np.repeat(np.arange(len(profiles)), width)
    orders = np.tile(np.repeat(np.arange(m_max + 1), n_max), len(profiles))
    geometry = _ring_geometry(profiles)[..., point]
    freqs = np.asarray(roots, dtype=float).ravel()
    energy, edge = _ring_energies(geometry, orders, freqs)
    sigma = np.array([p.densities for p in profiles]).T[:, point]
    half = -0.5 * freqs / np.sum(sigma * energy, axis=0)
    d_density = half * energy
    # r_i = fraction_i R, so d/d(fraction_i) is R d/dr_i.
    edges = geometry[0]
    d_fraction = half * (sigma[:-1] - sigma[1:]) * edge[:-1] * edges[:-1] * edges[-1]
    count = len(sigma)
    return (d_density.T.reshape(len(profiles), width, count),
            d_fraction.T.reshape(len(profiles), width, count - 1))


def default_ceiling(profile: RadialDensityProfile, n_max: int, m_max: int = 8) -> float:
    """Ceiling guaranteed to clear n_max roots per order: loading only ever
    lowers frequencies, so the lightest ring's uniform spectrum bounds from
    above."""
    sigma_min = min(profile.densities)
    c = math.sqrt(profile.tension / sigma_min)
    return 1.05 * bessel_zero(m_max, n_max) * c / (2.0 * math.pi * profile.radius)


def mode_shape(profile: RadialDensityProfile, mode: Mode, samples: int = 256) -> np.ndarray:
    """Radial displacement of a solved mode on a uniform [0, R] grid.

    Each sample takes its ring's column of the kernel's (A, B, S), and all
    samples go through one Bessel call.  Normalised to max |u| = 1; the
    rim sample is the clamped boundary and is exactly zero.  Raises
    DomainError unless mode.m is an integer in [0, 12].
    """
    _check_count("samples", samples, 64)
    _check_order(mode.m)
    fp = profile.fingerprint()
    if mode.source_fingerprint != fp:
        raise ProfileMismatch(
            "mode was not solved from this profile "
            f"(mode fingerprint {mode.source_fingerprint!r}, profile {fp!r})"
        )
    geometry = _ring_geometry([profile])[..., 0]
    (a, b, scale, _), *_ = _propagate(geometry, mode.m, mode.frequency)
    edges, slowness = geometry
    ks = 2.0 * math.pi * mode.frequency * slowness

    r = np.linspace(0.0, profile.radius, samples)
    ring = np.minimum(np.searchsorted(edges, r, side="left"), len(edges) - 1)
    # Y_m is NaN at r = 0, which only ring 1, where B = 0, holds.
    with np.errstate(divide="ignore", invalid="ignore"):
        j, y, _, _ = integer_jy(mode.m, ks[ring] * r)
    y = np.where(ring > 0, y, 0.0)
    u = scale[ring] * (a[ring] * j + b[ring] * y)
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

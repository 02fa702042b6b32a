"""Eigenmodes of uniform and radially loaded circular membranes.

A loaded head is modelled as concentric rings of constant surface density
under uniform tension, clamped at the rim.  Within ring i the transverse
displacement of an azimuthal-order-m mode is

    u_i(r) = A_i J_m(k_i r) + B_i Y_m(k_i r),      k_i = 2 pi f sqrt(sigma_i / T)

with B_1 = 0 (regularity at the centre).  Continuity of displacement and
radial slope at every ring boundary propagates (A, B) outward; frequencies
where the propagated solution vanishes at the rim are the eigenfrequencies.

One kernel, _propagate, serves the solver and mode_shape.  The solver,
_solve_stack, counts, polishes and snaps the roots of a stack of profiles
of equal ring count at once (see composite_modes, its one-profile case).
It owns the (m, n) order of roots: they stay one array, a row per profile,
m major, until a ModeTable is asked for, and only _table makes Modes.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonfmt import integral, number
from .bessel import MAX_ORDER, MAX_ZERO_INDEX, bessel_j, bessel_y, bessel_zero, integer_jy
from .errors import ConvergenceError, DomainError, InsufficientCeiling, ProfileMismatch

BISECT_RTOL = 1e-11
BISECT_CAP = 200
# Steps the polish may fall behind bisection of the same bracket.
_POLISH_SLACK = 4
# The Sturm brackets are exact for a uniform head, which puts both ends on
# the root; this keeps it strictly inside.
_BRACKET_WIDEN = 1.01
# Relative half-width of a bracket started from a root guess.
_NEAR_WIDTH = 1e-3
# Every root is snapped to a cell of the grid of 38-significant-bit floats,
# 2^-38 to 2^-37 (3.6e-12 to 7.3e-12) of the root wide, inside BISECT_RTOL;
# a float64 is on that grid when its low _SNAP_BITS mantissa bits are zero.
_SNAP_BITS = 53 - 38
# Cells the snap may walk from the polished root's own before it gives up.
_SNAP_WALK = 4


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


def _propagate(geometry, orders, freqs):
    """Carry the regular solution outward across every ring boundary.

    geometry is (edges, slownesses) as _ring_geometry gives them, one row
    per ring; each row broadcasts against the frequencies to the shape of
    the points, and orders broadcast to that shape, so one call evaluates
    points from every order and every profile of a stack at once.  Ring i
    holds u = S_i (A_i J_m(k_i r) + B_i Y_m(k_i r)) with A_1 = S_1 = 1,
    B_1 = 0.
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
    edges, slowness = geometry
    ks = 2.0 * math.pi * freqs * slowness
    # Every ring-end argument: row i is k_i r_i (row N - 1 the rim), row
    # N + i is k_{i+1} r_i; one ladder evaluates them all.
    last = len(ks) - 1
    x = np.concatenate([ks * edges, ks[1:] * edges[:-1]])
    j, y, j1, y1 = integer_jy(orders, x)

    A, B, S = 1.0, 0.0, 1.0
    coeffs = [(A, B, S)]
    ends, inner = [], None
    for i in range(last):
        # No Y term in the first ring.
        u = A * j[i] + B * y[i] if i else j[i]
        w = A * j1[i] + B * y1[i] if i else j1[i]
        ends.append((inner, (x[i], j[i], y[i], u)))
        w = ks[i] * w
        half_pi_rb = 0.5 * math.pi * edges[i]
        r = last + 1 + i
        inner = (x[r], j[r], y[r], u)
        A = half_pi_rb * (ks[i + 1] * y1[r] * u - y[r] * w)
        B = half_pi_rb * (j[r] * w - ks[i + 1] * j1[r] * u)
        scale = np.maximum(np.abs(A), np.abs(B))
        scale = np.where(scale > 0.0, scale, 1.0)
        A = A / scale
        B = B / scale
        S = S * scale
        coeffs.append((A, B, S))
    D = A * j[last] + B * y[last]
    ends.append((inner, (x[last], j[last], y[last], D)))
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


def _probe(geometry, orders, freqs):
    """The mode count N_m(f) and the rim displacement D at each point."""
    coeffs, ends, d = _propagate(geometry, orders, freqs)
    return _zero_count(orders, coeffs, ends), d


def _polish(
    geometry: np.ndarray,
    orders: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    d_lo: np.ndarray,
    d_hi: np.ndarray,
) -> np.ndarray:
    """Shrink isolated brackets, one per point of geometry, onto their roots.

    Each bracket holds one root, at a sign change of D or at an end where
    D is exactly zero.  Illinois false position (Dowell & Jarratt 1972):
    the next point is where the chord through the bracket ends crosses
    zero, it replaces the end of its own sign, and an end kept by two
    chord steps in a row has its D halved, so the far end moves too.  As a
    bisection safeguard the point is pulled toward the midpoint just far
    enough that neither part is wider than bisection would have left the
    bracket _POLISH_SLACK steps earlier (a pulled point is no chord step),
    so no bracket takes more than _POLISH_SLACK steps beyond bisection's
    count.  As in Brent's method the point is then kept at least a quarter
    of BISECT_RTOL of the midpoint inside both ends, so a chord that lands
    on or beside an end on the root closes the bracket in one step (only
    a NaN chord falls back to the midpoint).  Each step evaluates D alone,
    in one _propagate call, at only the brackets still wider than
    BISECT_RTOL of their midpoint; no bracket's steps depend on another's.
    Returns the midpoints of the final brackets.
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
        x = np.where(np.isnan(chord), mid[act], chord)
        x = np.clip(x, b - allowed, a + allowed)
        # Brent's closing step: a point within delta of an end moves delta
        # inside, so a bracket with one end on the root closes at once.
        delta = 0.25 * BISECT_RTOL * np.abs(mid[act])
        x = np.clip(x, a + delta, b - delta)
        *_, fx = _propagate(geometry[..., act], orders[act], x)
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


def _snap(
    geometry: np.ndarray, orders: np.ndarray, roots: np.ndarray, below: np.ndarray
) -> np.ndarray:
    """Move polished roots onto the grid of 38-significant-bit floats.

    Each root's cell on that grid, [g, g+] with g the root with its low
    _SNAP_BITS mantissa bits cleared, has D evaluated at both ends in one
    _propagate call.  below is the sign D takes just below each root.
    While both ends of a cell lie on one side of the root the cell steps
    one grid point toward it, one _propagate call per step, until D
    changes sign across it.  Returns that cell's midpoint, or a grid point
    where D is exactly zero, so a root depends on its profile and not on
    the bracket it was polished from.  Raises ConvergenceError when no
    cell within _SNAP_WALK steps brackets the root.
    """
    step = np.int64(1 << _SNAP_BITS)
    lo = np.ascontiguousarray(roots, dtype=float).view(np.int64) & ~(step - 1)
    hi = lo + step
    ends = np.concatenate([lo, hi]).view(float)
    d = _propagate(geometry[..., np.tile(np.arange(lo.size), 2)], np.tile(orders, 2), ends)[-1]
    d_lo, d_hi = d[: lo.size] * below, d[lo.size :] * below
    out = np.empty(lo.size)
    act = np.arange(lo.size)
    for walked in range(_SNAP_WALK + 1):
        done = (d_lo == 0.0) | (d_hi == 0.0) | ((d_lo > 0.0) & (d_hi < 0.0))
        g_lo, g_hi = lo.view(float), hi.view(float)
        out[act[done]] = np.where(
            d_lo == 0.0, g_lo, np.where(d_hi == 0.0, g_hi, 0.5 * (g_lo + g_hi))
        )[done]
        if done.all():
            return out
        # A cell with both ends below the root steps up, one above it down.
        up = d_hi[~done] > 0.0
        if walked == _SNAP_WALK or not (up | (d_lo[~done] < 0.0)).all():
            break
        act, lo, hi, d_lo, d_hi = (a[~done] for a in (act, lo, hi, d_lo, d_hi))
        lo, hi = np.where(up, hi, lo - step), np.where(up, hi + step, lo)
        fresh = np.where(up, hi, lo).view(float)
        d_new = _propagate(geometry[..., act], orders[act], fresh)[-1] * below[act]
        d_lo, d_hi = np.where(up, d_hi, d_new), np.where(up, d_new, d_lo)
    raise ConvergenceError(
        f"D does not change sign within {_SNAP_WALK} grid cells of a polished root"
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
    them all, and _snap puts each root at the midpoint of its cell on the
    grid of 38-significant-bit floats.  f_ceiling is only a limit:
    math.inf solves every profile.
    Returns the n_max lowest roots of each order m <= m_max.
    Raises InsufficientCeiling when an order has fewer than n_max roots
    below f_ceiling (found is N_m(f_ceiling)), and ConvergenceError when an
    isolated bracket has D of one sign at both ends or no grid cell near a
    polished root brackets it.
    """
    roots = _solve_stack([profile], m_max, n_max, f_ceiling)[0]
    return _table(profile, m_max, n_max, roots)


def _solve_stack(profiles, m_max: int, n_max: int, f_ceiling: float, near=None) -> np.ndarray:
    """composite_modes' roots for each profile in a stack of equal ring count:
    a row per profile in (m, n) order, m major, with no Mode built.

    The brackets of every (profile, m, n) form one array, so each bisection
    and polish step, and the probe of all bracket ends before them, is one
    _propagate call for the whole stack.  Each bracket is solved on its
    own, so each row is bit-identical to solving its profile alone.
    near, if given, holds root guesses in that order, one row per profile
    or one row for all: each bracket starts at near * (1 -/+ _NEAR_WIDTH)
    clipped into its Sturm bracket, and an end whose count shows root n
    beyond it falls back to its Sturm end.  Guesses move only the brackets:
    the snap makes the roots bit-identical to the cold solve's.
    """
    if not (0 <= m_max <= MAX_ORDER and 1 <= n_max <= MAX_ZERO_INDEX):
        raise ValueError(
            f"m_max must lie in [0, {MAX_ORDER}] and n_max in [1, {MAX_ZERO_INDEX}]"
        )
    if not f_ceiling > 0:  # NaN fails this too
        raise ValueError(f"f_ceiling must be positive, got {f_ceiling}")
    geometry = _ring_geometry(profiles)
    m = np.repeat(np.arange(m_max + 1), n_max)
    n = np.tile(np.arange(1, n_max + 1), m_max + 1)
    uniform = np.array([bessel_zero(int(o), int(k)) for o, k in zip(m, n)])
    # One row per profile, in the same float operations as a lone solve.
    uniform = uniform * np.array(
        [[math.sqrt(p.tension) / (2.0 * math.pi * p.radius)] for p in profiles]
    )
    lo = uniform / np.array([[math.sqrt(max(p.densities)) * _BRACKET_WIDEN] for p in profiles])
    hi = np.minimum(
        uniform * _BRACKET_WIDEN / np.array([[math.sqrt(min(p.densities))] for p in profiles]),
        f_ceiling,
    )
    width = m.size
    ends = [lo.ravel(), hi.ravel()]
    if near is not None:
        guess = np.broadcast_to(np.asarray(near, dtype=float), lo.shape).ravel()
        # fmax and fmin keep a NaN guess's ends on the Sturm ones.
        ends += [
            np.fmin(np.fmax(guess * (1.0 - _NEAR_WIDTH), ends[0]), ends[1]),
            np.fmin(np.fmax(guess * (1.0 + _NEAR_WIDTH), ends[0]), ends[1]),
        ]
    # Every end of every bracket in one call; one row of counts per end.
    point = np.repeat(np.arange(len(profiles)), width)
    m, n = np.tile(m, len(profiles)), np.tile(n, len(profiles))
    counts, ds = _probe(
        geometry[..., np.tile(point, len(ends))], np.tile(m, len(ends)), np.concatenate(ends)
    )
    counts, ds = counts.reshape(len(ends), -1), ds.reshape(len(ends), -1)
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
    if np.any(d_lo * d_hi > 0.0):
        raise ConvergenceError("an isolated mode has D of one sign at both bracket ends")
    # N_m(lo) = n - 1 roots lie below lo, so D(lo) = 0 makes lo root n itself.
    sign_below = np.where(d_lo != 0.0, np.sign(d_lo), -np.sign(d_hi))
    hi = np.where(d_lo == 0.0, lo, hi)
    roots = _polish(geometry, m, lo, hi, d_lo, d_hi)
    return _snap(geometry, m, roots, sign_below).reshape(len(profiles), width)


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
    if not 0 <= mode.m <= MAX_ORDER:
        raise DomainError(f"mode order m must be in [0, {MAX_ORDER}], got {mode.m}")
    fp = profile.fingerprint()
    if mode.source_fingerprint != fp:
        raise ProfileMismatch(
            "mode was not solved from this profile "
            f"(mode fingerprint {mode.source_fingerprint!r}, profile {fp!r})"
        )
    geometry = _ring_geometry([profile])[..., 0]
    coeffs, _, _ = _propagate(geometry, mode.m, mode.frequency)
    edges, slowness = geometry
    ks = 2.0 * math.pi * mode.frequency * slowness

    r = np.linspace(0.0, profile.radius, samples)
    region = np.searchsorted(edges, r, side="left")
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

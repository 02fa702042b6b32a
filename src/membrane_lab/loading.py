"""Inverse design of the loading patch and layer-by-layer application.

The search asks: what central loading makes the overtone series land on
integers?  The objective is the harmonicity score of the lowest modes of
the loaded membrane, minimised over a coarse deterministic grid followed
by bounded Nelder-Mead simplex refinement (the objective is
piecewise-smooth with integer-assignment switches, so derivative-free it
is).  Both searches, two-region and graded, share one skeleton.

Budget accounting: `evaluations` in a result is the number of distinct
profiles solved; a revisited point is served from the search's cache and
costs nothing.  The budget caps new solves, and `budget_exhausted` is set
exactly when the cap stopped the search, which may happen in the grid or
in the simplex.  Otherwise the simplex stops once its vertices agree
within 1e-9 in every coordinate and their values within 1e-12 (or, as a
backstop, after 400 iterations).  The answer is the best point over
everything evaluated, grid included.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .harmonicity import HarmonicAssessment, harmonicity_score
# default_ceiling stays importable here: bench/tracing.py wraps it in this module.
from .membrane import ModeTable, RadialDensityProfile, composite_modes, default_ceiling

GRID_POINTS = 24
DEFAULT_FRACTION_BOUNDS = (0.1, 0.7)
DEFAULT_RATIO_BOUNDS = (1.0, 16.0)
STABILIZATION_EPSILON = 0.002
STABILIZATION_WINDOW = 3

# Simplex stopping rule: every vertex within _SIMPLEX_XATOL of the best in
# each coordinate and every value within _SIMPLEX_FATOL of the best value.
# Fixed, so that the stop never hinges on last-ulp noise of the objective.
_SIMPLEX_XATOL = 1e-9
_SIMPLEX_FATOL = 1e-12
_SIMPLEX_MAX_ITER = 400

# Solver box for objective evaluations: enough azimuthal orders and radial
# roots that every mode below (overtones + 1).5 x the implied fundamental
# is present for any loading in bounds.
_OBJ_M_MAX = 4
_OBJ_N_MAX = 4


@dataclass(frozen=True)
class TwoRegionCandidate:
    """A single density step: patch radius fraction and patch/field ratio."""

    patch_radius_fraction: float
    density_ratio: float

    def __post_init__(self):
        if not (0.0 < self.patch_radius_fraction < 1.0):
            raise ValueError("patch_radius_fraction must lie in (0, 1)")
        if not (self.density_ratio >= 1.0 and math.isfinite(self.density_ratio)):
            raise ValueError("density_ratio must be finite and >= 1")

    def to_profile(
        self, radius: float = 1.0, tension: float = 1.0, field_density: float = 1.0
    ) -> RadialDensityProfile:
        return RadialDensityProfile(
            radius,
            tension,
            (
                (self.patch_radius_fraction, self.density_ratio * field_density),
                (1.0, field_density),
            ),
        )


@dataclass(frozen=True)
class LayerStep:
    layer_radius_fraction: float
    areal_density_increment: float

    def __post_init__(self):
        if not (0.0 < self.layer_radius_fraction < 1.0):
            raise ValueError("layer_radius_fraction must lie in (0, 1)")
        if self.areal_density_increment < 0.0:
            raise ValueError("areal_density_increment must be >= 0")


@dataclass(frozen=True)
class LayerSnapshot:
    index: int  # 1-based layer count applied so far
    mode_table: ModeTable
    dheem_to_chappu: float


@dataclass(frozen=True)
class LayerTrace:
    snapshots: tuple[LayerSnapshot, ...]
    stabilized_at: int | None

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer,f_dheem_hz,f_chappu_hz,ratio\n")
        for snap in self.snapshots:
            f = snap.mode_table.frequencies
            buf.write(f"{snap.index},{f[0]:.9g},{f[1]:.9g},{snap.dheem_to_chappu:.9g}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class OptimizationResult:
    candidate: TwoRegionCandidate
    profile: RadialDensityProfile
    assessment: HarmonicAssessment
    evaluations: int
    budget_exhausted: bool
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "candidate": {
                "patch_radius_fraction": self.candidate.patch_radius_fraction,
                "density_ratio": self.candidate.density_ratio,
            },
            "score": self.assessment.score,
            "fundamental_shift": self.assessment.fundamental_shift,
            "implied_fundamental_hz": self.assessment.implied_fundamental,
            "evaluations": self.evaluations,
            "budget_exhausted": self.budget_exhausted,
            "seed": self.seed,
        }


def harmonic_objective(profile: RadialDensityProfile, overtones: int) -> HarmonicAssessment:
    """Harmonicity over the window spanning `overtones` overtone pitches.

    Assesses every mode up to (overtones + 1).55 x the implied fundamental
    against the integers 2 .. overtones + 1: one claim per integer, shadow
    modes between teeth reported but unscored.  This is the played series
    the design is after; judging every raw mode individually would demand
    that degenerate partners collapse exactly, which a radial loading
    cannot do and the instrument does not need.
    """
    table = composite_modes(profile, _OBJ_M_MAX, _OBJ_N_MAX, math.inf)
    freqs = table.frequencies
    f0_estimate = freqs[1] / 2.0
    window = freqs[freqs <= (overtones + 1.55) * f0_estimate]
    return harmonicity_score(window, max_overtone=overtones + 1)


def _grid_side(budget: int) -> int:
    """Grid size leaving the simplex stage a real share of small budgets."""
    return min(GRID_POINTS, max(6, int(math.sqrt(0.7 * budget))))


def _select_best(evaluated) -> tuple:
    """Best (value, x1, x2) triple; ties break lexicographically on (x1, x2),
    so any evaluation order (including concurrent) selects the same point."""
    return min(evaluated, key=lambda t: (t[0], t[1], t[2]))


def _search_value(assessment: HarmonicAssessment, overtones: int) -> float:
    """Optimisation objective: assessment score plus a penalty of 0.25 (a
    worst-case squared deviation) for every overtone integer left without a
    claiming mode.  A series with a silent tooth is not a series."""
    claimed = {e.nearest for e in assessment.assigned_ratios if e.nearest is not None}
    missing = sum(1 for k in range(2, overtones + 2) if k not in claimed)
    return assessment.score + 0.25 * missing


class _BudgetSpent(Exception):
    """A new solve was asked for with the whole budget already spent."""


def _nelder_mead(fn, simplex, bounds) -> None:
    """Bounded Nelder-Mead, step for step scipy.optimize.minimize's
    "Nelder-Mead" method (standard coefficients, trial points clipped into
    `bounds`).  Runs until the simplex meets the _SIMPLEX_XATOL /
    _SIMPLEX_FATOL stopping rule or _SIMPLEX_MAX_ITER iterations pass; the
    caller keeps the evaluated points, and `fn` may raise to stop early.
    Kept in-house because importing scipy.optimize alone adds ~40% to the
    peak resident memory of a whole two-region design job."""
    lo, hi = np.array(bounds, dtype=float).T
    sim = np.array(simplex, dtype=float)
    fsim = np.array([fn(x) for x in sim])

    def trial(t):
        """Point (1 + t) centroid - t worst, clipped; and its value."""
        x = np.clip((1 + t) * centroid - t * sim[-1], lo, hi)
        return x, fn(x)

    for _ in range(_SIMPLEX_MAX_ITER):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= _SIMPLEX_XATOL
            and np.max(np.abs(fsim[1:] - fsim[0])) <= _SIMPLEX_FATOL
        ):
            return
        centroid = np.add.reduce(sim[:-1], 0) / (len(sim) - 1)
        xr, fr = trial(1.0)
        if fr < fsim[0]:
            xe, fe = trial(2.0)
            sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            outside = fr < fsim[-1]
            xc, fc = trial(0.5 if outside else -0.5)
            if (fc <= fr) if outside else (fc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fc
            else:
                for j in range(1, len(sim)):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                    fsim[j] = fn(sim[j])


def _grid_simplex_search(profile_at, bounds, overtones: int, budget: int, first=()):
    """Minimise the search value of profile_at(x1, x2) over the box `bounds`.

    Evaluates the points in `first`, then a _grid_side(budget)^2 grid, then
    refines from the best point so far with _nelder_mead, its initial
    simplex one grid spacing long on each axis.  The cache of solved points
    is the budget's ledger: revisits are free, and the search stops when a
    new solve would exceed `budget`.

    Returns (x, distinct solves, budget exhausted), where x is the
    _select_best point over everything evaluated.
    """
    cache: dict[tuple[float, float], float] = {}

    def objective(x) -> float:
        key = (float(x[0]), float(x[1]))
        if key not in cache:
            if len(cache) >= budget:
                raise _BudgetSpent
            assessment = harmonic_objective(profile_at(*key), overtones)
            cache[key] = _search_value(assessment, overtones)
        return cache[key]

    def best() -> tuple[float, float]:
        return _select_best((v, *k) for k, v in cache.items())[1:]

    side = _grid_side(budget)
    axes = [np.linspace(lo, hi, side) for lo, hi in bounds]
    exhausted = False
    try:
        for x in [*first, *((float(a), float(b)) for a in axes[0] for b in axes[1])]:
            objective(x)
        x0 = np.array(best())
        simplex = [x0]
        for i, ((_, hi), axis) in enumerate(zip(bounds, axes)):
            step = axis[1] - axis[0]
            vertex = x0.copy()
            vertex[i] += step if vertex[i] + step <= hi else -step
            simplex.append(vertex)
        _nelder_mead(objective, simplex, bounds)
    except _BudgetSpent:
        exhausted = True
    return best(), len(cache), exhausted


def _check_rings(rings: int) -> None:
    if not (4 <= rings <= 32):
        raise ValueError("rings must lie in [4, 32]")


def _check_search(overtones: int, budget: int) -> None:
    if not (3 <= overtones <= 7):
        raise ValueError("overtones must lie in [3, 7]")
    if budget < 200:
        raise ValueError("budget must be >= 200")


def optimize_two_region(
    fraction_bounds: tuple[float, float] = DEFAULT_FRACTION_BOUNDS,
    ratio_bounds: tuple[float, float] = DEFAULT_RATIO_BOUNDS,
    overtones: int = 5,
    budget: int = 2000,
    seed: int = 42,
    radius: float = 1.0,
    tension: float = 1.0,
    field_density: float = 1.0,
) -> OptimizationResult:
    """Search the density step that best lines the overtones up on integers.

    Coarse 24 x 24 grid over the bounds, then simplex refinement from the
    best grid point.  Fully deterministic: the seed is recorded for the
    report but the search itself never draws randomness.
    """
    if not (0.05 < fraction_bounds[0] < fraction_bounds[1] < 0.95):
        raise ValueError("fraction bounds must lie within (0.05, 0.95)")
    if not (1.0 <= ratio_bounds[0] < ratio_bounds[1] <= 50.0):
        raise ValueError("ratio bounds must lie within [1, 50]")
    _check_search(overtones, budget)

    x, evaluations, exhausted = _grid_simplex_search(
        lambda f, r: TwoRegionCandidate(f, r).to_profile(radius, tension, field_density),
        (fraction_bounds, ratio_bounds),
        overtones,
        budget,
    )
    candidate = TwoRegionCandidate(*x)
    profile = candidate.to_profile(radius, tension, field_density)
    return OptimizationResult(
        candidate=candidate,
        profile=profile,
        assessment=harmonic_objective(profile, overtones),
        evaluations=evaluations,
        budget_exhausted=exhausted,
        seed=seed,
    )


def graded_profile(
    patch_fraction: float,
    added_mass: float,
    taper_exponent: float,
    rings: int,
    radius: float = 1.0,
    tension: float = 1.0,
    field_density: float = 1.0,
) -> RadialDensityProfile:
    """Monotone density staircase over the patch: increments follow
    (1 - r/a)^taper, scaled to carry `added_mass` in total.  Taper 0 is the
    flat two-region patch."""
    _check_rings(rings)
    if added_mass < 0 or taper_exponent < 0:
        raise ValueError("added_mass and taper_exponent must be >= 0")
    edges = np.linspace(0.0, patch_fraction, rings + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    weights = (1.0 - mids / patch_fraction) ** taper_exponent
    areas = math.pi * (edges[1:] ** 2 - edges[:-1] ** 2) * radius ** 2
    total = float(np.sum(weights * areas))
    scale = added_mass / total if total > 0 else 0.0
    ring_list = [
        (float(edges[i + 1]), field_density + scale * float(weights[i]))
        for i in range(rings)
    ]
    ring_list.append((1.0, field_density))
    return RadialDensityProfile(radius, tension, tuple(ring_list))


@dataclass(frozen=True)
class GradedResult:
    profile: RadialDensityProfile
    patch_fraction: float
    added_mass: float
    taper_exponent: float
    assessment: HarmonicAssessment
    evaluations: int
    budget_exhausted: bool
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "patch_radius_fraction": self.patch_fraction,
            "added_mass_kg": self.added_mass,
            "taper_exponent": self.taper_exponent,
            "score": self.assessment.score,
            "fundamental_shift": self.assessment.fundamental_shift,
            "implied_fundamental_hz": self.assessment.implied_fundamental,
            "evaluations": self.evaluations,
            "budget_exhausted": self.budget_exhausted,
            "seed": self.seed,
        }


def optimize_graded(
    rings: int = 16,
    overtones: int = 5,
    budget: int = 2000,
    seed: int = 42,
    two_region_seed: TwoRegionCandidate | None = None,
    seed_budget: int = 800,
    radius: float = 1.0,
    tension: float = 1.0,
    field_density: float = 1.0,
) -> GradedResult:
    """Two-parameter graded search (total added mass, taper exponent).

    The staircase is seeded from the two-region optimum (same patch mass at
    taper 0 reproduces it exactly), so the graded best can only match or
    beat the step profile.
    """
    _check_rings(rings)
    _check_search(overtones, budget)
    if two_region_seed is None:
        two_region_seed = optimize_two_region(
            overtones=overtones,
            budget=max(200, seed_budget),
            seed=seed,
            radius=radius,
            tension=tension,
            field_density=field_density,
        ).candidate
    a = two_region_seed.patch_radius_fraction
    patch_area = math.pi * (a * radius) ** 2
    seed_mass = (two_region_seed.density_ratio - 1.0) * field_density * patch_area
    mass_bounds = (0.0, max(4.0 * seed_mass, 1e-9))
    taper_bounds = (0.0, 4.0)

    # the exact two-region equivalent is always evaluated first
    x, evaluations, exhausted = _grid_simplex_search(
        lambda m, t: graded_profile(a, m, t, rings, radius, tension, field_density),
        (mass_bounds, taper_bounds),
        overtones,
        budget,
        first=[(seed_mass, 0.0)],
    )
    profile = graded_profile(a, x[0], x[1], rings, radius, tension, field_density)
    return GradedResult(
        profile=profile,
        patch_fraction=a,
        added_mass=x[0],
        taper_exponent=x[1],
        assessment=harmonic_objective(profile, overtones),
        evaluations=evaluations,
        budget_exhausted=exhausted,
        seed=seed,
    )


def apply_layers(
    base: RadialDensityProfile, steps: list[LayerStep]
) -> RadialDensityProfile:
    """Cumulative profile after dropping each layer disk onto the head.

    A layer covers everything inside its radius fraction; fractions that do
    not land on an existing ring boundary refine the profile (the covered
    part of the straddling ring is split off exactly)."""
    rings = list(base.rings)
    for step in steps:
        frac = step.layer_radius_fraction
        bounds = [f for f, _ in rings]
        if frac not in bounds:
            for i, (outer, sigma) in enumerate(rings):
                if outer > frac:
                    rings[i : i + 1] = [(frac, sigma), (outer, sigma)]
                    break
        rings = [
            (outer, sigma + step.areal_density_increment if outer <= frac else sigma)
            for outer, sigma in rings
        ]
    return RadialDensityProfile(base.radius, base.tension, tuple(rings))


def simulate_layers(
    base: RadialDensityProfile,
    steps: list[LayerStep],
    stabilization: tuple[float, int] = (STABILIZATION_EPSILON, STABILIZATION_WINDOW),
    m_max: int = 2,
    n_max: int = 2,
) -> LayerTrace:
    """Re-solve the head after each layer, tracking dheem/chappu.

    dheem_to_chappu is lowest mode / second mode.  stabilized_at is the
    first (1-based) layer where the last `window` ratios span less than
    epsilon.
    """
    epsilon, window = stabilization
    if not steps:
        raise ValueError("steps must be non-empty")
    if epsilon <= 0 or window < 2:
        raise ValueError("need epsilon > 0 and window >= 2")
    snapshots = []
    ratios: list[float] = []
    stabilized_at = None
    profile = base
    for i, step in enumerate(steps, start=1):
        profile = apply_layers(profile, [step])
        try:
            table = composite_modes(profile, m_max, n_max, math.inf)
        except SolverError as exc:
            raise SolverError(f"layer {i}: {exc}") from exc
        f = table.frequencies
        ratio = float(f[0] / f[1])
        ratios.append(ratio)
        snapshots.append(LayerSnapshot(i, table, ratio))
        if stabilized_at is None and len(ratios) >= window:
            tail = ratios[-window:]
            if max(tail) - min(tail) < epsilon:
                stabilized_at = i
    return LayerTrace(tuple(snapshots), stabilized_at)

"""Inverse design of the loading patch and layer-by-layer application.

The search asks: what central loading makes the overtone series land on
integers?  The objective is the harmonicity score of the lowest modes of
the loaded membrane, minimised over a coarse deterministic grid followed
by a bounded Levenberg-Marquardt refinement.  The score is a sum of
squared residuals (each claimed overtone ratio less its integer), and the
radial problem is self-adjoint, so every root's gradient comes from its
own mode (membrane._root_gradients) and the residuals' Jacobian from the
chain rule; the claims switch where assignments change, which the
refine's damping absorbs.  Both searches, two-region and graded, share
one skeleton.

Budget accounting: `evaluations` in a result is the number of distinct
profiles solved; a revisited point is served from the search's cache and
costs nothing.  Every solve goes through one ledger that solves the new
points of a call in stacks, each solver step one kernel call per
membrane._CHUNK points of the whole stack, and scores each profile's
sorted roots with no ModeTable built.
The budget caps new solves, and `budget_exhausted` is set exactly when the
cap stopped the search, in the grid or in the refine.  Otherwise the
refine stops once its clipped step is within 1e-9 in every coordinate
(or, as a backstop, after 400 iterations).  The answer is the best point
over everything evaluated, grid included, and its assessment is scored
from the roots the search solved there: no answer is solved twice.

The grid is solved coarse to fine.  Added mass only lowers a membrane's
modes (Sturm comparison; Courant & Hilbert vol. 1, ch. VI), and along
both axes of the two-region box the head only gets heavier, so each root
(m, n) of a grid point lies between the same root of its lattice corner
below on both axes (lighter) and of its corner above (heavier).  The
first pass solves the lattice, every other index of each axis and the
last, cold and to one root more per order; the second solves every other
point in its corners' brackets, widened by a few 38-bit cells.  Such a
bracket holds root n alone, certified with no count, when the lighter
corner's root n - 1 lies below it and the heavier corner's root n + 1
above it; then N_m is n - 1 and n at its ends, D's signs there follow,
and it goes straight to the polish, aimed first at the bilinear
interpolation of the corners' roots.  A bracket whose certificate fails
takes the Sturm bracket and the count in the same stack.  The passes run
only where the profiles themselves are so ordered; the graded (mass,
taper) grid is not, and is solved cold.  Every root is its own grid cell
however it was bracketed, so the values and the answer do not depend on
the passes.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, _check_count
from .harmonicity import HarmonicAssessment, claim_integers, harmonicity_score
# default_ceiling stays importable here: bench/tracing.py wraps it in this module.
from .membrane import (
    ModeTable,
    RadialDensityProfile,
    _nowhere_heavier,
    _ring_geometry,
    _root_gradients,
    _solve_stack,
    composite_modes,
    default_ceiling,
)

GRID_POINTS = 24
# Profiles per stacked solve: the kernel takes at most membrane._CHUNK
# points a call, so a stack's memory grows only by its bracket arrays, and
# the 24 x 24 grid is two stacks.  A 288-profile stack peaks at ~4.7 MB,
# below the ~4.9 MB of the 64-profile stacks of whole kernel calls; one
# stack of all 576 solves the grid ~7% faster but peaks at ~7.2 MB.
_GRID_STACK = 288
DEFAULT_FRACTION_BOUNDS = (0.1, 0.7)
DEFAULT_RATIO_BOUNDS = (1.0, 16.0)
STABILIZATION_EPSILON = 0.002
STABILIZATION_WINDOW = 3

# The refine stops once its clipped step is within _REFINE_XTOL in every
# coordinate: a fixed rule, so that the stop never hinges on last-ulp noise
# of the objective.  _REFINE_DAMPING is the first step's mu, nearly a
# Gauss-Newton step.
_REFINE_XTOL = 1e-9
_REFINE_MAX_ITER = 400
_REFINE_DAMPING = 1e-3

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
        if not (self.areal_density_increment >= 0.0 and math.isfinite(self.areal_density_increment)):
            raise ValueError("areal_density_increment must be finite and >= 0")


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
    """Harmonicity of the overtone pitches 2 .. overtones + 1.

    Rates every mode below (overtones + 1.5) x the implied fundamental
    against the integers 2 .. overtones + 1 (harmonicity_score rates no
    higher one): one claim per integer, shadow modes between teeth
    reported but unscored.  This is the played series the design is
    after; judging every raw mode individually would demand that
    degenerate partners collapse exactly, which a radial loading cannot
    do and the instrument does not need.
    """
    return _assessment(_solve_stack([profile], _OBJ_M_MAX, _OBJ_N_MAX, math.inf)[0], overtones)


def _assessment(roots, overtones: int) -> HarmonicAssessment:
    """harmonic_objective of a profile whose _solve_stack row is roots."""
    return harmonicity_score(np.sort(roots), max_overtone=overtones + 1)


def _stack_objective(profiles, overtones: int, near=None, between=None, n_max=_OBJ_N_MAX):
    """The search value of each profile, all solved as one stack and
    claimed as one array, and _solve_stack's roots, a row per profile in
    its (m, n) order up to n_max; near, a pair (guesses, spreads) of rows
    such as _solve_stack's near and spread, warm-starts the solve, and
    between goes to _solve_stack as it is.

    The search value is harmonic_objective's score, of the roots up to
    _OBJ_N_MAX, plus a penalty of 0.25 (a worst-case squared deviation)
    for every overtone integer left without a claiming mode: a series with
    a silent tooth is not a series.  Modes above the highest scored
    integer rate against none of them.
    """
    guesses, spreads = (None, None) if near is None else near
    roots = _solve_stack(
        profiles, _OBJ_M_MAX, n_max, math.inf, near=guesses, spread=spreads, between=between
    )
    _, claimant, residuals = claim_integers(np.sort(_scored(roots), axis=1), overtones + 1)
    return np.sum(residuals * residuals, axis=1) + 0.25 * np.sum(claimant < 0, axis=1), roots


def _scored(roots) -> np.ndarray:
    """The columns n <= _OBJ_N_MAX of _solve_stack rows in (m, n) order."""
    return roots.reshape(len(roots), _OBJ_M_MAX + 1, -1)[:, :, :_OBJ_N_MAX].reshape(len(roots), -1)


def _grid_side(budget: int) -> int:
    """Grid size leaving the refine stage a real share of small budgets."""
    return min(GRID_POINTS, max(6, int(math.sqrt(0.7 * budget))))


def _select_best(evaluated) -> tuple:
    """Best (value, x1, x2, ...) tuple; ties break lexicographically on
    (x1, x2), so any evaluation order (including concurrent) selects the
    same point."""
    return min(evaluated, key=lambda t: (t[0], t[1], t[2]))


class _BudgetSpent(Exception):
    """A new solve was asked for with the whole budget already spent."""


def _linearise(profile, roots, slope, overtones: int):
    """The refine's linear model of the search value at a solved point.

    roots is the profile's _solve_stack row, and slope the pair
    (d density/dx, d fraction/dx) of its rings' numbers, shapes (N, 2) and
    (N - 1, 2), with respect to the search coordinates x.  The residuals
    are claim_integers' f / f0 - k for k = 2 .. overtones + 1 on the
    sorted roots, so the score is their sum of squares.
    Returns (residuals, jacobian, root_jacobian): d residuals/dx, shape
    (overtones, 2), zero in the rows of unclaimed integers, whose penalty
    is constant while the claims hold; and d roots/dx, shape (modes, 2),
    in the roots' order.  One kernel call, _root_gradients', at the roots.
    """
    d_density, d_fraction = _root_gradients([profile], _OBJ_M_MAX, _OBJ_N_MAX, roots[None])
    root_jacobian = d_density[0] @ slope[0] + d_fraction[0] @ slope[1]
    order = np.argsort(roots, kind="stable")
    freqs, slopes = roots[order], root_jacobian[order]
    _, claimant, residuals = claim_integers(freqs, overtones + 1)
    # f / f0 with f0 = freqs[1] / 2 moves by (df - (f / f0) df0) / f0.
    f0 = freqs[1] / 2.0
    jacobian = (slopes[claimant] - (freqs[claimant] / f0)[:, None] * (slopes[1] / 2.0)) / f0
    return residuals, np.where((claimant >= 0)[:, None], jacobian, 0.0), root_jacobian


def _refine(objective, linearise, x, bounds) -> None:
    """Projected Levenberg-Marquardt (Nocedal & Wright, Numerical
    Optimization, 10.3) from x, a point objective has solved, within the
    box `bounds`.

    objective(x, near) is (value, roots) at x: the search value and its
    roots, solved warm from near, a pair (root guesses, their relative
    spreads), if x is new;
    linearise(x, roots) is (residuals, jacobian, root_jacobian) at x, as
    _linearise gives them.  Each iteration solves
    (J^T J + mu diag(J^T J)) p = -J^T r on the free coordinates: those
    with a nonzero column of J that the gradient J^T r does not press
    against their bound.  The trial is x + p clipped into the box, solved
    from the roots the step predicts, each bracketed by its predicted
    relative change.  A trial of lower value is kept, and
    mu shrinks by Nielsen's factor max(1/3, 1 - (2 rho - 1)^3), rho the
    value's decrease over the model's; otherwise mu grows by a factor that
    doubles with each rejection in a row.  Stops when the clipped step is
    within _REFINE_XTOL in every coordinate or after _REFINE_MAX_ITER
    iterations; the caller keeps the evaluated points, and objective may
    raise to stop early.
    """
    lo, hi = np.array(bounds, dtype=float).T
    x = np.asarray(x, dtype=float)
    value, roots = objective(x, None)
    r, jac, root_jac = linearise(x, roots)
    damping, growth = _REFINE_DAMPING, 2.0
    for _ in range(_REFINE_MAX_ITER):
        gradient, curvature = jac.T @ r, jac.T @ jac
        scale = np.diag(curvature)
        free = (scale > 0.0) & ~((x <= lo) & (gradient > 0.0)) & ~((x >= hi) & (gradient < 0.0))
        step = np.zeros(len(x))
        if free.any():
            system = curvature[np.ix_(free, free)] + damping * np.diag(scale[free])
            step[free] = np.linalg.solve(system, -gradient[free])
        trial = np.clip(x + step, lo, hi)
        taken = trial - x
        if np.all(np.abs(taken) <= _REFINE_XTOL):
            return
        predicted = r @ r - np.sum((r + jac @ taken) ** 2)
        change = root_jac @ taken
        trial_value, trial_roots = objective(trial, (roots + change, np.abs(change) / roots))
        if not trial_value < value:
            damping, growth = damping * growth, 2.0 * growth
            continue
        rho = (value - trial_value) / predicted if predicted > 0.0 else 0.0
        damping, growth = damping * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        x, value, roots = trial, trial_value, trial_roots
        r, jac, root_jac = linearise(x, roots)


def _grid_refine_search(profile_at, slope_at, bounds, overtones: int, budget: int, first=()):
    """Minimise the search value of profile_at(x1, x2) over the box `bounds`.

    Evaluates the points in `first`, then a _grid_side(budget)^2 grid, then
    refines from the best point so far with _refine, on _linearise's
    residuals; slope_at(x1, x2) gives the ring slopes that chain the root
    gradients to x.  Every point goes through one ledger: it drops repeats
    and cached points, solves the new ones that fit in the budget in stacks
    of _GRID_STACK profiles, keeps each point's (value, roots), and stops
    the search when a new point did not fit.  Where the first and grid
    points all fit and _grid_plan orders the grid, they are solved in its
    two passes: the first points and the lattice cold, then every other
    grid point in the brackets its lattice corners certify.  Otherwise
    they are one call, solved cold.  Each refine trial is a stack of one,
    warm-started from the roots its step predicts.  Every root is its
    grid cell's however it was bracketed, so the order changes no value.

    Returns (x, roots, distinct solves, budget exhausted), where x is the
    _select_best point over everything evaluated and roots its
    _solve_stack row, from which _assessment scores it without a solve.
    """
    cache: dict[tuple[float, float], tuple[float, np.ndarray]] = {}
    best = (math.inf, math.inf, math.inf, None)  # (value, x1, x2, roots)
    made = {}  # grid profiles built for _grid_plan, each until its solve

    def record(stack, values, roots) -> None:
        nonlocal best
        for k, value, row in zip(stack, values.tolist(), roots):
            cache[k] = value, row
            best = _select_best([best, (value, *k, row)])

    def objective(stack, **solve_with):
        profiles = [made.pop(k) if k in made else profile_at(*k) for k in stack]
        return _stack_objective(profiles, overtones, **solve_with)

    def solve(points, near=None) -> list[tuple[float, np.ndarray]]:
        keys = [(float(a), float(b)) for a, b in points]
        new = [k for k in dict.fromkeys(keys) if k not in cache]
        fits = new[: budget - len(cache)]
        for stack in _stacks(fits):
            record(stack, *objective(stack, near=near))
        if len(fits) < len(new):
            raise _BudgetSpent
        return [cache[k] for k in keys]

    def solve_grid(axes) -> None:
        grid = [(float(a), float(b)) for a, b in itertools.product(*axes)]
        keys = list(dict.fromkeys([*((float(a), float(b)) for a, b in first), *grid]))
        made.update((k, profile_at(*k)) for k in keys[:budget])
        plan = None
        if len(keys) <= budget and len(set(grid)) == len(grid):
            plan = _grid_plan([made[k] for k in grid], len(axes[0]))
        if plan is None:
            solve(keys)
            return
        lattice, rest, corners, weights = plan
        # The lattice's roots go one further, to n = _OBJ_N_MAX + 1, for the
        # certificates of the brackets of root _OBJ_N_MAX.
        on_grid = set(grid)
        solved = []
        for stack in _stacks([k for k in keys if k not in on_grid] + [grid[g] for g in lattice]):
            values, roots = objective(stack, n_max=_OBJ_N_MAX + 1)
            record(stack, values, _scored(roots))
            solved.append(roots)
        wide = np.full((len(grid), solved[0].shape[1]), np.nan)
        wide[lattice] = np.concatenate(solved)[-len(lattice) :]
        aim = np.einsum("cp,cpr->pr", weights, _scored(wide)[corners])
        for part in _stacks(np.arange(len(rest))):
            stack = [grid[g] for g in rest[part]]
            light, heavy = wide[corners[0, part]], wide[corners[-1, part]]
            record(stack, *objective(stack, between=(light, heavy, aim[part])))

    exhausted = False
    try:
        solve_grid([np.linspace(lo, hi, _grid_side(budget)) for lo, hi in bounds])
        _refine(
            lambda x, near: solve([x], near)[0],
            lambda x, roots: _linearise(profile_at(*x), roots, slope_at(*x), overtones),
            best[1:3],
            bounds,
        )
    except _BudgetSpent:
        exhausted = True
    return best[1:3], best[3], len(cache), exhausted


def _stacks(items):
    """items in consecutive stacks of _GRID_STACK."""
    return [items[start : start + _GRID_STACK] for start in range(0, len(items), _GRID_STACK)]


def _grid_plan(profiles, side: int):
    """The two passes of a side x side grid, profiles in row-major order,
    or None unless each profile lies between its lattice corners.

    The lattice holds every other index of each axis and the last one.
    Every other point P has lattice corners at the lattice indexes next to
    its own on each axis, at or below them and at or above them; L, the
    corner below on both axes, and H, the one above on both, must be
    nowhere heavier and nowhere lighter than P (membrane._nowhere_heavier),
    so that every root of P lies between theirs.
    Returns (lattice, rest, corners, weights): the flat indexes of the
    lattice and of the other points; for each other point its four corners,
    shape (4, points), L first and H last; and their bilinear weights by
    index, the same shape, which give its roots' first aims.
    """
    if not all(isinstance(p, RadialDensityProfile) for p in profiles):
        return None
    marks = np.array(sorted({*range(0, side, 2), side - 1}))
    axis = np.arange(side)
    down, up = marks[np.searchsorted(marks, axis, side="right") - 1], marks[np.searchsorted(marks, axis)]
    share = (axis - down) / np.maximum(up - down, 1)
    i, j = np.divmod(np.arange(side * side), side)
    on = np.isin(i, marks) & np.isin(j, marks)
    rest = np.flatnonzero(~on)
    i, j = i[rest], j[rest]
    corners = np.stack([a[i] * side + b[j] for b in (down, up) for a in (down, up)])
    u, v = share[i], share[j]
    weights = np.stack([(1.0 - u) * (1.0 - v), u * (1.0 - v), (1.0 - u) * v, u * v])
    geometry = _ring_geometry(profiles)
    light, point, heavy = (geometry[..., at] for at in (corners[0], rest, corners[-1]))
    if not (_nowhere_heavier(light, point) & _nowhere_heavier(point, heavy)).all():
        return None
    return np.flatnonzero(on), rest, corners, weights


def _check_rings(rings: int) -> None:
    _check_count("rings", rings, 4, 32)


def _check_search(overtones: int, budget: int) -> None:
    _check_count("overtones", overtones, 3, 7)
    _check_count("budget", budget, 200)


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

    Coarse 24 x 24 grid over the bounds, then Levenberg-Marquardt
    refinement from the best grid point.  Fully deterministic: the seed is
    recorded for the report but the search itself never draws randomness.
    """
    if not (0.05 < fraction_bounds[0] < fraction_bounds[1] < 0.95):
        raise ValueError("fraction bounds must lie within (0.05, 0.95)")
    if not (1.0 <= ratio_bounds[0] < ratio_bounds[1] <= 50.0):
        raise ValueError("ratio bounds must lie within [1, 50]")
    _check_search(overtones, budget)

    # The patch's density is ratio x field density and its edge the fraction.
    slope = (np.array([[0.0, field_density], [0.0, 0.0]]), np.array([[1.0, 0.0]]))
    x, roots, evaluations, exhausted = _grid_refine_search(
        lambda f, r: TwoRegionCandidate(f, r).to_profile(radius, tension, field_density),
        lambda f, r: slope,
        (fraction_bounds, ratio_bounds),
        overtones,
        budget,
    )
    candidate = TwoRegionCandidate(*x)
    return OptimizationResult(
        candidate=candidate,
        profile=candidate.to_profile(radius, tension, field_density),
        assessment=_assessment(roots, overtones),
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
    edges, _, weights, areas = _taper(patch_fraction, taper_exponent, rings, radius)
    total = float(np.sum(weights * areas))
    scale = added_mass / total if total > 0 else 0.0
    ring_list = [
        (float(edges[i + 1]), field_density + scale * float(weights[i]))
        for i in range(rings)
    ]
    ring_list.append((1.0, field_density))
    return RadialDensityProfile(radius, tension, tuple(ring_list))


def _taper(patch_fraction: float, taper_exponent: float, rings: int, radius: float):
    """graded_profile's patch ring edges (rings + 1 fractions from 0), each
    ring's 1 - r/a at its middle and its weight, that to the taper power,
    and the ring areas."""
    edges = np.linspace(0.0, patch_fraction, rings + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    base = 1.0 - mids / patch_fraction
    return edges, base, base ** taper_exponent, math.pi * (edges[1:] ** 2 - edges[:-1] ** 2) * radius ** 2


def _graded_slope(patch_fraction: float, added_mass: float, taper_exponent: float, rings: int,
                  radius: float):
    """d density/d(added_mass, taper_exponent) of graded_profile's rings,
    shape (rings + 1, 2), and d fraction/d(the same), zero: the edges stay.
    Density i is field + mass w_i / W with W = sum_j w_j area_j, and
    d w_i/d taper = w_i ln(1 - r/a)."""
    _, base, weights, areas = _taper(patch_fraction, taper_exponent, rings, radius)
    total = np.sum(weights * areas)
    per_mass = weights / total
    d_weights = weights * np.log(base)
    slope = np.zeros((rings + 1, 2))
    slope[:-1, 0] = per_mass
    slope[:-1, 1] = added_mass * (d_weights - per_mass * np.sum(d_weights * areas)) / total
    return slope, np.zeros((rings, 2))


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
    _check_count("seed_budget", seed_budget, -math.inf)  # below 200 it means 200
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
    x, roots, evaluations, exhausted = _grid_refine_search(
        lambda m, t: graded_profile(a, m, t, rings, radius, tension, field_density),
        lambda m, t: _graded_slope(a, m, t, rings, radius),
        (mass_bounds, taper_bounds),
        overtones,
        budget,
        first=[(seed_mass, 0.0)],
    )
    return GradedResult(
        profile=graded_profile(a, x[0], x[1], rings, radius, tension, field_density),
        patch_fraction=a,
        added_mass=x[0],
        taper_exponent=x[1],
        assessment=_assessment(roots, overtones),
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
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("need finite epsilon > 0 and window >= 2")
    _check_count("window", window, 2)
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

import itertools
import math

import numpy as np
import pytest

from membrane_lab import loading
from membrane_lab.config import load_layer_sequence, load_profile
from membrane_lab.errors import SolverError
from membrane_lab.harmonicity import HarmonicAssessment
from membrane_lab.loading import (
    LayerStep,
    TwoRegionCandidate,
    apply_layers,
    graded_profile,
    harmonic_objective,
    optimize_graded,
    optimize_two_region,
    simulate_layers,
)
from membrane_lab.membrane import RadialDensityProfile

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def steps_from_config(doc):
    return [LayerStep(s["r_frac"], s["dsigma_kg_m2"]) for s in doc["steps"]]


def _quadratic(x):
    """Stand-in residuals with their zero at (0.3, 7.0), off the grid, and
    their Jacobian."""
    return np.array([x[0] - 0.3, x[1] - 7.0]), np.eye(2)


def stub_objective(monkeypatch, residuals):
    """Replace the search's objective: a profile's value is the sum of
    squares of residuals(profile), and its linearisation those residuals
    and their Jacobian.  The stub solves no roots."""
    monkeypatch.setattr(
        loading,
        "_stack_objective",
        lambda profiles, overtones, near=None: (
            np.array([np.sum(residuals(p)[0] ** 2) for p in profiles]),
            np.empty((len(profiles), 0)),
        ),
    )
    monkeypatch.setattr(
        loading,
        "_linearise",
        lambda profile, roots, slope, overtones: (*residuals(profile), np.empty((0, 2))),
    )


def search_value(a: HarmonicAssessment, overtones: int) -> float:
    """The search's value of an assessment: its score plus 0.25 for every
    overtone integer that no mode claims."""
    claimed = {e.nearest for e in a.assigned_ratios if e.nearest is not None}
    return a.score + 0.25 * sum(1 for k in range(2, overtones + 2) if k not in claimed)


def count_solves(monkeypatch) -> list:
    """Wrap the search's objective; the list gets the rings of every
    profile solved."""
    solved = []
    stack_objective = loading._stack_objective

    def counted_stack(profiles, overtones, near=None):
        solved.extend(p.rings for p in profiles)
        return stack_objective(profiles, overtones, near)

    monkeypatch.setattr(loading, "_stack_objective", counted_stack)
    return solved


def assessment_hex(a: HarmonicAssessment) -> tuple:
    return (
        a.score.hex(),
        a.fundamental_shift.hex(),
        a.implied_fundamental.hex(),
        tuple(e.ratio.hex() for e in a.assigned_ratios),
    )


class TestCandidateAndProfiles:
    def test_candidate_bounds(self):
        with pytest.raises(ValueError):
            TwoRegionCandidate(0.0, 2.0)
        with pytest.raises(ValueError):
            TwoRegionCandidate(0.5, 0.5)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf])
    def test_candidate_rejects_non_finite_ratio(self, ratio):
        with pytest.raises(ValueError):
            TwoRegionCandidate(0.4, ratio)

    def test_candidate_to_profile(self):
        p = TwoRegionCandidate(0.4, 3.0).to_profile(field_density=0.26)
        assert p.rings == ((0.4, pytest.approx(0.78)), (1.0, 0.26))

    def test_graded_profile_taper_zero_is_flat(self):
        p = graded_profile(0.4, 0.5, 0.0, rings=8)
        patch_sigmas = {s for _, s in p.rings[:-1]}
        assert len(patch_sigmas) == 1

    def test_graded_profile_monotone_toward_edge(self):
        p = graded_profile(0.4, 0.5, 2.5, rings=12)
        sigmas = [s for _, s in p.rings]
        assert all(b <= a + 1e-12 for a, b in zip(sigmas[:-1], sigmas[1:-1] + [sigmas[-1]]))

    def test_graded_profile_carries_requested_mass(self):
        mass = 0.37
        p = graded_profile(0.45, mass, 1.7, rings=16, radius=0.1, field_density=0.3)
        edges = [0.0] + [f for f, _ in p.rings[:-1]]
        total = 0.0
        for (lo, hi), (_, sigma) in zip(zip(edges[:-1], edges[1:]), p.rings[:-1]):
            total += (sigma - 0.3) * math.pi * ((hi * 0.1) ** 2 - (lo * 0.1) ** 2)
        assert total == pytest.approx(mass, rel=1e-9)

    def test_graded_ring_bounds(self):
        with pytest.raises(ValueError):
            graded_profile(0.4, 0.5, 1.0, rings=2)


@pytest.fixture(scope="module")
def quick_result():
    return optimize_two_region(budget=260, seed=42)


class TestOptimizer:

    def test_deterministic_repeat(self, quick_result):
        again = optimize_two_region(budget=260, seed=42)
        assert again.candidate == quick_result.candidate
        assert again.assessment.score == quick_result.assessment.score
        assert again.evaluations == quick_result.evaluations

    def test_unit_density_ratio_floor(self):
        # degenerate bounds pin the ratio at 1: no loading, anharmonic floor
        res = optimize_two_region(
            fraction_bounds=(0.3, 0.5),
            ratio_bounds=(1.0, 1.0 + 1e-9),
            budget=200,
        )
        uniform_score = harmonic_objective(
            RadialDensityProfile(1.0, 1.0, ((1.0, 1.0),)), 5
        ).score
        assert res.assessment.score > 0.005
        assert res.assessment.score == pytest.approx(uniform_score, rel=1e-6)

    def test_loading_beats_uniform(self, quick_result):
        uniform_score = harmonic_objective(
            RadialDensityProfile(1.0, 1.0, ((1.0, 1.0),)), 5
        ).score
        assert quick_result.assessment.score < uniform_score / 10.0

    def test_shift_lands_near_book_value(self, quick_result):
        assert 1.02 <= quick_result.assessment.fundamental_shift <= 1.12

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            optimize_two_region(fraction_bounds=(0.01, 0.5))
        with pytest.raises(ValueError):
            optimize_two_region(ratio_bounds=(0.5, 10.0))
        with pytest.raises(ValueError):
            optimize_two_region(overtones=2)
        with pytest.raises(ValueError):
            optimize_two_region(budget=50)

    def test_budget_exhaustion_is_flagged_not_raised(self, monkeypatch):
        # a 6 x 6 grid: budget 15 runs out in the grid, budget 37 in the refine
        stub_objective(monkeypatch, _quadratic)
        for budget in (15, 37):
            _, _, used, exhausted = loading._grid_refine_search(
                lambda a, b: (a, b), lambda a, b: None, ((0.0, 1.0), (1.0, 10.0)), 5, budget
            )
            assert exhausted
            assert used == budget

    def test_refine_stops_on_its_step_rule_within_budget(self, monkeypatch):
        stub_objective(monkeypatch, _quadratic)
        x, _, used, exhausted = loading._grid_refine_search(
            lambda a, b: (a, b), lambda a, b: None, ((0.0, 1.0), (1.0, 10.0)), 5, 1000
        )
        assert not exhausted
        assert used < 1000
        assert x == pytest.approx((0.3, 7.0), abs=1e-9)

    def test_refine_holds_a_coordinate_its_gradient_presses_on_a_bound(self, monkeypatch):
        # The residuals' zero (0.3, 12.0) lies beyond the box's ratio bound 10:
        # the refine keeps the ratio on the bound and still solves the fraction.
        stub_objective(monkeypatch, lambda x: (np.array([x[0] - 0.3, x[1] - 12.0]), np.eye(2)))
        x, _, used, exhausted = loading._grid_refine_search(
            lambda a, b: (a, b), lambda a, b: None, ((0.0, 1.0), (1.0, 10.0)), 5, 1000
        )
        assert not exhausted and used < 1000
        assert x[1] == 10.0
        assert x[0] == pytest.approx(0.3, abs=1e-9)

    def test_evaluations_count_distinct_solves(self, monkeypatch):
        # Every profile solved is a distinct point of the budget's ledger:
        # none is solved twice, the reported answer included.
        solved = count_solves(monkeypatch)
        res = optimize_two_region(budget=200, seed=42)
        assert res.evaluations == len(solved) == len(set(solved))
        assert res.budget_exhausted == (res.evaluations == 200)

    def test_first_points_repeating_the_grid_are_solved_once(self, monkeypatch):
        solved = []
        stub_objective(monkeypatch, _quadratic)
        stack_objective = loading._stack_objective

        def counted(profiles, overtones, near=None):
            solved.extend(profiles)
            return stack_objective(profiles, overtones, near)

        monkeypatch.setattr(loading, "_stack_objective", counted)
        first = [(0.0, 1.0), (0.5, 5.0), (0.5, 5.0)]  # a grid corner, then a repeat
        _, _, used, exhausted = loading._grid_refine_search(
            lambda a, b: (a, b), lambda a, b: None, ((0.0, 1.0), (1.0, 10.0)), 5, 37, first=first
        )
        axes = (np.linspace(0.0, 1.0, 6), np.linspace(1.0, 10.0, 6))
        grid = [(float(a), float(b)) for a, b in itertools.product(*axes)]
        assert solved == [(0.0, 1.0), (0.5, 5.0), *grid[1:]]
        assert len(set(solved)) == len(solved) == used == 37
        assert exhausted

    def test_grid_values_match_the_one_profile_objective(self, monkeypatch):
        # Read the cache back through the refine's objective; a cache miss
        # would call the stub and fail.
        def profile_at(f, r):
            return TwoRegionCandidate(f, r).to_profile()

        bounds = (loading.DEFAULT_FRACTION_BOUNDS, loading.DEFAULT_RATIO_BOUNDS)
        side = loading._grid_side(200)
        grid = list(itertools.product(*(np.linspace(lo, hi, side) for lo, hi in bounds)))
        # Stacks small enough that the 121 points span several, the last one short.
        monkeypatch.setattr(loading, "_GRID_STACK", 50)
        assert len(grid) > 2 * loading._GRID_STACK  # more than two stacks
        cached = {}

        def read_cache(objective, linearise, x, bounds):
            monkeypatch.setattr(loading, "_stack_objective", no_solve)
            cached.update((x, objective(x, None)[0]) for x in grid)

        def no_solve(*args):
            raise AssertionError("a grid point was not cached")

        monkeypatch.setattr(loading, "_refine", read_cache)
        _, _, used, _ = loading._grid_refine_search(profile_at, None, bounds, 5, 200)
        monkeypatch.undo()
        assert used == len(grid) == len(cached)
        for x, value in cached.items():
            expected = search_value(harmonic_objective(profile_at(*x), 5), 5)
            assert value.hex() == expected.hex()

    def test_grid_stage_work(self, monkeypatch):
        # Counts, not time: the 24 x 24 grid of a budget-2000 search, solved
        # in two stacks of _GRID_STACK profiles, takes 117 _propagate calls;
        # in nine stacks of 64 it took 182, and one profile at a time 13,424.
        from membrane_lab import membrane

        calls = []
        propagate, stack_objective = membrane._propagate, loading._stack_objective

        def counted_propagate(*args, **kwargs):
            calls[-1] += 1
            return propagate(*args, **kwargs)

        def counted_stack(profiles, overtones, near=None):
            calls.append(0)
            return stack_objective(profiles, overtones, near)

        monkeypatch.setattr(membrane, "_propagate", counted_propagate)
        monkeypatch.setattr(loading, "_stack_objective", counted_stack)
        monkeypatch.setattr(loading, "_refine", lambda *args: None)
        optimize_two_region(budget=2000)
        assert len(calls) == math.ceil(24 * 24 / loading._GRID_STACK) == 2
        assert sum(calls) <= 120

    def test_design_job_work(self, monkeypatch):
        # Counts, not time: this budget-2000 design job takes 180 _propagate
        # calls, its 16 refine solves warm-started from the roots each step
        # predicts, each bracketed by its predicted change.  With brackets of
        # 1e-3 either side and nine grid stacks it took 264; its simplex
        # refine took 955 (134 solves, each started from the solve before),
        # and 2,914 started from the Sturm brackets.
        from membrane_lab import membrane

        calls = []
        propagate = membrane._propagate

        def counted_propagate(*args, **kwargs):
            calls.append(args)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(membrane, "_propagate", counted_propagate)
        optimize_two_region((0.104, 0.695), (1.229, 7.628), overtones=5, budget=2000)
        assert len(calls) <= 185

    def test_design_search_builds_no_mode(self, monkeypatch):
        # The search scores root arrays: it makes no Mode (so no ModeTable
        # of modes) and no fingerprint for a profile it solves.
        from membrane_lab.membrane import Mode

        built, fingerprinted = [], []
        post_init, fingerprint = Mode.__post_init__, RadialDensityProfile.fingerprint

        def counted_post_init(mode):
            built.append(mode)
            post_init(mode)

        def counted_fingerprint(profile):
            fingerprinted.append(profile)
            return fingerprint(profile)

        monkeypatch.setattr(Mode, "__post_init__", counted_post_init)
        monkeypatch.setattr(RadialDensityProfile, "fingerprint", counted_fingerprint)
        res = optimize_two_region(budget=200)
        assert res.evaluations > 0
        assert built == [] and fingerprinted == []

    def test_budget_accounting_consistent(self, quick_result):
        assert quick_result.evaluations <= 260
        if quick_result.budget_exhausted:
            assert quick_result.evaluations == 260

    def test_grid_selection_is_order_independent(self):
        import random

        from membrane_lab.loading import _select_best

        evaluated = [
            (0.5, 0.3, 2.0),
            (0.1, 0.4, 5.0),
            (0.1, 0.2, 7.0),  # tie on value: lower fraction wins
            (0.1, 0.2, 6.0),  # tie on value and fraction: lower ratio wins
            (0.9, 0.1, 1.0),
        ]
        expected = _select_best(evaluated)
        assert expected == (0.1, 0.2, 6.0)
        shuffled = evaluated[:]
        for seed in range(5):
            random.Random(seed).shuffle(shuffled)
            assert _select_best(shuffled) == expected

    def test_report_shape(self, quick_result):
        doc = quick_result.to_json_dict()
        assert set(doc) == {
            "candidate",
            "score",
            "fundamental_shift",
            "implied_fundamental_hz",
            "evaluations",
            "budget_exhausted",
            "seed",
        }


@pytest.fixture(scope="module")
def graded_result(quick_result):
    return optimize_graded(
        rings=4, budget=200, seed=42, two_region_seed=quick_result.candidate
    )


class TestGraded:
    def test_taper_zero_seed_reproduces_two_region_score(self, quick_result):
        cand = quick_result.candidate
        patch_area = math.pi * cand.patch_radius_fraction ** 2
        seed_mass = (cand.density_ratio - 1.0) * patch_area
        profile = graded_profile(cand.patch_radius_fraction, seed_mass, 0.0, rings=16)
        graded_score = harmonic_objective(profile, 5).score
        assert graded_score == pytest.approx(quick_result.assessment.score, abs=1e-9)

    def test_graded_never_worse_than_seed(self, quick_result, graded_result):
        assert graded_result.assessment.score <= quick_result.assessment.score + 1e-9
        assert graded_result.patch_fraction == quick_result.candidate.patch_radius_fraction

    def test_graded_shift_recorded_in_band(self, graded_result):
        assert 1.0 < graded_result.assessment.fundamental_shift < 1.25

    def test_rejects_small_budget_before_seed_search(self, monkeypatch):
        def no_seed_search(**kwargs):
            raise AssertionError("the two-region seed search ran")

        monkeypatch.setattr(loading, "optimize_two_region", no_seed_search)
        for kwargs in ({}, {"two_region_seed": TwoRegionCandidate(0.4, 3.0)}):
            with pytest.raises(ValueError, match="budget must be >= 200"):
                optimize_graded(rings=4, budget=0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"rings": 2}, r"rings must lie in \[4, 32\]"),
            ({"rings": 33}, r"rings must lie in \[4, 32\]"),
            (
                {"rings": 4, "overtones": 8, "two_region_seed": TwoRegionCandidate(0.4, 3.0)},
                r"overtones must lie in \[3, 7\]",
            ),
        ],
        ids=["rings-2", "rings-33", "overtones-8-seeded"],
    )
    def test_rejects_bad_arguments_before_any_solve(self, monkeypatch, kwargs, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before validation")

        monkeypatch.setattr(loading, "optimize_two_region", no_solve)
        stub_objective(monkeypatch, no_solve)
        with pytest.raises(ValueError, match=message):
            optimize_graded(budget=200, **kwargs)

    @pytest.mark.parametrize(
        "search, kwargs, name",
        [
            (optimize_two_region, {"budget": 250.5}, "budget"),
            (optimize_two_region, {"budget": math.inf}, "budget"),
            (optimize_two_region, {"budget": math.nan}, "budget"),
            (optimize_two_region, {"overtones": 4.5}, "overtones"),
            (optimize_two_region, {"overtones": -math.inf}, "overtones"),
            (optimize_graded, {"budget": 250.5}, "budget"),
            (optimize_graded, {"rings": 4.5}, "rings"),
            (optimize_graded, {"rings": math.inf}, "rings"),
            (optimize_graded, {"seed_budget": 250.5}, "seed_budget"),
            (optimize_graded, {"seed_budget": math.inf}, "seed_budget"),
        ],
    )
    def test_counts_must_be_integers(self, monkeypatch, search, kwargs, name):
        # Refused as ValueError before any solve, not as a TypeError or an
        # OverflowError from inside the search.
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before validation")

        monkeypatch.setattr(loading, "optimize_two_region", no_solve)
        stub_objective(monkeypatch, no_solve)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            search(**kwargs)

    def test_seeded_graded_solves_only_its_evaluations(self, monkeypatch, quick_result):
        solved = count_solves(monkeypatch)
        res = optimize_graded(
            rings=4, budget=200, seed=42, two_region_seed=quick_result.candidate
        )
        assert len(solved) == res.evaluations

    def test_graded_with_its_own_seed_search_solves_each_profile_once(self, monkeypatch):
        seed_evaluations = optimize_two_region(budget=200, seed=42).evaluations
        solved = count_solves(monkeypatch)
        res = optimize_graded(rings=4, budget=200, seed=42, seed_budget=200)
        assert len(solved) == seed_evaluations + res.evaluations

    def test_graded_report_shape(self, graded_result):
        doc = graded_result.to_json_dict()
        assert set(doc) == {
            "patch_radius_fraction",
            "added_mass_kg",
            "taper_exponent",
            "score",
            "fundamental_shift",
            "implied_fundamental_hz",
            "evaluations",
            "budget_exhausted",
            "seed",
        }


class TestApplyLayers:
    BASE = RadialDensityProfile(1.0, 1.0, ((1.0, 1.0),))

    @pytest.mark.parametrize("increment", [math.nan, math.inf, -math.inf, -0.1])
    def test_step_rejects_bad_increment(self, increment):
        with pytest.raises(ValueError, match="areal_density_increment"):
            LayerStep(0.5, increment)

    def test_boundary_refinement(self):
        out = apply_layers(self.BASE, [LayerStep(0.3, 0.5)])
        assert out.rings == ((0.3, 1.5), (1.0, 1.0))

    def test_existing_boundary_reused(self):
        once = apply_layers(self.BASE, [LayerStep(0.3, 0.5)])
        twice = apply_layers(once, [LayerStep(0.3, 0.25)])
        assert twice.rings == ((0.3, 1.75), (1.0, 1.0))

    def test_nested_layers(self):
        out = apply_layers(self.BASE, [LayerStep(0.5, 0.2), LayerStep(0.25, 0.3)])
        assert out.rings == ((0.25, 1.5), (0.5, 1.2), (1.0, 1.0))

    def test_checkpoint_equivalence(self):
        steps = [LayerStep(0.4, 0.3), LayerStep(0.2, 0.2), LayerStep(0.55, 0.1)]
        all_at_once = apply_layers(self.BASE, steps)
        checkpoint = apply_layers(apply_layers(self.BASE, steps[:2]), steps[2:])
        assert all_at_once == checkpoint


class TestSimulateLayers:
    BASE = RadialDensityProfile(1.0, 1.0, ((1.0, 1.0),))

    def test_zero_increments_stabilize_at_window(self):
        steps = [LayerStep(0.4, 0.0)] * 5
        trace = simulate_layers(self.BASE, steps, stabilization=(0.002, 3))
        ratios = [s.dheem_to_chappu for s in trace.snapshots]
        assert max(ratios) - min(ratios) < 1e-12
        assert trace.stabilized_at == 3

    def test_positive_increments_lower_every_frequency(self):
        steps = [LayerStep(0.35, 0.2), LayerStep(0.55, 0.15), LayerStep(0.2, 0.1)]
        trace = simulate_layers(self.BASE, steps)
        prev = None
        for snap in trace.snapshots:
            f = snap.mode_table.frequencies
            if prev is not None:
                assert np.all(f < prev)
            prev = f

    def test_bundled_sequence_oscillates_then_stabilizes(self):
        doc = load_layer_sequence()
        base = load_profile(doc["base_profile"])
        trace = simulate_layers(
            base,
            steps_from_config(doc),
            stabilization=(
                doc["stabilization"]["epsilon"],
                doc["stabilization"]["window"],
            ),
        )
        assert trace.stabilized_at is not None
        upto = trace.stabilized_at
        diffs = np.diff([s.dheem_to_chappu for s in trace.snapshots[:upto]])
        assert (diffs > 0).any() and (diffs < 0).any()

    def test_checkpoint_equality_of_traces(self):
        steps = [LayerStep(0.4, 0.25), LayerStep(0.2, 0.15), LayerStep(0.55, 0.1),
                 LayerStep(0.4, 0.05)]
        full = simulate_layers(self.BASE, steps)
        mid = apply_layers(self.BASE, steps[:2])
        resumed = simulate_layers(mid, steps[2:])
        for a, b in zip(full.snapshots[2:], resumed.snapshots):
            assert a.dheem_to_chappu == pytest.approx(b.dheem_to_chappu, rel=1e-9)
            assert np.allclose(
                a.mode_table.frequencies, b.mode_table.frequencies, rtol=1e-9
            )

    def test_csv_export(self):
        trace = simulate_layers(self.BASE, [LayerStep(0.4, 0.1)] * 2)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "layer,f_dheem_hz,f_chappu_hz,ratio"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) == pytest.approx(
            float(first[1]) / float(first[2]), rel=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_layers(self.BASE, [])
        with pytest.raises(ValueError):
            simulate_layers(self.BASE, [LayerStep(0.4, 0.1)], stabilization=(0.0, 3))
        with pytest.raises(ValueError):
            simulate_layers(self.BASE, [LayerStep(0.4, 0.1)], stabilization=(0.01, 1))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="finite epsilon"):
            simulate_layers(self.BASE, [LayerStep(0.4, 0.1)] * 3, stabilization=(epsilon, 2))

    def test_solver_error_carries_layer_index(self):
        # a ceiling squeeze is hard to trigger here; instead check the wrap
        # path via an impossibly low mode count request
        import membrane_lab.loading as loading_mod

        steps = [LayerStep(0.4, 0.1)]
        original = loading_mod.composite_modes

        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        loading_mod.composite_modes = boom
        try:
            with pytest.raises(SolverError, match="layer 1"):
                simulate_layers(self.BASE, steps)
        finally:
            loading_mod.composite_modes = original


def five_point(fn, x, h):
    """Five-point central differences of fn (an array) at x, a column per
    coordinate of x."""
    columns = []
    for i in range(len(x)):
        e = np.eye(len(x))[i] * h
        columns.append((8.0 * (fn(x + e) - fn(x - e)) - (fn(x + 2 * e) - fn(x - 2 * e))) / (12.0 * h))
    return np.stack(columns, axis=-1)


class TestLinearisation:
    """_linearise chains the kernel's root gradients through the search's
    coordinates and the claim rule; central differences of the solved
    roots and of the claimed residuals check the chain."""

    CASES = pytest.mark.parametrize(
        "profile_at, slope_at, x",
        [
            (
                lambda f, r: TwoRegionCandidate(f, r).to_profile(0.2, 50.0, 0.3),
                lambda f, r: (np.array([[0.0, 0.3], [0.0, 0.0]]), np.array([[1.0, 0.0]])),
                (0.39, 3.7),
            ),
            (
                lambda m, t: graded_profile(0.39, m, t, 8, 0.2, 50.0, 0.3),
                lambda m, t: loading._graded_slope(0.39, m, t, 8, 0.2),
                (0.09, 1.3),
            ),
        ],
        ids=["two-region", "graded-8-rings"],
    )

    @staticmethod
    def roots(profile_at, x):
        return loading._solve_stack([profile_at(*x)], loading._OBJ_M_MAX, loading._OBJ_N_MAX, math.inf)[0]

    @CASES
    def test_jacobians_match_central_differences(self, profile_at, slope_at, x):
        # Roots within 1e-6 of f per unit coordinate; residuals (ratios,
        # near 1 to 6) within 1e-6 absolute.  The claims do not switch
        # within the stencil here.
        x = np.array(x)
        roots = self.roots(profile_at, x)
        residuals, jacobian, root_jacobian = loading._linearise(profile_at(*x), roots, slope_at(*x), 5)

        def claimed(point):
            return loading.claim_integers(np.sort(self.roots(profile_at, point)), 6)[2]

        assert np.all(np.abs(five_point(lambda p: self.roots(profile_at, p), x, 1e-4) - root_jacobian)
                      <= 1e-6 * roots[:, None])
        assert np.all(np.abs(five_point(claimed, x, 1e-4) - jacobian) <= 1e-6)
        assert np.array_equal(residuals, claimed(x))

    def test_graded_slope_matches_central_differences_of_the_profile(self):
        def densities(x):
            return np.array(graded_profile(0.39, x[0], x[1], 8, 0.2, 50.0, 0.3).densities)

        d_density, d_fraction = loading._graded_slope(0.39, 0.09, 1.3, 8, 0.2)
        assert np.allclose(five_point(densities, np.array([0.09, 1.3]), 1e-4), d_density,
                           rtol=1e-9, atol=1e-12)
        assert d_fraction.shape == (8, 2) and not d_fraction.any()


def criterion_4(assessment: HarmonicAssessment, overtones: int) -> bool:
    """Acceptance criterion 4: every scored overtone within 1% of its
    integer, and the lowest mode 2-12% sharp of the implied pitch."""
    winners = {e.nearest: e for e in assessment.assigned_ratios if e.nearest is not None}
    return all(
        k in winners and winners[k].deviation / k < 0.01 for k in range(2, overtones + 2)
    ) and 1.02 <= assessment.fundamental_shift <= 1.12


# The benchmark's design boxes (bench/workloads.py, seeds 1-10 and 2718):
# (seed, fraction bounds, ratio bounds, overtones), and the search value the
# bounded Nelder-Mead refine reached there at budget 2000 before
# Levenberg-Marquardt replaced it.
SIMPLEX_BOXES = [
    (1, ("0x1.aa1c556a05e18p-4", "0x1.640e7c2bc7c4fp-1"), ("0x1.3aa86b87017ddp+0", "0x1.e829868478bfbp+2"), 5, "0x1.cce94703b68a3p-12"),
    (2, ("0x1.0789eb3c63808p-3", "0x1.65993fd430b00p-1"), ("0x1.0457d85a7aadcp+0", "0x1.e2b7457971b91p+2"), 4, "0x1.a7505e990a552p-13"),
    (3, ("0x1.b6d751e54351ap-4", "0x1.5f663c8417254p-1"), ("0x1.1c699d5264a04p+0", "0x1.f353501de56e5p+2"), 6, "0x1.0cb1afefdb8a0p-10"),
    (4, ("0x1.b69b07e5f04c7p-4", "0x1.589fe7c539886p-1"), ("0x1.1e6ad267cc177p+0", "0x1.e4f588685c434p+2"), 4, "0x1.dce94f0863304p-14"),
    (5, ("0x1.e624649d860d0p-4", "0x1.626f10ac3558fp-1"), ("0x1.3d1224436da46p+0", "0x1.fe288d7f5db51p+2"), 6, "0x1.0e0a552914461p-10"),
    (6, ("0x1.fb15ebd07e6ecp-4", "0x1.63aa4b7879858p-1"), ("0x1.25402b3751396p+0", "0x1.e85f340425b4ep+2"), 4, "0x1.ba3dca1e098d4p-14"),
    (7, ("0x1.c1647f7a14474p-4", "0x1.595b6730c2105p-1"), ("0x1.31fde47a1044dp+0", "0x1.e25165e748fc2p+2"), 6, "0x1.0e0a552a34ae8p-10"),
    (8, ("0x1.b57526527d51ap-4", "0x1.65d223571ee6dp-1"), ("0x1.09b3c43b74341p+0", "0x1.f68ddc382cd44p+2"), 4, "0x1.ba3dca2da3158p-14"),
    (9, ("0x1.d27e8d56380f8p-4", "0x1.5cc62988d538dp-1"), ("0x1.0aa3cbb1c9784p+0", "0x1.fbbadfeab4e21p+2"), 4, "0x1.71a1af33a8647p-13"),
    (10, ("0x1.dfd05f14fb028p-4", "0x1.5da0b34c724f0p-1"), ("0x1.2c65bcc9be0d6p+0", "0x1.e6985b51d9aebp+2"), 5, "0x1.cce947063b99ep-12"),
    (2718, ("0x1.b44aa4617b314p-4", "0x1.5bdfa968d603bp-1"), ("0x1.1012c54532bdep+0", "0x1.e03126cfbcee2p+2"), 5, "0x1.c52035d480675p-12"),
]
# optimize_graded(rings=16) with its defaults.
SIMPLEX_GRADED_16 = "0x1.c52035d12dcdcp-12"
# The simplex's value tolerance: its vertices stopped once their values agreed within this.
SIMPLEX_FATOL = 1e-12


class TestRefineAgainstSimplex:
    @pytest.mark.parametrize(
        "seed, fractions, ratios, overtones, simplex", SIMPLEX_BOXES, ids=[str(b[0]) for b in SIMPLEX_BOXES]
    )
    def test_bench_box_is_no_worse_than_the_simplex(self, seed, fractions, ratios, overtones, simplex):
        bounds = [tuple(float.fromhex(v) for v in pair) for pair in (fractions, ratios)]
        res = optimize_two_region(*bounds, overtones, budget=2000, seed=seed)
        assert search_value(res.assessment, overtones) <= float.fromhex(simplex) + SIMPLEX_FATOL
        assert criterion_4(res.assessment, overtones)
        # 576 grid points and the refine's solves (the simplex made 115-161).
        assert not res.budget_exhausted and res.evaluations <= 576 + 40

    def test_graded_16_rings_is_no_worse_than_the_simplex(self):
        res = optimize_graded(rings=16)
        assert search_value(res.assessment, 5) <= float.fromhex(SIMPLEX_GRADED_16) + SIMPLEX_FATOL


def test_refine_brackets_hold_nearly_every_root(monkeypatch):
    # Each warm solve brackets each root guess by the root's predicted
    # relative change; a root outside its bracket falls back to a Sturm
    # end.  Over the benchmark's 11 design boxes the refine makes 108 warm
    # solves of 20 roots, and 5 roots fall outside: 2 did with brackets of
    # 1e-3 either side, but those took 612 kernel calls in the 11 refines
    # where these take 449.
    from membrane_lab import membrane

    held = []
    solve = loading._solve_stack

    def counted(profiles, m_max, n_max, f_ceiling, near=None, spread=None):
        roots = solve(profiles, m_max, n_max, f_ceiling, near=near, spread=spread)
        if near is not None:
            half = np.clip(spread, membrane._NEAR_FLOOR, membrane._NEAR_WIDTH)
            held.extend(((near * (1.0 - half) <= roots) & (roots <= near * (1.0 + half))).ravel())
        return roots

    monkeypatch.setattr(loading, "_solve_stack", counted)
    for _, fractions, ratios, overtones, _ in SIMPLEX_BOXES:
        bounds = [tuple(float.fromhex(v) for v in pair) for pair in (fractions, ratios)]
        optimize_two_region(*bounds, overtones, budget=2000)
    assert len(held) == 2160
    assert len(held) - sum(held) <= 10


@pytest.mark.parametrize("which", ["two_region", "graded"])
def test_reported_assessment_is_the_profiles_own(which, quick_result, graded_result):
    # The search reports the assessment it computed for its best point; it
    # must be exactly what a fresh solve of the reported profile gives.
    result = quick_result if which == "two_region" else graded_result
    fresh = harmonic_objective(result.profile, 5)
    assert assessment_hex(result.assessment) == assessment_hex(fresh)

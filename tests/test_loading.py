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


def _quadratic_assessment(x, overtones):
    """Stand-in objective with its minimum at (0.3, 7.0), off the grid."""
    return HarmonicAssessment(1.0, (), (x[0] - 0.3) ** 2 + (x[1] - 7.0) ** 2, 1.0)


def stub_objective(monkeypatch, objective):
    """Replace the search's objective with objective(profile, overtones),
    applied to each profile of a stack; the stub solves no roots."""
    monkeypatch.setattr(
        loading,
        "_stack_objective",
        lambda profiles, overtones, near=None: (
            [objective(p, overtones) for p in profiles],
            np.empty((len(profiles), 0)),
        ),
    )


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
        # a 6 x 6 grid: budget 15 runs out in the grid, budget 40 in the simplex
        stub_objective(monkeypatch, _quadratic_assessment)
        for budget in (15, 40):
            _, _, used, exhausted = loading._grid_simplex_search(
                lambda a, b: (a, b), ((0.0, 1.0), (1.0, 10.0)), 5, budget
            )
            assert exhausted
            assert used == budget

    def test_simplex_stops_on_tolerance_within_budget(self, monkeypatch):
        stub_objective(monkeypatch, _quadratic_assessment)
        x, _, used, exhausted = loading._grid_simplex_search(
            lambda a, b: (a, b), ((0.0, 1.0), (1.0, 10.0)), 5, 1000
        )
        assert not exhausted
        assert used < 1000
        assert x == pytest.approx((0.3, 7.0), abs=1e-5)

    @pytest.mark.parametrize(
        "fn, x0, bounds",
        [
            (lambda x: (x[0] - 0.3) ** 2 + (x[1] - 7.0) ** 2, (0.9, 2.0),
             ((0.0, 1.0), (1.0, 10.0))),
            # Rosenbrock with its minimum outside the box: the clipped path
            (lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2, (-1.2, 1.0),
             ((-2.0, 0.8), (-1.0, 2.0))),
        ],
    )
    def test_nelder_mead_matches_scipy(self, fn, x0, bounds):
        from scipy.optimize import minimize

        simplex = np.array([x0, (x0[0] + 0.1, x0[1]), (x0[0], x0[1] + 0.5)])
        ours, theirs = [], []
        loading._nelder_mead(lambda x: ours.append(tuple(x)) or fn(x), simplex, bounds)
        minimize(
            lambda x: theirs.append(tuple(x)) or fn(x),
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options={
                "initial_simplex": simplex,
                "xatol": loading._SIMPLEX_XATOL,
                "fatol": loading._SIMPLEX_FATOL,
                "maxiter": 10 * loading._SIMPLEX_MAX_ITER,
                "maxfev": 10 * loading._SIMPLEX_MAX_ITER,
            },
        )
        assert ours == theirs

    def test_evaluations_count_distinct_solves(self, monkeypatch):
        # Every profile solved is a distinct point of the budget's ledger:
        # none is solved twice, the reported answer included.
        solved = count_solves(monkeypatch)
        res = optimize_two_region(budget=200, seed=42)
        assert res.evaluations == len(solved) == len(set(solved))
        assert res.budget_exhausted == (res.evaluations == 200)

    def test_first_points_repeating_the_grid_are_solved_once(self, monkeypatch):
        solved = []

        def counted(x, overtones):
            solved.append(x)
            return _quadratic_assessment(x, overtones)

        stub_objective(monkeypatch, counted)
        first = [(0.0, 1.0), (0.5, 5.0), (0.5, 5.0)]  # a grid corner, then a repeat
        _, _, used, exhausted = loading._grid_simplex_search(
            lambda a, b: (a, b), ((0.0, 1.0), (1.0, 10.0)), 5, 37, first=first
        )
        axes = (np.linspace(0.0, 1.0, 6), np.linspace(1.0, 10.0, 6))
        grid = [(float(a), float(b)) for a, b in itertools.product(*axes)]
        assert solved == [(0.0, 1.0), (0.5, 5.0), *grid[1:]]
        assert len(set(solved)) == len(solved) == used == 37
        assert exhausted

    def test_grid_values_match_the_one_profile_objective(self, monkeypatch):
        # Read the cache back through the simplex's objective; a cache miss
        # would call the stub and fail.
        def profile_at(f, r):
            return TwoRegionCandidate(f, r).to_profile()

        bounds = (loading.DEFAULT_FRACTION_BOUNDS, loading.DEFAULT_RATIO_BOUNDS)
        side = loading._grid_side(200)
        grid = list(itertools.product(*(np.linspace(lo, hi, side) for lo, hi in bounds)))
        assert len(grid) > loading._GRID_STACK  # more than one stack
        cached = {}

        def read_cache(objective, simplex, bounds):
            monkeypatch.setattr(loading, "_stack_objective", no_solve)
            cached.update((x, objective(x)) for x in grid)

        def no_solve(*args):
            raise AssertionError("a grid point was not cached")

        monkeypatch.setattr(loading, "_nelder_mead", read_cache)
        _, _, used, _ = loading._grid_simplex_search(profile_at, bounds, 5, 200)
        monkeypatch.undo()
        assert used == len(grid) == len(cached)
        for x, value in cached.items():
            expected = loading._search_value(harmonic_objective(profile_at(*x), 5), 5)
            assert value.hex() == expected.hex()

    def test_grid_stage_work(self, monkeypatch):
        # Counts, not time: the 24 x 24 grid of a budget-2000 search, solved
        # in stacks of _GRID_STACK profiles, takes 182 _propagate calls; one
        # profile at a time it took 13,424.
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
        monkeypatch.setattr(loading, "_nelder_mead", lambda *args: None)
        optimize_two_region(budget=2000)
        assert len(calls) == math.ceil(24 * 24 / loading._GRID_STACK)
        assert sum(calls) <= 200

    def test_design_job_work(self, monkeypatch):
        # Counts, not time: this budget-2000 design job, each simplex solve
        # warm-started from the solve before, takes 955 _propagate calls;
        # started from the Sturm brackets it took 2,914.
        from membrane_lab import membrane

        calls = []
        propagate = membrane._propagate

        def counted_propagate(*args, **kwargs):
            calls.append(args)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(membrane, "_propagate", counted_propagate)
        optimize_two_region((0.104, 0.695), (1.229, 7.628), overtones=5, budget=2000)
        assert len(calls) <= 1050

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


@pytest.mark.parametrize("which", ["two_region", "graded"])
def test_reported_assessment_is_the_profiles_own(which, quick_result, graded_result):
    # The search reports the assessment it computed for its best point; it
    # must be exactly what a fresh solve of the reported profile gives.
    result = quick_result if which == "two_region" else graded_result
    fresh = harmonic_objective(result.profile, 5)
    assert assessment_hex(result.assessment) == assessment_hex(fresh)

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from membrane_lab.errors import NonPositiveFrequency, TooFewFrequencies
from membrane_lab.harmonicity import (
    RATIO_TARGETS,
    RATIO_TOLERANCES,
    characteristic_verdicts,
    harmonicity_score,
    implied_fundamental,
)


class TestImpliedFundamental:
    def test_half_of_second_entry(self):
        assert implied_fundamental([214.0, 400.0, 600.0]) == 200.0

    def test_shifted_series(self):
        assert implied_fundamental([1.07, 2.0, 3.0]) == 1.0

    def test_single_frequency_rejected(self):
        with pytest.raises(TooFewFrequencies):
            implied_fundamental([400.0])

    def test_unsorted_input_is_sorted_first(self):
        assert implied_fundamental([600.0, 214.0, 400.0]) == 200.0


class TestHarmonicityScore:
    def test_shifted_but_harmonic_series(self):
        a = harmonicity_score([107.0, 200.0, 300.0, 400.0, 500.0])
        overtone_devs = [e.deviation for e in a.assigned_ratios]
        assert sum(d * d for d in overtone_devs) == pytest.approx(0.0, abs=1e-12)
        assert a.fundamental_shift == pytest.approx(1.07)

    def test_exact_series(self):
        a = harmonicity_score([1.0, 2.0, 3.0, 4.0])
        assert a.score == pytest.approx(0.0, abs=1e-12)
        assert a.fundamental_shift == pytest.approx(1.0)

    def test_uniform_drum_ratios_score_poorly(self):
        # Direct arithmetic: f0 = 0.795; 2.14 and 2.30 collide on integer 3
        # and the winner (2.30 -> 2.893) still misses it by 0.107, so the
        # score stays well clear of zero.
        a = harmonicity_score([1.0, 1.59, 2.14, 2.30])
        assert a.score > 0.01
        assert a.score == pytest.approx(0.107 ** 2, abs=2e-4)

    def test_collision_keeps_smaller_deviation(self):
        a = harmonicity_score([1.0, 1.59, 2.14, 2.30])
        by_ref = {e.ref: e for e in a.assigned_ratios}
        assert by_ref[2].nearest is None  # 2.14 lost the integer 3
        assert by_ref[3].nearest == 3
        assert by_ref[1].nearest == 2

    def test_too_few_frequencies(self):
        with pytest.raises(TooFewFrequencies):
            harmonicity_score([100.0, 200.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_is_named(self, bad):
        with pytest.raises(ValueError, match=r"frequencies must be finite, got -?(nan|inf)"):
            harmonicity_score([100.0, 200.0, bad, 400.0])

    def test_max_overtone_bounds(self):
        with pytest.raises(ValueError):
            harmonicity_score([1.0, 2.0, 3.0], max_overtone=2)
        with pytest.raises(ValueError):
            harmonicity_score([1.0, 2.0, 3.0], max_overtone=11)

    def test_entries_beyond_max_overtone_excluded(self):
        a = harmonicity_score([1.0, 2.0, 3.0, 9.2], max_overtone=4)
        assert {e.nearest for e in a.assigned_ratios} == {2, 3}

    @given(scale=st.floats(0.05, 500.0))
    def test_scale_invariance(self, scale):
        base = [107.0, 200.0, 311.0, 402.0]
        a = harmonicity_score(base)
        b = harmonicity_score([scale * f for f in base])
        assert b.score == pytest.approx(a.score, rel=1e-9, abs=1e-15)
        assert b.fundamental_shift == pytest.approx(a.fundamental_shift, rel=1e-12)

    @settings(max_examples=200)
    @given(
        data=st.lists(st.floats(1.6, 7.4), min_size=2, max_size=6),
        lowest=st.floats(0.9, 1.3),
    )
    def test_small_perturbations_move_score_little(self, data, lowest):
        # Continuity away from assignment switches: a 0.01% nudge on every
        # frequency moves the score by under 1%.
        freqs = sorted([lowest, 2.0] + data)
        a = harmonicity_score(freqs)
        assume(a.score > 0.01)
        # stay away from integer-assignment boundaries
        assume(all(abs((e.ratio % 1.0) - 0.5) > 0.01 for e in a.assigned_ratios))
        eps = 1e-5
        bumped = [f * (1 + eps * ((i % 2) * 2 - 1)) for i, f in enumerate(freqs)]
        b = harmonicity_score(bumped)
        assert abs(b.score - a.score) < 0.01 * a.score


class TestCharacteristicVerdicts:
    def test_textbook_head_passes_all(self):
        verdicts = characteristic_verdicts(107.0, 200.0, 300.0)
        assert all(v.passed for v in verdicts)

    def test_exact_harmonic_series_is_not_a_mridangam(self):
        verdicts = {v.ratio_name: v for v in characteristic_verdicts(100.0, 200.0, 300.0)}
        assert not verdicts["dheem_to_chappu"].passed
        assert verdicts["dheem_to_chappu"].measured == pytest.approx(0.5)

    def test_flat_third_harmonic_fails_nam(self):
        verdicts = {v.ratio_name: v for v in characteristic_verdicts(107.0, 200.0, 290.0)}
        assert not verdicts["nam_to_chappu"].passed
        assert verdicts["nam_to_chappu"].measured == pytest.approx(1.45)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveFrequency):
            characteristic_verdicts(0.0, 200.0, 300.0)
        with pytest.raises(NonPositiveFrequency):
            characteristic_verdicts(107.0, -200.0, 300.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", range(3), ids=["dheem", "chappu", "nam"])
    def test_non_finite_frequency_rejected(self, which, bad):
        freqs = [107.0, 200.0, 300.0]
        freqs[which] = bad
        with pytest.raises(ValueError, match="finite frequencies"):
            characteristic_verdicts(*freqs)

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="ratio tolerance nam_to_chappu"):
            characteristic_verdicts(107.0, 200.0, 300.0, tolerances={"nam_to_chappu": tol})

    @pytest.mark.parametrize("target", [0.0, -1.07, math.nan, math.inf])
    def test_bad_target_rejected(self, target):
        with pytest.raises(ValueError, match="ratio target dheem_to_chappu"):
            characteristic_verdicts(107.0, 200.0, 300.0, targets={"dheem_to_chappu": target})

    @pytest.mark.parametrize("kind", ["targets", "tolerances"])
    def test_unknown_ratio_name_rejected(self, kind):
        # A misspelled name would otherwise leave its ratio on the default.
        with pytest.raises(ValueError, match="unknown ratio .*'dheem_chappu'"):
            characteristic_verdicts(107.0, 200.0, 300.0, **{kind: {"dheem_chappu": 0.5}})

    def test_zero_tolerance_demands_the_exact_ratio(self):
        exact = characteristic_verdicts(107.0, 200.0, 300.0, tolerances={"nam_to_chappu": 0.0})
        assert exact[2].passed
        off = characteristic_verdicts(107.0, 200.0, 301.0, tolerances={"nam_to_chappu": 0.0})
        assert not off[2].passed

    def test_custom_tolerances(self):
        tight = characteristic_verdicts(
            107.0, 200.0, 300.0, tolerances={"dheem_to_fundamental": 0.01}
        )
        assert all(v.passed for v in tight)
        verdicts = characteristic_verdicts(
            109.5, 200.0, 300.0, tolerances={"dheem_to_fundamental": 0.01}
        )
        assert not verdicts[0].passed

    @given(scale=st.floats(0.01, 1000.0))
    def test_verdicts_scale_invariant(self, scale):
        base = characteristic_verdicts(106.0, 199.0, 299.0)
        scaled = characteristic_verdicts(106.0 * scale, 199.0 * scale, 299.0 * scale)
        for a, b in zip(base, scaled):
            assert a.passed == b.passed
            assert b.measured == pytest.approx(a.measured, rel=1e-12)

    def test_default_constants_match_book_values(self):
        assert RATIO_TARGETS["dheem_to_fundamental"] == 1.07
        assert RATIO_TARGETS["dheem_to_chappu"] == 0.534
        assert RATIO_TARGETS["nam_to_chappu"] == 1.5
        assert RATIO_TOLERANCES["dheem_to_fundamental"] == 0.05
        assert RATIO_TOLERANCES["dheem_to_chappu"] == 0.005
        assert RATIO_TOLERANCES["nam_to_chappu"] == 0.012

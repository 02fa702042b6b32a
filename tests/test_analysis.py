import math

import numpy as np
import pytest

from membrane_lab.analysis import (
    AnalysisReport,
    Peak,
    _longest_run,
    analyze,
    classify_stroke,
    compute_spectrum,
    detect_peaks,
    extract_features,
    fit_decay,
    group_harmonics,
    segment_adsr,
    spectral_flatness,
)
from membrane_lab.config import load_default_templates
from membrane_lab.errors import (
    BadSize,
    InsufficientDecay,
    SilentInput,
    TooFewPeaks,
)
from membrane_lab.synth import (
    Excitation,
    RenderSpec,
    StrokeTemplate,
    reference_mode_table,
    render_stroke,
)

FS = 44100


def sine(freq, duration=2.0, amp=0.9, fs=FS):
    t = np.arange(int(duration * fs)) / fs
    return amp * np.sin(2 * math.pi * freq * t)


class TestComputeSpectrum:
    def test_all_zero_input(self):
        s = compute_spectrum(np.zeros(1024), FS, 1024)
        assert np.all(s.magnitudes == 0.0)

    def test_impulse_is_flat(self):
        x = np.zeros(1024)
        x[0] = 1.0
        s = compute_spectrum(x, FS, 1024, window="rect")
        assert np.max(np.abs(s.magnitudes - 1.0)) <= 1e-9

    def test_sine_peak_lands_within_one_bin(self):
        s = compute_spectrum(sine(440.0), FS, 16384)
        peak_hz = s.bin_frequencies[int(np.argmax(s.magnitudes))]
        assert abs(peak_hz - 440.0) <= FS / 16384

    def test_bin_frequency_grid(self):
        s = compute_spectrum(np.zeros(64), 1000.0, 256)
        assert s.bin_frequencies[1] == pytest.approx(1000.0 / 256)
        assert s.magnitudes.size == 129

    def test_parseval_rect(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=4096)
        s = compute_spectrum(x, FS, 4096, window="rect")
        assert s.parseval_power() == pytest.approx(float(np.sum(x * x)), rel=1e-9)

    def test_magnitude_scaling_linearity(self):
        x = sine(523.0, 0.2)
        a = compute_spectrum(x, FS, 8192)
        b = compute_spectrum(2.5 * x, FS, 8192)
        assert np.max(np.abs(b.magnitudes - 2.5 * a.magnitudes)) <= 1e-9 * np.max(b.magnitudes)

    @pytest.mark.parametrize("bad", [255, 1000, 2 ** 21, 0])
    def test_bad_sizes(self, bad):
        with pytest.raises(BadSize):
            compute_spectrum(np.zeros(16), FS, bad)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            compute_spectrum(np.zeros(16), FS, 256, window="hamming")

    def test_csv_dump(self):
        s = compute_spectrum(np.zeros(16), 1000.0, 256)
        lines = s.to_csv().strip().splitlines()
        assert lines[0] == "frequency_hz,magnitude"
        assert len(lines) == 1 + s.magnitudes.size


class TestDetectPeaks:
    def test_silence_has_no_peaks(self):
        s = compute_spectrum(np.zeros(4096), FS, 4096)
        assert detect_peaks(s) == []

    def test_single_noisy_sine_within_point1_percent(self):
        rng = np.random.default_rng(5)
        x = sine(440.6) + 0.9 / math.sqrt(2) / 100.0 * rng.normal(size=int(2.0 * FS))
        s = compute_spectrum(x, FS, 65536)
        peaks = detect_peaks(s, 12.0, 4)
        assert peaks
        assert abs(peaks[0].frequency - 440.6) / 440.6 < 0.001

    def test_two_sines_five_bins_apart(self):
        n = 16384
        df = FS / n
        f1 = 200 * df
        f2 = 205 * df
        x = sine(f1, 1.0) + sine(f2, 1.0)
        peaks = detect_peaks(compute_spectrum(x, FS, n), 12.0, 8)
        found = sorted(p.frequency for p in peaks[:2])
        assert abs(found[0] - f1) < 2 * df
        assert abs(found[1] - f2) < 2 * df

    def test_prominence_floor_enforced(self):
        s = compute_spectrum(sine(440.0), FS, 4096)
        with pytest.raises(ValueError):
            detect_peaks(s, 2.0)

    @pytest.mark.parametrize("prominence", [math.nan, math.inf])
    def test_non_finite_prominence_rejected(self, prominence):
        s = compute_spectrum(sine(440.0), FS, 4096)
        with pytest.raises(ValueError, match="min_prominence_db must be finite"):
            detect_peaks(s, prominence)

    @pytest.mark.parametrize("max_peaks", [0, -1])
    def test_max_peaks_below_one_rejected(self, max_peaks):
        s = compute_spectrum(sine(440.0), FS, 4096)
        with pytest.raises(ValueError, match="max_peaks must be >= 1"):
            detect_peaks(s, 12.0, max_peaks)

    def test_sorted_by_magnitude_and_truncated(self):
        x = sine(300.0) + 0.5 * sine(700.0) + 0.25 * sine(1100.0)
        peaks = detect_peaks(compute_spectrum(x, FS, 16384), 12.0, 2)
        assert len(peaks) == 2
        assert peaks[0].magnitude >= peaks[1].magnitude
        assert abs(peaks[0].frequency - 300.0) < 3.0

    def test_error_shrinks_as_fft_grows(self):
        rng = np.random.default_rng(17)
        freqs = rng.uniform(150.0, 1500.0, 8)
        errors = []
        for n in (4096, 8192, 16384):
            errs = []
            for f in freqs:
                x = sine(f, 1.0)
                peaks = detect_peaks(compute_spectrum(x, FS, n), 12.0, 1)
                errs.append(abs(peaks[0].frequency - f) / f)
            errors.append(np.mean(errs))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]


class TestGroupHarmonics:
    def test_exact_comb(self):
        peaks = [Peak(200.0, 1.0, 40.0), Peak(400.0, 0.8, 38.0), Peak(600.0, 0.6, 36.0)]
        g = group_harmonics(peaks, (50.0, 700.0))
        assert g.fundamental == pytest.approx(200.0, rel=1e-12)
        assert set(g.harmonic_indices) == {0, 1, 2}
        assert g.shifted_index is None

    def test_shifted_lowest_mode_flagged(self):
        peaks = [Peak(214.0, 1.0, 40.0), Peak(400.0, 0.9, 38.0), Peak(600.0, 0.7, 36.0)]
        g = group_harmonics(peaks, (80.0, 700.0))
        assert g.fundamental == pytest.approx(200.0, rel=1e-9)
        assert g.shifted_index == 0
        assert set(g.harmonic_indices) == {1, 2}

    def test_single_peak_rejected(self):
        with pytest.raises(TooFewPeaks):
            group_harmonics([Peak(200.0, 1.0, 40.0)], (50.0, 400.0))

    def test_subharmonic_candidates_lose(self):
        peaks = [Peak(200.0, 1.0, 40.0), Peak(300.0, 0.9, 38.0)]
        g = group_harmonics(peaks, (40.0, 400.0))
        assert g.fundamental == pytest.approx(100.0, rel=1e-9)

    def test_bad_range(self):
        peaks = [Peak(200.0, 1.0, 40.0), Peak(400.0, 0.8, 38.0)]
        with pytest.raises(ValueError):
            group_harmonics(peaks, (300.0, 100.0))


class TestFitDecay:
    def test_recovers_book_decay_constant(self):
        t = np.arange(int(3 * FS)) / FS
        x = np.exp(-2.02 * t) * np.sin(2 * math.pi * 300.0 * t)
        fit = fit_decay(x, FS, 300.0, 80.0)
        assert abs(fit.decay_constant - 2.02) / 2.02 < 0.02
        assert fit.r_squared > 0.99

    def test_undamped_sine_refused(self):
        with pytest.raises(InsufficientDecay):
            fit_decay(sine(300.0, 3.0), FS, 300.0, 80.0)

    def test_double_rate_doubles_lambda(self):
        t = np.arange(int(3 * FS)) / FS
        slow = fit_decay(np.exp(-2.02 * t) * np.sin(2 * math.pi * 300 * t), FS, 300.0, 80.0)
        fast = fit_decay(np.exp(-4.04 * t) * np.sin(2 * math.pi * 300 * t), FS, 300.0, 80.0)
        assert fast.decay_constant == pytest.approx(2.0 * slow.decay_constant, rel=0.02)

    def test_amplitude_invariance(self):
        t = np.arange(int(3 * FS)) / FS
        x = np.exp(-2.5 * t) * np.sin(2 * math.pi * 420.0 * t)
        a = fit_decay(x, FS, 420.0, 80.0)
        b = fit_decay(1e-3 * x, FS, 420.0, 80.0)
        assert abs(a.decay_constant - b.decay_constant) < 1e-9

    def test_band_must_fit_under_nyquist(self):
        with pytest.raises(ValueError):
            fit_decay(sine(300.0), FS, 22000.0, 200.0)

    def test_needs_eight_frames(self):
        with pytest.raises(ValueError):
            fit_decay(sine(300.0, 0.15), FS, 300.0, 80.0)


class TestSegmentAdsr:
    @staticmethod
    def trapezoid(rise=0.1, flat=0.5, fall=0.2, tail=0.2, carrier=440.0):
        n_r, n_f, n_fall, n_t = (int(d * FS) for d in (rise, flat, fall, tail))
        env = np.concatenate(
            [
                np.linspace(0, 1, n_r, endpoint=False),
                np.ones(n_f),
                np.linspace(1, 0, n_fall, endpoint=False),
                np.zeros(n_t),
            ]
        )
        t = np.arange(env.size) / FS
        return env * np.sin(2 * math.pi * carrier * t)

    def test_trapezoid_recovery(self):
        seg = segment_adsr(self.trapezoid(), FS, 0.02)
        assert seg.attack_s == pytest.approx(0.1, abs=0.010)
        assert seg.sustain_level == pytest.approx(1.0, abs=0.05)
        assert seg.release_s == pytest.approx(0.2, abs=0.010)
        assert seg.sustain_s > 0.4

    def test_damped_sinusoid_takes_degenerate_path(self):
        t = np.arange(int(3 * FS)) / FS
        x = np.exp(-2.02 * t) * np.sin(2 * math.pi * 300 * t)
        seg = segment_adsr(x, FS, 0.02)
        assert seg.sustain_s == 0.0
        assert seg.release_s == 0.0
        # decay runs from the peak down to the 1% floor: ln(100)/lambda
        assert seg.decay_s == pytest.approx(math.log(100.0) / 2.02, rel=0.05)

    def test_silence_rejected(self):
        with pytest.raises(SilentInput):
            segment_adsr(np.zeros(FS), FS, 0.02)
        with pytest.raises(SilentInput):
            segment_adsr(np.array([]), FS, 0.02)

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            segment_adsr(self.trapezoid(), FS, 0.002)
        with pytest.raises(ValueError):
            segment_adsr(self.trapezoid(), FS, 0.2)

    def test_durations_nonnegative(self):
        seg = segment_adsr(self.trapezoid(0.05, 0.3, 0.1, 0.1), FS, 0.01)
        for v in (seg.attack_s, seg.decay_s, seg.sustain_s, seg.release_s):
            assert v >= 0.0
        assert 0.0 <= seg.sustain_level <= 1.0

    def test_longest_run_matches_loop_reference(self):
        def reference(mask):
            best_start, best_len, start = 0, 0, None
            for i, v in enumerate(list(mask) + [False]):
                if v and start is None:
                    start = i
                elif not v and start is not None:
                    if i - start > best_len:
                        best_start, best_len = start, i - start
                    start = None
            return best_start, best_len

        rng = np.random.default_rng(7)
        masks = [np.zeros(0, bool), np.zeros(5, bool), np.ones(5, bool),
                 np.array([1, 1, 0, 1, 1], bool), np.array([0, 1, 1, 0, 1, 1, 1], bool)]
        masks += [rng.random(int(rng.integers(1, 40))) < 0.6 for _ in range(200)]
        for mask in masks:
            assert _longest_run(mask) == reference(mask)


@pytest.fixture(scope="module")
def corpus():
    return load_default_templates()


class TestClassification:
    SPEC = RenderSpec(sample_rate=FS, duration=2.5, peak_amplitude=0.9)

    @pytest.mark.parametrize("pitch", [80.0, 100.0, 120.0])
    def test_round_trip_all_templates(self, corpus, pitch):
        for name, (tpl, head) in corpus.items():
            table = reference_mode_table(pitch, head)
            wave = render_stroke(table, tpl, self.SPEC, seed=3)
            label, confidence = classify_stroke(extract_features(wave, FS))
            assert label == name, f"{name}@{pitch} classified as {label}"
            assert confidence > 0.5

    def test_white_noise_is_never_confidently_tonal(self):
        tonal = {"dheem", "chappu", "nam", "araichappu", "dhi", "thom", "gumkki"}
        for seed in range(3):
            noise = np.random.default_rng(seed).uniform(-0.9, 0.9, 3 * FS)
            report = analyze(noise, FS)
            assert report.label in ("ta", "unknown") or report.confidence <= 0.5
            if report.label in tonal:
                assert report.confidence <= 0.5

    def test_pure_noise_burst_is_ta(self, corpus):
        tpl, head = corpus["ta"]
        wave = render_stroke(reference_mode_table(100.0, head), tpl, self.SPEC, seed=1)
        report = analyze(wave, FS)
        assert report.label == "ta"
        assert report.confidence > 0.5


class TestAnalyzeReport:
    def test_mridangam_like_tone_report(self):
        table = reference_mode_table(100.0)
        tpl = StrokeTemplate(
            "dheem",
            (
                Excitation(0, 0.8, 1.5),
                Excitation(1, 1.0, 2.02),
                Excitation(2, 0.7, 6.0),
            ),
        )
        wave = render_stroke(table, tpl, RenderSpec(FS, 3.0, 0.9))
        report = analyze(wave, FS)
        assert report.fundamental_hz == pytest.approx(100.0, rel=0.002)
        assert report.shift_ratio == pytest.approx(1.07, abs=0.005)
        assert len(report.verdicts) == 3
        assert all(v.passed for v in report.verdicts)
        assert report.decay is not None

    def test_grouping_indices_survive_weak_interleaved_peaks(self):
        # a medium peak below the prominence gate sits between the strong
        # partials; grouping indices must still resolve against the strong
        # list, not the full one
        t = np.arange(int(3 * FS)) / FS
        wave = (
            0.9 * np.sin(2 * math.pi * 107.0 * t)
            + 1.0 * np.sin(2 * math.pi * 200.0 * t)
            + 0.00015 * np.sin(2 * math.pi * 163.0 * t)  # weak interloper
            + 0.8 * np.sin(2 * math.pi * 300.0 * t)
        )
        report = analyze(wave, FS, min_prominence_db=8.0)
        assert report.shift_ratio == pytest.approx(1.07, abs=0.003)
        names = {v.ratio_name: v for v in report.verdicts}
        assert names["nam_to_chappu"].measured == pytest.approx(1.5, abs=0.01)

    def test_report_json_shape(self):
        wave = sine(440.0) + 0.5 * sine(880.0)
        doc = analyze(wave, FS).to_json_dict()
        assert set(doc) == {
            "peaks",
            "fundamental_hz",
            "shift_ratio",
            "verdicts",
            "decay",
            "adsr",
            "label",
            "confidence",
        }
        assert all(set(p) == {"hz", "mag", "prom_db"} for p in doc["peaks"])

    def test_flatness_extremes(self):
        tone = compute_spectrum(sine(500.0), FS, 16384)
        noise = compute_spectrum(
            np.random.default_rng(2).uniform(-1, 1, FS), FS, 16384
        )
        assert spectral_flatness(tone) < 0.1
        assert spectral_flatness(noise) > 0.5


# Each analysis entry point with a clip it would otherwise accept.
ENTRY_POINTS = {
    "compute_spectrum": lambda x, rate: compute_spectrum(x, rate, 4096),
    "fit_decay": lambda x, rate: fit_decay(x, rate, 300.0, 80.0),
    "segment_adsr": segment_adsr,
    "extract_features": extract_features,
    "analyze": analyze,
}


class TestInputDomain:
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    # 10**400 is an int too large for a float.
    @pytest.mark.parametrize("rate", [0, -1, -44100.0, math.inf, -math.inf, math.nan, 10**400])
    def test_rate_must_be_positive_and_finite(self, entry, rate):
        with pytest.raises(ValueError, match="sample rate must be positive and finite"):
            entry(sine(300.0, 0.5), rate)

    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_samples_must_be_finite(self, entry, bad):
        x = sine(300.0, 0.5)
        x[100] = bad
        with pytest.raises(ValueError, match="waveform samples must be finite"):
            entry(x, FS)

    def test_all_nan_clip_is_refused(self):
        with pytest.raises(ValueError, match="finite"):
            analyze(np.full(FS, math.nan), FS)

    def test_rate_from_a_bad_header_allocates_by_the_clip(self):
        # 4,294,967,295 Hz, the most a WAV header holds, once sized the RMS
        # window and the STFT frame at hundreds of MB for an 8,000-sample clip.
        import tracemalloc

        x = 0.5 * np.sin(2.0 * math.pi * 440.0 * np.arange(8000) / 44100.0)
        tracemalloc.start()
        try:
            report = analyze(x, 2 ** 32 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.label == "unknown"
        assert peak < 4e6

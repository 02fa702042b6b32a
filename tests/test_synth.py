import math

import numpy as np
import pytest

from membrane_lab.errors import IndexOutOfRange, NyquistViolation
from membrane_lab.synth import (
    Excitation,
    NoiseBurst,
    RenderSpec,
    StrokeTemplate,
    annular_filter,
    reference_mode_table,
    render_stroke,
)

SPEC = RenderSpec(sample_rate=44100, duration=1.5, peak_amplitude=0.9)


def single_mode_template(name="dheem", index=0, lam=0.0, amp=1.0):
    return StrokeTemplate(name, (Excitation(index, amp, lam),))


class TestRenderStroke:
    def test_pure_sine_single_spectral_peak(self):
        table = reference_mode_table(440.0 / 1.07)  # puts mode 0 at 440 Hz
        wave = render_stroke(table, single_mode_template(), SPEC)
        spectrum = np.abs(np.fft.rfft(wave * np.hanning(len(wave))))
        peak_bin = int(np.argmax(spectrum))
        peak_hz = peak_bin * SPEC.sample_rate / len(wave)
        assert abs(peak_hz - 440.0) < 2.0
        assert np.max(np.abs(wave)) == pytest.approx(0.9)

    def test_decay_envelope_value_at_one_second(self):
        # lambda = 2.02 /s: envelope after 1 s is e^-2.02 of the start.
        table = reference_mode_table(100.0)
        spec = RenderSpec(sample_rate=44100, duration=1.2, peak_amplitude=1.0)
        wave = render_stroke(table, single_mode_template(lam=2.02), spec, normalize=False)
        t = np.arange(spec.n_samples) / spec.sample_rate
        envelope = np.exp(-2.02 * t) * np.sin(2 * math.pi * 107.0 * t)
        assert np.allclose(wave, envelope, atol=1e-12)
        assert math.exp(-2.02) == pytest.approx(0.1327, abs=5e-5)

    def test_beats_between_close_partials(self):
        # 440 + 442 Hz at equal level beat at 2 Hz: nulls every 0.5 s.
        fp = "beats"
        from membrane_lab.membrane import Mode, ModeTable

        table = ModeTable(fp, (Mode(0, 1, 440.0, fp), Mode(0, 2, 442.0, fp)))
        template = StrokeTemplate(
            "dheem", (Excitation(0, 1.0, 0.0), Excitation(1, 1.0, 0.0))
        )
        spec = RenderSpec(sample_rate=44100, duration=1.6, peak_amplitude=1.0)
        wave = render_stroke(table, template, spec, normalize=False)
        t = np.arange(spec.n_samples) / spec.sample_rate
        # envelope of the beat: |2 cos(pi * 2 * t)|; nulls at 0.25 s and 0.75 s
        for null_t in (0.25, 0.75, 1.25):
            idx = (t > null_t - 0.002) & (t < null_t + 0.002)
            assert np.max(np.abs(wave[idx])) < 0.05
        crest = (t > 0.49) & (t < 0.51)
        assert np.max(np.abs(wave[crest])) > 1.8

    def test_linearity_before_normalisation(self):
        table = reference_mode_table(100.0)
        a = StrokeTemplate("chappu", (Excitation(1, 0.8, 2.0),))
        b = StrokeTemplate("nam", (Excitation(2, 0.5, 5.0, phase=0.3),))
        combined = StrokeTemplate(
            "chappu", (Excitation(1, 0.8, 2.0), Excitation(2, 0.5, 5.0, phase=0.3))
        )
        wa = render_stroke(table, a, SPEC, normalize=False)
        wb = render_stroke(table, b, SPEC, normalize=False)
        wc = render_stroke(table, combined, SPEC, normalize=False)
        assert np.max(np.abs(wc - (wa + wb))) < 1e-9

    def test_band_energy_decays_monotonically(self):
        table = reference_mode_table(100.0)
        spec = RenderSpec(sample_rate=22050, duration=1.0, peak_amplitude=0.9)
        wave = render_stroke(table, single_mode_template(lam=3.0), spec)
        window = int(0.1 * spec.sample_rate)
        energies = [
            float(np.sum(wave[i * window:(i + 1) * window] ** 2)) for i in range(10)
        ]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_noise_burst_is_reproducible_and_confined(self):
        template = StrokeTemplate("ta", (), NoiseBurst(1.0, 0.03))
        table = reference_mode_table(100.0)
        w1 = render_stroke(table, template, SPEC, seed=7)
        w2 = render_stroke(table, template, SPEC, seed=7)
        w3 = render_stroke(table, template, SPEC, seed=8)
        assert np.array_equal(w1, w2)
        assert not np.array_equal(w1, w3)
        n_burst = int(0.03 * SPEC.sample_rate)
        assert np.all(w1[n_burst:] == 0.0)
        assert np.any(w1[:n_burst] != 0.0)

    def test_nyquist_violation(self):
        table = reference_mode_table(6000.0)  # mode 5 at 24 kHz > 22.05k
        with pytest.raises(NyquistViolation):
            render_stroke(table, single_mode_template(index=5), SPEC)

    def test_glide_checks_end_frequency(self):
        table = reference_mode_table(4000.0)
        tpl = StrokeTemplate(
            "gumkki", (Excitation(6, 1.0, 1.0, glide_frac_per_s=0.2),)
        )
        # 20 kHz start, 26 kHz after 1.5 s of glide: must refuse.
        with pytest.raises(NyquistViolation):
            render_stroke(table, tpl, SPEC)

    def test_mode_index_out_of_range(self):
        table = reference_mode_table(100.0)
        with pytest.raises(IndexOutOfRange):
            render_stroke(table, single_mode_template(index=12), SPEC)

    def test_glide_moves_the_peak(self):
        table = reference_mode_table(200.0)
        still = single_mode_template("thom", index=0, lam=0.0)
        gliding = StrokeTemplate("gumkki", (Excitation(0, 1.0, 0.0, glide_frac_per_s=0.10),))
        spec = RenderSpec(sample_rate=22050, duration=2.0, peak_amplitude=0.9)

        def late_peak(wave):
            tail = wave[len(wave) // 2:]
            mags = np.abs(np.fft.rfft(tail * np.hanning(len(tail))))
            return np.argmax(mags) * spec.sample_rate / len(tail)

        w_still = render_stroke(table, still, spec)
        w_glide = render_stroke(table, gliding, spec)
        assert late_peak(w_glide) > late_peak(w_still) * 1.05


class TestRenderSpecValidation:
    def test_rejects_low_rate(self):
        with pytest.raises(ValueError):
            RenderSpec(sample_rate=4000)

    def test_rejects_huge_renders(self):
        with pytest.raises(ValueError):
            RenderSpec(sample_rate=44100, duration=3000.0)
        with pytest.raises(ValueError):
            RenderSpec(sample_rate=10**400, duration=1.0)  # too large for a float

    @pytest.mark.parametrize("rate", [44100.5, 44100.0, True])
    def test_rate_must_be_an_integer(self, rate):
        # write_wav's rule: a render at 44100.5 Hz would hold 44100 samples.
        with pytest.raises(ValueError, match="sample_rate must be an integer"):
            RenderSpec(rate, 1.0, 0.9)
        assert RenderSpec(np.int32(44100), 1.0, 0.9).n_samples == 44100

    def test_rejects_bad_peak(self):
        with pytest.raises(ValueError):
            RenderSpec(peak_amplitude=0.0)
        with pytest.raises(ValueError):
            RenderSpec(peak_amplitude=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [("duration", math.nan), ("duration", math.inf), ("sample_rate", math.nan)],
    )
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            RenderSpec(**{field: value})


class TestConstructorsRejectNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["phase", "glide_frac_per_s"])
    def test_excitation(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            Excitation(0, 1.0, 1.0, **{field: value})

    @pytest.mark.parametrize(
        "amplitude, duration",
        [(math.nan, 0.05), (math.inf, 0.05), (0.5, math.nan), (0.5, math.inf), (-0.1, 0.05)],
    )
    def test_noise_burst(self, amplitude, duration):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            NoiseBurst(amplitude, duration)

    @pytest.mark.parametrize(
        "doc",
        [
            {"name": "ta", "excitations": [{"mode": math.inf, "amp": 1.0, "lambda_s": 1.0}]},
            {"name": "ta", "noise": {"amp": math.nan, "dur_s": 0.05}},
            {"name": "ta", "noise": {"amp": 0.5, "dur_s": math.inf}},
            ["not", "a", "template"],
        ],
        ids=["mode-inf", "noise-amp-nan", "noise-dur-inf", "list"],
    )
    def test_from_json_dict_raises_value_error(self, doc):
        with pytest.raises(ValueError):
            StrokeTemplate.from_json_dict(doc)

    @pytest.mark.parametrize("mode", [1.9, "1", True])
    def test_from_json_dict_refuses_a_non_integral_mode(self, mode):
        doc = {"name": "ta", "excitations": [{"mode": mode, "amp": 1.0, "lambda_s": 1.0}]}
        with pytest.raises(ValueError, match="excitation mode must be an integer"):
            StrokeTemplate.from_json_dict(doc)

    def test_from_json_dict_takes_an_integral_float_mode(self):
        doc = {"name": "ta", "excitations": [{"mode": 2.0, "amp": 1.0, "lambda_s": 1.0}]}
        mode = StrokeTemplate.from_json_dict(doc).excitations[0].mode_index
        assert mode == 2 and type(mode) is int


class TestTemplates:
    def test_needs_content(self):
        with pytest.raises(ValueError):
            StrokeTemplate("dheem", ())

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            StrokeTemplate("flam", (Excitation(0, 1.0, 1.0),))

    def test_json_round_trip(self):
        tpl = StrokeTemplate(
            "dhi",
            (Excitation(1, 1.0, 9.0, 0.25), Excitation(2, 0.4, 10.0)),
            NoiseBurst(0.4, 0.03),
        )
        again = StrokeTemplate.loads(tpl.dumps())
        assert again == tpl

    def test_wire_format_keys(self):
        import json

        doc = json.loads(single_mode_template().dumps())
        assert set(doc["excitations"][0]) == {"mode", "amp", "lambda_s", "phase"}


class TestAnnularFilter:
    def setup_method(self):
        self.table = reference_mode_table(100.0)
        self.dheem = StrokeTemplate(
            "dheem", (Excitation(0, 1.0, 2.0), Excitation(1, 0.4, 4.0))
        )
        self.chappu = StrokeTemplate(
            "chappu", (Excitation(1, 1.0, 2.0), Excitation(2, 0.5, 8.0))
        )

    def test_identity_at_unity_suppression(self):
        assert annular_filter(self.dheem, self.table, "kucchi", 1.0) == self.dheem
        assert annular_filter(self.chappu, self.table, "thool", 1.0) == self.chappu

    def test_kucchi_leaves_nodal_diameter_modes(self):
        out = annular_filter(self.chappu, self.table, "kucchi", 0.3)
        assert out.excitations[0].amplitude == 1.0  # (1,1) untouched
        assert out.excitations[1].amplitude == pytest.approx(0.15)  # (0,2) damped

    def test_thool_leaves_axisymmetric_modes(self):
        out = annular_filter(self.dheem, self.table, "thool", 0.3)
        assert out.excitations[0].amplitude == 1.0  # (0,1) untouched
        assert out.excitations[1].amplitude == pytest.approx(0.12)  # (1,1) damped

    def test_name_preserved(self):
        assert annular_filter(self.dheem, self.table, "thool", 0.5).name == "dheem"

    def test_multiplicative_composition(self):
        once = annular_filter(annular_filter(self.chappu, self.table, "kucchi", 0.6),
                              self.table, "kucchi", 0.5)
        direct = annular_filter(self.chappu, self.table, "kucchi", 0.3)
        for a, b in zip(once.excitations, direct.excitations):
            assert a.amplitude == pytest.approx(b.amplitude)

    def test_bad_kind_and_bounds(self):
        with pytest.raises(ValueError):
            annular_filter(self.dheem, self.table, "sand", 0.5)
        with pytest.raises(ValueError):
            annular_filter(self.dheem, self.table, "kucchi", 1.2)

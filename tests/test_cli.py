import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from membrane_lab.cli import main
from membrane_lab.config import config_dir
from membrane_lab.wav import write_wav

DATA = config_dir()

UNIFORM_DRUM_RATIOS = [1.0, 1.59, 2.14, 2.30, 2.65, 3.16, 3.50]


def run(*argv):
    return main(list(argv))


class TestModesCommand:
    def test_uniform_profile_reproduces_drum_ratio_table(self, capsys):
        assert run("modes", str(DATA / "uniform_profile.json")) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,n,frequency_hz"
        freqs = np.array([float(row.split(",")[2]) for row in lines[1:]])
        ratios = freqs / freqs[0]
        for target in UNIFORM_DRUM_RATIOS:
            assert np.min(np.abs(ratios - target)) < 0.005

    def test_json_output_to_file(self, tmp_path):
        out = tmp_path / "modes.json"
        assert run(
            "modes", str(DATA / "default_profile.json"), "--format", "json",
            "-o", str(out),
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["modes"][0]["m"] == 0
        assert doc["modes"][1]["frequency_hz"] == pytest.approx(200.0, abs=0.01)

    def test_nan_ceiling_is_data_error(self, capsys):
        assert run("modes", str(DATA / "default_profile.json"), "--f-ceiling", "nan") == 2
        assert "f_ceiling must be positive" in capsys.readouterr().err

    def test_infinite_ceiling_solves(self, capsys):
        assert run("modes", str(DATA / "default_profile.json"), "--f-ceiling", "inf") == 0
        assert capsys.readouterr().out.startswith("m,n,frequency_hz\n")

    def test_oversized_orders_are_data_error(self, capsys):
        assert run(
            "modes", str(DATA / "default_profile.json"),
            "--m-max", "1000000", "--n-max", "1", "--f-ceiling", "300",
        ) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: m_max must lie in [0, 12]")

    def test_numerical_failure_exit_code(self, capsys):
        # a ceiling below the first mode cannot yield the requested roots
        assert run(
            "modes", str(DATA / "default_profile.json"), "--f-ceiling", "30.0"
        ) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestUsageAndDataErrors:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run("frobnicate") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("modes", "--no-such-flag", "x.json") == 1

    def test_missing_file_is_data_error(self, capsys):
        assert run("modes", "/no/such/profile.json") == 2
        assert "membrane-lab:" in capsys.readouterr().err

    def test_malformed_profile_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"radius_m\": -1}")
        assert run("modes", str(bad)) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("layers", "uniform_profile.json", "layer_sequence.json", "--epsilon", "0"),
            ("layers", "uniform_profile.json", "layer_sequence.json", "--window", "0"),
            ("modes", "default_profile.json", "--f-ceiling", "0"),
            ("synth", "default_profile.json", "demo_stroke.json", "-o", "x.wav", "--f-ceiling", "0"),
        ],
        ids=["layers-epsilon", "layers-window", "modes-ceiling", "synth-ceiling"],
    )
    def test_zero_valued_option_is_data_error(self, tmp_path, capsys, argv):
        # a zero is the user's value, not an absent option
        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        argv = [str(tmp_path / a) if a.endswith(".wav") else a for a in argv]
        assert run(*argv) == 2
        assert "membrane-lab:" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_is_data_error(self, capsys, epsilon):
        argv = ["layers", str(DATA / "uniform_profile.json"), str(DATA / "layer_sequence.json")]
        assert run(*argv, "--epsilon", epsilon) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: need finite epsilon > 0")

    def test_garbage_wav_is_data_error(self, tmp_path):
        fake = tmp_path / "fake.wav"
        fake.write_bytes(b"not audio")
        assert run("analyze", str(fake)) == 2


TEMPLATE = {
    "name": "ta",
    "excitations": [
        {"mode": 1, "amp": 1.0, "lambda_s": 9.0, "phase": 0.25, "glide_frac_per_s": 0.01},
    ],
    "noise": {"amp": 0.3, "dur_s": 0.02},
}
STEPS = {
    "stabilization": {"epsilon": 0.002, "window": 2},
    "steps": [{"r_frac": 0.39, "dsigma_kg_m2": 0.1}, {"r_frac": 0.2, "dsigma_kg_m2": 0.05}],
}
PROFILE = json.loads((DATA / "default_profile.json").read_text())
# The template above rings mode 1 of this table.
TABLE = {
    "profile_fingerprint": "three-modes",
    "modes": [
        {"m": 0, "n": 1, "frequency_hz": 100.0},
        {"m": 1, "n": 1, "frequency_hz": 159.0},
        {"m": 2, "n": 1, "frequency_hz": 213.0},
    ],
}
# One value of each kind a hand-edited JSON document can hold by mistake.
MUTANTS = {"nan": math.nan, "inf": math.inf, "null": None, "string": "x", "negative": -1}


def leaf_paths(doc, prefix=()):
    """Key paths of every value in a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, prefix + (key,))


def number_paths(doc, prefix=()):
    """Key paths of every number in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from number_paths(value, prefix + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + (key,)


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture
def table_path(tmp_path):
    """A solved-free synth source: the 100 Hz reference mode table."""
    import membrane_lab._jsonfmt as jf
    from membrane_lab.synth import reference_mode_table

    path = tmp_path / "table.json"
    path.write_text(jf.dumps(reference_mode_table(100.0).to_json_dict()))
    return path


def synth_template(tmp_path, table_path, template):
    path = tmp_path / "template.json"
    path.write_text(json.dumps(template))
    return run(
        "synth", str(table_path), str(path), "-o", str(tmp_path / "x.wav"),
        "--duration", "0.2",
    )


def synth_source(tmp_path, source):
    path = tmp_path / "source.json"
    path.write_text(json.dumps(source))
    template = tmp_path / "template.json"
    template.write_text(json.dumps(TEMPLATE))
    return run("synth", str(path), str(template), "-o", str(tmp_path / "x.wav"), "--duration", "0.2")


def modes_profile(tmp_path, profile):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    return run("modes", str(path), "-o", str(tmp_path / "modes.csv"))


def layers_steps(tmp_path, steps):
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(steps))
    return run("layers", str(DATA / "uniform_profile.json"), str(path))


def materials_csv(tmp_path, text):
    path = tmp_path / "samples.csv"
    path.write_text(text)
    return run("materials", str(path))


# One value of each kind a hand-edited CSV cell can hold by mistake.
CSV_MUTANTS = {"nan": "nan", "inf": "inf", "empty": "", "string": "x", "negative": "-1"}


def csv_mutations(text):
    """The bundled samples CSV with one cell or one row changed, by id: every
    cell of the header, the first row and the last (which gives a velocity)
    takes each CSV_MUTANTS value, and each of those rows is cut short,
    lengthened, or repeated."""
    rows = [line.split(",") for line in text.strip().splitlines()]
    join = lambda rows: "".join(",".join(row) + "\n" for row in rows)
    out = {}
    for i in (0, 1, len(rows) - 1):
        for j in range(len(rows[i])):
            for kind, value in CSV_MUTANTS.items():
                out[f"row{i}.col{j}-{kind}"] = join(rows[:i] + [mutated(rows[i], (j,), value)] + rows[i + 1 :])
        out[f"row{i}-short"] = join(rows[:i] + [rows[i][:2]] + rows[i + 1 :])
        out[f"row{i}-long"] = join(rows[:i] + [rows[i] + ["1"]] + rows[i + 1 :])
        out[f"row{i}-repeated"] = join(rows[: i + 1] + rows[i:])
    return out


MATERIALS_MUTANTS = csv_mutations((DATA / "materials_samples.csv").read_text())


def tone_wav(path):
    """A mono PCM16 WAV of 8000 samples of a 440 Hz tone at 44.1 kHz."""
    write_wav(0.5 * np.sin(2.0 * np.pi * 440.0 * np.arange(8000) / 44100.0), 44100, path)


def zero_rate_wav(path):
    """tone_wav's clip with a header that gives sample rate 0."""
    tone_wav(path)
    raw = bytearray(path.read_bytes())
    raw[24:32] = bytes(8)  # the canonical header's sample rate and byte rate
    path.write_bytes(raw)


# Every byte of the canonical 44-byte header set to each of four values,
# and the file cut short at three lengths.
WAV_EDITS = {
    f"byte{offset}={value:#04x}": (offset, value)
    for offset in range(44)
    for value in (0x00, 0x01, 0x7F, 0xFF)
}
WAV_EDITS.update({f"cut{size}": (size, None) for size in (10, 44, 45)})


# Each document of the tests below and a run that loads it.
LOADERS = {
    "profile": (PROFILE, lambda tmp_path, table_path, doc: modes_profile(tmp_path, doc)),
    "table": (TABLE, lambda tmp_path, table_path, doc: synth_source(tmp_path, doc)),
    "template": (TEMPLATE, lambda tmp_path, table_path, doc: synth_template(tmp_path, table_path, doc)),
    "steps": (STEPS, lambda tmp_path, table_path, doc: layers_steps(tmp_path, doc)),
}


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "kind, path",
        [(kind, path) for kind, (doc, _) in LOADERS.items() for path in number_paths(doc)],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_number_given_as_a_string_is_data_error(self, tmp_path, table_path, capsys, kind, path):
        # A number field takes a JSON number, never a string float() would parse.
        doc, load = LOADERS[kind]
        assert load(tmp_path, table_path, mutated(doc, path, "1.0")) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: ")

    @pytest.mark.parametrize(
        "noise", [{"amp": math.nan, "dur_s": 0.02}, {"amp": 0.3, "dur_s": math.inf}],
        ids=["amp-nan", "dur-inf"],
    )
    def test_non_finite_noise_is_data_error(self, tmp_path, table_path, capsys, noise):
        assert synth_template(tmp_path, table_path, {**TEMPLATE, "noise": noise}) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: ")
        assert not (tmp_path / "x.wav").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--max-peaks", "-1"), "max_peaks must be >= 1"),
            (("--max-peaks", "0"), "max_peaks must be >= 1"),
            (("--min-prominence", "nan"), "min_prominence_db must be finite"),
        ],
        ids=["max-peaks-negative", "max-peaks-zero", "prominence-nan"],
    )
    def test_bad_peak_limits_are_data_error(self, tmp_path, table_path, capsys, flags, message):
        assert synth_template(tmp_path, table_path, TEMPLATE) == 0
        assert run("analyze", str(tmp_path / "x.wav"), *flags) == 2
        assert capsys.readouterr().err.startswith(f"membrane-lab: {message}")

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_ratio_tolerance_is_data_error(self, tmp_path, table_path, capsys, tol):
        assert synth_template(tmp_path, table_path, TEMPLATE) == 0
        assert run("analyze", str(tmp_path / "x.wav"), "--tol-shift", tol) == 2
        assert capsys.readouterr().err.startswith(
            "membrane-lab: ratio tolerance dheem_to_fundamental must be finite and >= 0"
        )

    @pytest.mark.parametrize(
        "path, value",
        [
            (("steps", 0, "dsigma_kg_m2"), "abc"),
            (("steps", 0, "r_frac"), None),
            (("stabilization", "window"), "x"),
            (("stabilization", "epsilon"), "x"),
            (("stabilization", "window"), math.inf),
            (("stabilization",), "x"),
        ],
        ids=["dsigma-string", "r_frac-null", "window-string", "epsilon-string",
             "window-inf", "stabilization-string"],
    )
    def test_malformed_steps_are_data_error(self, tmp_path, capsys, path, value):
        assert layers_steps(tmp_path, mutated(STEPS, path, value)) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: ")

    @pytest.mark.parametrize("kind", MUTANTS)
    @pytest.mark.parametrize("path", list(leaf_paths(TEMPLATE)), ids=lambda p: ".".join(map(str, p)))
    def test_fuzzed_template_maps_to_an_exit_code(self, tmp_path, table_path, capsys, path, kind):
        code = synth_template(tmp_path, table_path, mutated(TEMPLATE, path, MUTANTS[kind]))
        assert code in (0, 1, 2, 3)
        if code:
            assert capsys.readouterr().err.startswith("membrane-lab: ")

    @pytest.mark.parametrize("kind", MUTANTS)
    @pytest.mark.parametrize("path", list(leaf_paths(STEPS)), ids=lambda p: ".".join(map(str, p)))
    def test_fuzzed_steps_map_to_an_exit_code(self, tmp_path, capsys, path, kind):
        code = layers_steps(tmp_path, mutated(STEPS, path, MUTANTS[kind]))
        assert code in (0, 1, 2, 3)
        if code:
            assert capsys.readouterr().err.startswith("membrane-lab: ")

    @pytest.mark.parametrize("kind", MUTANTS)
    @pytest.mark.parametrize("path", list(leaf_paths(PROFILE)), ids=lambda p: ".".join(map(str, p)))
    @pytest.mark.parametrize("load", [modes_profile, synth_source], ids=["modes", "synth"])
    def test_fuzzed_profile_maps_to_an_exit_code(self, tmp_path, capsys, load, path, kind):
        code = load(tmp_path, mutated(PROFILE, path, MUTANTS[kind]))
        assert code in (0, 1, 2, 3)
        if code:
            assert capsys.readouterr().err.startswith("membrane-lab: ")

    @pytest.mark.parametrize("kind", MUTANTS)
    @pytest.mark.parametrize("path", list(leaf_paths(TABLE)), ids=lambda p: ".".join(map(str, p)))
    def test_fuzzed_mode_table_maps_to_an_exit_code(self, tmp_path, capsys, path, kind):
        code = synth_source(tmp_path, mutated(TABLE, path, MUTANTS[kind]))
        assert code in (0, 1, 2, 3)
        if code:
            assert capsys.readouterr().err.startswith("membrane-lab: ")

    @pytest.mark.parametrize("kind", MUTANTS)
    @pytest.mark.parametrize("load", [modes_profile, synth_source], ids=["modes", "synth"])
    def test_source_that_is_not_an_object_is_data_error(self, tmp_path, capsys, load, kind):
        assert load(tmp_path, MUTANTS[kind]) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: ")

    @pytest.mark.parametrize(
        "path",
        [("radius_m",), ("tension_n_per_m",), ("rings", 0, "r_frac"), ("rings", 0, "sigma_kg_m2")],
        ids=lambda p: ".".join(map(str, p)),
    )
    @pytest.mark.parametrize("load", [modes_profile, synth_source], ids=["modes", "synth"])
    def test_400_digit_integer_in_profile_is_data_error(self, tmp_path, capsys, load, path):
        assert load(tmp_path, mutated(PROFILE, path, 10 ** 400)) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: malformed profile document")

    @pytest.mark.parametrize("frequency", [math.nan, math.inf, 0.0, -100.0])
    def test_mode_table_frequency_must_be_positive_and_finite(
        self, tmp_path, capsys, monkeypatch, frequency
    ):
        from membrane_lab import cli

        def no_render(*args, **kwargs):
            raise AssertionError("the stroke was rendered")

        monkeypatch.setattr(cli, "render_stroke", no_render)
        assert synth_source(tmp_path, mutated(TABLE, ("modes", 0, "frequency_hz"), frequency)) == 2
        assert capsys.readouterr().err.startswith(
            "membrane-lab: mode frequency must be positive and finite"
        )
        assert not (tmp_path / "x.wav").exists()

    def test_400_digit_frequency_in_mode_table_is_data_error(self, tmp_path, capsys):
        assert synth_source(tmp_path, mutated(TABLE, ("modes", 0, "frequency_hz"), 10 ** 400)) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: malformed mode table document")

    @pytest.mark.parametrize("text", MATERIALS_MUTANTS.values(), ids=MATERIALS_MUTANTS.keys())
    def test_fuzzed_materials_csv_maps_to_an_exit_code(self, tmp_path, capsys, text):
        code = materials_csv(tmp_path, text)
        assert code in (0, 1, 2, 3)
        if code:
            assert capsys.readouterr().err.startswith("membrane-lab: ")

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("wood,1e10\n", "line 2 ('wood') does not have the header's 3 fields"),
            ("wood,1e10,600\nwood,2e10,700\n", "line 3 ('wood') repeats a material name"),
        ],
        ids=["short-row", "repeated-name"],
    )
    def test_malformed_materials_row_is_data_error(self, tmp_path, capsys, rows, message):
        assert materials_csv(tmp_path, "name,E_pa,rho_kg_m3\n" + rows) == 2
        assert capsys.readouterr().err.startswith(f"membrane-lab: samples CSV {message}")

    @pytest.mark.parametrize("command", ["analyze", "classify"])
    def test_zero_sample_rate_wav_is_data_error(self, tmp_path, capsys, command):
        zero_rate_wav(tmp_path / "x.wav")
        assert run(command, str(tmp_path / "x.wav")) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: WAV sample rate must be positive")


    @pytest.mark.parametrize("edit", WAV_EDITS.values(), ids=WAV_EDITS.keys())
    def test_fuzzed_wav_maps_to_an_exit_code(self, tmp_path, capsys, edit):
        path = tmp_path / "x.wav"
        tone_wav(path)
        raw = bytearray(path.read_bytes())
        at, value = edit
        if value is None:
            del raw[at:]
        else:
            raw[at] = value
        path.write_bytes(raw)
        for command in ("analyze", "classify"):
            code = run(command, str(path))
            assert code in (0, 2, 3)
            if code:
                assert capsys.readouterr().err.startswith("membrane-lab: ")
            capsys.readouterr()


class TestIntegralCounts:
    """Counts read from JSON must be integral: 2.0 is 2, and 2.9 is refused,
    not truncated."""

    def test_fractional_excitation_mode_is_data_error(self, tmp_path, table_path, capsys):
        template = mutated(TEMPLATE, ("excitations", 0, "mode"), 1.9)
        assert synth_template(tmp_path, table_path, template) == 2
        assert capsys.readouterr().err.startswith("membrane-lab: excitation mode must be an integer")

    def test_integral_float_excitation_mode_renders(self, tmp_path, table_path):
        template = mutated(TEMPLATE, ("excitations", 0, "mode"), 1.0)
        assert synth_template(tmp_path, table_path, template) == 0

    def test_fractional_stabilization_window_is_data_error(self, tmp_path, capsys):
        assert layers_steps(tmp_path, mutated(STEPS, ("stabilization", "window"), 2.9)) == 2
        assert capsys.readouterr().err.startswith(
            "membrane-lab: stabilization window must be an integer"
        )

    def test_integral_float_stabilization_window_runs(self, tmp_path, capsys):
        assert layers_steps(tmp_path, mutated(STEPS, ("stabilization", "window"), 2.0)) == 0

    @pytest.mark.parametrize("key", ["m", "n"])
    def test_fractional_mode_table_index_is_data_error(self, tmp_path, capsys, key):
        assert synth_source(tmp_path, mutated(TABLE, ("modes", 1, key), 1.9)) == 2
        assert capsys.readouterr().err.startswith(f"membrane-lab: mode {key} must be an integer")

    def test_integral_float_mode_table_index_renders(self, tmp_path):
        assert synth_source(tmp_path, mutated(TABLE, ("modes", 1, "m"), 1.0)) == 0


class TestSynthAnalyzeRoundTrip:
    def test_demo_stroke_verdicts_all_pass(self, tmp_path, capsys):
        wav = tmp_path / "demo.wav"
        assert run(
            "synth", str(DATA / "default_profile.json"), str(DATA / "demo_stroke.json"),
            "-o", str(wav), "--duration", "3.0",
        ) == 0
        report_path = tmp_path / "report.json"
        assert run("analyze", str(wav), "-o", str(report_path)) == 0
        doc = json.loads(report_path.read_text())
        assert len(doc["verdicts"]) == 3
        assert all(v["pass"] for v in doc["verdicts"])
        assert doc["label"] == "chappu"
        assert doc["decay"]["lambda_s"] == pytest.approx(2.0, rel=0.02)

    def test_spectrum_csv_sidecar(self, tmp_path):
        wav = tmp_path / "demo.wav"
        run(
            "synth", str(DATA / "default_profile.json"), str(DATA / "demo_stroke.json"),
            "-o", str(wav),
        )
        csv_path = tmp_path / "spectrum.csv"
        assert run(
            "analyze", str(wav), "--spectrum-csv", str(csv_path),
            "-o", str(tmp_path / "r.json"),
        ) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,magnitude"
        assert len(lines) == 1 + 32768 // 2 + 1

    def test_classify_prints_label_and_confidence(self, tmp_path, capsys):
        wav = tmp_path / "demo.wav"
        run(
            "synth", str(DATA / "default_profile.json"), str(DATA / "demo_stroke.json"),
            "-o", str(wav), "--duration", "2.5",
        )
        capsys.readouterr()
        assert run("classify", str(wav)) == 0
        label, conf = capsys.readouterr().out.split()
        assert label == "chappu"
        assert 0.5 < float(conf) <= 1.0

    def test_synth_from_mode_table_json(self, tmp_path):
        from membrane_lab.synth import reference_mode_table

        table_path = tmp_path / "table.json"
        import membrane_lab._jsonfmt as jf

        table_path.write_text(jf.dumps(reference_mode_table(100.0).to_json_dict()))
        wav = tmp_path / "ref.wav"
        assert run(
            "synth", str(table_path), str(DATA / "demo_stroke.json"), "-o", str(wav)
        ) == 0
        from membrane_lab.wav import read_wav

        samples, rate = read_wav(wav)
        assert rate == 44100
        assert samples.size == 2 * 44100

    def test_nyquist_violation_is_data_error(self, tmp_path):
        from membrane_lab.synth import reference_mode_table
        import membrane_lab._jsonfmt as jf

        table_path = tmp_path / "table.json"
        table_path.write_text(
            jf.dumps(reference_mode_table(9000.0).to_json_dict())
        )
        assert run(
            "synth", str(table_path), str(DATA / "demo_stroke.json"),
            "-o", str(tmp_path / "x.wav"),
        ) == 2


class TestLayersCommand:
    def test_csv_trace(self, tmp_path, capsys):
        steps = tmp_path / "steps.json"
        steps.write_text(json.dumps({
            "steps": [
                {"r_frac": 0.39, "dsigma_kg_m2": 0.1},
                {"r_frac": 0.2, "dsigma_kg_m2": 0.05},
            ]
        }))
        assert run(
            "layers", str(DATA / "uniform_profile.json"), str(steps)
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "layer,f_dheem_hz,f_chappu_hz,ratio"
        assert len(lines) == 3

    def test_json_trace_with_stabilization(self, tmp_path):
        steps = tmp_path / "steps.json"
        steps.write_text(json.dumps({
            "steps": [{"r_frac": 0.39, "dsigma_kg_m2": 0.0}] * 3,
        }))
        out = tmp_path / "trace.json"
        assert run(
            "layers", str(DATA / "uniform_profile.json"), str(steps),
            "--format", "json", "-o", str(out),
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["stabilized_at"] == 3
        assert len(doc["snapshots"]) == 3


class TestMaterialsCommand:
    def test_bundled_default_json(self, capsys):
        assert run("materials") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ranking"][0]["name"] == "jackfruit_axial"
        names = [r["name"] for r in doc["ranking"]]
        assert doc["transmission_matrix"][names[0]][names[0]] == 1.0

    def test_csv_format(self, capsys):
        assert run("materials", "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("name,src")

    def test_config_dir_override(self, tmp_path, monkeypatch, capsys):
        custom = tmp_path / "conf"
        custom.mkdir()
        (custom / "materials_samples.csv").write_text(
            "name,E_pa,rho_kg_m3\nonly_one,1e9,500\n"
        )
        monkeypatch.setenv("MEMBRANE_LAB_CONFIG", str(custom))
        assert run("materials") == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in doc["ranking"]] == ["only_one"]


class TestOptimizeCommand:
    def test_small_budget_reports(self, tmp_path):
        out = tmp_path / "opt.json"
        assert run(
            "optimize", "--budget", "210", "--seed", "42", "-o", str(out)
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 42
        assert doc["evaluations"] <= 210
        assert 0.0 <= doc["score"]
        assert "profile" in doc

    def test_graded_rejects_small_budget(self, capsys):
        assert run("optimize", "--graded", "--budget", "0") == 2
        assert "budget must be >= 200" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("optimize", "--budget", "210", "--seed", "42", "-o", str(a))
        run("optimize", "--budget", "210", "--seed", "42", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


_SOLVING_COMMANDS = r"""
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now fails
from membrane_lab.cli import main
data, out = sys.argv[2], sys.argv[3]
commands = [
    ["modes", f"{data}/default_profile.json"],
    ["layers", f"{data}/uniform_profile.json", f"{data}/layer_sequence.json"],
    ["synth", f"{data}/default_profile.json", f"{data}/demo_stroke.json", "-o", out,
     "--duration", "0.5", "--seed", "3"],
    ["optimize", "--budget", "200", "--seed", "5"],
]
results = []
for argv in commands:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    # The exit code, the output, and whether scipy has been imported by now.
    results.append([code, stdout.getvalue(), sys.modules.get("scipy") is not None])
results.append(open(out, "rb").read().hex())
print(json.dumps(results))
"""


def test_solving_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: with every import of it blocked, the
    # solving commands exit 0 and print exactly what they print unblocked,
    # and unblocked they never import it (modes runs composite_modes).
    import membrane_lab

    env = {**os.environ, "PYTHONPATH": str(Path(membrane_lab.__file__).parents[1])}
    runs = {}
    for mode in ("blocked", "free"):
        proc = subprocess.run(
            [sys.executable, "-c", _SOLVING_COMMANDS, mode, str(DATA), str(tmp_path / f"{mode}.wav")],
            env=env, capture_output=True, text=True, check=True,
        )
        runs[mode] = json.loads(proc.stdout)
    assert [(code, imported) for code, _, imported in runs["free"][:4]] == [(0, False)] * 4
    assert runs["blocked"] == runs["free"]


_LOADED_MODULES = r"""
import contextlib, io, json, sys
from membrane_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# Command -> the modules it must not import: each command loads only the
# layers it runs.
_UNUSED_LAYERS = {
    "modes": ("analysis", "loading", "synth", "wav", "materials"),
    "layers": ("analysis",),
    "synth": ("analysis",),
    "analyze": ("membrane", "bessel", "loading", "synth"),
    "classify": ("membrane", "bessel", "loading", "synth"),
}


@pytest.mark.parametrize("command", [*_UNUSED_LAYERS, "materials"])
def test_each_command_loads_only_the_layers_it_runs(tmp_path, command):
    import membrane_lab

    clip = tmp_path / "tone.wav"
    tone_wav(clip)
    argv = {
        "modes": ["modes", str(DATA / "default_profile.json")],
        "layers": ["layers", str(DATA / "uniform_profile.json"), str(DATA / "layer_sequence.json")],
        "synth": ["synth", str(DATA / "default_profile.json"), str(DATA / "demo_stroke.json"),
                  "-o", str(tmp_path / "x.wav"), "--duration", "0.2"],
        "analyze": ["analyze", str(clip)],
        "classify": ["classify", str(clip)],
        "materials": ["materials"],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(membrane_lab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(proc.stdout)
    assert code == 0
    if command == "materials":
        assert "numpy" not in modules
    else:
        loaded = [layer for layer in _UNUSED_LAYERS[command] if f"membrane_lab.{layer}" in modules]
        assert loaded == []


class TestJsonFormatter:
    def test_nine_significant_digits(self):
        from membrane_lab._jsonfmt import dumps

        out = dumps({"x": 1.0 / 3.0, "y": 123456789012.0, "z": True, "w": None})
        assert "0.333333333" in out
        assert "1.23456789e+11" in out
        assert "true" in out and "null" in out

    def test_numpy_scalars(self):
        from membrane_lab._jsonfmt import dumps

        out = dumps({"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(False)})
        assert "3" in out and "0.5" in out and "false" in out
        # A float32 prints as the double it widens to, a 0-d array as its
        # scalar and a 2-D array as nested lists.
        out = dumps([np.float32(0.1), np.array(2.5), np.array([[0.1, 2.0], [-3.5, 1e-20]])])
        assert out == (
            "[\n  0.100000001,\n  2.5,\n  [\n    [\n      0.1,\n      2\n    ],\n"
            "    [\n      -3.5,\n      1e-20\n    ]\n  ]\n]\n"
        )

    def test_rejects_nonfinite(self):
        from membrane_lab._jsonfmt import dumps

        with pytest.raises(ValueError):
            dumps({"x": float("nan")})

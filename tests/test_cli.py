import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from membrane_lab.cli import main
from membrane_lab.config import config_dir

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

    def test_garbage_wav_is_data_error(self, tmp_path):
        fake = tmp_path / "fake.wav"
        fake.write_bytes(b"not audio")
        assert run("analyze", str(fake)) == 2


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


def test_cli_import_loads_no_scipy_special():
    # The commands that never solve should not pay for importing scipy.special.
    import membrane_lab

    env = {**os.environ, "PYTHONPATH": str(Path(membrane_lab.__file__).parents[1])}
    code = "import sys, membrane_lab.cli; assert 'scipy.special' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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

    def test_rejects_nonfinite(self):
        from membrane_lab._jsonfmt import dumps

        with pytest.raises(ValueError):
            dumps({"x": float("nan")})

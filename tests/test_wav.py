import struct
import wave as wave_mod

import numpy as np
import pytest

from membrane_lab.errors import UnsupportedFormat
from membrane_lab.wav import read_wav, write_wav


class TestRoundTrip:
    def test_ramp_quantisation_bound(self, tmp_path):
        ramp = np.linspace(-1.0, 1.0, 1000)
        path = tmp_path / "ramp.wav"
        write_wav(ramp, 44100, path)
        back, rate = read_wav(path)
        assert rate == 44100
        assert back.shape == ramp.shape
        assert np.max(np.abs(back - ramp)) <= 1.0 / 32768.0

    def test_empty_waveform(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(np.array([]), 22050, path)
        back, rate = read_wav(path)
        assert back.size == 0
        assert rate == 22050

    def test_extremes_survive(self, tmp_path):
        path = tmp_path / "ext.wav"
        write_wav(np.array([-1.0, 0.0, 1.0]), 8000, path)
        back, _ = read_wav(path)
        assert back[0] == pytest.approx(-1.0)
        assert back[1] == 0.0
        assert back[2] == pytest.approx(1.0)

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(np.array([0.0, 1.2]), 44100, tmp_path / "x.wav")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match="finite"):
            write_wav(np.array([0.0, bad, 0.5]), 44100, path)
        assert not path.exists()


class TestHeaderBytes:
    def test_canonical_header_fields(self, tmp_path):
        # Byte offsets per the canonical 44-byte RIFF/WAVE header.
        path = tmp_path / "hdr.wav"
        write_wav(np.zeros(64), 44100, path)
        raw = path.read_bytes()
        assert raw[:4] == b"RIFF"
        assert raw[8:12] == b"WAVE"
        channels = struct.unpack_from("<H", raw, 22)[0]
        rate = struct.unpack_from("<I", raw, 24)[0]
        bits = struct.unpack_from("<H", raw, 34)[0]
        assert channels == 0x0001
        assert rate == 0x0000AC44
        assert bits == 16


class TestRejections:
    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave_mod.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(44100)
            w.writeframes(b"\x00\x00\x00\x00" * 16)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave_mod.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(44100)
            w.writeframes(b"\x80" * 16)
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"this is not a RIFF file at all")
        with pytest.raises(UnsupportedFormat):
            read_wav(path)

    def test_zero_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "rate0.wav"
        write_wav(np.zeros(64), 44100, path)
        raw = bytearray(path.read_bytes())
        raw[24:32] = bytes(8)  # the canonical header's sample rate and byte rate
        path.write_bytes(raw)
        with pytest.raises(UnsupportedFormat, match="sample rate must be positive, got 0"):
            read_wav(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "absent.wav")

    def test_2d_input_rejected(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            write_wav(np.zeros((4, 2)), 44100, tmp_path / "2d.wav")

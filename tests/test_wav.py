import math
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

    @pytest.mark.parametrize(
        "offset, value",
        [(16, v) for v in (0x00, 0x01, 0x7F, 0xFF)]
        + [(offset, v) for offset in (17, 18, 19) for v in (0x01, 0x7F, 0xFF)],
    )
    def test_bad_fmt_chunk_size_rejected(self, tmp_path, offset, value):
        # Bytes 16-19 hold the fmt chunk's size, 16: too small a chunk
        # makes wave raise EOFError, one reaching past the file RuntimeError.
        path = tmp_path / "fmt.wav"
        write_wav(np.zeros(64), 44100, path)
        raw = bytearray(path.read_bytes())
        raw[offset] = value
        path.write_bytes(raw)
        with pytest.raises(UnsupportedFormat, match="not a readable PCM WAV file"):
            read_wav(path)

    def test_data_cut_mid_sample_rejected(self, tmp_path):
        # The data chunk claims 4 frames (8 bytes); the file holds 5 bytes of it.
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        path = tmp_path / "cut.wav"
        path.write_bytes(
            b"RIFF" + struct.pack("<I", 36 + 8) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 8) + bytes(5)
        )
        with pytest.raises(UnsupportedFormat, match="not a readable PCM WAV file: .* after 5 bytes"):
            read_wav(path)

    @pytest.mark.parametrize("rate", [0, -5, math.nan, 44100.7, 44100.0, True, 2 ** 31, 2 ** 40])
    def test_rate_outside_the_header_is_refused(self, tmp_path, rate):
        path = tmp_path / "rate.wav"
        with pytest.raises(ValueError, match="sample rate must be an integer in"):
            write_wav(np.zeros(8), rate, path)
        assert not path.exists()

    def test_largest_rate_round_trips(self, tmp_path):
        path = tmp_path / "fast.wav"
        write_wav(np.zeros(8), 2 ** 31 - 1, path)
        assert read_wav(path)[1] == 2 ** 31 - 1

"""Mono 16-bit PCM WAV reading and writing.

Everything else (stereo, floats, 8/24/32-bit, compressed) is rejected with
UnsupportedFormat rather than silently converted.
"""

from __future__ import annotations

import wave

import numpy as np

from .errors import UnsupportedFormat

_FULL_SCALE = 32767.0


def write_wav(waveform, sample_rate: int, path) -> None:
    """Write samples in [-1, 1] as mono PCM16 little-endian."""
    samples = np.asarray(waveform, dtype=float)
    if samples.ndim != 1:
        raise UnsupportedFormat("only mono (1-D) waveforms are written")
    # written as a negation so that NaN, which fails every comparison, is refused
    if samples.size and not (np.min(samples) >= -1.0 and np.max(samples) <= 1.0):
        raise ValueError("waveform samples must be finite and lie in [-1, 1]")
    pcm = np.round(samples * _FULL_SCALE).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(sample_rate))
        w.writeframes(pcm.tobytes())


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a mono PCM16 WAV back to float64 samples in [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getcomptype() != "NONE":
                raise UnsupportedFormat(f"compressed WAV ({w.getcomptype()}) not supported")
            if w.getnchannels() != 1:
                raise UnsupportedFormat(
                    f"{w.getnchannels()}-channel WAV not supported; expected mono"
                )
            if w.getsampwidth() != 2:
                raise UnsupportedFormat(
                    f"{8 * w.getsampwidth()}-bit WAV not supported; expected 16-bit PCM"
                )
            rate = w.getframerate()
            if rate <= 0:
                raise UnsupportedFormat(f"WAV sample rate must be positive, got {rate}")
            raw = w.readframes(w.getnframes())
    except wave.Error as exc:
        raise UnsupportedFormat(f"not a readable PCM WAV file: {exc}") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(float) / _FULL_SCALE
    return samples, rate

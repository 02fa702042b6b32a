"""Stroke rendering: sums of exponentially damped sinusoids plus noise bursts.

A stroke is a recipe over a ModeTable: which modes ring, how hard, how fast
they die, and (for closed strokes) a short broadband slap.  Annular-space
materials are modelled as a per-family amplitude filter: reed strips
(kucchi) damp the nodal-circle family (m = 0), distributed particles
(thool) damp the nodal-diameter family (m > 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._jsonfmt import integral, number
from .errors import IndexOutOfRange, NyquistViolation
from .membrane import Mode, ModeTable

STROKE_NAMES = ("dheem", "chappu", "nam", "araichappu", "dhi", "ta", "thom", "gumkki")

MAX_RENDER_SAMPLES = 2 ** 26


@dataclass(frozen=True)
class Excitation:
    """One ringing mode: index into the table, starting amplitude, decay.

    glide_frac_per_s linearly ramps the frequency as a fraction of itself
    per second (the gumkki slide); it is a stylisation, not a measured
    quantity, and defaults to off.
    """

    mode_index: int
    amplitude: float
    decay_constant: float
    phase: float = 0.0
    glide_frac_per_s: float = 0.0

    def __post_init__(self):
        if self.mode_index < 0:
            raise ValueError("mode_index must be >= 0")
        if not (self.amplitude >= 0.0 and math.isfinite(self.amplitude)):
            raise ValueError("amplitude must be finite and >= 0")
        if not (self.decay_constant >= 0.0 and math.isfinite(self.decay_constant)):
            raise ValueError("decay_constant must be finite and >= 0")
        if not (math.isfinite(self.phase) and math.isfinite(self.glide_frac_per_s)):
            raise ValueError("phase and glide_frac_per_s must be finite")


@dataclass(frozen=True)
class NoiseBurst:
    amplitude: float
    duration: float

    def __post_init__(self):
        if not all(v >= 0.0 and math.isfinite(v) for v in (self.amplitude, self.duration)):
            raise ValueError("noise burst amplitude and duration must be finite and >= 0")


@dataclass(frozen=True)
class StrokeTemplate:
    name: str
    excitations: tuple[Excitation, ...] = ()
    noise_burst: NoiseBurst | None = None

    def __post_init__(self):
        object.__setattr__(self, "excitations", tuple(self.excitations))
        if self.name not in STROKE_NAMES:
            raise ValueError(f"unknown stroke name {self.name!r}; expected one of {STROKE_NAMES}")
        if not self.excitations and self.noise_burst is None:
            raise ValueError("template needs at least one excitation or a noise burst")

    def to_json_dict(self) -> dict:
        doc: dict = {
            "name": self.name,
            "excitations": [
                {
                    "mode": e.mode_index,
                    "amp": e.amplitude,
                    "lambda_s": e.decay_constant,
                    "phase": e.phase,
                    **({"glide_frac_per_s": e.glide_frac_per_s} if e.glide_frac_per_s else {}),
                }
                for e in self.excitations
            ],
        }
        if self.noise_burst is not None:
            doc["noise"] = {"amp": self.noise_burst.amplitude, "dur_s": self.noise_burst.duration}
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StrokeTemplate":
        try:
            excitations = tuple(
                Excitation(
                    integral(e["mode"], "excitation mode"),
                    number(e["amp"], "excitation amp"),
                    number(e["lambda_s"], "excitation lambda_s"),
                    number(e.get("phase", 0.0), "excitation phase"),
                    number(e.get("glide_frac_per_s", 0.0), "excitation glide_frac_per_s"),
                )
                for e in doc.get("excitations", [])
            )
            noise = doc.get("noise")
            burst = NoiseBurst(number(noise["amp"], "noise amp"),
                               number(noise["dur_s"], "noise dur_s")) if noise else None
            return cls(doc["name"], excitations, burst)
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed stroke template: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "StrokeTemplate":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class RenderSpec:
    sample_rate: int = 44100
    duration: float = 2.0
    peak_amplitude: float = 0.9

    def __post_init__(self):
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)):
            raise ValueError(f"sample_rate must be an integer, got {rate!r}")
        if not rate >= 8000:
            raise ValueError("sample_rate must be >= 8000 Hz")
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValueError("duration must be positive and finite")
        # Compared without turning the rate into a float, which a large int overflows.
        if rate > MAX_RENDER_SAMPLES / self.duration:
            raise ValueError(f"render longer than {MAX_RENDER_SAMPLES} samples")
        if not (0.0 < self.peak_amplitude <= 1.0):
            raise ValueError("peak_amplitude must lie in (0, 1]")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))


def render_stroke(
    modes: ModeTable,
    template: StrokeTemplate,
    spec: RenderSpec = RenderSpec(),
    seed: int = 0,
    normalize: bool = True,
) -> np.ndarray:
    """s(t) = sum_i a_i exp(-lambda_i t) sin(2 pi f_i t + phi_i) + burst.

    With normalize=True the waveform is scaled to spec.peak_amplitude; the
    raw sum (normalize=False) is what linearity properties hold for.
    """
    nyquist = spec.sample_rate / 2.0
    t = np.arange(spec.n_samples) / spec.sample_rate
    out = np.zeros_like(t)
    for e in template.excitations:
        if e.mode_index >= len(modes):
            raise IndexOutOfRange(
                f"mode index {e.mode_index} outside table of {len(modes)} modes"
            )
        f = modes[e.mode_index].frequency
        f_end = f * (1.0 + e.glide_frac_per_s * spec.duration)
        if max(f, f_end) >= nyquist:
            raise NyquistViolation(
                f"mode at {max(f, f_end):.1f} Hz reaches the Nyquist limit {nyquist:.1f} Hz"
            )
        # integrated phase of the (possibly gliding) partial
        inst = 2.0 * math.pi * f * (t + 0.5 * e.glide_frac_per_s * t * t) + e.phase
        out += e.amplitude * np.exp(-e.decay_constant * t) * np.sin(inst)
    if template.noise_burst is not None and template.noise_burst.duration > 0:
        n_burst = min(spec.n_samples, int(round(template.noise_burst.duration * spec.sample_rate)))
        rng = np.random.default_rng(seed)
        out[:n_burst] += template.noise_burst.amplitude * rng.uniform(-1.0, 1.0, n_burst)
    if normalize:
        peak = np.max(np.abs(out))
        if peak > 0:
            out *= spec.peak_amplitude / peak
    return out


def annular_filter(
    template: StrokeTemplate,
    modes: ModeTable,
    kind: str,
    suppression: float,
) -> StrokeTemplate:
    """Scale one mode family's amplitudes by `suppression`, keep the other.

    kucchi touches the axisymmetric (nodal-circle, m = 0) modes; thool
    touches the nodal-diameter (m > 0) modes.  suppression = 1 is the
    identity, and filters of the same kind compose multiplicatively.
    """
    if kind not in ("kucchi", "thool"):
        raise ValueError(f"kind must be 'kucchi' or 'thool', got {kind!r}")
    if not (0.0 <= suppression <= 1.0):
        raise ValueError("suppression must lie in [0, 1]")
    filtered = []
    for e in template.excitations:
        if e.mode_index >= len(modes):
            raise IndexOutOfRange(
                f"mode index {e.mode_index} outside table of {len(modes)} modes"
            )
        axisymmetric = modes[e.mode_index].m == 0
        hit = axisymmetric if kind == "kucchi" else not axisymmetric
        filtered.append(replace(e, amplitude=e.amplitude * suppression) if hit else e)
    return StrokeTemplate(template.name, tuple(filtered), template.noise_burst)


# ---------------------------------------------------------------------------
# Reference tables for the bundled stroke corpus.
#
# The right-head table is the idealised post-loading spectrum: shifted
# lowest mode at 1.07x the tuned pitch and integer overtones carried by
# alternating nodal-circle / nodal-diameter modes.  The left-head table is
# an illustrative bass head (a deep dominant below the comb it decorates);
# left-head physics is out of scope, synthesis just needs its mode list.
# ---------------------------------------------------------------------------

_RIGHT_HEAD_LAYOUT = (
    # (m, n, frequency ratio to the tuned pitch)
    (0, 1, 1.07),
    (1, 1, 2.00),
    (0, 2, 3.00),
    (2, 1, 3.00),
    (1, 2, 4.00),
    (3, 1, 4.00),
    (0, 3, 5.00),
)

_LEFT_HEAD_LAYOUT = (
    (0, 1, 0.55),
    (1, 1, 2.00),
    (0, 2, 3.00),
)


def reference_mode_table(pitch_hz: float, head: str = "right") -> ModeTable:
    """Idealised mode table tuned so the implied fundamental is pitch_hz."""
    if pitch_hz <= 0:
        raise ValueError("pitch must be positive")
    layout = {"right": _RIGHT_HEAD_LAYOUT, "left": _LEFT_HEAD_LAYOUT}.get(head)
    if layout is None:
        raise ValueError(f"head must be 'right' or 'left', got {head!r}")
    fp = f"reference-{head}-{pitch_hz:.9g}"
    modes = tuple(Mode(m, n, ratio * pitch_hz, fp) for m, n, ratio in layout)
    return ModeTable(fp, modes)

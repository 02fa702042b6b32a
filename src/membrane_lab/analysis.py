"""Spectral and temporal analysis of single-stroke recordings.

The pipeline is: magnitude spectrum -> prominent peaks (parabolic sub-bin
refinement) -> integer-comb fundamental search (the ~7%-sharp lowest mode
is flagged separately, never forced into the comb) -> per-band decay fits
-> RMS-envelope ADSR segmentation -> a transparent rule cascade that names
the stroke.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSize,
    InsufficientDecay,
    SilentInput,
    TooFewPeaks,
)
from .harmonicity import CharacteristicRatioVerdict, characteristic_verdicts, ratio_limits

_WINDOWS = ("hann", "rect")

# Comb matching half-width: 2% of the integer multiple.  Wide enough for
# real heads (the loosest book tolerance is ~4.7% on the shifted mode,
# which is handled separately), narrow enough that combs stay unambiguous.
COMB_TOLERANCE = 0.02
SHIFTED_RATIO = 1.07

# Decay fit: regress from the peak frame down to the first frame 40 dB
# below it; refuse to fit anything that never drops 10 dB.
_FIT_RANGE_DB = 40.0
_MIN_DROP_DB = 10.0

# ADSR: onset/release floor is 1% of peak; "peak attained" at 98%; a
# sustain plateau needs |dE/dt| < 5% of peak per second at a level above
# 10% of peak (below that, slow exponential tails would masquerade as
# sustain).
_ADSR_FLOOR = 0.01
_ADSR_PEAK_ATTAIN = 0.98
_ADSR_SLOPE_FRAC = 0.05
_ADSR_SUSTAIN_MIN_LEVEL = 0.10
_ADSR_LEVEL_BAND = 0.02

# Classifier thresholds, calibrated on the bundled synthetic corpus.
_PROMINENT_DB = 12.0
_TONAL_MIN_PROMINENCE = 20.0
_FLATNESS_CLOSED = 0.5
_LOW_DOMINANT_RATIO = 0.75
_DHEEM_BAND = 0.10
_RATIO_BAND = 0.12
_SLOW_DECAY_SPLIT = 5.0
_CENTROID_SPLIT = 3.3
_GLIDE_MIN_DRIFT = 0.02


@dataclass(frozen=True)
class Spectrum:
    bin_frequencies: np.ndarray
    magnitudes: np.ndarray
    window: str
    fft_size: int
    sample_rate: float

    def parseval_power(self) -> float:
        """(1/N) * sum over the full transform of |X|^2, from the half kept."""
        m = self.magnitudes
        total = m[0] ** 2 + m[-1] ** 2 + 2.0 * float(np.sum(m[1:-1] ** 2))
        return total / self.fft_size

    def to_csv(self) -> str:
        lines = ["frequency_hz,magnitude"]
        lines += [
            f"{f:.9g},{m:.9g}" for f, m in zip(self.bin_frequencies, self.magnitudes)
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Peak:
    frequency: float
    magnitude: float
    prominence_db: float


@dataclass(frozen=True)
class HarmonicGrouping:
    fundamental: float
    harmonic_indices: tuple[int, ...]
    shifted_index: int | None
    matched_magnitude: float


@dataclass(frozen=True)
class DecayFit:
    decay_constant: float
    intercept: float
    r_squared: float
    band_center: float


@dataclass(frozen=True)
class AdsrSegmentation:
    attack_s: float
    decay_s: float
    sustain_level: float
    sustain_s: float
    release_s: float


@dataclass(frozen=True)
class AnalysisReport:
    peaks: tuple[Peak, ...]
    fundamental_hz: float | None
    shift_ratio: float | None
    verdicts: tuple[CharacteristicRatioVerdict, ...]
    decay: DecayFit | None
    adsr: AdsrSegmentation | None
    label: str
    confidence: float

    def to_json_dict(self) -> dict:
        return {
            "peaks": [
                {"hz": p.frequency, "mag": p.magnitude, "prom_db": p.prominence_db}
                for p in self.peaks
            ],
            "fundamental_hz": self.fundamental_hz,
            "shift_ratio": self.shift_ratio,
            "verdicts": [
                {
                    "name": v.ratio_name,
                    "measured": v.measured,
                    "target": v.target,
                    "tolerance": v.tolerance,
                    "pass": v.passed,
                }
                for v in self.verdicts
            ],
            "decay": (
                {"lambda_s": self.decay.decay_constant, "r2": self.decay.r_squared}
                if self.decay
                else None
            ),
            "adsr": (
                {
                    "attack_s": self.adsr.attack_s,
                    "decay_s": self.adsr.decay_s,
                    "sustain_level": self.adsr.sustain_level,
                    "sustain_s": self.adsr.sustain_s,
                    "release_s": self.adsr.release_s,
                }
                if self.adsr
                else None
            ),
            "label": self.label,
            "confidence": self.confidence,
        }


def _samples(waveform, sample_rate: float) -> np.ndarray:
    """The samples as a float array; raises ValueError unless they are
    finite and the sample rate is positive and finite."""
    try:
        valid = sample_rate > 0 and math.isfinite(sample_rate)
    except OverflowError:  # an int too large for a float
        valid = False
    if not valid:
        raise ValueError(f"sample rate must be positive and finite, got {sample_rate}")
    x = np.asarray(waveform, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("waveform samples must be finite")
    return x


def compute_spectrum(
    waveform, sample_rate: float, fft_size: int, window: str = "hann"
) -> Spectrum:
    """Magnitude spectrum of the (windowed, padded/truncated) signal."""
    if fft_size < 256 or fft_size > 2 ** 20 or fft_size & (fft_size - 1):
        raise BadSize(f"fft_size must be a power of two in [256, 2^20], got {fft_size}")
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}")
    x = np.zeros(fft_size)
    src = _samples(waveform, sample_rate)[:fft_size]
    x[: src.size] = src
    if window == "hann":
        x = x * np.hanning(fft_size)
    mags = np.abs(np.fft.rfft(x))
    freqs = np.arange(mags.size) * (sample_rate / fft_size)
    return Spectrum(freqs, mags, window, fft_size, sample_rate)


def detect_peaks(
    spectrum: Spectrum, min_prominence_db: float = 12.0, max_peaks: int = 16
) -> list[Peak]:
    """Local maxima clearing the median noise floor, sub-bin refined.

    Refinement fits a parabola to the log magnitudes of the three bins
    around each maximum (the Julius Smith qint scheme).
    """
    if not (min_prominence_db >= 3 and math.isfinite(min_prominence_db)):
        raise ValueError("min_prominence_db must be finite and >= 3")
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    m = spectrum.magnitudes
    floor = float(np.median(m))
    if floor <= 0.0:
        positive = m[m > 0.0]
        if positive.size == 0:
            return []
        floor = float(np.min(positive))
    threshold = floor * 10.0 ** (min_prominence_db / 20.0)
    # also demand -100 dB of the strongest bin, or numerical dust "clears"
    # the floor of an otherwise silent band
    threshold = max(threshold, float(np.max(m)) * 1e-5)
    idx = np.nonzero(
        (m[1:-1] > m[:-2]) & (m[1:-1] >= m[2:]) & (m[1:-1] > threshold)
    )[0] + 1
    peaks = []
    bin_hz = spectrum.sample_rate / spectrum.fft_size
    for i in idx:
        lm, c, rm = (math.log(max(v, 1e-300)) for v in (m[i - 1], m[i], m[i + 1]))
        denom = lm - 2.0 * c + rm
        delta = 0.5 * (lm - rm) / denom if denom != 0.0 else 0.0
        height = c - 0.25 * (lm - rm) * delta
        freq = (i + delta) * bin_hz
        mag = math.exp(height)
        peaks.append(Peak(freq, mag, 20.0 * math.log10(mag / floor)))
    peaks.sort(key=lambda p: (-p.magnitude, p.frequency))
    return peaks[:max_peaks]


def _comb_eval(freqs, mags, candidate):
    """Match mask, integer multiples, and closeness-weighted score per tooth spacing.

    candidate is a scalar or a column of candidates, which broadcasts
    against the peaks; the score has one entry per candidate.
    """
    k = np.maximum(np.rint(freqs / candidate), 1.0)
    target = k * candidate
    rel_err = np.abs(freqs - target) / target
    sel = rel_err <= COMB_TOLERANCE
    score = np.sum(np.where(sel, (1.0 - rel_err / COMB_TOLERANCE) * mags, 0.0), axis=-1)
    return sel, k, score


def _ls_refine(freqs, mags, sel, k):
    """Magnitude-weighted least-squares fundamental through matched peaks."""
    ks = k[sel]
    w = mags[sel]
    return float(np.sum(w * ks * freqs[sel]) / np.sum(w * ks * ks))


def group_harmonics(
    peaks,
    f_search: tuple[float, float],
    resolution: float | None = None,
) -> HarmonicGrouping:
    """Comb search for the fundamental that explains the most peak magnitude.

    Candidates walk f_search on a quarter-bin grid; a peak matches integer
    k when it lies within 2% of k * candidate, and contributes its
    magnitude scaled by closeness to the tooth (a flat sum lets dense
    sub-harmonic combs poach peaks at the window edge).  The winner is
    polished by a magnitude-weighted least-squares fit through its matched
    peaks, so exact-integer combs come back exact.  A peak near 1.07x the
    winner is reported as the shifted lowest mode, never forced into the
    comb.
    """
    peaks = list(peaks)
    if len(peaks) < 2:
        raise TooFewPeaks("harmonic grouping needs at least two peaks")
    lo, hi = f_search
    if not (0.0 < lo < hi):
        raise ValueError("f_search must satisfy 0 < lo < hi")
    if resolution is None:
        resolution = (hi - lo) / 2000.0
    freqs = np.array([p.frequency for p in peaks])
    mags = np.array([p.magnitude for p in peaks])
    candidates = np.arange(lo, hi, resolution)
    if candidates.size == 0:
        candidates = np.array([lo])
    matched, k, scores = _comb_eval(freqs, mags, candidates[:, None])
    # remaining ties go to the higher candidate (sub-octaves explain the
    # same peaks with bigger k)
    order = np.lexsort((candidates, scores))
    best = order[-1]
    if not matched[best].any():
        raise TooFewPeaks("no candidate fundamental matched any peak")
    f0 = _ls_refine(freqs, mags, matched[best], k[best])
    # Sub-harmonics of the true fundamental match the same peaks and can
    # win the grid stage on alignment luck; an integer multiple that keeps
    # (nearly) the whole matched magnitude is the better fundamental.
    base_sel, base_k, base_score = _comb_eval(freqs, mags, f0)
    for mult in range(6, 1, -1):
        sel_m, k_m, score_m = _comb_eval(freqs, mags, mult * f0)
        if sel_m.any() and score_m >= 0.99 * base_score:
            f0 = _ls_refine(freqs, mags, sel_m, k_m)
            break
    final, _, _ = _comb_eval(freqs, mags, f0)
    harmonic_indices = tuple(int(i) for i in np.nonzero(final)[0])
    shifted = None
    shifted_target = SHIFTED_RATIO * f0
    for i in np.argsort(-mags):
        if final[i]:
            continue
        if abs(freqs[i] - shifted_target) <= COMB_TOLERANCE * shifted_target:
            shifted = int(i)
            break
    return HarmonicGrouping(
        fundamental=f0,
        harmonic_indices=harmonic_indices,
        shifted_index=shifted,
        matched_magnitude=float(np.sum(mags[final])),
    )


def _stft_band_track(waveform, sample_rate, band_center, band_width, frame_s, hop_s):
    """Per-frame max magnitude inside the band, with frame-centre times."""
    x = np.asarray(waveform, dtype=float)
    n_frame = int(round(frame_s * sample_rate))
    n_hop = max(1, int(round(hop_s * sample_rate)))
    if n_frame < 8:
        raise ValueError("frame too short")
    # Before the window is built, so that its size is bounded by the clip's.
    if x.size < n_frame:
        return np.empty(0), np.empty(0)
    window = np.hanning(n_frame)
    freqs = np.fft.rfftfreq(n_frame, 1.0 / sample_rate)
    band = (freqs >= band_center - band_width / 2.0) & (
        freqs <= band_center + band_width / 2.0
    )
    if not band.any():
        band = np.zeros_like(freqs, dtype=bool)
        band[np.argmin(np.abs(freqs - band_center))] = True
    frames = np.lib.stride_tricks.sliding_window_view(x, n_frame)[::n_hop]
    # Frames overlap n_frame / n_hop times, so transforming them all at once
    # would hold that many windowed copies of the clip; a block holds one.
    blocks = np.array_split(frames, max(1, n_frame // n_hop))
    mags = np.concatenate(
        [np.max(np.abs(np.fft.rfft(b * window, axis=-1)[:, band]), axis=-1) for b in blocks]
    )
    times = (n_hop * np.arange(len(frames)) + 0.5 * n_frame) / sample_rate
    return times, mags


def fit_decay(
    waveform,
    sample_rate: float,
    band_center: float,
    band_width: float,
    frame_s: float = 0.1,
    hop_s: float = 0.025,
) -> DecayFit:
    """First-order decay constant of one spectral band.

    Least squares on (t, ln magnitude) between the loudest frame and the
    first frame 40 dB quieter; lambda is the negated slope.
    """
    x = _samples(waveform, sample_rate)
    if band_center + band_width / 2.0 >= sample_rate / 2.0:
        raise ValueError("band extends past the Nyquist frequency")
    times, mags = _stft_band_track(x, sample_rate, band_center, band_width, frame_s, hop_s)
    if times.size < 8:
        raise ValueError("need at least 8 analysis frames for a decay fit")
    p = int(np.argmax(mags))
    peak = mags[p]
    if peak <= 0.0:
        raise InsufficientDecay("band is silent")
    tail = mags[p:]
    if np.min(tail) > peak * 10.0 ** (-_MIN_DROP_DB / 20.0):
        raise InsufficientDecay(
            f"band never drops {_MIN_DROP_DB:.0f} dB below its peak"
        )
    stop_level = peak * 10.0 ** (-_FIT_RANGE_DB / 20.0)
    below = np.nonzero(tail <= stop_level)[0]
    end = p + (int(below[0]) if below.size else tail.size - 1)
    end = max(end, p + 1)
    t = times[p : end + 1]
    y = np.log(np.maximum(mags[p : end + 1], 1e-300))
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(-float(slope), float(intercept), max(0.0, min(1.0, r2)), band_center)


def _moving_rms(x: np.ndarray, window: int) -> np.ndarray:
    """RMS over a window centred on each sample, zero beyond the clip.

    The window's ends are clipped onto the clip's running sum, not padded
    with zeros, so every array is the clip's size whatever the window's."""
    csum = np.concatenate([[0.0], np.cumsum(x * x)])
    start = np.arange(-(window // 2), x.size - window // 2)
    total = csum.take(start + window, mode="clip") - csum.take(start, mode="clip")
    return np.sqrt(np.maximum(total, 0.0) / window)


def segment_adsr(
    waveform, sample_rate: float, rms_window_s: float = 0.02
) -> AdsrSegmentation:
    """Attack / decay / sustain / release durations from the RMS envelope.

    The sustain plateau is found on a block-decimated envelope (instantaneous
    RMS ripple would swamp a per-sample slope test), then its edges are
    refined back on the fine envelope.  Signals with no plateau take the
    degenerate path: sustain 0, decay runs to the 1% floor, release 0.
    """
    if not (0.005 <= rms_window_s <= 0.1):
        raise ValueError("rms_window_s must lie in [0.005, 0.1]")
    x = _samples(waveform, sample_rate)
    if x.size == 0:
        raise SilentInput("empty waveform")
    w = max(2, int(round(rms_window_s * sample_rate)))
    env = _moving_rms(x, w)
    peak = float(np.max(env))
    if peak < 1e-6:
        raise SilentInput("peak envelope below 1e-6")
    floor = _ADSR_FLOOR * peak
    onset = int(np.argmax(env > floor))
    peak_idx = int(np.argmax(env >= _ADSR_PEAK_ATTAIN * peak))
    attack_s = max(0, peak_idx - onset) / sample_rate

    # block-mean envelope (hop = RMS window) for a ripple-free slope test
    n_blocks = env.size // w
    blocks = env[: n_blocks * w].reshape(n_blocks, w).mean(axis=1)
    slope = np.zeros(n_blocks)
    if n_blocks >= 3:
        slope[1:-1] = (blocks[2:] - blocks[:-2]) * sample_rate / (2.0 * w)
        slope[0] = slope[1]
        slope[-1] = slope[-2]
    plateau = (
        (np.abs(slope) < _ADSR_SLOPE_FRAC * peak)
        & (blocks >= _ADSR_SUSTAIN_MIN_LEVEL * peak)
        & (np.arange(n_blocks) * w >= peak_idx - w)
    )
    run_start, run_len = _longest_run(plateau)

    if run_len == 0:
        drops = np.nonzero(env[peak_idx:] <= floor)[0]
        decay_end = peak_idx + (int(drops[0]) if drops.size else env.size - 1 - peak_idx)
        return AdsrSegmentation(
            attack_s=attack_s,
            decay_s=(decay_end - peak_idx) / sample_rate,
            sustain_level=0.0,
            sustain_s=0.0,
            release_s=0.0,
        )

    coarse_lo = run_start * w
    coarse_hi = min((run_start + run_len) * w, env.size) - 1
    level = float(np.median(env[coarse_lo : coarse_hi + 1]))
    near = np.abs(env - level) <= _ADSR_LEVEL_BAND * peak
    lo = coarse_lo
    while lo > peak_idx and near[lo - 1]:
        lo -= 1
    hi = coarse_hi
    while hi + 1 < env.size and near[hi + 1]:
        hi += 1
    decay_s = max(0, lo - peak_idx) / sample_rate
    sustain_s = (hi - lo) / sample_rate
    after = np.nonzero(env[hi:] <= floor)[0]
    release_end = hi + (int(after[0]) if after.size else env.size - 1 - hi)
    return AdsrSegmentation(
        attack_s=attack_s,
        decay_s=decay_s,
        sustain_level=level / peak,
        sustain_s=sustain_s,
        release_s=(release_end - hi) / sample_rate,
    )


def _longest_run(mask: np.ndarray) -> tuple[int, int]:
    """(start, length) of the longest run of True, the earliest on a tie;
    (0, 0) when there is none."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    if not starts.size:
        return 0, 0
    lengths = np.flatnonzero(edges == -1) - starts
    best = int(np.argmax(lengths))
    return int(starts[best]), int(lengths[best])


def spectral_flatness(spectrum: Spectrum) -> float:
    """Geometric over arithmetic mean of the magnitudes (0 tonal, 1 flat)."""
    m = spectrum.magnitudes[1:]
    mean = float(np.mean(m))
    if mean <= 0.0:
        return 0.0
    gm = float(np.exp(np.mean(np.log(np.maximum(m, 1e-300)))))
    return gm / mean


def spectral_centroid(spectrum: Spectrum) -> float:
    m = spectrum.magnitudes
    total = float(np.sum(m))
    if total <= 0.0:
        return 0.0
    return float(np.sum(spectrum.bin_frequencies * m) / total)


@dataclass(frozen=True)
class ClipFeatures:
    """Everything the rule cascade looks at, extracted in one pass.

    grouping's harmonic_indices and shifted_index refer to grouped_peaks
    (the strong, de-duplicated list the comb search saw), not to the full
    peak list.  decay is the fit on the dominant partial.
    """

    peaks: tuple[Peak, ...]
    flatness: float
    grouped_peaks: tuple[Peak, ...] = ()
    dominant_ratio: float | None = None
    dominant_prominence_db: float = 0.0
    attack_centroid_ratio: float | None = None
    glide_drift: float = 0.0
    grouping: HarmonicGrouping | None = None
    adsr: AdsrSegmentation | None = None
    decay: DecayFit | None = None


def _merge_close_peaks(peaks, min_separation: float = 0.025):
    """Keep only the strongest of any cluster of near-coincident peaks.

    A gliding partial smears into several ripple maxima a couple of bins
    apart; for grouping purposes that is one peak, not a chord.
    """
    kept = []
    for p in sorted(peaks, key=lambda q: -q.magnitude):
        if all(abs(p.frequency - q.frequency) > min_separation * q.frequency for q in kept):
            kept.append(p)
    return kept


def _dominant_band_drift(waveform, sample_rate, dominant_hz) -> float:
    """Relative frequency drift of the dominant partial, early vs late."""
    x = np.asarray(waveform, dtype=float)
    seg = x.size // 3
    if seg < 2048:
        return 0.0
    width = max(dominant_hz * 0.5, 40.0)

    def seg_peak(part):
        n = 1 << int(math.floor(math.log2(part.size)))
        spec = compute_spectrum(part, sample_rate, max(256, min(n, 2 ** 20)))
        sel = (spec.bin_frequencies >= dominant_hz - width) & (
            spec.bin_frequencies <= dominant_hz + width * 1.8
        )
        if not sel.any():
            return dominant_hz
        mags = np.where(sel, spec.magnitudes, 0.0)
        return spec.bin_frequencies[int(np.argmax(mags))]

    early = seg_peak(x[:seg])
    late = seg_peak(x[2 * seg :])
    if early <= 0:
        return 0.0
    return (late - early) / early


def extract_features(
    waveform,
    sample_rate: float,
    fft_size: int = 32768,
    min_prominence_db: float = 8.0,
    max_peaks: int = 12,
    f_search: tuple[float, float] | None = None,
) -> ClipFeatures:
    """Run the full measurement stack on one clip."""
    x = _samples(waveform, sample_rate)
    spectrum = compute_spectrum(x, sample_rate, fft_size)
    peaks = tuple(detect_peaks(spectrum, min_prominence_db, max_peaks))
    flatness = spectral_flatness(spectrum)

    try:
        adsr = segment_adsr(x, sample_rate)
    except SilentInput:
        adsr = None

    strong = _merge_close_peaks(
        [p for p in peaks if p.prominence_db >= _PROMINENT_DB]
    )
    grouping = None
    if len(strong) >= 2:
        if f_search is None:
            # The true fundamental is never below half the lowest partial
            # (the comb would otherwise happily lock onto sub-multiples).
            lowest = min(p.frequency for p in strong)
            f_search = (max(10.0, lowest / 2.2), max(p.frequency for p in strong) * 1.05)
        try:
            grouping = group_harmonics(
                strong, f_search, resolution=sample_rate / fft_size / 4.0
            )
        except TooFewPeaks:
            grouping = None

    if grouping is None:
        return ClipFeatures(peaks, flatness, tuple(strong), adsr=adsr)

    f0 = grouping.fundamental
    dominant = max(strong, key=lambda p: p.magnitude)
    band = max(30.0, 0.5 * f0)
    try:
        decay_fit = fit_decay(x, sample_rate, dominant.frequency, band)
    except (InsufficientDecay, ValueError):
        decay_fit = None
    seg = x[: int(0.08 * sample_rate)]
    n_attack = 1 << int(math.ceil(math.log2(max(256, seg.size))))
    # window the segment itself before padding, or the pad cliff splatters
    attack_spec = compute_spectrum(
        seg * np.hanning(seg.size), sample_rate, n_attack, window="rect"
    )
    return ClipFeatures(
        peaks=peaks,
        flatness=flatness,
        grouped_peaks=tuple(strong),
        dominant_ratio=dominant.frequency / f0,
        dominant_prominence_db=dominant.prominence_db,
        attack_centroid_ratio=spectral_centroid(attack_spec) / f0,
        glide_drift=_dominant_band_drift(x, sample_rate, dominant.frequency),
        grouping=grouping,
        adsr=adsr,
        decay=decay_fit,
    )


def _clamp01(x: float) -> float:
    return max(0.0, min(1.0, x))


def classify_stroke(features: ClipFeatures) -> tuple[str, float]:
    """Rule cascade over the extracted features.

    Order: closed/noisy -> low inharmonic dominant (bass strokes, split by
    pitch glide) -> dominant-to-fundamental ratio (1.07 dheem; 2 chappu/dhi
    split on decay speed; 3 nam/araichappu split on attack brightness).
    """
    if not features.grouped_peaks and features.flatness > _FLATNESS_CLOSED:
        return "ta", _clamp01((features.flatness - 0.3) / 0.5)
    if (
        features.dominant_ratio is None
        or features.grouping is None
        # genuinely tonal clips tower over the floor; chance alignments in
        # broadband noise never reach this prominence
        or features.dominant_prominence_db < _TONAL_MIN_PROMINENCE
    ):
        if features.flatness > _FLATNESS_CLOSED:
            return "ta", _clamp01((features.flatness - 0.3) / 0.5)
        return "unknown", 0.0

    r = features.dominant_ratio
    if abs(features.glide_drift) >= _GLIDE_MIN_DRIFT and r < 1.5:
        # a sliding low partial is the bass glide stroke, whether the comb
        # locked onto the slider itself or onto the overtones above it
        return "gumkki", min(
            _clamp01(abs(features.glide_drift) / 0.03), _clamp01((1.5 - r) / 0.4)
        )
    if r < _LOW_DOMINANT_RATIO:
        return "thom", _clamp01((_LOW_DOMINANT_RATIO - r) / 0.25 + 0.35)
    if abs(r - SHIFTED_RATIO) <= _DHEEM_BAND:
        return "dheem", _clamp01(1.0 - abs(r - SHIFTED_RATIO) / _DHEEM_BAND)
    if abs(r - 2.0) <= _RATIO_BAND * 2.0:
        ratio_conf = _clamp01(1.0 - abs(r - 2.0) / (_RATIO_BAND * 2.0))
        lam = features.decay.decay_constant if features.decay else None
        if lam is None or lam < _SLOW_DECAY_SPLIT:
            decay_conf = 1.0 if lam is None else _clamp01((_SLOW_DECAY_SPLIT - lam) / 2.5)
            return "chappu", min(ratio_conf, decay_conf)
        return "dhi", min(ratio_conf, _clamp01((lam - _SLOW_DECAY_SPLIT) / 2.5))
    if abs(r - 3.0) <= _RATIO_BAND * 3.0:
        ratio_conf = _clamp01(1.0 - abs(r - 3.0) / (_RATIO_BAND * 3.0))
        c = features.attack_centroid_ratio
        if c is not None and c > _CENTROID_SPLIT:
            return "araichappu", min(ratio_conf, _clamp01((c - _CENTROID_SPLIT) / 0.6))
        bright = 1.0 if c is None else _clamp01((_CENTROID_SPLIT - c) / 0.6)
        return "nam", min(ratio_conf, bright)
    return "unknown", 0.0


def analyze(
    waveform,
    sample_rate: float,
    fft_size: int = 32768,
    min_prominence_db: float = 8.0,
    max_peaks: int = 12,
    f_search: tuple[float, float] | None = None,
    targets: dict | None = None,
    tolerances: dict | None = None,
) -> AnalysisReport:
    """Full pipeline: features, characteristic verdicts, classification."""
    targets, tolerances = ratio_limits(targets, tolerances)  # before any work
    features = extract_features(
        waveform, sample_rate, fft_size, min_prominence_db, max_peaks, f_search
    )
    label, confidence = classify_stroke(features)

    shift_ratio = None
    verdicts: tuple[CharacteristicRatioVerdict, ...] = ()
    grouping = features.grouping
    if grouping is not None:
        f0 = grouping.fundamental
        grouped = features.grouped_peaks
        freqs = [p.frequency for p in grouped]
        dheem_hz = freqs[grouping.shifted_index] if grouping.shifted_index is not None else None
        # with no shifted mode, the lowest grouped peak stands in for it
        shift_ratio = (min(freqs) if dheem_hz is None else dheem_hz) / f0
        by_k = {}
        for i in grouping.harmonic_indices:
            k = int(round(freqs[i] / f0))
            if k not in by_k or grouped[i].magnitude > grouped[by_k[k]].magnitude:
                by_k[k] = i
        if dheem_hz is not None and 2 in by_k and 3 in by_k:
            verdicts = tuple(
                characteristic_verdicts(
                    dheem_hz, freqs[by_k[2]], freqs[by_k[3]], targets, tolerances
                )
            )
    return AnalysisReport(
        peaks=features.peaks,
        fundamental_hz=grouping.fundamental if grouping else None,
        shift_ratio=shift_ratio,
        verdicts=verdicts,
        decay=features.decay,
        adsr=features.adsr,
        label=label,
        confidence=confidence,
    )

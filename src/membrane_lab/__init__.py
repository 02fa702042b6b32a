"""membrane-lab: centrally loaded drum membranes, from eigenmodes to audio.

Solves the modes of radially loaded circular membranes, inverse-designs
loading profiles that push the overtone series onto integers, renders
stroke tones as damped-sinusoid sums, and analyses the result back out of
audio (spectra, harmonic ratios, decay rates, ADSR envelopes).

The public names below are importable from the package itself; each
submodule is imported on the first use of one of its names (PEP 562), so
a program that needs only the materials figures never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "analysis": (
        "AdsrSegmentation", "AnalysisReport", "DecayFit", "Peak", "Spectrum", "analyze",
        "classify_stroke", "compute_spectrum", "detect_peaks", "extract_features", "fit_decay",
        "group_harmonics", "segment_adsr",
    ),
    "bessel": ("bessel_j", "bessel_y", "bessel_zero"),
    "harmonicity": (
        "CharacteristicRatioVerdict", "HarmonicAssessment", "characteristic_verdicts",
        "harmonicity_score", "implied_fundamental",
    ),
    "loading": (
        "LayerStep", "LayerTrace", "TwoRegionCandidate", "apply_layers", "graded_profile",
        "optimize_graded", "optimize_two_region", "simulate_layers",
    ),
    "materials": (
        "MaterialSample", "impedance", "material_report", "sound_radiation_coefficient",
        "transmission_coefficient",
    ),
    "membrane": (
        "Mode", "ModeTable", "RadialDensityProfile", "composite_modes", "default_ceiling",
        "find_degeneracies", "mode_shape", "uniform_modes",
    ),
    "synth": (
        "Excitation", "NoiseBurst", "RenderSpec", "StrokeTemplate", "annular_filter",
        "reference_mode_table", "render_stroke",
    ),
    "wav": ("read_wav", "write_wav"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE) + ["__version__"]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Exception hierarchy shared across the package, and the check of the
counts that callers pass to every layer."""

import math
import numbers


class MembraneLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MembraneLabError, ValueError):
    """Argument outside the mathematical domain of a function."""


class SolverError(MembraneLabError):
    """Eigenvalue machinery failed to deliver the requested modes."""


class ConvergenceError(SolverError):
    """A bracketed root did not converge within the iteration cap."""


class InsufficientCeiling(SolverError):
    """Fewer roots than requested were found below the frequency ceiling."""

    def __init__(self, azimuthal_order: int, found: int, requested: int, f_ceiling: float):
        self.azimuthal_order = azimuthal_order
        self.found = found
        self.requested = requested
        self.f_ceiling = f_ceiling
        super().__init__(
            f"m={azimuthal_order}: found {found} of {requested} requested roots "
            f"below ceiling {f_ceiling} Hz"
        )


class ProfileMismatch(MembraneLabError):
    """Mode does not originate from the supplied density profile."""


class TooFewFrequencies(MembraneLabError, ValueError):
    """Harmonicity operations need at least two (or three) frequencies."""


class TooFewPeaks(MembraneLabError, ValueError):
    """Harmonic grouping needs at least two peaks."""


class NonPositiveFrequency(MembraneLabError, ValueError):
    """Characteristic ratios are defined for positive frequencies only."""


class NyquistViolation(MembraneLabError, ValueError):
    """A rendered partial would alias above half the sample rate."""


class IndexOutOfRange(MembraneLabError, IndexError):
    """Excitation refers to a mode index not present in the table."""


class UnsupportedFormat(MembraneLabError):
    """WAV file is not mono 16-bit PCM."""


class BadSize(MembraneLabError, ValueError):
    """FFT size must be a power of two within the supported range."""


class InsufficientDecay(MembraneLabError):
    """Signal never drops far enough below its peak to fit a decay rate."""


class SilentInput(MembraneLabError):
    """Waveform is silent; envelope segmentation is undefined."""


class NonPositiveImpedance(MembraneLabError, ValueError):
    """Transmission coefficient needs strictly positive impedances."""


class InconsistentVelocityWarning(UserWarning):
    """Supplied sound velocity disagrees with sqrt(E/rho) by more than 1%."""


def _check_count(name: str, value, least: float, most: float = math.inf) -> None:
    """Refuse, with ValueError, a count that is not an integer (a bool is
    not one) or that lies outside [least, most]."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not least <= value <= most:
        bounds = f"lie in [{least}, {most}]" if most < math.inf else f"be >= {least}"
        raise ValueError(f"{name} must {bounds}")

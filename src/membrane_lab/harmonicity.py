"""Harmonicity scoring and the drum's characteristic frequency ratios.

The tuning convention throughout: the reference fundamental is half the
second-lowest prominent frequency, never the lowest mode itself, because
the lowest mode of a properly loaded head sits about 7% sharp of the
series it crowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveFrequency, TooFewFrequencies

# Chapter-6 targets and tolerances.  The book also quotes +/-0.01 on the
# 1.07 ratio and +/-0.05 on dheem/chappu in its construction chapter; both
# sets are legitimate, these are the defaults and all are overridable.
RATIO_TARGETS = {
    "dheem_to_fundamental": 1.07,
    "dheem_to_chappu": 0.534,
    "nam_to_chappu": 1.5,
}
RATIO_TOLERANCES = {
    "dheem_to_fundamental": 0.05,
    "dheem_to_chappu": 0.005,
    "nam_to_chappu": 0.012,
}

# Frequencies below this multiple of the implied fundamental (i.e. the
# shifted lowest mode) are excluded from integer assignment.
_OVERTONE_FLOOR = 1.5

# The highest integer a frequency is rated against, here and in the comb
# search of analysis.  Tooth k of a comb is 2% of k * f0 wide on each side,
# so at k = 10 it already spans 40% of the gap to its neighbours, and higher
# teeth match stray partials by chance.
MAX_OVERTONE = 10


@dataclass(frozen=True)
class RatioAssignment:
    """One frequency's fit against the integer comb.

    nearest is None when another frequency claimed the same integer with a
    smaller deviation; the entry is reported (never silently dropped) but
    only the claim winners score.  A drum head sounds its harmonics through
    whichever mode carries each integer best; shadow modes between the
    teeth do not spoil the series, they just do not help it.
    """

    ref: int
    ratio: float
    nearest: int | None
    deviation: float


@dataclass(frozen=True)
class HarmonicAssessment:
    implied_fundamental: float
    assigned_ratios: tuple[RatioAssignment, ...]
    score: float
    fundamental_shift: float


@dataclass(frozen=True)
class CharacteristicRatioVerdict:
    ratio_name: str
    measured: float
    target: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.target) <= self.tolerance


def _sorted_finite(frequencies) -> list[float]:
    fs = sorted(float(f) for f in frequencies)
    bad = [f for f in fs if not math.isfinite(f)]
    if bad:
        raise ValueError(f"frequencies must be finite, got {bad[0]}")
    return fs


def implied_fundamental(frequencies) -> float:
    """Half the second-lowest frequency: the pitch the head is tuned to."""
    fs = _sorted_finite(frequencies)
    if len(fs) < 2:
        raise TooFewFrequencies("implied fundamental needs at least two frequencies")
    return fs[1] / 2.0


def claim_integers(frequencies, max_overtone: int):
    """The claim rule, on rows of sorted frequencies, shape (..., modes).

    Each frequency above 1.5x its row's implied fundamental f0 is rated
    against its nearest integer multiple of f0 (half-way rounds up) unless
    that integer exceeds max_overtone.  Each integer k in 2 .. max_overtone
    is claimed by the frequency rated against it with the smallest
    |f / f0 - k|, the lowest such frequency on a tie.
    Returns (nearest, claimant, residual).  nearest, shape (..., modes),
    is each frequency's integer, 0 where it is not rated.  claimant and
    residual, shape (..., max_overtone - 1), hold for each k the index of
    the frequency that claims it and that frequency's f / f0 - k, or -1
    and 0 where no frequency claims k.
    """
    fs = np.asarray(frequencies, dtype=float)
    f0 = fs[..., 1:2] / 2.0
    ratio = fs / f0
    nearest = np.floor(ratio + 0.5)
    nearest = np.where((fs > f0 * _OVERTONE_FLOOR) & (nearest <= max_overtone), nearest, 0.0)
    ks = np.arange(2, max_overtone + 1)
    # deviation[..., k - 2, i] is |ratio_i - k| where frequency i is rated against k, else inf.
    deviation = np.where(
        nearest[..., None, :] == ks[:, None], np.abs(ratio[..., None, :] - ks[:, None]), np.inf
    )
    claimant = np.argmin(deviation, axis=-1)
    claimed = np.isfinite(np.min(deviation, axis=-1))
    residual = np.where(claimed, np.take_along_axis(ratio, claimant, axis=-1) - ks, 0.0)
    return nearest.astype(int), np.where(claimed, claimant, -1), residual


def harmonicity_score(frequencies, max_overtone: int = 7) -> HarmonicAssessment:
    """Squared deviation of the assigned overtone ratios from the integers.

    Every frequency above 1.5x the implied fundamental is rated against its
    nearest integer multiple; integers may be claimed once (collisions keep
    the smaller deviation, the loser is reported unassigned and does not
    score).  Frequencies whose nearest multiple exceeds max_overtone are
    out of analysis range.  The claims are claim_integers'.
    """
    fs = _sorted_finite(frequencies)
    if len(fs) < 3:
        raise TooFewFrequencies("harmonicity score needs at least three frequencies")
    if not 3 <= max_overtone <= MAX_OVERTONE:
        raise ValueError(f"max_overtone must be in [3, {MAX_OVERTONE}], got {max_overtone}")
    if fs[0] <= 0:
        raise NonPositiveFrequency(f"harmonicity score needs positive frequencies, got {fs[0]}")
    nearest, claimant, residual = claim_integers(fs, max_overtone)
    f0 = implied_fundamental(fs)
    winners = set(claimant.tolist())
    assignments = tuple(
        RatioAssignment(i, fs[i] / f0, k if i in winners else None, abs(fs[i] / f0 - k))
        for i, k in enumerate(nearest.tolist())
        if k
    )
    return HarmonicAssessment(
        implied_fundamental=f0,
        assigned_ratios=assignments,
        score=float(np.sum(residual * residual)),
        fundamental_shift=fs[0] / f0,
    )


def ratio_limits(targets: dict | None = None, tolerances: dict | None = None) -> tuple[dict, dict]:
    """RATIO_TARGETS and RATIO_TOLERANCES with the given entries merged over
    them.  Raises ValueError for a name that is not one of theirs, a target
    that is not finite and > 0, or a tolerance that is not finite and >= 0."""
    for kind, given in (("target", targets), ("tolerance", tolerances)):
        unknown = sorted(set(given or ()) - RATIO_TARGETS.keys())
        if unknown:
            raise ValueError(f"unknown ratio {kind} {unknown[0]!r}; known: {', '.join(RATIO_TARGETS)}")
    targets = {**RATIO_TARGETS, **(targets or {})}
    tolerances = {**RATIO_TOLERANCES, **(tolerances or {})}
    for name, target in targets.items():
        if not 0 < target < math.inf:
            raise ValueError(f"ratio target {name} must be finite and > 0, got {target}")
    for name, tol in tolerances.items():
        if not 0 <= tol < math.inf:
            raise ValueError(f"ratio tolerance {name} must be finite and >= 0, got {tol}")
    return targets, tolerances


def characteristic_verdicts(
    dheem: float,
    chappu: float,
    nam: float,
    targets: dict | None = None,
    tolerances: dict | None = None,
) -> list[CharacteristicRatioVerdict]:
    """Pass/fail on the three signature ratios of a well-made head; the
    frequencies must be finite, and the limits pass ratio_limits."""
    targets, tolerances = ratio_limits(targets, tolerances)
    if not all(math.isfinite(f) for f in (dheem, chappu, nam)):
        raise ValueError("characteristic ratios need finite frequencies")
    if min(dheem, chappu, nam) <= 0:
        raise NonPositiveFrequency("characteristic ratios need positive frequencies")
    measured = {
        "dheem_to_fundamental": dheem / (chappu / 2.0),
        "dheem_to_chappu": dheem / chappu,
        "nam_to_chappu": nam / chappu,
    }
    return [
        CharacteristicRatioVerdict(name, measured[name], targets[name], tolerances[name])
        for name in ("dheem_to_fundamental", "dheem_to_chappu", "nam_to_chappu")
    ]

"""Harmonicity scoring and the drum's characteristic frequency ratios.

The tuning convention throughout: the reference fundamental is half the
second-lowest prominent frequency, never the lowest mode itself, because
the lowest mode of a properly loaded head sits about 7% sharp of the
series it crowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def implied_fundamental(frequencies) -> float:
    """Half the second-lowest frequency: the pitch the head is tuned to."""
    fs = sorted(float(f) for f in frequencies)
    if len(fs) < 2:
        raise TooFewFrequencies("implied fundamental needs at least two frequencies")
    return fs[1] / 2.0


def harmonicity_score(frequencies, max_overtone: int = 7) -> HarmonicAssessment:
    """Squared deviation of the assigned overtone ratios from the integers.

    Every frequency above 1.5x the implied fundamental is rated against its
    nearest integer multiple; integers may be claimed once (collisions keep
    the smaller deviation, the loser is reported unassigned and does not
    score).  Frequencies whose nearest multiple exceeds max_overtone are
    out of analysis range.
    """
    fs = sorted(float(f) for f in frequencies)
    bad = [f for f in fs if not math.isfinite(f)]
    if bad:
        raise ValueError(f"frequencies must be finite, got {bad[0]}")
    if len(fs) < 3:
        raise TooFewFrequencies("harmonicity score needs at least three frequencies")
    if not 3 <= max_overtone <= 10:
        raise ValueError(f"max_overtone must be in [3, 10], got {max_overtone}")
    f0 = implied_fundamental(fs)
    entries = []
    for i, f in enumerate(fs):
        if f <= f0 * _OVERTONE_FLOOR:
            continue
        ratio = f / f0
        nearest = int(ratio + 0.5)  # half-way rounds up, no banker's ties
        if nearest > max_overtone:
            continue
        entries.append([i, ratio, nearest, abs(ratio - nearest)])

    best: dict[int, list] = {}
    for e in entries:
        claim = best.get(e[2])
        if claim is None or e[3] < claim[3]:
            best[e[2]] = e
    assignments = tuple(
        RatioAssignment(e[0], e[1], e[2] if best.get(e[2]) is e else None, e[3])
        for e in entries
    )
    score = sum(a.deviation ** 2 for a in assignments if a.nearest is not None)
    return HarmonicAssessment(
        implied_fundamental=f0,
        assigned_ratios=assignments,
        score=score,
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

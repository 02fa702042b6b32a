"""Figures of merit for resonator materials: SRC, impedance, transmission.

SRC = sqrt(E / rho^3) rewards loudness per applied force; impedance
mismatch between adjoining parts throttles transmitted intensity via the
normal-incidence plane-wave coefficient T = 4 z1 z2 / (z1 + z2)^2.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

from .errors import InconsistentVelocityWarning, NonPositiveImpedance


@dataclass(frozen=True)
class MaterialSample:
    name: str
    youngs_modulus: float
    density: float
    sound_velocity: float | None = None

    def __post_init__(self):
        if not all(v > 0 and math.isfinite(v) for v in (self.youngs_modulus, self.density)):
            raise ValueError("Young's modulus and density must be positive and finite")
        if self.sound_velocity is not None and not (
            self.sound_velocity > 0 and math.isfinite(self.sound_velocity)
        ):
            raise ValueError("sound velocity, when given, must be positive and finite")

    def velocity(self) -> float:
        """Supplied sound velocity, or sqrt(E/rho); warns when both exist
        and disagree by more than 1% (the supplied value wins)."""
        derived = math.sqrt(self.youngs_modulus / self.density)
        if self.sound_velocity is None:
            return derived
        if abs(self.sound_velocity - derived) > 0.01 * derived:
            warnings.warn(
                f"{self.name}: supplied velocity {self.sound_velocity:.6g} m/s differs "
                f"from sqrt(E/rho) = {derived:.6g} m/s by more than 1%; using supplied",
                InconsistentVelocityWarning,
            )
        return self.sound_velocity


def sound_radiation_coefficient(sample: MaterialSample) -> float:
    """SRC = v / rho (equivalently sqrt(E / rho^3) for a consistent v)."""
    return sample.velocity() / sample.density


def impedance(sample: MaterialSample) -> float:
    """Z = rho * v."""
    return sample.density * sample.velocity()


def transmission_coefficient(z1: float, z2: float) -> float:
    """Intensity fraction crossing a z1 | z2 interface at normal incidence."""
    if z1 <= 0 or z2 <= 0:
        raise NonPositiveImpedance("impedances must be positive")
    return 4.0 * z1 * z2 / (z1 + z2) ** 2


def load_samples_csv(text: str) -> list[MaterialSample]:
    """Parse `name,E_pa,rho_kg_m3[,v_m_s]` rows."""
    samples = []
    reader = csv.DictReader(io.StringIO(text))
    required = {"name", "E_pa", "rho_kg_m3"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ValueError(f"samples CSV needs columns {sorted(required)}")
    for row in reader:
        v = row.get("v_m_s") or None
        samples.append(
            MaterialSample(
                row["name"].strip(),
                float(row["E_pa"]),
                float(row["rho_kg_m3"]),
                float(v) if v else None,
            )
        )
    if not samples:
        raise ValueError("samples CSV contains no rows")
    return samples


def material_report(samples: list[MaterialSample]) -> dict:
    """Ranking by SRC plus the pairwise transmission matrix."""
    ranked = sorted(samples, key=lambda s: -sound_radiation_coefficient(s))
    zs = {s.name: impedance(s) for s in samples}
    return {
        "ranking": [
            {
                "name": s.name,
                "src_m4_per_kg_s": sound_radiation_coefficient(s),
                "impedance_kg_per_m2_s": zs[s.name],
                "sound_velocity_m_s": s.velocity(),
            }
            for s in ranked
        ],
        "transmission_matrix": {
            a.name: {
                b.name: transmission_coefficient(zs[a.name], zs[b.name])
                for b in samples
            }
            for a in samples
        },
    }

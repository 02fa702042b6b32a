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
    # Equal impedances can round one ulp above the physical bound of 1.
    return min(1.0, 4.0 * z1 * z2 / (z1 + z2) ** 2)


def load_samples_csv(text: str) -> list[MaterialSample]:
    """Parse `name,E_pa,rho_kg_m3[,v_m_s]` rows.

    Raises ValueError for a header that names a column twice and, naming
    the row, for a row with more or fewer fields than the header, a value
    MaterialSample refuses, no name, or a name already given, which would
    merge two rows of the transmission matrix into one.
    """
    samples: dict[str, MaterialSample] = {}
    reader = csv.DictReader(io.StringIO(text))
    required = {"name", "E_pa", "rho_kg_m3"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ValueError(f"samples CSV needs columns {sorted(required)}")
    if len(set(reader.fieldnames)) != len(reader.fieldnames):
        raise ValueError("samples CSV header names a column twice")
    for row in reader:
        name = (row["name"] or "").strip()
        where = f"samples CSV line {reader.line_num} ({name!r})"
        # DictReader keys extra fields under None and fills missing ones with None.
        if None in row or None in row.values():
            raise ValueError(f"{where} does not have the header's {len(reader.fieldnames)} fields")
        if not name:
            raise ValueError(f"{where} has no material name")
        if name in samples:
            raise ValueError(f"{where} repeats a material name")
        v = row.get("v_m_s") or None
        try:
            samples[name] = MaterialSample(
                name, float(row["E_pa"]), float(row["rho_kg_m3"]), float(v) if v else None
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if not samples:
        raise ValueError("samples CSV contains no rows")
    return list(samples.values())


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

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from membrane_lab.errors import InconsistentVelocityWarning, NonPositiveImpedance
from membrane_lab.materials import (
    MaterialSample,
    impedance,
    load_samples_csv,
    material_report,
    sound_radiation_coefficient,
    transmission_coefficient,
)


class TestSRC:
    def test_unit_sample(self):
        assert sound_radiation_coefficient(MaterialSample("u", 1.0, 1.0)) == 1.0

    def test_sqrt_arithmetic(self):
        assert sound_radiation_coefficient(MaterialSample("q", 4.0, 1.0)) == 2.0

    def test_density_power_law(self):
        base = sound_radiation_coefficient(MaterialSample("a", 5.0, 1.0))
        denser = sound_radiation_coefficient(MaterialSample("b", 5.0, 4.0))
        assert denser == pytest.approx(base / 8.0, rel=1e-12)

    def test_two_forms_agree_with_consistent_velocity(self):
        e, rho = 1.1e10, 600.0
        v = math.sqrt(e / rho)
        with_v = sound_radiation_coefficient(MaterialSample("w", e, rho, v))
        without = sound_radiation_coefficient(MaterialSample("w", e, rho))
        explicit = math.sqrt(e / rho ** 3)
        assert with_v == pytest.approx(explicit, rel=1e-12)
        assert without == pytest.approx(explicit, rel=1e-12)

    @given(
        e=st.floats(1e6, 1e12),
        rho=st.floats(10.0, 1e4),
        scale=st.floats(0.01, 100.0),
    )
    def test_ranking_invariant_under_unit_rescale(self, e, rho, scale):
        a = MaterialSample("a", e, rho)
        b = MaterialSample("b", 2.0 * e, 3.0 * rho)
        before = sound_radiation_coefficient(a) > sound_radiation_coefficient(b)
        a2 = MaterialSample("a", e * scale, rho * scale)
        b2 = MaterialSample("b", 2.0 * e * scale, 3.0 * rho * scale)
        after = sound_radiation_coefficient(a2) > sound_radiation_coefficient(b2)
        assert before == after

    def test_inconsistent_velocity_warns_and_uses_supplied(self):
        sample = MaterialSample("odd", 1e10, 600.0, 9999.0)
        with pytest.warns(InconsistentVelocityWarning):
            src = sound_radiation_coefficient(sample)
        assert src == pytest.approx(9999.0 / 600.0)


class TestSampleValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["youngs_modulus", "density", "sound_velocity"])
    def test_rejects_non_finite(self, field, value):
        fields = {"youngs_modulus": 1e10, "density": 600.0, "sound_velocity": 4000.0}
        fields[field] = value
        with pytest.raises(ValueError):
            MaterialSample("bad", **fields)


class TestImpedance:
    def test_unit(self):
        assert impedance(MaterialSample("u", 1.0, 1.0, 1.0)) == 1.0

    def test_water_like(self):
        assert impedance(MaterialSample("w", 2.25e9, 1000.0, 1500.0)) == pytest.approx(1.5e6)

    def test_invariant_under_compensating_change(self):
        a = impedance(MaterialSample("a", 1e9, 1000.0, 1000.0))
        with pytest.warns(InconsistentVelocityWarning):
            # doubled density, halved (supplied) velocity: same impedance
            b = impedance(MaterialSample("b", 1e9, 2000.0, 500.0))
        assert a == pytest.approx(b)


class TestTransmission:
    def test_matched_media(self):
        assert transmission_coefficient(3.7e6, 3.7e6) == 1.0

    def test_symmetry(self):
        assert transmission_coefficient(1.0e6, 4.2e6) == pytest.approx(
            transmission_coefficient(4.2e6, 1.0e6), rel=1e-15
        )

    def test_hundredfold_mismatch(self):
        assert transmission_coefficient(1.0, 100.0) == pytest.approx(0.0392, abs=5e-5)

    def test_monotone_in_mismatch(self):
        values = [transmission_coefficient(1.0, z) for z in (1.0, 1.5, 3.0, 10.0, 50.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        values_down = [transmission_coefficient(1.0, z) for z in (1.0, 0.7, 0.3, 0.05)]
        assert all(b < a for a, b in zip(values_down, values_down[1:]))

    def test_positive_required(self):
        with pytest.raises(NonPositiveImpedance):
            transmission_coefficient(0.0, 1.0)
        with pytest.raises(NonPositiveImpedance):
            transmission_coefficient(1.0, -2.0)

    @given(z1=st.floats(1e-3, 1e9), z2=st.floats(1e-3, 1e9))
    def test_bounded_in_unit_interval(self, z1, z2):
        t = transmission_coefficient(z1, z2)
        assert 0.0 < t <= 1.0


class TestCsvAndReport:
    CSV = (
        "name,E_pa,rho_kg_m3,v_m_s\n"
        "jack,1.1e10,600,\n"
        "glass,7.0e10,2500,5291.5\n"
    )

    def test_load(self):
        samples = load_samples_csv(self.CSV)
        assert [s.name for s in samples] == ["jack", "glass"]
        assert samples[0].sound_velocity is None
        assert samples[1].sound_velocity == 5291.5

    def test_report_structure(self):
        report = material_report(load_samples_csv(self.CSV))
        assert [r["name"] for r in report["ranking"]] == ["jack", "glass"]
        t = report["transmission_matrix"]
        assert t["jack"]["jack"] == 1.0
        assert t["jack"]["glass"] == pytest.approx(t["glass"]["jack"], rel=1e-15)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_samples_csv("name,youngs\nx,1\n")

    def test_empty_rows(self):
        with pytest.raises(ValueError):
            load_samples_csv("name,E_pa,rho_kg_m3\n")

    def test_bundled_samples_parse(self):
        from membrane_lab.config import config_dir

        text = (config_dir() / "materials_samples.csv").read_text()
        samples = load_samples_csv(text)
        assert len(samples) >= 4
        report = material_report(samples)
        woods = [r["name"] for r in report["ranking"] if r["name"].endswith("_axial")]
        assert woods[0] == "jackfruit_axial"


class TestSampleValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MaterialSample("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            MaterialSample("x", 1.0, -1.0)
        with pytest.raises(ValueError):
            MaterialSample("x", 1.0, 1.0, 0.0)

import json
import math

import numpy as np
import pytest

from membrane_lab import membrane
from membrane_lab.bessel import bessel_zero
from membrane_lab.errors import InsufficientCeiling, ProfileMismatch
from membrane_lab.membrane import (
    SCAN_DIVISIONS,
    Mode,
    ModeTable,
    RadialDensityProfile,
    composite_modes,
    default_ceiling,
    find_degeneracies,
    mode_shape,
    uniform_modes,
)

from oracles import two_region_modes, two_region_shape

UNIFORM_DRUM_RATIOS = [1.0, 1.59, 2.14, 2.30, 2.65, 3.16, 3.50]


def two_ring(fraction, ratio, radius=1.0, tension=1.0, field=1.0):
    return RadialDensityProfile(radius, tension, ((fraction, ratio * field), (1.0, field)))


class TestProfile:
    def test_json_round_trip(self):
        p = two_ring(0.4, 3.0, radius=0.09, tension=2500.0, field=0.26)
        q = RadialDensityProfile.loads(p.dumps())
        assert q == p
        assert q.fingerprint() == p.fingerprint()

    def test_wire_format_keys(self):
        doc = json.loads(two_ring(0.5, 2.0).dumps())
        assert set(doc) == {"radius_m", "tension_n_per_m", "rings"}
        assert set(doc["rings"][0]) == {"r_frac", "sigma_kg_m2"}

    @pytest.mark.parametrize(
        "rings",
        [
            (),
            ((0.5, 1.0),),  # last fraction != 1
            ((0.5, 1.0), (0.5, 2.0), (1.0, 1.0)),  # not strictly increasing
            ((1.0, -1.0),),
            ((1.0, 0.0),),
            ((1.2, 1.0),),
        ],
    )
    def test_invalid_rings(self, rings):
        with pytest.raises(ValueError):
            RadialDensityProfile(1.0, 1.0, rings)

    def test_invalid_scalars(self):
        with pytest.raises(ValueError):
            RadialDensityProfile(0.0, 1.0, ((1.0, 1.0),))
        with pytest.raises(ValueError):
            RadialDensityProfile(1.0, -2.0, ((1.0, 1.0),))

    def test_fingerprint_distinguishes(self):
        assert two_ring(0.4, 3.0).fingerprint() != two_ring(0.4, 3.0000001).fingerprint()


class TestUniformModes:
    def test_fundamental_value(self):
        table = uniform_modes(1.0, 1.0, 1.0, 0, 1)
        expected = bessel_zero(0, 1) / (2.0 * math.pi)
        assert table[0].frequency == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.38274, abs=1e-5)

    def test_quadrupled_tension_doubles_frequencies(self):
        a = uniform_modes(0.12, 900.0, 0.3, 3, 3)
        b = uniform_modes(0.12, 3600.0, 0.3, 3, 3)
        assert np.allclose(b.frequencies, 2.0 * a.frequencies, rtol=1e-12)

    def test_anharmonic_ratio_set(self):
        table = uniform_modes(1.0, 1.0, 1.0, 8, 8)
        ratios = table.frequencies / table.frequencies[0]
        for target in UNIFORM_DRUM_RATIOS:
            assert np.min(np.abs(ratios - target)) < 0.005

    def test_table_is_sorted_and_unique(self):
        table = uniform_modes(1.0, 1.0, 1.0, 5, 5)
        f = table.frequencies
        assert np.all(np.diff(f) >= 0)
        assert len({(mo.m, mo.n) for mo in table}) == len(table)

    def test_csv_export(self):
        table = uniform_modes(1.0, 1.0, 1.0, 1, 2)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "m,n,frequency_hz"
        assert len(lines) == 1 + len(table)
        m, n, f = lines[1].split(",")
        assert (int(m), int(n)) == (table[0].m, table[0].n)
        assert float(f) == pytest.approx(table[0].frequency, rel=1e-8)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            uniform_modes(1.0, 1.0, 1.0, 9, 4)
        with pytest.raises(ValueError):
            uniform_modes(1.0, -1.0, 1.0, 2, 2)


class TestCompositeModes:
    def test_degenerate_single_ring_matches_uniform(self):
        profile = RadialDensityProfile(0.105, 2200.0, ((1.0, 0.53),))
        uni = uniform_modes(0.105, 2200.0, 0.53, 4, 4)
        comp = composite_modes(profile, 4, 4, default_ceiling(profile, 4, 4))
        assert len(comp) == len(uni)
        rel = np.abs(comp.frequencies - uni.frequencies) / uni.frequencies
        assert np.max(rel) < 1e-8

    def test_two_ring_matches_closed_form_oracle(self):
        profile = two_ring(0.45, 4.2, radius=0.5, tension=800.0, field=0.4)
        for m in range(4):
            expected = two_region_modes(m, 3, 0.5, 800.0, 0.45, 4.2 * 0.4, 0.4)
            got = [mo.frequency for mo in composite_modes(profile, 3, 3, default_ceiling(profile, 3, 3)) if mo.m == m]
            for e, g in zip(expected, got):
                assert abs(g - e) / e < 1e-7

    def test_oracle_equivalence_randomised(self):
        # 20 random density steps; transfer matrix vs closed form < 1e-7.
        rng = np.random.default_rng(42)
        for _ in range(20):
            frac = rng.uniform(0.15, 0.85)
            ratio = rng.uniform(1.2, 12.0)
            m = int(rng.integers(0, 4))
            profile = two_ring(frac, ratio)
            table = composite_modes(profile, m, 2, default_ceiling(profile, 2, max(m, 2)))
            got = [mo.frequency for mo in table if mo.m == m]
            expected = two_region_modes(m, 2, 1.0, 1.0, frac, ratio, 1.0)
            for e, g in zip(expected, got):
                assert abs(g - e) / e < 1e-7

    def test_added_mass_lowers_every_frequency(self):
        base = two_ring(0.4, 2.0)
        heavier_inner = two_ring(0.4, 4.0)
        heavier_outer = RadialDensityProfile(1.0, 1.0, ((0.4, 2.0), (1.0, 1.5)))
        ceil = default_ceiling(heavier_inner, 3, 3)
        f0 = composite_modes(base, 3, 3, ceil).frequencies
        f1 = composite_modes(heavier_inner, 3, 3, ceil).frequencies
        f2 = composite_modes(heavier_outer, 3, 3, ceil).frequencies
        assert np.all(f1 < f0)
        assert np.all(f2 < f0)

    def test_density_scale_invariance_of_ratios(self):
        p1 = two_ring(0.35, 5.0)
        p2 = RadialDensityProfile(1.0, 1.0, tuple((f, 9.0 * s) for f, s in p1.rings))
        t1 = composite_modes(p1, 2, 2, default_ceiling(p1, 2, 2))
        t2 = composite_modes(p2, 2, 2, default_ceiling(p2, 2, 2))
        assert np.allclose(t2.frequencies * 3.0, t1.frequencies, rtol=1e-9)
        r1 = t1.frequencies / t1.frequencies[0]
        r2 = t2.frequencies / t2.frequencies[0]
        assert np.allclose(r1, r2, rtol=1e-9)

    def test_radius_scale_invariance_of_ratios(self):
        small = two_ring(0.35, 5.0, radius=0.08)
        big = two_ring(0.35, 5.0, radius=0.64)
        ts = composite_modes(small, 2, 2, default_ceiling(small, 2, 2))
        tb = composite_modes(big, 2, 2, default_ceiling(big, 2, 2))
        rs = ts.frequencies / ts.frequencies[0]
        rb = tb.frequencies / tb.frequencies[0]
        assert np.allclose(rs, rb, rtol=1e-8)

    def test_ring_count_convergence_of_ratios(self):
        # A continuous linear taper approximated by ever more rings: the
        # dheem/chappu ratio must converge as the staircase refines.
        def staircase(n_rings):
            bounds = np.linspace(0.0, 0.5, n_rings + 1)
            rings = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                mid = 0.5 * (lo + hi)
                rings.append((hi, 1.0 + 4.0 * (1.0 - mid / 0.5)))
            rings.append((1.0, 1.0))
            return RadialDensityProfile(1.0, 1.0, tuple(rings))

        ratios = []
        for n in (4, 8, 16, 32):
            p = staircase(n)
            t = composite_modes(p, 1, 1, default_ceiling(p, 1, 1))
            f = t.frequencies
            ratios.append(f[0] / f[1])
        deltas = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
        assert deltas[1] < deltas[0]
        assert deltas[2] < deltas[1]

    def test_insufficient_ceiling_reports_count(self):
        profile = two_ring(0.4, 2.0)
        # Ceiling below the second m=0 root: only one root findable.
        f1 = composite_modes(profile, 0, 1, default_ceiling(profile, 1, 0)).frequencies[0]
        with pytest.raises(InsufficientCeiling) as exc:
            composite_modes(profile, 0, 3, f1 * 1.05)
        assert exc.value.found == 1
        assert exc.value.requested == 3

    def test_ceiling_below_first_scan_step_finds_nothing(self):
        profile = two_ring(0.4, 2.0)
        step = math.sqrt(1.0 / 2.0) / 2.0 / SCAN_DIVISIONS
        with pytest.raises(InsufficientCeiling) as exc:
            composite_modes(profile, 2, 1, 0.5 * step)
        assert exc.value.found == 0

    @pytest.mark.parametrize(
        "a, b",
        [
            (1.003, 1.009),  # split by the first 4x finer look
            (1.00005, 1.002),  # still hidden there, split by the second
            (1.0000156, 1.000625),  # hidden at 4x and 16x, split by the third
        ],
    )
    def test_hidden_near_degenerate_pair_is_refined(self, monkeypatch, a, b):
        # Both roots sit inside one scan step (1.0, 1.025) of the unit
        # profile, so D never changes sign on the coarse grid.
        def pair(profile, orders, freqs):
            _, freqs = np.broadcast_arrays(orders, np.asarray(freqs, dtype=float))
            return [], (freqs - a) * (freqs - b)

        monkeypatch.setattr(membrane, "_propagate", pair)
        profile = RadialDensityProfile(1.0, 1.0, ((1.0, 1.0),))
        table = composite_modes(profile, 1, 2, 1.5)
        for m in (0, 1):
            got = [mo.frequency for mo in table if mo.m == m]
            assert np.allclose(got, [a, b], rtol=0.0, atol=1e-9)

    def test_scan_past_the_first_chunk_matches_oracle(self):
        # At contrast 50 the scan step follows the heavy patch, so the
        # seventh roots lie beyond the first 512-step chunk.
        profile = two_ring(0.1, 50.0)
        table = composite_modes(profile, 1, 7, default_ceiling(profile, 7, 1))
        step = math.sqrt(1.0 / 50.0) / 2.0 / SCAN_DIVISIONS
        for m in (0, 1):
            got = [mo.frequency for mo in table if mo.m == m]
            assert got[-1] > 513 * step
            expected = two_region_modes(m, 7, 1.0, 1.0, 0.1, 50.0, 1.0)
            assert len(expected) == 7
            for e, g in zip(expected, got):
                assert abs(g - e) / e < 1e-7

    def test_concurrent_order_solves_are_deterministic(self):
        from concurrent.futures import ThreadPoolExecutor

        profile = two_ring(0.3, 6.0)
        ceil = default_ceiling(profile, 2, 2)
        serial = composite_modes(profile, 2, 2, ceil)
        with ThreadPoolExecutor(max_workers=3) as pool:
            tables = list(pool.map(lambda _: composite_modes(profile, 2, 2, ceil), range(3)))
        for t in tables:
            assert np.array_equal(t.frequencies, serial.frequencies)


class TestModeShape:
    def setup_method(self):
        self.profile = two_ring(0.4, 3.2)
        self.table = composite_modes(self.profile, 2, 3, default_ceiling(self.profile, 3, 2))

    def pick(self, m, n):
        return next(mo for mo in self.table if (mo.m, mo.n) == (m, n))

    @staticmethod
    def interior_sign_changes(u):
        interior = u[1:-1]
        interior = interior[np.abs(interior) > 1e-9]
        return int(np.sum(np.sign(interior[:-1]) != np.sign(interior[1:])))

    def test_fundamental_has_no_interior_node(self):
        u = mode_shape(self.profile, self.pick(0, 1), 256)
        assert self.interior_sign_changes(u) == 0

    def test_second_axisymmetric_has_one_nodal_circle(self):
        u = mode_shape(self.profile, self.pick(0, 2), 256)
        assert self.interior_sign_changes(u) == 1

    def test_nodal_circle_count_matches_radial_index(self):
        for m in range(3):
            for n in range(1, 4):
                u = mode_shape(self.profile, self.pick(m, n), 512)
                assert self.interior_sign_changes(u) == n - 1

    def test_clamped_rim_and_normalisation(self):
        u = mode_shape(self.profile, self.pick(1, 2), 128)
        assert abs(u[-1]) <= 1e-9
        assert np.max(np.abs(u)) == pytest.approx(1.0)

    def test_uniform_fundamental_matches_j0(self):
        profile = RadialDensityProfile(1.0, 1.0, ((1.0, 1.0),))
        table = composite_modes(profile, 0, 1, default_ceiling(profile, 1, 0))
        u = mode_shape(profile, table[0], 128)
        r = np.linspace(0.0, 1.0, 128)
        from scipy import special

        ref = special.jv(0, bessel_zero(0, 1) * r)
        assert np.max(np.abs(u[:-1] - ref[:-1])) < 1e-6

    def test_matches_two_region_closed_form(self):
        r = np.linspace(0.0, 1.0, 256)
        for mode in self.table:
            ref = two_region_shape(mode.frequency, mode.m, 1.0, 1.0, 0.4, 3.2, 1.0, r)
            u = mode_shape(self.profile, mode, 256)
            assert np.max(np.abs(u - ref)) < 1e-8

    def test_32_rings_at_contrast_50(self):
        fracs = np.arange(1, 33) / 32.0
        profile = RadialDensityProfile(1.0, 1.0, tuple(zip(fracs, np.geomspace(50.0, 1.0, 32))))
        table = composite_modes(profile, 8, 2, default_ceiling(profile, 2, 8))
        for mode in table:
            if mode.m not in (0, 8):
                continue
            u = mode_shape(profile, mode, 512)
            assert np.all(np.isfinite(u))
            assert np.max(np.abs(u)) == 1.0
            assert self.interior_sign_changes(u) == mode.n - 1

    def test_profile_mismatch(self):
        other = two_ring(0.5, 3.2)
        with pytest.raises(ProfileMismatch):
            mode_shape(other, self.table[0], 128)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mode_shape(self.profile, self.table[0], 32)


class TestDegeneracies:
    def test_empty_table(self):
        assert find_degeneracies(ModeTable("x", ()), 0.01) == []

    def test_constructed_pair(self):
        modes = (
            Mode(0, 1, 100.0),
            Mode(1, 1, 100.05),
            Mode(0, 2, 250.0),
        )
        groups = find_degeneracies(ModeTable("", modes), 0.001)
        assert len(groups) == 1
        assert [mo.frequency for mo in groups[0]] == [100.0, 100.05]

    def test_uniform_membrane_has_no_groups_at_tight_tol(self):
        table = uniform_modes(1.0, 1.0, 1.0, 8, 8)
        assert find_degeneracies(table, 0.001) == []

    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            find_degeneracies(ModeTable("", ()), 0.0)
        with pytest.raises(ValueError):
            find_degeneracies(ModeTable("", ()), 0.06)

    def test_groups_are_disjoint_and_greedy(self):
        modes = tuple(
            Mode(0, i + 1, f) for i, f in enumerate([100.0, 100.02, 100.05, 180.0, 180.01])
        )
        groups = find_degeneracies(ModeTable("", modes), 0.001)
        assert [len(g) for g in groups] == [3, 2]
        flattened = [mo for g in groups for mo in g]
        assert len(flattened) == len(set((mo.m, mo.n) for mo in flattened))


class TestModeTableValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ModeTable("", (Mode(0, 1, 200.0), Mode(0, 2, 100.0)))

    def test_rejects_duplicate_pairs(self):
        with pytest.raises(ValueError):
            ModeTable("", (Mode(0, 1, 100.0), Mode(0, 1, 150.0)))

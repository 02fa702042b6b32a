import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membrane_lab import bessel, membrane
from membrane_lab.bessel import bessel_zero
from membrane_lab.errors import ConvergenceError, DomainError, InsufficientCeiling, ProfileMismatch
from membrane_lab.loading import graded_profile
from membrane_lab.membrane import (
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


# Contrast 400 makes the Sturm brackets of n = 1..3 at m = 0, 1 wide enough
# to hold the stubbed roots below: each spans about 0.06-0.24 to 1.2-4.9 Hz.
STUB_PROFILE = RadialDensityProfile(1.0, 9.0, ((0.5, 400.0), (1.0, 1.0)))


def stub_solution(monkeypatch, residual, derivative, count):
    """Replace the kernel with D = residual(f), the same for every order, and
    f dD/df = f derivative(f) when asked for, and the mode count with
    count(f); returns the frequency arrays evaluated."""
    calls = []

    def fake_propagate(geometry, orders, freqs, slope=False):
        calls.append(freqs)
        _, freqs = np.broadcast_arrays(orders, np.asarray(freqs, dtype=float))
        return [], freqs, residual(freqs), freqs * derivative(freqs) if slope else None

    monkeypatch.setattr(membrane, "_propagate", fake_propagate)
    monkeypatch.setattr(membrane, "_zero_count", lambda orders, coeffs, freqs: count(freqs))
    return calls


def stub_roots(monkeypatch, *roots):
    """A stub whose D vanishes exactly at the given roots, counted below f."""
    return stub_solution(
        monkeypatch,
        lambda f: np.prod([f - r for r in roots], axis=0),
        lambda f: np.sum(
            [np.prod([f - r for r in roots[:i] + roots[i + 1 :]], axis=0) for i in range(len(roots))],
            axis=0,
        ),
        lambda f: np.sum([f > r for r in roots], axis=0),
    )


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

    @pytest.mark.parametrize(
        "radius, tension, sigma",
        [
            (1e300, 1e-300, 1e300),  # sqrt(sigma/T) overflows
            (1e-300, 1e300, 1e-300),  # sqrt(sigma/T) underflows to 0
            (1e-250, 1.0, 1e-120),  # R sqrt(sigma/T) is subnormal
            (1e250, 1.0, 1e200),  # R sqrt(sigma/T) overflows
        ],
    )
    def test_a_ring_the_solver_cannot_scale_is_refused(self, radius, tension, sigma):
        with pytest.raises(ValueError, match=r"R\*sqrt\(sigma/T\) must be normal floats"):
            RadialDensityProfile(radius, tension, ((1.0, sigma),))

    def test_fingerprint_distinguishes(self):
        assert two_ring(0.4, 3.0).fingerprint() != two_ring(0.4, 3.0000001).fingerprint()

    @pytest.mark.parametrize(
        "path",
        [("radius_m",), ("tension_n_per_m",), ("rings", 0, "r_frac"), ("rings", 1, "sigma_kg_m2")],
    )
    def test_json_with_a_400_digit_integer_is_malformed(self, path):
        doc = json.loads(two_ring(0.5, 2.0).dumps())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 10 ** 400
        with pytest.raises(ValueError, match="malformed profile document"):
            RadialDensityProfile.from_json_dict(doc)

    @pytest.mark.parametrize(
        "args",
        [
            (10 ** 400, 1.0, ((1.0, 1.0),)),
            (1.0, 10 ** 400, ((1.0, 1.0),)),
            (1.0, 1.0, ((0.5, 10 ** 400), (1.0, 1.0))),
        ],
        ids=["radius", "tension", "density"],
    )
    def test_a_400_digit_integer_is_a_value_error(self, args):
        with pytest.raises(ValueError, match="profile values must be finite"):
            RadialDensityProfile(*args)

    @pytest.mark.parametrize("doc", [math.nan, None, -1, "rings", []])
    def test_json_that_is_not_an_object_is_malformed(self, doc):
        with pytest.raises(ValueError, match="malformed profile document"):
            RadialDensityProfile.from_json_dict(doc)


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

    def test_ceiling_below_the_first_root_finds_nothing(self):
        profile = two_ring(0.4, 2.0)
        f1 = composite_modes(profile, 0, 1, math.inf).frequencies[0]
        with pytest.raises(InsufficientCeiling) as exc:
            composite_modes(profile, 2, 1, 0.5 * f1)
        assert exc.value.found == 0

    @pytest.mark.parametrize(
        "a, b",
        [
            (1.003, 1.009),
            (1.00005, 1.002),
            (1.0000156, 1.000625),
            (1.0, 1.0000001),  # 1e-7 relative apart
        ],
    )
    def test_hidden_near_degenerate_pair_is_refined(self, monkeypatch, a, b):
        # Both roots of each order lie in the Sturm brackets of n = 1 and 2;
        # only the count tells them apart.
        stub_roots(monkeypatch, a, b)
        table = composite_modes(STUB_PROFILE, 1, 2, 3.0)
        for m in (0, 1):
            got = [mo.frequency for mo in table if mo.m == m]
            assert np.allclose(got, [a, b], rtol=0.0, atol=1e-9)
            assert got[0] < got[1]

    def test_seventh_roots_at_contrast_50_match_oracle(self):
        profile = two_ring(0.1, 50.0)
        table = composite_modes(profile, 1, 7, default_ceiling(profile, 7, 1))
        for m in (0, 1):
            got = [mo.frequency for mo in table if mo.m == m]
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

    @pytest.mark.parametrize("m_max, n_max", [(13, 1), (1_000_000, 1), (0, 21), (-1, 1), (0, 0)])
    def test_rejects_sizes_beyond_the_bessel_tables(self, m_max, n_max):
        with pytest.raises(ValueError, match="m_max must lie in"):
            composite_modes(two_ring(0.4, 3.7), m_max, n_max, 300.0)

    def test_rejects_nan_ceiling_and_accepts_infinite(self):
        profile = two_ring(0.4, 3.7)
        with pytest.raises(ValueError, match="f_ceiling must be positive"):
            composite_modes(profile, 1, 2, math.nan)
        finite = composite_modes(profile, 1, 2, default_ceiling(profile, 2, 1))
        assert np.array_equal(composite_modes(profile, 1, 2, math.inf).frequencies, finite.frequencies)

    def test_polish_work_per_solve(self, monkeypatch):
        # Counts, not time: the objective's solve (two-region 0.4/3.7 at
        # m <= 4, n <= 4) polishes only the 20 brackets the table keeps, and
        # the whole solve, isolation included, stays far below the 2,257
        # residual points that scanning and bisecting 34 brackets once cost.
        received, points = [], []
        polish, propagate = membrane._polish, membrane._propagate

        def counted_polish(geometry, orders, *rest):
            received.append(orders.size)
            return polish(geometry, orders, *rest)

        def counted_propagate(geometry, orders, freqs, **kwargs):
            out = propagate(geometry, orders, freqs, **kwargs)
            points.append(out[2].size)
            return out

        monkeypatch.setattr(membrane, "_polish", counted_polish)
        monkeypatch.setattr(membrane, "_propagate", counted_propagate)
        profile = two_ring(0.4, 3.7)
        composite_modes(profile, 4, 4, default_ceiling(profile, 4, 4))
        assert received == [20]
        assert sum(points) < 1500


class TestTables:
    @pytest.mark.parametrize(
        "profile, table",
        [
            (two_ring(0.4, 3.7), lambda p: composite_modes(p, 4, 4, math.inf)),
            (graded_profile(0.4, 1.2, 1.5, 16), lambda p: composite_modes(p, 3, 5, math.inf)),
            (
                RadialDensityProfile(0.3, 9.0, ((1.0, 40.0),)),
                lambda p: uniform_modes(p.radius, p.tension, p.densities[0], 8, 8),
            ),
        ],
        ids=["two-region", "graded-16-rings", "uniform"],
    )
    def test_table_is_sorted_and_carries_the_profile_fingerprint(self, profile, table):
        modes = table(profile)
        keys = [(mo.frequency, mo.m, mo.n) for mo in modes]
        assert keys == sorted(keys)
        m_max, n_max = max(mo.m for mo in modes), max(mo.n for mo in modes)
        assert len(modes) == len({(mo.m, mo.n) for mo in modes}) == (m_max + 1) * n_max
        assert modes.profile_fingerprint == profile.fingerprint()
        assert {mo.source_fingerprint for mo in modes} == {profile.fingerprint()}


class TestStackedSolve:
    @pytest.mark.parametrize(
        "profiles, m_max, n_max",
        [
            (
                [two_ring(f, r) for f in np.linspace(0.1, 0.7, 5) for r in np.linspace(1.0, 16.0, 5)],
                4,
                4,
            ),
            ([graded_profile(0.4, mass, 1.5, 16) for mass in (0.0, 0.3, 1.2, 4.0)], 4, 4),
            (
                [
                    RadialDensityProfile(0.1, 2500.0, ((1.0, 0.26),)),
                    RadialDensityProfile(1.0, 1.0, ((1.0, 1.0),)),
                    RadialDensityProfile(0.3, 9.0, ((1.0, 40.0),)),
                ],
                12,
                3,
            ),
        ],
        ids=["two-region-grid", "graded-16-rings", "single-ring"],
    )
    def test_stack_equals_lone_solves_bit_for_bit(self, profiles, m_max, n_max):
        stacked = membrane._solve_stack(profiles, m_max, n_max, math.inf)
        assert stacked.shape == (len(profiles), (m_max + 1) * n_max)
        for profile, row in zip(profiles, stacked):
            lone = {
                (mo.m, mo.n): mo.frequency.hex()
                for mo in composite_modes(profile, m_max, n_max, math.inf)
            }
            mn_order = [(m, n) for m in range(m_max + 1) for n in range(1, n_max + 1)]
            assert [f.hex() for f in row] == [lone[mn] for mn in mn_order]

    def test_stack_refuses_unequal_ring_counts(self):
        profiles = [two_ring(0.4, 3.7), RadialDensityProfile(1.0, 1.0, ((1.0, 1.0),))]
        with pytest.raises(ValueError, match="equal ring count"):
            membrane._solve_stack(profiles, 1, 1, math.inf)

    def test_short_ceiling_names_the_profile_order_in_a_stack(self):
        # Loading only lowers modes: the heavy head clears a ceiling between
        # the unloaded head's m = 0 and m = 1 roots, and the unloaded head
        # comes up short at m = 1.
        heavy, light = two_ring(0.4, 30.0), two_ring(0.4, 1.0)
        f = composite_modes(light, 1, 1, math.inf).frequencies
        ceiling = 0.5 * (f[0] + f[1])
        assert composite_modes(heavy, 1, 1, ceiling).frequencies.max() < ceiling
        with pytest.raises(InsufficientCeiling) as exc:
            membrane._solve_stack([heavy, light], 1, 1, ceiling)
        assert (exc.value.azimuthal_order, exc.value.found) == (1, 0)


class TestChunkedKernel:
    CHUNK = membrane._CHUNK

    @staticmethod
    def points(size):
        """size kernel points, each of one of three two-ring profiles at an
        order in [0, 8] and a frequency spanning their lowest roots."""
        rng = np.random.default_rng(size)
        geometry = membrane._ring_geometry([two_ring(0.4, 3.7), two_ring(0.2, 12.0), two_ring(0.6, 1.5)])
        return (geometry[..., rng.integers(0, 3, size)], rng.integers(0, 9, size).astype(float),
                rng.uniform(0.05, 3.0, size))

    @pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    def test_chunks_join_to_one_calls_bits(self, monkeypatch, size):
        # The probe's counts and D, and the polish's D and f dD/df, taken
        # _CHUNK points a call, are one call's to the bit.
        geometry, orders, freqs = self.points(size)
        whole = [*membrane._count(geometry, orders, freqs), *membrane._rim(geometry, orders, freqs)]
        sizes = []
        propagate = membrane._propagate
        monkeypatch.setattr(
            membrane, "_propagate", lambda g, o, f, **kw: sizes.append(f.size) or propagate(g, o, f, **kw)
        )
        chunked = [*membrane._probe(geometry, orders, freqs),
                   *membrane._in_chunks(membrane._rim, geometry, orders, freqs)]
        assert sizes == 2 * [min(self.CHUNK, size - at) for at in range(0, size, self.CHUNK)]
        assert np.array_equal(chunked[0], whole[0])
        for a, b in zip(chunked[1:], whole[1:]):
            assert a.shape == (size,) and np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_a_probe_of_one_profile_broadcasts_across_chunks(self, monkeypatch):
        # One profile's geometry, shape (2, rings, 1), serves every chunk.
        profile = two_ring(0.4, 3.7)
        m = np.repeat(np.arange(5), 4)
        roots = membrane._solve_stack([profile], 4, 4, math.inf)[0]
        monkeypatch.setattr(membrane, "_CHUNK", 7)
        counts, _ = membrane._probe(membrane._ring_geometry([profile]), m, roots * (1.0 + 1e-9))
        assert np.array_equal(counts, np.tile(np.arange(1, 5), 5))

    def test_roots_of_random_profiles_do_not_depend_on_the_chunk(self, monkeypatch):
        # 48 random profiles of 1-33 rings at density contrast up to 50,
        # solved with every kernel call cut to 7 points and in whole calls.
        rng = np.random.default_rng(19)
        profiles = []
        for _ in range(48):
            count = int(rng.integers(1, 34))
            edges = np.cumsum(rng.uniform(1.0, 10.0, count))
            edges /= edges[-1]
            edges[-1] = 1.0
            profiles.append(RadialDensityProfile(1.0, 1.0, tuple(zip(edges, rng.uniform(1.0, 50.0, count)))))
        monkeypatch.setattr(membrane, "_CHUNK", 10 ** 9)
        whole = [membrane._solve_stack([p], 4, 4, math.inf)[0] for p in profiles]
        monkeypatch.setattr(membrane, "_CHUNK", 7)
        for profile, row in zip(profiles, whole):
            chunked = membrane._solve_stack([profile], 4, 4, math.inf)[0]
            assert [f.hex() for f in chunked] == [f.hex() for f in row]

    def test_a_288_profile_stack_peaks_no_higher_than_64_profiles_in_whole_calls(self):
        # With every step one kernel call, a 64-profile stack of these grid
        # points peaked at 4.94 MB under tracemalloc, ~76 KB per profile,
        # and a 288-profile one at 20.6 MB.
        import itertools
        import tracemalloc

        axes = (np.linspace(0.1, 0.7, 24), np.linspace(1.0, 16.0, 24))
        profiles = [two_ring(f, r) for f, r in itertools.islice(itertools.product(*axes), 288)]
        membrane._solve_stack(profiles[:1], 4, 4, math.inf)  # load the Bessel tables first
        tracemalloc.start()
        try:
            membrane._solve_stack(profiles, 4, 4, math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.94e6


# Stub residuals with a root at 1.003 inside the bracket [1.0, 1.05].
POLISH_STUBS = pytest.mark.parametrize(
    "residual, derivative, most",
    [
        # D(lo) -0.45, D(hi) 1.2e4; the polish takes 7 calls, Illinois
        # false position took 18.
        (lambda f: np.expm1(200.0 * (f - 1.003)), lambda f: 200.0 * np.exp(200.0 * (f - 1.003)), 8),
        # flat at the root
        (lambda f: (f - 1.003) ** 3, lambda f: 3.0 * (f - 1.003) ** 2, math.inf),
        # The chord's zero is the first Newton point: it lands on the root's
        # grid cell, and the Newton step from there closes the bracket.
        (lambda f: f - 1.003, np.ones_like, 2),
    ],
    ids=["asymmetric", "cubic", "linear"],
)


class TestPolish:
    @staticmethod
    def bisection_steps(residual, lo, hi):
        # Reference: plain bisection on the grid of 38-significant-bit
        # floats, each point the grid point nearest the midpoint, kept
        # strictly inside the bracket, with the polish's stop rule: no grid
        # point left strictly inside.
        cell = 1 << membrane._GRID_BITS
        bits = lambda f: int(np.float64(f).view(np.int64))
        d_lo, steps = residual(lo), 0
        while True:
            first, last = (bits(lo) & -cell) + cell, (bits(hi) - 1) & -cell
            if first > last:
                return steps
            near = (bits(0.5 * (lo + hi)) + cell // 2) & -cell
            mid = float(np.int64(min(max(near, first), last)).view(np.float64))
            d_mid = residual(mid)
            if d_lo * d_mid < 0.0:
                hi = mid
            else:
                lo, d_lo = mid, d_mid
            steps += 1

    @staticmethod
    def polish(residual, lo=1.0, hi=1.05):
        lo, hi = np.array([lo]), np.array([hi])
        geometry = np.ones((2, 1, 1))  # one ring, ignored by the stub
        return membrane._polish(geometry, np.zeros(1), lo, hi, residual(lo), residual(hi))[0]

    @POLISH_STUBS
    def test_converges_within_bisection_count(self, monkeypatch, residual, derivative, most):
        calls = stub_solution(monkeypatch, residual, derivative, None)
        root = self.polish(residual)
        assert abs(root - 1.003) <= 1e-11 * 1.003
        assert len(calls) <= self.bisection_steps(residual, 1.0, 1.05) + membrane._POLISH_SLACK
        assert len(calls) <= most

    @POLISH_STUBS
    def test_root_is_the_midpoint_of_the_grid_cell_bracketing_it(
        self, monkeypatch, residual, derivative, most
    ):
        # The grid of 38-significant-bit floats is 2^-37 apart in [1, 2).
        spacing = 2.0 ** -37
        cell = math.floor(1.003 / spacing) * spacing
        assert residual(cell) < 0.0 < residual(cell + spacing)
        stub_solution(monkeypatch, residual, derivative, None)
        assert self.polish(residual) == cell + 0.5 * spacing

    def test_exact_zero_at_a_bisection_point_comes_back_unchanged(self, monkeypatch):
        # The first bisection point of (m, n) = (0, 1) depends only on its
        # Sturm bracket; record it, then put the first root exactly there.
        calls = stub_roots(monkeypatch, 0.5, 1.0)
        composite_modes(STUB_PROFILE, 0, 2, 3.0)
        zero = calls[1][0]  # call 0 is the bracket ends
        calls = stub_roots(monkeypatch, zero, 1.0)
        table = composite_modes(STUB_PROFILE, 0, 2, 3.0)
        assert calls[1][0] == zero
        # The root is placed on the grid of 38-significant-bit floats:
        # it is zero itself if zero is on that grid, where D is exactly 0,
        # and otherwise the midpoint of the grid cell holding zero.
        spacing = 2.0 ** (math.frexp(zero)[1] - 38)
        cell = math.floor(zero / spacing) * spacing
        got = table.frequencies
        assert got[0] == (zero if cell == zero else cell + 0.5 * spacing)
        assert got[1] == pytest.approx(1.0, rel=1e-11)

    def test_more_sign_changes_than_n_max_keep_the_lowest(self, monkeypatch):
        # Roots every 0.15 from 0.16: each Sturm bracket holds several of
        # them, and only the three lowest of each order are polished.
        polished = []
        polish = membrane._polish

        def counted(geometry, orders, *rest):
            polished.append(orders.size)
            return polish(geometry, orders, *rest)

        monkeypatch.setattr(membrane, "_polish", counted)
        stub_solution(
            monkeypatch,
            lambda f: np.sin(math.pi * (f - 0.16) / 0.15),
            lambda f: math.pi / 0.15 * np.cos(math.pi * (f - 0.16) / 0.15),
            lambda f: np.maximum(np.ceil((f - 0.16) / 0.15), 0.0).astype(int),
        )
        table = composite_modes(STUB_PROFILE, 1, 3, 10.0)
        assert polished == [6]
        for m in (0, 1):
            got = [mo.frequency for mo in table if mo.m == m]
            assert np.allclose(got, [0.16, 0.31, 0.46], rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize(
        "residual",
        [
            # NaN at every 38-significant-bit float, where the polish's
            # points lie, and a sign change at 1.1 between them.
            lambda f: np.where((np.asarray(f, dtype=float).view(np.int64) & (2**15 - 1)) == 0, np.nan, f - 1.1),
            # NaN above the root, so at the isolated bracket's upper end.
            lambda f: np.where(f > 1.1, np.nan, f - 1.1),
        ],
        ids=["polish-point", "bracket-end"],
    )
    def test_nan_of_d_is_refused(self, monkeypatch, residual):
        stub_solution(monkeypatch, residual, np.ones_like, lambda f: (f > 1.1).astype(int))
        with pytest.raises(ConvergenceError, match="NaN"):
            composite_modes(STUB_PROFILE, 0, 1, 3.0)

    def test_bracket_without_sign_change_is_refused(self, monkeypatch):
        # The count claims a root at 1.0 where D only touches zero: the
        # isolated bracket keeps one sign of D, and nothing is polished.
        polished = []
        monkeypatch.setattr(membrane, "_polish", lambda *args: polished.append(args))
        stub_solution(
            monkeypatch,
            lambda f: (f - 1.0) ** 2 + 1e-3,
            lambda f: 2.0 * (f - 1.0),
            lambda f: (f > 1.0).astype(int),
        )
        with pytest.raises(ConvergenceError, match="one sign"):
            composite_modes(STUB_PROFILE, 0, 1, 3.0)
        assert polished == []


@st.composite
def ring_profiles(draw):
    """Up to 32 rings of widths within 10x of each other and densities in
    [1, 25], so doubling one keeps the contrast at or below 50."""
    count = draw(st.integers(1, 32))
    widths = draw(st.lists(st.floats(1.0, 10.0), min_size=count, max_size=count))
    densities = draw(st.lists(st.floats(1.0, 25.0), min_size=count, max_size=count))
    edges = np.cumsum(widths) / np.sum(widths)
    edges[-1] = 1.0
    return RadialDensityProfile(1.0, 1.0, tuple(zip(edges, densities)))


class TestCountCertificate:
    @settings(max_examples=15, deadline=None)
    @given(profile=ring_profiles(), pick=st.integers(0, 31))
    def test_ordered_lowered_by_mass_and_counted(self, profile, pick):
        table = composite_modes(profile, 12, 2, math.inf)
        m = np.array([mo.m for mo in table])
        n = np.array([mo.n for mo in table])
        f = table.frequencies
        for order in range(13):
            assert np.all(np.diff(f[m == order][np.argsort(n[m == order])]) > 0.0)

        # N_m is n - 1 just below root n and n just above it.
        for factor, expected in ((1.0 - 1e-9, n - 1), (1.0 + 1e-9, n)):
            rings, rows, _, _ = membrane._propagate(membrane._ring_geometry([profile]), m, f * factor)
            assert np.array_equal(membrane._zero_count(m, rings, rows), expected)

        # Doubling one ring's density lowers every mode up to m = 2.  The
        # ring reaches past 0.3 R: nearer the centre a mode's share of the
        # mass falls as r^(2m + 2), below what the polish can resolve.
        rings = list(profile.rings)
        ring = max(pick % len(rings), next(i for i, (edge, _) in enumerate(rings) if edge >= 0.3))
        rings[ring] = (rings[ring][0], 2.0 * rings[ring][1])
        heavier = composite_modes(RadialDensityProfile(1.0, 1.0, tuple(rings)), 2, 2, math.inf)
        light = {(mo.m, mo.n): mo.frequency for mo in table}
        assert all(mo.frequency < light[mo.m, mo.n] for mo in heavier)

    def test_every_root_is_certified_by_its_own_grid_cell(self):
        # Each root is the midpoint of its cell on the grid of
        # 38-significant-bit floats, or a grid point where D is exactly 0;
        # D changes sign across the cell, and N_m counts root n in it alone.
        # This holds whatever steps the polish took to reach the cell.
        cell = np.int64(1 << membrane._GRID_BITS)
        m, n = np.repeat(np.arange(9), 5), np.tile(np.arange(1, 6), 9)
        rng = np.random.default_rng(48)
        for _ in range(48):
            count = int(rng.integers(1, 33))
            edges = np.cumsum(rng.uniform(1.0, 10.0, count))
            edges /= edges[-1]
            edges[-1] = 1.0
            profile = RadialDensityProfile(1.0, 1.0, tuple(zip(edges, rng.uniform(1.0, 50.0, count))))
            roots = membrane._solve_stack([profile], 8, 5, math.inf)[0]
            bits = roots.view(np.int64)
            floor = bits & ~(cell - 1)
            on_grid = floor == bits
            below = np.where(on_grid, bits - cell, floor).view(float)
            above = np.where(on_grid, bits + cell, floor + cell).view(float)
            geometry = membrane._ring_geometry([profile])
            counts, d = membrane._probe(geometry, np.concatenate([m, m]), np.concatenate([below, above]))
            assert np.all(np.where(on_grid, membrane._probe(geometry, m, roots)[1] == 0.0,
                                   roots == 0.5 * (below + above)))
            assert np.all(d[: m.size] * d[m.size :] <= 0.0)
            assert np.array_equal(counts, np.concatenate([n - 1, n]))


class TestRingPasses:
    def test_a_33_ring_probe_places_its_ring_ends_in_two_passes(self, monkeypatch):
        # One _crossings_below call over every outer end and one over every
        # inner end, not one per ring end (65 at 33 rings).
        calls = []
        crossings = membrane._crossings_below

        def counted(*args):
            calls.append(args)
            return crossings(*args)

        monkeypatch.setattr(membrane, "_crossings_below", counted)
        profile = graded_profile(0.4, 3.0, 1.5, 32)
        assert len(profile.rings) == 33
        roots = membrane._solve_stack([profile], 8, 2, math.inf)[0]
        m = np.repeat(np.arange(9), 2)
        calls.clear()
        counts, _ = membrane._probe(membrane._ring_geometry([profile]), m, roots * (1.0 + 1e-9))
        assert len(calls) == 2
        assert np.array_equal(counts, np.tile([1, 2], 9))


class TestWarmStart:
    @settings(max_examples=20, deadline=None)
    @given(profile=ring_profiles(), other=ring_profiles())
    def test_warm_solve_is_the_cold_solve_bit_for_bit(self, profile, other):
        # A guess near the roots, far from them or from another profile only
        # changes the brackets the solve starts from, never its table.
        cold = membrane._solve_stack([profile], 4, 4, math.inf)[0]
        guesses = [cold * factor for factor in (1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-2, 1 + 1e-2, 1.5)]
        guesses.append(membrane._solve_stack([other], 4, 4, math.inf)[0])
        for guess in guesses:
            warm = membrane._solve_stack([profile], 4, 4, math.inf, near=guess)[0]
            assert [f.hex() for f in warm] == [f.hex() for f in cold]

    @pytest.mark.parametrize("offset, inside", [(0.0, True), (2.0 ** -37, True), (2.0 ** -30, False)],
                             ids=["exact", "a-cell-off", "beyond-its-width"])
    @pytest.mark.parametrize("spread", [0.0, 2.0 ** -40])
    def test_the_narrowest_bracket_is_the_cold_solve_bit_for_bit(self, offset, inside, spread):
        # A spread below _NEAR_FLOOR brackets each guess 2^-33 either side:
        # that holds a root a cell or two off, and one beyond it falls back
        # to its Sturm end.
        profile = two_ring(0.4, 3.7)
        cold = membrane._solve_stack([profile], 4, 4, math.inf)[0]
        guess = cold * (1.0 + offset)
        floor = membrane._NEAR_FLOOR
        held = (guess * (1.0 - floor) < cold) & (cold < guess * (1.0 + floor))
        assert held.all() if inside else not held.any()
        warm = membrane._solve_stack([profile], 4, 4, math.inf, near=guess, spread=spread)[0]
        assert [f.hex() for f in warm] == [f.hex() for f in cold]

    def test_spreads_are_per_root(self):
        # Each root's bracket takes its own spread, clipped to _NEAR_WIDTH.
        profile = two_ring(0.25, 9.0)
        cold = membrane._solve_stack([profile], 4, 4, math.inf)[0]
        spread = np.geomspace(1e-14, 10.0, cold.size)
        warm = membrane._solve_stack([profile], 4, 4, math.inf, near=cold * (1.0 + 1e-4), spread=spread)[0]
        assert [f.hex() for f in warm] == [f.hex() for f in cold]


class TestBetweenNeighbours:
    @staticmethod
    def neighbours(profile, lighter, heavier):
        """The n <= 5 roots of the profile with every density scaled by
        1 - lighter and by 1 + heavier: nowhere heavier and nowhere lighter."""
        return [
            membrane._solve_stack(
                [RadialDensityProfile(profile.radius, profile.tension, tuple((f, s * c) for f, s in profile.rings))],
                4, 5, math.inf,
            )
            for c in (1.0 - lighter, 1.0 + heavier)
        ]

    @settings(max_examples=20, deadline=None)
    @given(profile=ring_profiles(), lighter=st.floats(0.0, 0.3), heavier=st.floats(0.0, 0.3),
           share=st.floats(-0.5, 1.5))
    def test_solve_between_neighbours_is_the_cold_solve_bit_for_bit(self, profile, lighter, heavier, share):
        # Brackets that the neighbours certify and those that fail their
        # certificate and take the Sturm brackets both polish onto the cold
        # solve's cells, from any first aim, inside the bracket or not.
        light, heavy = self.neighbours(profile, lighter, heavier)
        _, _, certified = membrane._brackets_between(light, heavy, 4)
        if lighter == heavier == 0.0:
            assert certified.all()
        keep = lambda roots: roots.reshape(1, 5, 5)[:, :, :4].reshape(1, 20)
        aim = share * keep(light) + (1.0 - share) * keep(heavy)
        cold = membrane._solve_stack([profile], 4, 4, math.inf)[0]
        warm = membrane._solve_stack([profile], 4, 4, math.inf, between=(light, heavy, aim))[0]
        assert [f.hex() for f in warm] == [f.hex() for f in cold]

    @pytest.mark.parametrize("above", [1.0 + 1e-6, 1.0 - 1e-6], ids=["clear", "short"])
    def test_a_ceiling_below_a_certified_bracket_is_the_cold_solves(self, above):
        # A certified bracket that ends above f_ceiling takes the Sturm
        # bracket, capped at the ceiling: the solve, or its refusal, is
        # the cold one's.
        profile = two_ring(0.4, 3.7)
        light, heavy = self.neighbours(profile, 1e-4, 1e-4)
        cold = membrane._solve_stack([profile], 4, 4, math.inf)[0]
        ceiling = cold.max() * above
        aim = cold[None] * (1.0 + 1e-9)
        outcomes = []
        for between in (None, (light, heavy, aim)):
            try:
                outcomes.append(membrane._solve_stack([profile], 4, 4, ceiling, between=between)[0].tolist())
            except InsufficientCeiling as exc:
                outcomes.append((exc.azimuthal_order, exc.found, exc.requested))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], tuple) == (above < 1.0)


def scipy_jy(orders, x):
    """The kernel's Bessel values evaluated point by point by scipy's jv and
    yn, as the kernel took them before the ladder."""
    from scipy import special

    m = np.broadcast_to(np.asarray(orders, dtype=int), np.shape(x))
    return np.array([special.jv(m, x), special.yn(m, x), special.jv(m - 1, x), special.yn(m - 1, x)])


class TestBesselLadderInKernel:
    @staticmethod
    def cell_pass_sizes(monkeypatch):
        """Records the number of points in each cell-polynomial pass."""
        sizes = []
        horner = bessel._horner
        monkeypatch.setattr(bessel, "_horner", lambda c, u: sizes.append(u.size // 4) or horner(c, u))
        return sizes

    def test_one_cell_pass_adds_only_the_points_with_x_below_m(self, monkeypatch):
        sizes = self.cell_pass_sizes(monkeypatch)
        profiles = [two_ring(0.4, 3.7), two_ring(0.25, 9.0)]
        geometry = membrane._ring_geometry(profiles)[..., [0, 0, 0, 1, 1, 1]]
        orders = np.array([0.0, 3.0, 8.0, 1.0, 5.0, 12.0])
        freqs = np.array([0.3, 0.4, 0.9, 0.2, 1.1, 2.5])
        _, (args, *_), _, _ = membrane._propagate(geometry, orders, freqs)
        low = args < orders
        assert 0 < low.sum() < low.size
        assert sizes == [args.size + low.sum()]

    def test_no_small_x_cells_when_every_x_exceeds_m(self, monkeypatch):
        sizes = self.cell_pass_sizes(monkeypatch)
        _, (args, *_), _, _ = membrane._propagate(
            membrane._ring_geometry([two_ring(0.4, 3.7)])[..., 0], 2, 3.0
        )
        assert sizes == [args.size]

    def test_tables_agree_with_pointwise_scipy_values(self, monkeypatch):
        # Random profiles of 1-32 rings at density contrast up to 50; the
        # ladder's tables are not bit-identical to pointwise jv/yn ones, but
        # agree far inside the polish tolerance (measured 8.6e-12 here).
        rng = np.random.default_rng(11)
        profiles = []
        for _ in range(12):
            count = int(rng.integers(1, 33))
            edges = np.cumsum(rng.uniform(1.0, 10.0, count))
            edges /= edges[-1]
            edges[-1] = 1.0
            densities = rng.uniform(1.0, 50.0, count)
            profiles.append(RadialDensityProfile(
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(100.0, 5000.0)),
                tuple(zip(edges, densities)),
            ))
        ladder = [composite_modes(p, 8, 5, math.inf) for p in profiles]
        monkeypatch.setattr(membrane, "integer_jy", scipy_jy)
        for profile, table in zip(profiles, ladder):
            reference = composite_modes(profile, 8, 5, math.inf)
            assert [(mo.m, mo.n) for mo in table] == [(mo.m, mo.n) for mo in reference]
            rel = np.abs(table.frequencies - reference.frequencies) / reference.frequencies
            assert rel.max() <= 1e-10


class TestKernelSlope:
    @pytest.mark.parametrize("rings", [2, 9, 17, 33])
    def test_slope_matches_central_differences_at_solved_roots(self, rings):
        # f dD/df is carried through every boundary's solve; central
        # differences of the unscaled rim displacement S_N D agree with it
        # far inside 1e-6 (measured 1e-9 here) at every root with m <= 8.
        profile = random_rings(rings)
        f = membrane._solve_stack([profile], 8, 3, math.inf)[0]
        m = np.repeat(np.arange(9), 3)
        geometry = membrane._ring_geometry([profile])[..., np.zeros(m.size, dtype=int)]

        def rim(freqs):
            rings, _, d, _ = membrane._propagate(geometry, m, freqs)
            return rings[2, -1] * d

        rings, _, _, slope = membrane._propagate(geometry, m, f, slope=True)
        exact = rings[2, -1] * slope
        h = 1e-6
        central = (rim(f * (1.0 + h)) - rim(f * (1.0 - h))) / (2.0 * h)
        assert np.all(np.abs(central - exact) <= 1e-6 * np.abs(exact))


def random_rings(rings):
    """A profile of `rings` random rings (widths 1-10 parts, densities 1-25),
    the one TestKernelSlope and TestRootGradients take for that count."""
    rng = np.random.default_rng(rings)
    edges = np.cumsum(rng.uniform(1.0, 10.0, rings))
    edges /= edges[-1]
    edges[-1] = 1.0
    return RadialDensityProfile(0.3, 900.0, tuple(zip(edges, rng.uniform(1.0, 25.0, rings))))


class TestRootGradients:
    @pytest.mark.parametrize("rings", [2, 9, 17, 33])
    def test_gradients_match_central_differences_of_the_solve(self, rings):
        # Five-point central differences of the roots, each ring's density
        # scaled by 1 + d and its outer fraction moved by d (d = 2h, h, -h,
        # -2h with h = 3e-4), in one stacked solve per kind.  The roots sit
        # on the 38-bit grid, so the stencil's noise is ~1e-8 of f; the
        # gradients agree within 1e-6 of f per unit log density and per
        # unit fraction (measured 1.5e-8 here).
        profile = random_rings(rings)
        roots = membrane._solve_stack([profile], 4, 4, math.inf)
        (f,), ((d_density,), (d_fraction,)) = roots, membrane._root_gradients([profile], 4, 4, roots)
        h, steps = 3e-4, (2.0, 1.0, -1.0, -2.0)

        def moved(i, d, edge):
            ring = list(profile.rings)
            fraction, density = ring[i]
            ring[i] = (fraction + d, density) if edge else (fraction, density * (1.0 + d))
            return RadialDensityProfile(profile.radius, profile.tension, tuple(ring))

        def central(count, edge):
            stack = [moved(i, s * h, edge) for i in range(count) for s in steps]
            e = membrane._solve_stack(stack, 4, 4, math.inf).reshape(count, 4, -1)
            return ((8.0 * (e[:, 1] - e[:, 2]) - (e[:, 0] - e[:, 3])) / (12.0 * h)).T

        densities = np.array(profile.densities)
        assert np.all(np.abs(central(rings, False) - d_density * densities) <= 1e-6 * f[:, None])
        assert np.all(np.abs(central(rings - 1, True) - d_fraction) <= 1e-6 * f[:, None])

    @pytest.mark.parametrize("rings", [2, 9, 17, 33])
    def test_lommel_norm_matches_the_shooting_identity(self, rings):
        # At a root, T R u'(R) dD/dlambda = N = sum_i sigma_i E_i for the
        # rim displacement D and lambda = (2 pi f)^2: differentiate the
        # radial equation in lambda and integrate against u.  The kernel's
        # f dD/df gives the left side with no quadrature; it agrees with
        # the Lommel sum within 1e-8 (measured 4e-11 here).
        profile = random_rings(rings)
        f = membrane._solve_stack([profile], 4, 4, math.inf)[0]
        m = np.repeat(np.arange(5), 4)
        geometry = membrane._ring_geometry([profile])[..., np.zeros(m.size, dtype=int)]
        energy, _ = membrane._ring_energies(geometry, m, f)
        lommel = np.sum(np.array(profile.densities)[:, None] * energy, axis=0)
        (a, b, _, _), (x, _, _, j1, y1), d, g = membrane._propagate(geometry, m, f, slope=True)
        # u'(R) = k (Z_{m-1} - (m/x) Z_m) at the rim, in the rim's scale.
        k = 2.0 * math.pi * f * geometry[1, -1]
        slope = k * (a[-1] * j1[rings - 1] + b[-1] * y1[rings - 1] - m * d / x[rings - 1])
        lam = (2.0 * math.pi * f) ** 2
        shooting = profile.tension * profile.radius * slope * g / (2.0 * lam)
        assert np.all(np.abs(lommel / shooting - 1.0) <= 1e-8)

    @pytest.mark.parametrize("rings", [2, 17])
    def test_gradients_leave_the_roots_alone_and_take_one_kernel_call(self, monkeypatch, rings):
        calls = []
        propagate = membrane._propagate
        monkeypatch.setattr(
            membrane, "_propagate", lambda *args, **kwargs: calls.append(1) or propagate(*args, **kwargs)
        )
        profile = random_rings(rings)
        # The same rings with their densities reversed: a second profile of the stack.
        flipped = tuple(zip((f for f, _ in profile.rings), reversed(profile.densities)))
        profiles = [profile, RadialDensityProfile(profile.radius, profile.tension, flipped)]
        plain = membrane._solve_stack(profiles, 4, 4, math.inf)
        plain_calls = len(calls)
        roots = membrane._solve_stack(profiles, 4, 4, math.inf)
        d_density, d_fraction = membrane._root_gradients(profiles, 4, 4, roots)
        assert len(calls) == 2 * plain_calls + 1
        assert [f.hex() for f in roots.ravel()] == [f.hex() for f in plain.ravel()]
        assert d_density.shape == (2, 20, rings) and d_fraction.shape == (2, 20, rings - 1)
        # f scales as sigma^(-1/2): the density gradient sums to -f/2 (Euler).
        densities = np.array([p.densities for p in profiles])[:, None, :]
        assert np.allclose(np.sum(d_density * densities, axis=2), -0.5 * roots, rtol=1e-12)


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

    @pytest.mark.parametrize(
        "samples, message", [(63, "samples must be >= 64"), (100.5, "must be an integer"), (True, "must be an integer")]
    )
    def test_samples_must_be_an_integer_of_at_least_64(self, samples, message):
        # 100.5 failed in np.linspace with a TypeError.
        with pytest.raises(ValueError, match=message):
            mode_shape(self.profile, self.table[0], samples=samples)

    @pytest.mark.parametrize("order", [-5, -1, 13])
    def test_order_outside_the_bessel_tables_is_a_domain_error(self, order):
        profile = two_ring(0.4, 3.7)
        mode = Mode(order, 1, 1.0, profile.fingerprint())
        with pytest.raises(DomainError, match=r"order must be in \[0, 12\]"):
            mode_shape(profile, mode)

    def test_fractional_order_is_a_domain_error(self):
        # The kernel's Bessel ladder would truncate 1.5 to order 1.
        profile = two_ring(0.4, 3.7)
        with pytest.raises(DomainError, match="order must be an integer"):
            mode_shape(profile, Mode(1.5, 1, 1.0, profile.fingerprint()))

    def test_17_rings_take_the_kernel_and_one_ladder_call(self, monkeypatch):
        # Every sample's ring row is picked at once: one integer_jy call for
        # all samples beside the kernel's, and none through bessel_j/bessel_y.
        from membrane_lab import bessel

        calls = []
        ladder = bessel.integer_jy

        def counted(*args):
            calls.append(args)
            return ladder(*args)

        monkeypatch.setattr(bessel, "integer_jy", counted)
        monkeypatch.setattr(membrane, "integer_jy", counted)
        profile = graded_profile(0.4, 3.0, 1.5, 16)  # 17 rings with the field
        assert len(profile.rings) == 17
        mode = composite_modes(profile, 3, 2, math.inf)[-1]
        calls.clear()
        u = mode_shape(profile, mode, 256)
        assert len(calls) == 2
        assert not hasattr(membrane, "bessel_j") and not hasattr(membrane, "bessel_y")
        assert self.interior_sign_changes(u) == mode.n - 1

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

    @pytest.mark.parametrize("frequency", [math.nan, math.inf, -math.inf, 0.0, -100.0])
    def test_rejects_a_frequency_that_is_not_positive_and_finite(self, frequency):
        with pytest.raises(ValueError, match="mode frequency must be positive and finite"):
            ModeTable("", (Mode(0, 1, frequency),))
        with pytest.raises(ValueError, match="mode frequency must be positive and finite"):
            ModeTable.from_json_dict({"modes": [{"m": 0, "n": 1, "frequency_hz": frequency}]})

    def test_rejects_a_400_digit_frequency(self):
        with pytest.raises(ValueError, match="mode frequency must be positive and finite"):
            Mode(0, 1, 10 ** 400)

    @pytest.mark.parametrize("key", ["m", "n"])
    @pytest.mark.parametrize("value", [1.9, math.inf, "1", False])
    def test_json_refuses_a_non_integral_index(self, key, value):
        doc = {"modes": [{"m": 0, "n": 1, "frequency_hz": 100.0}]}
        doc["modes"][0][key] = value
        with pytest.raises(ValueError, match=f"mode {key} must be an integer"):
            ModeTable.from_json_dict(doc)

    def test_json_takes_integral_float_indices(self):
        table = ModeTable.from_json_dict({"modes": [{"m": 2.0, "n": 1.0, "frequency_hz": 100.0}]})
        assert (table[0].m, table[0].n) == (2, 1)
        assert type(table[0].m) is int and type(table[0].n) is int

    @pytest.mark.parametrize(
        "doc",
        [
            math.nan,
            None,
            {"modes": None},
            {"modes": [None]},
            {"modes": [{"m": 0, "n": 1}]},
            {"modes": [{"m": 0, "n": 1, "frequency_hz": 10 ** 400}]},
        ],
        ids=["nan", "null", "modes-null", "entry-null", "no-frequency", "400-digit-frequency"],
    )
    def test_malformed_json_raises_value_error(self, doc):
        with pytest.raises(ValueError, match="malformed mode table document"):
            ModeTable.from_json_dict(doc)

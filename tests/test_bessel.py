import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from scipy import special

from membrane_lab.bessel import MAX_ORDER, bessel_j, bessel_y, bessel_zero, integer_jy
from membrane_lab.errors import DomainError

from oracles import bisect_root, j0_series, y0_series


class TestBesselJ:
    def test_j0_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_j1_at_origin(self):
        assert bessel_j(1, 0.0) == 0.0

    def test_first_j0_zero_from_series_oracle(self):
        # Bracket-and-bisect the power series, then check our evaluation there.
        root = bisect_root(j0_series, 2.0, 3.0)
        assert abs(bessel_j(0, root)) < 1e-10
        assert abs(bessel_j(0, 2.404826)) < 1e-6

    def test_accuracy_against_mpmath(self):
        mpmath.mp.dps = 40
        xs = np.concatenate([np.linspace(1e-3, 20, 41), np.linspace(21, 100, 30)])
        for order in range(13):
            for x in xs:
                ref = float(mpmath.besselj(order, mpmath.mpf(float(x))))
                assert abs(bessel_j(order, float(x)) - ref) < 1e-10

    def test_vectorised_matches_scalar(self):
        xs = np.linspace(0.0, 50.0, 23)
        vec = bessel_j(3, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == bessel_j(3, float(x))

    def test_domain_rejections(self):
        with pytest.raises(DomainError):
            bessel_j(13, 1.0)
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0, -0.5)
        with pytest.raises(DomainError):
            bessel_j(0, float("nan"))


class TestBesselY:
    def test_first_y0_zero_from_series_oracle(self):
        root = bisect_root(y0_series, 0.5, 1.5)
        assert abs(bessel_y(0, root)) < 1e-8
        assert abs(bessel_y(0, 0.893577)) < 1e-5

    def test_logarithmic_dive_toward_origin(self):
        xs = [1e-1, 1e-3, 1e-6, 1e-9, 1e-12 + 1e-15]
        vals = [bessel_y(0, x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < -15.0

    @staticmethod
    def recurrence_wronskian(order, x):
        # Slopes as the transfer-matrix kernel forms them:
        # f'_m(x) = f_{m-1}(x) - (m/x) f_m(x), order m - 1 = -1 included.
        j, y = bessel_j(order, x), bessel_y(order, x)
        j_prime = special.jv(order - 1, x) - order / x * j
        y_prime = special.yv(order - 1, x) - order / x * y
        return j * y_prime - j_prime * y

    def test_wronskian_identity(self):
        x = 1.0
        w = self.recurrence_wronskian(0, x)
        assert abs(w - 2.0 / (math.pi * x)) < 1e-8

    def test_wronskian_higher_orders(self):
        for order in (1, 4, 9):
            for x in (0.3, 2.7, 31.0):
                w = self.recurrence_wronskian(order, x)
                assert abs(w - 2.0 / (math.pi * x)) < 1e-8

    def test_accuracy_against_mpmath(self):
        mpmath.mp.dps = 40
        xs = np.concatenate([np.geomspace(1e-3, 1.0, 15), np.linspace(1.5, 100, 40)])
        for order in range(13):
            for x in xs:
                ref = float(mpmath.bessely(order, mpmath.mpf(float(x))))
                err = abs(bessel_y(order, float(x)) - ref)
                # Absolute contract where Y is of sane size; relative in the
                # blow-up region near the origin at high order.
                if abs(ref) <= 1e6:
                    assert err < 1e-8
                else:
                    assert err < 1e-8 * abs(ref)

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            bessel_y(0, 0.0)
        with pytest.raises(DomainError):
            bessel_y(0, -1.0)

    def test_integer_order_yn_matches_yv(self):
        # The reference the kernel's Y was pinned to before the ladder: the
        # cephes integer-order yn, order -1 included, against AMOS's yv.
        rng = np.random.default_rng(5)
        x = np.concatenate([np.geomspace(1e-3, 100.0, 2000), rng.uniform(1e-3, 100.0, 20000)])
        assert np.array_equal(special.yn(-1, x), -special.y1(x))
        for order in range(-1, 13):
            ref = special.yv(order, x)
            gap = np.abs(special.yn(order, x) - ref) / np.maximum(1.0, np.abs(ref))
            assert gap.max() < 1e-14


def ladder_points(order):
    """x in [1e-4, 2000], log-spaced and uniform, with points just below, at
    and just above the seam x = order > 0, where J passes from the small-x
    cells to the ladder."""
    rng = np.random.default_rng(order)
    seam = [order * (1.0 + d) for d in (-1e-9, -1e-15, 0.0, 1e-15, 1e-9)]
    seam += [np.nextafter(float(order), 0.0), np.nextafter(float(order), 3000.0)]
    return np.concatenate([
        np.geomspace(1e-4, 2000.0, 4000),
        rng.uniform(1e-4, 30.0, 20000),
        rng.uniform(30.0, 2000.0, 6000),
        np.array(seam if order else []),
    ])


class TestIntegerLadder:
    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_agrees_with_scipy_per_order(self, order):
        # Error as a fraction of the modulus M = |J + iY|, the scale the
        # kernel's phases and crossings see; J, the minimal solution, also
        # absolutely.  Measured against AMOS jv and yv: J 6.6e-15 of M,
        # 6.7e-16 absolute; Y 3.1e-15 of M.
        x = ladder_points(order)
        j, y, j_below, y_below = integer_jy(order, x)
        for got_j, got_y, m in ((j, y, order), (j_below, y_below, order - 1)):
            ref_j, ref_y = special.jv(m, x), special.yv(m, x)
            modulus = np.hypot(ref_j, ref_y)
            assert np.max(np.abs(got_j - ref_j) / modulus) < 2e-13
            assert np.max(np.abs(got_j - ref_j)) < 5e-15
            assert np.max(np.abs(got_y - ref_y) / modulus) < 2e-13

    def test_j_below_the_seam_agrees_with_mpmath(self):
        # Where x < m, J_m and J_{m-1} come from the small-x cells times
        # (x/2)^(m-1), not from the ladder: relative accuracy down to tiny
        # x, and the absolute gate of the ladder up to and across the seam.
        # Measured: 1.4e-15 relative.
        mpmath.mp.dps = 40
        offsets = [-0.5, -1e-9, 0.0, 1e-9, 0.5, 2.0, 40.0]
        orders = np.repeat(np.arange(MAX_ORDER + 1), len(offsets) + 3)
        x = np.concatenate([
            np.maximum(m + np.array(offsets), 0.0).tolist() + [1e-6 * (m + 1), 0.1 * m, 0.9 * m]
            for m in range(MAX_ORDER + 1)
        ])
        with np.errstate(divide="ignore", invalid="ignore"):
            j, _, j_below, _ = integer_jy(orders, x)
        for m, xv, got, got_below in zip(orders, x, j, j_below):
            for order, value in ((m, got), (m - 1, got_below)):
                ref = float(mpmath.besselj(int(order), mpmath.mpf(float(xv))))
                if xv < m:
                    assert abs(value - ref) <= 1e-14 * abs(ref)
                else:
                    assert abs(value - ref) < 5e-15

    def test_order_minus_one_is_minus_order_one(self):
        # f_{-1} = -f_1 exactly in the evaluator's own ladder: Y everywhere,
        # J wherever the order-1 call takes J_1 from the ladder too (x >= 1).
        x = np.geomspace(1e-3, 100.0, 500)
        j, y, j_below, y_below = integer_jy(0, x)
        j1, y1, j0, _ = integer_jy(1, x)
        assert np.array_equal(y_below, -y1)
        ladder = x >= 1.0
        assert np.array_equal(j_below[ladder], -j1[ladder])
        assert np.array_equal(j[ladder], j0[ladder])
        # And the values themselves, against cephes.
        assert np.max(np.abs(j - special.j0(x))) < 1e-15
        assert np.max(np.abs(j_below + special.j1(x))) < 1e-15
        assert np.max(np.abs(y_below + special.y1(x)) / np.hypot(special.j1(x), special.y1(x))) < 1e-14

    def test_each_point_is_independent_of_its_neighbours(self):
        # Stacking points into one call never changes a point's values: the
        # ladder's height and the small-x subset follow the call, not the
        # point.
        rng = np.random.default_rng(3)
        orders = rng.integers(0, MAX_ORDER + 1, 300)
        x = rng.uniform(1e-3, 40.0, 300)
        stacked = integer_jy(orders, x)
        for k in range(0, 300, 37):
            assert np.array_equal(integer_jy(orders[k], x[k]), stacked[:, k])

    def test_orders_broadcast_to_the_shape_of_x(self):
        x = np.array([[0.5, 3.0, 9.0], [1.5, 6.0, 12.0]])
        got = integer_jy(np.array([0, 2, 5]), x)
        assert got.shape == (4, 2, 3)
        assert np.array_equal(got[:, 1, 2], integer_jy(5, 12.0))


class TestBesselZero:
    def test_first_j0_zero(self):
        assert abs(bessel_zero(0, 1) - 2.404826) < 1e-6

    def test_paper_ratio_second_mode(self):
        # Uniform-drum overtone ratio 1.59 comes straight from j11/j01.
        assert abs(bessel_zero(1, 1) / bessel_zero(0, 1) - 1.59) < 0.005

    def test_paper_ratio_second_axisymmetric(self):
        assert abs(bessel_zero(0, 2) / bessel_zero(0, 1) - 2.30) < 0.005

    def test_zeros_are_roots_and_increasing(self):
        for order in range(0, 13, 3):
            zeros = [bessel_zero(order, k) for k in range(1, 21)]
            assert all(b > a for a, b in zip(zeros, zeros[1:]))
            for z in zeros:
                assert abs(bessel_j(order, z)) < 1e-9

    def test_against_scipy_tables(self):
        from scipy import special

        for order in range(13):
            ref = special.jn_zeros(order, 20)
            for k in range(1, 21):
                assert abs(bessel_zero(order, k) - ref[k - 1]) < 1e-9

    def test_every_zero_matches_mpmath(self):
        mpmath.mp.dps = 30
        for order in range(MAX_ORDER + 1):
            for k in range(1, 21):
                ref = float(mpmath.besseljzero(order, k))
                assert abs(bessel_zero(order, k) - ref) <= 2.3e-16 * ref

    def test_index_bounds(self):
        with pytest.raises(DomainError):
            bessel_zero(0, 0)
        with pytest.raises(DomainError):
            bessel_zero(0, 21)


def test_generator_reproduces_the_committed_tables():
    # The coefficient and zero tables in data/ are exactly what the
    # generator writes from mpmath, byte for byte.
    script = Path(__file__).resolve().parents[1] / "tools" / "gen_bessel_tables.py"
    result = subprocess.run([sys.executable, str(script), "--check"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

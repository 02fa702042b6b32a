import math

import mpmath
import numpy as np
import pytest

from scipy import special

from membrane_lab.bessel import bessel_j, bessel_y, bessel_zero
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
        # bessel_y and the transfer-matrix kernel take Y from the cephes
        # integer-order yn, order -1 included; pin it to AMOS's yv.
        rng = np.random.default_rng(5)
        x = np.concatenate([np.geomspace(1e-3, 100.0, 2000), rng.uniform(1e-3, 100.0, 20000)])
        assert np.array_equal(special.yn(-1, x), -special.y1(x))
        for order in range(-1, 13):
            ref = special.yv(order, x)
            gap = np.abs(special.yn(order, x) - ref) / np.maximum(1.0, np.abs(ref))
            assert gap.max() < 1e-14


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

    def test_index_bounds(self):
        with pytest.raises(DomainError):
            bessel_zero(0, 0)
        with pytest.raises(DomainError):
            bessel_zero(0, 21)

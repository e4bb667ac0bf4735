import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from linopt_bp import LogScaled, bessel_i, special_functions
from linopt_bp.special_functions import TERM_CUTOFF_LOG

from conftest import (
    series_bessel_i,
    small_arg_log_i,
    uniform_asymptotic_log_i,
)


def _assert_matches_mpmath():
    # 40-digit mpmath oracle over orders to 1e4 and arguments from the
    # subnormals (where x / 2 rounds) to 4.1e6; error relative to
    # max(|log I|, 1) so tiny logs keep an absolute floor
    mpmath = pytest.importorskip("mpmath")
    grid = [(nu, x) for nu in (0, 1, 7, 63, 1023, 10_000)
            for x in (5e-324, 1.5e-323, 1e-310, 1e-8, 1e-2, 1.0, 40.0, 4096.0, 4.1e6)]
    # both sides of r = hypot(nu, x) = DEBYE_R0, where the series hands over to
    # the Debye expansion
    grid += [(127, 1.0), (128, 1.0), (0, 127.9), (0, 128.1), (90, 91.0), (91, 90.0)]
    with mpmath.workdps(40):
        for nu, x in grid:
            oracle = float(mpmath.log(mpmath.besseli(nu, mpmath.mpf(x))))
            mine = bessel_i(nu, x).log_value
            assert abs(mine - oracle) <= 1e-12 * max(abs(oracle), 1.0), (nu, x)


class TestBesselI:
    def test_zero_argument(self):
        assert bessel_i(0, 0.0).log_value == 0.0
        assert bessel_i(1, 0.0).log_value == -math.inf
        assert bessel_i(7, 0.0).value == 0.0

    def test_reference_values_from_series_oracle(self):
        # frozen from the 30-term power-series oracle
        assert bessel_i(0, 1.0).value == pytest.approx(1.2660658777520084, rel=1e-12)
        assert bessel_i(5, 2.0).value == pytest.approx(0.009825679323131702, rel=1e-12)

    def test_against_series_oracle_grid(self):
        for nu in range(0, 51, 5):
            for x in (0.25, 1.0, 3.0, 7.0, 10.0):
                oracle = series_bessel_i(nu, x)
                mine = bessel_i(nu, x)
                assert abs(math.expm1(mine.log_value - math.log(oracle))) <= 1e-10, (nu, x)

    def test_three_term_recurrence(self):
        for nu in (1, 2, 5, 17, 50, 100):
            for x in (0.1, 1.0, 10.0, 100.0, 400.0):
                logs = [bessel_i(nu + d, x).log_value for d in (-1, 0, 1)]
                ref = max(logs)
                lhs = math.exp(logs[0] - ref) - math.exp(logs[2] - ref)
                rhs = (2.0 * nu / x) * math.exp(logs[1] - ref)
                assert abs(lhs - rhs) <= 1e-8 * abs(rhs), (nu, x)

    def test_monotone_decreasing_in_order(self):
        for x in (0.5, 4.0, 50.0):
            logs = [bessel_i(nu, x).log_value for nu in range(0, 30)]
            assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_extreme_ranges_stay_finite(self):
        # orders ~1e4 and arguments up to 4e6 (intensities up to 1e6)
        for nu, x in [(10_000, 4.0), (10_000, 4e6), (2, 4e6), (500, 1e3)]:
            val = bessel_i(nu, x).log_value
            assert math.isfinite(val), (nu, x)

    def test_window_policy_constant_pinned(self):
        assert TERM_CUTOFF_LOG == 46.0

    def test_against_mpmath_oracle(self):
        _assert_matches_mpmath()

    def test_window_doubling_against_mpmath_oracle(self, monkeypatch):
        # a one-term starting window leaves the doubling loop to size the window
        monkeypatch.setattr(special_functions, "_half_width", lambda nu, k: 1)
        _assert_matches_mpmath()

    def test_debye_table_matches_recurrence(self):
        # DLMF 10.41.10: u_0 = 1, u_(k+1)(p) = p^2 (1 - p^2) u_k'(p) / 2
        # + (1/8) int_0^p (1 - 5 t^2) u_k(t) dt, in exact rationals
        u = {0: Fraction(1)}  # power of p -> coefficient
        for k, row in enumerate(special_functions._DEBYE_U):
            assert sorted(u) == list(range(k, 3 * k + 1, 2)), k
            assert row == tuple(float(u[j]) for j in sorted(u)), k
            nxt = defaultdict(Fraction)
            for j, c in u.items():
                nxt[j + 1] += Fraction(j, 2) * c + c / (8 * (j + 1))
                nxt[j + 3] -= Fraction(j, 2) * c + 5 * c / (8 * (j + 3))
            u = nxt

    def test_debye_error_bounds_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            # just past DEBYE_R0 the first omitted term, at most 0.58 / r^6 = 1.3e-13,
            # dominates the error
            for nu, x in [(0, 128.1), (1, 128.0), (128, 1.0), (100, 80.0)]:
                oracle = float(mpmath.log(mpmath.besseli(nu, mpmath.mpf(x))))
                assert abs(bessel_i(nu, x).log_value - oracle) <= 2.5e-13, (nu, x)
            # where log I crosses 0 at large order, r and nu log((nu + r) / x) cancel;
            # the error stays within a few ulp of r
            crossings = {300: (200.5, 201.0, 201.5), 1000: (664.7, 665.2, 665.7),
                         2000: (1327.6, 1328.1, 1328.6), 3000: (1990.5, 1991.0, 1991.5),
                         5000: (3316.1, 3316.6, 3317.1), 7000: (4641.7, 4642.2, 4642.7),
                         10_000: (6630.0, 6630.5, 6631.0)}
            for nu, xs in crossings.items():
                for x in xs:
                    oracle = float(mpmath.log(mpmath.besseli(nu, mpmath.mpf(x))))
                    assert abs(bessel_i(nu, x).log_value - oracle) <= 3 * math.ulp(math.hypot(nu, x)), (nu, x)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="order"):
            bessel_i(-1, 1.0)
        with pytest.raises(ValueError, match="argument"):
            bessel_i(0, -0.5)
        with pytest.raises(ValueError, match="argument"):
            bessel_i(0, math.inf)
        # the argument is above MAX_ARGUMENT
        with pytest.raises(ValueError, match=r"order 1024, argument 4000000000000000\.0 .*MAX_ARGUMENT"):
            bessel_i(1024, 4e15)
        with pytest.raises(ValueError, match=r"order 0, argument 1e\+308 .*MAX_ARGUMENT"):
            bessel_i(0, 1e308)


class TestUniformAsymptotic:
    def test_matches_exact_within_one_percent_at_nu_50(self):
        nu, z = 50, 1.0
        exact = bessel_i(nu, nu * z).log_value
        approx = uniform_asymptotic_log_i(nu, nu * z).log_value
        assert abs(math.expm1(approx - exact)) <= 0.01

    def test_relative_error_improves_with_order(self):
        z = 1.0
        errs = []
        for nu in (10, 25, 50, 100, 200):
            exact = bessel_i(nu, nu * z).log_value
            approx = uniform_asymptotic_log_i(nu, nu * z).log_value
            errs.append(abs(math.expm1(approx - exact)))
        assert all(a > b for a, b in zip(errs, errs[1:])), errs

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="order"):
            uniform_asymptotic_log_i(0, 1.0)


class TestSmallArgAsymptotic:
    def test_zero_limit(self):
        assert small_arg_log_i(0, 0.0).log_value == 0.0
        assert small_arg_log_i(3, 0.0).log_value == -math.inf

    def test_leading_error_is_first_series_term(self):
        # the relative error of the leading term is x^2/(4(nu+1)) to first order
        for nu in (0, 1, 4, 12):
            x = math.sqrt(4e-4 * (nu + 1)) * 0.9
            ratio = x * x / (4.0 * (nu + 1))
            exact = bessel_i(nu, x).log_value
            approx = small_arg_log_i(nu, x).log_value
            assert abs(math.expm1(approx - exact)) <= 1.1 * ratio, nu

    def test_agrees_with_series_in_deep_small_regime(self):
        # agreement to 1e-6 in linear scale once x^2/(4(nu+1)) < 1e-6
        for nu in (0, 1, 4, 12):
            x = math.sqrt(4e-6 * (nu + 1)) * 0.9
            exact = bessel_i(nu, x).log_value
            approx = small_arg_log_i(nu, x).log_value
            assert abs(math.expm1(approx - exact)) <= 1e-6, nu


class TestLogScaled:
    def test_from_value_roundtrip(self):
        assert LogScaled.from_value(2.5).value == pytest.approx(2.5, rel=1e-15)
        assert LogScaled.from_value(0.0).log_value == -math.inf

    def test_scaling(self):
        x = LogScaled.from_value(3.0)
        assert x.scaled(2.0).value == pytest.approx(6.0, rel=1e-14)
        assert x.scaled(0.0).log_value == -math.inf
        with pytest.raises(ValueError, match="nonnegative"):
            x.scaled(-1.0)

    def test_ordering(self):
        assert LogScaled(-1.0) < LogScaled(0.0)

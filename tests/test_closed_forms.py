import math

import numpy as np
import pytest

from linopt_bp import (
    GeneratorPair,
    MeanVector,
    RandomSource,
    attenuated_intensity,
    bessel_i,
    bk_matrix,
    chebyshev_bound,
    classify_noise,
    classify_regime,
    fit_decay,
    fit_linear_rate,
    haar_orthogonal,
    heterodyne_prefactor,
    intensity_law,
    linear_intensity_rate,
    make_generator,
    quadratic_second_moment,
    second_moment_interval,
    second_moment_point,
    second_moment_prefactor,
    xi_bounds,
)
from linopt_bp.closed_forms import SLOPE_THRESHOLD
from linopt_bp.estimators import (
    CompilingGradientFamily,
    QuadraticGradientFamily,
    ToyGradientFamily,
    estimate_grad_moments,
)
from linopt_bp import estimate_abs_grad, toy_grad_abs_expectation

from conftest import (assert_within_sigma, attenuation_values, law_values, loose_prefactor, simpson,
                      tail_frequency)

GRID = list(range(4, 65, 4))


class TestXiBounds:
    def test_embedded_phase_shifter(self):
        assert xi_bounds(make_generator("phase-shifter", (1,), 4)) == (0.0, 1.0)

    def test_equal_column_generator_collapses(self):
        lo, hi = xi_bounds(make_generator("global-phase", (), 5))
        assert lo == pytest.approx(1.0, abs=1e-14)
        assert hi == pytest.approx(1.0, abs=1e-14)

    def test_beamsplitter_by_column_norm_oracle(self):
        gen = make_generator("beamsplitter", (0, 1), 2)
        d = gen.d
        oracle = [float(np.linalg.norm(d[:, j]) ** 2) for j in range(4)]
        assert xi_bounds(gen) == (min(oracle), max(oracle))
        assert xi_bounds(gen) == (1.0, 1.0)

    def test_dense_column_norm_oracle_for_every_kind(self):
        m = 4
        eps = np.zeros((2 * m, 2 * m))
        for j in range(m):  # graded per-mode weights: unequal columns, full support
            eps[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 0.5 * (j + 1) * np.eye(2)
        gens = [make_generator("phase-shifter", (2,), m), make_generator("two-mode-phase", (3, 1), m),
                make_generator("beamsplitter", (0, 2), m), make_generator("global-phase", (), m),
                GeneratorPair.from_symmetric(eps)]
        for gen in gens:
            d = gen.d
            norms = np.sum(d * d, axis=0)
            assert xi_bounds(gen) == (float(norms.min()), float(norms.max())), gen.label
            assert second_moment_point(gen, 0.7).log_value == pytest.approx(
                second_moment_prefactor(m, 0.7).scaled(float(np.sum(d * d)) / (2 * m)).log_value,
                rel=1e-15, abs=0.0), gen.label

    def test_rejects_anything_but_a_generator_pair(self):
        gen = make_generator("global-phase", (), 3)
        for bare in (gen.d, gen.eps, gen.d.tolist()):
            for call in (lambda: xi_bounds(bare),
                         lambda: second_moment_point(bare, 1.0),
                         lambda: second_moment_interval(bare, 1.0),
                         lambda: bk_matrix(bare, np.eye(6))):
                with pytest.raises(TypeError, match="GeneratorPair"):
                    call()


class TestMomentPrefactor:
    def test_single_mode_quadrature_oracle(self):
        # direct angular integral of the squared gradient at m = 1:
        # (2E)^2 e^{-4E} <sin^2 t e^{4E cos t}> over uniform t
        for energy in (0.25, 1.0, 4.0):
            def integrand(t):
                return (
                    (2 * energy) ** 2
                    * math.exp(-4 * energy)
                    * math.sin(t) ** 2
                    * math.exp(4 * energy * math.cos(t))
                    / (2 * math.pi)
                )

            oracle = simpson(integrand, -math.pi, math.pi, n=20_001)
            mine = second_moment_prefactor(1, energy).value
            assert mine == pytest.approx(oracle, rel=1e-9), energy

    def test_upper_variant_bounds_sharp_everywhere(self):
        for m in (1, 2, 3, 6, 12, 40):
            for energy in (0.05, 0.25, 1.0, 4.0, 25.0):
                sharp = second_moment_prefactor(m, energy)
                upper = loose_prefactor(m, energy)
                assert upper.log_value >= sharp.log_value, (m, energy)

    def test_upper_to_sharp_ratio_identity(self):
        # ratio = (2E/m) I_{m-1}(4E) / I_m(4E)
        for m, energy in [(2, 0.25), (3, 1.0), (6, 4.0)]:
            expected = (
                math.log(2 * energy / m)
                + bessel_i(m - 1, 4 * energy).log_value
                - bessel_i(m, 4 * energy).log_value
            )
            gap = (
                loose_prefactor(m, energy).log_value
                - second_moment_prefactor(m, energy).log_value
            )
            assert gap == pytest.approx(expected, abs=1e-12)

    def test_variants_coincide_at_vanishing_intensity(self):
        for m in (2, 5, 9):
            gap = (
                loose_prefactor(m, 1e-8).log_value
                - second_moment_prefactor(m, 1e-8).log_value
            )
            assert abs(gap) <= 1e-6

    def test_zero_intensity_degenerates(self):
        assert second_moment_prefactor(3, 0.0).log_value == -math.inf
        interval = second_moment_interval(make_generator("global-phase", (), 3), 0.0)
        assert interval.lo.value == 0.0 and interval.hi.value == 0.0

    def test_low_mode_counts_no_special_casing(self):
        # (2E)^{m-2} changes sign of its exponent across m = 2
        for m in (1, 2, 3):
            assert math.isfinite(second_moment_prefactor(m, 0.3).log_value)

    def test_point_inside_interval(self):
        gen = RandomSource(31).generator()
        for m in (2, 4):
            eps = np.zeros((2 * m, 2 * m))
            for j in range(m):  # graded per-mode weights: unequal columns
                eps[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 0.5 * (j + 1) * np.eye(2)
            gen_k = GeneratorPair.from_symmetric(eps)
            energy = float(gen.uniform(0.3, 2.0))
            interval = second_moment_interval(gen_k, energy)
            point = second_moment_point(gen_k, energy)
            assert interval.lo.log_value <= point.log_value <= interval.hi.log_value
            assert not interval.is_point

    def test_small_arg_limit_of_prefactor(self):
        # for E = a m^r with r < 1/2 the prefactor approaches
        # e^{-4E} (2E)^2 / (2m); at r = 1/2 the gap tends to 4a^2
        m = 1_000_000
        a = 1.0
        for r, expected_gap in [(0.3, 0.0), (0.5, 4.0 * a * a)]:
            energy = a * m**r
            leading = -4 * energy + 2 * math.log(2 * energy) - math.log(2 * m)
            gap = second_moment_prefactor(m, energy).log_value - leading
            assert gap == pytest.approx(expected_gap, abs=0.05), r


class TestMonteCarloAgreement:
    def test_equal_column_point_prediction(self):
        for m, energy, seed in [(2, 1.0, 41), (3, 0.25, 42)]:
            gen_k = make_generator("global-phase", (), m)
            u = MeanVector.of([math.sqrt(2 * energy)] + [0.0] * (2 * m - 1))
            est = estimate_grad_moments(CompilingGradientFamily(u, gen_k), 40_000, RandomSource(seed))
            assert_within_sigma(
                est.second_moment,
                second_moment_point(gen_k, energy).value,
                est.std_error_second,
                n_sigma=4.0,
                context=f"point prediction m={m} E={energy}",
            )

    def test_generic_generator_interval_membership(self):
        m, energy = 3, 1.0
        gen_k = make_generator("two-mode-phase", (0, 1), m)
        u = MeanVector.of([math.sqrt(2 * energy)] + [0.0] * (2 * m - 1))
        est = estimate_grad_moments(CompilingGradientFamily(u, gen_k), 40_000, RandomSource(43))
        interval = second_moment_interval(gen_k, energy)
        slack = 4.0 * est.std_error_second
        assert interval.lo.value - slack <= est.second_moment <= interval.hi.value + slack
        # and the sharp point lands on the estimate
        assert_within_sigma(
            est.second_moment,
            second_moment_point(gen_k, energy).value,
            est.std_error_second,
            n_sigma=4.0,
            context="generic point",
        )


class TestHeterodynePrefactor:
    def test_reduces_to_equal_intensity_form(self):
        for m, energy in [(1, 0.4), (3, 1.0), (7, 2.5), (33, 10.0)]:
            assert abs(
                heterodyne_prefactor(m, energy, energy).log_value
                - second_moment_prefactor(m, energy).log_value
            ) <= 1e-12

    def test_zero_target_intensity_sentinel(self):
        assert heterodyne_prefactor(4, 1.0, 0.0).log_value == -math.inf
        assert heterodyne_prefactor(4, 0.0, 1.0).log_value == -math.inf

    @pytest.mark.parametrize("energy", [1e-160, 1e-170, 1e-200, 0.37, 1e3])
    def test_equal_intensities_bitwise(self, energy):
        # at 1e-160 and below E0 E1 underflows; the geometric mean must not
        assert (heterodyne_prefactor(4, energy, energy).log_value
                == second_moment_prefactor(4, energy).log_value)

    @pytest.mark.parametrize("e0,e1", [(1.0, 1e-320), (1e-150, 1e-165), (1e-160, 1e-170)])
    def test_subnormal_product_against_mpmath(self, e0, e1):
        mpmath = pytest.importorskip("mpmath")
        m = 4
        with mpmath.workdps(40):
            geo = mpmath.sqrt(mpmath.mpf(e0) * mpmath.mpf(e1))
            ref = float(
                -2 * (mpmath.mpf(e0) + mpmath.mpf(e1))
                + mpmath.log(mpmath.gamma(m))
                + mpmath.log(mpmath.besseli(m, 4 * geo))
                - mpmath.log(2)
                - (m - 2) * mpmath.log(2 * geo)
            )
        assert heterodyne_prefactor(m, e0, e1).log_value == pytest.approx(ref, rel=1e-12)

    def test_chains_with_attenuation(self):
        m, e0, k = 5, 2.0, 0.9
        for n_layers in (0, 3, 11):
            e1 = attenuated_intensity(e0, k, n_layers)
            direct = heterodyne_prefactor(m, e0, k ** (2 * n_layers) * e0)
            chained = heterodyne_prefactor(m, e0, e1)
            assert chained.log_value == direct.log_value

    def test_monte_carlo_agreement_unequal_intensities(self):
        m, e0, e1 = 2, 1.0, 0.4
        gen_k = make_generator("global-phase", (), m)
        u = MeanVector.of([math.sqrt(2 * e0), 0.0, 0.0, 0.0])
        n = MeanVector.of([0.0, math.sqrt(2 * e1), 0.0, 0.0])
        from linopt_bp.estimators import MeasurementGradientFamily

        est = estimate_grad_moments(
            MeasurementGradientFamily(u=u, n=n, gen=gen_k), 40_000, RandomSource(44)
        )
        assert_within_sigma(
            est.second_moment,
            heterodyne_prefactor(m, e0, e1).value,
            est.std_error_second,
            n_sigma=4.0,
            context="heterodyne moment",
        )


class TestQuadraticSecondMoment:
    def _instance(self, seed, m, energy=1.5):
        gen = RandomSource(seed).generator()
        a = gen.standard_normal((2 * m, 2 * m))
        eta = a @ a.T / (2 * m)
        o_plus = haar_orthogonal(m, gen)
        b = bk_matrix(make_generator("two-mode-phase", (0, 1), m), o_plus @ eta @ o_plus.T)
        direction = gen.standard_normal(2 * m)
        direction /= np.linalg.norm(direction)
        u = MeanVector(math.sqrt(2 * energy) * direction)
        return u, b

    def test_trivial_zeros(self):
        u, b = self._instance(60, 2)
        assert quadratic_second_moment(MeanVector.vacuum(2), np.zeros((4, 4))) == 0.0
        assert quadratic_second_moment(u, np.zeros((4, 4))) == 0.0

    def test_two_algebraic_forms_agree(self):
        for seed in (61, 62):
            u, b = self._instance(seed, 3)
            fro = float(np.sum(b * b))
            tr = float(np.trace(b @ b))
            value = quadratic_second_moment(u, b)
            m = u.m
            assert value == pytest.approx(u.norm**4 * 2 * fro / (2 * m * (2 * m + 2)), rel=1e-10)
            assert tr == pytest.approx(fro, rel=1e-10)

    def test_traceful_matrix_rejected(self):
        u = MeanVector.vacuum(2)
        with pytest.raises(ValueError, match="traceless"):
            quadratic_second_moment(u, np.eye(4))

    def test_monte_carlo_agreement(self):
        u, b = self._instance(63, 2)
        est = estimate_grad_moments(QuadraticGradientFamily(u=u, b=b), 60_000, RandomSource(64))
        assert_within_sigma(
            est.second_moment,
            quadratic_second_moment(u, b),
            est.std_error_second,
            n_sigma=4.0,
            context="quadratic moment",
        )


class TestChebyshevBound:
    def test_zero_moment(self):
        assert chebyshev_bound(0.0, 2, 0.5) == 0.0

    def test_clamped_to_one(self):
        assert chebyshev_bound(0.25, 2, 0.5) == 1.0
        assert chebyshev_bound(10.0, 1, 0.1) == 1.0

    def test_orders(self):
        assert chebyshev_bound(0.02, 2, 0.5) == pytest.approx(0.08)
        assert chebyshev_bound(0.02, 1, 0.5) == pytest.approx(0.04)

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            chebyshev_bound(0.1, 3, 0.5)
        with pytest.raises(ValueError, match="epsilon"):
            chebyshev_bound(0.1, 2, 0.0)

    def test_toy_tail_frequency_respects_bound(self):
        m, s, eps = 5, 0.5, 0.08
        family = ToyGradientFamily(m=m, s=s)
        bound = chebyshev_bound(toy_grad_abs_expectation(s, m), 1, eps)
        tail = tail_frequency(family, eps, 100_000, RandomSource(65))
        assert tail.fraction <= bound + 5.0 * tail.std_error


class TestIntensityLawGrammar:
    @pytest.mark.parametrize(
        "text,m,expected",
        [
            ("constant:2.5", 10, 2.5),
            ("linear:0.5", 8, 4.0),
            ("power:2,0.5", 16, 8.0),
            ("expdecay:3,2", 2, 0.75),
            ("logpower:1,-0.5", 4, math.log(4.0) / 2.0),
        ],
    )
    def test_values(self, text, m, expected):
        law = intensity_law(text)
        assert float(law(np.asarray(float(m)))) == pytest.approx(expected, rel=1e-12)

    def test_rejects_callable(self):
        with pytest.raises(ValueError, match="cannot parse"):
            intensity_law(lambda m: m + 1)

    def test_rejects_malformed(self):
        for bad in ("bogus:1", "linear", "power:1", "expdecay:1,0.5", ""):
            with pytest.raises(ValueError):
                intensity_law(bad)


def _regime(law, grid=GRID):
    return classify_regime(grid, law_values(law, grid))


class TestRegimeClassifier:
    def test_linear_intensity_is_plateau(self):
        verdict = _regime("linear:1")
        assert verdict.is_bpl
        assert verdict.fit.slope <= SLOPE_THRESHOLD

    def test_exponentially_vanishing_intensity_is_plateau(self):
        assert _regime("expdecay:1,2").is_bpl

    def test_sublinear_intensity_trainable(self):
        verdict = _regime("power:1,0.5")
        assert not verdict.is_bpl

    def test_log_over_sqrt_trainable(self):
        assert not _regime("logpower:1,-0.5").is_bpl

    def test_degenerate_series_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_decay(GRID, np.zeros(len(GRID)))

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 6"):
            _regime("linear:1", [4, 8, 12])

    def test_fit_diagnostics_exposed(self):
        verdict = _regime("linear:1")
        assert set(verdict.fit.coefficients) == {"const", "m", "sqrt_m", "log_m"}
        assert len(verdict.fit.m_grid) == len(GRID)

    def test_noise_layer_scaling_transition(self):
        bpl = classify_noise(GRID, *attenuation_values("power:1,0.5", 0.9, lambda m: m, GRID))
        ok = classify_noise(
            GRID, *attenuation_values("power:1,0.5", 0.9, lambda m: math.ceil(math.sqrt(m)), GRID)
        )
        assert bpl.is_bpl and not ok.is_bpl

    def test_value_count_must_match_grid(self):
        energies = law_values("linear:1", GRID)
        with pytest.raises(ValueError, match="15 intensities for 16 grid points"):
            classify_regime(GRID, energies[:-1])
        with pytest.raises(ValueError, match="17 intensities for 16 grid points"):
            classify_noise(GRID, energies, energies + [1.0])
        with pytest.raises(ValueError, match="15 intensities for 16 grid points"):
            classify_noise(GRID, energies[1:], energies)


class TestLinearRateFit:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_fitted_rate_matches_closed_form(self, a):
        logs = [second_moment_prefactor(m, a * (m - 1)).log_value for m in GRID]
        fitted = fit_linear_rate(GRID, logs)
        assert fitted == pytest.approx(linear_intensity_rate(a), rel=0.05)

    def test_upper_variant_has_same_rate(self):
        a = 1.0
        logs = [loose_prefactor(m, a * (m - 1)).log_value for m in GRID]
        assert fit_linear_rate(GRID, logs) == pytest.approx(linear_intensity_rate(a), rel=0.05)

    def test_rate_closed_form_values(self):
        # rate(a) = -(4a+1-sqrt(16a^2+1)) + log(2/(1+sqrt(16a^2+1)))
        root = math.sqrt(17.0)
        assert linear_intensity_rate(1.0) == pytest.approx(-(5.0 - root) + math.log(2.0 / (1.0 + root)))

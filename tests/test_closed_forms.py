import math
import re

import numpy as np
import pytest

from linopt_bp import (
    GeneratorPair,
    QuadraticHamiltonian,
    RandomSource,
    attenuated_intensity,
    bessel_i,
    chebyshev_bound,
    classify_regime,
    fit_decay,
    heterodyne_prefactor,
    intensity_law,
    linear_intensity_rate,
    make_generator,
    quadratic_second_moment,
    second_moment_interval,
    second_moment_point,
    toy_log_abs_expectation,
    xi_bounds,
)
from linopt_bp.closed_forms import SLOPE_THRESHOLD
from linopt_bp.estimators import (
    MeasurementGradientFamily,
    QuadraticGradientFamily,
    ToyGradientFamily,
    estimate_grad_moments,
)
from linopt_bp.sampling import haar_orthogonal_batch

from conftest import (assert_within_sigma, attenuation_values, bk_matrix, dense_d, dense_eps,
                      equal_intensity_log_prefactor, every_kind, fit_linear_rate, loose_prefactor, simpson,
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
        d = dense_d(gen)
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
            d = dense_d(gen)
            norms = np.sum(d * d, axis=0)
            assert xi_bounds(gen) == (float(norms.min()), float(norms.max())), repr(gen)
            assert second_moment_point(gen, 0.7).log_value == pytest.approx(
                heterodyne_prefactor(m, 0.7, 0.7).scaled(float(np.sum(d * d)) / (2 * m)).log_value,
                rel=1e-15, abs=0.0), repr(gen)

    @pytest.mark.parametrize("m,modes", [(3, [0, 1, 2]), (5, [1, 3, 4])])
    def test_dense_column_norm_oracle_for_a_complex_block(self, m, modes):
        # a random Hermitian block on the modes: dc has complex off-diagonal entries,
        # and both real columns of a mode share its norm sum_a |dc_ab|^2
        a = RandomSource(m).generator().uniform(-1.0, 1.0, (2, len(modes), len(modes)))
        herm = 0.5 * (a[0] + 1j * a[1] + (a[0] + 1j * a[1]).conj().T)
        gen = GeneratorPair(m, modes, -2j * herm)
        d = dense_d(gen)
        norms = np.sum(d * d, axis=0)
        lo = float(norms.min()) if len(modes) == m else 0.0
        assert xi_bounds(gen) == pytest.approx((lo, float(norms.max())), rel=1e-15, abs=0.0)
        assert second_moment_point(gen, 0.7).log_value == pytest.approx(
            heterodyne_prefactor(m, 0.7, 0.7).scaled(float(np.sum(d * d)) / (2 * m)).log_value,
            rel=1e-15, abs=0.0)

    def test_rejects_anything_but_a_generator_pair(self):
        gen = make_generator("global-phase", (), 3)
        ham = QuadraticHamiltonian(np.eye(6))
        for bare in (dense_d(gen), dense_eps(gen), dense_d(gen).tolist()):
            for call in (lambda: xi_bounds(bare),
                         lambda: second_moment_point(bare, 1.0),
                         lambda: second_moment_interval(bare, 1.0),
                         lambda: quadratic_second_moment(bare, 1.0, ham),
                         lambda: QuadraticGradientFamily(bare, 1.0, ham)):
                with pytest.raises(TypeError, match="GeneratorPair"):
                    call()
        # and a bare eta~ where the Hamiltonian goes
        for bare in (np.eye(6), np.eye(6).tolist()):
            for call in (lambda: quadratic_second_moment(gen, 1.0, bare),
                         lambda: QuadraticGradientFamily(gen, 1.0, bare)):
                with pytest.raises(TypeError, match="QuadraticHamiltonian"):
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
            mine = heterodyne_prefactor(1, energy, energy).value
            assert mine == pytest.approx(oracle, rel=1e-9), energy

    def test_upper_variant_bounds_sharp_everywhere(self):
        for m in (1, 2, 3, 6, 12, 40):
            for energy in (0.05, 0.25, 1.0, 4.0, 25.0):
                sharp = heterodyne_prefactor(m, energy, energy)
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
                - heterodyne_prefactor(m, energy, energy).log_value
            )
            assert gap == pytest.approx(expected, abs=1e-12)

    def test_variants_coincide_at_vanishing_intensity(self):
        for m in (2, 5, 9):
            gap = (
                loose_prefactor(m, 1e-8).log_value
                - heterodyne_prefactor(m, 1e-8, 1e-8).log_value
            )
            assert abs(gap) <= 1e-6

    def test_zero_intensity_degenerates(self):
        assert heterodyne_prefactor(3, 0.0, 0.0).log_value == -math.inf
        interval = second_moment_interval(make_generator("global-phase", (), 3), 0.0)
        assert interval.lo.value == 0.0 and interval.hi.value == 0.0

    def test_low_mode_counts_no_special_casing(self):
        # (2E)^{m-2} changes sign of its exponent across m = 2
        for m in (1, 2, 3):
            assert math.isfinite(heterodyne_prefactor(m, 0.3, 0.3).log_value)

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
            assert interval.lo < interval.hi

    def test_small_arg_limit_of_prefactor(self):
        # for E = a m^r with r < 1/2 the prefactor approaches
        # e^{-4E} (2E)^2 / (2m); at r = 1/2 the gap tends to 4a^2
        m = 1_000_000
        a = 1.0
        for r, expected_gap in [(0.3, 0.0), (0.5, 4.0 * a * a)]:
            energy = a * m**r
            leading = -4 * energy + 2 * math.log(2 * energy) - math.log(2 * m)
            gap = heterodyne_prefactor(m, energy, energy).log_value - leading
            assert gap == pytest.approx(expected_gap, abs=0.05), r


class TestMonteCarloAgreement:
    def test_equal_column_point_prediction(self):
        for m, energy, seed in [(2, 1.0, 41), (3, 0.25, 42)]:
            gen_k = make_generator("global-phase", (), m)
            est = estimate_grad_moments(MeasurementGradientFamily(gen_k, energy, energy), 40_000, RandomSource(seed))
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
        est = estimate_grad_moments(MeasurementGradientFamily(gen_k, energy, energy), 40_000, RandomSource(43))
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
                - equal_intensity_log_prefactor(m, energy)
            ) <= 1e-12

    def test_zero_target_intensity_sentinel(self):
        assert heterodyne_prefactor(4, 1.0, 0.0).log_value == -math.inf
        assert heterodyne_prefactor(4, 0.0, 1.0).log_value == -math.inf

    def test_overflowing_exponent_is_an_error(self):
        # 4 sqrt(E0 E1) = 4e4 is a fine Bessel argument, but -2(E0+E1) overflows;
        # the moment is not zero, so the log -inf of an exact zero would be wrong
        for e0, e1 in [(1e308, 1e-300), (1e-300, 1e308), (1.7e308, 1e-290)]:
            with pytest.raises(ValueError, match=r"exponent -2\(E0\+E1\)"):
                heterodyne_prefactor(4, e0, e1)
        assert heterodyne_prefactor(4, 1e308, 0.0).log_value == -math.inf

    @pytest.mark.parametrize("energy", [1e-160, 1e-170, 1e-200, 0.37, 1e3])
    def test_equal_intensities_bitwise(self, energy):
        # at 1e-160 and below E0 E1 underflows; the geometric mean must not
        assert heterodyne_prefactor(4, energy, energy).log_value == equal_intensity_log_prefactor(4, energy)

    @pytest.mark.parametrize("m", [1, 3, 120, 1024])
    def test_equal_intensity_form_bitwise(self, m):
        # the compiling prefactor is heterodyne_prefactor at E0 = E1 = E, bit for bit the
        # equal-intensity formula -4E + log(Gamma(m) I_m(4E) / (2 (2E)^(m-2))) over the
        # series (small r) and Debye (large r) branches of bessel_i
        for energy in (0.0, 5e-324, 1e-3, 1.0, 30.0, 1e5):
            if energy == 0.0:
                direct = -math.inf
            else:
                direct = (-4.0 * energy + math.lgamma(m) + bessel_i(m, 4.0 * energy).log_value
                          - math.log(2.0) - (m - 2) * math.log(2.0 * energy))
            assert heterodyne_prefactor(m, energy, energy).log_value == direct, energy

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
        est = estimate_grad_moments(MeasurementGradientFamily(gen_k, e0, e1), 40_000, RandomSource(44))
        assert_within_sigma(
            est.second_moment,
            heterodyne_prefactor(m, e0, e1).value,
            est.std_error_second,
            n_sigma=4.0,
            context="heterodyne moment",
        )


class TestQuadraticSecondMoment:
    def _instance(self, seed, m):
        gen = RandomSource(seed).generator()
        a = gen.standard_normal((2 * m, 2 * m))
        eta = a @ a.T / (2 * m)
        o_plus = haar_orthogonal_batch(m, 1, gen)[0]
        return make_generator("two-mode-phase", (0, 1), m), 1.5, QuadraticHamiltonian(o_plus @ eta @ o_plus.T)

    def test_trivial_zeros(self):
        gen_k, energy, ham = self._instance(60, 2)
        assert quadratic_second_moment(gen_k, 0.0, ham) == 0.0
        assert quadratic_second_moment(gen_k, energy, QuadraticHamiltonian(np.zeros((4, 4)))) == 0.0
        # the identity commutes with every generator
        assert quadratic_second_moment(gen_k, energy, QuadraticHamiltonian(np.eye(4))) == 0.0

    def test_overflow_is_an_error(self):
        # (2E)^2 passes the largest double at E = 1e200, and 2E itself at E = 1e308
        gen_k, _, ham = self._instance(60, 2)
        for energy in (1e200, 1e308):
            with pytest.raises(ValueError, match="quadratic_second_moment overflows at E="):
                quadratic_second_moment(gen_k, energy, ham)
        assert math.isfinite(quadratic_second_moment(gen_k, 1e150, ham))

    def test_two_algebraic_forms_agree(self):
        # on the dense oracle B = [D_k, eta~]: tr B^2 = |B|_F^2 (B symmetric), and
        # the complex-block moment is |u|^4 (tr B^2 + |B|_F^2) / (2m (2m+2))
        for seed in (61, 62):
            gen_k, energy, ham = self._instance(seed, 3)
            b = bk_matrix(gen_k, ham.eta)
            fro = float(np.sum(b * b))
            tr = float(np.trace(b @ b))
            value = quadratic_second_moment(gen_k, energy, ham)
            m = gen_k.m
            assert value == pytest.approx((2 * energy) ** 2 * (tr + fro) / (2 * m * (2 * m + 2)), rel=1e-13)
            assert tr == pytest.approx(fro, rel=1e-10)
            assert abs(np.trace(b)) <= 1e-12 * math.sqrt(fro)

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 40])
    def test_complex_blocks_match_dense_oracle(self, m):
        # every standard kind (two-mode gates both ways round) and a custom
        # from_symmetric generator, against |u|^4 2 |B|_F^2 / (2m (2m+2)) of the dense
        # oracle, at a random PSD eta~ and at it rotated by Haar O(2m)
        rng = RandomSource(800 + m).generator()
        energy = 0.5 * float(np.sum(rng.standard_normal(2 * m) ** 2))
        a = rng.standard_normal((2 * m, 2 * m))
        o_plus = haar_orthogonal_batch(m, 1, rng)[0]
        for eta_tilde in (a @ a.T, o_plus @ (a @ a.T) @ o_plus.T):
            ham = QuadraticHamiltonian(eta_tilde)
            for gen_k in every_kind(m):
                b = bk_matrix(gen_k, eta_tilde)
                dense = (2 * energy) ** 2 * 2.0 * float(np.sum(b * b)) / (2 * m * (2 * m + 2))
                assert quadratic_second_moment(gen_k, energy, ham) == pytest.approx(dense, rel=1e-13), repr(gen_k)

    def test_monte_carlo_agreement(self):
        gen_k, energy, ham = self._instance(63, 2)
        est = estimate_grad_moments(QuadraticGradientFamily(gen_k, energy, ham), 60_000, RandomSource(64))
        assert_within_sigma(
            est.second_moment,
            quadratic_second_moment(gen_k, energy, ham),
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
        bound = chebyshev_bound(toy_log_abs_expectation(s, m).value, 1, eps)
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
        assert intensity_law(text, [m]) == [pytest.approx(expected, rel=1e-12)]

    @pytest.mark.parametrize("text,formula", [
        ("constant:2.5", lambda m: np.full_like(m, 2.5)),
        ("linear:0.37", lambda m: 0.37 * m),
        ("power:1.3,0.75", lambda m: 1.3 * m ** 0.75),
        ("expdecay:3,1.0001", lambda m: 3.0 * 1.0001 ** -m),
        ("logpower:1.5,-0.5", lambda m: 1.5 * np.log(m) * m ** -0.5),
    ])
    def test_each_point_is_a_zero_d_array(self, text, formula):
        # bit for bit the formula at one 0-d array per point; numpy's power over the
        # whole grid rounds expdecay:3,1.0001 differently at some of these points
        grid = list(range(1, 4097))
        assert intensity_law(text, grid) == [float(formula(np.asarray(float(m)))) for m in grid]

    def test_explicit_list(self):
        assert intensity_law(" list:1,2.5,0", [4, 8, 12]) == [1.0, 2.5, 0.0]
        with pytest.raises(ValueError, match="^explicit list has 2 entries but the grid has 3$"):
            intensity_law("list:1,2", [4, 8, 12])

    @pytest.mark.parametrize("text,message", [
        ("power:-1,0.5", "intensity -2.0 at m=4 is negative or not finite"),
        ("linear:1e400", "intensity inf at m=4 is negative or not finite"),
        ("list:1,nan,2", "intensity nan at m=8 is negative or not finite"),
        ("list:1,2,-3", "intensity -3.0 at m=12 is negative or not finite"),
    ])
    def test_rejects_negative_or_infinite_intensity(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            intensity_law(text, [4, 8, 12])

    def test_rejects_callable(self):
        with pytest.raises(ValueError, match="cannot parse"):
            intensity_law(lambda m: m + 1, GRID)

    def test_rejects_malformed(self):
        for bad in ("bogus:1", "linear", "power:1", "expdecay:1,0.5", "", "list:1,x"):
            with pytest.raises(ValueError):
                intensity_law(bad, GRID)


def _regime(law, grid=GRID):
    energies = intensity_law(law, grid)
    return classify_regime(grid, energies, energies)


class TestRegimeClassifier:
    def test_linear_intensity_is_plateau(self):
        verdict = _regime("linear:1")
        assert verdict.verdict == "BPL"
        assert verdict.slope <= SLOPE_THRESHOLD

    def test_exponentially_vanishing_intensity_is_plateau(self):
        assert _regime("expdecay:1,2").verdict == "BPL"

    def test_sublinear_intensity_trainable(self):
        verdict = _regime("power:1,0.5")
        assert verdict.verdict == "trainable"

    def test_log_over_sqrt_trainable(self):
        assert _regime("logpower:1,-0.5").verdict == "trainable"

    def test_degenerate_series_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_decay(GRID, np.zeros(len(GRID)))

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 6"):
            _regime("linear:1", [4, 8, 12])

    def test_fit_diagnostics_exposed(self):
        # the verdict, the coefficient of m and the log moments it was fitted to
        energies = intensity_law("linear:1", GRID)
        verdict = classify_regime(GRID, energies, energies)
        assert list(vars(verdict)) == ["verdict", "slope", "log_values"]
        assert verdict.log_values == tuple(heterodyne_prefactor(m, e, e).log_value for m, e in zip(GRID, energies))
        assert verdict.slope == fit_decay(GRID, verdict.log_values)

    def test_noise_layer_scaling_transition(self):
        bpl = classify_regime(GRID, *attenuation_values("power:1,0.5", 0.9, lambda m: m, GRID))
        ok = classify_regime(
            GRID, *attenuation_values("power:1,0.5", 0.9, lambda m: math.ceil(math.sqrt(m)), GRID)
        )
        assert (bpl.verdict, ok.verdict) == ("BPL", "trainable")

    def test_value_count_must_match_grid(self):
        energies = intensity_law("linear:1", GRID)
        with pytest.raises(ValueError, match="15 intensities for 16 grid points"):
            classify_regime(GRID, energies[:-1], energies[:-1])
        with pytest.raises(ValueError, match="17 intensities for 16 grid points"):
            classify_regime(GRID, energies, energies + [1.0])
        with pytest.raises(ValueError, match="15 intensities for 16 grid points"):
            classify_regime(GRID, energies[1:], energies)

    def test_failing_point_names_both_intensities(self):
        e0s = [1.0] * len(GRID)
        e0s[2] = 1e308  # the Bessel argument 4 sqrt(E0 E1) overflows
        with pytest.raises(ValueError, match=r"^at m=12, E0=1e\+308, E1=1e\+308: "):
            classify_regime(GRID, e0s, e0s)


class TestLinearRateFit:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_fitted_rate_matches_closed_form(self, a):
        logs = [heterodyne_prefactor(m, a * (m - 1), a * (m - 1)).log_value for m in GRID]
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

import math

import numpy as np
import pytest

from linopt_bp import (
    MeanVector,
    QuadraticHamiltonian,
    RandomSource,
    bk_matrix,
    chebyshev_bound,
    estimate_abs_grad,
    estimate_grad_moments,
    heterodyne_prefactor,
    make_generator,
    quadratic_second_moment,
    second_moment_point,
    toy_grad_abs_expectation,
)
from linopt_bp import estimators, sampling
from linopt_bp.estimators import (
    CHUNK_SIZE,
    CompilingGradientFamily,
    MeasurementGradientFamily,
    QuadraticGradientFamily,
    ToyGradientFamily,
)

from conftest import assert_within_sigma, measurement_grad, quadratic_grad, tail_frequency


def _toy():
    return ToyGradientFamily(m=5, s=0.5)


def _compiling(m=2, energy=1.0):
    gen = make_generator("global-phase", (), m)
    u = MeanVector.of([math.sqrt(2 * energy)] + [0.0] * (2 * m - 1))
    return CompilingGradientFamily(u, gen), gen, energy


class TestReproducibility:
    def test_identical_seed_identical_estimate(self):
        a = estimate_grad_moments(_toy(), 20_000, RandomSource(7))
        b = estimate_grad_moments(_toy(), 20_000, RandomSource(7))
        assert a == b

    def test_different_seed_differs(self):
        a = estimate_grad_moments(_toy(), 20_000, RandomSource(7))
        b = estimate_grad_moments(_toy(), 20_000, RandomSource(8))
        assert a.second_moment != b.second_moment

    def test_chunk_scheduling_invariance(self):
        # more samples than one chunk, serial vs 4 workers: bitwise equal
        n = 3 * CHUNK_SIZE + 17
        serial = estimate_grad_moments(_toy(), n, RandomSource(11), n_jobs=1)
        threaded = estimate_grad_moments(_toy(), n, RandomSource(11), n_jobs=4)
        assert serial == threaded

    def test_integer_seed_accepted(self):
        a = estimate_grad_moments(_toy(), 10_000, 21)
        assert a.seed == 21


class TestMomentEstimateContract:
    def test_second_moment_dominates_squared_mean(self):
        est = estimate_abs_grad(_toy(), 20_000, RandomSource(3))
        assert est.second_moment >= est.mean**2 - 5 * est.std_error_second

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_grad_moments(_toy(), 999, RandomSource(0))

    def test_unknown_family_object_rejected(self):
        with pytest.raises(TypeError, match="unknown cost family"):
            estimate_grad_moments(object(), 10_000, RandomSource(0))


class TestToyFamily:
    def test_abs_gradient_matches_closed_form(self):
        est = estimate_abs_grad(_toy(), 150_000, RandomSource(12))
        assert_within_sigma(
            est.mean,
            toy_grad_abs_expectation(0.5, 5),
            est.std_error_mean,
            context="toy abs gradient",
        )

    def test_single_mode_matches_sinh_form(self):
        s = 1.0
        est = estimate_abs_grad(ToyGradientFamily(m=1, s=s), 150_000, RandomSource(13))
        expected = (2.0 / math.pi) * math.exp(-s) * math.sinh(s)
        assert_within_sigma(est.mean, expected, est.std_error_mean, context="toy m=1")

    def test_signed_mean_vanishes_by_parity(self):
        est = estimate_grad_moments(_toy(), 100_000, RandomSource(14))
        assert abs(est.mean) <= 3.0 * est.std_error_mean

    def test_estimate_decreases_with_mode_count(self):
        s = 0.5
        means = [
            estimate_abs_grad(ToyGradientFamily(m=m, s=s), 50_000, RandomSource(15)).mean
            for m in (1, 3, 5, 9, 13)
        ]
        assert all(a > b for a, b in zip(means, means[1:]))


class TestCompilingFamily:
    def test_second_moment_matches_point_prediction(self):
        family, gen, energy = _compiling()
        est = estimate_grad_moments(family, 60_000, RandomSource(16))
        assert_within_sigma(
            est.second_moment,
            second_moment_point(gen, energy).value,
            est.std_error_second,
            n_sigma=4.0,
            context="compiling second moment",
        )

    def test_signed_mean_vanishes(self):
        family, *_ = _compiling()
        est = estimate_grad_moments(family, 60_000, RandomSource(17))
        assert abs(est.mean) <= 3.0 * est.std_error_mean


class TestMeasurementFamily:
    def test_matches_heterodyne_prefactor(self):
        m, e0, e1 = 2, 1.0, 0.5
        gen = make_generator("global-phase", (), m)
        u = MeanVector.of([math.sqrt(2 * e0), 0, 0, 0])
        n = MeanVector.of([0, 0, math.sqrt(2 * e1), 0])
        est = estimate_grad_moments(
            MeasurementGradientFamily(u=u, n=n, gen=gen), 60_000, RandomSource(18)
        )
        assert_within_sigma(
            est.second_moment,
            heterodyne_prefactor(m, e0, e1).value,
            est.std_error_second,
            n_sigma=4.0,
            context="measurement second moment",
        )

    def test_mode_mismatch_rejected(self):
        gen = make_generator("global-phase", (), 2)
        with pytest.raises(ValueError, match="mismatched mode counts"):
            MeasurementGradientFamily(
                u=MeanVector.vacuum(2), n=MeanVector.vacuum(3), gen=gen
            )


    def test_bare_matrix_rejected(self):
        u = MeanVector.of([1.0, 0.0, 0.0, 0.0])
        d = make_generator("global-phase", (), 2).d
        with pytest.raises(TypeError, match="GeneratorPair"):
            MeasurementGradientFamily(u=u, n=u, gen=d)
        with pytest.raises(TypeError, match="GeneratorPair"):
            CompilingGradientFamily(u, d)


class TestQuadraticFamily:
    def test_second_moment_matches_closed_form(self):
        gen = RandomSource(19).generator()
        m = 2
        from linopt_bp import bk_matrix, haar_orthogonal

        a = gen.standard_normal((4, 4))
        eta = a @ a.T / 4
        o_plus = haar_orthogonal(m, gen)
        b = bk_matrix(make_generator("two-mode-phase", (0, 1), m), o_plus @ eta @ o_plus.T)
        u = MeanVector.of(math.sqrt(2 * 1.5) * np.array([0.6, -0.8, 0.0, 0.0]))
        est = estimate_grad_moments(QuadraticGradientFamily(u=u, b=b), 80_000, RandomSource(20))
        assert_within_sigma(
            est.second_moment,
            quadratic_second_moment(u, b),
            est.std_error_second,
            n_sigma=4.0,
            context="quadratic second moment",
        )

    def test_signed_mean_vanishes(self):
        u = MeanVector.of([1.0, 0.0, 1.0, 0.0])
        b = np.diag([1.0, -1.0, 1.0, -1.0])
        est = estimate_grad_moments(QuadraticGradientFamily(u=u, b=b), 60_000, RandomSource(21))
        assert abs(est.mean) <= 3.0 * est.std_error_mean


class TestTailFrequency:
    def test_zero_threshold_saturates(self):
        tail = tail_frequency(_toy(), 0.0, 10_000, RandomSource(22))
        assert tail.fraction == 1.0 and tail.std_error == 0.0

    def test_unreachable_threshold(self):
        # |gradient| <= s for the toy family
        tail = tail_frequency(_toy(), 0.6, 10_000, RandomSource(23))
        assert tail.fraction == 0.0

    def test_chebyshev_consistency_over_grid(self):
        for m in (2, 4):
            for energy in (1.0, 4.0):
                family, *_ = _compiling(m, energy)
                moments = estimate_grad_moments(family, 30_000, RandomSource(24))
                for eps in (0.05, 0.2):
                    tail = tail_frequency(family, eps, 30_000, RandomSource(24))
                    bound = chebyshev_bound(
                        moments.second_moment + 5 * moments.std_error_second, 2, eps
                    )
                    assert tail.fraction <= bound + 5.0 * tail.std_error, (m, energy, eps)

    def test_tail_collapses_with_modes_at_linear_intensity(self):
        # E = m: the fraction of usable gradients dies off steeply with m
        eps = 0.01
        freqs = []
        for m in (2, 4, 6, 8):
            family, *_ = _compiling(m=m, energy=float(m))
            freqs.append(tail_frequency(family, eps, 50_000, RandomSource(25)).fraction)
        assert all(a > b for a, b in zip(freqs, freqs[1:])), freqs
        assert math.log(freqs[-1] / freqs[0]) <= -3.0


class TestSphereSampling:
    """The overlap and quadratic families draw sphere points, never Haar matrices."""

    def _instance(self, m=3):
        gen = RandomSource(31).generator()
        u = MeanVector.of(gen.standard_normal(2 * m))
        n = MeanVector.of(0.7 * gen.standard_normal(2 * m))
        bs = make_generator("beamsplitter", (0, 1), m)
        a = gen.standard_normal((2 * m, 2 * m))
        ham = QuadraticHamiltonian(a @ a.T / (2 * m))
        o_plus = sampling.haar_orthogonal(m, gen)
        b = bk_matrix(bs, o_plus @ ham.eta @ o_plus.T)
        return u, n, bs, ham, o_plus, b

    def test_families_draw_no_haar_matrices(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo family drew a Haar matrix")

        u, n, bs, _, _, b = self._instance()
        for name in ("haar_orthogonal_batch", "haar_orthogonal"):
            monkeypatch.setattr(sampling, name, forbidden)
            monkeypatch.setattr(estimators, name, forbidden, raising=False)
        families = [
            CompilingGradientFamily(u, bs),
            MeasurementGradientFamily(u=u, n=n, gen=bs),
            QuadraticGradientFamily(u=u, b=b),
        ]
        for family in families:
            x = family.sample_gradients(64, RandomSource(32).generator())
            assert x.shape == (64,) and np.all(np.isfinite(x)), family.name

    def test_second_moments_match_explicit_haar_pairs(self):
        # independent route: explicit Haar (O_minus, O_plus) through the
        # split-layer gradients of cost_functions, one pair per draw
        m, draws = 3, 20_000
        u, n, bs, ham, o_plus, b = self._instance(m)
        gen = RandomSource(33).generator()
        o_minus = sampling.haar_orthogonal_batch(m, draws, gen)
        o_plus_draws = sampling.haar_orthogonal_batch(m, draws, gen)
        cases = [
            (
                "measurement",
                MeasurementGradientFamily(u=u, n=n, gen=bs),
                [measurement_grad(u, n, bs, om, op) for om, op in zip(o_minus, o_plus_draws)],
            ),
            (
                "quadratic",
                QuadraticGradientFamily(u=u, b=b),
                [quadratic_grad(u, bs, ham, om, o_plus) for om in o_minus],
            ),
        ]
        for label, family, grads in cases:
            x2 = np.square(grads)
            haar_mean = float(x2.mean())
            haar_se = float(x2.std() / math.sqrt(draws))
            est = estimate_grad_moments(family, draws, RandomSource(34))
            combined = math.hypot(haar_se, est.std_error_second)
            assert abs(est.second_moment - haar_mean) <= 4.0 * combined, (
                label,
                est.second_moment,
                haar_mean,
                combined,
            )

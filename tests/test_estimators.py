import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from linopt_bp import (
    GeneratorPair,
    QuadraticHamiltonian,
    RandomSource,
    attenuated_intensity,
    chebyshev_bound,
    estimate_grad_moments,
    heterodyne_prefactor,
    make_generator,
    quadratic_second_moment,
    second_moment_point,
    toy_log_abs_expectation,
    uniform_sphere,
)
from linopt_bp import estimators, sampling
from linopt_bp.estimators import (
    CHUNK_SIZE,
    MIN_SAMPLES,
    MeasurementGradientFamily,
    QuadraticGradientFamily,
    ToyGradientFamily,
)

from conftest import (assert_within_sigma, bk_matrix, dense_d, every_kind, intensity, measurement_grad,
                      one_shot_sphere, quadratic_grad, tail_frequency, toy_gradients)


def _toy():
    return ToyGradientFamily(m=5, s=0.5)


def _compiling(m=2, energy=1.0):
    gen = make_generator("global-phase", (), m)
    return MeasurementGradientFamily(gen, energy, energy), gen, energy


class TestReproducibility:
    def test_identical_seed_identical_estimate(self):
        a = estimate_grad_moments(_toy(), 20_000, RandomSource(7))
        b = estimate_grad_moments(_toy(), 20_000, RandomSource(7))
        assert a == b

    def test_different_seed_differs(self):
        a = estimate_grad_moments(_toy(), 20_000, RandomSource(7))
        b = estimate_grad_moments(_toy(), 20_000, RandomSource(8))
        assert a.second_moment != b.second_moment

    def test_chunk_scheduling_invariance(self, monkeypatch):
        # more samples than one chunk, serial vs 4 workers: bitwise equal; four CPUs
        # are claimed so that four threads run on any host
        monkeypatch.setattr(estimators, "usable_cpus", lambda: 4)
        n = 3 * CHUNK_SIZE + 17
        serial = estimate_grad_moments(_toy(), n, RandomSource(11), n_jobs=1)
        threaded = estimate_grad_moments(_toy(), n, RandomSource(11), n_jobs=4)
        assert serial == threaded

    def test_integer_seed_accepted(self):
        a = estimate_grad_moments(_toy(), 10_000, 21)
        assert a.seed == 21


class _ZeroFamily:
    """A family whose chunks cost almost nothing."""

    def sample_gradients(self, size, rng):
        return np.zeros(size)


class _ConstantFamily:
    """Every gradient has the same value."""

    def __init__(self, value):
        self.value = value

    def sample_gradients(self, size, rng):
        return np.full(size, self.value)


class TestWorkerCount:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of each pool made; the stand-in pool maps inline, so a
        test of the worker count starts no thread."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(estimators, "ThreadPoolExecutor", InlinePool)
        return sizes

    @pytest.mark.parametrize("cpus, n_jobs, n_samples, workers", [
        (3, 5000, 10_000_000, 3),  # 2442 chunks: capped at the CPUs
        (8, 5000, 3 * CHUNK_SIZE, 3),  # capped at the chunks
        (8, 2, 3 * CHUNK_SIZE, 2),
    ])
    def test_workers_capped_by_cpus_and_chunks(self, pool_sizes, monkeypatch, cpus, n_jobs, n_samples, workers):
        monkeypatch.setattr(estimators, "usable_cpus", lambda: cpus)
        threads = threading.active_count()
        est = estimate_grad_moments(_ZeroFamily(), n_samples, RandomSource(1), n_jobs=n_jobs)
        assert pool_sizes == [workers]
        assert threading.active_count() == threads
        assert est.n_samples == n_samples and est.second_moment == 0.0

    @pytest.mark.parametrize("cpus, n_jobs, n_samples", [
        (8, 8, CHUNK_SIZE),  # a single chunk
        (1, 8, 3 * CHUNK_SIZE),  # a single CPU
        (8, 1, 3 * CHUNK_SIZE),
    ])
    def test_one_worker_creates_no_pool(self, pool_sizes, monkeypatch, cpus, n_jobs, n_samples):
        monkeypatch.setattr(estimators, "usable_cpus", lambda: cpus)
        serial = estimate_grad_moments(_toy(), n_samples, RandomSource(4), n_jobs=1)
        assert estimate_grad_moments(_toy(), n_samples, RandomSource(4), n_jobs=n_jobs) == serial
        assert pool_sizes == []

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_non_positive_jobs_rejected(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            estimate_grad_moments(_toy(), 10_000, RandomSource(1), n_jobs=n_jobs)

    def test_usable_cpus_reads_the_affinity_set(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert estimators.usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert estimators.usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert estimators.usable_cpus() == 1


class TestMomentEstimateContract:
    def test_second_moment_dominates_squared_mean(self):
        est = estimate_grad_moments(_toy(), 20_000, RandomSource(3))
        assert est.second_moment >= est.mean_abs**2 - 5 * est.std_error_second

    @pytest.mark.parametrize("n_samples", [MIN_SAMPLES, 2 * CHUNK_SIZE + 5])
    def test_moments_from_the_chunk_samples(self, n_samples):
        # every moment and standard error from one pass, against the same samples
        # (chunk i from substream i) taken with numpy's mean and var
        family, source = _toy(), RandomSource(26)
        x = np.concatenate([family.sample_gradients(min(CHUNK_SIZE, n_samples - start), source.substream(i))
                            for i, start in enumerate(range(0, n_samples, CHUNK_SIZE))])
        est = estimate_grad_moments(family, n_samples, RandomSource(26))
        assert (est.n_samples, est.seed) == (n_samples, 26)
        for got, sample in [(est.mean, x), (est.mean_abs, np.abs(x)), (est.second_moment, x * x)]:
            assert got == pytest.approx(sample.mean(), rel=1e-12)
        for got, sample in [(est.std_error_mean, x), (est.std_error_mean_abs, np.abs(x)),
                            (est.std_error_second, x * x)]:
            assert got == pytest.approx(math.sqrt(sample.var() / n_samples), rel=1e-9)
        assert abs(est.mean) < est.mean_abs

    @pytest.mark.parametrize("value, fourth", [(1e-100, "0.0"), (1e-78, "9.99"), (1e100, "inf")],
                             ids=["underflow", "subnormal", "overflow"])
    def test_second_moment_without_error_bar_rejected(self, value, fourth):
        # a g^4 sum of 0 or inf would make the variance of g^2 0 or inf - inf, and the
        # standard error 0.0
        with pytest.raises(ValueError, match=rf"has no standard error: the sum of g\^4 is {fourth}"):
            estimate_grad_moments(_ConstantFamily(value), MIN_SAMPLES, RandomSource(1))

    def test_zero_gradient_is_zero_plus_minus_zero(self):
        est = estimate_grad_moments(_ZeroFamily(), MIN_SAMPLES, RandomSource(1))
        assert (est.second_moment, est.std_error_second) == (0.0, 0.0)

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_grad_moments(_toy(), 999, RandomSource(0))

    def test_unknown_family_object_rejected(self):
        with pytest.raises(TypeError, match="unknown cost family"):
            estimate_grad_moments(object(), 10_000, RandomSource(0))


class TestToyFamily:
    @pytest.mark.parametrize("m, s", [(1, 0.3), (5, 0.5), (40, 2.0)])
    def test_chunk_matches_one_expression_oracle(self, m, s):
        got = ToyGradientFamily(m=m, s=s).sample_gradients(CHUNK_SIZE, RandomSource(9).substream(3))
        assert np.array_equal(got, toy_gradients(m, s, CHUNK_SIZE, RandomSource(9).substream(3)))

    def test_abs_gradient_matches_closed_form(self):
        est = estimate_grad_moments(_toy(), 150_000, RandomSource(12))
        assert_within_sigma(
            est.mean_abs,
            toy_log_abs_expectation(0.5, 5).value,
            est.std_error_mean_abs,
            context="toy abs gradient",
        )

    def test_single_mode_matches_sinh_form(self):
        s = 1.0
        est = estimate_grad_moments(ToyGradientFamily(m=1, s=s), 150_000, RandomSource(13))
        expected = (2.0 / math.pi) * math.exp(-s) * math.sinh(s)
        assert_within_sigma(est.mean_abs, expected, est.std_error_mean_abs, context="toy m=1")

    def test_signed_mean_vanishes_by_parity(self):
        est = estimate_grad_moments(_toy(), 100_000, RandomSource(14))
        assert abs(est.mean) <= 3.0 * est.std_error_mean

    def test_estimate_decreases_with_mode_count(self):
        s = 0.5
        means = [
            estimate_grad_moments(ToyGradientFamily(m=m, s=s), 50_000, RandomSource(15)).mean_abs
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
        est = estimate_grad_moments(MeasurementGradientFamily(gen, e0, e1), 60_000, RandomSource(18))
        assert_within_sigma(
            est.second_moment,
            heterodyne_prefactor(m, e0, e1).value,
            est.std_error_second,
            n_sigma=4.0,
            context="measurement second moment",
        )

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
    def test_intensity_must_be_finite_and_nonnegative(self, bad):
        # one check for both families and the closed forms they pair with, the toy
        # weight s, the input intensity of an attenuation chain and a sphere radius
        gen = make_generator("beamsplitter", (0, 1), 2)
        ham = QuadraticHamiltonian(np.eye(4))
        for call in (lambda: MeasurementGradientFamily(gen, bad, 1.0),
                     lambda: MeasurementGradientFamily(gen, 1.0, bad),
                     lambda: QuadraticGradientFamily(gen, bad, ham),
                     lambda: quadratic_second_moment(gen, bad, ham),
                     lambda: second_moment_point(gen, bad),
                     lambda: heterodyne_prefactor(2, 1.0, bad),
                     lambda: ToyGradientFamily(3, bad),
                     lambda: toy_log_abs_expectation(bad, 3),
                     lambda: attenuated_intensity(bad, 0.9, 3),
                     lambda: sampling.uniform_sphere_batch(2, bad, 5, RandomSource(0).generator()),
                     lambda: uniform_sphere(2, bad, RandomSource(0))):
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                call()

    def test_sphere_radius_must_be_finite(self):
        # E = 1e308 is a finite intensity, but sqrt(2E) is not: no family draws NaN gradients
        gen = make_generator("beamsplitter", (0, 1), 2)
        for call in (lambda: MeasurementGradientFamily(gen, 1e308, 1.0),
                     lambda: MeasurementGradientFamily(gen, 1.0, 1e308),
                     lambda: QuadraticGradientFamily(gen, 1e308, QuadraticHamiltonian(np.eye(4)))):
            with pytest.raises(ValueError, match=r"sphere radius sqrt\(2 e"):
                call()
        assert MeasurementGradientFamily(gen, 8e307, 1.0)._radii[0] == math.sqrt(1.6e308)

    def test_bare_matrix_rejected(self):
        d = dense_d(make_generator("global-phase", (), 2))
        with pytest.raises(TypeError, match="GeneratorPair"):
            MeasurementGradientFamily(d, 1.0, 1.0)
        with pytest.raises(TypeError, match="GeneratorPair"):
            QuadraticGradientFamily(d, 1.0, QuadraticHamiltonian(np.eye(4)))


class TestQuadraticFamily:
    def test_second_moment_matches_closed_form(self):
        gen = RandomSource(19).generator()
        m = 2
        from linopt_bp.sampling import haar_orthogonal_batch

        a = gen.standard_normal((4, 4))
        eta = a @ a.T / 4
        o_plus = haar_orthogonal_batch(m, 1, gen)[0]
        gen_k, ham = make_generator("two-mode-phase", (0, 1), m), QuadraticHamiltonian(o_plus @ eta @ o_plus.T)
        est = estimate_grad_moments(QuadraticGradientFamily(gen_k, 1.5, ham), 80_000, RandomSource(20))
        assert_within_sigma(
            est.second_moment,
            quadratic_second_moment(gen_k, 1.5, ham),
            est.std_error_second,
            n_sigma=4.0,
            context="quadratic second moment",
        )

    def test_signed_mean_vanishes(self):
        # E[w B w^T] = |u|^2 tr(B) / (2m) = 0
        family = QuadraticGradientFamily(make_generator("beamsplitter", (0, 1), 2), 1.0,
                                         QuadraticHamiltonian(np.diag([3.0, 1.0, 4.0, 2.5])))
        est = estimate_grad_moments(family, 60_000, RandomSource(21))
        assert abs(est.mean) <= 3.0 * est.std_error_mean

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 40])
    def test_gradients_match_dense_oracle(self, m):
        # each sample's 2 y D b^T on the gate's coordinates against the dense w B w^T of
        # the same sphere point w, B = [D_k, eta~] (conftest.bk_matrix)
        rng = RandomSource(700 + m).generator()
        a = rng.standard_normal((2 * m, 2 * m))
        ham = QuadraticHamiltonian(a @ a.T)
        energy = 0.5 * float(np.sum(rng.standard_normal(2 * m) ** 2))
        for gen_k in every_kind(m):
            family = QuadraticGradientFamily(gen_k, energy, ham)
            got = family.sample_gradients(500, RandomSource(m).generator())
            w = sampling.uniform_sphere_batch(m, math.sqrt(2 * energy), 500, RandomSource(m).generator())
            dense = np.einsum("ni,ij,nj->n", w, bk_matrix(gen_k, ham.eta), w)
            assert np.all(np.abs(got - dense) <= 1e-13 * np.abs(dense).max()), repr(gen_k)

    def test_copies_eta_tilde(self):
        # the Hamiltonian keeps a copy of eta~: the caller's array stays writeable,
        # and changing it later changes no gradient
        eta_tilde = np.diag([3.0, 1.0, 4.0, 2.5])
        family = QuadraticGradientFamily(make_generator("beamsplitter", (0, 1), 2), 1.0,
                                         QuadraticHamiltonian(eta_tilde))
        assert eta_tilde.flags.writeable
        before = family.sample_gradients(64, RandomSource(3).generator())
        eta_tilde[0, 1] = eta_tilde[1, 0] = 7.0
        np.testing.assert_array_equal(family.sample_gradients(64, RandomSource(3).generator()), before)

    def test_generator_on_no_mode_rejected(self):
        # GeneratorPair rejects the gate before the family sees it
        with pytest.raises(ValueError, match="no mode"):
            QuadraticGradientFamily(GeneratorPair.from_symmetric(np.zeros((4, 4))), 0.0,
                                    QuadraticHamiltonian(np.eye(4)))


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
        u = gen.standard_normal(2 * m)
        n = 0.7 * gen.standard_normal(2 * m)
        bs = make_generator("beamsplitter", (0, 1), m)
        a = gen.standard_normal((2 * m, 2 * m))
        ham = QuadraticHamiltonian(a @ a.T / (2 * m))
        o_plus = sampling.haar_orthogonal_batch(m, 1, gen)[0]
        return u, n, bs, ham, o_plus, QuadraticHamiltonian(o_plus @ ham.eta @ o_plus.T)

    def test_families_draw_no_haar_matrices(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo family drew a Haar matrix")

        u, n, bs, _, _, ham_tilde = self._instance()
        for name in ("haar_orthogonal_batch",):
            monkeypatch.setattr(sampling, name, forbidden)
            monkeypatch.setattr(estimators, name, forbidden, raising=False)
        families = [
            MeasurementGradientFamily(bs, intensity(u), intensity(u)),
            MeasurementGradientFamily(bs, intensity(u), intensity(n)),
            QuadraticGradientFamily(bs, intensity(u), ham_tilde),
        ]
        for family in families:
            x = family.sample_gradients(64, RandomSource(32).generator())
            assert x.shape == (64,) and np.all(np.isfinite(x)), type(family).__name__

    def test_second_moments_match_explicit_haar_pairs(self):
        # independent route: explicit Haar (O_minus, O_plus) through the
        # split-layer gradients of cost_functions, one pair per draw
        m, draws = 3, 20_000
        u, n, bs, ham, o_plus, ham_tilde = self._instance(m)
        gen = RandomSource(33).generator()
        o_minus = sampling.haar_orthogonal_batch(m, draws, gen)
        o_plus_draws = sampling.haar_orthogonal_batch(m, draws, gen)
        cases = [
            (
                "measurement",
                MeasurementGradientFamily(bs, intensity(u), intensity(n)),
                [measurement_grad(u, n, bs, om, op) for om, op in zip(o_minus, o_plus_draws)],
            ),
            (
                "quadratic",
                QuadraticGradientFamily(bs, intensity(u), ham_tilde),
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


class TestStreamedChunks:
    """The overlap families draw only the reduced coordinates of y and b; the quadratic
    family holds one (size, 2m) array of w plus its 2k gate coordinates."""

    M = 200

    def _measurement(self, kind, modes, m=M):
        gen = RandomSource(41).generator()
        u = gen.standard_normal(2 * m) / math.sqrt(m)
        n = 0.7 * gen.standard_normal(2 * m) / math.sqrt(m)
        e0, e1 = intensity(u), intensity(n)
        if kind == "graded":  # acceptance C2b's full-support block, unequal weights
            pair = GeneratorPair.from_symmetric(np.diag(np.repeat(0.5 * (1.0 + np.arange(m)) / m, 2)))
        else:
            pair = make_generator(kind, modes, m)
        return MeasurementGradientFamily(pair, e0, e1)

    @staticmethod
    def _radii(family):
        return math.sqrt(2 * family.e0), math.sqrt(2 * family.e1)

    @staticmethod
    def _dense_gradients(family, y, b):
        """The overlap gradient of full points y and b with the dense D."""
        weight = np.exp(np.einsum("ni,ni->n", y, b) - family.e0 - family.e1)
        return weight, -weight * np.einsum("ni,ij,nj->n", y, dense_d(family.gen), b)

    @pytest.mark.parametrize("kind,modes,m,scalar", [
        ("global-phase", (), M, True),
        ("phase-shifter", (5,), M, True),
        ("beamsplitter", (7, 3), M, False),
        ("graded", (), 4, False),
    ])
    def test_reduced_gradients_match_dense_oracle(self, kind, modes, m, scalar):
        # full sphere points mapped to the reduced coordinates by the rotations that
        # commute with D: a U(k) rotation taking y's gate modes to |y_S| on the first
        # q (scalar blocks only), and one taking y's off-gate part to |y_R|
        family, size = self._measurement(kind, modes, m), 300
        y_norm, b_norm = self._radii(family)
        gen = RandomSource(5).generator()
        y = one_shot_sphere(m, y_norm, size, gen)
        b = one_shot_sphere(m, b_norm, size, gen)
        support = family.gen.support
        rest = np.setdiff1d(np.arange(2 * m), support)
        y_s, b_s = y[:, support], b[:, support]
        if scalar:
            norm = np.linalg.norm(y_s, axis=1)
            z, c = (x[:, 0::2] + 1j * x[:, 1::2] for x in (y_s, b_s))
            first = np.einsum("nj,nj->n", (z / norm[:, None]).conj(), c)
            y_s = np.stack([norm, np.zeros(size)], axis=1)
            b_s = np.stack([first.real, first.imag], axis=1)
        assert family._gate == y_s.shape[1]
        if rest.size:
            norm = np.linalg.norm(y[:, rest], axis=1)
            along = np.einsum("ni,ni->n", y[:, rest], b[:, rest]) / norm
            y_s, b_s = np.column_stack([y_s, norm]), np.column_stack([b_s, along])
        weight, expected = self._dense_gradients(family, y, b)
        got = family._gradients(y_s, b_s)
        assert np.all(np.abs(got - expected) <= 1e-13 * weight * y_norm * b_norm)

    @pytest.mark.parametrize("kind,modes", [("beamsplitter", (7, 3)), ("two-mode-phase", (1, 3)),
                                            ("phase-shifter", (5,))])
    def test_compiling_moment_at_large_m(self, kind, modes):
        # the reduced draws at m = 200 against the exact second moment at E = 1
        gen = make_generator(kind, modes, self.M)
        est = estimate_grad_moments(MeasurementGradientFamily(gen, 1.0, 1.0), 40_000, RandomSource(1))
        assert_within_sigma(est.second_moment, second_moment_point(gen, 1.0).value, est.std_error_second,
                            n_sigma=4.0, context=repr(gen))

    @pytest.mark.parametrize("kind,modes,m", [
        ("global-phase", (), 10),
        ("phase-shifter", (5,), 10),
        ("two-mode-phase", (1, 3), 10),
        ("beamsplitter", (7, 3), 10),
        ("graded", (), 4),
    ])
    def test_gradients_match_full_sphere_draws_in_distribution(self, kind, modes, m):
        # two-sample Kolmogorov-Smirnov test against gradients of whole sphere points
        from scipy.stats import ks_2samp

        family, size = self._measurement(kind, modes, m), 20_000
        got = family.sample_gradients(size, RandomSource(6).generator())
        gen = RandomSource(7).generator()
        y_norm, b_norm = self._radii(family)
        y = one_shot_sphere(m, y_norm, size, gen)
        b = one_shot_sphere(m, b_norm, size, gen)
        assert ks_2samp(got, self._dense_gradients(family, y, b)[1]).pvalue > 0.01

    def test_generator_on_no_mode_rejected(self):
        # GeneratorPair rejects the gate before the family sees it
        with pytest.raises(ValueError, match="no mode"):
            MeasurementGradientFamily(GeneratorPair.from_symmetric(np.zeros((4, 4))), 0.0, 0.0)

    def test_scalar_block_construction_allocates_no_dense_matrix(self):
        # the scalar-block test reads dc's diagonal and counts its nonzeros; an m x m
        # identity and its complex product would be 24 MiB at m = 1024
        gen = make_generator("global-phase", (), 1024)
        tracemalloc.start()
        try:
            family = MeasurementGradientFamily(gen, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family._gate == 2 and peak <= 2**20, peak / 2**20

    @pytest.mark.parametrize("kind,modes", [("global-phase", ()), ("beamsplitter", (7, 3)), ("quadratic", ())])
    def test_chunk_peak_memory_is_about_one_array(self, kind, modes):
        if kind == "quadratic":
            array_bytes = CHUNK_SIZE * 2 * self.M * 8  # 13.1 MB, one (4096, 2m) array of w
            a = RandomSource(42).generator().standard_normal((2 * self.M, 2 * self.M))
            family = QuadraticGradientFamily(make_generator("beamsplitter", (7, 3), self.M),
                                             self._measurement("global-phase", ()).e0, QuadraticHamiltonian(a @ a.T))
            bound = 1.25 * array_bytes
        else:
            # reduced coordinates: well under 1 MiB at m = 1024, where one (4096, 2m)
            # array of whole sphere points is 64 MiB
            family = self._measurement(kind, modes, 1024)
            bound = 2 * 2**20
        tracemalloc.start()
        try:
            family.sample_gradients(CHUNK_SIZE, RandomSource(1).generator())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (kind, peak / 2**20)

import math

import numpy as np
import pytest

from linopt_bp import (
    GeneratorPair,
    MeanVector,
    QuadraticHamiltonian,
    RandomSource,
    attenuated_intensity,
    bk_matrix,
    haar_orthogonal,
    make_generator,
    overlap_fidelity,
    random_circuit,
    symplectic_form,
    toy_cost,
    toy_grad,
    toy_grad_abs_expectation,
)
from conftest import (assert_within_sigma, compiling_cost, compiling_grad, dense_gate, fd_gradient,
                      measurement_cost, measurement_grad, quadratic_cost, quadratic_grad,
                      series_bessel_i, simpson, split_action)


class TestToyModel:
    def test_zero_angles_zero_cost(self):
        assert toy_cost([0.7, -0.3], np.zeros(6)) == 0.0

    def test_single_mode_pi(self):
        # s = 2 here (|alpha|^2 = 1): cost = 1 - e^{-4}
        u = [math.sqrt(2.0), 0.0]
        assert toy_cost(u, [math.pi]) == pytest.approx(1.0 - math.exp(-4.0), rel=1e-14)

    def test_permutation_invariance(self):
        gen = RandomSource(2).generator()
        theta = gen.uniform(-math.pi, math.pi, 7)
        u = [0.5, 0.2]
        assert toy_cost(u, theta) == pytest.approx(
            toy_cost(u, np.roll(theta, 3)), rel=1e-14
        )

    def test_cost_bounded(self):
        gen = RandomSource(3).generator()
        for _ in range(50):
            c = toy_cost([1.1, 0.4], gen.uniform(-math.pi, math.pi, 5))
            assert 0.0 <= c < 1.0

    def test_gradient_matches_finite_difference(self):
        gen = RandomSource(4).generator()
        u = [0.8, -0.1]
        for _ in range(20):
            theta = gen.uniform(-math.pi, math.pi, 4)
            step = 1e-6
            plus, minus = theta.copy(), theta.copy()
            plus[0] += step
            minus[0] -= step
            fd = (toy_cost(u, plus) - toy_cost(u, minus)) / (2 * step)
            assert toy_grad(u, theta) == pytest.approx(fd, rel=1e-7, abs=1e-12)


class TestToyClosedForm:
    def test_zero_weight(self):
        assert toy_grad_abs_expectation(0.0, 5) == 0.0

    def test_single_mode_value(self):
        # (2/pi) e^{-s} sinh(s) at m = 1 (the Bessel power drops out)
        s = 1.0
        expected = (2.0 / math.pi) * math.exp(-1.0) * math.sinh(1.0)
        assert toy_grad_abs_expectation(s, 1) == pytest.approx(expected, rel=1e-12)

    def test_against_series_bessel(self):
        s, m = 0.8, 6
        expected = (
            (2.0 / math.pi)
            * math.exp(-m * s)
            * series_bessel_i(0, s) ** (m - 1)
            * math.sinh(s)
        )
        assert toy_grad_abs_expectation(s, m) == pytest.approx(expected, rel=1e-10)

    def test_sin_integral_identity_by_quadrature(self):
        # int |sin t| e^{x cos t} dt / (2 pi) = 2 sinh(x) / (pi x)
        for x in (0.3, 1.0, 2.5):
            val = simpson(lambda t: abs(math.sin(t)) * math.exp(x * math.cos(t)), -math.pi, math.pi)
            val /= 2.0 * math.pi
            assert val == pytest.approx(2.0 * math.sinh(x) / (math.pi * x), rel=1e-8)

    def test_monte_carlo_agreement(self):
        s, m, n = 0.5, 5, 200_000
        gen = RandomSource(50).generator()
        theta = gen.uniform(-math.pi, math.pi, (n, m))
        grads = s * np.sin(theta[:, 0]) * np.exp(s * (np.cos(theta).sum(axis=1) - m))
        mags = np.abs(grads)
        assert_within_sigma(
            float(mags.mean()),
            toy_grad_abs_expectation(s, m),
            float(mags.std(ddof=1) / math.sqrt(n)),
            context="toy closed form",
        )

    def test_decreasing_in_mode_count(self):
        s = 0.5
        vals = [toy_grad_abs_expectation(s, m) for m in (1, 3, 5, 9, 15)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCompilingCost:
    def test_identity_circuit(self):
        u = MeanVector.of([1.0, 0.5, -0.2, 0.0])
        eye = np.eye(4)
        assert compiling_cost(u, eye, eye) == 0.0

    def test_rotation_by_pi(self):
        # T = -I gives |u(I - T)|^2 = 4 |u|^2 = 8E, cost 1 - e^{-4E}
        energy = 0.7
        u = MeanVector.of([math.sqrt(2 * energy), 0.0])
        gen = make_generator("phase-shifter", (0,), 1)
        t = dense_gate(gen, math.pi)
        assert compiling_cost(u, np.eye(2), t) == pytest.approx(
            1.0 - math.exp(-4.0 * energy), rel=1e-12
        )

    def test_resolved_near_optimum(self):
        # a 1e-10 rad rotation moves u by 1e-10: 1 - exp(-x/2) would round the
        # cost to 0, -expm1(-x/2) keeps it; conftest's finite-difference oracle
        # goes through this cost
        u = MeanVector.of([1.0, 0.0])
        t = dense_gate(make_generator("phase-shifter", (0,), 1), 1e-10)
        diff = u.values @ t - u.values
        assert float(diff @ diff) == pytest.approx(1e-20, rel=1e-15, abs=0.0)
        assert compiling_cost(u, np.eye(2), t) == pytest.approx(5e-21, rel=1e-15, abs=0.0)

    def test_chains_through_overlap(self):
        gen = RandomSource(14).generator()
        u = MeanVector(gen.standard_normal(6))
        o_minus = haar_orthogonal(3, gen)
        o_plus = haar_orthogonal(3, gen)
        expected = 1.0 - overlap_fidelity(u, MeanVector(u.values @ (o_minus @ o_plus)))
        assert compiling_cost(u, o_minus, o_plus) == pytest.approx(expected, rel=1e-12)

    def test_bounds(self):
        gen = RandomSource(15).generator()
        for _ in range(30):
            u = MeanVector(gen.standard_normal(4))
            c = compiling_cost(u, haar_orthogonal(2, gen), haar_orthogonal(2, gen))
            assert 0.0 <= c <= 1.0


class TestMeasurementCost:
    def test_reached_target_is_free(self):
        gen = RandomSource(16).generator()
        u = MeanVector(gen.standard_normal(4))
        o_minus = haar_orthogonal(2, gen)
        o_plus = haar_orthogonal(2, gen)
        n = MeanVector(u.values @ (o_minus @ o_plus))
        assert measurement_cost(u, n, o_minus, o_plus) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_target_is_circuit_independent(self):
        e0 = 1.3
        u = MeanVector.of([math.sqrt(2 * e0), 0.0, 0.0, 0.0])
        n = MeanVector.vacuum(2)
        gen = RandomSource(17).generator()
        vals = [
            measurement_cost(u, n, haar_orthogonal(2, gen), haar_orthogonal(2, gen))
            for _ in range(10)
        ]
        np.testing.assert_allclose(vals, 1.0 - math.exp(-e0), rtol=1e-12)

    def test_reduces_to_compiling(self):
        gen = RandomSource(18).generator()
        u = MeanVector(gen.standard_normal(6))
        o_minus = haar_orthogonal(3, gen)
        o_plus = haar_orthogonal(3, gen)
        assert measurement_cost(u, u, o_minus, o_plus) == compiling_cost(u, o_minus, o_plus)


class TestAttenuation:
    def test_no_layers(self):
        assert attenuated_intensity(2.0, 0.9, 0) == 2.0

    def test_reference_value(self):
        assert attenuated_intensity(1.0, 0.9, 10) == pytest.approx(0.9**20, rel=1e-14)
        assert attenuated_intensity(1.0, 0.9, 10) == pytest.approx(0.12158, rel=1e-4)

    def test_monotone_in_layers(self):
        vals = [attenuated_intensity(1.0, 0.8, n) for n in range(6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_k_range(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError, match="attenuation factor"):
                attenuated_intensity(1.0, bad, 1)


class TestQuadraticCost:
    def test_vacuum_identity_hamiltonian(self):
        m = 3
        ham = QuadraticHamiltonian(np.eye(2 * m))
        eye = np.eye(2 * m)
        assert quadratic_cost(MeanVector.vacuum(m), ham, eye, eye) == pytest.approx(float(m))

    def test_zero_hamiltonian(self):
        ham = QuadraticHamiltonian(np.zeros((4, 4)))
        u = MeanVector.of([1.0, 2.0, 3.0, 4.0])
        assert quadratic_cost(u, ham, np.eye(4), np.eye(4)) == 0.0

    def test_psd_validation(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            QuadraticHamiltonian(-np.eye(4))
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticHamiltonian(np.triu(np.ones((4, 4))))

    def test_nonnegative_for_psd(self):
        gen = RandomSource(20).generator()
        a = gen.standard_normal((6, 6))
        ham = QuadraticHamiltonian(a @ a.T / 6)
        for _ in range(20):
            u = MeanVector(gen.standard_normal(6))
            c = quadratic_cost(u, ham, haar_orthogonal(3, gen), haar_orthogonal(3, gen))
            assert c >= 0.0


class TestBkMatrix:
    def _eta_tilde(self, gen, m):
        a = gen.standard_normal((2 * m, 2 * m))
        return (a + a.T) / 2

    def test_symmetric_and_traceless(self):
        gen = RandomSource(21).generator()
        for m in (2, 3, 4):
            b = bk_matrix(make_generator("two-mode-phase", (0, 1), m), self._eta_tilde(gen, m))
            np.testing.assert_allclose(b, b.T, atol=1e-12)
            assert abs(np.trace(b)) <= 1e-10

    def test_zero_generator(self):
        b = bk_matrix(GeneratorPair.from_symmetric(np.zeros((4, 4))), np.eye(4))
        np.testing.assert_array_equal(b, np.zeros((4, 4)))

    def test_commuting_pair_need_not_vanish(self):
        m = 2
        gen_k = make_generator("two-mode-phase", (0, 1), m)
        eps = gen_k.eps
        delta = symplectic_form(m)
        eta = eps + delta @ eps @ delta.T  # symmetric, commutes with delta
        b = bk_matrix(gen_k, eta)
        assert abs(np.trace(b)) <= 1e-12

    def test_rejects_energy_nonconserving_eps(self):
        eps = np.zeros((4, 4))
        eps[0, 0] = 1.0
        with pytest.raises(ValueError, match="commute"):
            bk_matrix(GeneratorPair.from_symmetric(eps), np.eye(4))

    def test_checks_eta_tilde(self):
        gen_k = make_generator("two-mode-phase", (0, 1), 2)
        with pytest.raises(ValueError, match="mismatched mode counts"):
            bk_matrix(gen_k, np.eye(6))
        with pytest.raises(ValueError, match="symmetric"):
            bk_matrix(gen_k, np.triu(np.ones((4, 4))))


class TestGradientFiniteDifferences:
    """Analytic gradients vs central differences of the layered circuit cost."""

    def _random_instance(self, gen, m, depth):
        k = int(gen.integers(1, depth + 1))  # before the circuit: every later draw is unchanged
        circ = random_circuit(m, depth, gen)
        circ = circ.with_theta(gen.uniform(-math.pi, math.pi, depth))
        energy = float(gen.uniform(0.2, 2.0))
        direction = gen.standard_normal(2 * m)
        direction /= np.linalg.norm(direction)
        u = MeanVector(math.sqrt(2 * energy) * direction)
        return circ, u, k

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_compiling_gradient(self, m):
        gen = RandomSource(100 + m).generator()
        for _ in range(13):
            circ, u, k = self._random_instance(gen, m, depth=4)
            o_minus, o_plus = split_action(circ, k)
            gen_k = circ.layers[k - 1].gen
            analytic = compiling_grad(u, gen_k, o_minus, o_plus)
            fd = fd_gradient(circ, k, "compiling", u)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-11)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_quadratic_gradient(self, m):
        gen = RandomSource(200 + m).generator()
        a = gen.standard_normal((2 * m, 2 * m))
        ham = QuadraticHamiltonian(a @ a.T / (2 * m))
        for _ in range(17):
            circ, u, k = self._random_instance(gen, m, depth=4)
            o_minus, o_plus = split_action(circ, k)
            gen_k = circ.layers[k - 1].gen
            analytic = quadratic_grad(u, gen_k, ham, o_minus, o_plus)
            fd = fd_gradient(circ, k, "quadratic", u, hamiltonian=ham)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-11)

    def test_measurement_gradient(self):
        gen = RandomSource(300).generator()
        m = 3
        for _ in range(15):
            circ, u, k = self._random_instance(gen, m, depth=4)
            target = MeanVector(gen.standard_normal(2 * m))
            o_minus, o_plus = split_action(circ, k)
            gen_k = circ.layers[k - 1].gen
            analytic = measurement_grad(u, target, gen_k, o_minus, o_plus)
            fd = fd_gradient(circ, k, "compiling", u, target=target)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-11)

    def test_trivial_zero_gradients(self):
        u = MeanVector.vacuum(2)
        gen_k = make_generator("beamsplitter", (0, 1), 2)
        eye = np.eye(4)
        assert compiling_grad(u, gen_k, eye, eye) == 0.0
        u2 = MeanVector.of([1.0, 0.0, 0.0, 0.0])
        assert compiling_grad(u2, GeneratorPair.from_symmetric(np.zeros((4, 4))), eye, eye) == 0.0

    def test_quadratic_gradient_matches_dense_kernel(self):
        # 2 w D_k (eta~ w^T) on the support against the dense w [D_k, eta~] w^T
        m = 5
        gen = RandomSource(302).generator()
        a = gen.standard_normal((2 * m, 2 * m))
        ham = QuadraticHamiltonian(a @ a.T / (2 * m))
        u = MeanVector(gen.standard_normal(2 * m))
        o_minus, o_plus = haar_orthogonal(m, gen), haar_orthogonal(m, gen)
        w = u.values @ o_minus
        eta_tilde = o_plus @ ham.eta @ o_plus.T
        custom = GeneratorPair.from_symmetric(
            0.7 * make_generator("beamsplitter", (0, 3), m).eps
            + 0.3 * make_generator("two-mode-phase", (1, 3), m).eps
            + 1.1 * make_generator("phase-shifter", (4,), m).eps)
        assert not custom.rodrigues
        gens = [make_generator("phase-shifter", (2,), m), make_generator("two-mode-phase", (1, 4), m),
                make_generator("beamsplitter", (3, 0), m), make_generator("global-phase", (), m), custom]
        for gen_k in gens:
            dense = float(w @ bk_matrix(gen_k, eta_tilde) @ w)
            assert quadratic_grad(u, gen_k, ham, o_minus, o_plus) == pytest.approx(dense, rel=1e-12), gen_k.label

    def test_quadratic_gradient_ignores_vacuum_term(self):
        # the covariance contribution tr(eta)/2 is theta-independent
        gen = RandomSource(301).generator()
        m = 2
        a = gen.standard_normal((2 * m, 2 * m))
        eta = a @ a.T / (2 * m)
        ham_shifted = QuadraticHamiltonian(eta + 3.0 * np.eye(2 * m))
        ham = QuadraticHamiltonian(eta)
        circ, u, k = TestGradientFiniteDifferences()._random_instance(gen, m, 4)
        o_minus, o_plus = split_action(circ, k)
        gen_k = circ.layers[k - 1].gen
        g1 = quadratic_grad(u, gen_k, ham, o_minus, o_plus)
        # identity part of eta~ commutes with D_k, so it cannot contribute
        g2 = quadratic_grad(u, gen_k, ham_shifted, o_minus, o_plus)
        assert g1 == pytest.approx(g2, rel=1e-10)

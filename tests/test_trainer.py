import math
import re

import numpy as np
import pytest

from linopt_bp import (
    GeneratorPair,
    LayeredCircuit,
    NonFiniteCostError,
    QuadraticHamiltonian,
    RandomSource,
    TrainConfig,
    make_generator,
    random_circuit,
    train,
    uniform_sphere,
)
from linopt_bp.sampling import haar_unitary_batch
from linopt_bp.trainer import _Objective, layer_gradients

from conftest import compiling_grad, identity_fixed, orthogonal_action, quadratic_grad, split_action


def _instance(seed, m=2, depth=4, energy=0.5):
    inst = RandomSource(seed).generator()
    circ = random_circuit(m, depth, inst)
    circ = circ.with_theta(inst.uniform(-math.pi, math.pi, depth))
    u = uniform_sphere(m, math.sqrt(2 * energy), inst)
    return circ, u


def _assert_matches_split_kernel(gens, gen, rel):
    """Compiling-cost layer gradients of a Haar-layered circuit over ``gens``
    against the split-layer oracle, to relative tolerance ``rel``."""
    m = gens[0].m
    unitaries = haar_unitary_batch(m, len(gens), gen)
    circ = LayeredCircuit(gens, unitaries, gen.uniform(-math.pi, math.pi, len(gens)))
    u = uniform_sphere(m, 1.0, gen)
    grads = layer_gradients(circ, "compiling", u)
    for k in range(1, circ.depth + 1):
        o_minus, o_plus = split_action(circ, k)
        gen_k = circ.gens[k - 1]
        assert grads[k - 1] == pytest.approx(compiling_grad(u, gen_k, o_minus, o_plus), rel=rel), k


class TestTrainBasics:
    def test_already_at_optimum_takes_zero_iterations(self):
        circ = identity_fixed(random_circuit(2, 3, RandomSource(1).generator()))
        u = np.array([1.0, 0.2, -0.5, 0.0])
        records = train(circ, "compiling", u, TrainConfig(lr=0.5, max_iters=100, tol=1e-12))
        assert len(records) == 1
        assert records[0].iteration == 0
        assert records[0].cost == 0.0
        assert records[0].grad_norm == 0.0

    def test_compiling_cost_resolved_near_optimum(self):
        # 1 - exp(-x/2) would round to 0 here; -expm1(-x/2) keeps full precision
        circ = identity_fixed(random_circuit(2, 3, RandomSource(1).generator()))
        u = np.array([1.0, 0.0, -0.5, 0.0])
        target = np.array([1.0, 1e-10, -0.5, 0.0])
        dist2 = float(np.sum((u - target) ** 2))
        assert dist2 == pytest.approx(1e-20, rel=1e-15, abs=0.0)
        config = TrainConfig(lr=0.5, max_iters=0, tol=0.0)
        cost = train(circ, "compiling", u, config, target=target)[0].cost
        assert cost == pytest.approx(0.5 * dist2, rel=1e-15, abs=0.0)

    def test_records_every_iteration(self):
        circ, u = _instance(2)
        records = train(circ, "compiling", u, TrainConfig(lr=0.5, max_iters=25, tol=0.0))
        assert [r.iteration for r in records] == list(range(len(records)))
        assert len(records) == 26

    def test_unknown_family_rejected(self):
        circ, u = _instance(3)
        with pytest.raises(ValueError, match="unknown cost family"):
            train(circ, "vqe", u, TrainConfig(lr=0.1, max_iters=1, tol=0.0))

    def test_quadratic_needs_hamiltonian(self):
        circ, u = _instance(4)
        with pytest.raises(ValueError, match="Hamiltonian"):
            train(circ, "quadratic", u, TrainConfig(lr=0.1, max_iters=1, tol=0.0))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=0.0, max_iters=10, tol=0.0)



class TestTrainArguments:
    """The trainer checks its state and its family's arguments once, when it takes
    them: a bad one raises a TypeError or ValueError naming it, not a failure of the
    first evaluation."""

    @pytest.mark.parametrize("family,u,kwargs,error,message", [
        ("compiling", [1.0, 2.0, 3.0], {}, ValueError,
         "u must be a vector of 2m = 6 reals for the circuit's 3 modes, got shape (3,)"),
        ("compiling", np.ones((2, 3)), {}, ValueError,
         "u must be a vector of 2m = 6 reals for the circuit's 3 modes, got shape (2, 3)"),
        ("compiling", [1.0, math.inf, 0.0, 0.0, 0.0, 0.0], {}, ValueError, "u entries must be finite"),
        ("compiling", None, {"target": np.ones(4)}, ValueError,
         "target must be a vector of 2m = 6 reals for the circuit's 3 modes, got shape (4,)"),
        ("compiling", None, {"target": [math.nan] * 6}, ValueError, "target entries must be finite"),
        ("compiling", None, {"hamiltonian": QuadraticHamiltonian(np.eye(6))}, ValueError,
         "the compiling family takes no hamiltonian"),
        ("quadratic", None, {"hamiltonian": QuadraticHamiltonian(np.eye(4))}, ValueError,
         "hamiltonian and circuit have mismatched mode counts: 2 vs 3"),
        ("quadratic", None, {"hamiltonian": np.eye(6)}, TypeError,
         "hamiltonian must be a QuadraticHamiltonian, got ndarray"),
        ("quadratic", None, {"hamiltonian": QuadraticHamiltonian(np.eye(6)), "target": np.ones(6)}, ValueError,
         "the quadratic family takes no target"),
    ], ids=["u-odd-length", "u-two-rows", "u-non-finite", "target-length", "target-non-finite", "compiling-hamiltonian",
            "hamiltonian-modes", "hamiltonian-bare-array", "quadratic-target"])
    def test_named_before_evaluation(self, family, u, kwargs, error, message):
        circ, state = _instance(40, m=3)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            train(circ, family, state if u is None else u, TrainConfig(lr=0.1, max_iters=1, tol=0.0), **kwargs)

    def test_state_is_a_frozen_copy(self):
        circ, u = _instance(41, m=3)
        objective = _Objective(circ, "compiling", u)
        cost = objective.evaluate(circ.theta)[0]
        u[0] += 1.0
        assert objective.evaluate(circ.theta)[0] == cost
        with pytest.raises(ValueError):
            objective.u[0] = 2.0

class TestTrainerGradients:
    def test_shared_kernel_with_cost_module(self):
        circ, u = _instance(5, m=3, depth=5)
        grads = layer_gradients(circ, "compiling", u)
        # the adjoint gradients agree with the overlap kernel on the split
        # decomposition (association order of the orthogonal products differs
        # only at machine precision)
        for k in range(1, circ.depth + 1):
            o_minus, o_plus = split_action(circ, k)
            gen_k = circ.gens[k - 1]
            assert grads[k - 1] == pytest.approx(
                compiling_grad(u, gen_k, o_minus, o_plus), rel=1e-11
            )

    def test_forward_matches_composed_action(self):
        for m, depth in ((1, 3), (3, 6), (8, 10)):
            circ, u = _instance(30 + m, m=m, depth=depth)
            _, states = _Objective(circ, "compiling", u).forward(circ.theta)
            np.testing.assert_allclose(states[-1].view(np.float64), u @ orthogonal_action(circ),
                                       rtol=0, atol=1e-13)

    def test_mixed_generators_match_split_kernel(self):
        # one gate stack per support size, custom generators through ``block``
        m = 3
        eps = np.zeros((2 * m, 2 * m))
        eps[:2, :2] = 0.5 * np.eye(2)
        eps[2:4, 2:4] = 1.5 * np.eye(2)
        gens = [make_generator("beamsplitter", (0, 2), m), GeneratorPair.from_symmetric(eps),
                make_generator("phase-shifter", (1,), m), make_generator("global-phase", (), m),
                make_generator("two-mode-phase", (2, 1), m), make_generator("phase-shifter", (0,), m)]
        _assert_matches_split_kernel(gens, RandomSource(14).generator(), rel=1e-11)

    def test_nearly_commuting_custom_generator_matches_split_kernel(self):
        # a 2e-11 q_0 q_1 coupling without its p_0 p_1 partner passes the generator
        # check; the trainer's complex blocks and the real split oracle must both
        # see the same commuting part of it
        m = 3
        eps = np.zeros((2 * m, 2 * m))
        eps[:2, :2] = 0.5 * np.eye(2)
        eps[2:4, 2:4] = 1.5 * np.eye(2)
        eps[0, 2] = eps[2, 0] = 2e-11
        gens = [make_generator("beamsplitter", (0, 2), m), GeneratorPair.from_symmetric(eps),
                make_generator("phase-shifter", (1,), m)]
        _assert_matches_split_kernel(gens, RandomSource(15).generator(), rel=1e-14)

    def test_quadratic_gradients_match_split_kernel(self):
        gen = RandomSource(10).generator()
        circ, u = _instance(10, m=3, depth=5)
        a = gen.standard_normal((6, 6))
        ham = QuadraticHamiltonian(a @ a.T / 6)
        grads = layer_gradients(circ, "quadratic", u, hamiltonian=ham)
        for k in range(1, circ.depth + 1):
            o_minus, o_plus = split_action(circ, k)
            gen_k = circ.gens[k - 1]
            assert grads[k - 1] == pytest.approx(
                quadratic_grad(u, gen_k, ham, o_minus, o_plus), rel=1e-11
            )

    def test_quadratic_gradients_match_finite_differences(self):
        from conftest import fd_gradient

        gen = RandomSource(6).generator()
        circ, u = _instance(6, m=2, depth=4)
        a = gen.standard_normal((4, 4))
        ham = QuadraticHamiltonian(a @ a.T / 4)
        grads = layer_gradients(circ, "quadratic", u, hamiltonian=ham)
        for k in (1, 3):
            fd = fd_gradient(circ, k, "quadratic", u, hamiltonian=ham)
            assert grads[k - 1] == pytest.approx(fd, rel=1e-6, abs=1e-11)


class TestDescentBehavior:
    def test_monotone_decrease_with_backoff(self):
        for seed in range(10):
            circ, u = _instance(100 + seed)
            records = train(circ, "compiling", u, TrainConfig(lr=0.8, max_iters=150, tol=0.0))
            costs = np.array([r.cost for r in records])
            assert np.all(np.diff(costs) <= 1e-15), seed

    def test_converges_in_trainable_regime(self):
        hits = 0
        for seed in (0, 1, 2):
            circ, u = _instance(seed, m=2, energy=0.5)
            records = train(circ, "compiling", u, TrainConfig(lr=1.0, max_iters=2000, tol=1e-10))
            hits += records[-1].cost < 1e-3
        assert hits == 3

    def test_plateau_regime_has_tiny_initial_gradient(self):
        small = [_instance(s, m=2, energy=0.5) for s in range(3)]
        large = [_instance(s, m=12, energy=12.0) for s in range(3)]
        gn_small = [
            train(c, "compiling", u, TrainConfig(lr=1.0, max_iters=0, tol=0.0))[0].grad_norm
            for c, u in small
        ]
        gn_large = [
            train(c, "compiling", u, TrainConfig(lr=1.0, max_iters=0, tol=0.0))[0].grad_norm
            for c, u in large
        ]
        assert np.median(gn_small) / np.median(gn_large) >= 1e2

    def test_quadratic_cost_decreases(self):
        gen = RandomSource(7).generator()
        circ, u = _instance(7, m=2, energy=1.0)
        a = gen.standard_normal((4, 4))
        ham = QuadraticHamiltonian(a @ a.T / 4)
        records = train(circ, "quadratic", u, TrainConfig(lr=0.05, max_iters=200, tol=0.0),
                        hamiltonian=ham)
        assert records[-1].cost < records[0].cost

    def test_non_finite_step_raises(self):
        circ, u = _instance(8)
        with pytest.raises(NonFiniteCostError):
            # the first step's |theta| passes MAX_ANGLE before any backoff
            train(circ, "compiling", u, TrainConfig(lr=1e308, max_iters=10, tol=0.0))

    def test_angle_without_precision_raises(self):
        circ, u = _instance(8, depth=1)
        config = TrainConfig(lr=0.1, max_iters=0, tol=0.0)
        with pytest.raises(NonFiniteCostError):
            train(circ.with_theta([1e17]), "compiling", u, config)
        records = train(circ.with_theta([1e15]), "compiling", u, config)
        assert math.isfinite(records[0].cost)

    def test_backoffs_recorded_per_step(self):
        circ, u = _instance(101)
        config = TrainConfig(lr=8.0, max_iters=40, tol=0.0)
        records = train(circ, "compiling", u, config)
        assert records[0].lr == config.lr and records[0].backoffs == 0
        lr = config.lr
        for rec in records[1:]:
            lr *= 0.5 ** rec.backoffs
            assert rec.lr == lr
        assert sum(rec.backoffs for rec in records) > 0


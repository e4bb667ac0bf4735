import math

import numpy as np
import pytest
from scipy.linalg import expm

from linopt_bp import (
    GeneratorPair,
    LayeredCircuit,
    MeanVector,
    RandomSource,
    make_generator,
    random_circuit,
    symplectic_form,
)
from linopt_bp.linear_optics import GateBlocks, Layer, embed_unitary
from linopt_bp.sampling import haar_unitary_batch

from conftest import dense_gate, fd_gradient, identity_fixed, layer_transfers, orthogonal_action, split_action


def test_symplectic_form_single_mode():
    np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("m", [1, 3, 4])
def test_symplectic_form_structure(m):
    delta = symplectic_form(m)
    np.testing.assert_array_equal(delta, np.kron(np.eye(m), [[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_array_equal(delta.T, -delta)
    np.testing.assert_allclose(delta @ delta.T, np.eye(2 * m), atol=0)
    np.testing.assert_allclose(delta @ delta, -np.eye(2 * m), atol=0)


class TestGenerators:
    @pytest.mark.parametrize(
        "kind,modes,m",
        [
            ("phase-shifter", (0,), 1),
            ("phase-shifter", (2,), 4),
            ("two-mode-phase", (0, 1), 2),
            ("two-mode-phase", (1, 3), 5),
            ("beamsplitter", (0, 1), 2),
            ("beamsplitter", (2, 0), 3),
            ("global-phase", (), 3),
        ],
    )
    def test_invariants(self, kind, modes, m):
        gen = make_generator(kind, modes, m)
        delta = symplectic_form(m)
        np.testing.assert_allclose(gen.d + gen.d.T, 0, atol=1e-14)
        np.testing.assert_allclose(gen.eps - gen.eps.T, 0, atol=1e-14)
        # energy conservation: eps commutes with the symplectic form
        np.testing.assert_allclose(gen.eps @ delta - delta @ gen.eps, 0, atol=1e-14)
        # Heisenberg relation for the stored pair
        np.testing.assert_allclose(gen.d, -2.0 * gen.eps @ delta, atol=1e-14)

    def test_phase_shifter_eps_block(self):
        gen = make_generator("phase-shifter", (1,), 3)
        expected = np.zeros((6, 6))
        expected[2:4, 2:4] = 0.5 * np.eye(2)
        np.testing.assert_array_equal(gen.eps, expected)

    def test_two_mode_phase_blocks(self):
        gen = make_generator("two-mode-phase", (0, 1), 2)
        np.testing.assert_array_equal(gen.eps[0:2, 0:2], 0.5 * np.eye(2))
        np.testing.assert_array_equal(gen.eps[2:4, 2:4], -0.5 * np.eye(2))

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            make_generator("phase-shifter", (3,), 2)
        with pytest.raises(ValueError, match="distinct"):
            make_generator("beamsplitter", (1, 1), 3)
        with pytest.raises(ValueError, match="unknown generator kind"):
            make_generator("squeezer", (0,), 2)

    def test_from_symmetric_rejects_active_generators(self):
        # q^2 alone squeezes; it does not commute with the symplectic form
        eps = np.zeros((2, 2))
        eps[0, 0] = 1.0
        with pytest.raises(ValueError, match="conserve energy"):
            GeneratorPair.from_symmetric(eps)

    def test_builtin_blocks_are_stored_bit_for_bit(self):
        # every built-in eps commutes with Delta exactly, so keeping its commuting
        # part changes no bit, signed zeros included
        bs = 0.5 * np.array([[0.0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        swap = np.ix_([2, 3, 0, 1], [2, 3, 0, 1])
        phases = np.kron(np.diag([0.5, -0.5]), np.eye(2))
        cases = [(make_generator("phase-shifter", (2,), 4), 0.5 * np.eye(2)),
                 (make_generator("two-mode-phase", (1, 3), 5), phases),
                 (make_generator("two-mode-phase", (3, 1), 5), phases[swap]),
                 (make_generator("beamsplitter", (0, 1), 2), bs),
                 (make_generator("beamsplitter", (2, 0), 3), bs[swap]),
                 (make_generator("global-phase", (), 3), 0.5 * np.eye(6))]
        for gen, block in cases:
            assert gen.eps_s.tobytes() == block.tobytes(), gen.label

    def test_nearly_commuting_block_keeps_its_commuting_part(self):
        # a 2e-11 q_0 q_1 coupling without its p_0 p_1 partner passes the 1e-10 check;
        # the stored block is the average of eps and Delta^T eps Delta
        eps_s = np.diag([0.5, 0.5, 1.5, 1.5])
        eps_s[0, 2] = eps_s[2, 0] = 2e-11
        gen = GeneratorPair(2, np.arange(4), eps_s)
        expected = np.diag([0.5, 0.5, 1.5, 1.5])
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1e-11
        np.testing.assert_array_equal(gen.eps_s, expected)
        delta = symplectic_form(2)
        np.testing.assert_array_equal(gen.eps_s @ delta, delta @ gen.eps_s)
        np.testing.assert_array_equal(gen.d_s, -2.0 * gen.eps_s @ delta)

    @pytest.mark.parametrize("support", [[1, 2], [2, 3, 0, 1], [0, 1, 0, 1], [4, 5], [-2, -1], [0], [[0, 1]]])
    def test_rejects_support_that_is_not_whole_ascending_mode_pairs(self, support):
        with pytest.raises(ValueError, match="whole mode pairs"):
            GeneratorPair(2, np.array(support), np.zeros((len(support), len(support))))

    def test_rejects_block_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="support has 4 coordinates"):
            GeneratorPair(2, np.arange(4), 0.5 * np.eye(2))

    def test_rejects_noncommuting_block(self):
        eps_s = np.zeros((2, 2))
        eps_s[0, 0] = 1.0
        with pytest.raises(ValueError, match="conserve energy"):
            GeneratorPair(3, np.array([2, 3]), eps_s)

    def test_circuit_generators_store_only_their_blocks(self):
        circ = random_circuit(64, 64, RandomSource(5).generator())
        for layer in circ.layers:
            sizes = [v.size for v in vars(layer.gen).values() if isinstance(v, np.ndarray)]
            assert sizes and max(sizes) <= 16, layer.gen.label

    def test_commutator_map_is_traceless(self):
        # for symmetric M commuting with Delta and any symmetric N,
        # tr[2(M Delta N - N Delta M)] = 0
        gen = RandomSource(3).generator()
        for m in (2, 3, 5):
            delta = symplectic_form(m)
            a = gen.standard_normal((2 * m, 2 * m))
            a = (a + a.T) / 2
            m_mat = a + delta @ a @ delta.T
            b = gen.standard_normal((2 * m, 2 * m))
            n_mat = (b + b.T) / 2
            comm = 2.0 * (m_mat @ delta @ n_mat - n_mat @ delta @ m_mat)
            assert abs(np.trace(comm)) < 1e-10


class TestGateAction:
    def test_theta_zero_is_identity(self):
        gen = make_generator("beamsplitter", (0, 1), 2)
        np.testing.assert_array_equal(dense_gate(gen, 0.0), np.eye(4))

    def test_phase_shifter_rotation_closed_form(self):
        gen = make_generator("phase-shifter", (0,), 1)
        for theta in (0.3, -1.1, math.pi / 2):
            expected = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            np.testing.assert_allclose(dense_gate(gen, theta), expected, atol=1e-14)

    def test_sign_convention_phase_rotation(self):
        # exp(-i theta a* a): alpha -> exp(-i theta) alpha
        gen = make_generator("phase-shifter", (0,), 1)
        theta = 0.7
        alpha = 0.4 - 0.9j
        u = MeanVector.of([math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag])
        out = u.values @ dense_gate(gen, theta)
        alpha_out = (out[0] + 1j * out[1]) / math.sqrt(2)
        assert alpha_out == pytest.approx(alpha * np.exp(-1j * theta), rel=1e-12)

    def test_group_inverse(self):
        gen = make_generator("two-mode-phase", (0, 2), 3)
        t = dense_gate(gen, 0.9)
        np.testing.assert_allclose(t @ dense_gate(gen, -0.9), np.eye(6), atol=1e-13)

    @pytest.mark.parametrize("kind,modes", [("phase-shifter", (1,)), ("beamsplitter", (0, 2)), ("two-mode-phase", (2, 1))])
    def test_orthogonal_and_symplectic(self, kind, modes):
        m = 3
        gen = make_generator(kind, modes, m)
        delta = symplectic_form(m)
        rng = RandomSource(17).generator()
        for theta in rng.uniform(-6, 6, 100):
            t = dense_gate(gen, theta)
            assert np.linalg.norm(t.T @ t - np.eye(2 * m)) <= 1e-9
            assert np.linalg.norm(t @ delta @ t.T - delta) <= 1e-9


class TestSupport:
    @pytest.mark.parametrize("kind,modes,m,size", [
        ("phase-shifter", (2,), 4, 2),
        ("two-mode-phase", (1, 3), 5, 4),
        ("beamsplitter", (3, 0), 4, 4),
        ("global-phase", (), 3, 6),
    ])
    def test_support_size_per_kind(self, kind, modes, m, size):
        gen = make_generator(kind, modes, m)
        assert gen.support.size == size
        np.testing.assert_array_equal(gen.d_s, gen.d[np.ix_(gen.support, gen.support)])
        off = np.setdiff1d(np.arange(2 * m), gen.support)
        assert not gen.d[off].any() and not gen.d[:, off].any()

    @pytest.mark.parametrize("kind,modes", [("phase-shifter", (1,)), ("beamsplitter", (3, 0)),
                                            ("two-mode-phase", (2, 1))])
    def test_gate_is_identity_off_support(self, kind, modes):
        m = 4
        gen = make_generator(kind, modes, m)
        off = np.setdiff1d(np.arange(2 * m), gen.support)
        for theta in (0.3, -2.5, 10.0):
            t = dense_gate(gen, theta)
            np.testing.assert_array_equal(t[off], np.eye(2 * m)[off])
            np.testing.assert_array_equal(t[:, off], np.eye(2 * m)[:, off])
            np.testing.assert_array_equal(t[np.ix_(gen.support, gen.support)], gen.block(theta))


def _standard_generators():
    """Every standard kind at m in {1, 2, 5} (two-mode kinds from m = 2)."""
    for kind, modes in [("phase-shifter", (0,)), ("two-mode-phase", (0, 1)),
                        ("beamsplitter", (0, 1)), ("global-phase", ())]:
        for m in (1, 2, 5):
            if len(modes) < 2 or m >= 2:
                yield make_generator(kind, modes, m)


class TestClosedFormGate:
    def test_standard_kinds_take_closed_form(self):
        for gen in _standard_generators():
            assert gen.rodrigues, gen.label

    @pytest.mark.parametrize("theta", [0.3, -0.3, math.pi, -math.pi, 10.0])
    def test_matches_expm(self, theta):
        for gen in _standard_generators():
            np.testing.assert_allclose(
                dense_gate(gen, theta), expm(theta * gen.d), rtol=0, atol=1e-13, err_msg=gen.label
            )

    def test_large_angle_stays_orthogonal(self):
        # expm itself drifts at theta = 1e3, so agreement with it is loose here
        for gen in _standard_generators():
            t = dense_gate(gen, 1e3)
            np.testing.assert_allclose(t.T @ t, np.eye(t.shape[0]), rtol=0, atol=1e-14)
            np.testing.assert_allclose(t, expm(1e3 * gen.d), rtol=0, atol=1e-10)

    def test_custom_generator_falls_back_to_expm(self):
        eps = np.zeros((4, 4))
        eps[:2, :2] = 0.5 * np.eye(2)
        eps[2:, 2:] = 1.5 * np.eye(2)
        gen = GeneratorPair.from_symmetric(eps)
        assert not gen.rodrigues
        for theta in (0.3, -2.0, 10.0):
            np.testing.assert_allclose(dense_gate(gen, theta), expm(theta * gen.d), rtol=0, atol=1e-13)


def _passive_defects(w):
    """(orthogonality, symplecticity) defects of a real 2m x 2m matrix, max-abs."""
    delta = symplectic_form(w.shape[0] // 2)
    eye = np.eye(w.shape[0])
    return np.abs(w.T @ w - eye).max(), np.abs(w @ delta @ w.T - delta).max()


class TestFixedLayers:
    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_random_circuit_layers_are_passive(self, m):
        circ = random_circuit(m, 6, RandomSource(7).generator())
        for layer in circ.layers:
            assert layer.unitary.shape == (m, m)
            assert max(_passive_defects(embed_unitary(layer.unitary))) <= 1e-12
        total = orthogonal_action(circ.with_theta(np.linspace(-3.0, 3.0, 6)))
        assert max(_passive_defects(total)) <= 1e-12

    def test_embedding_matches_complex_action(self):
        m = 5
        gen = RandomSource(3).generator()
        u = haar_unitary_batch(m, 1, gen)[0]
        w = embed_unitary(u)
        # basis vectors pick out rows: exact agreement
        for j in range(2 * m):
            e = np.zeros(2 * m)
            e[j] = 1.0
            np.testing.assert_array_equal(w[j], (e.view(np.complex128) @ u).view(np.float64))
        v = gen.standard_normal(2 * m)
        np.testing.assert_allclose(v @ w, (v.view(np.complex128) @ u).view(np.float64),
                                   rtol=0, atol=1e-14)

    def test_phase_convention_matches_phase_shifter(self):
        # the phase shifter multiplies z = q + i p by exp(-i theta)
        theta = 0.7
        gate = dense_gate(make_generator("phase-shifter", (0,), 1), theta)
        np.testing.assert_allclose(gate, embed_unitary([[np.exp(-1j * theta)]]), rtol=0, atol=1e-15)

    def test_layer_validates_its_unitary(self):
        gen = make_generator("beamsplitter", (0, 1), 2)
        with pytest.raises(ValueError, match="not unitary"):
            Layer(gen, np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="acts on 2 modes"):
            Layer(gen, np.eye(4))
        layer = Layer(gen, np.eye(2))
        assert layer.unitary.dtype == np.complex128 and not layer.unitary.flags.writeable


def test_gate_blocks_match_block():
    # the batched complex blocks, embedded, against the per-generator real reference
    m = 4
    eps = np.zeros((2 * m, 2 * m))
    eps[:2, :2] = 0.5 * np.eye(2)
    eps[2:4, 2:4] = 1.5 * np.eye(2)
    gens = [make_generator("beamsplitter", (3, 0), m), GeneratorPair.from_symmetric(eps),
            make_generator("phase-shifter", (2,), m), make_generator("global-phase", (), m),
            make_generator("two-mode-phase", (1, 2), m), make_generator("phase-shifter", (0,), m)]
    blocks = GateBlocks(gens)
    for theta in (np.zeros(6), np.array([0.3, -2.0, 10.0, math.pi, -1e-9, 1e3])):
        for gen, t, got in zip(gens, theta, blocks.at(theta)):
            np.testing.assert_allclose(embed_unitary(got), gen.block(t), rtol=0, atol=1e-15)
    for got in blocks.at(np.zeros(6)):
        np.testing.assert_array_equal(embed_unitary(got), np.eye(2 * got.shape[0]))


class TestLayeredCircuit:
    def _circuit(self, seed=9, m=3, depth=5):
        gen = RandomSource(seed).generator()
        circ = random_circuit(m, depth, gen)
        return circ.with_theta(gen.uniform(-math.pi, math.pi, depth))

    def test_identity_at_zero_theta_identity_fixed(self):
        circ = identity_fixed(random_circuit(2, 4, RandomSource(0).generator()))
        o_minus, o_plus = split_action(circ, 1)
        np.testing.assert_array_equal(o_minus, np.eye(4))
        np.testing.assert_array_equal(o_plus, np.eye(4))

    def test_single_layer_split(self):
        gen = make_generator("phase-shifter", (0,), 1)
        circ = LayeredCircuit([Layer(gen, np.eye(1, dtype=complex))], [0.8])
        o_minus, o_plus = split_action(circ, 1)
        np.testing.assert_array_equal(o_minus, np.eye(2))
        np.testing.assert_allclose(o_plus, dense_gate(gen, 0.8), atol=1e-14)

    def test_action_is_orthogonal(self):
        circ = self._circuit()
        t = orthogonal_action(circ)
        assert np.linalg.norm(t.T @ t - np.eye(6)) <= 1e-10

    def test_split_matches_brute_force_product(self):
        circ = self._circuit()
        transfers = layer_transfers(circ)
        brute = np.eye(6)
        for t in transfers:
            brute = brute @ t
        o_minus, o_plus = split_action(circ, 3)
        np.testing.assert_allclose(o_minus @ o_plus, brute, atol=1e-13)
        np.testing.assert_allclose(orthogonal_action(circ), brute, atol=1e-13)

    def test_split_ranges(self):
        circ = self._circuit()
        o_minus, _ = split_action(circ, 1)
        np.testing.assert_array_equal(o_minus, np.eye(6))
        for bad in (0, 6):
            with pytest.raises(ValueError, match="split"):
                split_action(circ, bad)

    def test_perturbed_layer_matches_derivative_structure(self):
        # d/dtheta_k of the full action is O_minus D_k O_plus
        circ = self._circuit(seed=21)
        o_minus, o_plus = split_action(circ, 3)
        d_k = circ.layers[2].gen.d
        step = 1e-6
        up = np.array(circ.theta)
        dn = up.copy()
        up[2] += step
        dn[2] -= step
        fd = (orthogonal_action(circ, up) - orthogonal_action(circ, dn)) / (2 * step)
        analytic = o_minus @ d_k @ o_plus
        np.testing.assert_allclose(fd, analytic, rtol=0, atol=1e-6)

    def test_theta_length_checked(self):
        circ = self._circuit()
        with pytest.raises(ValueError, match="theta length"):
            circ.with_theta([0.0, 1.0])

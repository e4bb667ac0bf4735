import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from linopt_bp import (
    GeneratorPair,
    LayeredCircuit,
    RandomSource,
    make_generator,
    random_circuit,
)
from linopt_bp import linear_optics
from linopt_bp.linear_optics import GateBlocks
from linopt_bp.sampling import haar_unitary_batch

from conftest import (custom_gate_tol, dense_d, dense_eps, dense_gate, embed_unitary, fd_gradient,
                      identity_fixed, layer_transfers, mp_gate, orthogonal_action, split_action, symplectic_form)


def _gate(gen, theta):
    """The package's gate on the support: the real embedding of its complex block."""
    return embed_unitary(GateBlocks([gen]).at([theta])[0])


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
        d, eps = dense_d(gen), dense_eps(gen)
        np.testing.assert_allclose(d + d.T, 0, atol=1e-14)
        np.testing.assert_allclose(eps - eps.T, 0, atol=1e-14)
        # energy conservation: eps commutes with the symplectic form
        np.testing.assert_allclose(eps @ delta - delta @ eps, 0, atol=1e-14)
        # Heisenberg relation for the stored pair
        np.testing.assert_allclose(d, -2.0 * eps @ delta, atol=1e-14)

    def test_phase_shifter_eps_block(self):
        gen = make_generator("phase-shifter", (1,), 3)
        expected = np.zeros((6, 6))
        expected[2:4, 2:4] = 0.5 * np.eye(2)
        np.testing.assert_array_equal(dense_eps(gen), expected)

    def test_two_mode_phase_blocks(self):
        gen = make_generator("two-mode-phase", (0, 1), 2)
        eps = dense_eps(gen)
        np.testing.assert_array_equal(eps[0:2, 0:2], 0.5 * np.eye(2))
        np.testing.assert_array_equal(eps[2:4, 2:4], -0.5 * np.eye(2))

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError, match="inside the 2 modes"):
            make_generator("phase-shifter", (3,), 2)
        with pytest.raises(ValueError, match="distinct"):
            make_generator("beamsplitter", (1, 1), 3)
        with pytest.raises(ValueError, match="unknown generator kind"):
            make_generator("squeezer", (0,), 2)

    @pytest.mark.parametrize("kind,modes,got", [
        ("phase-shifter", (3,), "[3]"),
        ("phase-shifter", (-1,), "[-1]"),
        ("two-mode-phase", (0, 3), "[0, 3]"),
        ("two-mode-phase", (2, 2), "[2, 2]"),
        ("beamsplitter", (3, 0), "[0, 3]"),
        ("beamsplitter", (1, 1), "[1, 1]"),
        ("beamsplitter", (-1, 2**63), "[-1, 9223372036854775808]"),
    ], ids=["phase-shifter-outside", "phase-shifter-negative", "two-mode-phase-outside",
            "two-mode-phase-repeated", "beamsplitter-outside-reversed", "beamsplitter-repeated",
            "beamsplitter-past-int64"])
    def test_standard_gate_modes_checked_by_generator_pair(self, kind, modes, got):
        # make_generator leaves the modes to GeneratorPair, so an out-of-range or a
        # repeated mode gets its message, with the modes sorted and shown as given
        # (numpy reads -1 and 2**63 together as floats)
        message = f"modes must be ascending, distinct and inside the 3 modes; got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_generator(kind, modes, 3)

    def test_from_symmetric_rejects_active_generators(self):
        # q^2 alone squeezes; it does not commute with the symplectic form
        eps = np.zeros((2, 2))
        eps[0, 0] = 1.0
        with pytest.raises(ValueError, match="conserve energy"):
            GeneratorPair.from_symmetric(eps)

    def test_builtin_blocks_are_stored_bit_for_bit(self):
        # dc = (q - r) - i (p + s) rounds nothing on a built-in eps block, so every
        # stored entry is the literal one (array_equal does not compare signs of zeros)
        bs = np.array([[0, -1], [1, 0]], dtype=np.complex128)
        phases = np.diag([-1j, 1j])
        cases = [(make_generator("phase-shifter", (2,), 4), np.array([[-1j]])),
                 (make_generator("two-mode-phase", (1, 3), 5), phases),
                 (make_generator("two-mode-phase", (3, 1), 5), -phases),
                 (make_generator("beamsplitter", (0, 1), 2), bs),
                 (make_generator("beamsplitter", (2, 0), 3), -bs),
                 (make_generator("global-phase", (), 3), -1j * np.eye(3))]
        for gen, block in cases:
            assert gen.dc.dtype == np.complex128 and np.array_equal(gen.dc, block), repr(gen)

    def test_nearly_commuting_block_keeps_its_commuting_part(self):
        # a 2e-11 q_0 q_1 coupling without its p_0 p_1 partner passes the 1e-10 check;
        # the stored generator is that of the average of eps and Delta^T eps Delta
        eps_s = np.diag([0.5, 0.5, 1.5, 1.5])
        eps_s[0, 2] = eps_s[2, 0] = 2e-11
        gen = GeneratorPair.from_symmetric(eps_s)
        expected = np.diag([0.5, 0.5, 1.5, 1.5])
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1e-11
        eps = dense_eps(gen)
        np.testing.assert_array_equal(eps, expected)
        delta = symplectic_form(2)
        np.testing.assert_array_equal(eps @ delta, delta @ eps)
        np.testing.assert_array_equal(dense_d(gen), -2.0 * eps @ delta)

    def test_nearly_symmetric_block_keeps_its_symmetric_part(self):
        # an asymmetry of 5e-11 passes the 1e-10 check; dc must still be exactly
        # skew-Hermitian, since the gates read one triangle of it (eigh) and y D b all of it
        eps_s = np.diag([0.5, 0.5, 1.5, 1.5])
        eps_s[0, 2], eps_s[1, 3], eps_s[2, 0], eps_s[3, 1] = 0.25, 0.25, 0.25 + 5e-11, 0.25 + 5e-11
        gen = GeneratorPair.from_symmetric(eps_s)
        assert np.array_equal(gen.dc, -gen.dc.conj().T)
        np.testing.assert_allclose(dense_eps(gen), 0.5 * (eps_s + eps_s.T), rtol=0, atol=1e-16)

    def test_rejects_bad_modes(self):
        # descending, repeated, outside the 3 modes, negative, not integers, not 1-D
        for modes in ([1, 0], [0, 0], [3], [-1], [0.0, 1.0], [[0, 1]]):
            size = np.asarray(modes).size
            with pytest.raises(ValueError, match="ascending, distinct and inside the 3 modes"):
                GeneratorPair(3, modes, np.zeros((size, size)))

    @pytest.mark.parametrize("modes", [[], np.array([], dtype=int), np.zeros((0, 2), dtype=int)],
                             ids=["list", "int-array", "2-d"])
    def test_rejects_a_gate_on_no_mode(self, modes):
        # xi_bounds would reduce over no column, and every gradient would be zero
        message = "modes is empty: a gate that acts on no mode has a zero gradient"
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorPair(3, modes, np.zeros((0, 0)))
        with pytest.raises(ValueError, match="^modes is empty"):
            GeneratorPair.from_symmetric(np.zeros((6, 6)))

    def test_rejects_block_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="the gate has 2 modes"):
            GeneratorPair(2, [0, 1], -1j * np.eye(1))

    def test_rejects_noncommuting_block(self):
        eps = np.zeros((6, 6))
        eps[2, 2] = 1.0
        with pytest.raises(ValueError, match="conserve energy"):
            GeneratorPair.from_symmetric(eps)

    def test_rejects_block_that_is_not_skew_hermitian(self):
        # a Hermitian part of 2e-10 fails the 1e-10 check, and so does a NaN entry;
        # 5e-11 passes and is projected away
        for dc in ([[-1j, 2e-10], [0.0, 1j]], [[-1j, np.nan], [0.0, 1j]]):
            with pytest.raises(ValueError, match="not skew-Hermitian.*conserve energy"):
                GeneratorPair(2, [0, 1], dc)
        gen = GeneratorPair(2, [0, 1], [[-1j, 5e-11], [0.0, 1j]])
        np.testing.assert_array_equal(gen.dc, [[-1j, 2.5e-11], [-2.5e-11, 1j]])

    def test_from_symmetric_of_a_standard_kind_returns_its_block(self):
        for gen in _standard_generators():
            dense = GeneratorPair.from_symmetric(dense_eps(gen))
            np.testing.assert_array_equal(dense.modes, gen.modes, err_msg=repr(gen))
            np.testing.assert_array_equal(dense.dc, gen.dc, err_msg=repr(gen))

    def test_generator_stores_one_form(self):
        # the modes and the complex block; the package builds no real form
        eps = np.diag([0.5, 0.5, 1.5, 1.5, 0.0, 0.0])
        gens = [make_generator(kind, modes, 3) for kind, modes in
                [("phase-shifter", (1,)), ("two-mode-phase", (2, 0)), ("beamsplitter", (0, 1)), ("global-phase", ())]]
        for gen in gens + [GeneratorPair.from_symmetric(eps)]:
            assert set(vars(gen)) == {"m", "modes", "dc"}, repr(gen)
            assert gen.dc.shape == (gen.modes.size,) * 2 and not gen.dc.flags.writeable
            assert not gen.modes.flags.writeable

    def test_circuit_generators_store_only_their_blocks(self):
        circ = random_circuit(64, 64, RandomSource(5).generator())
        for gen in circ.gens:
            sizes = [v.size for v in vars(gen).values() if isinstance(v, np.ndarray)]
            assert sizes and max(sizes) <= 16, repr(gen)

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
        u = np.array([math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag])
        out = u @ dense_gate(gen, theta)
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
        d = dense_d(gen)
        np.testing.assert_array_equal(embed_unitary(gen.dc), d[np.ix_(gen.support, gen.support)])
        off = np.setdiff1d(np.arange(2 * m), gen.support)
        assert not d[off].any() and not d[:, off].any()

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
            np.testing.assert_allclose(t[np.ix_(gen.support, gen.support)], _gate(gen, theta), rtol=0, atol=1e-15)


def _coupled_generator():
    """A dense custom block from ``from_symmetric``: every pair of modes 0, 2, 3 of 5 coupled."""
    a = RandomSource(17).generator().uniform(-1.0, 1.0, (2, 3, 3))
    herm = 0.5 * (a[0] + 1j * a[1] + (a[0] + 1j * a[1]).conj().T)
    gen = GeneratorPair.from_symmetric(dense_eps(GeneratorPair(5, [0, 2, 3], -2j * herm)))
    assert np.count_nonzero(gen.dc) == 9
    return gen


class TestBilinearKernel:
    """The package's y D b^T, ``linear_optics.bilinear`` on the gate's modes, against the
    dense product y @ dense_d(gen) @ b."""

    @pytest.mark.parametrize("kind,modes,m", [
        ("phase-shifter", (3,), 5),
        ("two-mode-phase", (1, 3), 5),
        ("two-mode-phase", (3, 1), 5),
        ("beamsplitter", (0, 1), 2),
        ("beamsplitter", (4, 1), 5),
        ("global-phase", (), 1),
        ("global-phase", (), 7),
        ("custom", (), 5),
    ])
    def test_matches_dense_product(self, kind, modes, m):
        gen = _coupled_generator() if kind == "custom" else make_generator(kind, modes, m)
        y, b = RandomSource(23).generator().standard_normal((2, 9, 2 * m))
        d = dense_d(gen)
        dense = np.einsum("ni,ij,nj->n", y, d, b)
        # relative to the bound |y D b^T| <= |y| |b| max|D| (up to the block size)
        tol = 1e-13 * np.linalg.norm(y, axis=1) * np.linalg.norm(b, axis=1) * np.abs(d).max()
        z, c = y.view(np.complex128)[:, gen.modes], b.view(np.complex128)[:, gen.modes].conj()
        k = gen.modes.size
        for dc in (gen.dc, np.broadcast_to(gen.dc, (9, k, k))):  # one block for every row, or one per row
            batched = linear_optics.bilinear(z, dc, c)
            assert batched.shape == (9,) and np.all(np.abs(batched - dense) <= tol), repr(gen)
        for row in range(9):
            single = linear_optics.bilinear(z[row], gen.dc, c[row])
            assert single.shape == () and abs(single - float(y[row] @ d @ b[row])) <= tol[row], repr(gen)


def _standard_generators():
    """Every standard kind at m in {1, 2, 5} (two-mode kinds from m = 2)."""
    for kind, modes in [("phase-shifter", (0,)), ("two-mode-phase", (0, 1)),
                        ("beamsplitter", (0, 1)), ("global-phase", ())]:
        for m in (1, 2, 5):
            if len(modes) < 2 or m >= 2:
                yield make_generator(kind, modes, m)


def _support_d(gen):
    return dense_d(gen)[np.ix_(gen.support, gen.support)]


class TestClosedFormGate:
    @pytest.mark.parametrize("theta", [0.3, -0.3, math.pi, -math.pi, 10.0])
    def test_matches_expm(self, theta):
        for gen in _standard_generators():
            np.testing.assert_allclose(
                _gate(gen, theta), expm(theta * _support_d(gen)), rtol=0, atol=1e-13, err_msg=repr(gen)
            )

    def test_large_angle_stays_orthogonal(self):
        # expm itself drifts at theta = 1e3, so agreement with it is loose here
        for gen in _standard_generators():
            t = _gate(gen, 1e3)
            np.testing.assert_allclose(t.T @ t, np.eye(t.shape[0]), rtol=0, atol=1e-14)
            np.testing.assert_allclose(t, expm(1e3 * _support_d(gen)), rtol=0, atol=1e-10)

    def test_custom_generator_matches_mpmath(self):
        # unequal phases on two modes: D^3 != -D, so no Rodrigues form exists; expm
        # itself drifts by 1.9e-13 at theta = 10, so agreement with it is loose
        eps = np.zeros((4, 4))
        eps[:2, :2] = 0.5 * np.eye(2)
        eps[2:, 2:] = 1.5 * np.eye(2)
        gen = GeneratorPair.from_symmetric(eps)
        d = _support_d(gen)
        assert np.abs(d @ d @ d + d).max() > 1.0
        for theta in (0.3, -2.0, 10.0):
            got = GateBlocks([gen]).at([theta])[0]
            np.testing.assert_allclose(got, mp_gate(gen, theta), rtol=0, atol=custom_gate_tol(gen, theta))
            np.testing.assert_allclose(embed_unitary(got), expm(theta * d), rtol=0, atol=1e-12)


def _passive_defects(w):
    """(orthogonality, symplecticity) defects of a real 2m x 2m matrix, max-abs."""
    delta = symplectic_form(w.shape[0] // 2)
    eye = np.eye(w.shape[0])
    return np.abs(w.T @ w - eye).max(), np.abs(w @ delta @ w.T - delta).max()


class TestFixedLayers:
    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_random_circuit_layers_are_passive(self, m):
        circ = random_circuit(m, 6, RandomSource(7).generator())
        assert circ.unitaries.shape == (6, m, m)
        for unitary in circ.unitaries:
            assert max(_passive_defects(embed_unitary(unitary))) <= 1e-12
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
            LayeredCircuit([gen], [np.array([[1.0, 0.0], [0.0, 2.0]])], [0.0])
        with pytest.raises(ValueError, match="acts on 2 modes"):
            LayeredCircuit([gen], [np.eye(4)], [0.0])
        circ = LayeredCircuit([gen], [np.eye(2)], [0.0])
        assert circ.unitaries.dtype == np.complex128 and not circ.unitaries.flags.writeable

    def test_with_theta_shares_the_layers_unchecked(self, monkeypatch):
        circ = random_circuit(4, 6, RandomSource(2).generator())
        calls = []
        monkeypatch.setattr(linear_optics, "check_unitary", lambda *a, **k: calls.append(a))
        moved = circ.with_theta(np.linspace(-1.0, 1.0, 6))
        assert moved.gens is circ.gens and moved.unitaries is circ.unitaries
        assert calls == []
        np.testing.assert_array_equal(moved.theta, np.linspace(-1.0, 1.0, 6))
        assert not moved.theta.flags.writeable and not circ.theta.any()


def test_gate_blocks_match_block():
    # the batched complex blocks, embedded, against the real Rodrigues block of each
    # standard generator, and the custom one (index 1) against 30-digit mpmath
    m = 4
    eps = np.zeros((2 * m, 2 * m))
    eps[:2, :2] = 0.5 * np.eye(2)
    eps[2:4, 2:4] = 1.5 * np.eye(2)
    gens = [make_generator("beamsplitter", (3, 0), m), GeneratorPair.from_symmetric(eps),
            make_generator("phase-shifter", (2,), m), make_generator("global-phase", (), m),
            make_generator("two-mode-phase", (1, 2), m), make_generator("phase-shifter", (0,), m)]
    blocks = GateBlocks(gens)
    for theta in (np.zeros(6), np.array([0.3, -2.0, 10.0, math.pi, -1e-9, 1e3])):
        for i, (gen, t, got) in enumerate(zip(gens, theta, blocks.at(theta))):
            if i == 1:
                np.testing.assert_allclose(got, mp_gate(gen, t), rtol=0, atol=custom_gate_tol(gen, t))
            else:
                np.testing.assert_allclose(embed_unitary(got), dense_gate(gen, t)[np.ix_(gen.support, gen.support)],
                                           rtol=0, atol=1e-15, err_msg=repr(gen))
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
        circ = LayeredCircuit([gen], [np.eye(1, dtype=complex)], [0.8])
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
        d_k = dense_d(circ.gens[2])
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

"""Property tests: invariants that must hold for every input, not just pinned ones.

Each property draws its inputs with hypothesis (at most 50 examples, no
deadline) and seeds any randomness it needs from a drawn integer, so a
failing example replays exactly.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from scipy.special import ive  # noqa: E402

from linopt_bp import (  # noqa: E402
    GeneratorPair,
    QuadraticHamiltonian,
    RandomSource,
    bessel_i,
    estimate_grad_moments,
    make_generator,
    uniform_sphere,
)
from linopt_bp import linear_optics  # noqa: E402
from linopt_bp.closed_forms import _geometric_mean  # noqa: E402
from linopt_bp.estimators import (  # noqa: E402
    CHUNK_SIZE,
    MIN_SAMPLES,
    MeasurementGradientFamily,
    QuadraticGradientFamily,
    ToyGradientFamily,
)
from linopt_bp.linear_optics import GENERATOR_KINDS, GateBlocks  # noqa: E402
from linopt_bp.sampling import haar_orthogonal_batch  # noqa: E402

from conftest import (bilinear, compiling_cost, custom_gate_tol, dense_d, dense_gate, embed_unitary,  # noqa: E402
                      measurement_cost, mp_gate)

SETTINGS = settings(max_examples=50, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def generators(draw, max_m=6, graded=False):
    """Any standard gate kind on any valid modes of an m-mode register, m in
    [1, max_m]; with ``graded`` also acceptance C2b's custom generator, weight
    (1 + j) / (2m) on mode j (unequal column norms, no closed-form gate)."""
    kind = draw(st.sampled_from(GENERATOR_KINDS + ("graded",) * graded))
    low = 2 if kind in ("two-mode-phase", "beamsplitter") else 1
    m = draw(st.integers(min_value=low, max_value=max_m))
    if kind == "graded":
        return GeneratorPair.from_symmetric(np.diag(np.repeat(0.5 * (1.0 + np.arange(m)) / m, 2)))
    if kind == "global-phase":
        modes = ()
    elif kind == "phase-shifter":
        modes = (draw(st.integers(0, m - 1)),)
    else:
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        modes = (i, j)
    return make_generator(kind, modes, m)


@SETTINGS
@given(gen=generators(graded=True), theta=st.floats(min_value=-1e3, max_value=1e3))
def test_gate_action_is_orthogonal(gen, theta):
    # the package's gate is unitary on its modes, and exactly I at theta = 0
    blocks = GateBlocks([gen])
    u = blocks.at([theta])[0]
    np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]), rtol=0, atol=1e-13)
    assert np.array_equal(blocks.at([0.0])[0], np.eye(u.shape[0]))


@SETTINGS
@given(gen=generators(max_m=8, graded=True), rows=st.integers(1, 16), seed=SEEDS)
def test_bilinear_matches_dense_product(gen, rows, seed):
    # the package's contraction on the gate's modes against the dense y D b, row by
    # row and batched, with one block for every row or one per row
    y, b = RandomSource(seed).generator().standard_normal((2, rows, 2 * gen.m))
    d = dense_d(gen)
    dense = np.array([yy @ d @ bb for yy, bb in zip(y, b)])
    tol = 1e-12 * np.linalg.norm(y, axis=1) * np.linalg.norm(b, axis=1) * np.abs(d).max()
    z, c = y.view(np.complex128)[:, gen.modes], b.view(np.complex128)[:, gen.modes].conj()
    single = np.array([linear_optics.bilinear(zz, gen.dc, cc) for zz, cc in zip(z, c)])
    assert np.all(np.abs(single - dense) <= tol)
    k = gen.modes.size
    for dc in (gen.dc, np.broadcast_to(gen.dc, (rows, k, k))):
        batched = linear_optics.bilinear(z, dc, c)
        assert batched.shape == (rows,) and np.all(np.abs(batched - dense) <= tol)


@st.composite
def circuit_generators(draw, max_m=8, max_layers=6):
    """A sequence of (kind, generator) pairs on one m-mode register, m in [1, max_m]:
    any standard kind, or a custom one, the block ``-2i H`` of a random Hermitian
    matrix H on a random set of modes (complex-linear, no closed-form gate)."""
    m = draw(st.integers(1, max_m))
    kinds = GENERATOR_KINDS if m >= 2 else ("phase-shifter", "global-phase")
    gens = []
    drawn = draw(st.lists(st.sampled_from(kinds + ("custom",)), min_size=1, max_size=max_layers))
    for kind in drawn:
        if kind == "custom":
            modes = sorted(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))
            a = RandomSource(draw(SEEDS)).generator().uniform(-1.0, 1.0, (2, len(modes), len(modes)))
            herm = a[0] + 1j * a[1]
            gens.append(GeneratorPair(m, modes, -2j * (0.5 * (herm + herm.conj().T))))
        elif kind == "global-phase":
            gens.append(make_generator(kind, (), m))
        elif kind == "phase-shifter":
            gens.append(make_generator(kind, (draw(st.integers(0, m - 1)),), m))
        else:
            pair = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
            gens.append(make_generator(kind, pair, m))
    return list(zip(drawn, gens))


@SETTINGS
@given(pairs=circuit_generators(), data=st.data(), seed=SEEDS)
def test_gate_blocks_are_complex_forms_of_the_real_gate(pairs, data, seed):
    # each standard complex gate block embeds to the real Rodrigues block; a custom
    # one matches 30-digit mpmath to a tolerance growing with |theta| max|dc|; and
    # the batched kernel Re(z dc h) is y D b for y = z and b = conj(h), both read as
    # real rows
    kinds, gens = zip(*pairs)
    theta = np.array(data.draw(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                                        min_size=len(gens), max_size=len(gens))))
    blocks = GateBlocks(gens)
    for kind, gen, t, got in zip(kinds, gens, theta, blocks.at(theta)):
        if kind == "custom":
            np.testing.assert_allclose(got, mp_gate(gen, t), rtol=0, atol=custom_gate_tol(gen, t))
        else:
            real = dense_gate(gen, t)[np.ix_(gen.support, gen.support)]
            np.testing.assert_allclose(embed_unitary(got), real, rtol=0, atol=1e-15)
    m = gens[0].m
    rows, cols = RandomSource(seed).generator().standard_normal((2, len(gens), 2 * m)).view(np.complex128)
    kernel = blocks.bilinear(rows, cols)
    for gen, z, h, got in zip(gens, rows, cols, kernel):
        y, b = z.view(np.float64), h.conj().view(np.float64)
        tol = 1e-12 * np.linalg.norm(y) * np.linalg.norm(b) * np.abs(gen.dc).max()
        assert abs(got - bilinear(gen, y, b)) <= tol


@SETTINGS
@given(m=st.integers(1, 5), seed=SEEDS, e0=st.floats(0.0, 4.0), e1=st.floats(0.0, 4.0))
def test_overlap_costs_invariant_under_common_rotation(m, seed, e0, e1):
    # rotating state and target by R and conjugating the circuit by R
    # maps u T - n to (u T - n) R, whose norm the costs depend on
    rng = RandomSource(seed).generator()
    u = uniform_sphere(m, math.sqrt(2 * e0), rng)
    n = uniform_sphere(m, math.sqrt(2 * e1), rng)
    o_minus, o_plus, r = (haar_orthogonal_batch(m, 1, rng)[0] for _ in range(3))
    u_r, n_r = u @ r, n @ r
    o_minus_r, o_plus_r = r.T @ o_minus, o_plus @ r
    assert measurement_cost(u_r, n_r, o_minus_r, o_plus_r) == pytest.approx(
        measurement_cost(u, n, o_minus, o_plus), rel=1e-12, abs=1e-14)
    assert compiling_cost(u_r, o_minus_r, o_plus_r) == pytest.approx(
        compiling_cost(u, o_minus, o_plus), rel=1e-12, abs=1e-14)


def _family(kind, m):
    if kind == "toy":
        return ToyGradientFamily(m=m, s=0.5)
    if kind == "measurement":
        return MeasurementGradientFamily(make_generator("global-phase", (), m), 1.0, 0.5)
    r = np.arange(1.0, 2.0 * m + 1.0)
    ham = QuadraticHamiltonian(np.outer(r, r) + np.eye(2 * m))  # does not commute with D
    return QuadraticGradientFamily(make_generator("phase-shifter", (0,), m), 1.0, ham)


@SETTINGS
@given(
    kind=st.sampled_from(["toy", "measurement", "quadratic"]),
    m=st.integers(1, 4),
    n_samples=st.integers(MIN_SAMPLES, 3 * CHUNK_SIZE + 1),
    seed=SEEDS,
)
def test_estimate_independent_of_job_count(kind, m, n_samples, seed):
    family = _family(kind, m)
    serial = estimate_grad_moments(family, n_samples, RandomSource(seed), n_jobs=1)
    for n_jobs in (2, 3):
        assert estimate_grad_moments(family, n_samples, RandomSource(seed), n_jobs=n_jobs) == serial


@SETTINGS
@given(nu=st.integers(0, 1100), x=st.floats(min_value=1e-3, max_value=5e6))
def test_bessel_i_matches_scaled_scipy_oracle(nu, x):
    # an independent algorithm: log I = log(ive) + x wherever ive is a normal double
    scaled = float(ive(nu, x))
    assume(np.finfo(float).tiny <= scaled < math.inf)
    oracle = math.log(scaled) + x
    assert abs(bessel_i(nu, x).log_value - oracle) <= 1e-12 * max(abs(oracle), 1.0)


@SETTINGS
@given(a=st.floats(min_value=5e-324, max_value=1e308), b=st.floats(min_value=5e-324, max_value=1e308))
def test_geometric_mean_is_sqrt_of_product_where_normal(a, b):
    # heterodyne_prefactor's geometric mean must not move any value whose
    # product a b was already a normal double
    assume(np.finfo(float).tiny <= a * b < math.inf)
    assert _geometric_mean(a, b) == math.sqrt(a * b)
    assert _geometric_mean(a, a) == a

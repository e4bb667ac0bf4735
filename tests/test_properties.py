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
    MeanVector,
    RandomSource,
    bessel_i,
    estimate_grad_moments,
    haar_orthogonal,
    make_generator,
    uniform_sphere,
)
from linopt_bp.closed_forms import _geometric_mean  # noqa: E402
from linopt_bp.estimators import (  # noqa: E402
    CHUNK_SIZE,
    MIN_SAMPLES,
    MeasurementGradientFamily,
    QuadraticGradientFamily,
    ToyGradientFamily,
)
from linopt_bp.linear_optics import (  # noqa: E402
    GENERATOR_KINDS,
    symplectic_form,
    times_symplectic_form,
)

from conftest import compiling_cost, dense_gate, measurement_cost  # noqa: E402

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
        return GeneratorPair.from_symmetric(np.diag(np.repeat(0.5 * (1.0 + np.arange(m)) / m, 2)), "graded")
    if kind == "global-phase":
        modes = ()
    elif kind == "phase-shifter":
        modes = (draw(st.integers(0, m - 1)),)
    else:
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        modes = (i, j)
    return make_generator(kind, modes, m)


@SETTINGS
@given(gen=generators(), theta=st.floats(min_value=-1e3, max_value=1e3))
def test_gate_action_is_orthogonal(gen, theta):
    t = dense_gate(gen, theta)
    np.testing.assert_allclose(t @ t.T, np.eye(t.shape[0]), rtol=0, atol=1e-13)


@SETTINGS
@given(gen=generators(max_m=8, graded=True), rows=st.integers(1, 16), seed=SEEDS)
def test_bilinear_matches_dense_product(gen, rows, seed):
    # the support kernel against the dense y D b, row by row and batched
    y, b = RandomSource(seed).generator().standard_normal((2, rows, 2 * gen.m))
    d = gen.d
    dense = np.array([yy @ d @ bb for yy, bb in zip(y, b)])
    tol = 1e-12 * np.linalg.norm(y, axis=1) * np.linalg.norm(b, axis=1) * np.abs(d).max()
    single = np.array([gen.bilinear(yy, bb) for yy, bb in zip(y, b)])
    assert np.all(np.abs(single - dense) <= tol)
    batched = gen.bilinear(y, b)
    assert batched.shape == (rows,) and np.all(np.abs(batched - dense) <= tol)


@SETTINGS
@given(data=st.data(), m=st.integers(1, 8), rows=st.integers(1, 16))
def test_signed_swap_equals_symplectic_product(data, m, rows):
    # each output entry is one input entry times +-1 plus exact zeros, so the
    # swap and the product agree exactly (array_equal treats -0.0 as 0.0)
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=rows * 2 * m, max_size=rows * 2 * m))
    a = np.array(values).reshape(rows, 2 * m)
    assert np.array_equal(times_symplectic_form(a), a @ symplectic_form(m))


@SETTINGS
@given(m=st.integers(1, 5), seed=SEEDS, e0=st.floats(0.0, 4.0), e1=st.floats(0.0, 4.0))
def test_overlap_costs_invariant_under_common_rotation(m, seed, e0, e1):
    # rotating state and target by R and conjugating the circuit by R
    # maps u T - n to (u T - n) R, whose norm the costs depend on
    rng = RandomSource(seed).generator()
    u = uniform_sphere(m, math.sqrt(2 * e0), rng)
    n = uniform_sphere(m, math.sqrt(2 * e1), rng)
    o_minus, o_plus, r = (haar_orthogonal(m, rng) for _ in range(3))
    u_r, n_r = MeanVector(u.values @ r), MeanVector(n.values @ r)
    o_minus_r, o_plus_r = r.T @ o_minus, o_plus @ r
    assert measurement_cost(u_r, n_r, o_minus_r, o_plus_r) == pytest.approx(
        measurement_cost(u, n, o_minus, o_plus), rel=1e-12, abs=1e-14)
    assert compiling_cost(u_r, o_minus_r, o_plus_r) == pytest.approx(
        compiling_cost(u, o_minus, o_plus), rel=1e-12, abs=1e-14)


def _family(kind, m):
    if kind == "toy":
        return ToyGradientFamily(m=m, s=0.5)
    gen = make_generator("global-phase", (), m)
    u = MeanVector.of([math.sqrt(2.0)] + [0.0] * (2 * m - 1))
    if kind == "measurement":
        n = MeanVector.of([0.0, 1.0] + [0.0] * (2 * m - 2))
        return MeasurementGradientFamily(u=u, n=n, gen=gen)
    b = make_generator("two-mode-phase", (0, 1), m).eps if m > 1 else np.zeros((2, 2))
    return QuadraticGradientFamily(u=u, b=b)


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

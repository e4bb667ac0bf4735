"""Shared oracles and helpers for the test suite.

Most oracles here are deliberately independent of the package internals:
plain truncated power series, quadrature and central finite differences.
Tests compare package outputs against these.

The dense circuit oracles are the exception.  They build each layer as a
2m x 2m matrix, multiply the matrices out and evaluate the costs and
split-layer gradients from ``(O_minus, O_plus)``, where the package
propagates vectors.  Their gate (``dense_gate``) is the real block of
``dense_d(gen)`` by Rodrigues' formula, or ``expm`` for a custom generator, not the
package's spectral formula; they take y D b from ``bilinear``, the dense
product ``y @ dense_d(gen) @ b^T`` (``overlap_grad``, ``quadratic_grad``), not
the package's contraction ``linear_optics.bilinear``, so they check the
trainer's gates, its complex-mode adjoint pass and that contraction.
``mp_gate`` is a high-precision reference for a custom gate.  They validate
nothing.

``symplectic_form``, ``intensity``, ``overlap_fidelity``, ``toy_cost``,
``toy_grad`` and ``uniform_angles`` are small reference functions that no package code calls;
they live here as oracles for the tests that pin the conventions.  ``every_kind(m)`` lists a
generator of each standard kind on m modes, two-mode gates both ways round,
and a custom one, for the tests that sweep gate kinds.

``embed_unitary``, ``dense_d``, ``dense_eps`` and ``bk_matrix`` are the dense
real forms that the package no longer builds: the 2m x 2m matrix of
``z -> z U``, a generator's ``D = -2 eps Delta`` and ``eps`` from its block
``dc``, and the quadratic kernel ``B = [D_k, eta~]``.  They reproduce the
package's former functions bit for bit and, like the circuit oracles,
validate nothing.

``toy_gradients`` is the toy family's chunk as one expression, the form the
package used before the chunk worked in place.

``equal_intensity_log_prefactor`` writes out the compiling prefactor that
``heterodyne_prefactor(m, E, E)`` must reproduce bit for bit, and
``fit_linear_rate`` fits a linear-intensity moment curve over {1, m, log m,
1/m} to read off its decay rate; the package's classifier fits one basis,
{1, m, sqrt(m), log m}, and needs neither.

``one_shot_haar_unitary`` and ``one_shot_haar_orthogonal`` draw a whole Haar
stack with one Gaussian draw and one batched QR, as the package did before it
filled stacks block by block; the blocked samplers must match them bit for bit.
``one_shot_sphere`` likewise normalises a whole draw of sphere points at once.
"""

import math
from functools import reduce
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import expm

from linopt_bp import GeneratorPair, LayeredCircuit, LogScaled, bessel_i, intensity_law, make_generator
from linopt_bp import cost_functions as cf
from linopt_bp.estimators import CHUNK_SIZE
from linopt_bp.sampling import as_source, uniform_angles_batch
from linopt_bp.validation import check_same_modes


def symplectic_form(m: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    out = np.zeros((2 * m, 2 * m))
    q = np.arange(0, 2 * m, 2)
    out[q, q + 1] = 1.0
    out[q + 1, q] = -1.0
    return out


def intensity(u) -> float:
    """Total mean photon number |u|^2 / 2 of the state with real mean vector u."""
    return float(u @ u) / 2


def overlap_fidelity(u, v) -> float:
    """Squared overlap |<u|v>|^2 = exp(-|u - v|^2 / 2) of two coherent states,
    given as real mean vectors of length 2m.

    Symmetric in its arguments, equals 1 exactly when u = v, and is invariant
    under a common orthogonal transformation of both states.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    check_same_modes(u.size // 2, v.size // 2, "overlap arguments")
    diff = u - v
    return float(np.exp(-0.5 * float(diff @ diff)))


def _local_weight(u_single) -> float:
    u1, u2 = (float(x) for x in np.asarray(u_single, dtype=float).reshape(-1))
    return u1 * u1 + u2 * u2


def toy_cost(u_single, theta) -> float:
    """Local phase-shifter cost on the m-fold product of one single-mode state.

    With s = u1^2 + u2^2 (twice the local intensity) and one angle per mode:
    ``1 - exp(s * sum_j (cos theta_j - 1))``; zero at theta = 0 and
    invariant under permutations of the angles.
    """
    s = _local_weight(u_single)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    m = theta.size
    return 1.0 - math.exp(s * float(np.cos(theta).sum()) - m * s)


def toy_grad(u_single, theta) -> float:
    """Derivative of the toy cost ``1 - exp(s sum_j (cos theta_j - 1))`` with respect to
    the first angle, with s = u1^2 + u2^2 (twice the local intensity)."""
    s = _local_weight(u_single)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    m = theta.size
    return s * math.sin(theta[0]) * math.exp(s * float(np.cos(theta).sum()) - m * s)


def uniform_angles(m: int, rng) -> np.ndarray:
    """One vector of m i.i.d. angles uniform on [-pi, pi]."""
    return uniform_angles_batch(m, 1, rng)[0]


def toy_gradients(m: int, s: float, size: int, rng) -> np.ndarray:
    """``ToyGradientFamily.sample_gradients`` as one expression with temporaries, as the
    package computed it before it worked in place; the chunk must match it bit for bit."""
    theta = uniform_angles_batch(m, size, rng)
    return s * np.sin(theta[:, 0]) * np.exp(s * (np.cos(theta).sum(axis=1) - m))


def one_shot_haar_unitary(m: int, size: int, gen) -> np.ndarray:
    """(size, m, m) Haar stack on U(m) from one complex Ginibre draw and one QR."""
    z = gen.standard_normal((size, m, 2 * m)).view(np.complex128)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    phases = np.divide(diag, np.abs(diag), out=np.ones_like(diag), where=diag != 0)
    q *= phases[..., None, :]
    return q


def one_shot_haar_orthogonal(m: int, size: int, gen) -> np.ndarray:
    """(size, 2m, 2m) Haar stack on O(2m) from one real Gaussian draw and one QR."""
    g = gen.standard_normal((size, 2 * m, 2 * m))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def one_shot_sphere(m: int, radius: float, size: int, gen) -> np.ndarray:
    """(size, 2m) points on the sphere of the given radius: one Gaussian draw, all norms at once."""
    g = gen.standard_normal((size, 2 * m))
    return g * (radius / np.linalg.norm(g, axis=1))[:, None]


def series_bessel_i(nu: int, x: float, terms: int = 30) -> float:
    """Truncated power-series oracle for I_nu(x) in linear scale."""
    total = 0.0
    for k in range(terms):
        total += (x / 2.0) ** (nu + 2 * k) / (
            math.factorial(k) * math.gamma(nu + k + 1)
        )
    return total


def uniform_asymptotic_log_i(nu: int, x: float) -> LogScaled:
    """Leading-order large-order approximation of log I_nu(x).

    With z = x/nu and eta(z) = sqrt(1+z^2) + log(z / (1 + sqrt(1+z^2))):

        log I_nu(nu z) ~ nu*eta(z) - log(2 pi nu)/2 - log(1+z^2)/4.

    Its relative error falls as the order grows, which makes it an
    independent check on ``bessel_i`` at large order.
    """
    if nu < 1:
        raise ValueError(f"order must be >= 1, got {nu}")
    if x == 0.0:
        return LogScaled(-math.inf)
    z = x / nu
    root = math.sqrt(1.0 + z * z)
    eta = root + math.log(z / (1.0 + root))
    return LogScaled(nu * eta - 0.5 * math.log(2.0 * math.pi * nu) - 0.25 * math.log(1.0 + z * z))


def small_arg_log_i(nu: int, x: float) -> LogScaled:
    """Small-argument limit log[(x/2)^nu / Gamma(nu+1)] of log I_nu(x)."""
    if x == 0.0:
        return LogScaled(0.0 if nu == 0 else -math.inf)
    return LogScaled(nu * math.log(x / 2.0) - math.lgamma(nu + 1.0))


def loose_prefactor(m: int, energy: float) -> LogScaled:
    """Looser kernel exp(-4E) Gamma(m) I_{m-1}(4E) / (2m (2E)^(m-3)).

    It spreads the column mass uniformly over all 2m polar slots, the axis one
    included, so it bounds the exact prefactor from above by the factor
    (2E/m) I_{m-1}(4E) / I_m(4E) >= 1, meets it as E -> 0 and decays at the
    same exponential rate in m.
    """
    if energy == 0.0:
        return LogScaled(-math.inf)
    half_arg = 2.0 * energy
    return LogScaled(
        -4.0 * energy
        + math.lgamma(m)
        + bessel_i(m - 1, 2.0 * half_arg).log_value
        - math.log(2.0 * m)
        - (m - 3) * math.log(half_arg)
    )


def equal_intensity_log_prefactor(m: int, energy: float) -> float:
    """The compiling prefactor exp(-4E) Gamma(m) I_m(4E) / (2 (2E)^(m-2)) in log scale,
    written out term by term in the order ``heterodyne_prefactor`` adds them, so the
    package's form at E0 = E1 = E must match it bit for bit."""
    if energy == 0.0:
        return -math.inf
    return (-4.0 * energy + math.lgamma(m) + bessel_i(m, 4.0 * energy).log_value
            - math.log(2.0) - (m - 2) * math.log(2.0 * energy))


def fit_linear_rate(m_grid, log_values) -> float:
    """Exponential decay rate of a linear-intensity moment curve: the coefficient of m
    in a least-squares fit over the basis {1, m, log m, 1/m}, which matches the
    correction structure of the closed form, so that coefficient isolates the rate."""
    m_arr = np.asarray(m_grid, dtype=float)
    design = np.column_stack([np.ones_like(m_arr), m_arr, np.log(m_arr), 1.0 / m_arr])
    coeffs, _, _, _ = np.linalg.lstsq(design, np.asarray(log_values, dtype=float), rcond=None)
    return float(coeffs[1])


def attenuation_values(e0_law: str, k: float, layers, grid) -> tuple:
    """(E0, E1) lists of an attenuation sweep with ``layers(m)`` layers at mode count m."""
    e0s = intensity_law(e0_law, grid)
    return e0s, [cf.attenuated_intensity(e0, k, layers(m)) for e0, m in zip(e0s, grid)]


def simpson(fn, lo: float, hi: float, n: int = 4001) -> float:
    """Composite Simpson quadrature on an odd-length uniform grid."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(lo, hi, n)
    ys = np.array([fn(x) for x in xs])
    h = (hi - lo) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


def every_kind(m):
    """Every standard kind on m modes (two-mode gates with i > j as well), and a custom
    ``from_symmetric`` generator coupling modes 0 and m - 1 with unequal phases."""
    gens = [make_generator("phase-shifter", (m - 1,), m), make_generator("global-phase", (), m)]
    if m > 1:
        gens += [make_generator(kind, modes, m) for kind in ("two-mode-phase", "beamsplitter")
                 for modes in ((0, m - 1), (m - 1, 0))]
    eps = np.zeros((2 * m, 2 * m))
    eps[0:2, 0:2] = 0.5 * np.eye(2)
    eps[-2:, -2:] += 1.5 * np.eye(2)
    if m > 1:
        eps[0, -2] = eps[-2, 0] = eps[1, -1] = eps[-1, 1] = 0.3  # a beamsplitter-like coupling
        eps[0, -1] = eps[-1, 0] = 0.2
        eps[1, -2] = eps[-2, 1] = -0.2
    return gens + [GeneratorPair.from_symmetric(eps)]


def identity_fixed(circuit) -> LayeredCircuit:
    """The circuit with its gates and parameters kept and every fixed layer the identity."""
    eyes = np.broadcast_to(np.eye(circuit.m, dtype=np.complex128), circuit.unitaries.shape)
    return LayeredCircuit(circuit.gens, eyes, circuit.theta)


# -- dense real forms ------------------------------------------------------------


def embed_unitary(u) -> np.ndarray:
    """Real 2m x 2m matrix of ``z -> z u`` on interleaved (q, p) row vectors.

    Mode pair (j, k) gets the block ``[[Re u_jk, Im u_jk], [-Im u_jk, Re u_jk]]``,
    so ``v @ embed_unitary(u)`` equals ``(v.view(complex) @ u).view(float)``.
    """
    u = np.asarray(u, dtype=np.complex128)
    m = u.shape[0]
    out = np.empty((m, 2, m, 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = u.real
    out[:, 0, :, 1] = u.imag
    out[:, 1, :, 0] = -u.imag
    return out.reshape(2 * m, 2 * m)


def _dense(gen, block) -> np.ndarray:
    out = np.zeros((2 * gen.m, 2 * gen.m))
    out[np.ix_(gen.support, gen.support)] = embed_unitary(block)
    return out


def dense_d(gen) -> np.ndarray:
    """Dense 2m x 2m ``D = -2 eps Delta`` of a generator, ``embed_unitary(dc)`` on the support."""
    return _dense(gen, gen.dc)


def dense_eps(gen) -> np.ndarray:
    """Dense 2m x 2m Hamiltonian matrix ``D Delta / 2``, ``embed_unitary(0.5i dc)`` on the support."""
    return _dense(gen, 0.5j * gen.dc)


def bk_matrix(gen, eta_tilde) -> np.ndarray:
    """Dense quadratic gradient kernel ``B = [D_k, eta~]``, so that the gradient is
    ``w B w^T``; symmetric and traceless for a symmetric eta~."""
    d = dense_d(gen)
    eta_tilde = np.asarray(eta_tilde, dtype=float)
    return d @ eta_tilde - eta_tilde @ d


# -- dense circuit oracles ------------------------------------------------------


def dense_gate(gen, theta) -> np.ndarray:
    """exp(theta D) as a 2m x 2m matrix, the identity off the support.

    On the support it is Rodrigues' formula ``I + sin(theta) D + (1 - cos(theta)) D^2``
    of the real block of ``dense_d(gen)`` when ``D^3 = -D`` (every standard kind), and
    ``expm`` of that block otherwise.
    """
    theta = float(theta)
    support = gen.support
    d = dense_d(gen)[np.ix_(support, support)]
    d2 = d @ d
    if theta == 0.0:
        block = np.eye(support.size)
    elif np.abs(d @ d2 + d).max(initial=0.0) <= 1e-12:
        block = math.sin(theta) * d
        block += 2.0 * math.sin(0.5 * theta) ** 2 * d2  # 1 - cos(theta), without cancellation
        block.flat[:: support.size + 1] += 1.0
    else:
        block = expm(theta * d)
    out = np.eye(2 * gen.m)
    out[np.ix_(support, support)] = block
    return out


def custom_gate_tol(gen, theta) -> float:
    """Max-abs tolerance of a custom gate against ``mp_gate``: the eigenvalues carry
    an error of a few ulp of max|dc|, which the gate multiplies by |theta|."""
    return 4e-15 * (1.0 + abs(theta) * np.abs(gen.dc).max())


def mp_gate(gen, theta, dps: int = 30) -> np.ndarray:
    """The complex gate block exp(theta dc) by mpmath's ``expm`` at ``dps`` digits,
    rounded to complex128; it shares no eigendecomposition with the package."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        out = mpmath.expm(mpmath.mpf(float(theta)) * mpmath.matrix(gen.dc.tolist()))
        return np.array(out.tolist(), dtype=np.complex128)


def layer_transfers(circuit, theta=None) -> list:
    """exp(theta_l D_l) W_l of every layer, as 2m x 2m matrices."""
    theta = circuit.theta if theta is None else theta
    return [dense_gate(gen, t) @ embed_unitary(unitary)
            for gen, unitary, t in zip(circuit.gens, circuit.unitaries, theta)]


def _product(transfers, m) -> np.ndarray:
    return reduce(np.matmul, transfers, np.eye(2 * m))


def orthogonal_action(circuit, theta=None) -> np.ndarray:
    """Full transfer matrix of the circuit, the layers composed in order."""
    return _product(layer_transfers(circuit, theta), circuit.m)


def split_action(circuit, split: int, theta=None) -> tuple:
    """(O_minus, O_plus): the layers before layer ``split`` (1-based), and from it on."""
    if not 1 <= split <= circuit.depth:
        raise ValueError(f"split layer {split} out of range 1..{circuit.depth}")
    transfers = layer_transfers(circuit, theta)
    return _product(transfers[: split - 1], circuit.m), _product(transfers[split - 1 :], circuit.m)


def measurement_cost(u, n, o_minus, o_plus) -> float:
    """Overlap cost 1 - |<u T | n>|^2 = -expm1(-|u T - n|^2 / 2), T = O_minus O_plus."""
    diff = u @ (o_minus @ o_plus) - n
    return -math.expm1(-0.5 * float(diff @ diff))


def compiling_cost(u, o_minus, o_plus) -> float:
    return measurement_cost(u, u, o_minus, o_plus)


def bilinear(gen, y, b):
    """y D b^T as the dense product ``y @ dense_d(gen) @ b^T``: a float for rows of
    length 2m, row by row (a length-n array) for (n, 2m) batches."""
    out = np.einsum("...i,...i->...", y @ dense_d(gen), b)
    return float(out) if out.ndim == 0 else out


def overlap_grad(y, gen, b, e_total: float) -> float:
    """Overlap-family gradient kernel -exp(-e_total + y.b) * (y D_k b), with
    ``e_total`` = E0 + E1."""
    return -math.exp(-e_total + float(y @ b)) * bilinear(gen, y, b)


def measurement_grad(u, n, gen, o_minus, o_plus) -> float:
    """Split-layer overlap gradient with y = u O_minus and b = O_plus n^T."""
    return overlap_grad(u @ o_minus, gen, n @ o_plus.T, intensity(u) + intensity(n))


def compiling_grad(u, gen, o_minus, o_plus) -> float:
    return measurement_grad(u, u, gen, o_minus, o_plus)


def quadratic_cost(u, ham, o_minus, o_plus) -> float:
    """Mean energy (u T) eta (u T)^T + tr(eta)/2 of the circuit output state."""
    w = u @ (o_minus @ o_plus)
    return float(w @ ham.eta @ w) + 0.5 * float(np.trace(ham.eta))


def quadratic_grad(u, gen, ham, o_minus, o_plus) -> float:
    """Split-layer quadratic gradient w [D_k, eta~] w^T = 2 w D_k (eta~ w^T), w = u O_minus."""
    eta_tilde = o_plus @ ham.eta @ o_plus.T
    w = u @ o_minus
    return 2.0 * bilinear(gen, w, w @ eta_tilde)


def circuit_cost(circuit, theta, family: str, u, hamiltonian=None, target=None) -> float:
    """Cost of the fully composed circuit at explicit parameters."""
    total = orthogonal_action(circuit, theta)
    eye = np.eye(2 * circuit.m)
    if family == "compiling":
        return measurement_cost(u, u if target is None else target, eye, total)
    if family == "quadratic":
        return quadratic_cost(u, hamiltonian, eye, total)
    raise ValueError(family)


def fd_gradient(circuit, layer: int, family: str, u, hamiltonian=None,
                target=None, step: float = 1e-5) -> float:
    """Central finite difference of the circuit cost at one layer parameter."""
    theta = np.array(circuit.theta, copy=True)
    plus, minus = theta.copy(), theta.copy()
    plus[layer - 1] += step
    minus[layer - 1] -= step
    c_plus = circuit_cost(circuit, plus, family, u, hamiltonian, target)
    c_minus = circuit_cost(circuit, minus, family, u, hamiltonian, target)
    return (c_plus - c_minus) / (2.0 * step)


class Tail(NamedTuple):
    fraction: float
    std_error: float


def tail_frequency(family, epsilon: float, n_samples: int, rng) -> Tail:
    """Fraction of samples with |dC| >= epsilon and its binomial standard error.

    Sample i comes from the same substream as in the moment estimators
    (chunk i // CHUNK_SIZE), so a tail and a moment estimate with one seed
    see the same gradients.
    """
    source = as_source(rng)
    count = 0
    for index, start in enumerate(range(0, n_samples, CHUNK_SIZE)):
        x = family.sample_gradients(min(CHUNK_SIZE, n_samples - start), source.substream(index))
        count += int(np.count_nonzero(np.abs(x) >= epsilon))
    fraction = count / n_samples
    return Tail(fraction, math.sqrt(fraction * (1.0 - fraction) / n_samples))


def assert_within_sigma(estimate: float, expected: float, std_error: float,
                        n_sigma: float = 3.0, context: str = ""):
    gap = abs(estimate - expected)
    limit = n_sigma * std_error
    assert gap <= limit, (
        f"{context}: |{estimate:.6e} - {expected:.6e}| = {gap:.3e} "
        f"exceeds {n_sigma} sigma = {limit:.3e}"
    )

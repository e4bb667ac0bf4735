"""Shared oracles and helpers for the test suite.

Most oracles here are deliberately independent of the package internals:
plain truncated power series, quadrature and central finite differences.
Tests compare package outputs against these.

The dense circuit oracles are the exception.  They build each layer as a
2m x 2m matrix, multiply the matrices out and evaluate the costs and
split-layer gradients from ``(O_minus, O_plus)``, where the package
propagates vectors.  They reuse ``gen.block`` for the gate (``dense_gate``),
``cf.overlap_grad`` and ``GeneratorPair.bilinear``, so they check the
vector path, not those kernels; ``test_matches_expm`` keeps the gate formula
checked against ``expm``.  They validate nothing.
"""

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from linopt_bp import LayeredCircuit, LogScaled, bessel_i, intensity_law
from linopt_bp import cost_functions as cf
from linopt_bp.estimators import CHUNK_SIZE
from linopt_bp.linear_optics import Layer, embed_unitary
from linopt_bp.sampling import as_source


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


def law_values(text: str, grid) -> list:
    """An intensity law at each grid point, one scalar call per point as in the CLI."""
    law = intensity_law(text)
    return [float(law(np.asarray(float(m)))) for m in grid]


def attenuation_values(e0_law: str, k: float, layers, grid) -> tuple:
    """(E0, E1) lists of an attenuation sweep with ``layers(m)`` layers at mode count m."""
    e0s = law_values(e0_law, grid)
    return e0s, [cf.attenuated_intensity(e0, k, layers(m)) for e0, m in zip(e0s, grid)]


def simpson(fn, lo: float, hi: float, n: int = 4001) -> float:
    """Composite Simpson quadrature on an odd-length uniform grid."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(lo, hi, n)
    ys = np.array([fn(x) for x in xs])
    h = (hi - lo) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-2:2].sum()))


def identity_fixed(circuit) -> LayeredCircuit:
    """The circuit with its gates and parameters kept and every fixed layer the identity."""
    eye = np.eye(circuit.m, dtype=np.complex128)
    return LayeredCircuit([Layer(layer.gen, eye) for layer in circuit.layers], circuit.theta)


# -- dense circuit oracles ------------------------------------------------------


def dense_gate(gen, theta) -> np.ndarray:
    """exp(theta D) as a 2m x 2m matrix: the identity with ``gen.block(theta)`` on the support."""
    out = np.eye(2 * gen.m)
    out[np.ix_(gen.support, gen.support)] = gen.block(float(theta))
    return out


def layer_transfers(circuit, theta=None) -> list:
    """exp(theta_l D_l) W_l of every layer, as 2m x 2m matrices."""
    theta = circuit.theta if theta is None else theta
    return [dense_gate(layer.gen, t) @ embed_unitary(layer.unitary)
            for layer, t in zip(circuit.layers, theta)]


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
    diff = u.values @ (o_minus @ o_plus) - n.values
    return -math.expm1(-0.5 * float(diff @ diff))


def compiling_cost(u, o_minus, o_plus) -> float:
    return measurement_cost(u, u, o_minus, o_plus)


def measurement_grad(u, n, gen, o_minus, o_plus) -> float:
    """Split-layer overlap gradient with y = u O_minus and b = O_plus n^T."""
    return cf.overlap_grad(u.values @ o_minus, gen, n.values @ o_plus.T, u.intensity() + n.intensity())


def compiling_grad(u, gen, o_minus, o_plus) -> float:
    return measurement_grad(u, u, gen, o_minus, o_plus)


def quadratic_cost(u, ham, o_minus, o_plus) -> float:
    """Mean energy (u T) eta (u T)^T + tr(eta)/2 of the circuit output state."""
    w = u.values @ (o_minus @ o_plus)
    return float(w @ ham.eta @ w) + 0.5 * float(np.trace(ham.eta))


def quadratic_grad(u, gen, ham, o_minus, o_plus) -> float:
    """Split-layer quadratic gradient w [D_k, eta~] w^T = 2 w D_k (eta~ w^T), w = u O_minus."""
    eta_tilde = o_plus @ ham.eta @ o_plus.T
    w = u.values @ o_minus
    return 2.0 * gen.bilinear(w, w @ eta_tilde)


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

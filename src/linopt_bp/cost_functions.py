"""Cost functions over random linear-optical circuits, with analytic gradients.

Four families, each an exact closed form in the phase-space mean:

* toy: a bank of local phase shifters on an m-fold product state, cost
  ``1 - |<psi0|U(theta)|psi0>|^2``;
* compiling: ``1 - exp(-|u (I - O_minus O_plus)|^2 / 2)``, the infidelity of
  returning an input coherent state to itself;
* measurement: same overlap form against a separate target mean (heterodyne /
  photon-count targets reduce to it), with attenuation mapping the target
  intensity as ``E1 = k^(2L) E0``;
* quadratic: mean energy of a positive quadratic Hamiltonian,
  ``(u T) eta (u T)^T`` plus the theta-independent vacuum term ``tr(eta)/2``
  from the coherent-state covariance ``I/2``.

Gradients are with respect to the parameter of the split layer, whose gate
is a ``GeneratorPair``.  With ``y = O_minus^T u^T`` and ``b = O_plus n^T``
the overlap-family gradient is

    dC/dtheta_k = -exp(-(E0+E1)) (y^T D_k b) exp(y^T b),

oriented so that it matches central finite differences of the layered
circuit's cost under this package's composition convention (see
``linear_optics``); ``y^T D_k b`` is ``GeneratorPair.bilinear``.  The
quadratic gradient is ``w B w^T`` with ``w = u O_minus`` and
``B = [D_k, eta~]``, symmetric and traceless for any energy-conserving gate;
``quadratic_grad`` evaluates it on the gate's support as
``2 w D_k (eta~ w^T)``, and ``bk_matrix(gen, eta~)`` forms the dense ``B``
for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import MeanVector, as_mean_vector
from .special_functions import bessel_i
from .validation import check_orthogonal, check_same_modes, check_symmetric, modes_of
from .linear_optics import GeneratorPair, check_generator


# -- toy family ----------------------------------------------------------


def _local_weight(u_single) -> float:
    u1, u2 = (float(x) for x in np.asarray(u_single, dtype=float).reshape(-1))
    return u1 * u1 + u2 * u2


def toy_cost(u_single, theta) -> float:
    """Local phase-shifter cost on the m-fold product of one single-mode state.

    With s = u1^2 + u2^2 (twice the local intensity) and one angle per mode:
    ``1 - exp(s * sum_j (cos theta_j - 1) * ... )``; zero at theta = 0 and
    invariant under permutations of the angles.
    """
    s = _local_weight(u_single)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    m = theta.size
    return 1.0 - math.exp(s * float(np.cos(theta).sum()) - m * s)


def toy_grad(u_single, theta) -> float:
    """Derivative of the toy cost with respect to the first angle."""
    s = _local_weight(u_single)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    m = theta.size
    return s * math.sin(theta[0]) * math.exp(s * float(np.cos(theta).sum()) - m * s)


def toy_grad_abs_expectation(s: float, m: int) -> float:
    """Closed-form mean of |d(toy cost)/d(theta_1)| over uniform angles.

    Equals ``(2/pi) exp(-m s) I_0(s)^(m-1) sinh(s)``, evaluated in log scale
    so deep-plateau regimes underflow cleanly to 0.0 instead of overflowing
    intermediate factors.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    if s == 0.0:
        return 0.0
    log_val = (
        math.log(2.0 / math.pi)
        - m * s
        + (m - 1) * bessel_i(0, s).log_value
        + _log_sinh(s)
    )
    return math.exp(log_val)


def _log_sinh(s: float) -> float:
    # sinh(s) = s * sinh(s)/s; stable for tiny s, and s + log((1-e^{-2s})/2) for large
    if s < 1e-4:
        return math.log(s) + math.log1p(s * s / 6.0)
    if s > 350.0:
        return s - math.log(2.0)
    return math.log(math.sinh(s))


# -- compiling / measurement family ---------------------------------------


def compiling_cost(u: MeanVector, o_minus, o_plus) -> float:
    """Infidelity 1 - exp(-|u(I - O_minus O_plus)|^2 / 2); zero iff u T = u."""
    return measurement_cost(u, u, o_minus, o_plus)


def measurement_cost(u: MeanVector, n: MeanVector, o_minus, o_plus) -> float:
    """Overlap cost 1 - |<u T | n>|^2 against a target mean vector n.

    For n = 0 the value is ``1 - exp(-E0)`` independent of the circuit.
    Evaluated as ``-expm1(-|u T - n|^2 / 2)``, so it is not rounded to a
    multiple of ulp(1) near the optimum.
    """
    u = as_mean_vector(u)
    n = as_mean_vector(n)
    check_same_modes(u.m, n.m, "state and target")
    t = _composed(u.m, o_minus, o_plus)
    diff = u.values @ t - n.values
    return -math.expm1(-0.5 * float(diff @ diff))


def compiling_grad(u: MeanVector, gen: GeneratorPair, o_minus, o_plus) -> float:
    """Split-layer gradient of the compiling cost (target = input state)."""
    return measurement_grad(u, u, gen, o_minus, o_plus)


def measurement_grad(u: MeanVector, n: MeanVector, gen: GeneratorPair, o_minus, o_plus) -> float:
    """Split-layer gradient of the overlap cost against target n.

    -exp(-(E0+E1)) * (y^T D_k b) * exp(y^T b) with y = O_minus^T u^T and
    b = O_plus n^T; matches central finite differences of the layered cost.
    """
    u = as_mean_vector(u)
    n = as_mean_vector(n)
    check_same_modes(u.m, n.m, "state and target")
    check_same_modes(u.m, check_generator(gen).m, "state and generator")
    o_minus, o_plus = _validated_pair(u.m, o_minus, o_plus)
    y = u.values @ o_minus
    b = n.values @ o_plus.T
    return overlap_grad(y, gen, b, u.intensity() + n.intensity())


def overlap_grad(y, gen: GeneratorPair, b, e_total: float) -> float:
    """Overlap-family gradient kernel -exp(-e_total + y.b) * (y D_k b).

    Unvalidated: ``y`` and ``b`` are the propagated state and target vectors
    and ``e_total`` is E0 + E1.  ``measurement_grad`` validates its arguments
    and then calls this; the trainer calls it once per layer.
    """
    return -math.exp(-e_total + float(y @ b)) * gen.bilinear(y, b)


def photon_count_target(u: MeanVector, counts) -> MeanVector:
    """Coherent target equivalent to an observed photon-count pattern.

    Mode j of the target carries intensity E * n_j / N (E the input intensity,
    N the total count), the per-mode phases set to zero; the target norm
    equals the input norm.
    """
    u = as_mean_vector(u)
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size != u.m:
        raise ValueError(f"counts must be a length-{u.m} vector, got shape {counts.shape}")
    if np.any(counts < 0) or not np.all(counts == np.floor(counts)):
        raise ValueError("counts must be nonnegative integers")
    total = float(counts.sum())
    if total <= 0:
        raise ValueError("at least one photon count must be positive")
    energy = u.intensity()
    if energy <= 0:
        raise ValueError("input state must carry positive intensity")
    values = np.zeros(2 * u.m)
    values[0::2] = np.sqrt(2.0 * energy * np.asarray(counts, dtype=float) / total)
    return MeanVector(values)


def attenuated_intensity(e0: float, k: float, n_layers: int) -> float:
    """Intensity after n_layers quantum-limited attenuation layers: k^(2L) E0."""
    if not 0.0 < k < 1.0:
        raise ValueError(f"attenuation factor must lie in (0, 1), got {k}")
    if e0 < 0:
        raise ValueError(f"intensity must be >= 0, got {e0}")
    if n_layers < 0:
        raise ValueError(f"layer count must be >= 0, got {n_layers}")
    return float(k ** (2 * n_layers)) * float(e0)


# -- quadratic family ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Positive quadratic Hamiltonian R eta R^T, eta symmetric PSD."""

    eta: np.ndarray

    def __post_init__(self):
        eta = check_symmetric(self.eta, "eta")
        modes_of(eta, "eta")
        smallest = float(np.linalg.eigvalsh(eta)[0])
        if smallest < -1e-12:
            raise ValueError(f"eta must be positive semidefinite (min eigenvalue {smallest:.3e})")
        eta.flags.writeable = False
        object.__setattr__(self, "eta", eta)

    @property
    def m(self) -> int:
        return self.eta.shape[0] // 2


def quadratic_cost(u: MeanVector, ham: QuadraticHamiltonian, o_minus, o_plus) -> float:
    """Mean energy (u T) eta (u T)^T + tr(eta)/2 of the circuit output state.

    The trace term is the coherent-state covariance contribution; it does not
    depend on the circuit, so gradients ignore it.
    """
    u = as_mean_vector(u)
    check_same_modes(u.m, ham.m, "state and Hamiltonian")
    t = _composed(u.m, o_minus, o_plus)
    w = u.values @ t
    return float(w @ ham.eta @ w) + 0.5 * float(np.trace(ham.eta))


def bk_matrix(gen: GeneratorPair, eta_tilde) -> np.ndarray:
    """Dense gradient kernel [D_k, eta~] of a gate generator, for the closed form.

    Symmetric and exactly traceless, since ``GeneratorPair`` admits only
    energy-conserving generators (D_k skew) and eta~ is symmetric.
    """
    gen = check_generator(gen)
    eta_tilde = check_symmetric(eta_tilde, "eta_tilde")
    check_same_modes(gen.m, modes_of(eta_tilde, "eta_tilde"), "generator and eta_tilde")
    d = gen.d
    return d @ eta_tilde - eta_tilde @ d


def quadratic_grad(u: MeanVector, gen: GeneratorPair, ham: QuadraticHamiltonian, o_minus, o_plus) -> float:
    """Split-layer gradient of the quadratic cost: w B w^T with w = u O_minus."""
    u = as_mean_vector(u)
    check_same_modes(u.m, ham.m, "state and Hamiltonian")
    check_same_modes(u.m, check_generator(gen).m, "state and generator")
    o_minus, o_plus = _validated_pair(u.m, o_minus, o_plus)
    eta_tilde = o_plus @ ham.eta @ o_plus.T
    w = u.values @ o_minus
    # w [D_k, eta~] w^T = 2 w D_k eta~ w^T, since D_k is skew and eta~ symmetric
    return 2.0 * gen.bilinear(w, w @ eta_tilde)


# -- helpers ---------------------------------------------------------------


def _validated_pair(m: int, o_minus, o_plus) -> tuple:
    o_minus = check_orthogonal(o_minus, "o_minus")
    o_plus = check_orthogonal(o_plus, "o_plus")
    check_same_modes(m, modes_of(o_minus, "o_minus"), "state and o_minus")
    check_same_modes(m, modes_of(o_plus, "o_plus"), "state and o_plus")
    return o_minus, o_plus


def _composed(m: int, o_minus, o_plus) -> np.ndarray:
    o_minus, o_plus = _validated_pair(m, o_minus, o_plus)
    return o_minus @ o_plus

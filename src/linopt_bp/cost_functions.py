"""Definitions shared by the cost families: the toy family's closed form, the
attenuation map and the quadratic family's Hamiltonian.

The four cost families are exact closed forms in the phase-space mean:

* toy: a bank of local phase shifters on an m-fold product state, cost
  ``1 - |<psi0|U(theta)|psi0>|^2``;
* compiling: ``1 - exp(-|u (I - O_minus O_plus)|^2 / 2)``, the infidelity of
  returning an input coherent state to itself;
* measurement: same overlap form against a separate target mean, with
  attenuation mapping the target intensity as ``E1 = k^(2L) E0``;
* quadratic: mean energy of a positive quadratic Hamiltonian,
  ``(u T) eta (u T)^T`` plus the theta-independent vacuum term ``tr(eta)/2``
  from the coherent-state covariance ``I/2``.

This module holds the toy family's closed-form mean |gradient| in log scale,
``toy_log_abs_expectation``, whose ``.value`` is the linear one;
``attenuated_intensity``, which maps E0 to the E1 that the measurement
family's Monte Carlo and closed form both take; and ``QuadraticHamiltonian``,
which the trainer takes as the cost's eta and the quadratic family and its
closed form as eta~ (``check_hamiltonian`` turns a bare array away).  The
trainer evaluates the circuit families' costs and gradients, ``estimators``
samples the gradients, and the toy cost and its gradient are test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import LogScaled, bessel_i
from .validation import check_intensity, check_mode_count, check_symmetric, modes_of


# -- toy family ----------------------------------------------------------


def toy_log_abs_expectation(s: float, m: int) -> LogScaled:
    """Closed-form mean of |d(toy cost)/d(theta_1)| over uniform angles, in log scale.

    Equals ``(2/pi) exp(-m s) I_0(s)^(m-1) sinh(s)``; the log form keeps the
    deep-plateau values that a double cannot hold, and s = 0 is an exact zero.
    """
    check_intensity(s, "s")
    check_mode_count(m)
    if s == 0.0:
        return LogScaled(-math.inf)
    return LogScaled(math.log(2.0 / math.pi) - m * s + (m - 1) * bessel_i(0, s).log_value + _log_sinh(s))


def _log_sinh(s: float) -> float:
    # sinh(s) = e^s (1 - e^(-2s)) / 2 for s > 0; expm1 keeps 1 - e^(-2s) exact at
    # subnormal s, and e^s never overflows
    return s - math.log(2.0) + math.log(-math.expm1(-2.0 * s))


# -- compiling / measurement family ---------------------------------------


def attenuated_intensity(e0: float, k: float, n_layers: int) -> float:
    """Intensity after n_layers quantum-limited attenuation layers: k^(2L) E0."""
    if not 0.0 < k < 1.0:
        raise ValueError(f"attenuation factor must lie in (0, 1), got {k}")
    check_intensity(e0, "e0")
    if n_layers < 0:
        raise ValueError(f"layer count must be >= 0, got {n_layers}")
    return float(k ** (2 * n_layers)) * float(e0)


# -- quadratic family ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Positive quadratic Hamiltonian R eta R^T, eta symmetric PSD."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.array(check_symmetric(self.eta, "eta"))  # a copy, frozen: the caller's array stays writeable
        modes_of(eta, "eta")
        smallest = float(np.linalg.eigvalsh(eta)[0])
        if smallest < -1e-12:
            raise ValueError(f"eta must be positive semidefinite (min eigenvalue {smallest:.3e})")
        eta.flags.writeable = False
        object.__setattr__(self, "eta", eta)

    @property
    def m(self) -> int:
        return self.eta.shape[0] // 2


def check_hamiltonian(ham, name: str) -> QuadraticHamiltonian:
    """``ham`` if it is a QuadraticHamiltonian; a TypeError naming the argument for anything
    else, such as a bare matrix."""
    if not isinstance(ham, QuadraticHamiltonian):
        raise TypeError(f"{name} must be a QuadraticHamiltonian, got {type(ham).__name__}")
    return ham

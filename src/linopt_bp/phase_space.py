"""Coherent states as phase-space mean vectors.

Conventions fixed package-wide:

* quadratures ``q = (a + a*)/sqrt(2)``, ``p = (-i a + i a*)/sqrt(2)``,
  so a single-mode coherent state with complex amplitude ``alpha`` has mean
  ``(sqrt(2) Re alpha, sqrt(2) Im alpha)`` and ``|<alpha|0>|^2 = exp(-|alpha|^2)``;
* components are interleaved ``(q1, p1, ..., qm, pm)``;
* linear optics acts on row vectors from the right, ``u -> u T`` with
  ``T`` orthogonal, which preserves the total intensity ``|u|^2 / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import check_same_modes


@dataclass(frozen=True, eq=False)
class MeanVector:
    """Phase-space mean of an m-mode coherent state (length-2m real vector)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if arr.size < 2 or arr.size % 2:
            raise ValueError(f"mean vector length must be even and >= 2, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mean vector entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def of(cls, values) -> "MeanVector":
        return cls(np.asarray(values, dtype=float))

    @classmethod
    def vacuum(cls, m: int) -> "MeanVector":
        return cls(np.zeros(2 * m))

    @classmethod
    def repeated_single_mode(cls, u1: float, u2: float, m: int) -> "MeanVector":
        """(u1, u2) on every one of m modes, the product-state layout."""
        return cls(np.tile([float(u1), float(u2)], m))

    @property
    def m(self) -> int:
        return self.values.size // 2

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def intensity(self) -> float:
        """Total mean photon number, |u|^2 / 2."""
        return float(self.values @ self.values) / 2.0

    def __repr__(self) -> str:  # keep reprs small for m >> 1
        return f"MeanVector(m={self.m}, intensity={self.intensity():.6g})"


def as_mean_vector(u) -> MeanVector:
    return u if isinstance(u, MeanVector) else MeanVector.of(u)


def intensity(u: MeanVector) -> float:
    """Total mean photon number carried by the state."""
    return as_mean_vector(u).intensity()


def overlap_fidelity(u: MeanVector, v: MeanVector) -> float:
    """Squared overlap |<u|v>|^2 = exp(-|u - v|^2 / 2) of two coherent states.

    Symmetric in its arguments, equals 1 exactly when u = v, and is invariant
    under a common orthogonal transformation of both states.
    """
    u = as_mean_vector(u)
    v = as_mean_vector(v)
    check_same_modes(u.m, v.m, "overlap arguments")
    diff = u.values - v.values
    return float(np.exp(-0.5 * float(diff @ diff)))

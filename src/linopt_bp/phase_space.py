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

    @property
    def m(self) -> int:
        return self.values.size // 2

    def intensity(self) -> float:
        """Total mean photon number, |u|^2 / 2."""
        return float(self.values @ self.values) / 2.0

    def __repr__(self) -> str:  # keep reprs small for m >> 1
        return f"MeanVector(m={self.m}, intensity={self.intensity():.6g})"


def as_mean_vector(u) -> MeanVector:
    return u if isinstance(u, MeanVector) else MeanVector(u)

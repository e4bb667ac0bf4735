"""Shared input-validation helpers.

All public entry points of the package funnel array arguments through these
checks so that shape and structure errors surface with a clear message
instead of a deep numpy traceback.
"""

from __future__ import annotations

import numpy as np

MATRIX_TOL = 1e-10  # largest asymmetry, or unitarity defect, that a matrix check lets pass


def as_square_matrix(a, name: str, dtype=float) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {arr.shape}")
    return arr


def modes_of(arr: np.ndarray, name: str) -> int:
    """Mode count of a phase-space matrix or vector (dimension must be 2m)."""
    dim = arr.shape[0]
    if dim % 2 or dim < 2:
        raise ValueError(f"{name} must have even dimension >= 2, got {dim}")
    return dim // 2


def check_symmetric(a, name: str) -> np.ndarray:
    arr = as_square_matrix(a, name)
    dev = float(np.abs(arr - arr.T).max(initial=0.0))
    if dev > MATRIX_TOL:
        raise ValueError(f"{name} is not symmetric (max asymmetry {dev:.3e} > {MATRIX_TOL:.1e})")
    return arr


def check_unitary(a, name: str) -> np.ndarray:
    """Validate U^H U = I in Frobenius norm; returns a complex128 array."""
    arr = as_square_matrix(a, name, np.complex128)
    defect = float(np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[0])))
    if defect > MATRIX_TOL:
        raise ValueError(f"{name} is not unitary (defect {defect:.3e} > {MATRIX_TOL:.1e})")
    return arr


def check_intensity(value: float, name: str) -> float:
    if not 0 <= value < np.inf:  # a NaN fails too
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def check_same_modes(m_a: int, m_b: int, what: str) -> int:
    if m_a != m_b:
        raise ValueError(f"{what} have mismatched mode counts: {m_a} vs {m_b}")
    return m_a


def check_mode_count(m: int) -> int:
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    return m

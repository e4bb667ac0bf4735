"""Reproducible random sources for the Monte Carlo experiments.

Randomness is always derived from a :class:`RandomSource`, a 64-bit seed
wrapped around numpy's counter-based Philox generator.  Chunked estimators
draw chunk ``i`` from the substream keyed by ``SeedSequence(seed,
spawn_key=(i,))``, so a result depends only on (seed, chunk layout) and not on
whether chunks ran serially or in parallel.  Identical seeds give bitwise
identical sample streams.

Haar sampling uses the QR decomposition of a Gaussian matrix with the
phase of the triangular factor's diagonal fixed (Mezzadri 2007,
arXiv:math-ph/0609050); without the fix QR output is not Haar distributed.
Passive linear optics on m modes is U(m) (complex Ginibre matrices, unit
phases), drawn for the fixed layers of circuits.  O(2m) (real Gaussian
matrices, signs) remains for the ``prop2`` instance's ``O_plus``.  Whole
matrices are needed only there: the Monte Carlo estimators draw the sphere
points ``u O`` directly.  A stack of Haar matrices is filled in place, a
block of about ``_BLOCK_BYTES`` at a time, so drawing it needs little more
memory than the stack itself; the draws are the same as one batched QR of
the whole stack, bit for bit.  Sphere points are normalised in row blocks of
the same size (``row_blocks``); the overlap families draw only a few
coordinates of each sphere point (``estimators``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import check_intensity, check_mode_count

@dataclass(frozen=True)
class RandomSource:
    """Seeded, replayable randomness with independent numbered substreams."""

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))

    def substream(self, index: int) -> np.random.Generator:
        if index < 0:
            raise ValueError(f"substream index must be >= 0, got {index}")
        seq = np.random.SeedSequence(self.seed, spawn_key=(int(index),))
        return np.random.Generator(np.random.Philox(seq))


def as_source(rng) -> RandomSource:
    if isinstance(rng, RandomSource):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RandomSource(int(rng))
    raise TypeError(f"expected RandomSource or integer seed, got {type(rng).__name__}")


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return as_source(rng).generator()


# bytes of Haar matrices per batched QR.  Each QR call has a fixed cost of tens of
# microseconds, so small stacks stay in one call (up to 64 layers at m = 16); the
# draw, LAPACK's copy, R and Q of one block are the scratch beyond the stack itself.
# Sphere points are normalised in blocks of the same size
_BLOCK_BYTES = 256 * 1024


def row_blocks(size: int, row_bytes: int):
    """Consecutive slices covering ``range(size)``, each about ``_BLOCK_BYTES`` of rows
    of ``row_bytes`` bytes (at least one row)."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return (slice(start, min(start + step, size)) for start in range(0, size, step))


def _haar_batch(n: int, size: int, rng, dtype) -> np.ndarray:
    """Fill a (size, n, n) stack with phase-fixed QR factors of Gaussian matrices.

    Each block draws its Gaussian matrices from the one generator in stack
    order, so the stack equals a single batched draw and QR bit for bit.
    """
    gen = _as_generator(rng)
    out = np.empty((size, n, n), dtype)
    for rows in row_blocks(size, out.itemsize * n * n):
        block = out[rows]
        # a complex draw interleaves real and imaginary parts (n x 2n doubles); the
        # scale of the entries does not affect the orthogonal or unitary factor
        g = gen.standard_normal((len(block), n, n * out.itemsize // 8))
        q, r = np.linalg.qr(g.view(dtype))
        diag = np.einsum("...ii->...i", r)
        phases = np.divide(diag, np.abs(diag), out=np.ones_like(diag), where=diag != 0)
        np.multiply(q, phases[..., None, :], out=block)
    return out


def haar_orthogonal_batch(m: int, size: int, rng) -> np.ndarray:
    """Stack of ``size`` independent Haar draws from O(2m), shape (size, 2m, 2m)."""
    check_mode_count(m)
    return _haar_batch(2 * m, size, rng, np.float64)


def haar_unitary_batch(m: int, size: int, rng) -> np.ndarray:
    """Stack of ``size`` independent Haar draws from U(m), shape (size, m, m), complex."""
    check_mode_count(m)
    return _haar_batch(m, size, rng, np.complex128)


def uniform_sphere_batch(m: int, radius: float, size: int, rng) -> np.ndarray:
    """Rows uniform on the (2m-1)-sphere of the given radius, shape (size, 2m).

    One Gaussian draw of the whole array, normalised in place one row block at a
    time: each block's norms are ``np.linalg.norm``'s, bit for bit, without its two
    full-size temporaries.  A row of norm below 1e-12 (essentially unreachable) is
    redrawn within its block, after the whole array's draw.
    """
    check_mode_count(m)
    check_intensity(radius, "radius")
    gen = _as_generator(rng)
    if radius == 0.0:
        return np.zeros((size, 2 * m))
    g = gen.standard_normal((size, 2 * m))
    for rows in row_blocks(size, g.itemsize * 2 * m):
        block = g[rows]
        norms = np.sqrt(np.add.reduce(block * block, axis=1))
        while np.any(norms < 1e-12):  # keeps the radius exact
            bad = norms < 1e-12
            block[bad] = gen.standard_normal((int(bad.sum()), 2 * m))
            norms = np.sqrt(np.add.reduce(block * block, axis=1))
        block *= (radius / norms)[:, None]
    return g


def uniform_sphere(m: int, radius: float, rng) -> np.ndarray:
    """A coherent state's mean vector ``(q1, p1, ..., qm, pm)``, a real length-2m array,
    drawn uniformly from the sphere of the given radius (intensity radius^2 / 2)."""
    return uniform_sphere_batch(m, radius, 1, rng)[0]


def uniform_angles_batch(m: int, size: int, rng) -> np.ndarray:
    """(size, m) array of i.i.d. angles uniform on [-pi, pi]."""
    check_mode_count(m)
    gen = _as_generator(rng)
    return gen.uniform(-np.pi, np.pi, (size, m))

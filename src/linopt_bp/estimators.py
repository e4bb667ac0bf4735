"""Monte Carlo estimation of gradient moments over random circuits.

Sampling is organized in fixed-size chunks: chunk ``i`` always covers the same
sample indices and draws from substream ``i`` of the seed, so an estimate is a
pure function of (family, n_samples, seed).  Chunks may be evaluated on a
thread pool of ``min(n_jobs, chunks, usable_cpus())`` workers (none when that
is 1); partial sums are merged with ``math.fsum`` (exact for doubles), making
the result bitwise independent of scheduling and of the worker count.  Within
a chunk numpy's pairwise summation keeps the tiny, cancellation-prone
plateau-regime moments accurate.

Families bundle an experiment instance with its vectorized gradient sampler,
and each takes the arguments of its closed form:

* ``ToyGradientFamily(m, s)`` draws uniform angle vectors;
* ``MeasurementGradientFamily(gen, e0, e1)`` evaluates the overlap gradient
  ``g = -exp(y . b - E0 - E1) y D b^T`` of independent sphere points
  y = u O_minus and b = O_plus n^T, drawing only the few coordinates of each
  that g depends on (below); the compiling cost is ``e1 = e0``;
* ``QuadraticGradientFamily(gen, energy, ham)`` draws one whole sphere point
  w = u O_minus per sample, a (size, 2m) array per chunk, and evaluates the
  gradient ``w [D_k, eta~] w^T = 2 y D_k b^T`` at y = w and b = w eta~,
  eta~ = ``ham.eta``, on the gate's 2k coordinates only: O(mk) per sample.

The gradients depend on a Haar pair (O_minus, O_plus) only through these
vectors, and a fixed vector times a Haar-orthogonal matrix is uniform on the
sphere of its own radius sqrt(2E); independent matrices give independent points.

The overlap gradient does not change when y and b are both rotated by an
orthogonal O with ``O D O^T = D``.  Every rotation of the 2(m - k) coordinates
off the gate's k modes qualifies, since D is zero there; when the gate's block
is a scalar ``dc = c I`` (global phase, a phase shifter), so does every U(k)
on the gate's modes.  Choosing O from y moves y to a canonical point, and
since b is independent of y and its law is rotation invariant, ``b O`` is
still uniform and independent of y.  So a sample draws

* for y: with a scalar block, ``|y_S|`` on the first gate mode's q and
  ``|y_R|`` on one off-gate coordinate, ``|y_S|^2 / |y|^2`` being
  Beta(k, m - k); with any other block, its 2k gate coordinates and ``|y_R|``,
  Gaussians and a chi-squared(2(m - k)) draw normalised together;
* for b: the matching 2 or 2k coordinates and the off-gate one, Gaussians
  normalised with a chi-squared draw for the other coordinates of S^(2m-1);

no off-gate coordinate when the gate covers every mode.  ``y D b^T`` is then
``linear_optics.bilinear`` of the block on those 1 or k local modes, the
contraction the trainer uses too.  This is exact in distribution and costs, at
any m, O(1) per sample for a scalar block and O(k^2) for any other.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cost_functions import QuadraticHamiltonian, check_hamiltonian
from .linear_optics import GeneratorPair, bilinear, check_generator
from .sampling import RandomSource, as_source, uniform_angles_batch, uniform_sphere_batch
from .validation import check_intensity, check_mode_count, check_same_modes

CHUNK_SIZE = 4096
MIN_SAMPLES = 1000


@dataclass(frozen=True)
class MomentEstimate:
    """Sample moments of the gradient g, each with its standard error: the signed
    mean of g, the mean of |g| and the second moment of g."""

    n_samples: int
    mean: float
    mean_abs: float
    second_moment: float
    std_error_mean: float
    std_error_mean_abs: float
    std_error_second: float
    seed: int


@dataclass(frozen=True, eq=False)
class ToyGradientFamily:
    """Local phase-shifter bank: gradient of the toy cost w.r.t. the first angle."""

    m: int
    s: float

    def __post_init__(self):
        check_mode_count(self.m)
        check_intensity(self.s, "s")

    def sample_gradients(self, size: int, rng: np.random.Generator) -> np.ndarray:
        # s sin(theta_0) exp(s (sum cos theta - m)); in place, so that a chunk makes
        # no temporary beyond theta and two (size,) arrays for the threads to wait on
        theta = uniform_angles_batch(self.m, size, rng)
        g = np.sin(theta[:, 0])
        total = np.cos(theta, out=theta).sum(axis=1)
        total -= self.m
        total *= self.s
        np.exp(total, out=total)
        g *= self.s
        g *= total
        return g


def _sphere_radius(energy: float, name: str) -> float:
    """sqrt(2E), the radius of the sphere a family draws on."""
    radius = math.sqrt(2.0 * check_intensity(energy, name))
    if not math.isfinite(radius):
        raise ValueError(f"sphere radius sqrt(2 {name}) at {name}={energy!r} is not finite")
    return radius


@dataclass(frozen=True, eq=False)
class MeasurementGradientFamily:
    """Overlap cost of an input of intensity ``e0`` against a target of intensity
    ``e1``, over Haar (O_minus, O_plus) pairs; the compiling cost is ``e1 = e0``.

    y and b are uniform on the spheres of radii sqrt(2 e0) and sqrt(2 e1).  Draws
    only their reduced coordinates (module docstring): the ``_gate`` coordinates of
    ``_block``, 2 for a scalar block ``dc = c I`` (its 1 x 1 corner, on the first gate
    mode) and 2k for any other k x k block (``dc``), then one off-gate coordinate
    when the gate misses a mode.
    """

    gen: GeneratorPair
    e0: float
    e1: float
    _radii: tuple = field(init=False, repr=False)
    _gate: int = field(init=False, repr=False)
    _block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dc = check_generator(self.gen).dc
        object.__setattr__(self, "_radii", (_sphere_radius(self.e0, "e0"), _sphere_radius(self.e1, "e1")))
        diag = np.diagonal(dc)
        scalar = np.all(diag == diag[0]) and np.count_nonzero(dc) == np.count_nonzero(diag)
        block = dc[:1, :1] if scalar else dc
        object.__setattr__(self, "_gate", 2 * len(block))
        object.__setattr__(self, "_block", block)

    def sample_gradients(self, size: int, rng: np.random.Generator) -> np.ndarray:
        m, k = self.gen.m, self.gen.modes.size
        y_norm, b_norm = self._radii
        rest = k < m  # the gate misses a mode: one off-gate coordinate
        y = np.zeros((size, self._gate + rest))
        if self._gate == 2:  # a scalar block, as every one-mode block is
            # |y_S|^2 / |y|^2 is Beta(k, m - k): 2k of 2m squared Gaussians over their sum
            t = rng.beta(k, m - k, size) if rest else 1.0
            y[:, 0] = y_norm * np.sqrt(t)
            if rest:
                y[:, -1] = y_norm * np.sqrt(1.0 - t)
        else:
            y[:, :self._gate] = rng.standard_normal((size, self._gate))
            if rest:
                y[:, -1] = np.sqrt(rng.chisquare(2 * (m - k), size))
            y *= (y_norm / np.sqrt(np.add.reduce(y * y, axis=1)))[:, None]
        # b's matching coordinates, normalised with a chi-squared draw for the other ones
        b = rng.standard_normal(y.shape)
        sq = np.add.reduce(b * b, axis=1)
        if 2 * m > b.shape[1]:
            sq += rng.chisquare(2 * m - b.shape[1], size)
        b *= (b_norm / np.sqrt(sq))[:, None]
        return self._gradients(y, b)

    def _gradients(self, y, b) -> np.ndarray:
        """The gradients at reduced rows of y and b (the block's coordinates first)."""
        # on C-ordered rows, as drawn, the block's coordinates are a complex view, not a copy
        z, c = (np.ascontiguousarray(x)[:, :self._gate].view(np.complex128) for x in (y, b))
        return -np.exp(np.einsum("ni,ni->n", y, b) - (self.e0 + self.e1)) * bilinear(z, self._block, c.conj())


@dataclass(frozen=True, eq=False)
class QuadraticGradientFamily:
    """Quadratic-cost gradient ``w [D_k, eta~] w^T = 2 y D_k b^T`` with y = w = u O_minus
    and b = w eta~, over Haar O_minus, for an input of intensity ``energy`` and
    eta~ = ``ham.eta``.

    Draws whole sphere points w of radius sqrt(2 E) but reads only the gate's k
    modes of w and of ``w @ eta~[:, gen.support]``, contracted with ``gen.dc`` by
    ``bilinear``; ``_columns`` is a copy of those 2k columns of eta~, so a sample
    costs O(mk).
    """

    gen: GeneratorPair
    energy: float
    ham: QuadraticHamiltonian
    _radius: float = field(init=False, repr=False)
    _columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_generator(self.gen)
        object.__setattr__(self, "_radius", _sphere_radius(self.energy, "energy"))
        check_same_modes(self.gen.m, check_hamiltonian(self.ham, "ham").m, "generator and Hamiltonian")
        object.__setattr__(self, "_columns", self.ham.eta[:, self.gen.support])

    def sample_gradients(self, size: int, rng: np.random.Generator) -> np.ndarray:
        w = uniform_sphere_batch(self.gen.m, self._radius, size, rng)
        z = w.view(np.complex128)[:, self.gen.modes]
        c = (w @ self._columns).view(np.complex128)
        np.conjugate(c, out=c)
        return 2.0 * bilinear(z, self.gen.dc, c)


# -- chunked engine ---------------------------------------------------------


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(n_samples: int):
    start = 0
    index = 0
    while start < n_samples:
        size = min(CHUNK_SIZE, n_samples - start)
        yield index, size
        index += 1
        start += size


def _check_family(family):
    if not hasattr(family, "sample_gradients"):
        raise TypeError(
            f"unknown cost family object {type(family).__name__}; "
            "expected an object with a sample_gradients(size, rng) method"
        )


def _moment_sums(family, n_samples: int, source: RandomSource, n_jobs: int):
    def one(chunk) -> tuple:
        index, size = chunk
        x = family.sample_gradients(size, source.substream(index))
        with np.errstate(over="ignore"):  # a sum that overflows is reported by the caller
            x2 = x * x
            return (
                float(np.sum(x)),
                float(np.sum(np.abs(x))),
                float(np.sum(x2)),
                float(np.sum(x2 * x2)),
            )

    parts = _run_chunks(one, n_samples, n_jobs)
    return tuple(math.fsum(col) for col in zip(*parts))


def _run_chunks(fn, n_samples: int, n_jobs: int) -> list:
    chunks = list(_chunks(n_samples))
    workers = min(n_jobs, len(chunks), usable_cpus())
    if workers == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def _std_error(variance: float, n: float) -> float:
    return math.sqrt(max(0.0, variance) / n)


def estimate_grad_moments(family, n_samples: int, rng, n_jobs: int = 1) -> MomentEstimate:
    """The signed mean (0 by symmetry for every family), the mean magnitude and the
    second moment of the family's gradient over ``n_samples`` draws.

    A nonzero second moment whose sum of g^4 is 0, subnormal, infinite or NaN has
    no representable standard error, and is a ValueError; an all-zero gradient is
    0 +- 0.
    """
    _check_family(family)
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    source = as_source(rng)
    sum_x, sum_abs, sum_x2, sum_x4 = _moment_sums(family, n_samples, source, n_jobs)
    n = float(n_samples)
    mean, mean_abs, second = sum_x / n, sum_abs / n, sum_x2 / n
    if sum_x2 != 0.0 and not sys.float_info.min <= sum_x4 < math.inf:
        raise ValueError(f"the second moment {second!r} has no standard error: "
                         f"the sum of g^4 is {sum_x4!r}, outside the normal double range")
    return MomentEstimate(
        n_samples=n_samples,
        mean=mean,
        mean_abs=mean_abs,
        second_moment=second,
        std_error_mean=_std_error(second - mean * mean, n),
        std_error_mean_abs=_std_error(second - mean_abs * mean_abs, n),
        std_error_second=_std_error(sum_x4 / n - second * second, n),
        seed=source.seed,
    )

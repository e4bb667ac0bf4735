"""Monte Carlo estimation of gradient moments over random circuits.

Sampling is organized in fixed-size chunks: chunk ``i`` always covers the same
sample indices and draws from substream ``i`` of the seed, so an estimate is a
pure function of (family, n_samples, seed).  Chunks may be evaluated on a
thread pool; partial sums are merged with ``math.fsum`` (exact for doubles),
making the result bitwise independent of scheduling.  Within a chunk numpy's
pairwise summation keeps the tiny, cancellation-prone plateau-regime moments
accurate.

Families bundle an experiment instance with its vectorized gradient sampler:

* ``ToyGradientFamily`` draws uniform angle vectors;
* ``CompilingGradientFamily`` / ``MeasurementGradientFamily`` draw independent
  sphere points y = u O_minus and b = O_plus n^T and evaluate the analytic
  overlap gradient (y D b by ``GeneratorPair.bilinear``, on the support);
* ``QuadraticGradientFamily`` draws one sphere point w = u O_minus per sample.

The gradients depend on a Haar pair (O_minus, O_plus) only through these
vectors, and a fixed vector times a Haar-orthogonal matrix is uniform on the
sphere of its own radius; independent matrices give independent points.
Drawing the points directly is therefore exact in distribution and costs
O(m) per sample instead of two QR decompositions of 2m x 2m matrices.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linear_optics import GeneratorPair, check_generator
from .phase_space import MeanVector, as_mean_vector
from .sampling import RandomSource, as_source, uniform_angles_batch, uniform_sphere_batch
from .validation import check_same_modes, check_symmetric, modes_of

CHUNK_SIZE = 4096
MIN_SAMPLES = 1000


@dataclass(frozen=True)
class MomentEstimate:
    """First and second sample moments with their standard errors."""

    n_samples: int
    mean: float
    second_moment: float
    std_error_mean: float
    std_error_second: float
    seed: int

    def as_dict(self) -> dict:
        """JSON-ready record of all fields (consumed by the CLI writers)."""
        return {
            "n_samples": self.n_samples,
            "mean": self.mean,
            "second_moment": self.second_moment,
            "std_error_mean": self.std_error_mean,
            "std_error_second": self.std_error_second,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class ToyGradientFamily:
    """Local phase-shifter bank: gradient of the toy cost w.r.t. the first angle."""

    m: int
    s: float

    name = "toy"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"mode count must be >= 1, got {self.m}")
        if self.s < 0:
            raise ValueError(f"s must be >= 0, got {self.s}")

    def sample_gradients(self, size: int, rng: np.random.Generator) -> np.ndarray:
        theta = uniform_angles_batch(self.m, size, rng)
        return self.s * np.sin(theta[:, 0]) * np.exp(
            self.s * (np.cos(theta).sum(axis=1) - self.m)
        )


@dataclass(frozen=True, eq=False)
class MeasurementGradientFamily:
    """Overlap cost against a fixed target mean, Haar (O_minus, O_plus) pairs."""

    u: MeanVector
    n: MeanVector
    gen: GeneratorPair

    name = "measurement"

    def __post_init__(self):
        u = as_mean_vector(self.u)
        n = as_mean_vector(self.n)
        check_same_modes(u.m, n.m, "state and target")
        check_same_modes(u.m, check_generator(self.gen).m, "state and generator")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "n", n)

    def sample_gradients(self, size: int, rng: np.random.Generator) -> np.ndarray:
        m = self.u.m
        y = uniform_sphere_batch(m, self.u.norm, size, rng)
        b = uniform_sphere_batch(m, self.n.norm, size, rng)
        dots = np.einsum("ni,ni->n", y, b)
        e_total = self.u.intensity() + self.n.intensity()
        return -np.exp(dots - e_total) * self.gen.bilinear(y, b)


def CompilingGradientFamily(u: MeanVector, gen: GeneratorPair) -> MeasurementGradientFamily:
    """Compiling cost = overlap cost with the input state as its own target."""
    u = as_mean_vector(u)
    return MeasurementGradientFamily(u=u, n=u, gen=gen)


@dataclass(frozen=True, eq=False)
class QuadraticGradientFamily:
    """Quadratic-cost gradient w B w^T with w = u O_minus, over Haar O_minus."""

    u: MeanVector
    b: np.ndarray

    name = "quadratic"

    def __post_init__(self):
        u = as_mean_vector(self.u)
        b = check_symmetric(self.b, "b")
        check_same_modes(u.m, modes_of(b, "b"), "state and b")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "b", b)

    def sample_gradients(self, size: int, rng: np.random.Generator) -> np.ndarray:
        w = uniform_sphere_batch(self.u.m, self.u.norm, size, rng)
        return ((w @ self.b) * w).sum(axis=1)


# -- chunked engine ---------------------------------------------------------


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
    if n_jobs <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, chunks))


def _estimate(family, n_samples, rng, n_jobs, use_abs: bool) -> MomentEstimate:
    _check_family(family)
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES}, got {n_samples}")
    source = as_source(rng)
    sum_x, sum_abs, sum_x2, sum_x4 = _moment_sums(family, n_samples, source, n_jobs)
    n = float(n_samples)
    mean = (sum_abs if use_abs else sum_x) / n
    second = sum_x2 / n
    var_mean = max(0.0, second - mean * mean)
    var_second = max(0.0, sum_x4 / n - second * second)
    return MomentEstimate(
        n_samples=n_samples,
        mean=mean,
        second_moment=second,
        std_error_mean=math.sqrt(var_mean / n),
        std_error_second=math.sqrt(var_second / n),
        seed=source.seed,
    )


def estimate_grad_moments(family, n_samples: int, rng, n_jobs: int = 1) -> MomentEstimate:
    """Signed-gradient moments: mean (centered at 0 by symmetry) and second moment."""
    return _estimate(family, n_samples, rng, n_jobs, use_abs=False)


def estimate_abs_grad(family, n_samples: int, rng, n_jobs: int = 1) -> MomentEstimate:
    """Moments of |dC|: mean is the expected gradient magnitude."""
    return _estimate(family, n_samples, rng, n_jobs, use_abs=True)

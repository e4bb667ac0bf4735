"""Trainability of random linear-optical circuits fed coherent light.

A coherent state on m modes is its phase-space mean vector, a real length-2m
array ``(q1, p1, ..., qm, pm)`` with ``q = (a + a*)/sqrt(2)``,
``p = (-i a + i a*)/sqrt(2)`` and intensity ``E = |u|^2 / 2``; the trainer,
its one consumer, checks it once.  Passive linear optics acts on it from the
right, ``u -> u T`` with T orthogonal, as a unitary on its complex mode
amplitudes ``z_j = q_j + i p_j``, and so preserves E.  On a
Haar-random circuit the state enters a gradient only through its intensity
E.  So the closed forms of the gradient moments (in log scale where they leave
the double range) take a gate and intensities, ``(gen, E0, E1)`` for the
overlap costs and ``(gen, E, ham)`` for the quadratic cost, and Monte Carlo
families that take the same arguments estimate them from a few sphere
coordinates per sample.  A regime classifier separates barren-plateau from
trainable intensity scalings, a gradient-descent trainer propagates vectors
through layered circuits, and a CLI writes each experiment as plot-ready
CSV/JSON with its config and seed.
"""

__version__ = "0.1.0"

from .linear_optics import (
    GeneratorPair,
    LayeredCircuit,
    make_generator,
    random_circuit,
)
from .sampling import RandomSource, uniform_sphere
from .special_functions import LogScaled, bessel_i
from .cost_functions import (
    QuadraticHamiltonian,
    attenuated_intensity,
    toy_log_abs_expectation,
)
from .closed_forms import (
    MomentInterval,
    RegimeVerdict,
    chebyshev_bound,
    classify_regime,
    fit_decay,
    heterodyne_prefactor,
    intensity_law,
    linear_intensity_rate,
    quadratic_second_moment,
    second_moment_interval,
    second_moment_point,
    xi_bounds,
)
from .estimators import (
    MeasurementGradientFamily,
    MomentEstimate,
    QuadraticGradientFamily,
    ToyGradientFamily,
    estimate_grad_moments,
)
from .trainer import NonFiniteCostError, TrainConfig, TrainRecord, train

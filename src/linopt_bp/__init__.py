"""Phase-space trainability analysis of random linear-optical circuits.

Coherent states on m modes are phase-space mean vectors; passive linear
optics acts on them through orthogonal (and symplectic) transfer matrices.
The package provides the cost families defined on such circuits and their
split-layer gradient kernels, closed-form predictions for the gradient
moments over Haar-random circuits, reproducible Monte Carlo estimators that
verify those predictions on sphere points, a regime classifier separating
barren-plateau from trainable intensity scalings, a gradient-descent trainer
that propagates vectors through the layers, and a CLI that emits plot-ready
CSV/JSON artifacts.
"""

__version__ = "0.1.0"

from .phase_space import MeanVector, intensity
from .linear_optics import (
    GeneratorPair,
    LayeredCircuit,
    make_generator,
    random_circuit,
)
from .sampling import RandomSource, haar_orthogonal, uniform_sphere
from .special_functions import LogScaled, bessel_i
from .cost_functions import (
    QuadraticHamiltonian,
    attenuated_intensity,
    toy_grad,
    toy_grad_abs_expectation,
)
from .closed_forms import (
    DecayFit,
    MomentInterval,
    RegimeVerdict,
    chebyshev_bound,
    classify_noise,
    classify_regime,
    fit_decay,
    fit_linear_rate,
    heterodyne_prefactor,
    intensity_law,
    linear_intensity_rate,
    quadratic_second_moment,
    second_moment_interval,
    second_moment_point,
    second_moment_prefactor,
    xi_bounds,
)
from .estimators import (
    CompilingGradientFamily,
    MeasurementGradientFamily,
    MomentEstimate,
    QuadraticGradientFamily,
    ToyGradientFamily,
    estimate_abs_grad,
    estimate_grad_moments,
)
from .trainer import NonFiniteCostError, TrainConfig, TrainRecord, train

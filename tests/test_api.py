"""The public surface of the package, pinned: every optional parameter, every
name ``linopt_bp`` exports, and the one rule every entry point applies to a mode count.

A new keyword option or export fails these tests until the lists below name it,
so it shows in review; removing one fails them too, so the lists stay current.
An optional parameter is one with a default in the ``inspect.signature`` of a
public function, class or method (classmethods and staticmethods included) of
any module of the package.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import linopt_bp
from linopt_bp import sampling

OPTIONAL_PARAMETERS = [
    "cli.main(argv)",
    "estimators.estimate_grad_moments(n_jobs)",
    "trainer.layer_gradients(hamiltonian)",
    "trainer.layer_gradients(target)",
    "trainer.train(hamiltonian)",
    "trainer.train(target)",
    "validation.as_square_matrix(dtype)",
]

EXPORTS = [
    "GeneratorPair",
    "LayeredCircuit",
    "LogScaled",
    "MeasurementGradientFamily",
    "MomentEstimate",
    "MomentInterval",
    "NonFiniteCostError",
    "QuadraticGradientFamily",
    "QuadraticHamiltonian",
    "RandomSource",
    "RegimeVerdict",
    "ToyGradientFamily",
    "TrainConfig",
    "TrainRecord",
    "attenuated_intensity",
    "bessel_i",
    "chebyshev_bound",
    "classify_regime",
    "estimate_grad_moments",
    "fit_decay",
    "heterodyne_prefactor",
    "intensity_law",
    "linear_intensity_rate",
    "make_generator",
    "quadratic_second_moment",
    "random_circuit",
    "second_moment_interval",
    "second_moment_point",
    "toy_log_abs_expectation",
    "train",
    "uniform_sphere",
    "xi_bounds",
]


def _public_callables(module):
    """(qualified name, callable) for each public function and class defined in the
    module, and each public method, classmethod or staticmethod of those classes."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, raw in sorted(vars(obj).items()):
                if not attr.startswith("_") and (inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))):
                    yield f"{name}.{attr}", getattr(obj, attr)


def _parameters(fn):
    try:
        return inspect.signature(fn).parameters.values()
    except ValueError:  # an exception class that keeps BaseException's builtin __init__
        assert issubclass(fn, BaseException), fn
        return ()


def optional_parameters() -> list:
    found = []
    for info in sorted(pkgutil.iter_modules(linopt_bp.__path__), key=lambda i: i.name):
        module = importlib.import_module(f"linopt_bp.{info.name}")
        for qual, fn in _public_callables(module):
            found += [f"{info.name}.{qual}({p.name})" for p in _parameters(fn)
                      if p.default is not inspect.Parameter.empty]
    return found


def test_public_optional_parameters_are_the_listed_ones():
    assert optional_parameters() == OPTIONAL_PARAMETERS


def test_package_exports_are_the_listed_ones():
    exported = sorted(name for name in vars(linopt_bp) if not name.startswith("_")
                      and not inspect.ismodule(getattr(linopt_bp, name)))
    assert exported == EXPORTS


@pytest.mark.parametrize("call", [
    lambda: linopt_bp.GeneratorPair(0, [], np.zeros((0, 0))),
    lambda: linopt_bp.make_generator("global-phase", (), 0),
    lambda: linopt_bp.random_circuit(0, 1, 0),
    lambda: sampling.haar_orthogonal_batch(0, 1, 0),
    lambda: sampling.haar_unitary_batch(0, 1, 0),
    lambda: sampling.uniform_sphere_batch(0, 1.0, 1, 0),
    lambda: linopt_bp.uniform_sphere(0, 1.0, 0),
    lambda: sampling.uniform_angles_batch(0, 1, 0),
    lambda: linopt_bp.ToyGradientFamily(0, 0.5),
    lambda: linopt_bp.toy_log_abs_expectation(0.5, 0),
    lambda: linopt_bp.heterodyne_prefactor(0, 1.0, 1.0),
], ids=["GeneratorPair", "make_generator", "random_circuit", "haar_orthogonal_batch", "haar_unitary_batch",
        "uniform_sphere_batch", "uniform_sphere", "uniform_angles_batch", "ToyGradientFamily",
        "toy_log_abs_expectation", "heterodyne_prefactor"])
def test_mode_count_rule_is_shared(call):
    with pytest.raises(ValueError, match=r"^mode count must be >= 1, got 0$"):
        call()

"""Gradient-descent training of layered circuits.

Constant-step descent on all layer parameters; a step that raises the cost is
rejected and the step size halved, at most ``MAX_BACKOFFS`` times per run.
Gradients come from adjoint (reverse-mode) propagation of vectors: a forward
pass keeps the row vectors ``v_l = u T_1 ... T_l``
(``T_l = exp(theta_l D_l) W_l``), a backward pass carries one column vector
from the output back through the layers, and each layer's gradient is a
bilinear form in the two: ``GeneratorPair.bilinear``, O(k^2) on the
generator's support (k = 2 or 4 for the local kinds), the kernel of the
Monte Carlo families too; the overlap family calls it through
``cost_functions.overlap_grad``.  A gate is applied as its k x k block on
the same support (the blocks of all layers come from one ``GateBlocks``), so
no 2m x 2m gate or generator matrix is formed.  A fixed layer ``W_l`` is its complex m x m unitary ``U``: the
forward pass maps the complex view ``z = q + i p`` of the row vector to
``z U``, and the backward pass maps the column vector ``g`` to ``conj(U) g``,
computed as ``conj(U conj(g))`` so that no conjugated copy of ``U`` is stored.

Each accepted step records its step size and the halvings that preceded it;
the CLI writes the records as its ``train`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cost_functions as cf
from .linear_optics import GateBlocks, LayeredCircuit
from .phase_space import MeanVector, as_mean_vector

COST_FAMILIES = ("compiling", "quadratic")
# From pi * 2^52 on, theta / pi has no fractional bits and adjacent doubles lie
# 2 rad or more apart, so the angle no longer determines a rotation.
MAX_ANGLE = math.pi * 2.0**52
MAX_BACKOFFS = 40  # step-size halvings allowed over one run


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    max_iters: int
    tol: float

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.lr}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True, eq=False)
class TrainRecord:
    """One accepted iterate: ``lr`` is the step size that reached it and
    ``backoffs`` the halvings rejected just before it (0 at iteration 0)."""

    iteration: int
    cost: float
    grad_norm: float
    theta: np.ndarray = field(repr=False)
    lr: float
    backoffs: int


class NonFiniteCostError(RuntimeError):
    """Cost or gradient became non-finite during training."""

    def __init__(self, iteration: int, theta: np.ndarray):
        super().__init__(
            f"non-finite cost or gradient at iteration {iteration}; "
            f"max |theta| = {np.abs(theta).max():.3e}"
        )
        self.iteration = iteration
        self.theta = np.array(theta, copy=True)


class _Objective:
    """Cost and per-layer analytic gradients for one circuit and input state."""

    def __init__(self, circuit: LayeredCircuit, family: str, u: MeanVector,
                 hamiltonian=None, target=None):
        if family not in COST_FAMILIES:
            raise ValueError(f"unknown cost family {family!r}; expected one of {COST_FAMILIES}")
        self.circuit = circuit
        self.family = family
        self.u = as_mean_vector(u)
        if self.u.m != circuit.m:
            raise ValueError(f"state has {self.u.m} modes but circuit acts on {circuit.m}")
        if family == "quadratic":
            if hamiltonian is None:
                raise ValueError("the quadratic family needs a Hamiltonian")
            self.ham = hamiltonian
        else:
            self.target = as_mean_vector(target) if target is not None else self.u
        self._gates = GateBlocks([layer.gen for layer in circuit.layers])

    def forward(self, theta) -> tuple:
        """(gates, states): the gate blocks and the row vectors ``u T_1 ... T_l``
        for l = 0..L, after validating ``theta``."""
        theta = self.circuit._check_theta(theta)
        if not np.all(np.isfinite(theta)):
            raise ValueError("non-finite circuit parameters")
        if np.abs(theta).max() >= MAX_ANGLE:
            raise ValueError(f"circuit parameters beyond {MAX_ANGLE:.3e} carry no angle")
        gates = self._gates.at(theta)
        states = [self.u.values]
        for layer, gate in zip(self.circuit.layers, gates):
            v = states[-1].copy()
            s = layer.gen.support
            v[s] = v[s].dot(gate)
            states.append(v.view(np.complex128).dot(layer.unitary).view(np.float64))
        return gates, states

    def evaluate(self, theta) -> tuple:
        """(cost, gradient vector over all layers) at the given parameters."""
        gates, states = self.forward(theta)
        w = states.pop()

        if self.family == "compiling":
            n = self.target.values
            diff = w - n
            cost = -math.expm1(-0.5 * float(diff @ diff))
            e_total = self.u.intensity() + self.target.intensity()
            g = n

            def kernel(y, gen, g):
                return cf.overlap_grad(y, gen, g, e_total)
        else:
            eta = self.ham.eta
            g = eta @ w
            cost = float(w @ g) + 0.5 * float(np.trace(eta))

            def kernel(y, gen, g):
                return 2.0 * gen.bilinear(y, g)
        layers = self.circuit.layers
        grads = np.empty(len(layers))
        for idx in range(len(layers) - 1, -1, -1):
            layer = layers[idx]
            # the column action of the fixed layer: conj(U) g = conj(U conj(g))
            g = layer.unitary.dot(g.view(np.complex128).conj()).conj().view(np.float64)
            s = layer.gen.support
            g[s] = gates[idx].dot(g[s])
            grads[idx] = kernel(states[idx], layer.gen, g)
        return cost, grads


def layer_gradients(circuit: LayeredCircuit, family: str, u: MeanVector,
                    hamiltonian=None, target=None) -> np.ndarray:
    """Analytic gradient of the chosen cost with respect to every layer parameter,
    at the circuit's current parameters."""
    objective = _Objective(circuit, family, u, hamiltonian, target)
    _, grads = objective.evaluate(circuit.theta)
    return grads


def train(circuit: LayeredCircuit, cost_family: str, u: MeanVector,
          config: TrainConfig, hamiltonian=None, target=None) -> list:
    """Gradient descent from the circuit's current parameters.

    Returns one TrainRecord per accepted iterate (including the starting
    point); stops when the gradient norm drops to ``config.tol`` or after
    ``config.max_iters`` steps.  Raises NonFiniteCostError if the cost or
    gradient leaves the representable range.
    """
    objective = _Objective(circuit, cost_family, u, hamiltonian, target)
    theta = np.array(circuit.theta, copy=True)
    cost, grads = _safe_evaluate(objective, theta, 0)
    lr = config.lr
    records = [TrainRecord(0, cost, float(np.linalg.norm(grads)), theta.copy(), lr, 0)]

    backoffs = 0
    step_backoffs = 0
    iteration = 0
    while iteration < config.max_iters and records[-1].grad_norm > config.tol:
        candidate = theta - lr * grads
        new_cost, new_grads = _safe_evaluate(objective, candidate, iteration + 1)
        if new_cost > cost and backoffs < MAX_BACKOFFS:
            lr *= 0.5
            backoffs += 1
            step_backoffs += 1
            continue
        theta, cost, grads = candidate, new_cost, new_grads
        iteration += 1
        records.append(TrainRecord(iteration, cost, float(np.linalg.norm(grads)),
                                   theta.copy(), lr, step_backoffs))
        step_backoffs = 0
    return records


def _safe_evaluate(objective, theta, iteration) -> tuple:
    try:
        cost, grads = objective.evaluate(theta)
    except (ValueError, FloatingPointError) as exc:
        raise NonFiniteCostError(iteration, theta) from exc
    if not np.isfinite(cost) or not np.all(np.isfinite(grads)):
        raise NonFiniteCostError(iteration, theta)
    return cost, grads

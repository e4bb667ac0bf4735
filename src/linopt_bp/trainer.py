"""Gradient-descent training of layered circuits.

Constant-step descent on all layer parameters; a step that raises the cost is
rejected and the step size halved, at most ``MAX_BACKOFFS`` times per run.
Gradients come from adjoint (reverse-mode) propagation of vectors, carried as
complex mode amplitudes ``z_j = q_j + i p_j`` (``linear_optics``' convention).
The forward pass keeps the rows ``z_l = u T_1 ... T_l``
(``T_l = exp(theta_l D_l) W_l``); the backward pass carries the conjugate
``h = conj(g)`` of the column vector ``g`` from the output back through the
layers and keeps it after each gate.  A gate acts as its complex block
``exp(theta dc)`` on its modes (``GateBlocks.at``, one spectral formula for
every generator), a fixed layer ``U`` as ``z U`` forward and ``U h``
backward, so neither a conjugated copy of U nor a 2m x 2m matrix is formed.
Each layer's gradient is a bilinear form ``y D b = Re(z dc h)`` in the two,
taken for all layers at once by ``GateBlocks.bilinear`` (O(k^2) per layer on
the generator's k modes, k = 1 or 2 for the local kinds).  The overlap
family's factor ``exp(-(E0+E1) + y . b)`` is the same on every layer, since
``y_l . b_l = w . n`` for the orthogonal circuit, so it is taken once.

Each accepted step records its step size and the halvings that preceded it;
the CLI writes the records as its ``train`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_functions import check_hamiltonian
from .linear_optics import GateBlocks, LayeredCircuit
from .validation import check_same_modes

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


def _state(values, m: int, name: str) -> np.ndarray:
    """A frozen float copy of ``values``, checked to be exactly 2m finite reals in one
    row: a (2, m) array of q's and p's would otherwise read as interleaved pairs."""
    arr = np.array(values, dtype=float)
    if arr.shape != (2 * m,):
        raise ValueError(f"{name} must be a vector of 2m = {2 * m} reals for the circuit's {m} modes, "
                         f"got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite")
    arr.flags.writeable = False
    return arr


class _Objective:
    """Cost and per-layer analytic gradients for one circuit and input state; the
    one place where the trainer's arguments are checked (``train``)."""

    def __init__(self, circuit: LayeredCircuit, family: str, u,
                 hamiltonian=None, target=None):
        if family not in COST_FAMILIES:
            raise ValueError(f"unknown cost family {family!r}; expected one of {COST_FAMILIES}")
        self.circuit = circuit
        self.family = family
        self.u = _state(u, circuit.m, "u")
        if family == "quadratic":
            if hamiltonian is None:
                raise ValueError("the quadratic family needs a Hamiltonian")
            if target is not None:
                raise ValueError("the quadratic family takes no target")
            self.ham = check_hamiltonian(hamiltonian, "hamiltonian")
            check_same_modes(self.ham.m, circuit.m, "hamiltonian and circuit")
        else:
            if hamiltonian is not None:
                raise ValueError("the compiling family takes no hamiltonian")
            self.target = self.u if target is None else _state(target, circuit.m, "target")
            self._e_total = float(self.u @ self.u) / 2 + float(self.target @ self.target) / 2
        self._gates = GateBlocks(circuit.gens)

    def forward(self, theta) -> tuple:
        """(gates, states): the complex gate blocks and the complex rows
        ``z_l = u T_1 ... T_l`` for l = 0..L, shape (L+1, m).  ``theta`` has one angle
        per layer, like the circuit's own parameters; it is checked here only for
        finite angles below ``MAX_ANGLE``, which a diverging run leaves."""
        if not np.all(np.isfinite(theta)):
            raise ValueError("non-finite circuit parameters")
        if np.abs(theta).max() >= MAX_ANGLE:
            raise ValueError(f"circuit parameters beyond {MAX_ANGLE:.3e} carry no angle")
        gates = self._gates.at(theta)
        states = np.empty((len(gates) + 1, self.circuit.m), dtype=np.complex128)
        states[0] = self.u.view(np.complex128)
        for l, (unitary, modes, gate) in enumerate(zip(self.circuit.unitaries, self._gates.modes, gates)):
            z = states[l].copy()
            z[modes] = z[modes].dot(gate)
            np.dot(z, unitary, out=states[l + 1])
        return gates, states

    def evaluate(self, theta) -> tuple:
        """(cost, gradient vector over all layers) at the given parameters."""
        gates, states = self.forward(theta)
        w = states[-1].view(np.float64)
        cols = np.empty_like(states)  # cols[l]: conj of the column after layer l's gate

        if self.family == "compiling":
            n = self.target
            diff = w - n
            cost = -math.expm1(-0.5 * float(diff @ diff))
            # y_l . b_l = w . n on every layer, since the circuit is orthogonal
            scale = -math.exp(-self._e_total + float(w @ n))
            g = n
        else:
            eta = self.ham.eta
            g = eta @ w
            cost = float(w @ g) + 0.5 * float(np.trace(eta))
            scale = 2.0
        np.conjugate(g.view(np.complex128), out=cols[-1])
        for l in range(len(gates) - 1, -1, -1):
            # the column action of the fixed layer, conj(U) g, is U h for h = conj(g)
            h = np.dot(self.circuit.unitaries[l], cols[l + 1], out=cols[l])
            modes = self._gates.modes[l]
            h[modes] = gates[l].dot(h[modes])
        return cost, scale * self._gates.bilinear(states, cols)


def layer_gradients(circuit: LayeredCircuit, family: str, u,
                    hamiltonian=None, target=None) -> np.ndarray:
    """Analytic gradient of the chosen cost with respect to every layer parameter,
    at the circuit's current parameters."""
    objective = _Objective(circuit, family, u, hamiltonian, target)
    _, grads = objective.evaluate(circuit.theta)
    return grads


def train(circuit: LayeredCircuit, cost_family: str, u,
          config: TrainConfig, hamiltonian=None, target=None) -> list:
    """Gradient descent from the circuit's current parameters.

    ``u`` is the input coherent state as a real length-2m array
    ``(q1, p1, ..., qm, pm)``.  The compiling family compares the output with
    ``target`` (the input itself by default) and takes no ``hamiltonian``; the
    quadratic family takes a ``QuadraticHamiltonian`` on the circuit's modes and
    no ``target``.  All are checked once, before any evaluation: ``u`` and
    ``target`` become frozen copies, each a vector of exactly 2m finite reals, and a
    bad argument raises a TypeError or ValueError naming it.

    Returns one TrainRecord per accepted iterate (including the starting
    point); stops when the gradient norm drops to ``config.tol`` or after
    ``config.max_iters`` steps.  Raises NonFiniteCostError if the cost or
    gradient leaves the representable range.
    """
    objective = _Objective(circuit, cost_family, u, hamiltonian, target)
    theta = circuit.theta
    cost, grads = _safe_evaluate(objective, theta, 0)
    lr = config.lr
    records = [TrainRecord(0, cost, float(np.linalg.norm(grads)), lr, 0)]

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
        records.append(TrainRecord(iteration, cost, float(np.linalg.norm(grads)), lr, step_backoffs))
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

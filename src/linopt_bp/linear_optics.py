"""Generators, gate exponentials and layered circuits of passive linear optics.

A parameterized gate is specified by a symmetric matrix ``eps`` through the
quadratic Hamiltonian ``R eps R^T`` (with ``R = (q1, p1, ..., qm, pm)``).  Its
Heisenberg action on the mean vector is ``u -> u exp(theta D)`` with

    D = -2 eps Delta,

where ``Delta`` is the symplectic form; ``D`` is skew-symmetric exactly when
``eps`` commutes with ``Delta`` (an energy-conserving generator), and then
``exp(theta D)`` is simultaneously orthogonal and symplectic.  The sign is
pinned by the phase-shifter convention: ``exp(-i theta a* a)`` sends a
coherent amplitude ``alpha`` to ``exp(-i theta) alpha``, i.e. the single-mode
transfer matrix is ``[[cos t, -sin t], [sin t, cos t]]``.

A depth-L circuit alternates parameterized gates with fixed passive layers
``W_l``; its total transfer matrix composes left to right in layer order,

    T(theta) = prod_l exp(theta_l D_l) W_l,

and ``split_action(k)`` splits it at layer k as ``T = O_minus O_plus`` with
``O_minus`` covering layers 1..k-1.

A fixed layer is a unitary ``U`` in U(m), stored as its complex m x m matrix.
With ``z_j = q_j + i p_j`` the interleaved mean vector is a complex m-vector
(``v.view(np.complex128)``), and the layer acts as ``z -> z U``.  The real
2m x 2m matrix of that action, ``embed_unitary(U)``, has the 2 x 2 block
``[[Re U_jk, Im U_jk], [-Im U_jk, Re U_jk]]`` at mode pair (j, k); it commutes
with ``Delta`` and is orthogonal exactly when ``U`` is unitary, so it is
orthogonal and symplectic.  The gates are complex-linear in the same
convention (a phase-shifter multiplies ``z_j`` by ``exp(-i theta)``).

A generator acts only on its support, the coordinates of the modes it
touches: 2 for a phase-shifter, 4 for the two-mode kinds, all 2m for the
global phase.  ``GeneratorPair`` stores only its k x k blocks there; every
gradient's y D b and the gate ``exp(theta D)`` (the identity off the
support) cost O(k^2) per vector.  The block is evaluated in closed form
whenever ``D^3 = -D``, which holds exactly for all four standard kinds
(``D`` has eigenvalues 0 and +-i only).  Then Rodrigues' formula gives

    exp(theta D) = I + sin(theta) D + (1 - cos(theta)) D^2

on the block.  Any other generator falls back to ``scipy.linalg.expm`` of
the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .sampling import haar_unitary_batch
from .validation import as_square_matrix, check_mode_index, check_symmetric, check_unitary, modes_of

GENERATOR_KINDS = ("phase-shifter", "two-mode-phase", "beamsplitter", "global-phase")


def symplectic_form(m: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    out = np.zeros((2 * m, 2 * m))
    q = np.arange(0, 2 * m, 2)
    out[q, q + 1] = 1.0
    out[q + 1, q] = -1.0
    return out


def times_symplectic_form(a) -> np.ndarray:
    """``a @ symplectic_form(m)`` for a (n, 2m) array, as a signed column swap."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    out[:, 0::2] = -a[:, 1::2]
    out[:, 1::2] = a[:, 0::2]
    return out


@dataclass(frozen=True, eq=False)
class GeneratorPair:
    """A parameterized gate, stored only as its generator block on its support.

    ``support`` lists the coordinates ``2j, 2j + 1`` of each mode j the gate
    touches, ascending, and ``eps_s`` is the Hamiltonian matrix there.  Checked
    once, on construction: ``eps_s`` fits the support, is symmetric and commutes
    with the symplectic form.  Also stored: ``d_s = -2 eps_s Delta``, its square
    ``d2_s`` and whether ``D^3 = -D`` (``rodrigues``, the closed form in ``block``).
    """

    m: int
    support: np.ndarray
    eps_s: np.ndarray
    label: str = "custom"
    d_s: np.ndarray = field(init=False, repr=False)
    d2_s: np.ndarray = field(init=False, repr=False)
    rodrigues: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
        if self.m < 1:
            raise ValueError(f"mode count must be >= 1, got {self.m}")
        s = np.asarray(self.support)
        if not (s.ndim == 1 and s.size % 2 == 0 and np.all(np.diff(s) > 0)
                and np.array_equal(s, _coordinates(s[0::2] // 2)) and np.all((s >= 0) & (s < 2 * self.m))):
            raise ValueError(f"support must be whole mode pairs (2j, 2j+1), ascending, "
                             f"inside the {2 * self.m} coordinates; got {s.tolist()}")
        support = _coordinates(s[0::2] // 2)
        eps_s = np.array(self.eps_s, dtype=float)  # a copy, frozen below
        if eps_s.shape != (support.size, support.size):
            raise ValueError(f"eps_s has shape {eps_s.shape} but the support has {support.size} coordinates")
        d_s = -2.0 * times_symplectic_form(check_symmetric(eps_s, "eps"))
        if np.abs(d_s + d_s.T).max(initial=0.0) > 1e-10:
            raise ValueError("eps does not commute with the symplectic form; the gate would not conserve energy")
        d2_s = d_s @ d_s
        for name, arr in (("support", support), ("eps_s", eps_s), ("d_s", d_s), ("d2_s", d2_s)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # d vanishes off the support, so D^3 = -D holds iff it holds on the block
        object.__setattr__(self, "rodrigues", bool(np.abs(d_s @ d2_s + d_s).max(initial=0.0) <= 1e-12))

    @classmethod
    def from_symmetric(cls, eps, label: str = "custom") -> "GeneratorPair":
        """The pair of a dense eps; its support covers every nonzero row and column of eps."""
        eps = as_square_matrix(eps, "eps")
        m = modes_of(eps, "eps")
        nonzero = eps != 0.0
        modes = np.flatnonzero((nonzero.any(axis=0) | nonzero.any(axis=1)).reshape(m, 2).any(axis=1))
        support = _coordinates(modes)
        return cls(m, support, eps[np.ix_(support, support)], label)

    @property
    def d(self) -> np.ndarray:
        """Dense 2m x 2m ``D = -2 eps Delta``, formed on each access."""
        return -2.0 * times_symplectic_form(self.eps)

    @property
    def eps(self) -> np.ndarray:
        """Dense 2m x 2m Hamiltonian matrix, formed on each access."""
        out = np.zeros((2 * self.m, 2 * self.m))
        out[np.ix_(self.support, self.support)] = self.eps_s
        return out

    def bilinear(self, y, b):
        """y D b^T, the one place it is formed: for rows y, b of length 2m (a float)
        or row by row for (n, 2m) batches (a length-n array); O(k^2) per row."""
        # a full support (global phase) is read as a view, not copied
        s = slice(None) if self.support.size == 2 * self.m else self.support
        if y.ndim == 1:
            return float(y[s].dot(self.d_s).dot(b[s]))
        out = y[:, s] @ self.d_s
        out *= b[:, s]  # in place: one (n, k) temporary, not two
        return out.sum(axis=1)

    def block(self, theta: float) -> np.ndarray:
        """exp(theta D) on ``support``; the gate is the identity everywhere else.

        Rodrigues' formula ``I + sin(theta) D + (1 - cos(theta)) D^2`` when
        ``D^3 = -D`` (every standard kind), ``expm`` otherwise.
        """
        k = self.support.size
        if theta == 0.0:
            return np.eye(k)
        if not self.rodrigues:
            from scipy.linalg import expm  # only custom generators need it

            return expm(theta * self.d_s)
        out = math.sin(theta) * self.d_s
        out += 2.0 * math.sin(0.5 * theta) ** 2 * self.d2_s  # 1 - cos(theta), without cancellation
        out.flat[:: k + 1] += 1.0
        return out


def check_generator(gen) -> GeneratorPair:
    """``gen`` if it is a GeneratorPair; a TypeError for anything else, such as a bare matrix."""
    if not isinstance(gen, GeneratorPair):
        raise TypeError(f"expected a GeneratorPair, got {type(gen).__name__}")
    return gen


def _coordinates(modes) -> np.ndarray:
    """Phase-space coordinates (2j, 2j + 1) of each mode j, in the given order."""
    return (2 * np.asarray(modes, dtype=np.intp)[:, None] + np.arange(2)).reshape(-1)


def make_generator(kind: str, modes: Sequence[int], m: int) -> GeneratorPair:
    """Standard gate generators embedded in an m-mode register.

    kinds:
      phase-shifter(j)     eps has a +1/2 identity block on mode j
      two-mode-phase(i,j)  +1/2 block on mode i, -1/2 block on mode j
      beamsplitter(i,j)    mixing generator q_j p_i - q_i p_j
      global-phase         +1/2 identity on every mode (equal column norms)
    """
    modes = tuple(int(j) for j in modes)
    if kind == "phase-shifter":
        if len(modes) != 1:
            raise ValueError("phase-shifter takes exactly one mode index")
        (j,) = modes
        check_mode_index(j, m)
        eps_s = 0.5 * np.eye(2)
        label = f"phase-shifter({j})"
    elif kind in ("two-mode-phase", "beamsplitter"):
        if len(modes) != 2:
            raise ValueError("two-mode gates take exactly two mode indices")
        i, j = (check_mode_index(k, m) for k in modes)
        if i == j:
            raise ValueError(f"mode indices must be distinct, got ({i}, {j})")
        # the block on (q_i, p_i, q_j, p_j), reordered to ascending modes
        if kind == "two-mode-phase":
            eps_s = np.kron(np.diag([0.5, -0.5]), np.eye(2))
        else:
            eps_s = 0.5 * np.array([[0.0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        order = [0, 1, 2, 3] if i < j else [2, 3, 0, 1]
        eps_s = eps_s[np.ix_(order, order)]
        label = f"{kind}({i},{j})"
    elif kind == "global-phase":
        if modes:
            raise ValueError("global-phase takes no mode indices")
        modes = range(m)
        eps_s = 0.5 * np.eye(2 * m)
        label = "global-phase"
    else:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    return GeneratorPair(m, _coordinates(sorted(modes)), eps_s, label)


class GateBlocks:
    """The gate blocks of a fixed sequence of generators, evaluated together.

    ``at(theta)`` equals ``[gen.block(t) for gen, t in zip(gens, theta)]``.
    The Rodrigues blocks of all generators with the same support size come
    from one batched product of the coefficients ``(1, sin t, 1 - cos t)``
    with the stacked ``(I, d_s, d2_s)``; custom generators use ``block``.
    """

    def __init__(self, gens: Sequence[GeneratorPair]):
        self._gens = tuple(gens)
        by_size = {}
        for i, gen in enumerate(self._gens):
            if gen.rodrigues:
                by_size.setdefault(gen.support.size, []).append(i)
        # the Rodrigues generators ordered by support size; _slot[i] is the
        # position of generator i in that order (None for a custom generator)
        order = [i for idx in by_size.values() for i in idx]
        self._order = np.array(order, dtype=np.intp)
        self._slot = [None] * len(self._gens)
        for j, i in enumerate(order):
            self._slot[i] = j
        self._stacks = []
        for k, idx in by_size.items():
            eye = np.eye(k).ravel()
            basis = np.stack([
                np.stack((eye, self._gens[i].d_s.ravel(), self._gens[i].d2_s.ravel()))
                for i in idx
            ])
            self._stacks.append((k, basis))

    def at(self, theta) -> list:
        theta = np.asarray(theta, dtype=float)
        t = theta[self._order]
        coef = np.empty((t.size, 1, 3))
        coef[:, 0, 0] = 1.0
        coef[:, 0, 1] = np.sin(t)
        coef[:, 0, 2] = 2.0 * np.sin(0.5 * t) ** 2  # 1 - cos(t), without cancellation
        stacked = []
        for k, basis in self._stacks:
            start = len(stacked)
            stacked.extend(np.matmul(coef[start : start + len(basis)], basis).reshape(-1, k, k))
        return [gen.block(float(x)) if j is None else stacked[j]
                for j, gen, x in zip(self._slot, self._gens, theta)]


def gate_action(gen: GeneratorPair, theta: float) -> np.ndarray:
    """Transfer matrix exp(theta D) of one gate; orthogonal for all theta.

    The 2m x 2m identity with ``gen.block(theta)`` on the generator's support.
    This is the one place a full gate matrix is formed (``Layer.transfer``
    and the split actions use it); the trainer applies the block directly.
    """
    out = np.eye(2 * gen.m)
    out[np.ix_(gen.support, gen.support)] = gen.block(float(theta))
    return out


def embed_unitary(u) -> np.ndarray:
    """Real 2m x 2m matrix of ``z -> z u`` on interleaved (q, p) row vectors.

    Mode pair (j, k) gets the block ``[[Re u_jk, Im u_jk], [-Im u_jk, Re u_jk]]``,
    so ``v @ embed_unitary(u)`` equals ``(v.view(complex) @ u).view(float)``.
    """
    u = np.asarray(u, dtype=np.complex128)
    m = u.shape[0]
    out = np.empty((m, 2, m, 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = u.real
    out[:, 0, :, 1] = u.imag
    out[:, 1, :, 0] = -u.imag
    return out.reshape(2 * m, 2 * m)


@dataclass(frozen=True, eq=False)
class Layer:
    """A parameterized gate followed by a fixed passive layer.

    ``unitary`` is the fixed layer as an m x m complex unitary, checked once
    here; it acts on the complex mean vector as ``z -> z unitary``.
    """

    gen: GeneratorPair
    unitary: np.ndarray

    def __post_init__(self):
        unitary = check_unitary(self.unitary, "fixed layer")
        if unitary.shape[0] != self.gen.m:
            raise ValueError(
                f"fixed layer is {unitary.shape[0]} x {unitary.shape[0]} "
                f"but the gate generator acts on {self.gen.m} modes"
            )
        unitary.flags.writeable = False
        object.__setattr__(self, "unitary", unitary)

    def transfer(self, theta: float) -> np.ndarray:
        return gate_action(self.gen, theta) @ embed_unitary(self.unitary)


class LayeredCircuit:
    """Alternating parameterized gates and fixed passive layers.

    Immutable after construction; evaluation methods are read-only, so one
    circuit can be evaluated concurrently at different parameter vectors.
    The split layer is an argument of ``split_action``, not circuit state.
    """

    def __init__(self, layers: Sequence, theta):
        built = []
        for entry in layers:
            layer = entry if isinstance(entry, Layer) else Layer(*entry)
            built.append(layer)
        if not built:
            raise ValueError("a circuit needs at least one layer")
        m = built[0].gen.m
        if any(layer.gen.m != m for layer in built):
            raise ValueError("all layers must act on the same number of modes")
        theta = np.array(theta, dtype=float, copy=True).reshape(-1)
        if theta.size != len(built):
            raise ValueError(
                f"theta length {theta.size} does not match depth {len(built)}"
            )
        theta.flags.writeable = False
        self._layers = tuple(built)
        self._theta = theta
        self._m = m

    @property
    def layers(self) -> tuple:
        return self._layers

    @property
    def theta(self) -> np.ndarray:
        return self._theta

    @property
    def depth(self) -> int:
        return len(self._layers)

    @property
    def m(self) -> int:
        return self._m

    def with_theta(self, theta) -> "LayeredCircuit":
        return LayeredCircuit(self._layers, theta)

    def _check_theta(self, theta) -> np.ndarray:
        if theta is None:
            return self._theta
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.depth:
            raise ValueError(f"theta length {theta.size} does not match depth {self.depth}")
        return theta

    def layer_transfers(self, theta=None) -> list:
        theta = self._check_theta(theta)
        return [layer.transfer(t) for layer, t in zip(self._layers, theta)]

    def orthogonal_action(self, theta=None) -> np.ndarray:
        """Full transfer matrix of the circuit (layers composed in order)."""
        out = np.eye(2 * self._m)
        for transfer in self.layer_transfers(theta):
            out = out @ transfer
        return out

    def split_action(self, split: int, theta=None) -> tuple:
        """(O_minus, O_plus): the layers before layer ``split`` (1-based), and from it on."""
        if not 1 <= split <= self.depth:
            raise ValueError(f"split layer {split} out of range 1..{self.depth}")
        transfers = self.layer_transfers(theta)
        o_minus = np.eye(2 * self._m)
        for t in transfers[: split - 1]:
            o_minus = o_minus @ t
        o_plus = np.eye(2 * self._m)
        for t in transfers[split - 1 :]:
            o_plus = o_plus @ t
        return o_minus, o_plus


def random_circuit(m: int, depth: int, rng) -> "LayeredCircuit":
    """A circuit with a beamsplitter/phase-shifter gate cycle and random fixed layers.

    Gate pattern: even layers are beamsplitters on adjacent mode pairs, odd
    layers single-mode phase shifters (plain phase shifters throughout when
    m = 1).  Fixed layers are Haar draws from U(m), all taken in one batch
    and frozen at construction.  All parameters start at zero.
    """
    if not isinstance(rng, np.random.Generator):
        from .sampling import as_source

        rng = as_source(rng).generator()
    layers = []
    for idx, unitary in enumerate(haar_unitary_batch(m, depth, rng)):
        if m == 1:
            gen = make_generator("phase-shifter", (0,), m)
        elif idx % 2 == 0:
            i = (idx // 2) % m
            gen = make_generator("beamsplitter", (i, (i + 1) % m), m)
        else:
            gen = make_generator("phase-shifter", ((idx // 2) % m,), m)
        layers.append(Layer(gen, unitary))
    return LayeredCircuit(layers, np.zeros(depth))

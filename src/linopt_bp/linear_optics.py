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

and splitting it at layer k as ``T = O_minus O_plus`` (``O_minus`` covering
layers 1..k-1) gives the split-layer gradients.  No such matrix is formed
here: the trainer propagates the vectors ``u O_minus`` and ``O_plus n^T``.

A fixed layer is a unitary ``U`` in U(m), stored as its complex m x m matrix.
With ``z_j = q_j + i p_j`` the interleaved mean vector is a complex m-vector
(``v.view(np.complex128)``), and the layer acts as ``z -> z U``.  The real
2m x 2m matrix of that action, ``embed_unitary(U)``, has the 2 x 2 block
``[[Re U_jk, Im U_jk], [-Im U_jk, Re U_jk]]`` at mode pair (j, k); it commutes
with ``Delta`` and is orthogonal exactly when ``U`` is unitary, so it is
orthogonal and symplectic.  The gates are complex-linear in the same
convention, because every generator commutes with ``Delta``: a gate on k
modes is the embedding of a complex k x k block (a phase-shifter multiplies
``z_j`` by ``exp(-i theta)``), and the trainer applies it as that block
(``GateBlocks``).

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
    with the symplectic form to 1e-10.  The stored ``eps_s`` is then its commuting
    part ``(eps_s + Delta^T eps_s Delta) / 2``, the part the trainer's complex
    blocks represent; an ``eps_s`` that commutes exactly is kept bit for bit.
    Also stored: ``d_s = -2 eps_s Delta``, its square ``d2_s`` and whether
    ``D^3 = -D`` (``rodrigues``, the closed form in ``block``).
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
        # Delta^T eps_s Delta by two signed column swaps, exact; an eps_s equal to it
        # is kept as given, signed zeros included
        conjugated = times_symplectic_form(times_symplectic_form(eps_s).T).T
        if not np.array_equal(conjugated, eps_s):
            eps_s = 0.5 * (eps_s + conjugated)
            d_s = -2.0 * times_symplectic_form(eps_s)
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
    """The gates of a fixed sequence of generators as complex blocks, evaluated together.

    Every generator commutes with Delta, so its gate and ``D`` are complex-linear
    on the modes of the support: the real block is the embedding (``embed_unitary``'s
    convention) of the complex k x k block ``Gc[a, b] = G[2a, 2b] + i G[2a, 2b+1]``,
    k the number of modes.  ``at(theta)`` gives these blocks for all generators;
    the blocks of all generators with the same k come from one batched product of
    the coefficients ``(1, sin t, 1 - cos t)`` with the stacked ``(I, Dc, Dc^2)``
    (Rodrigues' formula holds on the complex block, since ``Dc^3 = -Dc`` exactly
    when ``D^3 = -D``); a custom generator's block is converted from ``block``.
    ``modes[l]`` indexes the modes of generator l in a complex m-vector.
    """

    def __init__(self, gens: Sequence[GeneratorPair]):
        self._gens = tuple(gens)
        self._custom = [i for i, gen in enumerate(self._gens) if not gen.rodrigues]
        by_size = {}
        for i, gen in enumerate(self._gens):
            by_size.setdefault(gen.support.size // 2, []).append(i)
        # the generators ordered by support size; per size, its slice of that
        # order, the generators as a column (n, 1), their modes (n, k), Dc (n, k, k)
        # and the stacked (I, Dc, Dc^2) as real (n, 3, 2 k^2), so one real
        # product gives the blocks
        self._order = np.array([i for idx in by_size.values() for i in idx], dtype=np.intp)
        self.modes = [None] * len(self._gens)
        self._groups = []
        start = 0
        for k, idx in by_size.items():
            part = slice(start, start + len(idx))
            modes = np.stack([self._gens[i].support[0::2] for i in idx]) // 2
            dc = _complex_block(np.stack([self._gens[i].d_s for i in idx]))
            basis = np.stack((np.broadcast_to(np.eye(k), dc.shape), dc, dc @ dc), axis=1)
            self._groups.append((part, self._order[part, None], modes, dc,
                                 basis.reshape(len(idx), 3, k * k).view(np.float64)))
            for i, row in zip(idx, modes):
                self.modes[i] = row
            start = part.stop

    def at(self, theta) -> list:
        """The complex gate block of every generator at its angle in ``theta``."""
        theta = np.asarray(theta, dtype=float)
        t = theta[self._order]
        coef = np.empty((t.size, 1, 3))
        coef[:, 0, 0] = 1.0
        coef[:, 0, 1] = np.sin(t)
        coef[:, 0, 2] = 2.0 * np.sin(0.5 * t) ** 2  # 1 - cos(t), without cancellation
        stacked = []
        for part, _, modes, _, basis in self._groups:
            k = modes.shape[1]
            stacked.extend(np.matmul(coef[part], basis).view(np.complex128).reshape(-1, k, k))
        blocks = [None] * len(self._gens)
        for i, block in zip(self._order, stacked):
            blocks[i] = block
        for i in self._custom:
            blocks[i] = _complex_block(self._gens[i].block(float(theta[i])))
        return blocks

    def bilinear(self, rows, cols) -> np.ndarray:
        """``Re(rows[l] Dc_l cols[l])`` for every generator l, one gathered product per
        support size; with ``rows[l]`` the complex view of y and ``cols[l]`` that of
        b conjugated, it equals ``gen.bilinear(y, b)``."""
        out = np.empty(len(self._gens))
        for _, layers, modes, dc, _ in self._groups:
            out[layers[:, 0]] = np.einsum("nj,njk,nk->n", rows[layers, modes], dc, cols[layers, modes]).real
        return out


def _complex_block(block) -> np.ndarray:
    """The complex k x k matrix whose embedding is the complex-linear real 2k x 2k
    ``block``; a stack of blocks (n, 2k, 2k) gives the stack (n, k, k)."""
    return block[..., 0::2, 0::2] + 1j * block[..., 0::2, 1::2]


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


class LayeredCircuit:
    """Alternating parameterized gates and fixed passive layers.

    Immutable after construction, so one circuit can be evaluated
    concurrently at different parameter vectors.
    """

    def __init__(self, layers: Sequence[Layer], theta):
        built = tuple(layers)
        if not built:
            raise ValueError("a circuit needs at least one layer")
        m = built[0].gen.m
        if any(layer.gen.m != m for layer in built):
            raise ValueError("all layers must act on the same number of modes")
        self._layers = built
        self._m = m
        self._theta = np.array(self._check_theta(theta))  # a copy, frozen below
        self._theta.flags.writeable = False

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
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.depth:
            raise ValueError(f"theta length {theta.size} does not match depth {self.depth}")
        return theta


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

"""Generators, gate exponentials and layered circuits of passive linear optics.

A parameterized gate acts on the mean vector as ``u -> u exp(theta D)``.  With
``z_j = q_j + i p_j`` the mean vector is a complex m-vector (``v.view(np.complex128)``),
and an energy-conserving ``D`` is complex-linear: the embedding of a skew-Hermitian
k x k block ``dc`` on the k modes the gate touches, which ``GeneratorPair`` takes
and stores (a phase-shifter has ``dc = -i``).  A Hamiltonian ``R eps R^T``
(``R = (q1, p1, ..., qm, pm)``) enters through ``GeneratorPair.from_symmetric``, by

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

A fixed layer is a unitary ``U`` in U(m) acting as ``z -> z U``; a circuit
holds its generators and one (L, m, m) stack of them.  On the real coordinates
the same action is the 2m x 2m matrix with the 2 x 2 block
``[[Re U_jk, Im U_jk], [-Im U_jk, Re U_jk]]`` at mode pair (j, k), which commutes
with ``Delta`` and is orthogonal exactly when ``U`` is unitary; no code here
forms it, nor the dense 2m x 2m ``D`` or ``eps`` of a generator.  With the
eigendecomposition ``0.5i dc = sum_j lambda_j P_j``, every gate is the identity
off its modes and

    exp(theta dc) = I + sum_j (exp(i phi_j) - 1) P_j,    phi_j = -2 theta lambda_j,

with ``exp(i phi) - 1 = i sin(phi) - 2 sin(phi / 2)^2``: exactly I at theta = 0
(``GateBlocks``).  Every gradient of the package comes down to the bilinear
form ``y D b^T = Re(z dc c)`` on the gate's modes, z the complex view of y and
c that of b conjugated; ``bilinear`` is its one implementation, for the
trainer and the Monte Carlo families alike.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .sampling import haar_unitary_batch
from .validation import as_square_matrix, check_mode_count, check_symmetric, check_unitary, modes_of

GENERATOR_KINDS = ("phase-shifter", "two-mode-phase", "beamsplitter", "global-phase")


@dataclass(frozen=True, eq=False, init=False)
class GeneratorPair:
    """A parameterized gate, stored as the complex block ``dc`` of its generator on ``modes``.

    Checked once: ``modes`` is one or more modes, ascending, distinct and inside
    the m modes, and ``dc`` is k x k for its k modes and skew-Hermitian to 1e-10,
    which for a complex-linear D is energy conservation.  Stored, read-only: the
    modes and the exactly skew-Hermitian part of ``dc``.  A real Hamiltonian block
    enters through ``from_symmetric``.
    """

    m: int
    modes: np.ndarray
    dc: np.ndarray = field(repr=False)

    def __init__(self, m: int, modes, dc):
        m = check_mode_count(int(m))
        given = np.asarray(modes)
        if given.size == 0:
            raise ValueError("modes is empty: a gate that acts on no mode has a zero gradient")
        if not (given.ndim == 1 and np.issubdtype(given.dtype, np.integer) and np.all(np.diff(given) > 0)
                and np.all((given >= 0) & (given < m))):
            # an object array keeps each index as given: (-1, 2**63) would read as floats
            raise ValueError(f"modes must be ascending, distinct and inside the {m} modes; "
                             f"got {np.asarray(modes, dtype=object).tolist()}")
        modes = np.array(given, dtype=np.intp)
        dc = np.asarray(dc, dtype=np.complex128)
        if dc.shape != (modes.size, modes.size):
            raise ValueError(f"dc has shape {dc.shape} but the gate has {modes.size} modes")
        dev = float(np.abs(dc + dc.conj().T).max(initial=0.0))
        if not dev <= 1e-10:
            raise ValueError(f"dc is not skew-Hermitian (max |dc + dc^H| = {dev:.3e} > 1e-10); "
                             "the gate would not conserve energy")
        dc = 0.5 * (dc - dc.conj().T)
        modes.flags.writeable = dc.flags.writeable = False
        for name, value in (("m", m), ("modes", modes), ("dc", dc)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_symmetric(cls, eps) -> "GeneratorPair":
        """The pair of a dense symmetric eps, on the modes of its nonzero rows and columns.

        Checked: eps is symmetric and commutes with the symplectic form, both to 1e-10.
        With p, q, r, s the entries (2a, 2b), (2a, 2b+1), (2a+1, 2b), (2a+1, 2b+1) of
        the symmetric part of eps for modes a, b, ``dc = (q - r) - i (p + s)``, which
        projects a nearly commuting eps onto its commuting part.
        """
        eps = as_square_matrix(eps, "eps")
        m = modes_of(eps, "eps")
        nonzero = eps != 0.0
        modes = np.flatnonzero((nonzero.any(axis=0) | nonzero.any(axis=1)).reshape(m, 2).any(axis=1))
        support = _coordinates(modes)
        eps_s = eps[np.ix_(support, support)]
        eps_s = 0.5 * (eps_s + check_symmetric(eps_s, "eps").T)  # exactly symmetric: dc is skew-Hermitian
        p, q, r, s = eps_s[0::2, 0::2], eps_s[0::2, 1::2], eps_s[1::2, 0::2], eps_s[1::2, 1::2]
        # D + D^T = -2 [eps, Delta] has the 2 x 2 blocks 2 [[q + r, s - p], [s - p, -(q + r)]]
        if 2.0 * max(np.abs(q + r).max(initial=0.0), np.abs(p - s).max(initial=0.0)) > 1e-10:
            raise ValueError("eps does not commute with the symplectic form; the gate would not conserve energy")
        return cls(m, modes, (q - r) - 1j * (p + s))

    @property
    def support(self) -> np.ndarray:
        """The coordinates ``2j, 2j + 1`` of each mode j in ``modes``."""
        return _coordinates(self.modes)


def bilinear(z, dc, c) -> np.ndarray:
    """``Re(z dc c)`` over the last axis: y D b^T, where z is the complex view of y
    and c that of b conjugated, both on the gate's k modes.

    An entry v = dc[i, j] adds ``Re(v) (q_i q'_j + p_i p'_j) + Im(v) (q_i p'_j - p_i q'_j)``,
    with (q, p) the columns of y and (q', p') those of b.  ``dc`` is one k x k block
    for every row, applied as one matrix product ``z @ dc``, or a stack of blocks,
    one per row, contracted by one einsum (a stacked matmul loops over tiny products).
    """
    if dc.ndim == 2:
        return np.einsum("...k,...k->...", z @ dc, c).real
    return np.einsum("...j,...jk,...k->...", z, dc, c).real


def check_generator(gen) -> GeneratorPair:
    """``gen`` if it is a GeneratorPair; a TypeError for anything else, such as a bare matrix."""
    if not isinstance(gen, GeneratorPair):
        raise TypeError(f"expected a GeneratorPair, got {type(gen).__name__}")
    return gen


def _coordinates(modes) -> np.ndarray:
    """Phase-space coordinates (2j, 2j + 1) of each mode j, in the given order."""
    return (2 * np.asarray(modes, dtype=np.intp)[:, None] + np.arange(2)).reshape(-1)


def make_generator(kind: str, modes: Sequence[int], m: int) -> GeneratorPair:
    """Standard gate generators embedded in an m-mode register, as literal blocks dc.

    kinds:
      phase-shifter(j)     -i on mode j (eps has a +1/2 identity block on mode j)
      two-mode-phase(i,j)  diag(-i, i) on (i, j) (+1/2 block on mode i, -1/2 on mode j)
      beamsplitter(i,j)    [[0, -1], [1, 0]] on (i, j) (mixing generator q_j p_i - q_i p_j)
      global-phase         -i I on every mode (equal column norms)

    A two-mode block is written for i < j and reversed when i > j.  The modes
    are checked by ``GeneratorPair``, the one check of a gate's modes.
    """
    modes = tuple(int(j) for j in modes)
    if kind == "phase-shifter":
        if len(modes) != 1:
            raise ValueError("phase-shifter takes exactly one mode index")
        dc = [[-1j]]
    elif kind in ("two-mode-phase", "beamsplitter"):
        if len(modes) != 2:
            raise ValueError("two-mode gates take exactly two mode indices")
        dc = np.array([[-1j, 0], [0, 1j]] if kind == "two-mode-phase" else [[0, -1], [1, 0]], dtype=np.complex128)
        if modes[0] > modes[1]:
            dc = dc[::-1, ::-1]
    elif kind == "global-phase":
        if modes:
            raise ValueError("global-phase takes no mode indices")
        modes = range(m)
        dc = -1j * np.eye(m)
    else:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    return GeneratorPair(m, sorted(modes), dc)


class GateBlocks:
    """The gates of a fixed sequence of generators as complex blocks, evaluated together.

    Per support size k, one batched ``eigh`` of the stacked Hermitian ``0.5i dc``
    gives the eigenvalues ``lambda`` and eigenvectors ``V`` of every generator;
    ``at(theta)`` then forms each block as ``I + V diag(exp(i phi) - 1) V^H``,
    ``phi = -2 theta lambda``, one batched product per size.  ``modes[l]`` indexes
    the modes of generator l in a complex m-vector.
    """

    def __init__(self, gens: Sequence[GeneratorPair]):
        gens = tuple(gens)
        self.modes = [gen.modes for gen in gens]
        by_size = {}
        for i, gen in enumerate(gens):
            by_size.setdefault(gen.modes.size, []).append(i)
        # per support size: the generators as a list and as a column (n, 1), their modes
        # (n, k), dc (n, k, k), their eigenvalues' slice of the flat order below, their
        # eigenvectors V and V^H (n, k, k), and I (k, k)
        self._groups, owner, rate = [], [], []
        for idx in by_size.values():
            dc = np.stack([gens[i].dc for i in idx])
            lam, vecs = np.linalg.eigh(0.5j * dc)
            part = slice(len(rate), len(rate) + lam.size)
            owner.extend(np.repeat(idx, lam.shape[1]))
            rate.extend(-2.0 * lam.ravel())
            self._groups.append((idx, np.array(idx, dtype=np.intp)[:, None], np.stack([self.modes[i] for i in idx]),
                                 dc, part, vecs, vecs.conj().swapaxes(1, 2).copy(), np.eye(lam.shape[1])))
        # every eigenvalue of every generator in one flat order: phi = theta[owner] * rate
        self._owner, self._rate = np.array(owner, dtype=np.intp), np.array(rate, dtype=float)

    def at(self, theta) -> list:
        """The complex gate block of every generator at its angle in ``theta``."""
        phi = np.asarray(theta, dtype=float)[self._owner] * self._rate
        coef = np.empty(phi.shape, dtype=np.complex128)
        coef.real = -2.0 * np.sin(0.5 * phi) ** 2  # cos(phi) - 1, without cancellation
        coef.imag = np.sin(phi)
        blocks = [None] * len(self.modes)
        for idx, _, _, _, part, vecs, vecs_h, eye in self._groups:
            out = np.matmul(vecs * coef[part].reshape(len(idx), 1, -1), vecs_h)
            out += eye
            for i, block in zip(idx, out):
                blocks[i] = block
        return blocks

    def bilinear(self, rows, cols) -> np.ndarray:
        """``bilinear(rows[l], dc_l, cols[l])`` on the modes of every generator l, one
        gathered contraction per support size."""
        out = np.empty(len(self.modes))
        for idx, layers, modes, dc, *_ in self._groups:
            out[idx] = bilinear(rows[layers, modes], dc, cols[layers, modes])
        return out


@dataclass(frozen=True, eq=False, init=False)
class LayeredCircuit:
    """Alternating parameterized gates and fixed passive layers.

    Layer l applies the gate of ``gens[l]`` at ``theta[l]``, then the fixed layer
    ``unitaries[l]`` as ``z -> z unitaries[l]``.  The fixed layers are one
    read-only (L, m, m) complex stack, each checked unitary once, here.  Immutable,
    so one circuit can be evaluated concurrently at different parameter vectors;
    ``with_theta`` shares the generators and the stack.
    """

    gens: tuple
    unitaries: np.ndarray = field(repr=False)
    theta: np.ndarray

    def __init__(self, gens: Sequence[GeneratorPair], unitaries, theta):
        gens = tuple(gens)
        if not gens:
            raise ValueError("a circuit needs at least one layer")
        m = gens[0].m
        if any(gen.m != m for gen in gens):
            raise ValueError("all layers must act on the same number of modes")
        unitaries = np.asarray(unitaries, dtype=np.complex128)  # a complex stack is not copied
        if unitaries.shape != (len(gens), m, m):
            raise ValueError(f"fixed layers of shape {unitaries.shape} for {len(gens)} gates; "
                             f"the gate generator acts on {m} modes")
        for unitary in unitaries:
            check_unitary(unitary, "fixed layer")
        unitaries.flags.writeable = False
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "unitaries", unitaries)
        object.__setattr__(self, "theta", self._frozen_theta(theta))

    @property
    def depth(self) -> int:
        return len(self.gens)

    @property
    def m(self) -> int:
        return self.gens[0].m

    def with_theta(self, theta) -> "LayeredCircuit":
        """The circuit at other parameters, sharing the generators and the fixed layers unchecked."""
        out = copy.copy(self)
        object.__setattr__(out, "theta", self._frozen_theta(theta))
        return out

    def _frozen_theta(self, theta) -> np.ndarray:
        """``theta`` as a frozen copy, checked to hold one angle per layer."""
        theta = np.array(np.ravel(theta), dtype=float)  # a copy that owns its data
        if theta.size != self.depth:
            raise ValueError(f"theta length {theta.size} does not match depth {self.depth}")
        theta.flags.writeable = False
        return theta


def random_circuit(m: int, depth: int, rng) -> "LayeredCircuit":
    """A circuit with a beamsplitter/phase-shifter gate cycle and random fixed layers.

    Gate pattern: even layers are beamsplitters on adjacent mode pairs, odd
    layers single-mode phase shifters (plain phase shifters throughout when
    m = 1).  Fixed layers are Haar draws from U(m), written block by block
    into the circuit's one stack and frozen at construction.  All parameters
    start at zero.
    """
    unitaries = haar_unitary_batch(m, depth, rng)
    gens = []
    for idx in range(depth):
        if m == 1:
            gens.append(make_generator("phase-shifter", (0,), m))
        elif idx % 2 == 0:
            i = (idx // 2) % m
            gens.append(make_generator("beamsplitter", (i, (i + 1) % m), m))
        else:
            gens.append(make_generator("phase-shifter", ((idx // 2) % m,), m))
    return LayeredCircuit(gens, unitaries, np.zeros(depth))

"""Closed-form gradient-moment predictions and the trainability classifier.

A Haar-random circuit sees a coherent input only through its intensity
E = |u|^2 / 2, so each moment takes a gate's ``GeneratorPair`` and
intensities, ``(gen, E0, E1)`` for the overlap costs and ``(gen, E, ham)`` for
the quadratic cost: the arguments its Monte Carlo family in ``estimators``
takes too.  Every intensity must be finite and >= 0.

For the overlap costs the second moment of the split-layer gradient over
independent Haar pairs (O_minus, O_plus) is, exactly,

    E[(dC)^2] = pref(m, E0, E1) * |D_k|_F^2 / (2m),
    pref(m, E0, E1) = exp(-2(E0+E1)) Gamma(m) I_m(4x) / (2 (2x)^(m-2)),  x = sqrt(E0 E1),

obtained by evaluating the underlying sphere integral in polar coordinates
(the skew symmetry of D_k kills the polar-axis coordinate, leaving an
I_m kernel).  ``heterodyne_prefactor`` is the one implementation of pref.
The compiling cost is its equal-intensity case, pref(m, E, E) =
exp(-4E) Gamma(m) I_m(4E) / (2 (2E)^(m-2)), which ``second_moment_point``
and ``second_moment_interval`` evaluate as ``heterodyne_prefactor(m, E, E)``.
Since the mean squared column norm lies between the extreme squared column
norms xi_min and xi_max, the moment always falls inside
``pref * [xi_min, xi_max]``, collapsing to a point prediction for generators
with equal column norms.  This prefactor is the exact moment: Monte Carlo
agrees with it, and at m = 1 it matches direct quadrature.  The gate enters
only through the column norms of D_k, so these functions take its validated
``GeneratorPair`` (m is ``gen.m``) and read the norms from its complex block
``gen.dc``: both real columns of mode b have the squared norm
``sum_a |dc_ab|^2``, so ``|D_k|_F^2 = 2 sum |dc|^2``; the columns off the
support are zero.

For the quadratic family the gradient is ``w [D_k, eta~] w^T`` with
w = u O_minus uniform on the sphere of radius |u| = sqrt(2E), and eta~ the
``eta`` of a ``QuadraticHamiltonian``.  On complex modes
z = q + i p, the symmetric eta~ splits into a Hermitian and a complex
symmetric part,

    A = (eta_qq + eta_pp) / 2 + i (eta_qp - eta_pq) / 2,
    S = (eta_qq - eta_pp) / 2 - i (eta_qp + eta_pq) / 2,

with ``eta_qp = eta~[0::2, 1::2]`` and so on, and ``w eta~ w^T = z A z^H +
Re(z S z^T)``.  With ``dc`` padded to m x m the gradient is then
``z K z^H + Re(z T z^T)``, K = [dc, A] Hermitian and traceless and
T = dc S + S dc^T symmetric, and its second moment over O_minus is exactly

    |u|^4 (|K|_F^2 + |T|_F^2) / (m (m+1)).

Regime classification fits the log of the closed-form moment against the mode
count with basis {1, m, sqrt(m), log m} (``fit_decay``) and declares a barren
plateau when the coefficient of m falls below ``SLOPE_THRESHOLD``.
``intensity_law`` turns a law string into the intensity at each grid point, and
``classify_regime`` takes the input and output intensities there, fits
``heterodyne_prefactor(m, E0, E1)`` and returns a ``RegimeVerdict``: the
verdict, that coefficient and the fitted log moments.
For intensities scaling linearly, E = a(m-1), the coefficient approaches the
closed-form rate

    rate(a) = -(4a + 1 - sqrt(16a^2+1)) + log(2 / (1 + sqrt(16a^2+1))).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .cost_functions import QuadraticHamiltonian, check_hamiltonian
from .linear_optics import GeneratorPair, check_generator
from .special_functions import LogScaled, bessel_i
from .validation import check_intensity, check_mode_count, check_same_modes

SLOPE_THRESHOLD = -0.05  # nats per mode; below this the fitted decay is a plateau

__all__ = [
    "MomentInterval",
    "xi_bounds",
    "second_moment_point",
    "second_moment_interval",
    "heterodyne_prefactor",
    "quadratic_second_moment",
    "chebyshev_bound",
    "linear_intensity_rate",
    "intensity_law",
    "RegimeVerdict",
    "fit_decay",
    "classify_regime",
    "SLOPE_THRESHOLD",
]


@dataclass(frozen=True)
class MomentInterval:
    """Endpoints (log scale) bracketing a gradient second moment."""

    lo: LogScaled
    hi: LogScaled

    def __post_init__(self):
        if self.lo.log_value > self.hi.log_value + 1e-12:
            raise ValueError("interval endpoints are out of order")


def xi_bounds(gen: GeneratorPair) -> tuple:
    """Extreme squared column norms (xi_min, xi_max) of a gate generator D_k;
    xi_min is 0.0 unless the support covers all 2m coordinates."""
    gen = check_generator(gen)
    norms = (gen.dc * gen.dc.conj()).real.sum(axis=0)  # each mode's two real columns share it
    lo = float(norms.min()) if gen.modes.size == gen.m else 0.0
    return lo, float(norms.max())


def second_moment_point(gen: GeneratorPair, energy: float) -> LogScaled:
    """Exact second moment of the split-layer gradient: pref * |D_k|_F^2/(2m)."""
    gen = check_generator(gen)
    mean_sq = float((gen.dc * gen.dc.conj()).real.sum()) / gen.m  # |D_k|_F^2 = 2 sum |dc|^2
    return heterodyne_prefactor(gen.m, energy, energy).scaled(mean_sq)


def second_moment_interval(gen: GeneratorPair, energy: float) -> MomentInterval:
    """Prefactor times [xi_min, xi_max]; a point when column norms are equal."""
    lo_xi, hi_xi = xi_bounds(gen)
    pref = heterodyne_prefactor(gen.m, energy, energy)
    return MomentInterval(pref.scaled(lo_xi), pref.scaled(hi_xi))


def heterodyne_prefactor(m: int, e0: float, e1: float) -> LogScaled:
    """Unequal-intensity prefactor exp(-2(E0+E1)) Gamma(m) I_m(4x) / (2 (2x)^(m-2)),
    x = sqrt(E0 E1); at e0 = e1 = E it is the compiling prefactor
    exp(-4E) Gamma(m) I_m(4E) / (2 (2E)^(m-2)), bit for bit.

    At e0 = 0 or e1 = 0 the cost is circuit-independent and the moment is an
    exact zero (log -inf).  Otherwise the moment is not zero, and an exponent
    -2(E0+E1) past the float range is a ValueError, not a log of -inf.
    """
    check_mode_count(m)
    check_intensity(e0, "e0")
    check_intensity(e1, "e1")
    if e0 == 0.0 or e1 == 0.0:
        return LogScaled(-math.inf)
    exp_term = -2.0 * (e0 + e1)
    half_arg = 2.0 * _geometric_mean(e0, e1)
    log_bessel = bessel_i(m, 2.0 * half_arg).log_value  # an overflowing Bessel argument fails first
    if not math.isfinite(exp_term):
        raise ValueError(f"exponent -2(E0+E1) at E0={e0!r}, E1={e1!r} is not finite")
    return LogScaled(exp_term + math.lgamma(m) + log_bessel - math.log(2.0) - (m - 2) * math.log(half_arg))


def _geometric_mean(a: float, b: float) -> float:
    """sqrt(a b) of positive doubles from their frexp parts, never forming a b;
    bitwise ``math.sqrt(a * b)`` wherever a b is a normal double, and a at a = b."""
    (fa, xa), (fb, xb) = math.frexp(a), math.frexp(b)
    x = xa + xb
    return math.ldexp(math.sqrt(math.ldexp(fa * fb, x % 2)), x // 2)


def quadratic_second_moment(gen: GeneratorPair, energy: float, ham: QuadraticHamiltonian) -> float:
    """Second moment ``|u|^4 (|K|_F^2 + |T|_F^2) / (m (m+1))``, |u|^2 = 2E, of the
    quadratic gradient ``w [D_k, eta~] w^T`` with eta~ = ``ham.eta`` (module
    docstring), from m x m complex blocks; a ValueError where it passes the largest
    double."""
    gen = check_generator(gen)
    eta = check_hamiltonian(ham, "ham").eta
    check_intensity(energy, "energy")
    check_same_modes(gen.m, ham.m, "generator and Hamiltonian")
    qq, qp, pq, pp = eta[0::2, 0::2], eta[0::2, 1::2], eta[1::2, 0::2], eta[1::2, 1::2]
    a = 0.5 * (qq + pp) + 0.5j * (qp - pq)
    s = 0.5 * (qq - pp) - 0.5j * (qp + pq)
    dc = np.zeros((gen.m, gen.m), dtype=np.complex128)
    dc[np.ix_(gen.modes, gen.modes)] = gen.dc
    k = dc @ a - a @ dc
    t = dc @ s + s @ dc.T
    try:
        u4 = (2.0 * energy) ** 2  # |u|^4
    except OverflowError:  # past the largest double
        u4 = math.inf
    moment = u4 * float(np.vdot(k, k).real + np.vdot(t, t).real) / (gen.m * (gen.m + 1))
    if not math.isfinite(moment):
        raise ValueError(f"quadratic_second_moment overflows at E={energy!r}")
    return moment


def chebyshev_bound(moment: float, order: int, epsilon: float) -> float:
    """Tail bound P(|dC| >= eps) <= moment / eps^order, clamped to [0, 1]."""
    if moment < 0:
        raise ValueError(f"moment must be >= 0, got {moment}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return min(1.0, moment / epsilon**order)


def linear_intensity_rate(a: float) -> float:
    """Per-mode log decay rate of the moment prefactor when E = a(m-1).

    rate(a) = -(4a + 1 - sqrt(16a^2+1)) + log(2 / (1 + sqrt(16a^2+1))) < 0.
    """
    if a <= 0:
        raise ValueError(f"a must be > 0, got {a}")
    root = math.sqrt(16.0 * a * a + 1.0)
    return -(4.0 * a + 1.0 - root) + math.log(2.0 / (1.0 + root))


# -- intensity-law grammar --------------------------------------------------

_LAW_RE = re.compile(r"^(constant|power|linear|expdecay|logpower):([-\d.,eE+]+)$")
_LAWS = {  # name -> (parameter count, intensity at a mode count m held as a 0-d array)
    "constant": (1, lambda m, e: e),
    "linear": (1, lambda m, a: a * m),
    "power": (2, lambda m, a, r: a * m ** r),
    "expdecay": (2, lambda m, a, b: a * b ** -m),
    "logpower": (2, lambda m, a, r: a * np.log(m) * m ** r),
}


def intensity_law(spec: str, m_grid) -> list:
    """The intensity of the law ``spec`` at each mode count of ``m_grid``, as floats.

    Grammar: ``constant:E`` | ``power:a,r`` (E = a m^r) | ``linear:a`` (E = a m) |
    ``expdecay:a,b`` (E = a b^-m, b > 1) | ``logpower:a,r`` (E = a log(m) m^r) |
    ``list:E1,...`` (one intensity per grid point).  A formula is evaluated at one
    0-d array per point, since numpy's whole-array power can round differently.
    A spec that does not parse, a list of the wrong length, and an intensity that
    is negative or not finite are ValueErrors.
    """
    text = str(spec).strip()
    if text.startswith("list:"):
        values = [float(s) for s in text[len("list:"):].split(",")]
        if len(values) != len(m_grid):
            raise ValueError(f"explicit list has {len(values)} entries but the grid has {len(m_grid)}")
    else:
        match = _LAW_RE.match(text)
        if not match:
            raise ValueError(
                f"cannot parse intensity law {spec!r}; expected constant:E, power:a,r, "
                "linear:a, expdecay:a,b, logpower:a,r or list:E1,..."
            )
        name, arg_text = match.groups()
        args = [float(s) for s in arg_text.split(",")]
        n_args, law = _LAWS[name]
        if len(args) != n_args:
            raise ValueError(f"law {name!r} takes {n_args} parameter(s), got {len(args)}")
        if name == "expdecay" and args[1] <= 1.0:
            raise ValueError(f"expdecay base must be > 1, got {args[1]}")
        values = [float(law(np.asarray(float(m)), *args)) for m in m_grid]
    for m, value in zip(m_grid, values):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"intensity {value!r} at m={m} is negative or not finite")
    return values


# -- decay fitting and classification ---------------------------------------


@dataclass(frozen=True)
class RegimeVerdict:
    verdict: str  # "BPL" or "trainable"
    slope: float  # coefficient of m in the fit of the log moments
    log_values: tuple  # the fitted log moment at each grid point


def fit_decay(m_grid, log_values) -> float:
    """Fit log_values ~ c0 + c1 m + c2 sqrt(m) + c3 log(m) and return c1.

    Requires at least 6 grid points; raises on a degenerate (constant) series
    or on non-finite values.
    """
    m_arr = np.asarray(m_grid, dtype=float)
    vals = np.asarray(log_values, dtype=float)
    if m_arr.ndim != 1 or m_arr.size < 6:
        raise ValueError(f"need an ascending grid of at least 6 mode counts, got {m_arr.size}")
    if np.any(np.diff(m_arr) <= 0):
        raise ValueError("mode grid must be strictly ascending")
    if vals.shape != m_arr.shape:
        raise ValueError("log_values must match the grid length")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"log moment values must be finite for fitting; got {vals[i]} at m={m_arr[i]:g}"
        )
    if float(vals.max() - vals.min()) < 1e-12:
        raise ValueError("degenerate fit: all moment values are equal")
    design = np.column_stack([np.ones_like(m_arr), m_arr, np.sqrt(m_arr), np.log(m_arr)])
    coeffs, _, _, _ = np.linalg.lstsq(design, vals, rcond=None)
    return float(coeffs[1])


def classify_regime(m_grid, e0s, e1s) -> RegimeVerdict:
    """Classify a sweep as plateau or trainable from its input and output intensities
    at each grid point: ``e1s`` is ``e0s`` for the compiling cost, and e.g.
    ``e1s[i] = k^(2 L(m)) e0s[i]`` for an attenuation sweep.

    Evaluates ``heterodyne_prefactor(m, E0, E1)`` at each point, fits the decay and
    compares the linear slope against ``SLOPE_THRESHOLD``.  A generator's column
    norms would only add log xi to every value, which the fit's constant term absorbs.
    """
    for column in (e0s, e1s):
        if len(column) != len(m_grid):
            raise ValueError(f"got {len(column)} intensities for {len(m_grid)} grid points")
    logs = []
    for m, e0, e1 in zip(m_grid, e0s, e1s):
        m, e0, e1 = int(m), float(e0), float(e1)
        try:
            logs.append(heterodyne_prefactor(m, e0, e1).log_value)
        except ValueError as exc:  # e.g. a Bessel argument that overflows
            raise ValueError(f"at m={m}, E0={e0!r}, E1={e1!r}: {exc}") from None
    slope = fit_decay(m_grid, logs)
    verdict = "BPL" if slope <= SLOPE_THRESHOLD else "trainable"
    return RegimeVerdict(verdict, slope, tuple(logs))

"""Log-scale modified Bessel functions of the first kind.

Every closed-form moment in this package is a product of factors like
``exp(-4E) * Gamma(m) * I_m(4E) / (2E)^(m-2)`` whose individual pieces
overflow or underflow in double precision long before the interesting regime
(hundreds of modes, intensities up to 1e6).  All such quantities are therefore
computed and composed as natural logarithms; :class:`LogScaled` is the thin
wrapper used at API boundaries.

``bessel_i`` evaluates ``log I_nu(x)`` in one of two regimes, split at
``r = sqrt(nu^2 + x^2) = DEBYE_R0`` (128).

Below ``DEBYE_R0`` it sums the defining power series

    I_nu(x) = sum_k t_k,    t_k = (x/2)^(nu + 2k) / (k! Gamma(nu + k + 1)),

in the log domain over the window of indices that actually contribute.
Consecutive terms have the ratio

    t_(k+1) / t_k = (x/2)^2 / ((k + 1) (nu + k + 1)),

which falls in k, so the log-term is concave and peaks at the first k whose
ratio is below 1, ``floor(k*)`` with ``k* (k* + nu) = (x/2)^2``.  Only the peak
term is evaluated with ``lgamma``; every other log-term is a cumulative sum of
log-ratios outward from it.  The window's half-width comes from the curvature
of the log-term at the peak, ``sigma^-2 = 1/(k+1) + 1/(nu+k+1)``: terms
``TERM_CUTOFF_LOG`` nats below the peak lie about ``sqrt(2 * 46) sigma``
indices away, and the width doubles while an end term is still above that
cutoff; log-concavity bounds every term beyond the ends.  For small arguments
the window starts at k = 0 and the evaluation is the plain truncated series;
below ``DEBYE_R0`` the window holds at most a few hundred terms.

At and above ``DEBYE_R0`` it uses the Debye uniform asymptotic expansion
(DLMF 10.41.3), O(1) per point.  With ``p = nu / r``,

    log I_nu(x) = r + nu (log x - log(nu + r)) - log(2 pi r) / 2
                  + log sum_(k=0..5) u_k(p) / nu^k,

where ``u_k`` are the polynomials of DLMF 10.41.10 and ``log(2 pi r) / 2`` is
``log(2 pi nu) / 2 + log(r / nu) / 2``.  Each ``u_k(p)`` is ``p^k`` times a
polynomial in ``p^2``, so ``u_k(p) / nu^k`` is that polynomial over ``r^k``: the
expansion is regular at ``nu = 0``, where it is Hankel's large-argument
expansion (DLMF 10.40.1).  The first omitted term is at most ``0.58 / r^6``,
below 1.3e-13 at ``r = 128``.  ``log(nu + r) - log x`` is evaluated as
``asinh(nu / x)`` for x > 1 and as the difference of the two logs otherwise,
never as the log of ``x / (nu + r)``, which underflows to 0 at subnormal x.

Arguments above ``MAX_ARGUMENT`` (1e12) raise a ``ValueError``.  Either regime
could go further, but every closed form adds ``-4E`` to ``log I_m(4E)``, and
that cancellation loses about ulp(x) nats: about 1e-4 at 1e12, whole nats
past about 1e15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LogScaled", "bessel_i"]

# Terms this many nats below the peak term are dropped; 46 nats ~ 1e-20
# relative, far below the 1e-10 accuracy target.
TERM_CUTOFF_LOG = 46.0
# The series runs below r = hypot(nu, x) = DEBYE_R0, the Debye expansion at and above it.
DEBYE_R0 = 128.0
# Largest argument accepted: the closed forms' -4E + log I(4E) loses about ulp(4E) nats.
MAX_ARGUMENT = 1e12
# u_0 ... u_5 of DLMF 10.41.10, row k holding the coefficients of p^k, p^(k+2), ..., p^(3k).
_DEBYE_U = (
    (1.0,),
    (0.125, -0.20833333333333334),
    (0.0703125, -0.4010416666666667, 0.3342013888888889),
    (0.0732421875, -0.8912109375, 1.8464626736111112, -1.0258125964506173),
    (0.112152099609375, -2.3640869140625, 8.78912353515625, -11.207002616222994, 4.669584423426247),
    (0.22710800170898438, -7.368794359479632, 42.53499874538846, -91.81824154324002,
     84.63621767460073, -28.212072558200244),
)


@dataclass(frozen=True, order=True)
class LogScaled:
    """A nonnegative quantity carried as its natural logarithm.

    ``log_value = -inf`` encodes an exact zero.  Ordering compares logs.
    """

    log_value: float

    @classmethod
    def from_value(cls, value: float) -> "LogScaled":
        if value < 0:
            raise ValueError(f"LogScaled requires a nonnegative value, got {value}")
        return cls(math.log(value) if value > 0 else -math.inf)

    @property
    def value(self) -> float:
        """Linear-scale value; may round to 0.0 or inf outside double range."""
        return math.exp(self.log_value)

    def scaled(self, factor: float) -> "LogScaled":
        """Multiply by a nonnegative linear-scale factor."""
        if factor < 0:
            raise ValueError(f"scale factor must be nonnegative, got {factor}")
        if factor == 0:
            return LogScaled(-math.inf)
        return LogScaled(self.log_value + math.log(factor))

    def __float__(self) -> float:
        return self.value


def _log_term(nu: int, k: float, log_half_x: float) -> float:
    return (nu + 2.0 * k) * log_half_x - math.lgamma(k + 1.0) - math.lgamma(nu + k + 1.0)


def _half_width(nu: int, k: int) -> int:
    """Terms kept on each side of the peak k: the cutoff's distance in Gaussian
    widths of the log-term, plus a margin for narrow peaks."""
    sigma = 1.0 / math.sqrt(1.0 / (k + 1.0) + 1.0 / (nu + k + 1.0))
    return int(math.sqrt(2.0 * TERM_CUTOFF_LOG) * sigma) + 16


def _log_ratios(nu: int, k, two_log_half_x: float):
    """log(t_(k+1) / t_k) for an index or an array of indices ``k``."""
    return two_log_half_x - np.log((k + 1.0) * (nu + k + 1.0))


def _debye_log_i(nu: int, x: float, r: float) -> float:
    """log I_nu(x) from the Debye expansion, r = hypot(nu, x) >= DEBYE_R0."""
    p2 = (nu / r) ** 2
    inv_r = 1.0 / r
    # sum_(k>=1) u_k(p) / nu^k, where u_k(p) / nu^k is row k's polynomial in p^2
    # over r^k; nested in 1 / r
    tail = 0.0
    for coeffs in reversed(_DEBYE_U[1:]):
        poly = 0.0
        for c in reversed(coeffs):
            poly = poly * p2 + c
        tail = (tail + poly) * inv_r
    # log((nu + r) / x) = asinh(nu / x), which keeps the relative precision that
    # log(nu + r) - log(x) loses to cancellation when x is large; for x <= 1, where
    # nu / x may overflow, the two logs add with one sign and lose nothing
    log_ratio = math.asinh(nu / x) if x > 1.0 else math.log(nu + r) - math.log(x)
    return r - nu * log_ratio - 0.5 * math.log(2.0 * math.pi * r) + math.log1p(tail)


def bessel_i(nu: int, x: float) -> LogScaled:
    """log I_nu(x) for integer order nu >= 0 and real x >= 0.

    Relative accuracy is ~1e-13 over moderate ranges (|log I| up to ~1e3);
    beyond them the absolute error stays within a few ulp of
    r = hypot(nu, x).  Arguments above ``MAX_ARGUMENT`` raise a ``ValueError``.
    """
    nu = int(nu)
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    x = float(x)
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError(f"argument must be finite and >= 0, got {x}")
    if x == 0.0:
        return LogScaled(0.0 if nu == 0 else -math.inf)
    if x > MAX_ARGUMENT:
        raise ValueError(f"I_nu(x) at order {nu}, argument {x!r} exceeds MAX_ARGUMENT = {MAX_ARGUMENT:g}: "
                         f"the closed forms' -x + log I_nu(x) would lose about ulp(x) nats")
    r = math.hypot(nu, x)
    if r >= DEBYE_R0:
        return LogScaled(_debye_log_i(nu, x, r))

    # x / 2 rounds only for subnormal x; then log(x) - log(2) keeps the precision
    log_half_x = math.log(x / 2.0) if (x / 2.0) * 2.0 == x else math.log(x) - math.log(2.0)
    two_log_half_x = 2.0 * log_half_x
    # floor(k*) is the exact peak; step once in case rounding moved k* across it
    k = max(0, int(0.5 * (r - nu)))
    if _log_ratios(nu, k, two_log_half_x) >= 0.0:
        k += 1
    elif k > 0 and _log_ratios(nu, k - 1, two_log_half_x) < 0.0:
        k -= 1

    half = _half_width(nu, k)
    while True:
        lo = max(0, k - half)
        ratios = _log_ratios(nu, np.arange(lo, k + half, dtype=float), two_log_half_x)
        # right[j] = log(t_(k+1+j) / t_k); left[j] = log(t_k / t_(k-1-j)), down to k = 0
        right = ratios[k - lo:].cumsum()
        left = ratios[:k - lo][::-1].cumsum()
        if right[-1] <= -TERM_CUTOFF_LOG and (lo == 0 or left[-1] >= TERM_CUTOFF_LOG):
            break
        half *= 2
    peak_log = _log_term(nu, k, log_half_x)
    return LogScaled(peak_log + math.log1p(float(np.exp(right).sum() + np.exp(-left).sum())))

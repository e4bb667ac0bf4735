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

as ``t_0`` times one running product of the term ratios

    t_(k+1) / t_k = (x/2)^2 / ((k + 1) (nu + k + 1)),

    log I_nu(x) = nu log(x/2) - lgamma(nu + 1) + log(1 + sum_(k<K) t_(k+1) / t_0),

over a fixed K = 2 ``DEBYE_R0`` = 256 terms.  Each partial sum of ``t_k / t_0``
is at most ``I_0(x) < e^128``, so the sum fits in a double with no log-domain
bookkeeping.  The ratios fall in k and in nu, so the truncation is worst at
nu = 0 and x just below 128, where ``t_K`` is about 1e-143 of the sum.

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

# The series runs below r = hypot(nu, x) = DEBYE_R0, the Debye expansion at and above it.
DEBYE_R0 = 128.0
# Series terms t_1 ... t_K summed after t_0; below DEBYE_R0, t_K is at most ~1e-143 of the sum.
_SERIES_TERMS = int(2 * DEBYE_R0)
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

    The order may be of any numeric type with an integral value (``3``, ``3.0``,
    ``np.int64(3)``); a fractional, infinite or NaN order raises a ``ValueError``.
    Below ``DEBYE_R0`` the error relative to max(|log I|, 1) stays below 1e-13.
    At and above it the error is at most

        2 eps |x d/dx log I_nu(x)| + 2.5e-13 max(|log I|, 1),    eps = 2^-52:

    the first term is what a relative change of x by two units of roundoff does
    to log I, its conditioning (``x d/dx log I`` lies below r = hypot(nu, x)), and
    the second bounds the expansion's truncation near ``DEBYE_R0``.  Where log I
    is a fair fraction of r this is a few ulp of log I; where log I crosses 0
    (x near 0.66 nu at large nu) r and ``nu asinh(nu / x)`` cancel, and the error,
    2.1e-12 at (10000, 6630.5367), passes 1e-12 relative to max(|log I|, 1) from
    nu of about 5000 on.  Arguments above ``MAX_ARGUMENT`` raise a ``ValueError``.
    """
    if not (math.isfinite(nu) and nu == int(nu) and nu >= 0):
        raise ValueError(f"order must be an integer >= 0, got {nu}")
    nu = int(nu)
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
    k1 = np.arange(1.0, _SERIES_TERMS + 1.0)
    ratios = (0.5 * x) ** 2 / (k1 * (nu + k1))
    return LogScaled(nu * log_half_x - math.lgamma(nu + 1.0) + math.log1p(float(np.cumprod(ratios).sum())))

"""Log-scale modified Bessel functions of the first kind.

Every closed-form moment in this package is a product of factors like
``exp(-4E) * Gamma(m) * I_m(4E) / (2E)^(m-2)`` whose individual pieces
overflow or underflow in double precision long before the interesting regime
(hundreds of modes, intensities up to 1e6).  All such quantities are therefore
computed and composed as natural logarithms; :class:`LogScaled` is the thin
wrapper used at API boundaries.

``bessel_i`` evaluates ``log I_nu(x)`` from the defining power series

    I_nu(x) = sum_k t_k,    t_k = (x/2)^(nu + 2k) / (k! Gamma(nu + k + 1)),

summed in the log domain over the window of indices that actually contribute.
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
at x ~ 4e6 it holds about 2e4 terms.  The half-width grows as sqrt(x), so it
is capped at ``MAX_HALF_WIDTH`` terms per side (reached near x ~ 8e11): past
that, ``bessel_i`` raises a ``ValueError`` rather than allocate gigabytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LogScaled", "bessel_i"]

# Terms this many nats below the peak term are dropped; 46 nats ~ 1e-20
# relative, far below the 1e-10 accuracy target.
TERM_CUTOFF_LOG = 46.0
# Most terms kept on each side of the peak; the window arrays then hold 2 * 2**22
# float64 (64 MiB) each.
MAX_HALF_WIDTH = 2**22


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


def bessel_i(nu: int, x: float) -> LogScaled:
    """log I_nu(x) for integer order nu >= 0 and real x >= 0.

    Relative accuracy is ~1e-13 over moderate ranges (|log I| up to ~1e3) and
    degrades gracefully, staying finite, out to orders ~1e4 and arguments
    ~1e7 where the linear-scale value spans thousands of decades.
    """
    nu = int(nu)
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    x = float(x)
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError(f"argument must be finite and >= 0, got {x}")
    if x == 0.0:
        return LogScaled(0.0 if nu == 0 else -math.inf)

    # x / 2 rounds only for subnormal x; then log(x) - log(2) keeps the precision
    log_half_x = math.log(x / 2.0) if (x / 2.0) * 2.0 == x else math.log(x) - math.log(2.0)
    two_log_half_x = 2.0 * log_half_x
    # floor(k*) is the exact peak; step once in case rounding moved k* across it
    k = max(0, int(0.5 * (math.hypot(nu, x) - nu)))
    if _log_ratios(nu, k, two_log_half_x) >= 0.0:
        k += 1
    elif k > 0 and _log_ratios(nu, k - 1, two_log_half_x) < 0.0:
        k -= 1

    half = _half_width(nu, k)
    while True:
        if half > MAX_HALF_WIDTH:
            raise ValueError(f"I_nu(x) at order {nu}, argument {x!r} needs more than "
                             f"MAX_HALF_WIDTH = {MAX_HALF_WIDTH} series terms per side of its peak")
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

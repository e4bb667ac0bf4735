"""Log-scale modified Bessel functions of the first kind.

Every closed-form moment in this package is a product of factors like
``exp(-4E) * Gamma(m) * I_m(4E) / (2E)^(m-2)`` whose individual pieces
overflow or underflow in double precision long before the interesting regime
(hundreds of modes, intensities up to 1e6).  All such quantities are therefore
computed and composed as natural logarithms; :class:`LogScaled` is the thin
wrapper used at API boundaries.

``bessel_i`` evaluates ``log I_nu(x)`` from the defining power series

    I_nu(x) = sum_k (x/2)^(nu + 2k) / (k! Gamma(nu + k + 1)),

summed in the log domain over the window of indices that actually contribute.
The log of the summand is strictly concave in k, so the window is found by
bisecting for the points where a term drops ``TERM_CUTOFF_LOG`` nats below the
peak; everything outside is beyond double precision.  For small arguments the
window starts at k = 0 and the evaluation reduces to the plain truncated
series; for large arguments it is a uniformly valid windowed sum (the window
never exceeds a few tens of thousands of terms even at x ~ 4e6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = ["LogScaled", "bessel_i"]

# Terms this many nats below the peak term are dropped; 46 nats ~ 1e-20
# relative, far below the 1e-10 accuracy target.
TERM_CUTOFF_LOG = 46.0


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


def _crossing(nu: int, log_half_x: float, peak_k: int, peak_log: float,
              lo: int, hi: int) -> int:
    """Largest-|k| index on one side of the peak still within the cutoff.

    Relies on strict concavity of the log term in k. ``lo`` is nearer the
    peak, ``hi`` farther; both ends already bracket the cutoff crossing.
    """
    target = peak_log - TERM_CUTOFF_LOG
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        if _log_term(nu, mid, log_half_x) >= target:
            lo = mid
        else:
            hi = mid
    return hi


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

    log_half_x = math.log(x / 2.0)
    # Continuous peak of the summand: k (k + nu) = (x/2)^2.
    k_star = 0.5 * (math.hypot(nu, x) - nu)
    peak_k = max(0, int(k_star))
    peak_log = _log_term(nu, peak_k, log_half_x)
    for cand in (peak_k + 1, max(0, peak_k - 1)):
        cand_log = _log_term(nu, cand, log_half_x)
        if cand_log > peak_log:
            peak_k, peak_log = cand, cand_log

    # Bracket the cutoff crossing on each side, then bisect (log-concavity).
    step = 16
    hi = peak_k + step
    while _log_term(nu, hi, log_half_x) >= peak_log - TERM_CUTOFF_LOG:
        step *= 4
        hi = peak_k + step
    k_hi = _crossing(nu, log_half_x, peak_k, peak_log, peak_k, hi)

    if peak_k == 0 or _log_term(nu, 0, log_half_x) >= peak_log - TERM_CUTOFF_LOG:
        k_lo = 0
    else:
        step = 16
        lo = max(0, peak_k - step)
        while lo > 0 and _log_term(nu, lo, log_half_x) >= peak_log - TERM_CUTOFF_LOG:
            step *= 4
            lo = max(0, peak_k - step)
        k_lo = _crossing(nu, log_half_x, peak_k, peak_log, peak_k, lo)

    k = np.arange(k_lo, k_hi + 1, dtype=float)
    terms = (nu + 2.0 * k) * log_half_x - gammaln(k + 1.0) - gammaln(nu + k + 1.0)
    top = float(terms.max())
    return LogScaled(top + math.log(float(np.exp(terms - top).sum())))

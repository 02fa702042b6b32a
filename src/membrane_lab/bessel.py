"""First- and second-kind Bessel evaluations and zeros of J_m.

The membrane solvers only ever need integer orders up to 12 and arguments
below a few hundred, so the evaluation contract is narrow: |error| <= 1e-10
for J on x <= 100 and 1e-8 for Y on [1e-3, 100].  One evaluator,
integer_jy, serves bessel_j, bessel_y and the solver kernel: it climbs one
ladder of the order recurrence from scipy's cephes j0, j1, y0 and y1, and
takes J from scipy.special.jv only where the ladder is unstable (x <= m);
the test suite checks both paths against high-precision references.  Zeros
come from scipy.special.jn_zeros.  scipy.special is imported on first use,
so importing the package (and the commands that never solve) stays light.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_ORDER = 12
MAX_ZERO_INDEX = 20
# Rung offsets, in units of one kind's row, of J_m, Y_m, J_{m-1} and
# Y_{m-1} from J_m in integer_jy's ladder; and orders m and m - 1.
_PICK = np.array([[0], [1], [-2], [-1]])
_ORDER_AND_BELOW = np.array([[0], [1]])


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise DomainError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise DomainError(f"order must be in [0, {MAX_ORDER}], got {order}")
    return int(order)


def integer_jy(orders, x) -> np.ndarray:
    """J_m(x), Y_m(x), J_{m-1}(x) and Y_{m-1}(x), stacked on a new first axis.

    orders are integers in [0, MAX_ORDER], broadcast to the shape of
    x >= 0.  The J and Y rows climb one ladder together, f_{k+1} = (2k/x)
    f_k - f_{k-1} (DLMF 10.6.1) from j0, j1, y0 and y1, up to the highest
    order asked for, with f_{-1} = -f_1 (DLMF 10.4.1); each point's rungs
    are picked by one flat take.  Upward recurrence is stable for Y, the
    dominant solution, but for J, the minimal one, only while x > m
    (Gautschi 1967, SIAM Review 9:24), so J_m and J_{m-1} at the points
    with x <= m come from special.jv instead, in one call.  Every point's
    values depend on that point alone.  Y is undefined at x = 0 (NaN).
    """
    from scipy import special

    x = np.asarray(x, dtype=float)
    shape = x.shape
    m = np.empty(shape, dtype=np.intp)
    m[...] = orders
    m, x = m.ravel(), x.ravel()
    size = x.size
    top = max(int(m.max(initial=0)), 1)
    ladder = np.empty((top + 2, 2, size))  # rung k + 1 holds order k
    special.j0(x, out=ladder[1, 0])
    special.y0(x, out=ladder[1, 1])
    special.j1(x, out=ladder[2, 0])
    special.y1(x, out=ladder[2, 1])
    np.negative(ladder[2], out=ladder[0])
    two_over_x = 2.0 / x
    for k in range(1, top):
        rung = ladder[k + 2]
        np.multiply(ladder[k + 1], k * two_over_x, out=rung)
        np.subtract(rung, ladder[k], out=rung)
    at = m * (2 * size) + np.arange(2 * size, 3 * size)
    out = ladder.ravel().take(at + _PICK * size)
    # x = 0 lands here at every order, so 2/x = inf above never reaches J.
    low = (x <= m).nonzero()[0]
    if low.size:
        out[::2, low] = special.jv(m[low] - _ORDER_AND_BELOW, x[low])
    return out.reshape(4, *shape)


def bessel_j(order: int, x):
    """J_order(x) for integer order in [0, 12]; x may be a scalar or array."""
    order = _check_order(order)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("bessel_j requires finite x >= 0")
    # At x = 0 the ladder's 2/x and Y are inf and NaN; J there is jv's.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = integer_jy(order, arr)[0]
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bessel_y(order: int, x):
    """Y_order(x) for integer order in [0, 12]; diverges at the origin."""
    order = _check_order(order)
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 1e-12) or not np.all(np.isfinite(arr)):
        raise DomainError("bessel_y requires finite x > 1e-12")
    out = integer_jy(order, arr)[1]
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@lru_cache(maxsize=None)
def bessel_zero(order: int, index: int) -> float:
    """index-th positive zero of J_order (index counts from 1)."""
    from scipy import special

    order = _check_order(order)
    if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
        raise DomainError(f"index must be an integer, got {index!r}")
    if index < 1 or index > MAX_ZERO_INDEX:
        raise DomainError(f"index must be in [1, {MAX_ZERO_INDEX}], got {index}")
    return float(special.jn_zeros(order, index)[-1])

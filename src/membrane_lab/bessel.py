"""First- and second-kind Bessel functions of integer order, and zeros of J_m.

The membrane solvers only ever need integer orders up to 12 and arguments
below a few hundred, so the evaluation contract is narrow: |error| <= 1e-10
for J on x <= 100 and 1e-8 for Y on [1e-3, 100].  One evaluator,
integer_jy, serves bessel_j, bessel_y and the solver kernel, in numpy
alone: J_0, Y_0, J_1 and Y_1 come from piecewise polynomials on [0, 64)
and from the Hankel expansion beyond, every order above from one ladder of
the order recurrence, and J at x < m, where that ladder is unstable, from
a second set of piecewise polynomials.  The coefficients and the zeros
j_{m,n} are tables in data/, written by tools/gen_bessel_tables.py from
mpmath; the test suite checks every path against high-precision
references.
"""

from __future__ import annotations

import math
from functools import cache
from pathlib import Path

import numpy as np

from .errors import DomainError

MAX_ORDER = 12
MAX_ZERO_INDEX = 20

_DATA = Path(__file__).with_name("data")
# Polynomial cells of width 1/_STEPS.  Entry [k, i] of the bessel_cells
# table holds the u^k coefficients, u = _STEPS x - i, of J_0, R_0, J_1 and
# R_1 on cell i < 512, that is x in [i, i + 1) / _STEPS, where
# R_0 = Y_0 - (2/pi) ln(x/2) J_0 and R_1 = Y_1 - (2/pi) ln(x/2) J_1 + 2/(pi x)
# are entire (DLMF 10.8.1-2).
# Cell _SMALL_BASE[m] + i, for m = 1..12 and x < m, holds those of
# J_m / (x/2)^(m-1) and J_{m-1} / (x/2)^(m-1) instead, and two zeros.
_STEPS = 8
_END = 64.0
_MAIN_CELLS = int(_END) * _STEPS
_SMALL_BASE = _MAIN_CELLS + _STEPS * (np.arange(MAX_ORDER + 1) * np.arange(-1, MAX_ORDER) // 2)


@cache
def _table(name: str) -> np.ndarray:
    """data/<name>.npy, read on first use and read-only."""
    table = np.load(_DATA / f"{name}.npy")
    table.flags.writeable = False
    return table


def zero_table() -> np.ndarray:
    """The zeros j_{m,n} of J_m at [m, n - 1], for m <= MAX_ORDER and
    n <= MAX_ZERO_INDEX (read-only)."""
    return _table("bessel_zeros")


def _hankel_series() -> np.ndarray:
    """Coefficients in 1/x^2 of P_0, x Q_0, P_1 and x Q_1 (DLMF 10.17.3):
    (-1)^k a_{2k}(nu) and (-1)^k a_{2k+1}(nu), a_k(nu) = prod_{j <= k}
    (4 nu^2 - (2j - 1)^2) / (k! 8^k) (DLMF 10.17.1).  At x >= 64 the first
    omitted term is below 1e-18."""
    def a(nu, k):
        return math.prod(4 * nu * nu - (2 * j - 1) ** 2 for j in range(1, k + 1)) / (
            math.factorial(k) * 8 ** k)

    return np.array([[(-1) ** k * a(nu, 2 * k + odd) for nu in (0, 1) for odd in (0, 1)]
                     for k in range(6)])[:, :, None]


_HANKEL = _hankel_series()
# Rung offsets, in units of one kind's row, of J_m, Y_m, J_{m-1} and
# Y_{m-1} from J_m in integer_jy's ladder.
_PICK = np.array([[0], [1], [-2], [-1]])


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise DomainError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise DomainError(f"order must be in [0, {MAX_ORDER}], got {order}")
    return int(order)


def _horner(coefficients, u):
    """sum_k coefficients[k] u^k, elementwise."""
    acc = coefficients[-1] * u
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= u
    acc += coefficients[0]
    return acc


def _hankel(x) -> np.ndarray:
    """J_0, Y_0, J_1 and Y_1 at x >= 64 as ladder rungs, shape (2, 2, x.size):
    sqrt(2/(pi x)) (P cos w - Q sin w) and (P sin w + Q cos w), w = x - pi/4
    or x - 3pi/4, with cos w and sin w built from cos x and sin x."""
    series = _horner(_HANKEL, 1.0 / (x * x))
    series[1::2] /= x
    # sqrt(2/(pi x)) / sqrt(2) times P +- Q, as cos w and sin w are.
    p0, q0, p1, q1 = series / np.sqrt(math.pi * x)
    plus0, minus0, plus1, minus1 = p0 + q0, p0 - q0, p1 + q1, p1 - q1
    cos, sin = np.cos(x), np.sin(x)
    return np.array([
        [plus0 * cos + minus0 * sin, plus0 * sin - minus0 * cos],
        [plus1 * sin - minus1 * cos, -(plus1 * cos + minus1 * sin)],
    ])


def integer_jy(orders, x) -> np.ndarray:
    """J_m(x), Y_m(x), J_{m-1}(x) and Y_{m-1}(x), stacked on a new first axis.

    orders are integers in [0, MAX_ORDER], broadcast to the shape of
    x >= 0.  J_0, Y_0, J_1 and Y_1 come from the cell polynomials (the
    Hankel expansion at x >= 64); the J and Y rows then climb one ladder
    together, f_{k+1} = (2k/x) f_k - f_{k-1} (DLMF 10.6.1), up to the
    highest order asked for, with f_{-1} = -f_1 (DLMF 10.4.1), and each
    point's rungs are picked by one flat take.  Upward recurrence is stable
    for Y, the dominant solution, but for J, the minimal one, only while
    x > m (Gautschi 1967, SIAM Review 9:24), so J_m and J_{m-1} at the
    points with x < m come from their own cell polynomials instead, times
    (x/2)^(m-1), evaluated in the same pass.  Every point's values depend
    on that point alone.  Y is undefined at x = 0 (NaN or -inf).
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    m = np.empty(shape, dtype=np.intp)
    m[...] = orders
    m, x = m.ravel(), x.ravel()
    size = x.size
    top = max(int(m.max(initial=0)), 1)
    ladder = np.empty((top + 2, 2, size))  # rung k + 1 holds order k
    scaled = x * _STEPS
    cell = scaled.astype(np.intp)
    beyond = scaled.max(initial=0.0) >= _MAIN_CELLS
    if beyond:
        np.minimum(cell, _MAIN_CELLS - 1, out=cell)
    u = scaled - cell
    # One pass of the cell polynomials: J_0, R_0, J_1 and R_1 at every
    # point, then J_m and J_{m-1} over (x/2)^(m-1) at the points with x < m.
    low = (x < m).nonzero()[0]
    if low.size:
        m_low = m[low]
        cell = np.concatenate((cell, _SMALL_BASE.take(m_low) + cell[low]))
        u = np.concatenate((u, u[low]))
    cells = _table("bessel_cells")
    polys = _horner(cells.take(cell, axis=1).reshape(len(cells), -1), np.repeat(u, 4))
    polys = polys.reshape(-1, 4)
    ladder[1:3] = polys[:size].reshape(size, 2, 2).transpose(1, 2, 0)
    two_over_x = 2.0 / x
    # Y_0 = R_0 + (2/pi) ln(x/2) J_0 and Y_1 = R_1 + (2/pi) ln(x/2) J_1 - 2/(pi x).
    log = np.log(x * 0.5)
    log *= 2.0 / math.pi
    ladder[1:3, 1] += ladder[1:3, 0] * log
    ladder[2, 1] -= two_over_x / math.pi
    if beyond:
        far = (x >= _END).nonzero()[0]
        ladder[1:3, :, far] = _hankel(x[far])
    np.negative(ladder[2], out=ladder[0])
    for k in range(1, top):
        rung = ladder[k + 2]
        np.multiply(ladder[k + 1], k * two_over_x, out=rung)
        np.subtract(rung, ladder[k], out=rung)
    at = m * (2 * size) + np.arange(2 * size, 3 * size)
    out = ladder.ravel().take(at + _PICK * size)
    if low.size:
        out[::2, low] = polys[size:, :2].T * np.power(x[low] * 0.5, m_low - 1)
    return out.reshape(4, *shape)


def bessel_j(order: int, x):
    """J_order(x) for integer order in [0, 12]; x may be a scalar or array."""
    order = _check_order(order)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("bessel_j requires finite x >= 0")
    # At x = 0 the ladder's 2/x and Y are inf and NaN; J there is exact.
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


def bessel_zero(order: int, index: int) -> float:
    """index-th positive zero of J_order (index counts from 1)."""
    order = _check_order(order)
    if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
        raise DomainError(f"index must be an integer, got {index!r}")
    if index < 1 or index > MAX_ZERO_INDEX:
        raise DomainError(f"index must be in [1, {MAX_ZERO_INDEX}], got {index}")
    return float(zero_table()[order, index - 1])

"""First- and second-kind Bessel evaluations and zeros of J_m.

The membrane solvers only ever need integer orders up to 12 and arguments
below a few hundred, so the evaluation contract is narrow: |error| <= 1e-10
for J on x <= 100 and 1e-8 for Y on [1e-3, 100].  Evaluation is delegated to
scipy.special, J to jv and Y to the integer-order yn, as in the solver
kernel (both comfortably beat their bounds; the test suite checks them
against high-precision references), and zeros come from
scipy.special.jn_zeros.  scipy.special is imported on first use, so
importing the package (and the commands that never solve) stays light.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_ORDER = 12
MAX_ZERO_INDEX = 20


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise DomainError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise DomainError(f"order must be in [0, {MAX_ORDER}], got {order}")
    return int(order)


def bessel_j(order: int, x):
    """J_order(x) for integer order in [0, 12]; x may be a scalar or array."""
    from scipy import special

    order = _check_order(order)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("bessel_j requires finite x >= 0")
    out = special.jv(order, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bessel_y(order: int, x):
    """Y_order(x) for integer order in [0, 12]; diverges at the origin."""
    from scipy import special

    order = _check_order(order)
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 1e-12) or not np.all(np.isfinite(arr)):
        raise DomainError("bessel_y requires finite x > 1e-12")
    out = special.yn(order, arr)
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

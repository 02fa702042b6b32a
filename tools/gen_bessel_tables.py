"""Generate membrane_lab's Bessel tables with mpmath.

    python tools/gen_bessel_tables.py           # (re)write the tables
    python tools/gen_bessel_tables.py --check   # exit 1 unless the committed
                                                # tables match, byte for byte

Two arrays go to src/membrane_lab/data/ as .npy files:

bessel_cells.npy, shape (DEGREE + 1, CELLS + SMALL_CELLS, 4): entry [k, i]
  holds the coefficients of u^k in four polynomials on cell i.  Cell
  i < CELLS is x in [i / STEPS, (i + 1) / STEPS), u = STEPS x - i, with
  those of J_0, R_0, J_1 and R_1, where R_0 = Y_0 - (2/pi) ln(x/2) J_0 and
  R_1 = Y_1 - (2/pi) ln(x/2) J_1 + 2/(pi x) are entire (DLMF 10.8.1-2).
  Then, for each order m = 1..MAX_ORDER in turn, come the STEPS m cells of
  x in [0, m), each with the polynomials of J_m(x) / (x/2)^(m-1) and
  J_{m-1}(x) / (x/2)^(m-1), and two of zeros.
bessel_zeros.npy, shape (MAX_ORDER + 1, MAX_ZERO_INDEX): j_{m,n} at
  [m, n - 1], from mpmath.besseljzero.

Each polynomial is the function's Taylor series about the cell's left end
(TAYLOR terms, run from the Bessel equation), economised to DEGREE by
truncating its Chebyshev series on the cell, with the constant term then
set so that the polynomial is exact at the left end.  Every step runs in
DPS-digit arithmetic and each coefficient is rounded to the nearest double
once, so the output does not depend on the platform.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import mpmath
import numpy as np
from mpmath import mp, mpf

DATA = Path(__file__).resolve().parent.parent / "src" / "membrane_lab" / "data"
STEPS = 8  # cells per unit of x
DEGREE = 7
CELLS = 64 * STEPS
MAX_ORDER = 12
MAX_ZERO_INDEX = 20
TAYLOR = 14
DPS = 40
# Below this x, Y_0 and Y_1 at a cell's left end are summed from their
# series about 0; above it, carried over from the cell before.
SUMMED = 4


def economiser():
    """M with M[j][n] the coefficient of u^j in the Chebyshev series of u^n
    on [0, 1], truncated to DEGREE; exact rationals."""
    rows = [[Fraction(0)] * (TAYLOR + 1) for _ in range(DEGREE + 1)]
    for n in range(TAYLOR + 1):
        # u^n = 2^-n (1 + t)^n with t = 2u - 1; t^k in Chebyshev polynomials.
        cheb = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            for j in range(k % 2, k + 1, 2):
                weight = Fraction(comb(k, (k - j) // 2), 2 ** (k - 1 if j else k))
                cheb[j] += Fraction(comb(n, k), 2 ** n) * weight
        # Back to powers of u: T_j(2u - 1) by T_{j+1} = 2 t T_j - T_{j-1}.
        before, now = [Fraction(1)], [Fraction(-1), Fraction(2)]
        mono = [cheb[0]] + [Fraction(0)] * DEGREE
        for j in range(1, min(n, DEGREE) + 1):
            for k, c in enumerate(now):
                mono[k] += cheb[j] * c
            after = [Fraction(0)] * (len(now) + 1)
            for k, c in enumerate(now):
                after[k] -= 2 * c
                after[k + 1] += 4 * c
            for k, c in enumerate(before):
                after[k] -= c
            before, now = now, after
        for j in range(DEGREE + 1):
            rows[j][n] = mono[j]
    return [[mpf(c.numerator) / c.denominator for c in row] for row in rows]


def economise(matrix, taylor):
    """DEGREE + 1 doubles: the Taylor coefficients in t (cell offset) as a
    polynomial in u = STEPS t, economised, and exact at u = 0."""
    c = [t / mpf(STEPS) ** n for n, t in enumerate(taylor)]
    # Powers up to DEGREE are their own truncation.
    mono = [c[j] + mpmath.fdot(row[DEGREE + 1:], c[DEGREE + 1:]) for j, row in enumerate(matrix)]
    mono[0] = c[0]
    return [float(v) for v in mono]


def regular_taylor(k, a, h0, h1, terms=TAYLOR + 1):
    """Taylor coefficients about a > 0 of the solution of x h'' + (2k + 1) h'
    + x h = 0 (the Bessel equation of order k for J_k / x^k, DLMF 10.2.1)
    with h(a) = h0 and h'(a) = h1."""
    b = [mpf(h0), mpf(h1)] + [mpf(0)] * (terms - 2)
    for n in range(terms - 2):
        before = b[n - 1] if n else 0
        b[n + 2] = -((n + 1) * (n + 2 * k + 1) * b[n + 1] + a * b[n] + before) / (
            a * (n + 1) * (n + 2))
    return b


def small_series(k, terms=TAYLOR + 1):
    """Taylor coefficients about 0 of J_k(x) / (x/2)^k (DLMF 10.2.2)."""
    b = [mpf(0)] * terms
    for j in range(0, terms, 2):
        b[j] = mpf((-1) ** (j // 2)) / (
            4 ** (j // 2) * mpmath.factorial(j // 2) * mpmath.factorial(k + j // 2))
    return b


def product(p, q):
    return [mpmath.fdot(p[:n + 1], q[n::-1]) for n in range(TAYLOR + 1)]


def r_series_terms(terms):
    """Coefficients of x^n about 0 of R_0 = (2/pi) sum_k (-1)^k (gamma - H_k)
    (x/2)^(2k) / k!^2 and R_1 = -(1/pi) sum_k (-1)^k (psi(k + 1) + psi(k + 2))
    (x/2)^(2k+1) / (k! (k + 1)!), H_k the harmonic numbers (DLMF 10.8.1-2)."""
    r0, r1 = [mpf(0)] * terms, [mpf(0)] * terms
    harmonic = mpf(0)
    for k in range(terms):
        if k:
            harmonic += mpf(1) / k
        if 2 * k < terms:
            r0[2 * k] = 2 / mp.pi * (-1) ** k * (mp.euler - harmonic) / (
                4 ** k * mpmath.factorial(k) ** 2)
        if 2 * k + 1 < terms:
            # psi(k + 1) + psi(k + 2) = 2 H_k + 1/(k + 1) - 2 gamma.
            psi = 2 * harmonic + mpf(1) / (k + 1) - 2 * mp.euler
            r1[2 * k + 1] = -psi * (-1) ** k / (
                mp.pi * 2 ** (2 * k + 1) * mpmath.factorial(k) * mpmath.factorial(k + 1))
    return r0, r1


def r_values(a):
    """R_0(a) and R_1(a), summed from their series about 0."""
    q = -a * a / 4
    r0 = r1 = mpf(0)
    term, harmonic, k = mpf(1), mpf(0), 0  # term = q^k / (k! (k + 1)!)
    while True:
        r1 += (2 * harmonic + mpf(1) / (k + 1) - 2 * mp.euler) * term
        r0 += (mp.euler - harmonic) * term * (k + 1)  # q^k / k!^2
        k += 1
        harmonic += mpf(1) / k
        term *= q / (k * (k + 1))
        if abs(term) * (k + 1) * (1 + harmonic) < mpf(10) ** (-DPS):
            break
    return 2 / mp.pi * r0, -(a / 2) / mp.pi * r1


def main_cells():
    """Taylor coefficients about a = i / STEPS of J_0, R_0, J_1 and R_1, for
    each cell i in turn."""
    j0 = small_series(0, TAYLOR + 2)
    r0c, r1c = r_series_terms(TAYLOR + 1)
    yield j0[:-1], r0c, [-(n + 1) * j0[n + 1] for n in range(TAYLOR + 1)], r1c
    width = mpf(1) / STEPS
    for i in range(1, CELLS):
        a = i * width
        j0, j1 = mpmath.besselj(0, a), mpmath.besselj(1, a)
        log = 2 / mp.pi * mpmath.log(a / 2)
        if a <= SUMMED:
            r0, r1 = r_values(a)
            y0 = r0 + log * j0
            y1 = r1 + log * j1 - 2 / (mp.pi * a)
        else:
            # The cell before's Taylor series, summed at its right end; its
            # centre lies at least 32 widths from Y's singularity at 0, so
            # each omitted term is below 32^-TAYLOR of the sum.
            y0 = mpmath.fsum(c * width ** n for n, c in enumerate(y0c))
            y1 = -mpmath.fsum(n * c * width ** (n - 1) for n, c in enumerate(y0c) if n)
        # J_1 = -J_0' and Y_1 = -Y_0' (DLMF 10.6.3) take one term more of each.
        j0c = regular_taylor(0, a, j0, -j1, TAYLOR + 2)
        y0c = regular_taylor(0, a, y0, -y1, TAYLOR + 2)
        j1c = [-(n + 1) * j0c[n + 1] for n in range(TAYLOR + 1)]
        y1c = [-(n + 1) * y0c[n + 1] for n in range(TAYLOR + 1)]
        # (2/pi) ln((a + t)/2) and (2/pi) / (a + t) about t = 0.
        logc = [log] + [2 / mp.pi * (-1) ** (n + 1) / (n * a ** n) for n in range(1, TAYLOR + 1)]
        invc = [2 / mp.pi * (-1) ** n / a ** (n + 1) for n in range(TAYLOR + 1)]
        r0c = [y - v for y, v in zip(y0c, product(logc, j0c))]
        r1c = [y - v + w for y, v, w in zip(y1c, product(logc, j1c), invc)]
        yield j0c[:TAYLOR + 1], r0c, j1c, r1c


def small_cell(m, i):
    """Taylor coefficients about a = i / STEPS of J_m / (x/2)^(m-1) and
    J_{m-1} / (x/2)^(m-1)."""
    a = mpf(i) / STEPS
    if i == 0:
        h_m, h_below = small_series(m), small_series(m - 1)
    else:
        scale = (a / 2) ** (m - 1)
        j = [mpmath.besselj(k, a) / scale for k in (m - 1, m, m + 1)]
        # h_k = J_k / (x/2)^k has h_k' = -(x/2) h_{k+1} (DLMF 10.6.2).
        h_m = regular_taylor(m, a, j[1] / (a / 2), -j[2] / (a / 2))
        h_below = regular_taylor(m - 1, a, j[0], -j[1])
    # J_m / (x/2)^(m-1) = ((a + t)/2) h_m.
    half = [a / 2, mpf(1) / 2] + [mpf(0)] * (TAYLOR - 1)
    return product(half, h_m), h_below


def tables():
    mp.dps = DPS
    matrix = economiser()
    zero = [0.0] * (DEGREE + 1)
    cells = [[economise(matrix, f) for f in fs] for fs in main_cells()]
    cells += [[economise(matrix, f) for f in small_cell(m, i)] + [zero, zero]
              for m in range(1, MAX_ORDER + 1) for i in range(STEPS * m)]
    zeros = [[float(mpmath.besseljzero(m, n)) for n in range(1, MAX_ZERO_INDEX + 1)]
             for m in range(MAX_ORDER + 1)]
    return {
        "bessel_cells.npy": np.array(cells).transpose(2, 0, 1).copy(),
        "bessel_zeros.npy": np.array(zeros),
    }


def npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed tables instead of writing them")
    args = parser.parse_args(argv)
    stale = []
    for name, array in tables().items():
        path = DATA / name
        data = npy_bytes(array)
        if not args.check:
            path.write_bytes(data)
        elif not path.exists() or path.read_bytes() != data:
            stale.append(name)
    if stale:
        print("stale: " + ", ".join(stale), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

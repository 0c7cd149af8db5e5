"""Exact references computed apart from the program under test.

Nothing here imports `unisum`.  The continuous references convolve the
boxes one at a time as exact piecewise polynomials, which is a different
method from the program's vertex sums; the discrete reference counts lattice
points; the Laurent coefficients of (1/sin x)^n come from power-series
arithmetic.  Every value is an exact rational.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction


def _shift(poly, h):
    """Coefficients (low to high) of p(x + h), by repeated synthetic division."""
    b = list(poly)
    d = len(b) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            b[j] += h * b[j + 1]
    return b


def _horner(poly, x):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


class Piecewise:
    """Exact piecewise polynomial in x on sorted knots.

    polys[i] (coefficients low to high, in the global variable x) holds on
    [knots[i], knots[i+1]); the function is 0 left of knots[0] and the
    constant `right` from knots[-1] on.
    """

    def __init__(self, knots, polys, right):
        self.knots = knots
        self.polys = polys
        self.right = right

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        i = bisect_right(self.knots, x) - 1
        if i < 0:
            return Fraction(0)
        if i >= len(self.polys):
            return Fraction(self.right)
        return _horner(self.polys[i], x)

    def antiderivative(self) -> "Piecewise":
        polys = []
        acc = Fraction(0)
        for k0, k1, p in zip(self.knots, self.knots[1:], self.polys):
            q = [Fraction(0)] + [c / (e + 1) for e, c in enumerate(p)]
            q[0] = acc - _horner(q, k0)
            polys.append(q)
            acc = _horner(q, k1)
        return Piecewise(self.knots, polys, acc)


def box_convolution(pairs):
    """(density, cdf) of a sum of uniforms on [c - a, c + a], exactly.

    Each step uses g(x) = (F(x - c + a) - F(x - c - a)) / (2a), where F is
    the CDF of the partial sum so far.
    """
    pairs = [(Fraction(c), Fraction(a)) for c, a in pairs]
    c, a = pairs[0]
    dens = Piecewise([c - a, c + a], [[1 / (2 * a)]], 0)
    for c, a in pairs[1:]:
        F = dens.antiderivative()
        lo_shift, hi_shift = c - a, c + a
        knots = sorted({k + lo_shift for k in F.knots} | {k + hi_shift for k in F.knots})
        last = len(F.polys)

        def shifted(cache, i, h):
            if i not in cache:
                if i < 0:
                    cache[i] = [Fraction(0)]
                elif i >= last:
                    cache[i] = [Fraction(F.right)]
                else:
                    cache[i] = _shift(F.polys[i], -h)
            return cache[i]

        upper, lower = {}, {}
        polys = []
        scale = 1 / (2 * a)
        for s in knots[:-1]:
            A = shifted(upper, bisect_right(F.knots, s - lo_shift) - 1, lo_shift)
            B = shifted(lower, bisect_right(F.knots, s - hi_shift) - 1, hi_shift)
            width = max(len(A), len(B))
            A = A + [Fraction(0)] * (width - len(A))
            B = B + [Fraction(0)] * (width - len(B))
            polys.append([(u - v) * scale for u, v in zip(A, B)])
        dens = Piecewise(knots, polys, 0)
    return dens, dens.antiderivative()


def _product(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        if u:
            for j, v in enumerate(q):
                out[i + j] += u * v
    return out


def _piece(f: Piecewise, y):
    """Coefficients of f on the piece that holds y."""
    i = bisect_right(f.knots, y) - 1
    if i < 0:
        return [Fraction(0)]
    if i >= len(f.polys):
        return [Fraction(f.right)]
    return f.polys[i]


def split_convolution(pairs, x):
    """(density, cdf) of the sum at one point x, exactly.

    Splits the boxes into two halves A and B, builds each half's piecewise
    form by box_convolution, and integrates f_A(y) f_B(x - y) and
    f_A(y) F_B(x - y) over y piece by piece.  For generic widths this costs
    about 2^(n/2) pieces instead of the 2^n that a full piecewise form needs.
    """
    x = Fraction(x)
    pairs = [(Fraction(c), Fraction(a)) for c, a in pairs]
    half = len(pairs) // 2
    dA, _ = box_convolution(pairs[:half])
    dB, FB = box_convolution(pairs[half:])
    cuts = set(dA.knots)
    cuts.update(x - t for t in dB.knots if dA.knots[0] < x - t < dA.knots[-1])
    cuts = sorted(cuts)
    out = []
    for g in (dB, FB):
        total = Fraction(0)
        for y0, y1 in zip(cuts, cuts[1:]):
            mid = (y0 + y1) / 2
            q = _shift(_piece(g, x - mid), x)          # q(y) = g(x + y)
            r = [c if e % 2 == 0 else -c for e, c in enumerate(q)]  # g(x - y)
            prod = _product(_piece(dA, mid), r)
            anti = [Fraction(0)] + [c / (e + 1) for e, c in enumerate(prod)]
            total += _horner(anti, y1) - _horner(anti, y0)
        out.append(total)
    return out[0], out[1]


def lattice_pmf(ms):
    """{p: P(S = p)} for a sum of integer uniforms on [-m, m], by counting.

    Each leg convolves the counts with a box of 2m + 1 ones, as a running
    window sum over the counts.
    """
    counts, lo = [1], 0  # counts[i] lattice points with sum lo + i
    for m in ms:
        padded = [0] * (2 * m) + counts + [0] * (2 * m)
        window, nxt = 0, []
        for i, c in enumerate(padded):
            window += c
            if i > 2 * m:
                window -= padded[i - 2 * m - 1]
            if i >= 2 * m:
                nxt.append(window)
        counts, lo = nxt, lo - m
    total = math.prod(2 * m + 1 for m in ms)
    return {lo + i: Fraction(c, total) for i, c in enumerate(counts)}


def csc_series(n, k_max):
    """[B(n, 0), ..., B(n, k_max)]: coefficients of x^(2k) in (x / sin x)^n.

    (1/sin x)^n = x^-n (x / sin x)^n, so B(n, k) is the coefficient of
    x^(2k - n) in the Laurent expansion of (1/sin x)^n.
    """
    size = k_max + 1
    sinc = [Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(size)]
    inv = [Fraction(1)]
    for k in range(1, size):
        inv.append(-sum(sinc[i] * inv[k - i] for i in range(1, k + 1)))
    out = [Fraction(1)] + [Fraction(0)] * k_max
    for _ in range(n):
        out = [sum(out[i] * inv[k - i] for i in range(k + 1)) for k in range(size)]
    return out


def fixed(value, places: int) -> str:
    """Decimal rendering of an exact rational, rounded half to even."""
    q = round(Fraction(value) * 10 ** places)
    digits = str(abs(q)).rjust(places + 1, "0")
    text = f"{digits[:-places]}.{digits[-places:]}" if places else digits
    return "-" + text if q < 0 else text

"""Exact PMF of a sum of independent discrete uniforms on integer ranges.

Each summand X_j is uniform on the 2 m_j + 1 integers in [-m_j, m_j].  With
M = prod_j 1 / (2 m_j + 1), the mass function of the sum at an integer p is

    g_n(p) = (M / 2^(n-1)) * sum_{k=0}^{floor((n-1)/2)}
                 (-1)^k B(n, k) / (n-2k-1)!
                 * sum_{eps in {-1,1}^n} (2p + sum_j (2 m_j + 1) eps_j)_+^(n-2k-1)
                                          * prod_j eps_j,

where y_+^e = y^e * tau(y) with tau(0) = 1/2, and B(n, k) is the coefficient
of x^(2k-n) in the Laurent expansion of (1 / sin x)^n.  An equivalent form
replaces tau by the sign function and 2^(n-1) by 2^n; by the mirror
identity of the contsum module docstring it is the mean of the tau form at
p and at -p.

The sum over k is one polynomial of the model,
g(y) = sum_k (-1)^k B(n, k) y^(n-2k-1) / (n-2k-1)!, so a PMF point is one
tau sum of g_+ over the model's VertexMeasure, divided once by its norm.
g is the central factorial polynomial

    g(y) = prod_{i=1}^{n-1} (y + n - 2i) / (n - 1)!

(Riordan, Combinatorial Identities, 1968, ch. 6; Butzer, Schmidt, Stark and
Vogt, Numer. Funct. Anal. Optim. 10, 1989), so DiscreteSum._laurent expands
it from its roots 0, +-2, +-4, ... (n even) or +-1, +-3, ... (n odd) in
integers and needs no B(n, k).  csc_coefficient keeps the paper's B(n, k)
by Miller's recurrence, one row of n up to k per call; coeffs reads whole
rows.  The tests check _laurent against the power-series oracle, and
csc_coefficient against it and the paper's explicit triple sum.

Everything here is computed in exact rational arithmetic: the inputs are
integers, the Laurent coefficients are rationals, and the alternating
structure makes floating point useless at these sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .contsum import VertexMeasure, _Value, _whole

__all__ = [
    "DiscreteComponent",
    "DiscreteSum",
    "csc_coefficient",
    "pmf_n2_closed",
]


# ---------------------------------------------------------------------------
# Laurent coefficients of (1 / sin x)^n
# ---------------------------------------------------------------------------

def _csc_row(n: int, length: int) -> list:
    """A fresh row B(n, 0), B(n, 1), ..., B(n, length - 1), length >= 1.

    The row is the series of h^(-n) in y = x^2, h = sin x / x = sum_i h_i y^i
    with h_i = (-1)^i / (2i + 1)!, by J. C. P. Miller's recurrence for a
    power of a power series (Knuth, TAOCP vol. 2, 4.7), O(k) operations each:

        B(n, k) = (1/k) sum_{i=1}^{k} ((1 - n) i - k) h_i B(n, k - i).
    """
    h = [Fraction((-1) ** i, math.factorial(2 * i + 1)) for i in range(length)]
    row = [Fraction(1)]
    for k in range(1, length):
        row.append(sum(((1 - n) * i - k) * h[i] * row[k - i] for i in range(1, k + 1)) / k)
    return row


def csc_coefficient(n: int, k: int) -> Fraction:
    """Coefficient B(n, k) of x^(2k-n) in the Laurent expansion of (1/sin x)^n.

    B(n, 0) = 1, B(1, 1) = 1/6, ...  A call makes the row of n up to k anew
    (_csc_row), so a loop over k pays one row per call; coeffs reads whole
    rows.  The PMF does not read it: its Laurent sum over k is the central
    factorial polynomial of the module docstring.  n >= 1 and k >= 0 must be
    ints, not bools; anything else is a ValueError.
    """
    return _csc_row(_whole(n, "n", 1), _whole(k, "k", 0) + 1)[k]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _lattice_point(p) -> int:
    """p as an int; ValueError unless it is integral and not a bool."""
    try:
        point = p if isinstance(p, (int, Fraction)) else Fraction(p)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"p must be an integer, got {p!r}") from exc
    if point.denominator != 1 or isinstance(p, bool):
        raise ValueError(f"p must be an integer, got {p!r}")
    return point.numerator


class DiscreteComponent(_Value):
    """Uniform on the integers in [-m, m].  m = 0 is a point mass at 0."""

    __slots__ = __match_args__ = ("m",)

    def __init__(self, m: int):
        object.__setattr__(self, "m", _whole(m, "m", 0))

    @property
    def count(self) -> int:
        return 2 * self.m + 1


class DiscreteSum(_Value):
    """Sum of n independent discrete uniforms on [-m_j, m_j].  A copy or a
    pickle carries the components only, no cached constants."""

    __match_args__ = ("components",)

    def __init__(self, components: tuple):
        comps = tuple(c if isinstance(c, DiscreteComponent) else DiscreteComponent(c)
                      for c in components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("a sum needs at least one component")

    @classmethod
    def from_half_ranges(cls, ms) -> DiscreteSum:
        return cls(tuple(DiscreteComponent(m) for m in ms))

    @property
    def n(self) -> int:
        return len(self.components)

    @cached_property
    def mass_norm(self) -> Fraction:
        """M = prod_j 1 / (2 m_j + 1), the mass of one lattice point."""
        return Fraction(1, math.prod(c.count for c in self.components))

    @cached_property
    def span(self) -> int:
        """Largest attainable |sum|: the PMF vanishes for |p| > span."""
        return sum(c.m for c in self.components)

    def support(self) -> tuple:
        return (-self.span, self.span)

    @cached_property
    def _measure(self) -> VertexMeasure:
        """Vertex measure in arguments 2p - sum_j (2 m_j + 1) + key: legs 2 (2 m_j + 1),
        up to the largest exponent n - 1."""
        return VertexMeasure([2 * c.count for c in self.components], 1, self.n - 1)

    @cached_property
    def _laurent(self) -> tuple:
        """The PMF's g(y) = prod_{i=1}^{n-1} (y + n - 2i) / (n - 1)! over its norm, as
        VertexMeasure.sum takes it: the integer coefficients of
        y^[n even] prod_{r = n-2, n-4, ... > 0} (y^2 - r^2) over their gcd G, from
        y^(n-1) down, and the divisor (n - 1)! 2^(n - 1) / (G M).  The O(n^2)
        expansion runs only once the capacity rule has admitted the model."""
        n = self.n
        self._measure._admitted()  # the capacity check: CapacityError before the expansion
        coefs = [1]  # of y^0, y^2, ... in the product over r
        for r in range(n - 2, 0, -2):
            coefs = [a - r * r * b for a, b in zip([0] + coefs, coefs + [0])]
        g = math.gcd(*coefs)
        terms = tuple((n - 1 - 2 * k, c // g) for k, c in enumerate(reversed(coefs)))
        return terms, Fraction(math.factorial(n - 1) * 2 ** (n - 1), g) / self.mass_norm

    def _pmf(self, point: int) -> Fraction:
        """0 off [-span, span]; else one tau sum of the PMF polynomial, at start
        2 point - sum_j (2 m_j + 1).

        The vertex arguments are integers of the parity of n, so no zero
        argument meets the constant term (that needs odd n, whose arguments
        are odd)."""
        if abs(point) > self.span:
            return Fraction(0)
        return self._measure.sum(2 * (point - self.span) - self.n, 1, self._laurent)

    # -- public operations ---------------------------------------------------

    def pmf_tau(self, p: int) -> Fraction:
        """P(S = p) via the step-function form, as an exact rational, summed at
        -|p|: the PMF is even, and fewer arguments are positive left of the center.

        p must be integral (an int other than a bool, or a float or Fraction
        equal to one); anything else raises ValueError.
        """
        return self._pmf(-abs(_lattice_point(p)))

    def pmf_sign(self, p: int) -> Fraction:
        """P(S = p) via the sign-function form, the tau form summed at p and at -p
        and halved (the mirror identity, contsum module docstring); equals pmf_tau."""
        point = _lattice_point(p)
        return (self._pmf(point) + self._pmf(-point)) / 2

    def pmf_full(self) -> dict[int, Fraction]:
        """The whole PMF on [-span, span]; values sum to exactly 1."""
        return {p: self.pmf_tau(p) for p in range(-self.span, self.span + 1)}


def pmf_n2_closed(m1: int, m2: int, p: int) -> Fraction:
    """Two-component PMF in closed form:

        g_2(p) = (M/2) (|p + m1 + m2 + 1| - |p + m1 - m2|
                        - |p - m1 + m2| + |p - m1 - m2 - 1|).

    Equals DiscreteSum.from_half_ranges([m1, m2]).pmf_tau(p) for every
    integer p, which it reads as pmf_tau does.
    """
    m1, m2, p = _whole(m1, "m1", 0), _whole(m2, "m2", 0), _lattice_point(p)
    M = Fraction(1, (2 * m1 + 1) * (2 * m2 + 1))
    return M * Fraction(
        abs(p + m1 + m2 + 1) - abs(p + m1 - m2) - abs(p - m1 + m2)
        + abs(p - m1 - m2 - 1),
        2,
    )

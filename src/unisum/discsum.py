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
B(n, k) comes from Miller's recurrence for a power of a power series
(csc_coefficient); the paper's explicit triple sum is kept as the reference
of the tests.

Everything here is computed in exact rational arithmetic: the inputs are
integers, the Laurent coefficients are rationals, and the alternating
structure makes floating point useless at these sizes.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import cached_property

from .contsum import VertexMeasure, _Value

__all__ = [
    "DiscreteComponent",
    "DiscreteSum",
    "csc_coefficient",
    "pmf_n2_closed",
]


# ---------------------------------------------------------------------------
# Laurent coefficients of (1 / sin x)^n
# ---------------------------------------------------------------------------

_ROWS: dict[int, list] = {}  # n -> [B(n, 0), B(n, 1), ...], the longest row made so far
_ROWS_LOCK = threading.Lock()


def _csc_row(n: int, length: int) -> list:
    """The cached row B(n, 0), B(n, 1), ... of n, grown under a lock to at least length.

    The row is the series of h^(-n) in y = x^2, h = sin x / x = sum_i h_i y^i
    with h_i = (-1)^i / (2i + 1)!, by J. C. P. Miller's recurrence for a
    power of a power series (Knuth, TAOCP vol. 2, 4.7), O(k) operations each:

        B(n, k) = (1/k) sum_{i=1}^{k} ((1 - n) i - k) h_i B(n, k - i).

    A row only grows, so its first length entries are read without the lock.
    """
    with _ROWS_LOCK:
        row = _ROWS.setdefault(n, [Fraction(1)])
        if len(row) < length:
            h = [Fraction((-1) ** i, math.factorial(2 * i + 1)) for i in range(length)]
            for k in range(len(row), length):
                row.append(sum(((1 - n) * i - k) * h[i] * row[k - i]
                               for i in range(1, k + 1)) / k)
    return row


def csc_coefficient(n: int, k: int) -> Fraction:
    """Coefficient B(n, k) of x^(2k-n) in the Laurent expansion of (1/sin x)^n.

    B(n, 0) = 1, B(1, 1) = 1/6, ...  The PMF's Laurent sum over k is one
    polynomial with these coefficients (DiscreteSum._laurent).  Read from the
    row of n that Miller's recurrence grows (_csc_row), cached and shared
    between threads; the paper's explicit triple sum, equal to it, is the
    reference of the tests.  n >= 1 and k >= 0 must be ints, not bools;
    anything else is a ValueError.
    """
    for name, v, least in (("n", n, 1), ("k", k, 0)):
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
    return _csc_row(n, k + 1)[k]


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
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"m must be an integer, got {m!r}")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        object.__setattr__(self, "m", m)

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
        return VertexMeasure([2 * c.count for c in self.components], self.n - 1)

    @cached_property
    def _laurent(self) -> tuple:
        """The PMF's g(y) = sum_k (-1)^k B(n, k) y^e / e!, e = n - 2k - 1, over its
        norm, as VertexMeasure.sum takes it: integer coefficients, times the lcm L
        of their denominators, and the divisor L 2^(n - 1) / M.  The row of
        B(n, k) is made only once the capacity rule has admitted the model."""
        n = self.n
        self._measure._plans  # the capacity check: CapacityError before the row is made
        row = _csc_row(n, (n - 1) // 2 + 1)
        coefs = [(n - 2 * k - 1, (-1) ** k * row[k] / math.factorial(n - 2 * k - 1))
                 for k in range((n - 1) // 2 + 1)]
        scale = math.lcm(*(c.denominator for _, c in coefs))
        terms = tuple((e, c.numerator * (scale // c.denominator)) for e, c in coefs)
        return terms, scale * 2 ** (n - 1) / self.mass_norm

    def _pmf(self, point: int) -> Fraction:
        """One tau sum of the Laurent polynomial, at start 2 point - sum_j (2 m_j + 1).

        The vertex arguments are integers of the parity of n, so no zero
        argument meets the constant term (that needs odd n, whose arguments
        are odd)."""
        return self._measure.sum(2 * (point - self.span) - self.n, 1, self._laurent)

    # -- public operations ---------------------------------------------------

    def pmf_tau(self, p: int) -> Fraction:
        """P(S = p) via the step-function form, as an exact rational.

        p must be integral (an int other than a bool, or a float or Fraction
        equal to one); anything else raises ValueError.
        """
        return self._pmf(_lattice_point(p))

    def pmf_sign(self, p: int) -> Fraction:
        """P(S = p) via the sign-function form, the mean of the tau form at p
        and -p (the mirror identity, contsum module docstring); equals pmf_tau."""
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
    integer p.
    """
    for name, m in (("m1", m1), ("m2", m2)):
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {m!r}")
    M = Fraction(1, (2 * m1 + 1) * (2 * m2 + 1))
    return M * Fraction(
        abs(p + m1 + m2 + 1) - abs(p + m1 - m2) - abs(p - m1 + m2)
        + abs(p - m1 - m2 - 1),
        2,
    )

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
p and at -p.  The vertex sums are tau sums over the model's VertexMeasure.

Everything here is computed in exact rational arithmetic: the inputs are
integers, the Laurent coefficients are rationals, and the alternating
structure makes floating point useless at these sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, Iterable

from .contsum import VertexMeasure

__all__ = [
    "DiscreteComponent",
    "DiscreteSum",
    "csc_coefficient",
    "pmf_n2_closed",
]


# ---------------------------------------------------------------------------
# Laurent coefficients of (1 / sin x)^n
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _csc_coefficient(n: int, k: int) -> Fraction:
    comb = math.comb
    total = Fraction(0)
    for m in range(2 * k + 1):
        inner = sum((-1) ** r * comb(m, r) * (2 * r - m) ** (2 * k + m)
                    for r in range(m + 1))
        total += Fraction(n, n + m) * comb(2 * k, m) \
            * Fraction(inner, 2 ** m * math.factorial(2 * k + m))
    return (-1) ** k * comb(n + 2 * k, n) * total


def csc_coefficient(n: int, k: int) -> Fraction:
    """Coefficient of x^(2k-n) in the Laurent expansion of (1/sin x)^n.

    Computed by the explicit finite triple sum

        B(n, k) = (-1)^k C(n+2k, n) sum_{m=0}^{2k} [n/(n+m)] C(2k, m)
                  / (2^m (2k+m)!) * sum_{r=0}^{m} (-1)^r C(m, r) (2r-m)^(2k+m)

    whose internal alternating sign makes the result the plain series
    coefficient (B(n, 0) = 1, B(1, 1) = 1/6, ...).  Values are memoized in
    an lru_cache; the value is a pure function of (n, k), so concurrent first
    computations agree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return _csc_coefficient(n, k)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _lattice_point(p) -> int:
    """p as an int; ValueError unless it is integral."""
    try:
        point = Fraction(p)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"p must be an integer, got {p!r}") from exc
    if point.denominator != 1:
        raise ValueError(f"p must be an integer, got {p!r}")
    return point.numerator


@dataclass(frozen=True)
class DiscreteComponent:
    """Uniform on the integers in [-m, m].  m = 0 is a point mass at 0."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")

    @property
    def count(self) -> int:
        return 2 * self.m + 1


@dataclass(frozen=True)
class DiscreteSum:
    """Sum of n independent discrete uniforms on [-m_j, m_j]."""

    components: tuple

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, DiscreteComponent) else DiscreteComponent(c)
            for c in self.components
        )
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("a sum needs at least one component")

    @classmethod
    def from_half_ranges(cls, ms: Iterable[int]) -> "DiscreteSum":
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

    def _pmf(self, point: int) -> Fraction:
        """The outer Laurent sum over k of the tau sums with exponent n-2k-1.

        The vertex arguments are integers of the parity of n, so the tau
        weight never meets a zero argument with exponent 0 (that needs odd
        n, whose arguments are odd).
        """
        n = self.n
        start = 2 * point - sum(c.count for c in self.components)
        total = Fraction(0)
        for k in range((n - 1) // 2 + 1):
            e = n - 2 * k - 1
            s = self._measure.sum(start, e)
            if s:
                total += (-1) ** k * csc_coefficient(n, k) * s / math.factorial(e)
        return self.mass_norm / 2 ** (n - 1) * total

    # -- public operations ---------------------------------------------------

    def pmf_tau(self, p: int) -> Fraction:
        """P(S = p) via the step-function form, as an exact rational.

        p must be integral (an int, or a float or Fraction equal to one);
        anything else raises ValueError.
        """
        return self._pmf(_lattice_point(p))

    def pmf_sign(self, p: int) -> Fraction:
        """P(S = p) via the sign-function form, the mean of the tau form at p
        and -p (the mirror identity, contsum module docstring); equals pmf_tau."""
        point = _lattice_point(p)
        return (self._pmf(point) + self._pmf(-point)) / 2

    def pmf_full(self) -> Dict[int, Fraction]:
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

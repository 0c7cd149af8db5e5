"""Shared exception types and the global capacity limit on the vertex measure."""

# The capacity rule, stated here once.  Vertex sums, breakpoints() and the
# batch paths check what they would build and do against MEASURE_MAX before
# anything is built, and raise CapacityError with the size if it does not
# fit.  A merged vertex measure has at most min(prod over distinct integer
# legs of (multiplicity + 1), sum of legs + 1) entries, the legs 2 a_j (or,
# on the lattice of a discrete model, 2 m_j + 1) counted in units of their
# common denominator.
# * A vertex sum splits the legs into A and B and builds A's measure and,
#   unless B is trivial, B's measure with a moment table of top exponent + 1
#   columns: A's bound plus B's bound times (top exponent + 2) must fit.  If
#   A is all of them (the direct loop), nothing more is built, but each point
#   raises every entry to a power (or falling factorial) of up to the top
#   exponent: A's bound times (top exponent + 1) must fit.  Only fitting
#   splits are taken, and a model drops a split's parts when it moves on;
#   with none, the first density, CDF or PMF is refused, naming the
#   smallest size.  1,023 identical components are
#   admitted, 1,024 refused (1025 * 1025 continuous, 1025 * 1024 discrete).
#   29 generic continuous widths (2**14 + 2**15 * 31 entries) take 0.5 to
#   0.8 s to the first exact cdf and 165 to 170 MB of peak RSS; 30 are refused.
# * breakpoints() builds the whole measure, whose bound must fit: refused
#   from 21 generic widths on (2**20 generic entries take about 2.5 s and
#   230 MB of peak RSS).
# * The batch paths build the whole measure and a piece table, the Taylor
#   coefficients of the CDF and density about the ceil(K / 2) keys from lo
#   to the center, and keep the exact CDF rows they round,
#   ceil(K / 2) * (n + 1) integers, for quantile: the bound times (n + 2)
#   must fit, which admits 15 generic widths and refuses 16 (2**16 * 18
#   entries).  At 15, both batch paths on 3,000 points take 0.6 to 0.9 s and
#   72 MB of peak RSS (0.8 to 1.2 s and 90 MB while the density was rounded
#   from exact coefficients of its own, 108 MB while the table held every key).
# * support, moments and sampling never build the measure and work at any n.
# Timings on CPython 3.11, a 2-core x86-64 machine.
MEASURE_MAX = 2 ** 20


class CapacityError(ValueError):
    """An operation would exceed a documented size limit.

    For vertex sums, breakpoints() and the batch paths, that limit is the
    capacity rule stated once above MEASURE_MAX.
    """


class ModeError(ValueError):
    """An evaluation mode cannot represent the given input exactly."""

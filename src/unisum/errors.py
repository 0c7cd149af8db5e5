"""Shared exception types and the global capacity limit on the vertex measure."""

# Size budget of what a vertex sum builds.  Before anything is built, the
# entries of a merged vertex measure are bounded by min(prod over distinct
# integer legs of (multiplicity + 1), sum of legs + 1).  A vertex sum builds
# the measure of one group of legs A, and unless that is all of them, the
# measure of the rest B with its moment table of (top exponent + 1) columns;
# the sum of those bounds must not exceed MEASURE_MAX.  breakpoints() builds
# the whole measure, whose bound must not exceed it either.  The batch paths
# build the whole measure and a piece table from it, Taylor coefficients of
# the CDF and density about each key, counted like a moment table: the
# bound times (n + 2) must not exceed MEASURE_MAX, which refuses 16 generic
# widths (2**16 * 18 entries) and admits 15.
# 29 generic continuous widths (2**14 + 2**15 * 31 entries) are admitted and
# take about 0.8 s to the first exact cdf and 175 MB of peak RSS; 30 are
# refused.  A generic whole measure of 2**20 entries takes about 2.5 s and
# 230 MB of peak RSS (both on CPython 3.11, a 2-core x86-64 machine).
MEASURE_MAX = 2 ** 20


class CapacityError(ValueError):
    """An operation would exceed a documented size limit.

    Vertex sums raise it when no split of the vertex measure fits
    MEASURE_MAX entries: A's measure plus B's measure and moment table.
    breakpoints() raises it when the whole merged measure's bound exceeds
    MEASURE_MAX, and the batch paths when that bound times n + 2, the size
    of their piece table, does.  The message gives the size, and it is
    raised before any entry is built.
    """


class ModeError(ValueError):
    """An evaluation mode cannot represent the given input exactly."""

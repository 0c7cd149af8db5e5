"""Shared exception types and the global capacity limit on the vertex measure."""

# Size budget of a vertex measure.  Before a measure is built, its size is
# bounded by min(prod over distinct integer legs of (multiplicity + 1),
# sum of legs + 1); a model whose bound exceeds MEASURE_MAX is refused.
# A generic build of 2**20 entries takes about 2.5 s and 230 MB of peak RSS
# (CPython 3.11 on a 2-core x86-64 machine).
MEASURE_MAX = 2 ** 20


class CapacityError(ValueError):
    """An operation would exceed a documented size limit.

    Vertex sums raise it when the bound on the merged vertex measure exceeds
    MEASURE_MAX entries; the message gives the bound.
    """


class ModeError(ValueError):
    """An evaluation mode cannot represent the given input exactly."""

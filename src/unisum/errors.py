"""Shared exception types and the global capacity limit on the number of summands."""

# Hard cap on the number of summands of a model.  Its vertex measure has up to
# 2**n entries when no widths merge; 2**24 is the largest still reasonable to
# build on a desktop, and beyond that the closed form is the wrong tool.
N_MAX = 24


class CapacityError(ValueError):
    """An operation would exceed a documented size limit (e.g. 2**n terms)."""


class ModeError(ValueError):
    """An evaluation mode cannot represent the given input exactly."""

"""Value semantics of the model and result types: equality, hashing, repr,
immutability, and copies and pickles of evaluated models."""

import copy
import pickle
from fractions import Fraction as F

import numpy as np
import pytest

from unisum import (
    EXACT,
    ContinuousComponent,
    ContinuousSum,
    DiscreteComponent,
    DiscreteSum,
    EvalMode,
    EvalResult,
)


def _evaluated(model, call):
    call(model)
    return model


def _continuous():
    return ContinuousSum.from_pairs([(0, 1), (F(1, 3), F(1, 2)), (-1, 2)])


def _discrete():
    return DiscreteSum.from_half_ranges([1, 2, 4])


VALUES = {
    "component": lambda: ContinuousComponent(F(1, 3), "0.25"),
    "mode": lambda: EvalMode("float", report_condition=False),
    "exact-result": lambda: EvalResult(F(1, 2)),
    "float-result": lambda: EvalResult(0.25, 1.0),
    "discrete-component": lambda: DiscreteComponent(3),
    "continuous": _continuous,
    "continuous-after-cdf": lambda: _evaluated(_continuous(), lambda s: s.cdf(0)),
    "continuous-after-breakpoints": lambda: _evaluated(_continuous(), ContinuousSum.breakpoints),
    "continuous-after-density_batch":
        lambda: _evaluated(_continuous(), lambda s: s.density_batch(np.linspace(-4, 4, 9))),
    "discrete": _discrete,
    "discrete-after-pmf_tau": lambda: _evaluated(_discrete(), lambda d: d.pmf_tau(0)),
}


@pytest.mark.parametrize("duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_copy_equals_original(make, duplicate):
    value = make()
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    if isinstance(value, ContinuousSum):
        assert "_measure" not in vars(twin)  # the components only, no caches
        assert twin.cdf(F(1, 3)).value == value.cdf(F(1, 3)).value
    if isinstance(value, DiscreteSum):
        assert "_measure" not in vars(twin)
        assert twin.pmf_tau(1) == value.pmf_tau(1)


def test_repr_matches_the_field_form():
    assert repr(ContinuousSum.from_pairs([(0, 1)])) == (
        "ContinuousSum(components=(ContinuousComponent(center=Fraction(0, 1), "
        "half_width=Fraction(1, 1)),))")
    assert repr(EXACT) == "EvalMode(kind='exact', report_condition=True)"
    assert repr(EvalResult(F(1, 2))) == (
        "EvalResult(value=Fraction(1, 2), condition_estimate=None)")
    assert repr(DiscreteSum.from_half_ranges([1])) == (
        "DiscreteSum(components=(DiscreteComponent(m=1),))")


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_fields_are_frozen(make):
    value = make()
    for name in value.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert value == make()


def test_keyword_construction():
    assert ContinuousComponent(center=0, half_width=1) == ContinuousComponent(0, 1)
    assert EvalMode(kind="float", report_condition=False) == EvalMode("float", False)
    assert EvalResult(value=F(1), condition_estimate=None) == EvalResult(F(1))
    assert DiscreteComponent(m=2) == DiscreteComponent(2)
    assert ContinuousSum(components=[(0, 1)]) == ContinuousSum.from_pairs([(0, 1)])
    assert DiscreteSum(components=[2]) == DiscreteSum.from_half_ranges([2])


def test_never_equal_to_a_tuple_of_fields():
    assert EvalResult(1) != (1, None)
    assert ContinuousComponent(0, 1) != (F(0), F(1))
    assert EXACT != ("exact", True)
    assert DiscreteComponent(1) != (1,)
    assert DiscreteSum.from_half_ranges([1]) != (DiscreteComponent(1),)
    assert EvalMode("exact") == EXACT and EvalMode("float") != EXACT
    assert len({EvalResult(F(1, 2)), EvalResult(F(1, 2)), EvalResult(0.5)}) == 1

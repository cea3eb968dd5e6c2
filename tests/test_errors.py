import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetasym.errors import (
    ValidationError,
    integer_at_least,
    non_negative,
    positive,
    unit_interval,
)

#: Each rule with its interval, spelled through math.isfinite so that the
#: oracle shares no comparison chain with the rule.
INTERVALS = [
    (positive, lambda v: math.isfinite(v) and v > 0.0),
    (non_negative, lambda v: math.isfinite(v) and v >= 0.0),
    (unit_interval, lambda v: math.isfinite(v) and v > 0.0 and v <= 1.0),
]


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
       st.integers(-3, 3))
@example(math.nan, 0)
@example(math.inf, 0)
@example(-math.inf, 0)
@example(-0.0, 0)
@example(5e-324, 0)
@example(-5e-324, 0)
@example(math.nextafter(1.0, 2.0), 1)
@example(2.5, 2)
def test_rules_accept_exactly_their_interval(value, minimum):
    for rule, inside in INTERVALS:
        if inside(value):
            assert rule("v", value) is value
        else:
            with pytest.raises(ValidationError, match=r"^v must "):
                rule("v", value)
    if math.isfinite(value) and value.is_integer() and value >= minimum:
        result = integer_at_least("n", value, minimum)
        assert type(result) is int and result == value
    else:
        with pytest.raises(ValidationError, match=rf"^n must be an integer >= {minimum}, "):
            integer_at_least("n", value, minimum)


@pytest.mark.parametrize("value", ["3", None, [1, 2]])
def test_integer_rule_rejects_non_numbers(value):
    with pytest.raises(ValidationError, match="n must be an integer"):
        integer_at_least("n", value, 0)

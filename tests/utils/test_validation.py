"""Tests for argument validators."""

import re

import pytest

from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        check_probability(value, "p")

    @pytest.mark.parametrize("value", [-0.01, 1.01, 2, float("nan")])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"p must be in [0, 1], got {value!r}")):
            check_probability(value, "p")


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive(0.1, "x")

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects(self, value):
        with pytest.raises(ValueError,
                           match=f"x must be positive, got {value}"):
            check_positive(value, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError,
                           match="x must be non-negative, got -0.5"):
            check_non_negative(-0.5, "x")

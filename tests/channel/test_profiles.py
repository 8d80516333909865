"""Tests for named channel profiles."""

import pytest

from repro.channel import (
    enzymatic_synthesis_profile,
    illumina_profile,
    nanopore_profile,
)

PROFILES = [illumina_profile, nanopore_profile, enzymatic_synthesis_profile]


class TestProfiles:
    def test_illumina_is_low_error_sub_dominated(self):
        model = illumina_profile()
        assert model.total_rate <= 0.02
        indel_fraction = (model.p_insertion + model.p_deletion) / model.total_rate
        assert 0.25 <= indel_fraction <= 0.30  # the paper's NGS breakdown

    def test_nanopore_is_high_error_indel_dominated(self):
        model = nanopore_profile()
        assert 0.12 <= model.total_rate <= 0.15
        indel_fraction = (model.p_insertion + model.p_deletion) / model.total_rate
        assert indel_fraction > 0.60

    def test_enzymatic_is_very_noisy(self):
        model = enzymatic_synthesis_profile()
        assert model.total_rate >= 0.30
        assert model.p_insertion + model.p_deletion > model.p_substitution

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.__name__)
    @pytest.mark.parametrize("rate", [0.0, 0.003, 0.30])
    def test_rates_are_scalable(self, profile, rate):
        assert profile(rate).total_rate == pytest.approx(rate)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.__name__)
class TestEveryProfile:
    def test_breakdown_is_rate_independent(self, profile):
        low, high = profile(0.01), profile(0.1)
        for name in ("p_insertion", "p_deletion", "p_substitution"):
            assert getattr(high, name) == pytest.approx(10 * getattr(low, name))

    def test_rejects_rate_outside_unit_interval(self, profile):
        with pytest.raises(ValueError, match="total_rate"):
            profile(1.5)

"""Edge-count law construction, validation, and sampling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefattach.errors import (
    EmptyLaw,
    NonPositiveSupport,
    NotNormalized,
    ParseError,
)
from prefattach.laws import (
    EdgeCountDistribution,
    deterministic,
    explicit,
    geometric,
    validate_edge_law,
)
from prefattach.streams import substream


class TestConstruction:
    def test_deterministic_mean_equals_the_fixed_count(self):
        assert deterministic(1).mean == 1.0
        assert deterministic(3).mean == 3.0

    def test_two_point_half_half_has_mean_one_and_a_half(self):
        law = explicit([0.5, 0.5])
        assert law.mean == 1.5
        assert law.pmf_vector(1)[1] == 0.5
        assert law.pmf_vector(2)[2] == 0.5
        assert law.pmf_vector(3)[3] == 0.0

    def test_geometric_mean_is_reciprocal_parameter(self):
        law = geometric(0.5)
        assert law.mean == 2.0
        assert law.pmf_vector(1)[1] == 0.5
        assert law.pmf_vector(3)[3] == 0.125

    def test_geometric_parameter_one_is_always_one_edge(self):
        law = geometric(1.0)
        assert law.mean == 1.0
        assert law.pmf_vector(1)[1] == 1.0
        assert law.pmf_vector(2)[2] == 0.0

    def test_pmf_vector_places_mass_at_positive_indices(self):
        vec = explicit([0.5, 0.5]).pmf_vector(4)
        assert vec.tolist() == [0.0, 0.5, 0.5, 0.0, 0.0]
        det = deterministic(3).pmf_vector(4)
        assert det.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]

    def test_explicit_strips_trailing_zero_mass(self):
        assert explicit([0.5, 0.5, 0.0]).probs == (0.5, 0.5)

    def test_explicit_renormalizes_tiny_rounding_slack(self):
        law = explicit([0.25, 0.75 + 5e-10])
        assert sum(law.probs) == pytest.approx(1.0, abs=1e-15)


class TestValidation:
    def test_accepts_int_string_mapping_sequence_and_instance(self):
        by_int = validate_edge_law(2)
        by_str = validate_edge_law("det:2")
        assert by_int.mean == by_str.mean == 2.0
        by_map = validate_edge_law({1: 0.5, 2: 0.5})
        by_json_map = validate_edge_law({"1": 0.5, "2": 0.5})  # JSON object keys
        by_seq = validate_edge_law([0.5, 0.5])
        assert by_map.mean == by_json_map.mean == by_seq.mean == 1.5
        law = geometric(0.25)
        assert validate_edge_law(law) is law

    def test_string_forms_round_trip_through_label(self):
        for text in ("det:2", "geom:0.5", "explicit:0.5,0.5"):
            assert validate_edge_law(text).label() == text

    def test_mass_at_zero_is_rejected(self):
        with pytest.raises(NonPositiveSupport):
            validate_edge_law({0: 0.3, 1: 0.7})

    def test_negative_support_is_rejected(self):
        with pytest.raises(NonPositiveSupport):
            validate_edge_law({-1: 0.5, 1: 0.5})

    def test_zero_edge_count_is_rejected(self):
        with pytest.raises(NonPositiveSupport):
            validate_edge_law("det:0")

    def test_empty_law_is_rejected(self):
        with pytest.raises(EmptyLaw):
            validate_edge_law([])
        with pytest.raises(EmptyLaw):
            validate_edge_law("explicit:")

    def test_unnormalized_probabilities_are_rejected(self):
        with pytest.raises(NotNormalized):
            validate_edge_law([0.5, 0.6])

    def test_geometric_parameter_outside_unit_interval_is_rejected(self):
        with pytest.raises(ParseError):
            validate_edge_law("geom:0")
        with pytest.raises(ParseError):
            validate_edge_law("geom:1.5")

    @pytest.mark.parametrize("key", [2.5, 2.0, np.float64(1.0), True])
    def test_non_integer_mapping_keys_are_parse_errors(self, key):
        with pytest.raises(ParseError):
            validate_edge_law({key: 1.0})

    def test_unknown_kind_and_garbage_numbers_are_parse_errors(self):
        with pytest.raises(ParseError):
            validate_edge_law("foo:1")
        with pytest.raises(ParseError):
            validate_edge_law("det:abc")


class TestSampling:
    def test_deterministic_samples_are_constant(self):
        rng = substream(7, 0)
        draws = deterministic(2).sample(rng, 1000)
        assert np.all(draws == 2)

    def test_explicit_sample_mean_matches_law_mean(self):
        rng = substream(7, 1)
        law = explicit([0.5, 0.5])
        draws = law.sample(rng, 200_000)
        # sd of the sample mean is 0.5 / sqrt(N)
        assert abs(draws.mean() - 1.5) < 4 * 0.5 / np.sqrt(draws.size)
        assert set(np.unique(draws)) == {1, 2}

    def test_geometric_sample_mean_matches_law_mean(self):
        rng = substream(7, 2)
        law = geometric(0.5)
        draws = law.sample(rng, 200_000)
        # Var = (1-q)/q^2 = 2 for q = 0.5
        assert abs(draws.mean() - 2.0) < 4 * np.sqrt(2.0 / draws.size)
        assert draws.min() >= 1

    def test_three_point_explicit_sample_matches_its_table(self):
        law = explicit([0.25, 0.5, 0.25])
        draws = law.sample(substream(7, 3), 50_000)
        freqs = np.bincount(draws, minlength=4)[1:] / draws.size
        # sd of each frequency is at most 0.5 / sqrt(N) ~ 0.0022
        assert np.abs(freqs - [0.25, 0.5, 0.25]).max() < 0.01
        assert draws.dtype == np.int64


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=6,
    )
)
def test_any_normalized_positive_vector_is_a_valid_law(weights):
    total = sum(weights)
    probs = [w / total for w in weights]
    law = validate_edge_law(probs)
    assert isinstance(law, EdgeCountDistribution)
    assert law.mean == pytest.approx(
        sum((j + 1) * p for j, p in enumerate(probs)), rel=1e-12
    )
    assert law.mean >= 1.0
    vec = law.pmf_vector(len(probs) + 2)
    assert vec[0] == 0.0
    assert vec.sum() == pytest.approx(1.0, abs=1e-12)

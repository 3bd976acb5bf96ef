"""Run-configuration parsing: defaults, file/flag precedence, validation."""

import json
import re
from pathlib import Path

import pytest

from prefattach.cli import _config_from_args, build_parser
from prefattach.config import RUN_KEYS, parse_config
from prefattach.errors import RangeError
from prefattach.theory import MAX_J_MAX


class TestDefaults:
    def test_minimal_input_fills_every_default(self):
        cfg = parse_config(None, {"law": "det:1", "beta": 0, "n": 1000})
        assert cfg.model.seed == 0
        assert cfg.model.record_stride == 1  # max(1, n // 1000)
        assert cfg.model.probe_vertices == (1, 2)
        assert cfg.replications == 1
        assert cfg.parallelism == 1
        assert cfg.out_dir == "results"
        assert cfg.j_max == 200
        assert cfg.profile == "full"

    def test_stride_default_scales_with_run_length(self):
        cfg = parse_config(None, {"law": "det:1", "n": 5000})
        assert cfg.model.record_stride == 5


class TestPrecedence:
    def test_flags_override_file_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"law": "geom:0.5", "n": 50, "seed": 9}))
        cfg = parse_config(str(path), {"n": 75, "seed": None})
        assert cfg.model.edge_law.label() == "geom:0.5"  # from file
        assert cfg.model.n == 75  # flag wins
        assert cfg.model.seed == 9  # None flag defers to the file

    def test_probe_lists_accept_comma_strings(self):
        cfg = parse_config(None, {"law": "det:1", "probes": "3,4"})
        assert cfg.model.probe_vertices == (3, 4)

    def test_thresholds_pass_through(self):
        cfg = parse_config(None, {"law": "det:1", "thresholds": {"degree-lln": 0.5}})
        assert cfg.thresholds == {"degree-lln": 0.5}


class TestValidation:
    def test_unknown_keys_name_their_field(self):
        with pytest.raises(RangeError) as err:
            parse_config(None, {"law": "det:1", "bogus_key": 1})
        assert err.value.field == "run.bogus_key"

    def test_malformed_json_names_the_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(RangeError) as err:
            parse_config(str(path), {})
        assert err.value.field == "config"

    def test_negative_offset_reports_its_field_path(self):
        with pytest.raises(RangeError) as err:
            parse_config(None, {"law": "det:1", "beta": -1})
        assert err.value.field == "model.beta"

    def test_replication_count_floor(self):
        with pytest.raises(RangeError) as err:
            parse_config(None, {"law": "det:1", "reps": 0})
        assert err.value.field == "run.reps"

    def test_unknown_profile_is_rejected(self):
        with pytest.raises(RangeError) as err:
            parse_config(None, {"law": "det:1", "profile": "nope"})
        assert err.value.field == "run.profile"

    @pytest.mark.parametrize(
        ("overrides", "field"),
        [
            # the bounds themselves are TestRunKeyTable's generated rows
            ({"quad_steps": 5}, "run.quad_steps"),
            ({"ymax": float("nan")}, "run.ymax"),
            ({"fit_j_min": 40, "fit_j_max": 30}, "run.fit_j_max"),
            ({"fit_j_min": 30, "fit_j_max": 30}, "run.fit_j_max"),
            ({"seed": 2**64 + 5}, "run.seed"),
            ({"jmax": 10**11}, "run.jmax"),
        ],
    )
    def test_out_of_range_run_keys_name_their_field(self, overrides, field):
        with pytest.raises(RangeError) as err:
            parse_config(None, {"law": "det:1", **overrides})
        assert err.value.field == field

    @pytest.mark.parametrize(
        ("overrides", "field"),
        [
            ({"n": "abc"}, "run.n"),
            ({"n": True}, "run.n"),
            ({"n": 10.5}, "run.n"),
            ({"n": [10]}, "run.n"),
            ({"parallelism": 2.7}, "run.parallelism"),
            ({"reps": True}, "run.reps"),
            ({"stride": "2x"}, "run.stride"),
            ({"jmax": 100.5}, "run.jmax"),
            ({"quad_steps": {}}, "run.quad_steps"),
            ({"fit_j_min": "3.5"}, "run.fit_j_min"),
            ({"fit_j_max": 30.01}, "run.fit_j_max"),
            ({"beta": "one"}, "run.beta"),
            ({"beta": True}, "run.beta"),
            ({"ymax": "high"}, "run.ymax"),
            ({"probes": [1, 2.5]}, "run.probes"),
            ({"probes": [1, True]}, "run.probes"),
            ({"probes": "1,x"}, "run.probes"),
            ({"probes": 3}, "run.probes"),
        ],
    )
    def test_mistyped_numbers_name_their_field(self, overrides, field):
        with pytest.raises(RangeError) as err:
            parse_config(None, {"law": "det:1", **overrides})
        assert err.value.field == field

    def test_mistyped_file_values_name_their_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"law": "det:1", "parallelism": 2.7}))
        with pytest.raises(RangeError) as err:
            parse_config(str(path), {})
        assert err.value.field == "run.parallelism"

    def test_integral_numbers_convert_exactly(self):
        cfg = parse_config(
            None,
            {"n": 2000.0, "seed": "7", "reps": "1e1", "beta": 1, "ymax": "0.5", "probes": [3.0, 4]},
        )
        assert (cfg.model.n, cfg.model.seed, cfg.replications) == (2000, 7, 10)
        assert type(cfg.model.n) is int and type(cfg.replications) is int
        assert (cfg.model.beta, cfg.y_max) == (1.0, 0.5)
        assert type(cfg.model.beta) is float
        assert cfg.model.probe_vertices == (3, 4)

    def test_range_edges_are_accepted(self):
        cfg = parse_config(
            None, {"quad_steps": 1000, "ymax": 0, "fit_j_min": 1, "fit_j_max": 2}
        )
        assert (cfg.quad_steps, cfg.y_max, cfg.fit_j_min, cfg.fit_j_max) == (1000, 0.0, 1, 2)
        for seed in (0, 2**64 - 1):
            assert parse_config(None, {"seed": seed}).model.seed == seed
        assert parse_config(None, {"jmax": MAX_J_MAX}).j_max == MAX_J_MAX

    def test_horizon_is_no_longer_a_config_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"law": "det:1", "horizon": 8.0}))
        with pytest.raises(RangeError) as err:
            parse_config(str(path), {})
        assert err.value.field == "run.horizon"

    @pytest.mark.parametrize(
        ("data", "field"),
        [
            ({"n": None}, "run.n"),
            ({"reps": None}, "run.reps"),
            ({"jmax": None}, "run.jmax"),
            ({"beta": None}, "run.beta"),
            ({"out": None}, "run.out"),
            ({"out": ""}, "run.out"),
            ({"n": 10, "probes": [1, 13]}, "run.probes"),
            ({"law": None}, "run.law"),
            ({"law": 2.5}, "run.law"),
            ({"law": True}, "run.law"),
            ({"law": {"a": 1}}, "run.law"),
            ({"law": ["x"]}, "run.law"),
            ({"law": "explicit:-1,2"}, "run.law"),
            ({"law": "explicit:0.3,0.3"}, "run.law"),
            ({"law": "det:0"}, "run.law"),
            ({"law": "explicit:"}, "run.law"),
            ({"law": "explicit:nan,1"}, "run.law"),
            ({"law": "explicit:inf,1"}, "run.law"),
        ],
    )
    def test_null_and_unreadable_file_values_name_their_field(self, tmp_path, data, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(RangeError) as err:
            parse_config(str(path), {})
        assert err.value.field == field
        assert str(err.value).startswith(f"{field}: ")

    def test_null_is_the_default_where_the_default_is_null(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 5000, "stride": None, "ymax": None}))
        cfg = parse_config(str(path), {})
        assert (cfg.model.record_stride, cfg.y_max) == (5, None)

    @pytest.mark.parametrize(
        ("law", "detail"),
        [
            ("explicit:-1,2", "probs: explicit probabilities must be nonnegative"),
            ("explicit:0.3,0.3", "probs: explicit probabilities sum to 0.6, not 1"),
            ("det:0", "x0: deterministic edge count must be >= 1, got 0"),
            ("explicit:", "probs: explicit law needs at least one probability"),
            ({"0": 1}, "law puts mass on j = 0; support must be positive"),
            ("foo:1", "unknown law kind 'foo' (use det:, geom:, explicit:)"),
            ("explicit:nan,1", "probs: must be finite, got nan"),
        ],
    )
    def test_refused_laws_name_the_law_and_its_parameter(self, law, detail):
        with pytest.raises(RangeError) as err:
            parse_config(None, {"law": law})
        assert err.value.field == "run.law"
        assert str(err.value) == f"run.law: {detail}"


# A value other than the default for each flagged key: (flag text, JSON value).
FLAG_SAMPLES = {
    "law": ("geom:0.25", "geom:0.25"),
    "beta": ("1.5", 1.5),
    "n": ("500", 500),
    "reps": ("3", 3),
    "seed": ("7", 7),
    "jmax": ("50", 50),
    "out": ("elsewhere", "elsewhere"),
    "profile": ("quick", "quick"),
    "parallelism": ("2", 2),
    "stride": ("4", 4),
    "probes": ("3,5", [3, 5]),
}


def _past_bounds(kind, bounds):
    """Values just past each bound a numeric run key has."""
    lo, hi = (*bounds, None)[:2]
    if lo is not None:
        yield lo - 1
    if hi is not None:
        yield hi + 1 if kind is int else hi * 2


# (key, value) rows generated from RUN_KEYS, as tests/test_cli.py's flag rows are.
PAST_BOUNDS = [
    (key, value)
    for key, (_, kind, bounds, _, _) in RUN_KEYS.items()
    if kind in (int, float)
    for value in _past_bounds(kind, bounds)
]


class TestRunKeyTable:
    @pytest.mark.parametrize(("key", "value"), PAST_BOUNDS)
    def test_a_file_value_past_its_bound_names_its_key(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(RangeError) as err:
            parse_config(str(path), {})
        assert err.value.field == f"run.{key}"
    def test_readme_lists_the_table_keys_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.search(r"Config-file keys mirror the flags \(([^)]*)\)", readme)
        assert listed is not None
        assert re.findall(r"`(\w+)`", listed.group(1)) == list(RUN_KEYS)

    def test_every_flagged_key_has_a_sample(self):
        flagged = [key for key, row in RUN_KEYS.items() if row[3] is not None]
        assert list(FLAG_SAMPLES) == flagged

    @pytest.mark.parametrize("key", list(FLAG_SAMPLES))
    def test_a_flag_and_a_file_value_give_the_same_config(self, tmp_path, key):
        text, value = FLAG_SAMPLES[key]
        reader = RUN_KEYS[key][4][0]
        args = build_parser().parse_args([reader, f"--{key}", text])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        from_file = parse_config(str(path), {})
        assert _config_from_args(args) == from_file
        assert from_file != parse_config(None, {})

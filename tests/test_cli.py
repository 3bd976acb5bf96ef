"""End-to-end command-line runs and exit-code conventions."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import prefattach
from prefattach import cli
from prefattach.cli import build_parser, main
from prefattach.config import RUN_KEYS
from prefattach.theory import MAX_J_MAX, MAX_QUAD_J_MAX


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_writes_the_three_result_files(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            [
                "simulate",
                "--law", "det:1",
                "--n", "500",
                "--reps", "2",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = _read_csv(out / "degree_distribution.csv")
        pooled_vertices = sum(int(r["count"]) for r in rows)
        assert pooled_vertices == 2 * 502
        assert (out / "trajectories.csv").exists()
        assert (out / "max_degree.csv").exists()

    def test_same_seed_gives_identical_files(self, tmp_path):
        args = ["simulate", "--law", "geom:0.5", "--n", "200", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("degree_distribution.csv", "trajectories.csv", "max_degree.csv"):
            assert (a / name).read_text() == (b / name).read_text()


class TestEmbed:
    def test_writes_event_times_and_pooled_distribution(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            ["embed", "--law", "det:1", "--n", "300", "--reps", "2", "--out", str(out)]
        )
        assert code == 0
        rows = _read_csv(out / "tau.csv")
        assert len(rows) == 300
        assert float(rows[0]["tau"]) > 0
        dd = _read_csv(out / "degree_distribution.csv")
        assert sum(int(r["count"]) for r in dd) == 2 * 302


class TestTheory:
    def test_emits_the_spectrum_with_the_closed_form_column(self, tmp_path):
        out = tmp_path / "res"
        code = main(["theory", "--law", "det:1", "--jmax", "50", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out / "pi.csv")
        assert len(rows) == 50
        assert float(rows[0]["pi_recursive"]) == pytest.approx(2 / 3, abs=1e-9)
        assert float(rows[0]["pi_explicit_or_blank"]) == pytest.approx(2 / 3, abs=1e-9)

    def test_closed_form_column_is_blank_for_non_fixed_laws(self, tmp_path):
        out = tmp_path / "res"
        assert main(["theory", "--law", "geom:0.5", "--jmax", "30", "--out", str(out)]) == 0
        rows = _read_csv(out / "pi.csv")
        assert all(r["pi_explicit_or_blank"] == "" for r in rows)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = str(Path(prefattach.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        argv = [sys.executable, "-m", "prefattach", "theory", "--jmax", "10", "--out", "res"]
        proc = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert len(_read_csv(tmp_path / "res" / "pi.csv")) == 10


class TestAnalyze:
    def test_writes_simulation_files_plus_the_summary(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            [
                "analyze",
                "--law", "det:1",
                "--n", "5000",
                "--reps", "2",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "analysis.json").read_text())
        assert summary["tv_core"] < 0.05
        assert summary["theta"] == pytest.approx(0.5)
        assert summary["tail_fit"]["slope"] < -2.0
        assert len(summary["runs"]) == 2
        assert all("max_tail_oscillation" in r for r in summary["runs"])
        assert (out / "degree_distribution.csv").exists()


class TestVerify:
    def test_theory_profile_passes_and_writes_a_report(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["verify", "--profile", "theory", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert len(report["checks"]) == 4
        # no check reads a law, so the report names none
        assert report["config"] == {
            "profile": "theory", "master_seed": 0, "parallelism": 1, "thresholds": {}, "out": str(out)
        }
        printed = capsys.readouterr().out
        assert printed.count("PASS") == 4

    # a tolerance below the quadrature's reach fails the check, not the run
    @pytest.mark.parametrize("item", ["explicit-spectrum-crosscheck=0", "dual-route-pi=1e-13"])
    def test_unreachable_threshold_turns_the_exit_code(self, tmp_path, item):
        out = tmp_path / "res"
        code = main(["verify", "--profile", "theory", "--threshold", item, "--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False


class TestUsageErrors:
    def test_bad_law_string_exits_with_usage_code(self, tmp_path, capsys):
        code = main(["simulate", "--law", "foo:1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.strip() != ""

    def test_unknown_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_threshold_syntax_is_a_usage_error(self, tmp_path):
        code = main(
            ["verify", "--profile", "theory", "--threshold", "nocolon", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_non_numeric_threshold_names_its_field(self, tmp_path, capsys):
        code = main(
            ["verify", "--profile", "theory", "--threshold", "degree-lln=abc", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "thresholds.degree-lln" in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["dual-rout-pi=0", "degree-lln.bogus=1", "moment-dichotomy.x=1"])
    def test_unknown_threshold_names_are_rejected(self, tmp_path, capsys, item):
        code = main(["verify", "--profile", "theory", "--threshold", item, "--out", str(tmp_path)])
        assert code == 2
        assert f"thresholds.{item.partition('=')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "item",
        ["explicit-spectrum-crosscheck=nan", "explicit-spectrum-crosscheck=inf", "tail-exponent.band_beta0=0"],
    )
    def test_non_finite_or_dividing_zero_thresholds_are_rejected(self, tmp_path, capsys, item):
        code = main(["verify", "--profile", "theory", "--threshold", item, "--out", str(tmp_path)])
        assert code == 2
        assert f"thresholds.{item.partition('=')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_boolean_config_threshold_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thresholds": {"dual-route-pi": True}}))
        out = tmp_path / "res"
        code = main(["verify", "--profile", "theory", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "thresholds.dual-route-pi" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_mistyped_config_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "abc"}))
        out = tmp_path / "res"
        code = main(["theory", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "run.n" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--horizon", "123", "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        ("argv", "field"),
        [
            (["embed", "--n", "0"], "run.n"),
            # refused before the arrays of three billion events are allocated
            (["embed", "--n", "3000000000"], "model.n"),
            (["analyze", "--n", "0"], "run.n"),
            (["analyze", "--n", "1"], "run.n"),
            (["analyze", "--n", "100", "--stride", "20"], "run.stride"),
            (["theory", "--jmax", "100000000000"], "run.jmax"),
            (["simulate", "--jmax", "100000000000"], "run.jmax"),
            (["theory", "--jmax", str(MAX_QUAD_J_MAX + 1)], "run.jmax"),
            (["simulate", "--seed", "-1"], "run.seed"),
            (["simulate", "--seed", str(2**64 + 5)], "run.seed"),
            (["simulate", "--law", "explicit:-1,2"], "run.law"),
            (["simulate", "--law", "explicit:0.3,0.3"], "run.law"),
            (["simulate", "--law", "det:0"], "run.law"),
            (["simulate", "--law", "explicit:"], "run.law"),
            (["simulate", "--law", "explicit:nan,1"], "run.law"),
            (["simulate", "--law", "explicit:inf,1"], "run.law"),
            (["analyze", "--n", "100", "--beta", "1e308"], "run.beta"),
            (["theory", "--beta", "1e308"], "run.beta"),
            (["simulate", "--beta", "2e200"], "run.beta"),
            # a dict or a list is written to a config file whose path takes its place
            (["theory", "--config", {"law": [True]}], "run.law"),
            (["theory", "--config", {"beta": 10**400}], "run.beta"),
            # vertex 13 is the largest label of ten steps plus one: it is never born
            (["simulate", "--n", "10", "--probes", "99999999999"], "run.probes"),
            (["analyze", "--n", "10", "--probes", "1,13"], "run.probes"),
            # a file's probes are held to the n in force, also where they are not read
            (["embed", "--n", "100", "--config", {"n": 10000, "probes": [1, 2, 5000]}], "run.probes"),
            # an empty name would put the files in the working directory
            (["simulate", "--out", ""], "run.out"),
            # the quadrature's domain keeps all the mass, then its step doubling fails
            (["theory", "--config", {"ymax": 0}], "run.ymax"),
            (["theory", "--config", {"ymax": 87.5, "quad_steps": 1000, "jmax": 30}], "run.quad_steps"),
            (["theory", "--config", [1, 2]], "config"),
            (["theory", "--config", {"bogus": 1}], "run.bogus"),
            (["verify", "--profile", "theory", "--config", {"thresholds": [1]}], "run.thresholds"),
            (["verify", "--profile", "theory", "--threshold", "foo"], "run.thresholds"),
            # the quadrature's tolerance: refused up front, not by the quadrature naming y_max
            (["verify", "--profile", "theory", "--threshold", "dual-route-pi=0"], "thresholds.dual-route-pi"),
            (
                ["verify", "--profile", "theory", "--threshold", "dual-route-pi=-1e-6"],
                "thresholds.dual-route-pi",
            ),
        ],
    )
    def test_refusals_name_their_field(self, tmp_path, monkeypatch, capsys, argv, field):
        monkeypatch.chdir(tmp_path)
        if isinstance(argv[-1], (dict, list)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(argv[-1]))
            argv = argv[:-1] + [str(cfg)]
        out = tmp_path / "res"
        # the row's own flags come last, so an --out among them wins
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()
        assert not list(tmp_path.glob("*.csv"))

    def test_the_last_vertex_is_a_probe(self, tmp_path):
        assert main(["simulate", "--n", "10", "--probes", "12", "--out", str(tmp_path)]) == 0
        rows = _read_csv(tmp_path / "trajectories.csv")
        assert [int(r["degree"]) for r in rows if r["vertex"] == "12"][-1] == 1

    @pytest.mark.parametrize(
        ("argv", "target", "field"),
        [
            (["simulate"], "replicate", "run.n, run.reps"),
            (["embed"], "replicate", "run.n, run.reps"),
            (["analyze"], "replicate", "run.n, run.reps"),
            (["theory"], "pi_recursive", "run.jmax, run.quad_steps"),
            (["verify", "--profile", "theory"], "VerifySession", "run.profile"),
        ],
    )
    def test_running_out_of_memory_names_the_size_key(
        self, tmp_path, monkeypatch, capsys, argv, target, field
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, target, exhausted)
        assert main(argv + ["--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert field in err and "out of memory" in err

    def test_analyze_keeps_the_recursion_cap(self, tmp_path):
        # only theory runs the quadrature, whose cap is lower
        argv = ["analyze", "--n", "100", "--stride", "10", "--jmax", str(MAX_J_MAX)]
        assert main(argv + ["--out", str(tmp_path)]) == 0

    def test_ten_recorded_steps_are_enough_to_analyze(self, tmp_path):
        assert main(["analyze", "--n", "100", "--stride", "10", "--out", str(tmp_path)]) == 0
        # too few tail bins skip the fit rather than refuse the run
        summary = json.loads((tmp_path / "analysis.json").read_text())
        assert summary["tail_fit"] == {"skipped": "only 2 usable bins in [3, 30]; need 5"}

    def test_reversed_fit_range_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fit_j_min": 40, "fit_j_max": 30}))
        out = tmp_path / "res"
        code = main(["analyze", "--config", str(cfg), "--n", "200", "--out", str(out)])
        assert code == 2
        assert "run.fit_j_max" in capsys.readouterr().err
        assert not out.exists()


# Each subcommand's flags as the README's table lists them (--config aside).
DOCUMENTED_FLAGS = {
    "simulate": "law beta n reps seed jmax out parallelism stride probes",
    "embed": "law beta n reps seed jmax out parallelism",
    "theory": "law beta jmax out",
    "analyze": "law beta n reps seed jmax out parallelism stride probes",
    "verify": "seed out profile parallelism threshold",
}


def _flag(key):
    return "--threshold" if key == "thresholds" else f"--{key}"


# The keys that have a flag on some subcommand.
FLAGGED = [key for key, row in RUN_KEYS.items() if row[3] is not None or key == "thresholds"]


class TestFlagsPerSubcommand:
    """Generated from RUN_KEYS: a subcommand takes the flags of the keys it reads."""

    @pytest.mark.parametrize("command", list(DOCUMENTED_FLAGS))
    def test_help_lists_exactly_the_keys_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z_]+", capsys.readouterr().out))
        read = {_flag(key) for key in FLAGGED if command in RUN_KEYS[key][4]}
        assert listed == read | {"--help", "--config"}
        assert read == {f"--{flag}" for flag in DOCUMENTED_FLAGS[command].split()}

    def test_the_subparsers_hold_42_flags(self):
        (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
        flags = [
            flag
            for parser in subparsers.choices.values()
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        ]
        assert len(flags) == 42

    @pytest.mark.parametrize(
        ("command", "key"),
        [
            (command, key)
            for command in DOCUMENTED_FLAGS
            for key in FLAGGED
            if command not in RUN_KEYS[key][4]
        ],
    )
    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(
        self, tmp_path, capsys, command, key
    ):
        kind = RUN_KEYS[key][1]
        value = {"thresholds": "degree-lln=1"}.get(key, kind[0] if isinstance(kind, tuple) else "1")
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            main([command, _flag(key), value, "--out", str(out)])
        assert exc.value.code == 2
        assert _flag(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "key"),
        [
            (command, key)
            for command in DOCUMENTED_FLAGS
            for key, (_, kind, bounds, text, readers) in RUN_KEYS.items()
            if command in readers and text and kind in (int, float) and bounds[:1] != (None,)
        ],
    )
    def test_a_number_below_its_bound_names_its_key(self, tmp_path, capsys, command, key):
        below = RUN_KEYS[key][2][0] - 1
        out = tmp_path / "res"
        assert main([command, f"--{key}", str(below), "--out", str(out)]) == 2
        assert f"run.{key}" in capsys.readouterr().err
        assert not out.exists()

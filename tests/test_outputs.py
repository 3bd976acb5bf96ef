"""File formats: column layouts, rounding, and blank-cell conventions."""

import json

import numpy as np

from prefattach.analysis import empirical_distribution
from prefattach.branching import run_embedding, tau_diagnostics
from prefattach.graph import DegreeLedger
from prefattach.laws import deterministic, geometric
from prefattach.outputs import (
    write_degree_distribution,
    write_max_degree,
    write_pi,
    write_report,
    write_tau,
    write_trajectories,
)
from prefattach.streams import substream
from prefattach.theory import pi_quadrature, pi_recursive


class TestDegreeDistributionFile:
    def test_starting_graph_row_is_rendered_exactly(self, tmp_path):
        led = DegreeLedger.from_degrees([1, 1])
        emp = empirical_distribution(led.counts, n=0)
        spec = pi_recursive(deterministic(1), 0.0, 1)
        path = tmp_path / "dd.csv"
        write_degree_distribution(str(path), emp, spec)
        assert path.read_text() == (
            "j,count,empirical,theoretical,abs_error\n"
            "1,2,1.0,0.666667,0.333333\n"
        )

    def test_rows_extend_to_the_spectrum_even_without_counts(self, tmp_path):
        led = DegreeLedger.from_degrees([1, 1])
        emp = empirical_distribution(led.counts, n=0)
        spec = pi_recursive(deterministic(1), 0.0, 3)
        path = tmp_path / "dd.csv"
        write_degree_distribution(str(path), emp, spec)
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # header + j = 1..3
        assert lines[2].startswith("2,0,0.0,")

    def test_theory_columns_are_blank_without_a_spectrum(self, tmp_path):
        emp = empirical_distribution({1: 2, 2: 1}, n=1)
        path = tmp_path / "dd.csv"
        write_degree_distribution(str(path), emp, None)
        lines = path.read_text().splitlines()
        assert lines[1].endswith(",,")

    def test_rewriting_replaces_the_file(self, tmp_path):
        emp = empirical_distribution({1: 2}, n=0)
        path = tmp_path / "dd.csv"
        write_degree_distribution(str(path), emp, None)
        write_degree_distribution(str(path), emp, None)
        text = path.read_text()
        assert text.count("j,count,empirical,theoretical,abs_error") == 1


class TestTrajectoryFile:
    def test_scaled_column_is_blank_at_step_zero(self, tmp_path):
        path = tmp_path / "tr.csv"
        write_trajectories(
            str(path),
            np.array([0, 5]),
            {1: np.array([1, 3]), 2: np.array([1, 2])},
            0.5,
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "n,vertex,degree,scaled"
        assert lines[1] == "0,1,1,"
        # 3 / 5^0.5 rendered in 12-significant-digit form
        assert lines[2].startswith("5,1,3,1.34164")

    def test_no_probes_writes_just_the_header(self, tmp_path):
        path = tmp_path / "tr.csv"
        write_trajectories(str(path), np.array([0, 5]), {}, 0.5)
        assert path.read_text() == "n,vertex,degree,scaled\n"


class TestMaxDegreeFile:
    def test_columns_and_scaling(self, tmp_path):
        path = tmp_path / "md.csv"
        write_max_degree(str(path), np.array([0, 4]), np.array([1, 3]), np.array([1, 2]), 0.5)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,M_n,I_n,scaled"
        assert lines[1] == "0,1,1,"
        assert lines[2] == "4,3,2,1.5"


class TestTauFile:
    def test_one_row_per_event(self, tmp_path):
        emb = run_embedding(deterministic(1), 0.0, 30, substream(3, 0))
        diag = tau_diagnostics(emb.taus, emb.s_values, m=1.0, beta=0.0)
        path = tmp_path / "tau.csv"
        write_tau(str(path), emb.taus, diag)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,tau,martingale_residual,log_drift_residual"
        assert len(lines) == 31
        assert lines[1].startswith("1,")


class TestSpectrumFile:
    def test_all_three_routes_fill_their_columns(self, tmp_path):
        spec = pi_recursive(deterministic(1), 0.0, 3)
        quad = pi_quadrature(deterministic(1), 0.0, 3)
        path = tmp_path / "pi.csv"
        write_pi(str(path), spec, quadrature=quad, explicit_x0=1, beta=0.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,pi_recursive,pi_quadrature,pi_explicit_or_blank"
        assert lines[1] == "1,0.666666666667,0.666666666667,0.666666666667"

    def test_missing_routes_leave_blank_cells(self, tmp_path):
        spec = pi_recursive(geometric(0.5), 0.0, 3)
        path = tmp_path / "pi.csv"
        write_pi(str(path), spec)
        lines = path.read_text().splitlines()
        assert all(line.endswith(",,") for line in lines[1:])


class TestReportFile:
    def test_report_is_sorted_pretty_json(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(str(path), {"b": 1, "a": {"pass": True}})
        text = path.read_text()
        assert text.endswith("\n")
        loaded = json.loads(text)
        assert loaded == {"b": 1, "a": {"pass": True}}
        assert text.index('"a"') < text.index('"b"')

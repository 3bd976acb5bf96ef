"""File formats: column layouts, rounding, and blank-cell conventions."""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefattach.analysis import empirical_distribution
from prefattach.branching import TauDiagnostics, run_embedding, tau_diagnostics
from prefattach.errors import RangeError
from prefattach.laws import deterministic, geometric
from prefattach.outputs import (
    _CHUNK,
    write_degree_distribution,
    write_max_degree,
    write_pi,
    write_report,
    write_tau,
    write_trajectories,
)
from prefattach.streams import substream
from prefattach.theory import LimitSpectrum, pi_explicit, pi_quadrature, pi_recursive


class TestDegreeDistributionFile:
    def test_starting_graph_row_is_rendered_exactly(self, tmp_path):
        emp = empirical_distribution({1: 2})
        spec = pi_recursive(deterministic(1), 0.0, 1)
        path = tmp_path / "dd.csv"
        write_degree_distribution(str(path), emp, spec)
        assert path.read_text() == (
            "j,count,empirical,theoretical,abs_error\n"
            "1,2,1.0,0.666667,0.333333\n"
        )

    def test_rows_extend_to_the_spectrum_even_without_counts(self, tmp_path):
        emp = empirical_distribution({1: 2})
        spec = pi_recursive(deterministic(1), 0.0, 3)
        path = tmp_path / "dd.csv"
        write_degree_distribution(str(path), emp, spec)
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # header + j = 1..3
        assert lines[2].startswith("2,0,0.0,")

    def test_rewriting_replaces_the_file(self, tmp_path):
        emp = empirical_distribution({1: 2})
        spec = pi_recursive(deterministic(1), 0.0, 1)
        path = tmp_path / "dd.csv"
        write_degree_distribution(str(path), emp, spec)
        write_degree_distribution(str(path), emp, spec)
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
        assert path.read_bytes() == b"n,M_n,I_n,scaled\r\n0,1,1,\r\n4,3,2,1.5\r\n"


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
        quad = pi_quadrature(geometric(0.5), 0.0, 3)
        path = tmp_path / "pi.csv"
        write_pi(str(path), spec, quad, explicit_x0=None, beta=0.0)
        lines = path.read_text().splitlines()
        assert all(line.endswith(",") and not line.endswith(",,") for line in lines[1:])

    def test_quadrature_must_cover_the_spectrum(self, tmp_path):
        spec = pi_recursive(deterministic(1), 0.0, 3)
        with pytest.raises(RangeError) as err:
            write_pi(str(tmp_path / "pi.csv"), spec, np.zeros(3), explicit_x0=1, beta=0.0)
        assert err.value.field == "quadrature"


class TestReportFile:
    def test_report_is_sorted_pretty_json(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(str(path), {"b": 1, "a": {"pass": True}})
        text = path.read_text()
        assert text.endswith("\n")
        loaded = json.loads(text)
        assert loaded == {"b": 1, "a": {"pass": True}}
        assert text.index('"a"') < text.index('"b"')


# -- the csv.writer writers, kept as the byte-exact reference --------------


def _fmt6(x):
    return repr(round(float(x), 6))


def _fmtg(x):
    return "" if x is None else f"{float(x):.12g}"


def reference_degree_distribution(path, emp, spectrum):
    top = max(emp.support_max, spectrum.j_max)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "count", "empirical", "theoretical", "abs_error"])
        for j in range(1, top + 1):
            count = emp.counts.get(j, 0)
            freq = emp.freq.get(j, 0.0)
            pi_j = float(spectrum.pi[j]) if j <= spectrum.j_max else 0.0
            w.writerow([j, count, _fmt6(freq), _fmt6(pi_j), _fmt6(abs(freq - pi_j))])


def reference_trajectories(path, steps, probes, exponent):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "vertex", "degree", "scaled"])
        for vertex in sorted(probes):
            for n, d in zip(steps.tolist(), probes[vertex].tolist()):
                w.writerow([n, vertex, d, _fmtg(d / n**exponent) if n > 0 else ""])


def reference_max_degree(path, steps, max_series, argmax_series, exponent):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "M_n", "I_n", "scaled"])
        for n, m_n, i_n in zip(steps.tolist(), max_series.tolist(), argmax_series.tolist()):
            w.writerow([n, m_n, i_n, _fmtg(m_n / n**exponent) if n > 0 else ""])


def reference_tau(path, taus, diag):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "tau", "martingale_residual", "log_drift_residual"])
        for k in range(taus.shape[0]):
            w.writerow(
                [
                    k + 1,
                    _fmtg(taus[k]),
                    _fmtg(diag.martingale_residual[k]),
                    _fmtg(diag.log_drift_residual[k]),
                ]
            )


def reference_pi(path, spectrum, quadrature, explicit_x0, beta):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "pi_recursive", "pi_quadrature", "pi_explicit_or_blank"])
        for j in range(1, spectrum.j_max + 1):
            exp_col = pi_explicit(explicit_x0, beta, j) if explicit_x0 is not None else None
            w.writerow([j, _fmtg(spectrum.pi[j]), _fmtg(quadrature[j]), _fmtg(exp_col)])


def assert_same_bytes(writer, reference, *args, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
        writer(str(new), *args, **kwargs)
        reference(str(old), *args, **kwargs)
        assert new.read_bytes() == old.read_bytes()


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-7, 0.1234565, 2.5e-6]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
PROBABILITIES = st.one_of(st.sampled_from(SPECIAL), st.floats(min_value=0.0, max_value=1.0))


def floats(min_size=0, max_size=40, elements=FLOATS):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(np.array)


@st.composite
def step_tables(draw, n_series):
    """Recorded steps (strictly increasing, with or without a step-0 row),
    ``n_series`` degree-like integer series of the same length, an exponent."""
    later = sorted(draw(st.sets(st.integers(1, 10**9), max_size=30)))
    steps = np.array(([0] if draw(st.booleans()) else []) + later, dtype=np.int64)
    size = steps.shape[0]
    series = [
        np.array(draw(st.lists(st.integers(0, 2**40), min_size=size, max_size=size)), dtype=np.int64)
        for _ in range(n_series)
    ]
    exponent = draw(st.one_of(st.sampled_from([0.5, 1 / 3, 2 / 5]), st.floats(0.01, 1.0)))
    return steps, series, exponent


def spectra(j_max):
    return floats(j_max, j_max, PROBABILITIES).map(
        lambda pi: LimitSpectrum(
            theta=0.5,
            pi=np.concatenate(([0.0], pi)),
            tail_exponent=3.0,
            truncation_mass=0.0,
            rate=2.0,
        )
    )


class TestWritersMatchTheCsvReference:
    """Every writer gives the bytes the csv.writer reference gives."""

    @given(
        tables=st.integers(0, 4).flatmap(step_tables),
        labels=st.lists(st.integers(1, 10**6), min_size=4, max_size=4, unique=True),
    )
    def test_trajectories(self, tables, labels):
        steps, series, exponent = tables
        probes = dict(zip(labels, series))
        assert_same_bytes(write_trajectories, reference_trajectories, steps, probes, exponent)

    @given(tables=step_tables(2))
    def test_max_degree(self, tables):
        steps, (max_series, argmax_series), exponent = tables
        assert_same_bytes(
            write_max_degree, reference_max_degree, steps, max_series, argmax_series, exponent
        )

    @given(data=st.data(), length=st.integers(0, 40))
    def test_tau(self, data, length):
        taus, mres, ldres = (data.draw(floats(length, length)) for _ in range(3))
        diag = TauDiagnostics(0.5, mres, ldres, 0.0)
        assert_same_bytes(write_tau, reference_tau, taus, diag)

    @given(
        counts=st.dictionaries(st.integers(1, 80), st.integers(1, 10**6), min_size=1),
        spectrum=st.integers(1, 120).flatmap(spectra),
    )
    def test_degree_distribution(self, counts, spectrum):
        emp = empirical_distribution(counts)
        assert_same_bytes(write_degree_distribution, reference_degree_distribution, emp, spectrum)

    @given(
        spectrum=st.integers(1, 60).flatmap(spectra),
        explicit_x0=st.one_of(st.none(), st.integers(1, 3)),
        beta=st.sampled_from([0.0, 0.5, 2.0]),
        data=st.data(),
    )
    def test_pi(self, spectrum, explicit_x0, beta, data):
        length = spectrum.pi.shape[0]
        quad = data.draw(floats(length, length))
        assert_same_bytes(
            write_pi, reference_pi, spectrum, quadrature=quad, explicit_x0=explicit_x0, beta=beta
        )

    def test_real_spectra(self):
        for law, beta, x0 in ((deterministic(2), 0.5, 2), (geometric(0.5), 1.0, None)):
            spectrum = pi_recursive(law, beta, 40)
            quad = pi_quadrature(law, beta, 40)
            assert_same_bytes(write_pi, reference_pi, spectrum, quad, explicit_x0=x0, beta=beta)
            emp = empirical_distribution({1: 700, 2: 200, 4: 90, 57: 1})
            assert_same_bytes(
                write_degree_distribution, reference_degree_distribution, emp, spectrum
            )

    @pytest.mark.parametrize("zero_row", [True, False])
    def test_step_tables_longer_than_two_chunks(self, zero_row):
        rows = 2 * _CHUNK + 3
        steps = np.arange(0 if zero_row else 1, rows + (0 if zero_row else 1)) * 7
        degrees = np.random.default_rng(5).integers(1, 10**5, size=(3, rows))
        probes = {2: degrees[0], 1: degrees[1]}
        assert_same_bytes(write_trajectories, reference_trajectories, steps, probes, 0.4)
        assert_same_bytes(
            write_max_degree, reference_max_degree, steps, degrees[1], degrees[2], 0.4
        )

    def test_other_tables_longer_than_two_chunks(self):
        rows = 2 * _CHUNK + 3
        rng = np.random.default_rng(6)
        taus = rng.standard_normal((3, rows))
        diag = TauDiagnostics(0.5, taus[1], taus[2], 0.0)
        assert_same_bytes(write_tau, reference_tau, taus[0], diag)
        counts = dict(enumerate(rng.integers(1, 10**5, size=rows).tolist(), start=1))
        emp = empirical_distribution(counts)
        spectrum = LimitSpectrum(0.5, np.concatenate(([0.0], rng.random(rows))), 3.0, 0.0, 2.0)
        assert_same_bytes(
            write_degree_distribution, reference_degree_distribution, emp, spectrum
        )
        quad = rng.random(rows + 1)
        assert_same_bytes(write_pi, reference_pi, spectrum, quad, explicit_x0=3, beta=1.0)

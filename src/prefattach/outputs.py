"""CSV and JSON emission.

All writers overwrite their target idempotently.  degree_distribution.csv
rounds probabilities to six decimals (diff-friendly); the other tables use
12-significant-digit general format so small residuals stay visible.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Mapping

import numpy as np

from .analysis import EmpiricalDistribution
from .branching import TauDiagnostics
from .theory import LimitSpectrum, pi_explicit


def _fmt6(x) -> str:
    if x is None:
        return ""
    return repr(round(float(x), 6))


def _fmtg(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.12g}"


def _open_for_write(path: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return open(path, "w", newline="")


def write_degree_distribution(
    path: str, emp: EmpiricalDistribution, spectrum: LimitSpectrum | None = None
) -> None:
    """Rows j,count,empirical,theoretical,abs_error for every degree shown.

    Degrees run from 1 to the larger of the empirical support and the
    spectrum cutoff; theory columns are blank without a spectrum.
    """
    top = emp.support_max if spectrum is None else max(emp.support_max, spectrum.j_max)
    with _open_for_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["j", "count", "empirical", "theoretical", "abs_error"])
        for j in range(1, top + 1):
            count = emp.counts.get(j, 0)
            freq = emp.freq.get(j, 0.0)
            if spectrum is None:
                w.writerow([j, count, _fmt6(freq), "", ""])
            else:
                pi_j = float(spectrum.pi[j]) if j <= spectrum.j_max else 0.0
                w.writerow(
                    [j, count, _fmt6(freq), _fmt6(pi_j), _fmt6(abs(freq - pi_j))]
                )


def write_trajectories(
    path: str,
    steps: np.ndarray,
    probes: Mapping[int, np.ndarray],
    exponent: float,
) -> None:
    """Rows n,vertex,degree,scaled; scaled = degree / n^exponent (blank at n=0)."""
    with _open_for_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["n", "vertex", "degree", "scaled"])
        for vertex in sorted(probes):
            series = probes[vertex]
            for n, d in zip(steps.tolist(), series.tolist()):
                scaled = _fmtg(d / n**exponent) if n > 0 else ""
                w.writerow([n, vertex, d, scaled])


def write_max_degree(
    path: str,
    steps: np.ndarray,
    max_series: np.ndarray,
    argmax_series: np.ndarray,
    exponent: float,
) -> None:
    """Rows n,M_n,I_n,scaled; scaled = M_n / n^exponent (blank at n=0)."""
    with _open_for_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["n", "M_n", "I_n", "scaled"])
        for n, m_n, i_n in zip(
            steps.tolist(), max_series.tolist(), argmax_series.tolist()
        ):
            scaled = _fmtg(m_n / n**exponent) if n > 0 else ""
            w.writerow([n, m_n, i_n, scaled])


def write_tau(path: str, taus: np.ndarray, diag: TauDiagnostics) -> None:
    """Rows n,tau,martingale_residual,log_drift_residual."""
    with _open_for_write(path) as fh:
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


def write_pi(
    path: str,
    spectrum: LimitSpectrum,
    quadrature: np.ndarray | None = None,
    explicit_x0: int | None = None,
    beta: float = 0.0,
) -> None:
    """Rows j,pi_recursive,pi_quadrature,pi_explicit_or_blank.

    The explicit column is filled only when the law is a fixed edge count
    (pass its x0); the quadrature column is blank when not computed.
    """
    with _open_for_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["j", "pi_recursive", "pi_quadrature", "pi_explicit_or_blank"])
        for j in range(1, spectrum.j_max + 1):
            quad = None
            if quadrature is not None and j < quadrature.shape[0]:
                quad = quadrature[j]
            exp_col = (
                pi_explicit(explicit_x0, beta, j) if explicit_x0 is not None else None
            )
            w.writerow([j, _fmtg(spectrum.pi[j]), _fmtg(quad), _fmtg(exp_col)])


def write_report(path: str, report: dict) -> None:
    """Deterministically ordered JSON dump of a report document."""
    with _open_for_write(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

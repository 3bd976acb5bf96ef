"""CSV and JSON emission.

All writers overwrite their target idempotently.  CSV rows end in CRLF, as
csv.writer writes them.  degree_distribution.csv rounds probabilities to six
decimals (diff-friendly); the other tables use 12-significant-digit general
format so small residuals stay visible.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

import numpy as np

from .analysis import EmpiricalDistribution
from .branching import TauDiagnostics
from .errors import RangeError
from .theory import LimitSpectrum, pi_explicit

# Rows rendered per write: long tables stream in chunks of bounded memory.
_CHUNK = 1 << 14


def _open_for_write(path: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return open(path, "w", newline="")


def _write_rows(fh, row: str, start: int, stop: int, columns) -> None:
    """Write rows start..stop-1 as ``row % cells`` lines ending in CRLF.

    ``columns(a, b)`` returns the cells of rows a..b-1 as one list per
    column.  A chunk of rows is rendered by one %-format over its
    interleaved cells and written at once, so the cost per cell is the
    format itself: ``%s`` is str() as csv.writer uses, ``%.12g`` equals
    format(x, ".12g") and ``%r`` of round(x, 6) equals repr(round(x, 6)).
    """
    line = row + "\r\n"
    for a in range(start, stop, _CHUNK):
        b = min(a + _CHUNK, stop)
        cols = columns(a, b)
        cells = [None] * (len(cols) * (b - a))
        for i, col in enumerate(cols):
            cells[i :: len(cols)] = col
        fh.write(line * (b - a) % tuple(cells))


def _write_scaled(fh, row: str, steps: np.ndarray, exponent: float, *series) -> None:
    """Rows ``row % (n, *series)`` plus the cell series[0] / n^exponent.

    The scaled cell is blank at n = 0, which only the first recorded step
    can be.  n^exponent is Python's own power, one step at a time: np.power
    can differ from it in the last bit.
    """
    first = int(steps.shape[0] > 0 and steps[0] == 0)
    if first:
        fh.write(row % tuple(s[0].item() for s in (steps, *series)) + ",\r\n")

    def columns(a, b):
        ns = steps[a:b].tolist()
        cols = [s[a:b].tolist() for s in series]
        return [ns, *cols, [x / n**exponent for n, x in zip(ns, cols[0])]]

    _write_rows(fh, row + ",%.12g", first, steps.shape[0], columns)


def write_degree_distribution(
    path: str, emp: EmpiricalDistribution, spectrum: LimitSpectrum
) -> None:
    """Rows j,count,empirical,theoretical,abs_error for every degree shown.

    Degrees run from 1 to the larger of the empirical support and the
    spectrum cutoff.
    """
    top = max(emp.support_max, spectrum.j_max)
    count = [emp.counts.get(j, 0) for j in range(top + 1)]
    freq = np.array([emp.freq.get(j, 0.0) for j in range(top + 1)], dtype=float)
    pi = np.zeros(top + 1)
    pi[1 : spectrum.j_max + 1] = spectrum.pi[1:]
    shown = (freq, pi, np.abs(freq - pi))

    def columns(a, b):
        rounded = ([round(x, 6) for x in c[a:b].tolist()] for c in shown)
        return [range(a, b), count[a:b], *rounded]

    with _open_for_write(path) as fh:
        fh.write("j,count,empirical,theoretical,abs_error\r\n")
        _write_rows(fh, "%s,%s,%r,%r,%r", 1, top + 1, columns)


def write_trajectories(
    path: str,
    steps: np.ndarray,
    probes: Mapping[int, np.ndarray],
    exponent: float,
) -> None:
    """Rows n,vertex,degree,scaled; scaled = degree / n^exponent (blank at n=0)."""
    with _open_for_write(path) as fh:
        fh.write("n,vertex,degree,scaled\r\n")
        for vertex in sorted(probes):
            _write_scaled(fh, f"%s,{vertex},%s", steps, exponent, probes[vertex])


def write_max_degree(
    path: str,
    steps: np.ndarray,
    max_series: np.ndarray,
    argmax_series: np.ndarray,
    exponent: float,
) -> None:
    """Rows n,M_n,I_n,scaled; scaled = M_n / n^exponent (blank at n=0)."""
    with _open_for_write(path) as fh:
        fh.write("n,M_n,I_n,scaled\r\n")
        _write_scaled(fh, "%s,%s,%s", steps, exponent, max_series, argmax_series)


def write_tau(path: str, taus: np.ndarray, diag: TauDiagnostics) -> None:
    """Rows n,tau,martingale_residual,log_drift_residual."""

    def columns(a, b):
        series = (taus, diag.martingale_residual, diag.log_drift_residual)
        return [range(a + 1, b + 1), *(s[a:b].tolist() for s in series)]

    with _open_for_write(path) as fh:
        fh.write("n,tau,martingale_residual,log_drift_residual\r\n")
        _write_rows(fh, "%s,%.12g,%.12g,%.12g", 0, taus.shape[0], columns)


def write_pi(
    path: str,
    spectrum: LimitSpectrum,
    quadrature: np.ndarray,
    explicit_x0: int | None,
    beta: float,
) -> None:
    """Rows j,pi_recursive,pi_quadrature,pi_explicit_or_blank.

    ``quadrature`` is indexed like ``spectrum.pi``.  The explicit column is
    filled only when the law is a fixed edge count (pass its x0, else None).
    """
    if quadrature.shape != spectrum.pi.shape:
        raise RangeError("quadrature", "quadrature and spectrum.pi differ in length")

    def columns(a, b):
        cols = [range(a, b), spectrum.pi[a:b].tolist(), quadrature[a:b].tolist()]
        if explicit_x0 is not None:
            cols.append([pi_explicit(explicit_x0, beta, j) for j in range(a, b)])
        return cols

    explicit = ",%.12g" if explicit_x0 is not None else ","
    with _open_for_write(path) as fh:
        fh.write("j,pi_recursive,pi_quadrature,pi_explicit_or_blank\r\n")
        _write_rows(fh, "%s,%.12g,%.12g" + explicit, 1, spectrum.j_max + 1, columns)


def write_report(path: str, report: dict) -> None:
    """Deterministically ordered JSON dump of a report document."""
    with _open_for_write(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

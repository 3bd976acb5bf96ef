"""Empirical summaries of runs and their comparison against the limits.

Everything here consumes recorded run output (degree counts, trajectories,
event times) and produces plain verdict objects; no simulation happens in
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import RangeError, checked_int, checked_real
from .theory import LimitSpectrum

_MIN_TAIL_COUNT = 5  # vertices a degree needs to enter an empirical tail fit
_MIN_EXPECTED = 5.0  # expected count every merged chi-square bin reaches
_PLATEAU_WINDOW = 0.5  # trailing fraction of the recorded points a plateau spans


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Degree frequencies of one graph (or a pool of graphs).

    ``counts[j]`` is the number of vertices of degree j, ``freq[j]`` the
    fraction.
    """

    counts: dict[int, int]
    freq: dict[int, float]
    support_max: int


def _checked_counts(source: Mapping[int, int]) -> dict[int, int]:
    """A {degree: count} map with integer degrees >= 1 and integer counts >= 0.

    Anything else raises RangeError naming ``degree`` or ``count``.
    """
    return {checked_int("degree", j, 1): checked_int("count", c, 0) for j, c in source.items()}


def empirical_distribution(source: Mapping[int, int]) -> EmpiricalDistribution:
    """Build degree frequencies from a {degree: count} map.

    Degrees must be integers >= 1 and counts integers >= 0; a zero count is
    dropped.
    """
    counts = {j: c for j, c in _checked_counts(source).items() if c}
    total = sum(counts.values())
    if total == 0:
        raise RangeError("source", "no vertices to tabulate")
    freq = {j: c / total for j, c in counts.items()}
    return EmpiricalDistribution(counts=counts, freq=freq, support_max=max(counts))


@dataclass(frozen=True)
class TailFit:
    """Least-squares slope of log-frequency against log-degree."""

    slope: float
    r_squared: float
    j_min: int
    j_max: int
    n_bins: int


def tail_fit(
    source: Union[EmpiricalDistribution, LimitSpectrum],
    j_min: int,
    j_max: int,
) -> TailFit:
    """Fit the tail decay exponent over degrees in [j_min, j_max].

    Empirical sources only contribute degrees with at least five vertices;
    theoretical sources contribute wherever pi_j > 0.  Needs at least five
    usable bins, else RangeError naming ``source``, which also refuses any
    other kind of source.
    """
    j_min = checked_int("j_min", j_min, None)
    j_max = checked_int("j_max", j_max, None)
    if not 1 <= j_min < j_max:
        raise RangeError("j_min" if j_min < 1 else "j_max", f"bad fit range [{j_min}, {j_max}]")
    xs, ys = [], []
    if isinstance(source, EmpiricalDistribution):
        for j in sorted(source.counts):  # the observed degrees, not the whole range
            if j_min <= j <= j_max and source.counts[j] >= _MIN_TAIL_COUNT:
                xs.append(j)
                ys.append(source.freq[j])
    elif isinstance(source, LimitSpectrum):
        top = min(j_max, source.j_max)
        for j in range(j_min, top + 1):
            if source.pi[j] > 0.0:
                xs.append(j)
                ys.append(float(source.pi[j]))
    else:
        raise RangeError(
            "source",
            f"need an EmpiricalDistribution or a LimitSpectrum, got {type(source).__name__}",
        )
    if len(xs) < 5:
        raise RangeError("source", f"only {len(xs)} usable bins in [{j_min}, {j_max}]; need 5")
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys))
    slope, offset = np.polyfit(lx, ly, 1)
    pred = slope * lx + offset
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return TailFit(
        slope=float(slope),
        r_squared=r2,
        j_min=j_min,
        j_max=j_max,
        n_bins=len(xs),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Tail behaviour of a scaled series.

    ``tail_oscillation`` is (max - min) / mean over the trailing half of the
    recorded points; ``level`` is the trailing mean; the verdict passes when
    the oscillation sits under the threshold and the level is positive.
    """

    tail_oscillation: float
    level: float
    verdict: bool


def _scaled_tail_report(
    ns: np.ndarray, values: np.ndarray, exponent: float, threshold: float
) -> ConvergenceReport:
    exponent = checked_real("exponent", exponent)
    threshold = checked_real("threshold", threshold)
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape:
        raise RangeError("values", "ns and values differ in length")
    keep = ns >= 1
    ns, values = ns[keep], values[keep]
    if ns.shape[0] < 10:
        raise RangeError("ns", f"need >= 10 recorded points, got {ns.shape[0]}")
    scaled = values / ns**exponent
    start = int(np.ceil(ns.shape[0] * (1.0 - _PLATEAU_WINDOW)))
    start = min(start, ns.shape[0] - 2)
    tail = scaled[start:]
    level = float(tail.mean())
    osc = float((tail.max() - tail.min()) / level) if level > 0 else float("inf")
    return ConvergenceReport(
        tail_oscillation=osc,
        level=level,
        verdict=bool(osc < threshold and level > 0),
    )


def trajectory_limit_check(
    ns: np.ndarray,
    degrees: np.ndarray,
    exponent: float,
    threshold: float = 0.2,
) -> ConvergenceReport:
    """Does d(n) / n^exponent settle on a positive plateau?

    Points with n = 0 are dropped before scaling.
    """
    return _scaled_tail_report(ns, degrees, exponent, threshold)


def max_degree_check(
    ns: np.ndarray,
    max_series: np.ndarray,
    exponent: float,
    threshold: float = 0.25,
) -> ConvergenceReport:
    """Does M_n / n^exponent settle on a positive plateau?"""
    return _scaled_tail_report(ns, max_series, exponent, threshold)


@dataclass(frozen=True)
class FreezeReport:
    """How much of the horizon follows a series' last change."""

    frozen_fraction: float


def freeze_detector(ns: np.ndarray, series: np.ndarray) -> FreezeReport:
    """The share of the horizon after the last recorded change of a series."""
    ns = np.asarray(ns)
    series = np.asarray(series)
    for field, values in (("ns", ns), ("series", series)):
        if values.ndim != 1:
            raise RangeError(field, f"need a 1-D series, got shape {values.shape}")
    if ns.shape != series.shape or ns.shape[0] < 2:
        field = "ns" if ns.shape == series.shape else "series"
        raise RangeError(field, "need two aligned recorded points at least")
    if not (ns[0] >= 0 and np.all(ns[1:] > ns[:-1])):
        raise RangeError("ns", "recorded steps must be non-negative and strictly increasing")
    changes = np.nonzero(series[1:] != series[:-1])[0]
    last = float(ns[changes[-1] + 1]) if changes.shape[0] else 0.0
    horizon = float(ns[-1])  # > 0, as ns[0] >= 0 and ns increases
    return FreezeReport(frozen_fraction=(horizon - last) / horizon)


@dataclass(frozen=True)
class DistanceReport:
    """Total-variation distance between frequencies and the spectrum.

    ``tv_core`` is half the absolute gap summed over j <= j_max;
    ``remainder`` is half of (empirical mass above j_max + truncation mass),
    bounding what the core misses, so the total variation is at most their
    sum.  ``max_abs_error`` is the largest gap at one degree j <= j_max.
    """

    tv_core: float
    remainder: float
    max_abs_error: float


def distribution_distance(
    emp: EmpiricalDistribution, spectrum: LimitSpectrum
) -> DistanceReport:
    """Compare empirical degree frequencies with the limit spectrum."""
    j_max = spectrum.j_max
    gap = np.zeros(j_max + 1)
    above = 0.0
    for j, f in emp.freq.items():
        if j <= j_max:
            gap[j] = f
        else:
            above += f
    gap[1:] -= spectrum.pi[1:]
    np.abs(gap, out=gap)
    return DistanceReport(
        tv_core=float(gap.sum() / 2.0),
        remainder=(above + spectrum.truncation_mass) / 2.0,
        max_abs_error=float(gap.max()),
    )


@dataclass(frozen=True)
class ChiSquareResult:
    """Two-sample chi-square comparison of degree-count pools."""

    statistic: float
    dof: int
    p_value: float
    bins: tuple[tuple[int, int], ...]  # inclusive (lo, hi) degree ranges


def embedding_equivalence_test(
    counts_a: Mapping[int, int], counts_b: Mapping[int, int]
) -> ChiSquareResult:
    """Two-sample chi-square test that two count pools share one law.

    Adjacent degrees are merged (ascending) until every merged bin has
    expected count >= 5 in both samples under the pooled frequencies; a
    trailing short bin is folded into the last one.  Raises RangeError
    naming ``counts_a`` or ``counts_b`` for an empty pool, and naming the
    smaller pool when fewer than two merged bins remain.  Degrees and counts are checked
    as by ``empirical_distribution``; a degree with a zero count still bounds
    a bin.
    """
    counts_a, counts_b = _checked_counts(counts_a), _checked_counts(counts_b)
    support = sorted(set(counts_a) | set(counts_b))
    if not support:
        raise RangeError("counts_a", "both pools are empty")
    a = np.array([counts_a.get(j, 0) for j in support], dtype=float)
    b = np.array([counts_b.get(j, 0) for j in support], dtype=float)
    return _chi_square(support, a, b, "counts_a", "counts_b")


def _chi_square(
    support: list[int], a: np.ndarray, b: np.ndarray, field_a: str, field_b: str
) -> ChiSquareResult:
    """The test of ``embedding_equivalence_test`` on float counts a, b of
    ``support``; a refusal names ``field_a`` or ``field_b``."""
    tot_a, tot_b = a.sum(), b.sum()
    if tot_a == 0 or tot_b == 0:
        raise RangeError(field_a if tot_a == 0 else field_b, "one pool is empty")
    pooled = (a + b) / (tot_a + tot_b)
    a, b, pooled = a.tolist(), b.tolist(), pooled.tolist()  # fast to index, same values

    bins: list[tuple[int, int]] = []
    obs_a: list[float] = []
    obs_b: list[float] = []
    acc_a = acc_b = acc_p = 0.0
    lo = support[0]
    for idx, j in enumerate(support):
        acc_a += a[idx]
        acc_b += b[idx]
        acc_p += pooled[idx]
        if min(tot_a * acc_p, tot_b * acc_p) >= _MIN_EXPECTED:
            bins.append((lo, j))
            obs_a.append(acc_a)
            obs_b.append(acc_b)
            acc_a = acc_b = acc_p = 0.0
            if idx + 1 < len(support):
                lo = support[idx + 1]
    if acc_p > 0.0 and bins:
        # fold the short tail into the last bin
        bins[-1] = (bins[-1][0], support[-1])
        obs_a[-1] += acc_a
        obs_b[-1] += acc_b
    if len(bins) < 2:
        smaller = field_a if tot_a <= tot_b else field_b
        raise RangeError(smaller, f"only {len(bins)} usable bin(s) after merging")

    oa = np.asarray(obs_a)
    ob = np.asarray(obs_b)
    pool = (oa + ob) / (tot_a + tot_b)
    ea, eb = tot_a * pool, tot_b * pool
    statistic = float(np.sum((oa - ea) ** 2 / ea) + np.sum((ob - eb) ** 2 / eb))
    dof = len(bins) - 1
    p = chi2_sf(statistic, dof)
    return ChiSquareResult(statistic=statistic, dof=dof, p_value=p, bins=tuple(bins))


def split_half_pvalues(
    pooled_counts: Mapping[int, int],
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Calibration: p-values from random split-halves of one count pool.

    Each trial bisects the pooled observations exactly in half, uniformly at
    random at the observation level (a hypergeometric split), and runs the
    two-sample chi-square on the halves.  Under this permutation null the
    test's p-values must be uniform, so the returned sample is a positive
    control of the statistic, binning, and dof bookkeeping.  The pool is
    checked as by ``empirical_distribution``.
    """
    n_trials = checked_int("n_trials", n_trials, 1)
    pooled_counts = _checked_counts(pooled_counts)
    support = sorted(j for j, c in pooled_counts.items() if c)
    if not support:
        raise RangeError("pooled_counts", "empty pool")
    colors = np.array([pooled_counts[j] for j in support], dtype=np.int64)
    total = int(colors.sum())
    if total < 4:
        raise RangeError("pooled_counts", "need at least 4 pooled observations to split")
    pvals = np.empty(n_trials)
    for t in range(n_trials):
        half_a = rng.multivariate_hypergeometric(colors, total // 2)
        half_b = colors - half_a
        pvals[t] = _chi_square(
            support, half_a.astype(float), half_b.astype(float), "pooled_counts", "pooled_counts"
        ).p_value
    return pvals


def chi2_sf(x: float, dof: int) -> float:
    """P(chi-square with integer ``dof`` degrees of freedom > x).

    With y = x/2 this is a finite sum: e^{-y} y^i / i! over i < dof/2 for even
    dof; erfc(sqrt(y)) plus e^{-y} y^(i+1/2) / Gamma(i+3/2) over i < (dof-1)/2
    for odd dof.  Terms are formed in log space, so none underflows alone.
    """
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    log_y = math.log(y)
    if dof % 2 == 0:
        terms = [math.exp(i * log_y - y - math.lgamma(i + 1)) for i in range(dof // 2)]
        return math.fsum(terms)
    terms = [
        math.exp((i + 0.5) * log_y - y - math.lgamma(i + 1.5)) for i in range((dof - 1) // 2)
    ]
    return min(1.0, math.erfc(math.sqrt(y)) + math.fsum(terms))


def uniformity_ks(pvalues: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic of a p-value sample against Uniform(0,1).

    For the sorted sample x_(1) <= ... <= x_(n) it is the larger of
    max_i i/n - x_(i) and max_i x_(i) - (i-1)/n.
    """
    x = np.asarray(pvalues, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0 or not np.isfinite(x).all():
        raise RangeError("pvalues", "need a non-empty sequence of finite values")
    x = np.sort(np.clip(x, 0.0, 1.0))
    n = x.shape[0]
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - x), np.max(x - (i - 1) / n)))

"""Output checks for the benchmark, computed apart from prefattach.

Nothing here imports the package under test: every reference value is
derived from the model's definition with the standard library alone, so a
fault in the program cannot hide behind the same fault in its own oracle.

Deterministic oracles return numbers; property checks return a list of
human-readable problems (empty when the output is correct).  Stochastic
checks compare a sample mean with its exact expectation at ``Z_BOUND``
standard errors.  The bound is wide enough for any correct sampler, whatever
its random stream: over 200 workload seeds the largest |z| seen was 4.3
(``sweep_seeds.py --clock``), and under a normal limit |z| > 6 has
probability 2e-9.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

Z_BOUND = 6.0


# -- edge-count laws ---------------------------------------------------------


def parse_law(label: str) -> dict[int, float]:
    """The pmf {j: P(X = j)} of a CLI law label, truncated where it is negligible.

    Geometric laws are cut once the remaining mass is below 1e-17.
    """
    kind, _, arg = label.partition(":")
    if kind == "det":
        return {int(arg): 1.0}
    if kind == "explicit":
        probs = [float(p) for p in arg.split(",")]
        total = sum(probs)
        return {j + 1: p / total for j, p in enumerate(probs) if p > 0}
    if kind == "geom":
        q = float(arg)
        pmf, j, tail = {}, 1, 1.0
        while tail > 1e-17:
            pmf[j] = (1.0 - q) ** (j - 1) * q
            tail -= pmf[j]
            j += 1
        return pmf
    raise ValueError(f"unknown law {label!r}")


def law_mean(pmf: Mapping[int, float]) -> float:
    return sum(j * p for j, p in pmf.items())


def growth_exponent(m: float, beta: float) -> float:
    """theta = m / (2m + beta)."""
    return m / (2.0 * m + beta)


def tail_exponent(m: float, beta: float) -> float:
    """pi_j decays like j^-(3 + beta/m)."""
    return 3.0 + beta / m


# -- limit spectrum ----------------------------------------------------------


def pi_gamma(x0: int, beta: float, j: int) -> float:
    """Closed form of pi_j for the fixed edge count X = x0, through Gamma functions.

    With a = beta / x0 and j = l x0,

        pi_j = (2 + a) Gamma(l + a) Gamma(3 + 2a) / (Gamma(1 + a) Gamma(l + 3 + 2a)),

    which is 4 / (l (l + 1) (l + 2)) at a = 0.  Degrees off the lattice
    x0 * N carry no mass.
    """
    if j < 1 or j % x0:
        return 0.0
    l, a = j // x0, beta / x0
    log_pi = (
        math.log(2.0 + a)
        + math.lgamma(l + a)
        + math.lgamma(3.0 + 2.0 * a)
        - math.lgamma(1.0 + a)
        - math.lgamma(l + 3.0 + 2.0 * a)
    )
    return math.exp(log_pi)


def pi_reference(pmf: Mapping[int, float], beta: float, j_max: int) -> list[float]:
    """pi_0..pi_jmax by the Laplace recursion, in plain Python floats.

    (2m + beta + j + beta) L_j = p_j + sum_k (j - k + beta) p_k L_{j-k}, and
    pi_j = (2m + beta) L_j.  Written from the model's forward equations, not
    from the package's vectorized code.
    """
    rate = 2.0 * law_mean(pmf) + beta
    support = sorted(k for k in pmf if k <= j_max)
    lap = [0.0] * (j_max + 1)
    for j in range(1, j_max + 1):
        acc = pmf.get(j, 0.0)
        for k in support:
            if k >= j:
                break
            acc += (j - k + beta) * pmf[k] * lap[j - k]
        lap[j] = acc / (rate + j + beta)
    return [rate * v for v in lap]


# -- chain outputs -----------------------------------------------------------


def degree_table_problems(
    counts: Mapping[int, int],
    pmf: Mapping[int, float],
    n: int,
    reps: int,
) -> list[str]:
    """Vertex count n + 2 per run and the handshake identity sum j c_j = 2(1 + sum X).

    sum X is known exactly only for a fixed edge count; otherwise it must lie
    between n * min X and n * max X per run, and the degree sum stays even.
    """
    problems = []
    vertices = sum(counts.values())
    if vertices != reps * (n + 2):
        problems.append(f"vertex count {vertices} != reps * (n + 2) = {reps * (n + 2)}")
    if any(c < 0 for c in counts.values()) or any(j < 1 for j, c in counts.items() if c):
        problems.append("negative count or a vertex of degree < 1")
    degree_sum = sum(j * c for j, c in counts.items())
    if degree_sum % 2:
        problems.append(f"degree sum {degree_sum} is odd")
    lo, hi = min(pmf), max(pmf)
    low = reps * 2 * (1 + n * lo)
    if len(pmf) == 1 and degree_sum != low:
        problems.append(f"handshake: degree sum {degree_sum} != 2 reps (1 + n x0) = {low}")
    if degree_sum < low:
        problems.append(f"handshake: degree sum {degree_sum} below 2 reps (1 + n min X) = {low}")
    if len(pmf) <= 16 and degree_sum > reps * 2 * (1 + n * hi):
        problems.append(f"handshake: degree sum {degree_sum} above 2 reps (1 + n max X)")
    return problems


def series_problems(
    steps: Sequence[int],
    probes: Mapping[int, Sequence[int]],
    max_series: Sequence[int],
    argmax_series: Sequence[int],
) -> list[str]:
    """Probe and running-max series are nondecreasing and M_n bounds every probe."""
    problems = []
    if list(steps) != sorted(set(steps)):
        problems.append("recorded steps are not strictly increasing")
    if any(b < a for a, b in zip(max_series, max_series[1:])):
        problems.append("running max M_n decreases")
    for vertex, series in probes.items():
        if any(b < a for a, b in zip(series, series[1:])):
            problems.append(f"probe {vertex} degree decreases")
        if any(d > m for d, m in zip(series, max_series)):
            problems.append(f"probe {vertex} degree exceeds M_n")
    for k, label in zip(steps, argmax_series):
        if not 1 <= label <= k + 2:
            problems.append(f"argmax {label} is not a vertex at step {k}")
            break
    return problems


def tv_core(freq: Mapping[int, float], pi: Sequence[float]) -> float:
    """Half the absolute gap between frequencies and pi over 1 <= j <= j_max."""
    j_max = len(pi) - 1
    return 0.5 * sum(abs(freq.get(j, 0.0) - pi[j]) for j in range(1, j_max + 1))


# -- event clock -------------------------------------------------------------


def rate_ledger_problems(
    s_values: Sequence[float], xs: Sequence[int], beta: float
) -> list[str]:
    """S_k = 2 + 2 (X_1 + ... + X_k) + (k + 2) beta for every k."""
    total = 0
    for k, s in enumerate(s_values):
        expected = 2 + 2 * total + (k + 2) * beta
        if abs(s - expected) > 1e-9 * expected:
            return [f"S_{k} = {s} but 2 + 2 sum X + (k + 2) beta = {expected}"]
        if k < len(xs):
            total += int(xs[k])
    return []


def z_score(sample: Sequence[float], expected: float) -> float:
    """(sample mean - expected) in standard errors, with the sample's own sd."""
    n = len(sample)
    mean = math.fsum(sample) / n
    var = math.fsum((x - mean) ** 2 for x in sample) / (n - 1)
    return (mean - expected) / math.sqrt(var / n)


def mean_problem(
    sample: Sequence[float], expected: float, what: str, z: float = Z_BOUND
) -> list[str]:
    """The sample mean sits within z standard errors of ``expected``."""
    score = z_score(sample, expected)
    if abs(score) > z:
        return [f"{what}: mean is {score:+.2f} SE from {expected:.6g}"]
    return []


def yule_scaled_mean(initial: int, beta: float, t: float) -> float:
    """E[D(t) e^-t] for a unit-jump size process at rate D + beta from D(0) = initial."""
    return (initial + beta) - beta * math.exp(-t)


# -- chi-square --------------------------------------------------------------


def chi_square(
    counts_a: Mapping[int, int], counts_b: Mapping[int, int], bins: Iterable[tuple[int, int]]
) -> float:
    """Two-sample Pearson statistic on the given inclusive degree bins."""
    obs_a = [sum(c for j, c in counts_a.items() if lo <= j <= hi) for lo, hi in bins]
    obs_b = [sum(c for j, c in counts_b.items() if lo <= j <= hi) for lo, hi in bins]
    tot_a, tot_b = sum(counts_a.values()), sum(counts_b.values())
    stat = 0.0
    for oa, ob in zip(obs_a, obs_b):
        pooled = (oa + ob) / (tot_a + tot_b)
        ea, eb = tot_a * pooled, tot_b * pooled
        stat += (oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb
    return stat


def chi_square_sf(x: float, dof: int) -> float:
    """P(chi^2_dof > x) by the recurrence Q(a + 1, h) = Q(a, h) + h^a e^-h / Gamma(a + 1)."""
    h = x / 2.0
    a, q = (1.0, math.exp(-h)) if dof % 2 == 0 else (0.5, math.erfc(math.sqrt(h)))
    while a < dof / 2.0:
        q += math.exp(a * math.log(h) - h - math.lgamma(a + 1.0)) if h > 0 else 0.0
        a += 1.0
    return q


def ks_uniform(sample: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance of a sample from Uniform(0, 1)."""
    xs = sorted(sample)
    n = len(xs)
    return max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(xs))

"""The limiting degree spectrum and growth exponents, computed numerically.

Writing m for the mean edge count and beta >= 0 for the uniform attachment
weight, the chain's observables converge with these limits:

* growth exponent  theta = m / (2m + beta): fixed-vertex degrees and the
  maximum degree grow like n^theta;
* limit spectrum   pi_j = the long-run fraction of vertices of degree j.

The spectrum has an integral form: a vertex picked uniformly at random is,
in the event-clock time scale, a size process started from a fresh edge
count and aged by an independent Exponential(2m + beta) time, so

    pi_j = rate * integral_0^inf P_j(y) exp(-rate * y) dy,   rate = 2m + beta,

where P_j(y) = P(size at age y = j) solves the forward system

    P_j'(y) = -(j + beta) P_j(y) + sum_{k>=1} (j - k + beta) p_k P_{j-k}(y),
    P_j(0) = p_j.

Two independent routes to pi are implemented.  Taking Laplace transforms of
the forward system turns it into the lower-triangular recursion

    (rate + j + beta) L_j = p_j + sum_{k=1}^{j-1} (j - k + beta) p_k L_{j-k},
    pi_j = rate * L_j,

which is exact for every j <= j_max (states above the cutoff never feed back
down).  Alternatively the damped system R_j = P_j exp(-rate*y) is integrated
directly with a fixed-step 4th-order scheme, accumulating Q' = rate * R so
that Q(y_max) -> pi.  Agreement between the two is a strong correctness
check, since they share only the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonPositiveMean, RangeError, StepTooCoarse, checked_int, checked_real
from .laws import EdgeCountDistribution, validate_edge_law

_Y_MAX_MASS = 1e-12  # default domain cutoff: exp(-rate * y_max) below this
MIN_QUAD_STEPS = 1000  # fewest integration steps pi_quadrature accepts
# Largest truncation degree accepted, checked before anything is allocated.
# It is the largest the package uses itself (moment-dichotomy at the full
# profile); pi_quadrature holds nine dense j_max x j_max float64 blocks, 1.8 GB
# at this cap, where 30,000 would need 65 GB.
MAX_J_MAX = 5000


def theta(m: float, beta: float) -> float:
    """Growth exponent m / (2m + beta)."""
    if not (math.isfinite(m) and m > 0):
        raise NonPositiveMean(f"mean edge count must be positive, got {m}")
    beta = checked_real("beta", beta)
    return m / (2.0 * m + beta)


def tail_exponent_theory(m: float, beta: float) -> float:
    """Decay exponent of the spectrum tail: pi_j ~ const * j^-(3 + beta/m)."""
    if not (math.isfinite(m) and m > 0):
        raise NonPositiveMean(f"mean edge count must be positive, got {m}")
    beta = checked_real("beta", beta)
    return 3.0 + beta / m


@dataclass(frozen=True)
class LimitSpectrum:
    """A truncated limit spectrum.

    ``pi`` has length j_max + 1 with ``pi[j]`` the weight of degree j and
    ``pi[0] = 0``; ``truncation_mass`` is the weight beyond j_max.
    """

    theta: float
    pi: np.ndarray
    tail_exponent: float
    truncation_mass: float
    rate: float

    @property
    def j_max(self) -> int:
        return self.pi.shape[0] - 1


def pi_explicit(x0: int, beta: float, j: int) -> float:
    """Closed-form spectrum weight for the fixed edge count X = x0.

    Mass sits on multiples j = l * x0 only:

        pi_{l x0} = (2 x0 + beta) / ((l + 2) x0 + 2 beta)
                    * prod_{k=1}^{l-1} (k x0 + beta) / ((k + 2) x0 + 2 beta)

    and for beta = 0 this collapses to pi_{l x0} = 4 / (l (l+1) (l+2)).
    """
    x0 = checked_int("x0", x0, 1)
    beta = checked_real("beta", beta)
    j = checked_int("j", j, None)
    if j < 1 or j % x0 != 0:
        return 0.0
    l = j // x0
    k = np.arange(1.0, l)
    ratios = (k * x0 + beta) / ((k + 2.0) * x0 + 2.0 * beta)
    return (2.0 * x0 + beta) / ((l + 2.0) * x0 + 2.0 * beta) * float(np.prod(ratios))


def pi_recursive(edge_law: EdgeCountDistribution, beta: float, j_max: int) -> LimitSpectrum:
    """The spectrum via the lower-triangular Laplace recursion (exact)."""
    law = validate_edge_law(edge_law)
    j_max = checked_int("j_max", j_max, 1, MAX_J_MAX)
    beta = checked_real("beta", beta)
    m = law.mean
    rate = 2.0 * m + beta

    p = law.pmf_vector(j_max)
    lap = np.zeros(j_max + 1)
    weighted = np.zeros(j_max + 1)  # weighted[i] = (i + beta) * lap[i]
    for j in range(1, j_max + 1):
        inflow = p[j]
        if j > 1:
            # sum over k of p_k * (j - k + beta) L_{j-k}
            inflow += float(np.dot(p[1:j], weighted[j - 1 : 0 : -1]))
        lap[j] = inflow / (rate + j + beta)
        weighted[j] = (j + beta) * lap[j]

    pi = rate * lap
    truncation = max(0.0, 1.0 - float(pi[1:].sum()))
    return LimitSpectrum(
        theta=theta(m, beta),
        pi=pi,
        tail_exponent=tail_exponent_theory(m, beta),
        truncation_mass=truncation,
        rate=rate,
    )


def pi_quadrature(
    edge_law: EdgeCountDistribution,
    beta: float,
    j_max: int,
    y_max: float | None = None,
    steps: int = 20000,
    tol: float = 1e-6,
) -> np.ndarray:
    """The spectrum by direct integration of the damped forward system.

    Returns an array like LimitSpectrum.pi (index j, entry 0 unused).  The
    damped occupation vector R and the running integral Q are advanced
    jointly with classical 4th-order steps of size y_max / steps; the same
    propagation at half the step feeds a step-doubling error estimate, and
    the refined values are returned.  Raises StepTooCoarse when the domain
    cutoff keeps >= tol of the mass (in particular for y_max = 0) or when
    the error estimate exceeds tol or is not a number.
    """
    law = validate_edge_law(edge_law)
    j_max = checked_int("j_max", j_max, 1, MAX_J_MAX)
    steps = checked_int("steps", steps, MIN_QUAD_STEPS)
    beta = checked_real("beta", beta)
    rate = 2.0 * law.mean + beta
    if y_max is None:
        y_max = -np.log(_Y_MAX_MASS) / rate
    else:
        y_max = checked_real("y_max", y_max)
    cutoff_mass = float(np.exp(-rate * y_max))
    if cutoff_mass >= tol:
        raise StepTooCoarse(
            f"domain [0, {y_max:g}] keeps only exp(-rate*y_max) = {cutoff_mass:.3e} "
            f"of the age distribution resolved (tolerance {tol:g})",
            values=np.zeros(j_max + 1),
            estimate=cutoff_mass,
        )

    p = law.pmf_vector(j_max)
    j_idx = np.arange(1, j_max + 1, dtype=float)
    # Damped generator: dR_j/dy = -(rate + j + beta) R_j
    #                             + sum_k (j - k + beta) p_k R_{j - k}.
    gen = np.zeros((j_max, j_max))
    gen[np.diag_indices(j_max)] = -(rate + j_idx + beta)
    for k in range(1, j_max):
        if p[k] != 0.0:
            col = np.arange(1, j_max - k + 1, dtype=float)
            gen += np.diag((col + beta) * p[k], -k)
    # The augmented system v = [R; Q], dQ/dy = rate * R, has an RK4 step of
    # the block form [[S, 0], [B, I]], and so has every power of it: the
    # product of (S1, B1) and (S2, B2) is (S1 S2, B1 S2 + B2).  Only the pair
    # (S, B) is powered, and each power is applied to (R, Q) as it is made.
    eye = np.eye(j_max)

    def propagate(n_steps: int) -> np.ndarray:
        h = y_max / n_steps
        hg = h * gen
        term_s, term_b = hg, rate * h * eye  # the blocks of the first Taylor term
        step_s, step_b = eye + term_s, term_b
        for order in range(2, 5):
            term_s = term_s @ hg / order
            term_b = term_b @ hg / order
            step_s = step_s + term_s
            step_b = step_b + term_b
        # (R, Q)(y_max) = step^n_steps (R, Q)(0), by binary powering.
        r, q = p[1:], np.zeros(j_max)
        k = n_steps
        while k:
            if k & 1:
                r, q = step_s @ r, step_b @ r + q
            k >>= 1
            if k:
                step_s, step_b = step_s @ step_s, step_b @ step_s + step_b
        return q

    coarse = propagate(steps)
    fine = propagate(2 * steps)
    estimate = float(np.max(np.abs(fine - coarse))) / 15.0
    pi_hat = np.concatenate(([0.0], fine))
    if not estimate <= tol:  # also a NaN estimate from an overflowing step
        raise StepTooCoarse(
            f"step-doubling error estimate {estimate:.3e} exceeds tolerance {tol:g}",
            values=pi_hat,
            estimate=estimate,
        )
    return pi_hat


@dataclass(frozen=True)
class MomentCurve:
    """Partial sums of j^s pi_j against the truncation cutoff.

    ``partial_sums[j]`` = sum_{i <= j} i^s pi_i (entry 0 is 0).  The verdict
    is "diverging" when the log-log slope of the increments over the trailing
    decade is >= -1 (integral test) and "plateauing" otherwise;
    ``last_decade_increase`` reports the fraction of the final level gained
    over that decade.
    """

    s: float
    partial_sums: np.ndarray
    verdict: str
    last_decade_increase: float
    increment_slope: float


def moment_profile(spectrum: LimitSpectrum, s_values: Sequence[float]) -> list[MomentCurve]:
    """Partial-sum curves of sum_j j^s pi_j for each requested s."""
    j_max = spectrum.j_max
    if j_max < 10:
        raise RangeError("spectrum.j_max", "need j_max >= 10 for a trailing decade")
    j = np.arange(1, j_max + 1, dtype=float)
    curves = []
    for s in s_values:
        inc = j**s * spectrum.pi[1:]
        sums = np.concatenate(([0.0], np.cumsum(inc)))
        start = max(1, j_max // 10)
        window = slice(start - 1, j_max)  # j in [start, j_max], 0-based into inc
        pos = inc[window] > 0.0
        if int(pos.sum()) >= 2:
            logs_j = np.log(j[window][pos])
            logs_inc = np.log(inc[window][pos])
            slope = float(np.polyfit(logs_j, logs_inc, 1)[0])
        else:
            slope = float("-inf")
        final = float(sums[-1])
        gain = float((sums[-1] - sums[start]) / final) if final > 0 else 0.0
        curves.append(
            MomentCurve(
                s=float(s),
                partial_sums=sums,
                verdict="diverging" if slope >= -1.0 else "plateauing",
                last_decade_increase=gain,
                increment_slope=slope,
            )
        )
    return curves

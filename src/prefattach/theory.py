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

Two codings of pi are implemented.  Taking Laplace transforms of the
forward system turns it into the lower-triangular recursion

    (rate + j + beta) L_j = p_j + sum_{k=1}^{j-1} (j - k + beta) p_k L_{j-k},
    pi_j = rate * L_j,

which is exact for every j <= j_max (states above the cutoff never feed back
down).  Alternatively the damped system R' = G R, R_j = P_j exp(-rate*y), is
integrated directly with a fixed-step 4th-order scheme, accumulating
Q' = rate * R so that Q(y_max) -> pi.  The two are not independent routes:
Q - rate G^{-1} R is a linear invariant that every Runge-Kutta step keeps,
and the recursion is pi = -rate G^{-1} R(0), so the quadrature returns the
recursion plus rate G^{-1} R(y_max), a term of the order of
exp(-rate * y_max), whatever the step size.  Their agreement checks the
coding of G and of the step, not the integral form itself.

When every X is a multiple of g, so is every degree: P_j and pi_j vanish off
the lattice gN, and the system splits into exact zeros and the j_max // g
states j = g, 2g, ....  Both codings solve only those states (_lattice).

One finite-t law sits here too: a det:x0 size process makes a negative
binomial number of jumps by any time t (_negbin_cdf), which the scaled-size
check tests its paths against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MAX_BETA, RangeError, StepTooCoarse, checked_int, checked_real
from .laws import EdgeCountDistribution, validate_edge_law

_Y_MAX_MASS = 1e-12  # default domain cutoff: exp(-rate * y_max) below this
MIN_QUAD_STEPS = 1000  # fewest integration steps pi_quadrature accepts
# Largest truncation degree accepted, checked before anything is allocated.
# It is the largest the package uses itself (moment-dichotomy at the full
# profile).
MAX_J_MAX = 5000
# The quadrature's own cap: it holds up to five dense (j_max/g)^2 float64 blocks for a law on
# the lattice gN and costs O((j_max/g)^3).  At the cap `theory` took 16.7 s (geom:0.5, beta 1)
# and 7.4 s (det:1), 196 MB, on one BLAS thread of 2 vCPUs; det:4 at beta 0.5 took 0.46 s and
# 43 MB.  det:1 at 20,000 steps fails step doubling from 2500.
MAX_QUAD_J_MAX = 2000
# Largest degree pi_explicit accepts, checked before its product table (one float per
# multiple of x0 up to j, 8 MB at the cap) is built.
MAX_EXPLICIT_J = 1 << 20


def theta(m: float, beta: float) -> float:
    """Growth exponent m / (2m + beta)."""
    m = checked_real("m", m, None)
    if m <= 0:
        raise RangeError("m", f"mean edge count must be positive, got {m}")
    beta = checked_real("beta", beta, 0.0, MAX_BETA)
    return m / (2.0 * m + beta)


def tail_exponent_theory(m: float, beta: float) -> float:
    """Decay exponent of the spectrum tail: pi_j ~ const * j^-(3 + beta/m)."""
    m = checked_real("m", m, None)
    if m <= 0:
        raise RangeError("m", f"mean edge count must be positive, got {m}")
    beta = checked_real("beta", beta, 0.0, MAX_BETA)
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
    A j above MAX_EXPLICIT_J raises RangeError.
    """
    x0 = checked_int("x0", x0, 1)
    beta = checked_real("beta", beta, 0.0, MAX_BETA)
    j = checked_int("j", j, None, MAX_EXPLICIT_J)
    if j < 1 or j % x0 != 0:
        return 0.0
    l = j // x0
    # Tables of up to 8192 entries are cached, in powers of two so that a sweep reuses few.
    size = max(64, 1 << (l - 1).bit_length())
    products = _products(x0, beta, size) if size <= 8192 else _products.__wrapped__(x0, beta, l)
    return (2.0 * x0 + beta) / ((l + 2.0) * x0 + 2.0 * beta) * float(products[l - 1])


def _pi_explicit_vector(x0: int, beta: float, j_max: int) -> np.ndarray:
    """pi_explicit(x0, beta, j) for j = 0..j_max, bit for bit, from one product table.

    The table is built for the call and not cached: a prefix of np.cumprod
    does not depend on the table's length.
    """
    x0 = checked_int("x0", x0, 1)
    beta = checked_real("beta", beta, 0.0, MAX_BETA)
    j_max = checked_int("j", j_max, None, MAX_EXPLICIT_J)
    pi = np.zeros(j_max + 1)
    top = j_max // x0
    if top:
        l = np.arange(1, top + 1)
        ratio = (2.0 * x0 + beta) / ((l + 2.0) * x0 + 2.0 * beta)
        pi[x0::x0] = ratio * _products.__wrapped__(x0, beta, top)
    return pi


@functools.lru_cache(maxsize=32)
def _products(x0: int, beta: float, length: int) -> np.ndarray:
    """prod_{k=1}^{i} (k x0 + beta) / ((k + 2) x0 + 2 beta) for i < length, in np.prod's order."""
    k = np.arange(1.0, length)
    ratios = (k * x0 + beta) / ((k + 2.0) * x0 + 2.0 * beta)
    return np.cumprod(np.concatenate(([1.0], ratios)))


def _lattice(law: EdgeCountDistribution, j_max: int) -> tuple[int, np.ndarray]:
    """The step g of the lattice gN that holds the law's mass at or below j_max,
    and q with q[l] = p_{lg} for l = 0..j_max // g.

    A degree is a sum of X draws, so the spectrum lives on gN too: g is x0 for a
    det law, the gcd of the table's support for an explicit law and 1 for a
    geometric one.  A law with no mass at or below j_max has no state there
    (g = j_max + 1).
    """
    p = law.pmf_vector(j_max)
    g = int(np.gcd.reduce(np.flatnonzero(p))) or j_max + 1
    return g, p[::g]


def pi_recursive(edge_law: EdgeCountDistribution, beta: float, j_max: int) -> LimitSpectrum:
    """The spectrum via the lower-triangular Laplace recursion (exact).

    The recursion runs over the degrees g, 2g, ... <= j_max of the law's
    lattice (see _lattice); every other entry of ``pi`` is exactly 0.  When
    the law has one support point at or below j_max (a det law), that point
    is g, and each state's sum is one product, taken in plain floats rather
    than by a dot product, with the same value.
    """
    law = validate_edge_law(edge_law)
    j_max = checked_int("j_max", j_max, 1, MAX_J_MAX)
    beta = checked_real("beta", beta, 0.0, MAX_BETA)
    m = law.mean
    rate = 2.0 * m + beta

    g, q = _lattice(law, j_max)
    states = j_max // g
    lap = q.tolist()  # entry l holds q_l until it is overwritten by L_{lg}
    if np.count_nonzero(q) == 1:
        # the one support point is g: the sum is q_1 ((l - 1) g + beta) L_{(l-1)g}
        q1, prev = lap[1], 0.0
        for l in range(1, states + 1):
            j = l * g
            lap[l] = (lap[l] + prev) / (rate + j + beta)
            prev = q1 * ((j + beta) * lap[l])
    else:
        rev = np.zeros(states + 1)  # rev[states - i] = (ig + beta) L_{ig}: the sum reads forwards
        for l in range(1, states + 1):
            j = l * g
            # q_l plus the sum over k of q_k ((l - k) g + beta) L_{(l-k)g}, empty at l = 1
            inflow = lap[l] + float(np.dot(q[1:l], rev[states - l + 1 : states]))
            lap[l] = inflow / (rate + j + beta)
            rev[states - l] = (j + beta) * lap[l]

    pi = np.zeros(j_max + 1)
    pi[::g] = rate * np.array(lap)
    truncation = max(0.0, 1.0 - float(pi[1:].sum()))
    return LimitSpectrum(
        theta=theta(m, beta),
        pi=pi,
        tail_exponent=tail_exponent_theory(m, beta),
        truncation_mass=truncation,
        rate=rate,
    )


# Order at and below which _tril_matmul multiplies densely.  Each split
# halves a block's multiply-adds but adds BLAS calls, so small blocks go
# whole; 64, 128 and 192 timed the same at j_max 200 to 800.
_TRIL_BLOCK = 128


def _tril_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The product of two lower-triangular square matrices, into ``out``.

    Splits into 2 x 2 blocks, [[A11, 0], [A21, A22]] [[B11, 0], [B21, B22]]
    = [[A11 B11, 0], [A21 B11 + A22 B21, A22 B22]], and recurses on the
    diagonal blocks above _TRIL_BLOCK; the zero block is never computed.
    """
    n = a.shape[0]
    if out is None:
        out = np.empty_like(a)
    if n <= _TRIL_BLOCK:
        return np.matmul(a, b, out=out)
    h = n // 2
    out[:h, h:] = 0.0
    _tril_matmul(a[:h, :h], b[:h, :h], out[:h, :h])
    _tril_matmul(a[h:, h:], b[h:, h:], out[h:, h:])
    low = out[h:, :h]
    np.matmul(a[h:, :h], b[:h, :h], out=low)
    low += a[h:, h:] @ b[h:, :h]
    return out


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
    the refined values are returned.  The system is solved on the degrees g,
    2g, ... <= j_max of the law's lattice (see _lattice), so its blocks have
    order j_max // g, and every other entry is exactly 0.

    Raises RangeError naming ``tol`` for a tol that is not a positive number,
    StepTooCoarse naming ``y_max`` when the domain cutoff keeps >= tol of the
    mass (in particular for y_max = 0) and naming ``steps`` when the error
    estimate exceeds tol or is not a number, and RangeError for j_max above
    MAX_QUAD_J_MAX before anything is allocated.
    """
    law = validate_edge_law(edge_law)
    j_max = checked_int("j_max", j_max, 1, MAX_QUAD_J_MAX)
    steps = checked_int("steps", steps, MIN_QUAD_STEPS)
    beta = checked_real("beta", beta, 0.0, MAX_BETA)
    tol = checked_real("tol", tol, None)
    if tol <= 0:
        raise RangeError("tol", f"must be > 0, got {tol:g}")
    rate = 2.0 * law.mean + beta
    if y_max is None:
        y_max = -np.log(_Y_MAX_MASS) / rate
    else:
        y_max = checked_real("y_max", y_max)
    cutoff_mass = float(np.exp(-rate * y_max))
    if cutoff_mass >= tol:
        raise StepTooCoarse(
            "y_max",
            f"domain [0, {y_max:g}] keeps only exp(-rate*y_max) = {cutoff_mass:.3e} "
            f"of the age distribution resolved (tolerance {tol:g})",
            values=np.zeros(j_max + 1),
            estimate=cutoff_mass,
        )

    g, q = _lattice(law, j_max)
    states = j_max // g
    pi_hat = np.zeros(j_max + 1)
    if not states:
        return pi_hat
    col = np.arange(g, j_max + 1, g, dtype=float)  # the degree of each state
    diag = np.diag_indices(states)
    # Damped generator on the lattice: dR_j/dy = -(rate + j + beta) R_j
    #                                  + sum_k (j - k + beta) p_k R_{j - k},
    # so gen[i, c] = (col[c] + beta) q[i - c] below the diagonal.  Row i of
    # the window view reads q[i - c] for c <= i and the zero padding beyond.
    window = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((np.zeros(states - 1), q[:states])), states
    )[:, ::-1]
    # The augmented system [R; Q], dQ/dy = rate * R, has the RK4 step [[S, 0], [B, I]], so
    # n steps from Q(0) = 0 give Q = B sum_{k<n} S^k R(0).  Only S is powered; S, B and
    # every power of S are lower triangular.

    def propagate(n_steps: int) -> np.ndarray:
        h = y_max / n_steps
        hg = window * (col + beta)  # the generator, then scaled to h * gen
        hg[diag] = -(rate + col + beta)
        hg *= h
        # S = sum_{k<=4} (hg)^k / k! and B = rate h sum_{k<=4} (hg)^(k-1) / k!,
        # so the order-k term of B is rate h / k times the order-(k-1) term of S.
        power = hg.copy()
        power[diag] += 1.0
        step_b = hg * (rate * h / 2.0)
        step_b[diag] += rate * h
        term = hg
        for order in range(2, 5):
            term = _tril_matmul(term, hg)
            term /= order
            power += term
            if order < 4:
                step_b += term * (rate * h / (order + 1))
        del hg, term  # two blocks fewer while powering
        # Bits of n_steps lowest first; at bit i power = S^(2^i), v = sum_{k<2^i}
        # S^k R(0), and x sums S^k R(0) over k below the bits read so far.
        v, x, k = q[1:], np.zeros(states), n_steps
        while k:
            if k & 1:
                x = v + power @ x
            k >>= 1
            if k:
                v = v + power @ v
                power = _tril_matmul(power, power)
        return step_b @ x

    coarse = propagate(steps)
    fine = propagate(2 * steps)
    estimate = float(np.max(np.abs(fine - coarse))) / 15.0
    pi_hat[g::g] = fine
    if not estimate <= tol:  # also a NaN estimate from an overflowing step
        raise StepTooCoarse(
            "steps",
            f"step-doubling error estimate {estimate:.3e} exceeds tolerance {tol:g}",
            values=pi_hat,
            estimate=estimate,
        )
    return pi_hat


@dataclass(frozen=True)
class MomentCurve:
    """Partial sums of j^s pi_j against the truncation cutoff.

    ``partial_sums[j]`` = sum_{i <= j} i^s pi_i (entry 0 is 0); they are inf
    where j^s passes the float range.  The verdict is "diverging" when the
    log-log slope of the increments over the trailing decade is >= -1
    (integral test) and "plateauing" otherwise; ``last_decade_increase``
    reports the fraction of the final level gained over that decade.
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
    pi = spectrum.pi[1:]
    support = pi > 0.0
    log_j = np.log(j)
    log_pi = np.log(pi, out=np.full(j_max, -np.inf), where=support)
    start = max(1, j_max // 10)
    window = slice(start - 1, j_max)  # j in [start, j_max], 0-based into inc
    pos = support[window]
    curves = []
    for s in s_values:
        s = checked_real("s", s, None)
        with np.errstate(over="ignore"):  # j^s past the float range: inf, never inf * 0
            inc = np.multiply(j**s, pi, out=np.zeros(j_max), where=support)
        sums = np.concatenate(([0.0], np.cumsum(inc)))
        # log(j^s pi_j): the increment's own log while it is a positive float, else
        # s log j + log pi_j, which stays finite wherever pi_j > 0
        finite = (inc > 0.0) & (inc < np.inf)
        log_inc = np.log(inc, out=s * log_j + log_pi, where=finite)
        if int(pos.sum()) >= 2:
            slope = float(np.polyfit(log_j[window][pos], log_inc[window][pos], 1)[0])
        else:
            slope = float("-inf")
        final = float(sums[-1])
        if final == np.inf:  # the same fraction from the increments over their largest
            scaled = np.exp(log_inc - log_inc.max())
            gain = float(scaled[start:].sum() / scaled.sum())
        else:
            gain = float((sums[-1] - sums[start]) / final) if final > 0 else 0.0
        curves.append(
            MomentCurve(
                s=s,
                partial_sums=sums,
                verdict="diverging" if slope >= -1.0 else "plateauing",
                last_decade_increase=gain,
                increment_slope=slope,
            )
        )
    return curves


def _negbin_cdf(c0: float, p: float, k_max: int) -> np.ndarray:
    """P(K <= k) for k = 0..k_max, K ~ NegBin(c0, p):

        P(K = k) = Gamma(c0 + k) / (Gamma(c0) k!) p^c0 (1 - p)^k.

    The log-pmf starts at c0 log p and steps by log((c0 + k - 1)(1 - p) / k);
    the CDF is the cumulative sum of its exponential, built in place in two
    arrays.  A det:x0 size process started at D_0 makes
    K(t) ~ NegBin((D_0 + beta) / x0, e^{-x0 t}) jumps by t.
    """
    steps = np.arange(1.0, k_max + 1)
    np.divide(c0 - 1.0, steps, out=steps)  # (c0 + k - 1) / k - 1
    np.log1p(steps, out=steps)
    steps += math.log1p(-p)
    cdf = np.empty(k_max + 1)
    cdf[0] = c0 * math.log(p)
    np.cumsum(steps, out=cdf[1:])
    cdf[1:] += cdf[0]
    np.exp(cdf, out=cdf)
    return np.cumsum(cdf, out=cdf)

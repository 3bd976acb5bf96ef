"""The acceptance-check suite: every headline limit theorem, desk-scale.

``CATALOGUE`` lists the checks in report order, one ``Check`` record each:
name, claim, comparison, threshold defaults, the dotted sub-parameters a
threshold override may move, and the (law, beta) cases an empirical check
runs.  A check derives its expected limits from its cases by closed forms,
never from the sampler or the spectrum recursion it tests.  ``ALL_CHECKS``,
the profiles and their check lists, and the accepted threshold keys all
derive from the catalogue.

VerifySession owns the expensive shared artifacts (the large chain run, the
run ensembles) so checks can share them, and its ``run`` is the one runner:
it calls each ``check_<name>`` with its row, times it, applies the
catalogue's runtime bound and builds the CheckResult.  All randomness
derives from one master seed through fixed substream indices, so a report
is reproducible byte-for-byte.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from .analysis import (
    distribution_distance,
    empirical_distribution,
    embedding_equivalence_test,
    freeze_detector,
    max_degree_check,
    split_half_pvalues,
    tail_fit,
    trajectory_limit_check,
    uniformity_ks,
)
from .branching import _PathBuffers, run_embedding, tau_diagnostics
from .errors import RangeError, StepTooCoarse, checked_int, checked_real
from .graph import ModelConfig, run_chain
from .laws import EdgeCountDistribution, deterministic, explicit, geometric
from .replicate import replicate
from .streams import MAX_SEED, mix64, substream
from .theory import _pi_explicit_vector, moment_profile, pi_explicit, pi_quadrature
from .theory import pi_recursive, tail_exponent_theory, theta

DEFAULT_MASTER_SEED = 20260815


@dataclass(frozen=True)
class Check:
    """One catalogue entry: what a check claims and the bounds it starts from.

    A default is one number for every profile, or a pair (full, quick) where
    the quick profile relaxes it; the theory profile uses the full defaults.
    ``params`` maps each sub-parameter, overridden as "<name>.<param>", to
    its default; a "runtime" entry holds the check to that many seconds.
    ``cases`` lists the (law, beta) models an empirical check runs, and its
    limits follow from them; a part of a check that runs one model (such as
    the shared ``lln_run`` and ``ensemble``) runs the first case.
    """

    name: str
    claim: str
    comparison: str
    threshold: float | tuple[float, float]
    params: Mapping[str, float | tuple[float, float]] = field(default_factory=dict)
    theory: bool = False  # part of the theory profile
    cases: tuple[tuple[EdgeCountDistribution, float], ...] = ()

    def defaults(self, quick: bool) -> dict[str, float]:
        """Every threshold key of this check with its default at one scale."""

        def pick(value):
            return value[quick] if isinstance(value, tuple) else value

        out = {self.name: pick(self.threshold)}
        out.update({f"{self.name}.{p}": pick(v) for p, v in self.params.items()})
        return out


CATALOGUE = (
    Check(
        "explicit-spectrum-crosscheck",
        "recursion reproduces the closed-form spectrum for fixed edge counts",
        "<=", 1e-12, {"runtime": 1.0}, theory=True,
    ),
    Check(
        "dual-route-pi",
        "recursion and direct quadrature agree on the limit spectrum",
        "<=", 1e-6, {"runtime": 30.0}, theory=True,
    ),
    Check(
        "degree-lln",
        "degree frequencies converge to the limit spectrum",
        "<=", (0.01, 0.06), {"r1": (0.01, 0.04), "runtime": 60.0},
        cases=((deterministic(1), 0.0),),
    ),
    # The headline key bounds the empirical slope gap; the reported value is
    # the largest gap-to-band ratio, held to 1.  Each case's band is keyed by
    # its beta.
    Check(
        "tail-exponent",
        "tail decay exponent matches 3 + beta/m",
        "<=", (0.4, 0.7), {"band_beta0": 0.15, "band_beta1": 0.2}, theory=True,
        cases=((deterministic(1), 0.0), (deterministic(1), 1.0)),
    ),
    Check(
        "moment-dichotomy",
        "moment partial sums split at s = 2 + beta/m (boundary diverges)",
        ">=", 1.0, theory=True, cases=((deterministic(1), 0.0),),
    ),
    Check(
        "growth-exponents",
        "fixed-vertex and maximum degrees grow like n^theta with a plateau",
        ">=", (0.85, 0.7), {"trajectory_osc": 0.2, "max_osc": 0.25, "runtime": 300.0},
        cases=((deterministic(1), 0.0),),
    ),
    Check(
        "index-freezing",
        "the maximal-degree vertex index eventually freezes",
        ">=", (0.85, 0.7), cases=((deterministic(1), 0.0),),
    ),
    Check(
        "embedding-equivalence",
        "discrete chain and event-clock construction share one degree law",
        ">", 0.001, {"calibration_ks": (0.1, 0.25)}, cases=((deterministic(1), 0.0),),
    ),
    # S_n/n runs every case; the wait and drift parts run the first.
    # "tau1_sigmas" bounds the mean scaled wait S_k (tau_{k+1} - tau_k) in
    # standard errors; S_0 tau_1 is the first term of that mean.
    Check(
        "event-time-asymptotics",
        "event times follow the 1/S drift and alpha log n asymptotics",
        ">=", (0.90, 0.8),
        {"tau1_sigmas": 3.0, "drift_osc": 0.1, "sn": 0.05, "runtime": 300.0},
        cases=((deterministic(1), 0.0), (geometric(0.5), 1.0)),
    ),
    Check(
        "scaled-size-limit",
        "scaled size D(t)e^{-mt} settles on a positive limit",
        ">=", (0.90, 0.8), {"osc": 0.05},
        cases=((deterministic(1), 0.0), (deterministic(1), 1.0)),
    ),
)

_BY_NAME = {c.name: c for c in CATALOGUE}
ALL_CHECKS = tuple(_BY_NAME)
PROFILE_CHECKS = {
    "quick": ALL_CHECKS,
    "full": ALL_CHECKS,
    "theory": tuple(c.name for c in CATALOGUE if c.theory),
}
PROFILES = tuple(PROFILE_CHECKS)
# Keys that must be > 0, not only >= 0: check_tail_exponent divides by the
# tail-exponent ones, and dual-route-pi is the quadrature's own tolerance.
_POSITIVE_KEYS = (
    "tail-exponent", "tail-exponent.band_beta0", "tail-exponent.band_beta1", "dual-route-pi",
)


def validate_thresholds(thresholds: Mapping) -> dict[str, float]:
    """Threshold overrides as floats, keyed "<check>" or "<check>.<param>".

    Raises RangeError, naming the offending "thresholds.<key>", for an unknown
    check, an unknown parameter, a value that is not a number (a bool is
    not), one that is not finite or is negative, and 0 for a key the checks
    divide by or hand to the quadrature as its tolerance.
    """
    out = {}
    for key, value in thresholds.items():
        field_path = f"thresholds.{key}"
        head, dot, param = str(key).partition(".")
        if head not in _BY_NAME:
            raise RangeError(field_path, f"unknown check {head!r}")
        if dot and param not in _BY_NAME[head].params:
            raise RangeError(field_path, f"unknown parameter {param!r} of {head}")
        if isinstance(value, (bool, np.bool_)):
            raise RangeError(field_path, f"not a number: {value!r}")
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise RangeError(field_path, f"not a number: {value!r}") from None
        number = checked_real(field_path, number)
        if number == 0 and str(key) in _POSITIVE_KEYS:
            raise RangeError(field_path, "must be > 0")
        out[str(key)] = number
    return out


@dataclass
class CheckResult:
    """One verified claim: measured value against its bound."""

    name: str
    claim: str
    value: float
    threshold: float
    comparison: str
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ReportDocument:
    """The full verification report (serialized to report.json)."""

    config: dict
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "checks": [c.to_json() for c in self.checks],
            "pass": self.passed,
        }


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _route_gaps(tol, j_max, routes):
    """A cross-route check's result: each (key, route A, route B) triple's
    largest |A - B|, and the worst of them against ``tol`` (a NaN fails)."""
    per_combo = {key: float(np.max(np.abs(a - b))) for key, a, b in routes}
    worst = float(np.max(list(per_combo.values())))
    return worst, tol, worst <= tol, {"per_combo_max_abs_gap": per_combo, "j_max": j_max}


class VerifySession:
    """Runs the acceptance checks at a profile's scale, sharing artifacts."""

    def __init__(
        self,
        profile: str = "full",
        master_seed: int = DEFAULT_MASTER_SEED,
        parallelism: int = 1,
        thresholds: dict | None = None,
    ):
        if profile not in PROFILE_CHECKS:
            raise RangeError("profile", f"unknown profile {profile!r}")
        self.profile = profile
        self.master_seed = checked_int("master_seed", master_seed, 0, MAX_SEED)
        self.parallelism = checked_int("parallelism", parallelism, 1)
        self.thresholds = validate_thresholds(thresholds or {})
        self._cache: dict[str, object] = {}
        full = profile != "quick"
        # every threshold key with its default at this profile's scale
        self.defaults = {
            key: value for c in CATALOGUE for key, value in c.defaults(not full).items()
        }
        # profile scales
        self.lln_n = 10**6 if full else 10**4
        self.ensemble_reps = 100 if full else 20
        self.ensemble_n = 10**5 if full else 10**4
        self.embed_eq_reps = 2000 if full else 300
        self.embed_eq_n = 200 if full else 100
        self.calib_trials = 200 if full else 50
        self.drift_reps = 100 if full else 20
        self.drift_n = 10**4 if full else 2000
        # S_n/n has sd 2 sqrt(Var X / n), 0.0115 for geom:0.5 at 6 * 10^4,
        # so the default "sn" bound stays above 4 sd at quick too.
        self.sn_n = 10**5 if full else 60_000
        self.zeta_runs = 10**4 if full else 500
        self.moment_j_max = 5000 if full else 2000

    # -- helpers ---------------------------------------------------------

    def _row(self, check: Check) -> SimpleNamespace:
        """A check's catalogue row after threshold overrides: ``headline``,
        one attribute per sub-parameter, and ``cases``."""

        def get(key):
            return self.thresholds.get(key, self.defaults[key])

        params = {p: get(f"{check.name}.{p}") for p in check.params}
        return SimpleNamespace(headline=get(check.name), cases=check.cases, **params)

    def _rng(self, stream: int) -> np.random.Generator:
        return substream(self.master_seed, stream)

    def _seed(self, stream: int) -> int:
        return mix64(self.master_seed, stream)

    @staticmethod
    def _model(law, beta, n, seed=0, records=1000, probes=(1, 2)) -> ModelConfig:
        """An n-step chain of one case, recording about ``records`` points."""
        return ModelConfig(
            beta, law, n, probe_vertices=probes, record_stride=max(1, n // records), seed=seed
        )

    def _replicate(self, model, reps, task, stream):
        return replicate(model, reps, task, self._seed(stream), self.parallelism)

    # -- shared artifacts --------------------------------------------------

    def lln_run(self):
        """One chain of ``lln_n`` steps (10^6 full, 10^4 quick) at the first
        case of ``degree-lln``, with snapshots at n/100 and n/10."""
        if "lln_run" not in self._cache:
            n = self.lln_n
            model = self._model(*_BY_NAME["degree-lln"].cases[0], n, self._seed(3))
            self._cache["lln_run"] = run_chain(model, snapshot_steps=(n // 100, n // 10))
        return self._cache["lln_run"]

    def ensemble(self):
        """``ensemble_reps`` independent chains (100 full, 20 quick) of
        ``ensemble_n`` steps at the first case of ``growth-exponents``."""
        if "ensemble" not in self._cache:
            model = self._model(*_BY_NAME["growth-exponents"].cases[0], self.ensemble_n)
            self._cache["ensemble"] = self._replicate(model, self.ensemble_reps, "simulate", 6)
        return self._cache["ensemble"]

    # -- checks: each takes its catalogue row (see _row) and returns
    # (value, threshold, passed, detail) -----------------------------------

    def check_explicit_spectrum_crosscheck(self, row):
        routes = (
            (f"x0={x0},beta={beta:g}", pi_recursive(deterministic(x0), beta, 300).pi,
             _pi_explicit_vector(x0, beta, 300))
            for x0 in (1, 2, 3)
            for beta in (0.0, 0.5, 1.0, 3.0)
        )
        return _route_gaps(row.headline, 300, routes)

    def check_dual_route_pi(self, row):
        tol = row.headline
        laws = [deterministic(1), deterministic(2), explicit([0.5, 0.5]), geometric(0.5)]
        routes, refusals = [], {}
        for law in laws:
            for beta in (0.0, 1.0):
                key = f"{law.label()},beta={beta:g}"
                try:
                    quad = pi_quadrature(law, beta, 100, tol=tol)
                except StepTooCoarse as exc:  # a tol the quadrature cannot reach fails the check
                    refusals[key] = str(exc)
                    quad = exc.values
                routes.append((key, pi_recursive(law, beta, 100).pi, quad))
        value, tol, passed, detail = _route_gaps(tol, 100, routes)
        if refusals:
            detail["quadrature_refusals"] = refusals
        return value, tol, passed and not refusals, detail

    def check_degree_lln(self, row):
        [(law, beta)] = row.cases
        run = self.lln_run()
        n = run.config.n
        spec = pi_recursive(law, beta, 50)
        tvs = []
        scales = sorted(run.snapshots) + [n]
        for scale in scales:
            counts = run.snapshots.get(scale, run.ledger.counts)
            emp = empirical_distribution(counts)
            tvs.append(distribution_distance(emp, spec).tv_core)
        r1_over_n = run.ledger.counts.get(1, 0) / n
        r1_gap = abs(r1_over_n - pi_explicit(law.x0, beta, 1))
        tv_tol = row.headline
        r1_tol = row.r1
        decreasing = all(a > b for a, b in zip(tvs, tvs[1:]))
        passed = tvs[-1] <= tv_tol and r1_gap <= r1_tol and decreasing
        return tvs[-1], tv_tol, passed, {
            "tv_by_scale": dict(zip(map(str, scales), tvs)),
            "tv_strictly_decreasing": decreasing,
            "r1_over_n": r1_over_n,
            "r1_gap": r1_gap,
            "r1_tol": r1_tol,
        }

    def check_tail_exponent(self, row):
        detail, ok, ratios = {}, True, []
        spectra = [pi_recursive(law, beta, 500) for law, beta in row.cases]
        for (law, beta), spec in zip(row.cases, spectra):
            slope = -tail_exponent_theory(law.mean, beta)
            band = getattr(row, f"band_beta{beta:g}")
            fitted = tail_fit(spec, 20, 500).slope
            gap = abs(fitted - slope)
            detail[f"theory_slope_beta{beta:g}"] = fitted
            detail[f"theory_band_beta{beta:g}"] = [slope - band, slope + band]
            ok = ok and gap <= band
            ratios.append(gap / band)
        value = max(ratios)

        if self.profile != "theory":
            run = self.lln_run()
            emp = empirical_distribution(run.ledger.counts)
            emp_fit = tail_fit(emp, 3, 30)
            th_fit = tail_fit(spectra[0], 3, 30)  # lln_run's case
            emp_tol = row.headline
            emp_gap = abs(emp_fit.slope - th_fit.slope)
            detail.update(
                {
                    "empirical_slope": emp_fit.slope,
                    "theory_slope_same_range": th_fit.slope,
                    "empirical_gap": emp_gap,
                    "empirical_tol": emp_tol,
                    "empirical_bins": emp_fit.n_bins,
                }
            )
            ok = ok and emp_gap <= emp_tol
            value = max(value, emp_gap / emp_tol)
        return value, 1.0, ok, detail

    def check_moment_dichotomy(self, row):
        [(law, beta)] = row.cases
        spec = pi_recursive(law, beta, self.moment_j_max)
        edge = tail_exponent_theory(law.mean, beta) - 1.0  # s = 2 + beta/m
        s_values = (0.0, 1.0, edge - 0.1, edge, edge + 0.5)
        expected = tuple("plateauing" if s < edge else "diverging" for s in s_values)
        curves = moment_profile(spec, s_values)
        got = tuple(c.verdict for c in curves)
        agree = sum(g == e for g, e in zip(got, expected)) / len(expected)
        tol = row.headline
        return agree, tol, agree >= tol, {
            "j_max": self.moment_j_max,
            "verdicts": {
                str(c.s): {
                    "verdict": c.verdict,
                    "expected": e,
                    "increment_slope": c.increment_slope,
                    "last_decade_increase": c.last_decade_increase,
                }
                for c, e in zip(curves, expected)
            },
        }

    def check_growth_exponents(self, row):
        [(law, beta)] = row.cases
        growth = theta(law.mean, beta)
        agg = self.ensemble()
        osc_traj = row.trajectory_osc
        osc_max = row.max_osc
        rate = row.headline
        traj_pass = max_pass = 0
        levels_ok = True
        worst_level = float("inf")
        for rep in agg.replicates:
            tr = trajectory_limit_check(rep.steps, rep.probes[1], growth, threshold=osc_traj)
            mx = max_degree_check(rep.steps, rep.max_series, growth, threshold=osc_max)
            traj_pass += tr.verdict
            max_pass += mx.verdict
            worst_level = min(worst_level, tr.level, mx.level)
            levels_ok = levels_ok and tr.level > 0 and mx.level > 0
        n_rep = len(agg.replicates)
        frac_traj = traj_pass / n_rep
        frac_max = max_pass / n_rep
        value = min(frac_traj, frac_max)
        return value, rate, value >= rate and levels_ok, {
            "runs": n_rep,
            "n": self.ensemble_n,
            "trajectory_pass_fraction": frac_traj,
            "max_degree_pass_fraction": frac_max,
            "oscillation_bounds": [osc_traj, osc_max],
            "all_levels_positive": levels_ok,
            "worst_level": worst_level,
        }

    def check_index_freezing(self, row):
        # the ensemble runs growth-exponents' first case, which this row shares
        agg = self.ensemble()
        rate = row.headline
        frozen = 0
        fractions = []
        for rep in agg.replicates:
            rep_frozen = freeze_detector(rep.steps, rep.argmax_series).frozen_fraction
            fractions.append(rep_frozen)
            frozen += rep_frozen >= 0.5
        frac = frozen / len(agg.replicates)
        return frac, rate, frac >= rate, {
            "runs": len(agg.replicates),
            "median_frozen_fraction": float(np.median(fractions)),
        }

    def check_embedding_equivalence(self, row):
        [case] = row.cases
        model = self._model(*case, self.embed_eq_n, records=1, probes=())
        chains = self._replicate(model, self.embed_eq_reps, "simulate", 8)
        embeds = self._replicate(model, self.embed_eq_reps, "embed", 88)
        result = embedding_equivalence_test(chains.pooled_counts, embeds.pooled_counts)
        p_floor = row.headline
        pvals = split_half_pvalues(
            chains.pooled_counts, self.calib_trials, self._rng(888)
        )
        ks = uniformity_ks(pvals)
        ks_tol = row.calibration_ks
        passed = result.p_value > p_floor and ks <= ks_tol
        return result.p_value, p_floor, passed, {
            "chi_square": result.statistic,
            "dof": result.dof,
            "bins": len(result.bins),
            "replications": self.embed_eq_reps,
            "n": self.embed_eq_n,
            "calibration_trials": self.calib_trials,
            "calibration_ks": ks,
            "calibration_ks_tol": ks_tol,
        }

    def check_event_time_asymptotics(self, row):
        law, beta = row.cases[0]
        # (a) tau_n - alpha log n settles; the scaled waits S_k (tau_{k+1} -
        # tau_k) of the same runs (tau_0 = 0) are iid Exp(1), since a clock's
        # rate changes only when it fires, so their mean has sd 1/sqrt(N).
        rng = self._rng(99)
        osc_tol = row.drift_osc
        hits = 0
        oscs = []
        wait_sum = 0.0
        for _ in range(self.drift_reps):
            res = run_embedding(law, beta, self.drift_n, rng)
            diag = tau_diagnostics(res.taus, res.s_values, law.mean, beta)
            oscs.append(diag.log_drift_tail_osc)
            hits += diag.log_drift_tail_osc < osc_tol
            wait_sum += float(res.s_values[:-1] @ np.diff(res.taus, prepend=0.0))
        waits = self.drift_reps * self.drift_n
        wait_mean = wait_sum / waits
        wait_gap = abs(wait_mean - 1.0)
        wait_tol = row.tau1_sigmas / np.sqrt(waits)
        drift_frac = hits / self.drift_reps
        drift_rate = row.headline

        # (b) S_n / n near 2m + beta at the large scale, on substreams 999,
        # 9999, ...; det:1 is pinned (exact up to 2/n), a random law
        # exercises it with real randomness.  S_n = 2 + 2 (X_1 + ... + X_n)
        # + (n + 2) beta depends on the X's alone, so n draws of X give its law
        # without running an embedding.
        sn_tol = row.sn
        sn_gaps = {}
        for i, (sn_law, sn_beta) in enumerate(row.cases):
            xs = sn_law.sample(self._rng(10 ** (i + 3) - 1), self.sn_n)
            s_n = 2 + 2 * int(xs.sum()) + (self.sn_n + 2) * sn_beta
            tag = sn_law.label().partition(":")[0] + str(sn_law.x0 or "")  # det1, geom
            sn_gaps[f"sn_gap_{tag}_beta{sn_beta:g}"] = abs(
                s_n / self.sn_n - (2.0 * sn_law.mean + sn_beta)
            )

        passed = (
            wait_gap <= wait_tol
            and drift_frac >= drift_rate
            and all(gap <= sn_tol for gap in sn_gaps.values())
        )
        return drift_frac, drift_rate, passed, {
            "wait_mean": wait_mean,
            "wait_gap": wait_gap,
            "wait_tol": wait_tol,
            "wait_sigmas": row.tau1_sigmas,
            "waits": waits,
            "drift_runs": self.drift_reps,
            "drift_n": self.drift_n,
            "drift_osc_bound": osc_tol,
            "drift_median_osc": float(np.median(oscs)),
            **sn_gaps,
            "sn_tol": sn_tol,
        }

    def check_scaled_size_limit(self, row):
        horizon = 8.0
        initial = 10  # start away from the zeta ~ 0 mass; see claim detail
        osc_tol = row.osc
        rate = row.headline
        detail = {
            "runs_per_beta": self.zeta_runs,
            "horizon": horizon,
            "initial_size": initial,
            "osc_bound": osc_tol,
            "note": (
                "relative plateau oscillation scales like 1/sqrt(limit); the "
                "fixed initial size keeps the limit away from 0 so the stated "
                "threshold tests convergence, not small-limit noise"
            ),
        }
        stop = threading.Event()

        def fractions(i):
            """(plateau pass fraction, positive fraction) over the runs of case i."""
            law, beta = row.cases[i]
            paths = _PathBuffers()  # one set of arrays for every path of this case
            rng = self._rng(10 + i)
            hits = positive = 0
            for _ in range(self.zeta_runs):
                if stop.is_set():
                    return None
                n = paths.draw(initial, beta, law, horizon, rng)
                osc, last = paths.plateau(n, m=law.mean)
                positive += last > 0
                hits += osc < osc_tol
            return hits / self.zeta_runs, positive / self.zeta_runs

        # Each case draws from its own substream into its own buffers, and
        # numpy releases the GIL for nearly all of a path's work, so the
        # later cases run on a worker thread while this one runs the first.
        with ThreadPoolExecutor(max_workers=1) as pool:
            later = [pool.submit(fractions, i) for i in range(1, len(row.cases))]
            try:
                counts = [fractions(0)] + [f.result() for f in later]
            finally:
                stop.set()  # a worker still running after an error stops at its next path
        value = 1.0
        all_positive = True
        for (_, beta), (frac, pos_frac) in zip(row.cases, counts):
            detail[f"beta={beta:g}"] = {
                "plateau_pass_fraction": frac,
                "positive_fraction": pos_frac,
            }
            value = min(value, frac)
            all_positive = all_positive and pos_frac == 1.0
        return value, rate, value >= rate and all_positive, detail

    # -- driver ------------------------------------------------------------

    def run(self, names: tuple[str, ...] | None = None) -> ReportDocument:
        """Run the named checks (default: the profile's) in the given order.

        The runner times each ``check_<name>`` call into ``elapsed_s``, holds
        it to the "<name>.runtime" bound where the catalogue declares one,
        and builds the JSON-safe CheckResult from the catalogue entry.
        """
        results = []
        for name in names or PROFILE_CHECKS[self.profile]:
            if name not in _BY_NAME:
                raise RangeError("check", f"unknown check {name!r}")
            check = _BY_NAME[name]
            row = self._row(check)
            t0 = time.perf_counter()
            method = getattr(self, "check_" + name.replace("-", "_"))
            value, threshold, passed, detail = method(row)
            detail["elapsed_s"] = elapsed = time.perf_counter() - t0
            if "runtime" in check.params:
                detail["runtime_bound_s"] = row.runtime
                passed = passed and elapsed < row.runtime
            results.append(
                CheckResult(
                    name,
                    check.claim,
                    float(value),
                    float(threshold),
                    check.comparison,
                    bool(passed),
                    _json_safe(detail),
                )
            )
        return ReportDocument(
            config={
                "profile": self.profile,
                "master_seed": self.master_seed,
                "parallelism": self.parallelism,
                "thresholds": dict(self.thresholds),
            },
            checks=results,
        )

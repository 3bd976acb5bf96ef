"""The acceptance-check suite: every headline limit theorem, desk-scale.

``CATALOGUE`` lists the checks in report order, one ``Check`` record each:
name, claim, comparison, threshold defaults and the dotted sub-parameters a
threshold override may move.  ``ALL_CHECKS``, the profiles and their check
lists, and the accepted threshold keys all derive from it.

VerifySession owns the expensive shared artifacts (the large chain run, the
run ensembles) so checks can share them, and its ``run`` is the one runner:
it calls each ``check_<name>`` with its thresholds, times it, applies the
catalogue's runtime bound and builds the CheckResult.  All randomness
derives from one master seed through fixed substream indices, so a report
is reproducible byte-for-byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
from .branching import BranchingConfig, _PathBuffers, run_embedding, tau_diagnostics
from .errors import RangeError, checked_int, checked_real
from .graph import ModelConfig, run_chain
from .laws import deterministic, explicit, geometric
from .replicate import replicate
from .streams import MAX_SEED, mix64, substream
from .theory import moment_profile, pi_explicit, pi_quadrature, pi_recursive

DEFAULT_MASTER_SEED = 20260815


@dataclass(frozen=True)
class Check:
    """One catalogue entry: what a check claims and the bounds it starts from.

    A default is one number for every profile, or a pair (full, quick) where
    the quick profile relaxes it; the theory profile uses the full defaults.
    ``params`` maps each sub-parameter, overridden as "<name>.<param>", to
    its default; a "runtime" entry holds the check to that many seconds.
    """

    name: str
    claim: str
    comparison: str
    threshold: float | tuple[float, float]
    params: Mapping[str, float | tuple[float, float]] = field(default_factory=dict)
    theory: bool = False  # part of the theory profile

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
    ),
    # The headline key bounds the empirical slope gap; the reported value is
    # the largest gap-to-band ratio, held to 1.
    Check(
        "tail-exponent",
        "tail decay exponent matches 3 + beta/m",
        "<=", (0.4, 0.7), {"band_beta0": 0.15, "band_beta1": 0.2}, theory=True,
    ),
    Check(
        "moment-dichotomy",
        "moment partial sums split at s = 2 + beta/m (boundary diverges)",
        ">=", 1.0, theory=True,
    ),
    Check(
        "growth-exponents",
        "fixed-vertex and maximum degrees grow like n^theta with a plateau",
        ">=", (0.85, 0.7), {"trajectory_osc": 0.2, "max_osc": 0.25, "runtime": 300.0},
    ),
    Check(
        "index-freezing",
        "the maximal-degree vertex index eventually freezes",
        ">=", (0.85, 0.7),
    ),
    Check(
        "embedding-equivalence",
        "discrete chain and event-clock construction share one degree law",
        ">", 0.001, {"calibration_ks": (0.1, 0.25)},
    ),
    Check(
        "event-time-asymptotics",
        "event times follow the 1/S drift and alpha log n asymptotics",
        ">=", (0.90, 0.8),
        {"tau1_sigmas": 3.0, "drift_osc": 0.1, "sn": 0.05, "runtime": 300.0},
    ),
    Check(
        "scaled-size-limit",
        "scaled size D(t)e^{-mt} settles on a positive limit",
        ">=", (0.90, 0.8), {"osc": 0.05},
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
# check_tail_exponent divides by these, so they must be > 0, not only >= 0.
_DIVISOR_KEYS = ("tail-exponent", "tail-exponent.band_beta0", "tail-exponent.band_beta1")


def validate_thresholds(thresholds: Mapping) -> dict[str, float]:
    """Threshold overrides as floats, keyed "<check>" or "<check>.<param>".

    Raises RangeError, naming the offending "thresholds.<key>", for an unknown
    check, an unknown parameter, a value that is not a number, one that is
    not finite or is negative, and 0 for a key the checks divide by.
    """
    out = {}
    for key, value in thresholds.items():
        field_path = f"thresholds.{key}"
        head, dot, param = str(key).partition(".")
        if head not in _BY_NAME:
            raise RangeError(field_path, f"unknown check {head!r}")
        if dot and param not in _BY_NAME[head].params:
            raise RangeError(field_path, f"unknown parameter {param!r} of {head}")
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise RangeError(field_path, f"not a number: {value!r}") from None
        number = checked_real(field_path, number)
        if number == 0 and str(key) in _DIVISOR_KEYS:
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
        return {
            "name": self.name,
            "claim": self.claim,
            "value": self.value,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "passed": self.passed,
            "detail": self.detail,
        }


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
        self.tau1_reps = 10**5 if full else 5000
        self.drift_reps = 100 if full else 20
        self.drift_n = 10**4 if full else 2000
        # S_n/n has sd 2 sqrt(Var X / n), 0.0115 for geom:0.5 at 6 * 10^4,
        # so its 0.05 bound stays above 4 sd at quick too.
        self.sn_n = 10**5 if full else 60_000
        self.zeta_runs = 10**4 if full else 500
        self.moment_j_max = 5000 if full else 2000

    # -- helpers ---------------------------------------------------------

    def _limits(self, check: Check) -> SimpleNamespace:
        """A check's thresholds after overrides: ``headline`` plus one
        attribute per sub-parameter."""

        def get(key):
            return self.thresholds.get(key, self.defaults[key])

        params = {p: get(f"{check.name}.{p}") for p in check.params}
        return SimpleNamespace(headline=get(check.name), **params)

    def _rng(self, stream: int) -> np.random.Generator:
        return substream(self.master_seed, stream)

    def _seed(self, stream: int) -> int:
        return mix64(self.master_seed, stream)

    # -- shared artifacts --------------------------------------------------

    def lln_run(self):
        """One X=1, beta=0 chain at the LLN scale with decade snapshots."""
        if "lln_run" not in self._cache:
            n = self.lln_n
            model = ModelConfig(
                beta=0.0,
                edge_law=deterministic(1),
                n=n,
                probe_vertices=(1, 2),
                record_stride=max(1, n // 1000),
                seed=self._seed(3),
            )
            self._cache["lln_run"] = run_chain(
                model, snapshot_steps=(n // 100, n // 10)
            )
        return self._cache["lln_run"]

    def ensemble(self):
        """100 independent X=1, beta=0 chains at the trajectory scale."""
        if "ensemble" not in self._cache:
            model = ModelConfig(
                beta=0.0,
                edge_law=deterministic(1),
                n=self.ensemble_n,
                probe_vertices=(1, 2),
                record_stride=max(1, self.ensemble_n // 1000),
                seed=0,
            )
            self._cache["ensemble"] = replicate(
                model,
                replications=self.ensemble_reps,
                task="simulate",
                master_seed=self._seed(6),
                parallelism=self.parallelism,
            )
        return self._cache["ensemble"]

    # -- checks: each takes its thresholds (see _limits) and returns
    # (value, threshold, passed, detail) -----------------------------------

    def check_explicit_spectrum_crosscheck(self, thr):
        tol = thr.headline
        worst = 0.0
        per_combo = {}
        for x0 in (1, 2, 3):
            for beta in (0.0, 0.5, 1.0, 3.0):
                spec = pi_recursive(deterministic(x0), beta, 300)
                closed = np.array(
                    [pi_explicit(x0, beta, j) for j in range(301)]
                )
                gap = float(np.max(np.abs(spec.pi - closed)))
                per_combo[f"x0={x0},beta={beta:g}"] = gap
                worst = max(worst, gap)
        detail = {"per_combo_max_abs_gap": per_combo, "j_max": 300}
        return worst, tol, worst <= tol, detail

    def check_dual_route_pi(self, thr):
        tol = thr.headline
        laws = [deterministic(1), deterministic(2), explicit([0.5, 0.5]), geometric(0.5)]
        worst = 0.0
        per_combo = {}
        for law in laws:
            for beta in (0.0, 1.0):
                spec = pi_recursive(law, beta, 100)
                quad = pi_quadrature(law, beta, 100, tol=tol)
                gap = float(np.max(np.abs(spec.pi - quad)))
                per_combo[f"{law.label()},beta={beta:g}"] = gap
                worst = max(worst, gap)
        detail = {"per_combo_max_abs_gap": per_combo, "j_max": 100}
        return worst, tol, worst <= tol, detail

    def check_degree_lln(self, thr):
        run = self.lln_run()
        n = run.config.n
        spec = pi_recursive(deterministic(1), 0.0, 50)
        tvs = []
        scales = sorted(run.snapshots) + [n]
        for scale in scales:
            counts = run.snapshots.get(scale, run.ledger.counts)
            emp = empirical_distribution(counts)
            tvs.append(distribution_distance(emp, spec).tv_core)
        r1_over_n = run.ledger.counts.get(1, 0) / n
        r1_gap = abs(r1_over_n - 2.0 / 3.0)
        tv_tol = thr.headline
        r1_tol = thr.r1
        decreasing = all(a > b for a, b in zip(tvs, tvs[1:]))
        passed = tvs[-1] <= tv_tol and r1_gap <= r1_tol and decreasing
        return tvs[-1], tv_tol, passed, {
            "tv_by_scale": dict(zip(map(str, scales), tvs)),
            "tv_strictly_decreasing": decreasing,
            "r1_over_n": r1_over_n,
            "r1_gap": r1_gap,
            "r1_tol": r1_tol,
        }

    def check_tail_exponent(self, thr):
        spec0 = pi_recursive(deterministic(1), 0.0, 500)
        spec1 = pi_recursive(deterministic(1), 1.0, 500)
        fit0 = tail_fit(spec0, 20, 500)
        fit1 = tail_fit(spec1, 20, 500)
        band0 = thr.band_beta0
        band1 = thr.band_beta1
        gap0 = abs(fit0.slope - (-3.0))
        gap1 = abs(fit1.slope - (-4.0))
        detail = {
            "theory_slope_beta0": fit0.slope,
            "theory_band_beta0": [-3.0 - band0, -3.0 + band0],
            "theory_slope_beta1": fit1.slope,
            "theory_band_beta1": [-4.0 - band1, -4.0 + band1],
        }
        ok = gap0 <= band0 and gap1 <= band1
        value = max(gap0 / band0, gap1 / band1)

        if self.profile != "theory":
            run = self.lln_run()
            emp = empirical_distribution(run.ledger.counts)
            emp_fit = tail_fit(emp, 3, 30)
            th_fit = tail_fit(spec0, 3, 30)
            emp_tol = thr.headline
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

    def check_moment_dichotomy(self, thr):
        spec = pi_recursive(deterministic(1), 0.0, self.moment_j_max)
        s_values = (0.0, 1.0, 1.9, 2.0, 2.5)
        expected = ("plateauing", "plateauing", "plateauing", "diverging", "diverging")
        curves = moment_profile(spec, s_values)
        got = tuple(c.verdict for c in curves)
        agree = sum(g == e for g, e in zip(got, expected)) / len(expected)
        tol = thr.headline
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

    def check_growth_exponents(self, thr):
        agg = self.ensemble()
        osc_traj = thr.trajectory_osc
        osc_max = thr.max_osc
        rate = thr.headline
        traj_pass = max_pass = 0
        levels_ok = True
        worst_level = float("inf")
        for rep in agg.replicates:
            tr = trajectory_limit_check(rep.steps, rep.probes[1], 0.5, threshold=osc_traj)
            mx = max_degree_check(rep.steps, rep.max_series, 0.5, threshold=osc_max)
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

    def check_index_freezing(self, thr):
        agg = self.ensemble()
        rate = thr.headline
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

    def check_embedding_equivalence(self, thr):
        model = ModelConfig(
            beta=0.0,
            edge_law=deterministic(1),
            n=self.embed_eq_n,
            record_stride=max(1, self.embed_eq_n),
            seed=0,
        )
        chains = replicate(
            model,
            replications=self.embed_eq_reps,
            task="simulate",
            master_seed=self._seed(8),
            parallelism=self.parallelism,
        )
        embeds = replicate(
            model,
            replications=self.embed_eq_reps,
            task="embed",
            master_seed=self._seed(88),
            parallelism=self.parallelism,
        )
        result = embedding_equivalence_test(chains.pooled_counts, embeds.pooled_counts)
        p_floor = thr.headline
        pvals = split_half_pvalues(
            chains.pooled_counts, self.calib_trials, self._rng(888)
        )
        ks = uniformity_ks(pvals)
        ks_tol = thr.calibration_ks
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

    def check_event_time_asymptotics(self, thr):
        law = deterministic(1)
        # (a) mean of tau_1 against 1/S_0 = 1/2, to 3 standard errors.
        rng = self._rng(9)
        reps = self.tau1_reps
        tau1 = np.empty(reps)
        for r in range(reps):
            tau1[r] = run_embedding(law, 0.0, 1, rng).taus[0]
        mean_tau1 = float(tau1.mean())
        sigma = 0.5 / np.sqrt(reps)  # sd of Exp(2) is 1/2
        tau1_gap = abs(mean_tau1 - 0.5)
        tau1_tol = thr.tau1_sigmas * sigma

        # (b) tau_n - alpha log n settles: trailing oscillation < 0.1
        # in >= 90% of runs (alpha = 1/2 for X=1, beta=0).
        rng_b = self._rng(99)
        osc_tol = thr.drift_osc
        hits = 0
        oscs = []
        for _ in range(self.drift_reps):
            res = run_embedding(law, 0.0, self.drift_n, rng_b)
            diag = tau_diagnostics(res.taus, res.s_values, 1.0, 0.0)
            oscs.append(diag.log_drift_tail_osc)
            hits += diag.log_drift_tail_osc < osc_tol
        drift_frac = hits / self.drift_reps
        drift_rate = thr.headline

        # (c) S_n / n near 2m + beta at the large scale; X=1 beta=0 is the
        # pinned case (exact up to 2/n), geometric beta=1 exercises it with
        # real randomness.
        sn_tol = thr.sn
        res1 = run_embedding(law, 0.0, self.sn_n, self._rng(999))
        sn_gap1 = abs(res1.s_values[-1] / self.sn_n - 2.0)
        res2 = run_embedding(geometric(0.5), 1.0, self.sn_n, self._rng(9999))
        sn_gap2 = abs(res2.s_values[-1] / self.sn_n - 5.0)

        passed = (
            tau1_gap <= tau1_tol
            and drift_frac >= drift_rate
            and sn_gap1 <= sn_tol
            and sn_gap2 <= sn_tol
        )
        return drift_frac, drift_rate, passed, {
            "tau1_mean": mean_tau1,
            "tau1_expected": 0.5,
            "tau1_gap": tau1_gap,
            "tau1_tol_3sigma": tau1_tol,
            "tau1_runs": reps,
            "drift_runs": self.drift_reps,
            "drift_n": self.drift_n,
            "drift_osc_bound": osc_tol,
            "drift_median_osc": float(np.median(oscs)),
            "sn_gap_det1_beta0": sn_gap1,
            "sn_gap_geom_beta1": sn_gap2,
            "sn_tol": sn_tol,
        }

    def check_scaled_size_limit(self, thr):
        law = deterministic(1)
        horizon = 8.0
        initial = 10  # start away from the zeta ~ 0 mass; see claim detail
        osc_tol = thr.osc
        rate = thr.headline
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
        value = 1.0
        all_positive = True
        paths = _PathBuffers()  # one set of arrays for every path of this call
        for beta in (0.0, 1.0):
            cfg = BranchingConfig(edge_law=law, beta=beta, initial=initial)
            rng = self._rng(10 + int(beta))
            hits = 0
            positive = 0
            for _ in range(self.zeta_runs):
                n = paths.draw(cfg.initial, cfg.beta, cfg.edge_law, horizon, rng)
                osc, last = paths.plateau(n, m=1.0)
                positive += last > 0
                hits += osc < osc_tol
            frac = hits / self.zeta_runs
            pos_frac = positive / self.zeta_runs
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
            thr = self._limits(check)
            t0 = time.perf_counter()
            method = getattr(self, "check_" + name.replace("-", "_"))
            value, threshold, passed, detail = method(thr)
            detail["elapsed_s"] = elapsed = time.perf_counter() - t0
            if "runtime" in check.params:
                detail["runtime_bound_s"] = thr.runtime
                passed = passed and elapsed < thr.runtime
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

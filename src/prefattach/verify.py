"""The acceptance-check suite: every headline limit theorem, desk-scale.

Each check produces a CheckResult with a self-describing claim, the measured
value, the bound it is held to, and pass/fail.  VerifySession owns the
expensive shared artifacts (the large chain run, the run ensembles) so
checks can share them; all randomness derives from one master seed through
fixed substream indices, so a report is reproducible byte-for-byte.

Check names and their headline thresholds (override via the thresholds
mapping, key "<check-name>" or "<check-name>.<param>"):

  explicit-spectrum-crosscheck   recursion vs closed form      1e-12
  dual-route-pi                  recursion vs quadrature       1e-6
  degree-lln                     TV(frequencies, spectrum)     0.01
  tail-exponent                  log-log slope bands           0.15/0.2/0.4
  moment-dichotomy               verdict agreement fraction    1.0
  growth-exponents               plateau pass fraction         0.85
  index-freezing                 frozen-run fraction           0.85
  embedding-equivalence          chi-square p floor            0.001
  event-time-asymptotics         tau_1 mean / drift / S_n      3 sigma / 0.1 / 0.05
  scaled-size-limit              plateau pass fraction         0.90
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
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
from .branching import (
    BranchingConfig,
    run_embedding,
    simulate_mbp,
    simulate_mbpi,
    tau_diagnostics,
    zeta_trajectory,
)
from .errors import RangeError
from .graph import ModelConfig, run_chain
from .laws import deterministic, explicit, geometric
from .replicate import replicate
from .streams import mix64, substream
from .theory import moment_profile, pi_explicit, pi_quadrature, pi_recursive

DEFAULT_MASTER_SEED = 20260815

_PROFILE_CHECKS = {
    "theory": (
        "explicit-spectrum-crosscheck",
        "dual-route-pi",
        "tail-exponent",
        "moment-dichotomy",
    ),
    "quick": None,  # None -> all
    "full": None,
}

# The checks in report order, each with the sub-parameters that a dotted
# threshold override "<check>.<param>" may move.
THRESHOLD_PARAMS = {
    "explicit-spectrum-crosscheck": ("runtime",),
    "dual-route-pi": ("runtime",),
    "degree-lln": ("r1", "runtime"),
    "tail-exponent": ("band_beta0", "band_beta1"),
    "moment-dichotomy": (),
    "growth-exponents": ("trajectory_osc", "max_osc", "runtime"),
    "index-freezing": (),
    "embedding-equivalence": ("calibration_ks",),
    "event-time-asymptotics": ("tau1_sigmas", "drift_osc", "sn", "runtime"),
    "scaled-size-limit": ("osc",),
}

ALL_CHECKS = tuple(THRESHOLD_PARAMS)


def validate_thresholds(thresholds: Mapping) -> dict[str, float]:
    """Threshold overrides as floats, keyed "<check>" or "<check>.<param>".

    Raises RangeError, naming the offending "thresholds.<key>", for an unknown
    check, an unknown parameter, or a value that is not a number.
    """
    out = {}
    for key, value in thresholds.items():
        field_path = f"thresholds.{key}"
        head, dot, param = str(key).partition(".")
        if head not in THRESHOLD_PARAMS:
            raise RangeError(field_path, f"unknown check {head!r}")
        if dot and param not in THRESHOLD_PARAMS[head]:
            raise RangeError(field_path, f"unknown parameter {param!r} of {head}")
        try:
            out[str(key)] = float(value)
        except (TypeError, ValueError):
            raise RangeError(field_path, f"not a number: {value!r}") from None
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
        if profile not in _PROFILE_CHECKS:
            raise RangeError("profile", f"unknown profile {profile!r}")
        self.profile = profile
        self.master_seed = int(master_seed)
        self.parallelism = max(1, int(parallelism))
        self.thresholds = validate_thresholds(thresholds or {})
        self._cache: dict[str, object] = {}
        # profile scales
        full = profile != "quick"
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
        # quick keeps the same thresholds where the property is scale-free
        # (pass fractions, slopes bands widened) and relaxes the LLN gaps.
        self.lln_tv_tol = 0.01 if full else 0.06
        self.lln_r1_tol = 0.01 if full else 0.04
        self.emp_slope_tol = 0.4 if full else 0.7
        self.pass_rate_growth = 0.85 if full else 0.7
        self.pass_rate_freeze = 0.85 if full else 0.7
        self.pass_rate_drift = 0.90 if full else 0.8
        self.pass_rate_zeta = 0.90 if full else 0.8
        self.calib_ks_tol = 0.1 if full else 0.25

    # -- helpers ---------------------------------------------------------

    def _thr(self, key: str, default: float) -> float:
        """Threshold for ``key`` ("check" or "check.param"), override-aware."""
        return self.thresholds.get(key, default)

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

    # -- checks ------------------------------------------------------------

    def check_explicit_spectrum_crosscheck(self) -> CheckResult:
        t0 = time.perf_counter()
        tol = self._thr("explicit-spectrum-crosscheck", 1e-12)
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
        elapsed = time.perf_counter() - t0
        runtime_bound = self._thr("explicit-spectrum-crosscheck.runtime", 1.0)
        return CheckResult(
            name="explicit-spectrum-crosscheck",
            claim="recursion reproduces the closed-form spectrum for fixed edge counts",
            value=worst,
            threshold=tol,
            comparison="<=",
            passed=worst <= tol and elapsed < runtime_bound,
            detail={
                "per_combo_max_abs_gap": per_combo,
                "j_max": 300,
                "elapsed_s": elapsed,
                "runtime_bound_s": runtime_bound,
            },
        )

    def check_dual_route_pi(self) -> CheckResult:
        t0 = time.perf_counter()
        tol = self._thr("dual-route-pi", 1e-6)
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
        elapsed = time.perf_counter() - t0
        runtime_bound = self._thr("dual-route-pi.runtime", 30.0)
        return CheckResult(
            name="dual-route-pi",
            claim="recursion and direct quadrature agree on the limit spectrum",
            value=worst,
            threshold=tol,
            comparison="<=",
            passed=worst <= tol and elapsed < runtime_bound,
            detail={
                "per_combo_max_abs_gap": per_combo,
                "j_max": 100,
                "elapsed_s": elapsed,
                "runtime_bound_s": runtime_bound,
            },
        )

    def check_degree_lln(self) -> CheckResult:
        t0 = time.perf_counter()
        run = self.lln_run()
        n = run.config.n
        spec = pi_recursive(deterministic(1), 0.0, 50)
        tvs = []
        scales = sorted(run.snapshots) + [n]
        for scale in scales:
            counts = run.snapshots.get(scale, run.ledger.counts)
            emp = empirical_distribution(counts, n=scale)
            tvs.append(distribution_distance(emp, spec).tv_core)
        r1_over_n = run.ledger.counts.get(1, 0) / n
        r1_gap = abs(r1_over_n - 2.0 / 3.0)
        tv_tol = self._thr("degree-lln", self.lln_tv_tol)
        r1_tol = self._thr("degree-lln.r1", self.lln_r1_tol)
        decreasing = all(a > b for a, b in zip(tvs, tvs[1:]))
        elapsed = time.perf_counter() - t0
        runtime_bound = self._thr("degree-lln.runtime", 60.0)
        return CheckResult(
            name="degree-lln",
            claim="degree frequencies converge to the limit spectrum",
            value=tvs[-1],
            threshold=tv_tol,
            comparison="<=",
            passed=(
                tvs[-1] <= tv_tol
                and r1_gap <= r1_tol
                and decreasing
                and elapsed < runtime_bound
            ),
            detail={
                "tv_by_scale": dict(zip(map(str, scales), tvs)),
                "tv_strictly_decreasing": decreasing,
                "r1_over_n": r1_over_n,
                "r1_gap": r1_gap,
                "r1_tol": r1_tol,
                "elapsed_s": elapsed,
                "runtime_bound_s": runtime_bound,
            },
        )

    def check_tail_exponent(self) -> CheckResult:
        spec0 = pi_recursive(deterministic(1), 0.0, 500)
        spec1 = pi_recursive(deterministic(1), 1.0, 500)
        fit0 = tail_fit(spec0, 20, 500)
        fit1 = tail_fit(spec1, 20, 500)
        band0 = self._thr("tail-exponent.band_beta0", 0.15)
        band1 = self._thr("tail-exponent.band_beta1", 0.2)
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
            emp = empirical_distribution(run.ledger)
            emp_fit = tail_fit(emp, 3, 30)
            th_fit = tail_fit(spec0, 3, 30)
            emp_tol = self._thr("tail-exponent", self.emp_slope_tol)
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

        return CheckResult(
            name="tail-exponent",
            claim="tail decay exponent matches 3 + beta/m",
            value=value,
            threshold=1.0,
            comparison="<=",
            passed=ok,
            detail=detail,
        )

    def check_moment_dichotomy(self) -> CheckResult:
        t0 = time.perf_counter()
        spec = pi_recursive(deterministic(1), 0.0, self.moment_j_max)
        s_values = (0.0, 1.0, 1.9, 2.0, 2.5)
        expected = ("plateauing", "plateauing", "plateauing", "diverging", "diverging")
        curves = moment_profile(spec, s_values)
        got = tuple(c.verdict for c in curves)
        agree = sum(g == e for g, e in zip(got, expected)) / len(expected)
        tol = self._thr("moment-dichotomy", 1.0)
        elapsed = time.perf_counter() - t0
        return CheckResult(
            name="moment-dichotomy",
            claim="moment partial sums split at s = 2 + beta/m (boundary diverges)",
            value=agree,
            threshold=tol,
            comparison=">=",
            passed=agree >= tol,
            detail={
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
                "elapsed_s": elapsed,
            },
        )

    def check_growth_exponents(self) -> CheckResult:
        t0 = time.perf_counter()
        agg = self.ensemble()
        osc_traj = self._thr("growth-exponents.trajectory_osc", 0.2)
        osc_max = self._thr("growth-exponents.max_osc", 0.25)
        rate = self._thr("growth-exponents", self.pass_rate_growth)
        traj_pass = max_pass = 0
        levels_ok = True
        worst_level = float("inf")
        for rep in agg.replicates:
            tr = trajectory_limit_check(
                rep.steps, rep.probes[1], 0.5, series_id="d1", threshold=osc_traj
            )
            mx = max_degree_check(rep.steps, rep.max_series, 0.5, threshold=osc_max)
            traj_pass += tr.verdict
            max_pass += mx.verdict
            worst_level = min(worst_level, tr.level, mx.level)
            levels_ok = levels_ok and tr.level > 0 and mx.level > 0
        n_rep = len(agg.replicates)
        frac_traj = traj_pass / n_rep
        frac_max = max_pass / n_rep
        value = min(frac_traj, frac_max)
        elapsed = time.perf_counter() - t0
        runtime_bound = self._thr("growth-exponents.runtime", 300.0)
        return CheckResult(
            name="growth-exponents",
            claim="fixed-vertex and maximum degrees grow like n^theta with a plateau",
            value=value,
            threshold=rate,
            comparison=">=",
            passed=(
                value >= rate and levels_ok and elapsed < runtime_bound
            ),
            detail={
                "runs": n_rep,
                "n": self.ensemble_n,
                "trajectory_pass_fraction": frac_traj,
                "max_degree_pass_fraction": frac_max,
                "oscillation_bounds": [osc_traj, osc_max],
                "all_levels_positive": levels_ok,
                "worst_level": worst_level,
                "elapsed_s": elapsed,
                "runtime_bound_s": runtime_bound,
            },
        )

    def check_index_freezing(self) -> CheckResult:
        agg = self.ensemble()
        rate = self._thr("index-freezing", self.pass_rate_freeze)
        frozen = 0
        fractions = []
        for rep in agg.replicates:
            rep_frozen = freeze_detector(rep.steps, rep.argmax_series).frozen_fraction
            fractions.append(rep_frozen)
            frozen += rep_frozen >= 0.5
        frac = frozen / len(agg.replicates)
        return CheckResult(
            name="index-freezing",
            claim="the maximal-degree vertex index eventually freezes",
            value=frac,
            threshold=rate,
            comparison=">=",
            passed=frac >= rate,
            detail={
                "runs": len(agg.replicates),
                "median_frozen_fraction": float(np.median(fractions)),
            },
        )

    def check_embedding_equivalence(self) -> CheckResult:
        t0 = time.perf_counter()
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
        p_floor = self._thr("embedding-equivalence", 0.001)
        pvals = split_half_pvalues(
            chains.pooled_counts, self.calib_trials, self._rng(888)
        )
        ks = uniformity_ks(pvals)
        ks_tol = self._thr("embedding-equivalence.calibration_ks", self.calib_ks_tol)
        elapsed = time.perf_counter() - t0
        return CheckResult(
            name="embedding-equivalence",
            claim="discrete chain and event-clock construction share one degree law",
            value=result.p_value,
            threshold=p_floor,
            comparison=">",
            passed=result.p_value > p_floor and ks <= ks_tol,
            detail={
                "chi_square": result.statistic,
                "dof": result.dof,
                "bins": len(result.bins),
                "replications": self.embed_eq_reps,
                "n": self.embed_eq_n,
                "calibration_trials": self.calib_trials,
                "calibration_ks": ks,
                "calibration_ks_tol": ks_tol,
                "elapsed_s": elapsed,
            },
        )

    def check_event_time_asymptotics(self) -> CheckResult:
        t0 = time.perf_counter()
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
        tau1_tol = self._thr("event-time-asymptotics.tau1_sigmas", 3.0) * sigma

        # (b) tau_n - alpha log n settles: trailing oscillation < 0.1
        # in >= 90% of runs (alpha = 1/2 for X=1, beta=0).
        rng_b = self._rng(99)
        osc_tol = self._thr("event-time-asymptotics.drift_osc", 0.1)
        hits = 0
        oscs = []
        for _ in range(self.drift_reps):
            res = run_embedding(law, 0.0, self.drift_n, rng_b)
            diag = tau_diagnostics(res.taus, res.s_values, 1.0, 0.0)
            oscs.append(diag.log_drift_tail_osc)
            hits += diag.log_drift_tail_osc < osc_tol
        drift_frac = hits / self.drift_reps
        drift_rate = self._thr("event-time-asymptotics", self.pass_rate_drift)

        # (c) S_n / n near 2m + beta at the large scale; X=1 beta=0 is the
        # pinned case (exact up to 2/n), geometric beta=1 exercises it with
        # real randomness.
        sn_tol = self._thr("event-time-asymptotics.sn", 0.05)
        res1 = run_embedding(law, 0.0, self.sn_n, self._rng(999))
        sn_gap1 = abs(res1.s_values[-1] / self.sn_n - 2.0)
        res2 = run_embedding(geometric(0.5), 1.0, self.sn_n, self._rng(9999))
        sn_gap2 = abs(res2.s_values[-1] / self.sn_n - 5.0)
        elapsed = time.perf_counter() - t0
        runtime_bound = self._thr("event-time-asymptotics.runtime", 300.0)

        passed = (
            tau1_gap <= tau1_tol
            and drift_frac >= drift_rate
            and sn_gap1 <= sn_tol
            and sn_gap2 <= sn_tol
            and elapsed < runtime_bound
        )
        return CheckResult(
            name="event-time-asymptotics",
            claim="event times follow the 1/S drift and alpha log n asymptotics",
            value=drift_frac,
            threshold=drift_rate,
            comparison=">=",
            passed=passed,
            detail={
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
                "elapsed_s": elapsed,
                "runtime_bound_s": runtime_bound,
            },
        )

    def check_scaled_size_limit(self) -> CheckResult:
        t0 = time.perf_counter()
        law = deterministic(1)
        horizon = 8.0
        initial = 10  # start away from the zeta ~ 0 mass; see claim detail
        osc_tol = self._thr("scaled-size-limit.osc", 0.05)
        rate = self._thr("scaled-size-limit", self.pass_rate_zeta)
        detail = {
            "runs_per_beta": self.zeta_runs,
            "horizon": horizon,
            "initial_size": initial,
            "note": (
                "relative plateau oscillation scales like 1/sqrt(limit); the "
                "fixed initial size keeps the limit away from 0 so the stated "
                "threshold tests convergence, not small-limit noise"
            ),
        }
        value = 1.0
        all_positive = True
        for beta in (0.0, 1.0):
            cfg = BranchingConfig(edge_law=law, beta=beta, initial=initial)
            rng = self._rng(10 + int(beta))
            hits = 0
            positive = 0
            for _ in range(self.zeta_runs):
                if beta == 0.0:
                    path = simulate_mbp(cfg, horizon, rng)
                else:
                    path = simulate_mbpi(cfg, horizon, rng)
                traj = zeta_trajectory(path, m=1.0, tail_fraction=0.25)
                positive += traj.scaled[-1] > 0
                hits += traj.tail_oscillation < osc_tol
            frac = hits / self.zeta_runs
            pos_frac = positive / self.zeta_runs
            detail[f"beta={beta:g}"] = {
                "plateau_pass_fraction": frac,
                "positive_fraction": pos_frac,
            }
            value = min(value, frac)
            all_positive = all_positive and pos_frac == 1.0
        elapsed = time.perf_counter() - t0
        detail["elapsed_s"] = elapsed
        detail["osc_bound"] = osc_tol
        return CheckResult(
            name="scaled-size-limit",
            claim="scaled size D(t)e^{-mt} settles on a positive limit",
            value=value,
            threshold=rate,
            comparison=">=",
            passed=value >= rate and all_positive,
            detail=detail,
        )

    # -- driver ------------------------------------------------------------

    def run(self, names: tuple[str, ...] | None = None) -> ReportDocument:
        chosen = names or _PROFILE_CHECKS[self.profile] or ALL_CHECKS
        checks = []
        for name in chosen:
            if name not in THRESHOLD_PARAMS:
                raise RangeError("check", f"unknown check {name!r}")
            result = getattr(self, "check_" + name.replace("-", "_"))()
            result.detail = _json_safe(result.detail)
            result.value = float(result.value)
            result.passed = bool(result.passed)
            checks.append(result)
        return ReportDocument(
            config={
                "profile": self.profile,
                "master_seed": self.master_seed,
                "parallelism": self.parallelism,
                "thresholds": dict(self.thresholds),
            },
            checks=checks,
        )

"""The four workloads: inputs from a seed, one round of operations, output checks.

A workload's ``prepare(seed)`` builds every input of a round; ``run_round``
performs the round's operations through ``Round.op``, which times each one and
counts it as attempted (and as failed when it raises or reports failure), and
checks each output against ``oracles`` outside the timed part.  Every round
of a run performs the same operations, so the share of failed operations does
not depend on how many rounds fit in the run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import oracles
import prefattach
import prefattach.cli as cli
from prefattach import BranchingConfig, ModelConfig, VerifySession, deterministic, geometric

# Library calls go through the modules at call time, so the tracer's wrappers
# (installed after this import) are the ones that run.
lib = prefattach
analysis = prefattach.analysis


class Round:
    """Timing and operation accounting for one round."""

    def __init__(self):
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.z_scores: dict[str, float] = {}

    def op(self, func, *args, ok=None, **kwargs):
        """Run one operation; returns its result, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = func(*args, **kwargs)
        except Exception:
            self.wall_s += time.perf_counter() - start
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.wall_s += time.perf_counter() - start
        if ok is not None and not ok(out):
            self.failed += 1
            return None
        return out

    def cli(self, argv):
        """One ``prefattach`` command in-process; returns its stdout or None."""
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        code = self.op(call, ok=lambda rc: rc == 0)
        return None if code is None else buf.getvalue()

    def expect(self, problems, where: str) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)

    def expect_mean(self, sample, expected: float, where: str) -> None:
        """A stochastic check: the sample mean within oracles.Z_BOUND standard errors."""
        self.z_scores[where] = oracles.z_score(sample, expected)
        self.expect(oracles.mean_problem(sample, expected, "mean"), where)


def _seeds(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, 20070110]).generate_state(count, np.uint64)
    return [int(s) for s in state]


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


@functools.cache
def reference_pi(law: str, beta: float, j_max: int) -> list[float]:
    """The oracle spectrum: Gamma closed form for det laws, plain recursion otherwise."""
    pmf = oracles.parse_law(law)
    if law.startswith("det:"):
        x0 = next(iter(pmf))
        return [oracles.pi_gamma(x0, beta, j) for j in range(j_max + 1)]
    return oracles.pi_reference(pmf, beta, j_max)


# -- chain -------------------------------------------------------------------

CHAIN_GRID = (
    ("det:1", 0.0),
    ("det:2", 1.5),
    ("geom:0.5", 0.0),
    ("geom:0.5", 1.0),
    ("explicit:0.5,0.3,0.2", 0.0),
    ("explicit:0.5,0.3,0.2", 2.0),
)
CHAIN_N = 50_000
CHAIN_JMAX = 200
SIMULATE_REPS = 3


class Chain:
    """``analyze`` per law x beta, plus one replicated ``simulate``."""

    name = "chain"

    def prepare(self, seed: int, out_dir: str) -> None:
        seeds = _seeds(seed, len(CHAIN_GRID) + 2)
        rng = np.random.default_rng(seeds[-1])
        self.calls = []
        for k, (law, beta) in enumerate(CHAIN_GRID + (("det:1", 0.5),)):
            probes = sorted({1, 2} | {int(v) for v in rng.integers(3, 200, size=2)})
            simulate = k == len(CHAIN_GRID)
            reps, n = (SIMULATE_REPS, CHAIN_N // 2) if simulate else (1, CHAIN_N)
            out = os.path.join(out_dir, f"chain{k}")
            argv = [
                "simulate" if simulate else "analyze",
                "--law", law, "--beta", repr(beta), "--n", str(n), "--reps", str(reps),
                "--seed", str(seeds[k] % 2**63), "--jmax", str(CHAIN_JMAX),
                "--probes", ",".join(map(str, probes)), "--out", out,
            ]
            self.calls.append((argv, law, beta, n, reps, probes, out))

    def run_round(self, rnd: Round) -> None:
        for argv, law, beta, n, reps, probes, out in self.calls:
            if rnd.cli(argv) is not None:
                rnd.expect(self._check(law, beta, n, reps, probes, out, argv[0]), argv[0] + " " + law)

    def _check(self, law, beta, n, reps, probes, out, command):
        problems = []
        pmf = oracles.parse_law(law)
        theta = oracles.growth_exponent(oracles.law_mean(pmf), beta)
        pi = reference_pi(law, beta, CHAIN_JMAX)

        rows = _read_csv(os.path.join(out, "degree_distribution.csv"))
        counts = {int(r["j"]): int(r["count"]) for r in rows}
        total = sum(counts.values())
        problems += oracles.degree_table_problems(counts, pmf, n, reps)
        for r in rows:
            j, freq = int(r["j"]), counts[int(r["j"])] / total
            pi_j = pi[j] if j <= CHAIN_JMAX else 0.0
            if abs(float(r["empirical"]) - freq) > 6e-7 or abs(float(r["theoretical"]) - pi_j) > 6e-7:
                problems.append(f"degree_distribution.csv row j={j} disagrees with count/total or pi")
                break

        steps_rows = _read_csv(os.path.join(out, "max_degree.csv"))
        steps = [int(r["n"]) for r in steps_rows]
        max_series = [int(r["M_n"]) for r in steps_rows]
        argmax = [int(r["I_n"]) for r in steps_rows]
        traj = _read_csv(os.path.join(out, "trajectories.csv"))
        series = {v: [int(r["degree"]) for r in traj if int(r["vertex"]) == v] for v in probes}
        problems += oracles.series_problems(steps, series, max_series, argmax)
        if steps[0] != 0 or steps[-1] != n:
            problems.append(f"recorded steps run {steps[0]}..{steps[-1]}, not 0..{n}")
        for r in steps_rows[1:] + traj:
            k = int(r["n"])
            if k and not _close(float(r["scaled"]), int(r.get("M_n") or r.get("degree")) / k**theta):
                problems.append(f"scaled column at n={k} is not value / n^theta")
                break
        if reps == 1 and max_series[-1] != max(j for j, c in counts.items() if c):
            problems.append("final M_n is not the largest degree in degree_distribution.csv")

        if command == "analyze":
            with open(os.path.join(out, "analysis.json")) as fh:
                summary = json.load(fh)
            if not _close(summary["theta"], theta, 1e-12):
                problems.append(f"theta {summary['theta']} != m/(2m+beta) = {theta}")
            tv = oracles.tv_core({j: c / total for j, c in counts.items()}, pi)
            if not _close(summary["tv_core"], tv, 1e-9, 1e-12):
                problems.append(f"tv_core {summary['tv_core']} != recomputed {tv}")
            if len(summary["runs"]) != reps or not all(
                0.0 <= run["argmax_frozen_fraction"] <= 1.0 for run in summary["runs"]
            ):
                problems.append("analysis.json runs are malformed")
        return problems


# -- clock -------------------------------------------------------------------

LONG_GRID = (("det:1", 0.0), ("geom:0.5", 1.0), ("explicit:0.5,0.3,0.2", 2.0))
LONG_N = 20_000
SHORT_CALLS = 4000
PATHS = 300
PATH_HORIZON = 4.0
PATH_INITIAL = 3
TINY_REPS = 400
TINY_N = 100
CALIBRATION_TRIALS = 40


class Clock:
    """Event-clock embeddings long and short, size paths, chain-vs-clock replicates."""

    name = "clock"

    def prepare(self, seed: int, out_dir: str) -> None:
        self.seeds = _seeds(seed, 8)
        self.long = [(prefattach.validate_edge_law(law), law, beta) for law, beta in LONG_GRID]
        self.det1 = deterministic(1)
        self.tiny = ModelConfig(beta=0.0, edge_law=self.det1, n=TINY_N, record_stride=TINY_N)

    def run_round(self, rnd: Round) -> None:
        rng = np.random.default_rng(self.seeds[0])
        for law, label, beta in self.long:
            res = rnd.op(lib.run_embedding, law, beta, LONG_N, rng)
            if res is None:
                continue
            rnd.expect(self._check_embedding(res, label, beta), f"run_embedding {label}")
            diag = rnd.op(lib.tau_diagnostics, res.taus, res.s_values, law.mean, beta)
            if diag is not None:
                mart = res.taus - np.cumsum(1.0 / res.s_values[:LONG_N])
                if not _close(diag.alpha, 1.0 / (2 * law.mean + beta), 1e-12) or not np.allclose(
                    diag.martingale_residual, mart, rtol=0, atol=1e-9
                ):
                    rnd.problems.append(f"tau_diagnostics {label}: alpha or residual wrong")

        self._short_embeddings(rnd)
        self._size_paths(rnd)
        self._tiny_replicates(rnd)

    def _short_embeddings(self, rnd: Round) -> None:
        """E tau_1 = 1 / S_0 with S_0 = 2 + 2 beta, at beta = 0 and beta = 1."""
        rng = np.random.default_rng(self.seeds[1])
        for beta in (0.0, 1.0):
            runs = rnd.op(lambda: [lib.run_embedding(self.det1, beta, 1, rng) for _ in range(SHORT_CALLS)])
            if runs is None:
                continue
            if any(r.s_values[0] != 2 + 2 * beta or r.s_values[1] != 4 + 3 * beta for r in runs):
                rnd.problems.append(f"short run_embedding beta={beta:g}: S_0 or S_1 wrong")
            firsts = [float(r.taus[0]) for r in runs]
            rnd.expect_mean(firsts, 1.0 / (2 + 2 * beta), f"E tau_1 = 1/S_0, beta={beta:g}")

    def _check_embedding(self, res, label, beta):
        problems = oracles.rate_ledger_problems(res.s_values.tolist(), res.xs.tolist(), beta)
        pmf = oracles.parse_law(label)
        n = res.taus.shape[0]
        if not np.all(np.diff(res.taus) > 0) or res.taus[0] <= 0:
            problems.append("event times are not strictly increasing from 0")
        if np.any(res.chosen < 1) or np.any(res.chosen > np.arange(n) + 2):
            problems.append("an event is owned by a process not yet born")
        counts = dict(zip(*map(np.ndarray.tolist, np.unique(res.sizes, return_counts=True))))
        problems += oracles.degree_table_problems(counts, pmf, n, 1)
        if int(res.sizes.sum()) != 2 + 2 * int(res.xs.sum()):
            problems.append("sizes do not sum to 2 + 2 sum X")
        return problems

    def _size_paths(self, rnd: Round) -> None:
        horizon, i0 = PATH_HORIZON, PATH_INITIAL
        kinds = (
            ("mbp", 0.0, lambda cfg, rng: lib.simulate_mbp(cfg, horizon, rng)),
            ("mbpi jump-chain", 1.0, lambda cfg, rng: lib.simulate_mbpi(cfg, horizon, rng)),
            (
                "mbpi superposition",
                1.0,
                lambda cfg, rng: lib.simulate_mbpi(cfg, horizon, rng, representation="superposition"),
            ),
        )
        for k, (kind, beta, draw) in enumerate(kinds):
            cfg = BranchingConfig(edge_law=self.det1, beta=beta, initial=i0)
            rng = np.random.default_rng(self.seeds[2 + k])

            def job():
                paths = [draw(cfg, rng) for _ in range(PATHS)]
                return paths, [lib.zeta_trajectory(path, 1.0) for path in paths]

            out = rnd.op(job)
            if out is None:
                continue
            for path, zeta in zip(*out):
                if path.times.shape[0] and (
                    path.times[-1] > horizon
                    or not np.array_equal(path.values, i0 + np.arange(1, path.times.shape[0] + 1))
                    or not np.allclose(zeta.scaled[1:], path.values * np.exp(-path.times), rtol=1e-12)
                ):
                    rnd.problems.append(f"{kind}: a path leaves the horizon, skips a size or mis-scales")
                    break
            finals = [path.final * math.exp(-horizon) for path in out[0]]
            rnd.expect_mean(finals, oracles.yule_scaled_mean(i0, beta, horizon), f"E D(t)e^-t, {kind}")

    def _tiny_replicates(self, rnd: Round) -> None:
        pools = []
        for k, task in enumerate(("simulate", "embed")):
            agg = rnd.op(
                lib.replicate, self.tiny, TINY_REPS, task=task, master_seed=self.seeds[5 + k] % 2**63
            )
            if agg is None:
                return
            pools.append(agg.pooled_counts)
            rnd.expect(oracles.degree_table_problems(agg.pooled_counts, {1: 1.0}, TINY_N, TINY_REPS), task)
        test = rnd.op(analysis.embedding_equivalence_test, *pools)
        if test is not None:
            stat = oracles.chi_square(*pools, test.bins)
            flat = [j for lo, hi in test.bins for j in (lo, hi)]
            if (
                not _close(test.statistic, stat, 1e-9)
                or test.dof != len(test.bins) - 1
                or flat != sorted(flat)
                or not _close(test.p_value, oracles.chi_square_sf(stat, test.dof), 1e-6, 1e-12)
            ):
                rnd.problems.append("chi-square statistic, dof, bins or p-value disagree")
        rng = np.random.default_rng(self.seeds[7])
        pvals = rnd.op(analysis.split_half_pvalues, pools[0], CALIBRATION_TRIALS, rng)
        if pvals is None:
            return
        ks = rnd.op(analysis.uniformity_ks, pvals)
        if ks is not None and not _close(ks, oracles.ks_uniform(pvals.tolist()), 1e-9):
            rnd.problems.append(f"KS statistic {ks} disagrees with the oracle")


# -- spectrum ----------------------------------------------------------------

THEORY_GRID = (
    ("det:1", 0.0),
    ("det:2", 0.5),
    ("geom:0.5", 1.0),
    ("explicit:0.5,0.3,0.2", 0.0),
)
THEORY_JMAX = 200
LONG_JMAX = 1500
MOMENT_S = (0.0, 1.0)


class Spectrum:
    """``theory`` per law x beta, then long closed-form and recursive spectra."""

    name = "spectrum"

    def prepare(self, seed: int, out_dir: str) -> None:
        rng = np.random.default_rng(_seeds(seed, 1)[0])
        self.theory = [
            (law, beta, os.path.join(out_dir, f"theory{k}")) for k, (law, beta) in enumerate(THEORY_GRID)
        ]
        # The long-range beta is drawn from the seed; the work does not depend on it.
        self.long_beta = float(np.round(rng.uniform(0.25, 2.0), 6))
        self.long_laws = [(deterministic(1), "det:1"), (geometric(0.5), "geom:0.5")]

    def run_round(self, rnd: Round) -> None:
        for law, beta, out in self.theory:
            argv = ["theory", "--law", law, "--beta", repr(beta), "--jmax", str(THEORY_JMAX), "--out", out]
            stdout = rnd.cli(argv)
            if stdout is not None:
                rnd.expect(self._check_theory(law, beta, out, stdout), f"theory {law} beta={beta:g}")

        beta = self.long_beta
        closed = rnd.op(lambda: [lib.pi_explicit(1, beta, j) for j in range(1, LONG_JMAX + 1)])
        if closed is not None and not all(
            _close(c, oracles.pi_gamma(1, beta, j), 1e-9) for j, c in enumerate(closed, 1)
        ):
            rnd.problems.append("pi_explicit disagrees with the Gamma closed form")
        for law, label in self.long_laws:
            spec = rnd.op(lib.pi_recursive, law, beta, LONG_JMAX)
            if spec is None:
                continue
            rnd.expect(self._check_spectrum(spec, label, beta, LONG_JMAX), f"pi_recursive {label}")
            curves = rnd.op(lib.moment_profile, spec, MOMENT_S + (2.0 + beta / law.mean,))
            if curves is not None:
                rnd.expect(self._check_moments(spec, curves), f"moment_profile {label}")
            fit = rnd.op(lib.tail_fit, spec, 20, LONG_JMAX)
            expo = oracles.tail_exponent(law.mean, beta)
            if fit is not None and abs(fit.slope + expo) > 0.2:
                rnd.problems.append(f"tail_fit {label}: slope {fit.slope:.4f} not near -{expo:.4f}")

    def _check_spectrum(self, spec, label, beta, j_max):
        problems = []
        pmf = oracles.parse_law(label)
        m = oracles.law_mean(pmf)
        if not _close(spec.theta, oracles.growth_exponent(m, beta), 1e-12):
            problems.append(f"theta {spec.theta} != m/(2m+beta)")
        if not _close(spec.tail_exponent, oracles.tail_exponent(m, beta), 1e-12):
            problems.append(f"tail exponent {spec.tail_exponent} != 3 + beta/m")
        if abs(float(spec.pi[1:].sum()) + spec.truncation_mass - 1.0) > 1e-9:
            problems.append("sum pi + truncation mass != 1")
        ref = reference_pi(label, beta, j_max)
        if not all(_close(a, b, 1e-9, 1e-15) for a, b in zip(spec.pi.tolist(), ref)):
            problems.append("pi disagrees with the reference recursion / closed form")
        return problems

    def _check_moments(self, spec, curves):
        problems = []
        j = np.arange(1, spec.j_max + 1, dtype=float)
        for curve in curves:
            sums = np.concatenate(([0.0], np.cumsum(j**curve.s * spec.pi[1:])))
            if not np.allclose(curve.partial_sums, sums, rtol=1e-12, atol=0):
                problems.append(f"partial sums at s={curve.s} are wrong")
        # Below the boundary s = 2 + beta/m the sums converge; at it they diverge.
        verdicts = [c.verdict for c in curves]
        if verdicts != ["plateauing"] * len(MOMENT_S) + ["diverging"]:
            problems.append(f"moment verdicts {verdicts}")
        return problems

    def _check_theory(self, law, beta, out, stdout):
        pmf = oracles.parse_law(law)
        m = oracles.law_mean(pmf)
        problems = []
        theta = oracles.growth_exponent(m, beta)
        if f"theta={theta:.6g}," not in stdout or f"tail exponent={oracles.tail_exponent(m, beta):g}," not in stdout:
            problems.append(f"printed theta / tail exponent wrong: {stdout.strip()}")
        rows = _read_csv(os.path.join(out, "pi.csv"))
        ref = reference_pi(law, beta, THEORY_JMAX)
        if [int(r["j"]) for r in rows] != list(range(1, THEORY_JMAX + 1)):
            problems.append("pi.csv does not list j = 1..jmax")
        for r in rows:
            j = int(r["j"])
            rec, quad = float(r["pi_recursive"]), float(r["pi_quadrature"])
            if not _close(rec, ref[j], 1e-10, 1e-15) or abs(quad - ref[j]) > 1e-6:
                problems.append(f"pi.csv j={j}: recursion or quadrature off the reference")
                break
            exp_col = r["pi_explicit_or_blank"]
            if law.startswith("det:") != bool(exp_col) or (exp_col and not _close(float(exp_col), ref[j], 1e-10, 1e-15)):
                problems.append(f"pi.csv j={j}: closed-form column wrong")
                break
        return problems


# -- verify-quick ------------------------------------------------------------

# event-time-asymptotics is left out: at the quick profile its S_n/n bound
# fails on a seed-dependent share of master seeds (see CHANGES.md), and an
# operation that fails on some seeds only would make the failed share vary.
VERIFY_CHECKS = (
    "explicit-spectrum-crosscheck",
    "dual-route-pi",
    "degree-lln",
    "tail-exponent",
    "moment-dichotomy",
    "growth-exponents",
    "index-freezing",
    "embedding-equivalence",
    "scaled-size-limit",
)


class VerifyQuick:
    """A fresh quick-profile VerifySession per round, at a master seed drawn from the seed."""

    name = "verify-quick"

    def prepare(self, seed: int, out_dir: str) -> None:
        self.master_seed = _seeds(seed, 1)[0] % 2**63

    def run_round(self, rnd: Round) -> None:
        session = VerifySession(profile="quick", master_seed=self.master_seed)
        lln = rnd.op(session.lln_run)
        if lln is not None:
            led = lln.ledger
            rnd.expect(oracles.degree_table_problems(led.counts, {1: 1.0}, lln.config.n, 1), "lln_run")
            for step, counts in lln.snapshots.items():
                rnd.expect(oracles.degree_table_problems(counts, {1: 1.0}, step, 1), f"snapshot {step}")
            rnd.expect(
                oracles.series_problems(
                    lln.steps.tolist(),
                    {v: s.tolist() for v, s in lln.probes.items()},
                    lln.max_series.tolist(),
                    lln.argmax_series.tolist(),
                ),
                "lln_run",
            )
        ens = rnd.op(session.ensemble)
        if ens is not None:
            n = session.ensemble_n
            for rep in ens.replicates:
                rnd.expect(oracles.degree_table_problems(rep.counts, {1: 1.0}, n, 1), "ensemble")
                rnd.expect(
                    oracles.series_problems(
                        rep.steps.tolist(),
                        {v: s.tolist() for v, s in rep.probes.items()},
                        rep.max_series.tolist(),
                        rep.argmax_series.tolist(),
                    ),
                    "ensemble",
                )
            rnd.expect(
                oracles.degree_table_problems(ens.pooled_counts, {1: 1.0}, n, len(ens.replicates)),
                "ensemble pool",
            )
        for name in VERIFY_CHECKS:
            report = rnd.op(session.run, (name,), ok=lambda rep: rep.passed)
            if report is not None:
                rnd.expect(self._check_report(report, name), name)

    @staticmethod
    def _check_report(report, name):
        (check,) = report.checks
        problems = []
        if check.name != name or not math.isfinite(check.value):
            problems.append("report names another check or a non-finite value")
        if check.comparison in ("<=", ">=", ">"):
            holds = {
                "<=": check.value <= check.threshold,
                ">=": check.value >= check.threshold,
                ">": check.value > check.threshold,
            }[check.comparison]
            if check.passed and not holds:
                problems.append(f"passed with value {check.value} {check.comparison} {check.threshold} false")
        json.dumps(report.to_json())
        return problems


WORKLOADS = {w.name: w for w in (Chain, Clock, Spectrum, VerifyQuick)}

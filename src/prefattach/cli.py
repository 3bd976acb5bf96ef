"""Command-line interface.

Subcommands:

* ``simulate`` -- replicate chain runs; emit degree_distribution.csv,
  trajectories.csv, max_degree.csv.
* ``embed``    -- replicate event-clock runs; emit tau.csv and the pooled
  size distribution as degree_distribution.csv.
* ``theory``   -- compute the limit spectrum both ways; emit pi.csv.
* ``analyze``  -- simulate + theory + comparison; emit the simulate files
  plus analysis.json.
* ``verify``   -- run the acceptance checks at a profile; emit report.json;
  exit 1 on any failing check.

Exit codes: 0 success, 1 verification failure, 2 usage/config error or out of
memory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (
    distribution_distance,
    empirical_distribution,
    freeze_detector,
    max_degree_check,
    tail_fit,
    trajectory_limit_check,
)
from .branching import tau_diagnostics
from .config import RUN_KEYS, ExperimentConfig, parse_config
from .errors import RangeError, StepTooCoarse, checked_int
from .outputs import (
    write_degree_distribution,
    write_max_degree,
    write_pi,
    write_report,
    write_tau,
    write_trajectories,
)
from .replicate import replicate
from .theory import MAX_QUAD_J_MAX, pi_quadrature, pi_recursive
from .verify import VerifySession


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {key: value for key, value in vars(args).items() if key in RUN_KEYS}
    if getattr(args, "threshold", None):
        overrides["thresholds"] = {}
        for item in args.threshold:
            name, _, value = item.partition("=")
            if not _ or not name:
                raise RangeError("run.thresholds", f"--threshold needs NAME=VALUE, got {item!r}")
            overrides["thresholds"][name] = value
    return parse_config(args.config, overrides)


def _spectrum_for(cfg: ExperimentConfig):
    return pi_recursive(cfg.model.edge_law, cfg.model.beta, cfg.j_max)


def _run_chains(cfg: ExperimentConfig):
    """Replicate the chain and write degree_distribution.csv for the pooled
    runs, trajectories.csv and max_degree.csv for the first replicate.
    Returns the aggregate, the limit spectrum and the empirical distribution."""
    agg = replicate(
        cfg.model,
        replications=cfg.replications,
        task="simulate",
        parallelism=cfg.parallelism,
    )
    spectrum = _spectrum_for(cfg)
    emp = empirical_distribution(agg.pooled_counts)
    out, first = cfg.out_dir, agg.replicates[0]
    write_degree_distribution(
        os.path.join(out, "degree_distribution.csv"), emp, spectrum
    )
    write_trajectories(
        os.path.join(out, "trajectories.csv"), first.steps, first.probes, spectrum.theta
    )
    write_max_degree(
        os.path.join(out, "max_degree.csv"),
        first.steps,
        first.max_series,
        first.argmax_series,
        spectrum.theta,
    )
    return agg, spectrum, emp


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    _run_chains(cfg)
    print(
        f"simulate: {cfg.replications} run(s) of n={cfg.model.n}, "
        f"law={cfg.model.edge_law.label()}, beta={cfg.model.beta:g} -> {cfg.out_dir}/"
    )
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.model.n < 1:
        raise RangeError("run.n", "embed needs at least one event")
    agg = replicate(
        cfg.model,
        replications=cfg.replications,
        task="embed",
        parallelism=cfg.parallelism,
    )
    first = agg.replicates[0]
    m = cfg.model.edge_law.mean
    diag = tau_diagnostics(first.taus, first.s_values, m, cfg.model.beta)
    out = cfg.out_dir
    write_tau(os.path.join(out, "tau.csv"), first.taus, diag)
    emp = empirical_distribution(agg.pooled_counts)
    write_degree_distribution(
        os.path.join(out, "degree_distribution.csv"), emp, _spectrum_for(cfg)
    )
    print(
        f"embed: {cfg.replications} run(s) of n={cfg.model.n} events -> {out}/ "
        f"(alpha={diag.alpha:g}, drift tail osc={diag.log_drift_tail_osc:.4g})"
    )
    return 0


def cmd_theory(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    # the quadrature's cap is below the one parse_config applies
    checked_int("run.jmax", cfg.j_max, 1, MAX_QUAD_J_MAX)
    spectrum = _spectrum_for(cfg)
    try:
        quad = pi_quadrature(
            cfg.model.edge_law,
            cfg.model.beta,
            cfg.j_max,
            y_max=cfg.y_max,
            steps=cfg.quad_steps,
        )
    except StepTooCoarse as exc:
        # name the config key behind the quadrature's own argument
        key = {"y_max": "run.ymax", "steps": "run.quad_steps"}[exc.field]
        raise RangeError(key, exc.message) from exc
    x0 = (
        cfg.model.edge_law.x0
        if cfg.model.edge_law.kind == "deterministic"
        else None
    )
    out = cfg.out_dir
    write_pi(
        os.path.join(out, "pi.csv"), spectrum, quad, explicit_x0=x0, beta=cfg.model.beta
    )
    gap = float(np.max(np.abs(spectrum.pi - quad)))
    print(
        f"theory: law={cfg.model.edge_law.label()}, beta={cfg.model.beta:g}: "
        f"theta={spectrum.theta:.6g}, tail exponent={spectrum.tail_exponent:g}, "
        f"truncation mass={spectrum.truncation_mass:.3g}, "
        f"max|recursive-quadrature|={gap:.3g} -> {out}/pi.csv"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    n, stride = cfg.model.n, cfg.model.record_stride
    points = -(-n // stride)  # recorded steps with n >= 1, which the plateau checks use
    if points < 10:
        raise RangeError(
            "run.n" if n < 10 else "run.stride",
            f"analyze needs >= 10 recorded steps; n = {n} at stride {stride} records {points}",
        )
    agg, spectrum, emp = _run_chains(cfg)
    dist = distribution_distance(emp, spectrum)
    expo = spectrum.theta
    summary: dict = {
        "law": cfg.model.edge_law.label(),
        "beta": cfg.model.beta,
        "n": cfg.model.n,
        "reps": cfg.replications,
        "theta": expo,
        "tv_core": dist.tv_core,
        "tv_remainder": dist.remainder,
        "max_abs_error": dist.max_abs_error,
    }
    try:
        fit = tail_fit(emp, cfg.fit_j_min, cfg.fit_j_max)
        summary["tail_fit"] = {
            "slope": fit.slope,
            "r_squared": fit.r_squared,
            "bins": fit.n_bins,
            "range": [fit.j_min, fit.j_max],
        }
    except RangeError as exc:
        if exc.field != "source":  # too few bins for a fit is reported, not refused
            raise
        summary["tail_fit"] = {"skipped": exc.message}
    per_run = []
    for rep in agg.replicates:
        entry = {"index": rep.index}
        if 1 in rep.probes:
            tr = trajectory_limit_check(rep.steps, rep.probes[1], expo)
            entry["d1_tail_oscillation"] = tr.tail_oscillation
            entry["d1_plateau"] = tr.verdict
        mx = max_degree_check(rep.steps, rep.max_series, expo)
        fz = freeze_detector(rep.steps, rep.argmax_series)
        entry["max_tail_oscillation"] = mx.tail_oscillation
        entry["max_plateau"] = mx.verdict
        entry["argmax_frozen_fraction"] = fz.frozen_fraction
        per_run.append(entry)
    summary["runs"] = per_run

    write_report(os.path.join(cfg.out_dir, "analysis.json"), summary)
    print(
        f"analyze: tv_core={dist.tv_core:.4g} (+{dist.remainder:.2g} remainder), "
        f"theta={expo:.4g} -> {cfg.out_dir}/analysis.json"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    session = VerifySession(
        profile=cfg.profile,
        master_seed=cfg.model.seed,
        parallelism=cfg.parallelism,
        thresholds=cfg.thresholds,
    )
    report = session.run()
    doc = report.to_json()
    doc["config"]["out"] = cfg.out_dir
    write_report(os.path.join(cfg.out_dir, "report.json"), doc)
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(
            f"{mark} {check.name}: value={check.value:.6g} "
            f"({check.comparison} {check.threshold:g}) -- {check.claim}"
        )
    print(f"report: {os.path.join(cfg.out_dir, 'report.json')}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefattach",
        description=(
            "Simulate preferential-attachment multigraphs, couple them to "
            "continuous-time size processes, and verify the limit laws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, desc in (
        ("simulate", cmd_simulate, "run replicated chains and emit degree data"),
        ("embed", cmd_embed, "run event-clock replications and emit tau data"),
        ("theory", cmd_theory, "compute the limit spectrum and emit pi.csv"),
        ("analyze", cmd_analyze, "simulate and compare against the limits"),
        ("verify", cmd_verify, "run the acceptance checks; exit 1 on failure"),
    ):
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key, (_, kind, _, text, readers) in RUN_KEYS.items():
            if name not in readers:
                continue
            if key == "thresholds":
                p.add_argument(
                    "--threshold",
                    action="append",
                    metavar="NAME=VALUE",
                    help="override a verification threshold (repeatable)",
                )
            elif isinstance(kind, tuple):
                p.add_argument(f"--{key}", choices=kind, help=text)
            elif text is not None:
                p.add_argument(f"--{key}", type=kind, help=text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        sizes = {"theory": "run.jmax, run.quad_steps", "verify": "run.profile"}
        size = sizes.get(args.command, "run.n, run.reps")
        print(f"error: out of memory (size keys: {size})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

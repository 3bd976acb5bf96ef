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

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
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
from .config import ExperimentConfig, parse_config
from .errors import InsufficientBins, PrefattachError, RangeError
from .outputs import (
    write_degree_distribution,
    write_max_degree,
    write_pi,
    write_report,
    write_tau,
    write_trajectories,
)
from .replicate import replicate
from .theory import pi_quadrature, pi_recursive
from .verify import PROFILES, VerifySession


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--law", help="edge-count law: det:K | geom:Q | explicit:p1,p2,...")
    sub.add_argument("--beta", type=float, help="uniform attachment weight beta >= 0")
    sub.add_argument("--n", type=int, help="number of attachment steps / events")
    sub.add_argument("--reps", type=int, help="independent replications")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--jmax", type=int, help="spectrum truncation degree")
    sub.add_argument("--out", help="output directory (default: results)")
    sub.add_argument("--profile", choices=PROFILES, help="verification profile")
    sub.add_argument("--parallelism", type=int, help="max concurrent workers")
    sub.add_argument("--stride", type=int, help="trajectory recording stride")
    sub.add_argument("--probes", help="comma-separated probe vertex labels")
    sub.add_argument(
        "--threshold",
        action="append",
        default=None,
        metavar="NAME=VALUE",
        help="override a verification threshold (repeatable)",
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    thresholds = None
    if args.threshold:
        thresholds = {}
        for item in args.threshold:
            name, _, value = item.partition("=")
            if not _ or not name:
                raise PrefattachError(f"--threshold needs NAME=VALUE, got {item!r}")
            thresholds[name] = value
    overrides = {
        "law": args.law,
        "beta": args.beta,
        "n": args.n,
        "reps": args.reps,
        "seed": args.seed,
        "jmax": args.jmax,
        "out": args.out,
        "profile": args.profile,
        "parallelism": args.parallelism,
        "stride": args.stride,
        "probes": args.probes,
        "thresholds": thresholds,
    }
    return parse_config(args.config, overrides)


def _spectrum_for(cfg: ExperimentConfig):
    return pi_recursive(cfg.model.edge_law, cfg.model.beta, cfg.j_max)


def _write_chain_files(out: str, emp, spectrum, first) -> None:
    """degree_distribution.csv for the pooled runs; trajectories.csv and
    max_degree.csv for the first replicate."""
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


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    agg = replicate(
        cfg.model,
        replications=cfg.replications,
        task="simulate",
        parallelism=cfg.parallelism,
    )
    spectrum = _spectrum_for(cfg)
    emp = empirical_distribution(agg.pooled_counts)
    out = cfg.out_dir
    _write_chain_files(out, emp, spectrum, agg.replicates[0])
    print(
        f"simulate: {cfg.replications} run(s) of n={cfg.model.n}, "
        f"law={cfg.model.edge_law.label()}, beta={cfg.model.beta:g} -> {out}/"
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
    spectrum = _spectrum_for(cfg)
    quad = pi_quadrature(
        cfg.model.edge_law,
        cfg.model.beta,
        cfg.j_max,
        y_max=cfg.y_max,
        steps=cfg.quad_steps,
    )
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
    agg = replicate(
        cfg.model,
        replications=cfg.replications,
        task="simulate",
        parallelism=cfg.parallelism,
    )
    spectrum = _spectrum_for(cfg)
    emp = empirical_distribution(agg.pooled_counts)
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
    except InsufficientBins as exc:
        summary["tail_fit"] = {"skipped": str(exc)}
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

    out = cfg.out_dir
    _write_chain_files(out, emp, spectrum, agg.replicates[0])
    write_report(os.path.join(out, "analysis.json"), summary)
    print(
        f"analyze: tv_core={dist.tv_core:.4g} (+{dist.remainder:.2g} remainder), "
        f"theta={expo:.4g} -> {out}/analysis.json"
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
    doc["config"].update({"law": cfg.model.edge_law.label(), "out": cfg.out_dir})
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
        _add_common_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PrefattachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

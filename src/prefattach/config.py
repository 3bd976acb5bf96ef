"""Experiment configuration: JSON file + flag overrides -> validated config."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import MAX_BETA, RangeError, checked_int, checked_real
from .graph import ModelConfig
from .laws import validate_edge_law
from .streams import MAX_SEED
from .theory import MAX_J_MAX, MIN_QUAD_STEPS
from .verify import PROFILES, validate_thresholds

# Every run key once, in flag order: key -> (default, kind, bounds, flag help,
# readers).  kind int or float: a number checked as "run.<key>" by
# checked_int(lo, hi) or checked_real(lo, hi), with ``bounds`` as those
# arguments (None: no bound); a tuple: one of its choices; None: read by
# parse_config's own code.  A key with no help has no flag of its own
# (--threshold sets thresholds).  The readers are the subcommands that use the
# key, and only they take its flag; a config file may hold any key.  A null is
# refused where the default is not null.  beta's sign is left to ModelConfig
# ("model.beta"), and fit_j_max must also exceed fit_j_min.
_RUNS = ("simulate", "analyze", "embed")
_MODEL = _RUNS + ("theory",)
RUN_KEYS: dict[str, tuple[Any, Any, tuple, str | None, tuple[str, ...]]] = {
    "law": ("det:1", None, (), "edge-count law: det:K | geom:Q | explicit:p1,p2,...", _MODEL),
    "beta": (0.0, float, (None, MAX_BETA), "uniform attachment weight beta >= 0", _MODEL),
    "n": (10000, int, (0, None), "number of attachment steps / events", _RUNS),
    "reps": (1, int, (1, None), "independent replications", _RUNS),
    "seed": (0, int, (0, MAX_SEED), "master seed", _RUNS + ("verify",)),
    "jmax": (200, int, (1, MAX_J_MAX), "spectrum truncation degree", _MODEL),
    "out": ("results", None, (), "output directory (default: results)", _MODEL + ("verify",)),
    "profile": ("full", PROFILES, (), "verification profile", ("verify",)),
    "parallelism": (1, int, (1, None), "max concurrent workers", _RUNS + ("verify",)),
    "stride": (None, int, (1, None), "trajectory recording stride", ("simulate", "analyze")),
    "probes": ((1, 2), None, (), "comma-separated probe vertex labels", ("simulate", "analyze")),
    "ymax": (None, float, (0.0,), None, ("theory",)),
    "quad_steps": (20000, int, (MIN_QUAD_STEPS, None), None, ("theory",)),
    "fit_j_min": (3, int, (1, None), None, ("analyze",)),
    "fit_j_max": (30, int, (1, None), None, ("analyze",)),
    "thresholds": ({}, None, (), None, ("verify",)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration for one CLI invocation (see parse_config)."""

    model: ModelConfig
    replications: int
    parallelism: int
    out_dir: str
    j_max: int
    y_max: float | None
    quad_steps: int
    fit_j_min: int
    fit_j_max: int
    profile: str
    thresholds: dict


def _number(value: Any) -> Any:
    """A string read as a number, and an integral float as an int; anything
    else is returned as it is, for the range checks to refuse or accept."""
    if isinstance(value, str):
        for parse in (int, float):
            try:
                value = parse(value)
                break
            except ValueError:
                pass
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def parse_config(
    path: str | None = None, overrides: Mapping[str, Any] | None = None
) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and flag overrides (flags win).

    Raises RangeError naming the field: ``config`` for an unreadable file,
    ``run.<key>`` for an unknown key, an out-of-range value and a null where
    the default is not null.  A refused law names ``run.law``, and its
    message keeps the parameter validate_edge_law named (x0, q, probs).
    """
    merged = {key: row[0] for key, row in RUN_KEYS.items()}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise RangeError("config", f"cannot read config file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise RangeError("config", f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise RangeError("config", "config file must hold a JSON object")
        unknown = sorted(set(data) - set(RUN_KEYS))
        if unknown:
            raise RangeError(f"run.{unknown[0]}", f"unknown config keys: {unknown}")
        merged.update(data)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in RUN_KEYS:
            raise RangeError(f"run.{key}", f"unknown option {key!r}")
        merged[key] = value

    for key, value in merged.items():
        default, kind, bounds, _, _ = RUN_KEYS[key]
        field = f"run.{key}"
        if value is None:
            if default is not None:
                raise RangeError(field, "must not be null")
        elif kind is int:
            merged[key] = checked_int(field, _number(value), *bounds)
        elif kind is float:
            merged[key] = checked_real(field, _number(value), *bounds)
        elif kind is not None:
            merged[key] = str(value)
            if merged[key] not in kind:
                raise RangeError(field, f"must be one of {kind}")
    try:
        law = validate_edge_law(merged["law"])
    except RangeError as exc:
        raise RangeError("run.law", exc.message if exc.field == "law" else str(exc)) from exc
    n = merged["n"]
    stride = merged["stride"]
    stride = max(1, n // 1000) if stride is None else stride
    probes = merged["probes"]
    if isinstance(probes, str):
        probes = [p for p in probes.split(",") if p.strip()]
    if not isinstance(probes, (list, tuple)):
        raise RangeError("run.probes", f"must be a list of vertex labels, got {probes!r}")
    model = ModelConfig(
        beta=merged["beta"],
        edge_law=law,
        n=n,
        probe_vertices=tuple(checked_int("run.probes", _number(p), 1, n + 2) for p in probes),
        record_stride=stride,
        seed=merged["seed"],
    )

    out = str(merged["out"])
    if not out:
        raise RangeError("run.out", "must name a directory, got an empty string")
    fit_j_min, fit_j_max = merged["fit_j_min"], merged["fit_j_max"]
    if fit_j_max <= fit_j_min:
        raise RangeError("run.fit_j_max", f"must exceed fit_j_min = {fit_j_min}")
    thresholds = merged["thresholds"]
    if not isinstance(thresholds, Mapping):
        raise RangeError("run.thresholds", "thresholds must be a mapping of check name to bound")
    thresholds = validate_thresholds(thresholds)

    return ExperimentConfig(
        model=model,
        replications=merged["reps"],
        parallelism=merged["parallelism"],
        out_dir=out,
        j_max=merged["jmax"],
        y_max=merged["ymax"],
        quad_steps=merged["quad_steps"],
        fit_j_min=fit_j_min,
        fit_j_max=fit_j_max,
        profile=merged["profile"],
        thresholds=thresholds,
    )

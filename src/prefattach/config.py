"""Experiment configuration: JSON file + flag overrides -> validated config."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import ParseError, RangeError, checked_int, checked_real
from .graph import ModelConfig
from .laws import validate_edge_law
from .streams import MAX_SEED
from .theory import MAX_J_MAX, MIN_QUAD_STEPS
from .verify import PROFILES, validate_thresholds

# JSON/flag keys understood by parse_config, with their defaults.
_DEFAULTS: dict[str, Any] = {
    "law": "det:1",
    "beta": 0.0,
    "n": 10000,
    "seed": 0,
    "probes": (1, 2),
    "stride": None,  # None -> max(1, n // 1000)
    "reps": 1,
    "parallelism": 1,
    "out": "results",
    "jmax": 200,
    "ymax": None,
    "quad_steps": 20000,
    "fit_j_min": 3,
    "fit_j_max": 30,
    "profile": "full",
    "thresholds": {},
}
# Integer keys with their bounds [lo, hi] (None: no bound), checked as
# "run.<key>".  fit_j_max must also exceed fit_j_min.
_INTEGER_BOUNDS: dict[str, tuple[int, int | None]] = {
    "n": (0, None),
    "seed": (0, MAX_SEED),
    "stride": (1, None),
    "reps": (1, None),
    "parallelism": (1, None),
    "jmax": (1, MAX_J_MAX),
    "quad_steps": (MIN_QUAD_STEPS, None),
    "fit_j_min": (1, None),
    "fit_j_max": (1, None),
}
# Real keys with their lower bounds.  beta's sign is left to ModelConfig,
# which names it "model.beta".
_REAL_BOUNDS: dict[str, float | None] = {"beta": None, "ymax": 0.0}


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

    Raises ParseError for unreadable files, unknown keys or an unreadable law
    (its message starts "run.law: "), RangeError (with a dotted field path)
    for out-of-range values and for null where the default is not null.
    """
    merged = dict(_DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read config file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError("config file must hold a JSON object")
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        merged.update(data)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _DEFAULTS:
            raise ParseError(f"unknown option {key!r}")
        merged[key] = value

    for key, value in merged.items():
        if value is None and _DEFAULTS[key] is not None:
            raise RangeError(f"run.{key}", "must not be null")
    for key, (lo, hi) in _INTEGER_BOUNDS.items():
        if merged[key] is not None:
            merged[key] = checked_int(f"run.{key}", _number(merged[key]), lo, hi)
    for key, lo in _REAL_BOUNDS.items():
        if merged[key] is not None:
            merged[key] = checked_real(f"run.{key}", _number(merged[key]), lo)
    try:
        law = validate_edge_law(merged["law"])
    except ParseError as exc:
        raise ParseError(f"run.law: {exc}") from exc
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
        probe_vertices=tuple(checked_int("run.probes", _number(p), 1) for p in probes),
        record_stride=stride,
        seed=merged["seed"],
    )

    fit_j_min, fit_j_max = merged["fit_j_min"], merged["fit_j_max"]
    if fit_j_max <= fit_j_min:
        raise RangeError("run.fit_j_max", f"must exceed fit_j_min = {fit_j_min}")
    profile = str(merged["profile"])
    if profile not in PROFILES:
        raise RangeError("run.profile", f"must be one of {PROFILES}")
    thresholds = merged["thresholds"]
    if not isinstance(thresholds, Mapping):
        raise ParseError("thresholds must be a mapping of check name to bound")
    thresholds = validate_thresholds(thresholds)

    return ExperimentConfig(
        model=model,
        replications=merged["reps"],
        parallelism=merged["parallelism"],
        out_dir=str(merged["out"]),
        j_max=merged["jmax"],
        y_max=merged["ymax"],
        quad_steps=merged["quad_steps"],
        fit_j_min=fit_j_min,
        fit_j_max=fit_j_max,
        profile=profile,
        thresholds=thresholds,
    )

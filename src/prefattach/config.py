"""Experiment configuration: JSON file + flag overrides -> validated config."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import ParseError, RangeError
from .graph import ModelConfig
from .laws import validate_edge_law
from .streams import checked_seed
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
_INTEGER_KEYS = (
    "n", "seed", "stride", "reps", "parallelism", "jmax", "quad_steps", "fit_j_min", "fit_j_max"
)
_REAL_KEYS = ("beta", "ymax")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration for one CLI invocation."""

    model: ModelConfig
    replications: int = 1
    parallelism: int = 1
    out_dir: str = "results"
    j_max: int = 200
    y_max: float | None = None
    quad_steps: int = 20000
    fit_j_min: int = 3
    fit_j_max: int = 30
    profile: str = "full"
    thresholds: dict = field(default_factory=dict)


def _number(key: str, value: Any, integer: bool = True) -> int | float:
    """``value`` as an int (or a float), else RangeError naming ``run.<key>``.

    A string is read as a number.  A bool, a non-number and, for an integer
    key, a fractional value are refused rather than truncated.
    """
    if isinstance(value, str):
        for parse in (int, float):
            try:
                value = parse(value)
                break
            except ValueError:
                pass
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise RangeError(f"run.{key}", f"must be a number, got {value!r}")
    if not integer:
        return float(value)
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise RangeError(f"run.{key}", f"must be an integer, got {value!r}")
    return int(value)


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
    for key in _INTEGER_KEYS + _REAL_KEYS:
        if merged[key] is not None:
            merged[key] = _number(key, merged[key], integer=key in _INTEGER_KEYS)
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
        probe_vertices=tuple(_number("probes", p) for p in probes),
        record_stride=stride,
        seed=checked_seed("run.seed", merged["seed"]),
    )

    reps = merged["reps"]
    if reps < 1:
        raise RangeError("run.reps", "need at least one replication")
    par = merged["parallelism"]
    if par < 1:
        raise RangeError("run.parallelism", "need at least one worker")
    j_max = merged["jmax"]
    if not 1 <= j_max <= MAX_J_MAX:
        raise RangeError("run.jmax", f"must be in [1, {MAX_J_MAX}], got {j_max}")
    y_max = merged["ymax"]
    if y_max is not None and not (math.isfinite(y_max) and y_max >= 0):
        raise RangeError("run.ymax", "must be finite and >= 0")
    quad_steps = merged["quad_steps"]
    if quad_steps < MIN_QUAD_STEPS:
        raise RangeError("run.quad_steps", f"need at least {MIN_QUAD_STEPS} steps")
    fit_j_min, fit_j_max = merged["fit_j_min"], merged["fit_j_max"]
    if fit_j_min < 1:
        raise RangeError("run.fit_j_min", "must be >= 1")
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
        replications=reps,
        parallelism=par,
        out_dir=str(merged["out"]),
        j_max=j_max,
        y_max=y_max,
        quad_steps=quad_steps,
        fit_j_min=fit_j_min,
        fit_j_max=fit_j_max,
        profile=profile,
        thresholds=thresholds,
    )

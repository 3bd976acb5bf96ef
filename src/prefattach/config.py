"""Experiment configuration: JSON file + flag overrides -> validated config."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import ParseError, RangeError
from .graph import ModelConfig
from .laws import validate_edge_law
from .verify import validate_thresholds

_PROFILES = ("quick", "full", "theory")

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
    "horizon": 8.0,
    "profile": "full",
    "thresholds": {},
}


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
    horizon: float = 8.0
    profile: str = "full"
    thresholds: dict = field(default_factory=dict)

    def describe(self) -> dict:
        """JSON-ready summary (used in report.json)."""
        return {
            "law": self.model.edge_law.label(),
            "beta": self.model.beta,
            "n": self.model.n,
            "seed": self.model.seed,
            "probes": list(self.model.probe_vertices),
            "stride": self.model.record_stride,
            "reps": self.replications,
            "parallelism": self.parallelism,
            "out": self.out_dir,
            "jmax": self.j_max,
            "profile": self.profile,
            "thresholds": dict(self.thresholds),
        }


def parse_config(
    path: str | None = None, overrides: Mapping[str, Any] | None = None
) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and flag overrides (flags win).

    Raises ParseError for unreadable files or unknown keys, RangeError (with
    a dotted field path) for out-of-range values.
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

    law = validate_edge_law(merged["law"])
    n = int(merged["n"])
    stride = merged["stride"]
    stride = max(1, n // 1000) if stride is None else int(stride)
    probes = merged["probes"]
    if isinstance(probes, str):
        probes = [int(p) for p in probes.split(",") if p.strip()]
    model = ModelConfig(
        beta=float(merged["beta"]),
        edge_law=law,
        n=n,
        probe_vertices=tuple(int(p) for p in probes),
        record_stride=stride,
        seed=int(merged["seed"]),
    )

    reps = int(merged["reps"])
    if reps < 1:
        raise RangeError("run.reps", "need at least one replication")
    par = int(merged["parallelism"])
    if par < 1:
        raise RangeError("run.parallelism", "need at least one worker")
    j_max = int(merged["jmax"])
    if j_max < 1:
        raise RangeError("run.jmax", "must be >= 1")
    profile = str(merged["profile"])
    if profile not in _PROFILES:
        raise RangeError("run.profile", f"must be one of {_PROFILES}")
    horizon = float(merged["horizon"])
    if horizon < 0:
        raise RangeError("run.horizon", "must be >= 0")
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
        y_max=None if merged["ymax"] is None else float(merged["ymax"]),
        quad_steps=int(merged["quad_steps"]),
        fit_j_min=int(merged["fit_j_min"]),
        fit_j_max=int(merged["fit_j_max"]),
        horizon=horizon,
        profile=profile,
        thresholds=thresholds,
    )

"""Spans around prefattach's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``prefattach`` module that holds a reference to it (modules import each other
with ``from .x import f``, so one function can sit in several namespaces), and
each traced ``VerifySession`` method on the class.  ``uninstall`` puts the
originals back.  A span records its name, start, end, parent span, the round
it ran in and a work count (steps, events, replicates) where one applies.
Spans stay in memory until ``write`` dumps them as JSON.

``laws`` and ``streams`` get no spans: they run once per chain step, and a
per-call wrapper there would be most of what it measures.  The same holds for
``graph.attach_step`` and ``graph.choose_vertex``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

LONG_EMBEDDING = 1000  # run_embedding calls with fewer events count as short


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _chain_steps(args, kwargs, out):
    return _arg(args, kwargs, 0, "config").n


def _embedding_events(args, kwargs, out):
    return _arg(args, kwargs, 2, "n")


def _path_events(args, kwargs, out):
    return int(out.times.shape[0])


def _replications(args, kwargs, out):
    return _arg(args, kwargs, 1, "replications")


# span name -> (module, attribute, work count or None).  The span name's first
# dotted part is its layer.
TRACED = {
    "cli.main": ("prefattach.cli", "main", None),
    "graph.run_chain": ("prefattach.graph", "run_chain", _chain_steps),
    "branching.run_embedding": ("prefattach.branching", "run_embedding", _embedding_events),
    "branching.simulate_mbp": ("prefattach.branching", "simulate_mbp", _path_events),
    "branching.simulate_mbpi": ("prefattach.branching", "simulate_mbpi", _path_events),
    "branching.tau_diagnostics": ("prefattach.branching", "tau_diagnostics", None),
    "branching.zeta_trajectory": ("prefattach.branching", "zeta_trajectory", None),
    "theory.pi_recursive": ("prefattach.theory", "pi_recursive", None),
    "theory.pi_quadrature": ("prefattach.theory", "pi_quadrature", None),
    "theory.pi_explicit": ("prefattach.theory", "pi_explicit", None),
    "theory.moment_profile": ("prefattach.theory", "moment_profile", None),
    "analysis.empirical_distribution": ("prefattach.analysis", "empirical_distribution", None),
    "analysis.distribution_distance": ("prefattach.analysis", "distribution_distance", None),
    "analysis.tail_fit": ("prefattach.analysis", "tail_fit", None),
    "analysis.trajectory_limit_check": ("prefattach.analysis", "trajectory_limit_check", None),
    "analysis.max_degree_check": ("prefattach.analysis", "max_degree_check", None),
    "analysis.freeze_detector": ("prefattach.analysis", "freeze_detector", None),
    "analysis.embedding_equivalence_test": (
        "prefattach.analysis", "embedding_equivalence_test", None),
    "analysis.split_half_pvalues": ("prefattach.analysis", "split_half_pvalues", None),
    "analysis.uniformity_ks": ("prefattach.analysis", "uniformity_ks", None),
    "replicate.replicate": ("prefattach.replicate", "replicate", _replications),
    "outputs.write_degree_distribution": (
        "prefattach.outputs", "write_degree_distribution", None),
    "outputs.write_trajectories": ("prefattach.outputs", "write_trajectories", None),
    "outputs.write_max_degree": ("prefattach.outputs", "write_max_degree", None),
    "outputs.write_tau": ("prefattach.outputs", "write_tau", None),
    "outputs.write_pi": ("prefattach.outputs", "write_pi", None),
    "outputs.write_report": ("prefattach.outputs", "write_report", None),
}

VERIFY_METHODS = ("lln_run", "ensemble", "run")

CHECKS = (
    "explicit-spectrum-crosscheck",
    "dual-route-pi",
    "degree-lln",
    "tail-exponent",
    "moment-dichotomy",
    "growth-exponents",
    "index-freezing",
    "embedding-equivalence",
    "event-time-asymptotics",
    "scaled-size-limit",
)

# Self-time groups: metric name -> span names whose self times it sums.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "graph.run_chain_s": ("graph.run_chain",),
    "branching.run_embedding_s": ("branching.run_embedding",),
    "branching.size_paths_s": ("branching.simulate_mbp", "branching.simulate_mbpi"),
    "branching.diagnostics_s": ("branching.tau_diagnostics", "branching.zeta_trajectory"),
    "theory.pi_recursive_s": ("theory.pi_recursive",),
    "theory.pi_explicit_s": ("theory.pi_explicit",),
    "theory.moment_profile_s": ("theory.moment_profile",),
    "analysis.compare_s": (
        "analysis.empirical_distribution",
        "analysis.distribution_distance",
        "analysis.tail_fit",
    ),
    "analysis.plateau_s": (
        "analysis.trajectory_limit_check",
        "analysis.max_degree_check",
        "analysis.freeze_detector",
    ),
    "analysis.chi_square_s": (
        "analysis.embedding_equivalence_test",
        "analysis.split_half_pvalues",
        "analysis.uniformity_ks",
    ),
    "replicate.self_s": ("replicate.replicate",),
    "outputs.write_s": tuple(name for name in TRACED if name.startswith("outputs.")),
}


def check_metric(check: str) -> str:
    return f"verify.check.{check}_s"


# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "setup.import_s": "s",
    **{metric: "s" for metric in SELF_TIME},
    "graph.us_per_step": "us/step",
    "branching.us_per_event": "us/event",
    "branching.us_per_short_embedding": "us/call",
    "branching.ns_per_path_event": "ns/event",
    "theory.pi_quadrature_s": "s",
    "theory.pi_quadrature_first_s": "s",
    "replicate.us_per_replicate": "us/replicate",
    "verify.lln_run_s": "s",
    "verify.ensemble_s": "s",
    "verify.self_s": "s",
    **{check_metric(c): "s" for c in CHECKS if c != "event-time-asymptotics"},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "units", "label")

    def __init__(self, name, parent, round_index):
        self.name, self.parent, self.round = name, parent, round_index
        self.start = self.end = 0.0
        self.units = 0
        self.label = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped prefattach functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.round)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.units = count(args, kwargs, out)
            if name == "graph.run_chain":
                cfg = _arg(args, kwargs, 0, "config")
                span.label = f"{cfg.edge_law.label()},beta={cfg.beta:g}"
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("prefattach") and m]
        for name, (mod_name, attr, count) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        session = sys.modules["prefattach.verify"].VerifySession
        methods = {f"verify.{m}": m for m in VERIFY_METHODS}
        methods.update({f"verify.check.{c}": "check_" + c.replace("-", "_") for c in CHECKS})
        for name, attr in methods.items():
            original = vars(session)[attr]
            self._restore.append((session, attr, original))
            setattr(session, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reading the spans ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def metrics(self, rounds: int, import_s: float) -> dict[str, float]:
        """Per-layer metrics: median over rounds of per-round sums, or pooled rates."""
        own = self.self_times()
        per_round = defaultdict(lambda: [0.0] * rounds)
        units = defaultdict(float)
        quad_seen = False
        for s, t in zip(self.spans, own):
            per_round[s.name][s.round] += t
            if s.name.startswith("verify."):
                per_round["verify.self"][s.round] += t
                if s.name.startswith("verify.check.") or s.name in ("verify.lln_run", "verify.ensemble"):
                    per_round[s.name + "#incl"][s.round] += s.duration
            if s.name == "theory.pi_quadrature":
                key = "theory.pi_quadrature#warm" if quad_seen else "theory.pi_quadrature#first"
                per_round[key][s.round] += t
                quad_seen = True
            if s.name == "branching.run_embedding":
                kind = "long" if s.units >= LONG_EMBEDDING else "short"
                units[f"embed_{kind}_s"] += t
                units[f"embed_{kind}_units"] += s.units
                units["embed_short_calls"] += kind == "short"
            elif s.units:
                units[s.name + "#s"] += t
                units[s.name + "#units"] += s.units

        def med(key):
            return statistics.median(per_round[key]) if key in per_round else 0.0

        def rate(seconds, count, scale):
            return seconds / count * scale if count else 0.0

        out = {"setup.import_s": import_s}
        for metric, names in SELF_TIME.items():
            sums = [sum(per_round[n][r] for n in names if n in per_round) + 0.0 for r in range(rounds)]
            out[metric] = statistics.median(sums)
        paths_s = units["branching.simulate_mbp#s"] + units["branching.simulate_mbpi#s"]
        paths_n = units["branching.simulate_mbp#units"] + units["branching.simulate_mbpi#units"]
        out.update(
            {
                "graph.us_per_step": rate(
                    units["graph.run_chain#s"], units["graph.run_chain#units"], 1e6),
                "branching.us_per_event": rate(
                    units["embed_long_s"], units["embed_long_units"], 1e6),
                "branching.us_per_short_embedding": rate(
                    units["embed_short_s"], units["embed_short_calls"], 1e6),
                "branching.ns_per_path_event": rate(paths_s, paths_n, 1e9),
                "theory.pi_quadrature_s": med("theory.pi_quadrature#warm"),
                "theory.pi_quadrature_first_s": sum(per_round["theory.pi_quadrature#first"])
                if "theory.pi_quadrature#first" in per_round else 0.0,
                "replicate.us_per_replicate": rate(
                    units["replicate.replicate#s"], units["replicate.replicate#units"], 1e6),
                "verify.lln_run_s": med("verify.lln_run#incl"),
                "verify.ensemble_s": med("verify.ensemble#incl"),
                "verify.self_s": med("verify.self"),
            }
        )
        for check in CHECKS:
            if check_metric(check) in PER_LAYER:
                out[check_metric(check)] = med(f"verify.check.{check}#incl")
        return out

    def chain_breakdown(self) -> dict[str, float]:
        """graph.us_per_step for each law x beta label seen."""
        own = self.self_times()
        secs, steps = defaultdict(float), defaultdict(int)
        for s, t in zip(self.spans, own):
            if s.name == "graph.run_chain" and s.units:
                secs[s.label] += t
                steps[s.label] += s.units
        return {k: secs[k] / steps[k] * 1e6 for k in sorted(secs)}

    def write(self, path) -> None:
        """Dump the spans as {"fields": [...], "spans": [[...], ...]}."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": list(Span.__slots__),
                    "spans": [[getattr(s, f) for f in Span.__slots__] for s in self.spans],
                },
                fh,
            )

"""Span tracing of offerbandit's public functions, installed from outside.

The tracer replaces each target function or method with a wrapper that
records one span per call: a name, a start, an end and the span that was
open when the call began. Spans live in flat arrays until the pass ends.

Callers often bind a function at import time (`from .features import
build_context`), so a wrapper is installed under every module global that
holds the original object, not only in the defining module. Methods are
replaced on their class.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from typing import Callable

import numpy as np

# (module, attribute path) of every traced callable. The span name is
# "<module>.<attribute path>".
TARGETS = [
    ("data", "ingest_transactions"),
    ("data", "ingest_offers"),
    ("data", "ingest_impressions"),
    ("data", "ingest_mf_scores"),
    ("features", "build_context"),
    ("features", "build_seasonality_profile"),
    ("features", "MemberStatsIndex.__init__"),
    ("features", "RunningScaler.update"),
    ("features", "RunningScaler.transform"),
    ("harness", "SyntheticWorld.generate_round"),
    ("harness", "run_synthetic"),
    ("harness", "run_replay"),
    ("harness", "write_roundlog"),
    ("harness", "write_metrics_csv"),
    ("harness", "write_summary_json"),
    ("harness", "write_manifest"),
    ("bandit", "ModelStore.predict"),
    ("bandit", "aggregate_offer"),
    ("bandit", "sgd_update"),
    ("bandit", "backfit"),
    ("bandit", "save_checkpoint"),
    ("bandit", "load_checkpoint"),
    ("exploration", "sample_scores"),
    ("interpret", "TrajectoryStore.record"),
    ("interpret", "TrajectoryStore.save"),
    ("interpret", "TrajectoryStore.load"),
    ("interpret", "build_payload"),
    ("mf", "build_count_matrix"),
    ("mf", "als_factorize"),
    ("mf", "member_offer_scores"),
    ("mf", "write_mf_scores"),
    ("cli", "cmd_ingest"),
    ("cli", "cmd_mf"),
    ("cli", "cmd_backfit"),
    ("cli", "cmd_replay"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_explain"),
] + [
    ("baselines", f"{cls}.{method}")
    for cls in ("CambPolicy", "LinUCBPolicy", "ThompsonPolicy", "EpsilonGreedyPolicy", "RandomPolicy")
    for method in ("select", "update")
]


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # Counts read off arguments and results, keyed "<command span>|<key>".
        self.counts: dict[str, float] = {}

    def count(self, key: str, n: float) -> None:
        """Add n to key, under the command whose span is outermost."""
        if self._stack:
            key = f"{self.names[self.name[self._stack[0]]]}|{key}"
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, span: str, fn: Callable, hook: Callable | None) -> Callable:
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "offerbandit") -> None:
        """Wrap every target of the imported package in place."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, attr in TARGETS:
            module = sys.modules[f"{package}.{mod_name}"]
            span = f"{mod_name}.{attr}".replace(".__init__", "")
            hook = HOOKS.get(span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(span, raw.__func__, hook)))
                else:
                    setattr(cls, meth, self._wrap(span, raw, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def __len__(self) -> int:
        return len(self.name)


def save_spans(tracers: list[Tracer], path) -> None:
    """Write every traced pass's spans to one compressed .npz, with the
    arrays names<i>, name<i>, parent<i>, start<i> and end<i> for pass i."""
    arrays = {}
    for i, t in enumerate(tracers):
        arrays |= {
            f"names{i}": np.array(t.names),
            f"name{i}": np.array(t.name, dtype=np.int32),
            f"parent{i}": np.array(t.parent, dtype=np.int32),
            f"start{i}": np.array(t.start),
            f"end{i}": np.array(t.end),
        }
    np.savez_compressed(path, **arrays)


# Hooks run after the span closes, outside its timed interval.

def _count_rows(tracer: Tracer, args, kwargs, result) -> None:
    if isinstance(result, tuple):  # ingest_mf_scores returns (table, issues)
        table, issues = result
        tracer.count("data.ingest.rows", len(table) + len(issues))
    else:
        tracer.count("data.ingest.rows", len(result.records) + len(result.issues))


def _count_candidates(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("select.candidates", len(args[1]))


def _count_replay(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("replay.rounds", result.summary.rounds)
    tracer.count("replay.matched", result.summary.matched_rounds or 0)
    tracer.count("bandit.models_materialized", len(args[1].store))


def _count_synthetic(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("synthetic.rounds", result.summary.rounds)


def _count_scores(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("mf.scores_written", len(args[1]))


def _count_parsed(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("interpret.snapshots_parsed", sum(len(result.series(m, c)) for m, c in result.pairs()))


def _count_used(tracer: Tracer, args, kwargs, result) -> None:
    store, member = args[0], args[1]
    used = sum(len(store.series(member, c)) for c in store.member_categories(member))
    tracer.count("interpret.snapshots_used", used)


HOOKS = {
    "data.ingest_transactions": _count_rows,
    "data.ingest_offers": _count_rows,
    "data.ingest_impressions": _count_rows,
    "data.ingest_mf_scores": _count_rows,
    "harness.run_replay": _count_replay,
    "harness.run_synthetic": _count_synthetic,
    "mf.write_mf_scores": _count_scores,
    "interpret.TrajectoryStore.load": _count_parsed,
    "interpret.build_payload": _count_used,
} | {
    f"baselines.{cls}.select": _count_candidates
    for cls in ("CambPolicy", "LinUCBPolicy", "ThompsonPolicy", "EpsilonGreedyPolicy", "RandomPolicy")
}


POLICY_CLASSES = {
    "camb": "CambPolicy", "linucb": "LinUCBPolicy", "ts": "ThompsonPolicy",
    "egreedy": "EpsilonGreedyPolicy", "random": "RandomPolicy",
}
COMMANDS = ("ingest", "mf", "backfit", "replay", "simulate", "explain")


class SpanTable:
    """Spans of one traced pass as arrays, with self times and the command
    each span ran under."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.array(tracer.name, dtype=np.int32)
        self.parent = np.array(tracer.parent, dtype=np.int32)
        self.dur = np.array(tracer.end) - np.array(tracer.start)
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # A parent always opens before its children, so one forward sweep
        # resolves the outermost (command) span of every span.
        root = self.parent.tolist()
        for i, p in enumerate(root):
            root[i] = i if p < 0 else root[p]
        self.command = np.array([self.names[self.name[r]] for r in root], dtype=object)
        self.counts = tracer.counts

    def mask(self, span: str, command: str | None = None, parent: str | None = None) -> np.ndarray:
        nid = self.names.index(span) if span in self.names else -1
        m = self.name == nid
        if command is not None:
            m &= self.command == f"cli.cmd_{command}"
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            parents = np.where(self.parent >= 0, self.name[np.maximum(self.parent, 0)], -3)
            m &= parents == pid
        return m

    def calls(self, span: str, **kw) -> int:
        return int(self.mask(span, **kw).sum())

    def total_s(self, span: str, **kw) -> float:
        return float(self.dur[self.mask(span, **kw)].sum())

    def mean_us(self, span: str, **kw) -> float:
        d = self.dur[self.mask(span, **kw)]
        return float(d.mean() * 1e6) if d.size else 0.0

    def pct_us(self, span: str, q: float, **kw) -> float:
        d = self.dur[self.mask(span, **kw)]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    def self_s(self, span: str, **kw) -> float:
        return float(self.self_time[self.mask(span, **kw)].sum())

    def count(self, command: str, key: str) -> float:
        return float(self.counts.get(f"cli.cmd_{command}|{key}", 0))


UNITS = {
    ".calls": "count", ".rows": "count", "_written": "count", "materialized": "count", ".spans": "count",
    "_per_round": "count", "per_featurized": "ratio", "per_parsed": "ratio", "matched_per_round": "ratio",
    ".us": "us", "_us_per_round": "us", ".us_p50": "us", ".us_p99": "us", ".s": "s", "_s": "s",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from the longest matching name suffix."""
    return next(UNITS[s] for s in sorted(UNITS, key=len, reverse=True) if metric.endswith(s))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass, named as in BENCHMARK.json."""
    s = SpanTable(tracer)
    ingest = ("data.ingest_transactions", "data.ingest_offers", "data.ingest_impressions", "data.ingest_mf_scores")
    writes = ("harness.write_roundlog", "harness.write_metrics_csv", "harness.write_summary_json", "harness.write_manifest")
    replay_rounds = s.count("replay", "replay.rounds")
    synthetic_rounds = s.count("simulate", "synthetic.rounds")
    trained = s.calls("bandit.sgd_update", command="backfit") + s.calls("bandit.sgd_update", command="replay")
    m = {
        "data.ingest.s": sum(s.total_s(n, command="ingest") for n in ingest),
        "data.ingest.rows": s.count("ingest", "data.ingest.rows"),
        "features.build_context.calls": s.calls("features.build_context"),
        "features.build_context.us": s.mean_us("features.build_context"),
        "features.MemberStatsIndex.s": s.total_s("features.MemberStatsIndex"),
        "features.RunningScaler.update.us": s.mean_us("features.RunningScaler.update"),
        "features.RunningScaler.transform.us": s.mean_us("features.RunningScaler.transform"),
        "features.trained_per_featurized": _ratio(trained, s.calls("features.build_context")),
        "harness.generate_round.us": s.mean_us("harness.SyntheticWorld.generate_round"),
        "harness.run_synthetic.self_us_per_round": _ratio(s.self_s("harness.run_synthetic") * 1e6, synthetic_rounds),
        "harness.run_replay.self_us_per_round": _ratio(s.self_s("harness.run_replay") * 1e6, replay_rounds),
        "harness.candidates_per_round": _ratio(s.count("replay", "select.candidates"), replay_rounds),
        "harness.updates_per_round": _ratio(s.calls("baselines.CambPolicy.update", command="replay"), replay_rounds),
        "harness.replay_matched_per_round": _ratio(s.count("replay", "replay.matched"), replay_rounds),
        "harness.write_outputs.s": sum(s.total_s(n) for n in writes),
        "bandit.ModelStore.predict.calls": s.calls("bandit.ModelStore.predict"),
        "bandit.ModelStore.predict.us": s.mean_us("bandit.ModelStore.predict"),
        "bandit.aggregate_offer.us": s.mean_us("bandit.aggregate_offer"),
        "bandit.sgd_update.calls": s.calls("bandit.sgd_update"),
        "bandit.sgd_update.us": s.mean_us("bandit.sgd_update"),
        "bandit.models_materialized": s.count("replay", "bandit.models_materialized"),
        "bandit.backfit.self_s": s.self_s("bandit.backfit"),
        "bandit.save_checkpoint.s": s.total_s("bandit.save_checkpoint"),
        "bandit.load_checkpoint.s": s.total_s("bandit.load_checkpoint"),
    }
    for policy, cls in POLICY_CLASSES.items():
        select = f"baselines.{cls}.select"
        m[f"baselines.{policy}.select.us_p50"] = s.pct_us(select, 50, command="simulate")
        m[f"baselines.{policy}.select.us_p99"] = s.pct_us(select, 99, command="simulate")
        m[f"baselines.{policy}.update.us"] = s.mean_us(f"baselines.{cls}.update", command="simulate")
    m.update({
        "exploration.sample_scores.us": s.mean_us("exploration.sample_scores"),
        "interpret.TrajectoryStore.record.us": _record_us(s),
        "interpret.TrajectoryStore.save.s": s.total_s("interpret.TrajectoryStore.save"),
        "interpret.TrajectoryStore.load.s": s.total_s("interpret.TrajectoryStore.load"),
        "interpret.build_payload.s": s.total_s("interpret.build_payload"),
        "interpret.snapshots_used_per_parsed": _ratio(
            s.count("explain", "interpret.snapshots_used"), s.count("explain", "interpret.snapshots_parsed")),
        "mf.build_count_matrix.s": s.total_s("mf.build_count_matrix"),
        "mf.als_factorize.s": s.total_s("mf.als_factorize"),
        "mf.member_offer_scores.s": s.total_s("mf.member_offer_scores"),
        "mf.write_mf_scores.s": s.total_s("mf.write_mf_scores"),
        "mf.scores_written": s.count("mf", "mf.scores_written"),
    })
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = s.self_s(f"cli.cmd_{command}")
    m["trace.spans"] = float(len(tracer))
    return {k: float(v) for k, v in m.items()}


def _record_us(s: SpanTable) -> float:
    """Mean record() time while a run records, leaving out the records
    TrajectoryStore.load makes while parsing a file."""
    m = s.mask("interpret.TrajectoryStore.record")
    m &= ~s.mask("interpret.TrajectoryStore.record", parent="interpret.TrajectoryStore.load")
    d = s.dur[m]
    return float(d.mean() * 1e6) if d.size else 0.0

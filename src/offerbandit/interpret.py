"""Weight trajectories, change detection and persona explanations.

Because each (member, category) model is a small linear model over named
features, its weight vector is directly readable. This module records
weight snapshots over time, flags abrupt weight changes, summarizes a
member's models into an explanation payload, and renders that payload into
a natural-language persona, either through a deterministic rule table (the
mock client) or a live chat-completion endpoint.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import asdict, dataclass
from http.client import HTTPException
from itertools import chain
from pathlib import Path
from typing import Sequence
from urllib.request import Request, urlopen

import numpy as np

from .data import read_state_file, write_state_file
from .errors import ConfigError, bounded, check_fields
from .features import FEATURE_NAMES, FEATURE_ORDER_VERSION, N_FEATURES


@dataclass(frozen=True)
class WeightSnapshot:
    """One model state observation, its fields one line of a trajectory
    file. t is a run-wide monotone update ordinal."""

    t: int
    member_id: str
    category_id: str
    weights: tuple[float, ...]
    update_count: int


class TrajectoryStore:
    """Append-only weight history per (member, category) pair, as columns.

    Snapshot i is pair code pair[i]'s weights[i] after update_count[i]
    updates, at t[i]; codes number the pairs in order of first record.
    Snapshots must arrive with strictly increasing t per pair. thin_every
    keeps one snapshot out of every n offered per pair. series() builds a
    pair's WeightSnapshots when asked, from an index of snapshots by pair
    that is built once after the last record.
    """

    def __init__(self, thin_every: int = 1):
        if thin_every < 1:
            raise ConfigError(f"thin_every must be >= 1, got {thin_every}")
        self.thin_every = thin_every
        self._codes: dict[tuple[str, str], int] = {}
        # Per pair code: snapshots offered, and the t of the last one kept.
        self._offered: list[int] = []
        self._last_t: list[int] = []
        # Per snapshot.
        self._t: list[int] = []
        self._pair: list[int] = []
        self._update_count: list[int] = []
        self._weights: list[list[float]] = []
        self._by_pair: tuple[np.ndarray, np.ndarray] | None = None

    def record(self, member_id: str, category_id: str, weights: np.ndarray, update_count: int, t: int) -> None:
        """Offer one snapshot of the pair's float weight array."""
        key = (member_id, category_id)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._offered)
            self._offered.append(0)
            self._last_t.append(t)
        elif t <= self._last_t[code]:
            raise ValueError(f"snapshot t={t} does not advance past t={self._last_t[code]} for {key}")
        offered = self._offered[code]
        self._offered[code] = offered + 1
        if offered % self.thin_every:
            return
        self._last_t[code] = t
        self._t.append(t)
        self._pair.append(code)
        self._update_count.append(update_count)
        self._weights.append(weights.tolist())
        self._by_pair = None

    @classmethod
    def from_columns(cls, member_ids: Sequence[str], category_ids: Sequence[str], weights: list[list[float]],
                     update_counts: list[int], t: list[int], thin_every: int = 1) -> "TrajectoryStore":
        """The store that record() of every snapshot i, in order, leaves in
        a new store, its columns taken as they are when none is thinned
        out: weights is a list of float lists, update_counts and t lists
        of ints. t must rise within each pair, which is not checked."""
        store = cls(thin_every)
        codes = store._codes
        pair = [codes.setdefault(key, len(codes)) for key in zip(member_ids, category_ids)]
        store._pair, store._weights, store._update_count, store._t = pair, weights, update_counts, t
        order, starts = store._index()
        store._offered = np.diff(starts).tolist()
        if thin_every > 1:
            # Each snapshot's place among those offered for its pair.
            place = np.empty(len(pair), dtype=np.intp)
            place[order] = np.arange(len(pair)) - np.repeat(starts[:-1], store._offered)
            keep = np.flatnonzero(place % thin_every == 0).tolist()
            columns = (pair, weights, update_counts, t)
            store._pair, store._weights, store._update_count, store._t = ([c[i] for i in keep] for c in columns)
            store._by_pair = None
            order, starts = store._index()
        store._last_t = np.array(store._t, dtype=np.int64)[order][starts[1:] - 1].tolist()
        return store

    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """Snapshot indices grouped by pair code, each group in record
        order, and the start of each code's group (and the end of the
        last)."""
        if self._by_pair is None:
            pair = np.array(self._pair, dtype=np.intp)
            starts = np.zeros(len(self._codes) + 1, dtype=np.intp)
            np.cumsum(np.bincount(pair, minlength=len(self._codes)), out=starts[1:])
            self._by_pair = (np.argsort(pair, kind="stable"), starts)
        return self._by_pair

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._codes)

    def series(self, member_id: str, category_id: str) -> list[WeightSnapshot]:
        code = self._codes.get((member_id, category_id))
        if code is None:
            return []
        order, starts = self._index()
        t, update_count, weights = self._t, self._update_count, self._weights
        return [
            WeightSnapshot(t[i], member_id, category_id, tuple(weights[i]), update_count[i])
            for i in order[starts[code]:starts[code + 1]].tolist()
        ]

    def member_categories(self, member_id: str) -> list[str]:
        return sorted(c for (m, c) in self._codes if m == member_id)

    def save(self, path: str | Path) -> None:
        """JSONL: a feature-order header line, then snapshots in t order,
        ties by member_id then category_id. Raises ValueError, naming the
        pair, when a weight is not finite, which load would reject."""
        keys = list(self._codes)
        if not all(map(math.isfinite, chain.from_iterable(self._weights))):
            bad = next(i for i, w in enumerate(self._weights) if not all(map(math.isfinite, w)))
            raise ValueError(f"snapshot t={self._t[bad]} of {keys[self._pair[bad]]} has weights that are not finite")
        header = {"feature_names": list(FEATURE_NAMES), "feature_order_version": FEATURE_ORDER_VERSION}
        t, pair = self._t, self._pair
        columns = (pair, self._update_count, self._weights, t)
        if not all(map(operator.lt, t, t[1:])):  # t is a run's update ordinal, so this is rare
            rows = sorted(range(len(t)), key=lambda i: (t[i], keys[pair[i]]))
            columns = tuple([column[i] for i in rows] for column in columns)
        write_state_file(path, header, keys, *columns)

    @classmethod
    def load(cls, path: str | Path) -> "TrajectoryStore":
        """Read a file written by save(), its snapshots checked and stored
        as whole columns. Raises ConfigError naming the file and the first
        faulty line when the feature order version differs, a line is
        malformed, a weight vector is not N_FEATURES finite numbers
        (booleans are not numbers), a member_id or category_id is not a
        non-empty string, update_count or t is not a non-negative JSON
        integer, or t does not advance past the pair's previous line."""

        def stale_t(members: list, categories: list, weights: list, counts: list, ts: list) -> tuple[int, str] | None:
            if all(map(operator.lt, ts, ts[1:])):  # t rises line by line, so within every pair
                return None
            last: dict[tuple[str, str], int] = {}
            for row, (key, t) in enumerate(zip(zip(members, categories), ts)):
                if t <= last.get(key, -1):
                    return row, f"snapshot t={t} does not advance past t={last[key]} for {key}"
                last[key] = t

        fields = ("member_id", "category_id", "weights", "update_count", "t")
        return read_state_file(path, "trajectory", FEATURE_ORDER_VERSION, N_FEATURES, fields, stale_t, cls.from_columns)[1]


@dataclass
class DetectionConfig:
    """Thresholds for abrupt weight-change detection.

    A feature fires when its move over the last `window` snapshots exceeds
    both min_abs_change and z_threshold running standard deviations of its
    per-step deltas; after firing it is silenced for `window` snapshots.
    """

    window: int = bounded(20, lo=1)
    z_threshold: float = bounded(4.0, lo=0, open=True)
    min_abs_change: float = bounded(0.05, lo=0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class ChangeEvent:
    """One detected weight shift: which feature moved, where, how hard."""

    member_id: str
    category_id: str
    feature: str
    t: int
    delta: float
    z: float
    direction: str  # "up" or "down"


def detect_changes(snapshots: Sequence[WeightSnapshot], cfg: DetectionConfig) -> list[ChangeEvent]:
    """Scan one pair's trajectory for abrupt weight changes.

    The per-feature test statistic at snapshot i is
    |w_j(i) - w_j(i - window)|, compared against
    max(min_abs_change, z_threshold * sigma_j) where sigma_j is the running
    sample std of w_j's per-step deltas seen so far. At most one event per
    feature per window. Trajectories shorter than window + 1 produce no
    events.
    """
    n = len(snapshots)
    if n <= cfg.window:
        return []
    weights = np.array([s.weights for s in snapshots], dtype=float)
    n_features = weights.shape[1]
    names = FEATURE_NAMES if n_features == N_FEATURES else tuple(f"f{j}" for j in range(n_features))
    events: list[ChangeEvent] = []
    # Running Welford moments over per-step deltas, per feature.
    count = 0
    mean = np.zeros(n_features)
    m2 = np.zeros(n_features)
    last_fire = np.full(n_features, -(10**9))
    for i in range(1, n):
        step = weights[i] - weights[i - 1]
        count += 1
        d = step - mean
        mean += d / count
        m2 += d * (step - mean)
        if i < cfg.window:
            continue
        sigma = np.sqrt(m2 / (count - 1)) if count > 1 else np.zeros(n_features)
        move = weights[i] - weights[i - cfg.window]
        threshold = np.maximum(cfg.min_abs_change, cfg.z_threshold * sigma)
        for j in range(n_features):
            if i - last_fire[j] < cfg.window:
                continue
            if abs(move[j]) > threshold[j]:
                z = abs(move[j]) / max(sigma[j], 1e-12)
                events.append(
                    ChangeEvent(
                        member_id=snapshots[i].member_id,
                        category_id=snapshots[i].category_id,
                        feature=names[j],
                        t=snapshots[i].t,
                        delta=float(move[j]),
                        z=float(z),
                        direction="up" if move[j] > 0 else "down",
                    )
                )
                last_fire[j] = i
    return events


@dataclass
class CategoryWeightSummary:
    """Current weights and recent movement for one of a member's models."""

    category_id: str
    weights: dict[str, float]
    update_count: int
    top_features: list[tuple[str, float]]
    slopes: dict[str, float]


@dataclass
class ExplanationPayload:
    """Everything the persona generator may condition on for one member."""

    member_id: str
    feature_names: tuple[str, ...]
    categories: list[CategoryWeightSummary]
    events: list[ChangeEvent]
    as_of: int | None = None


def trend_slopes(snapshots: Sequence[WeightSnapshot], window: int) -> dict[str, float]:
    """Least-squares slope of each weight against t over the trailing window.

    Zero for trajectories with fewer than two snapshots.
    """
    tail = list(snapshots)[-window:]
    names = FEATURE_NAMES
    if len(tail) < 2:
        return {name: 0.0 for name in names}
    ts = np.array([s.t for s in tail], dtype=float)
    ws = np.array([s.weights for s in tail], dtype=float)
    ts_c = ts - ts.mean()
    denom = float(ts_c @ ts_c)
    slopes = (ts_c @ (ws - ws.mean(axis=0))) / denom
    return {name: float(slopes[j]) for j, name in enumerate(names)}


# A payload's slopes span the trailing TREND_WINDOW snapshots; it keeps
# the TOP_K largest non-bias weights per category and the last MAX_EVENTS
# change events.
TREND_WINDOW = 50
TOP_K = 3
MAX_EVENTS = 10


def build_payload(
    trajectories: TrajectoryStore,
    member_id: str,
    as_of: int | None = None,
    detection: DetectionConfig | None = None,
) -> ExplanationPayload:
    """Summarize a member's weight trajectories for explanation.

    Pure read: calling this twice yields equal payloads and leaves the
    trajectory store untouched. Raises ValueError for unknown members.
    top_features ranks non-bias weights by magnitude.
    """
    detection = detection or DetectionConfig()
    categories = trajectories.member_categories(member_id)
    if not categories:
        raise ValueError(f"unknown member {member_id!r}: no recorded trajectories")
    summaries: list[CategoryWeightSummary] = []
    events: list[ChangeEvent] = []
    for category in categories:
        series = trajectories.series(member_id, category)
        if as_of is not None:
            series = [s for s in series if s.t <= as_of]
        if not series:
            continue
        latest = series[-1]
        weights = {name: float(w) for name, w in zip(FEATURE_NAMES, latest.weights)}
        behavioral = [(name, w) for name, w in weights.items() if name != "bias"]
        top = sorted(behavioral, key=lambda nw: (-abs(nw[1]), nw[0]))[:TOP_K]
        summaries.append(
            CategoryWeightSummary(
                category_id=category,
                weights=weights,
                update_count=latest.update_count,
                top_features=top,
                slopes=trend_slopes(series, TREND_WINDOW),
            )
        )
        events.extend(detect_changes(series, detection))
    if not summaries:
        raise ValueError(f"no snapshots for member {member_id!r} at or before t={as_of}")
    events.sort(key=lambda e: (e.t, e.category_id, e.feature))
    return ExplanationPayload(
        member_id=member_id,
        feature_names=FEATURE_NAMES,
        categories=summaries,
        events=events[-MAX_EVENTS:],
        as_of=as_of,
    )


PROMPT_TEMPLATE_PATH = Path(__file__).parent / "prompts" / "persona_v1.txt"


def render_prompt(payload: ExplanationPayload) -> str:
    """Fill the versioned prompt template with the payload JSON; events
    leave out the member id, which the payload names once."""
    fields = asdict(payload)
    for event in fields["events"]:
        del event["member_id"]
    template = PROMPT_TEMPLATE_PATH.read_text(encoding="utf-8")
    return template.replace("{payload_json}", json.dumps(fields, sort_keys=True, indent=2))


# Rule thresholds for the mock persona. A weight counts as "strong" when its
# member-level mean magnitude clears WEIGHT_THRESHOLD; a trend counts as
# rising/falling past SLOPE_THRESHOLD on the mean slope.
WEIGHT_THRESHOLD = 0.1
SLOPE_THRESHOLD = 1e-3


class MockLLMClient:
    """Deterministic rule-table persona renderer; needs no network.

    Rules key on the sign, magnitude rank and trend of each member-level
    mean weight. Total: every payload yields a non-empty persona.
    """

    def generate(self, payload: ExplanationPayload) -> str:
        means, slopes = _member_means(payload)
        ranked = sorted(
            (n for n in payload.feature_names if n != "bias"),
            key=lambda n: (-abs(means[n]), n),
        )
        rank_of = {n: i + 1 for i, n in enumerate(ranked)}
        lines = [f"Persona for member {payload.member_id}:"]

        w, s = means["mpg"], slopes["mpg"]
        if w > WEIGHT_THRESHOLD and s >= 0:
            lines.append(
                "A replenishment-driven shopper: clips offers when a long gap has "
                "passed since the last category purchase."
                + (" This pull is still strengthening." if s > SLOPE_THRESHOLD else "")
            )
        elif w < -WEIGHT_THRESHOLD:
            lines.append("Buys on routine rather than depletion; purchase gaps do not trigger clips.")

        w = means["brand_loyalty"]
        if w > WEIGHT_THRESHOLD and rank_of["brand_loyalty"] <= 3:
            lines.append("A strongly brand-loyal member: prefers offers on brands already purchased.")
        elif w > WEIGHT_THRESHOLD:
            lines.append("Mildly brand-loyal, though other signals matter more.")
        elif w < -WEIGHT_THRESHOLD:
            lines.append("Brand-agnostic: switches brands readily when an offer appears.")

        w = means["seasonality"]
        if w < -0.02:
            lines.append("A non-seasonal member: clips do not follow the category's seasonal peaks.")
        elif w > WEIGHT_THRESHOLD:
            lines.append("A seasonal shopper: engagement rises with the category's peak weeks.")

        w = means["value"]
        if w > WEIGHT_THRESHOLD:
            lines.append("Discount-driven: deeper discounts noticeably raise clip odds.")
        elif w < -WEIGHT_THRESHOLD:
            lines.append("Indifferent to discount depth.")

        w, s = means["num_items"], slopes["num_items"]
        if s > SLOPE_THRESHOLD:
            lines.append("Increasingly drawn to offers covering more items.")
        elif w > WEIGHT_THRESHOLD:
            lines.append("Prefers offers covering more items.")

        w = means["recency"]
        if w > WEIGHT_THRESHOLD:
            lines.append("Acts late in an offer's window.")
        elif w < -WEIGHT_THRESHOLD:
            lines.append("Acts early in an offer's window.")

        w = means["mf_score"]
        if w > WEIGHT_THRESHOLD:
            lines.append("Choices track collaborative-filtering affinity.")

        if payload.events:
            recent = payload.events[-1]
            lines.append(
                f"Recent shift: {recent.feature} weight moved {recent.direction} "
                f"in category {recent.category_id}."
            )
        lines.append("Top drivers: " + ", ".join(ranked[:3]) + ".")
        return "\n".join(lines)


def _member_means(payload: ExplanationPayload) -> tuple[dict[str, float], dict[str, float]]:
    means = {}
    slopes = {}
    for name in payload.feature_names:
        means[name] = float(np.mean([c.weights[name] for c in payload.categories]))
        slopes[name] = float(np.mean([c.slopes[name] for c in payload.categories]))
    return means, slopes


class LLMTransportError(RuntimeError):
    """HTTP transport failure; carries the payload so the call can be retried."""

    def __init__(self, message: str, payload: ExplanationPayload):
        super().__init__(message)
        self.payload = payload


class HttpLLMClient:
    """Chat-completion client for any endpoint speaking the common shape.

    POSTs {model, messages} to {base}/chat/completions and reads
    choices[0].message.content, which must be a non-empty string.
    Configured by arguments or the environment variables LLM_API_BASE,
    LLM_API_KEY and LLM_MODEL. One retry on a transport failure or a
    malformed reply, then LLMTransportError.
    """

    def __init__(
        self,
        api_base: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        timeout: float = 30.0,
    ):
        self.api_base = (api_base or os.environ.get("LLM_API_BASE", "")).rstrip("/")
        self.api_key = api_key or os.environ.get("LLM_API_KEY", "")
        self.model = model or os.environ.get("LLM_MODEL", "")
        self.timeout = timeout
        if not self.api_base or not self.model:
            raise ConfigError(
                "live explanation client needs LLM_API_BASE and LLM_MODEL "
                "(and usually LLM_API_KEY) set in the environment"
            )

    def generate(self, payload: ExplanationPayload) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": render_prompt(payload)}],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = Request(
            f"{self.api_base}/chat/completions",
            data=json.dumps(body).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        last_error: Exception | None = None
        for _ in range(2):  # one retry
            try:
                # urlopen raises HTTPError (an OSError) on a non-2xx status.
                with urlopen(request, timeout=self.timeout) as resp:
                    content = json.loads(resp.read())["choices"][0]["message"]["content"]
                if isinstance(content, str) and content:
                    return content
                raise ValueError(f"reply content {content!r} is not a non-empty string")
            except (OSError, HTTPException, KeyError, IndexError, TypeError, ValueError) as exc:
                last_error = exc
        raise LLMTransportError(f"explanation request failed: {last_error}", payload)

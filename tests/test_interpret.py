import http.server
import json
import threading
import urllib.error

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import offerbandit.interpret as interpret_module
from offerbandit.errors import ConfigError
from offerbandit.features import FEATURE_NAMES, FEATURE_ORDER_VERSION
from offerbandit.interpret import (
    CategoryWeightSummary,
    ChangeEvent,
    DetectionConfig,
    ExplanationPayload,
    HttpLLMClient,
    LLMTransportError,
    MockLLMClient,
    TrajectoryStore,
    WeightSnapshot,
    build_payload,
    detect_changes,
    render_prompt,
    trend_slopes,
)


def snaps_from_matrix(weights, member="m0", category="c0", t0=1):
    return [
        WeightSnapshot(t0 + i, member, category, tuple(float(v) for v in row), t0 + i)
        for i, row in enumerate(weights)
    ]


def step_trajectory(seed, sigma=0.008, step=0.15, at=50, n=100, feat=1):
    """One noisy feature with an abrupt level shift at snapshot index `at`."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, 9))
    rows[:, feat] = rng.normal(0.0, sigma, size=n)
    rows[at:, feat] += step
    return snaps_from_matrix(rows)


class TestTrajectoryStore:
    def test_record_and_series_round_trip(self):
        store = TrajectoryStore()
        w1, w2 = np.arange(9.0), np.arange(9.0) * 2
        store.record("m1", "cA", w1, 1, 5)
        store.record("m1", "cA", w2, 2, 9)
        store.record("m1", "cB", w1, 1, 6)
        assert store.pairs() == [("m1", "cA"), ("m1", "cB")]
        series = store.series("m1", "cA")
        assert [s.t for s in series] == [5, 9]
        assert series[1].weights == tuple(w2)
        assert series[1].update_count == 2
        assert store.member_categories("m1") == ["cA", "cB"]
        assert store.series("mX", "cA") == []

    def test_non_advancing_ordinal_rejected(self):
        store = TrajectoryStore()
        store.record("m", "c", np.zeros(9), 1, 10)
        with pytest.raises(ValueError, match="advance"):
            store.record("m", "c", np.zeros(9), 2, 10)
        with pytest.raises(ValueError, match="advance"):
            store.record("m", "c", np.zeros(9), 2, 3)

    def test_thinning_keeps_every_nth_offered(self):
        store = TrajectoryStore(thin_every=10)
        for t in range(1, 101):
            store.record("m", "c", np.full(9, float(t)), t, t)
        kept = [s.t for s in store.series("m", "c")]
        assert kept == [1, 11, 21, 31, 41, 51, 61, 71, 81, 91]

    @pytest.mark.parametrize("thin_every", [1, 3])
    def test_from_columns_is_record_of_every_snapshot(self, tmp_path, thin_every):
        rng = np.random.default_rng(thin_every)
        keys = [("m1", "cA"), ("m2", "cA"), ("m1", "cB"), ("m3", "cC")]
        block = [keys[i] for i in rng.integers(len(keys), size=40)]
        W = rng.normal(size=(40, 9))
        counts = rng.integers(1, 50, size=40).tolist()
        t = list(range(1, 41))
        per_record = TrajectoryStore(thin_every)
        for (m, c), w, n, at in zip(block, W, counts, t):
            per_record.record(m, c, w, n, at)
        columns = TrajectoryStore.from_columns(
            [m for m, _ in block], [c for _, c in block], W.tolist(), counts, t, thin_every
        )
        stores = per_record, columns

        def saved():
            for name, store in zip("ab", stores):
                store.save(tmp_path / f"{name}.jsonl")
            return [(tmp_path / f"{name}.jsonl").read_bytes() for name in "ab"]

        a, b = saved()
        assert a == b
        assert per_record._offered == columns._offered and per_record._last_t == columns._last_t
        # A later record continues as it would have: a t that does not
        # advance is refused alike, and the next snapshots are thinned alike.
        for i, (m, c) in enumerate(keys):
            errors = []
            for store in stores:
                with pytest.raises(ValueError) as stale:
                    store.record(m, c, W[i], 1, 1)
                errors.append(str(stale.value))
                store.record(m, c, W[i], 1, 41 + i)
            assert errors[0] == errors[1]
        a, b = saved()
        assert a == b

    def test_thinning_validates_config(self):
        with pytest.raises(ConfigError):
            TrajectoryStore(thin_every=0)

    def test_save_then_load_round_trips(self, tmp_path):
        store = TrajectoryStore()
        rng = np.random.default_rng(2)
        # Ids with quotes, escapes and non-ASCII characters, one of them
        # both a member and a category id.
        pairs = [("m1", "cA"), ('m "2"', "cB\\"), ("m\u00e9\u4e2d", 'm "2"'), ("m1", "cat\u00e9gorie\n")]
        for t in range(1, 8):
            for i, (member, category) in enumerate(pairs):
                store.record(member, category, rng.normal(size=9), t, 4 * t + i)
        path, again = tmp_path / "traj.jsonl", tmp_path / "again.jsonl"
        store.save(path)
        loaded = TrajectoryStore.load(path)
        assert loaded.pairs() == store.pairs() == sorted(pairs)
        for pair in store.pairs():
            assert loaded.series(*pair) == store.series(*pair)
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_a_loaded_store_refuses_a_stale_t_as_the_saved_one_does(self, tmp_path):
        store = TrajectoryStore()
        for t, (m, c) in enumerate([("m1", "cA"), ("m2", "cA"), ("m1", "cA"), ("m1", "cB")], start=1):
            store.record(m, c, np.full(9, float(t)), t, t)
        store.save(tmp_path / "traj.jsonl")
        errors = []
        for s in (store, TrajectoryStore.load(tmp_path / "traj.jsonl")):
            with pytest.raises(ValueError, match="does not advance") as stale:
                s.record("m1", "cA", np.zeros(9), 5, 3)
            errors.append(str(stale.value))
        assert errors[0] == errors[1]

    def test_save_writes_feature_order_header(self, tmp_path):
        store = TrajectoryStore()
        store.record("m", "c", np.zeros(9), 1, 1)
        path = tmp_path / "traj.jsonl"
        store.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["feature_names"] == list(FEATURE_NAMES)
        assert header["feature_order_version"] == FEATURE_ORDER_VERSION
        assert len(lines) == 2

    def test_save_writes_each_snapshot_as_json_dumps_with_sorted_keys(self, tmp_path):
        store = TrajectoryStore()
        store.record("m0", "c", np.arange(9.0), 1, 1)
        store.record("m0", "b", np.ones(9), 7, 2)
        weights = [0.1, -0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, -2.5, 1 / 3, 0.0]
        store.record('m "1"', "c\u00e9\n", np.array(weights), 3, 2)
        path = tmp_path / "traj.jsonl"
        store.save(path)
        # Rows in (t, member_id, category_id) order.
        rows = [store.series("m0", "c")[0], store.series('m "1"', "c\u00e9\n")[0], store.series("m0", "b")[0]]
        header = {"feature_names": list(FEATURE_NAMES), "feature_order_version": FEATURE_ORDER_VERSION}
        expected = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in [header, *map(vars, rows)])
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_save_refuses_weights_load_would_reject(self, tmp_path, bad):
        store = TrajectoryStore()
        store.record("m", "c", np.zeros(9), 1, 1)
        store.record("m", "c2", np.full(9, bad), 1, 2)
        path = tmp_path / "traj.jsonl"
        with pytest.raises(ValueError, match=r"\('m', 'c2'\) has weights that are not finite"):
            store.save(path)
        assert not path.exists()

    def test_load_rejects_other_feature_order_versions(self, tmp_path):
        store = TrajectoryStore()
        store.record("m", "c", np.zeros(9), 1, 1)
        path = tmp_path / "traj.jsonl"
        store.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["feature_order_version"] = FEATURE_ORDER_VERSION + 1
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            TrajectoryStore.load(path)

    @pytest.mark.parametrize(
        "weights",
        [[0.1, 0.2, 0.3], [float("nan")] * 9, [0.0] * 8 + [float("-inf")], "0.5", [0.0] * 8 + [True]],
        ids=["short", "nan", "inf", "not-a-list", "bool"],
    )
    def test_load_rejects_bad_weight_vectors_with_file_and_line(self, tmp_path, weights):
        store = TrajectoryStore()
        store.record("m", "c", np.zeros(9), 1, 1)
        store.record("m", "c", np.ones(9), 2, 2)
        path = tmp_path / "traj.jsonl"
        store.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        row["weights"] = weights
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="traj.jsonl line 3:"):
            TrajectoryStore.load(path)


    @pytest.mark.parametrize("field", ["update_count", "t"])
    @pytest.mark.parametrize("value", [2.7, -5, "3", True], ids=["fraction", "negative", "string", "bool"])
    def test_load_rejects_counts_that_are_not_nonnegative_integers(self, tmp_path, field, value):
        store = TrajectoryStore()
        store.record("m", "c", np.zeros(9), 1, 1)
        store.record("m", "c", np.ones(9), 2, 2)
        path = tmp_path / "traj.jsonl"
        store.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        row[field] = value
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"traj.jsonl line 3: {field} must be a non-negative integer"):
            TrajectoryStore.load(path)


    @pytest.mark.parametrize("field", ["member_id", "category_id"])
    @pytest.mark.parametrize("value", [7, None, "", ["m"]], ids=["number", "null", "empty", "list"])
    def test_load_rejects_ids_that_are_not_nonempty_strings(self, tmp_path, field, value):
        # A number id would load beside its string twin ("7" and 7) as
        # another member, whose pairs no longer sort.
        store = TrajectoryStore()
        store.record("7", "c", np.zeros(9), 1, 1)
        store.record("7", "c", np.ones(9), 2, 2)
        path = tmp_path / "traj.jsonl"
        store.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        row[field] = value
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"traj.jsonl line 3: {field} must be a non-empty string"):
            TrajectoryStore.load(path)

    @pytest.mark.parametrize("damage", [
        lambda line: line[:20] + b"\xff" + line[20:],
        lambda line: b"[" * 100_000,
    ], ids=["undecodable", "too-deep"])
    def test_load_rejects_damaged_line_with_its_true_line_number(self, tmp_path, damage):
        # Far enough into the file that a chunked text decoder would read
        # the damaged bytes ahead of the line being parsed.
        store = TrajectoryStore()
        for t in range(1, 400):
            store.record("m", "c", np.zeros(9), t, t)
        path = tmp_path / "traj.jsonl"
        store.save(path)
        lines = path.read_bytes().split(b"\n")
        lines[299] = damage(lines[299])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConfigError, match=f"{path.name} line 300:"):
            TrajectoryStore.load(path)


class TestDetectChanges:
    def test_abrupt_step_fires_exactly_once(self):
        cfg = DetectionConfig()
        for seed in (0, 1, 2, 3, 4):
            events = detect_changes(step_trajectory(seed), cfg)
            assert len(events) == 1
            event = events[0]
            assert event.feature == FEATURE_NAMES[1]
            # t is 1-based here; the step lands at index 50 and must be
            # caught within one window of it.
            assert 50 <= event.t - 1 < 70
            assert event.direction == "up"
            assert event.delta == pytest.approx(0.15, abs=0.05)
            assert event.z >= cfg.z_threshold

    def test_downward_step_reports_down(self):
        events = detect_changes(step_trajectory(7, step=-0.2), DetectionConfig())
        assert len(events) == 1
        assert events[0].direction == "down"
        assert events[0].delta < 0

    def test_pure_noise_stays_silent(self):
        cfg = DetectionConfig(window=20, z_threshold=6.0, min_abs_change=0.05)
        for seed in (10, 11, 12, 13, 14):
            rng = np.random.default_rng(seed)
            snaps = snaps_from_matrix(rng.normal(0.0, 0.002, size=(100, 9)))
            assert detect_changes(snaps, cfg) == []

    def test_short_trajectories_produce_no_events(self):
        cfg = DetectionConfig(window=20)
        snaps = step_trajectory(0)[:20]
        assert detect_changes(snaps, cfg) == []
        assert detect_changes([], cfg) == []

    def test_scale_equivariance(self):
        # Scaling the weights and the absolute floor together must not
        # change which snapshots fire; the z part is scale-free.
        base = step_trajectory(3)
        fired = [e.t for e in detect_changes(base, DetectionConfig())]
        for c in (0.5, 3.0):
            scaled = [
                WeightSnapshot(s.t, s.member_id, s.category_id,
                               tuple(c * w for w in s.weights), s.update_count)
                for s in base
            ]
            cfg = DetectionConfig(min_abs_change=0.05 * c)
            assert [e.t for e in detect_changes(scaled, cfg)] == fired

    def test_event_carries_identity_fields(self):
        events = detect_changes(step_trajectory(5), DetectionConfig())
        assert events[0].member_id == "m0"
        assert events[0].category_id == "c0"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DetectionConfig(window=0)
        with pytest.raises(ConfigError):
            DetectionConfig(z_threshold=0.0)
        with pytest.raises(ConfigError):
            DetectionConfig(min_abs_change=-0.1)


class TestTrendSlopes:
    def test_linear_ramp_recovers_slope(self):
        rows = np.zeros((100, 9))
        rows[:, 2] = 0.01 * np.arange(100)
        slopes = trend_slopes(snaps_from_matrix(rows), window=50)
        assert slopes[FEATURE_NAMES[2]] == pytest.approx(0.01, abs=1e-9)
        assert slopes["bias"] == pytest.approx(0.0, abs=1e-12)

    def test_trailing_window_ignores_older_history(self):
        # Flat for 80 snapshots, then a 0.02/step climb; the window sees
        # only the climb.
        rows = np.zeros((100, 9))
        rows[80:, 4] = 0.02 * np.arange(20)
        slopes = trend_slopes(snaps_from_matrix(rows), window=20)
        assert slopes[FEATURE_NAMES[4]] == pytest.approx(0.02, abs=1e-9)

    def test_fewer_than_two_snapshots_gives_zeros(self):
        assert trend_slopes([], window=50) == {n: 0.0 for n in FEATURE_NAMES}
        one = snaps_from_matrix(np.ones((1, 9)))
        assert trend_slopes(one, window=50) == {n: 0.0 for n in FEATURE_NAMES}


def ramped_store():
    """Two categories for m1; cA's brand_loyalty climbs, cB stays flat."""
    store = TrajectoryStore()
    for i in range(60):
        wa = np.zeros(9)
        wa[2] = 0.01 * i  # brand_loyalty climbing to 0.59
        wa[3] = -0.2  # seasonality stays negative
        store.record("m1", "cA", wa, i + 1, 2 * i + 1)
        wb = np.zeros(9)
        wb[1] = 0.3
        store.record("m1", "cB", wb, i + 1, 2 * i + 2)
    return store


class TestBuildPayload:
    def test_is_a_pure_read(self):
        store = ramped_store()
        before = {pair: store.series(*pair) for pair in store.pairs()}
        a = build_payload(store, "m1")
        b = build_payload(store, "m1")
        assert a == b
        assert {pair: store.series(*pair) for pair in store.pairs()} == before

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError, match="unknown member"):
            build_payload(ramped_store(), "nobody")

    def test_top_features_rank_by_magnitude_without_bias(self):
        store = TrajectoryStore()
        w = np.zeros(9)
        w[0] = 9.0  # bias must not appear
        w[2] = 0.5
        w[3] = -0.8
        w[5] = 0.3
        store.record("m1", "cA", w, 1, 1)
        payload = build_payload(store, "m1")
        top = payload.categories[0].top_features
        assert [name for name, _ in top] == ["seasonality", "brand_loyalty", "duration"]
        assert top[0][1] == pytest.approx(-0.8)

    def test_as_of_filters_snapshots(self):
        store = ramped_store()
        payload = build_payload(store, "m1", as_of=21)
        ca = next(c for c in payload.categories if c.category_id == "cA")
        # Snapshot t=21 is cA's 11th record, weights 0.01 * 10.
        assert ca.weights["brand_loyalty"] == pytest.approx(0.10)
        assert ca.update_count == 11
        assert payload.as_of == 21

    def test_as_of_before_first_snapshot_rejected(self):
        with pytest.raises(ValueError, match="no snapshots"):
            build_payload(ramped_store(), "m1", as_of=0)

    def test_events_sorted_and_capped(self):
        store = TrajectoryStore()
        rng = np.random.default_rng(0)
        rows = np.zeros((100, 9))
        rows[:, 1] = rng.normal(0.0, 0.008, size=100)
        rows[50:, 1] += 0.2
        rows[:, 2] = rng.normal(0.0, 0.008, size=100)
        rows[50:, 2] -= 0.2
        for i, row in enumerate(rows):
            store.record("m1", "cA", row, i + 1, i + 1)
        payload = build_payload(store, "m1")
        keys = [(e.t, e.category_id, e.feature) for e in payload.events]
        assert keys == sorted(keys)
        assert {e.feature for e in payload.events} == {"mpg", "brand_loyalty"}
        assert len(payload.events) <= 10


def make_payload(weights=None, slopes=None, events=(), member="m7", categories=1):
    cats = []
    for i in range(categories):
        w = {name: 0.0 for name in FEATURE_NAMES}
        w.update(weights or {})
        s = {name: 0.0 for name in FEATURE_NAMES}
        s.update(slopes or {})
        behavioral = sorted(
            ((n, v) for n, v in w.items() if n != "bias"),
            key=lambda nv: (-abs(nv[1]), nv[0]),
        )[:3]
        cats.append(CategoryWeightSummary(f"c{i}", w, 10, behavioral, s))
    return ExplanationPayload(member, FEATURE_NAMES, cats, list(events))


class TestMockPersona:
    def test_dominant_loyalty_and_negative_seasonality(self):
        payload = make_payload({"brand_loyalty": 0.6, "seasonality": -0.3})
        text = MockLLMClient().generate(payload)
        assert "brand-loyal" in text
        assert "non-seasonal" in text
        assert text.startswith("Persona for member m7:")

    def test_replenishment_rule_and_strengthening_trend(self):
        flat = MockLLMClient().generate(make_payload({"mpg": 0.4}))
        assert "replenishment-driven" in flat
        assert "strengthening" not in flat
        rising = MockLLMClient().generate(
            make_payload({"mpg": 0.4}, slopes={"mpg": 0.01})
        )
        assert "strengthening" in rising

    def test_brand_agnostic_rule(self):
        text = MockLLMClient().generate(make_payload({"brand_loyalty": -0.5}))
        assert "Brand-agnostic" in text

    def test_mild_loyalty_when_outranked(self):
        payload = make_payload(
            {"brand_loyalty": 0.15, "mpg": 0.9, "value": 0.8, "recency": 0.7}
        )
        assert "Mildly brand-loyal" in MockLLMClient().generate(payload)

    def test_recent_shift_line_reports_latest_event(self):
        event = ChangeEvent("m7", "c0", "value", 88, -0.3, 6.2, "down")
        text = MockLLMClient().generate(make_payload(events=[event]))
        assert "Recent shift: value weight moved down in category c0." in text

    def test_top_drivers_line_lists_three_features(self):
        payload = make_payload({"value": 0.9, "mpg": -0.5, "recency": 0.2})
        text = MockLLMClient().generate(payload)
        assert text.splitlines()[-1] == "Top drivers: value, mpg, recency."

    def test_deterministic(self):
        payload = make_payload({"brand_loyalty": 0.6, "seasonality": -0.3})
        client = MockLLMClient()
        assert client.generate(payload) == client.generate(payload)

    @given(
        st.lists(
            st.floats(-2.0, 2.0, allow_nan=False, width=32), min_size=9, max_size=9
        ),
        st.integers(1, 3),
    )
    def test_total_over_arbitrary_weights(self, values, categories):
        weights = dict(zip(FEATURE_NAMES, values))
        payload = make_payload(weights, categories=categories)
        text = MockLLMClient().generate(payload)
        assert text.startswith("Persona for member m7:")
        assert text.splitlines()[-1].startswith("Top drivers: ")

    def test_means_across_categories_drive_the_rules(self):
        # +0.6 and -0.6 across two categories cancel, so no loyalty line.
        payload = make_payload({"brand_loyalty": 0.6}, categories=2)
        payload.categories[1].weights["brand_loyalty"] = -0.6
        text = MockLLMClient().generate(payload)
        assert "brand-loyal" not in text and "Brand-agnostic" not in text


class TestPromptAndExplain:
    def test_render_prompt_embeds_payload_json(self):
        payload = make_payload({"value": 0.5})
        prompt = render_prompt(payload)
        assert "{payload_json}" not in prompt
        assert '"member_id": "m7"' in prompt
        # The exact JSON of a payload with one event: the member id appears
        # once, at the top, and not in the event.
        event = ChangeEvent("m7", "c0", "value", 12, 0.3, 5.0, "up")
        prompt = render_prompt(make_payload({"value": 0.5}, events=[event]))
        expected = {
            "as_of": None,
            "categories": [{
                "category_id": "c0",
                "slopes": dict.fromkeys(FEATURE_NAMES, 0.0),
                "top_features": [["value", 0.5], ["brand_loyalty", 0.0], ["duration", 0.0]],
                "update_count": 10,
                "weights": {**dict.fromkeys(FEATURE_NAMES, 0.0), "value": 0.5},
            }],
            "events": [{"category_id": "c0", "delta": 0.3, "direction": "up", "feature": "value", "t": 12, "z": 5.0}],
            "feature_names": list(FEATURE_NAMES),
            "member_id": "m7",
        }
        template = interpret_module.PROMPT_TEMPLATE_PATH.read_text(encoding="utf-8")
        assert prompt == template.replace("{payload_json}", json.dumps(expected, sort_keys=True, indent=2))


class FakeResponse:
    """Stands in for the response urlopen returns, or raises an HTTP error
    status the way urlopen does."""

    def __init__(self, content=None, status_error=False, body=None):
        self._content = content
        self._status_error = status_error
        self._body = body

    def __call__(self, request, timeout=None):
        if self._status_error:
            raise urllib.error.HTTPError(request.full_url, 500, "server error", {}, None)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        if self._body is not None:
            return json.dumps(self._body).encode("utf-8")
        return json.dumps({"choices": [{"message": {"content": self._content}}]}).encode("utf-8")


class TestHttpClient:
    def test_requires_endpoint_configuration(self, monkeypatch):
        for var in ("LLM_API_BASE", "LLM_API_KEY", "LLM_MODEL"):
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(ConfigError, match="LLM_API_BASE"):
            HttpLLMClient()

    def test_reads_configuration_from_environment(self, monkeypatch):
        monkeypatch.setenv("LLM_API_BASE", "https://llm.example/v1/")
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        monkeypatch.setenv("LLM_MODEL", "persona-model")
        client = HttpLLMClient()
        assert client.api_base == "https://llm.example/v1"  # slash stripped
        assert client.api_key == "sk-test"
        assert client.model == "persona-model"

    def test_posts_chat_completion_shape(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append((request, timeout))
            return FakeResponse(content="persona text")

        monkeypatch.setattr(interpret_module, "urlopen", fake_urlopen)
        client = HttpLLMClient(api_base="https://llm.example/v1", api_key="sk-1",
                               model="persona-model", timeout=9.0)
        payload = make_payload({"value": 0.5})
        assert client.generate(payload) == "persona text"
        request, timeout = calls[0]
        body = json.loads(request.data)
        assert request.get_method() == "POST"
        assert request.full_url == "https://llm.example/v1/chat/completions"
        assert body["model"] == "persona-model"
        assert body["messages"][0]["role"] == "user"
        assert body["messages"][0]["content"] == render_prompt(payload)
        assert request.get_header("Authorization") == "Bearer sk-1"
        assert request.get_header("Content-type") == "application/json"
        assert timeout == 9.0

    def test_omits_auth_header_without_key(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(dict(request.header_items()))
            return FakeResponse(content="x")

        monkeypatch.setattr(interpret_module, "urlopen", fake_urlopen)
        client = HttpLLMClient(api_base="https://llm.example", model="m")
        client.generate(make_payload())
        assert "Authorization" not in calls[0]

    def test_retries_once_then_succeeds(self, monkeypatch):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(request.full_url)
            if len(calls) == 1:
                raise urllib.error.URLError("boom")
            return FakeResponse(content="second try")

        monkeypatch.setattr(interpret_module, "urlopen", fake_urlopen)
        client = HttpLLMClient(api_base="https://llm.example", model="m")
        assert client.generate(make_payload()) == "second try"
        assert len(calls) == 2

    def test_persistent_failure_raises_transport_error(self, monkeypatch):
        monkeypatch.setattr(interpret_module, "urlopen", FakeResponse(status_error=True))
        client = HttpLLMClient(api_base="https://llm.example", model="m")
        payload = make_payload({"mpg": 0.2})
        with pytest.raises(LLMTransportError) as exc_info:
            client.generate(payload)
        assert exc_info.value.payload is payload

    def test_malformed_response_body_raises_transport_error(self, monkeypatch):
        monkeypatch.setattr(interpret_module, "urlopen", FakeResponse(body={"choices": []}))
        client = HttpLLMClient(api_base="https://llm.example", model="m")
        with pytest.raises(LLMTransportError):
            client.generate(make_payload())

    @pytest.mark.parametrize("content", [None, 123, ""])
    def test_reply_without_text_is_retried_then_raises_transport_error(self, monkeypatch, content):
        calls = []

        def fake_urlopen(request, timeout=None):
            calls.append(request.full_url)
            return FakeResponse(content=content)

        monkeypatch.setattr(interpret_module, "urlopen", fake_urlopen)
        client = HttpLLMClient(api_base="https://llm.example", model="m")
        with pytest.raises(LLMTransportError, match="not a non-empty string"):
            client.generate(make_payload())
        assert len(calls) == 2

    def test_round_trip_against_a_local_server(self, monkeypatch):
        for var in ("no_proxy", "NO_PROXY"):
            monkeypatch.setenv(var, "127.0.0.1")
        received = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                received.append((self.path, self.headers["Authorization"], body))
                if len(received) == 1:
                    self.send_error(503)
                    return
                reply = json.dumps({"choices": [{"message": {"content": "local persona"}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpLLMClient(api_base=f"http://127.0.0.1:{server.server_port}/v1",
                                   api_key="sk-local", model="m", timeout=10.0)
            # The first request gets a 503; the one retry succeeds.
            assert client.generate(make_payload()) == "local persona"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert [(p, a) for p, a, _ in received] == [("/v1/chat/completions", "Bearer sk-local")] * 2
        assert received[1][2]["model"] == "m"

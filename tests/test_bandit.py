import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offerbandit.bandit import (
    LOGIT_CLAMP,
    BackfitReport,
    CategoryModel,
    LearnerConfig,
    ModelStore,
    DIVERGED,
    TrainingEvents,
    aggregate_offer,
    backfit,
    load_checkpoint,
    log_loss,
    logit,
    predict_category,
    renormalize_shares,
    save_checkpoint,
    sgd_update,
    sigmoid,
)
from offerbandit.errors import ConfigError
from offerbandit.features import FEATURE_NAMES, N_FEATURES


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, rel=1e-12)
        assert sigmoid(-1.0) == pytest.approx(1.0 - 0.7310585786300049, rel=1e-12)

    def test_stable_at_extreme_arguments(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert sigmoid(5000.0) == 1.0
        assert math.isfinite(sigmoid(-5000.0))

    @given(st.floats(-1e6, 1e6))
    def test_bounded_and_monotone(self, z):
        p = sigmoid(z)
        assert 0.0 <= p <= 1.0
        assert sigmoid(z + 1.0) >= p

    @given(st.floats(1e-6, 1 - 1e-6))
    def test_logit_inverts_sigmoid(self, p):
        assert sigmoid(logit(p)) == pytest.approx(p, rel=1e-9)


class TestPredict:
    def test_dot_product_through_sigmoid(self):
        w = np.zeros(N_FEATURES)
        w[0], w[1] = 0.3, -0.5
        x = np.zeros(N_FEATURES)
        x[0], x[1] = 1.0, 2.0
        model = CategoryModel(w)
        assert predict_category(model, x) == pytest.approx(sigmoid(0.3 - 1.0), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            predict_category(CategoryModel(np.zeros(9)), np.zeros(4))


class TestSGDUpdate:
    def test_single_step_from_zero_weights(self):
        # From w=0 the prediction is 0.5, so the plain step on a positive
        # label is lr * 0.5 * x on every active feature.
        x = np.zeros(N_FEATURES)
        x[0], x[1] = 1.0, 1.0
        model = CategoryModel(np.zeros(N_FEATURES))
        sgd_update(model, x, 1, LearnerConfig(learning_rate=0.1, positive_boost=1.0))
        assert model.weights[0] == 0.1 * 0.5
        assert model.weights[1] == 0.1 * 0.5
        assert np.all(model.weights[2:] == 0.0)
        assert model.update_count == 1

    def test_positive_boost_doubles_that_step(self):
        x = np.zeros(N_FEATURES)
        x[0], x[1] = 1.0, 1.0
        model = CategoryModel(np.zeros(N_FEATURES))
        sgd_update(model, x, 1, LearnerConfig(learning_rate=0.1, positive_boost=2.0))
        assert model.weights[0] == 0.1
        assert model.weights[1] == 0.1

    @given(st.floats(1.0, 8.0), st.integers(0, 2**32 - 1))
    def test_boosted_positive_step_is_exactly_alpha_times_plain(self, alpha, seed):
        # Bitwise equality, not approximate: the boost scales the step
        # vector itself. Differencing final weights would reintroduce
        # addition rounding, so the plain step is recomputed independently
        # and the boosted result compared against w0 + alpha * step.
        rng = np.random.default_rng(seed)
        w0 = rng.normal(0.0, 0.5, N_FEATURES)
        x = rng.normal(0.0, 1.0, N_FEATURES)
        plain = CategoryModel(w0.copy())
        sgd_update(plain, x, 1, LearnerConfig(learning_rate=0.05, positive_boost=1.0))
        boosted = CategoryModel(w0.copy())
        sgd_update(boosted, x, 1, LearnerConfig(learning_rate=0.05, positive_boost=alpha))
        p = sigmoid(float(w0 @ x))
        step = (0.05 * (1.0 - p)) * x
        np.testing.assert_array_equal(plain.weights, w0 + step)
        np.testing.assert_array_equal(boosted.weights, w0 + alpha * step)

    def test_negative_label_step_is_never_boosted(self, rng):
        w0 = rng.normal(0.0, 0.5, N_FEATURES)
        x = rng.normal(0.0, 1.0, N_FEATURES)
        a = CategoryModel(w0.copy())
        sgd_update(a, x, 0, LearnerConfig(learning_rate=0.05, positive_boost=1.0))
        b = CategoryModel(w0.copy())
        sgd_update(b, x, 0, LearnerConfig(learning_rate=0.05, positive_boost=7.0))
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_matches_analytic_gradient(self, rng):
        for _ in range(20):
            w0 = rng.normal(0.0, 0.4, N_FEATURES)
            x = rng.normal(0.0, 1.0, N_FEATURES)
            y = int(rng.integers(0, 2))
            model = CategoryModel(w0.copy())
            cfg = LearnerConfig(learning_rate=0.03, positive_boost=1.0)
            p = predict_category(model, x)
            sgd_update(model, x, y, cfg)
            np.testing.assert_allclose(
                model.weights - w0, 0.03 * (y - p) * x, rtol=1e-12, atol=1e-15
            )

    def test_l2_decay_shrinks_toward_zero(self):
        w0 = np.full(N_FEATURES, 2.0)
        x = np.zeros(N_FEATURES)
        model = CategoryModel(w0.copy())
        cfg = LearnerConfig(learning_rate=0.1, positive_boost=1.0, l2_lambda=0.5)
        sgd_update(model, x, 0, cfg)
        # With x=0 the only movement is the decay term -lr*l2*w.
        np.testing.assert_allclose(model.weights, w0 - 0.1 * 0.5 * w0, rtol=1e-12)

    def test_repeated_positives_raise_prediction(self):
        x = np.ones(N_FEATURES)
        model = CategoryModel(np.zeros(N_FEATURES))
        cfg = LearnerConfig()
        last = predict_category(model, x)
        for _ in range(30):
            sgd_update(model, x, 1, cfg)
            p = predict_category(model, x)
            assert p > last
            last = p

    def test_divergence_raises_instead_of_propagating_nan(self):
        x = np.full(N_FEATURES, 100.0)
        x[0] = 1.0
        model = CategoryModel(np.zeros(N_FEATURES))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="diverged|finite"):
                sgd_update(model, x, 1, LearnerConfig(learning_rate=1e308))

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            sgd_update(CategoryModel(np.zeros(9)), np.zeros(9), 2, LearnerConfig())


class TestLearnerConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LearnerConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            LearnerConfig(positive_boost=0.5)
        with pytest.raises(ConfigError):
            LearnerConfig(l2_lambda=-0.1)
        with pytest.raises(ConfigError):
            LearnerConfig(prior_weights=(1.0, 2.0))
        with pytest.raises(ConfigError, match="finite"):
            LearnerConfig(prior_weights=("nan",) + (0.0,) * (N_FEATURES - 1))

    def test_prior_array(self):
        assert np.all(LearnerConfig().prior_array() == 0.0)
        prior = tuple(float(i) for i in range(N_FEATURES))
        np.testing.assert_array_equal(
            LearnerConfig(prior_weights=prior).prior_array(), np.arange(N_FEATURES)
        )


class TestAggregation:
    def test_two_category_logit_average_with_mf_bias(self):
        cfg = LearnerConfig(mf_bias_coeff=1.0)
        got = aggregate_offer({"a": 0.7, "b": 0.9}, {"a": 0.5, "b": 0.5}, 0.2, cfg)
        z = 0.5 * math.log(0.7 / 0.3) + 0.5 * math.log(0.9 / 0.1) + 0.2
        assert got == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-12)

    def test_single_category_is_identity_without_mf(self):
        cfg = LearnerConfig(mf_bias_coeff=0.0)
        assert aggregate_offer({"a": 0.3}, {}, 0.9, cfg) == pytest.approx(0.3, rel=1e-9)

    def test_shares_renormalized_over_offer_categories(self):
        cfg = LearnerConfig(mf_bias_coeff=0.0)
        # Shares 0.2/0.2 over these two categories act like 0.5/0.5.
        a = aggregate_offer({"a": 0.6, "b": 0.8}, {"a": 0.2, "b": 0.2, "zzz": 0.6}, 0.0, cfg)
        b = aggregate_offer({"a": 0.6, "b": 0.8}, {"a": 0.5, "b": 0.5}, 0.0, cfg)
        assert a == pytest.approx(b, rel=1e-12)

    def test_no_history_falls_back_to_uniform(self):
        cfg = LearnerConfig(mf_bias_coeff=0.0)
        got = aggregate_offer({"a": 0.2, "b": 0.6}, {}, 0.0, cfg)
        z = 0.5 * logit(0.2) + 0.5 * logit(0.6)
        assert got == pytest.approx(sigmoid(z), rel=1e-12)

    def test_extreme_probabilities_are_clamped_not_fatal(self):
        cfg = LearnerConfig(mf_bias_coeff=0.0)
        lo = aggregate_offer({"a": 0.0}, {}, 0.0, cfg)
        hi = aggregate_offer({"a": 1.0}, {}, 0.0, cfg)
        assert lo == pytest.approx(LOGIT_CLAMP, rel=1e-6)
        assert hi == pytest.approx(1.0 - LOGIT_CLAMP, rel=1e-6)

    def test_empty_categories_rejected(self):
        with pytest.raises(ValueError):
            aggregate_offer({}, {}, 0.0, LearnerConfig())

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(-1.0, 1.0))
    def test_monotone_in_each_input(self, pa, pb, mf):
        cfg = LearnerConfig(mf_bias_coeff=1.0)
        base = aggregate_offer({"a": pa, "b": pb}, {}, mf, cfg)
        assert aggregate_offer({"a": min(pa + 0.02, 0.97), "b": pb}, {}, mf, cfg) > base
        assert aggregate_offer({"a": pa, "b": pb}, {}, mf + 0.1, cfg) > base

    def test_renormalize_shares(self):
        assert renormalize_shares(["a", "b"], {"a": 0.2, "b": 0.6}) == pytest.approx(
            {"a": 0.25, "b": 0.75}
        )
        assert renormalize_shares(["a", "b"], {}) == {"a": 0.5, "b": 0.5}
        assert renormalize_shares(["a"], {"a": -3.0}) == {"a": 1.0}


class TestModelStore:
    def test_reads_do_not_materialize_models(self):
        store = ModelStore()
        x = np.zeros(N_FEATURES)
        x[0] = 1.0
        assert store.predict("m1", "c1", x) == 0.5
        np.testing.assert_array_equal(store.get("m1", "c1").weights, store.prior)
        assert len(store) == 0
        assert ("m1", "c1") not in store

    def test_get_returns_a_copy_of_the_prior_without_materializing(self):
        prior = np.full(N_FEATURES, 0.25)
        store = ModelStore(prior)
        model = store.get("m1", "c1")
        assert model.update_count == 0
        model.weights[3] = 9.0
        assert store.prior[3] == 0.25
        assert len(store) == 0 and ("m1", "c1") not in store
        # Another pair, and the same one, still read as the untouched prior.
        np.testing.assert_array_equal(store.get("m2", "c1").weights, prior)
        np.testing.assert_array_equal(store.get("m1", "c1").weights, prior)

    def test_put_materializes_and_get_returns_an_independent_copy(self):
        store = ModelStore()
        weights = np.linspace(-1.0, 1.0, N_FEATURES)
        store.put("m1", "c1", CategoryModel(weights, update_count=4))
        assert len(store) == 1 and ("m1", "c1") in store
        weights[0] = 7.0  # the store copied the weights it was given
        model = store.get("m1", "c1")
        assert model.weights[0] == -1.0 and model.update_count == 4
        model.weights[:] = 5.0
        model.update_count = 9
        again = store.get("m1", "c1")
        np.testing.assert_array_equal(again.weights, np.linspace(-1.0, 1.0, N_FEATURES))
        assert again.update_count == 4
        assert again.weights is not model.weights

    def test_put_rejects_weights_of_another_width(self):
        store = ModelStore()
        with pytest.raises(ValueError, match="do not match"):
            store.put("m1", "c1", CategoryModel(np.zeros(N_FEATURES - 1)))
        assert len(store) == 0

    def test_put_keeps_rows_across_growth(self):
        store = ModelStore()
        for i in range(200):
            store.put(f"m{i:03d}", "c1", CategoryModel(np.full(N_FEATURES, float(i)), i))
        assert len(store) == 200
        for i in (0, 63, 64, 199):
            model = store.get(f"m{i:03d}", "c1")
            np.testing.assert_array_equal(model.weights, float(i))
            assert model.update_count == i

    def test_update_isolated_per_pair(self):
        store = ModelStore()
        x = np.ones(N_FEATURES)
        train(store, "m1", "c1", x, 1, LearnerConfig())
        assert store.predict("m1", "c1", x) > 0.5
        assert store.predict("m1", "c2", x) == 0.5
        assert store.predict("m2", "c1", x) == 0.5

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_row_update_equals_get_sgd_update_put(self, rng, l2):
        cfg = LearnerConfig(learning_rate=0.2, positive_boost=3.0, l2_lambda=l2)
        stepped, reference = ModelStore(np.full(N_FEATURES, 0.1)), ModelStore(np.full(N_FEATURES, 0.1))
        for i in range(60):
            member, category = f"m{i % 3}", f"c{i % 4}"
            x, y = rng.normal(size=N_FEATURES), int(rng.integers(2))
            weights, count = stepped.update(member, category, x, y, cfg)
            train(reference, member, category, x, y, cfg)
            model = reference.get(member, category)
            assert weights.tobytes() == model.weights.tobytes() and count == model.update_count
        for (ka, a), (kb, b) in zip(stepped.items_sorted(), reference.items_sorted()):
            assert ka == kb and a.update_count == b.update_count and a.weights.tobytes() == b.weights.tobytes()

    def test_row_update_returns_weights_the_store_does_not_hold(self):
        store = ModelStore()
        weights, _ = store.update("m1", "c1", np.ones(N_FEATURES), 1, LearnerConfig())
        weights[:] = 9.0
        assert (store.get("m1", "c1").weights != 9.0).all()

    def test_diverging_row_update_raises_before_writing(self):
        x = np.full(N_FEATURES, 100.0)
        store = ModelStore()
        store.put("m1", "c1", CategoryModel(np.full(N_FEATURES, 0.5), 3))
        cfg = LearnerConfig(learning_rate=1e308)
        with np.errstate(over="ignore"):
            for member in ("m1", "m2"):  # a seen pair and an unseen one
                with pytest.raises(ValueError) as err:
                    store.update(member, "c1", x, 0, cfg)
                assert str(err.value) == DIVERGED
        assert len(store) == 1 and ("m2", "c1") not in store
        model = store.get("m1", "c1")
        assert (model.weights == 0.5).all() and model.update_count == 3

    def test_from_config_uses_prior(self):
        prior = tuple([0.1] * N_FEATURES)
        store = ModelStore.from_config(LearnerConfig(prior_weights=prior))
        np.testing.assert_allclose(store.prior, 0.1)


def train(store, member, category, x, y, cfg):
    """One sgd_update of the pair's model, written back with put()."""
    model = store.get(member, category)
    sgd_update(model, x, y, cfg)
    store.put(member, category, model)


def batch(events):
    """TrainingEvents from (t, x, y, member, category) tuples."""
    t, x, y, members, categories = zip(*events) if events else ((), (), (), (), ())
    return TrainingEvents(np.array(t), list(members), list(categories),
                          np.array(x, dtype=float).reshape(-1, N_FEATURES), np.array(y))


def sequential_backfit(store, events, cfg):
    """The reference: one predict and one sgd_update per event, in order,
    with the final tenth scored before its own update."""
    n = len(events)
    model_losses, prior_losses = [], []
    prior = CategoryModel(store.prior.copy())
    for i, (t, x, y, member, category) in enumerate(events):
        p = store.predict(member, category, x)
        if i >= (9 * n) // 10:
            model_losses.append(log_loss(p, y))
            prior_losses.append(log_loss(predict_category(prior, x), y))
        train(store, member, category, x, y, cfg)
    return sum(model_losses) / len(model_losses), sum(prior_losses) / len(prior_losses)


class TestBackfit:
    def event(self, t, x, y, member="m1", category="c1"):
        return (t, x, y, member, category)

    def test_empty_events_flagged_and_store_untouched(self):
        store = ModelStore()
        report = backfit(store, batch([]), LearnerConfig())
        assert report == BackfitReport(0, 0, 0, None, None, None, empty=True)
        assert len(store) == 0

    def test_single_positive_event_applies_one_boosted_step(self):
        x = np.zeros(N_FEATURES)
        x[0], x[5] = 1.0, 2.0
        store = ModelStore()
        cfg = LearnerConfig(learning_rate=0.1, positive_boost=2.0)
        report = backfit(store, batch([self.event(0, x, 1)]), cfg)
        assert report.n_updates == 1
        np.testing.assert_allclose(
            store.get("m1", "c1").weights, 2.0 * 0.1 * 0.5 * x, rtol=1e-12
        )

    def test_unsorted_events_rejected(self):
        x = np.ones(N_FEATURES)
        events = [self.event(5, x, 1), self.event(3, x, 0)]
        with pytest.raises(ValueError, match="sorted"):
            backfit(ModelStore(), batch(events), LearnerConfig())

    def test_holdout_beats_prior_on_learnable_stream(self, rng):
        true_w = np.zeros(N_FEATURES)
        true_w[0], true_w[1], true_w[2] = -0.5, 1.2, -0.9
        events = []
        for t in range(600):
            x = rng.normal(0.0, 1.0, N_FEATURES)
            x[0] = 1.0
            y = int(rng.random() < sigmoid(float(true_w @ x)))
            events.append(self.event(t, x, y))
        store = ModelStore()
        report = backfit(store, batch(events), LearnerConfig(learning_rate=0.1, positive_boost=1.0))
        assert report.n_events == 600
        assert report.holdout_size == 60
        assert report.holdout_log_loss < report.prior_log_loss

    def test_holdout_is_final_tenth_scored_before_update(self):
        # Alternating labels on identical contexts: the prior scores log(2)
        # on every event no matter what the model learned earlier.
        x = np.zeros(N_FEATURES)
        x[0] = 1.0
        events = [self.event(t, x, t % 2) for t in range(20)]
        report = backfit(ModelStore(), batch(events), LearnerConfig(learning_rate=0.01))
        assert report.holdout_size == 2
        assert report.prior_log_loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_base_rate_is_the_training_mean_scored_on_the_holdout(self):
        x = np.zeros(N_FEATURES)
        x[0] = 1.0
        # 18 training events with 6 clips, then a holdout of one clip and one miss.
        labels = [1, 0, 0] * 6 + [1, 0]
        report = backfit(ModelStore(), batch([self.event(t, x, y) for t, y in enumerate(labels)]), LearnerConfig())
        assert report.holdout_size == 2
        assert report.base_rate_log_loss == pytest.approx(-(math.log(1 / 3) + math.log(2 / 3)) / 2, rel=1e-12)
        # With all of the training labels 1, the constant is clamped, not log(0).
        report = backfit(ModelStore(), batch([self.event(t, x, int(t < 9)) for t in range(10)]), LearnerConfig())
        assert report.base_rate_log_loss == pytest.approx(-math.log(1.0 - (1.0 - 1e-12)), rel=1e-12)

    def test_base_rate_needs_a_training_event(self):
        x = np.ones(N_FEATURES)
        report = backfit(ModelStore(), batch([self.event(0, x, 1)]), LearnerConfig())
        assert report.holdout_size == 1 and report.holdout_log_loss is not None
        assert report.base_rate_log_loss is None


class TestBackfitWaves:
    """The wave-ordered backfit against the per-event sgd_update loop."""

    def stream(self, rng, n=400):
        # Interleaved pairs with very uneven counts: pair k takes about
        # 2^-k of the events, and a few pairs see a single event.
        pairs = [(f"m{i % 4}", f"c{i % 3}") for i in range(9)]
        odds = 0.5 ** np.arange(len(pairs))
        picks = rng.choice(len(pairs), size=n, p=odds / odds.sum())
        events = []
        for i, k in enumerate(picks):
            x = rng.normal(0.0, 1.0, N_FEATURES)
            x[0] = 1.0
            events.append((i // 3, x, int(rng.integers(0, 2)), *pairs[k]))
        return events

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("prior", [None, 0.2])
    def test_matches_sequential_sgd_updates(self, rng, l2, prior):
        events = self.stream(rng)
        cfg = LearnerConfig(learning_rate=0.07, positive_boost=2.5, l2_lambda=l2,
                            prior_weights=None if prior is None else (prior,) * N_FEATURES)
        expected = ModelStore.from_config(cfg)
        model_loss, prior_loss = sequential_backfit(expected, events, cfg)
        store = ModelStore.from_config(cfg)
        report = backfit(store, batch(events), cfg)
        assert [k for k, _ in store.items_sorted()] == [k for k, _ in expected.items_sorted()]
        for (_, a), (_, b) in zip(store.items_sorted(), expected.items_sorted()):
            np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=1e-12)
            assert a.update_count == b.update_count
        assert len({m.update_count for _, m in store.items_sorted()}) > 3  # uneven pairs
        assert report.n_events == report.n_updates == len(events)
        assert report.holdout_size == len(events) - (9 * len(events)) // 10
        assert report.holdout_log_loss == pytest.approx(model_loss, rel=0, abs=1e-12)
        assert report.prior_log_loss == pytest.approx(prior_loss, rel=0, abs=1e-12)

    def test_trains_a_store_that_already_holds_pairs(self, rng):
        events = self.stream(rng, n=120)
        cfg = LearnerConfig(learning_rate=0.05)
        expected, store = ModelStore(), ModelStore()
        for s in (expected, store):
            s.put("m1", "c1", CategoryModel(np.full(N_FEATURES, 0.3)))
            s.put("m9", "c9", s.get("m9", "c9"))
        sequential_backfit(expected, events, cfg)
        backfit(store, batch(events), cfg)
        assert len(store) == len(expected)
        for (ka, a), (kb, b) in zip(store.items_sorted(), expected.items_sorted()):
            assert ka == kb and a.update_count == b.update_count
            np.testing.assert_allclose(a.weights, b.weights, rtol=0, atol=1e-12)

    def test_divergence_raises_the_sgd_update_message(self):
        x = np.full(N_FEATURES, 100.0)
        x[0] = 1.0
        events = [(0, x, 1, "m1", "c1"), (1, x, 0, "m2", "c1")]
        cfg = LearnerConfig(learning_rate=1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as scalar:
                sgd_update(CategoryModel(np.zeros(N_FEATURES)), x, 1, cfg)
            with pytest.raises(ValueError) as waves:
                backfit(ModelStore(), batch(events), cfg)
        assert str(waves.value) == str(scalar.value) == DIVERGED

    def test_unsorted_events_rejected_anywhere_in_the_batch(self, rng):
        events = self.stream(rng, n=50)
        events[30] = (0, *events[30][1:])
        with pytest.raises(ValueError, match="sorted by t ascending"):
            backfit(ModelStore(), batch(events), LearnerConfig())

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            batch([(0, np.zeros(N_FEATURES), 2, "m1", "c1")])


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        cfg = LearnerConfig(learning_rate=0.07, positive_boost=3.0)
        store = ModelStore(np.full(N_FEATURES, 0.05))
        for member, category in [("m1", "c1"), ("m1", "c2"), ("m2", "c1")]:
            for _ in range(3):
                x = rng.normal(0.0, 1.0, N_FEATURES)
                train(store, member, category, x, int(rng.integers(0, 2)), cfg)
        path = tmp_path / "checkpoint.jsonl"
        save_checkpoint(path, store, cfg)
        loaded, header = load_checkpoint(path)
        assert header["learning_rate"] == 0.07
        assert header["feature_names"] == list(FEATURE_NAMES)
        assert header["n_models"] == 3
        np.testing.assert_array_equal(loaded.prior, store.prior)
        original = store.items_sorted()
        restored = loaded.items_sorted()
        assert [k for k, _ in restored] == [k for k, _ in original]
        for (_, a), (_, b) in zip(restored, original):
            np.testing.assert_array_equal(a.weights, b.weights)
            assert a.update_count == b.update_count

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        save_checkpoint(path, ModelStore(), LearnerConfig())
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["feature_order_version"] = 999
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, line",
        [
            (lambda lines: lines[2].update(weights=[0.1, 0.2, 0.3]), 3),
            (lambda lines: lines[1].update(weights=[float("nan")] * N_FEATURES), 2),
            (lambda lines: lines[2].update(weights=[1.0] * (N_FEATURES - 1) + [float("inf")]), 3),
            (lambda lines: lines[0].update(prior_weights=[0.0] * (N_FEATURES + 1)), 1),
            (lambda lines: lines[0].update(n_models=3), 1),
            (lambda lines: lines[2].update(member_id="m1", category_id="c1"), 3),
            (lambda lines: lines[1].pop("weights"), 2),
            (lambda lines: lines[1].update(member_id=7), 2),
            (lambda lines: lines[2].update(member_id=None), 3),
            (lambda lines: lines[1].update(category_id=""), 2),
            (lambda lines: lines[2].update(category_id=["c1"]), 3),
            (lambda lines: lines[2].update(weights=[1.0] * (N_FEATURES - 1) + [True]), 3),
            (lambda lines: lines[0].update(prior_weights=[False] * N_FEATURES), 1),
        ],
        ids=["short-weights", "nan-weights", "inf-weight", "long-prior", "row-count",
             "duplicate-row", "missing-field", "number-member", "null-member", "empty-category",
             "list-category", "bool-weight", "bool-prior"],
    )
    def test_malformed_checkpoint_rejected_with_file_and_line(self, tmp_path, corrupt, line):
        store = ModelStore()
        store.put("m1", "c1", store.get("m1", "c1"))
        store.put("m2", "c1", store.get("m2", "c1"))
        path = tmp_path / "checkpoint.jsonl"
        save_checkpoint(path, store, LearnerConfig())
        lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
        corrupt(lines)
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{path.name} line {line}:"):
            load_checkpoint(path)


    @pytest.mark.parametrize("field, line", [("update_count", 3), ("n_models", 1)])
    @pytest.mark.parametrize("value", [2.7, -5, "3", True, 2**63],
                             ids=["fraction", "negative", "string", "bool", "past-int64"])
    def test_counts_must_be_nonnegative_json_integers(self, tmp_path, field, line, value):
        store = ModelStore()
        store.put("m1", "c1", store.get("m1", "c1"))
        store.put("m2", "c1", store.get("m2", "c1"))
        path = tmp_path / "checkpoint.jsonl"
        save_checkpoint(path, store, LearnerConfig())
        lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
        lines[line - 1][field] = value
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{path.name} line {line}: {field} must be a non-negative integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", [
        lambda line: line[:20] + b"\xff" + line[20:],
        lambda line: b"[" * 100_000,
    ], ids=["undecodable", "too-deep"])
    def test_damaged_line_rejected_with_its_true_line_number(self, tmp_path, damage):
        # Far enough into the file that a chunked text decoder would read
        # the damaged bytes ahead of the line being parsed.
        store = ModelStore()
        for i in range(399):
            store.put(f"m{i:03d}", "c1", store.get(f"m{i:03d}", "c1"))
        path = tmp_path / "checkpoint.jsonl"
        save_checkpoint(path, store, LearnerConfig())
        lines = path.read_bytes().split(b"\n")
        lines[299] = damage(lines[299])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConfigError, match=f"{path.name} line 300:"):
            load_checkpoint(path)

    def test_rows_are_the_json_dumps_lines(self, tmp_path, rng):
        cfg = LearnerConfig(learning_rate=0.07)
        store = ModelStore(np.full(N_FEATURES, -0.0))
        pairs = [("m1", "c1"), ('m"quoted"', "c\\2"), ("mémbre", "catégorie"), ("m\u4e2d", "c\n1"), ("m2", "c1")]
        for i, (member, category) in enumerate(pairs):
            for _ in range(i + 1):
                train(store, member, category, rng.normal(0.0, 3.0, N_FEATURES), i % 2, cfg)
        store.put("m3", "c3", CategoryModel([1e-300, -0.0, 1e20, 0.1, 1 / 3, -2.5e-8, 123456789.0, 5e-324, -1.0]))
        path = tmp_path / "checkpoint.jsonl"
        save_checkpoint(path, store, cfg)
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = [
            json.dumps({"member_id": m, "category_id": c, "weights": [float(w) for w in model.weights],
                        "update_count": model.update_count}, sort_keys=True)
            for (m, c), model in store.items_sorted()
        ]
        assert lines[1:] == expected
        assert json.loads(lines[0])["n_models"] == len(pairs) + 1

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")], ids=["nan", "inf"])
    def test_save_refuses_weights_load_would_reject(self, tmp_path, bad):
        store = ModelStore()
        store.put("m1", "c1", CategoryModel(np.zeros(N_FEATURES)))
        store.put("m2", "c1", CategoryModel(np.full(N_FEATURES, bad), 3))
        path = tmp_path / "checkpoint.jsonl"
        with pytest.raises(ValueError, match=r"\('m2', 'c1'\) has weights that are not finite"):
            save_checkpoint(path, store, LearnerConfig())
        assert not path.exists()
        with pytest.raises(ValueError, match="prior weights are not finite"):
            save_checkpoint(path, ModelStore(np.full(N_FEATURES, bad)), LearnerConfig())

    def test_save_load_save_is_byte_identical(self, tmp_path, rng):
        cfg = LearnerConfig()
        store = ModelStore(rng.normal(0.0, 1.0, N_FEATURES))
        for member, category in [("m1", "c1"), ("mé", 'c"'), ("m0", "c9")]:
            train(store, member, category, rng.normal(0.0, 1.0, N_FEATURES), 1, cfg)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_checkpoint(first, store, cfg)
        loaded, _ = load_checkpoint(first)
        save_checkpoint(second, loaded, cfg)
        assert second.read_bytes() == first.read_bytes()
        # The loaded store keeps growing past the rows it was read with.
        train(loaded, "m_new", "c1", np.ones(N_FEATURES), 0, cfg)
        assert len(loaded) == 4 and loaded.get("m1", "c1").weights is not loaded.prior


def test_log_loss_clamps_probabilities():
    assert log_loss(0.0, 1) == pytest.approx(-math.log(1e-12))
    assert log_loss(1.0, 0) == pytest.approx(-math.log(1e-12), rel=1e-3)
    assert log_loss(0.25, 0) == pytest.approx(-math.log(0.75), rel=1e-12)

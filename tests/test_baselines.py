from collections import Counter

import numpy as np
import pytest

from conftest import make_round, stack_contexts
from offerbandit.bandit import (
    LOGIT_CLAMP,
    CategoryModel,
    LearnerConfig,
    ModelStore,
    aggregate_offer,
    predict_category,
    sgd_update,
)
from offerbandit.baselines import (
    POLICY_NAMES,
    CambPolicy,
    EpsilonGreedyPolicy,
    LinUCBPolicy,
    RandomPolicy,
    Ranking,
    ThompsonPolicy,
    make_policy,
)
from offerbandit.errors import ConfigError
from offerbandit.exploration import ExplorationConfig, sample_scores
from offerbandit.features import N_FEATURES


def basis_candidates(factory, k=4, dim=4, scale=1.0):
    eye = np.eye(dim) * scale
    return [factory(f"o{i}", eye[i]) for i in range(k)]


class TestLinUCB:
    def test_fresh_score_is_alpha_times_norm(self):
        policy = LinUCBPolicy(alpha_explore=1.0, l2_lambda=1.0, dim=2)
        assert policy.score(np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-12)
        policy2 = LinUCBPolicy(alpha_explore=0.5, l2_lambda=1.0, dim=2)
        assert policy2.score(np.array([3.0, 4.0])) == pytest.approx(2.5, rel=1e-12)

    def test_hand_worked_state(self):
        policy = LinUCBPolicy(alpha_explore=1.0, l2_lambda=1.0, dim=2)
        policy.A = np.diag([2.0, 1.0])
        policy.b = np.array([1.0, 0.0])
        x = np.array([1.0, 1.0])
        # theta = (0.5, 0); width = 1/2 + 1 = 1.5
        assert policy.score(x) == pytest.approx(0.5 + np.sqrt(1.5), rel=1e-12)

    def test_online_estimate_equals_batch_ridge(self, rng, candidate_factory):
        lam = 2.0
        policy = LinUCBPolicy(alpha_explore=1.0, l2_lambda=lam)
        X = rng.normal(0.0, 1.0, size=(200, N_FEATURES))
        r = rng.integers(0, 2, size=200)
        for x, reward in zip(X, r):
            policy.update(candidate_factory("o0", x), int(reward))
        batch = np.linalg.solve(lam * np.eye(N_FEATURES) + X.T @ X, X.T @ r)
        np.testing.assert_allclose(policy.theta(), batch, rtol=1e-8, atol=1e-10)

    def test_select_is_pure(self, rng, candidate_factory, as_round):
        policy = LinUCBPolicy(dim=4)
        cands = basis_candidates(candidate_factory)
        a_before, b_before = policy.A.copy(), policy.b.copy()
        first = policy.select(as_round(cands), rng, 1)
        second = policy.select(as_round(cands), rng, 2)
        np.testing.assert_array_equal(policy.A, a_before)
        np.testing.assert_array_equal(policy.b, b_before)
        assert first.scores == second.scores

    def test_update_accumulates_design_and_response(self, candidate_factory):
        policy = LinUCBPolicy(l2_lambda=1.0, dim=3)
        x = np.array([1.0, 2.0, 0.0])
        policy.update(candidate_factory("o0", x), 1)
        np.testing.assert_allclose(policy.A, np.eye(3) + np.outer(x, x))
        np.testing.assert_allclose(policy.b, x)
        policy.update(candidate_factory("o0", x), 0)
        np.testing.assert_allclose(policy.b, x)  # zero reward adds nothing

    def test_exploration_bonus_prefers_unseen_directions(self, rng, candidate_factory, as_round):
        policy = LinUCBPolicy(alpha_explore=1.0, l2_lambda=1.0, dim=2)
        seen = candidate_factory("seen", np.array([1.0, 0.0]))
        unseen = candidate_factory("unseen", np.array([0.0, 1.0]))
        for _ in range(50):
            policy.update(seen, 1)
        ranking = policy.select(as_round([seen, unseen]), rng, 1)
        widths = {
            oid: float(c.offer_vector @ np.linalg.solve(policy.A, c.offer_vector))
            for oid, c in (("seen", seen), ("unseen", unseen))
        }
        assert widths["unseen"] > widths["seen"]
        assert ranking.scores["seen"] > ranking.scores["unseen"]  # mean term dominates here

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LinUCBPolicy(alpha_explore=-1.0)
        with pytest.raises(ConfigError):
            LinUCBPolicy(l2_lambda=0.0)


class TestThompson:
    def test_posterior_mean_equals_ridge(self, rng, candidate_factory):
        lam = 1.5
        policy = ThompsonPolicy(v=0.25, l2_lambda=lam)
        X = rng.normal(0.0, 1.0, size=(150, N_FEATURES))
        r = rng.integers(0, 2, size=150)
        for x, reward in zip(X, r):
            policy.update(candidate_factory("o0", x), int(reward))
        batch = np.linalg.solve(lam * np.eye(N_FEATURES) + X.T @ X, X.T @ r)
        np.testing.assert_allclose(policy.posterior_mean(), batch, rtol=1e-8, atol=1e-10)

    def test_zero_noise_is_deterministic_mean_ranking(self, rng, candidate_factory, as_round):
        policy = ThompsonPolicy(v=0.0, l2_lambda=1.0, dim=4)
        cands = basis_candidates(candidate_factory)
        policy.update(cands[2], 1)
        orders = {tuple(policy.select(as_round(cands), rng, t).order) for t in range(1, 50)}
        assert len(orders) == 1
        assert next(iter(orders))[0] == "o2"

    def test_fresh_posterior_ranks_orthogonal_arms_uniformly(self, candidate_factory, as_round):
        policy = ThompsonPolicy(v=1.0, l2_lambda=1.0, dim=4)
        offers = as_round(basis_candidates(candidate_factory))
        rng = np.random.default_rng(3)
        tops = Counter(policy.select(offers, rng, t).top for t in range(1, 20_001))
        for oid in ("o0", "o1", "o2", "o3"):
            assert abs(tops[oid] / 20_000 - 0.25) < 0.02

    def test_sampled_scores_depart_from_means(self, candidate_factory, as_round):
        policy = ThompsonPolicy(v=1.0, l2_lambda=1.0, dim=4)
        cands = basis_candidates(candidate_factory)
        ranking = policy.select(as_round(cands), np.random.default_rng(0), 1)
        assert ranking.sampled is not None
        assert any(
            ranking.sampled[oid] != ranking.scores[oid] for oid in ranking.sampled
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ThompsonPolicy(v=-0.1)
        with pytest.raises(ConfigError):
            ThompsonPolicy(l2_lambda=0.0)


class TestEpsilonGreedy:
    def test_epsilon_schedule(self):
        constant = EpsilonGreedyPolicy(epsilon=0.3)
        assert constant.epsilon_at(1) == 0.3
        assert constant.epsilon_at(999) == 0.3
        decaying = EpsilonGreedyPolicy(epsilon=0.5, decay="inverse_t")
        assert decaying.epsilon_at(1) == 0.5
        assert decaying.epsilon_at(10) == 0.05
        with pytest.raises(ValueError):
            decaying.epsilon_at(0)

    def test_zero_epsilon_is_greedy_on_model_scores(self, rng, candidate_factory, as_round):
        policy = EpsilonGreedyPolicy(epsilon=0.0)
        policy.model.weights = np.zeros(N_FEATURES)
        policy.model.weights[1] = 1.0
        lo = np.zeros(N_FEATURES)
        hi = np.zeros(N_FEATURES)
        lo[1], hi[1] = -1.0, 2.0
        cands = [candidate_factory("lo", lo), candidate_factory("hi", hi)]
        for t in range(1, 30):
            assert policy.select(as_round(cands), rng, t).top == "hi"

    def test_full_epsilon_ranks_uniformly(self, candidate_factory, as_round):
        policy = EpsilonGreedyPolicy(epsilon=1.0)
        offers = as_round([candidate_factory(f"o{i}", np.zeros(N_FEATURES)) for i in range(4)])
        rng = np.random.default_rng(5)
        tops = Counter(policy.select(offers, rng, t).top for t in range(1, 20_001))
        for oid in tops:
            assert abs(tops[oid] / 20_000 - 0.25) < 0.02

    def test_update_trains_the_shared_model(self, candidate_factory):
        policy = EpsilonGreedyPolicy(epsilon=0.0, learner=LearnerConfig(learning_rate=0.2))
        x = np.ones(N_FEATURES)
        before = predict_category(policy.model, x)
        policy.update(candidate_factory("o0", x), 1)
        assert predict_category(policy.model, x) > before
        assert policy.model.update_count == 1

    def test_greedy_ranking_invariant_to_weight_scaling(self, rng, candidate_factory, as_round):
        cands = [
            candidate_factory(f"o{i}", rng.normal(0.0, 1.0, N_FEATURES)) for i in range(5)
        ]
        w = rng.normal(0.0, 0.7, N_FEATURES)
        orders = []
        for scale in (1.0, 3.0, 0.25):
            policy = EpsilonGreedyPolicy(epsilon=0.0)
            policy.model.weights = scale * w
            orders.append(policy.select(as_round(cands), np.random.default_rng(0), 1).order)
        assert orders[0] == orders[1] == orders[2]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EpsilonGreedyPolicy(epsilon=1.5)
        with pytest.raises(ConfigError):
            EpsilonGreedyPolicy(decay="linear")


class TestRandomPolicy:
    def test_uniform_over_candidates(self, candidate_factory, as_round):
        policy = RandomPolicy()
        offers = as_round([candidate_factory(f"o{i}", np.zeros(3)) for i in range(4)])
        rng = np.random.default_rng(9)
        tops = Counter(policy.select(offers, rng, t).top for t in range(1, 20_001))
        for oid in tops:
            assert abs(tops[oid] / 20_000 - 0.25) < 0.02

    def test_update_is_a_no_op(self, candidate_factory):
        assert RandomPolicy().update(candidate_factory("o0", np.zeros(3)), 1) == []


def set_weights(store, member, category, weights):
    """Set every weight of the pair's model, as a value, and put it back."""
    model = store.get(member, category)
    model.weights[:] = weights
    store.put(member, category, model)


class TestCambPolicy:
    def make(self, exploration=None):
        store = ModelStore()
        learner = LearnerConfig(mf_bias_coeff=1.0)
        return CambPolicy(store, learner, exploration or ExplorationConfig())

    def two_category_candidate(self, factory):
        xa = np.zeros(N_FEATURES)
        xb = np.zeros(N_FEATURES)
        xa[0] = xb[0] = 1.0
        xa[1], xb[2] = 0.8, -0.6
        return factory(
            "o0",
            0.5 * xa + 0.5 * xb,
            categories={"cA": xa, "cB": xb},
            shares={"cA": 0.5, "cB": 0.5},
            mf_score=0.3,
        )

    def test_huge_kappa_select_orders_by_probability(self, rng, candidate_factory, as_round):
        policy = self.make(ExplorationConfig(kappa_initial=1e8))
        lo = np.zeros(N_FEATURES)
        hi = np.zeros(N_FEATURES)
        lo[0] = hi[0] = 1.0
        hi[1] = 2.0
        model = policy.store.get("m0", "c0")
        model.weights[1] = 1.0
        policy.store.put("m0", "c0", model)
        cands = [candidate_factory("hi", hi), candidate_factory("lo", lo)]
        ranking = policy.select(as_round(cands), rng, 1)
        assert ranking.order == ["hi", "lo"]
        assert ranking.scores["hi"] > ranking.scores["lo"]
        assert set(ranking.sampled) == {"hi", "lo"}

    def test_select_does_not_materialize_or_mutate_models(self, rng, candidate_factory, as_round):
        policy = self.make()
        cand = self.two_category_candidate(candidate_factory)
        first = policy.select(as_round([cand]), rng, 1)
        assert len(policy.store) == 0
        second = policy.select(as_round([cand]), rng, 2)
        assert first.scores == second.scores

    def test_update_steps_every_category_once_and_reports_deltas(self, candidate_factory):
        policy = self.make()
        cand = self.two_category_candidate(candidate_factory)
        deltas = policy.update(cand, 1)
        assert [(m, c) for m, c, _, _ in deltas] == [("m0", "cA"), ("m0", "cB")]
        assert [n for _, _, _, n in deltas] == [1, 1]
        expected_a = CategoryModel(np.zeros(N_FEATURES))
        sgd_update(expected_a, cand.category_vectors["cA"], 1, policy.learner)
        np.testing.assert_array_equal(deltas[0][2], expected_a.weights)
        # Reported weights are copies, insulated from later updates.
        frozen = deltas[0][2].copy()
        policy.update(cand, 0)
        np.testing.assert_array_equal(deltas[0][2], frozen)

    def test_kappa_schedule_consumes_round_number(self, candidate_factory, as_round):
        # With linear growth, round 1 uses the initial kappa (origin t=0).
        policy = self.make(
            ExplorationConfig(kappa_initial=5.0, kappa_schedule="linear_growth",
                              kappa_growth_rate=1.0)
        )
        x = np.zeros(N_FEATURES)
        x[0] = 1.0
        cands = [candidate_factory("o0", x)]
        draws_round_1 = [
            policy.select(as_round(cands), np.random.default_rng(s), 1).sampled["o0"] for s in range(300)
        ]
        draws_round_9 = [
            policy.select(as_round(cands), np.random.default_rng(s), 9).sampled["o0"] for s in range(300)
        ]
        assert np.var(draws_round_9) < np.var(draws_round_1)


class TestTieBreaking:
    def test_equal_scores_order_lexicographically(self, rng, candidate_factory, as_round):
        policy = LinUCBPolicy(dim=3)
        x = np.array([1.0, 0.5, 0.0])
        cands = [candidate_factory(oid, x) for oid in ("zz", "aa", "mm")]
        ranking = policy.select(as_round(cands), rng, 1)
        assert ranking.order == ["aa", "mm", "zz"]

    def test_ranking_top_property(self):
        r = Ranking(order=["b", "a"], scores={"a": 0.1, "b": 0.2})
        assert r.top == "b"


class TestFactory:
    def test_all_known_policies_constructed(self):
        learner = LearnerConfig()
        expl = ExplorationConfig()
        for name in POLICY_NAMES:
            policy = make_policy(name, learner, expl)
            assert policy.name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            make_policy("ucb1", LearnerConfig(), ExplorationConfig())

    def test_parameters_reach_the_policies(self):
        learner = LearnerConfig()
        expl = ExplorationConfig()
        lin = make_policy("linucb", learner, expl, alpha_explore=0.7, linucb_l2=3.0)
        assert lin.alpha_explore == 0.7
        assert lin.A[0, 0] == 3.0
        ts = make_policy("ts", learner, expl, ts_v=0.5, ts_l2=2.0)
        assert ts.v == 0.5
        eg = make_policy("egreedy", learner, expl, epsilon=0.25, epsilon_decay="inverse_t")
        assert eg.epsilon == 0.25 and eg.decay == "inverse_t"
        store = ModelStore()
        camb = make_policy("camb", learner, expl, store=store)
        assert camb.store is store


def ordered(scores):
    """The (-score, id) order that rankings follow."""
    return sorted(scores, key=lambda oid: (-scores[oid], oid))


def array_round(rng, categories_per_offer, shares=None, mf_scores=None, member="m0", ids=None):
    """An OfferRound through make_round, with standard-normal rows (bias 1)."""
    ids = ids or [f"o{k:02d}" for k in range(len(categories_per_offer))]
    contexts = {}
    for oid, cats in zip(ids, categories_per_offer):
        rows = {c: rng.normal(size=N_FEATURES) for c in cats}
        for x in rows.values():
            x[0] = 1.0
        contexts[oid] = rows
    if mf_scores is None:
        mf_scores = rng.normal(0.0, 0.5, len(ids))
    raw = stack_contexts(contexts, member=member, mf_scores=mf_scores)
    if shares is not None:
        raw.shares = np.array([shares.get(c, 0.0) for c in raw.categories])
    return make_round(raw)


class TestCambArrayScoring:
    """select scores a round with arrays; ModelStore.predict and
    aggregate_offer per candidate are the reference."""

    def policy(self, exploration=None, **learner):
        return CambPolicy(ModelStore(), LearnerConfig(**learner), exploration or ExplorationConfig())

    def check(self, policy, offers, t=1):
        before = len(policy.store)
        ranking = policy.select(offers, np.random.default_rng(5), t)
        assert len(policy.store) == before  # reads materialize nothing
        for k in range(len(offers)):
            cand = offers.candidate(k)
            probs = {c: policy.store.predict(cand.member_id, c, x) for c, x in cand.category_vectors.items()}
            expected = aggregate_offer(probs, cand.shares, cand.mf_score, policy.learner)
            assert ranking.scores[cand.offer_id] == pytest.approx(expected, rel=0, abs=1e-12)
        return ranking

    def test_seen_and_unseen_pairs_uneven_shares_and_mf(self, rng):
        policy = self.policy(mf_bias_coeff=0.8)
        for c in ("c0", "c2", "c3"):
            set_weights(policy.store, "m0", c, rng.normal(0.0, 0.6, N_FEATURES))
        set_weights(policy.store, "m1", "c1", 5.0)  # another member's pair is never read
        offers = array_round(
            rng, [["c0", "c1", "c2"], ["c3"], ["c1", "c4"], ["c0", "c3"], ["c5", "c6"]],
            shares={"c0": 0.55, "c1": 0.05, "c2": 0.25, "c3": 0.15},
        )
        assert len(set(offers.weights.tolist())) > 2
        self.check(policy, offers)

    def test_probabilities_at_the_logit_clamp(self, rng):
        policy = self.policy()
        set_weights(policy.store, "m0", "c0", 60.0)
        set_weights(policy.store, "m0", "c1", -60.0)
        contexts = {"o00": {"c0": np.ones(N_FEATURES)}, "o01": {"c1": np.ones(N_FEATURES)},
                    "o02": {"c0": np.ones(N_FEATURES), "c1": np.ones(N_FEATURES)}, "o03": {"c2": np.ones(N_FEATURES)}}
        ranking = self.check(policy, make_round(stack_contexts(contexts)))
        assert ranking.scores["o00"] == pytest.approx(1.0 - LOGIT_CLAMP, rel=1e-9)
        assert ranking.scores["o01"] == pytest.approx(LOGIT_CLAMP, rel=1e-9)

    def test_one_offer_round(self, rng):
        policy = self.policy()
        set_weights(policy.store, "m0", "c1", rng.normal(0.0, 0.6, N_FEATURES))
        ranking = self.check(policy, array_round(rng, [["c1", "c2"]], shares={"c1": 0.9, "c2": 0.1}))
        assert ranking.order == ["o00"]

    def test_draws_follow_sorted_offer_ids(self, rng):
        # "o100" sorts before "o11": draws go in sorted-id order, not in the
        # round's offer order, exactly as sample_scores makes them.
        exploration = ExplorationConfig(kappa_initial=3.0)
        policy = self.policy(exploration)
        ids = [f"o{k}" for k in range(120)]
        offers = array_round(rng, [["c0"]] * len(ids), ids=ids)
        ranking = policy.select(offers, np.random.default_rng(11), 1)
        reference_rng = np.random.default_rng(11)
        expected = sample_scores(ranking.scores, 3.0, reference_rng, exploration.probability_clamp)
        assert ranking.sampled == expected
        assert ranking.order == ordered(expected)


class TestBaselineArrayScoring:
    def ridge_round(self, rng, n=7):
        offers = array_round(rng, [["c0", "c1"]] * n, shares={"c0": 0.3, "c1": 0.7})
        return offers, [offers.candidate(k) for k in range(n)]

    def trained(self, policy, rng, candidates):
        for _ in range(40):
            policy.update(candidates[int(rng.integers(len(candidates)))], int(rng.integers(2)))
        return policy

    def test_linucb_scores_match_per_candidate_formula(self, rng):
        offers, cands = self.ridge_round(rng)
        policy = self.trained(LinUCBPolicy(alpha_explore=0.7, l2_lambda=1.5), rng, cands)
        ranking = policy.select(offers, rng, 1)
        theta = policy.theta()
        for c in cands:
            x = c.offer_vector
            expected = float(x @ theta) + 0.7 * np.sqrt(float(x @ np.linalg.solve(policy.A, x)))
            assert ranking.scores[c.offer_id] == pytest.approx(expected, rel=0, abs=1e-12)
            assert policy.score(x) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_ts_scores_and_draws_match_per_candidate_formula(self, rng):
        offers, cands = self.ridge_round(rng)
        policy = self.trained(ThompsonPolicy(v=0.5, l2_lambda=1.0), rng, cands)
        ranking = policy.select(offers, np.random.default_rng(4), 1)
        mu = policy.posterior_mean()
        z = np.random.default_rng(4).standard_normal(len(mu))
        theta = mu + 0.5 * np.linalg.solve(np.linalg.cholesky(policy.A).T, z)
        for c in cands:
            assert ranking.scores[c.offer_id] == pytest.approx(float(c.offer_vector @ mu), rel=0, abs=1e-12)
            assert ranking.sampled[c.offer_id] == pytest.approx(float(c.offer_vector @ theta), rel=0, abs=1e-12)
        assert ranking.order == ordered(ranking.sampled)

    def test_egreedy_scores_match_per_candidate_formula(self, rng):
        offers, cands = self.ridge_round(rng)
        policy = self.trained(EpsilonGreedyPolicy(epsilon=0.0, learner=LearnerConfig(learning_rate=0.3)), rng, cands)
        ranking = policy.select(offers, rng, 1)
        for c in cands:
            expected = predict_category(policy.model, c.offer_vector)
            assert ranking.scores[c.offer_id] == pytest.approx(expected, rel=0, abs=1e-12)
        assert ranking.order == ordered(ranking.scores)


class TestRoundRanking:
    @pytest.mark.parametrize("n", [1, 5, 130])
    def test_ties_rank_by_offer_id(self, rng, n):
        ids = [f"o{k}" for k in rng.permutation(n)]  # "o100" sorts before "o11"
        offers = array_round(rng, [["c0"]] * n, ids=ids)
        scores = rng.choice([0.25, 0.5, -0.0, 0.0], size=n)  # many ties, -0.0 equal to 0.0
        ranking = offers.ranking(scores.tolist())
        assert ranking.order == ordered(dict(zip(ids, scores.tolist())))
        sampled = rng.choice([0.1, 0.9], size=n)
        ranking = offers.ranking(scores.tolist(), sampled.tolist())
        assert ranking.order == ordered(dict(zip(ids, sampled.tolist())))
        assert ranking.scores == dict(zip(ids, scores.tolist()))

    def test_random_policy_permutes_sorted_ids(self, rng):
        ids = ["o11", "o100", "o2"]
        offers = array_round(rng, [["c0"]] * 3, ids=ids)
        order = RandomPolicy().select(offers, np.random.default_rng(8), 1).order
        expected = sorted(ids)
        assert order == [expected[i] for i in np.random.default_rng(8).permutation(3)]

    def test_len_is_the_offer_count(self, rng):
        offers = array_round(rng, [["c0", "c1", "c2"], ["c1"], ["c3", "c4"]])
        assert len(offers) == 3 and len(offers.X) == 6

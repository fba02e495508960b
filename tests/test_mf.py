import csv
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import offerbandit
from conftest import transaction_log
from offerbandit.cli import main
from offerbandit.config import RunConfig
from offerbandit.data import MF_SCORE_FIELDS, Offer, ingest_mf_scores, ingest_offers, ingest_transactions
from offerbandit.datagen import generate_dataset
from offerbandit.errors import ConfigError
from offerbandit.mf import (
    ALSConfig,
    als_factorize,
    build_count_matrix,
    member_offer_scores,
    reconstruction_error,
    write_mf_scores,
)


def tx(member, category, day=date(2024, 3, 1)):
    return member, category, "b1", day


def offer(offer_id, categories):
    return Offer(offer_id, frozenset(categories), frozenset({"b1"}), 1.0,
                 date(2024, 1, 1), date(2024, 12, 31), 1)


def csv_writer_bytes(path, scores, members, offer_ids):
    """The file that csv.writer writes for the scores' (member, offer,
    float) rows, in members x offers row-major order."""
    rows = np.asarray(scores, dtype=float).reshape(len(members), len(offer_ids)).tolist()
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MF_SCORE_FIELDS)
        writer.writerows((m, o, score) for m, row in zip(members, rows) for o, score in zip(offer_ids, row))
    return Path(path).read_bytes()


class TestCountMatrix:
    def test_counts_events_per_member_category(self):
        transactions = [
            tx("m1", "cA"), tx("m1", "cA"), tx("m1", "cB"),
            tx("m2", "cB"),
        ]
        counts, members, categories = build_count_matrix(transaction_log(transactions))
        assert members == ["m1", "m2"]
        assert categories == ["cA", "cB"]
        np.testing.assert_array_equal(counts, [[2.0, 1.0], [0.0, 1.0]])

    def test_empty_transactions_give_empty_matrix(self):
        counts, members, categories = build_count_matrix(transaction_log([]))
        assert counts.shape == (0, 0)
        assert members == [] and categories == []


class TestALS:
    def test_rank_one_matrix_recovered(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(1.0, 3.0, size=12)
        v = rng.uniform(1.0, 3.0, size=9)
        matrix = np.outer(u, v)
        cfg = ALSConfig(rank=1, iterations=50, regularization=1e-3, seed=0)
        U, V = als_factorize(matrix, cfg)
        assert reconstruction_error(matrix, U, V) < 0.05

    def test_error_decreases_with_more_factors(self):
        rng = np.random.default_rng(8)
        matrix = rng.poisson(3.0, size=(20, 10)).astype(float)
        errors = []
        for rank in (1, 4, 8):
            U, V = als_factorize(matrix, ALSConfig(rank=rank, iterations=30,
                                                   regularization=1e-2, seed=1))
            errors.append(reconstruction_error(matrix, U, V))
        assert errors[0] > errors[1] > errors[2]

    def test_same_seed_same_factors(self):
        matrix = np.arange(12, dtype=float).reshape(3, 4) + 1.0
        cfg = ALSConfig(rank=2, iterations=10, regularization=0.1, seed=7)
        U1, V1 = als_factorize(matrix, cfg)
        U2, V2 = als_factorize(matrix, cfg)
        np.testing.assert_array_equal(U1, U2)
        np.testing.assert_array_equal(V1, V2)

    def test_rejects_bad_matrices(self):
        cfg = ALSConfig(rank=1)
        with pytest.raises(ValueError):
            als_factorize(np.zeros((0, 0)), cfg)
        with pytest.raises(ValueError):
            als_factorize(np.zeros(5), cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ALSConfig(rank=0)
        with pytest.raises(ConfigError):
            ALSConfig(iterations=0)
        with pytest.raises(ConfigError):
            ALSConfig(regularization=-0.1)

    def test_all_zero_matrix_cannot_be_scored(self):
        U = np.ones((2, 1))
        V = np.ones((3, 1))
        with pytest.raises(ValueError, match="all-zero"):
            reconstruction_error(np.zeros((2, 3)), U, V)


class TestOfferScores:
    def test_mean_over_offer_categories(self):
        # One latent factor: affinities are u_i * v_j, so the offer score
        # is the mean over its categories exactly.
        U = np.array([[2.0], [3.0]])
        V = np.array([[1.0], [4.0], [0.5]])
        categories = ["cA", "cB", "cC"]
        offers = [offer("o1", {"cA", "cB"}), offer("o2", {"cC"})]
        offer_ids, scores = member_offer_scores(U, V, categories, offers)
        assert offer_ids == ["o1", "o2"]
        assert scores.shape == (2, 2)
        assert scores[0, 0] == pytest.approx((2.0 * 1.0 + 2.0 * 4.0) / 2)
        assert scores[1, 1] == pytest.approx(3.0 * 0.5)

    def test_offers_with_no_known_categories_are_skipped(self):
        U = np.ones((1, 1))
        V = np.ones((1, 1))
        offers = [offer("o1", {"cUnknown"}), offer("o2", {"cA"})]
        offer_ids, scores = member_offer_scores(U, V, ["cA"], offers)
        assert offer_ids == ["o2"]
        assert scores.shape == (1, 1)

    def test_partially_known_offers_average_known_categories_only(self):
        U = np.array([[1.0]])
        V = np.array([[3.0]])
        offers = [offer("o1", {"cA", "cUnknown"})]
        offer_ids, scores = member_offer_scores(U, V, ["cA"], offers)
        assert offer_ids == ["o1"]
        assert scores[0, 0] == pytest.approx(3.0)

    def test_each_score_sums_as_the_members_own_product(self, tmp_path):
        # The bits of every score are pinned: the mean over the offer's
        # sorted known categories of that member's U[i] @ V.T. One U @ V.T
        # for all members, or a mean of per-category products, sums in
        # another order and changes the written file.
        paths = generate_dataset(tmp_path, seed=5, n_members=40, n_offers=60)
        counts, members, categories = build_count_matrix(ingest_transactions(paths["transactions"]).records)
        U, V = als_factorize(counts, ALSConfig())
        offers = ingest_offers(paths["offers"]).records
        offer_ids, scores = member_offer_scores(U, V, categories, offers)
        assert offer_ids == sorted(o.offer_id for o in offers)
        cols = {o.offer_id: [categories.index(c) for c in sorted(o.category_ids)] for o in offers}
        expected = np.array([[(U[i] @ V.T)[cols[o]].mean() for o in offer_ids] for i in range(len(members))])
        assert scores.tobytes() == expected.tobytes()

    def test_written_scores_round_trip_through_ingest(self, tmp_path):
        scores = np.array([[0.25, 7.0], [3.0, -1.5]])
        path = tmp_path / "mf_scores.csv"
        write_mf_scores(path, scores.ravel(), ["m1", "m2"], ["o1", "o9"])
        table, issues = ingest_mf_scores(path)
        assert issues == []
        assert len(table) == 4
        assert table.score("m1", "o1") == pytest.approx(0.25)
        assert table.score("m1", "o9") == pytest.approx(7.0)
        assert table.score("m2", "o1") == pytest.approx(3.0)
        assert table.score("m2", "o9") == pytest.approx(-1.5)
        assert table.score("m1", "oMissing") == 0.0


class TestWriteScores:
    MEMBERS = ["m,1", 'say "hi"', "two\nlines", " lead", "m%s", "plain"]
    OFFERS = ["o,1", 'o"2', "o\r\n3", " o4", "o%d%%"]
    VALUES = [0.0, -0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, 1 / 3, -2.5]

    def grid(self):
        # Row i holds values i, i+1, i, i+2, i+1: repeats within a row and
        # across rows, with 0.0 and -0.0 in the same file.
        cols = np.array([0, 1, 0, 2, 1])
        return np.array(self.VALUES)[(np.arange(len(self.MEMBERS))[:, None] + cols) % len(self.VALUES)]

    @pytest.mark.parametrize("layout", [
        lambda grid: grid.ravel(),
        lambda grid: np.ascontiguousarray(grid.T).T.ravel(),
        lambda grid: np.repeat(grid.ravel(), 2)[::2],
    ], ids=["contiguous", "transposed", "strided"])
    def test_bytes_equal_csv_writer(self, tmp_path, layout):
        scores = layout(self.grid())
        np.testing.assert_array_equal(scores, self.grid().ravel())
        write_mf_scores(tmp_path / "mf.csv", scores, self.MEMBERS, self.OFFERS)
        expected = csv_writer_bytes(tmp_path / "oracle.csv", scores, self.MEMBERS, self.OFFERS)
        assert (tmp_path / "mf.csv").read_bytes() == expected
        assert b",-0.0\r\n" in expected and b",0.0\r\n" in expected

    @pytest.mark.parametrize("members", [["m1", "m2"], []])
    def test_zero_offers_write_the_header_only(self, tmp_path, members):
        write_mf_scores(tmp_path / "mf.csv", np.zeros(0), members, [])
        assert (tmp_path / "mf.csv").read_bytes() == b"member_id,offer_id,score\r\n"

    def test_scores_of_another_size_are_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_mf_scores(tmp_path / "mf.csv", np.zeros(5), ["m1", "m2"], ["o1", "o2"])


class TestEndToEnd:
    def test_transactions_to_scores_pipeline(self):
        rng = np.random.default_rng(11)
        transactions = []
        for m in range(6):
            for c in range(4):
                for _ in range(int(rng.integers(1, 6))):
                    transactions.append(tx(f"m{m}", f"c{c}"))
        counts, members, categories = build_count_matrix(transaction_log(transactions))
        U, V = als_factorize(counts, ALSConfig(rank=3, iterations=30,
                                               regularization=0.05, seed=2))
        offers = [offer("o1", {"c0", "c1"}), offer("o2", {"c3"})]
        offer_ids, scores = member_offer_scores(U, V, categories, offers)
        assert offer_ids == ["o1", "o2"]
        assert scores.shape == (len(members), len(offers))
        # Reconstructed affinities track the actual counts closely enough
        # that the offer score correlates with the member's purchase volume.
        recon = U @ V.T
        assert np.corrcoef(recon.ravel(), counts.ravel())[0, 1] > 0.9

    def test_mf_output_is_byte_identical_across_hash_seeds(self, tmp_path):
        # Offer categories are a frozenset, whose iteration order follows
        # the string hash seed; a fresh process per seed exposes any
        # dependence of the written scores on it.
        paths = generate_dataset(tmp_path / "data", seed=0, n_members=20, n_offers=40)
        config = tmp_path / "mf.json"
        config.write_text(json.dumps({"data": {k: str(v) for k, v in paths.items()}}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(offerbandit.__file__).parents[1]))
        outputs = []
        for hash_seed in ("1", "2", "3"):
            out = tmp_path / f"mf{hash_seed}"
            subprocess.run(
                [sys.executable, "-m", "offerbandit.cli", "mf", "--config", str(config), "--out", str(out)],
                env=env | {"PYTHONHASHSEED": hash_seed}, check=True, capture_output=True, timeout=120,
            )
            outputs.append((out / "mf_scores.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_mf_command_writes_what_csv_writer_writes(self, tmp_path):
        paths = generate_dataset(tmp_path / "data", seed=3, n_members=30, n_offers=50)
        config = tmp_path / "mf.json"
        config.write_text(json.dumps({"data": {k: str(v) for k, v in paths.items()}, "run": {"seed": 2}}),
                          encoding="utf-8")
        assert main(["mf", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        counts, members, categories = build_count_matrix(ingest_transactions(paths["transactions"]).records)
        U, V = als_factorize(counts, RunConfig.load(config).als_config())
        offer_ids, scores = member_offer_scores(U, V, categories, ingest_offers(paths["offers"]).records)
        expected = csv_writer_bytes(tmp_path / "oracle.csv", scores, members, offer_ids)
        assert (tmp_path / "out" / "mf_scores.csv").read_bytes() == expected

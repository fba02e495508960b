"""Alternating least squares on the member x category purchase-count matrix.

Factorizes the dense count matrix R into U V^T by alternating ridge
solves. Member-to-offer affinity is the mean of the member's factor dot
products over the offer's categories; those scores feed the mf_score
feature and the offer-level bias.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import MF_SCORE_FIELDS, Offer, TransactionLog
from .errors import ConfigError


@dataclass
class ALSConfig:
    rank: int = 8
    iterations: int = 20
    regularization: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.regularization < 0:
            raise ConfigError(f"regularization must be >= 0, got {self.regularization}")


def build_count_matrix(log: TransactionLog) -> tuple[np.ndarray, list[str], list[str]]:
    """Dense member x category matrix of purchase-event counts; members
    and categories in sorted order."""
    members, categories = log.members, log.categories
    counts = np.bincount(log.member * len(categories) + log.category, minlength=len(members) * len(categories))
    return counts.reshape(len(members), len(categories)).astype(float), members, categories


def als_factorize(matrix: np.ndarray, config: ALSConfig) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||R - U V^T||_F^2 + reg (||U||^2 + ||V||^2), all entries observed."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("count matrix must be a non-empty 2-d array")
    n_rows, n_cols = matrix.shape
    rng = np.random.default_rng(config.seed)
    U = rng.normal(0.0, 0.1, size=(n_rows, config.rank))
    V = rng.normal(0.0, 0.1, size=(n_cols, config.rank))
    reg_eye = config.regularization * np.eye(config.rank)
    for _ in range(config.iterations):
        U = np.linalg.solve(V.T @ V + reg_eye, V.T @ matrix.T).T
        V = np.linalg.solve(U.T @ U + reg_eye, U.T @ matrix).T
    return U, V


def reconstruction_error(matrix: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
    """Relative Frobenius error of the factorization."""
    denom = float(np.linalg.norm(matrix))
    if denom == 0.0:
        raise ValueError("cannot score reconstruction of an all-zero matrix")
    return float(np.linalg.norm(matrix - U @ V.T) / denom)


def member_offer_scores(
    U: np.ndarray,
    V: np.ndarray,
    categories: Sequence[str],
    offers: Sequence[Offer],
) -> tuple[list[str], np.ndarray]:
    """The sorted ids of the offers with a category in the factorization,
    and a members x offers array of predicted affinities: each the mean
    factor product over the offer's categories that appear in it."""
    c_idx = {c: j for j, c in enumerate(categories)}
    # Sorted, so the mean sums in the same order in every process;
    # frozenset order follows the string hash seed.
    cols = {o.offer_id: tuple(c_idx[c] for c in sorted(o.category_ids) if c in c_idx) for o in offers}
    offer_ids = sorted(o for o, c in cols.items() if c)
    # One product per member, as U[i] @ V.T: a single U @ V.T sums in
    # another order and changes the written scores.
    affinities = np.array([U[i] @ V.T for i in range(len(U))]).reshape(len(U), len(V))
    # Offers with the same categories share one mean.
    means = {c: affinities[:, c].mean(axis=1) for c in {cols[o] for o in offer_ids}}
    scores = np.array([means[cols[o]] for o in offer_ids]).reshape(len(offer_ids), len(U))
    return offer_ids, scores.T


def write_mf_scores(path: str | Path, scores: np.ndarray, members: Sequence[str], offer_ids: Sequence[str]) -> None:
    """Write the members x offers scores, flattened row-major, one row per
    (member, offer) pair, with the bytes csv.writer writes for them.

    A member's scores hold one mean per distinct category set, so each
    distinct value is formatted once, by float.__repr__ as csv.writer
    does, and the rows are filled in from those strings. Each id is
    quoted once, by csv.writer."""
    # Distinct by bit pattern: np.unique on floats merges -0.0 with 0.0,
    # whose reprs differ.
    bits, inverse = np.unique(np.asarray(scores, dtype=float).view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    rows = texts[inverse.reshape(len(members), len(offer_ids))].tolist()
    # A member's lines are one %-template: its id before each offer's
    # "offer,%s\r\n", so ids have their "%" doubled.
    parts = [""] + [field.replace("%", "%%") + ",%s\r\n" for field in _csv_fields(offer_ids)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(MF_SCORE_FIELDS)
        if offer_ids:
            for member, row in zip(_csv_fields(members), rows):
                fh.write((member.replace("%", "%%") + ",").join(parts) % tuple(row))


def _csv_fields(values: Sequence[str]) -> list[str]:
    """Each value as csv.writer writes it as one field of a row of several
    (a row of one empty field is written quoted)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[:-3])  # the empty field's "," and "\r\n"
    return fields

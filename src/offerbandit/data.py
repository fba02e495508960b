"""Domain records and file ingestion for retail offer logs.

Four inputs drive the engine: a transaction log (CSV), an offer catalog
(JSONL), an impression log (JSONL) and an optional table of
matrix-factorization affinity scores (CSV). Ingestion is skip-and-tally:
malformed records are counted with a reason and never abort the run. The
only fatal conditions are a missing file and a transaction log that yields
zero valid rows.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import Iterable, Sequence


class IngestError(RuntimeError):
    """Fatal ingestion failure: missing input file or no usable rows."""


TRANSACTION_FIELDS = ("member_id", "category_id", "brand_id", "event_date", "quantity")
MF_SCORE_FIELDS = ("member_id", "offer_id", "score")


@dataclass(frozen=True)
class Transaction:
    """One purchase event from the historical log."""

    member_id: str
    category_id: str
    brand_id: str
    event_date: date
    quantity: int


@dataclass(frozen=True)
class Offer:
    """A catalog entry describing one clippable offer."""

    offer_id: str
    category_ids: frozenset[str]
    brand_ids: frozenset[str]
    discount_value: float
    start_date: date
    end_date: date
    num_items: int

    def active_on(self, day: date) -> bool:
        return self.start_date <= day <= self.end_date

    def duration_days(self) -> int:
        # At least one day so that recency stays well defined for
        # offers whose start and end coincide.
        return max((self.end_date - self.start_date).days, 1)


@dataclass(frozen=True)
class Impression:
    """One gallery view: the offers a member saw and which they clipped."""

    timestamp: datetime
    member_id: str
    offers_shown: tuple[str, ...]
    clipped: frozenset[str]


@dataclass
class MFScoreTable:
    """Sparse (member, offer) affinity scores with a default for misses."""

    entries: dict[tuple[str, str], float] = field(default_factory=dict)
    default_score: float = 0.0

    def score(self, member_id: str, offer_id: str) -> float:
        return self.entries.get((member_id, offer_id), self.default_score)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class IngestResult:
    """Parsed records plus the (record_index, reason) tally of skipped rows.

    record_index is the zero-based position of the record in the source
    file, not counting the CSV header.
    """

    records: list
    issues: list[tuple[int, str]]


def _open_checked(path: str | Path):
    p = Path(path)
    if not p.is_file():
        raise IngestError(f"missing input file: {p}")
    return p.open(newline="", encoding="utf-8")


def ingest_transactions(path: str | Path) -> IngestResult:
    """Read the transaction CSV, sorted by event_date ascending (stable).

    Raises IngestError if the file is missing, the header is wrong, or no
    valid rows remain after validation.
    """
    records: list[Transaction] = []
    issues: list[tuple[int, str]] = []
    with _open_checked(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != TRANSACTION_FIELDS:
            raise IngestError(f"bad transaction header in {path}: {header}")
        for idx, row in enumerate(reader):
            try:
                records.append(_parse_transaction(row))
            except ValueError as exc:
                issues.append((idx, str(exc)))
    if not records:
        raise IngestError(f"no valid transactions in {path}")
    records.sort(key=lambda t: t.event_date)
    return IngestResult(records, issues)


def _parse_transaction(row: Sequence[str]) -> Transaction:
    if len(row) != 5:
        raise ValueError(f"expected 5 fields, got {len(row)}")
    member, category, brand, day, qty = (f.strip() for f in row)
    if not member or not category or not brand:
        raise ValueError("empty id field")
    try:
        event_date = date.fromisoformat(day)
    except ValueError:
        raise ValueError(f"bad event_date {day!r}") from None
    try:
        quantity = int(qty)
    except ValueError:
        raise ValueError(f"bad quantity {qty!r}") from None
    if quantity < 1:
        raise ValueError(f"quantity must be positive, got {quantity}")
    return Transaction(member, category, brand, event_date, quantity)


def ingest_offers(path: str | Path) -> IngestResult:
    """Read the offer catalog JSONL. Invalid records are tallied."""
    records: list[Offer] = []
    issues: list[tuple[int, str]] = []
    seen: set[str] = set()
    with _open_checked(path) as fh:
        for idx, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                offer = _parse_offer(json.loads(line))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                issues.append((idx, f"bad offer record: {exc}"))
                continue
            if offer.offer_id in seen:
                issues.append((idx, f"duplicate offer_id {offer.offer_id}"))
                continue
            seen.add(offer.offer_id)
            records.append(offer)
    return IngestResult(records, issues)


def _check_record(obj, array_keys: Sequence[str]) -> None:
    """A JSONL record must be an object, and its id lists JSON arrays: a
    string would split into characters."""
    if not isinstance(obj, dict):
        raise ValueError(f"record must be a JSON object, got {obj!r}")
    for key in array_keys:
        if not isinstance(obj.get(key, []), list):
            raise ValueError(f"{key} must be a JSON array, got {obj[key]!r}")


def _parse_offer(obj: dict) -> Offer:
    _check_record(obj, ("category_ids", "brand_ids"))
    categories = frozenset(str(c) for c in obj["category_ids"])
    if not categories:
        raise ValueError("category_ids must be non-empty")
    start = date.fromisoformat(obj["start_date"])
    end = date.fromisoformat(obj["end_date"])
    if start > end:
        raise ValueError(f"start_date {start} after end_date {end}")
    value = obj["discount_value"]
    # bool is an int subclass, and float() would parse a string.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"discount_value must be a JSON number, got {value!r}")
    value = float(value)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"discount_value must be finite and >= 0, got {value}")
    num_items = obj["num_items"]
    # bool is an int subclass; the bound keeps float(num_items) finite.
    if isinstance(num_items, bool) or not isinstance(num_items, int) or not 1 <= num_items <= sys.float_info.max:
        raise ValueError(f"num_items must be a JSON integer from 1 to {sys.float_info.max:g}, got {num_items!r}")
    return Offer(
        offer_id=str(obj["offer_id"]),
        category_ids=categories,
        brand_ids=frozenset(str(b) for b in obj.get("brand_ids", [])),
        discount_value=value,
        start_date=start,
        end_date=end,
        num_items=num_items,
    )


def ingest_impressions(path: str | Path) -> IngestResult:
    """Read the impression JSONL, sorted by timestamp ascending (stable).

    Records whose clipped set is not a subset of offers_shown, or that show
    an offer more than once, are rejected and tallied.
    """
    records: list[Impression] = []
    issues: list[tuple[int, str]] = []
    with _open_checked(path) as fh:
        for idx, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_parse_impression(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                issues.append((idx, f"bad impression record: {exc}"))
    records.sort(key=lambda i: i.timestamp)
    return IngestResult(records, issues)


def _parse_impression(obj: dict) -> Impression:
    _check_record(obj, ("offers_shown", "clipped"))
    shown = tuple(str(o) for o in obj["offers_shown"])
    if not shown:
        raise ValueError("offers_shown must be non-empty")
    if len(set(shown)) != len(shown):
        duplicates = sorted({o for o in shown if shown.count(o) > 1})
        raise ValueError(f"offers {duplicates} shown more than once")
    clipped = frozenset(str(o) for o in obj.get("clipped", []))
    if not clipped.issubset(shown):
        raise ValueError(f"clipped offers {sorted(clipped - set(shown))} not shown")
    return Impression(
        timestamp=datetime.fromisoformat(obj["timestamp"]),
        member_id=str(obj["member_id"]),
        offers_shown=shown,
        clipped=clipped,
    )


def ingest_mf_scores(path: str | Path, default_score: float = 0.0) -> tuple[MFScoreTable, list[tuple[int, str]]]:
    """Read the (member_id, offer_id, score) CSV into an MFScoreTable.

    Later rows overwrite earlier duplicates. Rows whose score is not a
    finite number are tallied.
    """
    table = MFScoreTable(default_score=default_score)
    issues: list[tuple[int, str]] = []
    with _open_checked(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != MF_SCORE_FIELDS:
            raise IngestError(f"bad mf score header in {path}: {header}")
        for idx, row in enumerate(reader):
            if len(row) != 3:
                issues.append((idx, f"expected 3 fields, got {len(row)}"))
                continue
            member, offer, score = (f.strip() for f in row)
            try:
                value = float(score)
                if not math.isfinite(value):
                    raise ValueError
            except ValueError:
                issues.append((idx, f"bad score {score!r}"))
                continue
            table.entries[(member, offer)] = value
    return table, issues


def catalog_orphan_issues(impressions: Iterable[Impression], offers: Iterable[Offer]) -> list[tuple[int, str]]:
    """Cross-check impressions against the catalog.

    Returns one issue per shown offer id that is absent from the catalog,
    indexed by the impression's position in the (sorted) stream.
    """
    known = {o.offer_id for o in offers}
    issues = []
    for idx, imp in enumerate(impressions):
        for oid in imp.offers_shown:
            if oid not in known:
                issues.append((idx, f"unknown offer {oid} in impression"))
    return issues


def write_validation_report(path: str | Path, issues: Sequence[tuple[int, str]]) -> None:
    """Write skip tallies as JSONL records of {record_index, reason}."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for idx, reason in issues:
            fh.write(json.dumps({"record_index": idx, "reason": reason}, sort_keys=True) + "\n")

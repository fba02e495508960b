"""Synthetic raw-log generator for demos and ingestion tests.

Produces internally consistent transaction, offer, impression and MF-score
files in the exact formats the ingesters read. Members get stable category
and brand preferences with rough replenishment cycles, so replayed data
carries learnable structure rather than pure noise.
"""

from __future__ import annotations

from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import TRANSACTION_FIELDS, Impression, Offer, write_csv, write_jsonl


def generate_transactions(
    n_members: int = 20,
    n_categories: int = 6,
    n_brands: int = 8,
    start: date = date(2024, 1, 1),
    days: int = 360,
    events_per_member: int = 40,
    seed: int = 0,
) -> list[tuple[str, str, str, date, int]]:
    """Rows of a transaction log, (member_id, category_id, brand_id,
    event_date, quantity), sorted by event_date."""
    rng = np.random.default_rng(seed)
    rows: list[tuple[str, str, str, date, int]] = []
    for m in range(n_members):
        member = f"m{m:03d}"
        prefs = rng.dirichlet(np.ones(n_categories) * 1.5)
        favorite_brand = {c: int(rng.integers(n_brands)) for c in range(n_categories)}
        for _ in range(events_per_member):
            c = int(rng.choice(n_categories, p=prefs))
            # Members mostly stick to one brand per category.
            if rng.random() < 0.7:
                b = favorite_brand[c]
            else:
                b = int(rng.integers(n_brands))
            event_date = start + timedelta(days=int(rng.integers(days)))
            rows.append((member, f"c{c:02d}", f"b{b:02d}", event_date, int(rng.integers(1, 5))))
    rows.sort(key=lambda row: row[3])
    return rows


def generate_offers(
    n_offers: int = 30,
    n_categories: int = 6,
    n_brands: int = 8,
    start: date = date(2024, 6, 1),
    days: int = 180,
    seed: int = 1,
) -> list[Offer]:
    rng = np.random.default_rng(seed)
    offers = []
    for i in range(n_offers):
        n_cats = int(rng.integers(1, 4))
        cats = frozenset(f"c{int(j):02d}" for j in rng.choice(n_categories, size=n_cats, replace=False))
        first = start + timedelta(days=int(rng.integers(days)))
        offers.append(
            Offer(
                offer_id=f"o{i:03d}",
                category_ids=cats,
                brand_ids=frozenset(f"b{int(b):02d}" for b in rng.choice(n_brands, size=int(rng.integers(1, 3)), replace=False)),
                discount_value=round(float(rng.uniform(0.5, 10.0)), 2),
                start_date=first,
                end_date=first + timedelta(days=int(rng.integers(5, 30))),
                num_items=int(rng.integers(1, 6)),
            )
        )
    return offers


def generate_impressions(
    offers: Sequence[Offer],
    n_members: int = 20,
    n_impressions: int = 400,
    seed: int = 2,
) -> list[Impression]:
    """Impressions consistent with the catalog: shown offers are active on
    the impression date; clips happen with a mildly member-biased rate."""
    rng = np.random.default_rng(seed)
    lo = min(o.start_date for o in offers)
    hi = max(o.end_date for o in offers)
    span = (hi - lo).days
    impressions = []
    made = 0
    attempts = 0
    while made < n_impressions and attempts < n_impressions * 20:
        attempts += 1
        day = lo + timedelta(days=int(rng.integers(span + 1)))
        active = sorted((o.offer_id for o in offers if o.active_on(day)))
        if len(active) < 2:
            continue
        member_idx = int(rng.integers(n_members))
        shown_n = int(rng.integers(2, min(len(active), 6) + 1))
        picks = rng.choice(len(active), size=shown_n, replace=False)
        shown = tuple(active[i] for i in sorted(picks))
        clip_rate = 0.1 + 0.4 * (member_idx / max(n_members - 1, 1))
        clipped = frozenset(oid for oid in shown if rng.random() < clip_rate)
        impressions.append(
            Impression(
                timestamp=datetime.combine(day, time(hour=int(rng.integers(8, 22)))),
                member_id=f"m{member_idx:03d}",
                offers_shown=shown,
                clipped=clipped,
            )
        )
        made += 1
    impressions.sort(key=lambda i: i.timestamp)
    return impressions


def write_transactions_csv(path: str | Path, rows: Sequence[tuple[str, str, str, date, int]]) -> None:
    write_csv(path, TRANSACTION_FIELDS, (
        [member, category, brand, event_date.isoformat(), quantity]
        for member, category, brand, event_date, quantity in rows
    ))


def write_offers_jsonl(path: str | Path, offers: Sequence[Offer]) -> None:
    write_jsonl(path, (
        {
            "offer_id": o.offer_id,
            "category_ids": sorted(o.category_ids),
            "brand_ids": sorted(o.brand_ids),
            "discount_value": o.discount_value,
            "start_date": o.start_date.isoformat(),
            "end_date": o.end_date.isoformat(),
            "num_items": o.num_items,
        }
        for o in offers
    ))


def write_impressions_jsonl(path: str | Path, impressions: Sequence[Impression]) -> None:
    write_jsonl(path, (
        {
            "timestamp": imp.timestamp.isoformat(),
            "member_id": imp.member_id,
            "offers_shown": list(imp.offers_shown),
            "clipped": sorted(imp.clipped),
        }
        for imp in impressions
    ))


def generate_dataset(
    out_dir: str | Path, seed: int = 0, *, n_members: int = 20, n_categories: int = 6, n_brands: int = 8,
    n_offers: int = 30, n_impressions: int = 400,
) -> dict[str, Path]:
    """Write a consistent demo dataset; returns the file paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    transactions = generate_transactions(
        n_members=n_members, n_categories=n_categories, n_brands=n_brands, seed=seed
    )
    offers = generate_offers(n_offers=n_offers, n_categories=n_categories, n_brands=n_brands, seed=seed + 1)
    impressions = generate_impressions(offers, n_members=n_members, n_impressions=n_impressions, seed=seed + 2)
    paths = {
        "transactions": out / "transactions.csv",
        "offers": out / "offers.jsonl",
        "impressions": out / "impressions.jsonl",
    }
    write_transactions_csv(paths["transactions"], transactions)
    write_offers_jsonl(paths["offers"], offers)
    write_impressions_jsonl(paths["impressions"], impressions)
    return paths

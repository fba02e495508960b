"""Seeded input generator for the benchmark workloads.

Writes transactions.csv, offers.jsonl and impressions.jsonl in the formats
the offerbandit ingesters read, plus the history/evaluation split of the
impression log. It imports nothing from offerbandit, so the inputs stay the
same when the program changes.

Every workload uses the same recipe, with sizes from WORKLOADS:

- members buy from a Dirichlet-weighted set of categories over 2024, mostly
  from one favourite brand per category;
- offers span 1..max_cats categories and 1..2 brands; their windows start
  between 2024-06-01 and 2024-11-27 and last min_days..max_days days;
- each impression picks a day between 2024-06-01 + max_days and 2024-11-27,
  a member and a gallery of shown offers that are all active that day; clips follow a member-level rate, raised when
  the offer covers the member's favourite category;
- impressions strictly before SPLIT_DATE form the history (backfit input),
  the rest the evaluation part (replay input).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

TX_START = date(2024, 1, 1)
TX_DAYS = 360
OFFER_START = date(2024, 6, 1)
OFFER_SPAN = 180
SPLIT_DATE = date(2024, 10, 15)


@dataclass(frozen=True)
class LogShape:
    """Size and make-up of one workload's input log."""

    members: int
    categories: int
    brands: int
    events_per_member: int
    offers: int
    max_cats: int
    min_days: int
    max_days: int
    impressions: int
    min_shown: int
    max_shown: int
    # Eval impressions are drawn from days on or after SPLIT_DATE with this
    # share of all impressions; the rest come from earlier days.
    eval_share: float


@dataclass(frozen=True)
class WorldShape:
    """The synthetic-world section and simulate settings of a workload."""

    n_categories: int
    n_members: int
    offers_per_round: int
    max_categories_per_offer: int
    world_seed: int
    rounds: int


@dataclass(frozen=True)
class Workload:
    name: str
    log: LogShape
    world: WorldShape
    explain_members: int


WORKLOADS = {
    # The ROADMAP baseline's log shape and the shipped simulate_camb world.
    "reference": Workload(
        "reference",
        LogShape(members=500, categories=6, brands=8, events_per_member=40, offers=300, max_cats=3,
                 min_days=5, max_days=30, impressions=5000, min_shown=2, max_shown=6, eval_share=0.1),
        WorldShape(n_categories=5, n_members=4, offers_per_round=5, max_categories_per_offer=3,
                   world_seed=100, rounds=600),
        explain_members=8,
    ),
    # Many members, narrow galleries: about 5 active offers, nearly all shown.
    "crowd": Workload(
        "crowd",
        LogShape(members=3000, categories=6, brands=8, events_per_member=12, offers=60, max_cats=3,
                 min_days=10, max_days=20, impressions=4000, min_shown=8, max_shown=8, eval_share=0.3),
        WorldShape(n_categories=5, n_members=2000, offers_per_round=3, max_categories_per_offer=1,
                   world_seed=300, rounds=800),
        explain_members=4,
    ),
}


def _member_id(i: int) -> str:
    return f"m{i:04d}"


def write_log(shape: LogShape, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write one workload's input files; returns their paths by name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    paths = {
        "transactions": out_dir / "transactions.csv",
        "offers": out_dir / "offers.jsonl",
        "impressions": out_dir / "impressions.jsonl",
        "history": out_dir / "history.jsonl",
        "eval": out_dir / "eval.jsonl",
    }
    favourite = _write_transactions(shape, rng, paths["transactions"])
    offers = _write_offers(shape, rng, paths["offers"])
    _write_impressions(shape, rng, offers, favourite, paths)
    return paths


def _write_transactions(shape: LogShape, rng: np.random.Generator, path: Path) -> list[int]:
    rows = []
    favourite = []
    for m in range(shape.members):
        prefs = rng.dirichlet(np.full(shape.categories, 1.5))
        favourite.append(int(np.argmax(prefs)))
        brand = rng.integers(shape.brands, size=shape.categories)
        n = shape.events_per_member
        cats = rng.choice(shape.categories, size=n, p=prefs)
        loyal = rng.random(n) < 0.7
        other = rng.integers(shape.brands, size=n)
        days = rng.integers(TX_DAYS, size=n)
        qty = rng.integers(1, 5, size=n)
        for k in range(n):
            c = int(cats[k])
            b = int(brand[c]) if loyal[k] else int(other[k])
            rows.append((int(days[k]), _member_id(m), f"c{c:02d}", f"b{b:02d}", int(qty[k])))
    rows.sort(key=lambda r: (r[0], r[1]))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["member_id", "category_id", "brand_id", "event_date", "quantity"])
        for day, member, cat, brand, qty in rows:
            writer.writerow([member, cat, brand, (TX_START + timedelta(days=day)).isoformat(), qty])
    return favourite


def _write_offers(shape: LogShape, rng: np.random.Generator, path: Path) -> list[dict]:
    # Start days, window lengths and category counts are seeded permutations
    # of fixed, evenly spread sets, so every seed gives about the same number
    # of active offers and category contexts per day.
    n = shape.offers
    starts = (np.arange(n) * OFFER_SPAN) // n + rng.integers(OFFER_SPAN // n + 1, size=n)
    lengths = rng.permutation(np.linspace(shape.min_days, shape.max_days, n).round().astype(int))
    n_cats = rng.permutation(np.arange(n) % shape.max_cats + 1)
    offers = []
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n):
            cats = sorted(f"c{int(j):02d}" for j in rng.choice(shape.categories, size=int(n_cats[i]), replace=False))
            n_brands = int(rng.integers(1, 3))
            brands = sorted(f"b{int(j):02d}" for j in rng.choice(shape.brands, size=n_brands, replace=False))
            first = OFFER_START + timedelta(days=int(min(starts[i], OFFER_SPAN - 1)))
            offer = {
                "offer_id": f"o{i:03d}",
                "category_ids": cats,
                "brand_ids": brands,
                "discount_value": round(float(rng.uniform(0.5, 10.0)), 2),
                "start_date": first.isoformat(),
                "end_date": (first + timedelta(days=int(lengths[i]))).isoformat(),
                "num_items": int(rng.integers(1, 6)),
            }
            offers.append(offer)
            fh.write(json.dumps(offer, sort_keys=True) + "\n")
    return offers


def _write_impressions(
    shape: LogShape, rng: np.random.Generator, offers: list[dict], favourite: list[int], paths: dict[str, Path]
) -> None:
    # Impressions fall on days where the catalog is in its steady state:
    # after the longest window could have filled and before offers stop
    # starting.
    first = OFFER_START + timedelta(days=shape.max_days)
    last = OFFER_START + timedelta(days=OFFER_SPAN - 1)
    active_by_day: dict[date, list[int]] = {}
    day = first
    while day <= last:
        iso = day.isoformat()
        active = [i for i, o in enumerate(offers) if o["start_date"] <= iso <= o["end_date"]]
        if len(active) >= 2:
            active_by_day[day] = active
        day += timedelta(days=1)
    history_days = [d for d in sorted(active_by_day) if d < SPLIT_DATE]
    eval_days = [d for d in sorted(active_by_day) if d >= SPLIT_DATE]
    n_eval = round(shape.impressions * shape.eval_share)
    clip_rate = 0.05 + 0.35 * rng.random(shape.members)
    rows = []
    for n, days in ((shape.impressions - n_eval, history_days), (n_eval, eval_days)):
        picks = rng.integers(len(days), size=n)
        for k in range(n):
            d = days[int(picks[k])]
            active = active_by_day[d]
            m = int(rng.integers(shape.members))
            hi = min(len(active), shape.max_shown)
            shown_n = int(rng.integers(min(shape.min_shown, hi), hi + 1))
            shown = sorted(active[int(j)] for j in rng.choice(len(active), size=shown_n, replace=False))
            fav = f"c{favourite[m]:02d}"
            clipped = [
                i for i in shown
                if rng.random() < clip_rate[m] * (2.0 if fav in offers[i]["category_ids"] else 1.0)
            ]
            stamp = datetime(d.year, d.month, d.day, int(rng.integers(8, 22)), int(rng.integers(60)), int(rng.integers(60)))
            rows.append((stamp, _member_id(m), [offers[i]["offer_id"] for i in shown],
                         [offers[i]["offer_id"] for i in clipped]))
    rows.sort(key=lambda r: (r[0], r[1]))
    with paths["impressions"].open("w", encoding="utf-8") as full, \
            paths["history"].open("w", encoding="utf-8") as hist, \
            paths["eval"].open("w", encoding="utf-8") as ev:
        for stamp, member, shown, clipped in rows:
            line = json.dumps(
                {"timestamp": stamp.isoformat(), "member_id": member, "offers_shown": shown, "clipped": clipped},
                sort_keys=True,
            ) + "\n"
            full.write(line)
            (hist if stamp.date() < SPLIT_DATE else ev).write(line)

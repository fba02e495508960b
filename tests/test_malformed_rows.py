"""Malformed input rows are skipped and tallied; they never abort a run.

Each example corrupts one field of one record of a small generated
dataset, replaces a whole JSONL line with a value that is not an object,
or damages the bytes of one line of any of the four inputs, then runs
ingest, backfit and replay on it. Every command must exit 0 and report a
nonzero skip tally in its manifest.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerbandit.cli import main
from offerbandit.data import ingest_mf_scores, ingest_transactions
from offerbandit.datagen import generate_dataset
from offerbandit.mf import write_mf_scores

LINE = None  # key that replaces the whole record with the value
MISSING = object()  # drop the field
REPEAT = object()  # show the first shown offer a second time
UNKNOWN = object()  # show an offer the catalog does not hold
RAW = object()  # key whose value maps the record's line, as bytes, to new bytes


def UNDECODABLE(line: bytes) -> bytes:
    """A byte that is not UTF-8, inside the line's first id or key."""
    return line[:2] + b"\xff" + line[2:]


def TOO_DEEP(line: bytes) -> bytes:
    """JSON nested past the interpreter's recursion limit."""
    return b"[" * 100_000


def OVERSIZED(line: bytes) -> bytes:
    """A field past the csv module's 131,072-character limit."""
    return b"x" * 200_000


INPUTS = ("transactions", "offers", "impressions", "mf_scores")
CSV_INPUTS = ("transactions", "mf_scores")

NON_OBJECTS = ([1, 2], None, 5, "abc")

CORRUPTIONS = [
    *(("offers", "discount_value", v) for v in (math.nan, math.inf, -math.inf, -1.0, "3", True, MISSING)),
    *(("offers", "num_items", v) for v in (2.7, True, 0, -2, math.nan, math.inf, 10**400, "2", MISSING)),
    *(("offers", key, MISSING) for key in ("offer_id", "category_ids", "start_date", "end_date")),
    ("offers", "category_ids", []),
    ("offers", "category_ids", "c1"),
    ("offers", "brand_ids", "b1"),
    ("offers", "end_date", "2023-01-01"),
    # Date and timestamp forms that only Python 3.11 reads.
    *(("offers", key, v) for key in ("start_date", "end_date") for v in ("20240105", "2024-W02-1")),
    *(("offers", "offer_id", v) for v in (None, "", True, ["o1"], {}, math.nan)),
    *(("offers", key, [v]) for key in ("category_ids", "brand_ids") for v in (None, "", False, [], {}, math.inf)),
    *((name, LINE, v) for name in ("offers", "impressions") for v in NON_OBJECTS),
    *(("impressions", "offers_shown", v) for v in (REPEAT, UNKNOWN, [], "o1", MISSING)),
    *(("impressions", key, MISSING) for key in ("timestamp", "member_id")),
    ("impressions", "timestamp", math.nan),
    ("impressions", "timestamp", "2024-07-01T19:00:00+02:00"),
    *(("impressions", "timestamp", v) for v in ("2024-07-01T1900", "2024-07-01T19:00:00.5", "2024-07-01T19:00:00Z")),
    *(("impressions", "member_id", v) for v in (None, "", True, ["m1"], {}, math.nan)),
    *(("impressions", key, [v]) for key in ("offers_shown", "clipped") for v in (None, "", False, [], {}, -math.inf)),
    ("impressions", "clipped", ["o_unknown"]),
    ("impressions", "clipped", "o1"),
    *(("transactions", "quantity", v) for v in ("nan", "inf", "-1", "0", "2.7", MISSING)),
    *(("transactions", "event_date", v) for v in ("NaN", "2024-13-01", "20240105", "2024-W02-1", MISSING)),
    ("transactions", "member_id", ""),
    *(("mf_scores", key, "") for key in ("member_id", "offer_id")),
    *((name, RAW, damage) for name in INPUTS for damage in (UNDECODABLE, TOO_DEEP, OVERSIZED)),
]


@pytest.fixture(scope="module")
def clean_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    paths = generate_dataset(out, seed=3, n_members=5, n_categories=3, n_brands=3, n_offers=8, n_impressions=30)
    offer_ids = sorted(json.loads(line)["offer_id"] for line in paths["offers"].read_text(encoding="utf-8").splitlines())
    paths["mf_scores"] = out / "mf_scores.csv"
    members = [f"m{m}" for m in range(5)]
    write_mf_scores(paths["mf_scores"], np.repeat(0.1 * np.arange(5), len(offer_ids)), members, offer_ids)
    return {name: Path(p).read_text(encoding="utf-8") for name, p in paths.items()}


def corrupt_jsonl(text: str, index: int, key: str, value) -> str:
    lines = text.splitlines()
    obj = json.loads(lines[index])
    if key is LINE:
        obj = value
    elif value is MISSING:
        del obj[key]
    elif value is REPEAT:
        obj[key] = obj[key] + obj[key][:1]
    elif value is UNKNOWN:
        obj[key] = ["o_unknown"] + obj[key][1:]
    else:
        obj[key] = value
    lines[index] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def corrupt_csv(text: str, index: int, key: str, value) -> str:
    header, *rows = list(csv.reader(text.splitlines()))
    row = rows[index]
    if value is MISSING:
        del row[header.index(key)]
    else:
        row[header.index(key)] = value
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def damage_line(text: str, index: int, damage) -> bytes:
    lines = text.encode("utf-8").split(b"\n")
    lines[index] = damage(lines[index])
    return b"\n".join(lines)


def assert_tallied_not_fatal(clean_data, name, key, value, position):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for file_name, text in clean_data.items():
            data = text.encode("utf-8")
            if file_name == name:
                header = 1 if name in CSV_INPUTS else 0
                index = position % (len(text.splitlines()) - header)
                if key is RAW:
                    data = damage_line(text, index + header, value)
                else:
                    corrupt = corrupt_csv if header else corrupt_jsonl
                    data = corrupt(text, index, key, value).encode("utf-8")
            files[file_name] = tmp / f"{file_name}.data"
            files[file_name].write_bytes(data)
        config = {"data": {k: str(p) for k, p in files.items()}, "run": {"seed": 1}}
        (tmp / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        for command in ("ingest", "backfit", "replay"):
            out = tmp / command
            assert main([command, "--config", str(tmp / "cfg.json"), "--out", str(out)]) == 0, command
            tallies = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["skip_tallies"]
            assert sum(tallies.values()) > 0, (command, tallies)


@settings(max_examples=30, deadline=None)
@given(corruption=st.sampled_from(CORRUPTIONS), position=st.integers(0, 10**6))
def test_single_field_corruption_is_tallied_not_fatal(clean_data, corruption, position):
    assert_tallied_not_fatal(clean_data, *corruption, position)


@pytest.mark.parametrize("name", ["offers", "impressions"])
@pytest.mark.parametrize("value", NON_OBJECTS, ids=repr)
def test_non_object_line_is_tallied_not_fatal(clean_data, name, value):
    assert_tallied_not_fatal(clean_data, name, LINE, value, position=2)


def test_timestamp_with_utc_offset_is_tallied_not_fatal(clean_data):
    assert_tallied_not_fatal(clean_data, "impressions", "timestamp", "2024-07-01T19:00:00+02:00", position=2)


def ingest_csv(name, path):
    """(records loaded, tallied record indices) of a CSV input."""
    if name == "transactions":
        result = ingest_transactions(path)
        return len(result.records), [i for i, _ in result.issues]
    table, issues = ingest_mf_scores(path)
    return len(table), [i for i, _ in issues]


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("damage", [UNDECODABLE, TOO_DEEP, OVERSIZED], ids=["undecodable", "too-deep", "oversized"])
def test_damaged_line_is_tallied_not_fatal(clean_data, tmp_path, name, damage):
    assert_tallied_not_fatal(clean_data, name, RAW, damage, position=2)
    if name in CSV_INPUTS:
        # Only the damaged record is lost: the rows after it still load.
        clean, damaged = tmp_path / "clean.csv", tmp_path / "damaged.csv"
        clean.write_text(clean_data[name], encoding="utf-8")
        damaged.write_bytes(damage_line(clean_data[name], 3, damage))
        n_clean, clean_issues = ingest_csv(name, clean)
        assert clean_issues == []
        assert ingest_csv(name, damaged) == (n_clean - 1, [2])

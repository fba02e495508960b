"""Domain records and file ingestion for retail offer logs.

Four inputs drive the engine: a transaction log (CSV), an offer catalog
(JSONL), an impression log (JSONL) and an optional table of
matrix-factorization affinity scores (CSV). Ingestion is skip-and-tally:
malformed records are counted with a reason and never abort the run. The
only fatal conditions are a missing file and a transaction log that yields
zero valid rows. The reader of checkpoint and trajectory files and the
JSON, JSONL and CSV writers that the outputs share live here too.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import gc
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ConfigError


class IngestError(RuntimeError):
    """Fatal ingestion failure: missing input file or no usable rows."""


TRANSACTION_FIELDS = ("member_id", "category_id", "brand_id", "event_date", "quantity")
MF_SCORE_FIELDS = ("member_id", "offer_id", "score")

# The largest magnitude of an input number that becomes a feature: an mf
# score, a discount_value or a num_items (and the mf default score). The
# scaler sums squared deviations of raw features over every row of a run,
# and rows seen before the scaler is warm reach the policies unscaled,
# where LinUCB and TS add their outer products. Below 1e100 every such
# square stays below 4e200, so no sum of fewer than 1e100 rows can leave
# the float64 range (about 1.8e308). Larger values are malformed.
MAX_INPUT_MAGNITUDE = 1e100


@dataclass(eq=False)
class TransactionLog:
    """The purchase history as columns, one entry per transaction, in
    event-date order (stable: same-day rows keep their order).

    member, category and brand hold each row's code, its position in the
    sorted distinct names members, categories and brands; day holds date
    ordinals. Quantities are checked at ingest but not kept: no feature
    reads them.
    """

    members: list[str]
    categories: list[str]
    brands: list[str]
    member: np.ndarray
    category: np.ndarray
    brand: np.ndarray
    day: np.ndarray

    @classmethod
    def from_columns(cls, member_ids: Sequence[str], category_ids: Sequence[str], brand_ids: Sequence[str],
                     days: Sequence[int]) -> TransactionLog:
        """Code the id columns and put the rows in date order; days are
        date ordinals."""
        day = np.fromiter(days, dtype=np.int64, count=len(days))
        order = np.argsort(day, kind="stable")
        members, member = encode(member_ids)
        categories, category = encode(category_ids)
        brands, brand = encode(brand_ids)
        return cls(members, categories, brands, member[order], category[order], brand[order], day[order])

    def __len__(self) -> int:
        return len(self.day)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionLog):
            return NotImplemented
        names = (self.members, self.categories, self.brands) == (other.members, other.categories, other.brands)
        return names and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in ("member", "category", "brand", "day")
        )


def encode(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct values and the code of every value in turn,
    its position among them. Python's sort and dict keep ids apart that a
    numpy string array would merge, such as "m1" and "m1\x00"."""
    names = sorted(set(values))
    code = {v: i for i, v in enumerate(names)}
    return names, np.fromiter(map(code.__getitem__, values), dtype=np.int64, count=len(values))


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
    file, not counting the CSV header. The JSONL readers also give the
    record_index of each record kept, in the order of records.
    """

    records: list | TransactionLog
    issues: list[tuple[int, str]]
    record_indices: list[int] = field(default_factory=list)


# What a malformed record or state-file line can raise while it is parsed
# and checked, JSON nested past the interpreter's recursion limit included.
RECORD_ERRORS = (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError)


def _open_checked(path: str | Path):
    p = Path(path)
    if not p.is_file():
        raise IngestError(f"missing input file: {p}")
    return p.open("rb")


def _lines(fh) -> Iterator[bytes]:
    """Lines of a binary file with their endings, split where text mode
    with newline="" splits them (\n, \r, \r\n), to be decoded one by one
    so a bad byte spoils only its line. No read ends inside a \r\n. A
    UTF-8 byte-order mark before the first line, which Excel and Notepad
    write, is dropped."""
    if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        fh.seek(0)
    while block := fh.readlines(1 << 16):
        yield from b"".join(block).splitlines(keepends=True)


def _read_csv(path: str | Path, fields: Sequence[str], kind: str, parse: Callable[[list[str]], object]) -> IngestResult:
    """The skip-and-tally loop of a CSV input: check the header, then
    keep parse(row) of each row, tallying the rows parse rejects, those
    holding a line that is not valid UTF-8 and those the reader cannot
    split."""
    records: list = []
    issues: list[tuple[int, str]] = []
    undecodable: list[UnicodeDecodeError] = []

    def decoded(fh) -> Iterator[str]:
        for line in _lines(fh):
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                undecodable.append(exc)
                yield line.decode("utf-8", "replace")

    with _open_checked(path) as fh:
        reader = csv.reader(decoded(fh))
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise IngestError(f"bad {kind} header in {path}: {exc}") from None
        if header is None or tuple(h.strip() for h in header) != fields:
            raise IngestError(f"bad {kind} header in {path}: {header}")
        for idx in itertools.count():
            try:
                # The reader raises csv.Error (a field past the csv module's
                # size limit) for one record and resumes at the next line.
                if (row := next(reader, None)) is None:
                    break
                if undecodable:
                    raise undecodable[0]
                records.append(parse(row))
            except (csv.Error, *RECORD_ERRORS) as exc:
                issues.append((idx, str(exc)))
                undecodable.clear()
    return IngestResult(records, issues)


def _read_jsonl(path: str | Path, parse: Callable[[dict], object], kind: str, unique: str | None = None) -> IngestResult:
    """The skip-and-tally loop of a JSONL input: keep parse(obj) of each
    non-blank line's JSON object, tallying the lines that do not decode,
    hold another JSON value, or parse or pass parse as "bad <kind> record:
    ...", and with unique set, records whose value of that attribute an
    earlier record holds."""
    records: list = []
    issues: list[tuple[int, str]] = []
    indices: list[int] = []
    seen: set = set()
    with _open_checked(path) as fh:
        for idx, line in enumerate(_lines(fh)):
            try:
                text = line.decode("utf-8").strip()
                if not text:
                    continue
                obj = json.loads(text)
                if not isinstance(obj, dict):
                    raise ValueError(f"record must be a JSON object, got {obj!r}")
                record = parse(obj)
            except RECORD_ERRORS as exc:
                issues.append((idx, f"bad {kind} record: {exc}"))
                continue
            if unique is not None:
                key = getattr(record, unique)
                if key in seen:
                    issues.append((idx, f"duplicate {unique} {key}"))
                    continue
                seen.add(key)
            records.append(record)
            indices.append(idx)
    return IngestResult(records, issues, indices)


T = TypeVar("T")

# Lines parsed per step when a state file is read as columns, so that only
# one step's parsed objects are alive beside the columns.
SCAN_LINES = 1024


def read_versioned_jsonl(path: str | Path, kind: str, version: int, fields: Sequence[str], load: Callable[..., T],
                         check: Callable[[dict], object],
                         start: Callable[[dict], object] = lambda header: None) -> tuple[dict, T]:
    """Read a state file: a JSON header line whose feature_order_version
    must equal version, then one JSON object per non-blank line.

    start gets the header. The rest of the file is decoded once and split
    into lines where _lines splits them; each line is parsed by one C
    scan, and load gets one column per field, each holding that field of
    every line in file order, checks them whole and returns what it
    builds. Returns the header and what load returned. Only when a line
    does not decode or parse, lacks a field, or load raises, is the file
    read again line by line, each line's object going to check, so that
    the first faulty line is the one named. Every failure, including a
    line that is not valid UTF-8, JSON nested too deeply and what start
    or check raise, becomes ConfigError("<kind> <path> line <n>: <reason>").
    """
    lineno = 1
    try:
        header, texts = _split_state_file(path, kind, version)
        start(header)
        with _gc_paused():
            loaded = None if texts is None else _load_columns(texts, fields, load)
        if loaded is not None:
            return header, loaded
        with Path(path).open("rb") as fh:
            lines = _lines(fh)
            next(lines)  # the header, read above
            for lineno, line in enumerate(lines, start=2):
                text = line.decode("utf-8").strip()
                if text:
                    check(json.loads(text))
    except RECORD_ERRORS as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{kind} {path} line {lineno}: {reason}") from None
    raise RuntimeError(f"{kind} {path}: its lines pass the line checks that the column checks failed")


def _split_state_file(path: str | Path, kind: str, version: int) -> tuple[dict, list[str] | None]:
    """The header of a state file, checked for its version, and its other
    lines split where _lines splits them, stripped, blank ones left out;
    None for the lines when they are not all UTF-8."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    end = re.search(rb"\r\n?|\n", data)
    cut = end.end() if end else len(data)
    header = json.loads(data[:cut].decode("utf-8"))
    found = header.get("feature_order_version")
    if found != version:
        raise ValueError(f"{kind} feature order version {found} does not match current version {version}")
    try:
        text = str(memoryview(data)[cut:], "utf-8")
    except UnicodeDecodeError:
        return header, None
    del data  # before the lines are copied out of text
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return header, list(filter(None, map(str.strip, text.split("\n"))))


def _load_columns(texts: list[str], fields: Sequence[str], load: Callable[..., T]) -> T | None:
    """load of one column per field, each holding that field of the JSON
    object of every text; None when a text is not one JSON object holding
    every field, or load raises. The texts are parsed SCAN_LINES at a time."""
    scan = json.JSONDecoder().scan_once
    columns: list[list] = [[] for _ in fields]
    try:
        for at in range(0, len(texts), SCAN_LINES):
            chunk = texts[at:at + SCAN_LINES]
            # A text that starts no JSON value raises StopIteration, which
            # ends the map early: the ends then fall short, or none unpack.
            values, ends = zip(*map(scan, chunk, itertools.repeat(0)))
            if ends != tuple(map(len, chunk)):
                return None
            for column, field in zip(columns, fields):
                column.extend(map(operator.itemgetter(field), values))
        return load(*columns)
    except RECORD_ERRORS:
        return None


@contextlib.contextmanager
def _gc_paused():
    """Hold off the cyclic garbage collector: parsing a state file makes
    two containers a line and no cycles, so collections while it runs
    would only walk the heap again and again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def ingest_transactions(path: str | Path) -> IngestResult:
    """Read the transaction CSV into a TransactionLog, rows sorted by
    event_date ascending (stable).

    Raises IngestError if the file is missing, the header is wrong, or no
    valid rows remain after validation.
    """
    ordinals: dict[str, int] = {}  # each event_date text parsed so far

    def parse(row: Sequence[str]) -> tuple[str, str, str, int]:
        if len(row) != 5:
            raise ValueError(f"expected 5 fields, got {len(row)}")
        member, category, brand, day, qty = map(str.strip, row)
        if not member or not category or not brand:
            raise ValueError("empty id field")
        ordinal = ordinals.get(day)
        if ordinal is None:
            ordinal = ordinals[day] = _iso_date(day, "event_date").toordinal()
        try:
            quantity = int(qty)
        except ValueError:
            raise ValueError(f"bad quantity {qty!r}") from None
        if quantity < 1:
            raise ValueError(f"quantity must be positive, got {quantity}")
        return member, category, brand, ordinal

    result = _read_csv(path, TRANSACTION_FIELDS, "transaction", parse)
    if not result.records:
        raise IngestError(f"no valid transactions in {path}")
    result.records = TransactionLog.from_columns(*zip(*result.records))
    return result


# The timestamps datetime.fromisoformat reads on Python 3.10: a date, then
# optionally one separator, a time and a UTC offset. Python 3.11 reads
# more (2024-01-05T1010, a one-digit fraction, a Z suffix; 20240105 and
# 2024-W02-1 as dates), so shapes are checked first and every supported
# version takes the same rows.
_TIMESTAMP = re.compile(
    r"\d{4}-\d\d-\d\d(.\d\d(:\d\d(:\d\d(\.\d{3}(\d{3})?)?)?)?([+-]\d\d:\d\d(:\d\d(\.\d{6})?)?)?)?",
    re.ASCII | re.DOTALL,
)


def _iso_date(text, key: str) -> date:
    """date.fromisoformat of YYYY-MM-DD, the one form Python 3.10 reads;
    anything else raises ValueError("bad <key> <text>")."""
    if isinstance(text, str) and len(text) == 10 and text[4] == "-" and text[7] == "-":
        try:
            return date.fromisoformat(text)
        except ValueError:  # a field out of range, such as month 13
            pass
    raise ValueError(f"bad {key} {text!r}")


def _iso_timestamp(stamp) -> datetime:
    """datetime.fromisoformat of the forms Python 3.10 reads."""
    if isinstance(stamp, str) and _TIMESTAMP.fullmatch(stamp):
        try:
            return datetime.fromisoformat(stamp)
        except ValueError:  # a field out of range, such as month 13
            pass
    raise ValueError(f"bad timestamp {stamp!r}")


def _json_id(value, key: str) -> str:
    """An id read from JSON: a non-empty string, or a finite number in its
    str() form. Null, booleans, NaN, infinities, arrays, objects and empty
    strings raise."""
    if (type(value) is str and value) or type(value) is int or (type(value) is float and math.isfinite(value)):
        return str(value)
    raise ValueError(f"bad {key} {value!r}: ids are non-empty strings or finite numbers")


def _json_ids(values, key: str) -> list[str]:
    """The _json_id of each entry of an id list, which must be a JSON
    array: a string would split into characters."""
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a JSON array, got {values!r}")
    return [v if type(v) is str and v else _json_id(v, f"{key} entry") for v in values]


def ingest_offers(path: str | Path) -> IngestResult:
    """Read the offer catalog JSONL. Invalid records are tallied."""
    return _read_jsonl(path, _parse_offer, "offer", unique="offer_id")


def _parse_offer(obj: dict) -> Offer:
    categories = frozenset(_json_ids(obj["category_ids"], "category_ids"))
    brands = frozenset(_json_ids(obj.get("brand_ids", []), "brand_ids"))
    if not categories:
        raise ValueError("category_ids must be non-empty")
    start = _iso_date(obj["start_date"], "start_date")
    end = _iso_date(obj["end_date"], "end_date")
    if start > end:
        raise ValueError(f"start_date {start} after end_date {end}")
    value = obj["discount_value"]
    # bool is an int subclass, and float() would parse a string.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"discount_value must be a JSON number, got {value!r}")
    value = float(value)
    if not 0 <= value <= MAX_INPUT_MAGNITUDE:  # NaN fails too
        raise ValueError(f"discount_value must be a number from 0 to {MAX_INPUT_MAGNITUDE:g}, got {value}")
    num_items = obj["num_items"]
    # bool is an int subclass.
    if isinstance(num_items, bool) or not isinstance(num_items, int) or not 1 <= num_items <= MAX_INPUT_MAGNITUDE:
        raise ValueError(f"num_items must be a JSON integer from 1 to {MAX_INPUT_MAGNITUDE:g}, got {num_items!r}")
    return Offer(
        offer_id=_json_id(obj["offer_id"], "offer_id"),
        category_ids=categories,
        brand_ids=brands,
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
    result = _read_jsonl(path, _parse_impression, "impression")
    kept = sorted(zip(result.records, result.record_indices), key=lambda pair: pair[0].timestamp)
    result.records = [imp for imp, _ in kept]
    result.record_indices = [idx for _, idx in kept]
    return result


def _parse_impression(obj: dict) -> Impression:
    shown = tuple(_json_ids(obj["offers_shown"], "offers_shown"))
    clipped = frozenset(_json_ids(obj.get("clipped", []), "clipped"))
    if not shown:
        raise ValueError("offers_shown must be non-empty")
    if len(set(shown)) != len(shown):
        duplicates = sorted({o for o in shown if shown.count(o) > 1})
        raise ValueError(f"offers {duplicates} shown more than once")
    if not clipped.issubset(shown):
        raise ValueError(f"clipped offers {sorted(clipped - set(shown))} not shown")
    stamp = obj["timestamp"]
    timestamp = _iso_timestamp(stamp)
    # Features read the calendar day, which a UTC offset leaves ambiguous;
    # and aware and naive timestamps cannot be sorted together.
    if timestamp.tzinfo is not None:
        raise ValueError(f"timestamp {stamp!r} carries a UTC offset; timestamps must be naive")
    return Impression(
        timestamp=timestamp,
        member_id=_json_id(obj["member_id"], "member_id"),
        offers_shown=shown,
        clipped=clipped,
    )


def ingest_mf_scores(path: str | Path, default_score: float = 0.0) -> tuple[MFScoreTable, list[tuple[int, str]]]:
    """Read the (member_id, offer_id, score) CSV into an MFScoreTable.

    Later rows overwrite earlier duplicates. Rows whose score is not a
    number of magnitude at most MAX_INPUT_MAGNITUDE are tallied.
    """
    result = _read_csv(path, MF_SCORE_FIELDS, "mf score", _parse_mf_score)
    return MFScoreTable(dict(result.records), default_score), result.issues


def _parse_mf_score(row: Sequence[str]) -> tuple[tuple[str, str], float]:
    if len(row) != 3:
        raise ValueError(f"expected 3 fields, got {len(row)}")
    member, offer, score = map(str.strip, row)
    if not member or not offer:
        raise ValueError("empty id field")
    try:
        value = float(score)
    except ValueError:
        value = math.nan
    if not abs(value) <= MAX_INPUT_MAGNITUDE:  # NaN fails too
        raise ValueError(f"bad score {score!r}: scores are numbers of magnitude at most {MAX_INPUT_MAGNITUDE:g}")
    return (member, offer), value


def catalog_orphan_issues(impressions: IngestResult, offers: Iterable[Offer]) -> list[tuple[int, str]]:
    """Cross-check ingested impressions against the catalog.

    Returns one issue per shown offer id that is absent from the catalog,
    indexed by its impression's record_index, in file order.
    """
    known = {o.offer_id for o in offers}
    issues = [
        (idx, f"unknown offer {oid} in impression")
        for idx, imp in zip(impressions.record_indices, impressions.records)
        for oid in imp.offers_shown
        if oid not in known
    ]
    return sorted(issues, key=lambda issue: issue[0])


def write_validation_report(path: str | Path, issues: Sequence[tuple[int, str]]) -> None:
    """Write skip tallies as JSONL records of {record_index, reason}."""
    write_jsonl(path, ({"record_index": idx, "reason": reason} for idx, reason in issues))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then the rows."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, obj) -> None:
    """Write one indented JSON document with sorted keys."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: str | Path, objects: Iterable) -> None:
    """Write one JSON value with sorted keys per line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(obj, sort_keys=True) + "\n" for obj in objects)

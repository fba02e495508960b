"""Domain records and file ingestion for retail offer logs.

Four inputs drive the engine: a transaction log (CSV), an offer catalog
(JSONL), an impression log (JSONL) and an optional table of
matrix-factorization affinity scores (CSV). Ingestion is skip-and-tally:
malformed records are counted with a reason and never abort the run. The
only fatal conditions are a missing file and a transaction log that yields
zero valid rows. The JSON, JSONL and CSV writers that the outputs
share live here too, and so does the one format of the state files,
checkpoints and weight trajectories: one line writer, one checked reader
and one check for each kind of field (ids, counts, weight lists).
"""

from __future__ import annotations

import codecs
import csv
import gc
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import partial
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
# synthetic.weight_scale has the same bound. A world's true weights are
# normal draws of that scale; SyntheticWorld divides them by feature
# deviations of at least 0.2 and sums them against features of a few tens
# at most, so below 1e100 its logits stay far inside the float64 range.
# Near 1e308 that division overflows and a simulate's regret is NaN.
# learner.mf_bias_coeff and synthetic.mf_bias_coeff are bounded in
# magnitude too. An offer's logit adds the coefficient times its mf score,
# itself of magnitude at most 1e100, so the product stays at most 1e200.
# Near 1e308 that product overflows.
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


def write_state_file(path: str | Path, header: dict, keys: Sequence[tuple[str, str]], pair: Iterable[int],
                     counts: Iterable[int], weights: Iterable[Sequence[float]], t: Iterable[int] | None = None) -> None:
    """Write a state file: the header, then line i holding the pair
    keys[pair[i]], t[i] when t is given, counts[i] as update_count and
    weights[i] (finite floats). Each line equals json.dumps of its fields
    with sort_keys=True, which writes floats with float.__repr__; each
    distinct id is encoded once."""
    quoted = {i: json.dumps(i) for i in set(itertools.chain.from_iterable(keys))}
    prefix = [f'{{"category_id": {quoted[c]}, "member_id": {quoted[m]}, ' for m, c in keys]
    stamps = itertools.repeat("") if t is None else map('"t": {}, '.format, t)
    lines = (
        f'{prefix[p]}{stamp}"update_count": {n}, "weights": [{", ".join(map(float.__repr__, w))}]}}\n'
        for p, stamp, n, w in zip(pair, stamps, counts, weights)
    )
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.writelines(lines)


def read_state_file(path: str | Path, kind: str, version: int, width: int, fields: Sequence[str],
                    rule: Callable[..., tuple[int, str] | None], build: Callable[..., T],
                    header_fields: Sequence[str] = ()) -> tuple[dict, T]:
    """Read a state file: a JSON header line whose feature_order_version
    must equal version, then one JSON object per non-blank line.

    The header's header_fields and every line's fields are checked by
    _check_field, width being the length of a weight list. rule gets the
    checked columns, one per field in file order, and returns the row of
    the first line that breaks the file's cross-line rule and why, or
    None; build gets the checked header fields, then the columns.
    Returns the header and what build returned. The lines are decoded at
    once, parsed one C scan a line and checked a column at a time; only
    a fault sends the file to _first_fault to name the first faulty line.
    Every failure becomes ConfigError("<kind> <path> line <n>: <reason>").
    """
    lineno = 1
    try:
        header, texts = _split_state_file(path, kind, version)
        head = [_check_field(name, [header[name]], width)[0] for name in header_fields]
        # Parsing makes no cycles: the cyclic collector would only walk the heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            loaded = None if texts is None else _load_columns(texts, fields, width, rule, partial(build, *head))
        finally:
            if enabled:
                gc.enable()
        if loaded is not None:
            return header, loaded
        lineno, fault = _first_fault(path, fields, width, rule)
    except RECORD_ERRORS as exc:
        fault = exc
    reason = f"missing field {fault}" if isinstance(fault, KeyError) else fault
    raise ConfigError(f"{kind} {path} line {lineno}: {reason}")


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


def _load_columns(texts: list[str], fields: Sequence[str], width: int, rule: Callable[..., tuple[int, str] | None],
                  build: Callable[..., T]) -> T | None:
    """build of the checked columns, each holding one field of the JSON
    object of every text; None when a text is not one JSON object holding
    every field, or a check fails, the rule is broken or build raises.
    The texts are parsed SCAN_LINES at a time."""
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
        columns = [_check_field(field, column, width) for field, column in zip(fields, columns)]
        return None if rule(*columns) is not None else build(*columns)
    except RECORD_ERRORS:
        return None


def _first_fault(path: str | Path, fields: Sequence[str], width: int,
                 rule: Callable[..., tuple[int, str] | None]) -> tuple[int, Exception | str]:
    """The number and the fault of the first faulty line of a state file,
    found line by line: each line is decoded and parsed on its own and its
    fields checked in order as one-entry columns, then the rule runs over
    the lines before the first line that fails."""
    columns: list[list] = [[] for _ in fields]
    linenos, fault = [], None
    with Path(path).open("rb") as fh:
        try:
            for lineno, line in enumerate(itertools.islice(_lines(fh), 1, None), start=2):
                if text := line.decode("utf-8").strip():
                    obj = json.loads(text)
                    for column, value in zip(columns, [_check_field(f, [obj[f]], width)[0] for f in fields]):
                        column.append(value)
                    linenos.append(lineno)
        except RECORD_ERRORS as exc:
            fault = (lineno, exc)
    broken = rule(*columns)
    if broken is None and fault is None:
        raise RuntimeError(f"{path}: its lines pass the line checks that the column checks failed")
    return fault if broken is None else (linenos[broken[0]], broken[1])


def _check_field(name: str, column: list, width: int) -> list:
    """A column of the named state-file field, checked by the check of
    its kind: ids end in _id, weight lists in weights, and every other
    field is a count."""
    if name.endswith("weights"):
        return check_weights(column, width)
    return (check_ids if name.endswith("_id") else check_counts)(column, name)


def check_ids(column: list, name: str) -> list[str]:
    """A column of ids read from a state file, as it is. Raises ValueError
    naming the first entry that is not a non-empty string."""
    if column and (set(map(type, column)) != {str} or not all(column)):
        bad = next(v for v in column if type(v) is not str or not v)
        raise ValueError(f"{name} must be a non-empty string, got {bad!r}")
    return column


def check_counts(column: list, name: str) -> list[int]:
    """A column of counts read from a state file, as it is. Raises ValueError
    naming the first entry that is not an integer in [0, 2**63); booleans
    are not counts."""
    if column and (set(map(type, column)) != {int} or min(column) < 0 or max(column) >= 2**63):
        bad = next(v for v in column if type(v) is not int or not 0 <= v < 2**63)
        raise ValueError(f"{name} must be a non-negative integer below 2**63, got {bad!r}")
    return column


def check_weights(column: list, width: int) -> list[list[float]]:
    """A column of weight lists read from a state file, as it is when
    every entry is width finite floats, else each entry as floats. For
    the first entry that is not width finite numbers (booleans are not
    numbers), raises what a check of that entry alone raises: ValueError
    naming it, TypeError or OverflowError."""
    if (set(map(type, column)) <= {list} and set(map(len, column)) <= {width}
            and set(map(type, itertools.chain.from_iterable(column))) <= {float}
            and all(map(math.isfinite, itertools.chain.from_iterable(column)))):
        return column
    for values in column:
        if len(values) != width or bool in map(type, values) or not all(map(math.isfinite, values)):
            raise ValueError(f"weights must be {width} finite numbers, got {values!r}")
    return [list(map(float, values)) for values in column]


def ingest_transactions(path: str | Path) -> IngestResult:
    """Read the transaction CSV into a TransactionLog, rows sorted by
    event_date ascending (stable).

    A plain file (see _plain_transactions) is split as byte columns; any
    other goes through the per-row loop, which skips and tallies bad rows.
    Both give the same log.

    Raises IngestError if the file is missing, the header is wrong, or no
    valid rows remain after validation.
    """
    with _open_checked(path) as fh:
        log = _plain_transactions(fh.read())
    if log is not None:
        return IngestResult(log, [])
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


_PLAIN_HEADER = ",".join(TRANSACTION_FIELDS).encode("ascii")
# The widest field of a plain transaction file whose column is gathered
# as bytes. Gathering takes one pass over the rows and up to one byte a
# row per position; a plain line is at least 19 bytes long, so 64
# positions stay within a few times the size of the file.
GATHER_WIDTH = 64


def _plain_transactions(data: bytes) -> TransactionLog | None:
    """The TransactionLog of a transaction file's bytes when the per-row
    loop would keep every row, with the same values; None otherwise.

    The file qualifies when, after an optional UTF-8 byte-order mark, it
    is printable ASCII without a quote, its lines end in \n or \r\n (the
    last may end in neither), its first line is the header exactly, and
    each later line holds five fields, none empty, wider than the csv
    module's field size limit or with a space at an edge: the csv reader
    then splits each line at its commas, and strip changes no field. And
    every distinct event_date must pass _iso_date, and every distinct
    quantity be an integer of at least 1. The file is split once at its
    line ends and commas, each column is coded by one np.unique over its
    rows' bytes, and the rows are put in date order by one stable sort.
    """
    data = data.removeprefix(codecs.BOM_UTF8)
    if not data.endswith(b"\n"):
        data += b"\n"
    if b'"' in data or not data.startswith(_PLAIN_HEADER):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    crs = np.flatnonzero(buf == ord("\r"))
    # The only control bytes are line ends, each \r the first of a \r\n.
    if (buf.max() > 0x7E or np.count_nonzero(buf < 0x20) != len(newlines) + len(crs)
            or (buf[crs + 1] != ord("\n")).any()):
        return None
    del crs
    # A line holds five fields when four more commas come before its
    # newline than before the newline of the line before it.
    commas = np.flatnonzero(buf == ord(","))
    if len(newlines) < 2 or len(commas) != 4 * len(newlines) or not np.array_equal(
        np.searchsorted(commas, newlines), np.arange(4, 4 * len(newlines) + 1, 4)
    ):
        return None
    ends = newlines - (buf[newlines - 1] == ord("\r"))  # where each line's text ends
    if ends[0] != len(_PLAIN_HEADER):
        return None
    # Each row's six cuts: the newline before it, its commas, its end.
    cuts = np.column_stack((newlines[:-1], commas.reshape(-1, 4)[1:], ends[1:]))
    del newlines, commas, ends
    lens = np.diff(cuts, axis=1) - 1
    if lens.min() < 1 or lens.max() > csv.field_size_limit():
        return None
    if (buf[cuts[:, :-1] + 1] == ord(" ")).any() or (buf[cuts[:, 1:] - 1] == ord(" ")).any():
        return None
    (members, member), (categories, category), (brands, brand), (dates, day), (quantities, _) = (
        _code_field(data, cuts[:, k] + 1, lens[:, k]) for k in range(5)
    )
    try:
        ordinals = np.array([_iso_date(d, "event_date").toordinal() for d in dates], dtype=np.int64)
        if min(map(int, quantities)) < 1:
            return None
    except ValueError:
        return None
    day = ordinals[day]
    order = np.argsort(day, kind="stable")
    return TransactionLog(members, categories, brands, member[order], category[order], brand[order], day[order])


def _code_field(data: bytes, starts: np.ndarray, lens: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted distinct texts of one field of a plain file, given each
    row's start and length, and each row's code: its position among them.

    The rows' bytes are gathered one byte position at a time, zero past a
    row's end; the positions where every row holds the same byte are
    dropped, since they neither order nor tell apart any two rows. Up to 8
    bytes left are read as one big-endian uint64 a row, whose order is
    byte order and so sorted order for ASCII; more are sorted as bytes.
    A field wider than GATHER_WIDTH is decoded row by row instead."""
    width = int(lens.max())
    if width > GATHER_WIDTH:
        return encode(_texts(data, starts, lens))
    buf = np.frombuffer(data, dtype=np.uint8)
    varying = []
    for j in range(width):
        column = buf.take(starts + j, mode="clip")
        column[lens <= j] = 0
        if (column != column[0]).any():
            varying.append(column)
    varying += [np.zeros(len(lens), dtype=np.uint8)] * (8 - len(varying))
    keys = np.column_stack(varying)
    del varying
    keys = keys.view(">u8").astype(np.uint64) if keys.shape[1] == 8 else keys.view(f"S{keys.shape[1]}")
    distinct, code = np.unique(keys.ravel(), return_inverse=True)
    code = code.astype(np.int64, copy=False)
    first = np.empty(len(distinct), dtype=np.int64)
    first[code] = np.arange(len(code))  # a row of each distinct text
    return _texts(data, starts[first], lens[first]), code


def _texts(data: bytes, starts: np.ndarray, lens: np.ndarray) -> list[str]:
    """The ASCII text of each (start, length) slice of data."""
    return [data[s:s + n].decode("ascii") for s, n in zip(starts.tolist(), lens.tolist())]


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
